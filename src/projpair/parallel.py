"""Run a function on the two items of a pair, one on each of two threads.

The library's one concurrency rule: a pair's two views run on two threads,
one view each, whether they are projected (``check``, ``solve`` with a
phantom target, continuous ``project``) or built into the discrete
operator's window tables.  numpy releases the GIL in its array passes, so
the two threads run on two cores.  Two is a fixed rule, not a setting.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def two_threads(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(items[0]), fn(items[1])]``: item 1 on one worker thread, item 0
    on this one.

    Both items run to their end and the worker is joined before anything is
    raised, so no thread is left running.  Then item 0's error is raised
    first, else item 1's, which is the error a serial loop would raise.
    Any number of items other than two is refused.
    """
    if len(items) != 2:
        raise ValueError(f"two_threads runs exactly two items, got {len(items)}")
    second: dict[str, object] = {}

    def run() -> None:
        try:
            second["result"] = fn(items[1])
        except BaseException as exc:  # re-raised on the calling thread
            second["error"] = exc

    worker = threading.Thread(target=run, name="projpair-worker")
    worker.start()
    try:
        first = fn(items[0])
    finally:
        worker.join()
    if "error" in second:
        raise second["error"]
    return [first, second["result"]]
