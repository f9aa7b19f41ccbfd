"""Run a function over a list of items on two threads.

numpy releases the GIL in its array passes, so two threads working on large
arrays run on two cores.  Two is a fixed rule, not a setting.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def two_threads(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(item) for item in items]``, shared between this thread and one worker.

    Each thread takes the next item not yet taken, in item order, so the
    results come back in item order.  Once an item has failed no further
    item is started; after both threads have finished, the error of the
    lowest-indexed failed item is raised, which is the error a serial loop
    would raise (every item before it has been taken, and has finished).
    No thread is left running.  Fewer than two items run inline on this
    thread, and no thread is started.
    """
    if len(items) < 2:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def run() -> None:
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i == len(items) or errors:
                    return
                taken += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised on the calling thread
                with lock:
                    errors[i] = exc

    worker = threading.Thread(target=run, name="projpair-worker")
    worker.start()
    try:
        run()
    finally:
        worker.join()
    if errors:
        raise errors[min(errors)]
    return results
