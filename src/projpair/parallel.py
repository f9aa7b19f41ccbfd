"""Run a function on the two views of a pair, one on each of two threads.

The library's one concurrency rule: a pair's two views run on two threads,
one view each, whether they are projected (``check``, ``solve`` with a
phantom target, continuous ``project``) or built into the discrete
operator's window tables.  numpy releases the GIL in its array passes, so
the two threads overlap there; the Python steps between the passes hold it
and run in turn.  Two is a fixed rule, not a setting: :func:`two_threads`
takes the two views as its two arguments.  Measured on 2 vCPUs:
two threads shorten the whole-domain operator build and the projection of
views of thousands of bins, and lengthen that of views of 100 bins, by
about 1 ms a pair (ROADMAP's carried-over note on the two threads has the
numbers).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def two_threads(fn: Callable[[T], R], first: T, second: T) -> tuple[R, R]:
    """``(fn(first), fn(second))``: ``second`` on one worker thread,
    ``first`` on this one.

    Both calls run to their end and the worker is joined before anything is
    raised, so no thread is left running.  Then ``first``'s error is raised
    first, else ``second``'s, which is the error a serial loop would raise.
    """
    # leaving the block joins the worker, also when the first call raises
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="projpair-worker") as pool:
        pending = pool.submit(fn, second)
        done = fn(first)
    return done, pending.result()
