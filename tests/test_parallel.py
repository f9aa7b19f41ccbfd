"""The two-thread map: item order, the serial loop's error, no thread left behind."""

import sys
import threading

import pytest

from projpair.parallel import two_threads


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_results_come_in_item_order(n):
    threads = threading.active_count()
    assert two_threads(lambda i: i * i, list(range(n))) == [i * i for i in range(n)]
    assert threading.active_count() == threads


def test_fewer_than_two_items_run_on_the_calling_thread():
    assert two_threads(lambda _: threading.current_thread(), ["only"]) == [threading.current_thread()]


def test_every_item_runs_once_under_fast_switching():
    # far more items than threads and a switch interval a thousand times
    # shorter than the default: two threads taking one item would show up
    # as a repeated index, a lost one as a missing index
    calls = []

    def square(i):
        calls.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            assert two_threads(square, range(500)) == [i * i for i in range(500)]
            assert sorted(calls) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


def test_raises_the_lowest_indexed_error_after_both_threads_finish():
    # item 1 fails only after item 2 has failed: the serial loop's error is
    # item 1's, though item 2's came first
    item2_failed = threading.Event()
    finished = []

    def run(i):
        try:
            if i == 1:
                assert item2_failed.wait(10.0)
            if i in (1, 2):
                raise ValueError(f"item {i} failed")
            return i
        finally:
            if i == 2:
                item2_failed.set()
            finished.append(i)

    threads = threading.active_count()
    with pytest.raises(ValueError, match="item 1 failed"):
        two_threads(run, range(4))
    assert threading.active_count() == threads
    assert {0, 1, 2} <= set(finished)


def test_no_item_starts_after_a_failure():
    calls = []

    def run(i):
        calls.append(i)
        if i == 3:
            raise ValueError("item 3 failed")

    with pytest.raises(ValueError, match="item 3 failed"):
        two_threads(run, range(1000))
    assert set(range(4)) <= set(calls) and len(calls) < 1000
