"""The pair runner: item order, item 0 on the calling thread, the serial
loop's error, no thread left behind, exactly two items."""

import threading

import pytest

from projpair.parallel import two_threads


def test_results_come_in_item_order():
    threads = threading.active_count()
    assert two_threads(lambda i: i * i, [3, 4]) == [9, 16]
    assert threading.active_count() == threads


def test_item_0_runs_on_the_calling_thread_and_item_1_on_a_worker():
    got = two_threads(lambda _: threading.current_thread(), ["first", "second"])
    assert got[0] is threading.current_thread()
    assert got[1] is not threading.current_thread()
    assert not got[1].is_alive()


def _failing(failing):
    """An item function that raises for the items in ``failing``; item 0
    waits until item 1 has finished, so item 1's error is the earlier one."""
    item1_done = threading.Event()
    finished = []

    def run(i):
        try:
            if i == 0:
                assert item1_done.wait(10.0)
            if i in failing:
                raise ValueError(f"item {i} failed")
            return i
        finally:
            if i == 1:
                item1_done.set()
            finished.append(i)

    return run, finished


@pytest.mark.parametrize("failing, message", [((0, 1), "item 0 failed"), ((1,), "item 1 failed"),
                                              ((0,), "item 0 failed")], ids=["both", "item-1", "item-0"])
def test_raises_item_0s_error_first_after_both_items_finish(failing, message):
    run, finished = _failing(failing)
    threads = threading.active_count()
    with pytest.raises(ValueError, match=message):
        two_threads(run, [0, 1])
    assert threading.active_count() == threads
    assert sorted(finished) == [0, 1]


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_any_other_item_count_is_refused(n):
    calls = []
    threads = threading.active_count()
    with pytest.raises(ValueError, match="exactly two items"):
        two_threads(calls.append, list(range(n)))
    assert calls == [] and threading.active_count() == threads
