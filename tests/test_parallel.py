"""The pool contract of ``impspace.parallel.ordered_map`` at 2-4 workers."""

import os
import signal
import threading
import time

import pytest

from impspace.parallel import ordered_map


@pytest.fixture(autouse=True)
def deadline():
    # a pool that waits forever fails the test instead of stalling the suite
    def expire(signum, frame):
        raise TimeoutError("ordered_map did not finish within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def exit_on_three(task):
    if task == 3:
        os._exit(1)
    return task


def raise_on_five(task):
    if task == 5:
        raise ValueError(f"bad task {task}")
    return task


def slow_double(task):
    time.sleep(0.01)
    return 2 * task


def test_results_come_back_in_task_order_without_threads():
    # worker 2 inherits the parent's pipe ends to workers 0 and 1; unless
    # it closes them, those never see the end of their task pipes
    counts = []
    for result in ordered_map(slow_double, range(20), 3):
        counts.append(threading.active_count())
        assert result == 2 * len(counts) - 2
    assert counts == [1] * 20
    assert_no_child()


def test_interleaved_maps_both_finish():
    # the second map's workers inherit the first map's pipe ends too
    first = ordered_map(abs, range(-10, 0), 2)
    second = ordered_map(abs, range(-5, 0), 2)
    assert next(first) == 10 and next(second) == 5
    assert list(first) == list(range(9, 0, -1))
    assert list(second) == [4, 3, 2, 1]
    assert_no_child()


def test_forks_one_worker_per_task_up_to_the_worker_count():
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    assert list(ordered_map(abs, [-1], 4)) == [1]
    assert len(forks) == 1
    assert list(ordered_map(abs, range(3), 4)) == [0, 1, 2]
    assert len(forks) == 4
    assert list(ordered_map(abs, range(10), 2)) == list(range(10))
    assert len(forks) == 6
    assert list(ordered_map(abs, [], 2)) == []
    assert len(forks) == 6


def test_task_exception_reaches_the_caller():
    with pytest.raises(ValueError, match="^bad task 5$") as info:
        list(ordered_map(raise_on_five, range(20), 2))
    assert "in raise_on_five" in str(info.value.__cause__)  # worker's trace
    assert_no_child()


def test_dead_worker_raises_with_its_exit_status():
    with pytest.raises(RuntimeError, match="exit status 1 .* task 3$"):
        list(ordered_map(exit_on_three, range(20), 2))
    assert_no_child()


def test_closing_early_leaves_no_child():
    results = ordered_map(slow_double, range(100), 2)
    assert next(results) == 0
    results.close()
    assert_no_child()
