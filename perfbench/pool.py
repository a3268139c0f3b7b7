"""The machine's measured parallel ceiling for two processes.

Parallel speed-ups are judged against what two busy processes achieve on
the machine that runs the benchmark, not against its core count: on a
shared or throttled host the two can differ a lot.

The workers are forked, as the package's own pools are: a "spawn"
context would start multiprocessing's resource-tracker process, which
outlives the benchmark and is not waited for.
"""

from __future__ import annotations

from multiprocessing import get_context
from statistics import median
from time import perf_counter

SPIN_ROUNDS = 500_000
TRIALS = 3


def _spin(rounds: int) -> int:
    x = 1
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


def _worker(index: int, barrier, done, rounds: int, trials: int) -> None:
    for _ in range(trials):
        barrier.wait()
        if index == 0:
            _spin(2 * rounds)
            done.put(perf_counter())
        barrier.wait()
        _spin(rounds)
        done.put(perf_counter())


def ceiling(rounds: int = SPIN_ROUNDS, trials: int = TRIALS) -> float:
    """Speed-up of two processes spinning at once over one spinning twice.

    Both phases run in the same two worker processes, released together
    with the timer by a barrier, so start-up is not timed; a worker
    reports when it finished.  The median over ``trials`` is returned.
    """
    ctx = get_context("fork")
    barrier, done = ctx.Barrier(3), ctx.Queue()
    workers = [ctx.Process(target=_worker,
                           args=(i, barrier, done, rounds, trials))
               for i in range(2)]
    for worker in workers:
        worker.start()
    ratios = []
    try:
        for _ in range(trials):
            barrier.wait(timeout=60)
            start = perf_counter()
            serial = done.get(timeout=60) - start
            barrier.wait(timeout=60)
            start = perf_counter()
            parallel = max(done.get(timeout=60) for _ in workers) - start
            ratios.append(serial / parallel)
    finally:
        for worker in workers:
            worker.join(timeout=60)
            if worker.is_alive():
                worker.kill()
                worker.join()
    return median(ratios)
