"""The one process pool: an ordered map shared by the sweeps and the sampler."""

from collections import deque


def ordered_map(fn, tasks, workers: int):
    """Yield ``fn`` of each task in task order: in-process at one worker, else
    on a forked pool (so ``fn`` is module-level and each task self-contained).

    At most two tasks per worker are submitted and not yet yielded, so a
    caller that falls behind the pool holds at most that many results.
    """
    if workers == 1:
        yield from map(fn, tasks)
        return
    from multiprocessing import get_context  # only a pool needs it
    with get_context("fork").Pool(workers) as pool:
        pending = deque()
        for task in tasks:
            pending.append(pool.apply_async(fn, (task,)))
            if len(pending) == 2 * workers:
                yield pending.popleft().get()
        while pending:
            yield pending.popleft().get()
