"""The one process pool: an ordered map shared by the sweeps and the sampler."""


def ordered_map(fn, tasks, workers: int):
    """Yield ``fn`` of each task in task order: in-process at one worker, else
    on a forked pool (so ``fn`` is module-level and each task self-contained)."""
    if workers == 1:
        yield from map(fn, tasks)
        return
    from multiprocessing import get_context  # only a pool needs it
    with get_context("fork").Pool(workers) as pool:
        yield from pool.imap(fn, tasks)
