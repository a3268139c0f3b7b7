"""The one process pool: an ordered map shared by the sweeps and the sampler.

At more than one worker the parent forks each worker itself, the first
time a task goes to it, so a map of fewer tasks than workers starts no
idle process.  Worker ``w`` has a task pipe and a result pipe of its own
and gets tasks ``w``, ``w + workers``, ``w + 2 * workers``, ...; the
parent reads result ``i`` from the result pipe of worker ``i % workers``,
so results come back in task order with no thread in the parent to
relay them.  A worker that dies before returning a result still awaited
(its result pipe ends, or its task pipe breaks) makes the map raise
``RuntimeError`` with the worker's exit status instead of waiting for it.
"""

import os
import sys

# The parent-side pipe ends of every worker this process has running, in
# any map: a forked child closes them all, since a worker sees the end of
# its task pipe only once no other process can write to it.
_PARENT_ENDS = set()


def _serve(fn, tasks, results) -> int:
    """A worker's loop: send back ``(ok, result or exception)`` for each
    task received, and return exit code 0 once the task pipe is closed."""
    while True:
        try:
            task = tasks.recv()
        except EOFError:
            return 0
        try:
            reply = (True, fn(task))
        except Exception as exc:
            # the caller gets the worker's traceback as the __cause__
            from multiprocessing.pool import ExceptionWithTraceback
            reply = (False, ExceptionWithTraceback(exc, exc.__traceback__))
        results.send(reply)


def _fork(fn) -> list:
    """Fork one worker serving ``fn``; return ``[pid, task sender, result
    receiver]`` for the parent."""
    from multiprocessing.connection import Pipe  # only a pool needs it
    tasks, to_worker = Pipe(duplex=False)
    from_worker, results = Pipe(duplex=False)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for end in (*_PARENT_ENDS, to_worker, from_worker):
                end.close()
            code = _serve(fn, tasks, results)
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(code)
    tasks.close()
    results.close()
    _PARENT_ENDS.update((to_worker, from_worker))
    return [pid, to_worker, from_worker]


def ordered_map(fn, tasks, workers: int):
    """Yield ``fn`` of each task in task order: in-process at one worker,
    else on forked workers (see the module docstring), which call this
    very ``fn`` object; each task and its result cross a pipe pickled.

    Tasks are pulled lazily, and at most two tasks per worker are sent
    and not yet yielded, so a caller that falls behind the workers holds
    at most that many results.  Each task must pickle to less than a
    pipe's buffer (64 KiB on Linux): the parent writes a task to a worker
    that may itself be waiting to write a result.  When the map ends,
    raises or is closed, every pipe is closed and every worker reaped;
    workers still busy after a raise or a close are killed first.
    """
    if workers == 1:
        yield from map(fn, tasks)
        return
    started, sent, received = [], 0, 0
    try:
        for task in tasks:
            if sent < workers:
                started.append(_fork(fn))
            worker = started[sent % workers]
            try:
                worker[1].send(task)
            except OSError:  # name the oldest task it has not answered
                _died(worker, received + (sent - received) % workers)
            sent += 1
            if sent - received == 2 * workers:
                yield _result(started[received % workers], received)
                received += 1
        while received < sent:
            yield _result(started[received % workers], received)
            received += 1
    finally:
        for _, sender, receiver in started:
            sender.close()
            receiver.close()
            _PARENT_ENDS.difference_update((sender, receiver))
        for pid, _, _ in started:
            if pid is not None:
                if received < sent:  # a worker may be busy with a task
                    from signal import SIGKILL
                    os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _result(worker: list, index: int):
    """Result ``index`` from ``worker``'s pipe; a task's exception is
    raised here."""
    try:
        ok, value = worker[2].recv()
    except (EOFError, OSError):
        _died(worker, index)
    if ok:
        return value
    raise value


def _died(worker: list, index: int):
    """Reap a worker that ended before returning result ``index`` and
    raise ``RuntimeError`` naming its exit status."""
    pid, worker[0] = worker[0], None
    _, status = os.waitpid(pid, 0)
    raise RuntimeError(f"pool worker {pid} ended with exit status "
                       f"{os.waitstatus_to_exitcode(status)} before "
                       f"returning the result of task {index}")
