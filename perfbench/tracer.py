"""In-memory spans and counters around the layer entry points of impspace.

The tracer never edits the package.  It swaps the module attributes that
impspace's own modules look up at call time (``impspace.explorer.classify``,
``impspace.halting.unrank_canonical``, ``impspace.cli.sweep`` and so on)
for timing wrappers, and puts the originals back on ``uninstall``.

Per-program calls are far too many to keep one record each, so every span
name keeps a call count, its inclusive time and its self time (inclusive
minus the time its child spans cover).  A span stack per process gives
each span its parent.

The package's process pools fork after the wrappers are installed, so
their workers run the same wrappers against a forked copy of the tracer.
A worker clears that copy when it starts its first task, and after each
task appends what it measured since as one JSON line to a spool file of
its own; ``collect`` folds the spool files back in once the workload has
returned.  Task functions are wrapped for that reason: the end of a task
is the only point at which a pool worker is known to be between programs.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import impspace.cli
import impspace.explorer
import impspace.halting
import impspace.vm


class _Stats:
    """What one process measured: per-span totals and plain counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def to_json(self) -> dict:
        return {"calls": self.calls, "total": self.total,
                "self": self.self_time, "counts": self.counts}

    def add_json(self, data: dict) -> None:
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        for name, value in data["total"].items():
            self.total[name] += value
        for name, value in data["self"].items():
            self.self_time[name] += value


class _TimedIter:
    """Iterator whose every ``next`` is one span; counts the items it yields."""

    __slots__ = ("_it", "_tracer", "_name", "_count")

    def __init__(self, it, tracer: "Tracer", name: str, count: str):
        self._it = it
        self._tracer = tracer
        self._name = name
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.span(self._name, next, self._it)
        self._tracer.stats.counts[self._count] += 1
        return item


class Tracer:
    """Spans and counters of one traced workload run, kept in memory."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.stats = _Stats()
        self.worker_self: dict[int, float] = {}
        self._worker_pid: int | None = None
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            stats = self.stats
            stats.calls[name] += 1
            stats.total[name] += elapsed
            stats.self_time[name] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    def self_sum(self) -> float:
        """Self time of every span this process recorded, summed."""
        return sum(self.stats.self_time.values())

    def _task(self, name: str, fn, *args):
        pid = os.getpid()
        if pid == self.pid:
            return self.span(name, fn, *args)
        if self._worker_pid != pid:
            # first task in a forked worker: drop the parent's copy
            self._worker_pid = pid
            self.stats = _Stats()
            self._stack = []
        result = self.span(name, fn, *args)
        line = json.dumps({"pid": pid, "self_sum": self.self_sum(),
                           **self.stats.to_json()})
        with open(self.spool_dir / f"{pid}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.stats = _Stats()
        return result

    def collect(self) -> None:
        """Fold the spool files written by pool workers into these stats."""
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                data = json.loads(line)
                self.stats.add_json(data)
                pid = data["pid"]
                self.worker_self[pid] = (self.worker_self.get(pid, 0.0)
                                         + data["self_sum"])
            path.unlink()

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        # the wrapper takes the original's module and qualified name, so a
        # pool pickles a wrapped task function by reference as before
        setattr(owner, attr, functools.update_wrapper(make(original), original))

    def install(self) -> None:
        span = self.span

        def timed(name):
            return lambda fn: lambda *a, **k: span(name, fn, *a, **k)

        def timed_iter(name, count):
            return lambda fn: lambda *a, **k: _TimedIter(fn(*a, **k), self,
                                                         name, count)

        def vm_call(name, count_steps):
            def make(fn):
                def wrapper(*a, **k):
                    result = span(name, fn, *a, **k)
                    counts = self.stats.counts
                    counts["vm.halted"] += result.halted
                    if count_steps:
                        counts["vm.steps"] += result.steps
                    return result
                return wrapper
            return make

        def output_string(fn):
            def wrapper(store):
                out = span("vm.output_string", fn, store)
                self.stats.counts["vm.output_bits"] += len(out)
                return out
            return wrapper

        def randbelow(fn):
            def wrapper(rng, bound):
                self.stats.counts["halting.draws"] += 1
                return span("halting.randbelow", fn, rng, bound)
            return wrapper

        def task(name):
            return lambda fn: lambda *a: self._task(name, fn, *a)

        def summary(fn):
            def wrapper(*a, **k):
                result = span("explorer.sweep_summary", fn, *a, **k)
                self.stats.counts["explorer.distinct_outputs"] = \
                    len(result.complexity)
                return result
            return wrapper

        def sample(fn):
            def wrapper(*a, **k):
                result = span("halting.draw_halting_sample", fn, *a, **k)
                self.stats.counts["halting.rejections"] += result.rejections
                return result
            return wrapper

        e, h, c, v = (impspace.explorer, impspace.halting, impspace.cli,
                      impspace.vm)
        self._patch(e, "iter_fixed_length",
                    timed_iter("enumeration.iter", "enumeration.iter_programs"))
        self._patch(h, "unrank_canonical", timed("enumeration.unrank"))
        self._patch(e, "classify", vm_call("vm.classify", False))
        self._patch(h, "classify", vm_call("vm.classify", False))
        self._patch(e, "run", vm_call("vm.run", True))
        self._patch(v, "output_string", output_string)
        self._patch(v, "nat_to_string", timed("lang.nat_to_string"))
        self._patch(h, "program_length", timed("lang.program_length"))
        self._patch(h.SplitMix64, "randbelow", randbelow)
        self._patch(e, "_summary_task", task("explorer.summary_task"))
        self._patch(e, "_record_task", task("explorer.record_task"))
        self._patch(h, "_draw_quota", task("halting.draw_quota"))
        self._patch(e, "sweep_summary", summary)
        self._patch(c, "sweep_summary", summary)
        self._patch(c, "sweep", timed_iter("explorer.records",
                                           "explorer.records"))
        self._patch(h, "draw_halting_sample", sample)
        self._patch(c, "main", timed("cli.main"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
