"""Layered benchmark for impspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep7 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it repeats the workload for about ``--seconds`` and
reports the end-to-end metrics as medians over those iterations.
With ``--trace 1`` it runs the workload once untraced and once with the
layer wrappers of ``tracer.py`` installed, and reports the per-layer
metrics.  Either way every result is checked for correctness outside the
timed region.  Lines starting with ``#`` describe the run (seed, machine
context, every metric with its unit, failed checks); the last line of
standard output is the JSON result.  ``--smoke`` shrinks every workload
to about a second.  ``BENCHMARK.json`` gives the reason for each workload
it lists and ``metrics.py`` what each per-layer metric should move;
``exact6`` runs only by hand (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from metrics import END_TO_END, PER_LAYER, from_stats
from pool import ceiling

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep7", "sample12", "exact6", "cli7_records")
SETUP_REPEATS = 9
SETUP_CODE = "import impspace; impspace.cumulative_count(12)"


def _cpu() -> float:
    """CPU seconds of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _timed(fn):
    cpu, start = _cpu(), perf_counter()
    outcome = fn()
    return outcome, perf_counter() - start, _cpu() - cpu


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing impspace and
    computing the length-12 space size (one unmeasured warm-up first)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True)
        if i:
            times.append(perf_counter() - start)
    return median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def run_untraced(args, work, checks, oracle) -> dict[str, float]:
    walls, cpus, rates, outcomes = [], [], [], []
    start = perf_counter()
    while True:
        outcome, wall, cpu = _timed(work.run)
        walls.append(wall)
        cpus.append(cpu)
        rates.append(outcome.work / wall)
        outcomes.append(outcome.exact)
        last = outcome
        # start another iteration only if at least half of it fits
        if perf_counter() - start + wall / 2 >= args.seconds:
            break
    rss = peak_rss_mb()

    work.check(checks, oracle, last)
    checks(all(exact == outcomes[0] for exact in outcomes),
           f"exact counts differ between iterations: {outcomes}")
    print(f"# iterations {len(walls)}, wall_s {walls}")
    print(f"# exact counts {json.dumps(outcomes[0])}")
    print(f"# pool.ceiling {ceiling()} x")

    return {
        "programs_per_s": median(rates),
        "cpu_s": median(cpus),
        "peak_rss_mb": rss,
        "setup_s": measure_setup(),
    }


def run_traced(args, work, checks, oracle, spool: Path) -> dict[str, float]:
    from tracer import Tracer

    untraced, wall_untraced, _ = _timed(work.run)
    spool.mkdir()
    tracer = Tracer(spool)
    tracer.install()
    try:
        traced, wall_traced, _ = _timed(work.run)
    finally:
        tracer.uninstall()
    main_self = tracer.self_sum()
    tracer.collect()

    work.check(checks, oracle, traced)
    checks(traced.exact == untraced.exact,
           f"exact counts differ traced/untraced: {traced.exact} "
           f"{untraced.exact}")
    counts = tracer.stats.counts
    for name in ("vm.halted", "vm.steps", "halting.rejections",
                 "explorer.distinct_outputs"):
        if name in untraced.exact:
            checks(counts[name] == untraced.exact[name],
                   f"traced {name} {counts[name]} != {untraced.exact[name]}")
    checks(main_self <= wall_traced,
           f"main-process self time {main_self} > wall {wall_traced}")
    for pid, worker_self in tracer.worker_self.items():
        checks(worker_self <= wall_traced,
               f"worker {pid} self time {worker_self} > wall {wall_traced}")
    print(f"# traced wall {wall_traced} s, span self time: main process "
          f"{main_self} s, workers {sorted(tracer.worker_self.values())} s")

    pool_ceiling = ceiling()
    _, one, _ = _timed(lambda: work.speedup_pass(1))
    _, two, _ = _timed(lambda: work.speedup_pass(2))
    return from_stats(tracer.stats, wall_untraced, wall_traced,
                      untraced.exact, pool_ceiling, one / two)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    oracle_path = ROOT / "tests" / "bruteforce.py"
    if not (ROOT / "src" / "impspace" / "__init__.py").is_file() \
            or not oracle_path.is_file():
        print(f"perfbench: {ROOT} is not an impspace checkout "
              "(src/impspace and tests/bruteforce.py are needed)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        oracle = workloads.load_oracle(ROOT)
        work = workloads.make(args.workload, args.seed, args.smoke, scratch)
        checks = workloads.Checks()
        print(f"# workload {args.workload} seed {args.seed} smoke {args.smoke} "
              f"python {platform.python_version()} cpu_count {os.cpu_count()}")
        if args.trace:
            metrics = run_traced(args, work, checks, oracle, scratch / "spool")
            units = {n: u for n, (u, _, _) in PER_LAYER.items()}
        else:
            metrics = run_untraced(args, work, checks, oracle)
            units = {n: u for n, (u, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    shown = dict(metrics)
    if args.workload == "sample12" and not args.trace:
        # each draw runs one program: the sampler's throughput in draws/s
        shown["draws_per_s"] = metrics["programs_per_s"]
        units = dict(units, draws_per_s="1/s")
    for name, value in shown.items():
        print(f"# {args.workload} {name} = {value} {units[name]}")
    fail_frac = checks.failed / checks.attempted
    print(f"# {args.workload} check_fail_frac = {fail_frac} "
          f"({checks.failed}/{checks.attempted} checks)")
    for label in checks.failures:
        print(f"# FAILED {label}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
