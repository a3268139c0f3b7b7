"""The four workloads, each one closed-loop call into impspace's public API.

A workload's ``run`` performs one iteration and returns an ``Outcome``:
how much work it did, the exact counts that must repeat on every
iteration with the same inputs, and the raw result for the checks.  A
workload's ``check`` verifies one result outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import impspace.cli
import impspace.explorer
import impspace.halting
from impspace.enumeration import unrank_canonical
from impspace.lang import nat_to_string, program_length
from impspace.vm import run

BUDGET = 10_000
SAMPLE_LENGTH = 12
ORACLE_SUBSET = 200

# Pinned by the acceptance gate (criteria 1 and 3).
CENSUS_PAIRS = {1: (1, 0), 3: (2, 1), 4: (103, 1), 5: (2_059, 65),
                6: (34_491, 1_279), 7: (522_060, 24_551)}
CUMULATIVE = {5: 2_232, 6: 38_002, 7: 584_613, 12: 360_770_731_825}
# 10,000 at length 7 is the paper's figure; 1,000 at length 6 and the
# steps below were measured once and are pinned so that every later run
# must repeat them.  The steps are those charged by ``run`` over every
# program of length <= 6 at budget 10,000: the halting programs' own
# steps plus the full budget for each of the 1,346 that do not halt.
DISTINCT_OUTPUTS = {6: 1_000, 7: 10_000}
EXACT_STEPS = {6: 13_546_435}


def load_oracle(root: Path):
    """The test suite's independent interpreter, imported read-only."""
    path = root / "tests" / "bruteforce.py"
    spec = importlib.util.spec_from_file_location("bruteforce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checks:
    """Correctness checks attempted and failed; the first failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)


@dataclass
class Outcome:
    work: int
    exact: dict
    result: object = field(repr=False)


def _oracle_output(oracle, program) -> str | None:
    store = oracle.run_naive(program)
    if store is None:
        return None
    return "".join(nat_to_string(v) for _, v in sorted(store.items()))


def _check_census(check: Checks, census: dict, total_halting: int,
                  length: int) -> None:
    for n in range(1, length + 1):
        want = CENSUS_PAIRS.get(n)
        check(census.get(n) == want, f"census length {n}: {census.get(n)}")
    total = sum(h + nh for h, nh in census.values())
    check(total == CUMULATIVE[length], f"census total {total}")
    pinned = sum(h for n, (h, _) in CENSUS_PAIRS.items() if n <= length)
    check(total_halting == pinned, f"total_halting {total_halting}")


def _check_program(check: Checks, oracle, position: int, length: int,
                   halted: bool, steps: int, output: str | None) -> None:
    """One recorded program against the oracle and the budgeted interpreter."""
    program = unrank_canonical(position)
    check(program_length(program) == length, f"length at {position}")
    again = run(program, BUDGET)
    check((again.halted, again.steps) == (halted, steps),
          f"run disagrees at {position}")
    if halted:
        got = _oracle_output(oracle, program)
        check(got is not None and (output is None or got == output),
              f"oracle output at {position}")


def _check_summary(check: Checks, oracle, summary, length: int) -> None:
    census = {n: (row.halted, row.not_halted)
              for n, row in summary.census.items()}
    _check_census(check, census, summary.total_halting, length)
    if length in DISTINCT_OUTPUTS:
        check(len(summary.complexity) == DISTINCT_OUTPUTS[length],
              f"distinct outputs {len(summary.complexity)}")
    producers = sum(e.producers for e in summary.complexity.values())
    check(producers == summary.total_halting, f"producers {producers}")
    for entry in summary.complexity.values():
        program = unrank_canonical(entry.witness)
        check(program_length(program) == entry.best_length
              and _oracle_output(oracle, program) == entry.output,
              f"witness {entry.witness} for {entry.output!r}")


def _summary_exact(summary, exact_budget: bool) -> dict:
    exact = {"vm.halted": summary.total_halting,
             "explorer.distinct_outputs": len(summary.complexity)}
    if exact_budget:
        halted_steps = sum(s * n for row in summary.steps_hist.values()
                           for s, n in row.items())
        not_halted = sum(row.not_halted for row in summary.census.values())
        exact["vm.steps"] = halted_steps + not_halted * summary.budget
    return exact


class Sweep:
    """``sweep_summary`` at one worker: the exhaustive census and table."""

    def __init__(self, length: int, exact_budget: bool):
        self.length = length
        self.exact_budget = exact_budget

    def run(self) -> Outcome:
        summary = impspace.explorer.sweep_summary(
            self.length, BUDGET, workers=1, exact_budget=self.exact_budget)
        return Outcome(summary.total,
                       _summary_exact(summary, self.exact_budget), summary)

    def speedup_pass(self, workers: int) -> None:
        impspace.explorer.sweep_summary(self.length, BUDGET, workers=workers,
                                        exact_budget=self.exact_budget)

    def check(self, check: Checks, oracle, outcome: Outcome) -> None:
        _check_summary(check, oracle, outcome.result, self.length)
        if self.exact_budget and self.length in EXACT_STEPS:
            steps = outcome.exact["vm.steps"]
            check(steps == EXACT_STEPS[self.length], f"exact steps {steps}")


class Sample:
    """``draw_halting_sample`` at one worker over every length <= 12."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed

    def run(self) -> Outcome:
        sample = impspace.halting.draw_halting_sample(
            SAMPLE_LENGTH, self.n, BUDGET, seed=self.seed, workers=1)
        rows = hashlib.sha256(repr(sample.rows).encode()).hexdigest()
        return Outcome(len(sample.rows) + sample.rejections,
                       {"vm.halted": len(sample.rows),
                        "halting.rejections": sample.rejections,
                        "rows_sha256": rows}, sample)

    def speedup_pass(self, workers: int) -> None:
        impspace.halting.draw_halting_sample(
            SAMPLE_LENGTH, self.n, BUDGET, seed=self.seed, workers=workers)

    def check(self, check: Checks, oracle, outcome: Outcome) -> None:
        sample = outcome.result
        check(len(sample.rows) == self.n, f"sample size {len(sample.rows)}")
        check(sample.space_size == CUMULATIVE[SAMPLE_LENGTH],
              f"space size {sample.space_size}")
        check(all(0 <= pos < sample.space_size and 1 <= length <= SAMPLE_LENGTH
                  for pos, length, _ in sample.rows), "row range")
        rng = random.Random(self.seed)
        for pos, length, steps in rng.sample(sample.rows,
                                             min(ORACLE_SUBSET, self.n)):
            _check_program(check, oracle, pos, length, True, steps, None)


class CliRecords:
    """``impspace sweep --records`` at two workers, writing artifacts."""

    def __init__(self, length: int, seed: int, out_dir: Path):
        self.length = length
        self.seed = seed
        self.out_dir = out_dir

    def run(self) -> Outcome:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = impspace.cli.main([
                "sweep", "--max-length", str(self.length), "--budget",
                str(BUDGET), "--records", "--workers", "2",
                "--out", str(self.out_dir)])
        manifest = (self.out_dir / "manifest.json").read_bytes()
        files = json.loads(manifest)["files"]
        distinct = (self.out_dir / "complexity.csv").read_text().count("\n") - 1
        return Outcome(CUMULATIVE[self.length],
                       {"cli.artifact_bytes": len(manifest) + sum(
                            f["bytes"] for f in files.values()),
                        "explorer.distinct_outputs": distinct,
                        "manifest_sha256": hashlib.sha256(manifest).hexdigest()},
                       code)

    def speedup_pass(self, workers: int) -> None:
        impspace.explorer.sweep_summary(self.length, BUDGET, workers=workers)

    def check(self, check: Checks, oracle, outcome: Outcome) -> None:
        check(outcome.result == 0, f"sweep exit {outcome.result}")
        out = self.out_dir
        census_doc = json.loads((out / "census.json").read_text())
        census = {int(n): (row["halted"], row["not_halted"])
                  for n, row in census_doc["census"].items()}
        _check_census(check, census, census_doc["total_halting"], self.length)
        if self.length in DISTINCT_OUTPUTS:
            distinct = outcome.exact["explorer.distinct_outputs"]
            check(distinct == DISTINCT_OUTPUTS[self.length],
                  f"complexity rows {distinct}")

        with (out / "records.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        check(len(rows) == CUMULATIVE[self.length], f"record rows {len(rows)}")
        check(all(int(r["position"]) == i for i, r in enumerate(rows)),
              "record positions")
        per_length: dict[int, list[int]] = {}
        for r in rows:
            pair = per_length.setdefault(int(r["length"]), [0, 0])
            pair[r["halted"] != "true"] += 1
        check({n: tuple(p) for n, p in per_length.items()} == census,
              "records agree with census")
        rng = random.Random(self.seed)
        for r in rng.sample(rows, min(ORACLE_SUBSET, len(rows))):
            halted = r["halted"] == "true"
            _check_program(check, oracle, int(r["position"]), int(r["length"]),
                           halted, int(r["steps"]), r["output"])

        report = io.StringIO()
        with contextlib.redirect_stdout(report), \
                contextlib.redirect_stderr(io.StringIO()):
            code = impspace.cli.main(["audit", str(out)])
        audit = json.loads(report.getvalue())
        files = json.loads((out / "manifest.json").read_text())["files"]
        check(code == 0 and audit["verified"] == len(files)
              and not audit["mismatched"] and not audit["missing"],
              f"audit {audit}")


def make(name: str, seed: int, smoke: bool, scratch: Path):
    """The workload called ``name``; ``smoke`` shrinks it to a second or so."""
    if name == "sweep7":
        return Sweep(5 if smoke else 7, exact_budget=False)
    if name == "exact6":
        return Sweep(5 if smoke else 6, exact_budget=True)
    if name == "sample12":
        return Sample(500 if smoke else 20_000, seed)
    if name == "cli7_records":
        return CliRecords(5 if smoke else 7, seed, scratch / "cli_out")
    raise ValueError(f"unknown workload {name!r}")
