"""Exhaustive program-space exploration and its summary statistics.

A *sweep* runs every program up to a length bound under one step budget
and records, per canonical position: length, halted flag, step count,
and output bitstring.  One mergeable fold (``SummaryFold``) turns rows into
the statistics, inside the sweep workers or over a record stream.  A
sweep that needs both the rows and the statistics (``sweep_summary`` with
a ``records`` sink) gets them from one pass: each worker folds its chunk
and hands back the chunk's rows with the fold.  The statistics are:

* the halting census per length;
* the shortest-producer table: for each output string, the minimal
  program length that produced it, the first witness position, and how
  many halting programs produced it;
* step-count and output-length histograms;
* empirical algorithmic probability of an output, with its -log2
  complexity estimate.

Also here: the closed-form upper bound ``x[0] := n`` for any target
string, and the four parameterized program families whose outputs grow
as 2**n, n!, n**n and n**(2**n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import log2
from typing import Callable, Iterable, Iterator

from .enumeration import count_programs, cumulative_count, iter_fixed_length
from .lang import (
    Add, Assign, Lt, Mul, Num, Program, Reg, Seq, While, SKIP,
    program_length, string_to_nat,
)
from .parallel import ordered_map
from .vm import classify, run


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One sweep row: what a single program did under the budget."""

    position: int
    length: int
    halted: bool
    steps: int
    output: str


@dataclass(frozen=True, slots=True)
class CensusRow:
    halted: int
    not_halted: int

    @property
    def total(self) -> int:
        return self.halted + self.not_halted

    @property
    def halted_pct(self) -> float:
        return round(100 * self.halted / self.total, 1)

    @property
    def not_halted_pct(self) -> float:
        return round(100 * self.not_halted / self.total, 1)


@dataclass(frozen=True, slots=True)
class ComplexityEntry:
    """Shortest discovered producer of one output string."""

    output: str
    best_length: int
    witness: int
    producers: int


class IncompleteCensusError(ValueError):
    """A census was requested over records not covering whole lengths."""


# ---------------------------------------------------------------------------
# The summary fold
# ---------------------------------------------------------------------------

def _add_counts(into: dict, part: dict) -> None:
    for key, n in part.items():
        into[key] = into.get(key, 0) + n


class SummaryFold:
    """Mergeable fold of sweep rows: ``add`` one row, ``merge`` another fold.

    Rows and parts may come in any order; every projection is the same.
    """

    __slots__ = ("halted", "not_halted", "producers", "steps_hist",
                 "output_hist")

    def __init__(self):
        self.halted: dict[int, int] = {}  # length: halting programs
        self.not_halted: dict[int, int] = {}  # length: the others
        self.producers: dict[str, list] = {}  # output: [length, witness, n]
        self.steps_hist: dict[int, dict[int, int]] = {}
        self.output_hist: dict[int, int] = {}

    def add(self, position: int, length: int, halted: bool, steps: int,
            output: str) -> None:
        if not halted:
            self.not_halted[length] = self.not_halted.get(length, 0) + 1
            return
        self.halted[length] = self.halted.get(length, 0) + 1
        row = self.steps_hist.get(length)
        if row is None:
            row = self.steps_hist[length] = {}
        row[steps] = row.get(steps, 0) + 1
        hist = self.output_hist
        hist[len(output)] = hist.get(len(output), 0) + 1
        entry = self.producers.get(output)
        if entry is None:
            self.producers[output] = [length, position, 1]
            return
        entry[2] += 1
        if length < entry[0] or (length == entry[0] and position < entry[1]):
            entry[0] = length
            entry[1] = position

    def merge(self, other: SummaryFold) -> SummaryFold:
        _add_counts(self.halted, other.halted)
        _add_counts(self.not_halted, other.not_halted)
        _add_counts(self.output_hist, other.output_hist)
        for length, row in other.steps_hist.items():
            _add_counts(self.steps_hist.setdefault(length, {}), row)
        for out, (best, witness, n) in other.producers.items():
            entry = self.producers.setdefault(out, [best, witness, 0])
            entry[2] += n
            if (best, witness) < (entry[0], entry[1]):
                entry[0], entry[1] = best, witness
        return self

    def census(self) -> dict[int, CensusRow]:
        return {length: CensusRow(self.halted.get(length, 0),
                                  self.not_halted.get(length, 0))
                for length in sorted({*self.halted, *self.not_halted})}

    def complexity(self) -> dict[str, ComplexityEntry]:
        return {out: ComplexityEntry(out, best, witness, n)
                for out, (best, witness, n)
                in sorted(self.producers.items(),
                          key=lambda kv: (len(kv[0]), kv[0]))}

    def histograms(self) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
        return ({l: dict(sorted(r.items()))
                 for l, r in sorted(self.steps_hist.items())},
                dict(sorted(self.output_hist.items())))

    def summary(self, max_length: int, budget: int) -> SweepSummary:
        return SweepSummary(max_length, budget, self.census(),
                            self.complexity(), *self.histograms())


@dataclass(frozen=True, slots=True)
class SweepSummary:
    """Aggregates folded during a sweep, without keeping the records."""

    max_length: int
    budget: int
    census: dict[int, CensusRow]
    complexity: dict[str, ComplexityEntry]
    steps_hist: dict[int, dict[int, int]]
    output_hist: dict[int, int]

    @property
    def total(self) -> int:
        return sum(row.total for row in self.census.values())

    @property
    def total_halting(self) -> int:
        return sum(row.halted for row in self.census.values())


# ---------------------------------------------------------------------------
# Sweeping
# ---------------------------------------------------------------------------

def _plan(max_length: int, budget: int, workers: int,
          exact_budget: bool) -> list[tuple]:
    """Chunk every length block into self-contained sweep tasks."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if workers < 1:
        raise ValueError("need at least one worker")
    total = cumulative_count(max_length)
    chunk = max(1000, total // (workers * 16) + 1)
    tasks = []
    for length in range(1, max_length + 1):
        block = count_programs(length)
        base = cumulative_count(length - 1)
        for start in range(0, block, chunk):
            tasks.append((length, start, min(chunk, block - start),
                          base + start, budget, exact_budget))
    return tasks


def _record_task(task) -> tuple[SummaryFold, list[tuple]]:
    """Fold one chunk and keep its rows: ``(fold, [(position, length,
    halted, steps, output), ...])``."""
    length, start, count, base, budget, exact_budget = task
    execute = run if exact_budget else classify
    fold = SummaryFold()
    add = fold.add
    rows = []
    append = rows.append
    programs = islice(iter_fixed_length(length, start), count)
    for position, program in enumerate(programs, base):
        result = execute(program, budget)
        row = (position, length, result.halted, result.steps, result.output)
        add(*row)
        append(row)
    return fold, rows


def sweep(max_length: int, budget: int, workers: int = 1,
          exact_budget: bool = False) -> Iterator[RunRecord]:
    """Run every program of length <= max_length; yield records in position order.

    The stream is identical for any worker count.  ``exact_budget``
    disables the loop-detection shortcut and burns the full budget on
    every non-halting program (slower, used for cross-validation).
    """
    tasks = _plan(max_length, budget, workers, exact_budget)
    for _, rows in ordered_map(_record_task, tasks, workers):
        for row in rows:
            yield RunRecord(*row)


def _summary_task(task) -> SummaryFold:
    length, start, count, base, budget, exact_budget = task
    execute = run if exact_budget else classify
    fold = SummaryFold()
    add = fold.add
    programs = islice(iter_fixed_length(length, start), count)
    for position, program in enumerate(programs, base):
        result = execute(program, budget)
        add(position, length, result.halted, result.steps, result.output)
    return fold


def sweep_summary(max_length: int, budget: int, workers: int = 1,
                  exact_budget: bool = False,
                  records: Callable[[list[tuple]], None] | None = None,
                  ) -> SweepSummary:
    """Sweep with the fold done inside the workers, the parts merged here.

    Produces exactly the statistics that ``halting_census``,
    ``complexity_table`` and ``histograms`` would give over the full
    record stream, in constant memory per distinct output.

    ``records``, if given, also receives the rows of the same pass: it is
    called once per chunk, in position order, with a list of
    ``(position, length, halted, steps, output)`` tuples, so that every
    program runs once whether or not its row is kept.
    """
    tasks = _plan(max_length, budget, workers, exact_budget)
    fold = SummaryFold()
    if records is None:
        for part in ordered_map(_summary_task, tasks, workers):
            fold.merge(part)
    else:
        for part, rows in ordered_map(_record_task, tasks, workers):
            fold.merge(part)
            records(rows)
    return fold.summary(max_length, budget)


# ---------------------------------------------------------------------------
# Aggregations over record streams: projections of the same fold
# ---------------------------------------------------------------------------

def _fold_records(records: Iterable[RunRecord]) -> SummaryFold:
    fold = SummaryFold()
    for r in records:
        fold.add(r.position, r.length, r.halted, r.steps, r.output)
    return fold


def halting_census(records: Iterable[RunRecord]) -> dict[int, CensusRow]:
    """Per-length halting counts; lengths must be completely covered."""
    census = _fold_records(records).census()
    for length, row in census.items():
        if row.total != count_programs(length):
            raise IncompleteCensusError(
                f"length {length}: saw {row.total} records, "
                f"expected {count_programs(length)}")
    return census


def complexity_table(records: Iterable[RunRecord]) -> dict[str, ComplexityEntry]:
    """Shortest producer per output over the halting records.

    Ties on length break toward the smallest position.  Keys iterate in
    canonical bitstring order (length, then lexicographic).
    """
    return _fold_records(records).complexity()


def histograms(records: Iterable[RunRecord],
               ) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """(steps-by-length matrix, output-length histogram) over halting records."""
    return _fold_records(records).histograms()


def trivial_bound(bits: str) -> tuple[Program, int]:
    """The always-available producer of a bitstring and its length.

    The empty string comes from ``skip``; anything else from assigning
    the string's canonical index to register 0.
    """
    if not bits:
        return SKIP, 1
    program = Assign(0, Num(string_to_nat(bits)))
    return program, program_length(program)


@dataclass(frozen=True, slots=True)
class OutputProbability:
    probability: Fraction
    complexity_bits: float


def algorithmic_probability(table: dict[str, ComplexityEntry], output: str,
                            total_halting: int) -> OutputProbability:
    """Producer share of one output, and -log2 of it as a complexity estimate."""
    entry = table.get(output)
    if entry is None:
        raise KeyError(f"output {output!r} not present in the table")
    p = Fraction(entry.producers, total_halting)
    return OutputProbability(p, -log2(p.numerator / p.denominator)
                             if p < 1 else 0.0)


# ---------------------------------------------------------------------------
# Program families
# ---------------------------------------------------------------------------

def _counting_loop(init: Program, bound: int, step: Program) -> Program:
    """init, then a loop stepping x[1] from 0 to bound around ``step``."""
    body = Seq(Assign(1, Add(Reg(1), Num(1))), step)
    return Seq(init, While(Lt(Reg(1), Num(bound)), body))


def family_program(family: str, n: int) -> Program:
    """One of the four generator families, instantiated at parameter n.

    ``pows2`` leaves 2**n in x[0]; ``fact`` leaves n!; ``expt`` leaves
    n**n; ``expt_pows2`` squares its way to n**(2**n).  All leave the
    loop counter n in x[1].
    """
    if n < 0:
        raise ValueError("family parameter must be nonnegative")
    if family == "pows2":
        return _counting_loop(Assign(0, Num(1)), n,
                              Assign(0, Mul(Reg(0), Num(2))))
    if family == "fact":
        return _counting_loop(Assign(0, Num(1)), n,
                              Assign(0, Mul(Reg(0), Reg(1))))
    if family == "expt":
        return _counting_loop(Assign(0, Num(1)), n,
                              Assign(0, Mul(Reg(0), Num(n))))
    if family == "expt_pows2":
        return _counting_loop(Assign(0, Num(n)), n,
                              Assign(0, Mul(Reg(0), Reg(0))))
    raise ValueError(f"unknown family {family!r}; "
                     f"expected one of {', '.join(FAMILIES)}")


FAMILIES = ("pows2", "fact", "expt", "expt_pows2")
