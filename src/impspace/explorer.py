"""Exhaustive program-space exploration and its summary statistics.

A *sweep* runs every program up to a length bound under one step budget
and records, per canonical position: length, halted flag, step count,
and output bitstring.  Its one unit of work is a task of at most
``_CHUNK`` programs of one length; every row comes from
``_run_programs``, and ``SummaryFold.of_slice`` folds a task's rows at
once; parts merge in any order.  A sweep that needs both the rows and the
statistics (``sweep_summary`` with a ``records`` sink) gets them from one
pass: each task renders its rows as ``records.csv`` lines in the worker
and hands that text back with its fold.  There each split of the
``x[i] := A`` block repeats the run of its lowest register
(``_assign_columns``), as such a program does the same whatever ``i``.
A sweep without a sink runs every program, since the benchmark and the
tests count one VM call per program (ROADMAP items 1 and 4).  The
statistics are:

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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, cycle, islice
from math import log2
from typing import Callable, Iterable, Iterator, Sequence

from .enumeration import (
    _length_at, _split_offsets, count_programs, cumulative_count,
    iter_fixed_length,
)
from .lang import (
    Add, Assign, Lt, Mul, Num, Program, Reg, Seq, While, SKIP,
    program_length, string_to_nat,
)
from . import vm
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


# ---------------------------------------------------------------------------
# The summary fold
# ---------------------------------------------------------------------------

class SummaryFold:
    """Mergeable fold of sweep rows: ``of_slice`` folds the rows of one
    length, ``merge`` adds another fold.

    It stores each fact once: halted counts, best lengths (positions run
    length-major) and the output-length histogram are projected from the
    steps histogram, the witnesses and the producer counts.  Parts may be
    merged in any order; every projection is the same.
    """

    __slots__ = ("not_halted", "steps_hist", "producers", "witness")

    def __init__(self):
        self.not_halted: Counter[int] = Counter()  # length: count
        self.steps_hist: dict[int, Counter[int]] = {}  # length: steps: count
        self.producers: Counter[str] = Counter()  # output: halting programs
        self.witness: dict[str, int] = {}  # output: least position

    @classmethod
    def of_slice(cls, length: int, positions: Iterable[int],
                 halted: Sequence[bool], steps: Iterable[int],
                 outputs: Iterable[str]) -> SummaryFold:
        """The fold of programs of one length, given their ascending
        positions and each one's halted flag, steps and output."""
        fold = cls()
        positions = list(compress(positions, halted))
        outputs = list(compress(outputs, halted))
        if len(positions) < len(halted):
            fold.not_halted[length] = len(halted) - len(positions)
        if positions:
            fold.steps_hist[length] = Counter(compress(steps, halted))
        # walked backwards, each output's last write is its first producer;
        # both then key an output by the same string, which pickles once
        fold.producers = Counter(reversed(outputs))
        fold.witness = dict(zip(reversed(outputs), reversed(positions)))
        return fold

    # a slotted class needs both to pickle at protocols 0 and 1
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def merge(self, other: SummaryFold) -> SummaryFold:
        self.not_halted.update(other.not_halted)
        for length, row in other.steps_hist.items():
            self.steps_hist.setdefault(length, Counter()).update(row)
        self.producers.update(other.producers)
        witness = self.witness
        for out, position in other.witness.items():
            if witness.setdefault(out, position) > position:
                witness[out] = position
        return self

    def census(self) -> dict[int, CensusRow]:
        halted = {length: row.total()
                  for length, row in self.steps_hist.items()}
        return {length: CensusRow(halted.get(length, 0),
                                  self.not_halted.get(length, 0))
                for length in sorted({*halted, *self.not_halted})}

    def complexity(self) -> dict[str, ComplexityEntry]:
        producers = self.producers
        return {out: ComplexityEntry(out, _length_at(witness), witness,
                                     producers[out])
                for out, witness in sorted(self.witness.items(),
                                           key=lambda kv: (len(kv[0]), kv[0]))}

    def histograms(self) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
        output_hist = Counter()
        for out, n in self.producers.items():
            output_hist[len(out)] += n
        return ({l: dict(sorted(r.items()))
                 for l, r in sorted(self.steps_hist.items())},
                dict(sorted(output_hist.items())))

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

# Programs per sweep task, the one unit of work.  At length 7 on 2 vCPUs
# the throughput is flat within noise from 1,024 to 16,384.  Smaller
# chunks send more folds through the pool (3.2 MB pickled at 4,096, 4.9 MB
# at 1,024); larger ones raise the peak RSS of ``sweep --records`` at 2
# workers (parent/largest worker 26/18 MB at 4,096, 30/23 MB at 16,384).
_CHUNK = 4096


def _plan(max_length: int, budget: int, workers: int,
          exact_budget: bool) -> list[tuple]:
    """Cut every length block into self-contained sweep tasks of at most
    ``_CHUNK`` programs each."""
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if workers < 1:
        raise ValueError("need at least one worker")
    tasks = []
    for length in range(1, max_length + 1):
        block = count_programs(length)
        base = cumulative_count(length - 1)
        for start in range(0, block, _CHUNK):
            tasks.append((length, start, min(_CHUNK, block - start),
                          base + start, budget, exact_budget))
    return tasks


def _run_programs(length: int, start: int, count: int, budget: int,
                  execute: Callable, halted: list[bool], steps: list[int],
                  outputs: list[str]) -> None:
    """The one loop that runs ranks into rows: ``count`` programs of one
    length from rank ``start`` through ``execute``, each appending its
    halted flag, steps and output (``""`` unless it halted) to the three
    lists.  ``execute`` and ``vm.output_string`` are looked up once per
    call, so a wrapper put on either sees every call made here."""
    output_string = vm.output_string
    add_halted, add_steps, add_output = (halted.append, steps.append,
                                         outputs.append)
    for program in islice(iter_fixed_length(length, start), count):
        h, s, store = execute(program, budget)
        add_halted(h)
        add_steps(s)
        add_output(output_string(store) if h else "")


def _summary_task(task) -> SummaryFold:
    """Run every program of one task and fold its rows."""
    length, start, count, base, budget, exact_budget = task
    columns = [], [], []
    _run_programs(length, start, count, budget,
                  run if exact_budget else classify, *columns)
    return SummaryFold.of_slice(length, range(base, base + count), *columns)


# One entry: a pool worker builds each length's columns once.  Both VM
# functions are in the key, so a wrapper on either builds its own columns;
# ``output_string`` is only there, as ``_run_programs`` looks it up itself
@lru_cache(maxsize=1)
def _assign_columns(length: int, budget: int, execute: Callable,
                    output_string: Callable) -> list[tuple]:
    """The splits of one length's ``x[i] := A`` block, each as
    ``(first rank, end rank, A trees, (halted, steps, outputs))``.

    From the empty store ``x[i] := A`` costs ``1 + expression_cost(A)``
    and stores the value of ``A``, or is cut off over the budget, whatever
    ``i`` is.  A split's ranks run register first, so its first programs
    pair its lowest register with each ``A`` in rank order; their rows,
    from ``_run_programs``, are the column of every register.  The block
    starts at rank 0, since ``skip``, the one alternative before it, has
    length 1; below length 4, that of ``x[0] := 0``, it has no splits."""
    splits = []
    starts, tails = _split_offsets(("X", "A"), length - 1)
    for first, end, trees in zip(starts, starts[1:], tails):
        columns = [], [], []
        _run_programs(length, first, trees, budget, execute, *columns)
        splits.append((first, end, trees, columns))
    return splits


def _record_task(task) -> tuple[SummaryFold, str]:
    """Fold one task and render its rows, in the worker that ran them, as
    the ``records.csv`` lines ``position,length,halted,steps,output``:
    ``(fold, text)``.

    Every row comes from ``_run_programs``: unless ``exact_budget`` is
    set, the ``x[i] := A`` rows through the columns of ``_assign_columns``,
    the rest from one call here.  ``_summary_task`` takes no columns: it
    still makes one VM call per program (ROADMAP items 1 and 4)."""
    length, start, count, base, budget, exact_budget = task
    columns = halted, steps, outputs = [], [], []
    rank, stop = start, start + count
    splits = () if exact_budget else _assign_columns(length, budget, classify,
                                                     vm.output_string)
    for first, end, trees, split in splits:
        n = min(stop, end) - rank
        if n > 0:
            offset = (rank - first) % trees
            for column, part in zip(columns, split):
                column.extend(islice(cycle(part), offset, offset + n))
            rank += n
    _run_programs(length, rank, stop - rank, budget,
                  run if exact_budget else classify, *columns)
    fold = SummaryFold.of_slice(length, range(base, base + count), *columns)
    tags = (f",{length},false,", f",{length},true,")
    return fold, "".join([f"{position}{tags[h]}{s},{output}\n"
                          for position, h, s, output
                          in zip(range(base, base + count), halted, steps,
                                 outputs)])


def sweep(max_length: int, budget: int, workers: int = 1,
          exact_budget: bool = False) -> Iterator[RunRecord]:
    """Run every program of length <= max_length; yield records in position order.

    The stream is identical for any worker count.  ``exact_budget``
    disables the loop-detection shortcut and burns the full budget on
    every non-halting program (slower, used for cross-validation).
    """
    tasks = _plan(max_length, budget, workers, exact_budget)
    for _, text in ordered_map(_record_task, tasks, workers):
        for line in text.splitlines():
            position, length, halted, steps, output = line.split(",")
            yield RunRecord(int(position), int(length), halted == "true",
                            int(steps), output)


def sweep_summary(max_length: int, budget: int, workers: int = 1,
                  exact_budget: bool = False,
                  records: Callable[[str], None] | None = None,
                  ) -> SweepSummary:
    """Sweep with the fold done inside the workers, the parts merged here.

    This is the one way to the census, the shortest-producer table and
    the histograms, in constant memory per distinct output.

    ``records``, if given, also receives the rows of the same pass: it is
    called once per task, in position order, with the text of that task's
    ``records.csv`` lines (``position,length,halted,steps,output``, each
    ending in a newline), rendered in the worker that ran the task, so
    that no program runs twice to give both.  The rows of ``x[i] := A``
    programs then come from one run per ``A`` tree (see
    ``_assign_columns``), unless ``exact_budget`` is set; the statistics
    are the same either way.
    """
    tasks = _plan(max_length, budget, workers, exact_budget)
    fold = SummaryFold()
    if records is None:
        for part in ordered_map(_summary_task, tasks, workers):
            fold.merge(part)
    else:
        for part, text in ordered_map(_record_task, tasks, workers):
            fold.merge(part)
            records(text)
    return fold.summary(max_length, budget)


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
