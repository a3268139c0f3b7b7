"""Sweep, census, complexity-table, family, and histogram tests."""

import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest

from impspace import explorer, vm
from impspace.enumeration import (
    cumulative_count, rank_canonical, unrank_canonical,
)
from impspace.explorer import (
    FAMILIES, CensusRow, ComplexityEntry, RunRecord, SummaryFold,
    algorithmic_probability, family_program, sweep, sweep_summary,
    trivial_bound,
)
from impspace.lang import parse, program_length, render, string_to_nat
from impspace.parallel import ordered_map
from impspace.vm import classify, output_string, run

import bruteforce


def collect(max_length, budget=10_000, **kw):
    return list(sweep(max_length, budget, **kw))


def naive_aggregation(records):
    """Census, producer table and histograms of a record stream, counted
    one row at a time in plain dicts with sorted keys: no code shared with
    the sweep's fold."""
    census, producers, steps_hist, output_hist = {}, {}, {}, {}
    for r in records:
        census.setdefault(r.length, [0, 0])[0 if r.halted else 1] += 1
        if not r.halted:
            continue
        row = steps_hist.setdefault(r.length, {})
        row[r.steps] = row.get(r.steps, 0) + 1
        output_hist[len(r.output)] = output_hist.get(len(r.output), 0) + 1
        entry = producers.setdefault(r.output, [r.length, r.position, 0])
        entry[2] += 1
        if (r.length, r.position) < (entry[0], entry[1]):
            entry[0], entry[1] = r.length, r.position
    return (
        {l: CensusRow(*census[l]) for l in sorted(census)},
        {out: ComplexityEntry(out, *producers[out])
         for out in sorted(producers, key=lambda out: (len(out), out))},
        {l: dict(sorted(steps_hist[l].items())) for l in sorted(steps_hist)},
        dict(sorted(output_hist.items())),
    )


# ---------------------------------------------------------------------------
# Sweeping
# ---------------------------------------------------------------------------

def test_sweep_smallest_spaces():
    records = collect(1)
    assert records == [RunRecord(0, 1, True, 0, "")]
    records = collect(3)
    assert len(records) == 4
    assert [r.position for r in records] == [0, 1, 2, 3]
    assert sum(r.halted for r in records) == 3
    stuck = [r for r in records if not r.halted]
    assert render(unrank_canonical(stuck[0].position)) == \
        "(while true do skip)"
    assert stuck[0].steps == 10_000 and stuck[0].output == ""


def test_sweep_covers_every_position():
    records = collect(5)
    assert len(records) == cumulative_count(5) == 2_232
    assert [r.position for r in records] == list(range(2_232))
    for r in records[::97]:
        assert program_length(unrank_canonical(r.position)) == r.length


def test_sweep_parallel_determinism():
    solo = collect(5)
    assert collect(5, workers=3) == solo
    assert collect(5, workers=8) == solo


def test_sweep_exact_budget_mode_agrees():
    fast = collect(4, budget=300)
    slow = collect(4, budget=300, exact_budget=True)
    assert fast == slow


def test_sweep_validation():
    with pytest.raises(ValueError):
        collect(3, budget=0)
    with pytest.raises(ValueError):
        collect(3, workers=0)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def test_census_small_lengths():
    census = sweep_summary(5, 10_000).census
    assert {l: (row.halted, row.not_halted) for l, row in census.items()} == \
        {1: (1, 0), 3: (2, 1), 4: (103, 1), 5: (2_059, 65)}
    assert census[3].halted_pct == 66.7
    assert census[3].not_halted_pct == 33.3
    assert census[5].halted_pct == 96.9


def test_summary_matches_record_aggregation():
    # budgets 1-20 cut rows off (at budget 1 nothing of length 4 or 5
    # halts, so neither may gain a step row); length 6 spans many chunks
    cases = [(5, budget) for budget in (*range(1, 21), 10_000)]
    for max_length, budget in [*cases, (6, 10_000)]:
        records = collect(max_length, budget)
        summary = sweep_summary(max_length, budget)
        got = (summary.census, summary.complexity, summary.steps_hist,
               summary.output_hist)
        # compared as item lists, so the key order has to agree as well
        assert [list(table.items()) for table in got] == \
            [list(table.items()) for table in naive_aggregation(records)], \
            (max_length, budget)
        assert summary.total == len(records)
        assert summary.total_halting == sum(r.halted for r in records)


def test_sweep_calls_each_layer_once_per_program(monkeypatch):
    # a layer benchmark times the VM and the output encoding by wrapping
    # these module attributes, so the sweep has to call them per program
    calls = {"classify": 0, "output_string": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(explorer, "classify",
                        counted("classify", explorer.classify))
    monkeypatch.setattr(vm, "output_string",
                        counted("output_string", vm.output_string))
    summary = sweep_summary(5, 10_000)
    assert calls == {"classify": 2232, "output_string": 2165}
    assert (summary.total, summary.total_halting) == (2232, 2165)


def test_fold_merges_parts_in_any_order():
    records = collect(5)
    rng = random.Random(11)
    # contiguous parts cut at random rows and at every length boundary,
    # each folded by one of_slice call
    cuts = {0, len(records), *rng.sample(range(1, len(records)), 6)}
    cuts.update(i for i in range(1, len(records))
                if records[i].length != records[i - 1].length)
    cuts = sorted(cuts)
    parts = [records[a:b] for a, b in zip(cuts, cuts[1:])]
    # outputs produced in more than one part, so the witness of each has to
    # move when a later part is merged before an earlier one
    seen_in = {}
    for i, part in enumerate(parts):
        for r in part:
            if r.halted:
                seen_in.setdefault(r.output, set()).add(i)
    assert sum(len(found) > 1 for found in seen_in.values()) > 10
    folds = [SummaryFold.of_slice(part[0].length,
                                  *zip(*[(r.position, r.halted, r.steps,
                                          r.output) for r in part]))
             for part in parts]
    shuffled = folds[:]
    rng.shuffle(shuffled)
    whole = sweep_summary(5, 10_000)
    for order in (folds[::-1], shuffled):
        merged = SummaryFold()
        for fold in order:
            merged.merge(fold)
        assert merged.summary(5, 10_000) == whole


def test_chunk_size_changes_nothing(monkeypatch):
    # the sweep's one unit of work is a task of _CHUNK programs; whatever
    # its size, the summary, the record stream and the sink's text agree
    modes = [{"workers": 1}, {"workers": 2}, {"exact_budget": True}]

    def results():
        out = []
        for kw in modes:
            chunks = []
            out.append((sweep_summary(5, 10_000, records=chunks.append, **kw),
                        sweep_summary(5, 10_000, **kw),
                        list(sweep(5, 10_000, **kw)), "".join(chunks)))
            # every position once, so a task that drops or repeats a
            # program cannot agree with itself at every size
            lines = "".join(chunks).splitlines()
            assert [int(line.split(",")[0]) for line in lines] == \
                list(range(2_232)), kw
        return out

    default = results()
    for chunk in (1, 7, 1_000):
        monkeypatch.setattr(explorer, "_CHUNK", chunk)
        assert results() == default, chunk


def test_summary_matches_bruteforce_oracle():
    # census and producer table from the brute-force grammar and interpreter;
    # lengths ascend, so an output's first producer has its best length
    census, table = {}, {}
    for length in range(1, 6):
        for program in bruteforce.programs(length):
            store = bruteforce.run_naive(program, fuel=10_000)
            census.setdefault(length, [0, 0])[store is None] += 1
            if store is None:
                continue
            entry = table.setdefault(output_string(store), [length, [], 0])
            entry[2] += 1
            if length == entry[0]:
                entry[1].append(rank_canonical(program))
    summary = sweep_summary(5, 10_000)
    assert {l: [row.halted, row.not_halted]
            for l, row in summary.census.items()} == census
    assert {out: (e.best_length, e.witness, e.producers)
            for out, e in summary.complexity.items()} == \
        {out: (best, min(witnesses), n)
         for out, (best, witnesses, n) in table.items()}


def test_ordered_map_submits_two_tasks_per_worker_ahead():
    # a consumer slower than the pool holds at most 2 * workers results
    pulled = []

    def tasks():
        for task in range(20):
            pulled.append(task)
            yield task

    results = ordered_map(abs, tasks(), 3)
    assert next(results) == 0 and len(pulled) == 6
    assert next(results) == 1 and len(pulled) == 7
    assert list(results) == list(range(2, 20)) and len(pulled) == 20


def test_summary_parallel_merge_is_deterministic():
    a = sweep_summary(5, 10_000, workers=1)
    b = sweep_summary(5, 10_000, workers=4)
    assert a == b


def _fields(fold):
    return [getattr(fold, name) for name in SummaryFold.__slots__]


def test_fold_pickle_round_trips_at_every_protocol():
    # a pool sends each task's fold across the process boundary pickled
    fold = SummaryFold()
    for task in explorer._plan(5, 10_000, 1, False):
        fold.merge(explorer._summary_task(task))
    assert len({e.best_length for e in fold.complexity().values()}) > 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for original in (fold, SummaryFold()):
            again = pickle.loads(pickle.dumps(original, protocol))
            assert _fields(again) == _fields(original), protocol


def test_pickled_task_folds_merge_to_the_sweep():
    parts = [pickle.loads(pickle.dumps(explorer._summary_task(task)))
             for task in explorer._plan(6, 10_000, 1, False)]
    merged = SummaryFold()
    for part in reversed(parts):
        merged.merge(part)
    whole = sweep_summary(6, 10_000)
    assert merged.summary(6, 10_000) == whole
    assert sweep_summary(6, 10_000, workers=2) == whole


def test_record_task_folds_assign_blocks_exactly(monkeypatch):
    # the records task takes the x[i] := A rows from one run per A tree;
    # it has to give the text of running every program and the fold of
    # the summary task, which does.  At the smallest budgets the Assign
    # rows whose A costs more are cut off, a chunk size of 997 cuts tasks
    # inside the splits of every block, and each task runs at every budget
    # in turn, so that columns kept from another budget would show
    for chunk, budgets in ((4_096, (*range(1, 21), 10_000)),
                           (997, (3, 10_000))):
        monkeypatch.setattr(explorer, "_CHUNK", chunk)
        tasks = [task for budget in budgets
                 for task in explorer._plan(6, budget, 1, False)]
        for task in sorted(tasks, key=lambda task: task[:2]):
            length, start, count, base, budget, _ = task
            fold, text = explorer._record_task(task)
            halted, steps, outputs = [], [], []
            explorer._run_programs(length, start, count, budget, classify,
                                   halted, steps, outputs)
            assert _fields(fold) == _fields(explorer._summary_task(task)), \
                (chunk, task)
            assert text == "".join(
                f"{position},{length},{'true' if h else 'false'},{s},{out}\n"
                for position, h, s, out in zip(range(base, base + count),
                                               halted, steps, outputs)), \
                (chunk, task)


# ---------------------------------------------------------------------------
# Complexity table
# ---------------------------------------------------------------------------

def test_complexity_epsilon_entry():
    table = sweep_summary(4, 10_000).complexity
    empty = table[""]
    assert empty.best_length == 1
    assert empty.witness == 0
    assert render(unrank_canonical(empty.witness)) == "skip"


def test_complexity_producer_partition():
    table = sweep_summary(5, 10_000).complexity
    halting = sum(1 for r in collect(5) if r.halted)
    assert sum(e.producers for e in table.values()) == halting


def test_complexity_key_order_is_canonical():
    table = sweep_summary(5, 10_000).complexity
    keys = list(table)
    assert keys == sorted(keys, key=lambda s: (len(s), s))


def test_complexity_tie_breaks_toward_least_position():
    parts = [
        SummaryFold.of_slice(4, [5, 8], [True, False], [2, 100], ["01", ""]),
        SummaryFold.of_slice(4, [9], [True], [3], ["01"]),
        SummaryFold.of_slice(6, [7], [True], [2], ["01"]),
    ]
    # the same after the pickle round trip that a pool puts each part through
    pickled = [pickle.loads(pickle.dumps(part)) for part in parts]
    for candidates in (parts, pickled):
        for order in permutations(candidates):
            merged = SummaryFold()
            for part in order:
                merged.merge(part)
            assert merged.complexity() == \
                {"01": ComplexityEntry("01", 4, 5, 3)}


def test_complexity_witnesses_reproduce_output():
    summary = sweep_summary(5, 10_000)
    for entry in summary.complexity.values():
        result = classify(unrank_canonical(entry.witness), 10_000)
        assert result.halted and result.output == entry.output
        assert program_length(unrank_canonical(entry.witness)) == \
            entry.best_length


# ---------------------------------------------------------------------------
# Trivial bound and algorithmic probability
# ---------------------------------------------------------------------------

def test_trivial_bound_examples():
    program, length = trivial_bound("")
    assert render(program) == "skip" and length == 1
    program, length = trivial_bound("1000")
    assert render(program) == "x[0] := 23" and length == 5
    program, length = trivial_bound("0")
    assert render(program) == "x[0] := 1" and length == 4


def test_trivial_bound_of_a_huge_output():
    # expt_pows2 at n=12 outputs 14,687 bits, a numeral of 4,422 digits
    output = run(family_program("expt_pows2", 12), 10**6).output
    program, length = trivial_bound(output)
    value, digits = program.value.value, length - 3
    assert 10 ** (digits - 1) <= value < 10 ** digits


def test_trivial_bound_runs_to_its_string():
    for bits in ("", "0", "1", "111", "010101", "0000000001"):
        program, length = trivial_bound(bits)
        result = run(program, 100)
        assert result.halted and result.output == bits
        assert program_length(program) == length == \
            (1 if not bits else 3 + len(str(string_to_nat(bits))))


def test_algorithmic_probability():
    summary = sweep_summary(4, 10_000)
    total = summary.total_halting
    empty = algorithmic_probability(summary.complexity, "", total)
    assert empty.probability == Fraction(summary.complexity[""].producers,
                                         total)
    assert empty.complexity_bits > 0
    with pytest.raises(KeyError):
        algorithmic_probability(summary.complexity, "0101010101", total)


def test_algorithmic_probability_certain_output():
    table = {"10": ComplexityEntry("10", 1, 0, 2)}
    result = algorithmic_probability(table, "10", 2)
    assert result.probability == 1
    assert result.complexity_bits == 0.0


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

def test_histogram_marginals_match_census():
    records = collect(5)
    summary = sweep_summary(5, 10_000)
    steps_hist, output_hist, census = (summary.steps_hist,
                                       summary.output_hist, summary.census)
    for length, row in steps_hist.items():
        assert sum(row.values()) == census[length].halted
    assert sum(output_hist.values()) == \
        sum(r.halted for r in census.values())
    empties = sum(1 for r in records if r.halted and r.output == "")
    assert output_hist[0] == empties


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_family_pows2_rendering():
    assert render(family_program("pows2", 3)) == \
        "(x[0] := 1; (while (x[1] < 3) do " \
        "(x[1] := (x[1] + 1); x[0] := (x[0] * 2))))"


def test_family_members_spot_rows():
    cases = [
        ("pows2", 0, 25, "0"),
        ("pows2", 9, 25, "000000001010"),
        ("pows2", 10, 26, "0000000001011"),
        ("fact", 2, 26, "11"),
        ("fact", 5, 26, "11100110"),
        ("expt", 0, 25, "0"),
        ("expt", 3, 25, "110000"),
        ("expt_pows2", 2, 26, "00011"),
    ]
    for family, n, length, output in cases:
        program = family_program(family, n)
        assert program_length(program) == length, (family, n)
        result = run(program, 10**6)
        assert result.halted and result.output == output, (family, n)


def test_family_parse_round_trip():
    for family in FAMILIES:
        for n in (0, 1, 7, 12):
            program = family_program(family, n)
            assert parse(render(program)) == program


def test_family_validation():
    with pytest.raises(ValueError):
        family_program("cubes", 3)
    with pytest.raises(ValueError):
        family_program("pows2", -1)
