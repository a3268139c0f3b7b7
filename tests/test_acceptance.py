"""Acceptance gate: the eight shipping criteria, each as one test.

Every test asserts pinned values with exact tolerances (or the stated
window, where the criterion is statistical).  A per-criterion PASS/FAIL
summary is printed by the conftest hook at the end of the run.
"""

import hashlib
import os
from collections import Counter
from fractions import Fraction

import pytest

from impspace.cli import _complexity_csv, _histograms_json
from impspace.enumeration import (
    count_programs, cumulative_count, iter_canonical, rank_base,
    rank_canonical, unrank_base,
)
from impspace.explorer import family_program, sweep, sweep_summary, trivial_bound
from impspace.halting import draw_halting_sample, ecdf, sample_size
from impspace.lang import (
    nat_to_string, parse, program_length, render, string_to_nat,
)
from impspace.parallel import ordered_map
from impspace.vm import run

import bruteforce

WORKERS = min(4, os.cpu_count() or 1)

TABLE_COUNTS = [0, 1, 0, 3, 104, 2_124, 35_770, 546_611, 7_991_176,
                114_513_832, 1_631_934_090, 23_318_957_744, 335_696_750_370]

CENSUS_PAIRS = {1: (1, 0), 3: (2, 1), 4: (103, 1), 5: (2_059, 65),
                6: (34_491, 1_279), 7: (522_060, 24_551)}

# Measured once with the exhaustive sweep (budget 10,000) and pinned.
CENSUS_PAIR_8 = (7_578_748, 412_428)
TOTAL_HALTING_8 = 8_137_464
DISTINCT_OUTPUTS_8 = 100_000

# SHA-256 of the complexity.csv and histograms.json that `impspace sweep
# --max-length N` writes, measured once and pinned: unlike the census they
# cover every witness, producer count and step histogram.
ARTIFACT_DIGESTS = {
    7: {"complexity.csv": "e6059cc056843f04858750ff764dc2f2"
                          "86dd028d7d757e52ee6bd5887c2ff0ae",
        "histograms.json": "d5a31db0d90135acd12ab7779e486c71"
                           "e1ef607e676d0735ea95bb9a68a8f9e6"},
    8: {"complexity.csv": "a224dca2e1c211eb943de625380bc977"
                          "555ca0b6a6969ce4bab9e6817dcb414b",
        "histograms.json": "21875633a2ff2d6befab1384166c6704"
                           "440929a3a09f905ea09554c37e97855c"},
}

# Size and SHA-256 of the records.csv that `impspace sweep --max-length 7
# --records` writes, measured once and pinned: every row of the census.
RECORDS_7 = (12_754_942, "c348c6133d0d3726a13df296c0450a7e"
                         "092cbd108474a44fc1c8460582e74d8f")

SAMPLE_SIZES = [(("0.009", "0.01"), 28_427),
                (("0.001", "0.01"), 2_302_586),
                (("0.001", "0.001"), 3_453_878),
                (("0.0005", "0.001"), 13_815_511)]

FAMILY_ROWS = {
    "pows2": [
        (0, 25, "0"), (1, 25, "10"), (2, 25, "011"), (3, 25, "00100"),
        (4, 25, "000101"), (5, 25, "0000110"), (6, 25, "00000111"),
        (7, 25, "0000001000"), (8, 25, "00000001001"),
        (9, 25, "000000001010"), (10, 26, "0000000001011"),
        (11, 26, "00000000001100"), (12, 26, "000000000001101"),
        (13, 26, "0000000000001110"), (14, 26, "00000000000001111"),
        (15, 26, "0000000000000010000"), (16, 26, "00000000000000010001"),
        (17, 26, "000000000000000010010"),
        (18, 26, "0000000000000000010011"),
        (19, 26, "00000000000000000010100"),
        (20, 26, "000000000000000000010101"),
        (21, 26, "0000000000000000000010110"),
        (22, 26, "00000000000000000000010111"),
        (23, 26, "000000000000000000000011000"),
    ],
    "fact": [
        (0, 26, "0"), (1, 26, "00"), (2, 26, "11"), (3, 26, "1100"),
        (4, 26, "100101"), (5, 26, "11100110"), (6, 26, "01101000111"),
        (7, 26, "001110110001000"), (8, 26, "001110110000001001"),
        (9, 26, "011000100110000001010"),
        (10, 27, "101110101111100000001011"),
        (11, 27, "0011000010001010100000001100"),
    ],
    "expt": [
        (0, 25, "0"), (1, 25, "00"), (2, 25, "011"), (3, 25, "110000"),
        (4, 25, "0000000101"), (5, 25, "1000011011010"),
        (6, 25, "01101100100000111"), (7, 25, "1001001000011111000000"),
        (8, 25, "000000000000000000000001001"),
    ],
    "expt_pows2": [
        (0, 26, ""), (1, 26, "00"), (2, 26, "00011"),
        (3, 26, "10011010001000"),
        (4, 26, "0000000000000000000000000000000101"),
    ],
}


@pytest.fixture(scope="module")
def s7():
    return sweep_summary(7, 10_000, workers=WORKERS)


def _artifact_digests(summary) -> dict[str, str]:
    """Digests of two artifacts rendered from a summary exactly as
    ``sweep --max-length N --out D`` writes them."""
    config = {"subcommand": "sweep", "max_length": summary.max_length,
              "budget": summary.budget, "format": "csv"}
    texts = {"complexity.csv": _complexity_csv(summary),
             "histograms.json": _histograms_json(summary, config)}
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()}


def test_criterion_1_counting_exactness():
    got = [count_programs(length) for length in range(13)]
    assert got == TABLE_COUNTS
    assert cumulative_count(12) == sum(TABLE_COUNTS) == 360_770_731_825


def test_criterion_2_enumeration_cross_validation():
    per_length: Counter = Counter()
    seen = set()
    for program in iter_canonical(0, cumulative_count(6)):
        length = program_length(program)
        per_length[length] += 1
        seen.add(program)
        assert parse(render(program)) == program
    assert len(seen) == 38_002
    assert dict(per_length) == {1: 1, 3: 3, 4: 104, 5: 2_124, 6: 35_770}


def test_criterion_3_halting_census(s7):
    got = {length: (row.halted, row.not_halted)
           for length, row in s7.census.items()}
    assert got == CENSUS_PAIRS
    assert s7.total == cumulative_count(7) == 584_613


def test_artifact_digests_at_length_7(s7):
    assert _artifact_digests(s7) == ARTIFACT_DIGESTS[7]


def test_records_at_length_7_are_pinned():
    for workers in (1, 2):
        header = b"position,length,halted,steps,output\n"
        digest, size = hashlib.sha256(header), [len(header)]

        def sink(text):
            data = text.encode()
            digest.update(data)
            size[0] += len(data)

        summary = sweep_summary(7, 10_000, workers=workers, records=sink)
        assert (size[0], digest.hexdigest()) == RECORDS_7, workers
        assert _artifact_digests(summary) == ARTIFACT_DIGESTS[7], workers


def test_halting_census_at_length_8():
    s8 = sweep_summary(8, 10_000, workers=WORKERS)
    got = {length: (row.halted, row.not_halted)
           for length, row in s8.census.items()}
    assert got == {**CENSUS_PAIRS, 8: CENSUS_PAIR_8}
    assert s8.total == cumulative_count(8)
    assert s8.total_halting == TOTAL_HALTING_8
    assert len(s8.complexity) == DISTINCT_OUTPUTS_8
    assert _artifact_digests(s8) == ARTIFACT_DIGESTS[8]


def test_criterion_4_sample_size_formula():
    for (lam, delta), expected in SAMPLE_SIZES:
        assert sample_size(lam, delta) == expected


def test_criterion_5_output_codec_and_semantics():
    result = run(parse("(x[0] := 2; (x[1] := 1; x[2] := 3))"), 10_000)
    assert result.halted and result.output == "1000"
    for n in range(1 << 20):
        assert string_to_nat(nat_to_string(n)) == n


def test_criterion_6_program_families():
    for family, rows in FAMILY_ROWS.items():
        for n, expected_length, expected_output in rows:
            program = family_program(family, n)
            assert program_length(program) == expected_length, (family, n)
            result = run(program, 10**6)
            assert result.halted, (family, n)
            assert result.output == expected_output, (family, n)


def test_criterion_7_trivial_bound_equality(s7):
    checked = 0
    for output, entry in s7.complexity.items():
        bound_length = trivial_bound(output)[1]
        if bound_length <= 7:
            assert entry.best_length == bound_length, output
            checked += 1
        else:
            assert entry.best_length <= 7 < bound_length
    assert checked > 0


# --- criterion 8: property suites -----------------------------------------

def _rank_range(bounds: tuple[int, int]) -> int:
    start, stop = bounds
    checked = 0
    for position, program in enumerate(iter_canonical(start, stop),
                                       start=start):
        assert rank_canonical(program) == position
        checked += 1
    return checked


def test_criterion_8a_canonical_bijectivity_1e6():
    total = 1_000_000
    step = total // WORKERS
    bounds = [(i * step, (i + 1) * step) for i in range(WORKERS)]
    bounds[-1] = (bounds[-1][0], total)
    checked = sum(ordered_map(_rank_range, bounds, WORKERS))
    assert checked == total


def test_criterion_8b_base_subprogram_monotonicity_1e5():
    for position in range(100_000):
        program = unrank_base(position)
        for sub in bruteforce.subprograms(program):
            assert rank_base(sub) < position


def test_criterion_8c_sweep_budget_monotonicity_and_determinism():
    small = list(sweep(5, 40))
    big = list(sweep(5, 10_000))
    for a, b in zip(small, big):
        if a.halted:
            assert (a.steps, a.output) == (b.steps, b.output)
    assert list(sweep(5, 10_000, workers=3)) == big
    assert list(sweep(5, 10_000, workers=WORKERS)) == big


def test_criterion_8d_ecdf_monotone():
    sample = draw_halting_sample(6, 2_000, seed=7)
    values = [ecdf(sample.runtimes, t) for t in range(0, 60)]
    assert values == sorted(values)
    assert values[0] >= 0 and values[-1] <= 1
    assert ecdf(sample.runtimes, max(sample.runtimes)) == 1


def test_criterion_8e_sampling_determinism():
    a = draw_halting_sample(7, 1_000, seed=123, workers=2)
    b = draw_halting_sample(7, 1_000, seed=123, workers=2)
    assert a == b and len(a.rows) == 1_000


def test_criterion_8f_halting_rate_at_length_9():
    sample = draw_halting_sample(9, 10_000, seed=0)
    rate = Fraction(len(sample.rows), len(sample.rows) + sample.rejections)
    assert abs(rate - Fraction("0.94")) <= Fraction("0.01"), float(rate)
