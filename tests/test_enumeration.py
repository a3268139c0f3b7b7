"""Counting and rank/unrank tests, validated against brute-forced spaces."""

import random
import tracemalloc
from itertools import count

import pytest

from impspace import enumeration
from impspace.enumeration import (
    PositionRangeError, count_programs, cumulative_count, iter_canonical,
    iter_fixed_length, rank_base, rank_canonical, rank_fixed_length,
    unrank_base, unrank_canonical, unrank_fixed_length,
)
from impspace.halting import SplitMix64
from impspace.lang import (
    Assign, If, Num, SKIP, Seq, TRUE, While, parse, program_length, render,
)

import bruteforce


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def test_counts_against_bruteforce():
    assert count_programs(0) == 0
    for length in range(1, 7):
        assert count_programs(length) == len(bruteforce.programs(length))


def test_counts_spot_values():
    assert count_programs(1) == 1
    assert count_programs(4) == 104
    assert count_programs(9) == 114_513_832


def test_cumulative():
    assert cumulative_count(0) == 0
    assert cumulative_count(3) == 4
    assert cumulative_count(6) == 38_002
    total = sum(count_programs(i) for i in range(10))
    assert cumulative_count(9) == total == 123_089_621


def test_counts_reject_negative():
    with pytest.raises(ValueError):
        count_programs(-1)
    with pytest.raises(ValueError):
        cumulative_count(-1)


# ---------------------------------------------------------------------------
# Fixed-length enumeration
# ---------------------------------------------------------------------------

def test_fixed_length_materializes_bruteforce_space():
    for length in (1, 3, 4, 5):
        block = [unrank_fixed_length(length, k)
                 for k in range(count_programs(length))]
        assert len(set(block)) == len(block)
        assert set(block) == set(bruteforce.programs(length))
        assert all(program_length(p) == length for p in block)


def test_fixed_length_known_fronts():
    assert unrank_fixed_length(1, 0) is SKIP
    assert [render(unrank_fixed_length(3, k)) for k in range(3)] == \
        ["(skip; skip)", "(while true do skip)", "(while false do skip)"]
    assert render(unrank_fixed_length(4, 0)) == "x[0] := 0"
    assert render(unrank_fixed_length(4, 99)) == "x[9] := 9"
    assert render(unrank_fixed_length(4, 100)) == \
        "(if true then skip else skip)"
    assert render(unrank_fixed_length(4, 103)) == "(while ¬false do skip)"


def test_fixed_length_round_trip():
    for length in range(1, 6):
        for k in range(count_programs(length)):
            assert rank_fixed_length(unrank_fixed_length(length, k)) == k


def test_fixed_length_out_of_range():
    with pytest.raises(PositionRangeError):
        unrank_fixed_length(4, 104)
    with pytest.raises(PositionRangeError):
        unrank_fixed_length(1, 1)
    with pytest.raises(PositionRangeError):
        unrank_fixed_length(2, 0)
    with pytest.raises(PositionRangeError):
        unrank_fixed_length(5, -1)
    with pytest.raises(PositionRangeError):
        iter_fixed_length(5, -1)


# Member-table caps covering both sides of the shared-subtree cutoff: 0
# streams every block, the default mixes member tables and streams, and the
# last builds a member table for every block these tests touch.
CAPS = (0, enumeration._TABLE_CAP, 10**9)


@pytest.fixture
def use_cap(monkeypatch):
    """Set the table cap; tables built under one cap never serve another,
    and none outlives the test."""
    def use(cap):
        monkeypatch.setattr(enumeration, "_TABLE_CAP", cap)
        enumeration._members.cache_clear()

    yield use
    enumeration._members.cache_clear()


def test_iterator_agrees_with_unranking(use_cap):
    # unranking, the walk and the ranker all read the same rank offsets, so
    # the reference at cap 0 is pinned independently by the brute-force
    # grammar
    lengths = (1, 3, 4, 5)
    use_cap(0)
    want = {length: [unrank_fixed_length(length, k)
                     for k in range(count_programs(length))]
            for length in lengths}
    for cap in CAPS:
        use_cap(cap)
        for length in lengths:
            assert list(iter_fixed_length(length)) == want[length], cap
            block = [unrank_fixed_length(length, k)
                     for k in range(count_programs(length))]
            assert block == want[length], cap
            assert all(rank_fixed_length(p) == k
                       for k, p in enumerate(block)), cap
            assert set(block) == set(bruteforce.programs(length)), cap


def test_iterator_resumes_anywhere(use_cap):
    use_cap(0)
    full = list(iter_fixed_length(6))
    # first ranks of the Seq, If and While alternatives in the block
    alternatives = {30_900: Seq, 31_108: If, 31_330: While}
    for start, kind in alternatives.items():
        assert type(full[start]) is kind
        assert type(full[start - 1]) is not kind
    rng = random.Random(3)
    starts = [0, 1, 35_769, 35_770, *alternatives] + \
        [rng.randrange(35_770) for _ in range(20)]
    for cap in CAPS:
        use_cap(cap)
        for start in starts:
            tail = list(iter_fixed_length(6, start))
            assert tail == full[start:], (cap, start)


def test_descent_agrees_with_walk(use_cap):
    rng = SplitMix64(9)
    ranks = [rng.randbelow(count_programs(9)) for _ in range(200)]
    for cap in (0, enumeration._TABLE_CAP):
        use_cap(cap)
        for k in ranks:
            assert unrank_fixed_length(9, k) == \
                next(iter_fixed_length(9, k)), (cap, k)


def _clear_counts():
    enumeration._alt_offsets.cache_clear()
    enumeration._split_offsets.cache_clear()
    enumeration._ways.cache_clear()


def test_counts_are_the_last_offset(monkeypatch):
    # a cold count fills the shorter blocks in increasing length, so it
    # recurses a bounded depth, not a few frames per length
    _clear_counts()
    count_programs(400)
    # counts from cold, asked out of order, must come out of the same
    # alternative offsets that unranking bisects; counting builds no split
    # offsets, so counting through length 200 stays within a few MiB
    _clear_counts()
    monkeypatch.setattr(enumeration, "_cumulative", [0])
    tracemalloc.start()
    try:
        count_programs(14)
        for length in range(201):
            count_programs(length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enumeration._split_offsets.cache_info().currsize == 0
    assert peak < 4 * 2**20, peak
    assert count_programs(9) == 114_513_832
    assert cumulative_count(12) == 360_770_731_825
    assert cumulative_count(14) == 76_982_973_196_649
    for length in range(15):
        assert enumeration._alt_offsets("P", length)[-1] == \
            count_programs(length), length


# ---------------------------------------------------------------------------
# Canonical enumeration
# ---------------------------------------------------------------------------

def test_canonical_prefix():
    assert unrank_canonical(0) is SKIP
    first_block = {render(unrank_canonical(k)) for k in (1, 2, 3)}
    assert first_block == {"(skip; skip)", "(while true do skip)",
                           "(while false do skip)"}
    assert rank_canonical(parse("(skip; skip)")) in (1, 2, 3)


def test_canonical_round_trip():
    for k in range(20_000):
        assert rank_canonical(unrank_canonical(k)) == k
    for k in (123_456, 10**7, 10**12, 10**18):
        assert rank_canonical(unrank_canonical(k)) == k


def test_canonical_lengths_monotone():
    lengths = [program_length(unrank_canonical(k)) for k in range(5_000)]
    assert lengths == sorted(lengths)


def test_canonical_block_boundaries():
    for length in (*range(1, 15), 40):
        end = cumulative_count(length)
        if count_programs(length):
            assert program_length(unrank_canonical(end - 1)) == length
        following = next(n for n in count(length + 1) if count_programs(n))
        assert program_length(unrank_canonical(end)) == following, length
    # no program has length 2
    assert program_length(unrank_canonical(1)) == 3


# Renders measured with the generator-based unranker that preceded the rank
# offsets: 16 positions drawn by SplitMix64(2024) below cumulative_count(14),
# then the first and last position of every block of length 9 to 14.
PINNED_DRAWN = {
    13_684_174_588_552: "x[5] := ((3 * x[4592]) - x[11])",
    42_020_858_997_869: "x[47000] := 4940898",
    16_351_828_662_093: "x[7] := ((2109 * 2612) + 2)",
    19_246_367_470_000: "x[9] := ((8 * (4 + (0 * 0))) + 629)",
    23_763_860_073_940: "x[43] := ((895 - (39 * 6)) + 9)",
    60_074_743_721_499: "(while (0 = (1 + (3 + 376588))) do skip)",
    64_958_224_117_392: "(while ((300 + (5 + x[0])) = 481) do skip)",
    20_484_964_590_826: "x[11] := (9468238 - 65)",
    47_714_420_389_753: "x[7279561] := 52382",
    62_808_746_949_139: "(while (x[247] = (72792 - 8)) do skip)",
    70_593_957_862_597: "(while ((x[9] - 25) < (6068 + 6)) do skip)",
    37_491_570_939_836: "x[3777] := ((6 - (3 + 8)) - 75)",
    62_177_516_304_475: "(while (811 = (7 - ((7 + 66) * 4))) do skip)",
    50_803_571_397_887: "x[950118171] := 426",
    27_245_142_182_110: "x[77] := x[540685139]",
    26_993_047_852_696: "x[74] := (16879572 - 5)",
}
PINNED_EDGES = {
    8_575_789: "x[0] := 100000",
    123_089_620: "(while (((false ∧ false) ∧ false) ∧ false) do skip)",
    123_089_621: "x[0] := 1000000",
    1_755_023_710: "(while (((¬false ∧ false) ∧ false) ∧ false) do skip)",
    1_755_023_711: "x[0] := 10000000",
    25_073_981_454:
        "(while ((((false ∧ false) ∧ false) ∧ false) ∧ false) do skip)",
    25_073_981_455: "x[0] := 100000000",
    360_770_731_824:
        "(while ((((¬false ∧ false) ∧ false) ∧ false) ∧ false) do skip)",
    360_770_731_825: "x[0] := 1000000000",
    5_241_549_736_970: "(while (((((false ∧ false) ∧ false) ∧ false) "
                       "∧ false) ∧ false) do skip)",
    5_241_549_736_971: "x[0] := 10000000000",
    76_982_973_196_648: "(while (((((¬false ∧ false) ∧ false) ∧ false) "
                        "∧ false) ∧ false) do skip)",
}


def test_canonical_pinned_long_unranks():
    rng = SplitMix64(2024)
    assert [rng.randbelow(cumulative_count(14)) for _ in range(16)] == \
        list(PINNED_DRAWN)
    assert list(PINNED_EDGES) == [
        k for length in range(9, 15)
        for k in (cumulative_count(length - 1), cumulative_count(length) - 1)]
    for k, text in {**PINNED_DRAWN, **PINNED_EDGES}.items():
        p = unrank_canonical(k)
        assert render(p) == text, k
        assert rank_canonical(p) == k


def test_canonical_rejects_negative():
    with pytest.raises(PositionRangeError):
        unrank_canonical(-1)
    with pytest.raises(PositionRangeError):
        list(iter_canonical(-1, 3))


def test_iter_canonical_ranges():
    want = [unrank_canonical(k) for k in range(300)]
    assert list(iter_canonical(0, 300)) == want
    assert list(iter_canonical(150, 300)) == want[150:]
    assert list(iter_canonical(299, 300)) == [want[299]]
    assert list(iter_canonical(42, 42)) == []
    # spanning several length blocks
    assert list(iter_canonical(100, 120)) == \
        [unrank_canonical(k) for k in range(100, 120)]


# ---------------------------------------------------------------------------
# Base enumeration
# ---------------------------------------------------------------------------

def test_base_round_trip():
    for k in range(50_000):
        assert rank_base(unrank_base(k)) == k
    for k in (10**9, 10**15, 17**13):
        assert rank_base(unrank_base(k)) == k


def test_base_is_injective_on_prefix():
    seen = {unrank_base(k) for k in range(30_000)}
    assert len(seen) == 30_000


def test_base_subprogram_positions_are_smaller():
    for k in range(20_000):
        p = unrank_base(k)
        for q in bruteforce.subprograms(p):
            assert rank_base(q) < k


def test_base_covers_small_lengths():
    # every program of length <= 4 appears at some base position; scanning
    # the prefix up to the largest of their ranks finds all 108 of them
    space = bruteforce.programs_up_to(4)
    ranks = [rank_base(p) for p in space]
    assert len(set(ranks)) == len(space)
    bound = max(ranks)
    found = {p for p in (unrank_base(k) for k in range(bound + 1))
             if program_length(p) <= 4}
    assert len(found) == cumulative_count(4) == 108


def test_base_rank_of_family_sized_tree_is_fast():
    big = parse("(x[0] := 1; (while (x[1] < 23) do "
                "(x[1] := (x[1] + 1); x[0] := (x[0] * 2))))")
    k = rank_base(big)
    assert unrank_base(k) == big


def test_base_rejects_negative():
    with pytest.raises(PositionRangeError):
        unrank_base(-1)


def test_ranking_rejects_foreign_values():
    # an arithmetic node is no program, a boolean node no arithmetic child
    for rank, value in ((rank_base, Num(3)), (rank_base, Assign(0, TRUE)),
                        (rank_fixed_length, Num(3))):
        with pytest.raises(TypeError, match="not a category-"):
            rank(value)
