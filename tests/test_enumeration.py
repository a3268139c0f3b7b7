"""Counting and rank/unrank tests, validated against brute-forced spaces."""

import random

import pytest

from impspace import enumeration
from impspace.enumeration import (
    PositionRangeError, count_programs, cumulative_count, iter_canonical,
    iter_fixed_length, rank_base, rank_canonical, rank_fixed_length,
    unrank_base, unrank_canonical, unrank_fixed_length,
)
from impspace.lang import If, SKIP, Seq, While, parse, program_length, render

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


# Table caps covering both sides of the shared-subtree cutoff: 0 streams
# every block, the default mixes tables and streams, and the last builds a
# table for every block these tests touch.
CAPS = (0, enumeration._TABLE_CAP, 10**9)


def _use_cap(monkeypatch, cap):
    monkeypatch.setattr(enumeration, "_TABLE_CAP", cap)
    monkeypatch.setattr(enumeration, "_member_tables", {})
    monkeypatch.setattr(enumeration, "_child_tables", {})


def test_iterator_agrees_with_unranking(monkeypatch):
    # unranking outside a table reuses the walk, so the reference at cap 0
    # is pinned independently: by the ranker and by the brute-force grammar
    lengths = (1, 3, 4, 5)
    _use_cap(monkeypatch, 0)
    want = {length: [unrank_fixed_length(length, k)
                     for k in range(count_programs(length))]
            for length in lengths}
    for cap in CAPS:
        _use_cap(monkeypatch, cap)
        for length in lengths:
            assert list(iter_fixed_length(length)) == want[length], cap
            block = [unrank_fixed_length(length, k)
                     for k in range(count_programs(length))]
            assert block == want[length], cap
            assert all(rank_fixed_length(p) == k
                       for k, p in enumerate(block)), cap
            assert set(block) == set(bruteforce.programs(length)), cap


def test_iterator_resumes_anywhere(monkeypatch):
    _use_cap(monkeypatch, 0)
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
        _use_cap(monkeypatch, cap)
        for start in starts:
            tail = list(iter_fixed_length(6, start))
            assert tail == full[start:], (cap, start)


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
    assert program_length(unrank_canonical(cumulative_count(9) - 1)) == 9
    assert program_length(unrank_canonical(cumulative_count(9))) == 10
    assert program_length(unrank_canonical(107)) == 4
    assert program_length(unrank_canonical(108)) == 5


def test_canonical_rejects_negative():
    with pytest.raises(PositionRangeError):
        unrank_canonical(-1)


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
