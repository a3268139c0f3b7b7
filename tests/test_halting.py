"""Sample-size arithmetic, ECDF, PRNG, and halting-sample tests."""

import decimal
from fractions import Fraction
from math import ceil

import pytest

from impspace import halting
from impspace.halting import (
    EstimationParams, HaltingSample, SplitMix64, confidence_from_sample,
    draw_halting_sample, ecdf, quantile, sample_metadata, sample_size,
    sample_to_csv, tail_quantile, threshold_from_sample, worker_seed,
)


# ---------------------------------------------------------------------------
# Sample-size formula
# ---------------------------------------------------------------------------

def test_sample_size_published_rows():
    assert sample_size("0.009", "0.01") == 28_427
    assert sample_size("0.001", "0.01") == 2_302_586
    assert sample_size("0.001", "0.001") == 3_453_878
    assert sample_size("0.0005", "0.001") == 13_815_511
    # above 2**53, where a double-precision ceiling is off by whole units
    assert sample_size(Fraction(1, 10**9), Fraction(1, 2)) == \
        346_573_590_279_972_655
    assert sample_size("0.00000001", "0.01") == 23_025_850_929_940_457


def test_sample_size_ignores_and_keeps_the_callers_decimal_context():
    before = repr(decimal.getcontext())
    caller = decimal.Context(prec=3, traps=[decimal.Inexact])
    with decimal.localcontext(caller):
        assert sample_size("0.009", "0.01") == 28_427
        assert sample_size("0.0005", "0.001") == 13_815_511
        assert decimal.getcontext().prec == 3
    assert repr(decimal.getcontext()) == before


def test_sample_size_hand_computable():
    # ln(2)/(2 * 1/4) = 1.386...; ln(4)/(2 * 1/4) = 2.772...
    assert sample_size(Fraction(1, 2), Fraction(1, 2)) == 2
    assert sample_size(Fraction(1, 2), Fraction(1, 4)) == 3


def test_sample_size_doubles_its_precision_near_an_integer(monkeypatch):
    # convergents of 1/e bring ln(1/delta)/(2 * 1/4) within 2e-28 of 2,
    # closer than the interval of 30 digits can certify, and then within
    # 4e-59, closer than that of 60 digits
    precisions = []
    context = halting.Context

    def recorded(**kwargs):
        precisions.append(kwargs["prec"])
        return context(**kwargs)

    monkeypatch.setattr(halting, "Context", recorded)
    reference = decimal.Context(prec=400)
    for delta, n, seen, gap in (
            (Fraction(16977719590391, 46150226651233), 3, [30, 60],
             Fraction(2, 10**28)),
            (Fraction(100080269231345899070830291281,
                      272046377238856456170784180400), 2, [30, 60, 120],
             Fraction(4, 10**59))):
        precisions.clear()
        assert sample_size(Fraction(1, 2), delta) == n
        assert precisions == seen
        quotient = 2 * Fraction(reference.subtract(
            reference.ln(delta.denominator), reference.ln(delta.numerator)))
        assert 0 < abs(quotient - 2) < gap
        assert ceil(quotient) == n


def test_sample_size_antitone():
    base = sample_size("0.01", "0.01")
    assert sample_size("0.02", "0.01") < base
    assert sample_size("0.01", "0.05") < base


def test_sample_size_domain():
    for lam, delta in [(0, "0.5"), (1, "0.5"), ("0.5", 0), ("0.5", 1),
                       ("-0.1", "0.5"), ("0.5", "1.5")]:
        with pytest.raises(ValueError):
            sample_size(lam, delta)


def test_confidence_closes_the_loop():
    for lam, delta in [("0.009", "0.01"), ("0.001", "0.01"),
                       ("0.001", "0.001"), ("0.0005", "0.001")]:
        n = sample_size(lam, delta)
        achieved = confidence_from_sample(n, lam)
        assert achieved <= float(Fraction(delta)) * (1 + 1e-9)
        assert abs(achieved - float(Fraction(delta))) / float(Fraction(delta)) \
            < 1e-3
        # and the back-solved size agrees to within a unit
        assert abs(sample_size(lam, Fraction(achieved).limit_denominator(10**12))
                   - n) <= 1


def test_confidence_tight_row():
    got = confidence_from_sample(13_815_511, "0.0005")
    assert abs(got - 0.001) / 0.001 < 1e-6


def test_confidence_domain():
    with pytest.raises(ValueError):
        confidence_from_sample(0, "0.5")
    with pytest.raises(ValueError):
        confidence_from_sample(10, "1.5")


def test_estimation_params_validation():
    EstimationParams(Fraction("0.01"), Fraction("0.009"), Fraction("0.01"))
    with pytest.raises(ValueError):
        EstimationParams(Fraction("0.009"), Fraction("0.01"), Fraction("0.01"))
    with pytest.raises(ValueError):
        EstimationParams(Fraction("0.5"), Fraction("0.1"), Fraction(2))


# ---------------------------------------------------------------------------
# ECDF and quantiles
# ---------------------------------------------------------------------------

def test_ecdf_examples():
    sample = [2, 3, 3, 9]
    assert ecdf(sample, 3) == Fraction(3, 4)
    assert ecdf(sample, 1) == 0
    assert ecdf(sample, 9) == 1
    assert ecdf(sample, 100) == 1


def test_ecdf_monotone_and_bounded():
    sample = [5, 1, 8, 8, 2, 13, 1]
    values = [ecdf(sample, t) for t in range(15)]
    assert values == sorted(values)
    assert all(0 <= v <= 1 for v in values)
    assert values[-1] == 1


def test_ecdf_rejects_empty():
    with pytest.raises(ValueError):
        ecdf([], 3)


def test_quantile_order_statistics():
    century = range(1, 101)
    assert quantile(century, "0.99") == 99
    assert quantile(century, 1) == 100
    assert quantile(century, Fraction(1, 100)) == 1
    assert quantile([5], "0.5") == 5
    assert quantile([2, 3, 3, 9], "0.75") == 3


def test_quantile_domain():
    with pytest.raises(ValueError):
        quantile([], "0.5")
    with pytest.raises(ValueError):
        quantile([1, 2], 0)
    with pytest.raises(ValueError):
        quantile([1, 2], "1.01")


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------

def test_splitmix_reference_vectors():
    g = SplitMix64(0)
    assert [g.next_word() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    g = SplitMix64(0x123456789ABCDEF)
    first = g.next_word()
    assert SplitMix64(0x123456789ABCDEF).next_word() == first


def test_randbelow_ranges():
    g = SplitMix64(99)
    draws = [g.randbelow(37) for _ in range(2_000)]
    assert all(0 <= d < 37 for d in draws)
    assert len(set(draws)) == 37  # all residues reached
    big = SplitMix64(7).randbelow(10**30)
    assert 0 <= big < 10**30


def test_randbelow_domain():
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow(0)


def test_worker_seeds_are_distinct_words():
    seeds = [worker_seed(42, i) for i in range(16)]
    assert len(set(seeds)) == 16
    g = SplitMix64(42)
    assert seeds == [g.next_word() for _ in range(16)]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_determinism_and_shape():
    a = draw_halting_sample(6, 300, seed=42)
    b = draw_halting_sample(6, 300, seed=42)
    assert a == b
    assert len(a.rows) == 300
    assert a.space_size == 38_002
    assert all(0 <= pos < a.space_size for pos, _, _ in a.rows)
    assert all(1 <= length <= 6 for _, length, _ in a.rows)
    assert all(steps <= a.probe_budget for _, _, steps in a.rows)
    assert a.runtimes == tuple(sorted(a.runtimes))
    assert sum(a.per_length.values()) == 300


def test_sample_seed_sensitivity():
    a = draw_halting_sample(6, 300, seed=1)
    b = draw_halting_sample(6, 300, seed=2)
    assert a.rows != b.rows


def test_sample_multiworker_deterministic():
    a = draw_halting_sample(5, 120, seed=5, workers=3)
    b = draw_halting_sample(5, 120, seed=5, workers=3)
    assert a == b
    # worker fan-out is part of the contract: the first quota of rows is
    # exactly what worker 0's substream would produce alone
    solo = draw_halting_sample(5, 40, seed=5, workers=1)
    assert a.rows[:40] == solo.rows


def test_sample_threshold_and_quantile():
    params = EstimationParams(Fraction("0.01"), Fraction("0.009"),
                              Fraction("0.01"))
    sample = draw_halting_sample(6, 400, seed=9, params=params)
    threshold = threshold_from_sample(sample)
    assert threshold == max(sample.runtimes)
    assert tail_quantile(sample) <= threshold
    bare = draw_halting_sample(6, 10, seed=9)
    with pytest.raises(ValueError):
        tail_quantile(bare)


def test_sample_validation():
    with pytest.raises(ValueError):
        draw_halting_sample(6, 0)
    with pytest.raises(ValueError):
        draw_halting_sample(0, 5)
    with pytest.raises(ValueError):
        draw_halting_sample(6, 5, workers=0)


def test_threshold_rejects_empty():
    empty = HaltingSample(rows=(), max_length=6, space_size=38_002, seed=0,
                          probe_budget=100, rejections=0)
    with pytest.raises(ValueError):
        threshold_from_sample(empty)


def test_sample_serialization():
    sample = draw_halting_sample(5, 25, seed=3)
    csv_text = sample_to_csv(sample)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "position,length,steps"
    assert len(lines) == 26
    pos, length, steps = map(int, lines[1].split(","))
    assert (pos, length, steps) == sample.rows[0]
    meta = sample_metadata(sample)
    assert meta["n"] == 25
    assert meta["seed"] == 3
    assert meta["threshold"] == threshold_from_sample(sample)
    assert sum(meta["per_length"].values()) == 25
    assert "params" not in meta
