"""Halting-time statistics: sample sizes, sampling, ECDF, and thresholds.

The machinery answers one question: how long must a program be allowed to
run before declaring it non-halting, with quantified error?  Given a
precision ``lam`` and confidence complement ``delta``, ``sample_size``
says how many halting programs to observe; ``draw_halting_sample``
collects them by uniform position sampling; the maximum observed runtime
is the cutoff, with the ECDF and tail quantiles as supporting statistics.

All parameters are exact rationals (pass decimal strings or Fractions;
floats are taken at their exact binary value).  The sample-size ceiling
is certified from correctly rounded ``decimal`` logarithms, so the
returned integer is the true mathematical ceiling, not a double-precision
approximation.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from math import ceil, exp

from .enumeration import cumulative_count, unrank_canonical
from .lang import program_length
from .parallel import ordered_map
from .vm import classify

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, slots=True)
class EstimationParams:
    """Decision error epsilon, precision lam, confidence complement delta."""

    epsilon: Fraction
    lam: Fraction
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.lam < self.epsilon < 1:
            raise ValueError("need 0 < lam < epsilon < 1")
        if not 0 < self.delta < 1:
            raise ValueError("need 0 < delta < 1")


def sample_size(lam: Fraction | str | float,
                delta: Fraction | str | float) -> int:
    """Halting programs needed: the exact ceiling of ln(1/delta)/(2*lam**2).

    The quotient is irrational for rational parameters, so a certified
    ceiling always exists.  ``Decimal.ln`` is correctly rounded, so each
    true logarithm lies between the neighbours of its rounded value; the
    precision is doubled until both ends of the interval that encloses
    the quotient share a ceiling.  The caller's context is never used.
    """
    lam = Fraction(lam)
    delta = Fraction(delta)
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    scale = 2 * lam * lam
    prec = 30
    while True:
        ctx = Context(prec=prec, rounding=ROUND_HALF_EVEN, traps=[])

        def ln(term: int):  # ln(1) is exactly 0, not between tiny neighbours
            if term == 1:
                return 0, 0
            log = ctx.ln(term)
            return Fraction(ctx.next_minus(log)), Fraction(ctx.next_plus(log))

        (den_lo, den_hi), (num_lo, num_hi) = map(
            ln, (delta.denominator, delta.numerator))
        lo = ceil((den_lo - num_hi) / scale)
        if lo == ceil((den_hi - num_lo) / scale):
            return lo
        prec *= 2


def confidence_from_sample(n: int, lam: Fraction | str | float) -> float:
    """Confidence complement achieved by n halting samples: exp(-2*n*lam**2)."""
    lam = Fraction(lam)
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    return exp(-2 * n * lam * lam)


def ecdf(runtimes, t: int) -> Fraction:
    """Fraction of sampled runtimes at most t, as an exact rational."""
    data = sorted(runtimes)
    if not data:
        raise ValueError("empty sample")
    return Fraction(bisect.bisect_right(data, t), len(data))


def quantile(runtimes, q: Fraction | str | float) -> int:
    """Smallest runtime r with ecdf(r) >= q, for q in (0, 1]."""
    data = sorted(runtimes)
    if not data:
        raise ValueError("empty sample")
    q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError("quantile level must lie in (0, 1]")
    # index of the smallest order statistic covering mass q
    idx = -(-q.numerator * len(data) // q.denominator)  # ceil(q * n)
    return data[idx - 1]


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

class SplitMix64:
    """64-bit splitmix generator (Steele, Lea & Flood's update/mix constants).

    Chosen for its two-line implementation: samples must be reproducible
    from the seed alone on any platform, so the generator algorithm is
    part of the file format, in effect.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection over whole words."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = (bound - 1).bit_length()
        words = (bits + 63) // 64
        shift = words * 64 - bits
        while True:
            acc = 0
            for _ in range(words):
                acc = (acc << 64) | self.next_word()
            value = acc >> shift
            if value < bound:
                return value


def worker_seed(seed: int, index: int) -> int:
    """Substream seed for one worker: the (index+1)-th word of the master."""
    master = SplitMix64(seed)
    for _ in range(index):
        master.next_word()
    return master.next_word()


@dataclass(frozen=True, slots=True)
class HaltingSample:
    """Runtimes of uniformly sampled halting programs, with provenance.

    ``rows`` holds (position, length, steps) triples in draw order,
    workers concatenated in index order.
    """

    rows: tuple[tuple[int, int, int], ...]
    max_length: int
    space_size: int
    seed: int
    probe_budget: int
    rejections: int
    params: EstimationParams | None = None

    @property
    def runtimes(self) -> tuple[int, ...]:
        return tuple(sorted(r[2] for r in self.rows))

    @property
    def per_length(self) -> dict[int, int]:
        return dict(sorted(Counter(r[1] for r in self.rows).items()))


def threshold_from_sample(sample: HaltingSample) -> int:
    """The halting cutoff: the largest runtime seen in the sample."""
    if not sample.rows:
        raise ValueError("empty sample")
    return max(r[2] for r in sample.rows)


def tail_quantile(sample: HaltingSample) -> int:
    """The (1 - epsilon)-quantile of the runtimes, epsilon from the params."""
    if sample.params is None:
        raise ValueError("sample carries no estimation params")
    return quantile(sample.runtimes, 1 - sample.params.epsilon)


def _draw_quota(args: tuple[int, int, int, int]) -> tuple[list[tuple[int, int, int]], int]:
    seed, quota, space_size, probe_budget = args
    rng = SplitMix64(seed)
    rows: list[tuple[int, int, int]] = []
    rejections = 0
    while len(rows) < quota:
        position = rng.randbelow(space_size)
        program = unrank_canonical(position)
        result = classify(program, probe_budget)
        if result.halted:
            rows.append((position, program_length(program), result.steps))
        else:
            rejections += 1
    return rows, rejections


def draw_halting_sample(max_length: int, n: int, probe_budget: int = 10_000,
                        seed: int = 0, workers: int = 1,
                        params: EstimationParams | None = None) -> HaltingSample:
    """Collect n halting programs drawn uniformly from positions < |S_maxlen|.

    Positions are drawn with substream generators derived from the seed
    (one per worker), each program probed with the given budget; draws
    that fail to halt are rejected and counted.  The result is a pure
    function of (max_length, n, probe_budget, seed, workers).
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    space_size = cumulative_count(max_length)
    if space_size == 0:
        raise ValueError(f"no programs of length at most {max_length}")
    if workers < 1:
        raise ValueError("need at least one worker")
    quotas = [n // workers + (1 if i < n % workers else 0)
              for i in range(workers)]
    tasks = [(worker_seed(seed, i), quota, space_size, probe_budget)
             for i, quota in enumerate(quotas) if quota]
    parts = list(ordered_map(_draw_quota, tasks, len(tasks)))
    rows = tuple(row for part_rows, _ in parts for row in part_rows)
    rejections = sum(part_rejections for _, part_rejections in parts)
    return HaltingSample(rows=rows, max_length=max_length,
                         space_size=space_size, seed=seed,
                         probe_budget=probe_budget, rejections=rejections,
                         params=params)


def sample_to_csv(sample: HaltingSample) -> str:
    """CSV body for a sample: one row per draw, in draw order."""
    lines = ["position,length,steps"]
    lines.extend(f"{pos},{length},{steps}" for pos, length, steps in sample.rows)
    return "\n".join(lines) + "\n"


def sample_metadata(sample: HaltingSample) -> dict:
    """JSON-ready sidecar describing how the sample was drawn."""
    meta = {
        "max_length": sample.max_length,
        "space_size": sample.space_size,
        "seed": sample.seed,
        "probe_budget": sample.probe_budget,
        "n": len(sample.rows),
        "rejections": sample.rejections,
        "threshold": threshold_from_sample(sample),
        "per_length": {str(k): v for k, v in sample.per_length.items()},
    }
    if sample.params is not None:
        meta["params"] = {
            "epsilon": str(sample.params.epsilon),
            "lam": str(sample.params.lam),
            "delta": str(sample.params.delta),
        }
        meta["tail_quantile"] = tail_quantile(sample)
    return meta
