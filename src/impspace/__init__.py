"""impspace: enumerate, execute, and statistically analyze IMP programs.

The IMP toy language (skip, assignment, sequencing, conditionals, while
loops over natural-valued registers) induces a countable program space.
This package counts that space exactly, ranks and unranks it, runs it
under step budgets, and derives halting censuses, shortest-producer
tables, and halting-threshold statistics from the results.
"""

__version__ = "0.1.0"

from .lang import (
    Add, And, Arith, Assign, Bool, Eq, FalseLit, If, ImpSyntaxError, Lt, Mul,
    Not, Num, Or, Program, Reg, Seq, Skip, Sub, TrueLit, While,
    FALSE, SKIP, TRUE,
    nat_to_string, parse, program_length, render, string_to_nat,
)
from .vm import RunResult, classify, output_string, run
from .enumeration import (
    PositionRangeError,
    count_programs, cumulative_count,
    iter_canonical, iter_fixed_length,
    rank_base, rank_canonical, rank_fixed_length,
    unrank_base, unrank_canonical, unrank_fixed_length,
)
from .halting import (
    EstimationParams, HaltingSample, SplitMix64,
    confidence_from_sample, draw_halting_sample, ecdf, quantile,
    sample_size, tail_quantile, threshold_from_sample,
)
from .explorer import (
    CensusRow, ComplexityEntry, FAMILIES, OutputProbability, RunRecord,
    SweepSummary, algorithmic_probability, family_program, sweep,
    sweep_summary, trivial_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
