"""Every metric the benchmark reports, with its unit and its direction.

``BENCHMARK.json`` at the repository root lists the same names and units
(the smoke test checks that the two agree).  Each per-layer metric also
names the end-to-end metric and workload it should move, so that a change
to one layer can be held to a prediction made before it was written.
"""

END_TO_END = {
    # name: (unit, better)
    "programs_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

PER_LAYER = {
    # name: (unit, better, what it should move)
    "enumeration.iter_s": (
        "s", "lower", "programs_per_s on sweep7 and cli7_records; ~0 on sample12"),
    "enumeration.iter_programs": (
        "count", "lower", "programs_per_s on sweep7 and cli7_records"),
    "enumeration.unrank_s": ("s", "lower", "programs_per_s (draws/s) on sample12"),
    "enumeration.unrank_calls": (
        "count", "lower", "programs_per_s (draws/s) on sample12"),
    "vm.classify_s": (
        "s", "lower", "programs_per_s on sweep7; a little on sample12"),
    "vm.classify_calls": ("count", "lower", "programs_per_s on sweep7"),
    "vm.halted": ("count", "lower", "programs_per_s on sweep7"),
    "vm.run_s": ("s", "lower", "programs_per_s on exact6 (run by hand)"),
    "vm.steps": ("count", "lower", "programs_per_s on exact6 (run by hand)"),
    "vm.steps_per_s": ("1/s", "higher", "programs_per_s on exact6 (run by hand)"),
    "vm.output_string_s": ("s", "lower", "programs_per_s on sweep7"),
    "vm.output_bits": ("bit", "lower", "programs_per_s on sweep7"),
    "lang.nat_to_string_s": ("s", "lower", "programs_per_s on sweep7"),
    "lang.program_length_s": ("s", "lower", "programs_per_s on sample12"),
    "explorer.self_s": ("s", "lower", "programs_per_s on sweep7"),
    "explorer.distinct_outputs": (
        "count", "higher", "none: 10,000 at length 7 on sweep7 and cli7_records"),
    "explorer.records_s": ("s", "lower", "programs_per_s on cli7_records"),
    "halting.self_s": ("s", "lower", "programs_per_s (draws/s) on sample12"),
    "halting.randbelow_s": ("s", "lower", "programs_per_s (draws/s) on sample12"),
    "halting.draws": ("count", "higher", "programs_per_s (draws/s) on sample12"),
    "halting.rejections": ("count", "lower", "programs_per_s (draws/s) on sample12"),
    "halting.accept_ratio": (
        "halted/draw", "higher", "programs_per_s (draws/s) on sample12"),
    "pool.ceiling": ("x", "higher", "programs_per_s on cli7_records"),
    "pool.speedup": ("x", "higher", "programs_per_s on cli7_records"),
    "pool.efficiency": ("ratio", "higher", "programs_per_s on cli7_records"),
    "cli.self_s": (
        "s", "lower", "programs_per_s and peak_rss_mb on cli7_records"),
    "cli.artifact_bytes": (
        "B", "lower", "programs_per_s and peak_rss_mb on cli7_records"),
    "trace.wall_s": ("s", "lower", "none: traced wall time of one iteration"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time"),
}


def from_stats(stats, wall_untraced: float, wall_traced: float,
               exact: dict, ceiling: float, speedup: float) -> dict[str, float]:
    """Per-layer values of one traced iteration, by metric name."""
    total, self_time = stats.total, stats.self_time
    calls, counts = stats.calls, stats.counts
    draws = counts["halting.draws"]
    return {
        "enumeration.iter_s": total["enumeration.iter"],
        "enumeration.iter_programs": counts["enumeration.iter_programs"],
        "enumeration.unrank_s": total["enumeration.unrank"],
        "enumeration.unrank_calls": calls["enumeration.unrank"],
        "vm.classify_s": total["vm.classify"],
        "vm.classify_calls": calls["vm.classify"],
        "vm.halted": counts["vm.halted"],
        "vm.run_s": total["vm.run"],
        "vm.steps": counts["vm.steps"],
        "vm.steps_per_s": (counts["vm.steps"] / total["vm.run"]
                           if total["vm.run"] else 0.0),
        "vm.output_string_s": total["vm.output_string"],
        "vm.output_bits": counts["vm.output_bits"],
        "lang.nat_to_string_s": total["lang.nat_to_string"],
        "lang.program_length_s": total["lang.program_length"],
        "explorer.self_s": (self_time["explorer.sweep_summary"]
                            + self_time["explorer.summary_task"]
                            + self_time["explorer.record_task"]),
        "explorer.distinct_outputs": counts["explorer.distinct_outputs"],
        "explorer.records_s": total["explorer.records"],
        "halting.self_s": (self_time["halting.draw_halting_sample"]
                           + self_time["halting.draw_quota"]),
        "halting.randbelow_s": total["halting.randbelow"],
        "halting.draws": draws,
        "halting.rejections": counts["halting.rejections"],
        "halting.accept_ratio": ((draws - counts["halting.rejections"]) / draws
                                 if draws else 0.0),
        "pool.ceiling": ceiling,
        "pool.speedup": speedup,
        "pool.efficiency": speedup / ceiling,
        "cli.self_s": self_time["cli.main"],
        "cli.artifact_bytes": exact.get("cli.artifact_bytes", 0),
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_untraced,
    }
