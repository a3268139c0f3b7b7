"""Command-line interface: batch workflows over the library with stable artifacts.

Subcommands map onto the library modules: ``count``/``unrank``/``rank``
expose the enumerations, ``run`` the interpreter, ``sample`` the halting
sampler, ``sweep``/``ctm`` the exhaustive explorer, ``family`` the
program generators, and ``audit`` re-verifies previously written
artifacts.  File-writing commands drop a ``manifest.json`` recording the
exact configuration and the SHA-256 of every artifact, and never embed
timestamps, so a rerun with equal arguments reproduces every byte.

Progress goes to stderr; stdout and artifact files stay machine-clean.
Errors exit with a category-specific code: 2 usage, 3 syntax, 4 range,
5 invalid configuration, 6 I/O, 7 integrity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from . import __version__
from .enumeration import (
    PositionRangeError, count_programs, cumulative_count, rank_base,
    rank_canonical, unrank_base, unrank_canonical,
)
# ``sweep`` is unused here, but perfbench/tracer.py wraps
# ``impspace.cli.sweep``, so the name stays importable from this module
from .explorer import (  # noqa: F401
    FAMILIES, SweepSummary, algorithmic_probability, family_program, sweep,
    sweep_summary,
)
from .halting import (
    EstimationParams, SplitMix64, draw_halting_sample, sample_metadata,
    sample_size, sample_to_csv, threshold_from_sample,
)
from .lang import ImpSyntaxError, parse, program_length, render
from .vm import classify, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SYNTAX = 3
EXIT_RANGE = 4
EXIT_CONFIG = 5
EXIT_IO = 6
EXIT_INTEGRITY = 7


class IntegrityError(Exception):
    """An audited artifact does not match its manifest."""


def _default_workers() -> int:
    value = os.environ.get("IMP_SPACE_WORKERS", "")
    if value.isascii() and value.isdigit() and int(value) >= 1:
        return int(value)
    return 1


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_artifacts(out_dir: Path, files: dict[str, str],
                     config: dict, command: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in files.items():
        data = text.encode()
        (out_dir / name).write_bytes(data)
        digests[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
    manifest = {
        "tool": "impspace",
        "version": __version__,
        "command": command,
        "config": config,
        "files": digests,
    }
    path = out_dir / "manifest.json"
    path.write_text(_dump_json(manifest))
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    if args.max_length < 0:
        raise ValueError("--max-length must be nonnegative")
    rows = [f"{'length':>6} {'count':>16} {'cumulative':>16}"]
    for length in range(args.max_length + 1):
        rows.append(f"{length:>6} {count_programs(length):>16} "
                    f"{cumulative_count(length):>16}")
    _emit("\n".join(rows))
    return EXIT_OK


def _cmd_unrank(args) -> int:
    program = (unrank_base if args.base else unrank_canonical)(args.position)
    _emit(render(program))
    return EXIT_OK


def _cmd_rank(args) -> int:
    program = parse(args.program)
    _emit(str((rank_base if args.base else rank_canonical)(program)))
    return EXIT_OK


def _cmd_run(args) -> int:
    result = run(parse(args.program), args.budget)
    _emit(_dump_json({
        "halted": result.halted,
        "steps": result.steps,
        "output": result.output,
    }))
    return EXIT_OK


def _estimation_params(args) -> EstimationParams | None:
    given = [args.epsilon, args.lam, args.delta]
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ValueError("--epsilon, --lambda and --delta go together")
    return EstimationParams(Fraction(args.epsilon), Fraction(args.lam),
                            Fraction(args.delta))


def _cmd_sample(args) -> int:
    params = _estimation_params(args)
    n = args.n
    if n is None:
        if params is None:
            raise ValueError("give --n, or --lambda and --delta to derive it")
        n = sample_size(params.lam, params.delta)
        _progress(f"sample size from (lambda, delta): {n}")
    sample = draw_halting_sample(args.max_length, n, args.budget, args.seed,
                                 args.workers, params)
    config = {
        "subcommand": "sample",
        "max_length": args.max_length,
        "n": n,
        "budget": args.budget,
        "seed": args.seed,
        "workers": args.workers,
    }
    meta = sample_metadata(sample)
    if args.out is None:
        _emit(_dump_json(meta))
        return EXIT_OK
    _write_artifacts(Path(args.out), {
        "sample.csv": sample_to_csv(sample),
        "sample.json": _dump_json({"config": config, **meta}),
    }, config, "sample")
    _progress(f"threshold {threshold_from_sample(sample)}, "
              f"{sample.rejections} rejections")
    return EXIT_OK


def _census_json(summary: SweepSummary, config: dict) -> str:
    census = {
        str(length): {
            "halted": row.halted,
            "not_halted": row.not_halted,
            "halted_pct": row.halted_pct,
            "not_halted_pct": row.not_halted_pct,
        }
        for length, row in summary.census.items()
    }
    return _dump_json({
        "config": config,
        "census": census,
        "total": summary.total,
        "total_halting": summary.total_halting,
    })


def _histograms_json(summary: SweepSummary, config: dict) -> str:
    return _dump_json({
        "config": config,
        "steps_by_length": {
            str(length): {str(s): n for s, n in row.items()}
            for length, row in summary.steps_hist.items()
        },
        "output_length": {str(k): v for k, v in summary.output_hist.items()},
    })


def _complexity_csv(summary: SweepSummary) -> str:
    lines = ["output,best_length,witness,producers"]
    lines.extend(f"{e.output},{e.best_length},{e.witness},{e.producers}"
                 for e in summary.complexity.values())
    return "\n".join(lines) + "\n"


def _complexity_json(summary: SweepSummary, config: dict) -> str:
    return _dump_json({
        "config": config,
        "total_halting": summary.total_halting,
        "outputs": [
            {"output": e.output, "best_length": e.best_length,
             "witness": e.witness, "producers": e.producers}
            for e in summary.complexity.values()
        ],
    })


def _swept(programs: int, started: float) -> None:
    """The closing stderr line of a sweep; timings stay out of artifacts."""
    wall = perf_counter() - started
    rate = programs / wall if wall > 0 else 0.0
    _progress(f"swept {programs} programs in {wall:.2f} s "
              f"({rate:.0f} programs/s)")


def _cmd_sweep(args) -> int:
    # worker count and exact-budget mode are deliberately absent from the
    # config: neither can change any artifact byte, and equal inputs must
    # hash equal
    config = {
        "subcommand": "sweep",
        "max_length": args.max_length,
        "budget": args.budget,
        "format": args.format,
    }
    if args.records and args.out is None:
        raise ValueError("--records needs --out")
    started = perf_counter()
    _progress(f"sweeping {cumulative_count(args.max_length)} programs "
              f"(length <= {args.max_length}, budget {args.budget})")
    # records.csv is collected as one string per chunk, rendered as the
    # chunk arrives: keeping the row tuples would double the peak memory
    records = ["position,length,halted,steps,output\n"]

    def record_chunk(rows: list[tuple]) -> None:
        records.append("".join(
            f"{position},{length},{'true' if halted else 'false'},"
            f"{steps},{output}\n"
            for position, length, halted, steps, output in rows))

    summary = sweep_summary(args.max_length, args.budget, args.workers,
                            exact_budget=args.exact_budget,
                            records=record_chunk if args.records else None)
    if args.out is None:
        rows = [f"{'length':>6} {'halted':>12} {'not_halted':>12} "
                f"{'halted%':>8} {'not_halted%':>12}"]
        for length, row in summary.census.items():
            rows.append(f"{length:>6} {row.halted:>12} {row.not_halted:>12} "
                        f"{row.halted_pct:>8} {row.not_halted_pct:>12}")
        _emit("\n".join(rows))
        _swept(summary.total, started)
        return EXIT_OK
    files = {
        "census.json": _census_json(summary, config),
        "histograms.json": _histograms_json(summary, config),
    }
    if args.format == "json":
        files["complexity.json"] = _complexity_json(summary, config)
    else:
        files["complexity.csv"] = _complexity_csv(summary)
    if args.records:
        files["records.csv"] = "".join(records)
    _write_artifacts(Path(args.out), files, config, "sweep")
    _swept(summary.total, started)
    return EXIT_OK


def _cmd_ctm(args) -> int:
    config = {
        "subcommand": "ctm",
        "max_length": args.max_length,
        "budget": args.budget,
    }
    started = perf_counter()
    summary = sweep_summary(args.max_length, args.budget, args.workers)
    total = summary.total_halting
    lines = ["output,best_length,witness,producers,probability,complexity_bits"]
    for e in summary.complexity.values():
        ap = algorithmic_probability(summary.complexity, e.output, total)
        p = ap.probability
        lines.append(f"{e.output},{e.best_length},{e.witness},{e.producers},"
                     f"{p.numerator}/{p.denominator},{ap.complexity_bits:.6f}")
    body = "\n".join(lines) + "\n"
    if args.out is None:
        _emit(body)
    else:
        _write_artifacts(Path(args.out), {
            "ctm.csv": body,
            "ctm.json": _dump_json({
                "config": config,
                "total_halting": total,
                "distinct_outputs": len(summary.complexity)}),
        }, config, "ctm")
    _swept(summary.total, started)
    return EXIT_OK


def _cmd_family(args) -> int:
    program = family_program(args.family, args.n)
    payload = {
        "family": args.family,
        "n": args.n,
        "program": render(program),
        "length": program_length(program),
    }
    if args.run:
        result = run(program, args.budget)
        payload.update(halted=result.halted, steps=result.steps,
                       output=result.output)
    _emit(_dump_json(payload))
    return EXIT_OK


def _cmd_audit(args) -> int:
    manifest_path = Path(args.manifest)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except (ValueError, RecursionError) as err:
        raise IntegrityError(f"manifest is not valid JSON: {err}") from None
    base = manifest_path.parent
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict):
        raise IntegrityError("manifest has no files")
    mismatched, missing = [], []
    for name, info in files.items():
        path = base / name
        if not path.exists():
            missing.append(name)
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if not isinstance(info, dict) or digest != info.get("sha256"):
            mismatched.append(name)
    report: dict = {
        "verified": len(files) - len(mismatched) - len(missing),
        "mismatched": mismatched,
        "missing": missing,
    }
    rechecked = failures = 0
    if args.recheck and "records.csv" in files \
            and "records.csv" not in missing:
        config = manifest.get("config")
        budget = config.get("budget") if isinstance(config, dict) else None
        if type(budget) is not int or budget < 1:
            raise IntegrityError(
                "manifest has no config.budget (a positive integer)")
        with open(base / "records.csv", newline="",
                  errors="replace") as fh:
            rows = list(csv.DictReader(fh))
        rng = SplitMix64(args.seed)
        for _ in range(min(args.recheck, len(rows))):
            row = rows[rng.randbelow(len(rows))]
            rechecked += 1
            try:
                program = unrank_canonical(int(row["position"]))
                expect = (row["halted"] == "true", int(row["steps"]),
                          row["output"])
            except (LookupError, TypeError, ValueError):
                # a malformed row (missing field, bad number, position out
                # of range) cannot match any run
                failures += 1
                continue
            result = classify(program, budget)
            if (result.halted, result.steps, result.output) != expect:
                failures += 1
        report["rechecked"] = rechecked
        report["recheck_failures"] = failures
    _emit(_dump_json(report))
    if mismatched or missing or failures:
        raise IntegrityError(
            f"{len(mismatched)} mismatched, {len(missing)} missing, "
            f"{failures} recheck failures")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impspace",
        description="Enumerate, execute, and statistically analyze "
                    "the IMP program space.")
    parser.add_argument("--version", action="version",
                        version=f"impspace {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="program counts per length")
    p.add_argument("--max-length", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("unrank", help="position to program text")
    p.add_argument("position", type=int)
    scheme = p.add_mutually_exclusive_group()
    scheme.add_argument("--canonical", action="store_true", default=True)
    scheme.add_argument("--base", action="store_true")
    p.set_defaults(func=_cmd_unrank)

    p = sub.add_parser("rank", help="program text to position")
    p.add_argument("program")
    scheme = p.add_mutually_exclusive_group()
    scheme.add_argument("--canonical", action="store_true", default=True)
    scheme.add_argument("--base", action="store_true")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("run", help="execute one program")
    p.add_argument("program")
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sample", help="sample halting programs uniformly")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--epsilon")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--delta")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sweep", help="run every program up to a length")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out")
    p.add_argument("--records", action="store_true",
                   help="also write the full per-program record stream")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--exact-budget", action="store_true",
                   help="run every non-halting program to the full budget "
                        "instead of stopping at a proved loop")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ctm", help="complexity table from an exhaustive sweep")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ctm)

    p = sub.add_parser("family", help="generate a family program")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--run", action="store_true")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("audit", help="verify artifacts against a manifest")
    p.add_argument("manifest", help="manifest.json path, or a directory "
                   "containing one")
    p.add_argument("--recheck", type=int, default=0,
                   help="re-execute this many recorded programs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ImpSyntaxError as err:
        print(f"error[syntax]: {err}", file=sys.stderr)
        return EXIT_SYNTAX
    except PositionRangeError as err:
        print(f"error[range]: {err}", file=sys.stderr)
        return EXIT_RANGE
    except IntegrityError as err:
        print(f"error[integrity]: {err}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ValueError, ZeroDivisionError) as err:
        print(f"error[config]: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error[io]: {err.filename or ''} {err.strerror or err}".strip(),
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
