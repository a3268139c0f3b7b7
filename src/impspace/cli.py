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
import hashlib
import json
import os
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from . import __version__
from .enumeration import (
    PositionRangeError, count_programs, cumulative_count, rank_base,
    rank_canonical, unrank_base, unrank_canonical,
)
from .explorer import (
    FAMILIES, SweepSummary, algorithmic_probability, family_program,
    sweep_summary,
)
# unused here, but perfbench/tracer.py wraps ``impspace.cli.sweep``
from .explorer import sweep  # noqa: F401
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


@contextmanager
def _write_artifacts(out_dir: Path, config: dict,
                     command: str) -> Iterator[Callable[[str, str], None]]:
    """The one write path of artifacts: yields ``write(name, text)``.

    Each call appends ``text`` to ``<name>.part`` in ``out_dir``: the
    piece is encoded, written through to the file (so a pool forked
    meanwhile inherits no buffered bytes) and fed to the file's running
    SHA-256, so a file written in pieces is never held whole in memory.
    When the block ends, every file is renamed into place and
    ``manifest.json``, with each file's digest and size, is written the
    same way and renamed last.  If the block raises, the ``.part`` files
    are removed, then each directory this call created, if empty, and the
    artifacts of an earlier run stay as they were.
    """
    # deepest first, so that each one is empty when its turn comes
    fresh = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    parts: dict[str, tuple] = {}  # name -> (open .part file, sha256)

    def write(name: str, text: str) -> None:
        if name not in parts:
            parts[name] = (open(out_dir / f"{name}.part", "wb"),
                           hashlib.sha256())
        fh, digest = parts[name]
        data = text.encode()
        fh.write(data)
        fh.flush()
        digest.update(data)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield write
        files = {name: {"sha256": digest.hexdigest(), "bytes": fh.tell()}
                 for name, (fh, digest) in parts.items()}
        write("manifest.json", _dump_json({
            "tool": "impspace",
            "version": __version__,
            "command": command,
            "config": config,
            "files": files,
        }))
        for name, (fh, _) in parts.items():  # the manifest comes last
            fh.close()
            os.replace(out_dir / f"{name}.part", out_dir / name)
        fresh = []  # the artifacts are in place: every directory stays
    finally:
        for name, (fh, _) in parts.items():
            fh.close()
            (out_dir / f"{name}.part").unlink(missing_ok=True)
        for directory in fresh:
            with suppress(OSError):  # not empty, or never made: left as is
                directory.rmdir()


def _sha256_file(path: Path) -> str:
    """SHA-256 of a file, read in fixed-size blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


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
    with _write_artifacts(Path(args.out), config, "sample") as write:
        write("sample.csv", sample_to_csv(sample))
        write("sample.json", _dump_json({"config": config, **meta}))
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
    if args.out is None:
        summary = sweep_summary(args.max_length, args.budget, args.workers,
                                exact_budget=args.exact_budget)
        rows = [f"{'length':>6} {'halted':>12} {'not_halted':>12} "
                f"{'halted%':>8} {'not_halted%':>12}"]
        for length, row in summary.census.items():
            rows.append(f"{length:>6} {row.halted:>12} {row.not_halted:>12} "
                        f"{row.halted_pct:>8} {row.not_halted_pct:>12}")
        _emit("\n".join(rows))
        _swept(summary.total, started)
        return EXIT_OK
    with _write_artifacts(Path(args.out), config, "sweep") as write:
        record_chunk = None
        if args.records:
            # each chunk's lines, rendered in the worker, go to
            # records.csv.part as the chunk arrives, so the parent holds
            # one chunk of records at a time
            write("records.csv", "position,length,halted,steps,output\n")
            record_chunk = partial(write, "records.csv")
        summary = sweep_summary(args.max_length, args.budget, args.workers,
                                exact_budget=args.exact_budget,
                                records=record_chunk)
        write("census.json", _census_json(summary, config))
        write("histograms.json", _histograms_json(summary, config))
        if args.format == "json":
            write("complexity.json", _complexity_json(summary, config))
        else:
            write("complexity.csv", _complexity_csv(summary))
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
        with _write_artifacts(Path(args.out), config, "ctm") as write:
            write("ctm.csv", body)
            write("ctm.json", _dump_json({
                "config": config,
                "total_halting": total,
                "distinct_outputs": len(summary.complexity)}))
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
    if args.recheck < 0:
        raise ValueError("--recheck must be nonnegative")
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
        # an artifact is a plain file beside the manifest; any other name
        # would read outside the directory, so it counts unopened
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            mismatched.append(name)
            continue
        path = base / name
        if not path.exists():
            missing.append(name)
            continue
        digest = _sha256_file(path)
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
        if not isinstance(config, dict):
            config = {}
        budget, max_length = config.get("budget"), config.get("max_length")
        if type(budget) is not int or budget < 1:
            raise IntegrityError(
                "manifest has no config.budget (a positive integer)")
        if type(max_length) is not int or max_length < 1:
            raise IntegrityError(
                "manifest has no config.max_length (a positive integer)")
        # the fields are unquoted digits, true/false and bits, so a plain
        # split parses a row of any length.  The file streams twice, line
        # by line as readlines() would split it: once to count the rows
        # after the header, once to fetch the drawn ones
        path = base / "records.csv"
        with open(path, errors="replace") as fh:
            count = max(sum(1 for _ in fh) - 1, 0)
        # no digest covers the config: believe its length only as far as
        # the rows reach, as the offsets of a length in the thousands would
        # exhaust memory.  A row outside that space fails as it stands, as
        # unranking a position of thousands of digits would take minutes
        reach = 1
        while cumulative_count(reach) < count:
            reach += 1
        if max_length > reach:
            raise IntegrityError(f"config.max_length {max_length} is past "
                                 f"length {reach}, which the rows reach")
        space = cumulative_count(max_length)
        rng = SplitMix64(args.seed)
        draws = [rng.randbelow(count)
                 for _ in range(min(args.recheck, count))]
        wanted, rows = set(draws), {}
        with open(path, errors="replace") as fh:
            for index, line in enumerate(fh, -1):  # the header is -1
                if len(rows) == len(wanted):
                    break
                if index in wanted:
                    rows[index] = line
        for index in draws:
            # a row gone since the count cannot match any run
            row = rows.get(index, "").rstrip("\n").split(",")
            rechecked += 1
            try:
                position, length, halted, steps, output = row
                position = int(position)
                expect = (int(length), halted == "true", int(steps), output)
            except ValueError:
                # a malformed row (wrong field count, bad number) cannot
                # match any run
                failures += 1
                continue
            if not 0 <= position < space:
                failures += 1
                continue
            program = unrank_canonical(position)
            result = classify(program, budget)
            if (program_length(program), result.halted, result.steps,
                    result.output) != expect:
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
        where = f"{err.filename} " if err.filename else ""
        print(f"error[io]: {where}{err.strerror or err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
