"""End-to-end CLI tests driven through main() with captured streams."""

import errno
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from impspace import cli, explorer
from impspace.cli import (
    EXIT_CONFIG, EXIT_INTEGRITY, EXIT_IO, EXIT_OK, EXIT_RANGE, EXIT_SYNTAX,
    main,
)
from impspace.enumeration import (
    cumulative_count, rank_base, rank_canonical, unrank_base,
    unrank_canonical,
)
from impspace.explorer import RunRecord
from impspace.lang import SKIP, TRUE, Not, While, program_length, render
from impspace.vm import classify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table(capsys):
    code, out, _ = run_cli(capsys, "count", "--max-length", "4")
    assert code == EXIT_OK
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert rows[0] == ["0", "0", "0"]
    assert rows[4] == ["4", "104", "108"]


def test_count_rejects_negative(capsys):
    code, _, err = run_cli(capsys, "count", "--max-length", "-2")
    assert code == EXIT_CONFIG
    assert "error[config]" in err


def test_unrank_and_rank_round_trip(capsys):
    code, out, _ = run_cli(capsys, "unrank", "123456")
    assert code == EXIT_OK
    program = out.strip()
    code, out, _ = run_cli(capsys, "rank", program)
    assert code == EXIT_OK
    assert out.strip() == "123456"


def test_unrank_base_scheme(capsys):
    code, out, _ = run_cli(capsys, "unrank", "0", "--base")
    assert code == EXIT_OK and out.strip() == "skip"
    code, out, _ = run_cli(capsys, "rank", "x[0] := 0", "--base")
    assert code == EXIT_OK and out.strip() == "1"


def test_run_worked_example(capsys):
    code, out, _ = run_cli(capsys, "run",
                           "(x[0] := 2; (x[1] := 1; x[2] := 3))")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"halted": True, "steps": 8, "output": "1000"}


def test_run_non_halting(capsys):
    code, out, _ = run_cli(capsys, "run", "(while true do skip)",
                           "--budget", "100")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["halted"] is False and payload["steps"] == 100


def test_syntax_error_exit(capsys):
    code, _, err = run_cli(capsys, "run", "x[01] := 0")
    assert code == EXIT_SYNTAX
    assert "error[syntax]" in err


def test_non_ascii_digit_is_a_syntax_error(capsys):
    for text in ("x[0] := ²", "x[٣] := 1"):
        for command in ("run", "rank"):
            code, _, err = run_cli(capsys, command, text)
            assert code == EXIT_SYNTAX, (command, text)
            assert "error[syntax]" in err


def test_deep_nesting_is_a_syntax_error(capsys):
    text = "(while " + "¬" * 3000 + "true do skip)"
    for command in ("run", "rank"):
        code, _, err = run_cli(capsys, command, text)
        assert code == EXIT_SYNTAX, command
        assert "error[syntax]: program nested too deeply" in err
        assert "Traceback" not in err


def test_rank_of_deeply_nested_program(capsys):
    # the parser reads 700 levels of nesting, whoever calls it; ranking
    # any text it accepts must not hit the recursion limit
    for base in ((), ("--base",)):
        ranks = []
        for depth in (450, 500, 600):
            text = "(while " + "¬" * depth + "true do skip)"
            code, out, err = run_cli(capsys, "rank", text, *base)
            assert "Traceback" not in err
            assert code == EXIT_OK, (depth, base)
            ranks.append(int(out))
        # one more negation lengthens the program or grows its payload
        assert ranks == sorted(ranks)
        text = "(while " + "¬" * 990 + "true do skip)"
        code, _, err = run_cli(capsys, "rank", text, *base)
        assert code == EXIT_SYNTAX, base
        assert "error[syntax]: program nested too deeply" in err
        assert "Traceback" not in err


def test_unrank_of_deeply_nested_program(capsys):
    # built directly, since 990 levels is past the parser's limit;
    # unranking must not depend on it at all
    for depth in (600, 990):
        cond = TRUE
        for _ in range(depth):
            cond = Not(cond)
        program = While(cond, SKIP)
        text = "(while " + "¬" * depth + "true do skip)"
        for rank, unrank, base in ((rank_canonical, unrank_canonical, ()),
                                   (rank_base, unrank_base, ("--base",))):
            position = rank(program)
            code, out, err = run_cli(capsys, "unrank", str(position), *base)
            assert "Traceback" not in err
            assert code == EXIT_OK, (depth, base)
            assert out == text + "\n", (depth, base)
            # render is one-to-one, and unlike == it compares a tree
            # this deep without recursing once per level
            assert render(unrank(position)) == text, (depth, base)
            assert rank(unrank(position)) == position, (depth, base)


def test_range_error_exit(capsys):
    code, _, err = run_cli(capsys, "unrank", "--", "-5")
    assert code == EXIT_RANGE
    assert "error[range]" in err


def test_sweep_stdout_census(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-length", "4")
    assert code == EXIT_OK
    rows = {line.split()[0]: line.split()[1:]
            for line in out.strip().splitlines()[1:]}
    assert rows["4"][:2] == ["103", "1"]
    assert rows["3"] == ["2", "1", "66.7", "33.3"]


def test_sweep_artifacts_and_audit(tmp_path, capsys):
    out_dir = tmp_path / "sweep5"
    code, _, _ = run_cli(capsys, "sweep", "--max-length", "5",
                         "--out", str(out_dir), "--records")
    assert code == EXIT_OK
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"census.json", "histograms.json", "complexity.csv",
                     "records.csv", "manifest.json"}
    census = json.loads((out_dir / "census.json").read_text())
    assert census["census"]["5"]["halted"] == 2_059
    assert census["total"] == 2_232
    records = (out_dir / "records.csv").read_text().strip().splitlines()
    assert records[0] == "position,length,halted,steps,output"
    assert len(records) == 2_233
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["tool"] == "impspace"
    assert set(manifest["files"]) == names - {"manifest.json"}

    code, out, _ = run_cli(capsys, "audit", str(out_dir / "manifest.json"),
                           "--recheck", "10")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mismatched"] == [] and report["missing"] == []
    assert report["rechecked"] == 10 and report["recheck_failures"] == 0


def test_audit_detects_tampering(tmp_path, capsys):
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--out", str(out_dir))
    target = out_dir / "census.json"
    target.write_text(target.read_text().replace("66.7", "67.6"))
    code, out, err = run_cli(capsys, "audit", str(out_dir / "manifest.json"))
    assert code == EXIT_INTEGRITY
    assert "error[integrity]" in err
    assert json.loads(out)["mismatched"] == ["census.json"]


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "sweep", "--max-length", "4", "--out", str(a), "--records")
    run_cli(capsys, "sweep", "--max-length", "4", "--out", str(b), "--records",
            "--workers", "3")
    for name in ("census.json", "complexity.csv", "records.csv",
                 "histograms.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_sweep_exact_budget_keeps_artifacts(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    code, _, _ = run_cli(capsys, "sweep", "--max-length", "5", "--records",
                         "--out", str(a))
    assert code == EXIT_OK

    def no_shortcut(*args, **kwargs):
        raise AssertionError("--exact-budget must not use loop detection")

    monkeypatch.setattr(explorer, "classify", no_shortcut)
    code, _, _ = run_cli(capsys, "sweep", "--max-length", "5", "--records",
                         "--exact-budget", "--out", str(b))
    assert code == EXIT_OK
    assert (a / "manifest.json").read_bytes() == \
        (b / "manifest.json").read_bytes()


def test_sample_artifacts_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        code, _, _ = run_cli(capsys, "sample", "--max-length", "5",
                             "--n", "50", "--seed", "42",
                             "--out", str(target))
        assert code == EXIT_OK
    for name in ("sample.csv", "sample.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    sidecar = json.loads((a / "sample.json").read_text())
    assert sidecar["n"] == 50 and sidecar["config"]["seed"] == 42


def test_sample_size_derived_from_params(capsys):
    code, out, err = run_cli(capsys, "sample", "--max-length", "4",
                             "--epsilon", "0.4", "--lambda", "0.3",
                             "--delta", "0.5")
    assert code == EXIT_OK
    assert "sample size" in err
    meta = json.loads(out)
    assert meta["n"] == 4  # ceil(ln 2 / 0.18)
    assert meta["params"]["lam"] == "3/10"


def test_sample_requires_n_or_params(capsys):
    code, _, err = run_cli(capsys, "sample", "--max-length", "4")
    assert code == EXIT_CONFIG
    assert "error[config]" in err
    # some of the three estimation parameters, but not all
    for given in (("--epsilon", "0.4"), ("--lambda", "0.3", "--delta", "0.5")):
        code, _, err = run_cli(capsys, "sample", "--max-length", "4", *given)
        assert code == EXIT_CONFIG, given
        assert "go together" in err, given


def test_ctm_output(capsys):
    code, out, _ = run_cli(capsys, "ctm", "--max-length", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == \
        "output,best_length,witness,producers,probability,complexity_bits"
    empty_row = lines[1].split(",")
    assert empty_row[0] == "" and empty_row[1] == "1" and empty_row[2] == "0"
    # at length 3 every halting program outputs the empty string
    code, out, _ = run_cli(capsys, "ctm", "--max-length", "3")
    assert code == EXIT_OK
    assert out.strip().splitlines()[1:] == [",1,0,3,1/1,0.000000"]


def test_family_json(capsys):
    code, out, _ = run_cli(capsys, "family", "pows2", "--n", "3", "--run")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["length"] == 25
    assert payload["output"] == "00100"
    assert payload["halted"] is True


def test_family_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["family", "cubes", "--n", "3"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "impspace" in capsys.readouterr().out


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("IMP_SPACE_WORKERS", "3")
    from impspace.cli import _build_parser
    args = _build_parser().parse_args(["sweep", "--max-length", "3"])
    assert args.workers == 3
    for junk in ("junk", "²"):
        monkeypatch.setenv("IMP_SPACE_WORKERS", junk)
        args = _build_parser().parse_args(["sweep", "--max-length", "3"])
        assert args.workers == 1


def test_sweep_records_needs_out(capsys):
    code, out, err = run_cli(capsys, "sweep", "--max-length", "3", "--records")
    assert code == EXIT_CONFIG
    assert "error[config]: --records needs --out" in err
    assert out == ""


def test_audit_rejects_incomplete_manifest(tmp_path, capsys):
    for text in ("{}", "[]"):
        (tmp_path / "manifest.json").write_text(text)
        code, _, err = run_cli(capsys, "audit", str(tmp_path))
        assert code == EXIT_INTEGRITY
        assert "error[integrity]: manifest has no files" in err
    (tmp_path / "a.txt").write_text("a")
    for info in ("{}", "1"):
        (tmp_path / "manifest.json").write_text(
            '{"files": {"a.txt": %s}}' % info)
        code, out, _ = run_cli(capsys, "audit", str(tmp_path))
        assert code == EXIT_INTEGRITY
        assert json.loads(out)["mismatched"] == ["a.txt"]

    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    del manifest["config"]["budget"]
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    code, _, _ = run_cli(capsys, "audit", str(out_dir))
    assert code == EXIT_OK
    code, _, err = run_cli(capsys, "audit", str(out_dir), "--recheck", "3")
    assert code == EXIT_INTEGRITY
    assert "error[integrity]: manifest has no config.budget" in err
    manifest["config"]["budget"] = 10_000
    for max_length in (None, 0, "3", 3.0, True):
        manifest["config"]["max_length"] = max_length
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run_cli(capsys, "audit", str(out_dir), "--recheck", "3")
        assert code == EXIT_INTEGRITY, max_length
        assert "error[integrity]: manifest has no config.max_length" in err


def test_audit_reads_only_files_beside_the_manifest(tmp_path, capsys,
                                                    monkeypatch):
    secret = tmp_path / "secret"
    secret.write_text("not an artifact")
    digest = hashlib.sha256(secret.read_bytes()).hexdigest()
    out_dir = tmp_path / "d"
    out_dir.mkdir()
    (out_dir / "a.txt").write_text("a")
    outside = ["../secret", str(secret), "", ".", "..", "sub/a.txt",
               "..\\secret"]
    files = {name: {"sha256": digest} for name in outside}
    files["a.txt"] = {"sha256": hashlib.sha256(b"a").hexdigest()}
    (out_dir / "manifest.json").write_text(json.dumps({"files": files}))
    opened = []
    hash_file = cli._sha256_file
    monkeypatch.setattr(cli, "_sha256_file",
                        lambda path: opened.append(path) or hash_file(path))
    code, out, err = run_cli(capsys, "audit", str(out_dir))
    assert code == EXIT_INTEGRITY
    assert "error[integrity]" in err
    report = json.loads(out)
    assert report == {"verified": 1, "mismatched": outside, "missing": []}
    assert opened == [out_dir / "a.txt"]


def test_audit_counts_malformed_rows_as_recheck_failures(tmp_path, capsys):
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    (out_dir / "records.csv").write_bytes(
        b"position,length,halted,steps,output\n"
        b"x,1,true,1,\n"        # position is not a number
        b"-1,1,true,1,\n"       # position out of range
        b"0,1,true,many,\n"     # steps is not a number
        b"0,1\n"                # fields missing
        b"0,1,true,1,\xff\n")    # not UTF-8
    code, out, err = run_cli(capsys, "audit", str(out_dir), "--recheck", "10")
    assert code == EXIT_INTEGRITY
    assert "error[integrity]" in err
    report = json.loads(out)
    assert report["mismatched"] == ["records.csv"]
    assert report["rechecked"] == 5 and report["recheck_failures"] == 5


def test_audit_recheck_checks_the_length(tmp_path, capsys):
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    path = out_dir / "records.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    # a wrong length and a non-numeric one in every row, each with the
    # manifest re-signed, so only the recheck can tell
    for length in ("9", "one"):
        data = (header + "".join(
            re.sub(r"^(\d+),\d+,", rf"\1,{length},", row) for row in rows)
        ).encode()
        path.write_bytes(data)
        manifest["files"]["records.csv"] = {
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, "audit", str(out_dir),
                                 "--recheck", "50")
        assert code == EXIT_INTEGRITY, length
        assert "error[integrity]" in err
        report = json.loads(out)
        assert report["mismatched"] == [], length
        assert report["rechecked"] == 4 and report["recheck_failures"] == 4


def test_audit_recheck_reads_fields_of_any_length(tmp_path, capsys):
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    path = out_dir / "records.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n") + "0" * 200_000 + "\n"
    path.write_text("".join(lines))
    code, out, err = run_cli(capsys, "audit", str(out_dir), "--recheck", "3")
    assert code == EXIT_INTEGRITY
    assert "error[integrity]" in err
    report = json.loads(out)
    assert report["mismatched"] == ["records.csv"]
    assert report["rechecked"] == 3


def test_audit_recheck_fails_positions_past_the_space(tmp_path, capsys,
                                                     monkeypatch):
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    path = out_dir / "records.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    space = cumulative_count(3)
    assert len(rows) == space == 4
    # a 1,000-digit position, and the first few past the space
    past = [10 ** 999, space, space + 1, space + 2]
    path.write_text(header + "".join(f"{position}{row[row.index(','):]}"
                                     for position, row in zip(past, rows)))
    _sign(out_dir, "records.csv")
    unrank = cli.unrank_canonical

    def bounded(position):
        assert position < space, "unranked a position past the space"
        return unrank(position)

    monkeypatch.setattr(cli, "unrank_canonical", bounded)
    code, out, err = run_cli(capsys, "audit", str(out_dir), "--recheck", "50")
    assert code == EXIT_INTEGRITY
    assert "error[integrity]" in err
    report = json.loads(out)
    assert report["mismatched"] == [] and report["missing"] == []
    assert report["rechecked"] == 4 and report["recheck_failures"] == 4


def test_audit_recheck_rejects_a_length_past_the_rows(tmp_path, capsys,
                                                     monkeypatch):
    # no digest covers manifest.json, so an edited max_length must not
    # make the recheck build the offsets of that length
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    count = cli.cumulative_count

    def bounded(length):
        assert length <= 3, f"counted programs up to length {length}"
        return count(length)

    monkeypatch.setattr(cli, "cumulative_count", bounded)

    def audit(max_length):
        manifest["config"]["max_length"] = max_length
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
        return run_cli(capsys, "audit", str(out_dir), "--recheck", "2")

    for max_length in (400, 10 ** 6):
        code, _, err = audit(max_length)
        assert code == EXIT_INTEGRITY, max_length
        assert "error[integrity]" in err
    assert audit(3)[0] == EXIT_OK


def test_audit_rejects_negative_recheck(tmp_path, capsys):
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    code, out, err = run_cli(capsys, "audit", str(out_dir), "--recheck", "-3")
    assert code == EXIT_CONFIG
    assert "error[config]: --recheck must be nonnegative" in err
    assert out == ""


def test_audit_rejects_unparsable_manifest(tmp_path, capsys):
    for data in (b"{not json", b"", b"\xff\xfe{}", b"[" * 100_000):
        (tmp_path / "manifest.json").write_bytes(data)
        for extra in ((), ("--recheck", "3")):
            code, out, err = run_cli(capsys, "audit", str(tmp_path), *extra)
            assert code == EXIT_INTEGRITY, (data, extra)
            assert "error[integrity]: manifest is not valid JSON" in err
            assert out == ""


def _sign(out_dir, name):
    """Record a file's current digest and size in the manifest."""
    data = (out_dir / name).read_bytes()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest["files"][name] = {
        "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def test_audit_recheck_draws_are_pinned(tmp_path, capsys):
    # one row in three is wrong, so the failure count pins which rows
    # the seeded draws fetch, whatever the line ends
    out_dir = tmp_path / "sweep5"
    code, _, _ = run_cli(capsys, "sweep", "--max-length", "5", "--records",
                         "--out", str(out_dir))
    assert code == EXIT_OK
    header, *rows = (out_dir / "records.csv").read_text().splitlines()
    for index in range(0, len(rows), 3):
        fields = rows[index].split(",")
        fields[3] = str(int(fields[3]) + 1)
        rows[index] = ",".join(fields)
    for text in ("\n".join([header, *rows]) + "\n",
                 "\r\n".join([header, *rows]) + "\r\n",
                 "\n".join([header, *rows])):
        (out_dir / "records.csv").write_bytes(text.encode())
        _sign(out_dir, "records.csv")
        code, out, err = run_cli(capsys, "audit", str(out_dir),
                                 "--recheck", "40", "--seed", "9")
        assert code == EXIT_INTEGRITY, repr(text[-2:])
        assert "error[integrity]" in err
        report = json.loads(out)
        assert report["mismatched"] == [] and report["missing"] == []
        assert report["rechecked"] == 40
        assert report["recheck_failures"] == 17, repr(text[-2:])


def test_audit_recheck_passes_only_rows_as_the_sweep_writes_them(
        tmp_path, capsys):
    # each row names a program by its position and says what it does, but
    # spelt as the sweep never writes it: a leading zero, a sign, a space,
    # a capitalised flag, a non-ASCII digit, an underscore.  Four copies
    # of one row make every draw fetch it; the row as written passes
    out_dir = tmp_path / "sweep3"
    run_cli(capsys, "sweep", "--max-length", "3", "--records",
            "--out", str(out_dir))
    header = (out_dir / "records.csv").read_text().splitlines()[0]
    for row, failures in (("00,+1,true,0,", 4), ("01,+3,true, 1,", 4),
                          ("02,+3,FALSE,10000,", 4), ("1,3,true,١,", 4),
                          ("2,3,false,1_0000,", 4), ("1,3,true,1,", 0)):
        (out_dir / "records.csv").write_text(
            "".join(f"{line}\n" for line in [header] + [row] * 4))
        _sign(out_dir, "records.csv")
        code, out, err = run_cli(capsys, "audit", str(out_dir),
                                 "--recheck", "4")
        assert code == (EXIT_INTEGRITY if failures else EXIT_OK), row
        report = json.loads(out)
        assert report["mismatched"] == [] and report["missing"] == []
        assert report["rechecked"] == 4, row
        assert report["recheck_failures"] == failures, row


def _csv(rows):
    return "".join(f"{position},{length},{'true' if halted else 'false'},"
                   f"{steps},{output}\n"
                   for position, length, halted, steps, output in rows)


def _observe_records(monkeypatch, observe):
    """Make the CLI's sweep pass each chunk's text to ``observe`` just
    before its own records sink gets it."""
    summary = explorer.sweep_summary

    def observed_summary(*args, records=None, **kwargs):
        def sink(text):
            observe(text)
            records(text)
        return summary(*args, records=sink if records else None, **kwargs)

    monkeypatch.setattr(cli, "sweep_summary", observed_summary)


def test_sweep_records_reach_the_disk_chunk_by_chunk(tmp_path, capsys,
                                                     monkeypatch):
    for workers in ("1", "2"):
        out_dir = tmp_path / workers
        part = out_dir / "records.csv.part"
        written = ["position,length,halted,steps,output\n"]

        def observe(text):
            assert part.read_text() == "".join(written)
            written.append(text)

        _observe_records(monkeypatch, observe)
        code, _, _ = run_cli(capsys, "sweep", "--max-length", "6",
                             "--records", "--workers", workers,
                             "--out", str(out_dir))
        assert code == EXIT_OK
        assert len(written) > 5, workers  # the sweep spans several chunks
        assert not part.exists()
        assert (out_dir / "records.csv").read_text() == "".join(written)


def test_failed_sweep_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    for flag in ("--max-length", "--budget", "--workers"):  # the last wins
        code, _, err = run_cli(capsys, "sweep", "--max-length", "2", flag,
                               "0", "--records", "--out", str(out_dir))
        assert code == EXIT_CONFIG, flag
        assert "error[config]" in err
        assert "sweeping" not in err, flag
        assert not out_dir.exists()
    code, _, err = run_cli(capsys, "ctm", "--max-length", "0")
    assert code == EXIT_CONFIG
    assert "error[config]: max_length must be at least 1" in err

    code, _, _ = run_cli(capsys, "sweep", "--max-length", "4", "--records",
                         "--out", str(out_dir))
    assert code == EXIT_OK
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    chunks = []

    def disk_full(text):
        chunks.append(text)
        if len(chunks) == 2:
            raise OSError("No space left on device")

    _observe_records(monkeypatch, disk_full)
    code, _, err = run_cli(capsys, "sweep", "--max-length", "5", "--records",
                           "--out", str(out_dir))
    assert code == EXIT_IO
    assert "error[io]: No space left on device" in err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_failed_sweep_removes_only_the_directories_it_made(tmp_path, capsys,
                                                          monkeypatch):
    def disk_full(text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def sweep_into(out_dir):  # two workers: the pool stops early too
        code, _, err = run_cli(capsys, "sweep", "--max-length", "4",
                               "--records", "--workers", "2",
                               "--out", str(out_dir))
        assert code == EXIT_IO
        assert "error[io]: No space left on device" in err

    # a name too long fails the mkdir itself, after "d" was made for it
    code, _, err = run_cli(capsys, "sweep", "--max-length", "4", "--out",
                           str(tmp_path / "d" / ("n" * 300)))
    assert code == EXIT_IO and "error[io]" in err
    assert list(tmp_path.iterdir()) == []

    _observe_records(monkeypatch, disk_full)
    sweep_into(tmp_path / "d" / "a" / "b")  # three fresh directories
    assert list(tmp_path.iterdir()) == []

    kept = tmp_path / "kept"  # was there before: stays, empty
    kept.mkdir()
    for out_dir in (kept, kept / "x" / "y"):
        sweep_into(out_dir)
        assert list(tmp_path.iterdir()) == [kept]
        assert list(kept.iterdir()) == [], out_dir

    def foreign_file(text):  # another writer fills a fresh parent meanwhile
        (tmp_path / "d" / "a" / "theirs").write_text("")
        disk_full(text)

    _observe_records(monkeypatch, foreign_file)
    sweep_into(tmp_path / "d" / "a" / "b")
    assert list((tmp_path / "d" / "a").iterdir()) == \
        [tmp_path / "d" / "a" / "theirs"]


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(explorer, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(explorer, name, counted)
    return calls


def test_sweep_records_runs_each_program_once(tmp_path, capsys, monkeypatch):
    # the 6 + 2 Seq and If programs of length 5 and the 1 + 1 + 2 of
    # lengths 1-4 run one at a time; the x[i] := A blocks' 1,900 + 100
    # programs take their rows from the 110 + 10 A trees they pair with a
    # register, each run once, and the 216 + 4 while loops of lengths 3-5
    # are decided by their guards.  A second pass over the space would
    # make at least 2,232 calls
    def sweep(out, *extra):
        return run_cli(capsys, "sweep", "--max-length", "5", "--records",
                       *extra, "--workers", "1", "--out", str(tmp_path / out))

    # an unwrapped sweep leaves the length-5 columns cached, whatever ran
    # before; a wrapper asking for them next must build its own.  A sweep
    # asks for lengths 1-4 first, so the length-5 task alone shows it
    code, _, _ = sweep("unwrapped")
    assert code == EXIT_OK
    calls = _count_calls(monkeypatch, "classify")
    explorer._record_task(explorer._plan(5, 10_000, 1, False)[-1])
    assert len(calls) == 6 + 2 + 110

    calls.clear()
    code, _, _ = sweep("a")
    assert code == EXIT_OK
    assert len(calls) == 132 < 2_232

    calls.clear()
    exact_calls = _count_calls(monkeypatch, "run")
    code, _, _ = sweep("b", "--exact-budget")
    assert code == EXIT_OK
    assert len(exact_calls) == 2_232 and not calls


def test_sweep_records_match_library_stream(tmp_path, capsys):
    # rows built one program at a time, apart from the sweep's tasks and
    # their rendering, which the CLI and sweep() share
    rows = []
    for position in range(cumulative_count(5)):
        program = unrank_canonical(position)
        result = classify(program, 10_000)
        rows.append((position, program_length(program), result.halted,
                     result.steps, result.output))
    for workers in (1, 2):
        assert list(explorer.sweep(5, 10_000, workers)) == \
            [RunRecord(*row) for row in rows], workers
    want = "position,length,halted,steps,output\n" + _csv(rows)
    for workers in ("1", "2"):
        out_dir = tmp_path / workers
        code, _, _ = run_cli(capsys, "sweep", "--max-length", "5",
                             "--records", "--workers", workers,
                             "--out", str(out_dir))
        assert code == EXIT_OK
        assert (out_dir / "records.csv").read_text() == want, workers


def test_sweep_and_ctm_report_rate_on_stderr(tmp_path, capsys):
    for argv in (("sweep", "--max-length", "4"),
                 ("sweep", "--max-length", "4", "--records",
                  "--out", str(tmp_path / "s")),
                 ("ctm", "--max-length", "4"),
                 ("ctm", "--max-length", "4", "--out", str(tmp_path / "c"))):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        last = err.strip().splitlines()[-1]
        assert re.fullmatch(r"swept 108 programs in \d+\.\d\d s "
                            r"\(\d+ programs/s\)", last), last
        assert "swept" not in out
    for name in ("s", "c"):
        for path in (tmp_path / name).iterdir():
            assert "programs/s" not in path.read_text(), path


# SHA-256 of every artifact, measured once from the code before the
# summary fold, the sampler's pool and the unranker were unified; any
# change to the bytes an artifact holds shows here.
PINNED_DIGESTS = {
    ("sweep", "--max-length", "5", "--records"): {
        "census.json": "2d7658b5fd7c3b08d0bd489b2a96aa0b"
                       "724d6779c0bb99d54628827f9097256d",
        "complexity.csv": "22be3db3ee842a41ee7eed8d933202b8"
                          "e15bb5f081e3ee6e1ce30c06c2282bd3",
        "histograms.json": "6c07176a40a3bbf0e18c123b9183f32f"
                           "d73e0db073c1d88b58cb6118035a2ab9",
        "records.csv": "c19303b487f1ec4ac5062934d45f4b16"
                       "208348d05e3b9aa14aa6c2ea80d7afff",
    },
    ("sweep", "--max-length", "5", "--format", "json", "--workers", "2"): {
        "census.json": "9f4604e222fe5b15180189a8e390ea0f"
                       "fef1089535950957d8c2a48092d59393",
        "complexity.json": "0898275ebdc51fcd8a40cc54173b77bc"
                           "e3b2be69198f94ee5bed48ec927d61d2",
        "histograms.json": "10786da70255d6d644bae1c7cedbf68c"
                           "68b005dd82d68412c0324700b00c9624",
    },
    # length 6 spans several sweep tasks, so this pin crosses task
    # boundaries, with the tasks split over two pool workers
    ("sweep", "--max-length", "6", "--records", "--workers", "2"): {
        "census.json": "4c3711e99b15a835adef0b6de474a28a"
                       "de02c4302c997e1fff27411ab1f2ba3b",
        "complexity.csv": "134337123ff4bc03083d8f137388d504"
                          "3dc8a6258c3f6c8759928c51feb44293",
        "histograms.json": "6514a8506e24d35616d14145d81a3ead"
                           "65c72ef3fe7353b95f88778fe637fb2b",
        "records.csv": "4f9eb5eefee0fe304e06793877e1a8e1"
                       "d50b13af75c8a04466d24d6ec67cffb8",
    },
    ("ctm", "--max-length", "5"): {
        "ctm.csv": "c6cfd91282c8177ae1a6c46ae87cbd6b"
                   "2facf86b30c7497ad5f6fbb4a6a63324",
        "ctm.json": "11958a50c83a941cb76d1cd602aea114"
                    "f4be89ff10e250f3c19428bde7db3a39",
    },
    ("sample", "--max-length", "7", "--n", "200", "--seed", "3",
     "--workers", "2"): {
        "sample.csv": "4b86f2b26d1e98b89c17b551516ad89e"
                      "6f02f348c45f182254fef40994861c23",
        "sample.json": "4e1bac3395ccd7ea43ed74d9a7dd5939"
                       "159a6173dfab648817dfa47931419d9f",
    },
}


def test_artifact_digests_are_pinned(tmp_path, capsys):
    for i, (argv, want) in enumerate(PINNED_DIGESTS.items()):
        out_dir = tmp_path / str(i)
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == EXIT_OK, argv
        files = json.loads((out_dir / "manifest.json").read_text())["files"]
        assert {name: info["sha256"] for name, info in files.items()} == \
            want, argv


def test_manifest_lists_exactly_the_written_files(tmp_path, capsys):
    for i, argv in enumerate(PINNED_DIGESTS):
        out_dir = tmp_path / str(i)
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == EXIT_OK, argv
        files = json.loads((out_dir / "manifest.json").read_text())["files"]
        assert {p.name for p in out_dir.iterdir()} == \
            {*files, "manifest.json"}, argv
        for name, info in files.items():
            assert info["bytes"] == (out_dir / name).stat().st_size, name


def readme_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ impspace ...`` line of the README's code blocks with the
    lines shown under it, up to the next ``$`` line or the block's end.

    Blocks that elide output with ``...`` and commands that touch
    ``runs/`` (files earlier examples would have written) are left out."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks, block = [], None
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append(block)
            block = [] if block is None else None
        elif block is not None:
            block.append(line)
    examples = []
    for block in blocks:
        if any("..." in line for line in block):
            continue
        shown = None  # the output lines of the example being read
        for line in block:
            if line.startswith("$ "):
                shown = None
                if line.startswith("$ impspace ") and "runs/" not in line:
                    shown = []
                    examples.append((line[2:], shown))
            elif shown is not None:
                shown.append(line)
    return examples


def test_readme_cli_examples(capsys):
    examples = readme_examples()
    assert [shlex.split(c)[1] for c, _ in examples] == \
        ["count", "unrank", "rank", "rank", "run", "ctm", "family"]
    for command, shown in examples:
        command, _, head = command.partition(" | head -")
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert code == EXIT_OK, command
        lines = out.splitlines()
        assert (lines[:int(head)] if head else lines) == shown, command
