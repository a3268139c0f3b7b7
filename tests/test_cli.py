"""End-to-end CLI tests driven through main() with captured streams."""

import json
import re

import pytest

from impspace import explorer
from impspace.cli import (
    EXIT_CONFIG, EXIT_INTEGRITY, EXIT_OK, EXIT_RANGE, EXIT_SYNTAX, main,
)


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


def test_audit_rejects_unparsable_manifest(tmp_path, capsys):
    for data in (b"{not json", b"", b"\xff\xfe{}", b"[" * 100_000):
        (tmp_path / "manifest.json").write_bytes(data)
        for extra in ((), ("--recheck", "3")):
            code, out, err = run_cli(capsys, "audit", str(tmp_path), *extra)
            assert code == EXIT_INTEGRITY, (data, extra)
            assert "error[integrity]: manifest is not valid JSON" in err
            assert out == ""


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(explorer, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(explorer, name, counted)
    return calls


def test_sweep_records_runs_each_program_once(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "classify")
    code, _, _ = run_cli(capsys, "sweep", "--max-length", "5", "--records",
                         "--workers", "1", "--out", str(tmp_path / "a"))
    assert code == EXIT_OK
    assert len(calls) == 2_232

    calls.clear()
    exact_calls = _count_calls(monkeypatch, "run")
    code, _, _ = run_cli(capsys, "sweep", "--max-length", "5", "--records",
                         "--exact-budget", "--workers", "1",
                         "--out", str(tmp_path / "b"))
    assert code == EXIT_OK
    assert len(exact_calls) == 2_232 and not calls


def test_sweep_records_match_library_stream(tmp_path, capsys):
    want = "position,length,halted,steps,output\n" + "".join(
        f"{r.position},{r.length},{'true' if r.halted else 'false'},"
        f"{r.steps},{r.output}\n" for r in explorer.sweep(5, 10_000))
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
