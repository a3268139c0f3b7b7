"""End-to-end CLI tests driven through main() with captured streams."""

import json

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
    monkeypatch.setenv("IMP_SPACE_WORKERS", "junk")
    args = _build_parser().parse_args(["sweep", "--max-length", "3"])
    assert args.workers == 1
