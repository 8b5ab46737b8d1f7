"""Verification driver and command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crgeo
import crgeo.verify
from crgeo.cli import main
from crgeo.errors import UsageError
from crgeo.metric import MetricField
from crgeo.verify import SuiteConfig, render_report, run_suite

STRIP_TIMESTAMP = re.compile(r'^\s*"generated_at".*$', re.MULTILINE)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_contains_catalog_rows(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for row in ("flat", "fubini_study", "complex_hyperbolic"):
        assert row in out


def test_list_machine_output(capsys):
    code, out, _ = run_cli(capsys, "list", "--machine")
    assert code == 0
    doc = json.loads(out)
    names = [row["example"] for row in doc["catalog"]]
    assert {"flat", "fubini_study", "complex_hyperbolic"} <= set(names)
    scal_by_name = {row["example"]: row["scal_h"] for row in doc["catalog"]}
    assert scal_by_name["complex_hyperbolic"].startswith("-")


def test_run_single_suite_passes(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--example", "flat", "--m", "1",
        "--suite", "webster", "--points", "6", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names))  # each check appears exactly once
    assert all(c["pass"] for c in doc["checks"])
    assert "anchor" in doc["checks"][0]


def test_rescale_suite_reports_einstein_constant(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--example", "fubini_study", "--m", "1",
        "--suite", "rescale", "--points", "8",
    )
    assert code == 0
    doc = json.loads(out)
    row = next(c for c in doc["checks"] if c["name"] == "rescaled_einstein")
    assert row["value"] == pytest.approx(0.75)


def test_exit_code_one_on_failed_check(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--example", "flat", "--m", "1",
        "--suite", "webster", "--points", "4", "--tol", "webster_einstein=1e-30",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["overall_pass"] is False
    row = next(c for c in doc["checks"] if c["name"] == "webster_einstein")
    assert row["pass"] is False


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "run", "--example", "nope", "--m", "1")[0] == 2
    assert run_cli(capsys, "run", "--example", "flat", "--m", "1", "--points", "0")[0] == 2
    assert run_cli(capsys, "run", "--example", "flat", "--m", "1", "--suite", "bogus")[0] == 2
    assert run_cli(capsys, "run", "--example", "flat", "--m", "1", "--tol", "nope=1")[0] == 2
    assert run_cli(capsys, "run", "--example", "flat", "--m", "1", "--tol", "webster_einstein")[0] == 2
    assert run_cli(capsys, "run", "--example", "flat", "--m", "1", "--seed", "-1")[0] == 2
    # an m no catalog entry supports: argparse rejects it, and so does the config
    with pytest.raises(SystemExit) as exc:
        main(["run", "--example", "all", "--m", "3"])
    assert exc.value.code == 2
    with pytest.raises(UsageError):
        SuiteConfig(example="flat", m=3).validate()
    # suites that select no check, and a tolerance that no residual can be compared with
    assert run_cli(capsys, "run", "--example", "flat", "--m", "1", "--suite", ",")[0] == 2
    assert run_cli(capsys, "run", "--example", "flat", "--m", "1", "--suite", "negative")[0] == 2
    assert run_cli(
        capsys, "run", "--example", "all", "--m", "1", "--suite", "negative", "--points", "2"
    )[0] == 2
    assert run_cli(
        capsys, "run", "--example", "flat", "--m", "1", "--tol", "webster_einstein=nan"
    )[0] == 2
    # an --out file in a missing directory is rejected before any check runs
    code, out, err = run_cli(
        capsys, "run", "--example", "flat", "--m", "1", "--suite", "webster", "--points", "2",
        "--out", os.path.join(os.path.dirname(__file__), "missing", "r.json"),
    )
    assert (code, out) == (2, "") and err.startswith("error:")


def test_points_must_be_positive():
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(example="fubini_study", m=1, points=0))


def test_negative_entry_requires_all_suite():
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(example="perturbed_non_tsph", m=1, suites=("webster",), points=4))


def test_deterministic_output(capsys):
    args = ("run", "--example", "flat", "--m", "1", "--suite", "comparison", "--points", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert STRIP_TIMESTAMP.sub("", out1) == STRIP_TIMESTAMP.sub("", out2)


def test_float_serialization_17_digits():
    report = {"x": 1.0 / 3.0, "nested": [2.0**-40], "flag": True}
    text = render_report(report)
    assert "0.33333333333333331" in text
    assert "9.0949470177292824e-13" in text
    assert "true" in text


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", "--example", "flat", "--m", "1",
        "--suite", "webster", "--points", "4", "--out", str(target),
    )
    assert code == 0
    assert target.read_text() == out


def test_console_script_entry():
    # the child imports the same crgeo as this session, installed or not
    src = str(Path(crgeo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "crgeo", "list"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "fubini_study" in proc.stdout


def test_run_all_structure(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--example", "all", "--m", "1",
        "--suite", "webster,comparison", "--points", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["example"] == "all"
    assert {r["example"] for r in doc["runs"]} == {
        "flat", "fubini_study", "complex_hyperbolic",
    }
    assert doc["overall_pass"] is True


def error_rows(capsys, *argv):
    code, out, _ = run_cli(capsys, "run", "--example", "flat", "--m", "1", "--points", "2", *argv)
    doc = json.loads(out)
    return code, doc, {c["name"]: c for c in doc["checks"] if "error" in c}


def test_missing_residual_is_a_failed_row(capsys, monkeypatch):
    original = crgeo.verify.comparison_identities_residual

    def without_sectional(ws):
        rec = original(ws)
        del rec["reeb_sectional"]
        return rec

    monkeypatch.setattr(crgeo.verify, "comparison_identities_residual", without_sectional)
    code, doc, errors = error_rows(capsys, "--suite", "comparison")
    assert code == 1 and doc["overall_pass"] is False
    assert list(errors) == ["reeb_sectional"]
    assert errors["reeb_sectional"]["pass"] is False
    assert "reeb_sectional" in errors["reeb_sectional"]["error"]
    assert len(doc["checks"]) == 8


def test_error_inside_a_record_fails_every_row_of_it(capsys, monkeypatch):
    def broken(ws):
        raise KeyError("inner")

    monkeypatch.setattr(crgeo.verify, "comparison_identities_residual", broken)
    code, doc, errors = error_rows(capsys, "--suite", "comparison")
    assert code == 1 and doc["overall_pass"] is False
    assert len(errors) == len(doc["checks"]) == 8
    assert all(row["error"] == "KeyError: 'inner'" for row in errors.values())


def test_signature_check_reports_unexpected_errors(capsys, monkeypatch):
    def broken(self, pts):
        raise RuntimeError("eigensolver unavailable")

    monkeypatch.setattr(MetricField, "verify_signature", broken)
    code, _, errors = error_rows(capsys, "--suite", "theorem2")
    assert code == 1
    row = errors["explicit_signature"]
    assert row["pass"] is False
    assert row["error"] == "RuntimeError: eigensolver unavailable"
