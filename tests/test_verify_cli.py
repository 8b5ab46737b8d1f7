"""Verification driver and command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crgeo
import crgeo.verify
from crgeo.cli import main
from crgeo.errors import UsageError
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


@pytest.mark.parametrize("example", ["flat", "all"])
def test_repeated_suite_runs_once(capsys, example):
    args = ("run", "--example", example, "--m", "1", "--points", "2", "--suite")
    _, once, _ = run_cli(capsys, *args, "webster")
    code, twice, _ = run_cli(capsys, *args, "webster,webster")
    assert code == 0
    assert json.loads(twice)["suites"] == ["webster"]
    assert STRIP_TIMESTAMP.sub("", twice) == STRIP_TIMESTAMP.sub("", once)


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
    assert run_cli(capsys, "run", "--example", "all", "--m", "1", "--suite", ",")[0] == 2
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


def test_a_tolerance_override_is_positive_and_given_once(capsys):
    # at <= 0 a lower check (a negative control's detection) passes whatever
    # the residual, and an upper check fails every row
    for check, example in (("non_einstein_detected", "sphere_x_flat"), ("webster_einstein", "flat")):
        for value in ("-1", "0", "-0.0"):
            code, out, err = run_cli(
                capsys, "run", "--example", example, "--m", "2", "--suite", "all",
                "--points", "2", "--tol", f"{check}={value}",
            )
            assert (code, out) == (2, "") and "must be > 0" in err
        with pytest.raises(UsageError, match="must be > 0"):
            SuiteConfig(example=example, m=2, tol_overrides={check: 0.0})
    # a check named twice: two values exit 2, the same value twice is one override
    base = ("run", "--example", "flat", "--m", "1", "--suite", "webster", "--points", "2")
    code, out, err = run_cli(capsys, *base, "--tol", "webster_einstein=1e-6", "--tol", "webster_einstein=1e-3")
    assert (code, out) == (2, "") and "given twice" in err
    code, out, _ = run_cli(capsys, *base, "--tol", "webster_einstein=1e-3", "--tol", " webster_einstein=0.001")
    assert code == 0
    row = next(c for c in json.loads(out)["checks"] if c["name"] == "webster_einstein")
    assert row["tolerance"] == 1e-3


def test_a_tolerance_override_names_a_selected_check(capsys):
    # an override of a check the run does not select is an error, not dropped unseen
    for example, m, suites, check in (
        ("flat", 1, "webster", "rescaled_scalar"),  # its suite is not run
        ("flat", 1, "all", "non_einstein_detected"),  # a control's check on a regular entry
        ("all", 1, "webster", "rescaled_scalar"),  # no entry runs its suite
        ("all", 1, "all", "non_einstein_detected"),  # its control has no m=1 entry
    ):
        code, out, err = run_cli(
            capsys, "run", "--example", example, "--m", str(m), "--suite", suites,
            "--points", "2", "--tol", f"{check}=1e-3",
        )
        assert (code, out) == (2, "") and err.startswith("error:") and check in err
        with pytest.raises(UsageError, match="not selected"):
            SuiteConfig(example=example, m=m, suites=(suites,), tol_overrides={check: 1e-3})
    # under --example all, selected for one entry is enough; the override reaches
    # that entry's row and no other entry's request is refused
    code, out, _ = run_cli(
        capsys, "run", "--example", "all", "--m", "2", "--suite", "theorem2",
        "--points", "2", "--tol", "sasaki_einstein=1e-3",
    )
    assert code == 0
    rows = [
        (run["example"], c["tolerance"])
        for run in json.loads(out)["runs"] for c in run["checks"] if c["name"] == "sasaki_einstein"
    ]
    assert rows == [("fubini_study", 1e-3), ("complex_hyperbolic", 1e-3)]


def test_negative_suite_with_all_examples_names_the_way_to_run_it(capsys):
    # the controls run under --suite all, never silently dropped from a list
    for m, suites in ((1, "webster,negative"), (1, "negative"), (2, "negative,fefferman")):
        code, out, err = run_cli(
            capsys, "run", "--example", "all", "--m", str(m), "--suite", suites, "--points", "2"
        )
        control = "perturbed_non_tsph" if m == 1 else "sphere_x_flat"
        assert (code, out) == (2, "")
        assert "--suite all" in err and f"--example {control}" in err
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "theorem2,negative" in capsys.readouterr().out


def test_points_must_be_positive():
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(example="fubini_study", m=1, points=0))


def test_negative_entry_requires_all_suite():
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(example="perturbed_non_tsph", m=1, suites=("webster",), points=4))


def test_a_webster_run_requests_no_base_field(monkeypatch):
    # the Webster sample's one call carries the submersion record's base
    # fields only when the run reads that record
    from crgeo import pseudohermitian

    requested = []
    real = pseudohermitian.jet_data_named

    def spy(fields, pts, held=None):
        requested.append({name for _, name in fields})
        return real(fields, pts, held)

    monkeypatch.setattr(pseudohermitian, "jet_data_named", spy)
    base = {"h", "gamma", "ricci_potential", "d_rho"}
    for suites, expected in ((("webster",), set()), (("all",), base)):
        requested.clear()
        report = run_suite(SuiteConfig("fubini_study", 2, suites, points=2, seed=7))
        assert report["overall_pass"]
        assert len(requested) == 1 and requested[0] & base == expected


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


def test_an_out_path_that_cannot_be_opened_fails_before_any_check(tmp_path, capsys, monkeypatch):
    # a file name too long for the file system fails to open even as root, and so
    # does a directory; either is a usage error, found before the run starts
    import crgeo.cli

    runs = []
    monkeypatch.setattr(crgeo.cli, "run_suite", lambda cfg: runs.append(cfg))
    for target in (tmp_path / ("a" * 300 + ".json"), tmp_path):
        code, out, err = run_cli(
            capsys, "run", "--example", "flat", "--m", "1", "--suite", "webster", "--points", "1",
            "--out", str(target),
        )
        assert (code, out) == (2, "") and err.startswith("error: --out cannot be written")
    assert runs == []


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


def test_a_run_loads_no_numpy_random():
    # pytest and hypothesis load numpy.random themselves, so the run gets a
    # fresh interpreter
    src = str(Path(crgeo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from crgeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['run', '--example', 'all', '--m', '1', '--suite', 'all', '--points', '2'])\n"
        "print(code, sorted(name for name in sys.modules if name.split('.')[:2] == ['numpy', 'random']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


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


@pytest.mark.parametrize("m", [1, 2])
def test_one_point_catalog_passes(capsys, m):
    # at one point each sample statistic (scal_W and scal_h constancy, the
    # Einstein precondition of f) reads that point alone
    code, out, _ = run_cli(
        capsys, "run", "--example", "all", "--m", str(m), "--suite", "all", "--points", "1",
    )
    assert code == 0
    rows = [row for run in json.loads(out)["runs"] for row in run["checks"]]
    assert rows and all(row["pass"] and row["points"] == 1 for row in rows)


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


def test_nan_residual_is_a_failed_row(capsys, monkeypatch):
    # a NaN at one point fails the row, however small the other residuals are
    original = crgeo.verify.comparison_identities_residual

    def with_nan(ws):
        rec = original(ws)
        per_point = np.array(rec["reeb_sectional"], dtype=float)
        per_point[-1] = np.nan
        rec["reeb_sectional"] = per_point
        return rec

    monkeypatch.setattr(crgeo.verify, "comparison_identities_residual", with_nan)
    code, doc, errors = error_rows(capsys, "--suite", "comparison")
    rows = {c["name"]: c for c in doc["checks"]}
    assert code == 1 and doc["overall_pass"] is False and not errors
    assert rows["reeb_sectional"]["pass"] is False and rows["reeb_sectional"]["max_residual"] == "nan"
    assert [name for name, row in rows.items() if not row["pass"]] == ["reeb_sectional"]


def test_infinite_residual_keeps_the_report_json(capsys, monkeypatch):
    # an infinite residual is written as a string, as NaN is, and fails its row
    original = crgeo.verify.comparison_identities_residual

    def with_inf(ws):
        rec = original(ws)
        per_point = np.array(rec["reeb_sectional"], dtype=float)
        per_point[0] = np.inf
        rec["reeb_sectional"] = per_point
        return rec

    monkeypatch.setattr(crgeo.verify, "comparison_identities_residual", with_inf)
    code, doc, errors = error_rows(capsys, "--suite", "comparison")
    rows = {c["name"]: c for c in doc["checks"]}
    assert code == 1 and doc["overall_pass"] is False and not errors
    assert rows["reeb_sectional"]["pass"] is False and rows["reeb_sectional"]["max_residual"] == "inf"
    assert [name for name, row in rows.items() if not row["pass"]] == ["reeb_sectional"]
    assert render_report({"low": -np.inf}) == '{\n  "low": "-inf"\n}\n'


def test_error_inside_a_record_fails_every_row_of_it(capsys, monkeypatch):
    def broken(ws):
        raise KeyError("inner")

    monkeypatch.setattr(crgeo.verify, "comparison_identities_residual", broken)
    code, doc, errors = error_rows(capsys, "--suite", "comparison")
    assert code == 1 and doc["overall_pass"] is False
    assert len(errors) == len(doc["checks"]) == 8
    assert all(row["error"] == "KeyError: 'inner'" for row in errors.values())


def test_a_run_too_large_to_allocate_exits_2(capsys):
    # numpy refuses 10**15 points at once, without touching memory: one error
    # line and exit 2, not a report of failed rows
    code, out, err = run_cli(capsys, "run", "--example", "flat", "--m", "1", "--points", str(10**15))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: the run does not fit in memory: ") and "allocate" in line


def test_signature_check_reports_unexpected_errors(capsys, monkeypatch):
    def broken(g, signature):
        raise RuntimeError("eigensolver unavailable")

    monkeypatch.setattr(crgeo.verify, "check_signature", broken)
    code, _, errors = error_rows(capsys, "--suite", "theorem2")
    assert code == 1
    row = errors["explicit_signature"]
    assert row["pass"] is False
    assert row["error"] == "RuntimeError: eigensolver unavailable"
