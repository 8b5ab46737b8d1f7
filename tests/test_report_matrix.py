"""Smoke test of tests/report_matrix.py: the moved-row table of two source trees."""

import json
import subprocess

import pytest

from report_matrix import MATRIX, SRC, compare, exported, format_table, summarize
from test_acceptance import golden_text


def test_matrix_is_the_24_reports():
    assert len(MATRIX) == len(set(MATRIX)) == 24
    assert {(e, p) for e, _, p, _ in MATRIX} == {
        ("all", 2), ("all", 5), ("all", 32), ("complex_hyperbolic", 128)
    }


def test_a_tree_against_itself_moves_no_row(capsys):
    # two reports of the matrix, each run in a subprocess under both trees
    assert compare(SRC, [("all", 1, 2, 7), ("all", 2, 2, 7)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 of 2 reports byte-identical")
    # no moved report is named below the table
    assert "| check | rows | moved |" in out and out.rstrip().endswith("|---|---|---|---|---|---|")


def test_the_table_counts_moved_rows_per_check():
    from crgeo.verify import SuiteConfig, run_suite

    old = golden_text(run_suite(SuiteConfig(example="flat", m=1, suites=("webster",), points=2)))
    doc = json.loads(old)
    rows = {c["name"]: c for c in doc["checks"]}
    rows["webster_einstein"]["max_residual"] += 1e-15
    rows["webster_scal_constant"]["max_residual"] = 0.0
    rows["webster_scal_constant"]["pass"] = False
    new = json.dumps(doc)
    table = summarize([(old, new), (old, old)])
    assert table["webster_einstein"] == {
        "rows": 2, "moved": 1, "largest": table["webster_einstein"]["largest"],
        "rose": True, "all_pass": True,
    }
    assert 0 < table["webster_einstein"]["largest"] < 2e-15
    assert table["webster_scal_constant"]["moved"] == 1
    assert not table["webster_scal_constant"]["rose"]
    assert not table["webster_scal_constant"]["all_pass"]
    text = format_table(table, 2, [("flat", 1, 2, 42)])
    assert text.startswith("1 of 2 reports byte-identical")
    assert "| webster_einstein | 2 | 1 |" in text and "| yes | yes |" in text
    assert "| webster_scal_constant | 2 | 1 |" in text and "| no | NO |" in text
    # below the table, the report that moved
    assert text.endswith("reports not byte-identical (example, m, points, seed):\n  flat, 1, 2, 42")


def test_compare_names_the_reports_that_moved(monkeypatch, capsys, tmp_path):
    import report_matrix
    from crgeo.verify import SuiteConfig, run_suite

    text = golden_text(run_suite(SuiteConfig(example="flat", m=1, suites=("webster",), points=2)))
    doc = json.loads(text)
    doc["checks"][0]["max_residual"] *= 2.0
    moved = json.dumps(doc)

    def fake_report(src, example, m, points, seed):
        # this tree's report at seed 42 differs from the other tree's
        return moved if src == SRC and seed == 42 else text

    (tmp_path / "crgeo").mkdir()
    monkeypatch.setattr(report_matrix, "report_text", fake_report)
    assert compare(tmp_path, [("flat", 1, 2, 7), ("flat", 1, 2, 42)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 of 2 reports byte-identical")
    assert out.rstrip().endswith("(example, m, points, seed):\n  flat, 1, 2, 42")


def test_a_revision_is_exported_without_touching_the_checkout(tmp_path):
    # a repository of one commit, whose src is then edited in the checkout
    repo = tmp_path / "repo"
    (repo / "src" / "crgeo").mkdir(parents=True)
    (repo / "src" / "crgeo" / "__init__.py").write_text("committed = True\n")
    (repo / "notes.txt").write_text("outside src\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, check=True)
    (repo / "src" / "crgeo" / "__init__.py").write_text("committed = False\n")
    with exported("HEAD", repo) as src:
        assert (src / "crgeo" / "__init__.py").read_text() == "committed = True\n"
        assert sorted(p.name for p in src.parent.iterdir()) == ["src"]
    assert not src.exists()
    assert (repo / "src" / "crgeo" / "__init__.py").read_text() == "committed = False\n"
    with exported(repo / "src", repo) as src:  # a directory is itself
        assert src == repo / "src"
    with pytest.raises(SystemExit, match="no-such-revision: neither a directory nor a revision"):
        with exported("no-such-revision", repo):
            pass
