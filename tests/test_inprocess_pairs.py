"""Smoke test of tests/inprocess_pairs.py: paired fresh-process runs of one verify command line."""

import re
import subprocess
import sys

import pytest

from inprocess_pairs import MEASURES, SRC, quartiles, run_child, table

ARGV = ["run", "--example", "fubini_study", "--m", "1", "--suite", "webster", "--points", "1"]


def test_one_pair_of_a_one_point_run():
    # run as a script, so that this process's memory stays out of the children's ru_maxrss
    tool = SRC.parent / "tests" / "inprocess_pairs.py"
    proc = subprocess.run([sys.executable, str(tool), str(SRC), "--pairs", "1", "--", *ARGV],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "1 pairs, the first side alternating"
    assert lines[2].startswith("| measure | old median | old q1 - q3 | old lower in | new median")
    rows = {line.split(" | ")[0][2:]: line for line in lines[4:8]}
    assert list(rows) == [label for _, label, _ in MEASURES]
    for line in rows.values():
        cells = line.strip("| ").split(" | ")
        old, new = float(cells[1]), float(cells[4])
        assert old > 0 and new > 0
        # one value per side: its quartiles are the value, and at most one side reads lower
        assert cells[2] == f"{cells[1]} - {cells[1]}" and cells[5] == f"{cells[4]} - {cells[4]}"
        assert {cells[3], cells[6]} <= {"0 of 1", "1 of 1"} and (cells[3], cells[6]) != ("1 of 1", "1 of 1")
    # the children import numpy; this process imports the standard library alone
    own = float(re.search(r"own peak RSS: ([\d.]+) MB", proc.stdout).group(1))
    rss = rows["ru_maxrss (MB)"].strip("| ").split(" | ")
    assert own < min(float(rss[1]), float(rss[4]))


def test_the_table_gives_medians_quartiles_and_pairs_won():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    old = [{"import_s": 0.1, "main_s": s, "maxrss_mb": 40.0, "minflt": 900} for s in (1.0, 2.0, 3.0)]
    new = [{"import_s": 0.1, "main_s": s, "maxrss_mb": 39.0, "minflt": 1000} for s in (1.5, 1.5, 2.5)]
    lines = table(old, new).splitlines()
    assert lines[4] == ("| import crgeo.cli (s) | 0.1000 | 0.1000 - 0.1000 | 0 of 3 | 0.1000 | 0.1000 - 0.1000 "
                        "| 0 of 3 |")
    assert lines[5] == "| crgeo.cli.main (s) | 2.0000 | 1.5000 - 2.5000 | 1 of 3 | 1.5000 | 1.5000 - 2.0000 | 2 of 3 |"
    assert lines[6] == "| ru_maxrss (MB) | 40.00 | 40.00 - 40.00 | 0 of 3 | 39.00 | 39.00 - 39.00 | 3 of 3 |"
    assert lines[7] == "| ru_minflt | 900 | 900 - 900 | 3 of 3 | 1000 | 1000 - 1000 | 0 of 3 |"


def test_a_command_line_that_makes_no_report_stops_the_pairs():
    with pytest.raises(RuntimeError, match="exit 2"):
        run_child(SRC, ["run", "--example", "fubini_study", "--m", "3", "--points", "1"])
