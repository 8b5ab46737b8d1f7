"""Smoke test of tests/memory_profile.py: one stretch per record, in run order, with the
memory traced in it and the crgeo frame at its peak, and the run it watches unchanged."""

import sys

from crgeo.verify import SuiteConfig, render_report, run_suite
from memory_profile import profile, table
from test_acceptance import GENERATED_AT


def test_profile_charges_each_record_of_a_run():
    rows, report = profile("fubini_study", 1, 2, 7)
    assert sys.getprofile() is None  # the hook is gone again
    names = [name for name, *_ in rows]
    assert names == ["start", "structure", "webster", "comparison", "submersion", "fefferman", "rescale",
                     "theorem2"]
    for name, held, peak, at in rows:
        assert peak >= held >= 0, name
    # each record allocates, and its peak is charged to a frame of the package
    assert all(peak > 0 and at.split(".py:")[0].isidentifier() for _, _, peak, at in rows[1:])
    # the watched run is the run itself
    expected = run_suite(SuiteConfig("fubini_study", 1, points=2, seed=7))
    assert GENERATED_AT.sub("", render_report(report)) == GENERATED_AT.sub("", render_report(expected))
    text = table("fubini_study", 1, 2, 7, rows)
    assert text.splitlines()[0].startswith("fubini_study m=1, 2 points, seed 7: traced peak")
    assert "| record | held after (MB) | peak (MB) | crgeo frame at the peak < its caller |" in text
    assert "| theorem2 |" in text


def test_profile_names_the_entry_of_each_record_of_a_catalog_run():
    rows, report = profile("all", 1, 1, 7)
    names = [name for name, *_ in rows]
    # at m=1: seven records of each of the three regular entries, then the deformed control
    assert [run["example"] for run in report["runs"]] == ["flat", "fubini_study", "complex_hyperbolic",
                                                          "perturbed_non_tsph"]
    assert names[1] == "flat structure" and names[-1] == "perturbed_non_tsph negative"
    assert len(names) == 1 + 3 * 7 + 1
