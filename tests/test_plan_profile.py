"""Smoke test of tests/plan_profile.py: op times of one small pipeline, split by chart."""

from crgeo import chart
from crgeo.verify import Pipeline
from plan_profile import profile, report


def test_profile_splits_own_and_pulled_back_ops():
    stats, plans = profile("fubini_study", 1, 2, 7)
    groups = {group for group, _, _ in stats}
    assert groups == {"own chart", "pulled back"}
    # the contact chart reads the base potential through pull-backs: embeds and logs
    kinds = {kind for group, kind, _ in stats if group == "pulled back"}
    assert {"embed", "log"} <= kinds
    assert plans[2] and plans[3] and plans[4]  # base, contact and Fefferman plans ran
    text = report("fubini_study", 1, 2, 7, stats, plans)
    assert text.splitlines()[0].startswith("fubini_study m=1, 2 points, seed 7:")
    assert "| pulled back |" in text and "| embed |" in text
    # the wrappers are gone again
    assert chart._Plan.run.__qualname__ == "_Plan.run"
    Pipeline("flat", 1, 2, 7).structure_record
