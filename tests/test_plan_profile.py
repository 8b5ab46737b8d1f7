"""Smoke test of tests/plan_profile.py, and the plan ops and tree nodes it counts: of the Webster
stage, of whole catalog runs, and of two calls that read one operand at two orders."""

import functools

import pytest

from crgeo import Chart, chart
from crgeo.verify import Pipeline
from plan_profile import RECORDS, profile, profile_reads, report

WEBSTER_STAGE = ("structure", "webster", "comparison", "submersion")


def count(stats, group, at):
    # ops of a group whose key field ``at`` (2: repeated, 3: at any order) is set
    return sum(n for key, (_, n) in stats.items() if key[0] == group and key[at])


def test_profile_splits_own_and_pulled_back_ops():
    stats, plans, nodes = profile("fubini_study", 1, 2, 7)
    groups = {group for group, *_ in stats}
    assert groups == {"own chart", "pulled back"}
    # the contact chart reads the base potential through pull-backs: embeds and logs
    kinds = {kind for group, kind, *_ in stats if group == "pulled back"}
    assert {"embed", "log"} <= kinds
    assert set(plans) == {2, 3}  # the base operands' and the contact plans; none on the explicit chart
    text = report("fubini_study", 1, 2, 7, stats, plans, nodes)
    assert text.splitlines()[0].startswith("fubini_study m=1, 2 points, seed 7:")
    assert "| pulled back |" in text and "| embed |" in text
    assert "| repeated at any order |" in text
    assert "| record | node calls | new nodes | interned hits |" in text
    assert f"| total | {sum(c for c, _ in nodes.values())} |" in text
    # the wrappers are gone again
    assert chart._Plan.run.__qualname__ == "_Plan.run"
    assert chart.Chart.node.__qualname__ == "Chart.node"
    Pipeline("flat", 1, 2, 7).structure_record


def test_node_counts_per_record_cover_every_node_call(monkeypatch):
    # each Chart.node call is charged to the record being read, as a new node
    # or an interned hit; the webster, comparison and fefferman records read the
    # Webster sample's held and assembled arrays and build no tree
    calls = []
    real = chart.Chart.node
    monkeypatch.setattr(chart.Chart, "node", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    _, _, nodes = profile("fubini_study", 1, 2, 7)
    assert list(nodes) == list(RECORDS)
    assert sum(c for c, _ in nodes.values()) == len(calls) > 0
    assert all(0 <= new <= c for c, new in nodes.values())
    assert nodes["webster"] == nodes["comparison"] == [0, 0]
    # nor do the fefferman, rescale and theorem2 records: f, e^{2 phi} f, phi, the
    # frame and forms are assembled from arrays, the s = 0 slice scales f's values,
    # and the explicit metrics are assembled from the held h and gamma
    assert nodes["fefferman"] == nodes["rescale"] == nodes["theorem2"] == [0, 0]
    # the structure record builds the base, the contact structure and its fields
    assert nodes["structure"][0] > nodes["structure"][1] > 0


@pytest.mark.parametrize(
    "example, m", [(e, m) for e in ("flat", "fubini_study", "complex_hyperbolic") for m in (1, 2)]
)
def test_a_catalog_run_repeats_no_op_at_any_order(example, m):
    # over every record, as over the Webster stage: each (node, context, point
    # block) is evaluated once, at one order
    stats, _, _ = profile(example, m, 3, 7)
    assert sum(n for _, n in stats.values()) > 0
    assert count(stats, "own chart", 3) == count(stats, "pulled back", 3) == 0


def test_any_order_repeats_include_the_cross_order_ones():
    # two calls read one pulled-back operand from one batch, at orders 1 and 2:
    # the second evaluates it and the nodes under it again, a repeat at another
    # order only
    base = Chart(["x", "y"], [(-1.0, 1.0)] * 2)
    total = base.extend("t", (-1.0, 1.0))
    x, y = base.coordinate_fields()
    pulled = chart.pullback_scalar(total, chart.sin(x) * y)
    pts = total.sample(3, 7)
    held = chart.PullbackJets(total, pts)
    # lazily, so that each call reads the profiler's wrapper
    stats, _, nodes = profile_reads(
        (f"order {k}", functools.partial(chart.jet_data_multi, [pulled], pts, k, held)) for k in (1, 2)
    )
    assert list(nodes) == ["order 1", "order 2"]
    assert count(stats, "own chart", 3) == count(stats, "own chart", 2) == 0
    assert count(stats, "pulled back", 3) > count(stats, "pulled back", 2) == 0


@pytest.mark.parametrize(
    "example, m", [(e, m) for e in ("flat", "fubini_study", "complex_hyperbolic") for m in (1, 2)]
)
def test_the_webster_stage_evaluates_each_node_once(jet_calls, example, m):
    # the structure, webster, comparison and submersion records read one batch
    # per sample: no (node, context, point block) is evaluated twice, at any
    # order, and the contact chart takes one jet_data_multi call (flat's
    # gauge-shifted structure included)
    stats, plans, _ = profile(example, m, 3, 7, WEBSTER_STAGE)
    assert count(stats, "own chart", 3) == count(stats, "pulled back", 3) == 0
    assert sum(n for _, n in stats.values()) > 0
    contact = [(fields, order) for fields, _, order in jet_calls if fields[0].chart.dim == 2 * m + 1]
    assert len(contact) == 1 and contact[0][1] == 2
    assert set(plans) == {2 * m, 2 * m + 1}  # the base operands' plan and the contact plan
