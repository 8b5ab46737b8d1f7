"""Tests of the benchmark harness's own logic (no benchmark runs).

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import run
import tracer

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    inner = tr.wrap("inner", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(0.5)

    outer = tr.wrap("outer", outer_body)
    outer()
    clock.advance(10.0)  # outside every span: not covered
    s = tr.summary()["spans"]
    assert s["outer"] == {"calls": 1, "self_s": 1.5, "total_s": 5.5}
    assert s["inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert tr.summary()["covered_s"] == 5.5


def test_recursion_counts_total_once():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def body(n):
        clock.advance(1.0)
        if n:
            rec(n - 1)

    rec = tr.wrap("rec", body)
    rec(2)
    s = tr.summary()["spans"]["rec"]
    assert s["calls"] == 3
    assert s["self_s"] == 3.0
    assert s["total_s"] == 3.0  # not 3 + 2 + 1


def test_hook_time_is_charged_to_no_span():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    child = tr.wrap("child", lambda: clock.advance(1.0), hook=lambda: clock.advance(4.0))
    parent = tr.wrap("parent", lambda: child())
    parent()
    s = tr.summary()["spans"]
    assert s["child"]["self_s"] == 1.0
    assert s["parent"]["self_s"] == 0.0
    assert s["parent"]["total_s"] == 5.0


def test_span_closes_when_the_function_raises():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    wrapped = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.stack == []
    assert tr.summary()["spans"]["boom"]["total_s"] == 1.0


# ----------------------------------------------------------------------
# computed jet-product cost
# ----------------------------------------------------------------------

def test_mul_cost_order_zero_and_scalar():
    assert tracer.mul_cost((1, 5), (1, 5)) == (5, 8 * 15, 0)
    # scaling by a non-jet: one flop per coefficient
    assert tracer.mul_cost((4, 5), None) == (20, 8 * 40, 2)


def test_mul_cost_order_one_with_broadcast():
    # k=1: 3 pairs; batch broadcast (3, 1) x (1, 2) -> 6
    flops, nbytes, k = tracer.mul_cost((2, 3, 1), (2, 1, 2))
    assert k == 1
    assert flops == 3 * 6 + 2 * 2 * 3 * 6
    elements = 6 + 4 + 3 * 3 + 3 * 2 + 3 * 6 + 2 * 3 + 2 * 6
    assert nbytes == 8 * elements


def test_mul_counts_match_the_jet_implementation():
    import numpy as np

    from crgeo.jets import Jet, _mul_index

    tr = tracer.Tracer()
    a = Jet(np.ones((4, 3)))
    tr.count_mul(a, a)
    tr.count_mul(a, a)
    tr.count_mul(a, 2.0)
    ia, _, scatter = _mul_index(2)
    s = tr.summary()
    assert s["mul_calls_order"][2] == 3
    assert len(ia) == 3 ** 2 and scatter.shape == (4, 9)
    assert s["mul_flops"] == 2 * (9 * 3 + 2 * 4 * 9 * 3) + 12


def test_jet_data_multi_distinct_key():
    import numpy as np

    tr = tracer.Tracer()
    f, g = object(), object()
    pts = np.zeros((3, 2))
    tr.count_jet_data_multi([f], pts, 1)
    tr.count_jet_data_multi([f], pts.copy(), 1)  # same bytes: not distinct
    tr.count_jet_data_multi([f], pts + 1.0, 1)
    tr.count_jet_data_multi([f], pts, 2)
    tr.count_jet_data_multi([f, g], pts, 1)
    s = tr.summary()
    assert s["jdm_distinct"] == 4
    assert s["jdm_calls_order"][:3] == [0, 4, 1]


def _summary(**over):
    base = {
        "spans": {
            "chart.jet_data_multi": {"calls": 10, "self_s": 1.0, "total_s": 2.0},
            "verify.record.webster": {"calls": 1, "self_s": 0.1, "total_s": 3.0},
        },
        "covered_s": 3.5,
        "jdm_calls_order": [6, 2, 2, 0, 0, 0],
        "jdm_distinct": 4,
        "mul_calls_order": [1, 0, 0, 0, 0, 0],
        "mul_flops": 7,
        "mul_bytes": 24,
        "points": {"metric.orthonormal_frame": 32},
    }
    base.update(over)
    return base


def test_layer_metrics_sum_invocations():
    out = tracer.layer_metrics([_summary(), _summary(jdm_distinct=6)])
    assert out["chart.jet_data_multi.calls"] == 20
    assert out["chart.jet_data_multi.distinct"] == 10
    assert out["chart.jet_data_multi.useful_ratio"] == 0.5
    assert out["chart.jet_data_multi.calls_order0"] == 12
    assert out["verify.record.webster_s"] == 6.0
    assert out["verify.record.negative_s"] == 0
    assert out["metric.orthonormal_frame.points"] == 64
    assert out["jets.mul.computed_bytes"] == 48


def test_install_wraps_every_binding_and_uninstalls():
    import crgeo.cli
    import crgeo.constructions
    import crgeo.jets
    import crgeo.metric
    import crgeo.pseudohermitian
    import crgeo.verify
    from crgeo.verify import Pipeline

    original = crgeo.metric.curvature_from_connection
    tr = tracer.Tracer()
    tr.install_crgeo()
    try:
        for mod in (crgeo.metric, crgeo.pseudohermitian, crgeo.constructions):
            assert mod.curvature_from_connection is not original
            assert mod.curvature_from_connection.__wrapped__ is original
        assert crgeo.cli.render_report is crgeo.verify.render_report
        assert crgeo.jets.Jet.__rmul__ is crgeo.jets.Jet.__mul__
        Pipeline("flat", 1, points=2, seed=0).structure_record
    finally:
        tr.uninstall()
    assert crgeo.pseudohermitian.curvature_from_connection is original
    assert not hasattr(crgeo.verify.render_report, "__wrapped__")
    s = tr.summary()
    assert s["spans"]["verify.record.structure"]["calls"] == 1
    assert s["spans"]["chart.jet_data_multi"]["calls"] > 0
    assert s["spans"]["jets.jet_solve"]["calls"] > 0
    assert sum(s["mul_calls_order"]) == s["spans"]["jets.mul"]["calls"] > 0


# ----------------------------------------------------------------------
# correctness gate and failure counting
# ----------------------------------------------------------------------

REPORT = """{
  "example": "flat",
  "m": 1,
  "points": 2,
  "seed": 7,
  "generated_at": "%s",
  "checks": [
    {"name": "a", "max_residual": %s, "pass": %s},
    {"name": "b", "max_residual": 0.0, "pass": true}
  ],
  "overall_pass": %s
}
"""
ARGS = ["run", "--example", "flat", "--m", "1", "--suite", "all", "--points", "2", "--seed", "7"]


def _fake_spawn(monkeypatch, exit_code=0, report=None):
    if report is None:
        report = REPORT % ("2026-01-01", "1e-16", "true", "true")
    doc = {"setup_s": 0.1, "exit_code": exit_code, "report": report, "trace": None,
           "wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 50.0}
    monkeypatch.setattr(run, "spawn", lambda args, trace: dict(doc))


def test_digest_ignores_generated_at_only():
    a = REPORT % ("2026-01-01T00:00:00", "1e-16", "true", "true")
    b = REPORT % ("2027-05-05T11:11:11", "1e-16", "true", "true")
    c = REPORT % ("2026-01-01T00:00:00", "2e-16", "true", "true")
    assert run.report_digest(a) == run.report_digest(b)
    assert run.report_digest(a) != run.report_digest(c)


def test_passing_invocation(monkeypatch):
    _fake_spawn(monkeypatch)
    inv = run.invocation(ARGS, False)
    assert inv["ok"] and inv["rows"] == 2 and inv["failed_rows"] == 0


def test_failed_check_is_counted_not_fatal(monkeypatch):
    _fake_spawn(monkeypatch, exit_code=1,
                report=REPORT % ("t", "0.5", "false", "false"))
    inv = run.invocation(ARGS, False)
    assert not inv["ok"]
    assert (inv["rows"], inv["failed_rows"]) == (2, 1)


def test_header_mismatch_is_incorrect(monkeypatch):
    _fake_spawn(monkeypatch)
    assert not run.invocation(ARGS[:-1] + ["8"], False)["ok"]


@pytest.mark.parametrize("exit_code,report", [(2, ""), (0, "not json"), (0, '{"checks": 1}')])
def test_usage_error_or_bad_report_voids_the_run(monkeypatch, exit_code, report):
    _fake_spawn(monkeypatch, exit_code=exit_code, report=report)
    with pytest.raises(run.BenchError):
        run.invocation(ARGS, False)


def _inv(wall, digest="d", traced=False, setup=0.1, rows=10, failed=0, rss=50.0, trace=None,
         args=("run",)):
    return {"args": list(args), "wall_s": wall, "setup_s": setup, "rss_mb": rss, "rows": rows,
            "failed_rows": failed, "digest": digest, "traced": traced, "trace": trace}


def test_end_to_end_medians():
    reps = [[_inv(1.0), _inv(3.0, rss=70.0)],
            [_inv(2.0, setup=0.3), _inv(5.0, failed=1)],
            [_inv(1.5), _inv(4.0)]]
    out = run.end_to_end(reps)
    assert out["wall_s"] == 5.5
    assert out["m1_wall_s"] == 1.5
    assert out["m2_wall_s"] == 4.0
    assert out["setup_s"] == 0.1
    assert out["peak_rss_mb"] == 70.0
    assert out["check_pass_share"] == 59 / 60


def test_consistency_needs_identical_digests_and_counts():
    m1, m2 = ("--m", "1"), ("--m", "2")
    assert run.consistent([[_inv(1, "a", args=m1), _inv(1, "b", args=m2)],
                           [_inv(2, "a", args=m1), _inv(2, "b", args=m2)]])
    assert not run.consistent([[_inv(1, "a", args=m1), _inv(1, "b", args=m2)],
                               [_inv(1, "a", args=m1), _inv(1, "x", args=m2)]])
    t1, t2 = _summary(), _summary(jdm_distinct=5)
    assert not run.consistent([[_inv(1, traced=True, trace=t1)], [_inv(1, traced=True, trace=t2)]])


def test_overhead_and_unattributed():
    def rep(m1, m2, traced=False):
        trace = _summary(covered_s=2.0) if traced else None
        return [_inv(m1, traced=traced, trace=trace), _inv(m2, traced=traced, trace=trace)]

    reps = [rep(1.0, 3.0), rep(1.0, 4.0, True), rep(1.2, 3.0), rep(1.4, 4.0, True), rep(1.4, 3.0)]
    out = run.per_layer(reps)
    assert out["trace.overhead_s"] == pytest.approx(5.2 - 4.2)
    assert out["trace.unattributed_s"] == pytest.approx(5.2 - 4.0)
    assert out["chart.jet_data_multi.calls"] == 20


def test_reference_speed_scales_every_time_and_nothing_else():
    trace = _summary()
    inv = dict(_inv(4.0, setup=0.2, traced=True, trace=trace), scale=0.5)
    [[out]] = run.at_reference_speed([[inv]])
    assert (out["wall_s"], out["setup_s"], out["rss_mb"], out["rows"]) == (2.0, 0.1, 50.0, 10)
    assert out["trace"]["covered_s"] == 1.75
    assert out["trace"]["spans"]["chart.jet_data_multi"] == {"calls": 10, "self_s": 0.5, "total_s": 1.0}
    assert out["trace"]["jdm_distinct"] == 4
    assert inv["wall_s"] == 4.0 and trace["covered_s"] == 3.5  # inputs untouched


def test_units():
    assert run.unit_of("wall_s") == "s"
    assert run.unit_of("chart.jet_data_multi.useful_ratio") == "ratio"
    assert run.unit_of("jets.mul.calls_order3") == "count"
    assert run.unit_of("jets.mul.computed_bytes") == "B"


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # main sets it
    code = run.main(["--workload", "catalog_p2", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units == {name: run.unit_of(name) for name in units}
    assert set(units) == set(run.UNITS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    traced = _inv(5.0, traced=True, trace=_summary())
    reps = [[_inv(1.0), _inv(4.0)], [traced, traced]]
    assert layer_names == set(run.per_layer(reps))
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
