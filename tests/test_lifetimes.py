"""The lifetimes of a run's held arrays: each member of a Pipeline and of its Webster sample is
evaluated once per run, released after its last reader, and the dense m=2 run and its
structure stretch stay within their memory budgets."""

import tracemalloc
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from crgeo.pseudohermitian import WebsterSample
from crgeo.verify import RECORDS, Pipeline, SuiteConfig, run_all, run_suite
from memory_profile import profile

# the tracemalloc peak of run_suite for complex_hyperbolic, m=2, 128 points, seed 42,
# measured at 11.68 MB (11.53 MB at seed 7) once each array is released after its last
# reader, against 20.89 MB while every array of the Webster sample was held to the end
# of the run; the budget is 1.24 times the measurement
DENSE_M2_BUDGET = 14.5e6
# the traced peak of the same run's structure stretch (tests/memory_profile.py), from the
# first structure_record call to the webster record, where the Webster sample's batch is
# evaluated and g_theta assembled: 6.37 MB at seeds 42 and 7 with the assembly laid out as
# jet_data gives its arrays, against 8.08 MB while theta and dtheta were copied into a
# second layout with the point axis last; the budget is 1.15 times the measurement
STRUCTURE_BUDGET = 7.3e6


def test_the_dense_m2_run_stays_within_its_memory_budget():
    cfg = SuiteConfig("complex_hyperbolic", 2, points=128, seed=42)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report["overall_pass"]
    assert peak < DENSE_M2_BUDGET, f"traced peak {peak / 1e6:.2f} MB"


def test_the_dense_m2_structure_stretch_stays_within_its_memory_budget():
    rows, report = profile("complex_hyperbolic", 2, 128, 42)
    assert report["overall_pass"]
    peak, at = {name: (peak, at) for name, _, peak, at in rows}["structure"]
    assert peak < STRUCTURE_BUDGET, f"structure stretch peak {peak / 1e6:.2f} MB at {at}"


@pytest.mark.parametrize("m", [1, 2])
def test_a_run_evaluates_each_member_once(monkeypatch, m):
    # every cached member of each Pipeline and each WebsterSample (flat's gauge
    # sibling and the deformed control's sample included), per instance: releasing
    # a member never makes a later reader evaluate it again
    calls = Counter()
    instances = []  # held, so that no id is reused during the run

    def counted(cls, name, func):
        def member(self):
            instances.append(self)
            calls[cls.__name__, name, id(self)] += 1
            return func(self)

        return member

    members = 0
    for cls in (Pipeline, WebsterSample):
        for name, prop in vars(cls).items():
            if isinstance(prop, cached_property):
                monkeypatch.setattr(prop, "func", counted(cls, name, prop.func))
                members += 1
    assert members > 30
    report = run_all(SuiteConfig("all", m, points=2, seed=7))
    assert report["overall_pass"]
    assert calls and max(calls.values()) == 1, [key for key, n in calls.items() if n > 1]
    evaluated = {name for _, name, _ in calls}
    # the releases reach the Fefferman stage: what the sample hands over, f and its symbols
    assert {"webster_sample", "f_inputs", "f_sample", "f_metric", "t2_jets", "comparison"} <= evaluated


@pytest.mark.parametrize("records", [set(RECORDS) - {"negative"}, {"webster", "theorem2"}, {"fefferman"}])
def test_each_member_is_released_after_its_last_reader(records):
    pipe = Pipeline("fubini_study", 1, 3, 7, records)
    kept = {}
    for record in RECORDS:
        if record in records:
            pipe.read(record)
            kept[record] = set(vars(pipe))
    last = max(records, key=RECORDS.index)
    if records & {"structure", "webster", "comparison", "submersion"}:
        webster_stage = max(records - {"fefferman", "rescale", "theorem2"}, key=RECORDS.index)
        assert "webster_sample" in kept[webster_stage]
    # the Webster sample goes before the first record of f, once it has handed over
    first_f = min(records & {"fefferman", "rescale", "theorem2"}, key=RECORDS.index)
    assert "webster_sample" not in kept[first_f] and "fc" in kept[first_f]
    if "theorem2" in records:
        # of f_sample only the values of the rescaled metric are held through theorem2
        assert not {"f_metric", "f_inputs"} & kept["theorem2"]
        assert set(pipe.f_sample) == {"rescaled"} and len(pipe.f_sample["rescaled"]) == 1
    else:
        assert "f_metric" in kept[last]
    # a lazy read evaluates a released member again, to the same arrays
    fresh = Pipeline("fubini_study", 1, 3, 7, records)
    assert np.array_equal(pipe.webster_sample.ricci[0], fresh.webster_sample.ricci[0])
