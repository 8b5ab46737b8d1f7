"""Construction pipelines: catalog bases, circle bundles, Fefferman metrics."""

from collections import Counter

import numpy as np
import pytest

from crgeo.chart import jet_data_named
from crgeo.constructions import (
    anticanonical_structure,
    explicit_einstein_metric,
    fefferman_expression_residual,
    fefferman_metric,
    make_kahler_einstein,
    make_product_base,
    slice_identity_residual,
)
from crgeo.errors import PreconditionError, UsageError
from crgeo.pseudohermitian import WebsterSample
from conftest import explicit_trees, fefferman_tree, g_theta, rescale_trees


def kahler_residuals(ke, pts):
    # the base fields pulled back onto the base chart itself, on one batch
    data = jet_data_named(ke.sample_fields(ke.chart), pts)
    return ke.kahler_residuals(ke.levi_civita(data["h"]), data)


# ----------------------------------------------------------------------
# Kaehler-Einstein catalog
# ----------------------------------------------------------------------

def test_flat_base_invariants():
    ke = make_kahler_einstein("flat", 1)
    res = kahler_residuals(ke, ke.chart.sample(16, 42))
    assert max(v.max() for v in res.values()) < 1e-12
    assert ke.scal_h == 0.0


@pytest.mark.parametrize(
    "kind,m,expected_scal",
    [
        ("fubini_study", 1, 2.0),
        ("complex_hyperbolic", 1, -2.0),
        ("fubini_study", 2, 6.0),
        ("complex_hyperbolic", 2, -6.0),
        ("flat", 2, 0.0),
    ],
)
def test_catalog_scalar_curvatures(kind, m, expected_scal):
    from crgeo.metric import riemann

    ke = make_kahler_einstein(kind, m)
    assert ke.scal_h == pytest.approx(expected_scal)
    pts = ke.chart.sample(16, 42)
    np.testing.assert_allclose(riemann(ke.metric, pts).scalar, expected_scal, atol=1e-10)
    assert max(v.max() for v in kahler_residuals(ke, pts).values()) < 1e-9


def test_scale_parameter():
    ke = make_kahler_einstein("fubini_study", 1, scale=2.0)
    assert ke.scal_h == pytest.approx(1.0)
    res = kahler_residuals(ke, ke.chart.sample(8, 42))
    assert max(v.max() for v in res.values()) < 1e-10


def test_unsupported_dimension_rejected():
    with pytest.raises(UsageError):
        make_kahler_einstein("fubini_study", 3)
    with pytest.raises(UsageError):
        make_kahler_einstein("fubini_study", 1, scale=-1.0)
    with pytest.raises(UsageError):
        make_kahler_einstein("elliptic", 1)


# ----------------------------------------------------------------------
# nested samples
# ----------------------------------------------------------------------

def test_extended_charts_sample_their_base_points():
    # Chart.sample draws column by column: an extended chart's sample is its
    # base chart's sample on the leading coordinates, bit for bit
    from crgeo import Chart

    rng = np.random.default_rng(0)
    for _ in range(20):
        lo = rng.uniform(-3.0, 1.0, rng.integers(1, 5))
        hi = lo + rng.uniform(0.1, 4.0, len(lo))
        chart = Chart([f"x{i}" for i in range(len(lo))], zip(lo, hi))
        total = chart
        for k in range(rng.integers(1, 4)):
            a = rng.uniform(-3.0, 1.0)
            total = total.extend(f"s{k}", (a, a + rng.uniform(0.1, 4.0)))
        n, seed, margin = int(rng.integers(1, 40)), int(rng.integers(0, 10**6)), rng.uniform(0, 0.4)
        pts = total.sample(n, seed, margin)
        assert pts.shape == (n, total.dim) and pts.flags.c_contiguous
        assert np.array_equal(pts[:, : chart.dim], chart.sample(n, seed, margin))


@pytest.mark.parametrize("points", [1, 2, 32])
@pytest.mark.parametrize("seed", [7, 42])
def test_pipeline_samples_are_nested(points, seed):
    # the contact sample is the Fefferman sample without s, and the base
    # sample (that of the Kaehler chart) the contact sample without t
    from crgeo.verify import CATALOG, Pipeline

    for example, entry in CATALOG.items():
        for m in entry.ms:
            pipe = Pipeline(example, m, points, seed)
            base = pipe.ke.chart.sample(points, seed)
            assert np.array_equal(pipe.m_pts[:, : 2 * m], base)
            assert np.array_equal(pipe.webster_sample.pts, pipe.m_pts)
            if not entry.negative:
                assert np.array_equal(pipe.f_pts[:, :-1], pipe.m_pts)
                assert np.array_equal(pipe.t2_pts[:, : 2 * m], base)


# ----------------------------------------------------------------------
# anticanonical structure
# ----------------------------------------------------------------------

def test_flat_case_gives_heisenberg_type(pipeline):
    pipe = pipeline("flat", 1)
    ein = pipe.webster_record
    assert abs(ein["scal_mean"]) < 1e-12
    assert ein["webster_einstein"].max() < 1e-9


def test_scal_relation_positive_and_negative(pipeline):
    for kind, scal_w in [("fubini_study", 1.0), ("complex_hyperbolic", -1.0)]:
        pipe = pipeline(kind, 1)
        assert pipe.webster_record["scal_mean"] == pytest.approx(scal_w, abs=1e-9)


def test_dtheta_pullback_and_connection_curvature(pipeline):
    pipe = pipeline("fubini_study", 1)
    assert pipe.submersion_record["dtheta_pullback"].max() < 1e-8
    assert pipe.submersion_record["connection_curvature"].max() < 1e-8


def test_signature_strictly_pseudoconvex(pipeline):
    pipe = pipeline("fubini_study", 1)
    g_theta(pipe.ac.ph).verify_signature(pipe.m_pts)  # (2m+1, 0)


# ----------------------------------------------------------------------
# submersion relations
# ----------------------------------------------------------------------

def test_submersion_flat_base(pipeline):
    pipe = pipeline("flat", 1)
    rec = pipe.submersion_record
    assert rec["submersion_reeb_tt"].max() < 1e-10
    assert rec["submersion_reeb_mixed"].max() < 1e-10
    assert rec["submersion_base"].max() < 1e-10
    assert rec["submersion_webster"].max() < 1e-10


@pytest.mark.parametrize("kind", ["fubini_study", "complex_hyperbolic"])
def test_submersion_reproduces_base_ricci(pipeline, kind):
    pipe = pipeline(kind, 1)
    rec = pipe.submersion_record
    assert rec["submersion_base"].max() < 1e-7
    assert rec["submersion_webster"].max() < 1e-7


# ----------------------------------------------------------------------
# Fefferman metric
# ----------------------------------------------------------------------

def test_fefferman_normalization_catalog(pipeline):
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        rec = pipeline(kind, 1).fefferman_record
        assert rec["fefferman_normalization"].max() < 1e-12
        assert rec["fefferman_lightlike"].max() < 1e-12


def test_product_base_ricci_potential():
    # sphere_x_flat runs only the negative suite, whose theta reads gamma alone
    ke = make_product_base()
    res = kahler_residuals(ke, ke.chart.sample(16, 42))
    assert set(res) == {"kahler_potential", "kahler_parallel", "ricci_form_potential"}
    for name, per_point in res.items():
        assert per_point.max() < 1e-12, name


def test_fefferman_rejects_non_einstein():
    prod = make_product_base()
    ac = anticanonical_structure(prod)
    with pytest.raises(PreconditionError):
        fefferman_metric(ac, WebsterSample(ac.ph, ac.chart.sample(8, 42)))


def test_fefferman_rejects_a_nan_einstein_residual(pipeline, monkeypatch):
    # a comparison `res > tol` would let a NaN residual through
    from crgeo import constructions

    pipe = pipeline("fubini_study", 1)
    for bad in ({"webster_einstein": np.array([np.nan])},
                {"webster_scal_constant": np.array([np.nan])}):
        ein = {"webster_einstein": np.zeros(1), "webster_scal_constant": np.zeros(1),
               "scal_mean": 1.0, **bad}
        monkeypatch.setattr(constructions, "ph_einstein_residual", lambda ws: ein)
        with pytest.raises(PreconditionError, match="nan"):
            fefferman_metric(pipe.ac, pipe.webster_sample)


def test_fefferman_reads_the_sample_of_its_structure(pipeline):
    from crgeo.constructions import fefferman_sample, perturbed_structure

    pipe = pipeline("flat", 1)
    other = perturbed_structure(pipe.ac)
    with pytest.raises(ValueError):
        fefferman_metric(pipe.ac, WebsterSample(other, pipe.m_pts))
    # the Fefferman sample is assembled from what the sample of its structure at its
    # points without s hands over, once: a second read raises
    ws = WebsterSample(pipe.ac.ph, pipe.m_pts, extra={"h": pipe.ac.sample_fields["h"]})
    inputs = ws.fefferman_inputs()
    for bad in (dict(inputs, ph=other), dict(inputs, pts=pipe.m_pts[::-1])):
        with pytest.raises(ValueError, match="inputs must come from"):
            fefferman_sample(pipe.fc, bad, pipe.f_pts)
    with pytest.raises(ValueError, match="held for one read"):
        ws.fefferman_inputs()
    data = fefferman_sample(pipe.fc, inputs, pipe.f_pts)
    assert all(np.array_equal(data[name][0], pipe.f_sample[name][0]) for name in ("f", "frame"))
    assert not {"theta", "levi", "reeb", "h"} & set(inputs)  # taken out, so released once read


def _arrays(x):
    """Every array in nested dicts, lists and tuples."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (dict, list, tuple)):
        for item in x.values() if isinstance(x, dict) else x:
            yield from _arrays(item)


@pytest.mark.parametrize("n", [2, 129])
@pytest.mark.parametrize("example, m", [(e, m) for e in ("flat", "fubini_study", "complex_hyperbolic")
                                        for m in (1, 2)])
def test_the_samples_hand_out_one_layout(example, m, n):
    # every array of the Webster sample's batch (each field's jet data, g_theta, L and
    # the jets held for f), of each of its members, what the sample hands over to the
    # Fefferman sample and every array of that sample, its Webster values included, has
    # the point axis first, of length N, and is C-contiguous, as jet_data gives its
    # arrays: np.einsum can pick another inner loop for a strided operand, and so change
    # a residual's bits
    from crgeo.verify import Pipeline

    pipe = Pipeline(example, m, points=n, seed=7)
    ws = pipe.webster_sample
    assert (ws.ph, "fefferman") in ws.batch
    members = ("comparison", "horizontal", "solved_reeb", "projector", "jprojector", "dtheta_h",
               "levi_civita", "webster_symbols", "levi_frame", "curvature", "ricci", "lc_curvature",
               "reeb_ricci")
    held = [ws.batch, *(getattr(ws, name) for name in members)]
    held.append(dict(pipe.f_inputs))  # before f_sample takes its jets out
    held.append(pipe.f_sample)
    arrays = [a for x in held for a in _arrays(x)]
    assert len(arrays) > 80
    for a in arrays:
        assert a.shape[0] == n and a.flags.c_contiguous, a.shape


def test_fefferman_flat_expression(pipeline):
    # Ricci-flat gauge: f = h + (4/(m+2)) theta o (real rho_c), checked
    # against an independent assembly of the displayed expansion
    pipe = pipeline("flat", 1)
    res = fefferman_expression_residual(pipe.fc, pipe.f_sample["f"][0], pipe.f_sample)
    assert res.max() < 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_joint_metric_jets_equal_separate_evaluation(pipeline, m):
    # the premise of the reference trees' joint batches: a metric built from
    # another's components evaluates on one batch to the same bits as on its own
    from crgeo.chart import jet_data, jet_data_multi

    pipe = pipeline("complex_hyperbolic", m)
    pairs = [(fefferman_tree(pipe.fc), rescale_trees(pipe.fc)[1]), explicit_trees(pipe.ke, pipe.t2)[:2]]
    for fields in pairs:
        for n in (3, 16):
            pts = fields[0].chart.sample(n, 42)
            joint = jet_data_multi(list(fields), pts, 2)
            for field, arrays in zip(fields, joint):
                alone = jet_data(field, pts, 2)
                assert all(np.array_equal(a, b) for a, b in zip(arrays, alone))


def test_pipeline_evaluates_each_shared_metric_once(jet_calls):
    # theta, dtheta and J, of which the Webster sample assembles g_theta and f,
    # take one order-2 batch at m_pts; f and e^{2 phi} f take none at f_pts, and
    # the explicit metric and its unrescaled factor none at t2_pts
    from crgeo.verify import Pipeline

    pipe = Pipeline("fubini_study", 1, points=3, seed=7)
    for record in ("structure", "webster", "comparison", "submersion",
                   "fefferman", "rescale", "theorem2"):
        getattr(pipe, f"{record}_record")
    assert not any(np.array_equal(at, pts) for _, at, _ in jet_calls for pts in (pipe.f_pts, pipe.t2_pts))
    metrics = [pipe.ac.ph.theta, pipe.ac.ph.dtheta, pipe.ac.ph.J]
    batches = [
        fields for fields, at, order in jet_calls
        if order == 2 and np.array_equal(at, pipe.m_pts) and any(f in fields for f in metrics)
    ]
    assert len(batches) == 1
    assert all(f in batches[0] for f in metrics)
    g = g_theta(pipe.ac.ph).components  # g_theta's tree, whose components are interned
    assert not any(f.shape == g.shape and (f.components == g).all() for fields, _, _ in jet_calls for f in fields)


@pytest.mark.parametrize("example, m", [("flat", 1), ("fubini_study", 2)])
def test_fefferman_and_rescale_records_read_the_held_batches(jet_calls, example, m):
    # f_sample is assembled from the Webster sample's arrays with no jet call;
    # then the two records make none either: the contact frame, f, e^{2 phi} f,
    # phi and h are read from f_sample, the s = 0 slice of slice_identity
    # scales f's values there, and the Webster connection is read from the
    # pipeline's Webster sample, which building f has already read
    from crgeo.verify import Pipeline

    pipe = Pipeline(example, m, points=3, seed=7)
    pipe.webster_sample.batch
    jet_calls.clear()
    pipe.f_sample  # held before the records run
    assert jet_calls == []
    pipe.fefferman_record, pipe.rescale_record
    assert ("correction_structure" in pipe.rescale_record) == (example == "flat")
    assert jet_calls == []


@pytest.mark.parametrize("example, m", [("flat", 1), ("flat", 2), ("fubini_study", 1)])
def test_a_pipeline_inverts_f_once(monkeypatch, example, m):
    # f^-1 and the symbols of f are formed once per Fefferman sample
    # (Pipeline.f_metric): the fefferman rows and flat's conformal correction read them
    from crgeo.verify import Pipeline

    pipe = Pipeline(example, m, points=3, seed=7)
    fval = pipe.f_sample["f"][0]
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    for record in ("fefferman", "rescale", "theorem2"):
        getattr(pipe, f"{record}_record")
    assert ("correction_structure" in pipe.rescale_record) == (example == "flat")
    assert sum(a.shape == fval.shape and np.array_equal(a, fval) for a in inverted) == 1


def test_a_degenerate_f_fails_every_fefferman_row(monkeypatch):
    # f^-1 is formed with the singularity check of every metric inverse, so a
    # degenerate f names itself in each row
    from crgeo import verify

    real = verify.fefferman_sample

    def degenerate(*args):
        data = real(*args)
        data["f"] = [np.zeros_like(a) for a in data["f"]]
        return data

    monkeypatch.setattr(verify, "fefferman_sample", degenerate)
    cfg = verify.SuiteConfig("flat", 1, suites=("fefferman",), points=2)
    rows = verify.run_suite(cfg)["checks"]
    assert len(rows) == len(cfg.selected_checks()) > 0
    assert all(not row["pass"] and row["error"].startswith("DegeneracyError: singular metric") for row in rows)


@pytest.mark.parametrize("m", [1, 2])
def test_a_catalog_run_makes_4_jet_calls(jet_calls, m):
    # one per entry: the Webster sample of each regular entry and of the
    # non-Einstein control (m = 2), and the deformed structure's (m = 1).  None
    # is made on the Fefferman chart or on the explicit metrics' charts
    from crgeo.verify import SuiteConfig, run_all

    assert run_all(SuiteConfig("all", m, points=2))["overall_pass"]
    assert len(jet_calls) == 4


@pytest.mark.parametrize("example, m", [("fubini_study", 1), ("complex_hyperbolic", 2)])
def test_a_wrongly_declared_levi_signature_fails_every_fefferman_row(monkeypatch, example, m):
    # the Levi form of a catalog structure is positive definite: declared
    # (0, m), g_theta's values at the Webster sample refute the signature
    # (1, 2m) that f's is declared from
    from crgeo import verify

    real = verify.anticanonical_structure

    def redeclared(ke):
        ac = real(ke)
        ac.ph.levi_signature = (0, ac.m)
        return ac

    monkeypatch.setattr(verify, "anticanonical_structure", redeclared)
    cfg = verify.SuiteConfig(example, m, suites=("fefferman",), points=4)
    rows = verify.run_suite(cfg)["checks"]
    assert len(rows) == len(cfg.selected_checks()) > 0
    assert all(not row["pass"] and row["error"].startswith(
        f"DegeneracyError: eigenvalue signs ({2 * m + 1}, 0) at sample point 0 do not match "
        f"declared signature (1, {2 * m})"
    ) for row in rows)


def test_slice_identity_reads_the_run_points(monkeypatch):
    # the slice is the Fefferman sample with s set to 0, at every run point: its
    # conformal factor is read there, at order 0, and scales f's values
    from crgeo import constructions
    from crgeo.verify import Pipeline

    pipe = Pipeline("fubini_study", 1, points=32, seed=42)
    pipe.f_sample
    calls = []
    real = constructions._conformal_factor
    monkeypatch.setattr(constructions, "_conformal_factor",
                        lambda pts, order: calls.append((np.array(pts), order)) or real(pts, order))
    rec = pipe.rescale_record
    ((at, order),) = calls
    expected = pipe.f_pts.copy()
    expected[:, -1] = 0.0
    assert np.array_equal(at, expected) and order == 0
    assert rec["slice_identity"].shape == (32,)
    assert pipe.f_pts[:, -1].all()  # the held sample is not moved onto the slice


def test_no_field_is_evaluated_twice_per_sample(jet_calls):
    # every record reads its fields from batches held once per sample, the
    # nested samples included, and the base fields at the contact sample
    from collections import Counter

    from crgeo.chart import ScalarField
    from crgeo.verify import Pipeline

    pipe = Pipeline("fubini_study", 2, points=3, seed=7)
    for record in ("structure", "webster", "comparison", "submersion",
                   "fefferman", "rescale", "theorem2"):
        getattr(pipe, f"{record}_record")
    # the Fefferman sample and the explicit metrics are assembled from the
    # contact sample's arrays
    samples = {"m": pipe.m_pts}
    assert not any(np.array_equal(at, pts) for _, at, _ in jet_calls for pts in (pipe.f_pts, pipe.t2_pts))

    def key(field):
        # a field built twice from the same interned components is one field
        return (field,) if isinstance(field, ScalarField) else tuple(field.components.flat)

    seen = Counter()
    for fields, at, _ in jet_calls:
        for name, pts in samples.items():
            if at.shape == pts.shape and np.array_equal(at, pts):
                seen.update((k, name) for k in {key(f) for f in fields})
    assert {name for _, name in seen} == set(samples)
    assert max(seen.values()) == 1


@pytest.mark.parametrize("example, m", [("flat", 1), ("fubini_study", 2), ("complex_hyperbolic", 1)])
def test_no_pulled_back_operand_is_evaluated_twice_per_sample(monkeypatch, example, m):
    # over every plan of a pipeline, the base- and contact-chart nodes that
    # pull-backs read are evaluated into the pipeline's one batch once per
    # (node, context) and sample, at one order, however many calls read them:
    # the Webster sample (nodes under an operand are not held, and may repeat).
    # Only base-chart nodes are pulled back: no call is made on the Fefferman
    # chart, the one chart that pulls back the contact chart's, nor on the
    # explicit metrics' charts
    from collections import Counter

    from crgeo import chart as chart_module
    from crgeo.verify import Pipeline

    evaluated = []
    real_init, real_run = chart_module._Plan.__init__, chart_module._Plan.run

    def init(self, chart, fields=(), keys=(), orders=()):
        self.test_keys = list(zip(keys, orders[len(fields):]))
        real_init(self, chart, fields, keys, orders)

    def run(self, pts, held, start):
        evaluated.extend((key, order, held, pts[:, :self.dim].tobytes()) for key, order in self.test_keys)
        return real_run(self, pts, held, start)

    monkeypatch.setattr(chart_module._Plan, "__init__", init)
    monkeypatch.setattr(chart_module._Plan, "run", run)
    pipe = Pipeline(example, m, points=3, seed=7)
    for record in ("structure", "webster", "comparison", "submersion",
                   "fefferman", "rescale", "theorem2"):
        getattr(pipe, f"{record}_record")
    assert {key[0].chart for key, *_ in evaluated} == {pipe.ke.chart}
    assert {held for _, _, held, _ in evaluated} == {pipe.held}
    counts = Counter((key, pts) for key, _, _, pts in evaluated)
    assert max(counts.values()) == 1
    # h and gamma at order 2: read by the base record, the explicit metric and the Sasaki factor
    for field in (pipe.ke.metric.components[0, 0], pipe.ke.gamma.components[0]):
        assert [order for key, order, _, _ in evaluated if key == (field, chart_module._ROOT)] == [2]


def test_fefferman_ricci_isotropic_flat(pipeline):
    pipe = pipeline("flat", 1)
    rec = pipe.fefferman_record
    assert rec["fefferman_ricci_components"].max() < 1e-10  # Ric(T*,T*) = Ric(T*,P) = 0 when S_W = 0
    from crgeo.metric import riemann

    curv = riemann(fefferman_tree(pipe.fc), pipe.f_pts)
    pval = pipe.f_sample["frame"][0][:, 0]  # P = d/ds
    ric_pp = np.einsum("nij,ni,nj->n", curv.ricci, pval, pval)
    np.testing.assert_allclose(ric_pp, 0.5, atol=1e-10)  # m/2 with m = 1


def test_fefferman_parallel_field(pipeline):
    for kind in ("fubini_study", "complex_hyperbolic"):
        rec = pipeline(kind, 1).fefferman_record
        assert rec["parallel_vertical_field"].max() < 1e-8
        assert rec["killing_reeb_lift"].max() < 1e-8


def test_fefferman_never_einstein(pipeline):
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        assert pipeline(kind, 1).fefferman_record["non_einstein_certificate"].min() > 1e-2


def test_fefferman_lorentzian_signature(pipeline):
    pipe = pipeline("fubini_study", 1)
    fefferman_tree(pipe.fc).verify_signature(pipe.f_pts)  # (3, 1)


# ----------------------------------------------------------------------
# conformal rescaling
# ----------------------------------------------------------------------

def test_rescale_flat_is_ricci_flat(pipeline):
    pipe = pipeline("flat", 1)
    rec = pipe.rescale_record
    assert pipe.rm.einstein_constant == 0.0
    assert rec["rescaled_einstein"].max() < 1e-6
    assert rec["conformal_ode"].max() < 1e-10


def test_rescale_constants(pipeline):
    # lambda = (2m+1) scal_h / (4m(m+1)); scal = (2m+1)/(2m) scal_h
    pipe = pipeline("fubini_study", 1)
    assert pipe.rm.einstein_constant == pytest.approx(0.75)
    rec = pipe.rescale_record
    assert rec["rescaled_einstein"].max() < 1e-6
    assert rec["rescaled_scalar"].max() < 1e-6  # relative error against scal = 3


def test_rescale_slice_identity(pipeline):
    pipe = pipeline("fubini_study", 1)
    assert slice_identity_residual(pipe.rm, pipe.f_pts, pipe.f_sample["f"][0]).max() < 1e-12


@pytest.mark.parametrize(
    "example, m", [(e, m) for e in ("flat", "fubini_study", "complex_hyperbolic") for m in (1, 2)]
)
def test_slice_identity_equals_its_trees(pipeline, example, m):
    # the row scales f's values by e^{2 phi} on the s = 0 slice: the trees of f and
    # e^{2 phi} f, evaluated there, give its residual bit for bit, and f's tree there
    # the values of f at the run points, on which f does not depend through s
    from crgeo.chart import jet_data_multi
    from crgeo.metric import point_max

    pipe = pipeline(example, m)
    at = pipe.f_pts.copy()
    at[:, -1] = 0.0
    (g_rm,), (g_f,) = jet_data_multi([rescale_trees(pipe.fc)[1], fefferman_tree(pipe.fc)], at, 0)
    assert np.array_equal(g_f, pipe.f_sample["f"][0])
    assert np.array_equal(pipe.rescale_record["slice_identity"], point_max(g_rm - g_f))


@pytest.mark.parametrize("example", ["flat", "fubini_study"])
def test_slice_identity_detects_a_wrong_conformal_factor(monkeypatch, example):
    # e^{2 phi} off by a relative 1e-9, as a wrong normalisation of phi makes it
    from crgeo import constructions
    from crgeo.verify import SuiteConfig, run_suite

    real = constructions._conformal_factor

    def scaled(pts, order):
        phi, factor = real(pts, order)
        return phi, [a * (1.0 + 1e-9) for a in factor]

    monkeypatch.setattr(constructions, "_conformal_factor", scaled)
    rows = run_suite(SuiteConfig(example, 1, suites=("rescale",), points=4))["checks"]
    (row,) = [row for row in rows if row["name"] == "slice_identity"]
    assert not row["pass"] and row["max_residual"] > 1e-12


def test_correction_structure_flat(pipeline):
    # phi = phi(t): the conformal correction is supported on (P, P) only
    pipe = pipeline("flat", 1)
    assert pipe.rescale_record["correction_structure"].max() < 1e-8


def test_rescale_out_of_range_points_rejected(pipeline):
    from crgeo.errors import DomainError

    pipe = pipeline("flat", 1)
    bad = pipe.f_pts.copy()
    bad[0, -1] = 3.5  # outside the fiber interval (-2.8, 2.8), cos would vanish later
    with pytest.raises(DomainError):
        rescale_trees(pipe.fc)[1](bad)
    with pytest.raises(DomainError):  # the slice is read at the points given, s set to 0
        slice_identity_residual(pipe.rm, bad, pipe.f_sample["f"][0])


# ----------------------------------------------------------------------
# explicit Einstein charts
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kind,m,lam",
    [
        ("flat", 1, 0.0),
        ("fubini_study", 1, 0.75),
        ("complex_hyperbolic", 1, -0.75),
        ("fubini_study", 2, 1.25),
    ],
)
def test_explicit_einstein_constants(pipeline, kind, m, lam):
    pipe = pipeline(kind, m)
    assert pipe.t2.einstein_constant == pytest.approx(lam)
    rec = pipe.theorem2_record
    assert rec["explicit_einstein"].max() < 1e-6
    assert rec["explicit_signature"] == 0.0


def test_explicit_scalar_value(pipeline):
    # scal = (2m+1)/(2m) scal_h = 3 for the round base, m = 1
    from crgeo.metric import riemann

    pipe = pipeline("fubini_study", 1)
    scal = riemann(explicit_trees(pipe.ke, pipe.t2)[0], pipe.t2_pts).scalar
    np.testing.assert_allclose(scal, 3.0, atol=1e-9)


def test_explicit_negative_case(pipeline):
    from crgeo.metric import riemann

    pipe = pipeline("complex_hyperbolic", 1)
    metric = explicit_trees(pipe.ke, pipe.t2)[0]
    scal = riemann(metric, pipe.t2_pts).scalar
    np.testing.assert_allclose(scal, -3.0, atol=1e-9)
    assert metric.signature == pipe.t2.signature == (3, 1)
    metric.verify_signature(pipe.t2_pts)


def test_pipeline_agreement_under_identification(pipeline):
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        pipe = pipeline(kind, 1)
        assert pipe.theorem2_record["pipeline_agreement"].max() < 1e-6


def test_sasaki_cross_check(pipeline):
    pipe = pipeline("fubini_study", 1)
    rec = pipe.theorem2_record
    assert rec["sasaki_einstein"].max() < 1e-6
    assert rec["sasaki_product"].max() < 1e-12
    assert rec["sasaki_product_curvature"].max() < 1e-8
    # Einstein constant of the circle-bundle factor: scal_h / (2(m+1)) = 1/2
    assert pipe.t2.sasaki_constant == pytest.approx(0.5)


@pytest.mark.parametrize("kind", ["fubini_study", "complex_hyperbolic"])
def test_sasaki_factor_is_checked_at_the_run_points(jet_calls, kind):
    # the Sasaki factor is assembled at the theorem-2 points without t, with no
    # jet call: its row is that of its tree there, and the seed moves it as it
    # moves every other theorem2 row
    from crgeo.chart import jet_data
    from crgeo.metric import _christoffel_arrays, levi_civita_ricci, point_max
    from crgeo.verify import Pipeline

    rows = {}
    for seed in (7, 42):
        pipe = Pipeline(kind, 1, points=2, seed=seed)
        pipe.t2_base
        jet_calls.clear()
        rows[seed] = pipe.theorem2_record["sasaki_einstein"]
        assert jet_calls == []
        s_jets = jet_data(explicit_trees(pipe.ke, pipe.t2)[2], pipe.t2_pts[:, :-1], 2, pipe.held)
        s_ricci, _ = levi_civita_ricci(s_jets, *_christoffel_arrays(*s_jets[:2]))
        assert np.array_equal(rows[seed], point_max(s_ricci - pipe.t2.sasaki_constant * s_jets[0]))
    # per point: the ulp-level maxima of the two seeds may coincide
    assert not np.array_equal(rows[7], rows[42])


@pytest.mark.parametrize(
    "kind,m", [(kind, m) for kind in ("flat", "fubini_study", "complex_hyperbolic") for m in (1, 2)]
)
def test_only_operator_records_build_the_operator(monkeypatch, kind, m):
    # the base, rescaled, explicit and Sasaki rows read Ricci from the metric
    # jets: dGamma is built for the Webster symbols and f, the operator for
    # R_W and the Levi-Civita curvature of g_theta and f, and the gauge
    # sample of flat adds one structure
    from crgeo import constructions, metric, pseudohermitian
    from crgeo.verify import Pipeline

    calls = Counter()

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for mod in (metric, constructions):
        monkeypatch.setattr(mod, "_dchristoffel_arrays", spy("dgamma", mod._dchristoffel_arrays))
    for mod in (metric, pseudohermitian, constructions):
        monkeypatch.setattr(
            mod, "curvature_from_connection", spy("operator", mod.curvature_from_connection)
        )
    pipe = Pipeline(kind, m, points=2, seed=7)
    for record in ("structure", "webster", "comparison", "submersion", "fefferman", "rescale",
                   "theorem2"):
        getattr(pipe, f"{record}_record")
    gauge = int(pipe.applies("gauge_scal_invariance"))
    assert calls == {"dgamma": 2 + gauge, "operator": 3 + gauge}


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("points", [1, 2, 129])
@pytest.mark.parametrize(
    "example, m", [(e, m) for e in ("flat", "fubini_study", "complex_hyperbolic") for m in (1, 2)]
)
def test_the_assembled_explicit_metrics_equal_their_trees(example, m, points, seed):
    # the explicit metric, its unrescaled product and the Sasaki factor (the
    # product without the line t) at t2_pts, and the explicit metric's values at
    # the identified Fefferman points, equal their trees' jet data, evaluated on
    # the pipeline's held h and gamma; 129 points make two point blocks
    from crgeo.chart import jet_data, jet_data_multi
    from crgeo.verify import Pipeline

    pipe = Pipeline(example, m, points, seed)
    pipe.t2_base
    g, u, sasaki = explicit_trees(pipe.ke, pipe.t2)
    for arrays, tree in zip(pipe.t2_jets, jet_data_multi([g, u], pipe.t2_pts, 2, pipe.held)):
        assert all(np.array_equal(a, b) for a, b in zip(arrays, tree))
    assert (sasaki is None) == (example == "flat")
    if sasaki is not None:
        tree = jet_data(sasaki, pipe.t2_pts[:, :-1], 2, pipe.held)
        line = (slice(None),) + (slice(-1),) * (2 * m + 2)
        assert all(np.array_equal(a[line[:a.ndim]], b) for a, b in zip(pipe.t2_jets[1], tree))
    mapped = pipe.f_pts @ pipe.t2.identification.T
    assembled = pipe.t2.jets(pipe.t2_base, mapped, 0)[0]
    assert len(assembled) == 1 and np.array_equal(assembled[0], jet_data(g, mapped, 0, pipe.held)[0])


@pytest.mark.parametrize(
    "example, m", [(e, m) for e in ("flat", "fubini_study", "complex_hyperbolic") for m in (1, 2)]
)
def test_the_theorem2_record_builds_no_tree_and_makes_no_jet_call(monkeypatch, jet_calls, example, m):
    # the explicit metrics are assembled from h and gamma, taken from the
    # Webster sample before it goes: no Chart.node call and no jet call
    from crgeo import chart
    from crgeo.verify import RECORDS, Pipeline

    pipe = Pipeline(example, m, 2, 7, set(RECORDS) - {"negative"})
    for record in RECORDS[:RECORDS.index("theorem2")]:
        pipe.read(record)
    assert "webster_sample" not in vars(pipe) and "t2_base" in vars(pipe)
    nodes = []
    real = chart.Chart.node
    monkeypatch.setattr(chart.Chart, "node", lambda *args, **kwargs: nodes.append(1) or real(*args, **kwargs))
    jet_calls.clear()
    rec = pipe.read("theorem2")
    assert nodes == [] and jet_calls == []
    assert rec["explicit_signature"] == 0.0 and rec["pipeline_agreement"].max() < 1e-6


def test_the_explicit_signature_is_declared_from_h(monkeypatch):
    # h declared (2p, 2q) declares the explicit metric (2p + 1, 2q + 1): the round
    # base's h re-declared (2, 2) declares (3, 3), which the explicit metric's
    # values refute, and moves no other theorem2 row
    from crgeo import verify

    cfg = verify.SuiteConfig("fubini_study", 2, suites=("theorem2",), points=4)
    rows = {row["name"]: row for row in verify.run_suite(cfg)["checks"]}
    assert verify.Pipeline("fubini_study", 2, 4, 42).t2.signature == (5, 1)
    real = verify.make_kahler_einstein

    def redeclared(kind, m):
        ke = real(kind, m)
        ke.metric.signature = (2, 2)
        return ke

    monkeypatch.setattr(verify, "make_kahler_einstein", redeclared)
    assert verify.Pipeline("fubini_study", 2, 4, 42).t2.signature == (3, 3)
    moved = {row["name"]: row for row in verify.run_suite(cfg)["checks"]}
    assert rows["explicit_signature"]["max_residual"] == 0.0 and rows["explicit_signature"]["pass"]
    assert moved["explicit_signature"]["max_residual"] == 1.0 and not moved["explicit_signature"]["pass"]
    del rows["explicit_signature"], moved["explicit_signature"]
    assert moved == rows and len(rows) == 6


def test_explicit_requires_einstein_base():
    with pytest.raises(PreconditionError):
        explicit_einstein_metric(make_product_base())


# ----------------------------------------------------------------------
# full pipeline consistency at m = 2
# ----------------------------------------------------------------------

def test_m2_pipeline_consistency(pipeline):
    pipe = pipeline("fubini_study", 2)
    assert pipe.webster_record["scal_mean"] == pytest.approx(3.0, abs=1e-8)
    assert pipe.fefferman_record["fefferman_ricci_closed_form"].max() < 1e-6
    assert pipe.rescale_record["rescaled_einstein"].max() < 1e-6
    assert pipe.theorem2_record["pipeline_agreement"].max() < 1e-6


# ----------------------------------------------------------------------
# curvature invariants across the catalog metrics
# ----------------------------------------------------------------------

def test_curvature_symmetries_catalog(pipeline, riemann_symmetries):
    """Riemann symmetries and first Bianchi on every catalog metric layer."""
    cases = []
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        for m in (1, 2):
            pipe = pipeline(kind, m)
            cases.append((pipe.ke.metric, pipe.m_pts[:, : 2 * m]))
    pipe = pipeline("fubini_study", 1)
    cases.append((g_theta(pipe.ac.ph), pipe.m_pts))  # induced contact metric
    cases.append((fefferman_tree(pipe.fc), pipe.f_pts))  # Lorentzian Fefferman metric
    for metric, pts in cases:
        res = riemann_symmetries(metric, pts)
        assert max(res.values()) < 1e-9
