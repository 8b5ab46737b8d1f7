"""Pseudo-Hermitian structures and the Tanaka-Webster connection."""

import numpy as np
import pytest

from crgeo import Chart, Endomorphism, OneForm, lie_bracket
from crgeo.errors import DegeneracyError, PreconditionError
from crgeo.metric import point_max
from crgeo.pseudohermitian import (
    ReebField,
    axiom_residuals,
    comparison_identities_residual,
    curvature_symmetry_residual,
    levi_adapted_frame,
    ph_einstein_residual,
    solved_reeb_field,
    transversal_symmetry_residual,
    webster_connection,
)

BASE_J = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def pts(heisenberg):
    return heisenberg.chart.sample(16, 42)


# ----------------------------------------------------------------------
# Reeb field
# ----------------------------------------------------------------------

def test_heisenberg_reeb_is_vertical(heisenberg, pts):
    reeb = heisenberg.reeb(pts)
    np.testing.assert_allclose(reeb, np.tile([0.0, 0.0, -1.0], (len(pts), 1)), atol=1e-14)
    assert heisenberg.reeb_residual(pts).max() < 1e-10
    # algebra on the solved field gives a plain vector field
    assert np.array_equal(heisenberg.reeb.scaled(2.0)(pts), 2.0 * reeb)


def test_scaled_gauge_reeb():
    # theta = -(2m/s)(dt + (s/2m) gamma): the Reeb field is -(s/2m) d_t
    from crgeo.constructions import anticanonical_structure, make_kahler_einstein

    ke = make_kahler_einstein("fubini_study", 1)  # scal_h = 2, m = 1
    ac = anticanonical_structure(ke)
    p = ac.chart.sample(8, 42)
    reeb = ac.ph.reeb(p)
    np.testing.assert_allclose(reeb[:, -1], -1.0, atol=1e-14)  # -s/2m = -1
    np.testing.assert_allclose(reeb[:, :-1], 0.0, atol=1e-14)
    # the generic linear solve agrees with the closed-form gauge field
    solved = solved_reeb_field(ac.ph)
    assert np.abs(solved(p) - reeb).max() < 1e-10


def test_non_contact_form_rejected():
    chart = Chart(["x", "y", "t"], [(-1.0, 1.0)] * 3)
    theta = OneForm(chart, [chart.constant(0.0)] * 2 + [chart.constant(1.0)])  # dt, dtheta = 0
    reeb = ReebField(theta, __import__("crgeo.chart", fromlist=["exterior_derivative"]).exterior_derivative(theta))
    with pytest.raises(DegeneracyError):
        reeb(chart.sample(4, 42))


# ----------------------------------------------------------------------
# structure residuals and the induced metric
# ----------------------------------------------------------------------

def test_lifted_complex_structure_algebra(heisenberg, pts):
    # algebra on the lifted J gives a plain endomorphism
    jval = heisenberg.J(pts)
    for doubled in (heisenberg.J.scaled(2.0), heisenberg.J + heisenberg.J):
        assert type(doubled) is Endomorphism
        assert np.array_equal(doubled(pts), 2.0 * jval)


def test_field_listed_before_its_reader_in_one_batch(heisenberg, pts):
    # one batch drops each field's own jet once read back; a later field
    # built on it (J X reads the lifted J, which reads the solved Reeb field)
    # still gets the arrays it gets alone
    from crgeo.chart import jet_data, jet_data_multi

    assert isinstance(heisenberg.reeb, ReebField)
    x = heisenberg.horizontal_fields()[0]
    fields = [heisenberg.reeb, heisenberg.J, x, heisenberg.J.apply(x)]
    for field, arrays in zip(fields, jet_data_multi(fields, pts, 2)):
        assert all(np.array_equal(a, b) for a, b in zip(arrays, jet_data(field, pts, 2)))


def test_heisenberg_structure_residuals(heisenberg, pts):
    res = heisenberg.structure_residuals(pts)
    assert res["contact_nondegenerate"].min() > 1e-10
    assert res["complex_structure"].max() < 1e-10
    assert res["levi_symmetric"].max() < 1e-10
    assert res["cr_integrability"].max() < 1e-8


def test_g_theta_decomposition(heisenberg, pts):
    g = heisenberg.metric
    gval = g(pts)
    reeb = heisenberg.reeb(pts)
    # g(T, T) = 1
    np.testing.assert_allclose(np.einsum("nij,ni,nj->n", gval, reeb, reeb), 1.0, atol=1e-12)
    # g restricted to H equals the Levi form
    lval = heisenberg.levi_form(pts)
    proj = heisenberg.h_projector(pts)
    gh = np.einsum("nia,nij,njb->nab", proj, gval, proj)
    lh = np.einsum("nia,nij,njb->nab", proj, lval, proj)
    np.testing.assert_allclose(gh, lh, atol=1e-12)
    g.verify_signature(pts)  # (3, 0): strictly pseudoconvex


def test_levi_frame_normalization(heisenberg, pts):
    frame, eps = levi_adapted_frame(heisenberg, pts)
    lval = heisenberg.levi_form(pts)
    gram = np.einsum("nai,nij,nbj->nab", frame, lval, frame)
    expected = np.stack([np.diag([e, e]) for e in eps[:, 0]])
    np.testing.assert_allclose(gram, expected, atol=1e-10)
    assert (eps == 1.0).all()


# ----------------------------------------------------------------------
# transversal symmetry
# ----------------------------------------------------------------------

def test_heisenberg_tsph(heisenberg, pts):
    from crgeo.metric import killing_residual

    assert transversal_symmetry_residual(heisenberg, pts).max() < 1e-12
    assert killing_residual(heisenberg.metric, heisenberg.reeb, pts).max() < 1e-12


def reference_integrability(ph, pts):
    """Nijenhuis residual with every bracket a ``lie_bracket`` field on its own jet batch."""
    fields = ph.horizontal_fields()
    jf = [ph.J.apply(x) for x in fields]
    jval, tval = ph.J(pts), ph.theta(pts)
    terms = []
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            x, y, jx, jy = fields[i], fields[j], jf[i], jf[j]
            b1 = lie_bracket(jx, y)(pts) + lie_bracket(x, jy)(pts)
            expr = (
                np.einsum("nab,nb->na", jval, b1)
                - lie_bracket(jx, jy)(pts)
                + lie_bracket(x, y)(pts)
            )
            terms += [expr, np.einsum("na,na->n", tval, b1)]
    return point_max(*terms)


def reference_tsph(ph, pts):
    """max over X_i of |[T,X] + J[T,JX]| / |X|_g with ``lie_bracket`` fields."""
    jval, gval = ph.J(pts), ph.metric(pts)
    terms = []
    for x in ph.horizontal_fields():
        expr = lie_bracket(ph.reeb, x)(pts) + np.einsum(
            "nab,nb->na", jval, lie_bracket(ph.reeb, ph.J.apply(x))(pts)
        )
        norm = np.sqrt(np.abs(np.einsum("nij,ni,nj->n", gval, x(pts), x(pts))))
        terms.append(np.abs(expr).max(axis=1) / np.maximum(norm, 1e-12))
    return np.max(terms, axis=0)


def oracle_structures(heisenberg, pipeline):
    from crgeo.constructions import perturbed_structure

    yield "heisenberg", heisenberg, heisenberg.chart.sample(8, 42)
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        for m in (1, 2):
            pipe = pipeline(kind, m)
            yield f"{kind} m={m}", pipe.ac.ph, pipe.m_pts[:8]
    pipe = pipeline("flat", 1)
    yield "perturbed", perturbed_structure(pipe.ac), pipe.m_pts[:8]


def test_batched_brackets_match_the_bracket_fields(heisenberg, pipeline):
    # the residuals take every bracket from one order-1 jet batch
    for label, ph, pts in oracle_structures(heisenberg, pipeline):
        for new, ref in [
            (ph.integrability_residual(pts), reference_integrability(ph, pts)),
            (transversal_symmetry_residual(ph, pts), reference_tsph(ph, pts)),
        ]:
            np.testing.assert_allclose(new, ref, rtol=1e-14, atol=1e-14, err_msg=label)
        if label == "perturbed":
            # an order-one residual, so the comparison above is not vacuous
            assert transversal_symmetry_residual(ph, pts).min() > 1e-3


def test_theorem_structures_are_tsph(pipeline):
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        pipe = pipeline(kind, 1)
        res = transversal_symmetry_residual(pipe.ac.ph, pipe.m_pts)
        assert res.max() < 1e-10


def test_perturbed_structure_fails_tsph(pipeline):
    pipe = pipeline("perturbed_non_tsph", 1)
    assert pipe.negative_record["non_tsph_detected"] > 1e-3
    assert pipe.negative_record["control_still_contact"].min() > 1e-10


def test_webster_connection_precondition(pipeline):
    from crgeo.constructions import perturbed_structure

    pipe = pipeline("flat", 1)
    php = perturbed_structure(pipe.ac)
    with pytest.raises(PreconditionError):
        webster_connection(php)


# ----------------------------------------------------------------------
# Webster connection and curvature
# ----------------------------------------------------------------------

def test_heisenberg_webster_axioms(heisenberg, pts):
    ws = webster_connection(heisenberg).at(pts)
    res = axiom_residuals(ws)
    assert max(v.max() for v in res.values()) < 1e-12


def test_heisenberg_horizontal_frames_parallel(heisenberg, pts):
    # flat model: the Webster derivative of the projected frames vanishes
    from crgeo.chart import jet_data
    from crgeo.metric import covariant_from_arrays

    gamma_w = webster_connection(heisenberg).at(pts).webster_symbols[0]
    for field in heisenberg.horizontal_fields()[:2]:
        nabla = covariant_from_arrays(*jet_data(field, pts, 1), gamma_w, field.variance)
        assert np.abs(nabla).max() < 1e-12


def test_heisenberg_webster_flat(heisenberg, pts):
    ws = webster_connection(heisenberg).at(pts)
    assert np.abs(ws.curvature[1]).max() < 1e-12
    assert np.abs(ws.ricci[0]).max() < 1e-12
    assert np.abs(ws.ricci[1]).max() < 1e-12


def test_connection_data_is_shared_across_records(monkeypatch):
    # the webster, comparison and submersion records read one Webster sample at m_pts
    import sys

    from crgeo import chart, pseudohermitian
    from crgeo.verify import Pipeline

    pipe = Pipeline("fubini_study", 2, points=4, seed=7)
    wd, pts = pipe.ac.webster, pipe.m_pts
    pipe.structure_record  # the webster record reads its bracket residual
    real = chart.jet_data_multi
    calls = []

    def counting(fields, at, order):
        calls.append((list(fields), np.array(at), order))
        return real(fields, at, order)

    for mod in [m for name, m in sys.modules.items() if name.startswith("crgeo")]:
        if getattr(mod, "jet_data_multi", None) is real:
            monkeypatch.setattr(mod, "jet_data_multi", counting)
    frames, curvatures = [], []
    real_frame = pseudohermitian._levi_frame
    real_curvature = pseudohermitian.curvature_from_connection

    def counting_frame(lval, proj, jval, m):
        frames.append(np.array(lval))
        return real_frame(lval, proj, jval, m)

    def counting_curvature(gamma, dgamma, g):
        curvatures.append(np.array(g))
        return real_curvature(gamma, dgamma, g)

    monkeypatch.setattr(pseudohermitian, "_levi_frame", counting_frame)
    monkeypatch.setattr(pseudohermitian, "curvature_from_connection", counting_curvature)
    for record in ("webster", "comparison", "submersion"):
        getattr(pipe, f"{record}_record")
    at_m = [c for c in calls if np.array_equal(c[1], pts)]
    # 8 when the Levi form and frame evaluated their own fields, 25 when each
    # record did
    assert len(at_m) <= 3
    connection = [c[2] for c in at_m if c[0] == [wd.metric, wd.comparison]]
    assert connection == [2]
    # the Levi frame is built once, from the held values
    assert len(frames) == 1 and len(frames[0]) == len(pts)
    # R_W is built once; the Levi-Civita curvature goes through metric's binding
    assert len(curvatures) == 1


def test_connection_data_is_read_only_and_held(heisenberg, pts, monkeypatch):
    from functools import cached_property

    from crgeo import pseudohermitian
    from crgeo.pseudohermitian import WebsterSample

    real = pseudohermitian.jet_data_multi
    calls = []

    def counting(fields, at, order):
        calls.append(order)
        return real(fields, at, order)

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        items = value if isinstance(value, (tuple, list)) else vars(value).values()
        return [a for item in items for a in arrays(item)]

    monkeypatch.setattr(pseudohermitian, "jet_data_multi", counting)
    ws = webster_connection(heisenberg).at(pts)
    calls.clear()  # the transversal-symmetry gate of webster_connection
    axiom_residuals(ws)
    comparison_identities_residual(ws)
    ph_einstein_residual(ws)
    # one order-2 connection batch and one order-1 contact batch serve all three
    assert sorted(calls) == [1, 2]
    members = [n for n, v in vars(WebsterSample).items() if isinstance(v, cached_property)]
    assert {"connection_jets", "contact_jets", "curvature", "lc_curvature"} <= set(members)
    for name in members:
        assert getattr(ws, name) is getattr(ws, name)
        for arr in arrays(getattr(ws, name)):
            with pytest.raises(ValueError):
                arr[...] = 0.0
    assert sorted(calls) == [1, 2]


@pytest.mark.parametrize("n", [1, 2, 32])
@pytest.mark.parametrize(
    "example, m",
    [("flat", 1), ("flat", 2), ("fubini_study", 1), ("fubini_study", 2),
     ("complex_hyperbolic", 1), ("complex_hyperbolic", 2), ("sphere_x_flat", 2)],
)
def test_sample_batches_equal_separate_evaluation(example, m, n):
    # the sample's joint batches give the bits of the separate calls they replace
    from crgeo.chart import jet_data
    from crgeo.verify import Pipeline

    pipe = Pipeline(example, m, points=n, seed=7)
    ph, pts, ws = pipe.ac.ph, pipe.m_pts, pipe.webster_sample
    for field, (val, grad) in zip([ph.theta, ph.dtheta, ph.J, ph.reeb], ws.contact_jets):
        assert np.array_equal(val, field(pts))
        assert np.array_equal(grad, jet_data(field, pts, 1)[1])
    assert np.array_equal(ws.connection_jets[0][0], ph.metric(pts))
    # the Levi form and frame built from the held values
    assert np.array_equal(ws.levi_form, ph.levi_form(pts))
    for held, separate in zip(ws.levi_frame, levi_adapted_frame(ph, pts)):
        assert np.array_equal(held, separate)


def test_webster_curvature_symmetries(pipeline):
    pipe = pipeline("fubini_study", 1)
    assert curvature_symmetry_residual(pipe.webster_sample).max() < 1e-8


def test_einstein_residual_values(pipeline):
    # scal_W = scal_h / 2: 1 over the round base, -1 over the ball
    for kind, expected in [("fubini_study", 1.0), ("complex_hyperbolic", -1.0)]:
        pipe = pipeline(kind, 1)
        ein = ph_einstein_residual(pipe.webster_sample)
        assert ein["webster_einstein"].max() < 1e-7
        assert ein["scal_mean"] == pytest.approx(expected, abs=1e-9)
        assert transversal_symmetry_residual(pipe.ac.ph, pipe.m_pts).max() < 1e-8


def test_product_base_is_not_einstein(pipeline):
    pipe = pipeline("sphere_x_flat", 2)
    assert pipe.negative_record["non_einstein_detected"] > 1e-2
    assert pipe.negative_record["control_still_tsph"].max() < 1e-8


# ----------------------------------------------------------------------
# comparison identities
# ----------------------------------------------------------------------

def test_heisenberg_comparison_identities(heisenberg, pts):
    res = comparison_identities_residual(webster_connection(heisenberg).at(pts))
    assert max(v.max() for v in res.values()) < 1e-12


def test_fubini_study_comparison_identities(pipeline):
    pipe = pipeline("fubini_study", 1)
    res = comparison_identities_residual(pipe.webster_sample)
    res = {name: per_point.max() for name, per_point in res.items()}
    assert res["comparison_formula"] < 1e-7
    assert res["webster_bianchi_cyclic"] < 1e-8
    assert res["webster_pair_symmetry"] < 1e-8
    assert res["ricci_h_relation"] < 1e-7
    assert res["webster_ricci_reeb"] < 1e-8
    assert res["ricci_reeb_tt"] < 1e-7  # Ric(T,T) = m/2 = 1/2 here
    assert res["ricci_reeb_mixed"] < 1e-8
    assert res["reeb_sectional"] < 1e-7  # R(X,T)T = X/4


def test_reeb_ricci_value(pipeline):
    # Ric_g(T,T) = m/2 with g(T,T) = 1 for the round base, m = 1
    from crgeo.metric import riemann

    pipe = pipeline("fubini_study", 1)
    curv = riemann(pipe.ac.ph.metric, pipe.m_pts)
    reeb = pipe.ac.ph.reeb(pipe.m_pts)
    ric_tt = np.einsum("nij,ni,nj->n", curv.ricci, reeb, reeb)
    np.testing.assert_allclose(ric_tt, 0.5, atol=1e-9)


@pytest.mark.parametrize("m", [1, 2])
def test_curvature_from_connection_data_equals_riemann(pipeline, m):
    # the comparison and submersion records read the curvature of g_theta from
    # the Webster sample's connection jets; it is that of the metric alone, bitwise
    from crgeo.metric import riemann

    pipe = pipeline("complex_hyperbolic", m)
    held = pipe.webster_sample.lc_curvature
    alone = riemann(pipe.ac.ph.metric, pipe.m_pts)
    for name in ("riemann", "ricci", "scalar", "operator"):
        assert np.array_equal(getattr(held, name), getattr(alone, name))


def test_contact_control_skips_the_nijenhuis_batch(monkeypatch):
    # the deformed structure's contact check reads the determinant alone
    from crgeo.pseudohermitian import PHStructure
    from crgeo.verify import Pipeline

    def unused(self, pts):
        raise AssertionError("the Nijenhuis residual is not read by the contact control")

    monkeypatch.setattr(PHStructure, "integrability_residual", unused)
    pipe = Pipeline("perturbed_non_tsph", 1, points=4, seed=7)
    assert pipe.negative_record["control_still_contact"].min() > 1e-10


def test_gauge_shift_preserves_scalar(pipeline):
    from crgeo.constructions import gauge_shift_scal_residual

    pipe = pipeline("flat", 1)
    assert gauge_shift_scal_residual(pipe.ac, pipe.webster_sample).max() < 1e-6
