"""Pseudo-Hermitian structures and the Tanaka-Webster connection."""

import numpy as np
import pytest

from crgeo import Chart, OneForm
from crgeo.errors import DegeneracyError, PreconditionError
from crgeo.pseudohermitian import (
    ReebField,
    comparison_identities_residual,
    levi_adapted_frame,
    ph_einstein_residual,
    solved_reeb_field,
    transversal_symmetry_residual,
    webster_connection,
    webster_curvature,
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
    wd = webster_connection(heisenberg)
    res = wd.axiom_residuals(pts)
    assert max(v.max() for v in res.values()) < 1e-12


def test_heisenberg_horizontal_frames_parallel(heisenberg, pts):
    # flat model: the Webster derivative of the projected frames vanishes
    wd = webster_connection(heisenberg)
    for field in heisenberg.horizontal_fields()[:2]:
        nabla = wd.covariant_derivative(field, pts)
        assert np.abs(nabla).max() < 1e-12


def test_heisenberg_webster_flat(heisenberg, pts):
    wd = webster_connection(heisenberg)
    curv = webster_curvature(wd, pts)
    assert np.abs(curv.riemann).max() < 1e-12
    assert np.abs(curv.ricci_rep).max() < 1e-12
    assert np.abs(curv.scalar).max() < 1e-12


def test_webster_curvature_symmetries(pipeline):
    pipe = pipeline("fubini_study", 1)
    curv = webster_curvature(pipe.ac.webster, pipe.m_pts)
    res = curv.symmetry_residual(pipe.ac.ph.J(pipe.m_pts))
    assert res.max() < 1e-8


def test_einstein_residual_values(pipeline):
    # scal_W = scal_h / 2: 1 over the round base, -1 over the ball
    for kind, expected in [("fubini_study", 1.0), ("complex_hyperbolic", -1.0)]:
        pipe = pipeline(kind, 1)
        ein = ph_einstein_residual(pipe.ac.webster, pipe.m_pts)
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
    wd = webster_connection(heisenberg)
    res = comparison_identities_residual(wd, pts)
    assert max(v.max() for v in res.values()) < 1e-12


def test_fubini_study_comparison_identities(pipeline):
    pipe = pipeline("fubini_study", 1)
    res = comparison_identities_residual(pipe.ac.webster, pipe.m_pts)
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


def test_gauge_shift_preserves_scalar(pipeline):
    from crgeo.constructions import gauge_shift_scal_residual

    pipe = pipeline("flat", 1)
    scal = webster_curvature(pipe.ac.webster, pipe.m_pts).scalar
    assert gauge_shift_scal_residual(pipe.ac, pipe.m_pts, scal).max() < 1e-6
