"""Levi-Civita geometry: curvature against independent oracles."""

import numpy as np
import pytest

from crgeo import Chart, VectorField
from crgeo.chart import exp as fexp, jet_data, log as flog
from crgeo.errors import DegeneracyError
from crgeo.metric import (
    MetricField,
    christoffel,
    conformal_rescale,
    conformal_ricci_correction,
    covariant_derivative,
    inverse_metric,
    killing_residual,
    orthonormal_frame,
    riemann,
    second_bianchi_residual,
    tracefree_ricci_norm,
)


@pytest.fixture(scope="module")
def plane():
    return Chart(["x", "y"], [(-2.0, 2.0), (-2.0, 2.0)])


def conformal_metric(chart, factor, signature=(2, 0)):
    zero = chart.constant(0.0)
    return MetricField(chart, [[factor, zero], [zero, factor]], signature)


@pytest.fixture(scope="module")
def sphere(plane):
    # round unit sphere in a stereographic chart; scalar curvature 2
    x, y = plane.coordinate_fields()
    return conformal_metric(plane, 4.0 / (1.0 + x**2 + y**2) ** 2)


@pytest.fixture(scope="module")
def flat(plane):
    return conformal_metric(plane, plane.constant(1.0))


def test_flat_christoffel_vanishes(plane, flat):
    assert np.abs(christoffel(flat, plane.sample(8, 42))).max() == 0.0


def test_conformal_critical_point_christoffel(plane, sphere):
    # the factor 4/(1+x^2+y^2)^2 has a critical point at the origin
    gamma = christoffel(sphere, np.array([[1e-14, 1e-14]]))
    assert np.abs(gamma).max() < 1e-12
    # central-difference oracle away from the origin
    pts = np.array([[0.3, -0.5]])
    h = 1e-5

    def gval(p):
        return sphere(np.array([p]))[0]

    dg = np.stack(
        [
            (gval([pts[0, 0] + h, pts[0, 1]]) - gval([pts[0, 0] - h, pts[0, 1]])) / (2 * h),
            (gval([pts[0, 0], pts[0, 1] + h]) - gval([pts[0, 0], pts[0, 1] - h])) / (2 * h),
        ]
    )
    ginv = np.linalg.inv(gval(pts[0]))
    expected = 0.5 * np.einsum(
        "kl,lij->kij",
        ginv,
        np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg,
    )
    np.testing.assert_allclose(christoffel(sphere, pts)[0], expected, atol=1e-8)


def test_minkowski_flat():
    chart = Chart(["t", "x"], [(-2.0, 2.0), (-2.0, 2.0)])
    zero = chart.constant(0.0)
    g = MetricField(chart, [[chart.constant(-1.0), zero], [zero, chart.constant(1.0)]], (1, 1))
    pts = chart.sample(8, 42)
    assert np.abs(christoffel(g, pts)).max() == 0.0
    assert np.abs(riemann(g, pts).riemann).max() == 0.0
    g.verify_signature(pts)


def test_round_sphere_scalar_two(plane, sphere):
    pts = plane.sample(32, 42)
    curv = riemann(sphere, pts)
    np.testing.assert_allclose(curv.scalar, 2.0, atol=1e-12)


def test_gauss_conformal_oracle(plane, sphere):
    # independent oracle: scal = 2K with K = -(1/2E) lap0 log(E)
    x, y = plane.coordinate_fields()
    factor = 4.0 / (1.0 + x**2 + y**2) ** 2
    pts = plane.sample(32, 42)
    _, _, d2 = jet_data(flog(factor), pts, 2)
    oracle = -(d2[:, 0, 0] + d2[:, 1, 1]) / (2.0 * factor(pts)) * 2.0
    np.testing.assert_allclose(riemann(sphere, pts).scalar, oracle, atol=1e-8)


def test_poincare_scalar_minus_two():
    chart = Chart(["x", "y"], [(-0.7, 0.7), (-0.7, 0.7)])
    x, y = chart.coordinate_fields()
    factor = 4.0 / (1.0 - x**2 - y**2) ** 2
    g = conformal_metric(chart, factor)
    pts = chart.sample(32, 42)
    np.testing.assert_allclose(riemann(g, pts).scalar, -2.0, atol=1e-12)
    _, _, d2 = jet_data(flog(factor), pts, 2)
    oracle = -(d2[:, 0, 0] + d2[:, 1, 1]) / (2.0 * factor(pts)) * 2.0
    np.testing.assert_allclose(riemann(g, pts).scalar, oracle, atol=1e-8)


def test_curvature_symmetries_and_bianchi(plane, sphere):
    res = riemann(sphere, plane.sample(32, 42)).symmetry_residuals()
    assert max(res.values()) < 1e-9


def test_second_bianchi(plane, sphere):
    assert second_bianchi_residual(sphere, plane.sample(8, 42)) < 1e-7


def test_christoffel_recomposition(plane, sphere):
    # metric compatibility: d_a g_ij = Gamma^m_ai g_mj + Gamma^m_aj g_im
    pts = plane.sample(16, 42)
    g, dg = jet_data(sphere, pts, 1)
    gamma = christoffel(sphere, pts)
    recomposed = np.einsum("nmai,nmj->naij", gamma, g) + np.einsum(
        "nmaj,nim->naij", gamma, g
    )
    assert np.abs(dg - recomposed).max() < 1e-9


def test_metric_compatibility_via_covariant_derivative(plane, sphere):
    nabla_g = covariant_derivative(sphere, sphere, plane.sample(8, 42))
    assert np.abs(nabla_g).max() < 1e-12


def test_flat_hessian(plane, flat):
    # nabla d(x^2) = 2 dx o dx in the flat metric
    x, _ = plane.coordinate_fields()
    from crgeo.chart import differential

    hess = covariant_derivative(flat, differential(x**2), plane.sample(4, 42))
    expected = np.zeros_like(hess)
    expected[:, 0, 0] = 2.0
    np.testing.assert_allclose(hess, expected, atol=1e-14)


def test_fubini_study_complex_structure_parallel():
    from crgeo.constructions import make_kahler_einstein
    from crgeo.metric import covariant_derivative as cov

    for m in (1, 2):
        ke = make_kahler_einstein("fubini_study", m)
        pts = ke.chart.sample(8, 42)
        assert np.abs(cov(ke.metric, ke.j_field, pts)).max() < 1e-8


def test_killing_rotation(plane, flat):
    x, y = plane.coordinate_fields()
    rotation = VectorField(plane, [-y, x])
    assert killing_residual(flat, rotation, plane.sample(16, 42)).max() < 1e-14


def test_killing_translation_in_exponential_metric(plane):
    # L_{d_x} (e^{2x} delta) = 2 e^{2x} delta: residual ~ 2 e^{2x}
    x, _ = plane.coordinate_fields()
    g = conformal_metric(plane, fexp(x * 2.0))
    dx = VectorField(plane, [plane.constant(1.0), plane.constant(0.0)])
    pts = plane.sample(16, 42)
    res = killing_residual(g, dx, pts)
    np.testing.assert_allclose(res, 2.0 * np.exp(2.0 * pts[:, 0]), rtol=1e-12)


def test_conformal_correction_constant_phi(plane, sphere):
    corr = conformal_ricci_correction(sphere, plane.constant(0.7), plane.sample(8, 42))
    assert np.abs(corr).max() < 1e-13


def test_conformal_correction_matches_direct(plane, sphere):
    x, y = plane.coordinate_fields()
    phi = x
    pts = plane.sample(16, 42)
    corr = conformal_ricci_correction(sphere, phi, pts)
    direct = riemann(conformal_rescale(sphere, phi), pts).ricci - riemann(sphere, pts).ricci
    assert np.abs(corr - direct).max() < 1e-12


def test_conformal_correction_random_fixtures():
    """Oracle equivalence on randomized (metric, phi) pairs, mixed signature."""
    chart = Chart(["x", "y", "z"], [(-1.0, 1.0)] * 3)
    x, y, z = chart.coordinate_fields()
    rng = np.random.default_rng(7)
    basis = [x, y, z, x * y, y * z, x * z]
    for signature in [(3, 0), (2, 1)]:
        c = 0.12 * rng.standard_normal((3, 3, len(basis)))
        eta = np.diag([1.0] * signature[0] + [-1.0] * signature[1])
        comp = [[chart.constant(eta[i, j]) for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(i, 3):
                pert = chart.constant(0.0)
                for k, b in enumerate(basis):
                    pert = pert + b * float(c[i, j, k])
                comp[i][j] = comp[i][j] + pert
                if j > i:
                    comp[j][i] = comp[i][j]
        g = MetricField(chart, comp, signature)
        coeff = rng.standard_normal(3) * 0.5
        from crgeo.chart import sin as fsin

        phi = x * float(coeff[0]) + fsin(y) * float(coeff[1]) + z * z * float(coeff[2])
        pts = chart.sample(16, 42)
        corr = conformal_ricci_correction(g, phi, pts)
        direct = riemann(conformal_rescale(g, phi), pts).ricci - riemann(g, pts).ricci
        assert np.abs(corr - direct).max() < 1e-7


def test_degenerate_metric_raises(plane):
    x, _ = plane.coordinate_fields()
    zero = plane.constant(0.0)
    g = MetricField(plane, [[x, zero], [zero, x]], (2, 0))  # vanishes at x = 0
    with pytest.raises(DegeneracyError):
        christoffel(g, np.array([[1e-8, 0.2]]))


def test_signature_mismatch_detected(plane, flat):
    g = MetricField(plane, [[plane.constant(1.0), plane.constant(0.0)],
                            [plane.constant(0.0), plane.constant(1.0)]], (1, 1))
    with pytest.raises(DegeneracyError):
        g.verify_signature(plane.sample(4, 42))


def test_signature_flip_at_one_point_detected(plane):
    # declared (1,1); g_yy = x - c is positive only at the sample point of largest x
    pts = plane.sample(8, 42)
    order = np.argsort(pts[:, 0])
    c = 0.5 * (pts[order[-1], 0] + pts[order[-2], 0])
    x, _ = plane.coordinate_fields()
    one, zero = plane.constant(1.0), plane.constant(0.0)
    g = MetricField(plane, [[one, zero], [zero, x - c]], (1, 1))
    with pytest.raises(DegeneracyError, match=f"sample point {order[-1]} "):
        g.verify_signature(pts)
    g.verify_signature(np.delete(pts, order[-1], axis=0))


def test_orthonormal_frame_indefinite():
    # Minkowski-like metric with a boost: pivoting must avoid null vectors
    gval = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    frame, eps = orthonormal_frame(gval)
    gram = np.einsum("nai,nij,nbj->nab", frame, gval, frame)
    np.testing.assert_allclose(gram[0], np.diag(eps[0]), atol=1e-12)
    assert sorted(eps[0]) == [-1.0, 1.0]


def test_tracefree_norm_zero_for_einstein(plane, sphere):
    pts = plane.sample(8, 42)
    curv = riemann(sphere, pts)
    assert tracefree_ricci_norm(sphere(pts), curv.ricci, curv.scalar).max() < 1e-12


def test_inverse_metric_guard():
    with pytest.raises(DegeneracyError):
        inverse_metric(np.zeros((1, 2, 2)))
