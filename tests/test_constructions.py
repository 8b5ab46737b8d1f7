"""Construction pipelines: catalog bases, circle bundles, Fefferman metrics."""

import numpy as np
import pytest

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


# ----------------------------------------------------------------------
# Kaehler-Einstein catalog
# ----------------------------------------------------------------------

def test_flat_base_invariants():
    ke = make_kahler_einstein("flat", 1)
    res = ke.kahler_residuals(ke.chart.sample(16, 42))
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
    assert max(v.max() for v in ke.kahler_residuals(pts).values()) < 1e-9


def test_scale_parameter():
    ke = make_kahler_einstein("fubini_study", 1, scale=2.0)
    assert ke.scal_h == pytest.approx(1.0)
    res = ke.kahler_residuals(ke.chart.sample(8, 42))
    assert max(v.max() for v in res.values()) < 1e-10


def test_unsupported_dimension_rejected():
    with pytest.raises(UsageError):
        make_kahler_einstein("fubini_study", 3)
    with pytest.raises(UsageError):
        make_kahler_einstein("fubini_study", 1, scale=-1.0)
    with pytest.raises(UsageError):
        make_kahler_einstein("elliptic", 1)


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
    pipe.ac.ph.metric.verify_signature(pipe.m_pts)  # (2m+1, 0)


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


def test_fefferman_rejects_non_einstein():
    prod = make_product_base()
    ac = anticanonical_structure(prod)
    with pytest.raises(PreconditionError):
        fefferman_metric(ac)


def test_fefferman_flat_expression(pipeline):
    # Ricci-flat gauge: f = h + (4/(m+2)) theta o (real rho_c), checked
    # against an independent assembly of the displayed expansion
    pipe = pipeline("flat", 1)
    assert fefferman_expression_residual(pipe.fc, pipe.f_pts).max() < 1e-12


def test_fefferman_ricci_isotropic_flat(pipeline):
    pipe = pipeline("flat", 1)
    rec = pipe.fefferman_record
    assert rec["fefferman_ricci_components"].max() < 1e-10  # Ric(T*,T*) = Ric(T*,P) = 0 when S_W = 0
    from crgeo.metric import riemann

    curv = riemann(pipe.fc.metric, pipe.f_pts)
    pval = pipe.fc.vertical_canonical(pipe.f_pts)
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
    pipe.fc.metric.verify_signature(pipe.f_pts)  # (3, 1)


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
    assert slice_identity_residual(pipeline("fubini_study", 1).rm).max() < 1e-12


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
        pipe.rm.metric(bad)


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
    scal = riemann(pipe.t2.metric, pipe.t2_pts).scalar
    np.testing.assert_allclose(scal, 3.0, atol=1e-9)


def test_explicit_negative_case(pipeline):
    from crgeo.metric import riemann

    pipe = pipeline("complex_hyperbolic", 1)
    scal = riemann(pipe.t2.metric, pipe.t2_pts).scalar
    np.testing.assert_allclose(scal, -3.0, atol=1e-9)
    pipe.t2.metric.verify_signature(pipe.t2_pts)  # (3, 1)


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

def test_curvature_symmetries_catalog(pipeline):
    """Riemann symmetries and first Bianchi on every catalog metric layer."""
    from crgeo.metric import riemann

    cases = []
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        for m in (1, 2):
            pipe = pipeline(kind, m)
            cases.append((pipe.ke.metric, pipe.base_pts))
    pipe = pipeline("fubini_study", 1)
    cases.append((pipe.ac.ph.metric, pipe.m_pts))  # induced contact metric
    cases.append((pipe.fc.metric, pipe.f_pts))  # Lorentzian Fefferman metric
    for metric, pts in cases:
        res = riemann(metric, pts).symmetry_residuals()
        assert max(res.values()) < 1e-9
