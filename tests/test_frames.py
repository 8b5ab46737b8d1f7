"""Pseudo-orthonormal frames against a per-point Gram-Schmidt reference."""

import numpy as np
import pytest

from crgeo import Chart, OneForm, VectorField
from crgeo.errors import DegeneracyError
from crgeo.metric import PIVOT_TOL, orthonormal_frame, pivoted_frame
from crgeo.pseudohermitian import WebsterSample, levi_adapted_frame, make_structure
from conftest import levi_form

BASE_J1 = np.array([[0.0, -1.0], [1.0, 0.0]])
BASE_J2 = np.kron(np.eye(2), BASE_J1)


def reference_frame(g, cands, steps, partner=None):
    """Per-point pivoted Gram-Schmidt, one point and one candidate at a time."""
    vectors, signs = [], []
    for n in range(len(g)):
        chosen, chosen_signs = [], []
        for _ in range(steps):
            best, best_norm = None, 0.0
            for v in cands[n]:
                w = v.copy()
                for u, s in zip(chosen, chosen_signs):
                    w = w - s * (u @ g[n] @ w) * u
                norm = abs(w @ g[n] @ w)
                if norm > best_norm:
                    best, best_norm = w, norm
            if best is None or best_norm <= PIVOT_TOL:
                raise DegeneracyError(f"no pivot at sample point {n}")
            s = np.sign(best @ g[n] @ best)
            chosen.append(best / np.sqrt(best_norm))
            chosen_signs.append(s)
            if partner is not None:
                je = partner[n] @ chosen[-1]
                for u, su in zip(chosen, chosen_signs):
                    je = je - su * (u @ g[n] @ je) * u
                chosen.append(je / np.sqrt(abs(je @ g[n] @ je)))
                chosen_signs.append(s)
        vectors.append(chosen)
        signs.append(chosen_signs)
    return np.array(vectors), np.array(signs)


def random_metrics(rng, n, plus, minus):
    d = plus + minus
    a = rng.standard_normal((n, d, d))
    signs = np.diag([1.0] * plus + [-1.0] * minus)
    return np.einsum("nai,ab,nbj->nij", a, signs, a)


def coordinate_candidates(n, d):
    eye = np.eye(d)
    cands = [eye[i] for i in range(d)] + [eye[i] + eye[j] for i in range(d) for j in range(i + 1, d)]
    return np.broadcast_to(np.array(cands), (n, len(cands), d))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_orthonormal_frame_matches_reference(d):
    rng = np.random.default_rng(d)
    for plus in range(d + 1):
        g = random_metrics(rng, 12, plus, d - plus)
        frame, eps = orthonormal_frame(g)
        ref_frame, ref_eps = reference_frame(g, coordinate_candidates(12, d), d)
        assert np.array_equal(frame, ref_frame)
        assert np.array_equal(eps, ref_eps)
        assert (eps == 1.0).sum(axis=1).tolist() == [plus] * 12
        gram = np.einsum("nai,nij,nbj->nab", frame, g, frame)
        np.testing.assert_allclose(gram, eps[:, :, None] * np.eye(d), atol=1e-12)


def contact_structure(m, signs):
    """theta = -dt - (1/2) sum_a s_a (y_a dx_a - x_a dy_a) on (x_1, y_1, .., t)."""
    names = [f"{c}{a}" for a in range(1, m + 1) for c in "xy"] + ["t"]
    chart = Chart(names, [(-1.0, 1.0)] * (2 * m) + [(-1.5, 1.5)])
    coords = chart.coordinate_fields()
    comps = []
    for a, s in enumerate(signs):
        x, y = coords[2 * a], coords[2 * a + 1]
        comps += [y * (-0.5 * s), x * (0.5 * s)]
    theta = OneForm(chart, comps + [chart.constant(-1.0)])
    plus = sum(1 for s in signs if s > 0)
    base_j = BASE_J1 if m == 1 else BASE_J2
    return make_structure(chart, theta, base_j, m, (plus, m - plus))


@pytest.mark.parametrize("m, signs", [(1, (1,)), (2, (1, 1)), (2, (1, -1))])
def test_levi_frame_matches_reference(m, signs):
    ph = contact_structure(m, signs)
    pts = ph.chart.sample(16, 7)
    frame, eps = levi_adapted_frame(ph, pts)
    lval = levi_form(ph)(pts)
    cands = WebsterSample(ph, pts).projector.transpose(0, 2, 1)
    vecs, vsigns = reference_frame(lval, cands, m, partner=ph.J(pts))
    assert np.array_equal(frame, np.concatenate([vecs[:, 0::2], vecs[:, 1::2]], axis=1))
    assert np.array_equal(eps, vsigns[:, 0::2])
    assert sorted(eps[0]) == sorted(float(s) for s in signs)
    gram = np.einsum("nai,nij,nbj->nab", frame, lval, frame)
    expected = np.stack([np.diag(np.concatenate([e, e])) for e in eps])
    np.testing.assert_allclose(gram, expected, atol=1e-12)


def test_orthonormal_frame_names_the_degenerate_point():
    g = random_metrics(np.random.default_rng(0), 6, 2, 1)
    g[4] = 0.0
    with pytest.raises(DegeneracyError, match="sample point 4:"):
        orthonormal_frame(g)
    g[4] = np.diag([1.0, -1.0, 1.0])
    g[2, 0, 1] = g[2, 1, 0] = np.nan
    with pytest.raises(DegeneracyError, match="sample point 2:"):
        orthonormal_frame(g)


def test_partner_without_a_pivot_names_the_point():
    # e1 is kept at both points; its partner J e1 = e2 is null for L = diag(1, 0)
    g = np.array([np.eye(2), np.diag([1.0, 0.0])])
    cands = np.broadcast_to(np.eye(2), (2, 2, 2))
    partner = np.broadcast_to(BASE_J1, (2, 2, 2))
    with pytest.raises(DegeneracyError, match="sample point 1: no partner pivot above"):
        pivoted_frame(g, cands, 1, partner=partner)
    vecs, signs = pivoted_frame(g[:1], cands[:1], 1, partner=partner[:1])
    assert np.array_equal(vecs[0], np.eye(2)) and np.array_equal(signs[0], [1.0, 1.0])


def test_levi_frame_names_the_degenerate_point():
    # theta = -dt + (1/2)(x - c)^2 dy: dtheta = (x - c) dx ^ dy vanishes at x = c,
    # and T = -d/dt stays the Reeb field there
    chart = Chart(["x", "y", "t"], [(-1.0, 1.0), (-1.0, 1.0), (-1.5, 1.5)])
    pts = chart.sample(6, 3)
    x = chart.coord(0) - pts[3, 0]
    theta = OneForm(chart, [chart.constant(0.0), x * x * 0.5, chart.constant(-1.0)])
    reeb = VectorField(chart, [chart.constant(0.0), chart.constant(0.0), chart.constant(-1.0)])
    ph = make_structure(chart, theta, BASE_J1, 1, (1, 0), reeb_hint=reeb)
    with pytest.raises(DegeneracyError, match="sample point 3:"):
        levi_adapted_frame(ph, pts)
    levi_adapted_frame(ph, np.delete(pts, 3, axis=0))
