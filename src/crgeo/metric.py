"""Levi-Civita geometry of an arbitrary-signature metric on a chart.

All quantities are evaluated at point batches: the metric components and
their exact partials come from the jet engine, and everything downstream
(Christoffel symbols, curvature, covariant derivatives, Lie derivatives,
conformal corrections) is plain numpy index gymnastics.  Functions are
pure; there is no shared mutable state.
"""

from __future__ import annotations

import string
from typing import NamedTuple

import numpy as np

from .chart import (
    Chart,
    SymmetricTwoTensor,
    jet_data,
)
from .errors import DegeneracyError

_DET_FLOOR = 1e-10

# smallest |g(w, w)| accepted as a Gram-Schmidt pivot
PIVOT_TOL = 1e-10


class MetricField(SymmetricTwoTensor):
    """Symmetric 2-tensor field with signature bookkeeping."""

    def __init__(self, chart: Chart, components, signature: tuple[int, int]):
        super().__init__(chart, components)
        n_plus, n_minus = signature
        if n_plus + n_minus != chart.dim:
            raise ValueError("signature counts must sum to the chart dimension")
        self.signature = (int(n_plus), int(n_minus))

    def _like(self, components):
        # keeps the signature, as conformal scaling by a positive factor does
        return MetricField(self.chart, components, self.signature)

    def verify_signature(self, pts) -> None:
        """Raise DegeneracyError at the first degenerate or wrongly signed point."""
        check_signature(self(pts), self.signature)


def check_signature(g: np.ndarray, signature) -> None:
    """Raise DegeneracyError at the first point where the values ``g`` are degenerate or not of ``signature``."""
    det = np.abs(np.linalg.det(g))
    eig = np.linalg.eigvalsh(g)
    signs = np.stack([(eig > 0).sum(axis=1), (eig < 0).sum(axis=1)], axis=1)
    degenerate = ~(det > _DET_FLOOR)  # negated, so that a NaN determinant is degenerate
    bad = np.flatnonzero(degenerate | (signs != signature).any(axis=1))
    if not bad.size:
        return
    n = bad[0]
    if degenerate[n]:
        raise DegeneracyError(f"metric degenerate at sample point {n}: |det| = {det[n]:.3e}")
    raise DegeneracyError(
        f"eigenvalue signs {tuple(map(int, signs[n]))} at sample point {n} do not match "
        f"declared signature {tuple(signature)}"
    )


def point_max(*arrays) -> np.ndarray:
    """Per-point max |a| over every non-point axis, taken across (N, ...) arrays."""
    return np.max([np.abs(a).reshape(len(a), -1).max(axis=1) for a in arrays], axis=0)


def inverse_metric(gval: np.ndarray) -> np.ndarray:
    det = np.abs(np.linalg.det(gval))
    if not det.min() > _DET_FLOOR:  # negated, so that a NaN determinant is singular too
        raise DegeneracyError(f"singular metric: min |det| = {det.min():.3e}")
    return np.linalg.inv(gval)


# ----------------------------------------------------------------------
# connection and curvature from metric jet data
# ----------------------------------------------------------------------

def _first_kind(dg):
    """C[..,l,i,j] = d_i g_jl + d_j g_il - d_l g_ij from the partials dg[..,a,i,j] = d_a g_ij."""
    return np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg


def _christoffel_arrays(g, dg):
    ginv = inverse_metric(g)
    gamma = 0.5 * np.einsum("nkl,nlij->nkij", ginv, _first_kind(dg))
    return gamma, ginv


def christoffel(metric: MetricField, pts) -> np.ndarray:
    """Levi-Civita symbols Gamma[n, k, i, j] = Gamma^k_ij at each point."""
    g, dg = jet_data(metric, pts, 1)
    gamma, _ = _christoffel_arrays(g, dg)
    return gamma


def _dchristoffel_arrays(dg, d2g, gamma, ginv):
    """First partials dGamma[n, a, k, i, j] = d_a Gamma^k_ij of the Levi-Civita symbols.

    Differentiating g_lk Gamma^k_ij = C_lij / 2 gives

        d_a Gamma^k_ij = g^kl (d_a C_lij / 2 - d_a g_lp Gamma^p_ij),

    two two-operand contractions, with no partials of g^-1.
    """
    dc = _first_kind(d2g)
    return np.einsum("nkl,nalij->nakij", ginv, 0.5 * dc - np.einsum("nalp,npij->nalij", dg, gamma))


def curvature_from_connection(gamma, dgamma, gval=None):
    """Curvature operator of any connection, and its (4,0) tensor when ``gval`` is given.

    Returns (rup, r4): rup[n,i,j,k,l] e_l = R(e_i,e_j)e_k, and
    r4[n,i,j,k,l] = g(R(e_i,e_j)e_k, e_l), lowered with the metric values
    ``gval``, or None without them.  Sign convention:
    R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y].  The connection coefficients
    may be non-symmetric (direction index first).
    """
    # Gamma^l_ia Gamma^a_jk; the second quadratic term is its (i, j) transpose
    quad = np.einsum("nlia,najk->nijkl", gamma, gamma)
    # formed C-ordered: the two transposes of dgamma are strided views
    rup = (
        np.subtract(np.einsum("niljk->nijkl", dgamma), np.einsum("njlik->nijkl", dgamma), order="C")
        + quad
        - quad.swapaxes(1, 2)
    )
    return rup, None if gval is None else np.einsum("nijkm,nml->nijkl", rup, gval)


class CurvatureTensor(NamedTuple):
    """Curvature data of a metric at a point batch, for the records that read the operator.

    Ricci and the scalar are traces of the operator.  No check of the
    pipeline reads the Levi-Civita (4,0) tensor.  A record that reads only
    Ricci and the scalar takes them from :func:`levi_civita_ricci`, and the
    Sasaki product row comes from :func:`curvature_row`; neither builds
    the operator.
    """

    operator: np.ndarray  # (N,d,d,d,d) R(e_i,e_j)e_k = operator[n,i,j,k,l] e_l
    ricci: np.ndarray  # (N,d,d)
    scalar: np.ndarray  # (N,)


def levi_civita_arrays(g, dg, d2g):
    """(Gamma, dGamma, g^-1) from the order-2 jet data ``[g, dg, d2g]`` of a metric."""
    gamma, ginv = _christoffel_arrays(g, dg)
    return gamma, _dchristoffel_arrays(dg, d2g, gamma, ginv), ginv


def curvature_from_arrays(gamma, dgamma, ginv) -> CurvatureTensor:
    """Curvature of the Levi-Civita connection given by its arrays at a point batch.

    Ricci is the trace of Z -> R(Z,X)Y on the operator,
    Ric[n,j,k] = operator[n,a,j,k,a], and the scalar is g^jk Ric_jk.
    """
    rup, _ = curvature_from_connection(gamma, dgamma)
    ricci = np.einsum("najka->njk", rup)
    scalar = np.einsum("njk,njk->n", ginv, ricci)
    return CurvatureTensor(rup, ricci, scalar)


def levi_civita_ricci(jets, gamma, ginv):
    """(Ricci, scalar) of the Levi-Civita connection, without dGamma or the operator.

    ``jets`` is the order-2 jet data ``[g, dg, d2g]`` of a metric and
    (``gamma``, ``ginv``) its (Gamma, g^-1) from :func:`_christoffel_arrays`.
    The trace Ric[n,j,k] = operator[n,a,j,k,a] of :func:`curvature_from_arrays`
    is summed in closed form, every contraction O(N d^4):

        Ric_jk = d_a Gamma^a_jk - d_j Gamma^a_ak + Gamma^a_ab Gamma^b_jk - Gamma^a_jb Gamma^b_ak
        d_a Gamma^a_jk = g^al (d_a C_ljk / 2 - d_a g_lp Gamma^p_jk)
        d_j Gamma^a_ak = g^al d_j d_k g_al / 2 - tr(g^-1 d_j g g^-1 d_k g) / 2

    with d_a C_ljk = d_a d_j g_kl + d_a d_k g_jl - d_a d_l g_jk.  The scalar
    is g^jk Ric_jk.
    """
    _, dg, d2g = jets
    dc = np.einsum("nal,najkl->njk", ginv, d2g)  # g^al d_a d_j g_kl
    dc = dc + dc.swapaxes(1, 2) - np.einsum("nal,naljk->njk", ginv, d2g)  # g^al d_a C_ljk
    # Gamma^a_ap - g^al d_a g_lp: the two terms that contract with Gamma^p_jk
    v = np.einsum("naap->np", gamma) - np.einsum("nal,nalp->np", ginv, dg)
    gdg = np.einsum("nap,njpl->njal", ginv, dg)  # g^-1 d_j g
    ricci = (
        0.5 * dc
        + np.einsum("np,npjk->njk", v, gamma)
        - 0.5 * np.einsum("nal,njkal->njk", ginv, d2g)
        + 0.5 * np.einsum("njal,nkla->njk", gdg, gdg)
        - np.einsum("najb,nbak->njk", gamma, gamma)
    )
    return ricci, np.einsum("njk,njk->n", ginv, ricci)


def curvature_row(jets, gamma, i):
    """Row ``i`` of the (4,0) tensor, R(e_i,e_j,e_k,e_l) as [n, j, k, l], without the operator.

    ``jets`` is the order-2 jet data ``[g, dg, d2g]`` of a metric and
    ``gamma`` its Levi-Civita symbols.  Lowering :func:`curvature_from_connection`
    with g_lm Gamma^m_ij = C_lij / 2 gives, every contraction O(N d^4),

        R_ijkl = d_i C_ljk / 2 - d_i g_lm Gamma^m_jk - d_j C_lik / 2 + d_j g_lm Gamma^m_ik
                 + C_lia Gamma^a_jk / 2 - C_lja Gamma^a_ik / 2.
    """
    _, dg, d2g = jets
    c = _first_kind(dg)
    d_i_c = np.einsum("nljk->njkl", _first_kind(d2g[:, i]))  # d_i C_ljk
    lead = d2g[:, :, :, i]  # d_j d_k g_il as [n, j, k, l]
    d_j_c = d2g[:, :, i] + lead - lead.swapaxes(2, 3)  # d_j C_lik
    gamma_i = gamma[:, :, i]  # Gamma^m_ik as [n, m, k]
    return (
        0.5 * (d_i_c - d_j_c)
        - np.einsum("nlm,nmjk->njkl", dg[:, i], gamma)
        + np.einsum("njlm,nmk->njkl", dg, gamma_i)
        + 0.5 * np.einsum("nla,najk->njkl", c[:, :, i], gamma)
        - 0.5 * np.einsum("nlja,nak->njkl", c, gamma_i)
    )


def riemann(metric: MetricField, pts) -> CurvatureTensor:
    """Curvature of a metric field at a point batch, from one order-2 jet evaluation."""
    g, dg, d2g = jet_data(metric, pts, 2)
    return curvature_from_arrays(*levi_civita_arrays(g, dg, d2g))


# ----------------------------------------------------------------------
# covariant differentiation of tensor values
# ----------------------------------------------------------------------

def covariant_from_arrays(vals, grads, gamma, variance):
    """(nabla T)[n, a, ...] for component values/partials and symbols Gamma^k_aj."""
    out = np.array(grads, copy=True)
    rank = len(variance)
    letters = string.ascii_lowercase[:rank]
    for pos, var in enumerate(variance):
        src = letters[pos]
        repl = "q"
        tgt = letters[:pos] + repl + letters[pos + 1 :]
        if var > 0:
            # + Gamma^{i_pos}_{a m} T^{..m..}
            sub = f"n{repl}z{src},n{letters}->nz{tgt}"
            out += np.einsum(sub, gamma, vals)
        else:
            # - Gamma^{m}_{a i_pos} T_{..m..}
            sub = f"n{src}z{repl},n{letters}->nz{tgt}"
            out -= np.einsum(sub, gamma, vals)
    return out


# ----------------------------------------------------------------------
# Lie derivative / Killing residual
# ----------------------------------------------------------------------

def killing_residual(g, dg, x, dx) -> np.ndarray:
    """Per-point max norm of the Lie derivative L_X g, from the order-1 jet data of g and X."""
    lie = (
        np.einsum("nk,nkij->nij", x, dg)
        + np.einsum("nkj,nik->nij", g, dx)
        + np.einsum("nik,njk->nij", g, dx)
    )
    return point_max(lie)


# ----------------------------------------------------------------------
# conformal rescaling
# ----------------------------------------------------------------------

def conformal_ricci_correction(g, christoffel, dphi, d2phi) -> np.ndarray:
    """Ricci change under g -> e^{2 phi} g, dimension n = dim:

        C = -(n-2) (Hess phi - dphi o dphi) + (-lap phi - (n-2) |dphi|^2) g

    with lap = trace_g Hess and |dphi|^2 taken with the inverse metric
    (no absolute values in indefinite signature), from the values of g, its
    (Gamma, g^-1) from :func:`_christoffel_arrays` and the first and second
    partials of phi.  Must equal Ric(e^{2 phi} g) - Ric(g) computed directly.
    """
    coeff = g.shape[-1] - 2
    gamma, ginv = christoffel
    hess = d2phi - np.einsum("nkij,nk->nij", gamma, dphi)
    lap = np.einsum("nij,nij->n", ginv, hess)
    grad_sq = np.einsum("nij,ni,nj->n", ginv, dphi, dphi)
    dphi_sq = np.einsum("ni,nj->nij", dphi, dphi)
    return -coeff * (hess - dphi_sq) + (-lap - coeff * grad_sq)[:, None, None] * g


# ----------------------------------------------------------------------
# pseudo-orthonormal frames
# ----------------------------------------------------------------------

def _bilinear(g, u, w):
    """g(u, w) over stacked points, as ``(u @ g) @ w`` per point."""
    return (u[..., None, :] @ g @ w[..., :, None])[..., 0, 0]


def _require_pivots(norm, what: str) -> None:
    """Raise at the first point whose ``norm`` is not above PIVOT_TOL (a NaN is not)."""
    bad = np.flatnonzero(~(norm > PIVOT_TOL))
    if bad.size:
        raise DegeneracyError(
            f"frame construction failed at sample point {bad[0]}: no {what} above {PIVOT_TOL:g}"
        )


def pivoted_frame(g: np.ndarray, cands: np.ndarray, steps: int, partner=None):
    """Pseudo-orthonormal vectors of a batch of bilinear forms by pivoted Gram-Schmidt.

    ``g`` is (N, d, d) and ``cands`` (N, c, d).  Each of ``steps`` steps
    projects every candidate off the vectors kept so far and keeps the one
    with the largest |g(w, w)|, normalised; pivoting avoids null-vector
    breakdown in indefinite signature, and a NaN is never chosen.  With a
    ``partner`` endomorphism (N, d, d) the step next keeps the projected,
    normalised image of that vector, with the same sign.  Returns
    (vectors, signs) of shapes (N, k, d) and (N, k) in the order kept.
    """
    gc = g[:, None]  # one form per point, broadcast over the candidates
    rows = np.arange(len(cands))
    kept: list[np.ndarray] = []
    signs: list[np.ndarray] = []

    def project(w):
        # w is (N, c, d); g-orthogonal projection off every kept vector
        for u, s in zip(kept, signs):
            w = w - (s[:, None] * _bilinear(gc, u[:, None], w))[..., None] * u[:, None]
        return w

    for _ in range(steps):
        w = project(cands)
        val = _bilinear(gc, w, w)
        norm = np.abs(val)
        pick = np.where(np.isnan(norm), 0.0, norm).argmax(axis=1)
        best_norm = norm[rows, pick]
        _require_pivots(best_norm, "pivot")
        kept.append(w[rows, pick] / np.sqrt(best_norm)[:, None])
        signs.append(np.sign(val[rows, pick]))
        if partner is not None:
            jw = project((partner @ kept[-1][..., None]).swapaxes(1, 2))[:, 0]
            jw_norm = np.abs(_bilinear(g, jw, jw))
            _require_pivots(jw_norm, "partner pivot")
            kept.append(jw / np.sqrt(jw_norm)[:, None])
            signs.append(signs[-1])
    return np.stack(kept, axis=1), np.stack(signs, axis=1)


def orthonormal_frame(gval: np.ndarray):
    """Pointwise pseudo-orthonormal frame by pivoted Gram-Schmidt.

    Returns (frame, eps) with frame[n, a, :] the a-th vector and
    eps[n, a] = g(u_a, u_a) = +-1.
    """
    npts, d, _ = gval.shape
    eye = np.eye(d)
    # coordinate vectors plus pairwise sums: a nondegenerate metric is
    # non-null on at least one of these even on a lightlike basis
    cands = np.array(
        [eye[i] for i in range(d)] + [eye[i] + eye[j] for i in range(d) for j in range(i + 1, d)]
    )
    return pivoted_frame(gval, np.broadcast_to(cands, (npts,) + cands.shape), d)


def tracefree_ricci_norm(g, ricci, scalar) -> np.ndarray:
    """Frame-normalized max norm of Ric - (scal/n) g per point, from the values of a metric."""
    tf = ricci - (scalar / g.shape[-1])[:, None, None] * g
    frame, _ = orthonormal_frame(g)
    return point_max(np.einsum("nai,nbj,nij->nab", frame, frame, tf))
