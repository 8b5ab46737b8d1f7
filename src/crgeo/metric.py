"""Levi-Civita geometry of an arbitrary-signature metric on a chart.

All quantities are evaluated at point batches: the metric components and
their exact partials come from the jet engine, and everything downstream
(Christoffel symbols, curvature, covariant derivatives, Lie derivatives,
conformal corrections) is plain numpy index gymnastics.  Functions are
pure; there is no shared mutable state.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .chart import (
    Chart,
    ScalarField,
    SymmetricTwoTensor,
    TensorField,
    VectorField,
    exp as field_exp,
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
        g = self(pts)
        det = np.abs(np.linalg.det(g))
        eig = np.linalg.eigvalsh(g)
        for n in range(len(g)):
            if det[n] <= _DET_FLOOR:
                raise DegeneracyError(f"metric degenerate at sample point {n}: |det| = {det[n]:.3e}")
            signs = (int((eig[n] > 0).sum()), int((eig[n] < 0).sum()))
            if signs != self.signature:
                raise DegeneracyError(
                    f"eigenvalue signs {signs} at sample point {n} do not match "
                    f"declared signature {self.signature}"
                )


def point_max(*arrays) -> np.ndarray:
    """Per-point max |a| over every non-point axis, taken across (N, ...) arrays."""
    return np.max([np.abs(a).reshape(len(a), -1).max(axis=1) for a in arrays], axis=0)


def inverse_metric(gval: np.ndarray) -> np.ndarray:
    det = np.abs(np.linalg.det(gval))
    if det.min() <= _DET_FLOOR:
        raise DegeneracyError(f"singular metric: min |det| = {det.min():.3e}")
    return np.linalg.inv(gval)


# ----------------------------------------------------------------------
# connection and curvature from metric jet data
# ----------------------------------------------------------------------

def _christoffel_arrays(g, dg):
    ginv = inverse_metric(g)
    # C[n,l,i,j] = d_i g_jl + d_j g_il - d_l g_ij
    c = np.einsum("nijl->nlij", dg) + np.einsum("njil->nlij", dg) - dg
    gamma = 0.5 * np.einsum("nkl,nlij->nkij", ginv, c)
    return gamma, ginv, c


def christoffel(metric: MetricField, pts) -> np.ndarray:
    """Levi-Civita symbols Gamma[n, k, i, j] = Gamma^k_ij at each point."""
    g, dg = jet_data(metric, pts, 1)
    gamma, _, _ = _christoffel_arrays(g, dg)
    return gamma


def _dchristoffel_arrays(g, dg, d2g, gamma, ginv, c):
    # d_a g^{kl} = -g^{km} (d_a g_mp) g^{pl}
    dginv = -np.einsum("nkm,namp,npl->nakl", ginv, dg, ginv)
    dc = np.einsum("naijl->nalij", d2g) + np.einsum("najil->nalij", d2g) - d2g
    dgamma = 0.5 * (
        np.einsum("nakl,nlij->nakij", dginv, c) + np.einsum("nkl,nalij->nakij", ginv, dc)
    )
    return dgamma, dginv


def curvature_from_connection(gamma, dgamma, gval):
    """(4,0) curvature R4[n,i,j,k,l] = g(R(e_i,e_j)e_k, e_l) of any connection.

    Sign convention: R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y].  The
    connection coefficients may be non-symmetric (direction index first).
    """
    rup = (
        np.einsum("niljk->nijkl", dgamma)
        - np.einsum("njlik->nijkl", dgamma)
        + np.einsum("nlia,najk->nijkl", gamma, gamma)
        - np.einsum("nlja,naik->nijkl", gamma, gamma)
    )
    r4 = np.einsum("nijkm,nml->nijkl", rup, gval)
    return rup, r4


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature data of a metric at a point batch."""

    riemann: np.ndarray  # (N,d,d,d,d) fully covariant R(e_i,e_j,e_k,e_l)
    ricci: np.ndarray  # (N,d,d)
    scalar: np.ndarray  # (N,)
    operator: np.ndarray  # (N,d,d,d,d) R(e_i,e_j)e_k = operator[n,i,j,k,l] e_l

    def symmetry_residuals(self) -> dict[str, float]:
        r = self.riemann
        scale = max(1.0, float(np.abs(r).max()))
        cyc = r + np.einsum("njkil->nijkl", r) + np.einsum("nkijl->nijkl", r)
        return {
            "antisym_first": float(np.abs(r + r.transpose(0, 2, 1, 3, 4)).max()) / scale,
            "antisym_last": float(np.abs(r + r.transpose(0, 1, 2, 4, 3)).max()) / scale,
            "pair": float(np.abs(r - r.transpose(0, 3, 4, 1, 2)).max()) / scale,
            "first_bianchi": float(np.abs(cyc).max()) / scale,
        }


def levi_civita_arrays(g, dg, d2g):
    """(Gamma, dGamma, g^-1) from the order-2 jet data ``[g, dg, d2g]`` of a metric."""
    gamma, ginv, c = _christoffel_arrays(g, dg)
    dgamma, _ = _dchristoffel_arrays(g, dg, d2g, gamma, ginv, c)
    return gamma, dgamma, ginv


def curvature_from_arrays(g, gamma, dgamma, ginv) -> CurvatureTensor:
    """Curvature, Ricci (trace of Z -> R(Z,X)Y), and scalar curvature of the
    Levi-Civita connection given by its arrays at a point batch."""
    rup, r4 = curvature_from_connection(gamma, dgamma, g)
    ricci = np.einsum("nab,najkb->njk", ginv, r4)
    scalar = np.einsum("njk,njk->n", ginv, ricci)
    return CurvatureTensor(r4, ricci, scalar, rup)


def riemann(metric: MetricField, pts) -> CurvatureTensor:
    """Curvature of a metric field at a point batch, from one order-2 jet evaluation."""
    g, dg, d2g = jet_data(metric, pts, 2)
    return curvature_from_arrays(g, *levi_civita_arrays(g, dg, d2g))


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


def covariant_derivative(metric: MetricField, field: TensorField, pts) -> np.ndarray:
    """Levi-Civita covariant derivative values (N, a, *shape) at points."""
    variance = field.variance
    if len(variance) > 4:
        raise ValueError("valence up to (1,3) supported")
    vals, grads = jet_data(field, pts, 1)
    gamma = christoffel(metric, pts)
    return covariant_from_arrays(vals, grads, gamma, variance)


def second_bianchi_residual(metric: MetricField, pts) -> float:
    """Max norm of the cyclic covariant-derivative sum of the curvature."""
    g, dg, d2g, d3g = jet_data(metric, pts, 3)
    gamma, ginv, c = _christoffel_arrays(g, dg)
    dgamma, dginv = _dchristoffel_arrays(g, dg, d2g, gamma, ginv, c)
    rup, r4 = curvature_from_connection(gamma, dgamma, g)

    # second derivative of the symbols for the curvature gradient
    d2ginv = -(
        np.einsum("nbkm,namp,npl->nbakl", dginv, dg, ginv)
        + np.einsum("nkm,nbamp,npl->nbakl", ginv, d2g, ginv)
        + np.einsum("nkm,namp,nbpl->nbakl", ginv, dg, dginv)
    )
    dc = np.einsum("naijl->nalij", d2g) + np.einsum("najil->nalij", d2g) - d2g
    d2c = np.einsum("nbaijl->nbalij", d3g) + np.einsum("nbajil->nbalij", d3g) - d3g
    d2gamma = 0.5 * (
        np.einsum("nbakl,nlij->nbakij", d2ginv, c)
        + np.einsum("nakl,nblij->nbakij", dginv, dc)
        + np.einsum("nbkl,nalij->nbakij", dginv, dc)
        + np.einsum("nkl,nbalij->nbakij", ginv, d2c)
    )
    drup = (
        np.einsum("nbiljk->nbijkl", d2gamma)
        - np.einsum("nbjlik->nbijkl", d2gamma)
        + np.einsum("nblia,najk->nbijkl", dgamma, gamma)
        + np.einsum("nlia,nbajk->nbijkl", gamma, dgamma)
        - np.einsum("nblja,naik->nbijkl", dgamma, gamma)
        - np.einsum("nlja,nbaik->nbijkl", gamma, dgamma)
    )
    dr4 = np.einsum("nbijkm,nml->nbijkl", drup, g) + np.einsum("nijkm,nbml->nbijkl", rup, dg)
    nabla_r = covariant_from_arrays(r4, dr4, gamma, (-1, -1, -1, -1))
    cyc = (
        nabla_r
        + np.einsum("nijbkl->nbijkl", nabla_r)
        + np.einsum("njbikl->nbijkl", nabla_r)
    )
    return float(np.abs(cyc).max()) / max(1.0, float(np.abs(r4).max()))


# ----------------------------------------------------------------------
# Lie derivative / Killing residual
# ----------------------------------------------------------------------

def killing_residual(metric: MetricField, x: VectorField, pts) -> np.ndarray:
    """Per-point max norm of the Lie derivative L_X g."""
    g, dg = jet_data(metric, pts, 1)
    xv, dx = jet_data(x, pts, 1)
    lie = (
        np.einsum("nk,nkij->nij", xv, dg)
        + np.einsum("nkj,nik->nij", g, dx)
        + np.einsum("nik,njk->nij", g, dx)
    )
    return np.abs(lie).max(axis=(1, 2))


# ----------------------------------------------------------------------
# conformal rescaling
# ----------------------------------------------------------------------

def conformal_rescale(metric: MetricField, phi: ScalarField) -> MetricField:
    """The metric e^{2 phi} g as a new field."""
    return metric.scaled(field_exp(phi * 2.0))


def conformal_ricci_correction(metric: MetricField, phi: ScalarField, pts) -> np.ndarray:
    """Ricci change under g -> e^{2 phi} g, dimension n = dim:

        C = -(n-2) (Hess phi - dphi o dphi) + (-lap phi - (n-2) |dphi|^2) g

    with lap = trace_g Hess and |dphi|^2 taken with the inverse metric
    (no absolute values in indefinite signature).  Must equal
    Ric(e^{2 phi} g) - Ric(g) computed directly.
    """
    n = metric.chart.dim
    coeff = n - 2
    g, dg = jet_data(metric, pts, 1)
    ginv = inverse_metric(g)
    gamma, _, _ = _christoffel_arrays(g, dg)
    pv, dphi, d2phi = jet_data(phi, pts, 2)
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
        bad = np.flatnonzero(~(best_norm > PIVOT_TOL))
        if bad.size:
            raise DegeneracyError(
                f"frame construction failed at sample point {bad[0]}: no pivot above {PIVOT_TOL:g}"
            )
        kept.append(w[rows, pick] / np.sqrt(best_norm)[:, None])
        signs.append(np.sign(val[rows, pick]))
        if partner is not None:
            jw = project((partner @ kept[-1][..., None]).swapaxes(1, 2))[:, 0]
            kept.append(jw / np.sqrt(np.abs(_bilinear(g, jw, jw)))[:, None])
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
    comps = np.einsum("nai,nbj,nij->nab", frame, frame, tf)
    return np.abs(comps).max(axis=(1, 2))
