"""Pseudo-Hermitian structures and the Tanaka-Webster connection.

A structure is a contact form theta together with a compatible complex
structure J on H = ker theta (extended by J(T) = 0 along the Reeb field
T).  The Webster connection is realized through the comparison tensor

    nabla_W = nabla_{g_theta} + (1/2)(dtheta . T - theta (x) J - J (x) theta),

which is exact in the transversally symmetric case; the defining axioms
(metricity, prescribed torsion, parallel theta, J-linearity) are demoted
to residual checks.  The Webster-Ricci tensor is kept as its real
representative W with Ric_W = i W, so the Einstein condition reads
W = -(scal_W / m) dtheta and scal_W = -sum_a eps_a W(e_a, J e_a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .chart import (
    Chart,
    Endomorphism,
    GenericTensorField,
    OneForm,
    ScalarField,
    SymmetricTwoTensor,
    TensorField,
    VectorField,
    exterior_derivative,
    jet_data,
    jet_data_multi,
    symmetric_product,
)
from .errors import DegeneracyError, PreconditionError
from .metric import (
    MetricField,
    covariant_from_arrays,
    curvature_from_arrays,
    curvature_from_connection,
    levi_civita_arrays,
    pivoted_frame,
    point_max,
)

TSPH_TOL = 1e-8


class _JointComponent(ScalarField):
    """Scalar view into a jointly evaluated tensor field."""

    def __init__(self, parent: TensorField, idx: tuple):
        super().__init__(parent.chart, lambda jc: parent._eval_all(jc)[idx])


def _init_joint(field: TensorField, chart: Chart, shape: tuple) -> None:
    """Give a jointly evaluated field component views into its own jet."""
    TensorField.__init__(field, chart)
    field.shape = shape
    field.components = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        field.components[idx] = _JointComponent(field, idx)


# ----------------------------------------------------------------------
# Reeb field: joint jet evaluator solving the defining linear system
# ----------------------------------------------------------------------

class ReebField(VectorField):
    """Unique solution of theta(T) = 1, T . dtheta = 0 at every point.

    The system matrix B_jk = theta_j theta_k - (dtheta)_jk is invertible
    exactly when theta is contact; T = B^{-1} theta is solved in jet
    arithmetic so T stays exactly differentiable.
    """

    def __init__(self, theta: OneForm, dtheta):
        self.theta = theta
        self.dtheta = dtheta
        d = theta.chart.dim
        b = np.empty((d, d), dtype=object)
        for j in range(d):
            for k in range(d):
                b[j, k] = theta.components[j] * theta.components[k] - dtheta.components[j, k]
        self._bmat = GenericTensorField(theta.chart, b, (-1, -1))
        _init_joint(self, theta.chart, (d,))

    def _like(self, components):
        # algebra on the solved field yields a plain vector field
        return VectorField(self.chart, components)

    def _evaluate(self, jc):
        try:
            return jets.jet_solve(self._bmat._eval_all(jc), self.theta._eval_all(jc))
        except DegeneracyError as err:
            raise DegeneracyError(f"contact condition violated: {err}") from err


# ----------------------------------------------------------------------
# lifted complex structure (J(T) = 0 by construction)
# ----------------------------------------------------------------------

class LiftedComplexStructure(Endomorphism):
    """Horizontal lift of a constant base complex structure to ker theta.

    J(X) = W - theta(W) T where W carries the base action of J on the
    leading coordinates and annihilates the fiber directions.
    """

    def __init__(self, chart: Chart, base_j: np.ndarray, theta: OneForm, reeb: VectorField):
        self.base_j = np.asarray(base_j, dtype=float)
        self.theta = theta
        self.reeb = reeb
        bd = self.base_j.shape[0]
        self._jmat = np.zeros((chart.dim, chart.dim))
        self._jmat[:bd, :bd] = self.base_j
        _init_joint(self, chart, (chart.dim, chart.dim))

    def _like(self, components):
        # algebra on the lifted structure yields a plain endomorphism
        return Endomorphism(self.chart, components)

    def _evaluate(self, jc):
        theta_w = self.theta._eval_all(jc) @ self._jmat
        return -jets.outer(self.reeb._eval_all(jc), theta_w) + self._jmat


# ----------------------------------------------------------------------
# the structure
# ----------------------------------------------------------------------

class PHStructure:
    """Contact form plus compatible complex structure on a (2m+1)-chart."""

    def __init__(self, chart: Chart, theta: OneForm, j_endo: Endomorphism, m: int, levi_signature):
        if chart.dim != 2 * m + 1:
            raise ValueError("chart dimension must be 2m + 1")
        self.chart = chart
        self.theta = theta
        self.J = j_endo
        self.m = int(m)
        self.levi_signature = tuple(levi_signature)

    @cached_property
    def dtheta(self):
        return exterior_derivative(self.theta)

    @cached_property
    def reeb(self) -> ReebField:
        return ReebField(self.theta, self.dtheta)

    @cached_property
    def levi_form(self) -> SymmetricTwoTensor:
        """L(X, Y) = dtheta(X, J Y), a full symmetric component matrix."""
        d = self.chart.dim
        comp = [
            [
                _sum_fields([self.dtheta.components[i, a] * self.J.components[a, j] for a in range(d)])
                for j in range(d)
            ]
            for i in range(d)
        ]
        return SymmetricTwoTensor(self.chart, comp)

    @cached_property
    def metric(self) -> MetricField:
        """g_theta = L_theta + theta o theta; one extra plus direction along T."""
        d = self.chart.dim
        tt = symmetric_product(self.theta, self.theta)
        comp = [
            [self.levi_form.components[i, j] + tt.components[i, j] for j in range(d)]
            for i in range(d)
        ]
        p, q = self.levi_signature
        return MetricField(self.chart, comp, (2 * p + 1, 2 * q))

    @cached_property
    def comparison_tensor(self) -> GenericTensorField:
        """D^k_ij = (dtheta_ij T^k - theta_i J^k_j - theta_j J^k_i) / 2."""
        d = self.chart.dim
        t = self.reeb
        comp = np.empty((d, d, d), dtype=object)
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    comp[k, i, j] = (
                        self.dtheta.components[i, j] * t.components[k]
                        - self.theta.components[i] * self.J.components[k, j]
                        - self.theta.components[j] * self.J.components[k, i]
                    ) * 0.5
        return GenericTensorField(self.chart, comp, (1, -1, -1))

    def horizontal_fields(self) -> list[VectorField]:
        """Projections X_i = e_i - theta(e_i) T of the coordinate fields onto H."""
        d = self.chart.dim
        t = self.reeb
        out = []
        for i in range(d):
            comps = []
            for k in range(d):
                base = self.chart.constant(1.0 if k == i else 0.0)
                comps.append(base - self.theta.components[i] * t.components[k])
            out.append(VectorField(self.chart, comps))
        return out

    def h_projector(self, pts) -> np.ndarray:
        """P[n, i, j] = delta_ij - T^i theta_j, projection onto H along T."""
        tval = self.theta(pts)
        reeb = self.reeb(pts)
        return np.eye(self.chart.dim)[None] - np.einsum("ni,nj->nij", reeb, tval)

    # -- structural residuals (per sample point) ----------------------------
    def contact_determinant(self, pts) -> np.ndarray:
        """|det(theta_j theta_k - dtheta_jk)| per point: nonzero exactly where theta is contact."""
        return _contact_determinant(self.theta(pts), self.dtheta(pts))

    def structure_residuals(self, pts) -> dict[str, np.ndarray]:
        """Contact determinant, J^2, Levi-symmetry, and CR-integrability residuals."""
        pts = self.chart.points(pts)
        tval = self.theta(pts)
        dtval = self.dtheta(pts)
        jval = self.J(pts)
        reeb = self.reeb(pts)
        d = self.chart.dim

        proj = np.eye(d)[None] - np.einsum("ni,nj->nij", reeb, tval)
        j2 = np.einsum("nij,njk->nik", jval, jval)
        levi = np.einsum("nia,naj->nij", dtval, jval)
        return {
            "contact_nondegenerate": _contact_determinant(tval, dtval),
            "complex_structure": point_max(j2 + proj, np.einsum("nij,nj->ni", jval, reeb)),
            "levi_symmetric": point_max(levi - levi.transpose(0, 2, 1)),
            "cr_integrability": self.integrability_residual(pts),
        }

    def integrability_residual(self, pts) -> np.ndarray:
        """Nijenhuis residual J([JX,Y]+[X,JY]) - [JX,JY] + [X,Y] over H pairs."""
        d = self.chart.dim
        fields = self.horizontal_fields()
        *xs, (jval, _), (tval, _) = jet_data_multi(
            fields + [self.J.apply(x) for x in fields] + [self.J, self.theta], pts, 1
        )
        x, jx = xs[:d], xs[d:]
        terms = []
        for i in range(d):
            for j in range(i + 1, d):
                b1 = _bracket(jx[i], x[j]) + _bracket(x[i], jx[j])
                expr = (
                    np.einsum("nab,nb->na", jval, b1)
                    - _bracket(jx[i], jx[j])
                    + _bracket(x[i], x[j])
                )
                terms += [expr, np.einsum("na,na->n", tval, b1)]
        return point_max(*terms)

    def reeb_residual(self, pts) -> np.ndarray:
        """Violation of theta(T) = 1 and T . dtheta = 0."""
        tval = self.theta(pts)
        dtval = self.dtheta(pts)
        reeb = self.reeb(pts)
        return point_max(
            np.einsum("ni,ni->n", tval, reeb) - 1.0, np.einsum("ni,nij->nj", reeb, dtval)
        )


def _contact_determinant(tval, dtval) -> np.ndarray:
    # the Reeb system matrix B_jk = theta_j theta_k - dtheta_jk of ReebField
    return np.abs(np.linalg.det(np.einsum("ni,nj->nij", tval, tval) - dtval))


def _bracket(x, y) -> np.ndarray:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k from order-1 ``jet_data`` of X and Y.

    Summed in the order of :func:`crgeo.chart.lie_bracket`, so it equals the
    bracket field evaluated at the same points.
    """
    (xv, dx), (yv, dy) = x, y
    total = xv[:, 0, None] * dy[:, 0] - yv[:, 0, None] * dx[:, 0]
    for i in range(1, xv.shape[1]):
        total = total + xv[:, i, None] * dy[:, i]
        total = total - yv[:, i, None] * dx[:, i]
    return total


def _sum_fields(fields):
    total = fields[0]
    for f in fields[1:]:
        total = total + f
    return total


def make_structure(
    chart: Chart,
    theta: OneForm,
    base_j: np.ndarray,
    m: int,
    levi_signature,
    reeb_hint: VectorField | None = None,
) -> PHStructure:
    """Assemble a structure with J lifted from a constant base complex structure.

    ``reeb_hint`` supplies a closed-form Reeb field for gauges where it is
    known (keeping the expression trees shallow); it must satisfy the
    defining equations, which stay enforced as residual checks, and the
    generic linear-system solver remains available via
    :func:`solved_reeb_field`.
    """
    dtheta = exterior_derivative(theta)
    reeb = reeb_hint if reeb_hint is not None else ReebField(theta, dtheta)
    j_endo = LiftedComplexStructure(chart, base_j, theta, reeb)
    ph = PHStructure(chart, theta, j_endo, m, levi_signature)
    ph.__dict__["dtheta"] = dtheta
    ph.__dict__["reeb"] = reeb
    return ph


def solved_reeb_field(ph: PHStructure) -> ReebField:
    """Reeb field through the generic per-point linear solve (oracle path)."""
    return ReebField(ph.theta, ph.dtheta)


# ----------------------------------------------------------------------
# transversal symmetry and the Webster connection
# ----------------------------------------------------------------------

def transversal_symmetry_residual(ph: PHStructure, pts) -> np.ndarray:
    """Per-point max over an H-frame of |[T,X] + J[T,JX]| / |X|_g."""
    pts = ph.chart.points(pts)
    d = ph.chart.dim
    fields = ph.horizontal_fields()
    *xs, t, (jval, _) = jet_data_multi(
        fields + [ph.J.apply(x) for x in fields] + [ph.reeb, ph.J], pts, 1
    )
    # only values of g_theta are read: its first partials would double the batch cost
    gval = ph.metric(pts)
    terms = []
    for x, jx in zip(xs[:d], xs[d:]):
        expr = _bracket(t, x) + np.einsum("nab,nb->na", jval, _bracket(t, jx))
        norm = np.sqrt(np.abs(np.einsum("nij,ni,nj->n", gval, x[0], x[0])))
        terms.append(np.abs(expr).max(axis=1) / np.maximum(norm, 1e-12))
    return np.max(terms, axis=0)


class WebsterData:
    """Webster connection package: nabla_W = Levi-Civita(g_theta) + D.

    The connection data and the Levi-adapted frame are each held for the
    last two point batches asked for (a pipeline reads them at the contact
    sample and at the Fefferman sample), so the records reading the Webster
    curvature at one sample share a single jet evaluation and one frame.
    """

    def __init__(self, ph: PHStructure):
        self.ph = ph
        self.reeb = ph.reeb
        self.metric = ph.metric
        self.comparison = ph.comparison_tensor
        # (point bytes, shape) -> read-only arrays, for the last two batches
        self._connection: dict = {}
        self._frame: dict = {}

    def _held(self, store: dict, pts, compute) -> tuple:
        key = (pts.tobytes(), pts.shape)
        arrays = store.get(key)
        if arrays is None:
            arrays = compute(pts)
            for arr in arrays:
                arr.flags.writeable = False
            if len(store) == 2:
                del store[next(iter(store))]
            store[key] = arrays
        return arrays

    def _evaluate_connection(self, pts) -> tuple:
        (g, dg, d2g), d_arrays = jet_data_multi([self.metric, self.comparison], pts, 2)
        gamma, dgamma, ginv = levi_civita_arrays(g, dg, d2g)
        return (gamma + d_arrays[0], dgamma + d_arrays[1], g, dg, gamma, dgamma, ginv)

    def connection_data(self, pts, order: int = 0):
        """Webster and Levi-Civita connection arrays at a point batch.

        Order 0: (gamma_w, g, dg).  Order 1 adds the first partials:
        (gamma_w, dgamma_w, g, dg, gamma, dgamma, ginv).  Both orders read
        one held order-1 evaluation; the arrays are read-only.
        """
        pts = self.ph.chart.points(pts)
        full = self._held(self._connection, pts, self._evaluate_connection)
        return full if order else (full[0], full[2], full[3])

    def levi_frame(self, pts):
        """The held :func:`levi_adapted_frame` (frame, eps) at a point batch; read-only."""
        pts = self.ph.chart.points(pts)
        return self._held(self._frame, pts, lambda p: levi_adapted_frame(self.ph, p))

    def covariant_derivative(self, field: TensorField, pts) -> np.ndarray:
        gamma_w = self.connection_data(pts, 0)[0]
        vals, grads = jet_data(field, pts, 1)
        return covariant_from_arrays(vals, grads, gamma_w, field.variance)

    def axiom_residuals(self, pts) -> dict[str, np.ndarray]:
        """Per-point residuals of the defining Tanaka-Webster axioms on H.

        Tor(T, X) = 0 is the transversal-symmetry residual.
        """
        pts = self.ph.chart.points(pts)
        gamma_w, gval, dg = self.connection_data(pts, 0)
        metricity = (
            dg
            - np.einsum("nmai,nmj->naij", gamma_w, gval)
            - np.einsum("nmaj,nim->naij", gamma_w, gval)
        )

        tval, dtv = jet_data(self.ph.theta, pts, 1)
        parallel_theta = dtv - np.einsum("nmai,nm->nai", gamma_w, tval)

        jval, dj = jet_data(self.ph.J, pts, 1)
        nabla_j = (
            dj
            + np.einsum("nkam,nmi->naki", gamma_w, jval)
            - np.einsum("nmai,nkm->naki", gamma_w, jval)
        )

        # torsion axiom on H: Tor(X, Y) = L(JX, Y) T for X, Y in H
        proj = self.ph.h_projector(pts)
        dtheta = self.ph.dtheta(pts)
        reeb = self.ph.reeb(pts)
        tor = gamma_w - np.einsum("nkji->nkij", gamma_w)
        tor_h = np.einsum("nia,nkij,njb->nkab", proj, tor, proj)
        dth_h = np.einsum("nia,nij,njb->nab", proj, dtheta, proj)
        jproj = np.einsum("nki,nia->nka", jval, proj)
        lval = self.ph.levi_form(pts)
        levi_jh = np.einsum("nka,nkl,nlb->nab", jproj, lval, proj)
        return {
            "webster_metricity": point_max(metricity),
            "webster_parallel_theta": point_max(parallel_theta),
            "webster_parallel_j": point_max(nabla_j),
            "webster_torsion_h": point_max(
                tor_h - np.einsum("nab,nk->nkab", dth_h, reeb), dth_h - levi_jh
            ),
        }


def webster_connection(ph: PHStructure, pts=None, tol: float = TSPH_TOL) -> WebsterData:
    """Assemble the Webster connection, enforcing transversal symmetry."""
    if pts is None:
        pts = ph.chart.sample(8, 2024)
    res = transversal_symmetry_residual(ph, pts).max()
    if res > tol:
        raise PreconditionError(
            f"structure is not transversally symmetric: residual {res:.3e} > {tol:g}"
        )
    return WebsterData(ph)


# ----------------------------------------------------------------------
# Levi-adapted frames and Webster curvature
# ----------------------------------------------------------------------

def levi_adapted_frame(ph: PHStructure, pts):
    """Pointwise L-orthonormal frame of H paired as (e_a, J e_a).

    frame[n] rows are (e_1 .. e_m, J e_1 .. J e_m); eps[n, a] is the sign
    g_theta(e_a, e_a).  The candidates are the projections of the
    coordinate vectors onto H; pivots are on the largest |L(v, v)|.
    """
    pts = ph.chart.points(pts)
    cands = ph.h_projector(pts).transpose(0, 2, 1)
    vecs, signs = pivoted_frame(ph.levi_form(pts), cands, ph.m, partner=ph.J(pts))
    return np.concatenate([vecs[:, 0::2], vecs[:, 1::2]], axis=1), signs[:, 0::2]


@dataclass(frozen=True)
class WebsterCurvature:
    """Webster curvature with the real Ricci representative (Ric_W = i W)."""

    riemann: np.ndarray  # (N,d,d,d,d) fully covariant
    ricci_rep: np.ndarray  # (N,d,d) antisymmetric W
    scalar: np.ndarray  # (N,)

    def symmetry_residual(self, jval) -> np.ndarray:
        """Antisymmetries, J-symmetry and W antisymmetry, relative to max |R_W|."""
        r = self.riemann
        scale = max(1.0, np.abs(r).max())
        j_sym = np.einsum("nijal,nak->nijkl", r, jval) + np.einsum(
            "nijka,nal->nijkl", r, jval
        )
        return point_max(
            r + r.transpose(0, 2, 1, 3, 4),
            r + r.transpose(0, 1, 2, 4, 3),
            j_sym,
            self.ricci_rep + self.ricci_rep.transpose(0, 2, 1),
        ) / scale


def webster_curvature(wd: WebsterData, pts) -> WebsterCurvature:
    """Curvature of nabla_W; Ricci trace runs over the (e_a, J e_a) frame."""
    pts = wd.ph.chart.points(pts)
    gamma_w, dgamma_w, g, *_ = wd.connection_data(pts, 1)
    _, r4 = curvature_from_connection(gamma_w, dgamma_w, g)
    return webster_curvature_from_riemann(wd, pts, r4)


def webster_curvature_from_riemann(wd: WebsterData, pts, r4) -> WebsterCurvature:
    """Webster Ricci representative and scalar from the (4,0) curvature at pts."""
    frame, eps = wd.levi_frame(pts)
    m = wd.ph.m
    e, je = frame[:, :m, :], frame[:, m:, :]
    w = np.einsum("na,nak,nal,nijkl->nij", eps, e, je, r4)
    scal = -np.einsum("na,nai,naj,nij->n", eps, e, je, w)
    return WebsterCurvature(r4, w, scal)


def ph_einstein_residual(wd: WebsterData, pts, curv: WebsterCurvature | None = None) -> dict:
    """Einstein condition W = -(scal_W / m) dtheta with scal_W the sample mean.

    Per point: the Einstein residual and the deviation of scal_W from its
    mean; ``scal_mean`` is the sample statistic.  ``curv`` is the Webster
    curvature at ``pts`` when the caller already holds it.
    """
    pts = wd.ph.chart.points(pts)
    if curv is None:
        curv = webster_curvature(wd, pts)
    scal = curv.scalar
    res = curv.ricci_rep + (scal.mean() / wd.ph.m) * wd.ph.dtheta(pts)
    return {
        "webster_einstein": point_max(res),
        "webster_scal_constant": np.abs(scal - scal.mean()),
        "scal_mean": float(scal.mean()),
    }


def comparison_identities_residual(wd: WebsterData, pts) -> dict[str, np.ndarray]:
    """Per-point residuals of the Webster vs Levi-Civita curvature comparison.

    (a) five-term comparison formula, (b) cyclic Bianchi sum of the
    Webster curvature operator, (c) pair symmetry, (d) the Ricci relation
    on H, (e) W(T, .) = 0, (f) Ric(T,T) = m/2 and Ric(T, X) = 0,
    (g) R(X, T)T = X/4 on H.
    """
    ph = wd.ph
    pts = ph.chart.points(pts)
    m = ph.m
    gamma_w, dgamma_w, g, _, gamma, dgamma, ginv = wd.connection_data(pts, 1)
    rup_w, r4_w = curvature_from_connection(gamma_w, dgamma_w, g)
    curv_g = curvature_from_arrays(g, gamma, dgamma, ginv)
    rup_g = curv_g.operator

    tval = ph.theta(pts)
    dtheta, ddtheta = jet_data(ph.dtheta, pts, 1)
    jval = ph.J(pts)
    reeb = ph.reeb(pts)
    d = ph.chart.dim
    eye = np.eye(d)

    # (a) R_W(X,Y)Z = R_g(X,Y)Z - (1/2)(nabla_Z dtheta)(X,Y) T
    #     - (1/2) dtheta(X,Y) J Z + (1/4) dtheta(Y,Z) J X - (1/4) dtheta(X,Z) J Y
    #     + (1/4) theta(Z) theta(X) Y - (1/4) theta(Z) theta(Y) X
    nabla_dtheta = covariant_from_arrays(dtheta, ddtheta, gamma, (-1, -1))
    rhs = (
        rup_g
        - 0.5 * np.einsum("nkij,nl->nijkl", nabla_dtheta, reeb)
        - 0.5 * np.einsum("nij,nlk->nijkl", dtheta, jval)
        + 0.25 * np.einsum("njk,nli->nijkl", dtheta, jval)
        - 0.25 * np.einsum("nik,nlj->nijkl", dtheta, jval)
        + 0.25 * np.einsum("nk,ni,jl->nijkl", tval, tval, eye)
        - 0.25 * np.einsum("nk,nj,il->nijkl", tval, tval, eye)
    )
    scale = max(1.0, np.abs(rup_w).max())
    res_formula = point_max(rup_w - rhs) / scale

    # (b) cyclic Bianchi sum of the Webster curvature operator
    cyc = rup_w + np.einsum("njkil->nijkl", rup_w) + np.einsum("nkijl->nijkl", rup_w)
    res_bianchi = point_max(cyc) / scale

    # (c) pair symmetry of the (4,0) tensor
    res_pair = point_max(r4_w - r4_w.transpose(0, 3, 4, 1, 2)) / scale

    curv_w = webster_curvature_from_riemann(wd, pts, r4_w)
    ricci_g = curv_g.ricci
    proj = eye[None] - np.einsum("ni,nj->nij", reeb, tval)

    # (d) Ric_g(X,Y) = -W(X, JY) - (1/2) g(X,Y) on H
    wj = np.einsum("nia,naj->nij", curv_w.ricci_rep, jval)
    d_expr = ricci_g + wj + 0.5 * g
    d_h = np.einsum("nia,nij,njb->nab", proj, d_expr, proj)

    # (e) W(T, .) = 0
    w_t = np.einsum("ni,nij->nj", reeb, curv_w.ricci_rep)

    # (f) Ric_g(T,T) = (m/2) g(T,T) and Ric_g(T, X) = 0 for X in H
    ric_tt = np.einsum("ni,nj,nij->n", reeb, reeb, ricci_g)
    g_tt = np.einsum("ni,nj,nij->n", reeb, reeb, g)
    ric_t = np.einsum("ni,nij->nj", reeb, ricci_g)

    # (g) R_g(X, T)T = X/4 for X in H
    rxtt = np.einsum("nijkl,nj,nk->nil", rup_g, reeb, reeb)
    lhs = np.einsum("nia,nil->nal", proj, rxtt)
    rhs_g = 0.25 * np.einsum("nla->nal", proj)

    return {
        "comparison_formula": res_formula,
        "webster_bianchi_cyclic": res_bianchi,
        "webster_pair_symmetry": res_pair,
        "ricci_h_relation": point_max(d_h),
        "webster_ricci_reeb": point_max(w_t),
        "ricci_reeb_tt": np.abs(ric_tt - 0.5 * m * g_tt),
        "ricci_reeb_mixed": point_max(np.einsum("nj,njb->nb", ric_t, proj)),
        "reeb_sectional": point_max(lhs - rhs_g),
    }
