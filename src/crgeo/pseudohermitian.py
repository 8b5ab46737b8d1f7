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
    lie_bracket,
    symmetric_product,
)
from .errors import DegeneracyError, PreconditionError
from .jets import Jet, _jet_outer, jet_solve
from .metric import (
    MetricField,
    _christoffel_arrays,
    _dchristoffel_arrays,
    covariant_from_arrays,
    curvature_from_connection,
    field_variance,
    point_max,
)

TSPH_TOL = 1e-8


class _JointComponent(ScalarField):
    """Scalar view into a jointly evaluated tensor field."""

    def __init__(self, parent: TensorField, idx: tuple):
        super().__init__(parent.chart, lambda jc: parent._eval_all(jc)[idx])


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
        TensorField.__init__(self, theta.chart)
        arr = np.empty((d,), dtype=object)
        for i in range(d):
            arr[i] = _JointComponent(self, (i,))
        self.components = arr
        self.shape = (d,)

    def _evaluate(self, jc):
        bj = self._bmat._eval_all(jc)
        tj = _stack_components(self.theta, jc)
        try:
            return jet_solve(bj, tj)
        except DegeneracyError as err:
            raise DegeneracyError(f"contact condition violated: {err}") from err


def _stack_components(form, jc) -> Jet:
    parts = [form.components[i]._eval_all(jc) for i in range(form.chart.dim)]
    batch = np.broadcast_shapes(*(p.comp.shape for p in parts))
    return Jet(np.stack([np.broadcast_to(p.comp, batch) for p in parts], axis=-1))


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
        d = chart.dim
        TensorField.__init__(self, chart)
        arr = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(d):
                arr[i, j] = _JointComponent(self, (i, j))
        self.components = arr
        self.shape = (d, d)

    def _evaluate(self, jc):
        d = self.chart.dim
        bd = self.base_j.shape[0]
        jmat = np.zeros((d, d))
        jmat[:bd, :bd] = self.base_j
        tj = _stack_components(self.theta, jc)
        rj = self.reeb._eval_all(jc)
        theta_w = Jet(np.einsum("...a,ab->...b", tj.comp, jmat))
        outer = _jet_outer(rj, theta_w)
        comp = -np.asarray(outer.comp)
        comp[0] = comp[0] + jmat
        return Jet(comp)


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
        b = np.einsum("ni,nj->nij", tval, tval) - dtval
        return {
            "contact_nondegenerate": np.abs(np.linalg.det(b)),
            "complex_structure": point_max(j2 + proj, np.einsum("nij,nj->ni", jval, reeb)),
            "levi_symmetric": point_max(levi - levi.transpose(0, 2, 1)),
            "cr_integrability": self.integrability_residual(pts),
        }

    def integrability_residual(self, pts) -> np.ndarray:
        """Nijenhuis residual J([JX,Y]+[X,JY]) - [JX,JY] + [X,Y] over H pairs."""
        fields = self.horizontal_fields()
        jf = [self.J.apply(x) for x in fields]
        jval = self.J(pts)
        tval = self.theta(pts)
        terms = []
        d = self.chart.dim
        for i in range(d):
            for j in range(i + 1, d):
                x, y, jx, jy = fields[i], fields[j], jf[i], jf[j]
                b1 = lie_bracket(jx, y)(pts) + lie_bracket(x, jy)(pts)
                expr = (
                    np.einsum("nab,nb->na", jval, b1)
                    - lie_bracket(jx, jy)(pts)
                    + lie_bracket(x, y)(pts)
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
    fields = ph.horizontal_fields()
    t = ph.reeb
    jval = ph.J(pts)
    gval = ph.metric(pts)
    terms = []
    for x in fields:
        jx = ph.J.apply(x)
        expr = lie_bracket(t, x)(pts) + np.einsum(
            "nab,nb->na", jval, lie_bracket(t, jx)(pts)
        )
        norm = np.sqrt(np.abs(np.einsum("nij,ni,nj->n", gval, x(pts), x(pts))))
        terms.append(np.abs(expr).max(axis=1) / np.maximum(norm, 1e-12))
    return np.max(terms, axis=0)


class WebsterData:
    """Webster connection package: nabla_W = Levi-Civita(g_theta) + D."""

    def __init__(self, ph: PHStructure):
        self.ph = ph
        self.reeb = ph.reeb
        self.metric = ph.metric
        self.comparison = ph.comparison_tensor

    def connection_data(self, pts, order: int = 0):
        from .chart import jet_data_multi

        g_arrays, d_arrays = jet_data_multi([self.metric, self.comparison], pts, order + 1)
        g, dg = g_arrays[0], g_arrays[1]
        gamma, ginv, c = _christoffel_arrays(g, dg)
        gamma_w = gamma + d_arrays[0]
        if order == 0:
            return gamma_w, g, dg
        d2g = g_arrays[2]
        dgamma, _ = _dchristoffel_arrays(g, dg, d2g, gamma, ginv, c)
        dgamma_w = dgamma + d_arrays[1]
        return gamma_w, dgamma_w, g, dg, gamma, dgamma, ginv

    def covariant_derivative(self, field: TensorField, pts) -> np.ndarray:
        gamma_w = self.connection_data(pts, 0)[0]
        vals, grads = jet_data(field, pts, 1)
        return covariant_from_arrays(vals, grads, gamma_w, field_variance(field))

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

def levi_adapted_frame(ph: PHStructure, pts, pivot_tol: float = 1e-10):
    """Pointwise L-orthonormal frame of H paired as (e_a, J e_a).

    frame[n] rows are (e_1 .. e_m, J e_1 .. J e_m); eps[n, a] is the sign
    g_theta(e_a, e_a).  Pivots on the largest remaining |L(v, v)|.
    """
    pts = ph.chart.points(pts)
    m = ph.m
    d = ph.chart.dim
    tval = ph.theta(pts)
    reeb = ph.reeb(pts)
    jval = ph.J(pts)
    lval = ph.levi_form(pts)
    npts = pts.shape[0]
    frame = np.zeros((npts, 2 * m, d))
    eps = np.zeros((npts, m))
    for n in range(npts):
        lmat = lval[n]
        cands = [np.eye(d)[i] - tval[n, i] * reeb[n] for i in range(d)]
        chosen: list[np.ndarray] = []
        signs: list[float] = []
        for a in range(m):
            best, best_norm = None, 0.0
            for v in cands:
                w = v.copy()
                for u, s in zip(chosen, signs):
                    w = w - s * (u @ lmat @ w) * u
                norm = abs(w @ lmat @ w)
                if norm > best_norm:
                    best, best_norm = w, norm
            if best is None or best_norm <= pivot_tol:
                raise DegeneracyError("H-frame construction failed: Levi form degenerate")
            w = best.copy()
            for u, s in zip(chosen, signs):
                w = w - s * (u @ lmat @ w) * u
            s = float(np.sign(w @ lmat @ w))
            e = w / np.sqrt(abs(w @ lmat @ w))
            je = jval[n] @ e
            for u, su in zip(chosen + [e], signs + [s]):
                je = je - su * (u @ lmat @ je) * u
            je = je / np.sqrt(abs(je @ lmat @ je))
            chosen.extend([e, je])
            signs.extend([s, s])
            frame[n, a] = e
            frame[n, m + a] = je
            eps[n, a] = s
    return frame, eps


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
    return webster_curvature_from_riemann(wd.ph, pts, r4)


def webster_curvature_from_riemann(ph: PHStructure, pts, r4) -> WebsterCurvature:
    """Webster Ricci representative and scalar from the (4,0) curvature at pts."""
    frame, eps = levi_adapted_frame(ph, pts)
    m = ph.m
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
    gamma_w, dgamma_w, g, dg, gamma, dgamma, ginv = wd.connection_data(pts, 1)
    rup_w, r4_w = curvature_from_connection(gamma_w, dgamma_w, g)
    rup_g, r4_g = curvature_from_connection(gamma, dgamma, g)

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

    curv_w = webster_curvature_from_riemann(ph, pts, r4_w)
    ricci_g = np.einsum("nab,najkb->njk", ginv, r4_g)
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
