"""Kaehler-Einstein bases, circle-bundle structures, and Fefferman metrics.

Charts replace principal bundles throughout: the (2m+1)-space is the
base chart times a fiber coordinate t, the Fefferman total space adds a
second fiber coordinate s, and connection forms are realized as
i * (real one-form) in a fixed trivialization.  Conventions pinned here:

* complex structure J e_x = e_y, J e_y = -e_x per pair (x_j, y_j);
* Kaehler form convention omega = h(., J.), with potential
  gamma = (1/2) sum_j (phi_y_j dx_j - phi_x_j dy_j) for dgamma = omega;
* squares of iR-valued forms expand as (i b)^2 = -(b o b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chart import (
    Chart,
    Endomorphism,
    OneForm,
    ScalarField,
    SymmetricTwoTensor,
    VectorField,
    cos as field_cos,
    differential,
    exterior_derivative,
    jet_data,
    log as field_log,
    pullback_oneform,
    pullback_symmetric,
    extend_vector,
    symmetric_product,
)
from .errors import PreconditionError, UsageError
from .metric import (
    MetricField,
    conformal_rescale,
    curvature_from_arrays,
    curvature_from_connection,  # noqa: F401  kept bound: perfbench's tracer test wraps it here
    levi_civita_arrays,
    point_max,
    riemann,
    tracefree_ricci_norm,
)
from .pseudohermitian import (
    PHStructure,
    WebsterData,
    WebsterSample,
    make_structure,
    ph_einstein_residual,
    webster_connection,
)

EINSTEIN_PRECONDITION_TOL = 1e-6


@dataclass(frozen=True)
class ImaginaryConnectionForm:
    """iR-valued one-form i * real; curvature in real representatives is d(real)."""

    real: OneForm


# ----------------------------------------------------------------------
# Kaehler(-Einstein) base charts from a potential
# ----------------------------------------------------------------------

@dataclass
class KahlerEinsteinChart:
    """Kaehler base data on a 2m-chart in coordinates (x_1, y_1, .., x_m, y_m)."""

    kind: str
    m: int
    chart: Chart
    metric: MetricField
    complex_structure: np.ndarray  # constant matrix J e_x = e_y per pair
    gamma: OneForm  # potential of the Kaehler form: dgamma = h(., J.)
    ricci_potential: OneForm  # potential of the Ricci form: da = Ric(., J.)
    scal_h: float
    einstein: bool = True

    @cached_property
    def j_field(self) -> Endomorphism:
        d = self.chart.dim
        rows = [
            [self.chart.constant(self.complex_structure[i, j]) for j in range(d)]
            for i in range(d)
        ]
        return Endomorphism(self.chart, rows)

    def kahler_residuals(self, pts) -> dict[str, np.ndarray]:
        """Per point: dgamma = h(., J.), Ric = (scal/2m) h, nabla J = 0, da = Ric(., J.)."""
        from .metric import covariant_derivative

        pts = self.chart.points(pts)
        hval = self.metric(pts)
        jmat = self.complex_structure
        omega = np.einsum("nia,aj->nij", hval, jmat)
        dgam = exterior_derivative(self.gamma)(pts)

        curv = riemann(self.metric, pts)
        nabla_j = covariant_derivative(self.metric, self.j_field, pts)
        ric_form = np.einsum("nia,aj->nij", curv.ricci, jmat)
        da = exterior_derivative(self.ricci_potential)(pts)
        out = {
            "kahler_potential": point_max(dgam - omega),
            "kahler_parallel": point_max(nabla_j),
            "ricci_form_potential": point_max(da - ric_form),
        }
        if self.einstein:
            out["kahler_einstein_base"] = point_max(
                curv.ricci - (self.scal_h / (2 * self.m)) * hval
            )
            out["kahler_scal_constant"] = np.abs(curv.scalar - self.scal_h)
        return out


def _complex_structure_matrix(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    for a in range(m):
        j[2 * a + 1, 2 * a] = 1.0
        j[2 * a, 2 * a + 1] = -1.0
    return j


def _metric_from_potential(chart: Chart, potential: ScalarField, m: int) -> list[list[ScalarField]]:
    """Real metric components of the Kaehler metric 2 Re d dbar(potential)."""
    d = chart.dim
    px = [potential.partial(2 * a) for a in range(m)]
    py = [potential.partial(2 * a + 1) for a in range(m)]
    comp = [[None] * d for _ in range(d)]
    for a in range(m):
        for b in range(m):
            hxx = (px[a].partial(2 * b) + py[a].partial(2 * b + 1)) * 0.5
            hxy = (py[b].partial(2 * a) - px[b].partial(2 * a + 1)) * 0.5
            hyx = (py[a].partial(2 * b) - px[a].partial(2 * b + 1)) * 0.5
            comp[2 * a][2 * b] = hxx
            comp[2 * a + 1][2 * b + 1] = hxx
            comp[2 * a][2 * b + 1] = hxy
            comp[2 * a + 1][2 * b] = hyx
    return comp


def _gamma_from_potential(chart: Chart, potential: ScalarField, m: int) -> OneForm:
    """gamma = (1/2) sum (phi_y dx - phi_x dy), a primitive of h(., J.)."""
    comps = [None] * (2 * m)
    for a in range(m):
        comps[2 * a] = potential.partial(2 * a + 1) * 0.5
        comps[2 * a + 1] = potential.partial(2 * a) * (-0.5)
    return OneForm(chart, comps)


_BASE_BOUNDS = {
    ("flat", 1): (-1.0, 1.0),
    ("flat", 2): (-1.0, 1.0),
    ("fubini_study", 1): (-0.8, 0.8),
    ("fubini_study", 2): (-0.6, 0.6),
    ("complex_hyperbolic", 1): (-0.55, 0.55),
    ("complex_hyperbolic", 2): (-0.4, 0.4),
}


def make_kahler_einstein(kind: str, m: int, scale: float = 1.0) -> KahlerEinsteinChart:
    """Catalog of Kaehler-Einstein charts.

    flat: Euclidean C^m (scal = 0, gamma supplied); fubini_study:
    projective space in an affine chart (scal = m(m+1)/scale);
    complex_hyperbolic: the complex ball (scal = -m(m+1)/scale).
    The metric is scale * (reference metric).
    """
    if (kind, m) not in _BASE_BOUNDS:
        raise UsageError(f"no Kaehler-Einstein chart of kind {kind!r} at m={m}")
    if scale <= 0:
        raise UsageError("scale must be positive")
    names = []
    for a in range(m):
        names += [f"x{a + 1}", f"y{a + 1}"]
    bounds = [_BASE_BOUNDS[(kind, m)]] * (2 * m)
    chart = Chart(names, bounds)
    coords = chart.coordinate_fields()
    ssum = coords[0] * coords[0]
    for c in coords[1:]:
        ssum = ssum + c * c

    if kind == "flat":
        potential = ssum * (0.5 * scale)
        scal_h = 0.0
    elif kind == "fubini_study":
        potential = field_log(1.0 + ssum) * (2.0 * scale)
        scal_h = m * (m + 1) / scale
    else:
        potential = field_log(1.0 - ssum) * (-2.0 * scale)
        scal_h = -m * (m + 1) / scale

    comp = _metric_from_potential(chart, potential, m)
    metric = MetricField(chart, comp, (2 * m, 0))
    gamma = _gamma_from_potential(chart, potential, m)
    if scal_h == 0.0:
        ricci_potential = OneForm(chart, [chart.constant(0.0)] * (2 * m))
    else:
        ricci_potential = gamma.scaled(scal_h / (2 * m))
    return KahlerEinsteinChart(
        kind=kind,
        m=m,
        chart=chart,
        metric=metric,
        complex_structure=_complex_structure_matrix(m),
        gamma=gamma,
        ricci_potential=ricci_potential,
        scal_h=scal_h,
        einstein=True,
    )


def make_product_base() -> KahlerEinsteinChart:
    """Non-Einstein Kaehler fixture: round sphere times flat factor (m = 2)."""
    m = 2
    chart = Chart(["x1", "y1", "x2", "y2"], [(-0.7, 0.7)] * 4)
    x1, y1, x2, y2 = chart.coordinate_fields()
    sphere_potential = field_log(1.0 + x1 * x1 + y1 * y1) * 2.0
    flat_potential = (x2 * x2 + y2 * y2) * 0.5
    potential = sphere_potential + flat_potential
    comp = _metric_from_potential(chart, potential, m)
    metric = MetricField(chart, comp, (4, 0))
    gamma = _gamma_from_potential(chart, potential, m)
    # Ricci form potential: only the sphere factor contributes (lambda = 1)
    ricci_potential = OneForm(
        chart,
        [
            sphere_potential.partial(1) * 0.5,
            sphere_potential.partial(0) * (-0.5),
            chart.constant(0.0),
            chart.constant(0.0),
        ],
    )
    return KahlerEinsteinChart(
        kind="sphere_x_flat",
        m=m,
        chart=chart,
        metric=metric,
        complex_structure=_complex_structure_matrix(m),
        gamma=gamma,
        ricci_potential=ricci_potential,
        scal_h=float("nan"),
        einstein=False,
    )


# ----------------------------------------------------------------------
# anticanonical circle-bundle structure (pseudo-Hermitian Einstein gauge)
# ----------------------------------------------------------------------

@dataclass
class AnticanonicalChart:
    """Chart model of the anticanonical circle bundle with its contact gauge."""

    base: KahlerEinsteinChart
    chart: Chart
    connection: ImaginaryConnectionForm  # rho_ac = i * connection.real
    ph: PHStructure

    @property
    def m(self) -> int:
        return self.base.m

    @cached_property
    def webster(self) -> WebsterData:
        return webster_connection(self.ph)


def anticanonical_structure(ke: KahlerEinsteinChart, fiber_bound=(-1.5, 1.5)) -> AnticanonicalChart:
    """Induced contact structure on base x S^1 in the scalar-curvature gauge.

    For scal_h != 0 the gauge is theta = -(2m/scal_h) dt - gamma with
    rho_ac = i(dt + (scal_h/2m) gamma); for scal_h = 0 (and for the
    non-Einstein control) theta = -dt - gamma with rho_ac = i(dt + a_Ric).
    """
    m = ke.m
    chart = ke.chart.extend("t", fiber_bound)
    gamma_t = pullback_oneform(chart, ke.gamma)
    ric_pot_t = pullback_oneform(chart, ke.ricci_potential)
    dt = OneForm(chart, [chart.constant(0.0)] * (2 * m) + [chart.constant(1.0)])

    rho_real = dt + ric_pot_t
    use_scalar_gauge = ke.einstein and ke.scal_h != 0.0
    if use_scalar_gauge:
        theta = rho_real.scaled(-2.0 * m / ke.scal_h)
    else:
        if ke.gamma is None:
            raise PreconditionError("the Ricci-flat gauge requires a Kaehler potential form")
        theta = OneForm(
            chart,
            [gamma_t.components[i] * (-1.0) for i in range(2 * m)]
            + [chart.constant(-1.0)],
        )
    # closed-form Reeb field of these gauges (verified by residual checks)
    reeb_coeff = -ke.scal_h / (2.0 * m) if use_scalar_gauge else -1.0
    reeb_hint = VectorField(
        chart, [chart.constant(0.0)] * (2 * m) + [chart.constant(reeb_coeff)]
    )
    p, q = (m, 0)
    ph = make_structure(chart, theta, ke.complex_structure, m, (p, q), reeb_hint=reeb_hint)
    return AnticanonicalChart(
        base=ke,
        chart=chart,
        connection=ImaginaryConnectionForm(rho_real),
        ph=ph,
    )


def submersion_residuals(ac: AnticanonicalChart, ws: WebsterSample) -> dict[str, np.ndarray]:
    """Per-point relations between the circle bundle and its Kaehler base.

    The connection curvature d(real rho_ac) = Ric_h(., J.), dtheta = h(J., .)
    on H, and the Ricci relations of the Riemannian submersion.
    """
    pts = ws.pts
    m = ac.m
    d = ac.chart.dim
    base_pts = pts[:, : 2 * m]
    jmat = ac.base.complex_structure
    ric_h = riemann(ac.base.metric, base_pts).ricci

    da = exterior_derivative(ac.connection.real)(pts)
    ric_form = np.zeros_like(da)
    ric_form[:, : 2 * m, : 2 * m] = np.einsum("nia,aj->nij", ric_h, jmat)

    hj = np.zeros((pts.shape[0], d, d))
    hj[:, : 2 * m, : 2 * m] = np.einsum("ai,naj->nij", jmat, ac.base.metric(base_pts))
    (tval, _), (dtheta, _), (jval, _), (reeb, _) = ws.contact_jets
    proj = ws.projector
    dt_h = np.einsum("nia,nij,njb->nab", proj, dtheta, proj)
    hj_h = np.einsum("nia,nij,njb->nab", proj, hj, proj)

    gval = ws.connection_jets[0][0]
    curv = ws.lc_curvature

    # Ric(T,T) = (m/2) g(T,T)
    ric_tt = np.einsum("ni,nj,nij->n", reeb, reeb, curv.ricci)
    g_tt = np.einsum("ni,nj,nij->n", reeb, reeb, gval)

    # horizontal lifts of the base coordinate fields: X* = X-hat - theta(X-hat) T
    lifts = np.zeros((pts.shape[0], 2 * m, d))
    for a in range(2 * m):
        lifts[:, a, a] = 1.0
        lifts[:, a, :] -= tval[:, a, None] * reeb

    # Ric(T, X*) = 0 and Ric_h(X,Y) = Ric_g(X*,Y*) + (1/2) g(X*,Y*)
    ric_t = np.einsum("ni,nij->nj", reeb, curv.ricci)
    ric_up = np.einsum("nai,nbj,nij->nab", lifts, lifts, curv.ricci)
    g_up = np.einsum("nai,nbj,nij->nab", lifts, lifts, gval)

    # Ric_h(X,Y) = -W(X*, J Y*)
    jlifts = np.einsum("nij,naj->nai", jval, lifts)
    w_up = np.einsum("nai,nbj,nij->nab", lifts, jlifts, ws.ricci[0])
    return {
        "connection_curvature": point_max(da - ric_form),
        "dtheta_pullback": point_max(dt_h - hj_h),
        "submersion_reeb_tt": np.abs(ric_tt - 0.5 * m * g_tt),
        "submersion_reeb_mixed": point_max(np.einsum("nj,naj->na", ric_t, lifts)),
        "submersion_base": point_max(ric_h - ric_up - 0.5 * g_up),
        "submersion_webster": point_max(ric_h + w_up),
    }


# ----------------------------------------------------------------------
# Fefferman construction
# ----------------------------------------------------------------------

@dataclass
class FeffermanChart:
    """Fefferman metric data on base x (t, s)."""

    ac: AnticanonicalChart
    chart: Chart
    webster_connection_form: ImaginaryConnectionForm  # A_W = i * real
    fefferman_connection_form: ImaginaryConnectionForm  # A_theta = i * real
    metric: MetricField
    vertical_canonical: VectorField  # P, the canonical fiber direction
    reeb_lift: VectorField  # T*
    parallel_one_form: OneForm  # real rep of rho_c + rho_ac; closed and parallel
    scal_w: float
    sw: float  # S_W = scal_h / (2m(m+1))
    theta_total: OneForm
    levi_total: SymmetricTwoTensor

    @property
    def m(self) -> int:
        return self.ac.m


def fefferman_metric(ac: AnticanonicalChart, fiber_bound=(-2.8, 2.8)) -> FeffermanChart:
    """Assemble the Fefferman metric of a pseudo-Hermitian Einstein structure.

    Requires the Einstein condition: only then does the Webster connection
    form admit the local potential A_W = i (m+2)/2 (ds + (2 scal_W / (m(m+2))) theta).
    """
    ein = ph_einstein_residual(ac.webster.at(ac.chart.sample(8, 2024)))
    residual = ein["webster_einstein"].max()
    deviation = ein["webster_scal_constant"].max()
    if residual > EINSTEIN_PRECONDITION_TOL or deviation > EINSTEIN_PRECONDITION_TOL:
        raise PreconditionError(
            f"input is not pseudo-Hermitian Einstein: residual {residual:.3e}, "
            f"scalar deviation {deviation:.3e}"
        )
    # measured Webster scalar; snap the Ricci-flat gauge exactly to zero
    scal_mean = ein["scal_mean"]
    scal_w = scal_mean if abs(scal_mean) > 1e-10 else 0.0
    m = ac.m
    chart = ac.chart.extend("s", fiber_bound)
    theta_total = pullback_oneform(chart, ac.ph.theta)
    levi_total = pullback_symmetric(chart, ac.ph.levi_form)

    ds = OneForm(chart, [chart.constant(0.0)] * (chart.dim - 1) + [chart.constant(1.0)])
    a_w = (ds + theta_total.scaled(2.0 * scal_w / (m * (m + 2)))).scaled(0.5 * (m + 2))
    a_theta = a_w - theta_total.scaled(scal_w / (2.0 * (m + 1)))

    f_comp = symmetric_product(theta_total, a_theta).scaled(4.0 / (m + 2))
    d = chart.dim
    comp = [
        [levi_total.components[i][j] + f_comp.components[i, j] for j in range(d)]
        for i in range(d)
    ]
    p, q = ac.ph.levi_signature
    metric = MetricField(chart, comp, (2 * p + 1, 2 * q + 1))

    p_field = VectorField(chart, [chart.constant(0.0)] * (d - 1) + [chart.constant(1.0)])
    sw = scal_w / (m * (m + 1.0))
    t_hat = extend_vector(chart, ac.ph.reeb)
    t_star = t_hat - p_field.scaled(sw)

    parallel = a_theta - theta_total.scaled(0.5 * (m + 2) * sw)
    return FeffermanChart(
        ac=ac,
        chart=chart,
        webster_connection_form=ImaginaryConnectionForm(a_w),
        fefferman_connection_form=ImaginaryConnectionForm(a_theta),
        metric=metric,
        vertical_canonical=p_field,
        reeb_lift=t_star,
        parallel_one_form=parallel,
        scal_w=scal_w,
        sw=sw,
        theta_total=theta_total,
        levi_total=levi_total,
    )


# ----------------------------------------------------------------------
# conformal Einstein rescaling
# ----------------------------------------------------------------------

@dataclass
class RescaledMetric:
    """Conformally rescaled Fefferman metric e^{2 phi} f."""

    fc: FeffermanChart
    phi: ScalarField
    metric: MetricField
    einstein_constant: float
    # affine fiber coordinate with the conformal ODE normalization:
    # t = t_scale * s, phi = -log(cos(t / (m+2)))
    t_scale: float

    def ode_residual(self, pts) -> np.ndarray:
        """Per point: phi'' - (phi')^2 = 1/(m+2)^2 and phi = phi(t)."""
        m = self.fc.m
        pts = self.fc.chart.points(pts)
        v, d1, d2 = jet_data(self.phi, pts, 2)
        s_index = self.fc.chart.dim - 1
        dt_ds = self.t_scale
        phi_t = d1[:, s_index] / dt_ds
        phi_tt = d2[:, s_index, s_index] / dt_ds**2
        res = phi_tt - phi_t**2 - 1.0 / (m + 2) ** 2
        return point_max(res, d1[:, :s_index])


def einstein_rescale(fc: FeffermanChart) -> RescaledMetric:
    """Rescale by cos^{-2}(t/(m+2)) with t = ((m+2)/2) s; Einstein output.

    The rescaled Ricci equals lambda * (rescaled metric) with
    lambda = (2m+1) scal_h / (4m(m+1)); in the Ricci-flat gauge lambda = 0.
    """
    m = fc.m
    chart = fc.chart
    s_field = chart.coord(chart.dim - 1)
    phi = -field_log(field_cos(s_field * 0.5))
    metric = conformal_rescale(fc.metric, phi)
    scal_h = 2.0 * fc.scal_w
    lam = (2 * m + 1) * scal_h / (4.0 * m * (m + 1))
    return RescaledMetric(fc=fc, phi=phi, metric=metric, einstein_constant=lam, t_scale=0.5 * (m + 2))


# ----------------------------------------------------------------------
# adapted frames and lifts
# ----------------------------------------------------------------------

def base_unitary_frame(ke: KahlerEinsteinChart) -> list[VectorField]:
    """Smooth h-orthonormal frame fields paired as (e_1..e_m, J e_1..J e_m).

    Fixed-order Gram-Schmidt; valid for the positive-definite catalog
    bases, where J e is automatically unit and orthogonal.
    """
    chart = ke.chart
    m = ke.m
    h = ke.metric
    from .chart import sqrt as field_sqrt

    def coord_field(i):
        return VectorField(
            chart, [chart.constant(1.0 if k == i else 0.0) for k in range(chart.dim)]
        )

    es: list[VectorField] = []
    js: list[VectorField] = []
    for a in range(m):
        v = coord_field(2 * a)
        for u in es + js:
            v = v - u.scaled(h.apply(v, u))
        v = v.scaled(1.0 / field_sqrt(h.apply(v, v)))
        es.append(v)
        js.append(ke.j_field.apply(v))
    return es + js


def horizontal_lift(ac: AnticanonicalChart, x_base: VectorField) -> VectorField:
    """theta-horizontal lift X* = X-hat - theta(X-hat) T to the contact chart."""
    xhat = extend_vector(ac.chart, x_base)
    return xhat - ac.ph.reeb.scaled(ac.ph.theta.pair(xhat))


def fefferman_lift(fc: FeffermanChart, x_m: VectorField) -> VectorField:
    """Lift an H-field from the contact chart to the Fefferman chart.

    H-fields lift with zero canonical-fiber component because the
    connection form A_theta already annihilates them.
    """
    return extend_vector(fc.chart, x_m)


def _directional_nabla(gamma, a_vals, b_vals, b_grads):
    # (nabla_A B)^k = A^a (d_a B^k + Gamma^k_{a b} B^b)
    return np.einsum(
        "na,nak->nk", a_vals, b_grads + np.einsum("nkab,nb->nak", gamma, b_vals)
    )


# ----------------------------------------------------------------------
# Fefferman residual record
# ----------------------------------------------------------------------

def fefferman_structure_residuals(fc: FeffermanChart, pts, fval) -> dict[str, np.ndarray]:
    """Per point: normalization, lightlike fibers and forms, the closed form.

    ``fval`` is the value of the Fefferman metric at ``pts``.
    """
    pts = fc.chart.points(pts)
    m = fc.m
    pval = fc.vertical_canonical(pts)
    tsval = fc.reeb_lift(pts)
    f_pt = np.einsum("nij,ni,nj->n", fval, pval, tsval)
    f_pp = np.einsum("nij,ni,nj->n", fval, pval, pval)
    f_tt = np.einsum("nij,ni,nj->n", fval, tsval, tsval)

    finv = np.linalg.inv(fval)
    thval = fc.theta_total(pts)
    athval = fc.fefferman_connection_form.real(pts)
    light_theta = np.einsum("nij,ni,nj->n", finv, thval, thval)
    light_a = np.einsum("nij,ni,nj->n", finv, athval, athval)

    db = exterior_derivative(fc.parallel_one_form)(pts)

    # f-dual of T* - S_W P is (2/(m+2)) * (rho_c + rho_ac) in real reps
    vvals = tsval - fc.sw * pval
    dual = np.einsum("nij,ni->nj", fval, vvals)
    bval = fc.parallel_one_form(pts)

    return {
        "fefferman_normalization": np.abs(f_pt - 1.0),
        "fefferman_lightlike": point_max(f_pp, f_tt),
        "fefferman_lightlike_forms": point_max(light_theta, light_a),
        "closed_one_form": point_max(db),
        "parallel_dual_form": point_max(dual - (2.0 / (m + 2)) * bval),
    }


def fefferman_ricci_residual(fc: FeffermanChart, pts, f_jets) -> dict[str, np.ndarray]:
    """Per-point curvature identities of the Fefferman metric.

    ``f_jets`` is the order-2 ``jet_data`` ``[f, df, d2f]`` of the metric at ``pts``.

    (a) closed form Ric = m S_W f + (2m/(m+2)^2) b o b with b the real
    representative of rho_c + rho_ac; (b) vertical component values;
    (c) curvature component identities; (d) the covariant-derivative
    table on an adapted frame; (e) the parallel vertical field;
    (f) the Killing residual of T*; (g) the never-Einstein certificate;
    (h) dA_W = -Ric_W in real representatives.
    """
    chart = fc.chart
    pts = chart.points(pts)
    m = fc.m
    sw = fc.sw
    pts_m = pts[:, :-1]

    # the one second-order metric evaluation feeds symbols, curvature, Ricci
    fval, df, d2f = f_jets
    gamma_f, dgamma_f, finv = levi_civita_arrays(fval, df, d2f)
    curv = curvature_from_arrays(fval, gamma_f, dgamma_f, finv)
    rup, ric, scalar = curv.operator, curv.ricci, curv.scalar

    bval = fc.parallel_one_form(pts)
    closed = m * sw * fval + (2.0 * m / (m + 2) ** 2) * np.einsum("ni,nj->nij", bval, bval)
    scale = max(1.0, np.abs(ric).max())
    res_closed_form = point_max(ric - closed) / scale

    # adapted frame: base unitary frame lifted twice; all frame fields,
    # the vertical fields, and the parallel candidate share one jet batch
    base_frame = base_unitary_frame(fc.ac.base)
    m_frame = [horizontal_lift(fc.ac, x) for x in base_frame]
    f_frame = [fefferman_lift(fc, x) for x in m_frame]
    vfield = fc.reeb_lift - fc.vertical_canonical.scaled(sw)
    from .chart import jet_data_multi

    f_data = jet_data_multi(
        f_frame + [fc.vertical_canonical, fc.reeb_lift, vfield], pts, 1
    )
    e_data = f_data[: len(f_frame)]
    (p_vals, p_grads), (t_vals, t_grads), (v_vals, v_grads) = f_data[len(f_frame) :]
    pval, tsval = p_vals, t_vals
    e_vals = [d[0] for d in e_data]
    me_data = jet_data_multi(m_frame, pts_m, 1)
    e_m_vals = [d[0] for d in me_data]

    # (b) Ric(P,P) = m/2, Ric(T*,P) = m S_W/2, Ric(T*,T*) = m S_W^2/2, mixed terms vanish
    components = [
        np.einsum("nij,ni,nj->n", ric, pval, pval) - 0.5 * m,
        np.einsum("nij,ni,nj->n", ric, tsval, pval) - 0.5 * m * sw,
        np.einsum("nij,ni,nj->n", ric, tsval, tsval) - 0.5 * m * sw**2,
    ]
    for ev in e_vals:
        components.append(np.einsum("nij,ni,nj->n", ric, tsval, ev))
        components.append(np.einsum("nij,ni,nj->n", ric, pval, ev))

    # (c) curvature identities
    identities = [np.einsum("nijkl,ni,nj->nkl", rup, pval, tsval)]
    tppart = tsval + sw * pval

    ws = fc.ac.webster.at(pts_m)
    gamma_w = ws.webster_symbols[0]
    rup_w = ws.curvature[0]
    _, (dtheta_m, _), (jval_m, _), _ = ws.contact_jets

    for ei in e_vals:
        # R(e_i*, P) T* = (1/4) S_W e_i*
        identities.append(np.einsum("nijkl,ni,nj,nk->nl", rup, ei, pval, tsval) - 0.25 * sw * ei)
        # R(T*, e_i*) e_i* = (1/4) S_W (T* + S_W P)
        identities.append(np.einsum("nijkl,ni,nj,nk->nl", rup, tsval, ei, ei) - 0.25 * sw * tppart)
        # R(P, e_i*) e_i* = (1/4) (T* + S_W P)
        identities.append(np.einsum("nijkl,ni,nj,nk->nl", rup, pval, ei, ei) - 0.25 * tppart)
    for i, ei in enumerate(e_vals):
        for j, ej in enumerate(e_vals):
            if i == j:
                continue
            emi, emj = e_m_vals[i], e_m_vals[j]
            rw_vec = np.einsum("nijkl,ni,nj,nk->nl", rup_w, emi, emj, emj)
            rw_lift = np.zeros((pts.shape[0], chart.dim))
            rw_lift[:, :-1] = rw_vec
            dth = np.einsum("nij,ni,nj->n", dtheta_m, emi, emj)
            jej = np.einsum("nab,nb->na", jval_m, emj)
            jej_lift = np.zeros((pts.shape[0], chart.dim))
            jej_lift[:, :-1] = jej
            identities.append(
                np.einsum("nijkl,ni,nj,nk->nl", rup, ei, ej, ej)
                - rw_lift
                - 1.5 * sw * dth[:, None] * jej_lift
            )

    # (d) covariant derivative table
    table = [
        _directional_nabla(gamma_f, a_vals, b_vals, b_grads)
        for a_vals in (p_vals, t_vals)
        for b_vals, b_grads in ((p_vals, p_grads), (t_vals, t_grads))
    ]
    for i, (ev, eg) in enumerate(e_data):
        jei = np.einsum("nab,nb->na", jval_m, e_m_vals[i])
        jei_lift = np.zeros((pts.shape[0], chart.dim))
        jei_lift[:, :-1] = jei
        # nabla_P e* = nabla_e* P = (1/2) (J e)*
        table.append(_directional_nabla(gamma_f, p_vals, ev, eg) - 0.5 * jei_lift)
        table.append(_directional_nabla(gamma_f, ev, p_vals, p_grads) - 0.5 * jei_lift)
        # nabla_T* e* = nabla_e* T* = (1/2) S_W (J e)*
        table.append(_directional_nabla(gamma_f, t_vals, ev, eg) - 0.5 * sw * jei_lift)
        table.append(_directional_nabla(gamma_f, ev, t_vals, t_grads) - 0.5 * sw * jei_lift)

    for i, (evi, _) in enumerate(e_data):
        for j in range(len(f_frame)):
            emv, emg = me_data[j]
            w_vec = _directional_nabla(gamma_w, e_m_vals[i], emv, emg)
            w_lift = np.zeros((pts.shape[0], chart.dim))
            w_lift[:, :-1] = w_vec
            dth = np.einsum("nij,ni,nj->n", dtheta_m, e_m_vals[i], e_m_vals[j])
            table.append(
                _directional_nabla(gamma_f, evi, *e_data[j])
                - w_lift
                + 0.5 * dth[:, None] * tsval
                + 0.5 * sw * dth[:, None] * pval
            )

    # (e) parallel vertical field T* - S_W P
    nabla_v = v_grads + np.einsum("nkab,nb->nak", gamma_f, v_vals)

    # (f) Killing residual of T*
    lie = (
        np.einsum("nk,nkij->nij", t_vals, df)
        + np.einsum("nkj,nik->nij", fval, t_grads)
        + np.einsum("nik,njk->nij", fval, t_grads)
    )

    # (h) dA_W = -pullback(Ric_W) in real representatives: d(a_W) = -W
    da_w = exterior_derivative(fc.webster_connection_form.real)(pts)
    w_full = np.zeros_like(da_w)
    w_full[:, :-1, :-1] = ws.ricci[0]

    return {
        "fefferman_connection_curvature": point_max(da_w + w_full),
        "fefferman_ricci_closed_form": res_closed_form,
        "fefferman_ricci_components": point_max(*components),
        "fefferman_curvature_identities": point_max(*identities),
        "fefferman_covariant_table": point_max(*table),
        "parallel_vertical_field": point_max(nabla_v),
        "killing_reeb_lift": point_max(lie),
        # (g) never Einstein: frame-normalized trace-free Ricci norm (lower bound)
        "non_einstein_certificate": tracefree_ricci_norm(fval, ric, scalar),
    }


def fefferman_expression_residual(fc: FeffermanChart, pts, fval) -> np.ndarray:
    """Independent assembly of the Fefferman metric from base data.

    Ricci-flat gauge: f = h + (4/(m+2)) theta o a_W.  Otherwise
    f = h + (4m(m+1)/((m+2)^2 scal_h)) (-(b o b) + (c o c)) with
    b, c the real representatives of rho_c + rho_ac and
    rho_c - rho_ac/(m+1); iR-valued squares expand with (i b)^2 = -b o b.
    ``fval`` is the value of the Fefferman metric at ``pts``.
    """
    pts = fc.chart.points(pts)
    m = fc.m
    h_full = np.zeros_like(fval)
    base_pts = pts[:, : 2 * m]
    h_full[:, : 2 * m, : 2 * m] = fc.ac.base.metric(base_pts)
    thval = fc.theta_total(pts)
    awval = fc.webster_connection_form.real(pts)
    if fc.scal_w == 0.0 or not fc.ac.base.einstein or fc.ac.base.scal_h == 0.0:
        sym = 0.5 * (np.einsum("ni,nj->nij", thval, awval) + np.einsum("ni,nj->nij", awval, thval))
        assembled = h_full + (4.0 / (m + 2)) * sym
    else:
        scal_h = 2.0 * fc.scal_w
        bval = fc.parallel_one_form(pts)
        cval = awval + fc.sw * thval  # rho_c - rho_ac/(m+1) in real reps
        coeff = 4.0 * m * (m + 1) / ((m + 2) ** 2 * scal_h)
        assembled = h_full + coeff * (
            -np.einsum("ni,nj->nij", bval, bval) + np.einsum("ni,nj->nij", cval, cval)
        )
    return point_max(assembled - fval)


# ----------------------------------------------------------------------
# rescaling residuals
# ----------------------------------------------------------------------

def _scalar_residual(scalar, target):
    """|scal - target|, relative to |target| unless the target is zero."""
    if target == 0.0:
        return np.abs(scalar)
    return np.abs(scalar - target) / abs(target)


def rescale_residuals(rm: RescaledMetric, pts, jets) -> dict[str, np.ndarray]:
    """Per point: Einstein condition of the rescaled metric and the conformal ODE.

    ``jets`` is the order-2 ``jet_data`` of the rescaled metric at ``pts``.
    """
    fc = rm.fc
    pts = fc.chart.points(pts)
    gval, dg, d2g = jets
    curv = curvature_from_arrays(gval, *levi_civita_arrays(gval, dg, d2g))
    lam = rm.einstein_constant
    return {
        "rescaled_einstein": point_max(curv.ricci - lam * gval),
        "rescaled_scalar": _scalar_residual(curv.scalar, lam * fc.chart.dim),
        "conformal_ode": rm.ode_residual(pts),
    }


def slice_identity_residual(rm: RescaledMetric, n: int = 8, seed: int = 42) -> np.ndarray:
    """At s = 0 the rescaled metric coincides with the Fefferman metric."""
    fc = rm.fc
    pts = fc.chart.sample(n, seed)
    pts[:, -1] = 0.0
    return point_max(rm.metric(pts) - fc.metric(pts))


def correction_structure_residual(rm: RescaledMetric, pts) -> np.ndarray:
    """Ricci-flat gauge: the conformal correction has only a (P,P) component."""
    from .metric import conformal_ricci_correction

    fc = rm.fc
    pts = fc.chart.points(pts)
    corr = conformal_ricci_correction(fc.metric, rm.phi, pts)
    base_frame = base_unitary_frame(fc.ac.base)
    vecs = [fefferman_lift(fc, horizontal_lift(fc.ac, x))(pts) for x in base_frame]
    vecs.append(fc.reeb_lift(pts))
    pvals = fc.vertical_canonical(pts)
    terms = [
        np.einsum("nij,ni,nj->n", corr, u, v)
        for i, u in enumerate(vecs)
        for v in vecs[i:] + [pvals]
    ]
    worst = point_max(*terms)
    # the (P,P) component itself must not vanish
    pp = np.einsum("nij,ni,nj->n", corr, pvals, pvals)
    return np.where(pp == 0.0, np.maximum(worst, 1.0), worst)


# ----------------------------------------------------------------------
# explicit conformally-Einstein metrics on their own charts
# ----------------------------------------------------------------------

@dataclass
class ExplicitEinsteinMetric:
    """Closed-form conformally-Fefferman Einstein metric, built independently."""

    base: KahlerEinsteinChart
    chart: Chart
    metric: MetricField  # the rescaled (Einstein) metric
    unrescaled: MetricField  # cos^2 factor removed
    einstein_constant: float
    # affine identification from Fefferman-chart coordinates (base, t, s)
    # to this chart's coordinates; rows are this chart's coordinates
    identification: np.ndarray
    sasaki_chart: Chart | None = None
    sasaki_metric: MetricField | None = None
    sasaki_constant: float = 0.0
    line_index: int | None = None  # flat-factor coordinate of the unrescaled product

    @property
    def checked_metrics(self) -> list[MetricField]:
        """The metrics whose order-2 jets :func:`explicit_einstein_residuals` reads,
        in its order: the rescaled metric, and the unrescaled product with a
        Sasaki factor.  The first is built from the components of the second,
        so one jet batch evaluates both."""
        if self.sasaki_metric is None:
            return [self.metric]
        return [self.metric, self.unrescaled]


def explicit_einstein_metric(ke: KahlerEinsteinChart) -> ExplicitEinsteinMetric:
    """Direct chart realization of the conformally-Fefferman Einstein metrics.

    Ricci-flat gauge (scal_h = 0, potential form required):
        cos^{-2}(t) (h + 4 dt o (gamma + ds))  on base x (t, s).
    Otherwise, with r = dv + (scal_h/2m) gamma on the circle-bundle chart:
        cos^{-2}(t) (h - (4m(m+1)/scal_h) dt o dt + (4m/((m+1) scal_h)) r o r),
    whose cos^2 part is the product of a line with the Sasaki-Einstein
    metric h + (4m/((m+1) scal_h)) r o r.
    """
    m = ke.m
    base_dim = 2 * m
    if not ke.einstein:
        raise PreconditionError("explicit Einstein construction needs an Einstein base")
    if ke.scal_h == 0.0:
        if ke.gamma is None:
            raise PreconditionError("the Ricci-flat gauge requires a Kaehler potential form")
        chart = ke.chart.extend("t", (-1.4, 1.4)).extend("s", (-6.0, 6.0))
        gamma_t = pullback_oneform(chart, ke.gamma)
        dt = OneForm(chart, [chart.constant(0.0)] * base_dim + [chart.constant(1.0), chart.constant(0.0)])
        ds = OneForm(chart, [chart.constant(0.0)] * (base_dim + 1) + [chart.constant(1.0)])
        fiber = symmetric_product(dt, gamma_t + ds).scaled(4.0)
        h_t = pullback_symmetric(chart, ke.metric)
        comp = [
            [h_t.components[i, j] + fiber.components[i, j] for j in range(chart.dim)]
            for i in range(chart.dim)
        ]
        unrescaled = MetricField(chart, comp, (base_dim + 1, 1))
        lam = 0.0
        # Fefferman coordinates (base, t_ac, s_c) map by t = -s_c/2, s = t_ac
        ident = np.zeros((chart.dim, chart.dim))
        ident[:base_dim, :base_dim] = np.eye(base_dim)
        ident[base_dim, base_dim + 1] = -0.5
        ident[base_dim + 1, base_dim] = 1.0
        sasaki_chart = sasaki_metric = None
        sasaki_constant = 0.0
        line_index = None
    else:
        scal_h = ke.scal_h
        sasaki_chart = ke.chart.extend("v", (-6.0, 6.0))
        gamma_v = pullback_oneform(sasaki_chart, ke.gamma)
        dv = OneForm(
            sasaki_chart, [sasaki_chart.constant(0.0)] * base_dim + [sasaki_chart.constant(1.0)]
        )
        r_ac = dv + gamma_v.scaled(scal_h / (2.0 * m))
        sas_fiber = symmetric_product(r_ac, r_ac).scaled(4.0 * m / ((m + 1) * scal_h))
        h_v = pullback_symmetric(sasaki_chart, ke.metric)
        sas_comp = [
            [h_v.components[i, j] + sas_fiber.components[i, j] for j in range(sasaki_chart.dim)]
            for i in range(sasaki_chart.dim)
        ]
        sas_sig = (base_dim + 1, 0) if scal_h > 0 else (base_dim, 1)
        sasaki_metric = MetricField(sasaki_chart, sas_comp, sas_sig)
        sasaki_constant = scal_h / (2.0 * (m + 1))

        chart = sasaki_chart.extend("t", (-1.4, 1.4))
        gamma_tt = pullback_oneform(chart, ke.gamma)
        dv_t = OneForm(
            chart,
            [chart.constant(0.0)] * base_dim + [chart.constant(1.0), chart.constant(0.0)],
        )
        dt = OneForm(chart, [chart.constant(0.0)] * (base_dim + 1) + [chart.constant(1.0)])
        r_t = dv_t + gamma_tt.scaled(scal_h / (2.0 * m))
        fiber = symmetric_product(dt, dt).scaled(-4.0 * m * (m + 1) / scal_h)
        fiber2 = symmetric_product(r_t, r_t).scaled(4.0 * m / ((m + 1) * scal_h))
        h_t = pullback_symmetric(chart, ke.metric)
        comp = [
            [
                h_t.components[i, j] + fiber.components[i, j] + fiber2.components[i, j]
                for j in range(chart.dim)
            ]
            for i in range(chart.dim)
        ]
        unrescaled = MetricField(chart, comp, (base_dim + 1, 1))
        lam = (2 * m + 1) * scal_h / (4.0 * m * (m + 1))
        # Fefferman coordinates (base, t_ac, s_c): v = t_ac - ((m+1)/2) s_c, t = s_c/2
        ident = np.zeros((chart.dim, chart.dim))
        ident[:base_dim, :base_dim] = np.eye(base_dim)
        ident[base_dim, base_dim] = 1.0
        ident[base_dim, base_dim + 1] = -(m + 1) / 2.0
        ident[base_dim + 1, base_dim + 1] = 0.5
        line_index = chart.dim - 1

    t_field = chart.coord(chart.dim - 1) if ke.scal_h != 0.0 else chart.coord(base_dim)
    factor = 1.0 / (field_cos(t_field) * field_cos(t_field))
    comp_resc = [
        [unrescaled.components[i, j] * factor for j in range(chart.dim)]
        for i in range(chart.dim)
    ]
    metric = MetricField(chart, comp_resc, unrescaled.signature)
    return ExplicitEinsteinMetric(
        base=ke,
        chart=chart,
        metric=metric,
        unrescaled=unrescaled,
        einstein_constant=lam,
        identification=ident,
        sasaki_chart=sasaki_chart,
        sasaki_metric=sasaki_metric,
        sasaki_constant=sasaki_constant,
        line_index=line_index,
    )


def explicit_einstein_residuals(t2: ExplicitEinsteinMetric, pts, jets) -> dict[str, np.ndarray]:
    """Per point: Einstein condition, product structure, and Sasaki cross-check.

    ``jets`` is ``jet_data_multi(t2.checked_metrics, pts, 2)``.  The Sasaki
    factor is checked at its own sample of the same size.
    """
    pts = t2.chart.points(pts)
    gval, dg, d2g = jets[0]
    curv = curvature_from_arrays(gval, *levi_civita_arrays(gval, dg, d2g))
    lam = t2.einstein_constant
    out = {
        "explicit_einstein": point_max(curv.ricci - lam * gval),
        "explicit_scalar": _scalar_residual(curv.scalar, lam * t2.chart.dim),
    }

    if t2.sasaki_metric is not None:
        sp = t2.sasaki_chart.sample(pts.shape[0], 977)
        scurv = riemann(t2.sasaki_metric, sp)
        sval = t2.sasaki_metric(sp)
        out["sasaki_einstein"] = point_max(scurv.ricci - t2.sasaki_constant * sval)
        # product structure of the unrescaled metric along the line factor
        li = t2.line_index
        uval, du, d2u = jets[1]
        ucurv = curvature_from_arrays(uval, *levi_civita_arrays(uval, du, d2u))
        out["sasaki_product"] = point_max(np.delete(uval[:, li, :], li, axis=1))
        out["sasaki_product_curvature"] = point_max(ucurv.riemann[:, li])
    return out


def pipeline_agreement_residual(
    rm: RescaledMetric, t2: ExplicitEinsteinMetric, pts, f_pipe
) -> np.ndarray:
    """The pipeline rescaled metric equals the explicit one under the
    documented affine fiber identification.

    ``f_pipe`` is the value of the rescaled metric at ``pts``.
    """
    fc = rm.fc
    pts = fc.chart.points(pts)
    a = t2.identification
    mapped = pts @ a.T
    f_exp = t2.metric(mapped)
    pulled = np.einsum("ca,ncd,db->nab", a, f_exp, a)
    return point_max(pulled - f_pipe)


# ----------------------------------------------------------------------
# negative controls and gauge invariance
# ----------------------------------------------------------------------

def perturbed_structure(ac: AnticanonicalChart, amplitude: float = 0.2) -> PHStructure:
    """Non-invariant deformation theta + amplitude * x1 * dt: breaks the
    transversal symmetry while keeping the form contact."""
    chart = ac.chart
    x1 = chart.coord(0)
    theta = ac.ph.theta
    comps = list(theta.components)
    comps[-1] = comps[-1] + x1 * amplitude
    theta_p = OneForm(chart, comps)
    return make_structure(chart, theta_p, ac.base.complex_structure, ac.m, ac.ph.levi_signature)


def gauge_shift_scal_residual(
    ac: AnticanonicalChart, ws: WebsterSample, amplitude: float = 0.05
) -> np.ndarray:
    """scal_W from theta + df (basic f) must agree with that of theta, read from ``ws``."""
    chart = ac.chart
    f = chart.coord(0) * chart.coord(1) * amplitude
    df = differential(f)
    theta_hat = ac.ph.theta + df
    ph_hat = make_structure(
        chart,
        theta_hat,
        ac.base.complex_structure,
        ac.m,
        ac.ph.levi_signature,
        reeb_hint=ac.ph.reeb,
    )
    scal_hat = webster_connection(ph_hat).at(ws.pts).ricci[1]
    return np.abs(scal_hat - ws.ricci[1])
