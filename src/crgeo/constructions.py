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

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import jets
from .chart import (
    Chart,
    Endomorphism,
    OneForm,
    ScalarField,
    VectorField,
    _ComponentStack,
    cos as field_cos,
    differential,
    exterior_derivative,
    jet_data,
    log as field_log,
    ordered_sum,
    pullback_oneform,
    pullback_scalar,
    pullback_symmetric,
    symmetric_product,
)
from .errors import PreconditionError, UsageError
from .metric import (
    MetricField,
    _christoffel_arrays,
    _dchristoffel_arrays,
    check_signature,
    conformal_ricci_correction,
    covariant_from_arrays,
    curvature_from_arrays,
    curvature_from_connection,  # noqa: F401  kept bound: perfbench's tracer test wraps it here
    curvature_row,
    killing_residual,
    levi_civita_ricci,
    point_max,
    tracefree_ricci_norm,
)
from .pseudohermitian import (
    PHStructure,
    WebsterSample,
    _at,
    _mul,
    make_structure,
    ph_einstein_residual,
)

EINSTEIN_PRECONDITION_TOL = 1e-6


def _coordinate_field(kind, chart: Chart, i: int, c: float = 1.0):
    """The constant coordinate form c dx_i (``kind`` OneForm) or field c d/dx_i (VectorField)."""
    return kind(chart, [chart.constant(c if k == i else 0.0) for k in range(chart.dim)])


# ----------------------------------------------------------------------
# Kaehler(-Einstein) base charts from a potential
# ----------------------------------------------------------------------

class KahlerEinsteinChart(NamedTuple):
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

    def sample_fields(self, chart: Chart) -> dict:
        """The base fields that :meth:`levi_civita` and :meth:`kahler_residuals` read, by
        name, pulled back onto ``chart`` (one that this chart leads, or this chart)
        with their base shapes, each with the order it is read at: h at 2, gamma and
        the Ricci potential at 1."""
        pull = np.frompyfunc(lambda f: pullback_scalar(chart, f), 1, 1)
        return {
            name: (_ComponentStack(chart, pull(field.components)), order)
            for name, field, order in (
                ("h", self.metric, 2), ("gamma", self.gamma, 1), ("ricci_potential", self.ricci_potential, 1)
            )
        }

    def levi_civita(self, h_jets):
        """(h, Gamma, Ric, scal) of the metric h, from its order-2 jet data (:func:`base_jets`).

        Ricci and the scalar come from :func:`levi_civita_ricci`, with no
        curvature operator.
        """
        gamma, hinv = _christoffel_arrays(*h_jets[:2])
        return (h_jets[0], gamma, *levi_civita_ricci(h_jets, gamma, hinv))

    def kahler_residuals(self, levi_civita, data) -> dict[str, np.ndarray]:
        """Per point: dgamma = h(., J.), Ric = (scal/2m) h, nabla J = 0, da = Ric(., J.).

        ``levi_civita`` is :meth:`levi_civita` at the sample of ``data``, the
        :func:`base_jets` of :meth:`sample_fields` by name; nabla J reads its
        Christoffel symbols, and J, constant, is read as its matrix.
        """
        hval, gamma, ricci, scalar = levi_civita
        jmat = self.complex_structure
        omega = np.einsum("nia,aj->nij", hval, jmat)
        dgam, da = data["gamma"][1], data["ricci_potential"][1]
        dgam, da = dgam - dgam.transpose(0, 2, 1), da - da.transpose(0, 2, 1)
        jval = np.repeat(jmat[None], len(hval), axis=0)  # the jet data of the constant field
        dj = np.zeros(jval.shape[:2] + jval.shape[1:])
        nabla_j = covariant_from_arrays(jval, dj, gamma, Endomorphism.variance)
        ric_form = np.einsum("nia,aj->nij", ricci, jmat)
        out = {
            "kahler_potential": point_max(dgam - omega),
            "kahler_parallel": point_max(nabla_j),
            "ricci_form_potential": point_max(da - ric_form),
        }
        if self.einstein:
            out["kahler_einstein_base"] = point_max(ricci - (self.scal_h / (2 * self.m)) * hval)
            out["kahler_scal_constant"] = np.abs(scalar - self.scal_h)
        return out


def base_jets(data, n: int):
    """Jet data ``[v, d1, ..]`` of pulled-back fields, by name, along the first n coordinates.

    Each derivative axis keeps its first n entries, in a C-contiguous copy:
    the arrays the same fields give on their n-coordinate chart.
    """
    return {
        name: [np.ascontiguousarray(a[(slice(None),) + (slice(n),) * k]) for k, a in enumerate(arrays)]
        for name, arrays in data.items()
    }


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


def _kahler_chart(
    kind: str, chart: Chart, potential: ScalarField, gamma: OneForm, ricci_potential: OneForm,
    scal_h: float, einstein: bool = True,
) -> KahlerEinsteinChart:
    """The Kaehler chart of ``potential``, whose Kaehler form has the primitive ``gamma``."""
    m = chart.dim // 2
    return KahlerEinsteinChart(
        kind=kind,
        m=m,
        chart=chart,
        metric=MetricField(chart, _metric_from_potential(chart, potential, m), (2 * m, 0)),
        complex_structure=_complex_structure_matrix(m),
        gamma=gamma,
        ricci_potential=ricci_potential,
        scal_h=scal_h,
        einstein=einstein,
    )


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
    ssum = ordered_sum(c * c for c in chart.coordinate_fields())

    if kind == "flat":
        potential = ssum * (0.5 * scale)
        scal_h = 0.0
    elif kind == "fubini_study":
        potential = field_log(1.0 + ssum) * (2.0 * scale)
        scal_h = m * (m + 1) / scale
    else:
        potential = field_log(1.0 - ssum) * (-2.0 * scale)
        scal_h = -m * (m + 1) / scale

    gamma = _gamma_from_potential(chart, potential, m)
    return _kahler_chart(kind, chart, potential, gamma, gamma.scaled(scal_h / (2 * m)), scal_h)


def make_product_base() -> KahlerEinsteinChart:
    """Non-Einstein Kaehler fixture: round sphere times flat factor (m = 2)."""
    chart = Chart(["x1", "y1", "x2", "y2"], [(-0.7, 0.7)] * 4)
    x1, y1, x2, y2 = chart.coordinate_fields()
    sphere_potential = field_log(1.0 + x1 * x1 + y1 * y1) * 2.0
    flat_potential = (x2 * x2 + y2 * y2) * 0.5
    potential = sphere_potential + flat_potential
    return _kahler_chart(
        "sphere_x_flat",
        chart,
        potential,
        _gamma_from_potential(chart, potential, 2),
        # Ricci form potential: only the sphere factor contributes (lambda = 1)
        _gamma_from_potential(chart, sphere_potential, 2),
        float("nan"),
        einstein=False,
    )


# ----------------------------------------------------------------------
# anticanonical circle-bundle structure (pseudo-Hermitian Einstein gauge)
# ----------------------------------------------------------------------

class AnticanonicalChart:
    """Chart model of the anticanonical circle bundle with its contact gauge; ``connection`` is
    the real representative of rho_ac, rho_ac = i * connection."""

    def __init__(self, base: KahlerEinsteinChart, chart: Chart, connection: OneForm, ph: PHStructure):
        self.base = base
        self.chart = chart
        self.connection = connection
        self.ph = ph

    @property
    def m(self) -> int:
        return self.base.m

    @cached_property
    def sample_fields(self) -> dict:
        """The fields :func:`submersion_residuals` reads at a contact sample besides the
        structure's, by name, each with its read order: the base's
        (:meth:`KahlerEinsteinChart.sample_fields`, pulled back onto this chart)
        and d(real rho_ac) at order 0."""
        return {**self.base.sample_fields(self.chart), "d_rho": (exterior_derivative(self.connection), 0)}


def anticanonical_structure(ke: KahlerEinsteinChart) -> AnticanonicalChart:
    """Induced contact structure on base x S^1 in the scalar-curvature gauge.

    For scal_h != 0 the gauge is theta = -(2m/scal_h) dt - gamma with
    rho_ac = i(dt + (scal_h/2m) gamma); for scal_h = 0 (and for the
    non-Einstein control) theta = -dt - gamma with rho_ac = i(dt + a_Ric).
    """
    m = ke.m
    chart = ke.chart.extend("t", (-1.5, 1.5))
    gamma_t = pullback_oneform(chart, ke.gamma)
    ric_pot_t = pullback_oneform(chart, ke.ricci_potential)
    dt = _coordinate_field(OneForm, chart, 2 * m)

    rho_real = dt + ric_pot_t
    use_scalar_gauge = ke.einstein and ke.scal_h != 0.0
    if use_scalar_gauge:
        theta = rho_real.scaled(-2.0 * m / ke.scal_h)
    else:
        theta = (dt + gamma_t).scaled(-1.0)
    # closed-form Reeb field of these gauges (verified by residual checks)
    reeb_coeff = -ke.scal_h / (2.0 * m) if use_scalar_gauge else -1.0
    reeb_hint = _coordinate_field(VectorField, chart, 2 * m, reeb_coeff)
    ph = make_structure(chart, theta, ke.complex_structure, m, (m, 0), reeb_hint=reeb_hint)
    return AnticanonicalChart(base=ke, chart=chart, connection=rho_real, ph=ph)


def submersion_residuals(ac: AnticanonicalChart, ws: WebsterSample) -> dict[str, np.ndarray]:
    """Per-point relations between the circle bundle and its Kaehler base.

    The base's own rows (:meth:`KahlerEinsteinChart.kahler_residuals`), the
    connection curvature d(real rho_ac) = Ric_h(., J.), dtheta = h(J., .) on
    H, and the Ricci relations of the Riemannian submersion.  All are read
    from the batch of ``ws``, a sample of ``ac.ph`` given ``ac.sample_fields`` as
    its ``extra`` fields: h, gamma and the Ricci potential at their base
    coordinates.
    """
    m = ac.m
    d = ac.chart.dim
    jmat = ac.base.complex_structure
    base = base_jets({name: ws.extra_jets(name) for name in ("h", "gamma", "ricci_potential")}, 2 * m)
    levi_civita = ac.base.levi_civita(base["h"])
    hval, ric_h = levi_civita[0], levi_civita[2]

    da = ws.extra_jets("d_rho")[0]
    ric_form = np.zeros_like(da)
    ric_form[:, : 2 * m, : 2 * m] = np.einsum("nia,aj->nij", ric_h, jmat)

    hj = np.zeros((len(hval), d, d))
    hj[:, : 2 * m, : 2 * m] = np.einsum("ai,naj->nij", jmat, hval)
    hj_h = np.einsum("nia,nij,njb->nab", ws.projector, hj, ws.projector)

    # Ric(T,T) = (m/2) g(T,T)
    ric_t, ric_tt, g_tt = ws.reeb_ricci

    # the horizontal lifts X* = X-hat - theta(X-hat) T of the base coordinate fields: the
    # first 2m columns X_a of P, and of J P their images J X_a
    lifts, jlifts = (cols[:, :, : 2 * m].transpose(0, 2, 1) for cols in (ws.projector, ws.jprojector))

    # Ric(T, X*) = 0 and Ric_h(X,Y) = Ric_g(X*,Y*) + (1/2) g(X*,Y*)
    ric_up = np.einsum("nai,nbj,nij->nab", lifts, lifts, ws.lc_curvature.ricci)
    g_up = np.einsum("nai,nbj,nij->nab", lifts, lifts, ws.jets("metric")[0])

    # Ric_h(X,Y) = -W(X*, J Y*)
    w_up = np.einsum("nai,nbj,nij->nab", lifts, jlifts, ws.ricci[0])
    return {
        **ac.base.kahler_residuals(levi_civita, base),
        "connection_curvature": point_max(da - ric_form),
        "dtheta_pullback": point_max(ws.dtheta_h - hj_h),
        "submersion_reeb_tt": np.abs(ric_tt - 0.5 * m * g_tt),
        "submersion_reeb_mixed": point_max(np.einsum("nj,naj->na", ric_t, lifts)),
        "submersion_base": point_max(ric_h - ric_up - 0.5 * g_up),
        "submersion_webster": point_max(ric_h + w_up),
    }


# ----------------------------------------------------------------------
# Fefferman construction
# ----------------------------------------------------------------------

class FeffermanChart:
    """f = L + (4/(m+2)) theta o A_theta on base x (t, s), ``chart``, with A_theta = A_W -
    (scal_W/(2(m+1))) theta and A_W = ((m+2)/2) (ds + (2 scal_W/(m(m+2))) theta) in real
    representatives, and ``sw`` = S_W = scal_h / (2m(m+1)).  :func:`fefferman_sample` assembles
    its jets; :attr:`metric` is its tree."""

    def __init__(self, ac: AnticanonicalChart, chart: Chart, scal_w: float, sw: float):
        self.ac = ac
        self.chart = chart
        self.scal_w = scal_w
        self.sw = sw

    @property
    def m(self) -> int:
        return self.ac.m

    @cached_property
    def metric(self) -> MetricField:
        """f's tree, of signature (2p + 1, 2q + 1) for the Levi signature (p, q), built on first use."""
        m, scal_w, chart, ph = self.m, self.scal_w, self.chart, self.ac.ph
        theta = pullback_oneform(chart, ph.theta)
        ds = _coordinate_field(OneForm, chart, chart.dim - 1)
        a_w = (ds + theta.scaled(2.0 * scal_w / (m * (m + 2)))).scaled(0.5 * (m + 2))
        a_theta = a_w - theta.scaled(scal_w / (2.0 * (m + 1)))
        f_comp = symmetric_product(theta, a_theta).scaled(4.0 / (m + 2))
        (p, q), levi = ph.levi_signature, pullback_symmetric(chart, ph.levi_form)
        return MetricField(chart, (levi + f_comp).components, (2 * p + 1, 2 * q + 1))


def fefferman_metric(ac: AnticanonicalChart, ws: WebsterSample) -> FeffermanChart:
    """The Fefferman metric of a pseudo-Hermitian Einstein structure.

    Requires the Einstein condition: only then does the Webster connection
    form admit the local potential A_W = i (m+2)/2 (ds + (2 scal_W / (m(m+2))) theta).
    It is checked, and scal_W measured, on ``ws``, a Webster sample of
    ``ac.ph``; at one point the constancy of scal_W reads that point alone.
    So is the Levi signature that f's is declared from (DegeneracyError).
    """
    if ws.ph is not ac.ph:
        raise ValueError("ws must be a Webster sample of ac.ph")
    ein = ph_einstein_residual(ws)
    residual = ein["webster_einstein"].max()
    deviation = ein["webster_scal_constant"].max()
    # negated, so that a NaN residual fails too
    if not (residual <= EINSTEIN_PRECONDITION_TOL and deviation <= EINSTEIN_PRECONDITION_TOL):
        raise PreconditionError(
            f"input is not pseudo-Hermitian Einstein: residual {residual:.3e}, "
            f"scalar deviation {deviation:.3e}"
        )
    p, q = ac.ph.levi_signature  # g_theta = L + theta o theta has signature (2p + 1, 2q)
    check_signature(ws.jets("metric")[0], (2 * p + 1, 2 * q))
    # measured Webster scalar; snap the Ricci-flat gauge exactly to zero
    scal_mean = ein["scal_mean"]
    scal_w = scal_mean if abs(scal_mean) > 1e-10 else 0.0
    m = ac.m
    chart = ac.chart.extend("s", (-2.8, 2.8))
    return FeffermanChart(ac=ac, chart=chart, scal_w=scal_w, sw=scal_w / (m * (m + 1.0)))


# ----------------------------------------------------------------------
# conformal Einstein rescaling
# ----------------------------------------------------------------------

class RescaledMetric(NamedTuple):
    """Conformally rescaled Fefferman metric e^{2 phi} f, phi = -log cos(s/2), by its constants:
    :func:`fefferman_sample` assembles the jets of e^{2 phi} f and phi (:func:`_conformal_factor`)."""

    fc: FeffermanChart
    einstein_constant: float
    # affine fiber coordinate with the conformal ODE normalization:
    # t = t_scale * s, phi = -log(cos(t / (m+2)))
    t_scale: float

    def ode_residual(self, phi_jets) -> np.ndarray:
        """Per point: phi'' - (phi')^2 = 1/(m+2)^2 and phi = phi(t), from the
        order-2 jet data of phi."""
        m = self.fc.m
        _, d1, d2 = phi_jets
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
    scal_h = 2.0 * fc.scal_w
    lam = (2 * m + 1) * scal_h / (4.0 * m * (m + 1))
    return RescaledMetric(fc=fc, einstein_constant=lam, t_scale=0.5 * (m + 2))


# ----------------------------------------------------------------------
# the Fefferman sample: jet data laid out as jet_data gives it and summed
# as the fields' trees sum, as in pseudohermitian's assembly
# ----------------------------------------------------------------------

def _conformal_factor(pts, order: int):
    """[v, d1, .., d_order] of phi = -log cos(s/2) and of e^{2 phi} at ``pts``, s their last coordinate."""
    phi = -jets.log(jets.cos(jets.seed(pts, order)[-1] * 0.5))
    return [jets.partials(x, len(pts), pts.shape[1], order, ()) for x in (phi, jets.exp(phi * 2.0))]


def _padded(x, dim: int, axes: int):
    """Jet data with every derivative axis and the last ``axes`` value axes widened to ``dim``
    by exact zeros: on a chart extending the field's, as :func:`jets.embed` lays it out."""
    out = [np.zeros([dim if 0 < i <= r or i >= a.ndim - axes else k for i, k in enumerate(a.shape)])
           for r, a in enumerate(x)]
    for wide, a in zip(out, x):
        wide[tuple(map(slice, a.shape))] = a
    return out


def _ordered_sum(x):
    """The sum over the last value axis, term by term, as :func:`crgeo.chart.ordered_sum` sums."""
    return [np.add.accumulate(a, axis=-1)[..., -1] for a in x]


def _unitary_lifts(h, jmat, theta, reeb):
    """Order-1 jet data of the lifts X* = X - theta(X) T of the base's h-unitary frame (e_1, ..,
    e_m, J e_1, .., J e_m), stacked, from that of h (base-shaped), theta and T on one chart: each
    e_a is v = d/dx_(2a) - h(v, u) u over the e and J e kept, then v / sqrt(h(v, v)).  The trees
    read h at order 1, which can differ in the last bits from the order-2 jets given here."""
    k, (n, d) = len(jmat), theta[0].shape  # 2m, points, coordinates
    every = slice(None)

    def pair(v, u):  # h_ij v^i u^j summed over (i, j) in row-major order
        terms = _mul(_mul(h, _at(v, (every, None))), _at(u, (None,)))
        return _ordered_sum([a.reshape(a.shape[:-2] + (-1,)) for a in terms])

    kept = []
    for a in range(k // 2):
        v = [np.zeros((n, k)), np.zeros((n, d, k))]
        v[0][:, 2 * a] = 1.0
        for u in kept:
            v = [x - y for x, y in zip(v, _mul(u, _at(pair(v, u), (None,))))]
        norm = jets.from_partials(pair(v, v))
        v = _mul(v, _at(jets.partials(1.0 / jets.sqrt(norm), n, d, 1, ()), (None,)))
        kept.insert(a, v)
        kept.append(_ordered_sum([x[..., None, :] * jmat for x in v]))  # J v
    # the stack, zero along the fiber coordinates; theta(X) sums over them too
    x = _padded([np.stack([v[r] for v in kept], axis=1 + r) for r in range(2)], d, 1)
    theta_x = _ordered_sum(_mul(_at(theta, (None, every)), x))
    return [a - b for a, b in zip(x, _mul(_at(reeb, (None, every)), _at(theta_x, (every, None))))]


def fefferman_sample(fc: FeffermanChart, inputs: dict, pts) -> dict:
    """The jet data at ``pts`` that the fefferman, rescale and theorem2 records read, from ``inputs``:
    :meth:`WebsterSample.fefferman_inputs` of the Webster sample of ``fc.ac.ph`` at ``pts`` without s,
    made with ``fefferman`` and extra ``h``, which hands its jets over: they are taken out of
    ``inputs``, and each is released once it is read.

    ``f``, ``rescaled`` (e^{2 phi} f) and ``phi`` to order 2; ``frame`` (P, T*, e_1*, .., e_2m*),
    ``vertical`` (T* - S_W P), ``b`` and ``a_w`` to order 1; ``theta``, ``a_theta`` and ``h`` values;
    and ``webster``, the values of the Webster sample that the fefferman record reads, at the contact
    points.  All but ds and phi(s) are contact-chart fields, zero along s: the product rule gives each
    from theta and L, T and h, equal to its tree's jet data up to a zero's sign (see _unitary_lifts).
    """
    pts = fc.chart.points(pts)
    if inputs["ph"] is not fc.ac.ph or not np.array_equal(inputs["pts"], pts[:, :-1]):
        raise ValueError("inputs must come from the Webster sample of fc.ac.ph at pts without s")
    m, dim, scal_w, sw = fc.m, fc.chart.dim, fc.scal_w, fc.sw
    theta = _padded(inputs.pop("theta"), dim, 1)
    ds = np.eye(dim)[-1]  # the values of ds, and of P, at every point

    # A_W, A_theta and b = A_theta - ((m+2)/2) S_W theta, as FeffermanChart.metric builds them
    a_w = [(x * (2.0 * scal_w / (m * (m + 2))) + y) * (0.5 * (m + 2)) for x, y in zip(theta, (ds, 0.0, 0.0))]
    a_theta = [x - y * (scal_w / (2.0 * (m + 1))) for x, y in zip(a_w, theta)]
    b = [x - y * (0.5 * (m + 2) * sw) for x, y in zip(a_theta, theta)]

    # f = L + (theta o A_theta) 4/(m+2), summed into the padded L, and e^{2 phi} f
    f = _padded(inputs.pop("levi"), dim, 2)
    prod = _mul(_at(theta, (slice(None), None)), _at(a_theta, (None,)))  # [i, j] = theta_i A_j
    for r, y in enumerate(prod):
        f[r] += (y + y.swapaxes(-2, -1)) * 0.5 * (4.0 / (m + 2))
    del prod, y
    phi, factor = _conformal_factor(pts, 2)
    rescaled = _mul(f, _at(factor, (None, None)))

    h = inputs.pop("h")
    reeb = _padded(inputs.pop("reeb"), dim, 1)
    lifts = _unitary_lifts(_padded(h[:2], dim, 0), fc.ac.base.complex_structure, theta[:2], reeb)
    p_field = [np.broadcast_to(ds, reeb[0].shape), np.zeros(reeb[1].shape)]
    t_star = [x - y * sw for x, y in zip(reeb, p_field)]
    vertical = [x - y * sw for x, y in zip(t_star, p_field)]
    frame = [np.concatenate([np.expand_dims(x, 1 + r), np.expand_dims(y, 1 + r), z], axis=1 + r)
             for r, (x, y, z) in enumerate(zip(p_field, t_star, lifts))]
    return {"phi": phi, "f": f, "rescaled": rescaled, "frame": frame, "vertical": vertical,
            "theta": theta[:1], "a_theta": a_theta[:1], "b": b[:2], "a_w": a_w[:2], "h": _padded(h[:1], dim, 2),
            "webster": inputs["webster"]}


# ----------------------------------------------------------------------
# contractions on the adapted frame
# ----------------------------------------------------------------------

def _zero_along_s(x):
    # (..., d) vectors of the contact chart as vectors of the Fefferman chart
    return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)


# Each helper below contracts a stack of vectors (N, q, d) one slot at a
# time, by two-operand einsums, in place of one multi-operand einsum per pair.

def _pair_values(form, vals):
    """form(V_p, V_q)[n, p, q] of bilinear forms (N, d, d) on stacked vectors (N, q, d)."""
    return np.einsum("npi,nqi->npq", vals, np.einsum("nij,nqj->nqi", form, vals))


def _frame_curvature(rup, vals):
    """R(V_p, V_q)[n, p, q, k, l] and R(V_p, V_q) V_q [n, p, q, l] of a curvature
    operator ``rup`` (:func:`curvature_from_connection`) on stacked vectors."""
    r_pq = np.einsum("nqj,npjkl->npqkl", vals, np.einsum("npi,nijkl->npjkl", vals, rup))
    return r_pq, np.einsum("nqk,npqkl->npql", vals, r_pq)


def _frame_nabla(gamma, vals, grads):
    """(nabla_{V_p} V_q)^k [n, p, q, k] for stacked vector values (N, q, d) and
    first partials (N, q, d, d), ``grads[n, q, a, k] = d_a V_q^k``."""
    # (nabla_A B)^k = A^a (d_a B^k + Gamma^k_{a b} B^b)
    return np.einsum("npa,nqak->npqk", vals, grads + np.einsum("nkab,nqb->nqak", gamma, vals))


# ----------------------------------------------------------------------
# Fefferman residual record
# ----------------------------------------------------------------------

def fefferman_structure_residuals(fc: FeffermanChart, f, fields) -> dict[str, np.ndarray]:
    """Per point: normalization, lightlike fibers and forms, the closed form.

    ``f`` is (jets, christoffel) of f, as :func:`fefferman_ricci_residual`
    reads it, and ``fields`` the :func:`fefferman_sample` at its points.
    """
    m = fc.m
    (fval, *_), (_, finv) = f
    pval, tsval = fields["frame"][0].swapaxes(0, 1)[:2]
    vvals = fields["vertical"][0]
    thval, athval = fields["theta"][0], fields["a_theta"][0]
    bval, db = fields["b"]
    f_pt = np.einsum("nij,ni,nj->n", fval, pval, tsval)
    f_pp = np.einsum("nij,ni,nj->n", fval, pval, pval)
    f_tt = np.einsum("nij,ni,nj->n", fval, tsval, tsval)

    light_theta = np.einsum("nij,ni,nj->n", finv, thval, thval)
    light_a = np.einsum("nij,ni,nj->n", finv, athval, athval)

    db = db - db.transpose(0, 2, 1)

    # f-dual of T* - S_W P is (2/(m+2)) * (rho_c + rho_ac) in real reps
    dual = np.einsum("nij,ni->nj", fval, vvals)

    return {
        "fefferman_normalization": np.abs(f_pt - 1.0),
        "fefferman_lightlike": point_max(f_pp, f_tt),
        "fefferman_lightlike_forms": point_max(light_theta, light_a),
        "closed_one_form": point_max(db),
        "parallel_dual_form": point_max(dual - (2.0 / (m + 2)) * bval),
    }


def _frame_families(m, sw, curv, gamma_f, frame, frame_grads, webster):
    """Residual arrays of the Fefferman identities on the adapted frame, per family.

    ``frame`` (N, 2m + 2, d) stacks (P, T*, e_1*, .., e_2m*) at the Fefferman
    points and ``frame_grads[n, q, a, k]`` = d_a frame[n, q, k]; ``curv`` and
    ``gamma_f`` are the curvature and symbols of f there.  ``webster`` holds
    the values of Gamma_W, the R_W operator, dtheta and J at the contact-chart
    points (:func:`fefferman_sample`), where the contact frame e_i and its
    first partials are the rows after P and T* without the s entry and the
    s-partial.  Returns the lists (b) Ricci components, (c) curvature
    identities and (d) covariant table; each family is one array, read from
    slices of one staged contraction over the stack.
    """
    rup, ric = curv.operator, curv.ricci
    gamma_w, rup_w = webster["gamma_w"], webster["rup_w"]
    dtheta_m, jval_m = webster["dtheta"], webster["J"]
    pval, tsval = frame[:, 0], frame[:, 1]
    k = frame.shape[1] - 2
    e_m = frame[:, 2:, :-1]
    dth = _pair_values(dtheta_m, e_m)  # dtheta(e_i, e_j)
    je_lift = _zero_along_s(np.einsum("nab,nqb->nqa", jval_m, e_m))  # (J e_i)*
    tppart = tsval + sw * pval

    # (b) Ric(P,P) = m/2, Ric(T*,P) = m S_W/2, Ric(T*,T*) = m S_W^2/2, mixed terms vanish
    ric_pairs = _pair_values(ric, frame)
    components = [
        ric_pairs[:, 0, 0] - 0.5 * m,
        ric_pairs[:, 1, 0] - 0.5 * m * sw,
        ric_pairs[:, 1, 1] - 0.5 * m * sw**2,
        ric_pairs[:, 1, 2:],
        ric_pairs[:, 0, 2:],
    ]

    # (c) curvature identities
    r_pq, r_pqq = _frame_curvature(rup, frame)
    _, rw_pqq = _frame_curvature(rup_w, e_m)
    ee = r_pqq[:, 2:, 2:] - _zero_along_s(rw_pqq) - 1.5 * sw * dth[..., None] * je_lift[:, None]
    identities = [
        r_pq[:, 0, 1],  # R(P, T*) = 0
        # R(e_i*, P) T* = (1/4) S_W e_i*
        np.einsum("nakl,nk->nal", r_pq[:, 2:, 0], tsval) - 0.25 * sw * frame[:, 2:],
        # R(T*, e_i*) e_i* = (1/4) S_W (T* + S_W P)
        r_pqq[:, 1, 2:] - 0.25 * sw * tppart[:, None],
        # R(P, e_i*) e_i* = (1/4) (T* + S_W P)
        r_pqq[:, 0, 2:] - 0.25 * tppart[:, None],
        # R(e_i*, e_j*) e_j* = R_W(e_i, e_j) e_j - (3/2) S_W dtheta(e_i, e_j) (J e_j)*, i != j
        ee[:, ~np.eye(k, dtype=bool)],
    ]

    # (d) covariant derivative table
    nab = _frame_nabla(gamma_f, frame, frame_grads)
    w_lift = _zero_along_s(_frame_nabla(gamma_w, e_m, frame_grads[:, 2:, :-1, :-1]))
    table = [
        nab[:, :2, :2],
        # nabla_P e* = nabla_e* P = (1/2) (J e)*
        nab[:, 0, 2:] - 0.5 * je_lift,
        nab[:, 2:, 0] - 0.5 * je_lift,
        # nabla_T* e* = nabla_e* T* = (1/2) S_W (J e)*
        nab[:, 1, 2:] - 0.5 * sw * je_lift,
        nab[:, 2:, 1] - 0.5 * sw * je_lift,
        # nabla_e_i* e_j* = (nabla_W e_i e_j)* - (1/2) dtheta(e_i, e_j) (T* + S_W P)
        nab[:, 2:, 2:] - w_lift + 0.5 * dth[..., None] * tppart[:, None, None],
    ]
    return components, identities, table


def fefferman_ricci_residual(fc: FeffermanChart, f, fields) -> dict[str, np.ndarray]:
    """Per-point curvature identities of the Fefferman metric.

    ``f`` is (jets, christoffel): ``[f, df, d2f]`` and (Gamma, f^-1) from
    :func:`_christoffel_arrays`, and ``fields`` the :func:`fefferman_sample`
    at its points, whose ``webster`` values give the Webster connection,
    curvature and Ricci there.

    (a) closed form Ric = m S_W f + (2m/(m+2)^2) b o b with b the real
    representative of rho_c + rho_ac; (b) vertical component values;
    (c) curvature component identities; (d) the covariant-derivative
    table on an adapted frame; (e) the parallel vertical field;
    (f) the Killing residual of T*; (g) the never-Einstein certificate;
    (h) dA_W = -Ric_W in real representatives.
    """
    m = fc.m
    sw = fc.sw

    # the one second-order metric evaluation feeds symbols, curvature, Ricci
    (fval, df, d2f), (gamma_f, finv) = f
    curv = curvature_from_arrays(gamma_f, _dchristoffel_arrays(df, d2f, gamma_f, finv), finv)
    ric, scalar = curv.ricci, curv.scalar

    frame, frame_grads = fields["frame"]
    frame_grads = frame_grads.swapaxes(1, 2)  # [n, q, a, k] = d_a frame[n, q, k]
    tsval, dts = frame[:, 1], frame_grads[:, 1]
    vval, dv = fields["vertical"]
    bval, da_w = fields["b"][0], fields["a_w"][1]
    components, identities, table = _frame_families(m, sw, curv, gamma_f, frame, frame_grads, fields["webster"])

    closed = m * sw * fval + (2.0 * m / (m + 2) ** 2) * np.einsum("ni,nj->nij", bval, bval)
    scale = max(1.0, np.abs(ric).max())
    res_closed_form = point_max(ric - closed) / scale

    # (e) parallel vertical field T* - S_W P
    nabla_v = dv + np.einsum("nkab,nb->nak", gamma_f, vval)

    # (h) dA_W = -pullback(Ric_W) in real representatives: d(a_W) = -W
    da_w = da_w - da_w.transpose(0, 2, 1)
    w_full = np.zeros_like(da_w)
    w_full[:, :-1, :-1] = fields["webster"]["w"]

    return {
        "fefferman_connection_curvature": point_max(da_w + w_full),
        "fefferman_ricci_closed_form": res_closed_form,
        "fefferman_ricci_components": point_max(*components),
        "fefferman_curvature_identities": point_max(*identities),
        "fefferman_covariant_table": point_max(*table),
        "parallel_vertical_field": point_max(nabla_v),
        # (f) T* is Killing
        "killing_reeb_lift": killing_residual(fval, df, tsval, dts),
        # (g) never Einstein: frame-normalized trace-free Ricci norm (lower bound)
        "non_einstein_certificate": tracefree_ricci_norm(fval, ric, scalar),
    }


def fefferman_expression_residual(fc: FeffermanChart, fval, fields) -> np.ndarray:
    """Independent assembly of the Fefferman metric from base data.

    Ricci-flat gauge: f = h + (4/(m+2)) theta o a_W.  Otherwise
    f = h + (4m(m+1)/((m+2)^2 scal_h)) (-(b o b) + (c o c)) with
    b, c the real representatives of rho_c + rho_ac and
    rho_c - rho_ac/(m+1); iR-valued squares expand with (i b)^2 = -b o b.
    ``fval`` is the value of f and ``fields`` the :func:`fefferman_sample`
    at its points.
    """
    m = fc.m
    hval, thval = fields["h"][0], fields["theta"][0]
    bval, awval = fields["b"][0], fields["a_w"][0]
    if fc.scal_w == 0.0 or not fc.ac.base.einstein or fc.ac.base.scal_h == 0.0:
        sym = 0.5 * (np.einsum("ni,nj->nij", thval, awval) + np.einsum("ni,nj->nij", awval, thval))
        assembled = hval + (4.0 / (m + 2)) * sym
    else:
        scal_h = 2.0 * fc.scal_w
        cval = awval + fc.sw * thval  # rho_c - rho_ac/(m+1) in real reps
        coeff = 4.0 * m * (m + 1) / ((m + 2) ** 2 * scal_h)
        assembled = hval + coeff * (
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


def rescale_residuals(rm: RescaledMetric, jets, phi_jets) -> dict[str, np.ndarray]:
    """Per point: Einstein condition of the rescaled metric and the conformal ODE.

    ``jets`` and ``phi_jets`` are the order-2 ``jet_data`` of the rescaled
    metric and of phi at one point batch.
    """
    fc = rm.fc
    gval = jets[0]
    ricci, scalar = levi_civita_ricci(jets, *_christoffel_arrays(*jets[:2]))
    lam = rm.einstein_constant
    return {
        "rescaled_einstein": point_max(ricci - lam * gval),
        "rescaled_scalar": _scalar_residual(scalar, lam * fc.chart.dim),
        "conformal_ode": rm.ode_residual(phi_jets),
    }


def slice_identity_residual(rm: RescaledMetric, pts, fval) -> np.ndarray:
    """At s = 0 the rescaled metric coincides with the Fefferman metric: e^{2 phi} f - f at
    ``pts`` with s set to 0.  ``fval`` is the value of f at ``pts``, which f, independent of
    s, keeps on the slice."""
    _, (factor,) = _conformal_factor(_zero_along_s(rm.fc.chart.points(pts)[:, :-1]), 0)
    return point_max(fval * factor[:, None, None] - fval)


def correction_structure_residual(rm: RescaledMetric, f, phi_jets, fields) -> np.ndarray:
    """Ricci-flat gauge: the conformal correction has only a (P,P) component.

    ``f`` is (jets, christoffel) of f as :func:`fefferman_ricci_residual` reads
    it, ``phi_jets`` the order-2 jet data of phi and ``fields`` the
    :func:`fefferman_sample`, all at one point batch.
    """
    (fval, *_), christoffel = f
    corr = conformal_ricci_correction(fval, christoffel, *phi_jets[1:])
    pvals, tsval, *vecs = fields["frame"][0].swapaxes(0, 1)
    vecs.append(tsval)
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

class ExplicitEinsteinMetric(NamedTuple):
    """Closed-form conformally-Fefferman Einstein metric, built independently."""

    base: KahlerEinsteinChart
    chart: Chart
    metric: MetricField  # the rescaled (Einstein) metric
    unrescaled: MetricField  # cos^2 factor removed
    einstein_constant: float
    # affine identification from Fefferman-chart coordinates (base, t, s)
    # to this chart's coordinates; rows are this chart's coordinates
    identification: np.ndarray
    sasaki_metric: MetricField | None = None
    sasaki_constant: float = 0.0

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

    Ricci-flat gauge (scal_h = 0):
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
        chart = ke.chart.extend("t", (-1.4, 1.4)).extend("s", (-6.0, 6.0))
        gamma_t = pullback_oneform(chart, ke.gamma)
        dt = _coordinate_field(OneForm, chart, base_dim)
        ds = _coordinate_field(OneForm, chart, base_dim + 1)
        fiber = symmetric_product(dt, gamma_t + ds).scaled(4.0)
        h_t = pullback_symmetric(chart, ke.metric)
        unrescaled = MetricField(chart, (h_t + fiber).components, (base_dim + 1, 1))
        lam = 0.0
        # Fefferman coordinates (base, t_ac, s_c) map by t = -s_c/2, s = t_ac
        ident = np.zeros((chart.dim, chart.dim))
        ident[:base_dim, :base_dim] = np.eye(base_dim)
        ident[base_dim, base_dim + 1] = -0.5
        ident[base_dim + 1, base_dim] = 1.0
        sasaki_metric = None
        sasaki_constant = 0.0
    else:
        scal_h = ke.scal_h
        sasaki_chart = ke.chart.extend("v", (-6.0, 6.0))
        gamma_v = pullback_oneform(sasaki_chart, ke.gamma)
        dv = _coordinate_field(OneForm, sasaki_chart, base_dim)
        r_ac = dv + gamma_v.scaled(scal_h / (2.0 * m))
        sas_fiber = symmetric_product(r_ac, r_ac).scaled(4.0 * m / ((m + 1) * scal_h))
        h_v = pullback_symmetric(sasaki_chart, ke.metric)
        sas_sig = (base_dim + 1, 0) if scal_h > 0 else (base_dim, 1)
        sasaki_metric = MetricField(sasaki_chart, (h_v + sas_fiber).components, sas_sig)
        sasaki_constant = scal_h / (2.0 * (m + 1))

        chart = sasaki_chart.extend("t", (-1.4, 1.4))
        gamma_tt = pullback_oneform(chart, ke.gamma)
        dv_t = _coordinate_field(OneForm, chart, base_dim)
        dt = _coordinate_field(OneForm, chart, base_dim + 1)
        r_t = dv_t + gamma_tt.scaled(scal_h / (2.0 * m))
        fiber = symmetric_product(dt, dt).scaled(-4.0 * m * (m + 1) / scal_h)
        fiber2 = symmetric_product(r_t, r_t).scaled(4.0 * m / ((m + 1) * scal_h))
        h_t = pullback_symmetric(chart, ke.metric)
        unrescaled = MetricField(chart, (h_t + fiber + fiber2).components, (base_dim + 1, 1))
        lam = (2 * m + 1) * scal_h / (4.0 * m * (m + 1))
        # Fefferman coordinates (base, t_ac, s_c): v = t_ac - ((m+1)/2) s_c, t = s_c/2
        ident = np.zeros((chart.dim, chart.dim))
        ident[:base_dim, :base_dim] = np.eye(base_dim)
        ident[base_dim, base_dim] = 1.0
        ident[base_dim, base_dim + 1] = -(m + 1) / 2.0
        ident[base_dim + 1, base_dim + 1] = 0.5

    t_field = chart.coord(chart.dim - 1) if ke.scal_h != 0.0 else chart.coord(base_dim)
    factor = 1.0 / (field_cos(t_field) * field_cos(t_field))
    return ExplicitEinsteinMetric(
        base=ke,
        chart=chart,
        metric=unrescaled.scaled(factor),
        unrescaled=unrescaled,
        einstein_constant=lam,
        identification=ident,
        sasaki_metric=sasaki_metric,
        sasaki_constant=sasaki_constant,
    )


def explicit_einstein_residuals(t2: ExplicitEinsteinMetric, pts, jets, held=None) -> dict[str, np.ndarray]:
    """Per point: Einstein condition, product structure, and Sasaki cross-check.

    ``jets`` is ``jet_data_multi(t2.checked_metrics, pts, 2, held)``.  The
    Sasaki factor is checked at the same points without the line coordinate
    t, reading its pull-backs from ``held`` too.
    """
    pts = t2.chart.points(pts)
    gval = jets[0][0]
    ricci, scalar = levi_civita_ricci(jets[0], *_christoffel_arrays(*jets[0][:2]))
    lam = t2.einstein_constant
    out = {
        "explicit_einstein": point_max(ricci - lam * gval),
        "explicit_scalar": _scalar_residual(scalar, lam * t2.chart.dim),
    }

    if t2.sasaki_metric is not None:
        s_jets = jet_data(t2.sasaki_metric, pts[:, :-1], 2, held)
        s_ricci, _ = levi_civita_ricci(s_jets, *_christoffel_arrays(*s_jets[:2]))
        out["sasaki_einstein"] = point_max(s_ricci - t2.sasaki_constant * s_jets[0])
        # product structure of the unrescaled metric along the line factor,
        # the last coordinate t: its row R(e_t, ., ., .) vanishes
        li = t2.chart.dim - 1
        uval, du = jets[1][:2]
        out["sasaki_product"] = point_max(np.delete(uval[:, li, :], li, axis=1))
        out["sasaki_product_curvature"] = point_max(
            curvature_row(jets[1], _christoffel_arrays(uval, du)[0], li)
        )
    return out


def pipeline_agreement_residual(
    rm: RescaledMetric, t2: ExplicitEinsteinMetric, pts, f_pipe, held=None
) -> np.ndarray:
    """The pipeline rescaled metric equals the explicit one under the
    documented affine fiber identification.

    ``f_pipe`` is the value of the rescaled metric at ``pts``.  The
    identification keeps the base coordinates, so the explicit metric reads
    its pull-backs from ``held`` too.
    """
    fc = rm.fc
    pts = fc.chart.points(pts)
    a = t2.identification
    mapped = pts @ a.T
    f_exp = jet_data(t2.metric, mapped, 0, held)[0]
    pulled = np.einsum("ca,ncd,db->nab", a, f_exp, a)
    return point_max(pulled - f_pipe)


# ----------------------------------------------------------------------
# negative controls and gauge invariance
# ----------------------------------------------------------------------

def perturbed_structure(ac: AnticanonicalChart) -> PHStructure:
    """Non-invariant deformation theta + 0.2 x1 dt: breaks the
    transversal symmetry while keeping the form contact."""
    chart = ac.chart
    x1 = chart.coord(0)
    theta = ac.ph.theta
    comps = list(theta.components)
    comps[-1] = comps[-1] + x1 * 0.2
    theta_p = OneForm(chart, comps)
    return make_structure(chart, theta_p, ac.base.complex_structure, ac.m, ac.ph.levi_signature)


def gauge_shifted_structure(ac: AnticanonicalChart) -> PHStructure:
    """The structure of theta + df, for the basic f = 0.05 x1 y1, with the Reeb field of theta."""
    chart = ac.chart
    f = chart.coord(0) * chart.coord(1) * 0.05
    return make_structure(
        chart,
        ac.ph.theta + differential(f),
        ac.base.complex_structure,
        ac.m,
        ac.ph.levi_signature,
        reeb_hint=ac.ph.reeb,
    )


def gauge_shift_scal_residual(ws: WebsterSample, shifted: WebsterSample) -> np.ndarray:
    """scal_W of :func:`gauge_shifted_structure` (its sample ``shifted``) against that of theta (``ws``)."""
    return np.abs(shifted.ricci[1] - ws.ricci[1])
