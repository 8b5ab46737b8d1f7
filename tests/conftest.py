"""Shared fixtures: charts, cached construction pipelines and a jet-batch spy.

Also the reference trees of the fields a Webster sample assembles from
held arrays, of f, phi and e^{2 phi} f, which the Fefferman sample
assembles, and of the explicit metrics of Theorem 2, which
``ExplicitEinsteinMetric.jets`` assembles from h and gamma: each as a
field of scalar expression trees, whose jet data the assembled arrays
equal bit for bit.
"""

import functools
import sys

import numpy as np
import pytest

from crgeo import Chart, OneForm, jets
from crgeo.chart import (
    GenericTensorField,
    SymmetricTwoTensor,
    VectorField,
    _pulled_back,
    contract,
    cos as fcos,
    exp as fexp,
    jet_data,
    log as flog,
    pullback_oneform,
    symmetric_product,
)
from crgeo.metric import MetricField, riemann
from crgeo.pseudohermitian import ReebField, make_structure
from crgeo.verify import Pipeline


def sub(a, b):
    """a - b of two tensor fields of one kind, component by component, as a field of a's kind."""
    return a._like(a.components - b.components)


def pullback_symmetric(total: Chart, s) -> SymmetricTwoTensor:
    """A base chart's symmetric 2-tensor on a chart extending it, zero along the new coordinates."""
    return SymmetricTwoTensor(total, _pulled_back(total, s))


def coordinate_form(chart: Chart, i: int) -> OneForm:
    """The constant coordinate form dx_i."""
    return OneForm(chart, [chart.constant(1.0 if k == i else 0.0) for k in range(chart.dim)])


def levi_form(ph) -> SymmetricTwoTensor:
    """L(X, Y) = dtheta(X, J Y) as a tree, a full symmetric component matrix."""
    return SymmetricTwoTensor(ph.chart, contract(ph.dtheta.components, ph.J.components))


@functools.cache
def fefferman_tree(fc) -> MetricField:
    """f = L + (4/(m+2)) theta o A_theta as a tree on the Fefferman chart of ``fc``, of signature
    (2p + 1, 2q + 1) for the Levi signature (p, q): what ``fefferman_sample`` assembles."""
    m, scal_w, chart, ph = fc.m, fc.scal_w, fc.chart, fc.ac.ph
    theta = pullback_oneform(chart, ph.theta)
    ds = coordinate_form(chart, chart.dim - 1)
    a_w = (ds + theta.scaled(2.0 * scal_w / (m * (m + 2)))).scaled(0.5 * (m + 2))
    a_theta = sub(a_w, theta.scaled(scal_w / (2.0 * (m + 1))))
    f_comp = symmetric_product(theta, a_theta).scaled(4.0 / (m + 2))
    (p, q), levi = ph.levi_signature, pullback_symmetric(chart, levi_form(ph))
    return MetricField(chart, (levi + f_comp).components, (2 * p + 1, 2 * q + 1))


def explicit_trees(ke, t2) -> tuple:
    """(g, U, S): the explicit metric g = cos^-2(t) U of ``t2``, its cos^2 part U and its Sasaki
    factor S (None for a Ricci-flat base), as trees on ``t2.chart``, and S on that chart without
    its last coordinate t: what ``ExplicitEinsteinMetric.jets`` assembles from h and gamma."""
    m, scal_h, chart = ke.m, ke.scal_h, t2.chart
    base_dim = 2 * m
    sasaki = None
    if scal_h == 0.0:
        dt, ds = coordinate_form(chart, base_dim), coordinate_form(chart, base_dim + 1)
        fiber = symmetric_product(dt, pullback_oneform(chart, ke.gamma) + ds).scaled(4.0)
        unrescaled = MetricField(chart, (pullback_symmetric(chart, ke.metric) + fiber).components, t2.signature)
        line = base_dim
    else:
        sasaki_chart = Chart(chart.names[:-1], chart.bounds[:-1])
        r_ac = coordinate_form(sasaki_chart, base_dim) + pullback_oneform(sasaki_chart, ke.gamma).scaled(
            scal_h / (2.0 * m))
        sas_fiber = symmetric_product(r_ac, r_ac).scaled(4.0 * m / ((m + 1) * scal_h))
        sas_sig = (base_dim + 1, 0) if scal_h > 0 else (base_dim, 1)
        sasaki = MetricField(sasaki_chart, (pullback_symmetric(sasaki_chart, ke.metric) + sas_fiber).components,
                             sas_sig)
        dt = coordinate_form(chart, base_dim + 1)
        r_t = coordinate_form(chart, base_dim) + pullback_oneform(chart, ke.gamma).scaled(scal_h / (2.0 * m))
        fiber = symmetric_product(dt, dt).scaled(-4.0 * m * (m + 1) / scal_h)
        fiber2 = symmetric_product(r_t, r_t).scaled(4.0 * m / ((m + 1) * scal_h))
        h_t = pullback_symmetric(chart, ke.metric)
        unrescaled = MetricField(chart, (h_t + fiber + fiber2).components, t2.signature)
        line = chart.dim - 1
    t = chart.coord(line)
    return unrescaled.scaled(1.0 / (fcos(t) * fcos(t))), unrescaled, sasaki


def comparison_tensor(ph) -> GenericTensorField:
    """D^k_ij = (dtheta_ij T^k - theta_i J^k_j - theta_j J^k_i) / 2, one tree per component."""
    dth, th = ph.dtheta.components, ph.theta.components
    t, j = ph.reeb.components, ph.J.components
    comp = (
        dth[None] * t[:, None, None]
        - th[None, :, None] * j[:, None, :]
        - th[None, None, :] * j[:, :, None]
    ) * 0.5
    return GenericTensorField(ph.chart, comp, (1, -1, -1))


def g_theta(ph) -> MetricField:
    """g_theta = L_theta + theta o theta as a tree, with one extra plus direction along T."""
    p, q = ph.levi_signature
    return MetricField(ph.chart, (levi_form(ph) + symmetric_product(ph.theta, ph.theta)).components,
                       (2 * p + 1, 2 * q))


def horizontal_fields(ph) -> list[VectorField]:
    """Projections X_i = e_i - theta(e_i) T of the coordinate fields onto H."""
    theta_t = np.multiply.outer(ph.theta.components, ph.reeb.components)
    return [VectorField(ph.chart, row) for row in np.eye(ph.chart.dim) - theta_t]


def j_image(ph, x) -> VectorField:
    """J X as a tree: (J X)^i = sum_k J^i_k X^k over k ascending."""
    return VectorField(ph.chart, contract(ph.J.components, x.components))


def solved_reeb_field(ph) -> ReebField:
    """The Reeb field solved from theta as a tree, NaN where theta is not contact."""
    field = ReebField(ph.theta, ph.dtheta)
    field.op = functools.partial(jets.jet_solve, singular="nan")
    return field


def conformal_rescale(metric: MetricField, phi) -> MetricField:
    """The metric e^{2 phi} g as a tree."""
    return metric.scaled(fexp(phi * 2.0))


def rescale_trees(fc) -> tuple:
    """(phi, e^{2 phi} f) as trees on the Fefferman chart of ``fc``, phi = -log cos(s/2) of its
    last coordinate s: what ``fefferman_sample`` and the slice_identity row assemble."""
    phi = -flog(fcos(fc.chart.coord(fc.chart.dim - 1) * 0.5))
    return phi, conformal_rescale(fefferman_tree(fc), phi)


def reference_fields(ph, connection: bool = True) -> dict:
    """The assembled fields of a Webster sample as trees, by name, each with its read order.

    g_theta (``metric``), the X_i and J X_i (``("x", i)``, ``("jx", i)``),
    and with ``connection`` D and the solved Reeb field; with theta, dtheta,
    J and T, these are the fields a sample once evaluated in its one batch.
    """
    fields = {name: (field, 1) for name, field in
              (("theta", ph.theta), ("dtheta", ph.dtheta), ("J", ph.J), ("reeb", ph.reeb))}
    fields["metric"] = (g_theta(ph), 2 if connection else 1)
    for i, x in enumerate(horizontal_fields(ph)):
        fields["x", i] = (x, 1)
        fields["jx", i] = (j_image(ph, x), 1)
    if connection:
        fields["D"] = (comparison_tensor(ph), 1)
        fields["solved_reeb"] = (solved_reeb_field(ph), 0)
    return fields


@pytest.fixture(scope="session")
def plane():
    return Chart(["x", "y"], [(-2.0, 2.0), (-2.0, 2.0)])


@pytest.fixture(scope="session")
def heisenberg():
    """Flat contact model: theta = -dt - (1/2)(y dx - x dy) reversed-sign gauge."""
    chart = Chart(["x", "y", "t"], [(-1.0, 1.0), (-1.0, 1.0), (-1.5, 1.5)])
    x, y, _ = chart.coordinate_fields()
    theta = OneForm(chart, [y * (-0.5), x * 0.5, chart.constant(-1.0)])
    base_j = np.array([[0.0, -1.0], [1.0, 0.0]])
    return make_structure(chart, theta, base_j, m=1, levi_signature=(1, 0))


@pytest.fixture(scope="session")
def riemann_symmetries():
    """Relative residuals of the Riemann symmetries and the first Bianchi identity
    of a metric's (4,0) tensor at a point batch, lowered from the operator."""

    def residuals(metric, pts) -> dict[str, float]:
        r = np.einsum("nijkm,nml->nijkl", riemann(metric, pts).operator, jet_data(metric, pts, 0)[0])
        scale = max(1.0, float(np.abs(r).max()))
        cyc = r + np.einsum("njkil->nijkl", r) + np.einsum("nkijl->nijkl", r)
        return {
            "antisym_first": float(np.abs(r + r.transpose(0, 2, 1, 3, 4)).max()) / scale,
            "antisym_last": float(np.abs(r + r.transpose(0, 1, 2, 4, 3)).max()) / scale,
            "pair": float(np.abs(r - r.transpose(0, 3, 4, 1, 2)).max()) / scale,
            "first_bianchi": float(np.abs(cyc).max()) / scale,
        }

    return residuals


_PIPELINES: dict = {}


@pytest.fixture(scope="session")
def pipeline():
    """Factory of cached verification pipelines at 32 points, seed 42."""

    def get(example: str, m: int) -> Pipeline:
        key = (example, m)
        if key not in _PIPELINES:
            _PIPELINES[key] = Pipeline(example, m, points=32, seed=42)
        return _PIPELINES[key]

    return get


@pytest.fixture
def jet_calls(monkeypatch):
    """Every ``jet_data_multi`` call made while the test runs, as (fields, points, order).

    Wraps the function in every crgeo module that binds it, so calls through
    ``jet_data`` and a field's ``__call__`` are recorded too.
    """
    from crgeo import chart

    real = chart.jet_data_multi
    calls = []

    def spy(fields, pts, order, held=None, reads=None):
        calls.append((list(fields), np.array(pts), order))
        return real(fields, pts, order, held, reads)

    for name, mod in list(sys.modules.items()):
        if name.startswith("crgeo") and getattr(mod, "jet_data_multi", None) is real:
            monkeypatch.setattr(mod, "jet_data_multi", spy)
    return calls
