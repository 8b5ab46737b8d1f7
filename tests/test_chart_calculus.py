"""Chart-level calculus: derivatives, brackets, exterior algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crgeo import (
    Chart,
    OneForm,
    VectorField,
    derivative,
    differential,
    exterior_derivative,
    lie_bracket,
    symmetric_product,
    wedge,
)
from crgeo.chart import exp, jet_data, log, sin
from crgeo.errors import DomainError


@pytest.fixture(scope="module")
def chart():
    return Chart(["x", "y"], [(-3.0, 3.0), (-3.0, 3.0)])


# ----------------------------------------------------------------------
# derivative
# ----------------------------------------------------------------------

def test_mixed_partial_polynomial(chart):
    x, y = chart.coordinate_fields()
    f = x * y**2
    assert derivative(f, [1.0, 1.0], (0, 1)) == pytest.approx(2.0)


def test_constant_derivatives_vanish(chart):
    c = chart.constant(3.25)
    for idx in [(0,), (1,), (0, 1), (1, 1, 0)]:
        assert derivative(c, [0.3, -0.4], idx) == pytest.approx(0.0)


def test_reciprocal_square_second_derivative(chart):
    # hand expansion: f = (1+x^2)^-2, f'' = -4(1+x^2)^-3 + 24 x^2 (1+x^2)^-4
    x, _ = chart.coordinate_fields()
    f = 1.0 / (1.0 + x**2) ** 2
    assert derivative(f, [0.0, 0.1], (0, 0)) == pytest.approx(-4.0, abs=1e-14)
    # independent central-difference oracle at a generic point
    p = 0.37

    def fn(t):
        return (1 + t * t) ** -2.0

    h = 1e-4
    fd = (fn(p + h) - 2 * fn(p) + fn(p - h)) / h**2
    assert derivative(f, [p, 0.1], (0, 0)) == pytest.approx(fd, abs=1e-6)


def test_mixed_partial_symmetry(chart):
    x, y = chart.coordinate_fields()
    f = exp(x * y) * sin(x + 2.0 * y)
    p = [[0.3, -0.7]]
    assert derivative(f, p, (0, 1)) == pytest.approx(derivative(f, p, (1, 0)), rel=1e-13)
    assert derivative(f, p, (0, 0, 1)) == pytest.approx(derivative(f, p, (1, 0, 0)), rel=1e-13)


def test_derivative_rejects_outside_points(chart):
    x, _ = chart.coordinate_fields()
    with pytest.raises(DomainError):
        derivative(x, [5.0, 0.0], (0,))
    with pytest.raises(DomainError):
        derivative(x, [3.0, 0.0], (0,))  # boundary is not inside (strict)
    with pytest.raises(DomainError, match="coordinate x outside"):
        derivative(x, [float("nan"), 0.0], (0,))
    with pytest.raises(DomainError, match="coordinate y outside"):
        (x * x)([[0.5, float("nan")]])


def test_order_cap(chart):
    x, _ = chart.coordinate_fields()
    with pytest.raises(ValueError):
        derivative(x, [0.0, 0.0], (0, 0, 0, 0))


def test_field_algebra_keeps_the_kind(chart):
    from crgeo.chart import GenericTensorField
    from crgeo.metric import MetricField

    x, y = chart.coordinate_fields()
    p = [[0.5, 0.25]]
    v, w = VectorField(chart, [x, y]), VectorField(chart, [y, 1.0])
    assert type(v + w) is VectorField and (v - w)(p).tolist() == [[0.25, -0.75]]
    alpha = OneForm(chart, [x, y]).scaled(y)
    assert type(alpha) is OneForm and alpha(p).tolist() == [[0.125, 0.0625]]
    g = MetricField(chart, [[1.0, 0.0], [0.0, -1.0]], (1, 1)).scaled(2.0)
    assert g.signature == (1, 1) and g(p).tolist() == [[[2.0, 0.0], [0.0, -2.0]]]
    t = GenericTensorField(chart, [[x, y], [y, x]], (1, -1))
    assert (t + t).variance == (1, -1) and (t + t)(p).tolist() == [[[1.0, 0.5], [0.5, 1.0]]]


def test_derivative_rejects_directions_outside_the_chart(chart):
    x, y = chart.coordinate_fields()
    for direction in (5, -1):
        with pytest.raises(ValueError, match="outside the coordinates"):
            derivative(x * y, [[0.5, 0.25]], (direction,))


# ----------------------------------------------------------------------
# Lie bracket
# ----------------------------------------------------------------------

def test_coordinate_fields_commute(chart):
    dx = VectorField(chart, [chart.constant(1.0), chart.constant(0.0)])
    dy = VectorField(chart, [chart.constant(0.0), chart.constant(1.0)])
    assert np.abs(lie_bracket(dx, dy)(chart.sample(8, 1))).max() == 0.0


def test_bracket_hand_expansion(chart):
    # [x d_y, y d_x] = x d_x - y d_y
    x, y = chart.coordinate_fields()
    bracket = lie_bracket(
        VectorField(chart, [chart.constant(0.0), x]),
        VectorField(chart, [y, chart.constant(0.0)]),
    )
    np.testing.assert_allclose(bracket(np.array([[1.0, 2.0]])), [[1.0, -2.0]], atol=1e-15)


def test_bracket_flow_composition_oracle(chart):
    # commutator of flows: following X, Y, -X, -Y for time h displaces by
    # h^2 [X, Y] + O(h^3); fourth-order integration keeps the oracle clean
    x, y = chart.coordinate_fields()
    xf = VectorField(chart, [sin(y), chart.constant(0.0)])
    yf = VectorField(chart, [chart.constant(0.0), x * y])

    def rk4(field, p, h, steps=4):
        p = np.array([p])
        dt = h / steps
        for _ in range(steps):
            k1 = field(p)
            k2 = field(p + 0.5 * dt * k1)
            k3 = field(p + 0.5 * dt * k2)
            k4 = field(p + dt * k3)
            p = p + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        return p[0]

    p0 = [0.4, 0.8]
    h = 1e-3
    q = rk4(xf, p0, h)
    q = rk4(yf, q, h)
    q = rk4(xf, q, -h)
    q = rk4(yf, q, -h)
    displaced = (q - np.array(p0)) / h**2
    expected = lie_bracket(xf, yf)(np.array([p0]))[0]
    np.testing.assert_allclose(displaced, expected, atol=1e-2)


def test_bracket_antisymmetry_on_self(chart):
    x, y = chart.coordinate_fields()
    field = VectorField(chart, [x * y, y**2 - x])
    assert np.abs(lie_bracket(field, field)(chart.sample(8, 3))).max() < 1e-14


@settings(max_examples=20, deadline=None)
@given(coeffs=st.lists(st.floats(-1.5, 1.5), min_size=12, max_size=12))
def test_jacobi_identity(coeffs):
    chart = Chart(["x", "y"], [(-3.0, 3.0), (-3.0, 3.0)])
    x, y = chart.coordinate_fields()

    def poly(c):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * y

    fields = [
        VectorField(chart, [poly(coeffs[0:4]), poly(coeffs[4:8])]),
        VectorField(chart, [poly(coeffs[8:12]), poly(coeffs[0:4])]),
        VectorField(chart, [x * x * 0.3, poly(coeffs[4:8])]),
    ]
    a, b, c = fields
    total = (
        lie_bracket(lie_bracket(a, b), c)(np.array([[0.35, -0.6]]))
        + lie_bracket(lie_bracket(b, c), a)(np.array([[0.35, -0.6]]))
        + lie_bracket(lie_bracket(c, a), b)(np.array([[0.35, -0.6]]))
    )
    assert np.abs(total).max() < 1e-10


# ----------------------------------------------------------------------
# exterior derivative
# ----------------------------------------------------------------------

def test_d_squared_zero(chart):
    x, y = chart.coordinate_fields()
    f = x**2 * y
    ddf = exterior_derivative(differential(f))
    assert np.abs(ddf(chart.sample(16, 4))).max() < 1e-12


def test_exterior_basic_component(chart):
    x, _ = chart.coordinate_fields()
    omega = OneForm(chart, [chart.constant(0.0), x])  # x dy
    val = exterior_derivative(omega)(chart.sample(4, 5))
    np.testing.assert_allclose(val[:, 0, 1], 1.0, atol=1e-15)
    np.testing.assert_allclose(val[:, 1, 0], -1.0, atol=1e-15)


def test_flat_contact_form_component():
    # theta = -dt - (1/2)(x dy - y dx) has (dtheta)_xy = -1 everywhere
    chart = Chart(["x", "y", "t"], [(-2.0, 2.0)] * 3)
    x, y, _ = chart.coordinate_fields()
    theta = OneForm(chart, [y * 0.5, x * (-0.5), chart.constant(-1.0)])
    val = exterior_derivative(theta)(chart.sample(8, 6))
    np.testing.assert_allclose(val[:, 0, 1], -1.0, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(coeffs=st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8))
def test_d_squared_and_leibniz(coeffs):
    chart = Chart(["x", "y"], [(-3.0, 3.0), (-3.0, 3.0)])
    x, y = chart.coordinate_fields()
    c = coeffs
    omega = OneForm(
        chart,
        [c[0] + c[1] * x + c[2] * y * y, c[3] + c[4] * x * y + c[5] * y],
    )
    f = c[6] + c[7] * x * y
    pts = chart.sample(8, 7)
    ddf = exterior_derivative(differential(f * (x + y)))
    assert np.abs(ddf(pts)).max() < 1e-12

    f_omega = OneForm(chart, [f * omega.components[0], f * omega.components[1]])
    lhs = exterior_derivative(f_omega)(pts)
    rhs = wedge(differential(f), omega)(pts)
    domega = exterior_derivative(omega)(pts)
    rhs = rhs + f(pts)[:, None, None] * domega
    assert np.abs(lhs - rhs).max() < 1e-10


# ----------------------------------------------------------------------
# symmetric product
# ----------------------------------------------------------------------

def test_symmetric_product_normalization(chart):
    dx = OneForm(chart, [chart.constant(1.0), chart.constant(0.0)])
    dy = OneForm(chart, [chart.constant(0.0), chart.constant(1.0)])
    pts = chart.sample(4, 8)
    dxdx = symmetric_product(dx, dx)(pts)
    dxdy = symmetric_product(dx, dy)(pts)
    np.testing.assert_allclose(dxdx[:, 0, 0], 1.0)
    np.testing.assert_allclose(dxdy[:, 0, 1], 0.5)
    np.testing.assert_allclose(dxdy[:, 1, 0], 0.5)


def test_symmetric_product_of_form_with_itself_is_tensor_square(chart):
    x, y = chart.coordinate_fields()
    alpha = OneForm(chart, [x, y * y])
    pts = chart.sample(8, 9)
    a = alpha(pts)
    np.testing.assert_allclose(
        symmetric_product(alpha, alpha)(pts),
        np.einsum("ni,nj->nij", a, a),
        atol=1e-14,
    )


def test_jet_data_shapes(chart):
    x, y = chart.coordinate_fields()
    f = exp(x) * log(2.0 + y)
    v, d1, d2, d3 = jet_data(f, chart.sample(5, 10), 3)
    assert v.shape == (5,)
    assert d1.shape == (5, 2)
    assert d2.shape == (5, 2, 2)
    assert d3.shape == (5, 2, 2, 2)
    np.testing.assert_allclose(d2[:, 0, 1], d2[:, 1, 0], rtol=1e-13)


def test_jet_data_multi_evaluates_point_blocks(chart):
    # 130 points: two full blocks and a partial one, concatenated per field and order
    from crgeo.chart import BLOCK_POINTS, jet_data_multi

    x, y = chart.coordinate_fields()
    fields = [exp(x) * log(4.0 + y) / (1.0 + x * x), VectorField(chart, [sin(x * y), x * y * y])]
    pts = chart.sample(2 * BLOCK_POINTS + 2, 11)
    whole = jet_data_multi(fields, pts, 2)
    blocks = [jet_data_multi(fields, pts[i:i + BLOCK_POINTS], 2) for i in range(0, len(pts), BLOCK_POINTS)]
    assert [len(b[0][0]) for b in blocks] == [BLOCK_POINTS, BLOCK_POINTS, 2]
    for f, per_field in enumerate(whole):
        for r, arr in enumerate(per_field):
            assert np.array_equal(arr, np.concatenate([b[f][r] for b in blocks]))
    pts[-1, 0] = 4.0  # outside the chart, in the last block
    with pytest.raises(DomainError):
        jet_data_multi(fields, pts, 2)
