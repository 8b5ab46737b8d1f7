"""Chart-level calculus: derivatives, brackets, exterior algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crgeo import (
    Chart,
    OneForm,
    ScalarField,
    VectorField,
    derivative,
    differential,
    exterior_derivative,
    lie_bracket,
    symmetric_product,
)
from crgeo import chart as chart_module, jets
from crgeo.chart import (
    PARTIAL,
    contract,
    exp,
    jet_data,
    jet_data_multi,
    log,
    ordered_sum,
    pullback_scalar,
    pullback_symmetric,
    sin,
)
from crgeo.errors import DomainError
from crgeo.jets import Jet
from crgeo.verify import Pipeline, SuiteConfig, run_suite
from conftest import comparison_tensor, g_theta


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


def test_points_names_the_first_coordinate_outside(chart):
    # y is out in the first point and x in the second: the message names x
    with pytest.raises(DomainError, match=r"coordinate x outside open interval \(-3.0, 3.0\)"):
        chart.points([[0.0, 4.0], [-5.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError, match="coordinate y outside"):
        chart.points([[0.0, 0.0], [0.0, float("nan")]])
    assert chart.points([0.5, -0.5]).tolist() == [[0.5, -0.5]]


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
    # (df ^ omega)_ij = df_i omega_j - df_j omega_i
    df_omega = np.einsum("ni,nj->nij", differential(f)(pts), omega(pts))
    rhs = df_omega - df_omega.transpose(0, 2, 1)
    domega = exterior_derivative(omega)(pts)
    rhs = rhs + f(pts)[:, None, None] * domega
    assert np.abs(lhs - rhs).max() < 1e-10


# ----------------------------------------------------------------------
# ordered sum and contraction
# ----------------------------------------------------------------------

class Recorder:
    """Records each + and * it takes part in; it has no reflected operators."""

    def __init__(self, text):
        self.text = text

    def __add__(self, other):
        return Recorder(f"({self.text} + {other.text})")

    def __mul__(self, other):
        return Recorder(f"{self.text}*{other.text}")


def _recorders(name, shape):
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Recorder(name + "".join(map(str, idx)))
    return out


def _texts(arr):
    return np.vectorize(lambda r: r.text, otypes=[object])(arr).tolist()


def test_ordered_sum_adds_left_to_right():
    assert ordered_sum(_recorders("a", (4,))).text == "(((a0 + a1) + a2) + a3)"
    rows = ordered_sum(_recorders("b", (3, 2)))  # sums arrays element by element
    assert _texts(rows) == ["((b00 + b10) + b20)", "((b01 + b11) + b21)"]
    np.testing.assert_array_equal(ordered_sum(np.ones((3, 2))), [3.0, 3.0])


def test_contraction_adds_left_to_right_and_keeps_the_left_operand():
    a, b, v = _recorders("a", (2, 3)), _recorders("b", (3, 2)), _recorders("v", (3,))
    assert _texts(contract(a, b)) == [
        [f"((a{i}0*b0{j} + a{i}1*b1{j}) + a{i}2*b2{j})" for j in range(2)] for i in range(2)
    ]
    assert _texts(contract(a, v)) == [f"((a{i}0*v0 + a{i}1*v1) + a{i}2*v2)" for i in range(2)]
    assert _texts(contract(v, b)) == [f"((v0*b0{j} + v1*b1{j}) + v2*b2{j})" for j in range(2)]


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


def test_equal_subtrees_are_one_node(chart):
    x, y = chart.coordinate_fields()
    assert exp(x * y) is exp(x * y) and (x + 2.0).partial(0) is (x + 2.0).partial(0)
    assert exp(x * y) is not exp(y * x)
    zero, negative_zero, nan = chart.constant(0.0), chart.constant(-0.0), chart.constant(float("nan"))
    assert len({id(zero), id(negative_zero), id(nan)}) == 3
    assert nan is chart.constant(float("nan")) and zero is chart.constant(0)
    assert np.signbit(negative_zero.value) and not np.signbit(zero.value)


def test_a_shared_subtree_is_computed_once_per_block(chart, monkeypatch):
    from crgeo.chart import BLOCK_POINTS

    real, calls = jets.log, []

    def counting_log(v):
        calls.append(v)
        return real(v)

    # the field is built after the patch: a node holds the function it was built with
    monkeypatch.setattr(jets, "log", counting_log)
    x, y = chart.coordinate_fields()
    shared = log(10.0 + x * y)
    # the second component is built anew: interned, it is the shared node
    fields = [shared * y, VectorField(chart, [shared + x, log(10.0 + x * y)])]
    jet_data_multi(fields, chart.sample(3, 15), 2)
    assert len(calls) == 1
    jet_data_multi(fields, chart.sample(BLOCK_POINTS + 1, 15), 2)
    assert len(calls) == 3


def test_a_field_is_evaluated_only_under_the_lifts_it_reads(chart, monkeypatch):
    real, orders = jets.log, []

    def counting_log(v):
        orders.append(v.order)
        return real(v)

    monkeypatch.setattr(jets, "log", counting_log)
    x, y = chart.coordinate_fields()
    f = log(10.0 + x * x) * y
    pts = chart.sample(3, 16)
    value, dy, dx = (v[0] for v in jet_data_multi([f, f.partial(1), f.partial(0)], pts, 2))
    # d_y f reads the log of f's own evaluation with a zero row for its lift;
    # d_x f evaluates it again, under the lift on x
    assert orders == [2, 3]
    px, py = pts.T
    np.testing.assert_allclose(value, np.log(10.0 + px * px) * py, rtol=1e-14)
    np.testing.assert_allclose(dy, np.log(10.0 + px * px), rtol=1e-14)
    np.testing.assert_allclose(dx, 2.0 * px * py / (10.0 + px * px), rtol=1e-14)
    # under the levels (x, y) of d_x d_y g, the log is the one under (x,),
    # and its rows meet those of x * y, which reads both levels
    orders.clear()
    g = log(10.0 + x * x) * (x * y)
    dxy = jet_data_multi([g, g.partial(0), g.partial(1).partial(0)], pts, 2)[2][0]
    assert orders == [2, 3]
    np.testing.assert_allclose(dxy, np.log(10.0 + px * px) + 2.0 * px * px / (10.0 + px * px), rtol=1e-14)


def test_a_field_read_takes_its_components_unless_an_op_stacked_them(heisenberg, monkeypatch):
    # 128 points at order 2: rows of 1152 elements, read component by component
    stacks = []
    real = jets.stack
    monkeypatch.setattr(jets, "stack", lambda *args: stacks.append(args[1]) or real(*args))
    theta, reeb, pts = heisenberg.theta, heisenberg.reeb, heisenberg.chart.sample(128, 17)
    alone = jet_data(theta, pts, 2)
    assert stacks == []
    # listed twice: two component reads; then the Reeb solve stacks theta (and
    # its system matrix), and the last read takes that stack
    twice = jet_data_multi([theta, theta, reeb, theta], pts, 2)
    assert stacks == [(3, 3), (3,)]
    for arrays in (twice[0], twice[1], twice[3]):
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in alone]
    assert [a.tobytes() for a in twice[2]] == [a.tobytes() for a in jet_data(reeb, pts, 2)]


def test_only_the_reeb_solves_stack_on_the_dense_entry(monkeypatch):
    # the Webster sample solves its reference Reeb field from held values, one
    # order-0 jet_solve, so no op stacks a tensor: every field read takes its
    # components
    stacks, solves = [], []
    real_stack, real_solve = jets.stack, jets.jet_solve
    monkeypatch.setattr(jets, "stack", lambda *args: stacks.append(1) or real_stack(*args))
    monkeypatch.setattr(jets, "jet_solve", lambda a, b, **kw: solves.append(a.order) or real_solve(a, b, **kw))
    report = run_suite(SuiteConfig(example="complex_hyperbolic", m=2, suites=("all",), points=128, seed=7))
    assert report["overall_pass"]
    assert stacks == [] and solves == [0]


def test_jet_data_multi_needs_a_field(chart):
    with pytest.raises(ValueError, match="no fields"):
        jet_data_multi([], chart.sample(2, 12), 1)


def test_read_orders_are_checked(chart):
    x, y = chart.coordinate_fields()
    pts = chart.sample(2, 12)
    for reads in ([1, 1], [2], [3, 1], [-1, 2]):  # none at the batch's order, too few, too high
        with pytest.raises(ValueError, match="read order"):
            jet_data_multi([x, y], pts, 2, reads=reads)


@pytest.mark.parametrize("min_width", [0, 512])
def test_each_field_is_read_to_its_own_order(chart, monkeypatch, min_width):
    # every node once, at the highest order a field needing it is read at: the
    # one-form reads g's order-2 jet to order 1, so it gives the leading arrays
    # of a separate order-2 call; with every product staged, each field also
    # gives those of the separate call at its own order
    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", min_width)
    x, y = chart.coordinate_fields()
    g = exp(x * y) * sin(y)
    fields = [g, g.partial(0), OneForm(chart, [g, y]), x * y]
    pts = chart.sample(5, 3)
    got = jet_data_multi(fields, pts, 2, reads=[2, 0, 1, 0])
    assert [len(arrays) for arrays in got] == [3, 1, 2, 1]
    for field, arrays in zip(fields, got):
        assert all(np.array_equal(a, b) for a, b in zip(arrays, jet_data(field, pts, 2)))
        if min_width == 0:
            assert all(np.array_equal(a, b) for a, b in zip(arrays, jet_data(field, pts, len(arrays) - 1)))


def test_a_batch_truncates_instead_of_evaluating_again(chart, monkeypatch):
    # the order-1 and order-0 reads of g take truncations of its order-2 jet,
    # and of the seeded coordinates, rather than a second evaluation of g
    calls = []
    real = jets.exp
    monkeypatch.setattr(jets, "exp", lambda a: calls.append(a.comp.shape) or real(a))
    x, y = chart.coordinate_fields()
    g = exp(x * y) + x
    pts = chart.sample(3, 4)
    value, first, second = jet_data_multi([g, g * y, g * x], pts, 2, reads=[0, 1, 2])
    assert calls == [(4, 3, 2, 2)]  # one exp, at order 2
    assert np.array_equal(first[1], jet_data(g * y, pts, 2)[1])
    assert np.array_equal(value[0], jet_data(g, pts, 2)[0])


def test_sample_rejects_a_margin_outside_the_box():
    line = Chart(["x"], [(0.0, 1.0)])
    for margin in (1.5, 0.5, -0.5, float("nan")):
        with pytest.raises(ValueError, match="margin"):
            line.sample(3, 1, margin=margin)
    pts = line.sample(3, 1, margin=0.0)
    assert np.all((pts >= 0.0) & (pts < 1.0))


# seeds of one to seven 32-bit words; SeedSequence folds the words past the
# fourth in after the pool is mixed
WIDE_SEEDS = [2**32 - 1, 2**32, 2**64 + 3, 10**30, 99999999999999999999999999999999999999, 2**128 + 5, 7**70]


@pytest.mark.parametrize("seed", list(range(64)) + WIDE_SEEDS)
def test_sample_draws_numpys_default_stream_bit_for_bit(seed):
    for dim in range(1, 8):
        box = Chart([f"x{i}" for i in range(dim)], [(-1.0 - i, 2.0 + 0.5 * i) for i in range(dim)])
        lo = np.array([a + 0.1 * (b - a) for a, b in box.bounds])
        hi = np.array([b - 0.1 * (b - a) for a, b in box.bounds])
        for n in (1, 2, 3, 128, 129):
            expected = lo + (hi - lo) * np.random.default_rng(seed).random((dim, n)).T
            assert np.array_equal(box.sample(n, seed), expected), (dim, n)


def test_sample_rejects_the_seeds_numpy_rejects():
    line = Chart(["x"], [(0.0, 1.0)])
    for seed, error in ((-1, ValueError), (-(2**70), ValueError), (1.5, TypeError), (2.0, TypeError)):
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            line.sample(3, seed)


# ----------------------------------------------------------------------
# build-time folding of constants and coordinate-independent partials
# ----------------------------------------------------------------------

def test_constant_arithmetic_folds(chart):
    x, y = chart.coordinate_fields()
    f = x * y
    zero, one = chart.constant(0.0), chart.constant(1.0)
    assert (f + 0.0) is f and (f + zero) is f and (zero + f) is f
    assert (f - 0.0) is f and (f - zero) is f
    assert (1.0 * f) is f and (f * one) is f and (f / one) is f
    assert (0.0 * f).value == 0.0 and (f * zero).value == 0.0
    negated = 0.0 - f
    assert negated.value is None and negated([[0.5, 0.25]]).tolist() == [-0.125]
    a, b = chart.constant(2.0), chart.constant(3.0)
    assert [(a + b).value, (a - b).value, (a * b).value, (-a).value] == [5.0, -1.0, 6.0, -2.0]
    # a / b is a * (1 / b), the bits the jet quotient gives (3 / 5 differs)
    assert (chart.constant(3.0) / 5.0).value == 3.0 * (1.0 / 5.0) != 3.0 / 5.0
    assert (3.0 / chart.constant(5.0)).value == 3.0 * (1.0 / 5.0)
    assert (f * 2.5).value is None and (f * 2.5).deps == frozenset((0, 1))


def test_dependency_sets(chart):
    x, y = chart.coordinate_fields()
    assert x.deps == {0} and y.deps == {1} and chart.constant(2.0).deps == frozenset()
    assert (x * 2.0 + 1.0).deps == {0} and (x - y).deps == {0, 1}
    assert exp(x).deps == {0} and (x**3).deps == {0} and x.partial(0).deps == {0}
    assert exp(chart.constant(1.0)).deps == frozenset()
    opaque = ScalarField(chart, lambda jc: jc[0])
    assert opaque.deps == {0, 1} and opaque.partial(1).value is None


def test_partial_along_an_absent_coordinate_is_zero(chart):
    x, y = chart.coordinate_fields()
    f = exp(x) * sin(x)
    assert f.partial("y").value == 0.0 and f.partial(1).partial(0).value == 0.0
    assert chart.constant(4.0).partial(0).value == 0.0
    assert f.partial(0).value is None
    pts = chart.sample(3, 13)
    v, d1 = jet_data(f.partial(1), pts, 1)
    assert not v.any() and not d1.any()


def test_pullback_folds_constants_and_maps_dependencies():
    base = Chart(["u", "v"], [(-1.0, 1.0), (-1.0, 1.0)])
    total = base.extend("a", (-1.0, 1.0))
    c = pullback_scalar(total, base.constant(2.5))
    assert c.chart is total and c.value == 2.5
    u, v = base.coordinate_fields()
    f = pullback_scalar(total, u * u)
    assert f.deps == {0}
    assert pullback_scalar(total, u * v).deps == {0, 1}
    assert f.partial("a").value == 0.0 and f.partial("v").value == 0.0
    pts = total.sample(4, 14)
    np.testing.assert_array_equal(jet_data(f.partial("u"), pts, 0)[0], 2.0 * pts[:, 0])


def test_pullback_needs_a_chart_extending_the_base():
    base = Chart(["u", "v"], [(-1.0, 1.0), (-1.0, 1.0)])
    u, _ = base.coordinate_fields()
    for total in (
        Chart(["a", "u", "v"], [(-1.0, 1.0)] * 3),  # base coordinates not leading
        Chart(["u", "v", "a"], [(-1.0, 1.0), (-2.0, 1.0), (-1.0, 1.0)]),  # other bounds
        Chart(["u"], [(-1.0, 1.0)]),  # fewer coordinates
    ):
        with pytest.raises(ValueError, match="does not extend"):
            pullback_scalar(total, u)


def test_folded_zeros_are_exact_where_a_field_is_nan():
    # a folded zero does not evaluate the field it multiplies or differentiates
    chart = Chart(["x", "y"], [(-1.0, 1.0), (-1.0, 1.0)])
    x, _ = chart.coordinate_fields()
    f = log(x)
    p = [[-0.5, 0.25]]
    with np.errstate(invalid="ignore"):
        assert (f * 0.0)(p).tolist() == [0.0]
        assert (f * chart.constant(0.0))(p).tolist() == [0.0]
        assert jet_data(f.partial("y"), p, 1)[1].tolist() == [[0.0, 0.0]]
        assert np.isnan((f * x)(p)).all()


def _unfolded_constant(self, value):
    return ScalarField(self, lambda jc, v=float(value): Jet.constant(v, jc[0]))


def _lifting_partial(self, i):
    if isinstance(i, str):
        i = self.chart.index(i)
    return self.chart.node(PARTIAL, (self,), (i,), self.deps)


def _structure_jets(example, m):
    """theta, dtheta, g_theta, J, D and the Fefferman metric at orders 0-2.

    The negative control sphere_x_flat is not Einstein and has no Fefferman metric.
    """
    pipe = Pipeline(example, m, points=1, seed=0)
    ph = pipe.ac.ph
    fc = None if pipe.entry.negative else pipe.fc
    arrays = []
    for n in (1, 2, 65):
        m_pts = ph.chart.sample(n, n)
        for order in range(3):
            fields = [ph.theta, ph.dtheta, g_theta(ph), ph.J, comparison_tensor(ph)]
            for per_field in jet_data_multi(fields, m_pts, order):
                arrays += per_field
            if fc is not None:
                arrays += jet_data(fc.metric, fc.chart.sample(n, n), order)
    return arrays


@pytest.mark.parametrize(
    "example, m",
    [("flat", 1), ("flat", 2), ("fubini_study", 1), ("fubini_study", 2),
     ("complex_hyperbolic", 1), ("complex_hyperbolic", 2), ("sphere_x_flat", 2)],
)
def test_folding_matches_the_unfolded_trees(example, m, monkeypatch):
    # the oracle builds every tree as before folding: constants are opaque
    # jets on every coordinate, and every partial lifts a generator
    with monkeypatch.context() as unfolded:
        unfolded.setattr(Chart, "constant", _unfolded_constant)
        unfolded.setattr(ScalarField, "partial", _lifting_partial)
        assert Chart(["x"], [(0.0, 1.0)]).constant(0.0).value is None
        expected = _structure_jets(example, m)
    got = _structure_jets(example, m)
    # 3 batch sizes, 1 + 2 + 3 arrays over orders 0-2, 5 or 6 fields
    assert len(got) == len(expected) == 3 * 6 * (5 if example == "sphere_x_flat" else 6)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_folding_saves_jet_products(monkeypatch):
    real = jets._convolve
    calls = []

    def counting(a, b, product):
        calls.append(product)
        return real(a, b, product)

    monkeypatch.setattr(jets, "_convolve", counting)
    report = run_suite(SuiteConfig("fubini_study", 2, points=2, seed=7))
    assert report["overall_pass"]
    # 8482 before constants and coordinate-independent partials folded, 5637
    # while the lifted J was one jet outer product that folded nothing, 4113
    # before equal subtrees were interned as one node, and 2705 while a
    # partial lifted every coordinate of its context, not only those read, and
    # 1369 while d_u d_v and d_v d_u were evaluated under two orders of levels
    assert len(calls) <= 1135


# ----------------------------------------------------------------------
# sorted lift levels: a mixed partial is one evaluation in either order
# ----------------------------------------------------------------------

def _potential(ke):
    """The Kaehler potential of a regular catalog base, rebuilt: interning makes it the base's node."""
    chart = ke.chart
    ssum = ordered_sum(c * c for c in chart.coordinate_fields())
    potential = {
        "flat": lambda: ssum * 0.5,
        "fubini_study": lambda: log(1.0 + ssum) * 2.0,
        "complex_hyperbolic": lambda: log(1.0 - ssum) * (-2.0),
    }[ke.kind]()
    assert ke.gamma.components[0] is potential.partial(1) * 0.5
    return potential


def _mixed_pairs(field):
    """(d_u d_v f, d_v d_u f) for every u < v of f's chart."""
    d = field.chart.dim
    return [
        (field.partial(v).partial(u), field.partial(u).partial(v))
        for u in range(d) for v in range(u + 1, d)
    ]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("example", ["flat", "fubini_study", "complex_hyperbolic"])
def test_mixed_partials_commute_bit_for_bit(example, m):
    # d_u d_v f and d_v d_u f read the coefficients of one jet of f, under (u, v)
    pipe = Pipeline(example, m, points=1, seed=0)
    groups = [
        [_potential(pipe.ke)],
        list(pipe.ke.metric.components.flat),
        list(g_theta(pipe.ac.ph).components.flat),
        list(pipe.fc.metric.components.flat),
    ]
    for scalars in groups:
        pairs = [pair for f in dict.fromkeys(scalars) for pair in _mixed_pairs(f)]
        fields = [f for pair in pairs for f in pair]
        pts = scalars[0].chart.sample(3, 5)
        for order in range(3):
            got = jet_data_multi(fields, pts, order)
            for uv, vu in zip(got[::2], got[1::2]):
                assert all(np.array_equal(a, b) for a, b in zip(uv, vu))


def test_a_partial_reads_the_generator_of_its_own_level():
    # exact arithmetic (dyadic points, small integer coefficients): in
    # d_z(y d_y(z d_x f)), d_x lifts its level below those on y and z, so it
    # reads the lowest of the three generators of f, not the top one
    chart = Chart(["x", "y", "z"], [(-1.0, 1.0)] * 3)
    x, y, z = chart.coordinate_fields()
    f = x * x * y * y * y * z * z
    t = (y * (z * f.partial(0)).partial(1)).partial(2)
    pts = np.array([[0.5, 0.25, 0.75], [-0.5, 0.75, 0.125]])
    px, py, pz = pts.T
    assert np.array_equal(jet_data(t, pts, 0)[0], 18.0 * px * py**3 * pz**2)


def test_sorted_lift_levels_save_compositions(monkeypatch):
    real, series, ops = Jet._compact_series, [], []
    monkeypatch.setattr(Jet, "_compact_series", lambda self, *args: series.append(self.order) or real(self, *args))
    real_run = chart_module._Plan.run
    monkeypatch.setattr(chart_module._Plan, "run", lambda self, *args: ops.append(len(self.ops)) or real_run(self, *args))
    report = run_suite(SuiteConfig("complex_hyperbolic", 2, points=128, seed=42))
    assert report["overall_pass"]
    # 112 and 6782 while d_u d_v and d_v d_u were evaluated under the levels
    # (u, v) and (v, u) apart
    assert series.count(4) <= 70
    assert sum(ops) <= 6100


# ----------------------------------------------------------------------
# pull-backs: operands evaluated on their own chart, laid out by jets.embed
# ----------------------------------------------------------------------

def _base_fields_on(chart, ke):
    """The potential, gamma and h of a regular catalog base, built on ``chart``'s leading coordinates.

    The trees are those of the base's own fields, node for node, so on
    ``chart`` they are evaluated at its full width.
    """
    from crgeo.constructions import _metric_from_potential

    m = ke.m
    ssum = ordered_sum(chart.coord(i) * chart.coord(i) for i in range(2 * m))
    potential = {
        "flat": lambda: ssum * 0.5,
        "fubini_study": lambda: log(1.0 + ssum) * 2.0,
        "complex_hyperbolic": lambda: log(1.0 - ssum) * (-2.0),
    }[ke.kind]()
    gamma = []
    for a in range(m):
        gamma += [potential.partial(2 * a + 1) * 0.5, potential.partial(2 * a) * (-0.5)]
    h = _metric_from_potential(chart, potential, m)
    return [potential] + gamma + [h[i][j] for i in range(2 * m) for j in range(2 * m)]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("example", ["flat", "fubini_study", "complex_hyperbolic"])
def test_a_pull_back_equals_the_full_width_evaluation(example, m, monkeypatch):
    # each pulled-back base field (and its partials, read under lift levels)
    # is its operand evaluated at the base chart's width and laid out by
    # jets.embed; with every product staged, it equals bit for bit, up to the
    # sign of a zero, the same tree evaluated on the wider chart's own
    # coordinate jets (there a new coordinate's zero seed times a negative
    # coefficient is -0.0)
    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", 0)
    pipe = Pipeline(example, m, points=1, seed=0)
    ke = pipe.ke
    base = _base_fields_on(ke.chart, ke)
    assert base[0] is _potential(ke) and base[1] is ke.gamma.components[0]
    assert base[-1] is ke.metric.components[-1, -1]
    for chart in (pipe.ac.chart, pipe.fc.chart):
        pulled = [pullback_scalar(chart, f) for f in base]
        full = _base_fields_on(chart, ke)
        # a product with the last fiber coordinate reads the repeated rows
        fiber = chart.coord(chart.dim - 1)
        pulled += [f.partial(i) for f in pulled[:3] for i in range(chart.dim)] + [f * fiber for f in pulled[:3]]
        full += [f.partial(i) for f in full[:3] for i in range(chart.dim)] + [f * fiber for f in full[:3]]
        for n in (1, 5):
            pts = chart.sample(n, 3)
            for order in range(3):
                got, expected = jet_data_multi(pulled, pts, order), jet_data_multi(full, pts, order)
                for a, b in zip(got, expected):
                    assert [(x + 0.0).tobytes() for x in a] == [(x + 0.0).tobytes() for x in b]


def test_a_held_batch_at_other_points_is_refused():
    from crgeo.chart import PullbackJets

    pipe = Pipeline("fubini_study", 1, points=3, seed=4)
    held = PullbackJets(pipe.ac.chart, pipe.m_pts)
    # f reads contact-chart operands, the pulled-back h base-chart ones
    fields = [pipe.fc.metric, pullback_symmetric(pipe.fc.chart, pipe.ke.metric)]
    jet_data_multi(fields, pipe.f_pts, 1, held)  # f_pts starts with m_pts
    moved = pipe.f_pts.copy()
    moved[1, 0] += 1e-3  # one base coordinate of one point
    with pytest.raises(ValueError, match="leading columns"):
        jet_data_multi(fields, moved, 1, held)
    with pytest.raises(ValueError, match="leading columns"):
        jet_data_multi(fields, pipe.f_pts[:2], 1, held)  # fewer points
    # a batch on the base chart holds no jets of the contact chart
    base_held = PullbackJets(pipe.ke.chart, pipe.m_pts[:, :2])
    with pytest.raises(ValueError, match="leading columns"):
        jet_data_multi(fields, pipe.f_pts, 1, base_held)
    # the pulled-back base fields alone read it
    jet_data_multi([fields[-1]], pipe.f_pts, 1, base_held)


def test_a_non_finite_pulled_back_field_fails_its_row():
    # sqrt(x1 - x1) has an infinite first derivative: evaluated on a wider
    # chart's coordinates, its partial along a new coordinate is 0 * inf =
    # NaN, and the padding of jets.embed keeps that NaN rather than an exact
    # zero; a structure reading it fails the transversal-symmetry gate, as
    # test_nan_structure_fails_the_transversal_symmetry_gate does
    from crgeo.chart import sqrt
    from crgeo.errors import PreconditionError
    from crgeo.pseudohermitian import WebsterSample, make_structure

    pipe = Pipeline("flat", 1, points=4, seed=3)
    ac, x1 = pipe.ac, pipe.ke.chart.coord(0)
    bad = pullback_scalar(ac.chart, sqrt(x1 - x1))
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.isnan(jet_data(bad, pipe.m_pts, 1)[1][:, 2]).all()  # along t
        comps = list(ac.ph.theta.components)
        comps[0] = comps[0] + bad * 1e-3
        ph = make_structure(ac.chart, OneForm(ac.chart, comps), ac.base.complex_structure, 1,
                            ac.ph.levi_signature, reeb_hint=ac.ph.reeb)
        with pytest.raises(PreconditionError, match="residual nan"):
            WebsterSample(ph, pipe.m_pts).comparison


def test_a_pull_back_without_a_root_count_repeats_its_first_entry(monkeypatch):
    # an opaque field may give a bare Jet, which claims no repeats along the
    # root axes; its rows are kept whole there, and the new coordinates
    # repeat the first entry, which is the full-width value: a product with
    # t reads it in the partials along t
    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", 0)
    base = Chart(["x", "y"], [(-1.0, 1.0)] * 2)
    total = base.extend("t", (-1.0, 1.0))

    def bare(c):
        prod = c[0] * jets.exp(c[1])
        return Jet(prod.comp)

    t = total.coord(2)
    pulled = pullback_scalar(total, ScalarField(base, bare)) * t
    full = ScalarField(total, bare) * t
    pts = total.sample(4, 2)
    for order in range(3):
        assert [(a + 0.0).tobytes() for a in jet_data(pulled, pts, order)] == [
            (a + 0.0).tobytes() for a in jet_data(full, pts, order)
        ]
