"""Jet arithmetic: exactness against closed forms and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crgeo import jets
from crgeo.errors import DegeneracyError
from crgeo.jets import Jet, jet_solve


def scalar_jet(x, seeds):
    comp = np.zeros(1 << len(seeds))
    comp[0] = x
    for j, s in enumerate(seeds):
        comp[1 << j] = s
    return Jet(comp)


def test_first_derivative_polynomial():
    x = scalar_jet(2.0, [1.0])
    y = x * x * x - 4.0 * x + 1.0
    assert y.comp[0] == pytest.approx(1.0)
    assert y.comp[1] == pytest.approx(3 * 4.0 - 4.0)


def test_second_derivative_product_rule():
    # f(x) = x^2 exp(x); f'' = (x^2 + 4x + 2) exp(x)
    x0 = 0.7
    x = scalar_jet(x0, [1.0, 1.0])
    y = x * x * jets.exp(x)
    assert y.comp[3] == pytest.approx((x0**2 + 4 * x0 + 2) * np.exp(x0), rel=1e-14)


def test_third_derivative_log():
    # f = log(x); f''' = 2/x^3
    x0 = 1.3
    x = scalar_jet(x0, [1.0, 1.0, 1.0])
    y = jets.log(x)
    assert y.comp[7] == pytest.approx(2.0 / x0**3, rel=1e-14)


def test_division_and_reciprocal():
    x0 = 0.4
    x = scalar_jet(x0, [1.0, 1.0])
    y = 1.0 / (1.0 + x * x)
    # y'' = (6x^2 - 2) / (1+x^2)^3
    expected = (6 * x0**2 - 2) / (1 + x0**2) ** 3
    assert y.comp[3] == pytest.approx(expected, rel=1e-13)


def test_trig_identity_preserved():
    x = scalar_jet(0.3, [1.0, 1.0])
    one = jets.sin(x) * jets.sin(x) + jets.cos(x) * jets.cos(x)
    assert one.comp[0] == pytest.approx(1.0)
    assert abs(one.comp[1]) < 1e-15
    assert abs(one.comp[3]) < 1e-15


def test_integer_and_real_powers_agree():
    x = scalar_jet(1.7, [1.0, 1.0])
    a = x**3
    b = jets.powf(x, 3.0)
    assert np.allclose(a.comp, b.comp, atol=1e-12)


def test_negative_power():
    x0 = 0.9
    x = scalar_jet(x0, [1.0])
    y = x ** (-2)
    assert y.comp[0] == pytest.approx(x0**-2)
    assert y.comp[1] == pytest.approx(-2 * x0**-3)


@settings(max_examples=25, deadline=None)
@given(
    x0=st.floats(-1.2, 1.2),
    c=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
)
def test_second_derivative_matches_finite_differences(x0, c):
    def f(x):
        return c[0] + c[1] * x + c[2] * jets.sin(x) + c[3] * jets.exp(x * 0.5)

    jet = f(scalar_jet(x0, [1.0, 1.0]))
    h = 1e-5
    fd = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
    assert jet.comp[3] == pytest.approx(fd, abs=5e-5)


def test_mixed_generators_give_mixed_partial():
    # f(x, y) = sin(x) * y^2; d_x d_y f = 2 y cos(x)
    x0, y0 = 0.4, 1.1
    x = Jet(np.array([[x0], [1.0], [0.0], [0.0]])[:, 0])
    y = Jet(np.array([[y0], [0.0], [1.0], [0.0]])[:, 0])
    f = jets.sin(x) * y * y
    assert f.comp[3] == pytest.approx(2 * y0 * np.cos(x0), rel=1e-14)


def test_jet_solve_linear_system():
    rng = np.random.default_rng(0)
    a0 = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    a1 = 0.1 * rng.standard_normal((3, 3))
    b0 = rng.standard_normal(3)
    a = Jet(np.stack([a0, a1]))
    b = Jet(np.stack([b0, np.zeros(3)]))
    x = jet_solve(a, b)
    # value solves a0 x0 = b0; derivative solves a0 x1 = -a1 x0
    assert np.allclose(a0 @ x.comp[0], b0, atol=1e-12)
    assert np.allclose(a0 @ x.comp[1], -a1 @ x.comp[0], atol=1e-12)


def test_jet_solve_rejects_singular():
    a = Jet(np.stack([np.zeros((2, 2)), np.eye(2)]))
    b = Jet(np.stack([np.ones(2), np.zeros(2)]))
    with pytest.raises(DegeneracyError):
        jet_solve(a, b)


def test_jet_solve_rejects_nan():
    # a NaN determinant fails the guard instead of passing NaN rows on
    a0 = np.eye(2)
    a0[0, 1] = np.nan
    a = Jet(np.stack([a0, np.eye(2)]))
    b = Jet(np.stack([np.ones(2), np.zeros(2)]))
    with np.errstate(invalid="ignore"), pytest.raises(DegeneracyError):
        jet_solve(a, b)


# ----------------------------------------------------------------------
# the staged product: each output row a sequential sum in a fixed order
# ----------------------------------------------------------------------

def sequential_product(a, b, product):
    """out[s] = product(a[0], b[s]) + product(a[t], b[s ^ t]) + .., t ascending."""
    rows = []
    for s in range(len(a)):
        acc = product(a[0], b[s])
        for t in range(1, s + 1):
            if t & s == t:
                acc = acc + product(a[t], b[s ^ t])
        rows.append(acc)
    return np.stack(rows)


def _operands(kind, k, width, rng):
    rows = 1 << k
    if kind == "multiply":
        return rng.standard_normal((rows, width)), rng.standard_normal((rows, width))
    if kind == "broadcast":  # a row constant across the batch, b a (width, 1) column
        a = np.broadcast_to(rng.standard_normal((rows, 1, 3)), (rows, width, 3))
        return a, rng.standard_normal((rows, width, 1))
    n = -(-width // 9)
    if kind == "matmul":
        return rng.standard_normal((rows, n, 3, 3)), rng.standard_normal((rows, n, 3, 1))
    return rng.standard_normal((rows, n, 3)), rng.standard_normal((rows, n, 3))  # outer


PRODUCTS = {
    "multiply": np.multiply, "broadcast": np.multiply,
    "matmul": np.matmul, "outer": jets._outer_arrays,
}


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
@pytest.mark.parametrize("width", [1, 7, 1000, 1024, 1500, 4608])
@pytest.mark.parametrize("k", range(6))
def test_staged_product_is_the_sequential_sum(kind, width, k, monkeypatch):
    # bitwise, at the widths where the BLAS matmul is and is not a sequential sum
    rng = np.random.default_rng(1000 * k + width)
    a, b = _operands(kind, k, width, rng)
    product = PRODUCTS[kind]
    expected = sequential_product(a, b, product)
    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", 0)
    assert np.array_equal(jets._convolve(Jet(a), Jet(b), product).comp, expected)
    if kind == "multiply":
        assert np.array_equal((Jet(a) * Jet(b)).comp, expected)


@pytest.mark.parametrize("k", range(6))
def test_staged_product_of_scalar_jets(k, monkeypatch):
    # 1-D comp: every stage adds into a 0-d view in place
    rng = np.random.default_rng(k)
    a, b = rng.standard_normal(1 << k), rng.standard_normal(1 << k)
    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", 0)
    assert np.array_equal((Jet(a) * Jet(b)).comp, sequential_product(a, b, np.multiply))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_wide_products_take_the_staged_path(k, monkeypatch):
    # a row of STAGED_MIN_WIDTH elements or more (of the larger operand) is
    # staged; a narrower one takes the gather and scatter matmul
    staged = []
    real = jets._staged_convolve
    monkeypatch.setattr(jets, "_staged_convolve", lambda *args: staged.append(1) or real(*args))
    rng = np.random.default_rng(k)
    rows, width = 1 << k, jets.STAGED_MIN_WIDTH
    a, b = rng.standard_normal((rows, width)), rng.standard_normal((rows, 1))
    assert np.array_equal((Jet(a) * Jet(b)).comp, sequential_product(a, b, np.multiply))
    assert len(staged) == 1
    a = a[:, 1:]
    ia, ib, scatter = jets._mul_index(k)
    assert np.array_equal((Jet(b) * Jet(a)).comp, scatter @ (b[ia] * a[ib]))
    assert len(staged) == 1
