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


def test_stack_needs_components_of_one_shape():
    a, b = Jet(np.ones((2, 3))), Jet(np.arange(6.0).reshape(2, 3))
    stacked = jets.stack([a, b, a, b], (2, 2))
    assert stacked.comp.shape == (2, 3, 2, 2) and stacked.comp.flags.c_contiguous
    assert np.array_equal(stacked.comp[..., 1, 0], a.comp)
    assert np.array_equal(stacked.comp[..., 1, 1], b.comp)
    with pytest.raises(ValueError):
        jets.stack([a, Jet(np.ones((2, 1)))], (2,))


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_widen_is_a_seed_zero_lift_at_each_dropped_level(levels):
    # two root generators on a (3, 2) batch, then one lift per level: seed
    # 2 + level at a kept level and 0 at a dropped one, against the kept
    # lifts alone, widened
    rng = np.random.default_rng(levels)
    base = Jet(rng.standard_normal((4, 3, 2)))
    for kept in range(1 << levels):
        full = reduced = base
        for level in range(levels):
            seed = 2.0 + level if kept >> level & 1 else 0.0
            full = full.lift(seed)
            if seed:
                reduced = reduced.lift(seed)
        widened = jets.widen(reduced, kept, levels)
        assert widened.comp.shape == full.comp.shape
        assert widened.comp.tobytes() == full.comp.tobytes()


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_widen_moves_each_row_to_its_kept_levels(levels):
    rng = np.random.default_rng(10 + levels)
    for kept in range(1 << levels):
        n = bin(kept).count("1")
        x = Jet(rng.standard_normal((4 << n, 3)))  # two root generators below the kept ones
        out = jets.widen(x, kept, levels).comp
        positions = [level for level in range(levels) if kept >> level & 1]
        for row in range(len(out)):
            low, high = row & 3, row >> 2
            if high & ~kept:
                assert out[row].tobytes() == np.zeros(3).tobytes()
            else:
                packed = sum(1 << k for k, level in enumerate(positions) if high >> level & 1)
                assert np.array_equal(out[row], x.comp[packed << 2 | low])


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_coefficient_reads_the_rows_of_its_generator(levels):
    rng = np.random.default_rng(20 + levels)
    x = Jet(rng.standard_normal((4 << levels, 3)), 2)  # two root generators below the top ones
    assert np.shares_memory(jets.coefficient(x, 0).comp, x.comp)  # the top generator: a view
    for above in range(levels):
        out = jets.coefficient(x, above)
        assert out.comp.shape == (2 << levels, 3) and out.roots == 2
        bit = 2 + levels - 1 - above
        for row in range(len(out.comp)):
            high, low = row >> bit, row & ((1 << bit) - 1)
            assert out.comp[row].tobytes() == x.comp[(high << 1 | 1) << bit | low].tobytes()


def test_coefficient_of_a_lower_generator_is_that_lift_taken_last():
    # exp of a jet lifted with seeds 1, 2, 3: the coefficient of the generator
    # with `above` lifts over it is that of the top generator of the jet
    # lifted with it last, up to the rounding of the sums
    rng = np.random.default_rng(7)
    base = Jet(rng.uniform(-0.5, 0.5, (4, 5)))
    seeds = [1.0, 2.0, 3.0]
    lifted = base.lift(seeds[0]).lift(seeds[1]).lift(seeds[2])
    for above in range(3):
        level = 2 - above
        last = base
        for seed in seeds[:level] + seeds[level + 1:] + [seeds[level]]:
            last = last.lift(seed)
        np.testing.assert_allclose(
            jets.coefficient(jets.exp(lifted), above).comp, jets.coefficient(jets.exp(last), 0).comp, rtol=1e-14
        )


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


def test_jet_solve_can_give_nan_at_singular_points_alone():
    # with singular="nan" a singular or NaN matrix gives NaN at its point only;
    # every other point keeps the bits of the solve without it
    rng = np.random.default_rng(4)
    a0 = rng.standard_normal((4, 2, 2)) + 3.0 * np.eye(2)
    a0[1], a0[3, 0, 1] = 0.0, np.nan
    a = Jet(np.stack([a0, rng.standard_normal((4, 2, 2))]))
    b = Jet(rng.standard_normal((2, 4, 2)))
    with np.errstate(invalid="ignore"):
        x = jet_solve(a, b, singular="nan")
    assert np.isnan(x.comp[:, [1, 3]]).all()
    good = Jet(a.comp[:, [0, 2]]), Jet(b.comp[:, [0, 2]])
    assert x.comp[:, [0, 2]].tobytes() == jet_solve(*good).comp.tobytes()


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
    "matmul": np.matmul, "outer": lambda x, y: x[..., :, None] * y[..., None, :],
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


# ----------------------------------------------------------------------
# the compact series: rows composed along the axes they vary on
# ----------------------------------------------------------------------

def full_layout_apply(self, derivs):
    """Jet.apply on the full coefficient layout, every term of every row."""
    k = self.order
    nil = np.array(self.comp, copy=True)
    nil[0] = 0.0
    out = np.zeros(self.comp.shape)
    out[0] = derivs[0]
    power = nil
    fact = 1.0
    for j in range(1, k + 1):
        fact *= j
        out += power * (np.asarray(derivs[j]) / fact)
        if j < k:
            power = (Jet(power) * Jet(nil)).comp
    return Jet(out)


SERIES = {
    "exp": jets.exp, "log": jets.log, "sin": jets.sin, "cos": jets.cos, "sqrt": jets.sqrt,
    "powf": lambda x: jets.powf(x, -1.5), "reciprocal": lambda x: 1.0 / x,
}


def seeded_jet(k, roots, shape, wide, rng, d=3):
    """A positive jet from ``seed`` (``roots`` root generators) and k - roots lifts.

    ``wide`` picks the batch size so that a row has at least, or fewer
    than, STAGED_MIN_WIDTH elements.
    """
    unit = d**roots * int(np.prod(shape))
    n = -(-jets.STAGED_MIN_WIDTH // unit) if wide else (jets.STAGED_MIN_WIDTH - 1) // unit
    coords = jets.seed(rng.uniform(0.1, 0.9, (n, d)), roots)
    parts = []
    for _ in range(int(np.prod(shape))):
        w = rng.uniform(0.2, 0.6, 3)
        parts.append(coords[0] * w[0] + coords[1] * coords[2] * w[1] + w[2] + 1.0)
    x = jets.stack(parts, shape)
    for _ in range(k - roots):
        x = x.lift(rng.uniform(0.5, 1.5))
    x = x * x * 0.5 + x
    assert (x.order, x.roots) == (k, roots)
    assert (x.comp.size >> k >= jets.STAGED_MIN_WIDTH) == wide
    return x


def full_layout(fn, x, monkeypatch):
    # the derivatives on the replicated value row, the series on every row
    with monkeypatch.context() as patch:
        patch.setattr(jets, "_value", lambda x: x.comp[0])
        patch.setattr(Jet, "apply", full_layout_apply)
        return fn(x).comp


@pytest.mark.parametrize("name", sorted(SERIES))
@pytest.mark.parametrize("k", range(6))
def test_compact_series_matches_the_full_layout_bitwise(name, k, monkeypatch):
    fn = SERIES[name]
    rng = np.random.default_rng(k)
    compact = []
    real = Jet._compact_series
    monkeypatch.setattr(Jet, "_compact_series", lambda *args: compact.append(1) or real(*args))
    for roots in range(min(k, 3) + 1):
        for shape in [(), (2, 3)]:
            for wide in [False, True]:
                x = seeded_jet(k, roots, shape, wide, rng)
                expected = full_layout(fn, x, monkeypatch)
                calls = len(compact)
                out = fn(x)
                assert len(compact) == calls + wide
                assert out.roots == roots
                assert np.array_equal(out.comp, expected), (roots, shape, wide)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_compact_series_keeps_non_finite_rows(name, monkeypatch):
    # a NaN, inf or zero coefficient at one point: the compact series leaves
    # non-finite exactly the elements the full layout does, and the others equal
    fn = SERIES[name]
    rng = np.random.default_rng(7)
    compact = []
    real = Jet._compact_series
    monkeypatch.setattr(Jet, "_compact_series", lambda *args: compact.append(1) or real(*args))
    # a zero value makes the derivatives of sqrt, powf and the reciprocal infinite
    for row, bad in [(1, np.nan), (2, np.inf), (5, -np.inf), (0, np.inf), (0, np.nan), (0, 0.0)]:
        x = seeded_jet(4, 2, (), True, rng)
        x.comp[row, 0] = bad  # the whole point, so every repeat along a root axis
        with np.errstate(all="ignore"):
            expected = full_layout(fn, x, monkeypatch)
            calls = len(compact)
            out = fn(x).comp
        # a non-finite coefficient of nil keeps the compact path
        assert row == 0 or len(compact) == calls + 1
        finite = np.isfinite(expected)
        assert row == 0 or not finite.all()  # an infinite value can give finite rows
        assert np.array_equal(np.isfinite(out), finite)
        assert np.array_equal(out[finite], expected[finite])


def test_every_operation_keeps_the_root_count():
    rng = np.random.default_rng(3)
    coords = jets.seed(rng.uniform(0.2, 0.8, (4, 3)), 2)
    x, y = coords[0] + 1.0, coords[1] + 2.0
    assert x.roots == 2 and Jet(np.ones((4, 3))).roots == 0
    lifted = x.lift(0.5)
    results = [
        x + y, x + 1.0, 1.0 + x, x - y, x - 1.0, 1.0 - x, -x, x * y, x * 2.0, 2.0 * x,
        x / y, x / 2.0, 2.0 / x, x**3, x**-2, x**0.5,
        jets.exp(x), jets.log(x), jets.sin(x), jets.cos(x), jets.sqrt(x), jets.powf(x, 1.5),
        lifted, jets.coefficient(lifted, 0), jets.widen(lifted, 1, 2), jets.coefficient(lifted.lift(0.25), 1),
        Jet.constant(3.0, x),
        jets.stack([x, y, x, y], (2, 2)), jets.stack([x, y, x, y], (2, 2))[1],
        jets.stack([x, y, x, y], (2, 2))[1, 0],
    ]
    assert [r.roots for r in results] == [2] * len(results)
    a = jets.stack([x, y * 0.1, y * 0.1, x], (2, 2))
    b = jets.stack([x, y], (2,))
    assert jet_solve(a, b).roots == 2
    # mixed counts: the least one, which claims repeats only where both have them
    bare = Jet(np.array(x.comp))
    assert [(x + bare).roots, (bare * x).roots, jets.stack([x, bare], (2,)).roots] == [0, 0, 0]
    # a root generator whose coefficient is taken is no root generator of the result
    assert jets.coefficient(x, 0).roots == 1
    # an array operand may vary along a root axis: no count is claimed
    per_direction = rng.uniform(1, 2, (1, 3, 1))
    assert [(x * per_direction).roots, (x - per_direction).roots, x.lift(per_direction).roots] == [0, 0, 0]
    # what perfbench's harness builds and reads
    assert Jet.__rmul__ is Jet.__mul__
    assert len(jets._mul_index(2)[0]) == 9


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("shape", [(), (2,), (2, 2), (2, 2, 2, 2)], ids=lambda s: f"rank{len(s)}")
def test_a_component_read_equals_the_stacked_read(order, shape):
    # bitwise, on rows narrower than STAGED_MIN_WIDTH (one stack of the whole
    # jets) and on wider ones (only the rows read, along the axes they span)
    rng = np.random.default_rng(order)
    d = 2
    for n in [1, -(-jets.STAGED_MIN_WIDTH // d**order)]:
        coords = jets.seed(rng.uniform(-1.0, 1.0, (n, d)), order)
        parts = [jets.sin(coords[0] * w) * coords[1] + w for w in rng.uniform(0.5, 2.0, int(np.prod(shape)))]
        stacked = jets.partials(jets.stack(parts, shape), n, d, order, shape)
        held = jets.components(parts, shape)
        assert isinstance(held, Jet) == (n == 1)
        read = jets.partials(held, n, d, order, shape)
        assert [a.shape for a in read] == [(n,) + (d,) * r + shape for r in range(order + 1)]
        assert [a.tobytes() for a in read] == [a.tobytes() for a in stacked]


def _ops(coords):
    # a product, a series and a lift under a lift, on the coordinate jets of one order
    x, y = coords[0], coords[1]
    f = jets.exp(x * y) * jets.log(x + 2.0)
    return [f, f.lift(0.5) * x.lift(0.0), jets.stack([f, x * y], (2,))]


@pytest.mark.parametrize("to", [0, 1])
def test_a_truncated_jet_is_the_jet_of_the_lower_order(to, monkeypatch):
    # with every product staged, the ops at order 2 cut to ``to`` give the same
    # ops at order ``to``, bit for bit, lifted and tensor-valued jets included
    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", 0)
    pts = np.random.default_rng(to).uniform(0.2, 0.8, (3, 2))
    for high, low in zip(_ops(jets.seed(pts, 2)), _ops(jets.seed(pts, to))):
        cut = jets.truncate(high, 2, to)
        assert cut.comp.shape == low.comp.shape and cut.comp.flags.c_contiguous
        assert cut.comp.tobytes() == low.comp.tobytes() and cut.roots == low.roots
    x = jets.seed(pts, 2)[0]
    assert jets.truncate(x, 2, 2) is x
    # partials read a higher-order jet down to the order asked for
    f = _ops(jets.seed(pts, 2))[0]
    read = jets.partials(f, 3, 2, to, ())
    assert [a.tobytes() for a in read] == [a.tobytes() for a in jets.partials(jets.truncate(f, 2, to), 3, 2, to, ())]


@pytest.mark.parametrize("to", [0, 1])
def test_a_truncated_held_jet_is_the_held_jet_of_the_lower_order(to, monkeypatch):
    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", 0)
    pts = np.random.default_rng(5).uniform(0.2, 0.8, (4, 2))
    high, low = jets.hold(_ops(jets.seed(pts, 2))[1]), jets.hold(_ops(jets.seed(pts, to))[1])
    assert high.order == 2 and low.order == to
    cut = jets.truncate(high, high.order, to)
    assert (cut.order, cut.roots, cut.width, cut.bad) == (low.order, low.roots, low.width, low.bad)
    assert [r.tobytes() for r in cut.rows] == [r.tobytes() for r in low.rows]
    assert not any(r.flags.writeable for r in cut.rows)
    assert jets.embed(cut, 3).comp.tobytes() == jets.embed(low, 3).comp.tobytes()


def test_a_truncated_held_jet_marks_only_its_own_bad_points():
    # a coefficient that is infinite only at order 2 leaves the order-1 rows clean
    x = jets.seed(np.array([[0.0, 0.5], [0.3, 0.5]]), 2)[0]
    comp = np.array(x.comp)
    comp[3, 0] = np.inf  # the second partials at the first point
    held = jets.hold(Jet(comp, 2))
    assert held.bad.tolist() == [True, False]
    assert jets.truncate(held, 2, 1).bad is None
    comp[1, 1] = np.nan  # a first partial at the second point
    assert jets.truncate(jets.hold(Jet(comp, 2)), 2, 1).bad.tolist() == [False, True]
