"""Charts, smooth fields, and exterior calculus on open boxes in R^d.

Fields are closed-form compositions of a fixed elementary basis
(polynomials, exp, log, sin, cos, powers, reciprocals) assembled
programmatically from coordinate fields; there is no expression parsing.
All derivative queries run on the nilpotent-jet engine in
:mod:`crgeo.jets` and are exact to machine rounding.  Every object is
immutable after construction and evaluation is pure, so values are
independent of evaluation order and instances can be shared freely.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import jets
from .errors import DomainError
from .jets import Jet


class Chart:
    """Open coordinate box in R^d with named coordinates."""

    def __init__(self, names, bounds):
        names = tuple(str(n) for n in names)
        bounds = tuple((float(a), float(b)) for a, b in bounds)
        if not names:
            raise ValueError("chart needs at least one coordinate")
        if len(names) != len(bounds):
            raise ValueError("one bound interval per coordinate required")
        for a, b in bounds:
            if not a < b:
                raise ValueError(f"empty coordinate interval ({a}, {b})")
        self.names = names
        self.bounds = bounds

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def extend(self, name: str, bound) -> "Chart":
        """New chart with one appended fiber coordinate."""
        return Chart(self.names + (name,), self.bounds + (tuple(bound),))

    # -- points ---------------------------------------------------------
    def points(self, pts) -> np.ndarray:
        """Validate an (N, dim) batch (or a single point) of chart points."""
        arr = np.atleast_2d(np.asarray(pts, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DomainError(f"expected points of dimension {self.dim}, got shape {arr.shape}")
        for c, (a, b) in enumerate(self.bounds):
            # negated, so that a NaN coordinate is outside too
            if not np.all((arr[:, c] > a) & (arr[:, c] < b)):
                raise DomainError(
                    f"coordinate {self.names[c]} outside open interval ({a}, {b})"
                )
        return arr

    def sample(self, n: int, seed: int, margin: float = 0.1) -> np.ndarray:
        """Deterministic uniform draws from the margin-shrunk box."""
        rng = np.random.default_rng(seed)
        lo = np.array([a + margin * (b - a) for a, b in self.bounds])
        hi = np.array([b - margin * (b - a) for a, b in self.bounds])
        return lo + (hi - lo) * rng.random((n, self.dim))

    # -- field constructors ----------------------------------------------
    def coord(self, i) -> "ScalarField":
        if isinstance(i, str):
            i = self.index(i)
        return ScalarField(self, lambda jc, i=i: jc[i])

    def coordinate_fields(self):
        return tuple(self.coord(i) for i in range(self.dim))

    def constant(self, value: float) -> "ScalarField":
        return ScalarField(self, lambda jc, v=float(value): Jet.constant(v, jc[0]))

    def zero_field(self) -> "ScalarField":
        return self.constant(0.0)

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"


# ----------------------------------------------------------------------
# jet-coordinate construction and derivative extraction
# ----------------------------------------------------------------------

class JetCoords(list):
    """Coordinate jets plus per-evaluation caches.

    ``cache`` maps field objects to their jet values so shared expression
    nodes (Reeb solves, lifted complex structures, reused components)
    evaluate exactly once per coordinate batch; ``lifts`` shares the
    generator-lifted coordinate lists used by derivative fields.
    """

    __slots__ = ("cache", "lifts")

    def __init__(self, items):
        super().__init__(items)
        self.cache = {}
        self.lifts = {}


def lift_coords(jc, i: int) -> "JetCoords":
    """Coordinates with a fresh generator seeded on coordinate i (shared)."""
    if isinstance(jc, JetCoords):
        hit = jc.lifts.get(i)
        if hit is not None:
            return hit
    lifted = JetCoords(c.lift(1.0 if j == i else 0.0) for j, c in enumerate(jc))
    if isinstance(jc, JetCoords):
        jc.lifts[i] = lifted
    return lifted


def jet_data(field: "TensorField", pts, order: int) -> list[np.ndarray]:
    """Value and partial-derivative arrays of a field at a point batch.

    Returns ``[v, d1, .., d_order]`` with ``v`` of shape ``(N, *shape)``
    and ``d_r`` of shape ``(N, d*r, *shape)`` where ``d_r[n, a, .., b]``
    is the mixed partial along coordinates ``a..b``.
    """
    return jet_data_multi([field], pts, order)[0]


# Points per jet evaluation.  Intermediate jets grow with the batch, so a
# bound on it bounds the peak memory: 64-point blocks took the m=2,
# 128-point complex_hyperbolic run from 350 to 200 MB of peak RSS.  Each block
# repeats the expression-tree dispatch, so smaller blocks cost wall time: in
# single perfbench dense_p128 runs, 32-point blocks gave 127 MB but 3.6 s of
# wall_s, where 64-point blocks took 3.2-3.4 s and one batch 2.7-2.8 s.
BLOCK_POINTS = 64


def jet_data_multi(fields, pts, order: int) -> list[list[np.ndarray]]:
    """Like :func:`jet_data` for several fields on one shared jet batch.

    Sharing one coordinate batch lets common sub-expressions (Reeb
    solves, lifted structures, pulled-back components) evaluate once.
    The points are evaluated in blocks of at most ``BLOCK_POINTS``.
    """
    chart = fields[0].chart
    pts = chart.points(pts)
    for field in fields:
        if field.chart is not chart:
            raise ValueError("fields live on different charts")
    if len(pts) <= BLOCK_POINTS:
        return _jet_data_block(fields, pts, order)
    blocks = [
        _jet_data_block(fields, pts[i:i + BLOCK_POINTS], order)
        for i in range(0, len(pts), BLOCK_POINTS)
    ]
    return [[np.concatenate(arrays) for arrays in zip(*per_field)] for per_field in zip(*blocks)]


def _jet_data_block(fields, pts: np.ndarray, order: int) -> list[list[np.ndarray]]:
    n, d = pts.shape
    jc = JetCoords(jets.seed(pts, order))
    results = []
    for field in fields:
        results.append(jets.partials(field._eval_all(jc), n, d, order, field.shape))
        # its stacked jet is read back once: dropping it keeps one stack alive
        # at a time (a later field reading this field's jet would re-evaluate it)
        jc.cache.pop(field, None)
    return results


# ----------------------------------------------------------------------
# fields
# ----------------------------------------------------------------------

class TensorField:
    """Base for fields holding a jet evaluator with trailing value axes.

    Subclasses implement ``_evaluate``; ``_eval_all`` adds per-batch
    memoization so shared nodes of an expression tree run once.
    """

    shape: tuple = ()

    def __init__(self, chart: Chart):
        self.chart = chart

    def _evaluate(self, jcoords) -> Jet:
        raise NotImplementedError

    def _eval_all(self, jcoords) -> Jet:
        cache = getattr(jcoords, "cache", None)
        if cache is None:
            return self._evaluate(jcoords)
        hit = cache.get(self)
        if hit is None:
            hit = self._evaluate(jcoords)
            cache[self] = hit
        return hit

    def __call__(self, pts) -> np.ndarray:
        return jet_data(self, pts, 0)[0]


class ScalarField(TensorField):
    """Smooth real function on a chart with exact derivative queries."""

    shape = ()
    variance = ()

    def __init__(self, chart: Chart, fn):
        super().__init__(chart)
        self._fn = fn

    def _evaluate(self, jc):
        return self._fn(jc)

    # -- calculus ---------------------------------------------------------
    def partial(self, i) -> "ScalarField":
        """Exact partial derivative field along coordinate i."""
        if isinstance(i, str):
            i = self.chart.index(i)

        def fn(jc, i=i, base=self):
            return base._eval_all(lift_coords(jc, i)).upper()

        return ScalarField(self.chart, fn)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart is not self.chart:
                raise ValueError("fields live on different charts")
            return other
        if isinstance(other, numbers.Number):
            return float(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if isinstance(other, float):
            return ScalarField(self.chart, lambda jc: self._eval_all(jc) + other)
        return ScalarField(self.chart, lambda jc: self._eval_all(jc) + other._eval_all(jc))

    __radd__ = __add__

    def __neg__(self):
        return ScalarField(self.chart, lambda jc: -self._eval_all(jc))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if isinstance(other, float):
            return ScalarField(self.chart, lambda jc: self._eval_all(jc) - other)
        return ScalarField(self.chart, lambda jc: self._eval_all(jc) - other._eval_all(jc))

    def __rsub__(self, other):
        other = float(other)
        return ScalarField(self.chart, lambda jc: other - self._eval_all(jc))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if isinstance(other, float):
            return ScalarField(self.chart, lambda jc: self._eval_all(jc) * other)
        return ScalarField(self.chart, lambda jc: self._eval_all(jc) * other._eval_all(jc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if isinstance(other, float):
            return ScalarField(self.chart, lambda jc: self._eval_all(jc) * (1.0 / other))
        return ScalarField(self.chart, lambda jc: self._eval_all(jc) / other._eval_all(jc))

    def __rtruediv__(self, other):
        other = float(other)
        return ScalarField(self.chart, lambda jc: other / self._eval_all(jc))

    def __pow__(self, n):
        return ScalarField(self.chart, lambda jc: self._eval_all(jc) ** n)


def as_field(chart: Chart, value) -> ScalarField:
    if isinstance(value, ScalarField):
        return value
    return chart.constant(float(value))


# elementary compositions ------------------------------------------------

def _unary(fn):
    def wrapper(f: ScalarField) -> ScalarField:
        return ScalarField(f.chart, lambda jc: fn(f._eval_all(jc)))

    return wrapper


exp = _unary(jets.exp)
log = _unary(jets.log)
sin = _unary(jets.sin)
cos = _unary(jets.cos)
sqrt = _unary(jets.sqrt)


class _ComponentStack(TensorField):
    """Tensor field backed by an object array of scalar fields.

    ``rank`` set: the components form a (dim,) * rank array.  The
    element-wise algebra builds its results through :meth:`_like`.
    """

    rank: int | None = None

    def __init__(self, chart: Chart, components):
        super().__init__(chart)
        given = np.asarray(components, dtype=object)
        if self.rank is not None and given.shape != (chart.dim,) * self.rank:
            raise ValueError(
                f"need a {(chart.dim,) * self.rank} component array, got shape {given.shape}"
            )
        comps = np.empty(given.shape, dtype=object)
        for idx in np.ndindex(given.shape):
            comps[idx] = as_field(chart, given[idx])
        self.components = comps
        self.shape = given.shape

    def _like(self, components):
        """A field of this kind with new components (the constructor hook)."""
        return type(self)(self.chart, components)

    def component(self, *idx) -> ScalarField:
        return self.components[idx]

    def _evaluate(self, jc):
        return jets.stack([c._eval_all(jc) for c in self.components.flat], self.shape)

    def __add__(self, other):
        return self._like(self.components + other.components)

    def __sub__(self, other):
        return self._like(self.components - other.components)

    def scaled(self, f):
        return self._like(self.components * f)


class VectorField(_ComponentStack):
    rank = 1
    variance = (1,)


class OneForm(_ComponentStack):
    rank = 1
    variance = (-1,)

    def pair(self, x: VectorField) -> ScalarField:
        """Contraction omega(X)."""
        d = self.chart.dim
        total = self.components[0] * x.components[0]
        for i in range(1, d):
            total = total + self.components[i] * x.components[i]
        return total


class _Matrix(_ComponentStack):
    rank = 2
    variance = (-1, -1)

    def apply(self, x: VectorField, y: VectorField) -> ScalarField:
        """Bilinear evaluation sum_ij c_ij X^i Y^j."""
        d = self.chart.dim
        total = self.chart.zero_field()
        for i in range(d):
            for j in range(d):
                total = total + self.components[i, j] * x.components[i] * y.components[j]
        return total


class TwoForm(_Matrix):
    """Antisymmetric component matrix b_ij = b(e_i, e_j)."""


class SymmetricTwoTensor(_Matrix):
    """Symmetric component matrix s_ij = s(e_i, e_j)."""


class Endomorphism(_Matrix):
    """(1,1)-tensor with components J^i_j (output index first)."""

    variance = (1, -1)

    def apply(self, x: VectorField) -> VectorField:
        d = self.chart.dim
        comps = []
        for i in range(d):
            total = self.components[i, 0] * x.components[0]
            for j in range(1, d):
                total = total + self.components[i, j] * x.components[j]
            comps.append(total)
        return VectorField(self.chart, comps)


class GenericTensorField(_ComponentStack):
    """Arbitrary-valence tensor field; ``variance[k]`` is +1 (up) or -1 (down)."""

    def __init__(self, chart, components, variance):
        super().__init__(chart, components)
        if len(variance) != len(self.shape):
            raise ValueError("variance length must match tensor rank")
        self.variance = tuple(variance)

    def _like(self, components):
        return GenericTensorField(self.chart, components, self.variance)


# ----------------------------------------------------------------------
# chart-calculus operations
# ----------------------------------------------------------------------

def derivative(f: ScalarField, pts, multi_index) -> np.ndarray:
    """Exact mixed partial of f along ``multi_index`` (|index| <= 3)."""
    multi_index = tuple(multi_index)
    if len(multi_index) > 3:
        raise ValueError("derivative queries are supported up to order 3")
    for i in multi_index:
        if not 0 <= i < f.chart.dim:
            raise ValueError(f"direction {i} outside the coordinates 0..{f.chart.dim - 1}")
    return jet_data(f, pts, len(multi_index))[-1][(slice(None),) + multi_index]


def differential(f: ScalarField) -> OneForm:
    return OneForm(f.chart, [f.partial(i) for i in range(f.chart.dim)])


def exterior_derivative(omega: OneForm) -> TwoForm:
    """Two-form with components (d omega)_ij = d_i omega_j - d_j omega_i."""
    d = omega.chart.dim
    comp = [[omega.components[j].partial(i) - omega.components[i].partial(j) for j in range(d)] for i in range(d)]
    return TwoForm(omega.chart, comp)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    if x.chart is not y.chart:
        raise ValueError("fields live on different charts")
    d = x.chart.dim
    comps = []
    for k in range(d):
        total = x.components[0] * y.components[k].partial(0) - y.components[0] * x.components[k].partial(0)
        for i in range(1, d):
            total = total + x.components[i] * y.components[k].partial(i)
            total = total - y.components[i] * x.components[k].partial(i)
        comps.append(total)
    return VectorField(x.chart, comps)


def symmetric_product(alpha: OneForm, beta: OneForm) -> SymmetricTwoTensor:
    """Half-symmetrized product: (a o b)(X,Y) = (a(X)b(Y) + a(Y)b(X)) / 2."""
    d = alpha.chart.dim
    comp = [
        [
            (alpha.components[i] * beta.components[j] + alpha.components[j] * beta.components[i]) * 0.5
            for j in range(d)
        ]
        for i in range(d)
    ]
    return SymmetricTwoTensor(alpha.chart, comp)


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    d = alpha.chart.dim
    comp = [
        [alpha.components[i] * beta.components[j] - alpha.components[j] * beta.components[i] for j in range(d)]
        for i in range(d)
    ]
    return TwoForm(alpha.chart, comp)


# ----------------------------------------------------------------------
# transport between a base chart and an extended (fiber) chart
# ----------------------------------------------------------------------

def _subset_coords(jc, index_map: tuple) -> JetCoords:
    """Shared projection of coordinate jets onto a leading-index subset."""
    key = ("subset", index_map)
    if isinstance(jc, JetCoords):
        hit = jc.lifts.get(key)
        if hit is not None:
            return hit
    sub = JetCoords(jc[i] for i in index_map)
    if isinstance(jc, JetCoords):
        jc.lifts[key] = sub
    return sub


def pullback_scalar(total: Chart, f: ScalarField, index_map=None) -> ScalarField:
    """View a base-chart function on a chart extending it (fiber-constant)."""
    if index_map is None:
        index_map = tuple(range(f.chart.dim))
    index_map = tuple(index_map)
    return ScalarField(total, lambda jc: f._eval_all(_subset_coords(jc, index_map)))


def pullback_oneform(total: Chart, omega: OneForm) -> OneForm:
    """Pull a base one-form back along the projection onto leading coordinates."""
    base_dim = omega.chart.dim
    comps = [pullback_scalar(total, omega.components[i]) for i in range(base_dim)]
    comps += [total.constant(0.0)] * (total.dim - base_dim)
    return OneForm(total, comps)


def pullback_symmetric(total: Chart, s: SymmetricTwoTensor) -> SymmetricTwoTensor:
    base_dim = s.chart.dim
    zero = total.constant(0.0)
    comp = [
        [
            pullback_scalar(total, s.components[i, j]) if i < base_dim and j < base_dim else zero
            for j in range(total.dim)
        ]
        for i in range(total.dim)
    ]
    return SymmetricTwoTensor(total, comp)


def extend_vector(total: Chart, x: VectorField) -> VectorField:
    """Extend a base vector field by zero fiber components."""
    base_dim = x.chart.dim
    comps = [pullback_scalar(total, x.components[i]) for i in range(base_dim)]
    comps += [total.constant(0.0)] * (total.dim - base_dim)
    return VectorField(total, comps)
