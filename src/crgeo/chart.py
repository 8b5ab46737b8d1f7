"""Charts, smooth fields, and exterior calculus on open boxes in R^d.

Fields are closed-form compositions of a fixed elementary basis
(polynomials, exp, log, sin, cos, powers, reciprocals) assembled
programmatically from coordinate fields; there is no expression parsing.
All derivative queries run on the nilpotent-jet engine in
:mod:`crgeo.jets` and are exact to machine rounding.  Every object is
immutable after construction and evaluation is pure, so values are
independent of evaluation order and instances can be shared freely.

Scalar expression trees fold when they are built.  A field from
:meth:`Chart.constant` knows its value; an operation on two constants is a
constant; ``f + 0``, ``f - 0`` and ``1 * f`` are ``f``, ``0 * f`` is the
constant 0 and ``0 - f`` is ``-f``; and ``f`` combined with a constant
``c`` by ``+``, ``-``, ``*`` or ``/`` runs on the scalar-jet paths
(``Jet + c``, ``Jet * c``, ``Jet * (1.0 / c)``), not on a jet product.  Each
scalar field also carries the set of coordinates it may depend on
(``ScalarField.deps``), and a partial along any other coordinate is the
constant 0, evaluated without lifting a generator.  Only exact zeros are
dropped, so every value and partial keeps the bits of the unfolded tree, up to
the sign of a zero.  A folded zero is exact even where the field it
replaces is NaN or infinite (``log(x) * 0`` is 0 at x < 0).

Tensor fields are assembled from their component arrays by numpy's
element-wise object algebra, which keeps each operation's left operand.
Every sum of components runs through :func:`ordered_sum` or
:func:`contract`, whose order (left to right) the code fixes, not numpy.
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
        if not 0.0 <= margin < 0.5:  # negated, so that a NaN margin is rejected too
            raise ValueError(f"sampling margin must lie in [0, 0.5), got {margin}")
        rng = np.random.default_rng(seed)
        lo = np.array([a + margin * (b - a) for a, b in self.bounds])
        hi = np.array([b - margin * (b - a) for a, b in self.bounds])
        return lo + (hi - lo) * rng.random((n, self.dim))

    # -- field constructors ----------------------------------------------
    def coord(self, i) -> "ScalarField":
        if isinstance(i, str):
            i = self.index(i)
        return ScalarField(self, lambda jc, i=i: jc[i], frozenset((i,)))

    def coordinate_fields(self):
        return tuple(self.coord(i) for i in range(self.dim))

    def constant(self, value: float) -> "ScalarField":
        value = float(value)
        return ScalarField(self, lambda jc: Jet.constant(value, jc[0]), frozenset(), value)

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


def lift_coords(jc: JetCoords, i: int) -> JetCoords:
    """Coordinates with a fresh generator seeded on coordinate i (shared)."""
    hit = jc.lifts.get(i)
    if hit is None:
        hit = jc.lifts[i] = JetCoords(c.lift(1.0 if j == i else 0.0) for j, c in enumerate(jc))
    return hit


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
    if not fields:
        raise ValueError("no fields")
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

    def _eval_all(self, jcoords: JetCoords) -> Jet:
        hit = jcoords.cache.get(self)
        if hit is None:
            hit = jcoords.cache[self] = self._evaluate(jcoords)
        return hit

    def __call__(self, pts) -> np.ndarray:
        return jet_data(self, pts, 0)[0]


class ScalarField(TensorField):
    """Smooth real function on a chart with exact derivative queries.

    ``deps`` is the frozenset of coordinate indices the field may depend on:
    {i} for ``coord(i)``, {} for a constant, the union of the operands' sets
    for arithmetic, the operand's set for ``exp``/``log``/.. and ``partial``,
    and every coordinate for a field built from an arbitrary ``fn``.
    ``value`` is the float of a constant field and None otherwise.  The
    arithmetic folds by these two, as the module docstring states.
    """

    shape = ()
    variance = ()

    def __init__(self, chart: Chart, fn, deps: frozenset | None = None, value: float | None = None):
        super().__init__(chart)
        self._fn = fn
        self.deps = frozenset(range(chart.dim)) if deps is None else deps
        self.value = value

    def _evaluate(self, jc):
        return self._fn(jc)

    # -- calculus ---------------------------------------------------------
    def partial(self, i) -> "ScalarField":
        """Exact partial derivative field along coordinate i."""
        if isinstance(i, str):
            i = self.chart.index(i)
        if i not in self.deps:
            return self.chart.constant(0.0)

        def fn(jc, i=i, base=self):
            return base._eval_all(lift_coords(jc, i)).upper()

        return ScalarField(self.chart, fn, self.deps)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart is not self.chart:
                raise ValueError("fields live on different charts")
            return other
        if isinstance(other, numbers.Number):
            return self.chart.constant(other)
        return NotImplemented

    def _join(self, other, fn) -> "ScalarField":
        return ScalarField(self.chart, fn, self.deps | other.deps)

    def _times(self, c: float) -> "ScalarField":
        # self * c for a constant c, on the scalar-jet path
        if c == 0.0:
            return self.chart.constant(0.0)
        if c == 1.0:
            return self
        return ScalarField(self.chart, lambda jc: self._eval_all(jc) * c, self.deps)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.value, other.value
        if b == 0.0:
            return self
        if a == 0.0:
            return other
        if a is not None and b is not None:
            return self.chart.constant(a + b)
        if b is not None:
            return self._join(other, lambda jc: self._eval_all(jc) + b)
        if a is not None:
            return self._join(other, lambda jc: other._eval_all(jc) + a)
        return self._join(other, lambda jc: self._eval_all(jc) + other._eval_all(jc))

    __radd__ = __add__

    def __neg__(self):
        if self.value is not None:
            return self.chart.constant(-self.value)
        return ScalarField(self.chart, lambda jc: -self._eval_all(jc), self.deps)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.value, other.value
        if b == 0.0:
            return self
        if a == 0.0:
            return -other
        if a is not None and b is not None:
            return self.chart.constant(a - b)
        if b is not None:
            return self._join(other, lambda jc: self._eval_all(jc) - b)
        if a is not None:
            return self._join(other, lambda jc: a - other._eval_all(jc))
        return self._join(other, lambda jc: self._eval_all(jc) - other._eval_all(jc))

    def __rsub__(self, other):
        return self.chart.constant(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.value, other.value
        if a is not None and b is not None:
            return self.chart.constant(a * b)
        if b is not None:
            return self._times(b)
        if a is not None:
            return other._times(a)
        return self._join(other, lambda jc: self._eval_all(jc) * other._eval_all(jc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a / b is a * (1 / b), as in the jet engine
        a, b = self.value, other.value
        if a is not None and b is not None:
            return self.chart.constant(a * (1.0 / b))
        if b is not None:
            return self._times(1.0 / b)
        if a is not None:
            return self._join(other, lambda jc: a / other._eval_all(jc))
        return self._join(other, lambda jc: self._eval_all(jc) / other._eval_all(jc))

    def __rtruediv__(self, other):
        return self.chart.constant(other) / self

    def __pow__(self, n):
        return ScalarField(self.chart, lambda jc: self._eval_all(jc) ** n, self.deps)


def as_field(chart: Chart, value) -> ScalarField:
    if isinstance(value, ScalarField):
        return value
    return chart.constant(float(value))


# elementary compositions ------------------------------------------------

def _unary(fn):
    def wrapper(f: ScalarField) -> ScalarField:
        return ScalarField(f.chart, lambda jc: fn(f._eval_all(jc)), f.deps)

    return wrapper


exp = _unary(jets.exp)
log = _unary(jets.log)
sin = _unary(jets.sin)
cos = _unary(jets.cos)
sqrt = _unary(jets.sqrt)


def ordered_sum(terms):
    """((t0 + t1) + t2) + ..: the left-to-right sum of fields, object or float arrays."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def contract(a: np.ndarray, b: np.ndarray):
    """sum_k a[..., k] (x) b[k] over k ascending, each term ``a`` times ``b`` elementwise."""
    return ordered_sum(np.multiply.outer(a[..., k], b[k]) for k in range(len(b)))


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
        return ordered_sum(self.components * x.components)


class _Matrix(_ComponentStack):
    rank = 2
    variance = (-1, -1)

    def apply(self, x: VectorField, y: VectorField) -> ScalarField:
        """Bilinear evaluation sum_ij c_ij X^i Y^j."""
        return ordered_sum((self.components * x.components[:, None] * y.components).flat)


class TwoForm(_Matrix):
    """Antisymmetric component matrix b_ij = b(e_i, e_j)."""


class SymmetricTwoTensor(_Matrix):
    """Symmetric component matrix s_ij = s(e_i, e_j)."""


class Endomorphism(_Matrix):
    """(1,1)-tensor with components J^i_j (output index first)."""

    variance = (1, -1)

    def apply(self, x: VectorField) -> VectorField:
        return VectorField(self.chart, contract(self.components, x.components))


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
    grad = np.stack([differential(w).components for w in omega.components], axis=1)
    return TwoForm(omega.chart, grad - grad.T)


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
    ab = np.multiply.outer(alpha.components, beta.components)
    return SymmetricTwoTensor(alpha.chart, (ab + ab.T) * 0.5)


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    ab = np.multiply.outer(alpha.components, beta.components)
    return TwoForm(alpha.chart, ab - ab.T)


# ----------------------------------------------------------------------
# transport between a base chart and an extended (fiber) chart
# ----------------------------------------------------------------------

def _leading_coords(jc: JetCoords, n: int) -> JetCoords:
    """Shared view of the leading n coordinate jets."""
    key = ("leading", n)
    hit = jc.lifts.get(key)
    if hit is None:
        hit = jc.lifts[key] = JetCoords(jc[:n])
    return hit


def pullback_scalar(total: Chart, f: ScalarField) -> ScalarField:
    """View a base-chart function on a chart extending it (fiber-constant).

    The base coordinates are the leading coordinates of ``total``.
    """
    n = f.chart.dim
    if total.names[:n] != f.chart.names or total.bounds[:n] != f.chart.bounds:
        raise ValueError(f"{total} does not extend {f.chart}")
    if f.value is not None:
        return total.constant(f.value)
    return ScalarField(total, lambda jc: f._eval_all(_leading_coords(jc, n)), f.deps)


def _pulled_back(total: Chart, field: _ComponentStack) -> np.ndarray:
    """Components of a base field on ``total``, the fiber ones a shared constant 0."""
    comps = np.full((total.dim,) * len(field.shape), total.constant(0.0), dtype=object)
    pull = np.frompyfunc(lambda f: pullback_scalar(total, f), 1, 1)
    comps[tuple(slice(n) for n in field.shape)] = pull(field.components)
    return comps


def pullback_oneform(total: Chart, omega: OneForm) -> OneForm:
    """Pull a base one-form back along the projection onto leading coordinates."""
    return OneForm(total, _pulled_back(total, omega))


def pullback_symmetric(total: Chart, s: SymmetricTwoTensor) -> SymmetricTwoTensor:
    return SymmetricTwoTensor(total, _pulled_back(total, s))


def extend_vector(total: Chart, x: VectorField) -> VectorField:
    """Extend a base vector field by zero fiber components."""
    return VectorField(total, _pulled_back(total, x))
