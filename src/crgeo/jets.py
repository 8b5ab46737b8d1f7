"""Nilpotent jet arithmetic: the exact-derivative engine.

A :class:`Jet` is an element of ``R[e_1..e_k]/(e_i^2 = 0)`` whose
coefficients are ndarrays, indexed by the bitmask of generators present.
Seeding generators on coordinate directions and reading the coefficient
of ``e_1*...*e_k`` yields exact mixed partial derivatives (to machine
rounding) of any composition of the operations defined here; there is no
truncation error.  Batches live in the trailing axes of ``comp``.

This module alone knows the coefficient layout: :func:`seed` builds
coordinate jets, :func:`partials` reads value and derivative arrays back,
:func:`from_partials` makes a jet of order 1 from such arrays,
:func:`truncate` keeps the rows of a jet that a lower order has,
:func:`stack` assembles the jet of a tensor from its components,
:func:`components` holds them for a read without that jet,
:func:`widen` gives a jet exact-zero rows for generators it does not read,
:func:`coefficient` reads the coefficient of one generator, and
:func:`hold` keeps the rows of a jet of leading coordinates that
:func:`embed` lays out on more coordinates.
Part of the layout is a jet's root count: generator j below it is a root
generator, seeded along batch axis 1 + j, so row s holds values that vary
only along the root axes of the bits in s and repeat along the others.
:func:`seed` sets the count and every operation here carries it forward
(the least count of its operands); a bare ``Jet(comp)`` has count 0, which
claims no repeats.  Wide compositions (:meth:`Jet.apply`) and wide reads of
components work on each row only along the axes it varies on.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "Jet", "exp", "log", "sin", "cos", "sqrt", "powf",
    "seed", "partials", "from_partials", "truncate", "components", "stack", "widen", "coefficient",
    "Held", "hold", "embed",
    "jet_solve", "solve_values",
]

# smallest |det| of the order-zero matrix that jet_solve inverts
MIN_DET = 1e-10

# Two products sum the same disjoint coefficient pairs (t, s ^ t) of each
# output row s.  Narrow batches gather all 3^k pairs and scatter-add them
# with one dense (2^k, 3^k) BLAS matmul: few numpy calls, but the summation
# order belongs to the BLAS kernel and its blocking.  Wide batches use the
# staged product, 2^k - 1 in-place adds whose order (t ascending) the code
# fixes, doing 3^k products and no multiplies by zero.  The width is the
# larger operand's elements per row.  Measured with one BLAS thread, the
# matmul took 0.29, 0.45, 3.6 and 5.4 times the staged time at widths 64,
# 256, 512 and 1024 for k = 4, 0.56 and 4.6 at 512 and 1024 for k = 3, and
# 0.76 and 7.5 at 512 and 2304 for k = 2; staging every product made the
# two-point catalog about 20% slower, since each stage costs a few
# microseconds of dispatch.  At 1024 instead of 512, the order-4 products of
# 64-point blocks at m = 1 (width 576) stayed on the slow matmul.  The same
# width picks the compact series of Jet.apply and the row-wise component
# reads of partials, each a few numpy calls per row.
STAGED_MIN_WIDTH = 512

_MUL_INDEX: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_STAGES: dict[int, list[tuple[int, tuple, tuple]]] = {}
# a jet combined with a number keeps its root count; with an array, which
# may vary along a root axis, it claims none
_NUMBERS = (float, int)
_ROW_VIEWS: dict[tuple[int, int], list[tuple]] = {}
_POWER_TERMS: dict[int, list[list[tuple[int, tuple[int, ...]]]]] = {}
_EMBED_VIEWS: dict[tuple[int, int, int], list[tuple]] = {}


def _mul_index(k: int):
    # gather indices plus a dense scatter matrix: out = scatter @ (a[ia] * b[ib])
    if k not in _MUL_INDEX:
        n = 1 << k
        pairs = [(t, s, t | s) for t in range(n) for s in range(n) if t & s == 0]
        ia, ib, isum = (np.array(col) for col in zip(*pairs))
        scatter = np.zeros((n, len(pairs)))
        scatter[isum, np.arange(len(pairs))] = 1.0
        _MUL_INDEX[k] = (ia, ib, scatter)
    return _MUL_INDEX[k]


def _stages(k: int):
    # per t = 1 .. 2^k - 1: basic indices of the rows s containing t, and of
    # the rows s ^ t, on the generator axis viewed as (2,) * k (axis i holds
    # bit k - 1 - i); the trailing Ellipsis keeps a 0-d view writable in place
    if k not in _STAGES:
        stages = []
        for t in range(1, 1 << k):
            bits = [t >> (k - 1 - i) & 1 for i in range(k)]
            into = tuple(1 if bit else slice(None) for bit in bits) + (Ellipsis,)
            take = tuple(0 if bit else slice(None) for bit in bits) + (Ellipsis,)
            stages.append((t, into, take))
        _STAGES[k] = stages
    return _STAGES[k]


def _row_views(k: int, roots: int):
    # per row s: the index of comp[s] along the root axes of the bits in s,
    # a length-1 slice along every other root axis (a zero-copy view)
    key = (k, roots)
    if key not in _ROW_VIEWS:
        lead = (slice(None),) if roots else ()
        _ROW_VIEWS[key] = [
            (s,) + lead
            + tuple(slice(None) if s >> j & 1 else slice(0, 1) for j in range(roots))
            + (Ellipsis,)
            for s in range(1 << k)
        ]
    return _ROW_VIEWS[key]


def _power_terms(k: int):
    # per j = 2 .. k: the rows s with |s| >= j, each with the t of its
    # staged sum that are not exact zeros: t a proper nonempty subset of s
    # (nil has a zero row 0) with |t| >= j - 1 (nil^(j-1) is zero below)
    if k not in _POWER_TERMS:
        _POWER_TERMS[k] = [
            [
                (s, tuple(t for t in range(1, s) if t & s == t and t.bit_count() >= j - 1))
                for s in range(1 << k) if s.bit_count() >= j
            ]
            for j in range(2, k + 1)
        ]
    return _POWER_TERMS[k]


class Jet:
    """Truncated polynomial in k nilpotent generators.

    ``comp`` has shape ``(2**k, *batch)``; ``comp[m]`` is the coefficient
    of the product of the generators in bitmask ``m``.  The lowest
    ``roots`` generators are root generators (see the module docstring).
    """

    __slots__ = ("comp", "roots")

    def __init__(self, comp: np.ndarray, roots: int = 0):
        self.comp = comp
        self.roots = roots

    # ------------------------------------------------------------------
    @staticmethod
    def constant(value, like: "Jet") -> "Jet":
        comp = np.zeros(like.comp.shape)
        comp[0] = value
        return Jet(comp, like.roots if isinstance(value, _NUMBERS) else 0)

    @property
    def order(self) -> int:
        return int(self.comp.shape[0]).bit_length() - 1

    def __getitem__(self, idx) -> "Jet":
        # index into the trailing (value) axes, keeping the generator axis
        return Jet(self.comp[(slice(None), Ellipsis) + (idx if isinstance(idx, tuple) else (idx,))], self.roots)

    # -- lifting one generator (used for derivative fields) ------------
    def lift(self, seed) -> "Jet":
        """Append a fresh generator with coefficient ``seed`` on this variable."""
        rows = self.comp.shape[0]
        out = np.zeros((2 * rows,) + self.comp.shape[1:])
        out[:rows] = self.comp
        out[rows] = seed
        return Jet(out, self.roots if isinstance(seed, _NUMBERS) else 0)

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.comp + other.comp, min(self.roots, other.roots))
        out = np.array(self.comp, copy=True)
        out[0] = out[0] + other
        return Jet(out, self.roots if isinstance(other, _NUMBERS) else 0)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.comp, self.roots)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.comp - other.comp, min(self.roots, other.roots))
        out = np.array(self.comp, copy=True)
        out[0] = out[0] - other
        return Jet(out, self.roots if isinstance(other, _NUMBERS) else 0)

    def __rsub__(self, other):
        out = -self.comp
        out[0] = other + out[0]
        return Jet(out, self.roots if isinstance(other, _NUMBERS) else 0)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return _convolve(self, other, np.multiply)
        return Jet(self.comp * other, self.roots if isinstance(other, _NUMBERS) else 0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.comp / other, self.roots if isinstance(other, _NUMBERS) else 0)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, n):
        if isinstance(n, numbers.Integral):
            n = int(n)
            if n < 0:
                return (self.__pow__(-n))._reciprocal()
            out = Jet.constant(1.0, self)
            base = self
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out
        return powf(self, float(n))

    # -- composition with a smooth scalar function ----------------------
    def apply(self, derivs) -> "Jet":
        """Compose with g given ``derivs[j] = g^(j)(value)`` for j = 0..k.

        ``out = g(v) + sum_j nil^j g^(j)(v) / j!``, nil the jet less its
        value, each power by the product of the last one and nil.  Rows of
        ``STAGED_MIN_WIDTH`` elements or more take the staged sums on rows
        viewed along the axes they vary on, skipping only exact-zero terms,
        unless a derivative is not finite (a zero term times it is NaN).
        """
        k = self.order
        if self.comp.size >> k >= STAGED_MIN_WIDTH:
            coefs = [np.asarray(derivs[j]) / math.factorial(j) for j in range(1, k + 1)]
            if all(np.isfinite(c).all() for c in coefs):
                return self._compact_series(derivs[0], coefs)
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
        return Jet(out, self.roots)

    def _compact_series(self, value, coefs) -> "Jet":
        # each row s of nil^j sums power[t] * nil[s ^ t] over t ascending, as
        # _staged_convolve does, without the terms that are exact zeros; its
        # term of the series is added to row s as soon as it exists, so every
        # row adds its terms with j ascending
        k = self.order
        nil = [self.comp[view] for view in _row_views(k, self.roots)]
        out = [None] + [row * coefs[0] for row in nil[1:]]
        power = nil
        for coef, rows in zip(coefs[1:], _power_terms(k)):
            nxt = {}
            for s, terms in rows:
                t = terms[0]
                acc = power[t] * nil[s ^ t]
                for t in terms[1:]:
                    acc += power[t] * nil[s ^ t]
                nxt[s] = acc
                out[s] += acc * coef
            power = nxt
        full = np.empty(self.comp.shape)
        full[0] = value
        for s in range(1, 1 << k):
            full[s] = out[s]
        return Jet(full, self.roots)

    def _reciprocal(self) -> "Jet":
        v = _value(self)
        k = self.order
        derivs = [1.0 / v]
        for j in range(1, k + 1):
            derivs.append(derivs[-1] * (-j) / v)
        return self.apply(derivs)

    def __repr__(self):
        return f"Jet(order={self.order}, batch={self.comp.shape[1:]})"


def _value(x: Jet) -> np.ndarray:
    # the value row; from STAGED_MIN_WIDTH elements per row on, viewed along
    # no root axis (it broadcasts to the full row), as the compact series reads it
    value = x.comp[0]
    if value.size < STAGED_MIN_WIDTH:
        return value
    return x.comp[_row_views(x.order, x.roots)[0]]


# ----------------------------------------------------------------------
# elementary functions usable on floats, ndarrays and jets
# ----------------------------------------------------------------------

def exp(x):
    if isinstance(x, Jet):
        e = np.exp(_value(x))
        return x.apply([e] * (x.order + 1))
    return np.exp(x)


def log(x):
    if isinstance(x, Jet):
        v = _value(x)
        derivs = [np.log(v)]
        for j in range(1, x.order + 1):
            derivs.append((-1.0) ** (j - 1) * math.factorial(j - 1) / v**j)
        return x.apply(derivs)
    return np.log(x)


def sin(x):
    if isinstance(x, Jet):
        v = _value(x)
        s, c = np.sin(v), np.cos(v)
        cycle = [s, c, -s, -c]
        return x.apply([cycle[j % 4] for j in range(x.order + 1)])
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet):
        v = _value(x)
        s, c = np.sin(v), np.cos(v)
        cycle = [c, -s, -c, s]
        return x.apply([cycle[j % 4] for j in range(x.order + 1)])
    return np.cos(x)


def powf(x, a: float):
    """Real power x**a for positive base."""
    if isinstance(x, Jet):
        v = _value(x)
        derivs = []
        coef = 1.0
        for j in range(x.order + 1):
            derivs.append(coef * v ** (a - j))
            coef *= a - j
        return x.apply(derivs)
    return np.power(x, a)


def sqrt(x):
    if isinstance(x, Jet):
        return powf(x, 0.5)
    return np.sqrt(x)


# ----------------------------------------------------------------------
# coordinate seeding, derivative extraction and component stacking
# ----------------------------------------------------------------------

def seed(pts: np.ndarray, order: int) -> list[Jet]:
    """Coordinate jets of an (N, d) point batch, exact to ``order``.

    Generator j is seeded on every coordinate direction at once, along
    batch axis 1 + j, so each jet has batch shape (N, d, .., d) with
    ``order`` axes of length d; :func:`partials` reads them back.
    """
    n, d = pts.shape
    batch = (n,) + (d,) * order
    coords = []
    for c in range(d):
        comp = np.zeros((1 << order,) + batch)
        comp[0] = pts[:, c].reshape((n,) + (1,) * order)
        for j in range(order):
            direction = np.zeros(d)
            direction[c] = 1.0
            comp[1 << j] = direction.reshape((1,) * (1 + j) + (d,) + (1,) * (order - 1 - j))
        coords.append(Jet(comp, order))
    return coords


def partials(x, n: int, d: int, order: int, shape: tuple) -> list[np.ndarray]:
    """``[v, d1, .., d_order]`` of a jet computed from :func:`seed` coordinates.

    ``x`` is the jet of an array of value shape ``shape``, seeded to
    ``order`` or more, or what :func:`components` gives for it; only the
    arrays up to ``order`` are built.  ``v`` has shape ``(N, *shape)`` and
    ``d_r`` shape ``(N, d*r, *shape)``, where ``d_r[n, a, .., b]`` is the
    mixed partial along coordinates ``a..b``.
    """
    first = x if isinstance(x, Jet) else x[0]
    seeded = first.comp.shape[0].bit_length() - 1
    # the first r generators, seeded along batch axes 1..r
    sels = [((1 << r) - 1,) + (slice(None),) * (1 + r) + (0,) * (seeded - r) for r in range(order + 1)]
    if not isinstance(x, Jet):
        # each component's rows read, only along the axes they span
        return [_stacked([p.comp[sel] for p in x], shape) for sel in sels]
    comp = np.broadcast_to(x.comp, (1 << seeded, n) + (d,) * seeded + tuple(shape))
    return [np.array(comp[sel]) for sel in sels]


def from_partials(arrays) -> Jet:
    """The order-1 jet whose :func:`partials` are ``arrays``: [v (N, *shape), d1 (N, d, *shape)]."""
    return Jet(np.stack([np.broadcast_to(arrays[0][:, None], arrays[1].shape), arrays[1]]), 1)


def truncate(x, order: int, to: int):
    """The jet ``x`` of ``order`` root generators cut to its first ``to``: a C-contiguous copy.

    ``x`` is a :class:`Jet` (any lifts, any value shape) or a :class:`Held`.
    It keeps the rows without the dropped generators, at the first entry of
    the root axes they lose.  Each kept row is the sum of the same terms in
    the same order as in the jet the same ops give at order ``to``, so where
    the staged product runs at both orders (or k <= 2) it is that jet, bit
    for bit.
    """
    if to == order:
        return x
    drop = (0,) * (order - to)
    if isinstance(x, Held):
        # each row is (lifts, N, root axes..)
        rows = [np.ascontiguousarray(row[(slice(None),) * (2 + to) + drop]) for row in x.rows[:1 << to]]
        for row in rows:
            row.flags.writeable = False
        bad = None
        if x.bad is not None:
            bad = np.logical_or.reduce(
                [~np.isfinite(row).reshape(row.shape[0], row.shape[1], -1).all(axis=(0, 2)) for row in rows]
            )
            bad = bad if bad.any() else None
        return Held(rows, min(x.roots, to), x.width if to else 0, bad)
    comp = x.comp
    lifts, batch = comp.shape[0] >> order, comp.shape[1:]
    # the lift bits are above the root bits; keep the rows whose top order - to root bits are clear
    rows = comp.reshape((lifts, 1 << (order - to), 1 << to) + batch)[:, 0]
    rows = np.ascontiguousarray(rows[(slice(None),) * (3 + to) + drop])
    return Jet(rows.reshape((lifts << to,) + rows.shape[2:]), min(x.roots, to))


def components(parts, shape: tuple):
    """What :func:`partials` reads of a tensor from its components in C order.

    Rows narrower than ``STAGED_MIN_WIDTH`` give the stacked jet: one numpy
    stack takes the fewest calls.  Wider rows give the list of components,
    each row of which :func:`partials` reads only along the axes it spans,
    so no jet of the whole tensor is built.
    """
    if parts[0].comp[0].size < STAGED_MIN_WIDTH:
        return Jet(_stacked([p.comp for p in parts], shape))  # read at once: no root count
    return list(parts)


def stack(parts, shape: tuple) -> Jet:
    """Jet of an array of the given value shape from its components in C order."""
    return Jet(_stacked([p.comp for p in parts], shape), min(p.roots for p in parts))


def _stacked(arrays, shape: tuple) -> np.ndarray:
    stacked = np.stack(arrays, axis=-1)  # raises unless their shapes agree
    return stacked.reshape(stacked.shape[:-1] + tuple(shape))


def widen(x: Jet, kept: int, levels: int) -> Jet:
    """``x`` with exact-zero rows for new generators among its top ones.

    The result has ``levels`` top generators.  Bit l of ``kept`` marks the
    l-th of them (lowest first) as one of ``x``'s own top generators, taken
    in order; every other one is new.  This is, bit for bit, the jet ``x``
    would be had each new generator been appended by ``lift(0.0)`` in its
    place.
    """
    n = kept.bit_count()
    batch = x.comp.shape[1:]
    low = x.comp.shape[0] >> n  # the rows spanned by the generators below the top ones
    out = np.zeros((2,) * levels + (low,) + batch)
    # axis a of the reshaped rows holds generator bit levels - 1 - a of the top ones
    into = tuple(slice(None) if kept >> (levels - 1 - a) & 1 else 0 for a in range(levels))
    out[into] = x.comp.reshape((2,) * n + (low,) + batch)
    return Jet(out.reshape((low << levels,) + batch), min(x.roots, low.bit_length() - 1))


class Held:
    """A scalar jet as it is held for :func:`embed`, from :func:`hold`.

    ``rows[p]`` holds the rows whose root bits are p, one per bitmask of the
    generators above the root ones, each only along the root axes of the
    bits in p and those past its root count ``roots``: along the others it
    repeats.  ``width`` is the number of coordinates it was seeded on, and
    ``bad`` the mask of the points at which a coefficient is not finite, or
    None.
    """

    __slots__ = ("rows", "roots", "width", "bad")

    def __init__(self, rows, roots: int, width: int, bad):
        self.rows, self.roots, self.width, self.bad = rows, roots, width, bad

    @property
    def order(self) -> int:
        """The number of root generators: the order it was seeded to."""
        return len(self.rows).bit_length() - 1


def hold(x: Jet) -> Held:
    """The rows of the scalar jet ``x`` that :func:`embed` reads, copied out of it, read-only."""
    comp = x.comp
    r = comp.ndim - 2  # its root axes
    by_root_bits = comp.reshape((-1, 1 << r) + comp.shape[1:])
    rows = [np.array(by_root_bits[(slice(None),) + view]) for view in _row_views(r, x.roots)]
    for row in rows:
        row.flags.writeable = False  # shared by every jet embed lays out from it
    bad = None
    if not np.isfinite(comp).all():
        bad = ~np.isfinite(comp).reshape(len(comp), len(comp[0]), -1).all(axis=(0, 2))
    return Held(rows, x.roots, comp.shape[-1] if r else 0, bad)


def _embed_views(r: int, roots: int, b: int):
    # per root bits p: where the rows of p go in the (lifts, 2^r, N, dim, ..)
    # layout: the leading b entries along the root axes of the bits in p and
    # those the root count does not claim, every entry along the others
    key = (r, roots, b)
    if key not in _EMBED_VIEWS:
        _EMBED_VIEWS[key] = [
            (slice(None), p, slice(None))
            + tuple(slice(b) if p >> j & 1 or j >= roots else slice(None) for j in range(r))
            for p in range(1 << r)
        ]
    return _EMBED_VIEWS[key]


def embed(x: Held, dim: int) -> Jet:
    """The jet of a scalar of ``x.width`` leading coordinates, on ``dim`` coordinates.

    A field of the leading coordinates does not vary along the others.  So
    along a root axis that a row varies on, the new coordinates hold exact
    zeros, and along the other root axes the row repeats.  Where that jet
    is finite and its root count claims the repeats, this is, bit for bit
    up to the sign of a zero, the jet that the same ops give on ``dim``
    seeded coordinates; along a root axis it does not claim, the new
    coordinates repeat the first entry.  At a point where ``x`` holds a
    coefficient that is not finite, the new coordinates of the rows that
    vary along them hold NaN: a zero seed times that coefficient can be NaN
    on the wider chart, and a zero there could pass a check that fails.
    """
    rows, b = x.rows, x.width
    r = len(rows).bit_length() - 1
    if not r:  # a jet of values alone
        return Jet(rows[0], x.roots)
    lifts, n = rows[0].shape[:2]
    out = np.zeros((lifts, 1 << r, n) + (dim,) * r)
    for view, row in zip(_embed_views(r, x.roots, b), rows):
        out[view] = row
    for j in range(x.roots, r):  # rows without bit j repeat their first entry along it
        for p in range(1 << r):
            if not p >> j & 1:
                at = (slice(None), p) + (slice(None),) * (1 + j)
                out[at + (slice(b, None),)] = out[at + (slice(1),)]
    if x.bad is not None:
        for p in range(1 << r):
            for j in range(r):
                if p >> j & 1:
                    out[(slice(None), p, x.bad) + (slice(None),) * j + (slice(b, None),)] = np.nan
    return Jet(out.reshape((lifts << r, n) + (dim,) * r), x.roots)


def coefficient(x: Jet, above: int) -> Jet:
    """The coefficient of the generator of ``x`` with ``above`` generators over it.

    A jet of one generator fewer, its rows those of ``x`` with that bit set:
    a view for the top generator (``above`` 0), a copy of them otherwise.
    """
    rows, batch = x.comp.shape[0], x.comp.shape[1:]
    low = rows >> (above + 1)  # the rows spanned by the generators below it
    half = x.comp.reshape((1 << above, 2, low) + batch)[:, 1]
    return Jet(half.reshape((rows >> 1,) + batch), min(x.roots, low.bit_length() - 1))


# ----------------------------------------------------------------------
# jet linear algebra (matrix dims are the trailing axes of comp)
# ----------------------------------------------------------------------

def _convolve(a: Jet, b: Jet, product) -> Jet:
    # out[s] = sum over t in s of product(a[t], b[s ^ t]), by one of the two
    # paths described at STAGED_MIN_WIDTH
    k, roots = a.order, min(a.roots, b.roots)
    if k == 0:
        return Jet(product(a.comp, b.comp), roots)
    if max(a.comp.size, b.comp.size) >> k >= STAGED_MIN_WIDTH:
        return Jet(_staged_convolve(a, b, product, k), roots)
    ia, ib, scatter = _mul_index(k)
    prods = product(a.comp[ia], b.comp[ib])
    out = scatter @ prods.reshape(len(ia), -1)
    return Jet(out.reshape((scatter.shape[0],) + prods.shape[1:]), roots)


def _staged_convolve(a: Jet, b: Jet, product, k: int) -> np.ndarray:
    # each row is the sequential sum over t ascending, starting from t = 0
    out = product(a.comp[0], b.comp)
    out_rows = out.reshape((2,) * k + out.shape[1:], copy=False)  # a view: the adds land in out
    b_rows = b.comp.reshape((2,) * k + b.comp.shape[1:])
    for t, into, take in _stages(k):
        dst = out_rows[into]
        dst += product(a.comp[t], b_rows[take])
    return out


def _jet_matmul(a: Jet, b: Jet) -> Jet:
    return _convolve(a, b, np.matmul)


def jet_solve(a: Jet, b: Jet, singular: str = "raise") -> Jet:
    """Solve ``a @ x = b`` where a is (..., n, n) and b is (..., n).

    The order-zero part is inverted numerically; the nilpotent remainder
    is handled by a terminating Neumann series, so the result is exact.
    Where |det| of the order-zero matrix is not above ``MIN_DET`` (or is
    NaN) it raises DegeneracyError; with ``singular="nan"`` the solution is
    NaN there instead, and every other point keeps its bits.
    """
    from .errors import DegeneracyError

    a0 = a.comp[0]
    dets = np.abs(np.linalg.det(a0))
    bad = ~(dets > MIN_DET)  # negated, so that a NaN determinant is caught too
    if bad.any():
        if singular != "nan":
            raise DegeneracyError(f"singular linear system: min |det| = {float(dets.min()):.3e}")
        a0 = np.where(bad[..., None, None], np.eye(a0.shape[-1]), a0)
    inv0 = np.linalg.inv(a0)
    bj = Jet(b.comp[..., None])
    inv0j = Jet(np.concatenate([inv0[None], np.zeros((a.comp.shape[0] - 1,) + inv0.shape)]))
    nil = np.array(a.comp, copy=True)
    nil[0] = 0.0
    m = _jet_matmul(inv0j, Jet(nil))
    term = _jet_matmul(inv0j, bj)
    x = term
    for _ in range(a.order):
        term = Jet(-_jet_matmul(m, term).comp)
        x = Jet(x.comp + term.comp)
    out = x.comp[..., 0]
    if bad.any():
        out[:, bad] = np.nan
    return Jet(out, min(a.roots, b.roots))


def solve_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The values x of ``a @ x = b``, a of shape (N, n, n) and b (N, n), NaN where a is singular.

    This is :func:`jet_solve` with ``singular="nan"`` on order-zero jets
    of the values: one inverse, then one matmul.
    """
    return jet_solve(Jet(a[None]), Jet(b[None]), singular="nan").comp[0]
