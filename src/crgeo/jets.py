"""Nilpotent jet arithmetic: the exact-derivative engine.

A :class:`Jet` is an element of ``R[e_1..e_k]/(e_i^2 = 0)`` whose
coefficients are ndarrays, indexed by the bitmask of generators present.
Seeding generators on coordinate directions and reading the coefficient
of ``e_1*...*e_k`` yields exact mixed partial derivatives (to machine
rounding) of any composition of the operations defined here; there is no
truncation error.  Batches live in the trailing axes of ``comp``.

This module alone knows the coefficient layout: :func:`seed` builds
coordinate jets, :func:`partials` reads value and derivative arrays back,
and :func:`stack` assembles the jet of a tensor from its components.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "Jet", "exp", "log", "sin", "cos", "sqrt", "powf",
    "seed", "partials", "stack", "outer", "jet_solve",
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
# 64-point blocks at m = 1 (width 576) stayed on the slow matmul.
STAGED_MIN_WIDTH = 512

_MUL_INDEX: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_STAGES: dict[int, list[tuple[int, tuple, tuple]]] = {}


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


class Jet:
    """Truncated polynomial in k nilpotent generators.

    ``comp`` has shape ``(2**k, *batch)``; ``comp[m]`` is the coefficient
    of the product of the generators in bitmask ``m``.
    """

    __slots__ = ("comp",)

    def __init__(self, comp: np.ndarray):
        self.comp = comp

    # ------------------------------------------------------------------
    @staticmethod
    def constant(value, like: "Jet") -> "Jet":
        comp = np.zeros(like.comp.shape)
        comp[0] = value
        return Jet(comp)

    @property
    def order(self) -> int:
        return int(self.comp.shape[0]).bit_length() - 1

    @property
    def value(self) -> np.ndarray:
        return self.comp[0]

    def __getitem__(self, idx) -> "Jet":
        # index into the trailing (value) axes, keeping the generator axis
        return Jet(self.comp[(slice(None), Ellipsis) + (idx if isinstance(idx, tuple) else (idx,))])

    # -- lifting one generator (used for derivative fields) ------------
    def lift(self, seed) -> "Jet":
        """Append a fresh generator with coefficient ``seed`` on this variable."""
        rows = self.comp.shape[0]
        out = np.zeros((2 * rows,) + self.comp.shape[1:])
        out[:rows] = self.comp
        out[rows] = seed
        return Jet(out)

    def upper(self) -> "Jet":
        """Coefficient of the top generator (itself a jet one order lower)."""
        rows = self.comp.shape[0] // 2
        return Jet(self.comp[rows:])

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.comp + other.comp)
        out = np.array(self.comp, copy=True)
        out[0] = out[0] + other
        return Jet(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.comp)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.comp - other.comp)
        out = np.array(self.comp, copy=True)
        out[0] = out[0] - other
        return Jet(out)

    def __rsub__(self, other):
        out = -self.comp
        out[0] = other + out[0]
        return Jet(out)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return _convolve(self, other, np.multiply)
        return Jet(self.comp * other)

    __rmul__ = __mul__

    def __matmul__(self, matrix: np.ndarray) -> "Jet":
        """Product with a constant (a, b) matrix over the last value axis."""
        return Jet(np.einsum("...a,ab->...b", self.comp, matrix))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.comp / other)

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
        """Compose with g given ``derivs[j] = g^(j)(value)`` for j = 0..k."""
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

    def _reciprocal(self) -> "Jet":
        v = self.comp[0]
        k = self.order
        derivs = [1.0 / v]
        for j in range(1, k + 1):
            derivs.append(derivs[-1] * (-j) / v)
        return self.apply(derivs)

    def __repr__(self):
        return f"Jet(order={self.order}, batch={self.comp.shape[1:]})"


# ----------------------------------------------------------------------
# elementary functions usable on floats, ndarrays and jets
# ----------------------------------------------------------------------

def exp(x):
    if isinstance(x, Jet):
        e = np.exp(x.value)
        return x.apply([e] * (x.order + 1))
    return np.exp(x)


def log(x):
    if isinstance(x, Jet):
        v = x.value
        derivs = [np.log(v)]
        for j in range(1, x.order + 1):
            derivs.append((-1.0) ** (j - 1) * math.factorial(j - 1) / v**j)
        return x.apply(derivs)
    return np.log(x)


def sin(x):
    if isinstance(x, Jet):
        s, c = np.sin(x.value), np.cos(x.value)
        cycle = [s, c, -s, -c]
        return x.apply([cycle[j % 4] for j in range(x.order + 1)])
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet):
        s, c = np.sin(x.value), np.cos(x.value)
        cycle = [c, -s, -c, s]
        return x.apply([cycle[j % 4] for j in range(x.order + 1)])
    return np.cos(x)


def powf(x, a: float):
    """Real power x**a for positive base."""
    if isinstance(x, Jet):
        v = x.value
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
        coords.append(Jet(comp))
    return coords


def partials(x: Jet, n: int, d: int, order: int, shape: tuple) -> list[np.ndarray]:
    """``[v, d1, .., d_order]`` of a jet computed from :func:`seed` coordinates.

    ``v`` has shape ``(N, *shape)`` and ``d_r`` shape ``(N, d*r, *shape)``,
    where ``d_r[n, a, .., b]`` is the mixed partial along coordinates ``a..b``.
    """
    comp = np.broadcast_to(x.comp, (1 << order, n) + (d,) * order + tuple(shape))
    out = []
    for r in range(order + 1):
        # the first r generators, seeded along batch axes 1..r
        sel = ((1 << r) - 1,) + (slice(None),) * (1 + r) + (0,) * (order - r)
        out.append(np.array(comp[sel]))
    return out


def stack(parts: list[Jet], shape: tuple) -> Jet:
    """Jet of an array of the given value shape from its components in C order."""
    batch = np.broadcast_shapes(*(p.comp.shape for p in parts))
    stacked = np.stack([np.broadcast_to(p.comp, batch) for p in parts], axis=-1)
    return Jet(stacked.reshape(batch + tuple(shape)))


# ----------------------------------------------------------------------
# jet linear algebra (matrix dims are the trailing axes of comp)
# ----------------------------------------------------------------------

def _convolve(a: Jet, b: Jet, product) -> Jet:
    # out[s] = sum over t in s of product(a[t], b[s ^ t]), by one of the two
    # paths described at STAGED_MIN_WIDTH
    k = a.order
    if k == 0:
        return Jet(product(a.comp, b.comp))
    if max(a.comp.size, b.comp.size) >> k >= STAGED_MIN_WIDTH:
        return _staged_convolve(a, b, product, k)
    ia, ib, scatter = _mul_index(k)
    prods = product(a.comp[ia], b.comp[ib])
    out = scatter @ prods.reshape(len(ia), -1)
    return Jet(out.reshape((scatter.shape[0],) + prods.shape[1:]))


def _staged_convolve(a: Jet, b: Jet, product, k: int) -> Jet:
    # each row is the sequential sum over t ascending, starting from t = 0
    out = product(a.comp[0], b.comp)
    out_rows = out.reshape((2,) * k + out.shape[1:], copy=False)  # a view: the adds land in out
    b_rows = b.comp.reshape((2,) * k + b.comp.shape[1:])
    for t, into, take in _stages(k):
        dst = out_rows[into]
        dst += product(a.comp[t], b_rows[take])
    return Jet(out)


def _outer_arrays(x, y):
    return x[..., :, None] * y[..., None, :]


def _jet_matmul(a: Jet, b: Jet) -> Jet:
    return _convolve(a, b, np.matmul)


def outer(a: Jet, b: Jet) -> Jet:
    """Outer product over the last value axis of two vector-valued jets."""
    return _convolve(a, b, _outer_arrays)


def jet_solve(a: Jet, b: Jet) -> Jet:
    """Solve ``a @ x = b`` where a is (..., n, n) and b is (..., n).

    The order-zero part is inverted numerically; the nilpotent remainder
    is handled by a terminating Neumann series, so the result is exact.
    """
    from .errors import DegeneracyError

    a0 = a.comp[0]
    det = float(np.abs(np.linalg.det(a0)).min())
    if not det > MIN_DET:  # negated, so that a NaN determinant is rejected too
        raise DegeneracyError(f"singular linear system: min |det| = {det:.3e}")
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
    return Jet(x.comp[..., 0])
