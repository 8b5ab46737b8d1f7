"""Nilpotent jet arithmetic: the exact-derivative engine.

A :class:`Jet` is an element of ``R[e_1..e_k]/(e_i^2 = 0)`` whose
coefficients are ndarrays, indexed by the bitmask of generators present.
Seeding generators on coordinate directions and reading the coefficient
of ``e_1*...*e_k`` yields exact mixed partial derivatives (to machine
rounding) of any composition of the operations defined here; there is no
truncation error.  Batches live in the trailing axes of ``comp``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["Jet", "exp", "log", "sin", "cos", "sqrt", "powf", "jet_solve"]

_MUL_TABLE: dict[int, list[tuple[int, int, int]]] = {}
_MUL_INDEX: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _mul_table(k: int) -> list[tuple[int, int, int]]:
    # disjoint-subset convolution table for R[e_1..e_k]/(e^2)
    if k not in _MUL_TABLE:
        n = 1 << k
        _MUL_TABLE[k] = [(a, b, a | b) for a in range(n) for b in range(n) if a & b == 0]
    return _MUL_TABLE[k]


def _mul_index(k: int):
    # gather indices plus a dense scatter matrix: out = scatter @ (a[ia] * b[ib])
    if k not in _MUL_INDEX:
        pairs = _mul_table(k)
        ia = np.array([p[0] for p in pairs])
        ib = np.array([p[1] for p in pairs])
        isum = np.array([p[2] for p in pairs])
        scatter = np.zeros((1 << k, len(pairs)))
        scatter[isum, np.arange(len(pairs))] = 1.0
        _MUL_INDEX[k] = (ia, ib, scatter)
    return _MUL_INDEX[k]


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
# jet linear algebra (matrix dims are the trailing axes of comp)
# ----------------------------------------------------------------------

def _convolve(a: Jet, b: Jet, product) -> Jet:
    # gather the disjoint coefficient pairs, multiply them with ``product``
    # and scatter-add each pair onto the union of its generators
    k = a.order
    if k == 0:
        return Jet(product(a.comp, b.comp))
    ia, ib, scatter = _mul_index(k)
    prods = product(a.comp[ia], b.comp[ib])
    out = scatter @ prods.reshape(len(ia), -1)
    return Jet(out.reshape((scatter.shape[0],) + prods.shape[1:]))


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _jet_matmul(a: Jet, b: Jet) -> Jet:
    return _convolve(a, b, np.matmul)


def _jet_outer(a: Jet, b: Jet) -> Jet:
    """Outer product over the last value axis of two vector-valued jets."""
    return _convolve(a, b, _outer)


def jet_solve(a: Jet, b: Jet, min_det: float = 1e-10) -> Jet:
    """Solve ``a @ x = b`` where a is (..., n, n) and b is (..., n).

    The order-zero part is inverted numerically; the nilpotent remainder
    is handled by a terminating Neumann series, so the result is exact.
    """
    from .errors import DegeneracyError

    a0 = a.comp[0]
    det = float(np.abs(np.linalg.det(a0)).min())
    if det <= min_det:
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
