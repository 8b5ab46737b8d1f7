"""Charts, smooth fields, and exterior calculus on open boxes in R^d.

Fields are closed-form compositions of a fixed elementary basis
(polynomials, exp, log, sin, cos, powers, reciprocals) assembled
programmatically from coordinate fields; there is no expression parsing.
All derivative queries run on the nilpotent-jet engine in
:mod:`crgeo.jets` and are exact to machine rounding.  Every object is
immutable after construction and evaluation is pure, so values are
independent of evaluation order and instances can be shared freely.

A scalar field is a node ``(op, operands, constants)``, interned per chart by
that key (constants by their bits), so equal subtrees are one object.
:func:`jet_data_multi` evaluates a field list as one flat op plan per block of
points, freeing each intermediate jet after its last reader.  A partial along
coordinate i reads its operand under one more lift level: a generator seeded
on i.  A context is the stack of lift levels a value is evaluated under, and
a field is evaluated only under the levels whose coordinate is in its ``deps``;
under more levels its jet gains exact-zero rows (:func:`jets.widen`), so a
subtree that cannot depend on i is evaluated once for the field and for its
partial along i.  Levels are kept in ascending coordinate order: a partial
lifts its level among them and reads the coefficient of its own generator
(:func:`jets.coefficient`), so ``f.partial(u).partial(v)`` and
``f.partial(v).partial(u)`` read one evaluation of f and are equal bit for
bit.  A tensor field is read from its component jets
(:func:`jets.components`), so its stack is built only for an op that reads it.

A pull-back (:func:`pullback_scalar`) of a field of a leading chart reads
its operand evaluated on that chart's own coordinate jets, at the chart's
own width, and :func:`jets.embed` lays that jet out on the reading chart.
The operand jets come from a :class:`PullbackJets` batch: a pipeline passes
one per nested sample to every call, so each pulled-back operand is
evaluated once per sample, whichever chart reads it.  Each field of a call
is read at its own order; each (node, context) is evaluated once per block,
at the highest order read, and a lower-order reader takes its
:func:`jets.truncate`.

Scalar expression trees fold when they are built.  A field from
:meth:`Chart.constant` knows its value; an operation on two constants is a
constant; ``f + 0``, ``f - 0`` and ``1 * f`` are ``f``, ``0 * f`` is the
constant 0 and ``0 - f`` is ``-f``; and ``f`` combined with a constant
``c`` by ``+``, ``-``, ``*`` or ``/`` runs on the scalar-jet paths
(``Jet + c``, ``Jet * c``, ``Jet * (1.0 / c)``), not on a jet product.  A
partial along a coordinate outside ``ScalarField.deps`` is the constant 0,
evaluated without lifting a generator.  Only exact zeros are dropped, so
every value and partial keeps the bits of the unfolded tree, up to the sign
of a zero, and a folded zero is exact even where the field it replaces is
NaN or infinite (``log(x) * 0`` is 0 at x < 0).

Tensor fields are assembled from their component arrays by numpy's
element-wise object algebra, which keeps each operation's left operand.
Every sum of components runs through :func:`ordered_sum` or
:func:`contract`, whose order (left to right) the code fixes, not numpy.
"""

from __future__ import annotations

import bisect
import numbers
import operator
import struct

import numpy as np

from . import jets
from .errors import DomainError
from .jets import Jet

# structural ops, which the plan resolves through the evaluation context;
# every other op is a function of the operand jets and the constants
COORD, CONST, PARTIAL, LEAD, OPAQUE = "coord", "const", "partial", "lead", "opaque"

_pack_double = struct.Struct("<d").pack

# numpy's SeedSequence and PCG64 (O'Neill, HMC-CS-2014-0905), so that
# Chart.sample draws np.random.default_rng(seed).random bit for bit
# without loading numpy.random
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _pcg64_seed(seed) -> tuple[int, int]:
    """The PCG64 (state, increment) that ``np.random.default_rng(seed)`` starts from."""
    seed = operator.index(seed)  # a float seed raises TypeError, as in numpy
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    # SeedSequence's pool of four words: hash the leading words in, mix
    # every pair, then fold in the words beyond the fourth
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): eight 32-bit words, paired low word first
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    initstate, initseq = (out[j + 1] << 96 | out[j] << 64 | out[j + 3] << 32 | out[j + 2] for j in (0, 4))
    # pcg_setseq_128_srandom: step from 0, add the initial state, step again
    inc = (initseq << 1 | 1) & _M128
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc


def _pcg64_random(seed, shape) -> np.ndarray:
    """``np.random.default_rng(seed).random(shape)``, bit for bit."""
    state, inc = _pcg64_seed(seed)
    out = np.empty(shape)  # before the first draw, so that an impossible shape fails at once
    flat = out.reshape(-1)
    mult, m64, m128 = _PCG_MULT, _M64, _M128
    for i in range(flat.size):
        state = (state * mult + inc) & m128
        rot = state >> 122
        x = (state >> 64 ^ state) & m64  # XSL-RR: xor the halves, rotate right by the top 6 bits
        flat[i] = (((x >> rot | x << 64 - rot) & m64) >> 11) * 2.0**-53
    return out


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
        self._lo, self._hi = np.array(bounds).T
        self._nodes = {}

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
        inside = ((arr > self._lo) & (arr < self._hi)).all(axis=0)  # a NaN is outside too
        if not inside.all():
            c = int(inside.argmin())  # the first coordinate with a point outside
            raise DomainError(f"coordinate {self.names[c]} outside open interval {self.bounds[c]}")
        return arr

    def sample(self, n: int, seed: int, margin: float = 0.1) -> np.ndarray:
        """Deterministic uniform draws from the margin-shrunk box, one coordinate at a time.

        The draws come from crgeo's own PCG64 stream, equal bit for bit to
        ``np.random.default_rng(seed).random((dim, n))``, for any integer
        seed >= 0 of any size; a negative seed raises ValueError and a
        non-integer one TypeError.  They fill the columns in coordinate
        order, so the samples are nested: a chart built by :meth:`extend`
        samples, for the same ``n``, ``seed`` and ``margin``, its base
        chart's points bit for bit on its leading coordinates.
        """
        if not 0.0 <= margin < 0.5:  # negated, so that a NaN margin is rejected too
            raise ValueError(f"sampling margin must lie in [0, 0.5), got {margin}")
        draws = _pcg64_random(seed, (self.dim, n))
        lo = np.array([a + margin * (b - a) for a, b in self.bounds])
        hi = np.array([b - margin * (b - a) for a, b in self.bounds])
        return np.ascontiguousarray(lo + (hi - lo) * draws.T)

    # -- field constructors ----------------------------------------------
    def node(self, op, operands=(), constants=(), deps=None, value=None) -> "ScalarField":
        """The interned field ``op(*operand jets, *constants)``; None deps is every coordinate."""
        # a float constant by its bits, so that -0.0, 0.0 and NaN are apart
        bits = tuple(_pack_double(c) if isinstance(c, float) else c for c in constants)
        node = self._nodes.get((op, operands, bits))
        if node is None:
            node = self._nodes[op, operands, bits] = object.__new__(ScalarField)
            node.chart, node.op, node.operands, node.constants = self, op, operands, constants
            node.deps = frozenset(range(self.dim)) if deps is None else deps
            node.value = value
        return node

    def coord(self, i) -> "ScalarField":
        if isinstance(i, str):
            i = self.index(i)
        return self.node(COORD, (), (i,), frozenset((i,)))

    def coordinate_fields(self):
        return tuple(self.coord(i) for i in range(self.dim))

    def constant(self, value: float) -> "ScalarField":
        value = float(value)
        return self.node(CONST, (), (value,), frozenset(), value)

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"


# ----------------------------------------------------------------------
# evaluation: one flat op plan per field list
# ----------------------------------------------------------------------

def jet_data(field: "TensorField", pts, order: int, held=None) -> list[np.ndarray]:
    """Value and partial-derivative arrays of a field at a point batch.

    Returns ``[v, d1, .., d_order]`` with ``v`` of shape ``(N, *shape)``
    and ``d_r`` of shape ``(N, d*r, *shape)`` where ``d_r[n, a, .., b]``
    is the mixed partial along coordinates ``a..b``.  ``held`` is as for
    :func:`jet_data_multi`.
    """
    return jet_data_multi([field], pts, order, held)[0]


# Points per block of a plan run.  Intermediate jets grow with the batch, so a
# bound on it bounds the peak memory, and each block reruns the op list.  With
# each jet freed after its last reader, the plan runs of the m=2 128-point
# complex_hyperbolic run peak in one block, at its theorem-2 record, at 10.6 MB
# traced by tracemalloc, under the run's 11.7 MB; its max RSS is about 45 MB.
BLOCK_POINTS = 128


def jet_data_multi(fields, pts, order: int, held=None, reads=None) -> list[list[np.ndarray]]:
    """Like :func:`jet_data` for several fields on one shared jet batch.

    The fields share one op plan, so common sub-expressions (Reeb solves,
    lifted structures, pulled-back components) evaluate once per block of at
    most ``BLOCK_POINTS`` points.  ``reads`` gives each field's read order,
    ``order`` (the highest) by default.  ``held`` is the
    :class:`PullbackJets` of the sample that ``pts`` extends: each
    pulled-back operand is read from it, and evaluated into it if it is not
    there to the order read.  Without it, the call holds the operands it
    reads for itself.
    """
    if not fields:
        raise ValueError("no fields")
    reads = [order] * len(fields) if reads is None else [int(r) for r in reads]
    if len(reads) != len(fields) or min(reads) < 0 or max(reads) != order:
        raise ValueError(f"need one read order per field, each in 0..{order} and one of them {order}")
    chart = fields[0].chart
    pts = chart.points(pts)
    for field in fields:
        if field.chart is not chart:
            raise ValueError("fields live on different charts")
    plan = _Plan(chart, fields, orders=reads)
    if held is not None:
        held.check(plan.leads, pts)
    elif plan.leads:
        held = PullbackJets(chart, pts)  # the call's own
    if len(pts) <= BLOCK_POINTS:
        return plan.run(pts, held, 0)
    blocks = [plan.run(pts[i:i + BLOCK_POINTS], held, i) for i in range(0, len(pts), BLOCK_POINTS)]
    return [[np.concatenate(arrays) for arrays in zip(*per_field)] for per_field in zip(*blocks)]


def jet_data_named(fields: dict, pts, held=None) -> dict:
    """:func:`jet_data_multi` of ``{name: (field, read order)}``, by the same names, on one batch."""
    reads = [order for _, order in fields.values()]
    data = jet_data_multi([field for field, _ in fields.values()], pts, max(reads), held, reads)
    return dict(zip(fields, data))


class PullbackJets:
    """The jets that pull-backs read at one sample, held as long as this is.

    ``pts`` is a sample of ``chart``.  A pull-back from a leading chart of
    ``chart`` (one whose coordinates come first, ``chart`` itself included)
    reads its operand evaluated on that chart's own coordinate jets at the
    leading columns of ``pts``, per block of points, held as
    :func:`jets.hold` keeps it at the highest order evaluated so far; a
    lower-order read takes its :func:`jets.truncate`, and :func:`jets.embed`
    lays it out on the reading chart.  So the calls given this batch
    evaluate each pulled-back operand once unless a later one reads it to a
    higher order; a call whose points do not start with the leading
    columns of ``pts`` is a ValueError.  Only the operands are held: a node
    under one is evaluated again for another operand that a later call
    reads.
    """

    def __init__(self, chart: Chart, pts):
        self.chart = chart
        self.pts = chart.points(pts)
        self.jets = {}  # (chart, block start) -> {(operand, context): jets.Held}

    def check(self, charts, pts: np.ndarray) -> None:
        """ValueError unless each chart leads ``self.chart`` and ``pts`` starts with its points."""
        for chart in charts:
            n = chart.dim
            if (self.chart.names[:n] != chart.names or self.chart.bounds[:n] != chart.bounds
                    or not np.array_equal(self.pts[:, :n], pts[:, :n])):
                raise ValueError(
                    f"the held jets of {chart} are not at the leading columns of these points"
                )

    def read(self, chart: Chart, keys: dict, pts: np.ndarray, start: int) -> list[jets.Held]:
        """The jets of the ``{(operand, context): order}`` keys of ``chart`` at the block ``pts`` from ``start``."""
        table = self.jets.setdefault((chart, start), {})
        missing = {key: order for key, order in keys.items() if key not in table or table[key].order < order}
        if missing:
            plan = _Plan(chart, keys=list(missing), orders=list(missing.values()))
            table.update(zip(missing, plan.run(pts[:, :chart.dim], self, start)))
        return [jets.truncate(table[key], table[key].order, order) for key, order in keys.items()]


def _constant(like, value):
    return Jet.constant(value, like)


def _opaque(*args):
    # the coordinate jets, then the field's function of their list
    return args[-1](list(args[:-1]))


class _Context:
    """A stack of lift levels, interned by ``levels``.

    Level l is one generator, seeded with 1 on coordinate ``levels[l]``, at
    the l-th bit above the root generators; the root context has no level.
    Levels are in ascending coordinate order, so each set of lifts is one
    context, whatever order the partials took.  Each context keeps its lifts
    and its reductions, so every plan shares them.
    """

    __slots__ = ("levels", "lifted", "lifts", "reductions")
    interned: dict = {}

    def __init__(self, levels: tuple):
        self.levels, self.lifted = levels, frozenset(levels)
        self.lifts, self.reductions = {}, {}

    @classmethod
    def of(cls, levels: tuple) -> "_Context":
        ctx = cls.interned.get(levels)
        if ctx is None:
            ctx = cls.interned[levels] = cls(levels)
        return ctx

    def lift(self, i: int) -> tuple["_Context", int]:
        """This context with one more level, on coordinate i, and the number of levels above it.

        The new level goes above the levels on coordinates up to i, below the others.
        """
        lifted = self.lifts.get(i)
        if lifted is None:
            at = bisect.bisect_right(self.levels, i)
            ctx = _Context.of(self.levels[:at] + (i,) + self.levels[at:])
            lifted = self.lifts[i] = ctx, len(self.levels) - at
        return lifted

    def reduce(self, deps: frozenset) -> tuple["_Context", int]:
        """The context of the levels on ``deps``, and the mask of their positions."""
        reduced = self.reductions.get(deps)
        if reduced is None:
            kept = sum(1 << level for level, i in enumerate(self.levels) if i in deps)
            ctx = _Context.of(tuple(i for i in self.levels if i in deps))
            reduced = self.reductions[deps] = ctx, kept
        return reduced


_ROOT = _Context.of(())


class _Plan:
    """The ops evaluating a field list, in dependency order.

    A value is keyed by (field, :class:`_Context`) and evaluated once, at
    the highest order a request needing it is read at: requests are planned
    from the highest order down, and a later reader at a lower order takes a
    :func:`jets.truncate`, run right after the op making the jet.  A partial
    along i reads its operand in its context lifted on i and takes the
    coefficient of that level's generator, the top one unless a level on a
    larger coordinate is above it; levels being sorted, partials taken in
    any order read one value.  A pull-back reads its operand in the same
    levels, all of them on the operand chart's coordinates, as an input of
    the run: the jet of the operand on its own chart, from the
    :class:`PullbackJets` the run is given, which :func:`jets.embed` lays
    out at this chart's width.  Inputs are grouped by operand chart in
    ``leads``, with their orders.  A plan built for ``keys`` evaluates those
    (field, context) pairs of its chart for such a batch and gives their
    held jets (:func:`jets.hold`), each at the order it was evaluated at.  A
    field is evaluated only under the levels whose coordinate is in its
    ``deps``: in any other context its jet is that of the reduced context
    with exact-zero rows for the levels it cannot read (:func:`jets.widen`),
    so every context that reduces to the same one shares one value.  Tensor
    stacks and opaque fields read every coordinate.  The coordinate jets
    seeded to each order used are inputs too (``seeds``).  Op ``(fn, out,
    ins, constants, dead)`` sets slot ``out`` to ``fn(*ins values,
    *constants)``, or with ``fn`` None reads output ``out`` (a field's
    arrays to its read order, or a key's held jet) from slot ``ins[0]``; it
    then frees the slots in ``dead``, whose last reader it is.
    A tensor stack is built only for an op that reads it; a field read of one
    that no op before it has stacked reads :func:`jets.components` instead.
    """

    def __init__(self, chart: Chart, fields=(), keys=(), orders=()):
        self.dim = chart.dim
        self.shapes = [field.shape for field in fields] + [None] * len(keys)
        self.orders = list(orders)  # per field, then per key
        self.size, self.ops = 0, []
        self.slots = {}  # (field, context) -> (slot, order)
        self.truncated = {}  # (slot, order) -> the slot of its truncation
        self.seeds = {}  # order -> the first of the d slots of the coordinates seeded to it
        self.coord_slots = {}
        self.leads = {}  # operand chart -> {(operand, context): (input slot, order)}
        for index in sorted(range(len(self.shapes)), key=lambda i: -self.orders[i]):
            order = self.orders[index]
            if index >= len(fields):  # held at the order evaluated, for later readers
                slot = self.slot(*keys[index - len(fields)], order, exact=False)
            elif fields[index].op is _stack and (fields[index], _ROOT) not in self.slots:
                # no op has stacked the tensor: the read takes its components
                field = fields[index]
                comps = tuple([self.slot(f, _ROOT, order) for f in field.operands])
                slot = self.emit(_components, comps, field.constants)
            else:
                # at its own order, which partials reads down to the field's
                slot = self.slot(fields[index], _ROOT, order, exact=False)
            self.ops.append((None, index, (slot,), ()))
        # each truncation right after the op making its operand (first, for a
        # seeded coordinate): a jet read at a lower order then outlives only its
        # readers at its own order
        ops, cuts = [], {}
        for op in self.ops:
            if op[0] is jets.truncate:
                cuts.setdefault(op[2][0], []).append(op)
            else:
                ops.append(op)
        made = {op[1] for op in ops if op[0] is not None}  # an output read's op[1] is no slot
        self.ops = [cut for s, group in cuts.items() if s not in made for cut in group]
        for op in ops:
            self.ops += [op] + (cuts.get(op[1], []) if op[0] is not None else [])
        last = {s: at for at, op in enumerate(self.ops) for s in op[2]}
        dead = [[] for _ in self.ops]
        for s, at in last.items():
            dead[at].append(s)
        self.ops = [op + (tuple(slots),) for op, slots in zip(self.ops, dead)]

    def run(self, pts: np.ndarray, held: PullbackJets | None, start: int) -> list:
        """Per field, its arrays as :func:`jet_data` gives them; per key, its jet as :func:`jets.hold` keeps it."""
        n, d = pts.shape
        vals = [None] * self.size
        for order, first in self.seeds.items():
            vals[first:first + d] = jets.seed(pts, order)
        for chart, inputs in self.leads.items():
            got = held.read(chart, {key: order for key, (_, order) in inputs.items()}, pts, start)
            for (slot, _), jet in zip(inputs.values(), got):
                vals[slot] = jet
        read = vals.__getitem__
        out = [None] * len(self.shapes)
        for fn, at, ins, constants, dead in self.ops:
            if fn is not None:
                vals[at] = fn(*map(read, ins), *constants)
            elif self.shapes[at] is None:
                out[at] = jets.hold(vals[ins[0]])  # compact at once, so the full jet can go
            else:
                out[at] = jets.partials(vals[ins[0]], n, d, self.orders[at], self.shapes[at])
            for s in dead:
                vals[s] = None
        return out

    def emit(self, fn, ins, constants=()) -> int:
        self.ops.append((fn, self.size, ins, constants))
        self.size += 1
        return self.size - 1

    def coord(self, j: int, depth: int, order: int) -> int:
        """Coordinate j seeded to ``order``, under ``depth`` levels, every one on j."""
        slot = self.coord_slots.get((j, depth, order))
        if slot is None:
            if depth:
                slot = self.emit(Jet.lift, (self.coord(j, depth - 1, order),), (1.0,))
            else:
                if order not in self.seeds:
                    self.seeds[order] = self.size
                    self.size += self.dim
                slot = self.seeds[order] + j
            self.coord_slots[j, depth, order] = slot
        return slot

    def slot(self, field: "TensorField", ctx: _Context, order: int, exact: bool = True) -> int:
        """The slot of ``field`` in ``ctx`` at ``order``; with ``exact`` False, at its own order."""
        key = (field, ctx)
        if key in self.slots:
            slot, evaluated = self.slots[key]
            if evaluated == order or not exact:
                return slot
            # planned from the highest order down: a value evaluated before is at a higher order
            cut = self.truncated.get((slot, order))
            if cut is None:
                cut = self.truncated[slot, order] = self.emit(jets.truncate, (slot,), (evaluated, order))
            return cut
        if ctx is not _ROOT and not ctx.lifted <= field.deps:
            inner, kept = ctx.reduce(field.deps)
            slot = self.emit(jets.widen, (self.slot(field, inner, order),), (kept, len(ctx.levels)))
        else:
            op = field.op
            if op.__class__ is not str:
                ins = tuple([self.slot(f, ctx, order) for f in field.operands])
                slot = self.emit(op, ins, field.constants)
            elif op == PARTIAL:
                lifted, above = ctx.lift(field.constants[0])
                slot = self.emit(jets.coefficient, (self.slot(field.operands[0], lifted, order),), (above,))
            elif op == LEAD:
                # the operand's jet on its own chart, an input of the run
                operand = field.operands[0]
                self.leads.setdefault(operand.chart, {})[operand, ctx] = (self.size, order)
                self.size += 1
                slot = self.emit(jets.embed, (self.size - 1,), (self.dim,))
            elif op == COORD:
                # reduced, every level of the context is on this coordinate
                slot = self.coord(field.constants[0], len(ctx.levels), order)
            elif op == CONST:
                # reduced to the root context: shaped like root coordinate 0
                slot = self.emit(_constant, (self.coord(0, 0, order),), field.constants)
            else:  # OPAQUE
                ins = tuple([self.slot(field.chart.coord(j), ctx, order) for j in range(field.chart.dim)])
                slot = self.emit(_opaque, ins, field.constants)
        self.slots[key] = (slot, order)
        return slot


# ----------------------------------------------------------------------
# fields
# ----------------------------------------------------------------------

class TensorField:
    """Base for fields: the jet ``op(*operand jets, *constants)``, value axes ``shape``."""

    shape: tuple = ()
    operands: tuple = ()
    constants: tuple = ()

    def __init__(self, chart: Chart):
        self.chart = chart
        self.deps = frozenset(range(chart.dim))  # stacks and opaque fields read every coordinate

    def __call__(self, pts) -> np.ndarray:
        return jet_data(self, pts, 0)[0]


class ScalarField(TensorField):
    """Smooth real function on a chart with exact derivative queries.

    Built by :meth:`Chart.node`, or opaque from an ``fn`` mapping the list of
    coordinate jets to a jet.  ``deps`` is the frozenset of coordinate indices
    the field may depend on (every one for an opaque field); ``value`` is the
    float of a constant field and None otherwise.  The arithmetic folds by
    these two, as the module docstring states.
    """

    shape = ()
    variance = ()

    def __init__(self, chart: Chart, fn):
        super().__init__(chart)
        self.op, self.constants, self.value = OPAQUE, (fn,), None

    # -- calculus ---------------------------------------------------------
    def partial(self, i) -> "ScalarField":
        """Exact partial derivative field along coordinate i."""
        if isinstance(i, str):
            i = self.chart.index(i)
        if i not in self.deps:
            return self.chart.constant(0.0)
        return self.chart.node(PARTIAL, (self,), (i,), self.deps)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart is not self.chart:
                raise ValueError("fields live on different charts")
            return other
        if isinstance(other, numbers.Number):
            return self.chart.constant(other)
        return NotImplemented

    def _unop(self, op, *constants) -> "ScalarField":
        return self.chart.node(op, (self,), constants, self.deps)

    def _binop(self, op, other) -> "ScalarField":
        return self.chart.node(op, (self, other), (), self.deps | other.deps)

    def _times(self, c: float) -> "ScalarField":
        # self * c for a constant c, on the scalar-jet path
        if c == 0.0:
            return self.chart.constant(0.0)
        if c == 1.0:
            return self
        return self._unop(operator.mul, c)

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
            return self._unop(operator.add, b)
        if a is not None:
            return other._unop(operator.add, a)
        return self._binop(operator.add, other)

    __radd__ = __add__

    def __neg__(self):
        if self.value is not None:
            return self.chart.constant(-self.value)
        return self._unop(operator.neg)

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
            return self._unop(operator.sub, b)
        if a is not None:
            return other._unop(_rsub, a)
        return self._binop(operator.sub, other)

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
        return self._binop(operator.mul, other)

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
            return other._unop(_rdiv, a)
        return self._binop(operator.truediv, other)

    def __rtruediv__(self, other):
        return self.chart.constant(other) / self

    def __pow__(self, n):
        return self._unop(operator.pow, n)


def _rsub(x, c):
    return c - x


def _rdiv(x, c):
    return c / x


# elementary compositions ------------------------------------------------

def _unary(name):
    # looked up when a field is built, so that a wrapped jets function is the op
    def wrapper(f: ScalarField) -> ScalarField:
        return f._unop(getattr(jets, name))

    return wrapper


exp = _unary("exp")
log = _unary("log")
sin = _unary("sin")
cos = _unary("cos")
sqrt = _unary("sqrt")


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
            c = given[idx]
            comps[idx] = c if isinstance(c, ScalarField) else chart.constant(float(c))
        self.components = comps
        self.shape = given.shape
        self.op, self.operands, self.constants = _stack, tuple(comps.flat), (self.shape,)

    def _like(self, components):
        """A field of this kind with new components (the constructor hook)."""
        return type(self)(self.chart, components)

    def __add__(self, other):
        return self._like(self.components + other.components)

    def __sub__(self, other):
        return self._like(self.components - other.components)

    def scaled(self, f):
        return self._like(self.components * f)


def _stack(*args):
    # the component jets in C order, then the value shape
    return jets.stack(args[:-1], args[-1])


def _components(*args):
    # as for _stack
    return jets.components(args[:-1], args[-1])


class VectorField(_ComponentStack):
    rank = 1
    variance = (1,)


class OneForm(_ComponentStack):
    rank = 1
    variance = (-1,)


class _Matrix(_ComponentStack):
    rank = 2
    variance = (-1, -1)


class TwoForm(_Matrix):
    """Antisymmetric component matrix b_ij = b(e_i, e_j)."""


class SymmetricTwoTensor(_Matrix):
    """Symmetric component matrix s_ij = s(e_i, e_j)."""


class Endomorphism(_Matrix):
    """(1,1)-tensor with components J^i_j (output index first)."""

    variance = (1, -1)


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


# ----------------------------------------------------------------------
# transport between a base chart and an extended (fiber) chart
# ----------------------------------------------------------------------

def pullback_scalar(total: Chart, f: ScalarField) -> ScalarField:
    """View a base-chart function on a chart extending it (fiber-constant).

    The base coordinates are the leading coordinates of ``total``.
    """
    n = f.chart.dim
    if total.names[:n] != f.chart.names or total.bounds[:n] != f.chart.bounds:
        raise ValueError(f"{total} does not extend {f.chart}")
    if f.value is not None:
        return total.constant(f.value)
    return total.node(LEAD, (f,), (), f.deps)


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

