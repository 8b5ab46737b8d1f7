"""Pseudo-Hermitian structures and the Tanaka-Webster connection.

A structure is a contact form theta together with a compatible complex
structure J on H = ker theta (extended by J(T) = 0 along the Reeb field
T).  The Webster connection is realized through the comparison tensor

    nabla_W = nabla_{g_theta} + (1/2)(dtheta . T - theta (x) J - J (x) theta),

which is exact in the transversally symmetric case; the defining axioms
(metricity, prescribed torsion, parallel theta, J-linearity) are demoted
to residual checks.  The Webster-Ricci tensor is kept as its real
representative W with Ric_W = i W, so the Einstein condition reads
W = -(scal_W / m) dtheta and scal_W = -sum_a eps_a W(e_a, J e_a).

A :class:`WebsterSample` evaluates theta, dtheta, J and T as jets, in one
jet batch, and assembles the rest from their arrays: g_theta = L_theta +
theta o theta, D, the horizontal fields X_i = e_i - theta_i T and J X_i,
and the Reeb field solved from theta.  Each product carries value and
partials by the Leibniz rule, and each sum runs over its terms in the
order of the tensor formula's component trees, so every array equals the
jet data of those trees bit for bit, up to the sign of a zero.
"""

from __future__ import annotations

import copy
import functools
import operator
from functools import cached_property

import numpy as np

from . import jets
from .chart import (
    Chart,
    Endomorphism,
    GenericTensorField,
    OneForm,
    PullbackJets,
    SymmetricTwoTensor,
    TensorField,
    VectorField,
    contract,
    exterior_derivative,
    jet_data_named,
)
from .errors import DegeneracyError, PreconditionError
from .metric import (
    CurvatureTensor,
    covariant_from_arrays,
    curvature_from_arrays,
    curvature_from_connection,
    killing_residual,
    levi_civita_arrays,
    pivoted_frame,
    point_max,
)

TSPH_TOL = 1e-8


# ----------------------------------------------------------------------
# Reeb field: joint jet evaluator solving the defining linear system
# ----------------------------------------------------------------------

class ReebField(VectorField):
    """Unique solution of theta(T) = 1, T . dtheta = 0 at every point.

    The system matrix B_jk = theta_j theta_k - (dtheta)_jk is invertible
    exactly when theta is contact; T = B^{-1} theta is solved in jet
    arithmetic so T stays exactly differentiable.  Where theta is not
    contact the solve raises DegeneracyError.
    """

    def __init__(self, theta: OneForm, dtheta):
        TensorField.__init__(self, theta.chart)
        self.theta = theta
        self.dtheta = dtheta
        th = theta.components
        bmat = np.multiply.outer(th, th) - dtheta.components
        self.op, self.operands = _solve, (GenericTensorField(self.chart, bmat, (-1, -1)), theta)
        # each component indexes the one jointly solved jet
        self.shape = th.shape
        self.components = np.empty(self.shape, dtype=object)
        for i in range(len(th)):
            self.components[i] = self.chart.node(operator.getitem, (self,), (i,))

    def _like(self, components):
        # algebra on the solved field yields a plain vector field
        return VectorField(self.chart, components)


def _solve(bmat, theta):
    try:
        return jets.jet_solve(bmat, theta)
    except DegeneracyError as err:
        raise DegeneracyError(f"contact condition violated: {err}") from err


# ----------------------------------------------------------------------
# the structure
# ----------------------------------------------------------------------

class PHStructure:
    """Contact form plus compatible complex structure on a (2m+1)-chart.

    ``dtheta`` is d(theta) and ``reeb`` the Reeb field of theta, both as
    :func:`make_structure` builds them.
    """

    def __init__(
        self, chart: Chart, theta: OneForm, dtheta, reeb: VectorField, j_endo: Endomorphism,
        m: int, levi_signature,
    ):
        if chart.dim != 2 * m + 1:
            raise ValueError("chart dimension must be 2m + 1")
        self.chart = chart
        self.theta = theta
        self.dtheta = dtheta
        self.reeb = reeb
        self.J = j_endo
        self.m = int(m)
        self.levi_signature = tuple(levi_signature)

    @cached_property
    def levi_form(self) -> SymmetricTwoTensor:
        """L(X, Y) = dtheta(X, J Y), a full symmetric component matrix."""
        return SymmetricTwoTensor(self.chart, contract(self.dtheta.components, self.J.components))

    def sample_fields(self, connection: bool = True) -> dict:
        """The fields a :class:`WebsterSample` evaluates as jets, by name, each with its read order.

        theta, dtheta and J at order 2 with ``connection`` (the order g_theta
        is read at), else 1, and T at order 1.  The sample assembles g_theta,
        D, the X_i, J X_i and the solved Reeb field from their arrays.
        """
        order = 2 if connection else 1
        return {"theta": (self.theta, order), "dtheta": (self.dtheta, order), "J": (self.J, order),
                "reeb": (self.reeb, 1)}


def _bracket(x, y) -> np.ndarray:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k from order-1 ``jet_data`` of X and Y.

    Summed in the order of :func:`crgeo.chart.lie_bracket`, so it equals the
    bracket field evaluated at the same points.
    """
    (xv, dx), (yv, dy) = x, y
    total = xv[:, 0, None] * dy[:, 0] - yv[:, 0, None] * dx[:, 0]
    for i in range(1, xv.shape[1]):
        total = total + xv[:, i, None] * dy[:, i]
        total = total - yv[:, i, None] * dx[:, i]
    return total


def make_structure(
    chart: Chart,
    theta: OneForm,
    base_j: np.ndarray,
    m: int,
    levi_signature,
    reeb_hint: VectorField | None = None,
) -> PHStructure:
    """Assemble a structure with J lifted from a constant base complex structure.

    ``reeb_hint`` supplies a closed-form Reeb field for gauges where it is
    known (keeping the expression trees shallow); it must satisfy the
    defining equations, which stay enforced as residual checks, and the
    generic linear-system solver remains available as
    ``ReebField(ph.theta, ph.dtheta)``.
    """
    dtheta = exterior_derivative(theta)
    reeb = reeb_hint if reeb_hint is not None else ReebField(theta, dtheta)
    # J X = W - theta(W) T with W = jmat X, the base J on the leading coordinates
    jmat = np.zeros((chart.dim, chart.dim))
    jmat[: len(base_j), : len(base_j)] = base_j
    theta_j = contract(theta.components, jmat)
    j_endo = Endomorphism(chart, jmat - np.multiply.outer(reeb.components, theta_j))
    return PHStructure(chart, theta, dtheta, reeb, j_endo, m, levi_signature)


# ----------------------------------------------------------------------
# fields assembled from held jet data
# ----------------------------------------------------------------------
#
# Jet data [v, d1, d2] (order <= 2) is laid out as jet_data gives it, the
# point axis first and the value axes last: v[n, ..], d1[n, a, ..],
# d2[n, a, b, ..].  A product carries the rows of the jet engine's product
# of two jets seeded on one generator per derivative order, summed as it
# sums them (t ascending): a0 b0; a0 b1 + a1 b0; a0 b3 + a1 b2 + a2 b1 +
# a3 b0, where rows 1 and 2 are the first partials along a and along b and
# row 3 the second partial d2[a, b].  For two generators both of the
# engine's product paths sum in that order, and a two-term sum is the same
# either way, so each array keeps the bits of the tree whose left operands
# these are.

def _at(x, index):
    """The jet data ``x`` at ``index`` of its value axes (an index of the value array)."""
    return [a[(slice(None),) * (1 + r) + index] for r, a in enumerate(x)]


def _mul(a, b):
    """a * b by the Leibniz rule, each row summed as described above; the value axes of ``a``
    and ``b`` broadcast, and each derivative axis is inserted after the point axis."""
    out = [a[0] * b[0]]
    if len(a) > 1:
        d1 = a[0][:, None] * b[1]
        d1 += a[1] * b[0][:, None]
        out.append(d1)
    if len(a) > 2:
        d2 = a[0][:, None, None] * b[2]
        term = np.multiply(a[1][:, :, None], b[1][:, None])
        d2 += term
        d2 += np.multiply(a[1][:, None], b[1][:, :, None], out=term)
        d2 += np.multiply(a[2], b[0][:, None, None], out=term)
        out.append(d2)
    return out


def _metric_jets(ph: PHStructure, theta, dtheta, jmat):
    """The values of L, the jet data of g_theta = L + theta o theta, and that of (theta, L), from
    theta, dtheta and J, each to their order.

    L_ij = sum_k dtheta_ik J_kj over k ascending, as :func:`contract` sums it, without the
    terms that fold to the constant 0 in its tree: every term of a k where each dtheta_ik is
    the constant 0, and where J_kj is the constant 0; a constant J_kj scales dtheta_ik.  Then
    (theta o theta)_ij = (theta_i theta_j + theta_j theta_i) / 2.
    """
    every = slice(None)
    sym = _mul(_at(theta, (every, None)), _at(theta, (None,)))
    levi = [np.zeros(x.shape) for x in sym]
    for k, (column, row) in enumerate(zip(ph.dtheta.components.T, ph.J.components)):
        if all(c.value == 0.0 for c in column):
            continue
        if all(c.value is not None for c in row):
            for col, c in enumerate(row):
                if c.value != 0.0:
                    for x, y in zip(levi, _at(dtheta, (every, k))):
                        x[..., col] += y * c.value
        else:
            for x, y in zip(levi, _mul(_at(dtheta, (every, k, None)), _at(jmat, (k, None)))):  # [i, j] = dtheta_ik J_kj
                x += y
    g = [x + (y + y.swapaxes(-2, -1)) * 0.5 for x, y in zip(levi, sym)]
    return levi[0], g, (theta, levi)


def _comparison_jets(th, dth, t, j):
    """Jet data of D^k_ij = ((dtheta_ij T^k - theta_i J^k_j) - theta_j J^k_i) / 2 from that of
    theta, dtheta, T and J, to order 1."""
    every = slice(None)
    tj = _mul(_at(th, (None, every, None)), _at(j, (every, None)))  # [k, i, j] = theta_i J^k_j
    d = _mul(_at(dth, (None,)), _at(t, (every, None, None)))
    for x, y in zip(d, tj):
        x -= y
        x -= y.swapaxes(-2, -1)  # theta_j J^k_i
        x *= 0.5
    return d


def _horizontal_jets(th, t, j):
    """Jet data of each X_i = e_i - theta_i T, then of each J X_i = sum_k J_.k X_i^k (k ascending),
    from that of theta, T and J, to order 1."""
    every = slice(None)
    prod = _mul(_at(th, (every, None)), _at(t, (None,)))  # [i, k] = theta_i T^k
    d = prod[0].shape[-1]
    x = [np.eye(d) - prod[0], -prod[1]]
    jx = _mul(_at(j, (None, every, 0)), _at(x, (every, None, 0)))
    for k in range(1, d):
        for y, z in zip(jx, _mul(_at(j, (None, every, k)), _at(x, (every, None, k)))):
            y += z
    # the jet data of the vector field of row i, as jet_data gives it
    return tuple([[y[0][:, i], y[1][:, :, i]] for i in range(d)] for y in (x, jx))


def _reeb_system(tval, dtval):
    """The Reeb system matrix B_jk = theta_j theta_k - dtheta_jk of :class:`ReebField` from values."""
    return tval[:, :, None] * tval[:, None, :] - dtval


# ----------------------------------------------------------------------
# the Webster sample
# ----------------------------------------------------------------------

def _read_only(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    else:
        if isinstance(value, dict):
            items = value.values()
        else:
            items = value if isinstance(value, (tuple, list)) else vars(value).values()
        for item in items:
            _read_only(item)
    return value


def _member(compute):
    """A :class:`WebsterSample` member: evaluated on first use, then shared read-only."""
    return cached_property(functools.wraps(compute)(lambda self: _read_only(compute(self))))


class WebsterSample:
    """A structure's fields, Webster connection, curvature and Levi frame at one point batch.

    Its caller holds it while residuals read it, so each member is evaluated
    once per batch and every residual reading it shares the same arrays.
    The fields of :meth:`PHStructure.sample_fields` (theta, dtheta, J and
    T) come as jets, to their orders, from one :func:`jet_data_multi` call
    (:attr:`batch`), which also reads the ``extra`` fields (``{name:
    (field, order)}``, :meth:`extra_jets`) and those of each structure in
    ``siblings``, whose samples at these points are ``self.siblings``.  The
    rest is assembled from those arrays (see the module docstring): g_theta
    in the batch, to the order of theta, with the values of its first term
    L (:attr:`levi_form`), after which theta, dtheta and J keep their first
    partials alone; D in :attr:`comparison`, the X_i and J X_i in
    :attr:`horizontal` and the solved Reeb field in :attr:`solved_reeb`.
    Each other quantity is formed once, from these: the projector P and J P,
    whose columns are the X_i and the J X_i, dtheta on H from P, and the
    Reeb components of the Levi-Civita Ricci from :attr:`lc_curvature`.  The
    contact and bracket fields need no transversal symmetry; the members
    built on D (:attr:`comparison` and those reading it) do, and the first
    of them read checks it at these points.  With ``connection`` False only
    theta, dtheta, J, T and g_theta to order 1 are read; with ``fefferman``
    theta and L to order 2 too, for :meth:`fefferman_inputs`.  Pulled-back
    operands come from ``held``, the :class:`PullbackJets` of the sample
    these points belong to; by default it holds its own.
    """

    def __init__(self, ph: PHStructure, pts, held: PullbackJets | None = None, extra=None, siblings=(),
                 connection: bool = True, fefferman: bool = False):
        self.ph = ph
        self.pts = ph.chart.points(pts)
        self.held = PullbackJets(ph.chart, self.pts) if held is None else held
        self.fefferman = fefferman
        self.structures = (ph, *siblings)
        self.requests = {
            (s, name): read for s in self.structures for name, read in s.sample_fields(connection).items()
        }
        self.requests.update(((None, name), read) for name, read in (extra or {}).items())
        self.data = {}  # filled by the first read of a batch, here or in a sibling
        self.siblings = {}
        for other in siblings:
            sibling = self.siblings[other] = copy.copy(self)  # the same requests and data
            sibling.ph, sibling.siblings = other, {}

    @_member
    def batch(self):
        """Jet data of every field, by (structure, or None for ``extra``, name), and of each
        structure's g_theta (name ``metric``), with the values of its Levi form (``levi_form``)."""
        if not self.data:
            data = jet_data_named(self.requests, self.pts, self.held)
            for s in self.structures:
                contact = {name: data[s, name] for name in ("theta", "dtheta", "J")}
                data[s, "levi_form"], data[s, "metric"], operands = _metric_jets(s, *contact.values())
                if self.fefferman and s is self.structures[0]:
                    data[s, "fefferman"] = operands
                for name, jet in contact.items():
                    data[s, name] = jet[:2]  # no other reader needs their second partials
            self.data.update(data)
        return self.data

    def fefferman_inputs(self) -> dict:
        """What a Fefferman sample is assembled from and its records read of this sample, by name,
        so that the sample itself can go once it is taken: the order-2 jet data of theta and L
        (``theta``, ``levi``), the batch's own arrays, held by a sample made with ``fefferman`` for
        this one read, which releases them; the jet data of T (``reeb``) and of the extra field
        ``h``; in ``webster`` the values of Gamma_W (``gamma_w``), the R_W operator (``rup_w``),
        W (``w``), dtheta and J; and the structure (``ph``) and points (``pts``) they belong to."""
        if (self.ph, "fefferman") not in self.batch:
            raise ValueError("theta and L are held for one read, by a sample made with fefferman=True")
        webster = {"gamma_w": self.webster_symbols[0], "rup_w": self.curvature[0], "w": self.ricci[0],
                   "dtheta": self.jets("dtheta")[0], "J": self.jets("J")[0]}
        theta, levi = self.batch.pop((self.ph, "fefferman"))
        return {"ph": self.ph, "pts": self.pts, "theta": theta, "levi": levi, "reeb": self.jets("reeb"),
                "h": self.extra_jets("h"), "webster": webster}

    def jets(self, name):
        """The jet data of the structure's field ``name``: theta, dtheta, J and T to order 1,
        g_theta (``metric``) to order 2, or 1 without ``connection``."""
        return self.batch[self.ph, name]

    def extra_jets(self, name):
        """The jet data of the ``extra`` field ``name``."""
        return self.batch[None, name]

    @_member
    def comparison(self):
        """Jet data ``[D, dD]``, past the transversal-symmetry gate at these points.

        PreconditionError if the gate fails.
        """
        res = transversal_symmetry_residual(self).max()
        if not res <= TSPH_TOL:  # negated, so that a NaN residual fails too
            raise PreconditionError(
                f"structure is not transversally symmetric: residual {res:.3e} > {TSPH_TOL:g}"
            )
        return _comparison_jets(*(self.jets(name) for name in ("theta", "dtheta", "reeb", "J")))

    @_member
    def horizontal(self):
        """(X, JX): the order-1 jet data of each X_i = e_i - theta(e_i) T, then of each J X_i."""
        return _horizontal_jets(*(self.jets(name) for name in ("theta", "reeb", "J")))

    @_member
    def solved_reeb(self):
        """The Reeb field solved from theta (:class:`ReebField`), NaN where theta is not contact,
        so that the other fields still evaluate there."""
        tval = self.jets("theta")[0]
        return jets.solve_values(_reeb_system(tval, self.jets("dtheta")[0]), tval)

    @_member
    def projector(self):
        """P[n, i, j] = delta_ij - T^i theta_j, projection onto H along T: the values of the
        X_j of :attr:`horizontal` as its columns."""
        return np.stack([x[0] for x in self.horizontal[0]], axis=-1)

    @_member
    def jprojector(self):
        """J P: the values of the J X_j of :attr:`horizontal` as its columns."""
        return np.stack([jx[0] for jx in self.horizontal[1]], axis=-1)

    @_member
    def dtheta_h(self):
        """dtheta on H: dtheta(X_a, X_b) = (P^T dtheta P)[n, a, b]."""
        return np.einsum("nia,nij,njb->nab", self.projector, self.jets("dtheta")[0], self.projector)

    @_member
    def levi_civita(self):
        """(Gamma, dGamma, g^-1) of g_theta."""
        return levi_civita_arrays(*self.jets("metric"))

    @_member
    def webster_symbols(self):
        """(Gamma_W, dGamma_W): the Levi-Civita symbols plus D, with their first partials."""
        gamma, dgamma, _ = self.levi_civita
        dval, dgrad = self.comparison
        return gamma + dval, dgamma + dgrad

    @property
    def levi_form(self):
        """The values of L = dtheta J, summed in :attr:`batch` as g_theta's first term."""
        return self.batch[self.ph, "levi_form"]

    @_member
    def levi_frame(self):
        """The :func:`levi_adapted_frame` (frame, eps) at these points, from held values."""
        return _levi_frame(self.levi_form, self.projector, self.jets("J")[0], self.ph.m)

    @_member
    def curvature(self):
        """(R_W operator, R_W (4,0) tensor) of nabla_W, as :func:`curvature_from_connection`."""
        return curvature_from_connection(*self.webster_symbols, self.jets("metric")[0])

    @_member
    def ricci(self):
        """(W, scal_W): Webster Ricci representative (Ric_W = i W) and scalar.

        Both traces run over the (e_a, J e_a) Levi frame, through its bivector
        sum_a eps_a e_a (x) J e_a.
        """
        frame, eps = self.levi_frame
        m = self.ph.m
        e, je = frame[:, :m, :], frame[:, m:, :]
        bivector = np.einsum("nak,nal->nkl", eps[:, :, None] * e, je)
        w = np.einsum("nijkl,nkl->nij", self.curvature[1], bivector)
        return w, -np.einsum("nij,nij->n", bivector, w)

    @_member
    def lc_curvature(self) -> CurvatureTensor:
        """Levi-Civita curvature of g_theta."""
        return curvature_from_arrays(*self.levi_civita)

    @_member
    def reeb_ricci(self):
        """(Ric_g(T, .), Ric_g(T, T), g(T, T)) of g_theta's Levi-Civita Ricci and the Reeb field T."""
        reeb, ricci, gval = self.jets("reeb")[0], self.lc_curvature.ricci, self.jets("metric")[0]
        ric_tt, g_tt = (np.einsum("ni,nj,nij->n", reeb, reeb, a) for a in (ricci, gval))
        return np.einsum("ni,nij->nj", reeb, ricci), ric_tt, g_tt


# ----------------------------------------------------------------------
# structural residuals (per sample point)
# ----------------------------------------------------------------------

def structure_residuals(ws: WebsterSample) -> dict[str, np.ndarray]:
    """Contact determinant, J^2, Levi symmetry, CR integrability, the Reeb
    equations and transversal symmetry of ``ws.ph``, from the sample's batch.

    The solved Reeb field, compared with ``ph.reeb``, is read from it too.
    """
    tval, dtval, jval = (ws.jets(name)[0] for name in ("theta", "dtheta", "J"))
    reeb_jets = ws.jets("reeb")
    reeb = reeb_jets[0]
    j2 = np.einsum("nij,njk->nik", jval, jval)
    levi = ws.levi_form
    return {
        "contact_nondegenerate": contact_determinant(ws),
        "complex_structure": point_max(j2 + ws.projector, np.einsum("nij,nj->ni", jval, reeb)),
        "levi_symmetric": point_max(levi - levi.transpose(0, 2, 1)),
        "cr_integrability": integrability_residual(ws),
        "reeb_defining": point_max(
            np.einsum("ni,ni->n", tval, reeb) - 1.0, np.einsum("ni,nij->nj", reeb, dtval)
        ),
        "reeb_linear_solve": point_max(ws.solved_reeb - reeb),
        "tsph_bracket": transversal_symmetry_residual(ws),
        "tsph_killing": killing_residual(*ws.jets("metric")[:2], *reeb_jets),
    }


def contact_determinant(ws: WebsterSample) -> np.ndarray:
    """|det(theta_j theta_k - dtheta_jk)| per point: nonzero exactly where theta is contact."""
    return np.abs(np.linalg.det(_reeb_system(ws.jets("theta")[0], ws.jets("dtheta")[0])))


def integrability_residual(ws: WebsterSample) -> np.ndarray:
    """Nijenhuis residual J([JX,Y]+[X,JY]) - [JX,JY] + [X,Y] over H pairs."""
    d = ws.ph.chart.dim
    x, jx = ws.horizontal
    tval, jval = ws.jets("theta")[0], ws.jets("J")[0]
    terms = []
    for i in range(d):
        for j in range(i + 1, d):
            b1 = _bracket(jx[i], x[j]) + _bracket(x[i], jx[j])
            expr = (
                np.einsum("nab,nb->na", jval, b1)
                - _bracket(jx[i], jx[j])
                + _bracket(x[i], x[j])
            )
            terms += [expr, np.einsum("na,na->n", tval, b1)]
    return point_max(*terms)


def transversal_symmetry_residual(ws: WebsterSample) -> np.ndarray:
    """Per-point max over an H-frame of |[T,X] + J[T,JX]| / |X|_g."""
    jval, t, gval = ws.jets("J")[0], ws.jets("reeb"), ws.jets("metric")[0]
    terms = []
    for x, jx in zip(*ws.horizontal):
        expr = _bracket(t, x) + np.einsum("nab,nb->na", jval, _bracket(t, jx))
        norm = np.sqrt(np.abs(np.einsum("nij,ni,nj->n", gval, x[0], x[0])))
        terms.append(np.abs(expr).max(axis=1) / np.maximum(norm, 1e-12))
    return np.max(terms, axis=0)


def axiom_residuals(ws: WebsterSample) -> dict[str, np.ndarray]:
    """Per-point residuals of the defining Tanaka-Webster axioms on H.

    Tor(T, X) = 0 is the transversal-symmetry residual.
    """
    gamma_w = ws.webster_symbols[0]
    gval, dg, _ = ws.jets("metric")
    metricity = (
        dg
        - np.einsum("nmai,nmj->naij", gamma_w, gval)
        - np.einsum("nmaj,nim->naij", gamma_w, gval)
    )

    (tval, dtv), (jval, dj) = ws.jets("theta"), ws.jets("J")
    reeb = ws.jets("reeb")[0]
    parallel_theta = dtv - np.einsum("nmai,nm->nai", gamma_w, tval)
    nabla_j = (
        dj
        + np.einsum("nkam,nmi->naki", gamma_w, jval)
        - np.einsum("nmai,nkm->naki", gamma_w, jval)
    )

    # torsion axiom on H: Tor(X, Y) = L(JX, Y) T for X, Y in H
    proj = ws.projector
    tor = gamma_w - np.einsum("nkji->nkij", gamma_w)
    tor_h = np.einsum("nia,nkib->nkab", proj, np.einsum("nkij,njb->nkib", tor, proj))
    dth_h = ws.dtheta_h
    levi_jh = np.einsum("nka,nkl,nlb->nab", ws.jprojector, ws.levi_form, proj)
    return {
        "webster_metricity": point_max(metricity),
        "webster_parallel_theta": point_max(parallel_theta),
        "webster_parallel_j": point_max(nabla_j),
        "webster_torsion_h": point_max(
            tor_h - np.einsum("nab,nk->nkab", dth_h, reeb), dth_h - levi_jh
        ),
    }


# ----------------------------------------------------------------------
# Levi-adapted frames and Webster curvature
# ----------------------------------------------------------------------

def levi_adapted_frame(ph: PHStructure, pts):
    """Pointwise L-orthonormal frame of H paired as (e_a, J e_a): the
    ``levi_frame`` of a :class:`WebsterSample` at ``pts``.

    frame[n] rows are (e_1 .. e_m, J e_1 .. J e_m); eps[n, a] is the sign
    g_theta(e_a, e_a).  The candidates are the projections of the
    coordinate vectors onto H; pivots are on the largest |L(v, v)|.
    """
    return WebsterSample(ph, pts, connection=False).levi_frame


def _levi_frame(lval, proj, jval, m: int):
    # the frame of levi_adapted_frame from the values of L, the projector onto H and J
    vecs, signs = pivoted_frame(lval, proj.transpose(0, 2, 1), m, partner=jval)
    return np.concatenate([vecs[:, 0::2], vecs[:, 1::2]], axis=1), signs[:, 0::2]


def curvature_symmetry_residual(ws: WebsterSample) -> np.ndarray:
    """R_W antisymmetries, J-symmetry and W antisymmetry, relative to max |R_W|."""
    r = ws.curvature[1]
    w = ws.ricci[0]
    jval = ws.jets("J")[0]
    scale = max(1.0, np.abs(r).max())
    j_sym = np.einsum("nijal,nak->nijkl", r, jval) + np.einsum(
        "nijka,nal->nijkl", r, jval
    )
    return point_max(
        r + r.transpose(0, 2, 1, 3, 4),
        r + r.transpose(0, 1, 2, 4, 3),
        j_sym,
        w + w.transpose(0, 2, 1),
    ) / scale


def ph_einstein_residual(ws: WebsterSample) -> dict:
    """Einstein condition W = -(scal_W / m) dtheta with scal_W the sample mean.

    Per point: the Einstein residual and the deviation of scal_W from its
    mean; ``scal_mean`` is the sample statistic.
    """
    w, scal = ws.ricci
    res = w + (scal.mean() / ws.ph.m) * ws.jets("dtheta")[0]
    return {
        "webster_einstein": point_max(res),
        "webster_scal_constant": np.abs(scal - scal.mean()),
        "scal_mean": float(scal.mean()),
    }


def comparison_identities_residual(ws: WebsterSample) -> dict[str, np.ndarray]:
    """Per-point residuals of the Webster vs Levi-Civita curvature comparison.

    (a) five-term comparison formula, (b) cyclic Bianchi sum of the
    Webster curvature operator, (c) pair symmetry, (d) the Ricci relation
    on H, (e) W(T, .) = 0, (f) Ric(T,T) = m/2 and Ric(T, X) = 0,
    (g) R(X, T)T = X/4 on H.
    """
    m = ws.ph.m
    g = ws.jets("metric")[0]
    gamma = ws.levi_civita[0]
    rup_w, r4_w = ws.curvature
    curv_g = ws.lc_curvature
    rup_g = curv_g.operator
    dtheta, ddtheta = ws.jets("dtheta")
    tval, jval, reeb = (ws.jets(name)[0] for name in ("theta", "J", "reeb"))
    eye = np.eye(ws.ph.chart.dim)

    # (a) R_W(X,Y)Z = R_g(X,Y)Z - (1/2)(nabla_Z dtheta)(X,Y) T
    #     - (1/2) dtheta(X,Y) J Z + (1/4) dtheta(Y,Z) J X - (1/4) dtheta(X,Z) J Y
    #     + (1/4) theta(Z) theta(X) Y - (1/4) theta(Z) theta(Y) X
    nabla_dtheta = covariant_from_arrays(dtheta, ddtheta, gamma, (-1, -1))
    rhs = (
        rup_g
        - 0.5 * np.einsum("nkij,nl->nijkl", nabla_dtheta, reeb)
        - 0.5 * np.einsum("nij,nlk->nijkl", dtheta, jval)
        + 0.25 * np.einsum("njk,nli->nijkl", dtheta, jval)
        - 0.25 * np.einsum("nik,nlj->nijkl", dtheta, jval)
        + 0.25 * np.einsum("nk,ni,jl->nijkl", tval, tval, eye)
        - 0.25 * np.einsum("nk,nj,il->nijkl", tval, tval, eye)
    )
    scale = max(1.0, np.abs(rup_w).max())
    res_formula = point_max(rup_w - rhs) / scale

    # (b) cyclic Bianchi sum of the Webster curvature operator
    cyc = rup_w + np.einsum("njkil->nijkl", rup_w) + np.einsum("nkijl->nijkl", rup_w)
    res_bianchi = point_max(cyc) / scale

    # (c) pair symmetry of the (4,0) tensor
    res_pair = point_max(r4_w - r4_w.transpose(0, 3, 4, 1, 2)) / scale

    w = ws.ricci[0]
    ricci_g = curv_g.ricci
    proj = ws.projector

    # (d) Ric_g(X,Y) = -W(X, JY) - (1/2) g(X,Y) on H
    wj = np.einsum("nia,naj->nij", w, jval)
    d_expr = ricci_g + wj + 0.5 * g
    d_h = np.einsum("nia,nij,njb->nab", proj, d_expr, proj)

    # (e) W(T, .) = 0
    w_t = np.einsum("ni,nij->nj", reeb, w)

    # (f) Ric_g(T,T) = (m/2) g(T,T) and Ric_g(T, X) = 0 for X in H
    ric_t, ric_tt, g_tt = ws.reeb_ricci

    # (g) R_g(X, T)T = X/4 for X in H
    rxtt = np.einsum("nijkl,nj,nk->nil", rup_g, reeb, reeb)
    lhs = np.einsum("nia,nil->nal", proj, rxtt)
    rhs_g = 0.25 * np.einsum("nla->nal", proj)

    return {
        "comparison_formula": res_formula,
        "webster_bianchi_cyclic": res_bianchi,
        "webster_pair_symmetry": res_pair,
        "ricci_h_relation": point_max(d_h),
        "webster_ricci_reeb": point_max(w_t),
        "ricci_reeb_tt": np.abs(ric_tt - 0.5 * m * g_tt),
        "ricci_reeb_mixed": point_max(np.einsum("nj,njb->nb", ric_t, proj)),
        "reeb_sectional": point_max(lhs - rhs_g),
    }
