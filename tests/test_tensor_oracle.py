"""The staged tensor chain against the multi-operand formulas it replaced.

Each reference below is the earlier form of one contraction: d Gamma
through the partials of g^-1, Ricci by lowering the curvature operator
and raising it again, and the Fefferman identities and covariant table
one frame vector (or pair) at a time with multi-operand einsums.  The
package's arrays must equal them to rtol 1e-12, with an absolute floor
of 1e-12 times the largest entry for entries that vanish.

The Fefferman sample, which the package assembles from the Webster
sample's arrays, is checked against the trees it replaced: f, e^{2 phi} f
and phi, the adapted frame as the horizontal lifts of the base's unitary
frame (:func:`base_unitary_frame`, :func:`horizontal_lift`), and the
forms, evaluated in one jet call.
"""

import numpy as np
import pytest

from crgeo.chart import (
    Endomorphism,
    OneForm,
    VectorField,
    _ComponentStack,
    contract,
    jet_data,
    jet_data_multi,
    jet_data_named,
    ordered_sum,
    pullback_oneform,
    pullback_scalar,
    pullback_symmetric,
    sqrt as field_sqrt,
)
from crgeo.constructions import (
    _frame_curvature,
    _frame_families,
    _frame_nabla,
    _pair_values,
    _zero_along_s,
    fefferman_ricci_residual,
)
from crgeo.metric import (
    curvature_from_arrays,
    curvature_row,
    inverse_metric,
    levi_civita_arrays,
    levi_civita_ricci,
    point_max,
)
from crgeo.pseudohermitian import WebsterSample
from crgeo.verify import Pipeline
from conftest import rescale_trees

REGULAR = [(example, m) for example in ("flat", "fubini_study", "complex_hyperbolic") for m in (1, 2)]
# the non-Einstein control has a base and a contact structure, but no Fefferman metric
CASES = REGULAR + [("sphere_x_flat", 2)]


def extend_vector(total, x):
    """The vector field x on a chart that extends its chart, zero along the new coordinates."""
    zeros = [total.constant(0.0)] * (total.dim - x.chart.dim)
    return VectorField(total, [pullback_scalar(total, c) for c in x.components] + zeros)


def base_unitary_frame(ke):
    """Smooth h-orthonormal frame fields paired as (e_1..e_m, J e_1..J e_m), as trees.

    Fixed-order Gram-Schmidt on the coordinate vectors d/dx_(2a); valid for
    the positive-definite catalog bases, where J e is unit and orthogonal.
    """
    chart, jmat = ke.chart, Endomorphism(ke.chart, ke.complex_structure).components

    def h(x, y):  # sum_ij h_ij X^i Y^j over (i, j) in row-major order
        return ordered_sum((ke.metric.components * x.components[:, None] * y.components).flat)

    es, js = [], []
    for a in range(ke.m):
        v = VectorField(chart, [chart.constant(1.0 if k == 2 * a else 0.0) for k in range(chart.dim)])
        for u in es + js:
            v = v - u.scaled(h(v, u))
        v = v.scaled(1.0 / field_sqrt(h(v, v)))
        es.append(v)
        js.append(VectorField(chart, contract(jmat, v.components)))
    return es + js


def horizontal_lift(ac, x_base):
    """theta-horizontal lift X* = X-hat - theta(X-hat) T to the contact chart, as a tree."""
    xhat = extend_vector(ac.chart, x_base)
    return xhat - ac.ph.reeb.scaled(ordered_sum(ac.ph.theta.components * xhat.components))


def fefferman_trees(fc):
    """{name: (tree, order)} of every array of ``Pipeline.f_sample``: the trees that one jet
    call evaluated before the package assembled them from the Webster sample."""
    ac, chart, m, scal_w, sw = fc.ac, fc.chart, fc.m, fc.scal_w, fc.sw
    phi, rescaled = rescale_trees(fc)
    theta = pullback_oneform(chart, ac.ph.theta)
    ds = OneForm(chart, [chart.constant(float(k == chart.dim - 1)) for k in range(chart.dim)])
    a_w = (ds + theta.scaled(2.0 * scal_w / (m * (m + 2)))).scaled(0.5 * (m + 2))
    a_theta = a_w - theta.scaled(scal_w / (2.0 * (m + 1)))
    p_field = VectorField(chart, ds.components)
    t_star = extend_vector(chart, ac.ph.reeb) - p_field.scaled(sw)
    frame = [p_field, t_star]
    frame += [extend_vector(chart, horizontal_lift(ac, x)) for x in base_unitary_frame(ac.base)]
    return {
        "phi": (phi, 2),
        "f": (fc.metric, 2),
        "rescaled": (rescaled, 2),
        "frame": (_ComponentStack(chart, [x.components for x in frame]), 1),
        "vertical": (t_star - p_field.scaled(sw), 1),
        "theta": (theta, 1),
        "a_theta": (a_theta, 1),
        "b": (a_theta - theta.scaled(0.5 * (m + 2) * sw), 1),
        "a_w": (a_w, 1),
        "h": (pullback_symmetric(chart, ac.base.metric), 1),
    }


def assert_close(new, ref, name=""):
    scale = max(1.0, float(np.abs(ref).max()))
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


def reference_dgamma(g, dg, d2g):
    """d_a Gamma^k_ij = (1/2) (d_a g^kl C_lij + g^kl d_a C_lij), d_a g^-1 = -g^-1 d_a g g^-1."""
    ginv = inverse_metric(g)
    c = np.einsum("nijl->nlij", dg) + np.einsum("njil->nlij", dg) - dg
    dginv = -np.einsum("nkm,namp,npl->nakl", ginv, dg, ginv)
    dc = np.einsum("naijl->nalij", d2g) + np.einsum("najil->nalij", d2g) - d2g
    return 0.5 * (np.einsum("nakl,nlij->nakij", dginv, c) + np.einsum("nkl,nalij->nakij", ginv, dc))


def reference_ricci(g, rup, ginv):
    """Ricci by lowering the operator to the (4,0) tensor and raising one slot again."""
    r4 = np.einsum("nijkm,nml->nijkl", rup, g)
    return r4, np.einsum("nab,najkb->njk", ginv, r4)


def metric_jets(pipe):
    """(name, [g, dg, d2g]) of every metric the pipeline builds a curvature from."""
    yield "h", jet_data(pipe.ke.metric, pipe.m_pts[:, : 2 * pipe.m], 2)
    yield "g_theta", pipe.webster_sample.jets("metric")
    if pipe.entry.negative:
        return
    yield "f", pipe.f_sample["f"]
    for i, jets in enumerate(pipe.t2_jets):
        yield f"explicit[{i}]", jets


@pytest.fixture(scope="module", params=CASES, ids=[f"{e}-m{m}" for e, m in CASES])
def pipe(request):
    example, m = request.param
    return Pipeline(example, m, points=5, seed=11)


@pytest.fixture(scope="module", params=REGULAR, ids=[f"{e}-m{m}" for e, m in REGULAR])
def fefferman_pipe(request):
    example, m = request.param
    return Pipeline(example, m, points=5, seed=11)


def test_christoffel_partials_and_ricci_match_the_lowered_route(pipe):
    for name, (g, dg, d2g) in metric_jets(pipe):
        gamma, dgamma, ginv = levi_civita_arrays(g, dg, d2g)
        assert_close(dgamma, reference_dgamma(g, dg, d2g), name)
        curv = curvature_from_arrays(gamma, dgamma, ginv)
        _, ricci = reference_ricci(g, curv.operator, ginv)
        assert_close(curv.ricci, ricci, name)
        assert_close(curv.scalar, np.einsum("njk,njk->n", ginv, ricci), name)


def test_closed_form_ricci_matches_the_operator_trace(pipe):
    for name, jets in metric_jets(pipe):
        gamma, dgamma, ginv = levi_civita_arrays(*jets)
        curv = curvature_from_arrays(gamma, dgamma, ginv)
        ricci, scalar = levi_civita_ricci(jets, gamma, ginv)
        assert_close(ricci, curv.ricci, name)
        assert_close(scalar, curv.scalar, name)


def test_curvature_row_matches_the_lowered_operator(pipe):
    # the Sasaki product row is 0.0 at every point on either route, so its
    # record cannot tell a wrong row formula; every row of f and g_theta can
    for name, jets in metric_jets(pipe):
        if name not in ("f", "g_theta"):
            continue
        gamma, dgamma, ginv = levi_civita_arrays(*jets)
        r4, _ = reference_ricci(jets[0], curvature_from_arrays(gamma, dgamma, ginv).operator, ginv)
        for i in range(r4.shape[1]):
            assert_close(curvature_row(jets, gamma, i), r4[:, i], f"{name} row {i}")


def frame_vectors(fields):
    """(values, first partials) of each vector of the frame stack (P, T*, e_1*, ..),
    the partials as (N, a, k) with ``[n, a, k] = d_a V^k``."""
    vals, grads = fields["frame"]
    return [(vals[:, q], grads[:, :, q]) for q in range(vals.shape[1])]


def reference_families(fc, pts, f_jets, fields):
    """The Ricci components, curvature identities and covariant table vector by
    vector, each family stacked in the layout of ``_frame_families``."""
    m, sw, pts_m = fc.m, fc.sw, pts[:, :-1]
    fval, df, d2f = f_jets
    gamma_f, dgamma_f, finv = levi_civita_arrays(fval, df, d2f)
    curv = curvature_from_arrays(gamma_f, dgamma_f, finv)
    rup, ric = curv.operator, curv.ricci
    (pval, dp), (tsval, dts), *e_data = frame_vectors(fields)
    e_vals = [d[0] for d in e_data]
    # the contact frame: the frame rows without the s entry and the s-partial
    me_data = [(v[:, :-1], g[:, :-1, :-1]) for v, g in e_data]
    e_m_vals = [d[0] for d in me_data]
    ws = WebsterSample(fc.ac.ph, pts_m)
    gamma_w, rup_w = ws.webster_symbols[0], ws.curvature[0]
    dtheta_m, jval_m = ws.jets("dtheta")[0], ws.jets("J")[0]
    k = len(e_vals)

    def nabla(gamma, a_vals, b_vals, b_grads):
        return np.einsum("na,nak->nk", a_vals, b_grads + np.einsum("nkab,nb->nak", gamma, b_vals))

    def stack(arrays, shape=None):
        out = np.stack(arrays, axis=1)
        return out if shape is None else out.reshape(out.shape[:1] + shape + out.shape[2:])

    def dth(i, j):
        return np.einsum("nij,ni,nj->n", dtheta_m, e_m_vals[i], e_m_vals[j])[:, None]

    je_lift = [_zero_along_s(np.einsum("nab,nb->na", jval_m, em)) for em in e_m_vals]
    tppart = tsval + sw * pval
    components = [
        np.einsum("nij,ni,nj->n", ric, pval, pval) - 0.5 * m,
        np.einsum("nij,ni,nj->n", ric, tsval, pval) - 0.5 * m * sw,
        np.einsum("nij,ni,nj->n", ric, tsval, tsval) - 0.5 * m * sw**2,
        stack([np.einsum("nij,ni,nj->n", ric, tsval, ev) for ev in e_vals]),
        stack([np.einsum("nij,ni,nj->n", ric, pval, ev) for ev in e_vals]),
    ]
    identities = [
        np.einsum("nijkl,ni,nj->nkl", rup, pval, tsval),
        stack([np.einsum("nijkl,ni,nj,nk->nl", rup, ei, pval, tsval) - 0.25 * sw * ei
               for ei in e_vals]),
        stack([np.einsum("nijkl,ni,nj,nk->nl", rup, tsval, ei, ei) - 0.25 * sw * tppart
               for ei in e_vals]),
        stack([np.einsum("nijkl,ni,nj,nk->nl", rup, pval, ei, ei) - 0.25 * tppart
               for ei in e_vals]),
        stack([
            np.einsum("nijkl,ni,nj,nk->nl", rup, e_vals[i], e_vals[j], e_vals[j])
            - _zero_along_s(np.einsum(
                "nijkl,ni,nj,nk->nl", rup_w, e_m_vals[i], e_m_vals[j], e_m_vals[j]
            ))
            - 1.5 * sw * dth(i, j) * je_lift[j]
            for i in range(k) for j in range(k) if i != j
        ]),
    ]
    table = [
        stack([
            nabla(gamma_f, a_vals, b_vals, b_grads)
            for a_vals in (pval, tsval)
            for b_vals, b_grads in ((pval, dp), (tsval, dts))
        ], (2, 2)),
        stack([nabla(gamma_f, pval, *e_data[i]) - 0.5 * je_lift[i] for i in range(k)]),
        stack([nabla(gamma_f, e_vals[i], pval, dp) - 0.5 * je_lift[i] for i in range(k)]),
        stack([nabla(gamma_f, tsval, *e_data[i]) - 0.5 * sw * je_lift[i] for i in range(k)]),
        stack([nabla(gamma_f, e_vals[i], tsval, dts) - 0.5 * sw * je_lift[i] for i in range(k)]),
        stack([
            nabla(gamma_f, e_vals[i], *e_data[j])
            - _zero_along_s(nabla(gamma_w, e_m_vals[i], *me_data[j]))
            + 0.5 * dth(i, j) * tsval + 0.5 * sw * dth(i, j) * pval
            for i in range(k) for j in range(k)
        ], (k, k)),
    ]
    return components, identities, table


@pytest.fixture(scope="module")
def frame_data(fefferman_pipe):
    """The Fefferman frame stack and its inputs, as ``fefferman_ricci_residual`` builds them."""
    pipe = fefferman_pipe
    fc = pipe.fc
    pts = fc.chart.points(pipe.f_pts)
    frame, frame_grads = pipe.f_sample["frame"]
    frame_grads = frame_grads.swapaxes(1, 2)
    fval, df, d2f = pipe.f_sample["f"]
    gamma, dgamma, finv = levi_civita_arrays(fval, df, d2f)
    curv = curvature_from_arrays(gamma, dgamma, finv)
    return pts, frame, frame_grads, gamma, curv


def test_frame_contractions_match_the_vector_by_vector_einsums(frame_data):
    _, vals, grads, gamma, curv = frame_data
    r_pq, r_pqq = _frame_curvature(curv.operator, vals)
    nab = _frame_nabla(gamma, vals, grads)
    pairs = _pair_values(curv.ricci, vals)
    for p in range(vals.shape[1]):
        for q in range(vals.shape[1]):
            a, b = vals[:, p], vals[:, q]
            assert_close(r_pq[:, p, q], np.einsum("nijkl,ni,nj->nkl", curv.operator, a, b))
            assert_close(r_pqq[:, p, q], np.einsum("nijkl,ni,nj,nk->nl", curv.operator, a, b, b))
            assert_close(nab[:, p, q], np.einsum(
                "na,nak->nk", a, grads[:, q] + np.einsum("nkab,nb->nak", gamma, b)
            ))
            assert_close(pairs[:, p, q], np.einsum("nij,ni,nj->n", curv.ricci, a, b))


def test_fefferman_families_match_the_vector_by_vector_assembly(fefferman_pipe, frame_data):
    pipe = fefferman_pipe
    pts, frame, frame_grads, gamma, curv = frame_data
    fc = pipe.fc
    new = _frame_families(fc.m, fc.sw, curv, gamma, frame, frame_grads, pipe.f_sample["webster"])
    ref = reference_families(fc, pts, pipe.f_sample["f"], pipe.f_sample)
    for new_family, ref_family in zip(new, ref, strict=True):
        assert len(new_family) == len(ref_family)
        for a, b in zip(new_family, ref_family):
            assert a.shape == b.shape
            assert_close(a, b)
    # and the record reduces exactly these families
    rec = fefferman_ricci_residual(fc, pipe.f_metric, pipe.f_sample)
    names = ("fefferman_ricci_components", "fefferman_curvature_identities",
             "fefferman_covariant_table")
    for name, family in zip(names, new):
        assert np.array_equal(rec[name], point_max(*family))


def test_frame_rows_without_s_are_the_contact_frame(fefferman_pipe):
    # _frame_families reads e_i at the contact points from the Fefferman frame
    # stack; the contact frame evaluated on the contact chart must agree
    pipe = fefferman_pipe
    fc = pipe.fc
    contact = [horizontal_lift(fc.ac, x) for x in base_unitary_frame(fc.ac.base)]
    direct = jet_data_multi(contact, pipe.f_pts[:, :-1], 1)
    e_data = frame_vectors(pipe.f_sample)[2:]
    assert len(e_data) == len(direct) == 2 * fc.m
    for (val, grad), (val_m, grad_m) in zip(e_data, direct, strict=True):
        np.testing.assert_allclose(val[:, :-1], val_m, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grad[:, :-1, :-1], grad_m, rtol=0, atol=1e-13)
        # zero along s, and independent of s
        assert not val[:, -1].any() and not grad[:, -1].any()


def test_webster_ricci_matches_the_four_operand_trace(pipe):
    ws = pipe.webster_sample
    frame, eps = ws.levi_frame
    m = pipe.m
    e, je = frame[:, :m, :], frame[:, m:, :]
    w = np.einsum("na,nak,nal,nijkl->nij", eps, e, je, ws.curvature[1])
    assert_close(ws.ricci[0], w)
    assert_close(ws.ricci[1], -np.einsum("na,nai,naj,nij->n", eps, e, je, w))


def test_webster_ricci_trace_keeps_the_frame_signs(heisenberg):
    # the catalog's Levi forms are definite (every sign +1), so random curvature
    # and a frame with mixed signs stand in for an indefinite one
    rng = np.random.default_rng(3)
    ws = WebsterSample(heisenberg, heisenberg.chart.sample(4, 1))
    d, m = 3, 1
    frame, r4 = rng.standard_normal((4, 2 * m, d)), rng.standard_normal((4, d, d, d, d))
    eps = np.array([[1.0], [-1.0], [-1.0], [1.0]])
    vars(ws).update(levi_frame=(frame, eps), curvature=(None, r4))
    e, je = frame[:, :m], frame[:, m:]
    w = np.einsum("na,nak,nal,nijkl->nij", eps, e, je, r4)
    assert_close(ws.ricci[0], w)
    assert_close(ws.ricci[1], -np.einsum("na,nai,naj,nij->n", eps, e, je, w))


@pytest.mark.parametrize("n", [1, 2, 129])
@pytest.mark.parametrize("example, m", REGULAR)
def test_the_assembled_fefferman_sample_equals_its_trees(example, m, n):
    # every array equals the jet data of its tree, evaluated at the same points on
    # the pipeline's held batch, up to the sign of a zero (array_equal).  The one
    # exception is the frame's first partials where the order-1 jets of h differ
    # from the first partials of its order-2 jets (at some N <= 5 and in a final
    # point block of one or two points): the frame's tree evaluates h at order 1,
    # the assembly reads the order-2 jets of h that the Webster sample holds.
    # There they agree to 2 ulp of the largest partial (1 ulp at most over seeds
    # 7, 42 and 1234 and N = 1, 2, 3, 5, 129 and 130).
    pipe = Pipeline(example, m, points=n, seed=42)
    got = pipe.f_sample
    trees = fefferman_trees(pipe.fc)
    assert list(got) == [*trees, "webster"]
    # with the values of the Webster sample that the fefferman record reads, as it holds them
    ws = pipe.webster_sample
    assert all(got["webster"][name] is value for name, value in (
        ("gamma_w", ws.webster_symbols[0]), ("rup_w", ws.curvature[0]), ("w", ws.ricci[0]),
        ("dtheta", ws.jets("dtheta")[0]), ("J", ws.jets("J")[0])))
    expected = jet_data_named(trees, pipe.f_pts, pipe.held)
    base_pts = pipe.m_pts[:, : 2 * m]
    h1, h2 = jet_data(pipe.ke.metric, base_pts, 1), jet_data(pipe.ke.metric, base_pts, 2)
    h_agrees = all(np.array_equal(a, b) for a, b in zip(h1, h2))
    # each name holds the orders its readers read: the theta, a_theta and h rows read values alone
    assert {name: len(got[name]) for name in trees} == {
        "f": 3, "rescaled": 3, "phi": 3, "frame": 2, "vertical": 2,
        "theta": 1, "a_theta": 1, "b": 2, "a_w": 2, "h": 1,
    }
    for name, arrays in expected.items():
        for order, (a, b) in enumerate(zip(got[name], arrays)):
            assert a.shape == b.shape, (name, order)
            if name == "frame" and order == 1 and not h_agrees:
                ulp = np.spacing(np.abs(b).max())
                assert np.abs(a - b).max() <= 2 * ulp, (name, order)
            else:
                assert np.array_equal(a, b), (name, order)
