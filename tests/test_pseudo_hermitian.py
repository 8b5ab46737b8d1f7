"""Pseudo-Hermitian structures and the Tanaka-Webster connection."""

import numpy as np
import pytest

from crgeo import Chart, Endomorphism, OneForm, VectorField, lie_bracket
from crgeo.errors import DegeneracyError, PreconditionError
from crgeo.metric import point_max
from crgeo.pseudohermitian import (
    ReebField,
    WebsterSample,
    axiom_residuals,
    comparison_identities_residual,
    curvature_symmetry_residual,
    integrability_residual,
    levi_adapted_frame,
    make_structure,
    ph_einstein_residual,
    structure_residuals,
    transversal_symmetry_residual,
)
from crgeo.chart import jet_data_named
from conftest import g_theta, horizontal_fields, j_image, reference_fields, solved_reeb_field

BASE_J = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def pts(heisenberg):
    return heisenberg.chart.sample(16, 42)


# ----------------------------------------------------------------------
# Reeb field
# ----------------------------------------------------------------------

def test_heisenberg_reeb_is_vertical(heisenberg, pts):
    reeb = heisenberg.reeb(pts)
    np.testing.assert_allclose(reeb, np.tile([0.0, 0.0, -1.0], (len(pts), 1)), atol=1e-14)
    assert structure_residuals(WebsterSample(heisenberg, pts))["reeb_defining"].max() < 1e-10
    # algebra on the solved field gives a plain vector field
    assert np.array_equal(heisenberg.reeb.scaled(2.0)(pts), 2.0 * reeb)


def test_scaled_gauge_reeb():
    # theta = -(2m/s)(dt + (s/2m) gamma): the Reeb field is -(s/2m) d_t
    from crgeo.constructions import anticanonical_structure, make_kahler_einstein

    ke = make_kahler_einstein("fubini_study", 1)  # scal_h = 2, m = 1
    ac = anticanonical_structure(ke)
    p = ac.chart.sample(8, 42)
    reeb = ac.ph.reeb(p)
    np.testing.assert_allclose(reeb[:, -1], -1.0, atol=1e-14)  # -s/2m = -1
    np.testing.assert_allclose(reeb[:, :-1], 0.0, atol=1e-14)
    # the generic linear solve agrees with the closed-form gauge field
    solved = ReebField(ac.ph.theta, ac.ph.dtheta)
    assert np.abs(solved(p) - reeb).max() < 1e-10


def test_non_contact_form_rejected():
    chart = Chart(["x", "y", "t"], [(-1.0, 1.0)] * 3)
    theta = OneForm(chart, [chart.constant(0.0)] * 2 + [chart.constant(1.0)])  # dt, dtheta = 0
    reeb = ReebField(theta, __import__("crgeo.chart", fromlist=["exterior_derivative"]).exterior_derivative(theta))
    with pytest.raises(DegeneracyError):
        reeb(chart.sample(4, 42))


# ----------------------------------------------------------------------
# structure residuals and the induced metric
# ----------------------------------------------------------------------

def test_lifted_complex_structure_algebra(heisenberg, pts):
    # algebra on the lifted J gives a plain endomorphism
    jval = heisenberg.J(pts)
    for doubled in (heisenberg.J.scaled(2.0), heisenberg.J + heisenberg.J):
        assert type(doubled) is Endomorphism
        assert np.array_equal(doubled(pts), 2.0 * jval)


def test_field_listed_before_its_reader_in_one_batch(heisenberg, pts):
    # one batch drops each field's own jet once read back; a later field
    # built on it (J X reads the lifted J, which reads the solved Reeb field)
    # still gets the arrays it gets alone
    from crgeo.chart import jet_data, jet_data_multi

    assert isinstance(heisenberg.reeb, ReebField)
    x = horizontal_fields(heisenberg)[0]
    fields = [heisenberg.reeb, heisenberg.J, x, j_image(heisenberg, x)]
    for field, arrays in zip(fields, jet_data_multi(fields, pts, 2)):
        assert all(np.array_equal(a, b) for a, b in zip(arrays, jet_data(field, pts, 2)))


def test_heisenberg_structure_residuals(heisenberg, pts):
    res = structure_residuals(WebsterSample(heisenberg, pts))
    assert res["contact_nondegenerate"].min() > 1e-10
    assert res["complex_structure"].max() < 1e-10
    assert res["levi_symmetric"].max() < 1e-10
    assert res["cr_integrability"].max() < 1e-8


def test_g_theta_decomposition(heisenberg, pts):
    g = g_theta(heisenberg)
    gval = g(pts)
    reeb = heisenberg.reeb(pts)
    # g(T, T) = 1
    np.testing.assert_allclose(np.einsum("nij,ni,nj->n", gval, reeb, reeb), 1.0, atol=1e-12)
    # g restricted to H equals the Levi form
    lval = heisenberg.levi_form(pts)
    proj = WebsterSample(heisenberg, pts).projector
    gh = np.einsum("nia,nij,njb->nab", proj, gval, proj)
    lh = np.einsum("nia,nij,njb->nab", proj, lval, proj)
    np.testing.assert_allclose(gh, lh, atol=1e-12)
    g.verify_signature(pts)  # (3, 0): strictly pseudoconvex


def test_levi_frame_normalization(heisenberg, pts):
    frame, eps = levi_adapted_frame(heisenberg, pts)
    lval = heisenberg.levi_form(pts)
    gram = np.einsum("nai,nij,nbj->nab", frame, lval, frame)
    expected = np.stack([np.diag([e, e]) for e in eps[:, 0]])
    np.testing.assert_allclose(gram, expected, atol=1e-10)
    assert (eps == 1.0).all()


# ----------------------------------------------------------------------
# transversal symmetry
# ----------------------------------------------------------------------

def test_heisenberg_tsph(heisenberg, pts):
    from crgeo.chart import jet_data
    from crgeo.metric import killing_residual

    assert transversal_symmetry_residual(WebsterSample(heisenberg, pts)).max() < 1e-12
    g_jets, reeb_jets = jet_data(g_theta(heisenberg), pts, 1), jet_data(heisenberg.reeb, pts, 1)
    assert killing_residual(*g_jets, *reeb_jets).max() < 1e-12


def reference_integrability(ph, pts):
    """Nijenhuis residual with every bracket a ``lie_bracket`` field on its own jet batch."""
    fields = horizontal_fields(ph)
    jf = [j_image(ph, x) for x in fields]
    jval, tval = ph.J(pts), ph.theta(pts)
    terms = []
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            x, y, jx, jy = fields[i], fields[j], jf[i], jf[j]
            b1 = lie_bracket(jx, y)(pts) + lie_bracket(x, jy)(pts)
            expr = (
                np.einsum("nab,nb->na", jval, b1)
                - lie_bracket(jx, jy)(pts)
                + lie_bracket(x, y)(pts)
            )
            terms += [expr, np.einsum("na,na->n", tval, b1)]
    return point_max(*terms)


def reference_tsph(ph, pts):
    """max over X_i of |[T,X] + J[T,JX]| / |X|_g with ``lie_bracket`` fields."""
    jval, gval = ph.J(pts), g_theta(ph)(pts)
    terms = []
    for x in horizontal_fields(ph):
        expr = lie_bracket(ph.reeb, x)(pts) + np.einsum(
            "nab,nb->na", jval, lie_bracket(ph.reeb, j_image(ph, x))(pts)
        )
        norm = np.sqrt(np.abs(np.einsum("nij,ni,nj->n", gval, x(pts), x(pts))))
        terms.append(np.abs(expr).max(axis=1) / np.maximum(norm, 1e-12))
    return np.max(terms, axis=0)


def oracle_structures(heisenberg, pipeline):
    from crgeo.constructions import perturbed_structure

    yield "heisenberg", heisenberg, heisenberg.chart.sample(8, 42)
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        for m in (1, 2):
            pipe = pipeline(kind, m)
            yield f"{kind} m={m}", pipe.ac.ph, pipe.m_pts[:8]
    pipe = pipeline("flat", 1)
    yield "perturbed", perturbed_structure(pipe.ac), pipe.m_pts[:8]


def test_batched_brackets_match_the_bracket_fields(heisenberg, pipeline):
    # the residuals take every bracket from one order-1 jet batch
    for label, ph, pts in oracle_structures(heisenberg, pipeline):
        ws = WebsterSample(ph, pts)
        for new, ref in [
            (integrability_residual(ws), reference_integrability(ph, pts)),
            (transversal_symmetry_residual(ws), reference_tsph(ph, pts)),
        ]:
            np.testing.assert_allclose(new, ref, rtol=1e-14, atol=1e-14, err_msg=label)
        if label == "perturbed":
            # an order-one residual, so the comparison above is not vacuous
            assert transversal_symmetry_residual(ws).min() > 1e-3


def test_theorem_structures_are_tsph(pipeline):
    for kind in ("flat", "fubini_study", "complex_hyperbolic"):
        pipe = pipeline(kind, 1)
        res = transversal_symmetry_residual(WebsterSample(pipe.ac.ph, pipe.m_pts))
        assert res.max() < 1e-10


def test_perturbed_structure_fails_tsph(pipeline):
    pipe = pipeline("perturbed_non_tsph", 1)
    assert pipe.negative_record["non_tsph_detected"] > 1e-3
    assert pipe.negative_record["control_still_contact"].min() > 1e-10


def test_structure_residuals_need_no_transversal_symmetry(pipeline):
    # a sample's contact and bracket members skip the transversal-symmetry
    # gate, so a structure failing it still reports every structure row;
    # the members built on D run the gate
    from crgeo.constructions import perturbed_structure
    from crgeo.verify import CHECKS

    pipe = pipeline("flat", 1)
    ws = WebsterSample(perturbed_structure(pipe.ac), pipe.m_pts)
    res = structure_residuals(ws)
    assert set(res) == {c.name for c in CHECKS if c.record == "structure"}
    assert all(np.isfinite(per_point).all() for per_point in res.values())
    assert res["tsph_bracket"].min() > 1e-3
    with pytest.raises(PreconditionError):
        ws.comparison


def test_nan_structure_fails_the_transversal_symmetry_gate(pipeline):
    # log(x1 - 2) is NaN on the whole chart; a comparison `res > tol` would
    # let the NaN residual pass and fail later with no frame pivot
    from crgeo.chart import log

    pipe = pipeline("flat", 1)
    ac = pipe.ac
    comps = list(ac.ph.theta.components)
    comps[0] = comps[0] + log(ac.chart.coord(0) - 2.0) * 1e-3
    ph = make_structure(ac.chart, OneForm(ac.chart, comps), ac.base.complex_structure, 1,
                        ac.ph.levi_signature, reeb_hint=ac.ph.reeb)
    ws = WebsterSample(ph, pipe.m_pts)
    with np.errstate(invalid="ignore"):
        assert np.isnan(transversal_symmetry_residual(ws)).all()
        with pytest.raises(PreconditionError, match="residual nan"):
            ws.comparison


# ----------------------------------------------------------------------
# Webster connection and curvature
# ----------------------------------------------------------------------

def test_heisenberg_webster_axioms(heisenberg, pts):
    ws = WebsterSample(heisenberg, pts)
    res = axiom_residuals(ws)
    assert max(v.max() for v in res.values()) < 1e-12


def test_heisenberg_horizontal_frames_parallel(heisenberg, pts):
    # flat model: the Webster derivative of the projected frames vanishes
    from crgeo.chart import jet_data
    from crgeo.metric import covariant_from_arrays

    gamma_w = WebsterSample(heisenberg, pts).webster_symbols[0]
    for field in horizontal_fields(heisenberg)[:2]:
        nabla = covariant_from_arrays(*jet_data(field, pts, 1), gamma_w, field.variance)
        assert np.abs(nabla).max() < 1e-12


def test_heisenberg_webster_flat(heisenberg, pts):
    ws = WebsterSample(heisenberg, pts)
    assert np.abs(ws.curvature[1]).max() < 1e-12
    assert np.abs(ws.ricci[0]).max() < 1e-12
    assert np.abs(ws.ricci[1]).max() < 1e-12


def test_connection_data_is_shared_across_records(jet_calls, monkeypatch):
    # the webster, comparison and submersion records read one Webster sample at m_pts
    from crgeo import pseudohermitian
    from crgeo.verify import Pipeline

    pipe = Pipeline("fubini_study", 2, points=4, seed=7)
    ph, pts = pipe.ac.ph, pipe.m_pts
    pipe.structure_record  # the webster record reads its bracket residual
    jet_calls.clear()
    frames, curvatures = [], []
    real_frame = pseudohermitian._levi_frame
    real_curvature = pseudohermitian.curvature_from_connection

    def counting_frame(lval, proj, jval, m):
        frames.append(np.array(lval))
        return real_frame(lval, proj, jval, m)

    def counting_curvature(gamma, dgamma, g):
        curvatures.append(np.array(g))
        return real_curvature(gamma, dgamma, g)

    monkeypatch.setattr(pseudohermitian, "_levi_frame", counting_frame)
    monkeypatch.setattr(pseudohermitian, "curvature_from_connection", counting_curvature)
    for record in ("webster", "comparison", "submersion"):
        getattr(pipe, f"{record}_record")
    # the structure record's one batch serves them: 25 calls at m_pts when each
    # record evaluated its fields, 8 when the Levi form and frame did, 3 with a
    # contact, a bracket and a connection batch, and base calls for submersion
    assert jet_calls == []
    # g_theta is assembled from the held theta, dtheta and J, never evaluated as a tree
    requested = [field for field, _ in pipe.webster_sample.requests.values()]
    assert all(field in requested for field in (ph.theta, ph.dtheta, ph.J, ph.reeb))
    assert [name for s, name in pipe.webster_sample.requests if s is ph] == ["theta", "dtheta", "J", "reeb"]
    # the Levi frame is built once, from the held values
    assert len(frames) == 1 and len(frames[0]) == len(pts)
    # R_W is built once; the Levi-Civita curvature goes through metric's binding
    assert len(curvatures) == 1


def test_connection_data_is_read_only_and_held(heisenberg, pts, jet_calls):
    from functools import cached_property

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, dict):
            value = list(value.values())
        items = value if isinstance(value, (tuple, list)) else vars(value).values()
        return [a for item in items for a in arrays(item)]

    ws = WebsterSample(heisenberg, pts)
    jet_calls.clear()
    axiom_residuals(ws)
    comparison_identities_residual(ws)
    ph_einstein_residual(ws)
    # one batch, to order 2, serves all three and the transversal-symmetry
    # gate before D
    assert [order for _, _, order in jet_calls] == [2]
    members = [n for n, v in vars(WebsterSample).items() if isinstance(v, cached_property)]
    assert {"batch", "comparison", "curvature", "lc_curvature"} <= set(members)
    for name in members:
        assert getattr(ws, name) is getattr(ws, name)
        for arr in arrays(getattr(ws, name)):
            with pytest.raises(ValueError):
                arr[...] = 0.0
    # the loop reads every member again, and evaluates nothing more
    assert [order for _, _, order in jet_calls] == [2]


@pytest.mark.parametrize("n", [1, 2, 32])
@pytest.mark.parametrize(
    "example, m",
    [("flat", 1), ("flat", 2), ("fubini_study", 1), ("fubini_study", 2),
     ("complex_hyperbolic", 1), ("complex_hyperbolic", 2), ("sphere_x_flat", 2)],
)
def test_sample_batches_equal_separate_evaluation(example, m, n):
    # the sample's one batch evaluates each node once, at the highest order read:
    # theta, dtheta and J at order 2, and T under J, so each read gives the bits
    # of a separate order-2 call, to order 1; g_theta, assembled from them, gives
    # those of its tree to order 2
    from crgeo.chart import jet_data
    from crgeo.verify import Pipeline

    pipe = Pipeline(example, m, points=n, seed=7)
    ph, pts, ws = pipe.ac.ph, pipe.m_pts, pipe.webster_sample
    for name in ("theta", "dtheta", "J", "reeb", "metric"):
        field = g_theta(ph) if name == "metric" else ph.sample_fields()[name][0]
        read = ws.jets(name)
        assert len(read) == (3 if name == "metric" else 2)
        for held, separate in zip(read, jet_data(field, pts, 2)):
            assert np.array_equal(held, separate)
    # the Levi form and frame built from the held values
    assert np.array_equal(ws.levi_form, ph.levi_form(pts))
    for held, separate in zip(ws.levi_frame, levi_adapted_frame(ph, pts)):
        assert np.array_equal(held, separate)


# catalog structures, flat's gauge sibling, the deformed control's contact-only
# sample, and the same deformation over the round base with a connection: its
# Reeb field is solved, so each term of L = dtheta J is a product of two jets
# with second partials (in the catalog, J's rows there are constants)
ASSEMBLY_CASES = [
    ("flat", 1), ("flat", 2), ("fubini_study", 1), ("fubini_study", 2),
    ("complex_hyperbolic", 1), ("complex_hyperbolic", 2), ("sphere_x_flat", 2),
    ("flat gauge sibling", 1), ("deformed control", 1), ("deformed fubini_study", 1),
]


def _assembly_sample(case, m, n):
    """(structure, its Webster sample at n points, whether it reads D) for one case."""
    from crgeo.constructions import perturbed_structure
    from crgeo.verify import Pipeline

    if case == "flat gauge sibling":
        pipe = Pipeline("flat", m, points=n, seed=7)
        return pipe.gauge_ph, pipe.webster_sample.siblings[pipe.gauge_ph], True
    if case == "deformed control":
        pipe = Pipeline("perturbed_non_tsph", m, points=n, seed=7)
        ph = perturbed_structure(pipe.ac)
        return ph, WebsterSample(ph, pipe.m_pts, connection=False), False
    if case == "deformed fubini_study":
        pipe = Pipeline("fubini_study", m, points=n, seed=7)
        ph = perturbed_structure(pipe.ac)
        return ph, WebsterSample(ph, pipe.m_pts), False  # not transversally symmetric: no D
    pipe = Pipeline(case, m, points=n, seed=7)
    return pipe.ac.ph, pipe.webster_sample, True


def _same(got, expected):
    assert len(got) == len(expected)
    assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("n", [1, 2, 5, 32, 129])
@pytest.mark.parametrize("case, m", ASSEMBLY_CASES)
def test_assembled_fields_equal_the_reference_trees(case, m, n):
    # g_theta, D, the X_i, J X_i and the solved Reeb field, assembled from the
    # held jets of theta, dtheta, J and T, equal the jet data of their trees
    # evaluated in one call, bit for bit (129 points span two blocks)
    ph, ws, reads_d = _assembly_sample(case, m, n)
    connection = ws.requests[ph, "theta"][1] == 2
    expected = jet_data_named(reference_fields(ph, connection), ws.pts)
    for name in ("theta", "dtheta", "J", "reeb", "metric"):
        _same(ws.jets(name), expected[name])
    x, jx = ws.horizontal
    for i in range(ph.chart.dim):
        _same(x[i], expected["x", i])
        _same(jx[i], expected["jx", i])
    if connection:
        assert np.array_equal(ws.solved_reeb, expected["solved_reeb"][0])
    if reads_d:
        _same(ws.comparison, expected["D"])


@pytest.mark.parametrize("n", [1, 2, 129])
@pytest.mark.parametrize("case, m", ASSEMBLY_CASES)
def test_the_levi_form_and_projector_come_from_the_assembly(case, m, n):
    # L is g_theta's first term, summed once in the batch and held apart from
    # g_theta's arrays (at one point a view of them would be g_theta itself);
    # P's columns are the values of the X_j, P = delta - T (x) theta
    ph, ws, _ = _assembly_sample(case, m, n)
    tval, gval = ws.jets("theta")[0], ws.jets("metric")[0]
    sym = tval[:, :, None] * tval[:, None, :]
    assert np.array_equal(ws.levi_form + (sym + sym.transpose(0, 2, 1)) * 0.5, gval)
    assert not any(np.shares_memory(ws.levi_form, a) for a in ws.jets("metric"))
    columns = np.stack([x[0] for x in ws.horizontal[0]], axis=-1)
    assert np.array_equal(ws.projector, columns)
    reeb = ws.jets("reeb")[0]
    assert np.array_equal(ws.projector, np.eye(ph.chart.dim) - np.einsum("ni,nj->nij", reeb, tval))
    # J P's columns are the values of the J X_j
    assert np.array_equal(ws.jprojector, np.stack([jx[0] for jx in ws.horizontal[1]], axis=-1))
    assert np.allclose(ws.jprojector, np.einsum("nij,njk->nik", ws.jets("J")[0], ws.projector), atol=1e-12)


def test_the_solved_reeb_field_is_nan_where_theta_is_not_contact():
    # theta = -dt + (x^2 / 2) dy is contact off x = 0, with Reeb field -d_t; at
    # a point on x = 0 the solve gives NaN there alone, equal to the tree's, and
    # the rows reading the contact condition fail there
    chart = Chart(["x", "y", "t"], [(-1.0, 1.0)] * 3)
    x = chart.coord(0)
    theta = OneForm(chart, [chart.constant(0.0), x * x * 0.5, chart.constant(-1.0)])
    reeb = VectorField(chart, [chart.constant(0.0), chart.constant(0.0), chart.constant(-1.0)])
    ph = make_structure(chart, theta, BASE_J, m=1, levi_signature=(1, 0), reeb_hint=reeb)
    pts = chart.sample(5, 3)
    pts[2, 0] = 0.0
    ws = WebsterSample(ph, pts)
    expected = jet_data_named({"solved": (solved_reeb_field(ph), 0)}, pts)["solved"][0]
    assert np.array_equal(ws.solved_reeb, expected, equal_nan=True)
    assert np.isnan(ws.solved_reeb).any(axis=1).tolist() == [False, False, True, False, False]
    res = structure_residuals(ws)
    solve = res["reeb_linear_solve"]
    assert np.isnan(solve).tolist() == [False, False, True, False, False]
    assert solve[[0, 1, 3, 4]].max() < 1e-10
    # the row's reduction is NaN, which fails its upper check, as the
    # determinant fails its lower one
    assert not solve.max() < 1e-10
    assert not res["contact_nondegenerate"].min() > 1e-10


def test_the_webster_batch_requests_only_the_contact_fields(monkeypatch):
    # theta, dtheta, J and T per structure (flat's gauge sibling included) and the
    # base fields: no tree for g_theta, D, X, J X or the solved Reeb field is built
    from crgeo import chart as chart_module
    from crgeo.verify import Pipeline

    pipe = Pipeline("flat", 1, points=3, seed=7)
    ws = pipe.webster_sample
    contact = {"theta", "dtheta", "J", "reeb"}
    expected = {(s, name) for s in (pipe.ac.ph, pipe.gauge_ph) for name in contact}
    assert set(ws.requests) == expected | {(None, name) for name in pipe.ac.sample_fields}
    nodes = []
    real = chart_module.Chart.node
    monkeypatch.setattr(chart_module.Chart, "node", lambda *args, **kw: nodes.append(args) or real(*args, **kw))
    for sample in (ws, ws.siblings[pipe.gauge_ph]):
        sample.comparison, sample.horizontal, sample.solved_reeb
    structure_residuals(ws)
    assert nodes == []


def test_the_gauge_sibling_joins_only_a_run_that_reads_the_webster_record():
    # only gauge_scal_invariance, a webster row, reads flat's gauge-shifted sibling
    from crgeo.verify import Pipeline

    for records, sibling in (({"comparison"}, False), ({"webster"}, True), ({"webster", "comparison"}, True)):
        pipe = Pipeline("flat", 1, 2, 7, records)
        ws = pipe.webster_sample
        assert len(ws.requests) == (8 if sibling else 4)
        assert {s for s, _ in ws.requests} == ({pipe.ac.ph, pipe.gauge_ph} if sibling else {pipe.ac.ph})


def test_webster_curvature_symmetries(pipeline):
    pipe = pipeline("fubini_study", 1)
    assert curvature_symmetry_residual(pipe.webster_sample).max() < 1e-8


def test_einstein_residual_values(pipeline):
    # scal_W = scal_h / 2: 1 over the round base, -1 over the ball
    for kind, expected in [("fubini_study", 1.0), ("complex_hyperbolic", -1.0)]:
        pipe = pipeline(kind, 1)
        ein = ph_einstein_residual(pipe.webster_sample)
        assert ein["webster_einstein"].max() < 1e-7
        assert ein["scal_mean"] == pytest.approx(expected, abs=1e-9)
        assert transversal_symmetry_residual(pipe.webster_sample).max() < 1e-8


def test_product_base_is_not_einstein(pipeline):
    pipe = pipeline("sphere_x_flat", 2)
    assert pipe.negative_record["non_einstein_detected"] > 1e-2
    assert pipe.negative_record["control_still_tsph"].max() < 1e-8


# ----------------------------------------------------------------------
# comparison identities
# ----------------------------------------------------------------------

def test_heisenberg_comparison_identities(heisenberg, pts):
    res = comparison_identities_residual(WebsterSample(heisenberg, pts))
    assert max(v.max() for v in res.values()) < 1e-12


def test_fubini_study_comparison_identities(pipeline):
    pipe = pipeline("fubini_study", 1)
    res = comparison_identities_residual(pipe.webster_sample)
    res = {name: per_point.max() for name, per_point in res.items()}
    assert res["comparison_formula"] < 1e-7
    assert res["webster_bianchi_cyclic"] < 1e-8
    assert res["webster_pair_symmetry"] < 1e-8
    assert res["ricci_h_relation"] < 1e-7
    assert res["webster_ricci_reeb"] < 1e-8
    assert res["ricci_reeb_tt"] < 1e-7  # Ric(T,T) = m/2 = 1/2 here
    assert res["ricci_reeb_mixed"] < 1e-8
    assert res["reeb_sectional"] < 1e-7  # R(X,T)T = X/4


def test_reeb_ricci_value(pipeline):
    # Ric_g(T,T) = m/2 with g(T,T) = 1 for the round base, m = 1
    from crgeo.metric import riemann

    pipe = pipeline("fubini_study", 1)
    curv = riemann(g_theta(pipe.ac.ph), pipe.m_pts)
    reeb = pipe.ac.ph.reeb(pipe.m_pts)
    ric_tt = np.einsum("nij,ni,nj->n", curv.ricci, reeb, reeb)
    np.testing.assert_allclose(ric_tt, 0.5, atol=1e-9)


@pytest.mark.parametrize("m", [1, 2])
def test_curvature_from_connection_data_equals_riemann(pipeline, m):
    # the comparison and submersion records read the curvature of g_theta from
    # the Webster sample's connection jets; it is that of the metric alone, bitwise
    from crgeo.metric import riemann

    pipe = pipeline("complex_hyperbolic", m)
    held = pipe.webster_sample.lc_curvature
    alone = riemann(g_theta(pipe.ac.ph), pipe.m_pts)
    for name in ("ricci", "scalar", "operator"):
        assert np.array_equal(getattr(held, name), getattr(alone, name))


def test_contact_control_skips_the_nijenhuis_batch(monkeypatch):
    # the deformed structure's contact check reads the determinant alone
    from crgeo import pseudohermitian
    from crgeo.verify import Pipeline

    def unused(ws):
        raise AssertionError("the Nijenhuis residual is not read by the contact control")

    monkeypatch.setattr(pseudohermitian, "integrability_residual", unused)
    pipe = Pipeline("perturbed_non_tsph", 1, points=4, seed=7)
    assert pipe.negative_record["control_still_contact"].min() > 1e-10


def test_the_deformed_control_reads_no_connection_field(jet_calls):
    # its two rows read the contact and bracket fields: one order-1 call, no D
    from crgeo.verify import Pipeline

    pipe = Pipeline("perturbed_non_tsph", 1, points=4, seed=7)
    pipe.negative_record
    ((fields, at, order),) = jet_calls
    assert order == 1 and np.array_equal(at, pipe.m_pts)
    assert sum(isinstance(f, ReebField) for f in fields) == 1  # its own T: no reference solve
    assert all(f.shape != (3, 3, 3) for f in fields)  # and no comparison tensor


def test_gauge_shift_preserves_scalar(pipeline):
    from crgeo.constructions import gauge_shift_scal_residual

    pipe = pipeline("flat", 1)
    ws = pipe.webster_sample
    assert gauge_shift_scal_residual(ws, ws.siblings[pipe.gauge_ph]).max() < 1e-6
