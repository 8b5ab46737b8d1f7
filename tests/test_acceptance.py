"""Acceptance criteria, each with its stated tolerance.

Every test prints one ``PASS criterion N`` line so the suite run doubles
as a human-readable acceptance report:

    pytest tests/test_acceptance.py -s
"""

import ctypes
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from crgeo.verify import SuiteConfig, render_report, run_all, run_suite

MAIN_ENTRIES = ["flat", "fubini_study", "complex_hyperbolic"]
ALL_MS = [1, 2]
GOLDEN = Path(__file__).parent / "golden"
GENERATED_AT = re.compile(r'^[ \t]*"generated_at": "[^"\n]*",?\n', re.MULTILINE)
# every report pinned under tests/golden: (example, m, points, seed) of its
# `--suite all` run; tests/render_goldens.py re-renders them from this table
GOLDENS = {
    f"{example}_m{m}_p{points}_s{seed}.json": (example, m, points, seed)
    for example, points, seed in (("all", 2, 7), ("all", 32, 42), ("complex_hyperbolic", 128, 7))
    for m in ALL_MS
}


def report_line(number: int, ok: bool, message: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {message}")
    assert ok, f"criterion {number}: {message}"


# ----------------------------------------------------------------------
# 1. Webster scalar relation scal_W = scal_h / 2
# ----------------------------------------------------------------------

def test_criterion_1_scal_relation():
    from crgeo.constructions import anticanonical_structure, make_kahler_einstein
    from crgeo.pseudohermitian import WebsterSample, ph_einstein_residual

    worst_rel, worst_time = 0.0, 0.0
    for kind, m, scal_h in [("fubini_study", 1, 2.0), ("complex_hyperbolic", 1, -2.0), ("fubini_study", 2, 6.0)]:
        start = time.perf_counter()
        ke = make_kahler_einstein(kind, m)
        assert ke.scal_h == pytest.approx(scal_h)
        ac = anticanonical_structure(ke)
        pts = ac.chart.sample(32, 42)
        ein = ph_einstein_residual(WebsterSample(ac.ph, pts))
        elapsed = time.perf_counter() - start
        rel = abs(ein["scal_mean"] - 0.5 * scal_h) / abs(0.5 * scal_h)
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel < 1e-7 and worst_time < 5.0
    report_line(1, ok, f"scal_W = scal_h/2 rel err {worst_rel:.2e} (tol 1e-7), "
                       f"slowest entry {worst_time:.2f}s (< 5s)")


# ----------------------------------------------------------------------
# 2. pseudo-Hermitian Einstein residuals
# ----------------------------------------------------------------------

def test_criterion_2_einstein_residuals(pipeline):
    worst_e, worst_t = 0.0, 0.0
    for kind in MAIN_ENTRIES:
        for m in ALL_MS:
            rec = pipeline(kind, m).webster_record
            worst_e = max(worst_e, rec["webster_einstein"].max())
            worst_t = max(worst_t, rec["webster_torsion_reeb"].max())
    heis = pipeline("flat", 1).webster_record["webster_einstein"].max()
    ok = worst_e < 1e-7 and worst_t < 1e-8 and heis < 1e-9
    report_line(2, ok, f"Einstein residual {worst_e:.2e} (tol 1e-7), torsion {worst_t:.2e} "
                       f"(tol 1e-8), Ricci-flat model {heis:.2e} (tol 1e-9)")


# ----------------------------------------------------------------------
# 3. Bianchi, pair symmetry, comparison formula
# ----------------------------------------------------------------------

def test_criterion_3_comparison_lemma(pipeline):
    worst = {"webster_bianchi_cyclic": 0.0, "webster_pair_symmetry": 0.0, "comparison_formula": 0.0}
    entries = [(k, m) for k in MAIN_ENTRIES for m in ALL_MS] + [("sphere_x_flat", 2)]
    for kind, m in entries:
        rec = pipeline(kind, m).comparison_record
        for key in worst:
            worst[key] = max(worst[key], rec[key].max())
    ok = (
        worst["webster_bianchi_cyclic"] < 1e-8
        and worst["webster_pair_symmetry"] < 1e-8
        and worst["comparison_formula"] < 1e-7
    )
    report_line(3, ok, f"cyclic Bianchi {worst['webster_bianchi_cyclic']:.2e} (1e-8), pair symmetry "
                       f"{worst['webster_pair_symmetry']:.2e} (1e-8), "
                       f"comparison {worst['comparison_formula']:.2e} (1e-7)")


# ----------------------------------------------------------------------
# 4. Ricci relations of g_theta and the submersion
# ----------------------------------------------------------------------

def test_criterion_4_ricci_relations(pipeline):
    worst = {"tt": 0.0, "mixed": 0.0, "sectional": 0.0, "base": 0.0}
    for kind in MAIN_ENTRIES:
        for m in ALL_MS:
            pipe = pipeline(kind, m)
            comp = pipe.comparison_record
            sub = pipe.submersion_record
            worst["tt"] = max(worst["tt"], comp["ricci_reeb_tt"].max())
            worst["mixed"] = max(worst["mixed"], comp["ricci_reeb_mixed"].max())
            worst["sectional"] = max(worst["sectional"], comp["reeb_sectional"].max())
            worst["base"] = max(worst["base"], sub["submersion_base"].max())
    ok = (
        worst["tt"] < 1e-7 and worst["mixed"] < 1e-8
        and worst["sectional"] < 1e-7 and worst["base"] < 1e-7
    )
    report_line(4, ok, f"Ric(T,T)=m/2 {worst['tt']:.2e} (1e-7), Ric(T,X) {worst['mixed']:.2e} (1e-8), "
                       f"R(X,T)T=X/4 {worst['sectional']:.2e} (1e-7), submersion {worst['base']:.2e} (1e-7)")


# ----------------------------------------------------------------------
# 5. Fefferman structure constants
# ----------------------------------------------------------------------

def test_criterion_5_fefferman_structure(pipeline):
    worst = {
        "fefferman_normalization": 0.0,
        "fefferman_lightlike": 0.0,
        "fefferman_connection_curvature": 0.0,
    }
    for kind in MAIN_ENTRIES:
        for m in ALL_MS:
            rec = pipeline(kind, m).fefferman_record
            for key in worst:
                worst[key] = max(worst[key], rec[key].max())
    ok = (
        worst["fefferman_normalization"] < 1e-12 and worst["fefferman_lightlike"] < 1e-12
        and worst["fefferman_connection_curvature"] < 1e-8
    )
    report_line(5, ok, f"f(P,T*)=1 {worst['fefferman_normalization']:.2e} (1e-12), lightlike "
                       f"{worst['fefferman_lightlike']:.2e} (1e-12), "
                       f"dA_W+Ric_W {worst['fefferman_connection_curvature']:.2e} (1e-8)")


# ----------------------------------------------------------------------
# 6. closed-form Fefferman Ricci
# ----------------------------------------------------------------------

def test_criterion_6_fefferman_ricci(pipeline):
    worst = {
        "fefferman_ricci_closed_form": 0.0,
        "fefferman_ricci_components": 0.0,
        "parallel_vertical_field": 0.0,
        "killing_reeb_lift": 0.0,
    }
    min_cert = float("inf")
    for kind in MAIN_ENTRIES:
        for m in ALL_MS:
            rec = pipeline(kind, m).fefferman_record
            for key in worst:
                worst[key] = max(worst[key], rec[key].max())
            if m == 1:
                min_cert = min(min_cert, rec["non_einstein_certificate"].min())
    ok = (
        worst["fefferman_ricci_closed_form"] < 1e-6
        and worst["fefferman_ricci_components"] < 1e-7
        and worst["parallel_vertical_field"] < 1e-8
        and worst["killing_reeb_lift"] < 1e-8
        and min_cert > 0.01
    )
    report_line(6, ok, f"closed form {worst['fefferman_ricci_closed_form']:.2e} (1e-6), components "
                       f"{worst['fefferman_ricci_components']:.2e} (1e-7), "
                       f"parallel {worst['parallel_vertical_field']:.2e} (1e-8), "
                       f"Killing {worst['killing_reeb_lift']:.2e} (1e-8), trace-free cert {min_cert:.3f} (> 0.01)")


# ----------------------------------------------------------------------
# 7. conformal Einstein rescaling and the explicit charts
# ----------------------------------------------------------------------

def test_criterion_7_conformal_einstein(pipeline):
    worst = {"einstein": 0.0, "scal": 0.0, "ode": 0.0, "agree": 0.0}
    for kind in MAIN_ENTRIES:
        for m in ALL_MS:
            pipe = pipeline(kind, m)
            rec = pipe.rescale_record
            lam = (2 * m + 1) * pipe.ke.scal_h / (4.0 * m * (m + 1))
            assert pipe.rm.einstein_constant == pytest.approx(lam, abs=1e-12)
            worst["einstein"] = max(worst["einstein"], rec["rescaled_einstein"].max())
            worst["scal"] = max(worst["scal"], rec["rescaled_scalar"].max())
            worst["ode"] = max(worst["ode"], rec["conformal_ode"].max())
            worst["agree"] = max(worst["agree"], pipe.theorem2_record["pipeline_agreement"].max())
    ok = (
        worst["einstein"] < 1e-6 and worst["scal"] < 1e-6
        and worst["ode"] < 1e-10 and worst["agree"] < 1e-6
    )
    report_line(7, ok, f"Ric - lambda g {worst['einstein']:.2e} (1e-6), scal rel {worst['scal']:.2e} (1e-6), "
                       f"ODE {worst['ode']:.2e} (1e-10), explicit-chart agreement {worst['agree']:.2e} (1e-6)")


# ----------------------------------------------------------------------
# 8. oracle equivalences
# ----------------------------------------------------------------------

def test_criterion_8_oracles():
    from crgeo import Chart
    from crgeo.chart import jet_data, log as flog, sin as fsin
    from crgeo.metric import MetricField, _christoffel_arrays, conformal_ricci_correction, riemann
    from conftest import conformal_rescale

    # randomized (metric, phi) fixtures: correction equals direct recomputation
    chart = Chart(["x", "y", "z"], [(-1.0, 1.0)] * 3)
    x, y, z = chart.coordinate_fields()
    rng = np.random.default_rng(2024)
    worst_corr = 0.0
    for _ in range(3):
        c = 0.1 * rng.standard_normal((3, 3, 4))
        basis = [x, y, z, x * y]
        comp = [[chart.constant(1.0 if i == j else 0.0) for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(i, 3):
                pert = chart.constant(0.0)
                for k, b in enumerate(basis):
                    pert = pert + b * float(c[i, j, k])
                comp[i][j] = comp[i][j] + pert
                if j > i:
                    comp[j][i] = comp[i][j]
        g = MetricField(chart, comp, (3, 0))
        w = rng.standard_normal(2) * 0.4
        phi = x * float(w[0]) + fsin(y * 2.0) * float(w[1])
        pts = chart.sample(16, 42)
        g_jets = jet_data(g, pts, 1)
        corr = conformal_ricci_correction(g_jets[0], _christoffel_arrays(*g_jets), *jet_data(phi, pts, 2)[1:])
        direct = riemann(conformal_rescale(g, phi), pts).ricci - riemann(g, pts).ricci
        worst_corr = max(worst_corr, float(np.abs(corr - direct).max()))

    # curvature engine against the conformal Gauss-curvature oracle
    worst_gauss = 0.0
    for bound, sign in [((-2.0, 2.0), 1.0), ((-0.7, 0.7), -1.0)]:
        ch2 = Chart(["x", "y"], [bound, bound])
        u = ch2.coord(0) ** 2 + ch2.coord(1) ** 2
        factor = 4.0 / (1.0 + u) ** 2 if sign > 0 else 4.0 / (1.0 - u) ** 2
        zero = ch2.constant(0.0)
        g2 = MetricField(ch2, [[factor, zero], [zero, factor]], (2, 0))
        pts2 = ch2.sample(32, 42)
        scal = riemann(g2, pts2).scalar
        _, _, d2 = jet_data(flog(factor), pts2, 2)
        oracle = -(d2[:, 0, 0] + d2[:, 1, 1]) / factor(pts2)
        worst_gauss = max(
            worst_gauss,
            float(np.abs(scal - 2.0 * sign).max()),
            float(np.abs(scal - oracle).max()),
        )
    ok = worst_corr < 1e-7 and worst_gauss < 1e-8
    report_line(8, ok, f"conformal correction vs direct {worst_corr:.2e} (1e-7), "
                       f"Gauss oracle {worst_gauss:.2e} (1e-8)")


# ----------------------------------------------------------------------
# 9. negative controls
# ----------------------------------------------------------------------

def test_criterion_9_negative_controls(pipeline):
    non_einstein = pipeline("sphere_x_flat", 2).negative_record["non_einstein_detected"]
    non_tsph = pipeline("perturbed_non_tsph", 1).negative_record["non_tsph_detected"]
    ok = non_einstein > 1e-2 and non_tsph > 1e-3
    report_line(9, ok, f"non-Einstein control {non_einstein:.3f} (> 1e-2), "
                       f"non-symmetric control {non_tsph:.4f} (> 1e-3)")


# ----------------------------------------------------------------------
# 10. full deterministic suite under the time budget
# ----------------------------------------------------------------------

def check_rows(text: str) -> dict:
    """The check rows of a report's text by (example, check name)."""
    doc = json.loads(text)
    runs = doc.get("runs", [doc])
    return {(run["example"], c["name"]): c for run in runs for c in run["checks"]}


def moved_fields(old_text: str, new_text: str) -> list[tuple]:
    """(example, check, field, old, new) per max_residual, value or pass that differs."""
    old, new = check_rows(old_text), check_rows(new_text)
    moved = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, {}), new.get(key, {})
        for field in ("max_residual", "value", "pass"):
            if a.get(field) != b.get(field):
                moved.append((*key, field, a.get(field), b.get(field)))
    return moved


def moved_checks(old_text: str, new_text: str) -> list[str]:
    """One line per check whose max_residual, value or pass differs."""
    return [
        f"{example}/{name} {field}: {a!r} -> {b!r}"
        for example, name, field, a, b in moved_fields(old_text, new_text)
    ]


def hardware() -> str:
    """The runtime OpenBLAS core and numpy's enabled CPU features.

    The golden bytes depend on both (ROADMAP item 1), so a golden failure
    names them.  The core is the one OpenBLAS picked at run time; the
    build-time string of ``np.show_config()`` may name another.
    """
    core = "unknown"
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            core = get().decode()
            break
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    features = getattr(umath, "__cpu_features__", {})
    enabled = " ".join(name for name, on in features.items() if on) or "unknown"
    return f"OpenBLAS core {core}; numpy CPU features {enabled}"


def golden_report(name: str) -> dict:
    """The run that tests/golden/<name> pins, as its row of GOLDENS names it."""
    example, m, points, seed = GOLDENS[name]
    cfg = SuiteConfig(example=example, m=m, suites=("all",), points=points, seed=seed)
    return run_all(cfg) if example == "all" else run_suite(cfg)


def golden_text(report: dict) -> str:
    """A report's text as pinned: without its generated_at line."""
    return GENERATED_AT.sub("", render_report(report))


def assert_golden(name: str, text: str):
    """The report text equals tests/golden/<name> byte for byte."""
    golden = (GOLDEN / name).read_text()
    assert text == golden, f"{name} differs from tests/golden ({hardware()}):\n" + "\n".join(
        moved_checks(golden, text) or ["no check row moved; the report layout did"]
    )


def test_a_golden_failure_names_the_hardware():
    name = "all_m1_p2_s7.json"
    with pytest.raises(AssertionError, match="OpenBLAS core .*; numpy CPU features "):
        assert_golden(name, (GOLDEN / name).read_text() + " ")


def test_every_golden_file_has_a_row_of_the_table():
    # the golden tests and tests/render_goldens.py read the same table
    assert sorted(GOLDENS) == sorted(p.name for p in GOLDEN.glob("*.json"))


def test_criterion_10_full_suite_runtime_and_determinism():
    start = time.perf_counter()
    outputs = []
    for m in ALL_MS:
        report = golden_report(f"all_m{m}_p32_s42.json")
        assert report["overall_pass"], [
            (r["example"], [c["name"] for c in r["checks"] if not c["pass"]])
            for r in report["runs"]
        ]
        outputs.append(golden_text(report))
    elapsed = time.perf_counter() - start
    # the reports are pinned byte for byte under tests/golden
    for m, text in zip(ALL_MS, outputs):
        assert_golden(f"all_m{m}_p32_s42.json", text)
    # re-run one configuration: byte-identical modulo the timestamp
    second = golden_text(golden_report("all_m1_p32_s42.json"))
    deterministic = outputs[0] == second
    ok = elapsed < 60.0 and deterministic
    report_line(10, ok, f"full suite (m in {{1,2}}, 32 points) in {elapsed:.1f}s (< 60s), "
                        f"deterministic: {deterministic}")


@pytest.mark.parametrize("m", ALL_MS)
def test_two_point_catalog_matches_golden(m):
    # the catalog at two points, where per-call overhead dominates, pinned the same way
    name = f"all_m{m}_p2_s7.json"
    assert_golden(name, golden_text(golden_report(name)))


@pytest.mark.parametrize("m", ALL_MS)
def test_dense_entry_matches_golden(m):
    # the slowest entry at 128 points, where the metric jets dominate, pinned the same way
    name = f"complex_hyperbolic_m{m}_p128_s7.json"
    assert_golden(name, golden_text(golden_report(name)))


@pytest.mark.parametrize(
    "min_width, example, m, points",
    [(0, "all", 1, 2), (0, "all", 2, 2), (float("inf"), "complex_hyperbolic", 1, 128)],
)
def test_both_product_paths_match_goldens(min_width, example, m, points, monkeypatch):
    # every product staged, or every product on the BLAS matmul: the same bytes
    from crgeo import jets

    monkeypatch.setattr(jets, "STAGED_MIN_WIDTH", min_width)
    name = f"{example}_m{m}_p{points}_s7.json"
    assert_golden(name, golden_text(golden_report(name)))
