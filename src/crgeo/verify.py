"""Verification driver: catalog entries, residual check registry, reports.

A suite run builds the requested construction pipeline once, evaluates
every registered residual at seeded sample points, and collects them
into a deterministic report.  Each check is declared once in
:data:`CHECKS`; the ``Pipeline`` records hold its residual under its
name, per sample point.  :func:`run_suite` reduces every residual by one
rule: the max over the sample for ``upper`` checks, which pass below
their tolerance, and the min for ``lower`` checks (negative controls and
nondegeneracy certificates), which pass above it.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chart import jet_data_multi
from .constructions import (
    anticanonical_structure,
    correction_structure_residual,
    einstein_rescale,
    explicit_einstein_metric,
    explicit_einstein_residuals,
    fefferman_expression_residual,
    fefferman_metric,
    fefferman_ricci_residual,
    fefferman_structure_residuals,
    gauge_shift_scal_residual,
    make_kahler_einstein,
    make_product_base,
    perturbed_structure,
    pipeline_agreement_residual,
    rescale_residuals,
    slice_identity_residual,
    submersion_residuals,
)
from .errors import DegeneracyError, UsageError
from .metric import killing_residual, point_max
from .pseudohermitian import (
    axiom_residuals,
    comparison_identities_residual,
    curvature_symmetry_residual,
    ph_einstein_residual,
    solved_reeb_field,
    transversal_symmetry_residual,
)

SUITES = ("webster", "comparison", "submersion", "fefferman", "rescale", "theorem2")

CONVENTIONS = {
    "laplacian": "lap(phi) = trace_g Hess(phi)",
    "imaginary_square": "(i*beta)^2 expands to -(beta o beta) for real beta",
    "gamma_orientation": "dgamma = h(., J.) with J e_x = e_y per complex pair",
    "rescale_coordinate": "t = ((m+2)/2) * s; factor cos^-2(t/(m+2)); explicit charts use t/(m+2)",
    "webster_ricci": "stored as real representative W with Ric_W = i W",
}


@dataclass(frozen=True)
class CatalogEntry:
    example: str
    ms: tuple[int, ...]
    negative: bool
    scal_h: str
    requires: str
    description: str


CATALOG: dict[str, CatalogEntry] = {
    "flat": CatalogEntry(
        "flat", (1, 2), False, "0", "potential one-form gamma",
        "Ricci-flat base; Heisenberg-type contact model",
    ),
    "fubini_study": CatalogEntry(
        "fubini_study", (1, 2), False, "m(m+1)/scale", "none",
        "positive Kaehler-Einstein base (affine projective chart)",
    ),
    "complex_hyperbolic": CatalogEntry(
        "complex_hyperbolic", (1, 2), False, "-m(m+1)/scale", "none",
        "negative Kaehler-Einstein base (complex ball chart)",
    ),
    "sphere_x_flat": CatalogEntry(
        "sphere_x_flat", (2,), True, "non-constant", "none",
        "negative control: non-Einstein Kaehler product base",
    ),
    "perturbed_non_tsph": CatalogEntry(
        "perturbed_non_tsph", (1,), True, "0", "none",
        "negative control: contact form deformation breaking transversal symmetry",
    ),
}
SUPPORTED_M = tuple(sorted({m for entry in CATALOG.values() for m in entry.ms}))


@dataclass(frozen=True)
class Check:
    """One residual check, read from ``Pipeline.<record>_record[name]``."""

    name: str
    suite: str
    record: str
    anchor: str
    tol: float
    kind: str = "upper"  # 'upper': pass if max residual < tol; 'lower': pass if min > tol
    entries: tuple[str, ...] | None = None  # catalog entries it applies to; None: all
    value: str | None = None  # record key of a constant reported with the row


CHECKS: list[Check] = [
    # -- webster ----------------------------------------------------------
    Check("contact_nondegenerate", "webster", "structure",
          "theta ^ (dtheta)^m != 0 (Reeb system determinant)", 1e-10, kind="lower"),
    Check("complex_structure", "webster", "structure", "J^2 = -id on H and J(T) = 0", 1e-10),
    Check("levi_symmetric", "webster", "structure", "L = dtheta(., J.) is symmetric", 1e-10),
    Check("cr_integrability", "webster", "structure", "Nijenhuis expression vanishes on H", 1e-8),
    Check("reeb_defining", "webster", "structure", "theta(T) = 1 and T . dtheta = 0", 1e-10),
    Check("reeb_linear_solve", "webster", "structure",
          "gauge Reeb field matches the per-point linear solve", 1e-10),
    Check("tsph_bracket", "webster", "structure",
          "[T,X] + J[T,JX] = 0 (transversal symmetry)", 1e-8),
    Check("tsph_killing", "webster", "structure", "Lie_T g_theta = 0 (T Killing)", 1e-8),
    Check("webster_metricity", "webster", "webster", "nabla_W g_theta = 0", 1e-8),
    Check("webster_parallel_theta", "webster", "webster", "nabla_W theta = 0", 1e-8),
    Check("webster_parallel_j", "webster", "webster", "nabla_W J = J nabla_W", 1e-8),
    Check("webster_torsion_h", "webster", "webster", "Tor(X,Y) = L(JX,Y) T on H", 1e-8),
    Check("webster_torsion_reeb", "webster", "webster", "Tor(T,X) = 0", 1e-8),
    Check("webster_curvature_symmetry", "webster", "webster",
          "R_W antisymmetries and J-symmetry", 1e-8),
    Check("webster_scal_vs_base", "webster", "webster", "scal_W = scal_h / 2", 1e-7,
          value="scal_mean"),
    Check("webster_einstein", "webster", "webster", "W + (scal_W/m) dtheta = 0", 1e-7),
    Check("webster_scal_constant", "webster", "webster", "scal_W constant over the sample", 1e-7),
    Check("gauge_scal_invariance", "webster", "webster",
          "scal_W agrees for theta and theta + df (basic f)", 1e-6, entries=("flat",)),
    # -- comparison --------------------------------------------------------
    Check("comparison_formula", "comparison", "comparison",
          "five-term Webster vs Levi-Civita curvature comparison", 1e-7),
    Check("webster_bianchi_cyclic", "comparison", "comparison",
          "cyclic Bianchi sum of R_W vanishes", 1e-8),
    Check("webster_pair_symmetry", "comparison", "comparison", "R_W(X,Y,Z,V) = R_W(Z,V,X,Y)", 1e-8),
    Check("ricci_h_relation", "comparison", "comparison", "Ric_g = -W(., J.) - g/2 on H", 1e-7),
    Check("webster_ricci_reeb", "comparison", "comparison", "W(T, .) = 0", 1e-8),
    Check("ricci_reeb_tt", "comparison", "comparison", "Ric_g(T,T) = (m/2) g(T,T)", 1e-7),
    Check("ricci_reeb_mixed", "comparison", "comparison", "Ric_g(T, X) = 0 on H", 1e-8),
    Check("reeb_sectional", "comparison", "comparison", "R_g(X,T)T = X/4 on H", 1e-7),
    # -- submersion ---------------------------------------------------------
    Check("kahler_potential", "submersion", "submersion", "dgamma = h(., J.)", 1e-9),
    Check("kahler_einstein_base", "submersion", "submersion", "Ric_h = (scal_h / 2m) h", 1e-7),
    Check("kahler_scal_constant", "submersion", "submersion", "scal_h constant over the sample", 1e-7),
    Check("kahler_parallel", "submersion", "submersion", "nabla_h J = 0", 1e-8),
    Check("ricci_form_potential", "submersion", "submersion", "d(real rho_ac) = Ric_h(., J.)", 1e-8),
    Check("connection_curvature", "submersion", "submersion",
          "pulled-back curvature relation of rho_ac", 1e-8),
    Check("dtheta_pullback", "submersion", "submersion", "dtheta = pullback of h(J., .) on H", 1e-8),
    Check("submersion_reeb_tt", "submersion", "submersion", "Ric_g(T,T) = m/2", 1e-7),
    Check("submersion_reeb_mixed", "submersion", "submersion", "Ric_g(T, X*) = 0", 1e-8),
    Check("submersion_base", "submersion", "submersion", "Ric_h = Ric_g(lifts) + g(lifts)/2", 1e-7),
    Check("submersion_webster", "submersion", "submersion", "Ric_h(X,Y) = -W(X*, J Y*)", 1e-7),
    # -- fefferman -----------------------------------------------------------
    Check("fefferman_normalization", "fefferman", "fefferman", "f(P, T*) = 1", 1e-12),
    Check("fefferman_lightlike", "fefferman", "fefferman", "f(P,P) = f(T*,T*) = 0", 1e-12),
    Check("fefferman_lightlike_forms", "fefferman", "fefferman",
          "theta and A_theta are f-lightlike", 1e-10),
    Check("fefferman_connection_curvature", "fefferman", "fefferman",
          "dA_W = -Ric_W in real representatives", 1e-8),
    Check("closed_one_form", "fefferman", "fefferman",
          "rho_c + rho_ac is closed (real representatives)", 1e-10),
    Check("parallel_dual_form", "fefferman", "fefferman",
          "f-dual of T* - S_W P is (2/(m+2)) (rho_c + rho_ac)", 1e-8),
    Check("fefferman_ricci_closed_form", "fefferman", "fefferman",
          "Ric_f = m S_W f + (2m/(m+2)^2) (rho_c + rho_ac)^2", 1e-6),
    Check("fefferman_ricci_components", "fefferman", "fefferman",
          "Ric(P,P) = m/2; Ric(T*,P) = m S_W/2; Ric(T*,T*) = m S_W^2/2", 1e-7),
    Check("fefferman_curvature_identities", "fefferman", "fefferman",
          "component identities of R_f on the adapted frame", 1e-7),
    Check("fefferman_covariant_table", "fefferman", "fefferman",
          "covariant derivative table on (e*, T*, P)", 1e-7),
    Check("parallel_vertical_field", "fefferman", "fefferman", "nabla (T* - S_W P) = 0", 1e-8),
    Check("killing_reeb_lift", "fefferman", "fefferman", "T* is Killing for f", 1e-8),
    Check("non_einstein_certificate", "fefferman", "fefferman",
          "trace-free Ricci of f stays bounded away from zero", 1e-2, kind="lower"),
    Check("fefferman_expression", "fefferman", "fefferman",
          "independent assembly of f from base data", 1e-8),
    # -- rescale ---------------------------------------------------------------
    Check("conformal_ode", "rescale", "rescale",
          "phi'' - (phi')^2 = 1/(m+2)^2 and phi = phi(t)", 1e-10),
    Check("rescaled_einstein", "rescale", "rescale",
          "Ric of e^{2 phi} f equals lambda e^{2 phi} f", 1e-6, value="einstein_constant"),
    Check("rescaled_scalar", "rescale", "rescale",
          "scal of the rescaled metric is ((2m+1)/2m) scal_h", 1e-6),
    Check("slice_identity", "rescale", "rescale",
          "rescaled metric equals f on the t = 0 slice", 1e-12),
    Check("correction_structure", "rescale", "rescale",
          "conformal correction has only a (P,P) component", 1e-8, entries=("flat",)),
    # -- theorem2 ----------------------------------------------------------------
    Check("explicit_einstein", "theorem2", "theorem2",
          "explicit chart metric is Einstein with the stated constant", 1e-6,
          value="einstein_constant"),
    Check("explicit_scalar", "theorem2", "theorem2", "scalar curvature of the explicit metric", 1e-6),
    Check("explicit_signature", "theorem2", "theorem2", "signature (2p+1, 2q+1)", 0.5),
    Check("pipeline_agreement", "theorem2", "theorem2",
          "explicit metric matches the rescaled pipeline metric", 1e-6),
    Check("sasaki_einstein", "theorem2", "theorem2",
          "circle-bundle factor is Einstein (Sasaki cross-check)", 1e-6,
          entries=("fubini_study", "complex_hyperbolic")),
    Check("sasaki_product", "theorem2", "theorem2",
          "cos^2-scaled metric splits off a flat line", 1e-8,
          entries=("fubini_study", "complex_hyperbolic")),
    Check("sasaki_product_curvature", "theorem2", "theorem2",
          "curvature components along the line vanish", 1e-8,
          entries=("fubini_study", "complex_hyperbolic")),
    # -- negative controls ----------------------------------------------------------
    Check("non_einstein_detected", "negative", "negative",
          "non-Einstein base yields a large Einstein residual", 1e-2, kind="lower",
          entries=("sphere_x_flat",)),
    Check("control_still_tsph", "negative", "negative",
          "the product control remains transversally symmetric", 1e-8,
          entries=("sphere_x_flat",)),
    Check("non_tsph_detected", "negative", "negative",
          "deformed contact form breaks transversal symmetry", 1e-3, kind="lower",
          entries=("perturbed_non_tsph",)),
    Check("control_still_contact", "negative", "negative",
          "the deformed form stays contact", 1e-10, kind="lower",
          entries=("perturbed_non_tsph",)),
]

CHECKS_BY_NAME = {c.name: c for c in CHECKS}


class Pipeline:
    """Lazy, cached construction pipeline for one catalog entry.

    Each ``*_record`` maps check names to residuals per sample point (or to
    one sample statistic), plus the constants that checks report.  Metrics
    that share component nodes are evaluated on one order-2 jet batch per
    sample (``f_jets``, ``t2_jets``), and the Webster connection once at the
    contact sample (``webster_sample``); every record reading them uses them.
    """

    def __init__(self, example: str, m: int, points: int, seed: int):
        if example not in CATALOG:
            raise UsageError(f"unknown example {example!r}")
        entry = CATALOG[example]
        if m not in entry.ms:
            raise UsageError(f"example {example!r} supports m in {entry.ms}, got {m}")
        if points < 1:
            raise UsageError("points must be >= 1")
        if seed < 0:
            raise UsageError("seed must be >= 0")
        self.entry = entry
        self.example = example
        self.m = m
        self.points = points
        self.seed = seed

    def applies(self, name: str) -> bool:
        entries = CHECKS_BY_NAME[name].entries
        return entries is None or self.example in entries

    # -- constructions ---------------------------------------------------
    @cached_property
    def ke(self):
        if self.example == "sphere_x_flat":
            return make_product_base()
        base_kind = "flat" if self.example == "perturbed_non_tsph" else self.example
        return make_kahler_einstein(base_kind, self.m)

    @cached_property
    def ac(self):
        return anticanonical_structure(self.ke)

    @cached_property
    def fc(self):
        return fefferman_metric(self.ac)

    @cached_property
    def rm(self):
        return einstein_rescale(self.fc)

    @cached_property
    def t2(self):
        return explicit_einstein_metric(self.ke)

    # -- sample points -----------------------------------------------------
    @cached_property
    def base_pts(self):
        return self.ke.chart.sample(self.points, self.seed)

    @cached_property
    def m_pts(self):
        return self.ac.chart.sample(self.points, self.seed)

    @cached_property
    def f_pts(self):
        return self.fc.chart.sample(self.points, self.seed)

    @cached_property
    def t2_pts(self):
        return self.t2.chart.sample(self.points, self.seed)

    # -- metric jets shared by records ----------------------------------------
    @cached_property
    def f_jets(self):
        """Order-2 jet data of f and of its rescaling e^{2 phi} f at ``f_pts``."""
        return jet_data_multi([self.fc.metric, self.rm.metric], self.f_pts, 2)

    @cached_property
    def t2_jets(self):
        """Order-2 jet data of the explicit metrics at ``t2_pts``."""
        return jet_data_multi(self.t2.checked_metrics, self.t2_pts, 2)

    @cached_property
    def webster_sample(self):
        """The Webster connection, its curvature and the Levi frame at ``m_pts``."""
        return self.ac.webster.at(self.m_pts)

    # -- cached residual records --------------------------------------------
    @cached_property
    def structure_record(self) -> dict:
        ph, pts = self.ac.ph, self.m_pts
        rec = ph.structure_residuals(pts)
        rec["reeb_defining"] = ph.reeb_residual(pts)
        rec["reeb_linear_solve"] = point_max(solved_reeb_field(ph)(pts) - ph.reeb(pts))
        rec["tsph_bracket"] = transversal_symmetry_residual(ph, pts)
        rec["tsph_killing"] = killing_residual(ph.metric, ph.reeb, pts)
        return rec

    @cached_property
    def webster_record(self) -> dict:
        ws = self.webster_sample
        rec = axiom_residuals(ws)
        rec["webster_torsion_reeb"] = self.structure_record["tsph_bracket"]
        rec["webster_curvature_symmetry"] = curvature_symmetry_residual(ws)
        rec.update(ph_einstein_residual(ws))
        target = 0.5 * self.ke.scal_h
        rec["webster_scal_vs_base"] = abs(rec["scal_mean"] - target) / max(1.0, abs(target))
        if self.applies("gauge_scal_invariance"):
            rec["gauge_scal_invariance"] = gauge_shift_scal_residual(self.ac, ws)
        return rec

    @cached_property
    def comparison_record(self) -> dict:
        return comparison_identities_residual(self.webster_sample)

    @cached_property
    def submersion_record(self) -> dict:
        rec = self.ke.kahler_residuals(self.base_pts)
        rec.update(submersion_residuals(self.ac, self.webster_sample))
        return rec

    @cached_property
    def fefferman_record(self) -> dict:
        f = self.f_jets[0]
        rec = fefferman_structure_residuals(self.fc, self.f_pts, f[0])
        rec.update(fefferman_ricci_residual(self.fc, self.f_pts, f))
        rec["fefferman_expression"] = fefferman_expression_residual(self.fc, self.f_pts, f[0])
        return rec

    @cached_property
    def rescale_record(self) -> dict:
        rec = rescale_residuals(self.rm, self.f_pts, self.f_jets[1])
        rec["slice_identity"] = slice_identity_residual(self.rm, min(self.points, 8), self.seed)
        rec["einstein_constant"] = self.rm.einstein_constant
        if self.applies("correction_structure"):
            rec["correction_structure"] = correction_structure_residual(self.rm, self.f_pts)
        return rec

    @cached_property
    def theorem2_record(self) -> dict:
        rec = explicit_einstein_residuals(self.t2, self.t2_pts, self.t2_jets)
        rec["pipeline_agreement"] = pipeline_agreement_residual(
            self.rm, self.t2, self.f_pts, self.f_jets[1][0]
        )
        try:
            self.t2.metric.verify_signature(self.t2_pts)
            rec["explicit_signature"] = 0.0
        except DegeneracyError:
            rec["explicit_signature"] = 1.0
        rec["einstein_constant"] = self.t2.einstein_constant
        return rec

    @cached_property
    def negative_record(self) -> dict:
        # the two violations are sample maxima: detected when large anywhere
        rec = {}
        if self.applies("non_einstein_detected"):
            ein = ph_einstein_residual(self.webster_sample)
            rec["non_einstein_detected"] = ein["webster_einstein"].max()
            rec["control_still_tsph"] = transversal_symmetry_residual(self.ac.ph, self.m_pts)
        if self.applies("non_tsph_detected"):
            php = perturbed_structure(self.ac)
            rec["non_tsph_detected"] = transversal_symmetry_residual(php, self.m_pts).max()
            rec["control_still_contact"] = php.contact_determinant(self.m_pts)
        return rec


@dataclass
class SuiteConfig:
    example: str
    m: int
    suites: tuple[str, ...] = ("all",)
    points: int = 32
    seed: int = 42
    tol_overrides: dict = field(default_factory=dict)

    def resolved_suites(self, negative: bool) -> tuple[str, ...]:
        wanted = self.suites
        if "all" in wanted:
            return ("negative",) if negative else SUITES
        for s in wanted:
            if s not in SUITES + ("negative",):
                raise UsageError(f"unknown suite {s!r}")
        return tuple(s for s in wanted)

    def validate(self):
        if self.points < 1:
            raise UsageError("points must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.m not in SUPPORTED_M:
            raise UsageError(f"m must be in {SUPPORTED_M}, got {self.m}")
        for name, tol in self.tol_overrides.items():
            if name not in CHECKS_BY_NAME:
                raise UsageError(f"unknown check name in tolerance override: {name!r}")
            if not math.isfinite(float(tol)):
                raise UsageError(f"tolerance override for {name!r} must be finite, got {tol}")


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute the configured checks; returns the report document."""
    cfg.validate()
    entry = CATALOG.get(cfg.example)
    if entry is None:
        raise UsageError(f"unknown example {cfg.example!r}")
    suites = cfg.resolved_suites(entry.negative)
    if entry.negative and any(s != "negative" for s in suites):
        raise UsageError(
            f"example {cfg.example!r} is a negative control; run it with --suite all"
        )
    pipe = Pipeline(cfg.example, cfg.m, cfg.points, cfg.seed)
    selected = [c for c in CHECKS if c.suite in suites and pipe.applies(c.name)]
    if not selected:
        raise UsageError(
            f"suites {','.join(suites) or '(none)'} select no check for example {cfg.example!r}"
        )
    checks_out = []
    overall = True
    for check in selected:
        tol = float(cfg.tol_overrides.get(check.name, check.tol))
        try:
            # a missing residual or a failing construction is a failed row
            rec = getattr(pipe, f"{check.record}_record")
            if check.name not in rec:
                raise LookupError(f"the {check.record} record has no residual {check.name!r}")
            per_point = np.asarray(rec[check.name])
            residual = float(per_point.min() if check.kind == "lower" else per_point.max())
            value = float(rec[check.value]) if check.value else None
            error = None
        except Exception as exc:
            residual, value, error = float("nan"), None, f"{type(exc).__name__}: {exc}"
        if error is not None:
            passed = False
        elif check.kind == "lower":
            passed = residual > tol
        else:
            passed = residual < tol
        overall = overall and passed
        row = {
            "name": check.name,
            "anchor": check.anchor,
            "points": cfg.points,
            "max_residual": residual,
            "tolerance": tol,
            "kind": check.kind,
            "pass": passed,
        }
        if value is not None:
            row["value"] = value
        if error is not None:
            row["error"] = error
        checks_out.append(row)
    return {
        "example": cfg.example,
        "m": cfg.m,
        "suites": list(suites),
        "points": cfg.points,
        "seed": cfg.seed,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "conventions": dict(CONVENTIONS),
        "checks": checks_out,
        "overall_pass": overall,
    }


def run_all(cfg: SuiteConfig) -> dict:
    """Run every catalog entry supporting the requested m."""
    runs = []
    overall = True
    for name, entry in CATALOG.items():
        if cfg.m not in entry.ms:
            continue
        sub = SuiteConfig(
            example=name,
            m=cfg.m,
            suites=cfg.suites,
            points=cfg.points,
            seed=cfg.seed,
            tol_overrides=cfg.tol_overrides,
        )
        if entry.negative and "all" not in cfg.suites:
            continue
        report = run_suite(sub)
        overall = overall and report["overall_pass"]
        runs.append(report)
    return {
        "example": "all",
        "m": cfg.m,
        "suites": list(cfg.suites),
        "points": cfg.points,
        "seed": cfg.seed,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "conventions": dict(CONVENTIONS),
        "runs": runs,
        "overall_pass": overall,
    }


# ----------------------------------------------------------------------
# deterministic serialization (17 significant digits for floats)
# ----------------------------------------------------------------------

def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(k)}: {_render(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if obj != obj:
            return '"nan"'
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def render_report(report: dict) -> str:
    return _render(report) + "\n"


def catalog_rows() -> list[dict]:
    return [
        {
            "example": e.example,
            "m": list(e.ms),
            "scal_h": e.scal_h,
            "requires": e.requires,
            "negative_control": e.negative,
            "description": e.description,
        }
        for e in CATALOG.values()
    ]
