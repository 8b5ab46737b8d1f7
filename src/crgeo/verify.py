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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chart import PullbackJets
from .constructions import (
    anticanonical_structure,
    base_jets,
    correction_structure_residual,
    einstein_rescale,
    explicit_einstein_metric,
    explicit_einstein_residuals,
    fefferman_expression_residual,
    fefferman_metric,
    fefferman_ricci_residual,
    fefferman_sample,
    fefferman_structure_residuals,
    gauge_shift_scal_residual,
    gauge_shifted_structure,
    make_kahler_einstein,
    make_product_base,
    perturbed_structure,
    pipeline_agreement_residual,
    rescale_residuals,
    slice_identity_residual,
    submersion_residuals,
)
from .errors import DegeneracyError, UsageError
from .metric import _christoffel_arrays, check_signature
from .pseudohermitian import (
    WebsterSample,
    axiom_residuals,
    comparison_identities_residual,
    contact_determinant,
    curvature_symmetry_residual,
    ph_einstein_residual,
    structure_residuals,
    transversal_symmetry_residual,
)

SUITES = ("webster", "comparison", "submersion", "fefferman", "rescale", "theorem2")

# the records of a Pipeline in the order a run reads them; those that read its Webster
# sample, and those that read the Fefferman sample built from it
RECORDS = ("structure", "webster", "comparison", "submersion", "fefferman", "rescale", "theorem2", "negative")
WEBSTER_READERS = {"structure", "webster", "comparison", "submersion", "negative"}
F_READERS = {"fefferman", "rescale", "theorem2"}

CONVENTIONS = {
    "laplacian": "lap(phi) = trace_g Hess(phi)",
    "imaginary_square": "(i*beta)^2 expands to -(beta o beta) for real beta",
    "gamma_orientation": "dgamma = h(., J.) with J e_x = e_y per complex pair",
    "rescale_coordinate": "t = ((m+2)/2) * s; factor cos^-2(t/(m+2)); explicit charts use t/(m+2)",
    "webster_ricci": "stored as real representative W with Ric_W = i W",
}


class CatalogEntry(NamedTuple):
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


class Check(NamedTuple):
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


def _applies(check: Check, example: str) -> bool:
    return check.entries is None or example in check.entries


class Pipeline:
    """Lazy, cached construction pipeline for one catalog entry.

    Each ``*_record`` maps check names to residuals per sample point (or to
    one sample statistic), plus the constants that checks report, read from
    arrays held once per sample: the structure's fields, the base fields
    and the jets f is built from at ``m_pts`` (``webster_sample``), from one
    ``jet_data_multi`` call that evaluates every node once, at the highest
    order read; it reads its pull-backs from one batch, ``held``.  The
    samples are nested (``Chart.sample``): ``f_pts`` is ``m_pts`` with s
    appended, so ``f_sample`` assembles f, e^{2 phi} f, phi and the
    Fefferman frame and forms from what ``webster_sample`` hands over
    (``f_inputs``), on which ``fc`` checks its Einstein precondition too,
    and ``t2_pts`` has the base coordinates of ``m_pts``, so ``t2_jets``
    assembles the explicit metrics from the base's h and gamma alone
    (``t2_base``).  No record builds a tree or makes a jet call on the
    Fefferman chart or the explicit metrics' charts.  ``records`` names the
    records a run reads (every one by default).

    A member read as an attribute is evaluated on first use and kept.  A
    run reads its records through :meth:`read`, in ``RECORDS`` order, and
    each member's lifetime ends at its last reader among them.
    ``webster_sample`` is read by the structure, webster, comparison,
    submersion and negative records, and by ``fc``, ``f_inputs`` and
    ``t2_base``, which take from it what the records of f (fefferman,
    rescale, theorem2) read: after the last of those records, and before
    the first record of f, they are formed and the sample goes as a whole,
    with ``held``.  ``f_metric`` is read by the fefferman and rescale
    records and ``f_sample`` by theorem2 too, which reads only the rescaled
    metric's values: before theorem2 ``f_metric`` and what is left of
    ``f_inputs`` go, and ``f_sample`` keeps those values alone.  The rest
    lasts as long as the pipeline.
    """

    def __init__(self, example: str, m: int, points: int, seed: int, records=None):
        # the request is checked by SuiteConfig
        self.entry = CATALOG[example]
        self.example = example
        self.m = m
        self.points = points
        self.seed = seed
        self.records = {c.record for c in CHECKS} if records is None else set(records)

    def applies(self, name: str) -> bool:
        return _applies(CHECKS_BY_NAME[name], self.example)

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
        return fefferman_metric(self.ac, self.webster_sample)

    @cached_property
    def rm(self):
        return einstein_rescale(self.fc)

    @cached_property
    def t2(self):
        return explicit_einstein_metric(self.ke)

    # -- sample points -----------------------------------------------------
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
    def held(self):
        """The jets that pull-backs read at the nested samples (:class:`PullbackJets`)."""
        return PullbackJets(self.ac.chart, self.m_pts)

    @cached_property
    def f_inputs(self):
        """What ``f_sample`` is assembled from and the fefferman record reads of ``webster_sample``
        (:meth:`WebsterSample.fefferman_inputs`); ``f_sample`` takes its jets out."""
        return self.webster_sample.fefferman_inputs()

    @cached_property
    def f_sample(self):
        """Jet data at ``f_pts`` by name, assembled from ``f_inputs`` (:func:`fefferman_sample`)."""
        return fefferman_sample(self.fc, self.f_inputs, self.f_pts)

    @cached_property
    def f_metric(self):
        """(jets, christoffel) of f at ``f_pts``: its order-2 jet data from ``f_sample`` and its
        (Gamma, f^-1), formed once for every record that reads them.  dGamma, which only the
        curvature identities read, is formed there and not held."""
        return self.f_sample["f"], _christoffel_arrays(*self.f_sample["f"][:2])

    @cached_property
    def t2_base(self):
        """The order-2 jet data of h and gamma, by name, at the base coordinates of the samples,
        taken from ``webster_sample``: all that the explicit metrics are assembled from."""
        ws = self.webster_sample
        return base_jets({name: ws.extra_jets(name) for name in ("h", "gamma")}, 2 * self.m)

    @cached_property
    def t2_jets(self):
        """Order-2 jet data of the explicit metric and of its cos^2 part at ``t2_pts``, assembled
        from ``t2_base`` (:meth:`ExplicitEinsteinMetric.jets`)."""
        return self.t2.jets(self.t2_base, self.t2_pts)

    @cached_property
    def gauge_ph(self):
        """The structure of theta + df that ``gauge_scal_invariance`` compares (:func:`gauge_shifted_structure`)."""
        return gauge_shifted_structure(self.ac)

    @cached_property
    def webster_sample(self):
        """The structure's fields, Webster connection, curvature and Levi frame at ``m_pts``, with
        the base fields where the run reads the submersion record or a record of f and the sample
        of ``gauge_ph`` where it reads the webster record and its check applies, from one call."""
        gauge = "webster" in self.records and self.applies("gauge_scal_invariance")
        siblings = (self.gauge_ph,) if gauge else ()
        # a control has no submersion or Fefferman record
        reads_f = not self.entry.negative and bool(self.records & {"fefferman", "rescale", "theorem2"})
        extra = self.ac.sample_fields if reads_f or not self.entry.negative and "submersion" in self.records else None
        return WebsterSample(self.ac.ph, self.m_pts, self.held, extra, siblings)

    # -- a run -------------------------------------------------------------
    def read(self, record: str) -> dict:
        """``<record>_record``, read as a run reads it: each record of ``records`` once, in
        ``RECORDS`` order.  First every member that neither this record nor a later one of
        ``records`` reads is released (see the class docstring)."""
        ahead = (self.records | {record}) & set(RECORDS[RECORDS.index(record):])
        kept = vars(self)
        if not ahead & WEBSTER_READERS:
            if ahead & F_READERS:
                self.fc, self.f_inputs  # what the records of f read of the sample, taken before it goes
            if "theorem2" in ahead:
                self.t2_base  # and the base fields that the explicit metrics are assembled from
            kept.pop("webster_sample", None)
            kept.pop("held", None)  # its pulled-back operands, which only Webster samples read
        if ahead == {"theorem2"}:  # which reads only the rescaled metric's values of f
            self.f_sample = {"rescaled": self.f_sample["rescaled"][:1]}
            kept.pop("f_metric", None)
            kept.pop("f_inputs", None)
        return getattr(self, f"{record}_record")

    # -- cached residual records --------------------------------------------
    @cached_property
    def structure_record(self) -> dict:
        return structure_residuals(self.webster_sample)

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
            rec["gauge_scal_invariance"] = gauge_shift_scal_residual(ws, ws.siblings[self.gauge_ph])
        return rec

    @cached_property
    def comparison_record(self) -> dict:
        return comparison_identities_residual(self.webster_sample)

    @cached_property
    def submersion_record(self) -> dict:
        return submersion_residuals(self.ac, self.webster_sample)

    @cached_property
    def fefferman_record(self) -> dict:
        data, f = self.f_sample, self.f_metric
        rec = fefferman_structure_residuals(self.fc, f, data)
        rec.update(fefferman_ricci_residual(self.fc, f, data))
        rec["fefferman_expression"] = fefferman_expression_residual(self.fc, data["f"][0], data)
        return rec

    @cached_property
    def rescale_record(self) -> dict:
        data = self.f_sample
        rec = rescale_residuals(self.rm, data["rescaled"], data["phi"])
        rec["slice_identity"] = slice_identity_residual(self.rm, self.f_pts, data["f"][0])
        rec["einstein_constant"] = self.rm.einstein_constant
        if self.applies("correction_structure"):
            rec["correction_structure"] = correction_structure_residual(self.rm, self.f_metric, data["phi"], data)
        return rec

    @cached_property
    def theorem2_record(self) -> dict:
        rec = explicit_einstein_residuals(self.t2, self.t2_jets)
        rec["pipeline_agreement"] = pipeline_agreement_residual(
            self.rm, self.t2, self.f_pts, self.f_sample["rescaled"][0], self.t2_base
        )
        try:
            check_signature(self.t2_jets[0][0], self.t2.signature)
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
            rec["control_still_tsph"] = transversal_symmetry_residual(self.webster_sample)
        if self.applies("non_tsph_detected"):
            # the contact and bracket fields alone, which need no transversal symmetry
            wsp = WebsterSample(perturbed_structure(self.ac), self.m_pts, self.held, connection=False)
            rec["non_tsph_detected"] = transversal_symmetry_residual(wsp).max()
            rec["control_still_contact"] = contact_determinant(wsp)
        return rec


class SuiteConfig:
    """One run request, checked when it is made: a bad request raises :class:`UsageError`.

    ``example`` is a catalog entry or ``all``; ``tol_overrides`` maps check
    names to tolerances.
    """

    def __init__(self, example: str, m: int, suites: tuple[str, ...] = ("all",), points: int = 32,
                 seed: int = 42, tol_overrides: dict | None = None):
        self.example = example
        self.m = m
        # a suite named twice runs and is reported once
        self.suites = tuple(dict.fromkeys(suites))
        self.points = points
        self.seed = seed
        self.tol_overrides = {} if tol_overrides is None else tol_overrides
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
            # at <= 0 an upper check fails every row and a lower check passes any residual
            if not float(tol) > 0.0:
                raise UsageError(f"tolerance override for {name!r} must be > 0, got {tol}")
        if self.example != "all" and self.example not in CATALOG:
            raise UsageError(f"unknown example {self.example!r}")
        if "all" not in self.suites:
            for s in self.suites:
                if s not in SUITES + ("negative",):
                    raise UsageError(f"unknown suite {s!r}")
        if self.example == "all" and "negative" in self.suites and "all" not in self.suites:
            controls = [e.example for e in CATALOG.values() if e.negative and self.m in e.ms]
            raise UsageError(
                "with --example all the negative controls run under --suite all; "
                f"or run a control entry on its own: --example {' / '.join(controls)}"
            )
        for example in self.examples():
            entry = CATALOG[example]
            suites = self.resolved_suites(example)
            if entry.negative and any(s != "negative" for s in suites):
                raise UsageError(
                    f"example {example!r} is a negative control; run it with --suite all"
                )
            if self.m not in entry.ms:
                raise UsageError(f"example {example!r} supports m in {entry.ms}, got {self.m}")
            if not self.selected_checks(example):
                raise UsageError(
                    f"suites {','.join(suites) or '(none)'} select no check "
                    f"for example {example!r}"
                )
        # an override of a check that no entry of the run selects would be dropped unseen
        selected = {c.name for example in self.examples() for c in self.selected_checks(example)}
        for name in self.tol_overrides:
            if name not in selected:
                raise UsageError(
                    f"tolerance override for {name!r}: the check is not selected by "
                    f"--example {self.example} --suite {','.join(self.suites)} at m={self.m}"
                )

    def examples(self) -> list[str]:
        """The catalog entries the run covers: one, or every entry of ``all`` at this m."""
        if self.example != "all":
            return [self.example]
        return [
            name for name, entry in CATALOG.items()
            if self.m in entry.ms and (not entry.negative or "all" in self.suites)
        ]

    def resolved_suites(self, example: str | None = None) -> tuple[str, ...]:
        """The suites run for a single catalog entry, ``self.example`` by default."""
        example = example or self.example
        if "all" in self.suites:
            return ("negative",) if CATALOG[example].negative else SUITES
        return self.suites

    def selected_checks(self, example: str | None = None) -> list[Check]:
        """The checks run for a single catalog entry, ``self.example`` by default, in
        report order."""
        example = example or self.example
        suites = self.resolved_suites(example)
        return [c for c in CHECKS if c.suite in suites and _applies(c, example)]


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute the checks of one catalog entry; returns the report document.

    An exception inside a record fails each of its rows, with the error
    named; a MemoryError ends the run instead.
    """
    return _run_entry(cfg, cfg.example)


def run_all(cfg: SuiteConfig) -> dict:
    """Run every catalog entry supporting the requested m."""
    runs = [_run_entry(cfg, name) for name in cfg.examples()]
    return _report(cfg, "all", cfg.suites, runs=runs, overall_pass=all(r["overall_pass"] for r in runs))


def _run_entry(cfg: SuiteConfig, example: str) -> dict:
    """The report of the checks ``cfg`` selects for one catalog entry, as :func:`run_suite`."""
    selected = cfg.selected_checks(example)
    pipe = Pipeline(example, cfg.m, cfg.points, cfg.seed, {c.record for c in selected})
    records = {}  # each record the run reads, or the error that fails each of its rows
    for record in RECORDS:
        if record in pipe.records:
            try:
                records[record] = pipe.read(record)
            except MemoryError:
                raise  # a run too large for this machine fails as a whole, not check by check
            except Exception as exc:
                records[record] = f"{type(exc).__name__}: {exc}"
    checks_out = []
    overall = True
    for check in selected:
        tol = float(cfg.tol_overrides.get(check.name, check.tol))
        rec = records[check.record]
        residual, value, error = float("nan"), None, rec if isinstance(rec, str) else None
        if error is None:
            try:
                # a missing residual is a failed row
                if check.name not in rec:
                    raise LookupError(f"the {check.record} record has no residual {check.name!r}")
                per_point = np.asarray(rec[check.name])
                residual = float(per_point.min() if check.kind == "lower" else per_point.max())
                value = float(rec[check.value]) if check.value else None
            except MemoryError:
                raise
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
    return _report(cfg, example, cfg.resolved_suites(example), checks=checks_out, overall_pass=overall)


def _report(cfg: SuiteConfig, example: str, suites, **body) -> dict:
    """The report document of a run request: its header, then ``body`` in order."""
    return {
        "example": example,
        "m": cfg.m,
        "suites": list(suites),
        "points": cfg.points,
        "seed": cfg.seed,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "conventions": dict(CONVENTIONS),
        **body,
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
        if not math.isfinite(obj):
            return f'"{obj}"'  # "nan", "inf" and "-inf": JSON has no literal for them
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
