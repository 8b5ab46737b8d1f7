"""Fefferman metrics: never Einstein, always conformally Einstein.

Builds the Fefferman metric of the pseudo-Hermitian Einstein structure
over the round base, exhibits its totally explicit Ricci tensor and the
parallel vertical field, then rescales by cos^{-2}(t/(m+2)) to land on
an Einstein metric -- and cross-checks against the closed-form chart
metric built independently of the whole pipeline.
"""

from crgeo.chart import jet_data_multi
from crgeo.constructions import (
    anticanonical_structure,
    einstein_rescale,
    explicit_einstein_metric,
    explicit_einstein_residuals,
    fefferman_metric,
    fefferman_ricci_residual,
    fefferman_sample,
    make_kahler_einstein,
    pipeline_agreement_residual,
    rescale_residuals,
)
from crgeo.metric import levi_civita_arrays
from crgeo.pseudohermitian import WebsterSample

ke = make_kahler_einstein("fubini_study", m=1)  # scal_h = 2
ac = anticanonical_structure(ke)
# the Webster sample checks the Einstein condition and measures scal_W; the
# Fefferman points below extend its points by s (Chart.sample is nested).  It
# also holds theta, the Levi form and the base metric h, which it hands over,
# with the Webster values that the Fefferman rows read, to the Fefferman sample
ws = WebsterSample(ac.ph, ac.chart.sample(16, seed=42), extra={"h": ac.sample_fields["h"]})
fc = fefferman_metric(ac, ws)
pts = fc.chart.sample(16, seed=42)
rm = einstein_rescale(fc)
# f, e^{2 phi} f and phi, and the frame, forms and base metric, by name: each
# pull-back of a contact-chart field has zero s-partials and phi depends on s
# alone, so the product rule gives them all, with no jet evaluation at pts
fields = fefferman_sample(fc, ws.fefferman_inputs(), pts)
f_jets, rm_jets, phi_jets = fields["f"], fields["rescaled"], fields["phi"]

print("S_W = scal_h / (2m(m+1)) =", fc.sw)
# f's jets travel with its symbols and inverse, formed once for every reader
gamma_f, _, finv = levi_civita_arrays(*f_jets)
rec = fefferman_ricci_residual(fc, (f_jets, (gamma_f, finv)), fields)
print("closed-form Ricci residual:     ", rec["fefferman_ricci_closed_form"].max())
print("Ric(P,P)=m/2 etc residual:      ", rec["fefferman_ricci_components"].max())
print("parallel field nabla(T*-S_W P): ", rec["parallel_vertical_field"].max())
print("never Einstein, trace-free norm:", rec["non_einstein_certificate"].min())

res = rescale_residuals(rm, rm_jets, phi_jets)
print("\nconformal factor cos^-2(t/(m+2)), lambda =", rm.einstein_constant)
print("Einstein residual of the rescaled metric:", res["rescaled_einstein"].max())
print("conformal ODE residual:                  ", res["conformal_ode"].max())

t2 = explicit_einstein_metric(ke)
t2_pts = t2.chart.sample(16, seed=42)
t2_jets = jet_data_multi(t2.checked_metrics, t2_pts, 2)
print("\nexplicit chart metric (independent build):")
for name, value in explicit_einstein_residuals(t2, t2_pts, t2_jets).items():
    print(f"  {name:24s} {value.max():.3e}")
print("agreement with the pipeline under the fiber identification:",
      pipeline_agreement_residual(rm, t2, pts, rm_jets[0]).max())

print("\nRicci-flat case (flat base): the rescaled metric is flat-Ricci")
ac0 = anticanonical_structure(make_kahler_einstein("flat", 1))
ws0 = WebsterSample(ac0.ph, ac0.chart.sample(16, seed=42), extra={"h": ac0.sample_fields["h"]})
rm0 = einstein_rescale(fefferman_metric(ac0, ws0))
fields0 = fefferman_sample(rm0.fc, ws0.fefferman_inputs(), rm0.fc.chart.sample(16, seed=42))
print("max |Ric| =", rescale_residuals(rm0, fields0["rescaled"], fields0["phi"])["rescaled_einstein"].max())
