"""Fefferman metrics: never Einstein, always conformally Einstein.

Builds the Fefferman metric of the pseudo-Hermitian Einstein structure
over the round base, exhibits its totally explicit Ricci tensor and the
parallel vertical field, then rescales by cos^{-2}(t/(m+2)) to land on
an Einstein metric -- and cross-checks against the closed-form chart
metric built independently of the whole pipeline.
"""

from crgeo.constructions import (
    anticanonical_structure,
    einstein_rescale,
    explicit_einstein_metric,
    explicit_einstein_residuals,
    fefferman_metric,
    fefferman_ricci_residual,
    make_kahler_einstein,
    pipeline_agreement_residual,
    rescale_residuals,
)

ke = make_kahler_einstein("fubini_study", m=1)  # scal_h = 2
ac = anticanonical_structure(ke)
fc = fefferman_metric(ac)
pts = fc.chart.sample(16, seed=42)

print("S_W = scal_h / (2m(m+1)) =", fc.sw)
rec = fefferman_ricci_residual(fc, pts)
print("closed-form Ricci residual:     ", rec["fefferman_ricci_closed_form"].max())
print("Ric(P,P)=m/2 etc residual:      ", rec["fefferman_ricci_components"].max())
print("parallel field nabla(T*-S_W P): ", rec["parallel_vertical_field"].max())
print("never Einstein, trace-free norm:", rec["non_einstein_certificate"].min())

rm = einstein_rescale(fc)
res = rescale_residuals(rm, pts)
print("\nconformal factor cos^-2(t/(m+2)), lambda =", rm.einstein_constant)
print("Einstein residual of the rescaled metric:", res["rescaled_einstein"].max())
print("conformal ODE residual:                  ", res["conformal_ode"].max())

t2 = explicit_einstein_metric(ke)
print("\nexplicit chart metric (independent build):")
for name, value in explicit_einstein_residuals(t2, t2.chart.sample(16, seed=42)).items():
    print(f"  {name:24s} {value.max():.3e}")
print("agreement with the pipeline under the fiber identification:",
      pipeline_agreement_residual(rm, t2, pts).max())

print("\nRicci-flat case (flat base): the rescaled metric is flat-Ricci")
ke0 = make_kahler_einstein("flat", 1)
rm0 = einstein_rescale(fefferman_metric(anticanonical_structure(ke0)))
pts0 = rm0.fc.chart.sample(16, seed=42)
print("max |Ric| =", rescale_residuals(rm0, pts0)["rescaled_einstein"].max())
