"""Fefferman metrics: never Einstein, always conformally Einstein.

Builds the Fefferman metric of the pseudo-Hermitian Einstein structure
over the round base, exhibits its totally explicit Ricci tensor and the
parallel vertical field, then rescales by cos^{-2}(t/(m+2)) to land on
an Einstein metric -- and cross-checks against the closed-form chart
metric built independently of the whole pipeline.
"""

from crgeo.verify import Pipeline

# the records of the Fefferman metric, its rescaling and Theorem 2 at 16 points: the
# Webster sample checks the Einstein condition and measures scal_W, and hands theta, the
# Levi form and the base's h and gamma over to the Fefferman sample and the explicit metrics
pipe = Pipeline("fubini_study", 1, 16, 42, records=("fefferman", "rescale", "theorem2"))  # scal_h = 2
rec = pipe.read("fefferman")

print("S_W = scal_h / (2m(m+1)) =", pipe.fc.sw)
print("closed-form Ricci residual:     ", rec["fefferman_ricci_closed_form"].max())
print("Ric(P,P)=m/2 etc residual:      ", rec["fefferman_ricci_components"].max())
print("parallel field nabla(T*-S_W P): ", rec["parallel_vertical_field"].max())
print("never Einstein, trace-free norm:", rec["non_einstein_certificate"].min())

res = pipe.read("rescale")
print("\nconformal factor cos^-2(t/(m+2)), lambda =", pipe.rm.einstein_constant)
print("Einstein residual of the rescaled metric:", res["rescaled_einstein"].max())
print("conformal ODE residual:                  ", res["conformal_ode"].max())

# the closed-form metric, assembled from h and gamma alone
t2 = pipe.read("theorem2")
print("\nexplicit chart metric (independent build):")
for name in ("explicit_einstein", "explicit_scalar", "sasaki_einstein", "sasaki_product", "sasaki_product_curvature"):
    print(f"  {name:24s} {t2[name].max():.3e}")
print("agreement with the pipeline under the fiber identification:", t2["pipeline_agreement"].max())

print("\nRicci-flat case (flat base): the rescaled metric is flat-Ricci")
flat = Pipeline("flat", 1, 16, 42, records=("rescale",))
print("max |Ric| =", flat.read("rescale")["rescaled_einstein"].max())
