"""From a Kaehler-Einstein base to a pseudo-Hermitian Einstein space.

Over the round projective line (scal_h = 2) the induced contact
structure on the circle-bundle chart has Webster scalar scal_h / 2 = 1
and Webster-Ricci proportional to dtheta.  The same machinery run over a
non-Einstein product base fails the Einstein residual -- by an amount
of order one, not rounding.
"""

from crgeo.constructions import (
    anticanonical_structure,
    make_kahler_einstein,
    make_product_base,
    submersion_residuals,
)
from crgeo.pseudohermitian import ph_einstein_residual

for kind in ("fubini_study", "complex_hyperbolic", "flat"):
    ke = make_kahler_einstein(kind, m=1)
    ac = anticanonical_structure(ke)
    pts = ac.chart.sample(16, seed=42)
    ein = ph_einstein_residual(ac.webster.at(pts))
    print(f"{kind:22s} scal_h = {ke.scal_h:+.1f}   scal_W = {ein['scal_mean']:+.12f}"
          f"   Einstein residual = {ein['webster_einstein'].max():.2e}")

print("\nRiemannian submersion relations over the round base:")
ke = make_kahler_einstein("fubini_study", 1)
ac = anticanonical_structure(ke)
sub = submersion_residuals(ac, ac.webster.at(ac.chart.sample(16, seed=42)))
print("  Ric(T,T) = m/2:       ", sub["submersion_reeb_tt"].max())
print("  Ric(T, X*) = 0:       ", sub["submersion_reeb_mixed"].max())
print("  Ric_h from upstairs:  ", sub["submersion_base"].max())
print("  Ric_h = -W(X*, JY*):  ", sub["submersion_webster"].max())

print("\nnegative control (sphere x flat base, m = 2):")
prod = make_product_base()
acp = anticanonical_structure(prod)
einp = ph_einstein_residual(acp.webster.at(acp.chart.sample(16, seed=42)))
print("  Einstein residual =", round(float(einp["webster_einstein"].max()), 4),
      " (order one, as it must be)")
