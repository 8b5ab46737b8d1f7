"""The flat contact model and its Tanaka-Webster geometry.

theta = -dt - (1/2)(y dx - x dy) on a 3-chart is the local model of a
Webster-Ricci-flat structure: the Reeb field is -d/dt, the Webster
connection is flat, yet the Riemannian metric g_theta it induces is
curved -- the comparison identities quantify exactly how.
"""

import numpy as np

from crgeo import Chart, OneForm
from crgeo.pseudohermitian import (
    WebsterSample,
    axiom_residuals,
    comparison_identities_residual,
    make_structure,
    structure_residuals,
)

chart = Chart(["x", "y", "t"], [(-1.0, 1.0), (-1.0, 1.0), (-1.5, 1.5)])
x, y, t = chart.coordinate_fields()
theta = OneForm(chart, [y * (-0.5), x * 0.5, chart.constant(-1.0)])
base_j = np.array([[0.0, -1.0], [1.0, 0.0]])  # J e_x = e_y
ph = make_structure(chart, theta, base_j, m=1, levi_signature=(1, 0))
pts = chart.sample(8, seed=42)

# one sample holds the structure's fields, the connection, its curvature
# and the Levi frame at pts
ws = WebsterSample(ph, pts)
structure = structure_residuals(ws)
print("Reeb field (constant -d/dt):", ph.reeb(pts)[0])
print("defining-equation residual:", structure["reeb_defining"].max())

print("transversal symmetry: bracket", structure["tsph_bracket"].max(),
      " Killing", structure["tsph_killing"].max())

print("\nWebster axiom residuals (max over the sample):")
for name, value in axiom_residuals(ws).items():
    print(f"  {name:24s} {value.max():.3e}")

print("\nWebster curvature is flat:  max |R_W| =", np.abs(ws.curvature[1]).max())
print("Webster scalar:             ", np.abs(ws.ricci[1]).max())

print("\ncomparison with the Levi-Civita geometry of g_theta:")
for name, value in comparison_identities_residual(ws).items():
    print(f"  {name:24s} {value.max():.3e}")
print("(g_theta itself is curved: Ric(T,T) = m/2, encoded in ricci_reeb_tt)")
