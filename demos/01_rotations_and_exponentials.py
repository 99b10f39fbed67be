"""Rotation coordinates and the closed-form matrix exponential.

Every tangent field used by the geometric net is a skew matrix acting on
the state, and every layer advances by the exponential of one such
matrix.  This script shows the axial <-> skew correspondence, checks the
Rodrigues-form exponential against scipy's general-purpose one, and
measures how exactly the result stays a rotation across angle scales.
"""

import numpy as np

from georesnet.linalg import expm_dense, expm_skew3, skew_from_axial
from georesnet.manifolds import SO3, defect

rng = np.random.default_rng(0)

print("axial vector (0, 0, 1) maps to the generator of rotation about z:")
print(skew_from_axial(np.array([0.0, 0.0, 1.0])), "\n")

rng.standard_normal(3)  # one unused draw, so the random axes below keep their values

# a quarter turn about z sends e1 to e2
quarter = expm_skew3(np.array([0.0, 0.0, np.pi / 2]))
print("quarter turn about z applied to e1:", quarter @ np.array([1.0, 0.0, 0.0]))

print("\nclosed form vs scipy's scaling-and-squaring, 200 random axes:")
worst = 0.0
for _ in range(200):
    omega = rng.uniform(-5.0, 5.0, 3)
    dense = expm_dense(skew_from_axial(omega))
    worst = max(worst, float(np.linalg.norm(expm_skew3(omega) - dense)))
print(f"  worst Frobenius deviation {worst:.3e}")

print("\northogonality defect of the exponential across angle scales:")
for scale in (1e-12, 1e-8, 1e-4, 1.0, 10.0, 1000.0):
    omega = scale * rng.standard_normal((100, 3))
    worst = float(np.max(defect(SO3, expm_skew3(omega))))
    print(f"  |omega| ~ {scale:8.0e}: defect {worst:.3e}")
print("\nthe small-angle series and the closed form hand over at 1e-4 rad;")
print("either way the output is a rotation to machine precision.")
