"""Lie brackets and the spanning property behind expressivity.

Two rotation generators are enough on the sphere because their bracket
supplies the third direction; on the rotation group all three are used
directly.  The bracket-generating test below is the numerical version of
the controllability hypothesis: iterated brackets must span the tangent
space at every point.
"""

import numpy as np

from georesnet import lie, manifolds
from georesnet.linalg import skew_from_axial

print("bracket of the z and y rotation fields (computed as a commutator):")
bracket = lie.lie_bracket(lie.ROT_Z, lie.ROT_Y)
# skew_from_axial negates zeros into -0.0; adding 0.0 prints them as 0.
print(skew_from_axial(bracket) + 0.0)
print(f"equals the x rotation field exactly: "
      f"{np.array_equal(bracket, lie.ROT_X)}\n")

gens = lie.standard_generators(manifolds.SPHERE2)
print(f"sphere generators: {list(gens.names)}")
hull0 = lie.lie_hull(gens, depth=0)
hull1 = lie.lie_hull(gens, depth=1)
print(f"hull sizes: depth 0 -> {len(hull0)} fields, depth 1 -> {len(hull1)}\n")

# the two generators alone leave a dead direction at the poles of their
# axes; one bracket level repairs that everywhere
north = np.array([0.0, 0.0, 1.0])
print("at the north pole:")
print(f"  depth 0 spanning: {lie.bracket_generating_at(gens, north[None], depth=0)[0]}")
print(f"  depth 1 spanning: {lie.bracket_generating_at(gens, north[None], depth=1)[0]}")

# one call per point set: the hull is built once and every point gets a verdict
rng = np.random.default_rng(0)
pts = manifolds.sample_uniform(manifolds.SPHERE2, rng, 1000)
ok = int(np.sum(lie.bracket_generating_at(gens, pts, depth=1)))
print(f"\ndepth-1 spanning holds at {ok}/1000 random sphere points")

gens3 = lie.standard_generators(manifolds.SO3)
rots = manifolds.sample_uniform(manifolds.SO3, rng, 100)
ok3 = int(np.sum(lie.bracket_generating_at(gens3, rots, depth=0)))
print(f"three generators span directly at {ok3}/100 random rotations")

print("\nevery generator is skew, so its field B x (B X on SO(3)) is tangent")
print("at every point, which is what keeps the flows on the manifold:")
for name, b in zip(gens3.names, skew_from_axial(gens3.axials)):
    print(f"  {name}: B + B^T == 0 exactly: {np.array_equal(b + b.T, np.zeros((3, 3)))}")
