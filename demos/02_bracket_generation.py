"""Lie brackets and the spanning property behind expressivity.

Two rotation generators are enough on the sphere because their bracket
supplies the third direction; on the rotation group all three are used
directly.  The bracket-generating test below is the numerical version of
the controllability hypothesis: iterated brackets must span the tangent
space at every point.
"""

import numpy as np

from georesnet import lie, manifolds

print("bracket of the z and y rotation fields (computed as a commutator):")
bracket = lie.lie_bracket_linear(lie.ROT_Z, lie.ROT_Y)
print(bracket.matrix)
print(f"equals the x rotation field exactly: "
      f"{np.array_equal(bracket.matrix, lie.ROT_X.matrix)}\n")

gens = lie.standard_generators(manifolds.SPHERE2)
print(f"sphere generators: {[f.name for f in gens.fields]}")
hull0 = lie.lie_hull(gens, depth=0)
hull1 = lie.lie_hull(gens, depth=1)
print(f"hull sizes: depth 0 -> {len(hull0)} fields, depth 1 -> {len(hull1)}\n")

# the two generators alone leave a dead direction at the poles of their
# axes; one bracket level repairs that everywhere
north = np.array([0.0, 0.0, 1.0])
print("at the north pole:")
print(f"  depth 0 spanning: {lie.bracket_generating_at(gens, north, depth=0)}")
print(f"  depth 1 spanning: {lie.bracket_generating_at(gens, north, depth=1)}")

rng = np.random.default_rng(0)
pts = manifolds.sample_uniform(manifolds.SPHERE2, rng, 1000)
ok = sum(lie.bracket_generating_at(gens, p, depth=1) for p in pts)
print(f"\ndepth-1 spanning holds at {ok}/1000 random sphere points")

gens3 = lie.standard_generators(manifolds.SO3)
rots = manifolds.sample_uniform(manifolds.SO3, rng, 100)
ok3 = sum(lie.bracket_generating_at(gens3, r, depth=0) for r in rots)
print(f"three generators span directly at {ok3}/100 random rotations")

print("\nevery generator is skew, so its field B x (B X on SO(3)) is tangent")
print("at every point, which is what keeps the flows on the manifold:")
for f in gens3.fields:
    print(f"  {f.name}: B + B^T == 0 exactly: {np.array_equal(f.matrix + f.matrix.T, np.zeros((3, 3)))}")
