"""Rotation generators as axial vectors, their brackets, and the
bracket-generating rank test.

A generator is held by its axial vector a; it acts as the field x ->
skew(a) x on the sphere, or X -> skew(a) X on SO(3), which a skew matrix
keeps tangent.  Fields become matrices only where they are evaluated.

Bracket convention.  For fields f(x) = B x and g(x) = C x we define

    [f, g](x) = (C B - B C) x,

the commutator in the order CB - BC.  With B = skew(a) and C = skew(b) that
is skew(b x a): the bracket is a cross product, lie_bracket(a, b) =
cross(b, a).  Under this convention the three standard generators close as
[rot_z, rot_y] = rot_x (and cyclic); mind the order, the opposite
convention flips every sign.  Spans, and hence the rank test, do not care.
"""

from dataclasses import dataclass

import numpy as np

from . import manifolds
from .errors import InvalidConfig
from .linalg import skew_from_axial

# Relative singular-value cutoff for the numerical rank decisions; relative
# so that rescaling all generators leaves the decisions unchanged.
RANK_CUTOFF = 1e-10


def _read_only(values):
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Named generators on one manifold; axials is a read-only (m, 3) copy, a row per name."""

    names: tuple
    axials: np.ndarray
    kind: str = manifolds.SPHERE2

    def __post_init__(self):
        manifolds.check_kind(self.kind)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "axials", _read_only(self.axials))
        if not self.names or self.axials.shape != (len(self.names), 3):
            raise InvalidConfig(f"generator set must be nonempty, with one axial row per "
                                f"name; got {len(self.names)} names, axials {self.axials.shape}")


ROT_Z = _read_only([0.0, 0.0, 1.0])
ROT_Y = _read_only([0.0, 1.0, 0.0])
ROT_X = _read_only([1.0, 0.0, 0.0])


def standard_generators(kind):
    """The benchmark generator sets: (rot_z, rot_y) on S2, all three on SO(3)."""
    manifolds.check_kind(kind)
    if kind == manifolds.SPHERE2:
        return GeneratorSet(("rot_z", "rot_y"), (ROT_Z, ROT_Y), kind)
    return GeneratorSet(("rot_z", "rot_y", "rot_x"), (ROT_Z, ROT_Y, ROT_X), kind)


def lie_bracket(a, b):
    """Axial vector of the bracket [a, b]; see the module docstring for the order."""
    return np.cross(b, a)


def lie_hull(gens, depth):
    """A basis of the span of the generators and their brackets up to depth,
    as axial rows, shape (h, 3).

    Depth 0 keeps each generator linearly independent of those kept before
    it.  Every depth from 1 on gives one hull: a bracket is a cross product,
    so only the bracket of exactly two kept fields can add a field, and the
    same rank test decides.
    """
    if depth < 0:
        raise InvalidConfig("hull depth must be nonnegative")
    hull = []
    for a in gens.axials:
        _append_independent(hull, a)
    if depth > 0 and len(hull) == 2:
        _append_independent(hull, lie_bracket(*hull))
    return np.reshape(hull, (len(hull), 3))


def _rank(rows):
    """Numerical rank of each matrix in a stack: singular values above
    RANK_CUTOFF times the largest."""
    sing = np.linalg.svd(rows, compute_uv=False)
    return np.sum(sing > RANK_CUTOFF * sing[..., :1], axis=-1)


def _append_independent(hull, candidate):
    """Append the axial row if it raises the rank of the hull's rows."""
    if _rank(np.stack((*hull, candidate))) > len(hull):
        hull.append(candidate)


def bracket_generating_at(gens, points, depth=2):
    """Whether the hull fields span the full tangent space, at each point.

    points is a batch of manifold points; the result holds one verdict per
    point.  The hull, the same at every depth >= 1, is built once; every
    hull field is evaluated at every point, and the numerical rank of each
    point's stacked (flattened) values is compared with the manifold's
    tangent dimension.  An empty hull (all generators zero) spans nothing,
    and an empty batch gets no verdicts.
    """
    points = np.asarray(points, dtype=float)
    shape = manifolds.point_shape(gens.kind)
    if points.shape[1:] != shape:
        raise InvalidConfig(f"points must be a batch of {gens.kind} points, shape (P,) + "
                            f"{shape}, got {points.shape}")
    manifolds.check_on_manifold(gens.kind, points, "point")
    hull = lie_hull(gens, depth)
    # (h, 3, 3) @ (P, 1, 3, k): field h at point p, k = 1 on S2 and 3 on SO(3);
    # sizes are explicit because -1 cannot be inferred for zero points
    d = manifolds.ambient_dim(gens.kind)
    values = skew_from_axial(hull) @ points.reshape(len(points), 1, 3, d // 3)
    return _rank(values.reshape(len(points), len(hull), d)) == manifolds.tangent_dim(gens.kind)
