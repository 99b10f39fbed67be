"""Linear vector fields, Lie brackets, and the bracket-generating rank test.

A linear field is x -> B x on the sphere; on SO(3) the same matrix acts by
left multiplication, X -> B X.  Skew B makes the field tangent in both
cases.

Bracket convention.  For fields f(x) = B x and g(x) = C x we define

    [f, g](x) = (C B - B C) x,

i.e. the bracket's matrix is the commutator taken in the order CB - BC.
Under this convention the three standard generators below close as
[rot_z, rot_y] = rot_x (and cyclic); mind the order, the opposite
convention flips every sign.  Spans, and hence the rank test, do not care.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import manifolds
from .errors import InvalidConfig
from .linalg import axial_from_skew, skew_from_axial

# Relative singular-value cutoff for the numerical rank decisions; relative
# so that rescaling all generators leaves the decisions unchanged.
RANK_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class LinearField:
    """A matrix acting as a vector field (B x, or B X on SO(3))."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if self.matrix.shape != (3, 3):
            raise InvalidConfig("linear fields are 3x3 matrices")


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """An ordered family of linear fields on one manifold."""

    fields: tuple
    kind: str = manifolds.SPHERE2

    def __post_init__(self):
        manifolds.check_kind(self.kind)
        object.__setattr__(self, "fields", tuple(self.fields))
        if not self.fields:
            raise InvalidConfig("generator set must be nonempty")

    @cached_property
    def matrices(self):
        """Stacked generator matrices, shape (m, 3, 3).  Do not mutate."""
        out = np.stack([f.matrix for f in self.fields])
        out.flags.writeable = False
        return out

    @cached_property
    def axials(self):
        """Axial coordinates of the generators, one row per field."""
        out = axial_from_skew(self.matrices)
        out.flags.writeable = False
        return out


ROT_Z = LinearField(skew_from_axial([0.0, 0.0, 1.0]), name="rot_z")
ROT_Y = LinearField(skew_from_axial([0.0, 1.0, 0.0]), name="rot_y")
ROT_X = LinearField(skew_from_axial([1.0, 0.0, 0.0]), name="rot_x")


def standard_generators(kind):
    """The benchmark generator sets: (rot_z, rot_y) on S2, all three on SO(3)."""
    manifolds.check_kind(kind)
    if kind == manifolds.SPHERE2:
        return GeneratorSet((ROT_Z, ROT_Y), kind)
    return GeneratorSet((ROT_Z, ROT_Y, ROT_X), kind)


def lie_bracket_linear(f, g):
    """Bracket of two linear fields; see the module docstring for the order."""
    b, c = f.matrix, g.matrix
    return LinearField(c @ b - b @ c)


def lie_hull(gens, depth):
    """A basis of the span of the generators and their brackets up to depth.

    Depth 0 spans the generators themselves.  Each level brackets all pairs
    of the fields kept so far, and keeps a field only if it is linearly
    independent of those before it: the hull feeds a span computation, and
    without the test the sphere's hull grows 2, 6, 42, 1806 fields by depth 3.
    """
    if depth < 0:
        raise InvalidConfig("hull depth must be nonnegative")
    hull = []
    for f in gens.fields:
        _append_independent(hull, f)
    for _ in range(depth):
        current = list(hull)
        for f in current:
            for g in current:
                _append_independent(hull, lie_bracket_linear(f, g))
    return hull


def _rank(rows):
    """Numerical rank: singular values above RANK_CUTOFF times the largest."""
    sing = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sing > RANK_CUTOFF * sing[0]))


def _append_independent(hull, candidate):
    """Append the field if it raises the rank of the flattened hull matrices."""
    rows = np.stack([f.matrix.ravel() for f in (*hull, candidate)])
    if _rank(rows) > len(hull):
        hull.append(candidate)


def bracket_generating_at(gens, point, depth=2):
    """Whether the hull fields span the full tangent space at the point.

    Evaluates every hull field at the point, stacks the (flattened) values
    and compares their numerical rank with the manifold's tangent dimension.
    """
    point = np.asarray(point, dtype=float)
    manifolds.check_on_manifold(gens.kind, point, "point")
    hull = lie_hull(gens, depth)
    rows = (np.stack([f.matrix for f in hull]) @ point).reshape(len(hull), -1)
    return _rank(rows) == manifolds.tangent_dim(gens.kind)
