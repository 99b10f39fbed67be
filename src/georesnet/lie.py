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
from .linalg import skew_from_axial

# Relative singular-value cutoff for the numerical rank decision; relative
# so that rescaling all generators leaves the decision unchanged.
RANK_CUTOFF = 1e-10

# Normalized-distance threshold under which two fields count as duplicates.
DEDUP_TOL = 1e-10


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
        from .linalg import axial_from_skew

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
    """Generators plus iterated brackets up to the given depth.

    Depth 0 returns the generators themselves.  Each level brackets all
    pairs accumulated so far.  Fields that are numerically zero, or equal
    to an existing one up to scale (sign included), are dropped: the hull
    feeds a span computation, for which such elements are redundant.
    """
    if depth < 0:
        raise InvalidConfig("hull depth must be nonnegative")
    hull = []
    scale = max(np.linalg.norm(f.matrix) for f in gens.fields)
    for f in gens.fields:
        _append_novel(hull, f, scale * scale)
    for _ in range(depth):
        current = list(hull)
        for f in current:
            for g in current:
                _append_novel(hull, lie_bracket_linear(f, g),
                              np.linalg.norm(f.matrix) * np.linalg.norm(g.matrix))
    return hull


def _append_novel(hull, candidate, zero_scale):
    norm = np.linalg.norm(candidate.matrix)
    if norm <= 1e-12 * max(zero_scale, 1e-300):
        return
    unit = candidate.matrix / norm
    # canonical sign: first nonzero entry positive, so B and -B collide
    flat = unit.ravel()
    lead = flat[np.nonzero(np.abs(flat) > 1e-14)[0][0]]
    if lead < 0:
        unit = -unit
    for existing in hull:
        other = existing.matrix / np.linalg.norm(existing.matrix)
        oflat = other.ravel()
        olead = oflat[np.nonzero(np.abs(oflat) > 1e-14)[0][0]]
        if olead < 0:
            other = -other
        if np.linalg.norm(unit - other) < DEDUP_TOL:
            return
    hull.append(candidate)


def field_values_at(fields, kind, point):
    """Evaluate each field at a point, flattened to ambient coordinates."""
    mats = np.stack([f.matrix for f in fields])
    if kind == manifolds.SPHERE2:
        return mats @ np.asarray(point, dtype=float)
    return (mats @ np.asarray(point, dtype=float)).reshape(len(fields), 9)


def bracket_generating_at(gens, point, depth=2):
    """Whether the hull fields span the full tangent space at the point.

    Evaluates every hull field at the point, stacks the (flattened) values
    and compares their numerical rank, SVD singular values above
    RANK_CUTOFF times the largest, with the manifold's tangent dimension.
    """
    point = np.asarray(point, dtype=float)
    manifolds.check_on_manifold(gens.kind, point, "point")
    rows = field_values_at(lie_hull(gens, depth), gens.kind, point)
    sing = np.linalg.svd(rows, compute_uv=False)
    if sing[0] == 0.0:
        return False
    rank = int(np.sum(sing > RANK_CUTOFF * sing[0]))
    return rank == manifolds.tangent_dim(gens.kind)


def verify_tangency(f, kind, point):
    """Defect of tangency of a field value at a manifold point.

    S2: |x^T B x|, which vanishes iff B x is orthogonal to x.  SO(3):
    ||sym(X^T B X)||_F, which vanishes iff X^T B X is skew, i.e. iff B X
    lies in the tangent space at X.  Zero for skew B in both cases.
    """
    point = np.asarray(point, dtype=float)
    manifolds.check_on_manifold(kind, point, "point")
    if kind == manifolds.SPHERE2:
        return float(np.abs(point @ f.matrix @ point))
    conj = point.T @ f.matrix @ point
    sym = 0.5 * (conj + conj.T)
    return float(np.linalg.norm(sym))
