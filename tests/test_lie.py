"""Brackets of axial generators, hulls, tangency, and the spanning rank test."""

import numpy as np
import pytest

from georesnet import lie, manifolds
from georesnet.errors import InvalidConfig, OffManifold
from georesnet.linalg import skew_from_axial

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def generator_set(axials, kind=manifolds.SPHERE2):
    return lie.GeneratorSet([f"g{i}" for i in range(len(axials))], axials, kind)


# --- bracket ----------------------------------------------------------------

def test_bracket_with_itself_vanishes():
    a = np.random.default_rng(0).standard_normal(3)
    assert np.array_equal(lie.lie_bracket(a, a), np.zeros(3))


def test_bracket_of_z_and_y_generators_is_x_generator():
    # entries are integers, so the identity holds without rounding
    assert np.array_equal(lie.lie_bracket(lie.ROT_Z, lie.ROT_Y), lie.ROT_X)


def test_bracket_closes_cyclically():
    assert np.array_equal(lie.lie_bracket(lie.ROT_Y, lie.ROT_X), lie.ROT_Z)
    assert np.array_equal(lie.lie_bracket(lie.ROT_X, lie.ROT_Z), lie.ROT_Y)


def test_bracket_antisymmetry():
    a, b = np.random.default_rng(1).standard_normal((2, 3))
    assert np.array_equal(lie.lie_bracket(a, b), -lie.lie_bracket(b, a))


def test_bracket_bilinearity():
    a, b, c = np.random.default_rng(2).standard_normal((3, 3))
    lhs = lie.lie_bracket(2.0 * a - 0.5 * b, c)
    rhs = 2.0 * lie.lie_bracket(a, c) - 0.5 * lie.lie_bracket(b, c)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_jacobi_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = rng.standard_normal((3, 3))
        total = lie.lie_bracket(a, lie.lie_bracket(b, c)) \
            + lie.lie_bracket(b, lie.lie_bracket(c, a)) \
            + lie.lie_bracket(c, lie.lie_bracket(a, b))
        assert np.max(np.abs(total)) <= 1e-12


def test_bracket_is_the_commutator_of_the_skew_matrices():
    # [f, g] has the matrix C B - B C for f = B x and g = C x
    rng = np.random.default_rng(4)
    for a, b in rng.standard_normal((100, 2, 3)):
        B, C = skew_from_axial(a), skew_from_axial(b)
        assert np.max(np.abs(skew_from_axial(lie.lie_bracket(a, b)) - (C @ B - B @ C))) <= 1e-15


# --- hull -------------------------------------------------------------------

def test_hull_depth_zero_returns_the_generators():
    gens = lie.standard_generators(manifolds.SPHERE2)
    assert np.array_equal(lie.lie_hull(gens, 0), gens.axials)


def test_hull_depth_one_produces_the_third_generator():
    hull = lie.lie_hull(lie.standard_generators(manifolds.SPHERE2), 1)
    assert any(np.array_equal(row, lie.ROT_X) for row in hull)


def test_hull_of_single_generator_never_grows():
    gens = generator_set([lie.ROT_Z])
    for depth in (0, 1, 3):
        assert np.array_equal(lie.lie_hull(gens, depth), [lie.ROT_Z])


def test_hull_drops_scaled_and_negated_duplicates():
    gens = generator_set([lie.ROT_Z, -2.0 * lie.ROT_Z, lie.ROT_Y])
    assert len(lie.lie_hull(gens, 0)) == 2


def test_hull_saturates_on_the_full_algebra():
    # so(3) is 3-dimensional, so deeper hulls cannot keep growing
    hull2 = lie.lie_hull(lie.standard_generators(manifolds.SPHERE2), 2)
    hull4 = lie.lie_hull(lie.standard_generators(manifolds.SPHERE2), 4)
    assert len(hull2) == 3
    assert len(hull4) == 3


def test_hull_rejects_negative_depth():
    with pytest.raises(InvalidConfig):
        lie.lie_hull(lie.standard_generators(manifolds.SPHERE2), -1)


# --- bracket_generating_at --------------------------------------------------

def test_generating_at_north_pole_needs_the_bracket():
    gens = lie.standard_generators(manifolds.SPHERE2)
    # at e3 the z-rotation field vanishes; the other generator gives
    # (1, 0, 0) and the bracket field gives (0, -1, 0), spanning the
    # tangent plane
    assert np.array_equal(skew_from_axial(lie.ROT_Z) @ E3, np.zeros(3))
    assert np.array_equal(skew_from_axial(lie.ROT_Y) @ E3, [1.0, 0.0, 0.0])
    assert np.array_equal(skew_from_axial(lie.ROT_X) @ E3, [0.0, -1.0, 0.0])
    assert np.array_equal(lie.bracket_generating_at(gens, E3[None], depth=1), [True])


def test_single_generator_is_never_generating():
    gens = generator_set([lie.ROT_Z])
    assert not lie.bracket_generating_at(gens, np.stack([E1, E3]), depth=3).any()


def test_rank_decision_survives_extreme_rescaling():
    rng = np.random.default_rng(6)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 20)
    for scale in (1e-3, 1e3):
        gens = generator_set(scale * lie.standard_generators(manifolds.SPHERE2).axials)
        assert lie.bracket_generating_at(gens, x, depth=1).all()


def test_generating_rejects_off_manifold_points():
    gens = lie.standard_generators(manifolds.SPHERE2)
    with pytest.raises(OffManifold):
        lie.bracket_generating_at(gens, np.stack([E3, 1.5 * E1]), depth=1)


def test_generating_rejects_non_finite_points():
    gens = lie.standard_generators(manifolds.SPHERE2)
    with pytest.raises(OffManifold):
        lie.bracket_generating_at(gens, np.array([[np.nan, 0.0, 1.0]]), depth=1)


def test_generating_gives_one_verdict_per_point():
    # at depth 0 the two sphere generators leave e3 short of a direction
    # (the z field vanishes there) but span the tangent plane at e1
    gens = lie.standard_generators(manifolds.SPHERE2)
    pts = np.stack([E3, E1, E3])
    assert np.array_equal(lie.bracket_generating_at(gens, pts, depth=0), [False, True, False])
    assert np.array_equal(lie.bracket_generating_at(gens, pts, depth=1), [True, True, True])
    with pytest.raises(InvalidConfig, match="batch"):
        lie.bracket_generating_at(gens, E1, depth=1)


def test_generating_gives_no_verdicts_on_an_empty_batch():
    for kind in manifolds.KINDS:
        points = np.empty((0,) + manifolds.point_shape(kind))
        for depth in (0, 2):
            verdicts = lie.bracket_generating_at(lie.standard_generators(kind), points, depth)
            assert verdicts.shape == (0,) and verdicts.dtype == bool


def test_batched_verdicts_equal_the_per_point_rank():
    # the reference is one rank decision per point, as a loop
    rng = np.random.default_rng(9)
    pair = lie.GeneratorSet(("rot_z", "rot_y"), (lie.ROT_Z, lie.ROT_Y), manifolds.SO3)
    for gens in (lie.standard_generators(manifolds.SPHERE2), pair,
                 lie.standard_generators(manifolds.SO3)):
        pts = manifolds.sample_uniform(gens.kind, rng, 50)
        if gens.kind == manifolds.SPHERE2:
            pts = np.concatenate([pts, np.eye(3)])
        for depth in (0, 1):
            hull = np.stack(commutator_hull(gens.axials, depth))
            expected = [matrix_rank((hull @ p).reshape(len(hull), -1))
                        == manifolds.tangent_dim(gens.kind) for p in pts]
            assert np.array_equal(lie.bracket_generating_at(gens, pts, depth), expected)


def test_zero_generators_span_nothing():
    # an all-zero generator set has an empty hull, at any depth
    for kind in manifolds.KINDS:
        gens = generator_set(np.zeros((2, 3)), kind)
        pts = manifolds.sample_uniform(kind, np.random.default_rng(8), 3)
        for depth in (0, 2):
            assert lie.lie_hull(gens, depth).shape == (0, 3)
            assert np.array_equal(lie.bracket_generating_at(gens, pts, depth), [False] * 3)


# --- the matrix-commutator reference ----------------------------------------
# Each generator as its 3x3 skew matrix, brackets as commutators C B - B C,
# and independence judged on the flattened matrices: the bracket's
# definition, which the axial hull and its verdicts must match bitwise.

def matrix_rank(rows):
    sing = np.linalg.svd(rows, compute_uv=False)
    return np.sum(sing > lie.RANK_CUTOFF * sing[..., :1], axis=-1)


def commutator_hull(axials, depth):
    hull = []

    def append(candidate):
        if matrix_rank(np.stack([m.ravel() for m in (*hull, candidate)])) > len(hull):
            hull.append(candidate)

    for a in axials:
        append(skew_from_axial(a))
    for _ in range(depth):
        current = list(hull)
        for b in current:
            for c in current:
                append(c @ b - b @ c)
    return hull


def commutator_verdicts(hull, kind, points):
    if not hull:
        return np.zeros(len(points), dtype=bool)
    values = np.stack(hull) @ points.reshape(len(points), 1, 3, -1)
    return matrix_rank(values.reshape(len(points), len(hull), -1)) == manifolds.tangent_dim(kind)


def test_axial_hull_and_verdicts_equal_the_commutator_reference():
    z, y, x = lie.ROT_Z, lie.ROT_Y, lie.ROT_X
    sets = ([z, y], [z], [z, y, x], [z, -2.0 * z, y],
            [1e-3 * z, 1e-3 * y], [1e3 * z, 1e3 * y])
    compared = 0
    for seed in (0, 1, 2, 20240817):
        rng = np.random.default_rng(seed)
        points = {manifolds.SPHERE2: np.concatenate(
                      [manifolds.sample_uniform(manifolds.SPHERE2, rng, 1000), np.eye(3)]),
                  manifolds.SO3: manifolds.sample_uniform(manifolds.SO3, rng, 101)}
        for kind, pts in points.items():
            for axials in sets:
                gens = generator_set(axials, kind)
                for depth in (0, 1, 2):
                    reference = commutator_hull(gens.axials, depth)
                    rows = np.array([[m[2, 1], m[0, 2], m[1, 0]] for m in reference])
                    assert lie.lie_hull(gens, depth).tobytes() == rows.tobytes()
                    verdicts = lie.bracket_generating_at(gens, pts, depth)
                    assert np.array_equal(verdicts, commutator_verdicts(reference, kind, pts))
                    compared += len(verdicts)
    assert compared == 79488


# --- tangency ---------------------------------------------------------------

def test_standard_generators_are_skew():
    # the field B x is tangent to S2, and B X to SO(3), at every point
    # exactly when B is skew
    for kind in manifolds.KINDS:
        for b in skew_from_axial(lie.standard_generators(kind).axials):
            assert np.array_equal(b + b.T, np.zeros((3, 3)))


# --- generator sets ---------------------------------------------------------

def test_generator_set_holds_names_and_read_only_axials():
    gens = lie.standard_generators(manifolds.SPHERE2)
    assert gens.names == ("rot_z", "rot_y")
    assert np.array_equal(gens.axials, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert not gens.axials.flags.writeable
    for axial in (lie.ROT_Z, lie.ROT_Y, lie.ROT_X):
        assert not axial.flags.writeable
    mine = np.array([[0.0, 0.0, 2.0]])
    gens = generator_set(mine)
    mine[0, 2] = 5.0
    assert gens.axials[0, 2] == 2.0


def test_generator_set_must_be_nonempty():
    with pytest.raises(InvalidConfig):
        lie.GeneratorSet((), np.empty((0, 3)), manifolds.SPHERE2)
    with pytest.raises(InvalidConfig, match="axial row per name"):
        lie.GeneratorSet(("rot_z", "rot_y"), [lie.ROT_Z], manifolds.SPHERE2)
