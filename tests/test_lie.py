"""Brackets of linear fields, hulls, tangency, and the spanning rank test."""

import numpy as np
import pytest

from georesnet import lie, manifolds
from georesnet.errors import InvalidConfig, OffManifold
from georesnet.linalg import skew_from_axial

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def random_skew_field(rng):
    return lie.LinearField(skew_from_axial(rng.standard_normal(3)))


# --- bracket ----------------------------------------------------------------

def test_bracket_with_itself_vanishes():
    rng = np.random.default_rng(0)
    f = random_skew_field(rng)
    assert np.array_equal(lie.lie_bracket_linear(f, f).matrix, np.zeros((3, 3)))


def test_bracket_of_z_and_y_generators_is_x_generator():
    out = lie.lie_bracket_linear(lie.ROT_Z, lie.ROT_Y)
    # entries are integers, so the identity holds without rounding
    assert np.array_equal(out.matrix, lie.ROT_X.matrix)


def test_bracket_closes_cyclically():
    assert np.array_equal(lie.lie_bracket_linear(lie.ROT_Y, lie.ROT_X).matrix,
                          lie.ROT_Z.matrix)
    assert np.array_equal(lie.lie_bracket_linear(lie.ROT_X, lie.ROT_Z).matrix,
                          lie.ROT_Y.matrix)


def test_bracket_antisymmetry():
    rng = np.random.default_rng(1)
    f, g = random_skew_field(rng), random_skew_field(rng)
    fg = lie.lie_bracket_linear(f, g).matrix
    gf = lie.lie_bracket_linear(g, f).matrix
    assert np.array_equal(fg, -gf)


def test_bracket_bilinearity():
    rng = np.random.default_rng(2)
    f, g, h = (random_skew_field(rng) for _ in range(3))
    combined = lie.LinearField(2.0 * f.matrix - 0.5 * g.matrix)
    lhs = lie.lie_bracket_linear(combined, h).matrix
    rhs = 2.0 * lie.lie_bracket_linear(f, h).matrix \
        - 0.5 * lie.lie_bracket_linear(g, h).matrix
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_jacobi_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f, g, h = (random_skew_field(rng) for _ in range(3))
        total = lie.lie_bracket_linear(f, lie.lie_bracket_linear(g, h)).matrix \
            + lie.lie_bracket_linear(g, lie.lie_bracket_linear(h, f)).matrix \
            + lie.lie_bracket_linear(h, lie.lie_bracket_linear(f, g)).matrix
        assert np.max(np.abs(total)) <= 1e-12


# --- hull -------------------------------------------------------------------

def test_hull_depth_zero_returns_the_generators():
    gens = lie.standard_generators(manifolds.SPHERE2)
    hull = lie.lie_hull(gens, 0)
    assert [f.matrix.tolist() for f in hull] == \
        [f.matrix.tolist() for f in gens.fields]


def test_hull_depth_one_produces_the_third_generator():
    hull = lie.lie_hull(lie.standard_generators(manifolds.SPHERE2), 1)
    assert any(np.array_equal(f.matrix, lie.ROT_X.matrix) for f in hull)


def test_hull_of_single_generator_never_grows():
    gens = lie.GeneratorSet((lie.ROT_Z,), manifolds.SPHERE2)
    for depth in (0, 1, 3):
        hull = lie.lie_hull(gens, depth)
        assert len(hull) == 1
        assert np.array_equal(hull[0].matrix, lie.ROT_Z.matrix)


def test_hull_drops_scaled_and_negated_duplicates():
    gens = lie.GeneratorSet(
        (lie.ROT_Z, lie.LinearField(-2.0 * lie.ROT_Z.matrix), lie.ROT_Y),
        manifolds.SPHERE2)
    hull = lie.lie_hull(gens, 0)
    assert len(hull) == 2


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
    assert np.array_equal(lie.ROT_Z.matrix @ E3, np.zeros(3))
    assert np.array_equal(lie.ROT_Y.matrix @ E3, [1.0, 0.0, 0.0])
    assert np.array_equal(lie.ROT_X.matrix @ E3, [0.0, -1.0, 0.0])
    assert lie.bracket_generating_at(gens, E3, depth=1)


def test_single_generator_is_never_generating():
    gens = lie.GeneratorSet((lie.ROT_Z,), manifolds.SPHERE2)
    assert not lie.bracket_generating_at(gens, E1, depth=3)


def test_rank_decision_survives_extreme_rescaling():
    rng = np.random.default_rng(6)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng)
    for scale in (1e-3, 1e3):
        gens = lie.GeneratorSet(
            tuple(lie.LinearField(scale * f.matrix) for f in
                  lie.standard_generators(manifolds.SPHERE2).fields),
            manifolds.SPHERE2)
        assert lie.bracket_generating_at(gens, x, depth=1)


def test_generating_rejects_off_manifold_points():
    gens = lie.standard_generators(manifolds.SPHERE2)
    with pytest.raises(OffManifold):
        lie.bracket_generating_at(gens, 1.5 * E1, depth=1)


def test_generating_rejects_non_finite_points():
    gens = lie.standard_generators(manifolds.SPHERE2)
    with pytest.raises(OffManifold):
        lie.bracket_generating_at(gens, np.array([np.nan, 0.0, 1.0]), depth=1)


# --- tangency ---------------------------------------------------------------

def test_standard_generators_are_skew():
    # the field B x is tangent to S2, and B X to SO(3), at every point
    # exactly when B is skew
    for kind in manifolds.KINDS:
        for f in lie.standard_generators(kind).fields:
            assert np.array_equal(f.matrix + f.matrix.T, np.zeros((3, 3)))


# --- generator sets ---------------------------------------------------------

def test_generator_set_caches_matrices_and_axials():
    gens = lie.standard_generators(manifolds.SPHERE2)
    assert gens.matrices.shape == (2, 3, 3)
    assert np.array_equal(gens.axials, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert not gens.matrices.flags.writeable


def test_generator_set_must_be_nonempty():
    with pytest.raises(InvalidConfig):
        lie.GeneratorSet((), manifolds.SPHERE2)
