"""Sphere and rotation-group representations: batches, sampling and defect."""

import re

import numpy as np
import pytest

from georesnet import manifolds
from georesnet.errors import InvalidConfig, OffManifold

E1 = np.array([1.0, 0.0, 0.0])


def test_kind_validation():
    with pytest.raises(InvalidConfig):
        manifolds.check_kind("torus")
    assert manifolds.ambient_dim(manifolds.SPHERE2) == 3
    assert manifolds.ambient_dim(manifolds.SO3) == 9
    assert manifolds.tangent_dim(manifolds.SPHERE2) == 2
    assert manifolds.tangent_dim(manifolds.SO3) == 3


# --- as_batch ---------------------------------------------------------------

def test_as_batch_returns_a_c_ordered_float_batch_itself():
    for kind in manifolds.KINDS:
        x = manifolds.sample_uniform(kind, np.random.default_rng(4), 5)
        assert manifolds.as_batch(kind, x, "x") is x
        for other in (np.asfortranarray(x), x[::-1], x.tolist()):
            out = manifolds.as_batch(kind, other, "x")
            assert out.flags.c_contiguous and out.dtype == float
            assert np.array_equal(out, np.asarray(other))
        empty = np.empty((0,) + manifolds.point_shape(kind))
        assert manifolds.as_batch(kind, empty, "x") is empty


def test_as_batch_refuses_a_lone_point_and_the_other_kind_naming_the_input():
    sphere, rotation = manifolds.SPHERE2, manifolds.SO3
    for kind, x in ((sphere, E1), (sphere, np.zeros((2, 3, 3))), (sphere, np.zeros((2, 4))),
                    (rotation, np.eye(3)), (rotation, np.zeros((2, 3))), (rotation, 1.0)):
        message = (f"states must be a batch of {kind} points, shape (P,) + "
                   f"{manifolds.point_shape(kind)}, got {np.shape(x)}")
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            manifolds.as_batch(kind, x, "states")


# --- defect -----------------------------------------------------------------

def test_defect_of_exact_points_is_zero():
    assert manifolds.defect(manifolds.SPHERE2, E1) == 0.0
    assert manifolds.defect(manifolds.SO3, np.eye(3)) == 0.0


def test_defect_of_doubled_vector_is_one():
    assert manifolds.defect(manifolds.SPHERE2, 2.0 * E1) == 1.0


def test_defect_measures_orthogonality_and_orientation():
    # an orthogonal matrix with det -1 is off the group by the det term
    flip = np.diag([1.0, 1.0, -1.0])
    assert np.isclose(manifolds.defect(manifolds.SO3, flip), 2.0, atol=1e-15)


def test_defect_batched():
    pts = np.stack([E1, 2.0 * E1, 3.0 * E1])
    assert np.allclose(manifolds.defect(manifolds.SPHERE2, pts),
                       [0.0, 1.0, 2.0], atol=1e-15)


def test_on_manifold_check_passes_an_empty_batch_and_nothing_else_off():
    for kind in manifolds.KINDS:
        manifolds.check_on_manifold(kind, np.empty((0,) + manifolds.point_shape(kind)), "x")
        good = manifolds.sample_uniform(kind, np.random.default_rng(3), 2)
        for bad in (np.nan, np.inf, 2.0):
            x = good.copy()
            x[1] *= bad
            with pytest.raises(OffManifold):
                manifolds.check_on_manifold(kind, x, "x")


# --- sample_uniform ---------------------------------------------------------

def test_samples_land_on_the_manifold():
    rng = np.random.default_rng(0)
    xs = manifolds.sample_uniform(manifolds.SPHERE2, rng, 500)
    rs = manifolds.sample_uniform(manifolds.SO3, rng, 500)
    assert np.max(manifolds.defect(manifolds.SPHERE2, xs)) <= 1e-14
    assert np.max(manifolds.defect(manifolds.SO3, rs)) <= 1e-14


def test_a_batch_of_one_sample_is_the_first_of_a_larger_batch():
    for kind in manifolds.KINDS:
        one = manifolds.sample_uniform(kind, np.random.default_rng(1), 1)
        assert one.shape == (1,) + manifolds.point_shape(kind)
        assert np.array_equal(one, manifolds.sample_uniform(kind, np.random.default_rng(1), 5)[:1])


def test_sphere_sampling_has_no_preferred_direction():
    # CLT: the mean of N uniform sphere points has norm ~ 1/sqrt(N);
    # measured 0.0022 at this seed, bound 0.02 is ~10 sigma
    rng = np.random.default_rng(2)
    xs = manifolds.sample_uniform(manifolds.SPHERE2, rng, 100000)
    assert np.linalg.norm(xs.mean(axis=0)) <= 0.02


def test_rotation_sampling_matches_haar_trace_moment():
    # under the invariant measure E[trace] = 0; measured -0.002 at this seed
    rng = np.random.default_rng(3)
    rs = manifolds.sample_uniform(manifolds.SO3, rng, 100000)
    assert abs(np.trace(rs, axis1=-2, axis2=-1).mean()) <= 0.05


def test_equal_seeds_give_bitwise_equal_streams():
    a = manifolds.sample_uniform(manifolds.SO3, np.random.default_rng(42), 50)
    b = manifolds.sample_uniform(manifolds.SO3, np.random.default_rng(42), 50)
    assert np.array_equal(a, b)
