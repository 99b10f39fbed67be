"""Skew matrices, Rodrigues exponentials, and the dense-exponential oracle."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from georesnet import manifolds
from georesnet.grad import _rotation_coeffs
from georesnet.linalg import SMALL_ANGLE, _sinc_coeffs, expm_dense, expm_skew3, skew_from_axial

BZ = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
BY = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
BX = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def rotation_defect(r):
    return np.linalg.norm(r.T @ r - np.eye(3)) + abs(np.linalg.det(r) - 1.0)


# --- skew_from_axial ---------------------------------------------------------

def test_skew_of_zero_is_zero():
    assert np.array_equal(skew_from_axial([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_skew_unit_axes_are_the_rotation_generators():
    assert np.array_equal(skew_from_axial([0.0, 0.0, 1.0]), BZ)
    assert np.array_equal(skew_from_axial([0.0, 1.0, 0.0]), BY)
    assert np.array_equal(skew_from_axial([1.0, 0.0, 0.0]), BX)


def test_skew_acts_as_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert np.allclose(skew_from_axial(w) @ v, np.cross(w, v), atol=1e-15)


def test_skew_is_linear_and_skew_symmetric():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 3))
    m = skew_from_axial(2.0 * a - 3.0 * b)
    assert np.allclose(m, 2.0 * skew_from_axial(a) - 3.0 * skew_from_axial(b))
    assert np.array_equal(m, -m.T)


def test_skew_batched_shapes():
    w = np.zeros((4, 5, 3))
    assert skew_from_axial(w).shape == (4, 5, 3, 3)


# --- expm_skew3 -------------------------------------------------------------

def test_exp_of_zero_is_identity():
    assert np.array_equal(expm_skew3([0.0, 0.0, 0.0]), np.eye(3))


def test_quarter_turn_about_z_sends_e1_to_e2():
    out = expm_skew3([0.0, 0.0, np.pi / 2]) @ np.array([1.0, 0.0, 0.0])
    # closed form: [[cos, -sin, 0], [sin, cos, 0], [0, 0, 1]] at t = pi/2
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_exp_is_a_rotation_for_any_magnitude():
    rng = np.random.default_rng(4)
    for scale in (1e-9, 1e-5, 1e-3, 1.0, 10.0, 100.0):
        w = scale * rng.standard_normal((20, 3))
        for r in expm_skew3(w):
            assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-14
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_exp_of_negated_axial_is_the_transpose():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((200, 3))
    fwd = expm_skew3(w)
    bwd = expm_skew3(-w)
    assert np.max(np.abs(bwd - np.swapaxes(fwd, -1, -2))) <= 1e-13


def test_tiny_angles_are_exact_to_first_order():
    w = np.array([1e-9, -2e-9, 0.5e-9])
    r = expm_skew3(w)
    assert np.max(np.abs(r - (np.eye(3) + skew_from_axial(w)))) <= 1e-17
    assert rotation_defect(r) <= 1e-15


def test_negated_axial_gives_the_transpose_bitwise():
    # the backward takes R^T as expm_skew3(-omega) and W^T as
    # skew_from_axial(-omega); both must be exact transposes, signs of
    # zeros included
    rng = np.random.default_rng(11)
    for n in (1, 100, 1000):
        axes = rng.standard_normal((n, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        w = axes * rng.choice([0.0, 1e-9, 6e-5, SMALL_ANGLE, 0.3, 3.0, np.pi], n)[:, None]
        for fn in (expm_skew3, skew_from_axial):
            got, want = fn(-w), np.swapaxes(fn(w), -1, -2)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_exp_batched_shapes():
    w = np.zeros((7, 2, 3))
    assert expm_skew3(w).shape == (7, 2, 3, 3)


def test_mixed_batch_exponential_equals_each_row_alone():
    # rows on both sides of SMALL_ANGLE, exactly at it, and at zero
    rng = np.random.default_rng(7)
    axes = rng.standard_normal((8, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.array([3e-5, 0.7, 0.0, 2e-4, 1e-9, SMALL_ANGLE, 4.0, 6e-5])
    w = axes * angles[:, None]
    batch = expm_skew3(w)
    for i in range(len(w)):
        assert np.array_equal(batch[i], expm_skew3(w[i]))


# --- series / closed-form dispatch of the Rodrigues coefficients -----------

SMALL_ANGLES = np.array([0.0, 1e-12, 3e-5, 6.1e-5, SMALL_ANGLE * (1.0 - 1e-12)])
# 1e60 stands for an angle that a diverging geometric run reaches
BIG_ANGLES = np.array([SMALL_ANGLE, 2.1e-4, 6.3e-4, 0.5, np.pi, 40.0, 1e60])


@pytest.mark.parametrize("coeffs", [_sinc_coeffs, _rotation_coeffs])
def test_coefficients_agree_across_all_dispatch_paths(coeffs):
    # the all-small and all-big batches take the two whole-array paths
    expected = [np.concatenate(p)
                for p in zip(coeffs(SMALL_ANGLES), coeffs(BIG_ANGLES))]
    angles = np.concatenate([SMALL_ANGLES, BIG_ANGLES])
    order = np.random.default_rng(8).permutation(len(angles))
    for got, want in zip(coeffs(angles[order]), expected):  # merged path
        assert np.array_equal(got, want[order])
    # at scale, where the branch an entry does not take gives 0/0 or overflows
    many = np.random.default_rng(9).integers(len(angles), size=10_000)
    for got, want in zip(coeffs(angles[many]), expected):
        assert np.array_equal(got, want[many])
    for i, t in enumerate(angles):                          # 0-d angles
        for got, want in zip(coeffs(t), expected):
            assert np.shape(got) == () and got == want[i]


def test_all_small_angles_take_the_series_branch():
    # the closed forms are 0/0 at t = 0; the series gives the limits
    s, c = _sinc_coeffs(np.zeros(4))
    assert np.array_equal(s, np.ones(4)) and np.array_equal(c, np.full(4, 0.5))
    _, _, u, v = _rotation_coeffs(np.zeros(4))
    assert np.array_equal(u, np.full(4, -1.0 / 3.0))
    assert np.array_equal(v, np.full(4, -1.0 / 12.0))


def test_backward_coefficients_start_with_the_forward_ones():
    # rotation_cotangent must see the s and c that expm_skew3 used
    angles = np.concatenate([SMALL_ANGLES, BIG_ANGLES])
    for t in (SMALL_ANGLES, BIG_ANGLES, angles):
        s, c, _, _ = _rotation_coeffs(t)
        want_s, want_c = _sinc_coeffs(t)
        assert np.array_equal(s, want_s) and np.array_equal(c, want_c)


def test_all_big_angles_take_the_closed_form_branch():
    t = np.array([0.5, 1.0, 2.0])
    s, c = _sinc_coeffs(t)
    assert np.array_equal(s, np.sin(t) / t)
    assert np.array_equal(c, (1.0 - np.cos(t)) / t ** 2)


# --- expm_dense -------------------------------------------------------------

def test_dense_exp_of_zero_is_identity():
    assert np.allclose(expm_dense(np.zeros((3, 3))), np.eye(3), atol=1e-16)


def test_dense_exp_of_nilpotent():
    n = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # n @ n = 0, so the series stops at I + n
    assert np.allclose(expm_dense(n), np.eye(3) + n, atol=1e-15)


def test_dense_exp_half_turn_about_z():
    assert np.allclose(expm_dense(np.pi * BZ), np.diag([-1.0, -1.0, 1.0]),
                       atol=1e-14)


def test_dense_exp_agrees_with_scipy_on_general_matrices():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    assert np.allclose(expm_dense(a), scipy.linalg.expm(a), atol=0, rtol=1e-12)


# --- properties over axes and angles ----------------------------------------

# unit axes, normalized from draws in the cube that keep clear of zero
AXES = hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) >= 0.1).map(lambda v: v / np.linalg.norm(v))
# each side of the series/closed-form switch, of a half turn and of a full turn
BRANCH_EDGES = [SMALL_ANGLE * (1.0 - 1e-9), SMALL_ANGLE * (1.0 + 1e-9),
                np.pi - 1e-9, np.pi + 1e-9, 2.0 * np.pi - 1e-9, 2.0 * np.pi + 1e-9]


@settings(max_examples=300)
@given(axis=AXES, log_angle=st.floats(-8.0, 3.0))
def test_exp_stays_on_so3_from_tiny_to_large_angles(axis, log_angle):
    r = expm_skew3(10.0 ** log_angle * axis)
    assert manifolds.defect(manifolds.SO3, r) <= 1e-12


@settings(max_examples=300)
@given(axis=AXES, angle=st.sampled_from(BRANCH_EDGES))
def test_exp_matches_the_dense_oracle_at_branch_edges(axis, angle):
    w = angle * axis
    assert np.max(np.abs(expm_skew3(w) - expm_dense(skew_from_axial(w)))) <= 1e-12
