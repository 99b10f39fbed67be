"""Small fixed-size linear algebra: 3x3 skew matrices and their exponentials.

Axial coordinates follow the cross-product convention: for a 3-vector omega,
``skew_from_axial(omega) @ v == cross(omega, v)``.  Consequently the unit
axial vectors map to rotation generators about the matching coordinate axis,

    skew_from_axial((0, 0, 1)) = [[0, -1, 0], [1, 0, 0], [0,  0, 0]]   (about z)
    skew_from_axial((0, 1, 0)) = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]   (about y)
    skew_from_axial((1, 0, 0)) = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]   (about x)

All functions accept a single item (shape ``(3,)`` or ``(3, 3)``) or a
batch with leading axes, and return matching shapes.  Everything is double
precision.
"""

import numpy as np

# Below this angle the closed-form sin(t)/t and (1-cos(t))/t**2 lose digits
# to cancellation; 4-term Taylor series keep truncation error under 1e-17.
SMALL_ANGLE = 1e-4

_EYE = np.eye(3)


def skew_from_axial(omega):
    """Skew-symmetric matrix of the axial vector, so that W @ v = omega x v."""
    omega = np.asarray(omega, dtype=float)
    out = np.zeros(omega.shape[:-1] + (3, 3))
    wx, wy, wz = omega[..., 0], omega[..., 1], omega[..., 2]
    out[..., 0, 1] = -wz
    out[..., 0, 2] = wy
    out[..., 1, 0] = wz
    out[..., 1, 2] = -wx
    out[..., 2, 0] = -wy
    out[..., 2, 1] = wx
    return out


def by_angle(theta, series, closed):
    """Evaluate a tuple of coefficient arrays on both sides of SMALL_ANGLE.

    series and closed each map an angle array to a tuple of arrays of its
    shape.  If every angle falls on one side of the threshold (the usual
    case: a step's rotations are all tiny or all not) that branch runs on
    the whole array; a mixed batch runs both on the whole batch, keeps each
    entry's own value and ignores the floating-point warnings of the branch
    an entry does not take.  The arithmetic is elementwise, so every entry
    is bitwise the same whichever path its batch takes.
    """
    theta = np.asarray(theta, dtype=float)
    small = theta < SMALL_ANGLE
    if small.all():
        return series(theta)
    if not small.any():
        return closed(theta)
    with np.errstate(all="ignore"):
        return tuple(np.where(small, lo, hi) for lo, hi in zip(series(theta), closed(theta)))


def _sinc_series(t):
    t2 = t ** 2
    return (1.0 - t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)),
            0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0 * (1.0 - t2 / 56.0))))


def _sinc_closed(t):
    return np.sin(t) / t, (1.0 - np.cos(t)) / t ** 2


def _sinc_coeffs(theta):
    """Return (sin(t)/t, (1-cos(t))/t^2) with a series branch near zero.

    The series are 4-term Horner evaluations of the Taylor expansions; at
    the SMALL_ANGLE threshold both branches agree to well under 1e-12,
    which the tests pin down.
    """
    return by_angle(theta, _sinc_series, _sinc_closed)


def axial_norm(omega):
    """Euclidean norm over the last axis.

    The same arithmetic as np.linalg.norm(omega, axis=-1), without its
    Python-level dispatch.
    """
    return np.sqrt(np.add.reduce(np.multiply(omega, omega), axis=-1))


def expm_skew3(omega):
    """Exponential of skew_from_axial(omega) by the Rodrigues closed form.

    R = I + (sin t / t) W + ((1 - cos t) / t^2) W^2 with t = ||omega||.
    The result is a rotation matrix to machine precision for any finite
    omega; the small-angle branch of the scalar coefficients keeps the
    formula smooth through t = 0.
    """
    omega = np.asarray(omega, dtype=float)
    s, c = _sinc_coeffs(axial_norm(omega))
    w = skew_from_axial(omega)
    # (s W + I) + c W^2 adds in the same order as I + s W + c W^2
    out = s[..., None, None] * w
    out += _EYE
    out += c[..., None, None] * (w @ w)
    return out


def expm_dense(mat):
    """General matrix exponential, used as an independent oracle.

    Deliberately takes a different route than expm_skew3 (scaling and
    squaring with Pade approximation) so the two can cross-check each
    other.  Accepts a single matrix only.  scipy.linalg is imported here,
    not at module level: this is its only user, and loading it more than
    triples the import time of every georesnet process.
    """
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(mat, dtype=float))
