"""The two embedded manifolds: the unit sphere S2 and the rotation group SO(3).

A manifold point is a plain ndarray tagged by a kind string: shape (3,) unit
vectors for SPHERE2, shape (3, 3) rotation matrices for SO3.  Batches stack
along a leading axis.  Functions that need to know the manifold take the
kind as their first argument because a (3, 3) array is ambiguous on its own.
"""

import math

import numpy as np

from .errors import InvalidConfig, OffManifold

SPHERE2 = "sphere2"
SO3 = "so3"
KINDS = (SPHERE2, SO3)

# A state this far off its manifold is a caller bug, not roundoff.
ON_MANIFOLD_TOL = 1e-8


def check_kind(kind):
    if kind not in KINDS:
        raise InvalidConfig(f"unknown manifold kind {kind!r}; expected one of {KINDS}")
    return kind


def ambient_dim(kind):
    """Dimension of the flattened ambient state: 3 for S2, 9 for SO(3)."""
    return math.prod(point_shape(kind))


def point_shape(kind):
    """Shape of one point: (3,) on S2, (3, 3) on SO(3)."""
    check_kind(kind)
    return (3,) if kind == SPHERE2 else (3, 3)


def tangent_dim(kind):
    """Dimension of the tangent space: 2 for S2, 3 for SO(3)."""
    check_kind(kind)
    return 2 if kind == SPHERE2 else 3


def defect(kind, value):
    """Distance from the manifold constraint, 0 for exact points.

    S2: | ||x|| - 1 |.  SO(3): ||X^T X - I||_F + |det X - 1|.  Batched over
    leading axes.  A point holding NaN or inf, or entries so large that
    their squares overflow, has a NaN or inf defect, and computing it
    raises no warning: the caller's guard reports it.
    """
    check_kind(kind)
    value = np.asarray(value, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == SPHERE2:
            return np.abs(np.linalg.norm(value, axis=-1) - 1.0)
        # a contiguous transpose takes matmul's fast path; the sums are the same
        gram = np.ascontiguousarray(np.swapaxes(value, -1, -2)) @ value
        eye = np.eye(3)
        ortho = np.linalg.norm((gram - eye).reshape(gram.shape[:-2] + (9,)), axis=-1)
        return ortho + np.abs(np.linalg.det(value) - 1.0)


def check_on_manifold(kind, value, what):
    """Raise OffManifold, naming the value what, if a point is off the manifold."""
    worst = np.max(defect(kind, value), initial=0.0)  # an empty batch passes
    if not (worst <= ON_MANIFOLD_TOL):  # NaN fails this test too
        raise OffManifold(f"{what} defect {worst:.3e} exceeds {ON_MANIFOLD_TOL:.0e}")


def _quat_to_matrix(q):
    """Rotation matrices from unit quaternions (w, x, y, z), batched."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - w * z)
    out[..., 0, 2] = 2 * (x * z + w * y)
    out[..., 1, 0] = 2 * (x * y + w * z)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - w * x)
    out[..., 2, 0] = 2 * (x * z - w * y)
    out[..., 2, 1] = 2 * (y * z + w * x)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def _unit_gaussian(rng, n, d):
    """n unit d-vectors from normalized Gaussians."""
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


def sample_uniform(kind, rng, size=None):
    """Uniformly distributed manifold points.

    S2 draws a standard 3-d Gaussian and normalizes; SO(3) draws a Haar
    rotation through a uniform unit quaternion (normalized 4-d Gaussian).
    ``size=None`` returns a single point, an integer returns a batch with
    that leading dimension.  Streams are deterministic per rng state.
    """
    check_kind(kind)
    n = 1 if size is None else int(size)
    if kind == SPHERE2:
        out = _unit_gaussian(rng, n, 3)
    else:
        out = _quat_to_matrix(_unit_gaussian(rng, n, 4))
    return out[0] if size is None else out
