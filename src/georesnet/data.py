"""Benchmark data: two reference ODEs and their time-one flow maps.

exp1 lives on the sphere, exp2 on the rotation group.  Both right-hand
sides are state-dependent combinations of the standard rotation
generators, so at any frozen state the field is a skew matrix acting on
the state.  Each integrator step freezes those coefficients and advances
along the resulting one-parameter rotation subgroup, which keeps every
iterate on the manifold to machine precision.  exp2's steps rotate about
its fixed axis (1, 1, 1) in closed form, bitwise as the general step.

Learning targets are the time-one maps: y = flow(x0) over t in [0, 1].
"""

from dataclasses import dataclass

import numpy as np

from . import manifolds
from .errors import (InvalidConfig, check_keys, numeric_array, read_json_object, write_csv,
                     write_json)
from .linalg import _EYE, _sinc_coeffs, expm_skew3, skew_from_axial

DEFAULT_PAIRS = 100  # in each of the train and test sets
DEFAULT_STEPS = 2 ** 14
HORIZON = (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class GroundTruthODE:
    """A reference ODE given by state-dependent rotation coordinates.

    axial_rule(x) maps a batch of states to the axial vectors of the frozen
    field, sum_i c_i(x) B_i; the field is then skew(axial) @ state.
    """

    id: str
    kind: str
    axial_rule: object
    rate: object = None  # if the field turns about (1, 1, 1): axial_rule = rate * (1, 1, 1)


def _exp1_axial(x):
    # x2 * (about z) + x3 * (about x), axial rows (0,0,1) and (1,0,0)
    out = np.zeros(x.shape[:-1] + (3,))
    out[..., 0], out[..., 2] = x[..., 2], x[..., 1]
    return out


def _exp2_rate(x):
    return np.einsum("...ij,...ji->...", x, x) + 3.0


def _exp2_axial(x):
    return _exp2_rate(x)[..., None] * np.ones(3)


EXP1 = GroundTruthODE("exp1", manifolds.SPHERE2, _exp1_axial)
EXP2 = GroundTruthODE("exp2", manifolds.SO3, _exp2_axial, _exp2_rate)
_K = skew_from_axial(np.ones(3))
_BASIS = np.stack([_K, _EYE, _K @ _K]).reshape(3, 9)  # entries 0, +-1 and -2

_BY_ID = {ode.id: ode for ode in (EXP1, EXP2)}


def ode_by_id(experiment):
    key = str(experiment).lower()
    if key not in _BY_ID:
        raise InvalidConfig(f"unknown experiment {experiment!r}; expected {' or '.join(_BY_ID)}")
    return _BY_ID[key]


def ground_truth_flow(x0, ode, steps=DEFAULT_STEPS):
    """Integrate the ODE from t=0 to t=1 by freeze-and-rotate steps.

    At each step the field's coefficients are evaluated once at the
    current state and the state advances by the exact exponential of the
    frozen field over one step length.  First-order accurate in time,
    exactly manifold-preserving at any step count.  Batched over a
    leading axis.
    """
    if steps < 1:
        raise InvalidConfig("steps must be at least 1")
    x = np.ascontiguousarray(x0, dtype=float)  # a step rounds as for C-ordered states
    manifolds.check_on_manifold(ode.kind, x, "initial")
    h = 1.0 / steps
    sphere = ode.kind == manifolds.SPHERE2
    for _ in range(steps):
        rot = (expm_skew3(ode.axial_rule(x) * h) if ode.rate is None
               else _axis_rotation(h * ode.rate(x)))
        x = np.einsum("...ij,...j->...i", rot, x) if sphere else rot @ x
    return x


def _axis_rotation(a):
    """expm_skew3((a, a, a)), bitwise: I + s W + c W^2 for W = a K, W^2 = a^2 KK."""
    r = a * a
    s, c = _sinc_coeffs(np.sqrt((r + r) + r))  # axial_norm's sum
    # each product with a _BASIS entry is exact and each sum has at most two
    # nonzero terms, so the matmul rounds once per entry, in any order
    coeffs = np.empty(np.shape(a) + (3,))
    coeffs[..., 0], coeffs[..., 1], coeffs[..., 2] = s * a, 1.0, c * r
    return (coeffs @ _BASIS).reshape(np.shape(a) + (3, 3))


@dataclass
class Dataset:
    """Input/target pairs on one manifold, plus generation metadata."""

    kind: str
    inputs: np.ndarray
    targets: np.ndarray
    metadata: dict

    def __len__(self):
        return self.inputs.shape[0]

    def max_defect(self):
        """Worst constraint violation over all inputs and targets."""
        return float(max(np.max(manifolds.defect(self.kind, self.inputs)),
                         np.max(manifolds.defect(self.kind, self.targets))))


def generate_dataset(experiment, p_train, p_test, seed, steps=DEFAULT_STEPS):
    """Sample uniform initial states and push them through the flow.

    Returns (train, test).  Both draw from one seeded stream, train
    first, so the two sets are independent draws and reproduce bitwise
    for a given seed.  The two sets are then flowed together as one
    batch: every flow step acts on each state separately, so the targets
    are bitwise those of flowing each set on its own, at half the
    per-step dispatch.
    """
    if p_train < 1 or p_test < 1:
        raise InvalidConfig("dataset sizes must be at least 1")
    if seed < 0:
        raise InvalidConfig("seed must be nonnegative")
    ode = ode_by_id(experiment)
    rng = np.random.default_rng(seed)
    x_train = manifolds.sample_uniform(ode.kind, rng, p_train)
    x_test = manifolds.sample_uniform(ode.kind, rng, p_test)
    y = ground_truth_flow(np.concatenate([x_train, x_test]), ode, steps)
    return tuple(
        Dataset(ode.kind, x0, y0, {"seed": int(seed), "ode": ode.id,
                                   "steps": int(steps), "horizon": list(HORIZON)})
        for x0, y0 in zip((x_train, x_test), np.split(y, [p_train])))


def save_dataset(ds, path):
    """JSON with a metadata block and pair arrays; floats round-trip bitwise."""
    write_json(path, {
        "kind": ds.kind,
        "metadata": ds.metadata,
        "inputs": ds.inputs,
        "targets": ds.targets,
    })


def load_dataset(path):
    """Read a dataset written by save_dataset.

    Raises InvalidConfig naming the file unless it holds kind, metadata, inputs
    and targets, as many targets as inputs, each of the kind's point shape and
    finite, and OffManifold naming it if a point is off the manifold.
    """
    return read_json_object(path, _dataset)


def _dataset(doc):
    check_keys(doc, "dataset", required=("kind", "metadata", "inputs", "targets"))
    kind = manifolds.check_kind(doc["kind"])
    shape = (None,) + manifolds.point_shape(kind)
    inputs, targets = (numeric_array(doc[name], name, shape) for name in ("inputs", "targets"))
    if len(inputs) != len(targets):
        raise InvalidConfig(f"dataset has {len(inputs)} inputs but {len(targets)} targets")
    manifolds.check_on_manifold(kind, np.concatenate([inputs, targets]), "dataset")
    return Dataset(kind=kind, inputs=inputs, targets=targets, metadata=doc["metadata"])


def save_dataset_csv(ds, path):
    """Flat CSV export: one row per pair, inputs then targets, row-major.

    Columns are named by 1-based component, x0_1 or y_23 (row 2, column 3).
    """
    header = [prefix + "_" + "".join(str(i + 1) for i in index) for prefix in ("x0", "y")
              for index in np.ndindex(manifolds.point_shape(ds.kind))]
    write_csv(path, header, np.concatenate([ds.inputs.reshape(len(ds), -1),
                                            ds.targets.reshape(len(ds), -1)], axis=1).tolist())
