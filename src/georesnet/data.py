"""Benchmark data: two reference ODEs and their time-one flow maps.

exp1 lives on the sphere, exp2 on the rotation group.  Both right-hand
sides are state-dependent combinations of the standard rotation
generators, so at any frozen state the field is a skew matrix acting on
the state.  The integrator exploits exactly that: each step freezes the
scalar coefficients and advances along the resulting one-parameter
rotation subgroup, which keeps every iterate on the manifold to machine
precision no matter how coarse the step.

Learning targets are the time-one maps: y = flow(x0) over t in [0, 1].
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import manifolds
from .errors import (InvalidConfig, check_keys, numeric_array, read_json_object, replacing,
                     write_json)
from .linalg import expm_skew3

DEFAULT_PAIRS = 100  # in each of the train and test sets
DEFAULT_STEPS = 2 ** 14
HORIZON = (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class GroundTruthODE:
    """A reference ODE given by state-dependent rotation coordinates.

    axial_rule maps a batch of states to the axial vector of the frozen
    field at each state, i.e. the skew matrix sum_i c_i(x) B_i collapsed
    to its rotation coordinates.  The field value itself is then
    skew(axial) @ state.
    """

    id: str
    kind: str
    axial_rule: object


def _exp1_axial(x):
    # x2 * (about z) + x3 * (about x), axial rows (0,0,1) and (1,0,0)
    zero = np.zeros_like(x[..., 0])
    return np.stack([x[..., 2], zero, x[..., 1]], axis=-1)


def _exp2_axial(x):
    factor = np.einsum("...ij,...ji->...", x, x) + 3.0
    return np.repeat(factor[..., None], 3, axis=-1)


EXP1 = GroundTruthODE("exp1", manifolds.SPHERE2, _exp1_axial)
EXP2 = GroundTruthODE("exp2", manifolds.SO3, _exp2_axial)

_BY_ID = {ode.id: ode for ode in (EXP1, EXP2)}


def ode_by_id(experiment):
    key = str(experiment).lower()
    if key not in _BY_ID:
        raise InvalidConfig(f"unknown experiment {experiment!r}; expected exp1 or exp2")
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
    x = np.asarray(x0, dtype=float)
    manifolds.check_on_manifold(ode.kind, x, "initial")
    h = 1.0 / steps
    sphere = ode.kind == manifolds.SPHERE2
    for _ in range(steps):
        rot = expm_skew3(h * ode.axial_rule(x))
        x = np.einsum("...ij,...j->...i", rot, x) if sphere else rot @ x
    return x


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


def _pair_array(doc, name, shape, path):
    value = numeric_array(doc[name], f"dataset {path}: {name}")
    if value.shape[1:] != shape:  # an empty list has shape (0,) and fails too
        raise InvalidConfig(f"dataset {path}: {name} must have shape (n,) + {shape}, "
                            f"got {value.shape}")
    return value


def load_dataset(path):
    """Read a dataset written by save_dataset.

    Raises InvalidConfig unless the file holds kind, metadata, inputs and
    targets, with as many targets as inputs, each of the kind's point shape
    and finite, and OffManifold if a point is off the manifold.
    """
    doc = read_json_object(path)
    check_keys(doc, f"dataset {path}", required=("kind", "metadata", "inputs", "targets"))
    kind = manifolds.check_kind(doc["kind"])
    shape = manifolds.point_shape(kind)
    inputs = _pair_array(doc, "inputs", shape, path)
    targets = _pair_array(doc, "targets", shape, path)
    if len(inputs) != len(targets):
        raise InvalidConfig(f"dataset {path} has {len(inputs)} inputs "
                            f"but {len(targets)} targets")
    points = np.concatenate([inputs, targets])
    if not np.all(np.isfinite(points)):
        raise InvalidConfig(f"dataset {path} holds non-finite values")
    manifolds.check_on_manifold(kind, points, f"dataset {path}")
    return Dataset(kind=kind, inputs=inputs, targets=targets, metadata=doc["metadata"])


def _component_names(kind, prefix):
    if kind == manifolds.SPHERE2:
        return [f"{prefix}_{i}" for i in (1, 2, 3)]
    return [f"{prefix}_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]


def save_dataset_csv(ds, path):
    """Flat CSV export: one row per pair, inputs then targets, row-major."""
    header = _component_names(ds.kind, "x0") + _component_names(ds.kind, "y")
    flat_in = ds.inputs.reshape(len(ds), -1)
    flat_tg = ds.targets.reshape(len(ds), -1)
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for a, b in zip(flat_in, flat_tg):
            writer.writerow([repr(float(v)) for v in a] + [repr(float(v)) for v in b])
