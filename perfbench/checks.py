"""Correctness checks on the files a georesnet command wrote.

The checks read artifacts from disk and recompute what they can with their
own numpy code: manifold defects, an RK4 integration of the two reference
ODEs, and sha256 digests for byte-identity.  They call into the package only
to load a trained checkpoint and run it forward on sampled manifold points,
which is the behaviour under test.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from georesnet import manifolds, network

# A finished geometric net keeps every output on its manifold to roundoff.
GEOMETRIC_DEFECT_TOL = 1e-9
# Lie-Euler at 2^14 steps against RK4 at 2000 steps.  The largest error
# measured over 40 pairs per experiment is 1.6e-5 (exp1) and 1.5e-4 (exp2);
# a broken integrator or field is off by O(1).
FLOW_TOL = {"exp1": 1e-3, "exp2": 1e-2}
RK4_STEPS = 2000
FLOW_SAMPLE = 4

# meta.json carries wall_time_s and so is never byte-identical.
UNSTABLE_FILES = ("meta.json",)


def defect(kind, x):
    """Distance from S2 (kind "sphere2") or SO(3) (kind "so3"), per point."""
    x = np.asarray(x, dtype=float)
    if kind == "sphere2":
        return np.abs(np.sqrt(np.sum(x * x, axis=-1)) - 1.0)
    gram = np.einsum("...ki,...kj->...ij", x, x) - np.eye(3)
    return np.sqrt(np.sum(gram * gram, axis=(-2, -1))) + np.abs(np.linalg.det(x) - 1.0)


def digests(root):
    """sha256 of every artifact under root, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            if name in UNSTABLE_FILES:
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _field(experiment, x):
    """Right-hand sides of the paper's two ODEs, written out independently."""
    if experiment == "exp1":
        # x' = x2 * (rotation about z) x + x3 * (rotation about x) x
        w = np.stack([x[..., 2], np.zeros_like(x[..., 0]), x[..., 1]], axis=-1)
        return np.cross(w, x)
    # X' = (Tr(X X) + 3) (B_z + B_y + B_x) X, with B the axis generators
    b = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    factor = np.einsum("...ij,...ji->...", x, x) + 3.0
    return factor[..., None, None] * (b @ x)


def rk4_flow(experiment, x0, steps=RK4_STEPS):
    x = np.array(x0, dtype=float)
    h = 1.0 / steps
    for _ in range(steps):
        k1 = _field(experiment, x)
        k2 = _field(experiment, x + 0.5 * h * k1)
        k3 = _field(experiment, x + 0.5 * h * k2)
        k4 = _field(experiment, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


class Report:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        """One operation attempted; `what` says why when it failed."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_dataset_dir(directory, experiment, p_train, p_test, csv_expected, accurate):
    """Problems with one gen-data output directory (empty list when sound)."""
    kind = "sphere2" if experiment == "exp1" else "so3"
    shape = (3,) if kind == "sphere2" else (3, 3)
    problems = []
    for role, count in (("train", p_train), ("test", p_test)):
        with open(os.path.join(directory, f"{role}.json")) as fh:
            doc = json.load(fh)
        x = np.asarray(doc["inputs"], dtype=float)
        y = np.asarray(doc["targets"], dtype=float)
        if doc["kind"] != kind or x.shape != (count,) + shape or y.shape != x.shape:
            problems.append(f"{role}.json: kind {doc['kind']} shape {x.shape}")
            continue
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            problems.append(f"{role}.json: non-finite values")
            continue
        worst = float(max(np.max(defect(kind, x)), np.max(defect(kind, y))))
        if worst > GEOMETRIC_DEFECT_TOL:
            problems.append(f"{role}.json: defect {worst:.3e}")
        if accurate:
            pick = np.linspace(0, count - 1, min(FLOW_SAMPLE, count)).astype(int)
            err = float(np.max(np.abs(rk4_flow(experiment, x[pick]) - y[pick])))
            if err > FLOW_TOL[experiment]:
                problems.append(f"{role}.json: target off the RK4 flow by {err:.3e}")
        if csv_expected:
            rows = read_csv(os.path.join(directory, f"{role}.csv"))
            flat = np.array([[float(v) for v in r.values()] for r in rows])
            want = np.concatenate([x.reshape(count, -1), y.reshape(count, -1)], axis=1)
            if flat.shape != want.shape or not np.array_equal(flat, want):
                problems.append(f"{role}.csv does not match {role}.json")
    return problems


def check_run_dir(directory, experiment, model, status):
    """Problems with one trained cell or train run (metrics.csv + checkpoint).

    A finished geometric checkpoint is also run forward on fresh manifold
    points, which it must keep on the manifold.
    """
    rows = read_csv(os.path.join(directory, "metrics.csv"))
    if status != "ok":
        return []
    problems = []
    losses = [float(r[k]) for r in rows for k in ("train_loss", "test_loss")]
    if not rows or not all(math.isfinite(v) for v in losses):
        problems.append(f"{directory}: finished with non-finite or no losses")
    if model == "manifold":
        kind = "sphere2" if experiment == "exp1" else "so3"
        recorded = max((float(r["max_defect"]) for r in rows), default=math.inf)
        cfg, params, _ = network.load_checkpoint(os.path.join(directory, "checkpoint.json"))
        points = manifolds.sample_uniform(kind, np.random.default_rng(7), 64)
        fresh = float(np.max(defect(kind, network.network_forward(points, params, cfg)[0])))
        if not (recorded <= GEOMETRIC_DEFECT_TOL and fresh <= GEOMETRIC_DEFECT_TOL):
            problems.append(f"{directory}: output defect {recorded:.3e} recorded, "
                            f"{fresh:.3e} on fresh points")
    return problems
