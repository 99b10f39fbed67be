"""Span tracing of georesnet's public functions, done from outside the package.

Each traced function is replaced, for the duration of a ``with`` block, by a
wrapper at the name its callers look it up under: a module global when the
package calls it unqualified (``sweep.run_cell``, ``network.sigmoid``), a
module attribute when it is reached as ``module.function``.  ``expm_skew3``
is imported by name into both ``network`` and ``data``, so it is wrapped at
both places under the one span name ``linalg.expm_skew3``.

A span is ``[name id, start, end, parent index, rep, work]``; spans stay in
memory and are written out once, at the end of the benchmark run.  Self time
is a span's duration minus its children's durations, which is exact here
because the package runs on one thread and spans nest.
"""

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from georesnet import cli, data, grad, manifolds, network, sweep, train
from georesnet.errors import DivergenceDetected

LAYERS = ("cli", "sweep", "train", "network", "grad", "linalg", "manifolds", "data")

# Output writers.  Their spans are also grouped as "sweep.write" when they
# run inside a sweep and as "cli.write" when a train command issues them.
WRITERS = ("network.save_checkpoint", "train.RunMetrics.to_csv",
           "sweep.write_results_csv", "sweep.render_chart", "sweep.save_spec")


def _path_bytes(index):
    def work(args, kwargs, outcome):
        path = args[index]
        return os.path.getsize(path) if os.path.exists(path) else 0
    return work


def _epochs(args, kwargs, outcome):
    metrics = outcome.metrics if isinstance(outcome, DivergenceDetected) else outcome
    return len(metrics) if isinstance(metrics, train.RunMetrics) else 0


def _items(args, kwargs, outcome):
    # expm_skew3(omega): one matrix per axial 3-vector
    return np.size(args[0]) // 3


def _defect_items(args, kwargs, outcome):
    # defect(kind, value) returns one number per point
    return int(np.size(outcome)) if isinstance(outcome, np.ndarray) else 1


def _flow_steps(args, kwargs, outcome):
    # ground_truth_flow(x0, ode, steps): pairs times integration steps
    x0, ode = args[0], args[1]
    steps = args[2] if len(args) > 2 else kwargs.get("steps", data.DEFAULT_STEPS)
    per_point = 3 if ode.kind == manifolds.SPHERE2 else 9
    return (np.size(x0) // per_point) * steps


# (owner, attribute, span name, work counter or None)
TARGETS = (
    (cli, "main", "cli.main", None),
    (sweep, "run_sweep", "sweep.run_sweep", None),
    (sweep, "run_cell", "sweep.run_cell", None),
    (sweep, "write_results_csv", "sweep.write_results_csv", _path_bytes(1)),
    (sweep, "render_chart", "sweep.render_chart", _path_bytes(1)),
    (sweep, "save_spec", "sweep.save_spec", _path_bytes(1)),
    (train, "train_loop", "train.train_loop", _epochs),
    (train, "sgd_step", "train.sgd_step", None),
    (train, "prediction_defects", "train.prediction_defects", None),
    (train.RunMetrics, "to_csv", "train.RunMetrics.to_csv", _path_bytes(1)),
    (network, "network_forward", "network.network_forward", None),
    (network, "manifold_layer_forward", "network.manifold_layer_forward", None),
    (network, "flatten_params", "network.flatten_params", None),
    (network, "unflatten_params", "network.unflatten_params", None),
    (network, "sigmoid", "network.sigmoid", None),
    (network, "save_checkpoint", "network.save_checkpoint", _path_bytes(0)),
    (network, "expm_skew3", "linalg.expm_skew3", _items),
    (grad, "backward_from_trace", "grad.backward_from_trace", None),
    (grad, "manifold_layer_vjp", "grad.manifold_layer_vjp", None),
    (grad, "classical_layer_vjp", "grad.classical_layer_vjp", None),
    (grad, "rotation_cotangent", "grad.rotation_cotangent", None),
    (grad, "regularizer_norm", "grad.regularizer_norm", None),
    (data, "expm_skew3", "linalg.expm_skew3", _items),
    (data, "generate_dataset", "data.generate_dataset", None),
    (data, "ground_truth_flow", "data.ground_truth_flow", _flow_steps),
    (data, "save_dataset", "data.save_dataset", _path_bytes(1)),
    (data, "save_dataset_csv", "data.save_dataset_csv", _path_bytes(1)),
    (data, "load_dataset", "data.load_dataset", _path_bytes(0)),
    (manifolds, "defect", "manifolds.defect", _defect_items),
    (manifolds, "sample_uniform", "manifolds.sample_uniform", None),
)

_ORIGINALS = tuple((owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS)

FUNCTIONS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS if name not in WRITERS))

# Work counts reported next to calls/s/self_s: metric name -> span name.
WORK = {
    "train.epochs": "train.train_loop",
    "data.flow_steps": "data.ground_truth_flow",
    "linalg.expm_skew3.items": "linalg.expm_skew3",
    "manifolds.defect.items": "manifolds.defect",
    "data.save_dataset.bytes": "data.save_dataset",
    "data.save_dataset_csv.bytes": "data.save_dataset_csv",
    "data.load_dataset.bytes": "data.load_dataset",
}


def _span_layer(name):
    return name.split(".", 1)[0]


class Tracer:
    """Records spans around the TARGETS while active; restores them after."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._ids = {}
        self._stack = []
        self._saved = []
        self.rep = -1  # stamped on every span; set by the caller per rep

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, work):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.rep, 0]
            stack.append(len(spans))
            spans.append(rec)
            outcome = None
            rec[1] = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as err:
                outcome = err
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if work is not None:
                    rec[5] = work(args, kwargs, outcome)

        return wrapper

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already active")
        for owner, attr, name, work in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def aggregate(self, rep):
        """Per-function and per-layer totals of one rep's spans."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        work = defaultdict(int)
        child = defaultdict(float)
        names = self.names
        index = [i for i, s in enumerate(self.spans) if s[4] == rep]
        for i in index:
            s = self.spans[i]
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        groups = defaultdict(lambda: [0, 0.0, 0])
        for i in index:
            nid, start, end, parent, _, amount = self.spans[i]
            name = names[nid]
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            work[name] += amount
            if name in WRITERS:
                group = "sweep.write" if (name.startswith("sweep.")
                                          or self._has_ancestor(i, "sweep.run_sweep")) \
                    else "cli.write"
                g = groups[group]
                g[0] += 1
                g[1] += dur
                g[2] += amount
        roots = sum(self.spans[i][2] - self.spans[i][1] for i in index
                    if self.spans[i][3] < 0)
        return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_s),
                "work": dict(work), "groups": {k: tuple(v) for k, v in groups.items()},
                "root_s": roots, "spans": len(index)}

    def _has_ancestor(self, i, name):
        nid = self._ids.get(name)
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == nid:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, meta):
        """Dump every span: names table plus one row per span."""
        doc = {"meta": meta, "names": self.names,
               "columns": ["name", "start", "end", "parent", "rep", "work"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_metrics(agg):
    """Flatten one rep's aggregate into the BENCHMARK.json per-layer names."""
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = agg["calls"].get(name, 0)
        out[f"{name}.s"] = agg["s"].get(name, 0.0)
        out[f"{name}.self_s"] = agg["self_s"].get(name, 0.0)
    for group in ("sweep.write", "cli.write"):
        calls, secs, nbytes = agg["groups"].get(group, (0, 0.0, 0))
        out[f"{group}.calls"] = calls
        out[f"{group}.s"] = secs
        out[f"{group}.bytes"] = nbytes
    for metric, name in WORK.items():
        out[metric] = agg["work"].get(name, 0)
    layer_self = defaultdict(float)
    for name, secs in agg["self_s"].items():
        layer_self[_span_layer(name)] += secs
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out


def restored():
    """True when every traced name holds the package's own function again."""
    return all(owner.__dict__[attr] is fn for owner, attr, fn in _ORIGINALS)
