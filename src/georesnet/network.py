"""Forward passes for the geometric ResNet and the unconstrained baseline.

Both nets discretize a time-one flow into M residual layers of width dt =
1/M.  The geometric net moves by a rotation computed from the current
state,

    x_{N+1} = exp(dt * sum_i gain_i * sigma(z_i) * B_i) x_N,

with z_i = <W_i, x_N>_F + b_i and x_N a 3 x k column block, k = 1 on the
sphere and 3 on SO(3).  Because the increment is a rotation, the state can
never leave the manifold, whatever the parameters.  The baseline is the
standard residual step x_{N+1} = x_N + dt * A sigma(W x_N + b) on the
flattened ambient state and has no such protection.

Both nets take and return batches of manifold points, (P, 3) on S2 and
(P, 3, 3) on SO(3).  network_forward is the only function that turns them
into the layers' form and back: (P, 3, k) columns or flat ambient rows.
family(cfg) is the one place that asks which model a config runs.

Parameters cross every function above the layers as one flat vector theta;
only network_forward and save_checkpoint cut it up (unflatten_params).
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lie, manifolds
from .errors import (InvalidConfig, check_fields, check_keys, numeric_array, read_json_object,
                     write_json)
from .linalg import expm_skew3

MANIFOLD = "manifold"
CLASSICAL = "classical"
MODELS = (MANIFOLD, CLASSICAL)


@dataclass(frozen=True)
class NetworkConfig:
    model: str
    space: str
    layers: int

    def __post_init__(self):
        check_fields(self, "network config")
        if self.model not in MODELS:
            raise InvalidConfig(f"unknown model {self.model!r}; expected one of {MODELS}")
        manifolds.check_kind(self.space)
        if self.layers < 1:
            raise InvalidConfig(f"layers must be a positive integer, got {self.layers!r}")

    @property
    def dt(self):
        # derived, never stored: layers * dt == 1 holds by construction
        return 1.0 / self.layers

    @cached_property
    def generators(self):
        return lie.standard_generators(self.space)


# One layer's parameters, each tuple in theta's stored order, at family(cfg).shapes.
# The classical block is x + dt * w_out @ sigma(w_in @ x + bias) on flat rows.
ManifoldLayerParams = namedtuple("ManifoldLayerParams", "gains weights biases")
ClassicalLayerParams = namedtuple("ClassicalLayerParams", "w_out w_in bias")


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, recorded layer by layer.

    params holds the per-layer views of the pass's theta; states the input
    (C-contiguous) and the M arrays the layers returned, in the layers'
    form; saved[n] the tuple layer n returned beside its output, which its
    VJP takes back.  Layer 0 runs on states[0], so replaying states[n]
    through layer n reproduces states[n + 1] and saved[n] bitwise.
    """

    config: NetworkConfig
    params: list
    states: list
    saved: list


def sigmoid(z):
    """Logistic function, overflow-safe on both tails."""
    z = np.asarray(z, dtype=float)
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, without an
    # exponent that can overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _matmul_rows(a, b):
    """a @ b for a batch of rows a, each row rounded as in any other batch.

    numpy hands a one-row product to BLAS gemv and a taller one to gemm,
    and the two can differ in the last bit.  A lone row is doubled so that
    it takes gemm too; a row's result then does not depend on its batch,
    which lets train_loop run train and test rows through one forward.
    """
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def manifold_preactivation(x, params):
    """z_i = <W_i, X>_F + b_i for (P, 3, k) columns X, with W_i viewed as 3 x k too."""
    return np.einsum("mij,pij->pm", np.atleast_3d(params.weights), x) + params.biases


def manifold_layer_forward(x, params, cfg):
    """One geometric layer on (P, 3, k) columns.  Returns (next states, (gate, axial)).

    The axial entry is the rotation-coordinate vector dt * sum_i gain_i *
    sigma(z_i) * axial(B_i) actually exponentiated, kept for the backward
    pass and for diagnostics.

    x must already lie on the manifold; the layer does not check.
    network_forward checks the network input once, and a rotation keeps a
    finite state on the manifold.
    """
    gate = sigmoid(manifold_preactivation(x, params))
    f = params.gains * gate
    omega = cfg.dt * _matmul_rows(f, cfg.generators.axials)
    rot = expm_skew3(omega)
    return rot @ x, (gate, omega)


def classical_layer_forward(x, params, cfg):
    """One residual block x + dt * w_out @ sigma(w_in @ x + bias) on a batch.

    Returns (next states, (gate,)), like manifold_layer_forward.  The rows
    of x are flat ambient vectors, and nothing keeps them on the manifold.
    """
    gate = sigmoid(_matmul_rows(x, params.w_in.T) + params.bias)
    out = x + cfg.dt * _matmul_rows(gate, params.w_out.T)
    return out, (gate,)


def network_forward(x0, theta, cfg):
    """Compose all layers, recording a full trace.

    x0 is a batch of manifold points for either model (manifolds.as_batch);
    a lone point raises InvalidConfig, since the loss would read its
    coordinates as samples.  theta, of cfg's size, is cut into the per-layer
    views that the trace keeps.  The output has the shape of x0 and may
    share memory with trace.states[-1].  Geometric inputs whose defect
    exceeds manifolds.ON_MANIFOLD_TOL, or is NaN, raise OffManifold; this is
    the only manifold check on the way through the layers.

    The layers take the batch in their family's state_shape, and the trace
    records that form.  <model>_layer_forward is looked up by name on each
    pass, so a wrapper installed at that module attribute sees every layer.
    """
    fam, params = family(cfg), unflatten_params(theta, cfg)
    x = manifolds.as_batch(cfg.space, x0, "inputs")  # the layers round a row as in C order
    if fam.on_manifold:
        manifolds.check_on_manifold(cfg.space, x, "network input")
    x = x.reshape((len(x),) + fam.state_shape)
    layer_forward = globals()[f"{cfg.model}_layer_forward"]
    trace = ForwardTrace(cfg, params, [x], [])
    for n in range(cfg.layers):
        x, saved = layer_forward(x, params[n], cfg)
        trace.states.append(x)
        trace.saved.append(saved)
    return x.reshape((len(x),) + manifolds.point_shape(cfg.space)), trace


Family = namedtuple("Family", "layer shapes init_scale on_manifold state_shape checkpoint_keys")


def family(cfg):
    """Everything cfg's model family differs in, as a Family.

    layer is the per-layer parameter type and shapes its fields' shapes, in
    stored order; counting, initialization, flattening and checkpoints all
    follow them.  init_scale multiplies the uniform(-0.5, 0.5) initial draw,
    on_manifold says whether inputs must lie on the manifold, state_shape is
    one point's shape in the layers (3 x k columns or d flat coordinates),
    and checkpoint_keys is what a checkpoint holds beside the layers.
    """
    d = manifolds.ambient_dim(cfg.space)
    if cfg.model == MANIFOLD:
        m = len(cfg.generators.axials)
        return Family(ManifoldLayerParams, ((m,), (m,) + manifolds.point_shape(cfg.space), (m,)),
                      1.0, True, (3, d // 3), {"generators": list(cfg.generators.names)})
    return Family(ClassicalLayerParams, ((d, d), (d, d), (d,)), 1.0 / np.sqrt(d), False, (d,), {})


def param_count(cfg):
    """Number of stored scalars: 10M / 33M geometric, 21M / 171M baseline."""
    return cfg.layers * sum(math.prod(shape) for shape in family(cfg).shapes)


def init_params(cfg, rng):
    """Fresh theta, uniform(-0.5, 0.5) times the family's init_scale.

    One draw fills every layer in stored order, which gives the same
    numbers as drawing field by field.
    """
    return rng.uniform(-0.5, 0.5, param_count(cfg)) * family(cfg).init_scale


def flatten_params(params):
    """theta: a per-layer list's scalars as one 1-d vector, layer by layer in field order."""
    return np.concatenate([array.ravel() for layer in params for array in layer])


def unflatten_params(theta, cfg):
    """Inverse of flatten_params for the given architecture.

    Each field is one slice of theta's (layers, -1) rows; the returned
    arrays are views into theta, so writing to theta updates them.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (param_count(cfg),):
        raise InvalidConfig(f"expected a vector of {param_count(cfg)} scalars, got {theta.shape}")
    fam = family(cfg)
    rows, sizes = theta.reshape(cfg.layers, -1), [math.prod(shape) for shape in fam.shapes]
    columns = [rows[:, sum(sizes[:i]):sum(sizes[:i + 1])].reshape((cfg.layers,) + shape)
               for i, shape in enumerate(fam.shapes)]
    return [fam.layer(*layer) for layer in zip(*columns)]


def save_checkpoint(path, cfg, theta, meta=None):
    """Write architecture and theta as JSON, one object per layer; floats round-trip bitwise."""
    write_json(path, {
        "model": cfg.model,
        "space": cfg.space,
        "layers": cfg.layers,
        "params": [layer._asdict() for layer in unflatten_params(theta, cfg)],
        "meta": meta or {},
        **family(cfg).checkpoint_keys,
    })


def load_checkpoint(path):
    """Read a checkpoint back as (config, theta, meta).

    Raises InvalidConfig naming the file unless it holds model, space and
    layers that make a NetworkConfig, exactly its family's checkpoint_keys
    (a geometric net's generator names), and params, a list of one object
    per layer, each holding exactly the family's fields, numeric, at their
    shapes, all finite.  meta, an object, may be left out; any other key is
    refused.
    """
    return read_json_object(path, _checkpoint)


def _checkpoint(doc):
    check_keys(doc, "checkpoint", ("model", "space", "layers", "params", "generators", "meta"),
               optional=("generators", "meta"))
    cfg = NetworkConfig(doc["model"], doc["space"], doc["layers"])
    fam, found = family(cfg), {key: doc[key] for key in ("generators",) if key in doc}
    if found != fam.checkpoint_keys:
        raise InvalidConfig(f"a {cfg.model} checkpoint on {cfg.space} holds "
                            f"{fam.checkpoint_keys} beside its layers, got {found}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise InvalidConfig(f"meta must be a JSON object, got {type(meta).__name__}")
    entries = doc["params"]
    if not (isinstance(entries, list) and len(entries) == cfg.layers
            and all(isinstance(e, dict) for e in entries)):
        raise InvalidConfig(f"params must be a list of {cfg.layers} objects, one per layer")
    params = []
    for n, entry in enumerate(entries):
        check_keys(entry, f"layer {n}", fam.layer._fields)
        params.append(fam.layer(*(numeric_array(entry[name], f"layer {n}: {name!r}", shape)
                                  for name, shape in zip(fam.layer._fields, fam.shapes))))
    return cfg, flatten_params(params), meta
