"""Forward passes for the geometric ResNet and the unconstrained baseline.

Both nets discretize a time-one flow into M residual layers of width dt =
1/M.  The geometric net moves by a rotation computed from the current
state,

    x_{N+1} = exp(dt * sum_i gain_i * sigma(z_i) * B_i) x_N,

with z_i the scalar pre-activation of generator i (w_i . x + b_i on the
sphere, <W_i, X>_F + b_i on SO(3)).  Because the increment is a rotation,
the state can never leave the manifold, whatever the parameters.  The
baseline is the standard residual step x_{N+1} = x_N + dt * A sigma(W x_N
+ b) on the flattened ambient state and has no such protection.

Both nets take and return batches of manifold points, (P, 3) on S2 and
(P, 3, 3) on SO(3).  network_forward is the only function that turns points
into the baseline's flat ambient rows and back; the layer functions take
batches in the form their model works on.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import lie, manifolds
from .errors import InvalidConfig, check_keys, is_a, numeric_array, read_json_object, write_json
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
        if self.model not in MODELS:
            raise InvalidConfig(f"unknown model {self.model!r}; expected one of {MODELS}")
        manifolds.check_kind(self.space)
        if not is_a(int, self.layers) or self.layers < 1:
            raise InvalidConfig(f"layers must be a positive integer, got {self.layers!r}")

    @property
    def dt(self):
        # derived, never stored: layers * dt == 1 holds by construction
        return 1.0 / self.layers

    @cached_property
    def generators(self):
        return lie.standard_generators(self.space)

    @property
    def state_dim(self):
        return manifolds.ambient_dim(self.space)


@dataclass
class ManifoldLayerParams:
    """Per-generator gain, linear weight, and bias for one geometric layer."""

    gains: np.ndarray    # (m,)
    weights: np.ndarray  # (m, 3) on the sphere, (m, 3, 3) on SO(3)
    biases: np.ndarray   # (m,)


@dataclass
class ClassicalLayerParams:
    """One residual block x + dt * w_out @ sigma(w_in @ x + bias)."""

    w_out: np.ndarray  # (d, d)
    w_in: np.ndarray   # (d, d)
    bias: np.ndarray   # (d,)


_FIELDS = {cls: tuple(f.name for f in fields(cls))
           for cls in (ManifoldLayerParams, ClassicalLayerParams)}


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, recorded layer by layer.

    states has M+1 entries (input through output); gates has one entry per
    layer; axials holds each layer's rotation coordinates and is None for
    the classical model.  Replaying the recorded states through the layers
    reproduces the output bitwise.
    """

    config: NetworkConfig
    states: np.ndarray
    gates: np.ndarray
    axials: np.ndarray | None = None


def sigmoid(z):
    """Logistic function, overflow-safe on both tails."""
    z = np.asarray(z, dtype=float)
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, without an
    # exponent that can overflow
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if z.ndim == 0 else out


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


def manifold_preactivation(x, params, space):
    """z_i = w_i . x + b_i (sphere) or <W_i, X>_F + b_i (rotations)."""
    if space == manifolds.SPHERE2:
        return _matmul_rows(x, params.weights.T) + params.biases
    return np.einsum("mij,pij->pm", params.weights, x) + params.biases


def manifold_layer_forward(x, params, cfg):
    """One geometric layer on a batch.  Returns (next states, (gate, axial)).

    The axial entry is the rotation-coordinate vector dt * sum_i gain_i *
    sigma(z_i) * axial(B_i) actually exponentiated, kept for the backward
    pass and for diagnostics.

    x must already lie on the manifold; the layer does not check.
    network_forward checks the network input once, and a rotation keeps a
    finite state on the manifold.
    """
    gate = sigmoid(manifold_preactivation(x, params, cfg.space))
    f = params.gains * gate
    omega = cfg.dt * _matmul_rows(f, cfg.generators.axials)
    rot = expm_skew3(omega)
    if cfg.space == manifolds.SPHERE2:
        out = np.einsum("pij,pj->pi", rot, x)
    else:
        out = rot @ x
    return out, (gate, omega)


def classical_layer_forward(x, params, cfg):
    """One residual block x + dt * w_out @ sigma(w_in @ x + bias) on a batch.

    Returns (next states, (gate,)), like manifold_layer_forward.  The rows
    of x are flat ambient vectors, and nothing keeps them on the manifold.
    """
    gate = sigmoid(_matmul_rows(x, params.w_in.T) + params.bias)
    out = x + cfg.dt * _matmul_rows(gate, params.w_out.T)
    return out, (gate,)


def network_forward(x0, params, cfg):
    """Compose all layers, recording a full trace.

    x0 is a batch of manifold points, for either model; a lone point
    raises InvalidConfig, since the loss would read its coordinates as
    samples.  params is the per-layer list, whose length must equal
    cfg.layers.  The output has the shape of x0.  Geometric inputs whose
    defect exceeds manifolds.ON_MANIFOLD_TOL, or is NaN, raise
    OffManifold; this is the only manifold check on the way through the
    layers.

    The baseline works on flat ambient rows of length cfg.state_dim: the
    batch is flattened here on entry, the trace records the flat states,
    and the output is reshaped back to points on exit.
    """
    if len(params) != cfg.layers:
        raise InvalidConfig(f"expected {cfg.layers} layer params, got {len(params)}")
    shape = manifolds.point_shape(cfg.space)
    x = np.asarray(x0, dtype=float)
    if x.shape[1:] != shape:
        raise InvalidConfig(f"inputs must be a batch of {cfg.space} points, shape (P,) + "
                            f"{shape}, got {x.shape}")
    if cfg.model == MANIFOLD:
        manifolds.check_on_manifold(cfg.space, x, "network input")
        m = len(cfg.generators.axials)
        layer_forward, recorded = manifold_layer_forward, ((m,), (3,))
    else:
        x = x.reshape(len(x), cfg.state_dim)
        layer_forward, recorded = classical_layer_forward, ((cfg.state_dim,),)
    states = np.empty((cfg.layers + 1,) + x.shape)
    records = [np.empty((cfg.layers, x.shape[0]) + dims) for dims in recorded]
    states[0] = x
    for n in range(cfg.layers):
        x, values = layer_forward(x, params[n], cfg)
        states[n + 1] = x
        for record, value in zip(records, values):
            record[n] = value
    return x.reshape((len(x),) + shape), ForwardTrace(cfg, states, *records)


def layer_schema(cfg):
    """The stored layout of one layer: (dataclass, fields, init scale).

    fields pairs each dataclass field name with its per-layer shape, in
    stored order; parameter counting, initialization, flattening and
    checkpoints all follow it.  init_scale
    multiplies the uniform(-0.5, 0.5) initial draw: 1/sqrt(d) for the
    baseline, 1 for the geometric net.
    """
    if cfg.model == MANIFOLD:
        m = len(cfg.generators.axials)
        weights = (m,) + manifolds.point_shape(cfg.space)
        cls, shapes, scale = ManifoldLayerParams, ((m,), weights, (m,)), 1.0
    else:
        d = cfg.state_dim
        cls, shapes, scale = ClassicalLayerParams, ((d, d), (d, d), (d,)), 1.0 / np.sqrt(d)
    return cls, tuple(zip(_FIELDS[cls], shapes)), scale


def param_count(cfg):
    """Number of stored scalars: 10M / 33M geometric, 21M / 171M baseline."""
    return cfg.layers * sum(math.prod(shape) for _, shape in layer_schema(cfg)[1])


def init_params(cfg, rng):
    """Fresh layer parameters, uniform(-0.5, 0.5) times the schema's scale.

    One draw fills every layer in stored order, which gives the same
    numbers as drawing field by field; the arrays are views into it.
    """
    flat = rng.uniform(-0.5, 0.5, param_count(cfg)) * layer_schema(cfg)[2]
    return unflatten_params(flat, cfg)


def flatten_params(params):
    """All scalars as one 1-d vector, layer by layer in field order."""
    return np.concatenate([getattr(p, name).ravel()
                           for p in params for name in _FIELDS[type(p)]])


def unflatten_params(vec, cfg):
    """Inverse of flatten_params for the given architecture.

    The returned arrays are views into vec, so writing to vec updates them.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.size != param_count(cfg):
        raise InvalidConfig(f"expected {param_count(cfg)} scalars, got {vec.size}")
    cls, schema, _ = layer_schema(cfg)
    ends = np.cumsum([math.prod(shape) for _, shape in schema])[:-1]
    return [cls(*(chunk.reshape(shape) for chunk, (_, shape) in zip(np.split(row, ends), schema)))
            for row in vec.reshape(cfg.layers, -1)]


def save_checkpoint(path, cfg, params, meta=None):
    """Write architecture and parameters as JSON; floats round-trip bitwise."""
    schema = layer_schema(cfg)[1]
    doc = {
        "model": cfg.model,
        "space": cfg.space,
        "layers": cfg.layers,
        "params": [{name: getattr(p, name) for name, _ in schema} for p in params],
        "meta": meta or {},
    }
    if cfg.model == MANIFOLD:
        doc["generators"] = list(cfg.generators.names)
    write_json(path, doc)


def load_checkpoint(path):
    """Read a checkpoint back as (config, params, meta).

    Raises InvalidConfig naming the file unless it holds model, space,
    layers and params, params is a list of one object per layer, and each
    object holds every field of the layer schema, numeric, at its shape,
    all finite.
    """
    doc = read_json_object(path)
    check_keys(doc, f"checkpoint {path}", required=("model", "space", "layers", "params"))
    cfg = NetworkConfig(doc["model"], doc["space"], doc["layers"])
    entries = doc["params"]
    if not (isinstance(entries, list) and len(entries) == cfg.layers
            and all(isinstance(e, dict) for e in entries)):
        raise InvalidConfig(f"checkpoint {path}: params must be a list of "
                            f"{cfg.layers} objects, one per layer")
    cls, schema, _ = layer_schema(cfg)
    params = [cls(*(numeric_array(entry.get(name, ()), f"checkpoint {path} layer {n}: {name!r}",
                                  shape) for name, shape in schema))
              for n, entry in enumerate(entries)]
    return cfg, params, doc.get("meta", {})
