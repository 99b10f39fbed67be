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

All forward functions are batched: states stack on a leading axis, and a
single state (shape (3,) or (3, 3)) is accepted anywhere and returned in
kind.
"""

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lie, manifolds
from .errors import InvalidConfig, OffManifold
from .linalg import expm_skew3

MANIFOLD = "manifold"
CLASSICAL = "classical"
MODELS = (MANIFOLD, CLASSICAL)

# Inputs this far off the manifold are a caller bug, not roundoff.
INPUT_DEFECT_TOL = 1e-8


@dataclass(frozen=True)
class NetworkConfig:
    model: str
    space: str
    layers: int

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidConfig(f"unknown model {self.model!r}; expected one of {MODELS}")
        manifolds.check_kind(self.space)
        if not isinstance(self.layers, int) or self.layers < 1:
            raise InvalidConfig("layers must be a positive integer")

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


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, recorded layer by layer.

    states has M+1 entries (input through output); preacts and gates have
    one entry per layer; axials holds each layer's rotation coordinates
    and is None for the classical model.  Replaying the recorded states
    through the layers reproduces the output bitwise.
    """

    config: NetworkConfig
    states: np.ndarray
    preacts: np.ndarray
    gates: np.ndarray
    axials: np.ndarray | None


def sigmoid(z):
    """Logistic function, overflow-safe on both tails."""
    z = np.asarray(z, dtype=float)
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, without an
    # exponent that can overflow
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if z.ndim == 0 else out


def vec_activation(x):
    """Componentwise sigmoid of a vector (or batch of vectors)."""
    return sigmoid(np.asarray(x, dtype=float))


def _as_batch(value, item_ndim):
    value = np.asarray(value, dtype=float)
    if value.ndim == item_ndim:
        return value[None], True
    return value, False


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
    """One geometric layer.  Returns (next state, (preact, gate, axial)).

    The axial entry is the rotation-coordinate vector dt * sum_i gain_i *
    sigma(z_i) * axial(B_i) actually exponentiated, kept for the backward
    pass and for diagnostics.

    x must already lie on the manifold; the layer does not check.
    network_forward checks the network input once, and a rotation keeps a
    finite state on the manifold.
    """
    x, single = _as_batch(x, 1 if cfg.space == manifolds.SPHERE2 else 2)
    z = manifold_preactivation(x, params, cfg.space)
    gate = sigmoid(z)
    f = params.gains * gate
    omega = cfg.dt * _matmul_rows(f, cfg.generators.axials)
    rot = expm_skew3(omega)
    if cfg.space == manifolds.SPHERE2:
        out = np.einsum("pij,pj->pi", rot, x)
    else:
        out = rot @ x
    if single:
        return out[0], (z[0], gate[0], omega[0])
    return out, (z, gate, omega)


def classical_layer_forward(x, params, dt):
    """One residual block on the ambient state; no manifold guarantee."""
    x = np.asarray(x, dtype=float)
    pre = x @ params.w_in.T + params.bias
    return x + dt * (sigmoid(pre) @ params.w_out.T)


def network_forward(x0, params, cfg):
    """Compose all layers, recording a full trace.

    x0 is a single state or a batch; params is the per-layer list, whose
    length must equal cfg.layers.  Classical inputs are flattened ambient
    vectors of length cfg.state_dim.  Geometric inputs whose defect exceeds
    INPUT_DEFECT_TOL, or is NaN, raise OffManifold; this is the only
    manifold check on the way through the layers.
    """
    if len(params) != cfg.layers:
        raise InvalidConfig(f"expected {cfg.layers} layer params, got {len(params)}")
    if cfg.model == MANIFOLD:
        return _manifold_forward(x0, params, cfg)
    return _classical_forward(x0, params, cfg)


def _manifold_forward(x0, params, cfg):
    item_ndim = 1 if cfg.space == manifolds.SPHERE2 else 2
    x, single = _as_batch(x0, item_ndim)
    worst = np.max(manifolds.defect(cfg.space, x))
    if not (worst <= INPUT_DEFECT_TOL):  # NaN fails this test too
        raise OffManifold(f"network input defect {worst:.3e} exceeds {INPUT_DEFECT_TOL:.0e}")
    p = x.shape[0]
    m = len(cfg.generators.fields)
    states = np.empty((cfg.layers + 1,) + x.shape)
    preacts = np.empty((cfg.layers, p, m))
    gates = np.empty_like(preacts)
    axials = np.empty((cfg.layers, p, 3))
    states[0] = x
    for n in range(cfg.layers):
        x, (z, gate, omega) = manifold_layer_forward(x, params[n], cfg)
        states[n + 1] = x
        preacts[n] = z
        gates[n] = gate
        axials[n] = omega
    trace = ForwardTrace(cfg, states, preacts, gates, axials)
    return (x[0] if single else x), trace


def _classical_forward(x0, params, cfg):
    x, single = _as_batch(x0, 1)
    if x.shape[-1] != cfg.state_dim:
        raise InvalidConfig(f"classical state must have length {cfg.state_dim}")
    p, d = x.shape
    states = np.empty((cfg.layers + 1, p, d))
    preacts = np.empty((cfg.layers, p, d))
    gates = np.empty_like(preacts)
    states[0] = x
    for n in range(cfg.layers):
        pre = _matmul_rows(x, params[n].w_in.T) + params[n].bias
        gate = sigmoid(pre)
        x = x + cfg.dt * _matmul_rows(gate, params[n].w_out.T)
        states[n + 1] = x
        preacts[n] = pre
        gates[n] = gate
    trace = ForwardTrace(cfg, states, preacts, gates, None)
    return (x[0] if single else x), trace


def param_count(cfg):
    """Number of stored scalars: 10M / 33M geometric, 21M / 171M baseline."""
    if cfg.model == MANIFOLD:
        m = len(cfg.generators.fields)
        per_weight = 3 if cfg.space == manifolds.SPHERE2 else 9
        return cfg.layers * m * (per_weight + 2)
    d = cfg.state_dim
    return cfg.layers * (2 * d * d + d)


def init_params(cfg, rng):
    """Fresh layer parameters, uniform(-0.5, 0.5); baseline scaled by 1/sqrt(d)."""
    out = []
    for _ in range(cfg.layers):
        if cfg.model == MANIFOLD:
            m = len(cfg.generators.fields)
            wshape = (m, 3) if cfg.space == manifolds.SPHERE2 else (m, 3, 3)
            out.append(ManifoldLayerParams(
                gains=rng.uniform(-0.5, 0.5, m),
                weights=rng.uniform(-0.5, 0.5, wshape),
                biases=rng.uniform(-0.5, 0.5, m),
            ))
        else:
            d = cfg.state_dim
            scale = 1.0 / np.sqrt(d)
            out.append(ClassicalLayerParams(
                w_out=rng.uniform(-0.5, 0.5, (d, d)) * scale,
                w_in=rng.uniform(-0.5, 0.5, (d, d)) * scale,
                bias=rng.uniform(-0.5, 0.5, d) * scale,
            ))
    return out


def flatten_params(params):
    """All scalars as one 1-d vector, layer by layer in field order."""
    chunks = []
    for p in params:
        if isinstance(p, ManifoldLayerParams):
            chunks.extend([p.gains.ravel(), p.weights.ravel(), p.biases.ravel()])
        else:
            chunks.extend([p.w_out.ravel(), p.w_in.ravel(), p.bias.ravel()])
    return np.concatenate(chunks)


def unflatten_params(vec, cfg):
    """Inverse of flatten_params for the given architecture.

    The returned arrays are views into vec, so writing to vec updates them.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.size != param_count(cfg):
        raise InvalidConfig(f"expected {param_count(cfg)} scalars, got {vec.size}")
    out = []
    pos = 0

    def take(shape):
        nonlocal pos
        n = int(np.prod(shape))
        chunk = vec[pos:pos + n].reshape(shape)
        pos += n
        return chunk

    for _ in range(cfg.layers):
        if cfg.model == MANIFOLD:
            m = len(cfg.generators.fields)
            wshape = (m, 3) if cfg.space == manifolds.SPHERE2 else (m, 3, 3)
            out.append(ManifoldLayerParams(take(m), take(wshape), take(m)))
        else:
            d = cfg.state_dim
            out.append(ClassicalLayerParams(take((d, d)), take((d, d)), take(d)))
    return out


def save_checkpoint(path, cfg, params, meta=None):
    """Write architecture and parameters as JSON; floats round-trip bitwise."""
    layers = []
    for p in params:
        if isinstance(p, ManifoldLayerParams):
            layers.append({
                "gains": p.gains.tolist(),
                "weights": p.weights.tolist(),
                "biases": p.biases.tolist(),
            })
        else:
            layers.append({
                "w_out": p.w_out.tolist(),
                "w_in": p.w_in.tolist(),
                "bias": p.bias.tolist(),
            })
    doc = {
        "model": cfg.model,
        "space": cfg.space,
        "layers": cfg.layers,
        "params": layers,
        "meta": meta or {},
    }
    if cfg.model == MANIFOLD:
        doc["generators"] = [f.name for f in cfg.generators.fields]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint back as (config, params, meta)."""
    with open(path) as fh:
        doc = json.load(fh)
    cfg = NetworkConfig(doc["model"], doc["space"], int(doc["layers"]))
    params = []
    for entry in doc["params"]:
        if cfg.model == MANIFOLD:
            params.append(ManifoldLayerParams(
                gains=np.asarray(entry["gains"], dtype=float),
                weights=np.asarray(entry["weights"], dtype=float),
                biases=np.asarray(entry["biases"], dtype=float),
            ))
        else:
            params.append(ClassicalLayerParams(
                w_out=np.asarray(entry["w_out"], dtype=float),
                w_in=np.asarray(entry["w_in"], dtype=float),
                bias=np.asarray(entry["bias"], dtype=float),
            ))
    return cfg, params, doc.get("meta", {})
