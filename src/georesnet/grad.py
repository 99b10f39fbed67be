"""Exact reverse-mode gradients of the discrete networks.

The only nontrivial piece is differentiating through the rotation step
x' = R(omega) x with R the Rodrigues exponential.  Writing t = ||omega||,
W = skew(omega) and R = I + s(t) W + c(t) W^2 with s = sin(t)/t and
c = (1 - cos(t))/t^2, the partial with respect to coordinate omega_k is

    dR/domega_k = omega_k u(t) W + s(t) E_k
                + omega_k v(t) W^2 + c(t) (E_k W + W E_k),

where E_k = skew(e_k), u = s'/t and v = c'/t.  Near t = 0 the closed
forms of u and v cancel catastrophically, so they get the same kind of
series branch (and the same threshold) as the forward coefficients:

    u(t) = (t cos t - sin t)/t^3   = -1/3 + t^2/30 - t^4/840 + t^6/45360 ...
    v(t) = (t sin t - 2(1-cos t))/t^4 = -1/12 + t^2/180 - t^4/6720 ...

Pairing dR/domega_k with an output cotangent G = dL/dR under the
Frobenius inner product collapses to cheap contractions because pairing
any matrix with E_k just reads off its antisymmetric part; everything
below is batched over samples.

Gradients are of the discrete maps themselves, exact to floating point;
the finite-difference checker at the bottom is the independent oracle.
objective returns the loss together with its output cotangent, and
network_gradient chains forward pass, objective and backward sweep: the
training loop takes every step through it, and `check gradcheck` checks
it against that oracle.  Both take the flat parameter vector theta;
only the layer VJPs see per-layer parameters, read from the trace.
"""

import numpy as np

from . import network
from .errors import InvalidConfig
from .linalg import _sinc_series, axial_norm, by_angle, skew_from_axial


def _coeff_series(t):
    t2 = t ** 2
    return _sinc_series(t) + (
        -1.0 / 3.0 + t2 * (1.0 / 30.0 + t2 * (-1.0 / 840.0 + t2 / 45360.0)),
        -1.0 / 12.0 + t2 * (1.0 / 180.0 + t2 * (-1.0 / 6720.0 + t2 / 453600.0)))


def _coeff_closed(t):
    st, ct = np.sin(t), np.cos(t)
    return (st / t, (1.0 - ct) / t ** 2,
            (t * ct - st) / t ** 3, (t * st - 2.0 * (1.0 - ct)) / t ** 4)


def _rotation_coeffs(theta):
    """(s, c, u, v) with the small-angle series branch, in one by_angle pass.

    s and c are bitwise linalg._sinc_coeffs; u = s'(t)/t and v = c'(t)/t
    share its sin and cos evaluations.
    """
    return by_angle(theta, _coeff_series, _coeff_closed)


def _axis_pairing(g):
    """<G, E_k>_F for the three axis skews E_k, stacked on the last axis."""
    return np.stack([
        g[..., 2, 1] - g[..., 1, 2],
        g[..., 0, 2] - g[..., 2, 0],
        g[..., 1, 0] - g[..., 0, 1],
    ], axis=-1)


def rotation_cotangent(g, omega):
    """omega-cotangent of omega -> R(omega), given G = dL/dR.  Batched.

    Contracts G against dR/domega_k for each k:
      <G, E_k> is the axis pairing of G itself,
      <G, E_k W + W E_k> is the axis pairing of G W^T + W^T G,
    and the W and W^2 terms contribute scalars times omega.
    """
    s, c, u, v = _rotation_coeffs(axial_norm(omega))
    w = skew_from_axial(omega)
    wt = skew_from_axial(-omega)  # bitwise the transpose of w, but contiguous
    gw = np.sum(g * w, axis=(-2, -1))
    gw2 = np.sum(g * (w @ w), axis=(-2, -1))
    radial = (u * gw + v * gw2)[..., None] * omega
    return radial + s[..., None] * _axis_pairing(g) \
        + c[..., None] * _axis_pairing(g @ wt + wt @ g)


def manifold_layer_vjp(x, saved, params, cfg, vout):
    """Backward step for one geometric layer on a batch of (P, 3, k) columns.

    Takes the layer input x, the (gates, rotation coordinates) that
    network.manifold_layer_forward saved, and the cotangent vout of the
    layer output; returns the cotangent of the layer input along with the
    parameter gradient, shaped like params.  The input cotangent accounts
    for the rotation acting on x and for the rotation's own dependence on
    x through the gates.  Parameter gradients are summed over the batch.
    """
    gate, omega = saved
    # contiguous operands take matmul's fast path with the same sums;
    # R^T = exp(-W) is bitwise the transpose of R = exp(W)
    g = vout @ np.ascontiguousarray(np.swapaxes(x, -1, -2))
    # read through network, so a wrapper installed at network.expm_skew3 sees this call too
    x_cot = network.expm_skew3(-omega) @ vout
    omega_cot = rotation_cotangent(g, omega)
    f_cot = cfg.dt * (omega_cot @ cfg.generators.axials.T)
    gain_grad = np.sum(gate * f_cot, axis=0)
    z_cot = params.gains * gate * (1.0 - gate) * f_cot
    bias_grad = np.sum(z_cot, axis=0)
    weight_grad = np.einsum("pm,pij->mij", z_cot, x).reshape(params.weights.shape)
    x_cot = x_cot + np.einsum("pm,mij->pij", z_cot, np.atleast_3d(params.weights))
    return x_cot, network.ManifoldLayerParams(gain_grad, weight_grad, bias_grad)


def classical_layer_vjp(x, saved, params, cfg, vout):
    """Backward step for one residual block on a batch; closed-form chain rule.

    x holds the flat input rows and saved the (gates,) that
    network.classical_layer_forward returned, s = sigma(w_in x + bias).
    The per-row products go through network._matmul_rows, so a row's input
    cotangent does not depend on the batch it came in.
    """
    (s,), dt = saved, cfg.dt
    w_out_grad = dt * (vout.T @ s)
    t = network._matmul_rows(vout, params.w_out) * (s * (1.0 - s))
    w_in_grad = dt * (t.T @ x)
    bias_grad = dt * np.sum(t, axis=0)
    x_cot = vout + dt * network._matmul_rows(t, params.w_in)
    return x_cot, network.ClassicalLayerParams(w_out_grad, w_in_grad, bias_grad)


def regularizer_norm(theta):
    """Sum of squares of the flat parameter vector theta."""
    return float(np.sum(np.square(theta)))


def objective(outputs, targets, theta=(), lam=0.0, dt=1.0):
    """The training objective of a batch of outputs, as (loss, output cotangent).

    loss = (1/P) sum_j ||outputs_j - targets_j||^2 + (lam dt / 2) ||theta||^2
    with theta the flat parameter vector (network.flatten_params), and the
    output cotangent is its derivative in the outputs, (2/P) (outputs -
    targets).  The defaults give the plain mean squared error, the test loss.
    """
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if outputs.shape != targets.shape or outputs.ndim < 1 or len(outputs) < 1:
        raise InvalidConfig("outputs and targets must be matching nonempty batches")
    r = outputs - targets
    data = float(np.sum(r * r)) / len(r)
    return data + 0.5 * lam * dt * regularizer_norm(theta), (2.0 / len(r)) * r


def backward_from_trace(trace, cotangent):
    """Backward sweep over a recorded forward pass: the data term's flat gradient.

    cotangent is the cotangent of the first len(cotangent) network outputs,
    shaped like them; only those rows of the trace are swept, through the
    per-layer parameters the trace recorded.  The result is laid out like
    the flat parameter vector theta (network.flatten_params).
    """
    cfg, rows = trace.config, len(cotangent)
    upstream = cotangent.reshape((rows,) + trace.states[0].shape[1:])  # the layers' state shape
    # <model>_layer_vjp, looked up by name on each call, so a wrapped VJP sees every layer
    layer_vjp = globals()[f"{cfg.model}_layer_vjp"]
    grads = [None] * cfg.layers
    for n in reversed(range(cfg.layers)):
        upstream, grads[n] = layer_vjp(trace.states[n][:rows], [s[:rows] for s in trace.saved[n]],
                                       trace.params[n], cfg, upstream)
    return network.flatten_params(grads)


def network_gradient(inputs, targets, theta, cfg, lam):
    """One forward, objective and backward pass: (loss, flat gradient, outputs).

    The gradient, laid out like theta, is the data term's from
    backward_from_trace plus lam * dt * theta from the Tikhonov term.  The
    objective and its gradient cover the first len(targets) inputs; any
    inputs after them only ride along through the forward pass, and every
    layer treats rows independently, so their outputs are bitwise those of
    a forward of their own.  Training takes each step through this
    function, and finite_diff_check checks it.
    """
    theta = np.asarray(theta, dtype=float)
    out, trace = network.network_forward(inputs, theta, cfg)
    loss, cotangent = objective(out[:len(targets)], targets, theta, lam, cfg.dt)
    return loss, backward_from_trace(trace, cotangent) + lam * cfg.dt * theta, out


def central_difference(fn, vec, step):
    """Central-difference gradient of a scalar function of a flat vector."""
    vec = np.asarray(vec, dtype=float)
    out = np.empty_like(vec)
    for i in range(vec.size):
        bump = np.zeros_like(vec)
        bump[i] = step
        out[i] = (fn(vec + bump) - fn(vec - bump)) / (2.0 * step)
    return out


# The finite-difference step balances truncation against cancellation for
# the objective, whose magnitude is O(10): the difference f(x+h) - f(x-h)
# carries absolute noise around eps * |f| / h, so h = 1e-6 would bury small
# gradient coordinates in rounding error (measured, not a gradient defect);
# 3e-5 keeps both error sources near 1e-10.
FINITE_DIFF_STEP = 3e-5


def finite_diff_check(theta, cfg, inputs, targets, lam):
    """Worst relative disagreement between exact and numerical gradients.

    Central differences per scalar of theta, at FINITE_DIFF_STEP; the
    relative error uses max(|exact|, |numerical|, 1e-10) in the
    denominator so that zero gradients do not blow up the ratio.
    """
    exact = network_gradient(inputs, targets, theta, cfg, lam)[1]

    def value(vec):
        out = network.network_forward(inputs, vec, cfg)[0]
        return objective(out, targets, vec, lam, cfg.dt)[0]

    numeric = central_difference(value, theta, FINITE_DIFF_STEP)
    denom = np.maximum(np.maximum(np.abs(exact), np.abs(numeric)), 1e-10)
    return float(np.max(np.abs(exact - numeric) / denom))
