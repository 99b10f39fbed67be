"""Reverse-mode gradients checked against independent finite differences."""

import numpy as np
import pytest

from georesnet import grad, manifolds, network
from georesnet.errors import InvalidConfig
from georesnet.linalg import SMALL_ANGLE, expm_skew3


def make_config(model, space, layers):
    return network.NetworkConfig(model, space, layers)


def random_problem(model, space, layers, batch, seed):
    rng = np.random.default_rng(seed)
    cfg = make_config(model, space, layers)
    params = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(space, rng, batch)
    y = manifolds.sample_uniform(space, rng, batch)
    return cfg, params, x, y


# --- rotation_cotangent -----------------------------------------------------

def numeric_rotation_cotangent(g, omega, step=1e-6):
    out = np.empty(3)
    for k in range(3):
        bump = np.zeros(3)
        bump[k] = step
        plus = np.sum(g * expm_skew3(omega + bump))
        minus = np.sum(g * expm_skew3(omega - bump))
        out[k] = (plus - minus) / (2.0 * step)
    return out


def test_rotation_cotangent_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = rng.standard_normal((3, 3))
        omega = rng.uniform(-2.0, 2.0, 3)
        exact = grad.rotation_cotangent(g, omega)
        assert np.allclose(exact, numeric_rotation_cotangent(g, omega),
                           atol=1e-7)


def test_rotation_cotangent_near_zero_angle():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((3, 3))
    for scale in (0.0, 1e-9, 1e-5):
        omega = scale * np.array([0.6, -0.8, 0.0])
        exact = grad.rotation_cotangent(g, omega)
        assert np.allclose(exact, numeric_rotation_cotangent(g, omega),
                           atol=1e-7)


def test_rotation_cotangent_continuous_across_series_branch():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3))
    axis = np.array([1.0, 0.0, 0.0])
    eps = 1e-9 * SMALL_ANGLE
    below = grad.rotation_cotangent(g, (SMALL_ANGLE - eps) * axis)
    above = grad.rotation_cotangent(g, (SMALL_ANGLE + eps) * axis)
    assert np.max(np.abs(below - above)) <= 1e-12


def test_rotation_cotangent_is_linear_in_the_upstream():
    rng = np.random.default_rng(3)
    g1, g2 = rng.standard_normal((2, 3, 3))
    omega = rng.uniform(-1.0, 1.0, 3)
    lhs = grad.rotation_cotangent(3.0 * g1 - g2, omega)
    rhs = 3.0 * grad.rotation_cotangent(g1, omega) \
        - grad.rotation_cotangent(g2, omega)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_mixed_batch_rotation_cotangent_equals_each_row_alone():
    rng = np.random.default_rng(4)
    axes = rng.standard_normal((8, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.array([3e-5, 0.7, 0.0, 2e-4, 1e-9, SMALL_ANGLE, 4.0, 6e-5])
    omega = axes * angles[:, None]
    g = rng.standard_normal((8, 3, 3))
    batch = grad.rotation_cotangent(g, omega)
    for i in range(len(omega)):
        assert np.array_equal(batch[i], grad.rotation_cotangent(g[i], omega[i]))


# --- layer VJPs -------------------------------------------------------------

def test_manifold_vjp_zero_upstream_gives_zero_gradients():
    cfg, params, x, _ = random_problem(network.MANIFOLD, manifolds.SPHERE2, 1, 4, 4)
    _, trace = network.network_forward(x, params, cfg)
    x_cot, g = grad.manifold_layer_vjp(
        trace.states[0], trace.gates[0], trace.axials[0],
        params[0], cfg, np.zeros_like(x))
    assert np.array_equal(x_cot, np.zeros_like(x))
    assert np.array_equal(g.gains, np.zeros(2))
    assert np.array_equal(g.weights, np.zeros((2, 3)))
    assert np.array_equal(g.biases, np.zeros(2))


def test_manifold_vjp_at_zero_gains():
    # with all gains zero the layer is the identity in x, the input
    # cotangent passes through, and only the gains receive gradient:
    # d/da_i = dt sigma(z_i) v . (B_i x)
    rng = np.random.default_rng(5)
    cfg = make_config(network.MANIFOLD, manifolds.SPHERE2, 2)
    params = network.ManifoldLayerParams(
        gains=np.zeros(2), weights=rng.standard_normal((2, 3)),
        biases=rng.standard_normal(2))
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 1)
    v = rng.standard_normal((1, 3))
    out, (gate, omega) = network.manifold_layer_forward(x, params, cfg)
    x_cot, g = grad.manifold_layer_vjp(x, gate, omega, params, cfg, v)
    assert np.allclose(x_cot, v, atol=1e-15)
    assert np.array_equal(g.weights, np.zeros((2, 3)))
    assert np.array_equal(g.biases, np.zeros(2))
    for i, field in enumerate(cfg.generators.fields):
        expected = cfg.dt * gate[0, i] * (v[0] @ (field.matrix @ x[0]))
        assert np.isclose(g.gains[i], expected, atol=1e-14)


def test_manifold_vjp_is_linear_in_the_upstream():
    cfg, params, x, _ = random_problem(network.MANIFOLD, manifolds.SO3, 1, 3, 6)
    _, trace = network.network_forward(x, params, cfg)
    rng = np.random.default_rng(7)
    v1, v2 = rng.standard_normal((2,) + x.shape)
    args = (trace.states[0], trace.gates[0], trace.axials[0],
            params[0], cfg)
    x_a, g_a = grad.manifold_layer_vjp(*args, 2.0 * v1 + v2)
    x_1, g_1 = grad.manifold_layer_vjp(*args, v1)
    x_2, g_2 = grad.manifold_layer_vjp(*args, v2)
    assert np.allclose(x_a, 2.0 * x_1 + x_2, atol=1e-12)
    assert np.allclose(g_a.weights, 2.0 * g_1.weights + g_2.weights, atol=1e-12)


def test_classical_vjp_zero_output_weight_passes_upstream_through():
    rng = np.random.default_rng(8)
    params = network.ClassicalLayerParams(
        w_out=np.zeros((3, 3)), w_in=rng.standard_normal((3, 3)),
        bias=rng.standard_normal(3))
    v = rng.standard_normal((1, 3))
    x = rng.standard_normal((1, 3))
    gate = network.sigmoid(x @ params.w_in.T + params.bias)
    x_cot, g = grad.classical_layer_vjp(x, gate, params, 0.5, v)
    assert np.array_equal(x_cot, v)
    assert np.array_equal(g.w_in, np.zeros((3, 3)))
    assert np.array_equal(g.bias, np.zeros(3))


def test_classical_vjp_scalar_case_matches_hand_chain_rule():
    # d = 1: layer is x + dt a sigma(w x + b); every derivative has a
    # one-line closed form
    a, w, b, x, v, dt = 1.7, -0.6, 0.25, 0.9, 1.3, 0.5
    params = network.ClassicalLayerParams(
        w_out=np.array([[a]]), w_in=np.array([[w]]), bias=np.array([b]))
    z = w * x + b
    s = network.sigmoid(z)
    x_cot, g = grad.classical_layer_vjp(np.array([[x]]), np.array([[s]]), params, dt,
                                        np.array([[v]]))
    ds = s * (1.0 - s)
    assert np.isclose(g.w_out[0, 0], dt * s * v, rtol=1e-15)
    assert np.isclose(g.w_in[0, 0], dt * a * ds * x * v, rtol=1e-14)
    assert np.isclose(g.bias[0], dt * a * ds * v, rtol=1e-14)
    assert np.isclose(x_cot[0, 0], v + dt * v * a * ds * w, rtol=1e-14)


def test_classical_vjp_matches_finite_differences():
    cfg, params, x, y = random_problem(network.CLASSICAL, manifolds.SPHERE2, 2, 4, 9)
    assert grad.finite_diff_check(params, cfg, x, y, lam=0.0) <= 1e-6


# --- whole-network gradient -------------------------------------------------

def test_zero_residual_zero_lambda_gives_zero_everything():
    rng = np.random.default_rng(10)
    cfg = make_config(network.MANIFOLD, manifolds.SPHERE2, 3)
    params = [network.ManifoldLayerParams(np.zeros(2),
                                          rng.standard_normal((2, 3)),
                                          rng.standard_normal(2))
              for _ in range(3)]
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 5)
    value, flat_grad = grad.network_gradient(x, x, params, cfg, lam=0.0)
    assert value == 0.0
    assert np.array_equal(flat_grad, np.zeros(network.param_count(cfg)))


def test_zero_residual_gradient_is_exactly_the_regularizer():
    rng = np.random.default_rng(11)
    cfg = make_config(network.MANIFOLD, manifolds.SPHERE2, 2)
    params = [network.ManifoldLayerParams(np.zeros(2),
                                          rng.standard_normal((2, 3)),
                                          rng.standard_normal(2))
              for _ in range(2)]
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 4)
    lam = 0.35
    _, flat_grad = grad.network_gradient(x, x, params, cfg, lam=lam)
    # per layer, in the stored field order: gains, weights, biases
    for p, g in zip(params, network.unflatten_params(flat_grad, cfg)):
        assert np.array_equal(g.gains, lam * cfg.dt * p.gains)
        assert np.array_equal(g.weights, lam * cfg.dt * p.weights)
        assert np.array_equal(g.biases, lam * cfg.dt * p.biases)


def test_network_loss_includes_the_regularizer_exactly():
    cfg, params, x, y = random_problem(network.MANIFOLD, manifolds.SO3, 2, 3, 12)
    lam = 1e-2
    with_reg = grad.network_loss(x, y, params, cfg, lam)
    without = grad.network_loss(x, y, params, cfg, 0.0)
    reg = 0.5 * lam * cfg.dt * grad.regularizer_norm(network.flatten_params(params))
    assert np.isclose(with_reg - without, reg, rtol=1e-12)


def test_gradient_value_equals_loss_value():
    cfg, params, x, y = random_problem(network.CLASSICAL, manifolds.SO3, 2, 3, 13)
    value, _ = grad.network_gradient(x, y, params, cfg, lam=1e-3)
    assert value == grad.network_loss(x, y, params, cfg, 1e-3)


def test_loss_and_gradient_reject_a_lone_state():
    # objective would read the coordinates of one state as three samples
    for model in network.MODELS:
        for space in manifolds.KINDS:
            cfg, params, x, y = random_problem(model, space, 2, 1, 20)
            for fn in (grad.network_loss, grad.network_gradient):
                with pytest.raises(InvalidConfig, match="batch"):
                    fn(x[0], y[0], params, cfg, 1e-3)
                fn(x, y, params, cfg, 1e-3)  # the same state as a batch of one


def test_manifold_network_gradient_matches_finite_differences():
    cfg, params, x, y = random_problem(network.MANIFOLD, manifolds.SPHERE2, 4, 8, 14)
    assert grad.finite_diff_check(params, cfg, x, y, lam=1e-3) <= 1e-5


def test_so3_network_gradient_matches_finite_differences():
    cfg, params, x, y = random_problem(network.MANIFOLD, manifolds.SO3, 2, 4, 15)
    assert grad.finite_diff_check(params, cfg, x, y, lam=1e-3) <= 1e-5


def test_directional_derivatives_agree_with_the_gradient():
    cfg, params, x, y = random_problem(network.MANIFOLD, manifolds.SO3, 2, 4, 16)
    _, flat_grad = grad.network_gradient(x, y, params, cfg, lam=1e-3)
    flat = network.flatten_params(params)
    rng = np.random.default_rng(17)
    eps = 1e-6
    for _ in range(100):
        d = rng.standard_normal(flat.size)
        d /= np.linalg.norm(d)
        plus = grad.network_loss(x, y, network.unflatten_params(flat + eps * d, cfg),
                                 cfg, 1e-3)
        minus = grad.network_loss(x, y, network.unflatten_params(flat - eps * d, cfg),
                                  cfg, 1e-3)
        numeric = (plus - minus) / (2.0 * eps)
        exact = float(flat_grad @ d)
        assert abs(numeric - exact) <= 1e-4 * max(abs(exact), 1e-10)


# --- finite-difference harness ---------------------------------------------

def test_central_difference_is_exact_on_affine_functions():
    rng = np.random.default_rng(18)
    k = rng.uniform(-1.0, 1.0, 10)
    v = rng.uniform(-1.0, 1.0, 10)
    numeric = grad.central_difference(lambda u: float(k @ u) + 0.25, v, 1e-4)
    assert np.max(np.abs(numeric - k)) <= 1e-10


def test_finite_diff_check_rejects_out_of_range_steps():
    cfg, params, x, y = random_problem(network.MANIFOLD, manifolds.SPHERE2, 1, 2, 19)
    for step in (1e-9, 1e-2):
        with pytest.raises(InvalidConfig):
            grad.finite_diff_check(params, cfg, x, y, lam=0.0, step=step)
