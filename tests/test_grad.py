"""Reverse-mode gradients checked against independent finite differences."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from georesnet import grad, manifolds, network
from georesnet.errors import InvalidConfig
from georesnet.linalg import SMALL_ANGLE, axial_norm, expm_skew3, skew_from_axial


def make_config(model, space, layers):
    return network.NetworkConfig(model, space, layers)


def loss_at(x, y, vec, cfg, lam):
    """The objective of the net with flat parameters vec, by its own forward."""
    out = network.network_forward(x, vec, cfg)[0]
    return grad.objective(out, y, vec, lam, cfg.dt)[0]


def random_problem(model, space, layers, batch, seed):
    rng = np.random.default_rng(seed)
    cfg = make_config(model, space, layers)
    theta = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(space, rng, batch)
    y = manifolds.sample_uniform(space, rng, batch)
    return cfg, theta, x, y


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
    cfg, theta, x, _ = random_problem(network.MANIFOLD, manifolds.SPHERE2, 1, 4, 4)
    _, trace = network.network_forward(x, theta, cfg)
    zero = manifolds.as_columns(np.zeros_like(x))
    x_cot, g = grad.manifold_layer_vjp(trace.states[0], trace.saved[0], trace.params[0], cfg,
                                       zero)
    assert np.array_equal(x_cot, zero)
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
    out, saved = network.manifold_layer_forward(manifolds.as_columns(x), params, cfg)
    gate = saved[0]
    x_cot, g = grad.manifold_layer_vjp(manifolds.as_columns(x), saved, params, cfg,
                                       manifolds.as_columns(v))
    assert np.allclose(x_cot, manifolds.as_columns(v), atol=1e-15)
    assert np.array_equal(g.weights, np.zeros((2, 3)))
    assert np.array_equal(g.biases, np.zeros(2))
    for i, b in enumerate(skew_from_axial(cfg.generators.axials)):
        expected = cfg.dt * gate[0, i] * (v[0] @ (b @ x[0]))
        assert np.isclose(g.gains[i], expected, atol=1e-14)


def test_manifold_vjp_is_linear_in_the_upstream():
    cfg, theta, x, _ = random_problem(network.MANIFOLD, manifolds.SO3, 1, 3, 6)
    _, trace = network.network_forward(x, theta, cfg)
    rng = np.random.default_rng(7)
    v1, v2 = rng.standard_normal((2,) + x.shape)
    args = (trace.states[0], trace.saved[0], trace.params[0], cfg)
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
    cfg = make_config(network.CLASSICAL, manifolds.SPHERE2, 2)  # dt = 0.5
    x_cot, g = grad.classical_layer_vjp(x, (gate,), params, cfg, v)
    assert np.array_equal(x_cot, v)
    assert np.array_equal(g.w_in, np.zeros((3, 3)))
    assert np.array_equal(g.bias, np.zeros(3))


def test_classical_vjp_scalar_case_matches_hand_chain_rule():
    # d = 1: layer is x + dt a sigma(w x + b); every derivative has a
    # one-line closed form
    a, w, b, x, v = 1.7, -0.6, 0.25, 0.9, 1.3
    cfg = make_config(network.CLASSICAL, manifolds.SPHERE2, 2)  # only cfg.dt is read
    dt = cfg.dt
    params = network.ClassicalLayerParams(
        w_out=np.array([[a]]), w_in=np.array([[w]]), bias=np.array([b]))
    z = w * x + b
    s = network.sigmoid(z)
    x_cot, g = grad.classical_layer_vjp(np.array([[x]]), (np.array([[s]]),), params, cfg,
                                        np.array([[v]]))
    ds = s * (1.0 - s)
    assert np.isclose(g.w_out[0, 0], dt * s * v, rtol=1e-15)
    assert np.isclose(g.w_in[0, 0], dt * a * ds * x * v, rtol=1e-14)
    assert np.isclose(g.bias[0], dt * a * ds * v, rtol=1e-14)
    assert np.isclose(x_cot[0, 0], v + dt * v * a * ds * w, rtol=1e-14)


def test_classical_vjp_matches_finite_differences():
    cfg, theta, x, y = random_problem(network.CLASSICAL, manifolds.SPHERE2, 2, 4, 9)
    assert grad.finite_diff_check(theta, cfg, x, y, lam=0.0) <= 1e-6


# --- layer VJPs at saturated gates and at the exponential's branch edges -----

# every gate's pre-activation z has |z| in this range: sigma(z) is within
# 1e-13 of 0 or 1, and sigma'(z) is as small
SATURATED = st.lists(st.tuples(st.booleans(), st.floats(30.0, 60.0)), min_size=9, max_size=9)
# and in this one sigma'(z) >= 3e-4, so a fault in a gate's chain rule moves
# the gradient far beyond the central differences' error
MODERATE = st.lists(st.tuples(st.booleans(), st.floats(1.0, 8.0)), min_size=9, max_size=9)
# each side of the series/closed-form switch and of a half turn
ANGLE_EDGES = [SMALL_ANGLE * (1.0 - 1e-9), SMALL_ANGLE * (1.0 + 1e-9),
               np.pi - 1e-9, np.pi + 1e-9]
LAYERS = st.sampled_from((1, 2, 4))
SEEDS = st.integers(0, 2 ** 32 - 1)


def preactivations(gates, count):
    """(on, z): which of the first count gates are open, and their pre-activations."""
    on = np.array([is_on for is_on, _ in gates[:count]])
    return on, np.where(on, 1.0, -1.0) * np.array([size for _, size in gates[:count]])


def manifold_layer_at(space, z, rng):
    """A point x, as the layers take it, and layer weights and biases that put its gate
    pre-activations at z."""
    x = manifolds.as_columns(manifolds.sample_uniform(space, rng, 1))
    weights = rng.uniform(-1.0, 1.0, (len(z),) + manifolds.point_shape(space))
    biases = z - network.manifold_preactivation(
        x, network.ManifoldLayerParams(None, weights, np.zeros(len(z))))[0]
    return x, weights, biases


def assert_vjp_matches_central_differences(forward, vjp, cfg, params, x, vout):
    """A layer's vjp of <vout, layer output>, fed what its forward saved, against
    central differences over the layer's parameters and input."""
    one_layer = dataclasses.replace(cfg, layers=1)  # cfg.dt stays the layer's
    theta = np.concatenate([network.flatten_params([params]), x.ravel()])
    n = theta.size - x.size

    def value(vec):
        layer = network.unflatten_params(vec[:n], one_layer)[0]
        return float(np.sum(vout * forward(vec[n:].reshape(x.shape), layer, cfg)[0]))

    numeric = grad.central_difference(value, theta, grad.FINITE_DIFF_STEP)
    x_cot, param_grad = vjp(x, forward(x, params, cfg)[1], params, cfg, vout)
    exact = np.concatenate([network.flatten_params([param_grad]), x_cot.ravel()])
    assert np.max(np.abs(exact - numeric)) <= 1e-7 * max(1.0, np.max(np.abs(exact)))


@settings(max_examples=200)
@given(space=st.sampled_from(manifolds.KINDS), layers=LAYERS,
       angle=st.sampled_from(ANGLE_EDGES), gates=SATURATED, seed=SEEDS)
def test_manifold_vjp_matches_central_differences_at_saturated_gates_and_branch_edges(
        space, layers, angle, gates, seed):
    cfg = network.NetworkConfig(network.MANIFOLD, space, layers)
    m = len(cfg.generators.axials)
    on, z = preactivations(gates, m)
    assume(on.any())
    rng = np.random.default_rng(seed)
    x, weights, biases = manifold_layer_at(space, z, rng)
    # the open gates turn about a unit axis by angle; the generators' axials
    # are orthonormal, so the closed gates' 1e-13 adds to it only at second order
    axis = on * rng.choice((-1.0, 1.0), m) * rng.uniform(0.1, 1.0, m)
    gains = np.where(on, angle * axis / (np.linalg.norm(axis) * cfg.dt * network.sigmoid(z)),
                     rng.uniform(-1.0, 1.0, m))
    params = network.ManifoldLayerParams(gains, weights, biases)
    _, (_, omega) = network.manifold_layer_forward(x, params, cfg)
    assert abs(axial_norm(omega)[0] - angle) <= 1e-12 * angle
    assert_vjp_matches_central_differences(network.manifold_layer_forward,
                                           grad.manifold_layer_vjp, cfg, params, x,
                                           rng.standard_normal(x.shape))


def assert_classical_vjp_matches_central_differences(space, layers, gates, seed):
    cfg = network.NetworkConfig(network.CLASSICAL, space, layers)
    d = manifolds.ambient_dim(space)
    rng = np.random.default_rng(seed)
    x = manifolds.sample_uniform(space, rng, 1).reshape(1, d)
    w_out, w_in = rng.uniform(-1.0, 1.0, (2, d, d))
    z = preactivations(gates, d)[1]
    params = network.ClassicalLayerParams(w_out, w_in, z - x[0] @ w_in.T)
    assert_vjp_matches_central_differences(network.classical_layer_forward,
                                           grad.classical_layer_vjp, cfg, params, x,
                                           rng.standard_normal(x.shape))


@settings(max_examples=200)
@given(space=st.sampled_from(manifolds.KINDS), layers=LAYERS, gates=SATURATED, seed=SEEDS)
def test_classical_vjp_matches_central_differences_at_saturated_gates(space, layers, gates,
                                                                      seed):
    assert_classical_vjp_matches_central_differences(space, layers, gates, seed)


# --- layer VJPs at moderate gates: the gates' own chain rule -----------------

@settings(max_examples=200)
@given(space=st.sampled_from(manifolds.KINDS), layers=LAYERS, gates=MODERATE, seed=SEEDS)
def test_manifold_vjp_matches_central_differences_at_moderate_gates(space, layers, gates,
                                                                    seed):
    cfg = network.NetworkConfig(network.MANIFOLD, space, layers)
    rng = np.random.default_rng(seed)
    z = preactivations(gates, len(cfg.generators.axials))[1]
    x, weights, biases = manifold_layer_at(space, z, rng)
    params = network.ManifoldLayerParams(rng.uniform(-1.0, 1.0, len(z)), weights, biases)
    assert_vjp_matches_central_differences(network.manifold_layer_forward,
                                           grad.manifold_layer_vjp, cfg, params, x,
                                           rng.standard_normal(x.shape))


@settings(max_examples=200)
@given(space=st.sampled_from(manifolds.KINDS), layers=LAYERS, gates=MODERATE, seed=SEEDS)
def test_classical_vjp_matches_central_differences_at_moderate_gates(space, layers, gates,
                                                                     seed):
    assert_classical_vjp_matches_central_differences(space, layers, gates, seed)


# --- whole-network gradient -------------------------------------------------

def test_zero_residual_zero_lambda_gives_zero_everything():
    rng = np.random.default_rng(10)
    cfg = make_config(network.MANIFOLD, manifolds.SPHERE2, 3)
    theta = network.flatten_params([network.ManifoldLayerParams(np.zeros(2),
                                                                rng.standard_normal((2, 3)),
                                                                rng.standard_normal(2))
                                    for _ in range(3)])
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 5)
    value, flat_grad, out = grad.network_gradient(x, x, theta, cfg, lam=0.0)
    assert value == 0.0
    assert np.array_equal(flat_grad, np.zeros(network.param_count(cfg)))
    assert np.array_equal(out, x)


def test_zero_residual_gradient_is_exactly_the_regularizer():
    rng = np.random.default_rng(11)
    cfg = make_config(network.MANIFOLD, manifolds.SPHERE2, 2)
    params = [network.ManifoldLayerParams(np.zeros(2),
                                          rng.standard_normal((2, 3)),
                                          rng.standard_normal(2))
              for _ in range(2)]
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 4)
    lam = 0.35
    flat_grad = grad.network_gradient(x, x, network.flatten_params(params), cfg, lam=lam)[1]
    # per layer, in the stored field order: gains, weights, biases
    for p, g in zip(params, network.unflatten_params(flat_grad, cfg)):
        assert np.array_equal(g.gains, lam * cfg.dt * p.gains)
        assert np.array_equal(g.weights, lam * cfg.dt * p.weights)
        assert np.array_equal(g.biases, lam * cfg.dt * p.biases)


def test_network_loss_includes_the_regularizer_exactly():
    cfg, theta, x, y = random_problem(network.MANIFOLD, manifolds.SO3, 2, 3, 12)
    lam = 1e-2
    with_reg = grad.network_gradient(x, y, theta, cfg, lam)[0]
    without = grad.network_gradient(x, y, theta, cfg, 0.0)[0]
    reg = 0.5 * lam * cfg.dt * grad.regularizer_norm(theta)
    assert np.isclose(with_reg - without, reg, rtol=1e-12)


def test_gradient_value_equals_loss_value():
    cfg, theta, x, y = random_problem(network.CLASSICAL, manifolds.SO3, 2, 3, 13)
    value, _, out = grad.network_gradient(x, y, theta, cfg, lam=1e-3)
    assert value == loss_at(x, y, theta, cfg, 1e-3)
    assert np.array_equal(out, network.network_forward(x, theta, cfg)[0])


@pytest.mark.parametrize("space", manifolds.KINDS)
@pytest.mark.parametrize("model", network.MODELS)
def test_rows_after_the_targets_ride_along_without_touching_the_gradient(model, space):
    cfg, theta, x, y = random_problem(model, space, 2, 7, 21)
    value, flat_grad, out = grad.network_gradient(x, y[:4], theta, cfg, lam=1e-3)
    alone = grad.network_gradient(x[:4], y[:4], theta, cfg, lam=1e-3)
    assert value == alone[0]
    assert np.array_equal(flat_grad, alone[1])
    assert np.array_equal(out[:4], alone[2])
    assert np.array_equal(out[4:], network.network_forward(x[4:], theta, cfg)[0])


@pytest.mark.parametrize("model", network.MODELS)
def test_a_list_theta_gives_the_gradient_of_the_array(model):
    # network_forward accepts a list theta, so the gradient path must too
    cfg, theta, x, y = random_problem(model, manifolds.SPHERE2, 1, 5, 22)
    value, flat_grad, out = grad.network_gradient(x, y, list(theta), cfg, 1e-3)
    expected = grad.network_gradient(x, y, theta, cfg, 1e-3)
    assert value == expected[0]
    assert np.array_equal(flat_grad, expected[1])
    assert np.array_equal(out, expected[2])


def test_loss_and_gradient_reject_a_lone_state():
    # objective would read the coordinates of one state as three samples
    for model in network.MODELS:
        for space in manifolds.KINDS:
            cfg, theta, x, y = random_problem(model, space, 2, 1, 20)
            with pytest.raises(InvalidConfig, match="batch"):
                grad.network_gradient(x[0], y[0], theta, cfg, 1e-3)
            with pytest.raises(InvalidConfig, match="batch"):
                grad.finite_diff_check(theta, cfg, x[0], y[0], 1e-3)
            grad.network_gradient(x, y, theta, cfg, 1e-3)  # the same state as a batch of one


def test_manifold_network_gradient_matches_finite_differences():
    cfg, theta, x, y = random_problem(network.MANIFOLD, manifolds.SPHERE2, 4, 8, 14)
    assert grad.finite_diff_check(theta, cfg, x, y, lam=1e-3) <= 1e-5


def test_so3_network_gradient_matches_finite_differences():
    cfg, theta, x, y = random_problem(network.MANIFOLD, manifolds.SO3, 2, 4, 15)
    assert grad.finite_diff_check(theta, cfg, x, y, lam=1e-3) <= 1e-5


def test_directional_derivatives_agree_with_the_gradient():
    cfg, flat, x, y = random_problem(network.MANIFOLD, manifolds.SO3, 2, 4, 16)
    flat_grad = grad.network_gradient(x, y, flat, cfg, lam=1e-3)[1]
    rng = np.random.default_rng(17)
    eps = 1e-6
    for _ in range(100):
        d = rng.standard_normal(flat.size)
        d /= np.linalg.norm(d)
        plus = loss_at(x, y, flat + eps * d, cfg, 1e-3)
        minus = loss_at(x, y, flat - eps * d, cfg, 1e-3)
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
