"""Forward passes, parameter counting, and checkpoint round-trips."""

import json
import re

import numpy as np
import pytest

from georesnet import grad, manifolds, network
from georesnet.errors import InvalidConfig, OffManifold
from georesnet.linalg import expm_skew3

E1 = np.array([1.0, 0.0, 0.0])


def sphere_cfg(layers, model=network.MANIFOLD):
    return network.NetworkConfig(model, manifolds.SPHERE2, layers)


def so3_cfg(layers, model=network.MANIFOLD):
    return network.NetworkConfig(model, manifolds.SO3, layers)


# --- activations ------------------------------------------------------------

def test_sigmoid_at_zero():
    assert network.sigmoid(0.0) == 0.5


def test_sigmoid_saturates():
    assert abs(network.sigmoid(40.0) - 1.0) <= 1e-15
    assert network.sigmoid(-40.0) <= 1e-15


def test_sigmoid_symmetry():
    rng = np.random.default_rng(0)
    z = rng.uniform(-30, 30, 100)
    assert np.max(np.abs(network.sigmoid(z) + network.sigmoid(-z) - 1.0)) <= 1e-15


def test_sigmoid_never_overflows():
    for z in (-700.0, 700.0):
        out = network.sigmoid(z)
        assert np.isfinite(out)
        assert 0.0 <= out <= 1.0


def test_sigmoid_matches_the_two_branch_form_bitwise():
    z = np.concatenate([np.linspace(-800.0, 800.0, 4001),
                        [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]])
    pos = z >= 0
    expected = np.empty_like(z)
    expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    expected[~pos] = ez / (1.0 + ez)
    out = network.sigmoid(z)
    assert np.array_equal(out, expected, equal_nan=True)
    assert np.array_equal(network.sigmoid(z.reshape(-1, 8)), expected.reshape(-1, 8),
                          equal_nan=True)
    scalar = network.sigmoid(-3.0)
    assert isinstance(scalar, float)
    assert scalar == np.exp(-3.0) / (1.0 + np.exp(-3.0))


# --- config -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidConfig):
        network.NetworkConfig("resnet", manifolds.SPHERE2, 2)
    with pytest.raises(InvalidConfig):
        network.NetworkConfig(network.MANIFOLD, manifolds.SPHERE2, 0)
    with pytest.raises(InvalidConfig):
        network.NetworkConfig(network.MANIFOLD, manifolds.SPHERE2, True)


def test_dt_is_derived_from_layers():
    for m in (1, 2, 5, 64):
        assert sphere_cfg(m).dt * m == 1.0


# --- manifold layer ---------------------------------------------------------

def test_zero_gains_leave_the_state_alone():
    rng = np.random.default_rng(2)
    cfg = sphere_cfg(4)
    params = network.ManifoldLayerParams(
        gains=np.zeros(2), weights=rng.standard_normal((2, 3)),
        biases=rng.standard_normal(2))
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 1)
    out, _ = network.manifold_layer_forward(x, params, cfg)
    assert np.array_equal(out, x)


def test_constant_gate_layer_rotates_by_the_expected_angle():
    # with w = 0 the gate is the constant sigmoid(b); a gain of
    # pi / (2 dt sigmoid(b)) on the z generator turns e1 into e2
    cfg = sphere_cfg(4)
    b = 0.3
    params = network.ManifoldLayerParams(
        gains=np.array([np.pi / (2.0 * cfg.dt * network.sigmoid(b)), 0.0]),
        weights=np.zeros((2, 3)), biases=np.array([b, 0.0]))
    out, (gate, omega) = network.manifold_layer_forward(E1[None], params, cfg)
    assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-14)
    assert np.allclose(omega, [[0.0, 0.0, np.pi / 2]], atol=1e-14)
    assert gate[0, 0] == network.sigmoid(b)


def test_layer_rejects_off_manifold_input():
    # the check sits at network entry; the layers themselves do not repeat it
    rng = np.random.default_rng(3)
    for cfg, x in ((sphere_cfg(3), 2.0 * E1[None]),
                   (so3_cfg(2), 2.0 * manifolds.sample_uniform(manifolds.SO3, rng, 4))):
        params = network.init_params(cfg, rng)
        with pytest.raises(OffManifold):
            network.network_forward(x, params, cfg)


def test_layer_rejects_non_finite_input():
    rng = np.random.default_rng(4)
    for cfg in (sphere_cfg(2), so3_cfg(3)):
        params = network.init_params(cfg, rng)
        for bad in (np.nan, np.inf):
            x = manifolds.sample_uniform(cfg.space, rng, 4)
            x[2] = bad
            with pytest.raises(OffManifold):
                network.network_forward(x, params, cfg)


def input_cotangent(trace, params, upstream):
    """Cotangent of the network input: the layer VJPs chained over a trace."""
    cfg = trace.config
    for n in reversed(range(cfg.layers)):
        if cfg.model == network.MANIFOLD:
            upstream, _ = grad.manifold_layer_vjp(
                trace.states[n], trace.gates[n], trace.axials[n],
                params[n], cfg, upstream)
        else:
            upstream, _ = grad.classical_layer_vjp(
                trace.states[n], trace.gates[n], params[n], cfg.dt, upstream)
    return upstream


def test_forward_of_a_concatenation_splits_into_the_separate_forwards():
    # train_loop runs train and test inputs through one forward pass and
    # relies on every row coming out exactly as it would alone; the
    # backward keeps rows apart the same way
    rng = np.random.default_rng(5)
    for cfg in (sphere_cfg(3), so3_cfg(3), sphere_cfg(2, network.CLASSICAL),
                so3_cfg(2, network.CLASSICAL)):
        params = network.init_params(cfg, rng)
        # a lone row takes a different BLAS path; several draws give a
        # last-bit difference there a fair chance to show
        for p in (1,) * 8 + (3, 100):
            a = manifolds.sample_uniform(cfg.space, rng, p)
            b = manifolds.sample_uniform(cfg.space, rng, p + 1)
            out, trace = network.network_forward(np.concatenate([a, b]), params, cfg)
            # a cotangent per traced row: flat for the baseline
            v = rng.standard_normal(trace.states.shape[1:])
            x_cot = input_cotangent(trace, params, v)
            for part, rows in ((a, slice(0, p)), (b, slice(p, None))):
                alone, alone_trace = network.network_forward(part, params, cfg)
                assert np.array_equal(x_cot[rows], input_cotangent(alone_trace, params, v[rows]))
                assert np.array_equal(out[rows], alone)
                assert np.array_equal(trace.states[:, rows], alone_trace.states)
                assert np.array_equal(trace.gates[:, rows], alone_trace.gates)
                if cfg.model == network.MANIFOLD:
                    assert np.array_equal(trace.axials[:, rows], alone_trace.axials)


def test_random_eight_layer_forward_stays_on_the_sphere():
    rng = np.random.default_rng(4)
    cfg = sphere_cfg(8)
    params = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 16)
    out, _ = network.network_forward(x, params, cfg)
    assert np.max(manifolds.defect(manifolds.SPHERE2, out)) <= 1e-11


def test_so3_layer_moves_by_left_rotation():
    rng = np.random.default_rng(5)
    cfg = so3_cfg(2)
    params = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SO3, rng, 1)
    out, (gate, omega) = network.manifold_layer_forward(x, params[0], cfg)
    assert np.allclose(out, expm_skew3(omega) @ x, atol=1e-15)
    assert manifolds.defect(manifolds.SO3, out) <= 1e-14


def test_layer_commutes_with_rotations_about_its_own_axis():
    # state-independent z-gate plus pure z-gain: applying the layer and a
    # z-rotation in either order must agree
    cfg = sphere_cfg(2)
    params = network.ManifoldLayerParams(
        gains=np.array([1.3, 0.0]), weights=np.zeros((2, 3)),
        biases=np.array([0.4, -0.2]))
    rot = expm_skew3([0.0, 0.0, 0.77])
    rng = np.random.default_rng(6)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 1)
    layer_then_rot = network.manifold_layer_forward(x, params, cfg)[0] @ rot.T
    rot_then_layer = network.manifold_layer_forward(x @ rot.T, params, cfg)[0]
    assert np.max(np.abs(layer_then_rot - rot_then_layer)) <= 1e-12


# --- classical layer --------------------------------------------------------

def test_classical_zero_output_weight_is_identity():
    rng = np.random.default_rng(7)
    params = network.ClassicalLayerParams(
        w_out=np.zeros((3, 3)), w_in=rng.standard_normal((3, 3)),
        bias=rng.standard_normal(3))
    x = rng.standard_normal((4, 3))
    out, _ = network.classical_layer_forward(x, params, sphere_cfg(4, network.CLASSICAL))
    assert np.array_equal(out, x)


def test_classical_layer_closed_form_at_zero_preactivation():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3))
    params = network.ClassicalLayerParams(
        w_out=a, w_in=np.zeros((3, 3)), bias=np.zeros(3))
    x = rng.standard_normal((1, 3))
    # sigmoid(0) = 0.5 componentwise, so the update is x + dt a (0.5 1)
    expected = x + 1.0 * (a @ np.full(3, 0.5))
    out, (gate,) = network.classical_layer_forward(
        x, params, sphere_cfg(1, network.CLASSICAL))
    assert np.allclose(out, expected, atol=1e-15)
    assert np.array_equal(gate, np.full((1, 3), 0.5))


def test_classical_layer_drifts_off_the_sphere():
    rng = np.random.default_rng(9)
    cfg = sphere_cfg(1, network.CLASSICAL)
    params = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 32)
    out, _ = network.network_forward(x, params, cfg)
    assert np.max(manifolds.defect(manifolds.SPHERE2, out)) > 0.0


# --- network_forward --------------------------------------------------------

def test_single_layer_network_equals_the_layer():
    rng = np.random.default_rng(10)
    cfg = sphere_cfg(1)
    params = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 4)
    net_out, _ = network.network_forward(x, params, cfg)
    layer_out, _ = network.manifold_layer_forward(x, params[0], cfg)
    assert np.array_equal(net_out, layer_out)


def test_forward_rejects_a_lone_state():
    # the loss would read the coordinates of one state as samples
    rng = np.random.default_rng(17)
    for model in network.MODELS:
        for cfg in (sphere_cfg(2, model), so3_cfg(2, model)):
            params = network.init_params(cfg, rng)
            x = manifolds.sample_uniform(cfg.space, rng, 1)
            with pytest.raises(InvalidConfig, match="batch"):
                network.network_forward(x[0], params, cfg)
            network.network_forward(x, params, cfg)  # the same state as a batch of one


def test_forward_maps_an_empty_batch_to_an_empty_batch():
    rng = np.random.default_rng(18)
    for model in network.MODELS:
        for cfg in (sphere_cfg(2, model), so3_cfg(2, model)):
            x = np.empty((0,) + manifolds.point_shape(cfg.space))
            out, trace = network.network_forward(x, network.init_params(cfg, rng), cfg)
            assert out.shape == x.shape
            assert trace.states.shape[:2] == (3, 0)


def test_zero_gain_network_is_the_identity():
    rng = np.random.default_rng(11)
    cfg = sphere_cfg(6)
    params = [network.ManifoldLayerParams(np.zeros(2),
                                          rng.standard_normal((2, 3)),
                                          rng.standard_normal(2))
              for _ in range(6)]
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 4)
    out, _ = network.network_forward(x, params, cfg)
    assert np.array_equal(out, x)


def test_refining_layers_preserves_a_constant_rotation():
    # single-axis flow with state-independent gates: M layers of angle
    # theta/M compose to the same total rotation for any M, because
    # rotations about one axis commute
    def constant_layer_params(m_layers):
        return [network.ManifoldLayerParams(
            gains=np.array([2.0, 0.0]), weights=np.zeros((2, 3)),
            biases=np.array([0.1, 0.0])) for _ in range(m_layers)]

    rng = np.random.default_rng(12)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 8)
    coarse, _ = network.network_forward(x, constant_layer_params(4), sphere_cfg(4))
    fine, _ = network.network_forward(x, constant_layer_params(8), sphere_cfg(8))
    assert np.max(np.abs(coarse - fine)) <= 1e-10


def test_forward_trace_replays_bitwise():
    rng = np.random.default_rng(13)
    cfg = so3_cfg(3)
    params = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SO3, rng, 5)
    out, trace = network.network_forward(x, params, cfg)
    assert trace.states.shape[0] == cfg.layers + 1
    assert np.array_equal(trace.states[-1], out)
    for n in range(cfg.layers):
        step, _ = network.manifold_layer_forward(trace.states[n], params[n], cfg)
        assert np.array_equal(step, trace.states[n + 1])


def test_forward_is_deterministic():
    rng = np.random.default_rng(14)
    cfg = sphere_cfg(3, network.CLASSICAL)
    params = network.init_params(cfg, rng)
    x = rng.standard_normal((6, 3))
    a, _ = network.network_forward(x, params, cfg)
    b, _ = network.network_forward(x, params, cfg)
    assert np.array_equal(a, b)


def test_forward_checks_param_list_length():
    cfg = sphere_cfg(3)
    params = network.init_params(cfg, np.random.default_rng(15))
    with pytest.raises(InvalidConfig):
        network.network_forward(E1[None], params[:2], cfg)


def test_classical_forward_checks_state_width():
    cfg = so3_cfg(2, network.CLASSICAL)
    params = network.init_params(cfg, np.random.default_rng(16))
    with pytest.raises(InvalidConfig):
        network.network_forward(np.zeros((2, 3)), params, cfg)


# --- parameter counting and serialization ----------------------------------

def test_per_layer_parameter_counts():
    assert network.param_count(sphere_cfg(1)) == 10
    assert network.param_count(sphere_cfg(1, network.CLASSICAL)) == 21
    assert network.param_count(so3_cfg(1)) == 33
    assert network.param_count(so3_cfg(1, network.CLASSICAL)) == 171


def test_param_count_matches_stored_scalars():
    rng = np.random.default_rng(17)
    for cfg in (sphere_cfg(3), sphere_cfg(2, network.CLASSICAL),
                so3_cfg(2), so3_cfg(1, network.CLASSICAL)):
        params = network.init_params(cfg, rng)
        assert network.flatten_params(params).size == network.param_count(cfg)


def test_flatten_round_trip_is_bitwise():
    rng = np.random.default_rng(18)
    for cfg in (so3_cfg(3), sphere_cfg(2, network.CLASSICAL)):
        params = network.init_params(cfg, rng)
        flat = network.flatten_params(params)
        back = network.flatten_params(network.unflatten_params(flat, cfg))
        assert np.array_equal(flat, back)


def test_unflatten_returns_views_into_the_vector():
    rng = np.random.default_rng(20)
    for cfg in (so3_cfg(2), sphere_cfg(2, network.CLASSICAL)):
        flat = network.flatten_params(network.init_params(cfg, rng))
        params = network.unflatten_params(flat, cfg)
        for layer in params:
            for field in vars(layer).values():
                assert np.shares_memory(field, flat)
        flat[...] = 7.0
        assert np.all(network.flatten_params(params) == 7.0)


def test_unflatten_rejects_wrong_size():
    with pytest.raises(InvalidConfig):
        network.unflatten_params(np.zeros(7), sphere_cfg(1))


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(19)
    for cfg in (sphere_cfg(2), so3_cfg(1, network.CLASSICAL)):
        params = network.init_params(cfg, rng)
        path = tmp_path / f"{cfg.model}-{cfg.space}.json"
        network.save_checkpoint(path, cfg, params, meta={"note": "test"})
        cfg2, params2, meta = network.load_checkpoint(path)
        assert (cfg2.model, cfg2.space, cfg2.layers) == \
            (cfg.model, cfg.space, cfg.layers)
        assert np.array_equal(network.flatten_params(params2),
                              network.flatten_params(params))
        assert meta == {"note": "test"}


def test_checkpoint_records_generator_names(tmp_path):
    cfg = so3_cfg(1)
    params = network.init_params(cfg, np.random.default_rng(21))
    path = tmp_path / "gen.json"
    network.save_checkpoint(path, cfg, params)
    doc = json.loads(path.read_text())
    assert doc["generators"] == ["rot_z", "rot_y", "rot_x"]


def saved_checkpoint(tmp_path, cfg):
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(path, cfg, network.init_params(cfg, np.random.default_rng(22)))
    return path, json.loads(path.read_text())


def test_load_checkpoint_rejects_a_layer_count_mismatch(tmp_path):
    path, doc = saved_checkpoint(tmp_path, sphere_cfg(2))
    doc["params"].append(doc["params"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidConfig):
        network.load_checkpoint(path)


def test_load_checkpoint_rejects_a_missing_field_or_a_wrong_shape(tmp_path):
    for edit in (lambda layer: layer.pop("biases"), lambda layer: layer.update(gains=[0.5]),
                 lambda layer: layer.update(weights=layer["weights"][:2])):
        path, doc = saved_checkpoint(tmp_path, so3_cfg(2))
        edit(doc["params"][1])
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig):
            network.load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(params=5),
    lambda doc: doc.update(params={"0": doc["params"][0]}),
    lambda doc: doc.update(params=[[1, 2]]),
    lambda doc: doc.update(params=[None]),
    lambda doc: doc["params"][0].update(gains="ab"),
    lambda doc: doc["params"][0].update(weights=[[0.1, 0.2, 0.3], [0.4]]),
    lambda doc: doc["params"][0].update(gains=[repr(g) for g in doc["params"][0]["gains"]]),
    lambda doc: doc["params"][0].update(biases=[True, False]),
    lambda doc: doc["params"][0].update(gains=[10 ** 400, 0]),
], ids=["number", "object", "list-entry", "null-entry", "text-field", "ragged-field",
        "numbers-as-text", "booleans", "integer-beyond-float"])
def test_load_checkpoint_reports_malformed_params_naming_the_file(tmp_path, edit):
    path, doc = saved_checkpoint(tmp_path, sphere_cfg(1))
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidConfig, match="ckpt.json"):
        network.load_checkpoint(path)


def test_load_checkpoint_rejects_non_finite_values(tmp_path):
    for bad in (float("nan"), float("inf")):
        path, doc = saved_checkpoint(tmp_path, so3_cfg(1, network.CLASSICAL))
        doc["params"][0]["bias"][4] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig, match="ckpt.json layer 0: 'bias'"):
            network.load_checkpoint(path)


def test_load_checkpoint_names_its_missing_keys(tmp_path):
    path, doc = saved_checkpoint(tmp_path, sphere_cfg(1))
    for keep in ({"model"}, {"model", "space", "params"}, set()):
        path.write_text(json.dumps({k: v for k, v in doc.items() if k in keep}))
        absent = [k for k in ("model", "space", "layers", "params") if k not in keep]
        with pytest.raises(InvalidConfig, match=re.escape(str(absent))):
            network.load_checkpoint(path)


def test_load_checkpoint_requires_an_integer_layer_count(tmp_path):
    path, doc = saved_checkpoint(tmp_path, sphere_cfg(1))
    for layers in ("x", 2.7, 1.0, True, None, [1]):
        path.write_text(json.dumps(dict(doc, layers=layers)))
        with pytest.raises(InvalidConfig, match="layers"):
            network.load_checkpoint(path)


def test_load_checkpoint_rejects_malformed_json(tmp_path):
    path = tmp_path / "ckpt.json"
    for text in ("{", "[1, 2]", "\xff"):
        path.write_text(text, encoding="latin-1")
        with pytest.raises(InvalidConfig, match="ckpt.json"):
            network.load_checkpoint(path)


def test_init_is_seed_deterministic():
    cfg = so3_cfg(2, network.CLASSICAL)
    a = network.init_params(cfg, np.random.default_rng(99))
    b = network.init_params(cfg, np.random.default_rng(99))
    assert np.array_equal(network.flatten_params(a), network.flatten_params(b))
