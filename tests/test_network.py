"""Forward passes, parameter counting, and checkpoint round-trips."""

import json
import re

import numpy as np
import pytest

from georesnet import data, grad, manifolds, network
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
    # any integral layer count is stored as int, so a checkpoint can hold it
    cfg = network.NetworkConfig(network.MANIFOLD, manifolds.SPHERE2, np.int64(2))
    assert type(cfg.layers) is int and cfg == sphere_cfg(2)


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
    x = manifolds.as_columns(manifolds.sample_uniform(manifolds.SPHERE2, rng, 1))
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
    x = manifolds.as_columns(E1[None])
    out, (gate, omega) = network.manifold_layer_forward(x, params, cfg)
    assert np.allclose(out, manifolds.as_columns(np.array([[0.0, 1.0, 0.0]])), atol=1e-14)
    assert np.allclose(omega, [[0.0, 0.0, np.pi / 2]], atol=1e-14)
    assert gate[0, 0] == network.sigmoid(b)


def test_layer_rejects_off_manifold_input():
    # the check sits at network entry; the layers themselves do not repeat it
    rng = np.random.default_rng(3)
    for cfg, x in ((sphere_cfg(3), 2.0 * E1[None]),
                   (so3_cfg(2), 2.0 * manifolds.sample_uniform(manifolds.SO3, rng, 4))):
        theta = network.init_params(cfg, rng)
        with pytest.raises(OffManifold):
            network.network_forward(x, theta, cfg)


def test_layer_rejects_non_finite_input():
    rng = np.random.default_rng(4)
    for cfg in (sphere_cfg(2), so3_cfg(3)):
        theta = network.init_params(cfg, rng)
        for bad in (np.nan, np.inf):
            x = manifolds.sample_uniform(cfg.space, rng, 4)
            x[2] = bad
            with pytest.raises(OffManifold):
                network.network_forward(x, theta, cfg)


VJPS = {network.MANIFOLD: grad.manifold_layer_vjp, network.CLASSICAL: grad.classical_layer_vjp}


def input_cotangent(trace, upstream):
    """Cotangent of the network input: the layer VJPs chained over a trace."""
    cfg = trace.config
    for n in reversed(range(cfg.layers)):
        upstream, _ = VJPS[cfg.model](trace.states[n], trace.saved[n], trace.params[n], cfg,
                                      upstream)
    return upstream


def test_forward_of_a_concatenation_splits_into_the_separate_forwards():
    # train_loop runs train and test inputs through one forward pass and
    # relies on every row coming out exactly as it would alone; the
    # backward keeps rows apart the same way
    rng = np.random.default_rng(5)
    for cfg in (sphere_cfg(3), so3_cfg(3), sphere_cfg(2, network.CLASSICAL),
                so3_cfg(2, network.CLASSICAL)):
        theta = network.init_params(cfg, rng)
        # a lone row takes a different BLAS path; several draws give a
        # last-bit difference there a fair chance to show
        for p in (1,) * 8 + (3, 100):
            a = manifolds.sample_uniform(cfg.space, rng, p)
            b = manifolds.sample_uniform(cfg.space, rng, p + 1)
            out, trace = network.network_forward(np.concatenate([a, b]), theta, cfg)
            # a cotangent per traced row: flat for the baseline
            v = rng.standard_normal(trace.states[0].shape)
            x_cot = input_cotangent(trace, v)
            for part, rows in ((a, slice(0, p)), (b, slice(p, None))):
                alone, alone_trace = network.network_forward(part, theta, cfg)
                assert np.array_equal(x_cot[rows], input_cotangent(alone_trace, v[rows]))
                assert np.array_equal(out[rows], alone)
                for state, alone_state in zip(trace.states, alone_trace.states, strict=True):
                    assert np.array_equal(state[rows], alone_state)
                for saved, alone_saved in zip(trace.saved, alone_trace.saved, strict=True):
                    for value, alone_value in zip(saved, alone_saved, strict=True):
                        assert np.array_equal(value[rows], alone_value)


def test_random_eight_layer_forward_stays_on_the_sphere():
    rng = np.random.default_rng(4)
    cfg = sphere_cfg(8)
    theta = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 16)
    out, _ = network.network_forward(x, theta, cfg)
    assert np.max(manifolds.defect(manifolds.SPHERE2, out)) <= 1e-11


def test_so3_layer_moves_by_left_rotation():
    rng = np.random.default_rng(5)
    cfg = so3_cfg(2)
    params = network.unflatten_params(network.init_params(cfg, rng), cfg)
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
    x = manifolds.as_columns(manifolds.sample_uniform(manifolds.SPHERE2, rng, 1))
    layer_then_rot = rot @ network.manifold_layer_forward(x, params, cfg)[0]
    rot_then_layer = network.manifold_layer_forward(rot @ x, params, cfg)[0]
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
    theta = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 32)
    out, _ = network.network_forward(x, theta, cfg)
    assert np.max(manifolds.defect(manifolds.SPHERE2, out)) > 0.0


# --- network_forward --------------------------------------------------------

def test_single_layer_network_equals_the_layer():
    rng = np.random.default_rng(10)
    cfg = sphere_cfg(1)
    theta = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 4)
    net_out, _ = network.network_forward(x, theta, cfg)
    layer_out, _ = network.manifold_layer_forward(manifolds.as_columns(x),
                                                  network.unflatten_params(theta, cfg)[0], cfg)
    assert np.array_equal(manifolds.as_columns(net_out), layer_out)


def test_forward_rejects_a_lone_state():
    # the loss would read the coordinates of one state as samples
    rng = np.random.default_rng(17)
    for model in network.MODELS:
        for cfg in (sphere_cfg(2, model), so3_cfg(2, model)):
            theta = network.init_params(cfg, rng)
            x = manifolds.sample_uniform(cfg.space, rng, 1)
            with pytest.raises(InvalidConfig, match="batch"):
                network.network_forward(x[0], theta, cfg)
            network.network_forward(x, theta, cfg)  # the same state as a batch of one


def test_forward_maps_an_empty_batch_to_an_empty_batch():
    rng = np.random.default_rng(18)
    for model in network.MODELS:
        for cfg in (sphere_cfg(2, model), so3_cfg(2, model)):
            x = np.empty((0,) + manifolds.point_shape(cfg.space))
            out, trace = network.network_forward(x, network.init_params(cfg, rng), cfg)
            assert out.shape == x.shape
            assert [len(state) for state in trace.states] == [0] * 3


def test_zero_gain_network_is_the_identity():
    rng = np.random.default_rng(11)
    cfg = sphere_cfg(6)
    theta = network.flatten_params([network.ManifoldLayerParams(np.zeros(2),
                                                                rng.standard_normal((2, 3)),
                                                                rng.standard_normal(2))
                                    for _ in range(6)])
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 4)
    out, _ = network.network_forward(x, theta, cfg)
    assert np.array_equal(out, x)


def test_refining_layers_preserves_a_constant_rotation():
    # single-axis flow with state-independent gates: M layers of angle
    # theta/M compose to the same total rotation for any M, because
    # rotations about one axis commute
    def constant_layer_params(m_layers):
        return network.flatten_params([network.ManifoldLayerParams(
            gains=np.array([2.0, 0.0]), weights=np.zeros((2, 3)),
            biases=np.array([0.1, 0.0])) for _ in range(m_layers)])

    rng = np.random.default_rng(12)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 8)
    coarse, _ = network.network_forward(x, constant_layer_params(4), sphere_cfg(4))
    fine, _ = network.network_forward(x, constant_layer_params(8), sphere_cfg(8))
    assert np.max(np.abs(coarse - fine)) <= 1e-10


def test_forward_trace_replays_bitwise():
    rng = np.random.default_rng(13)
    cfg = so3_cfg(3)
    theta = network.init_params(cfg, rng)
    x = manifolds.sample_uniform(manifolds.SO3, rng, 5)
    out, trace = network.network_forward(x, theta, cfg)
    assert len(trace.states) == cfg.layers + 1 and len(trace.saved) == cfg.layers
    assert np.array_equal(trace.states[-1], out)
    assert np.array_equal(network.flatten_params(trace.params), theta)
    for n in range(cfg.layers):
        step, saved = network.manifold_layer_forward(trace.states[n], trace.params[n], cfg)
        assert np.array_equal(step, trace.states[n + 1])
        assert all(np.array_equal(a, b) for a, b in zip(saved, trace.saved[n], strict=True))
    # a strided input is kept as one C-contiguous array, as the VJPs' fast paths want
    first = network.network_forward(np.asfortranarray(x), theta, cfg)[1].states[0]
    assert first.flags.c_contiguous and np.array_equal(first, x)


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
def test_results_do_not_depend_on_the_memory_layout_of_the_inputs(experiment):
    # the same states as a Fortran-ordered batch give the C-ordered flow, and
    # both models' loss, gradient and outputs, bit for bit
    ode = data.ode_by_id(experiment)
    rng = np.random.default_rng(29)
    x = manifolds.sample_uniform(ode.kind, rng, 40)
    y = data.ground_truth_flow(x, ode, steps=64)
    assert np.array_equal(data.ground_truth_flow(np.asfortranarray(x), ode, steps=64), y)
    for model in network.MODELS:
        cfg = network.NetworkConfig(model, ode.kind, 3)
        theta = network.init_params(cfg, rng)
        expected = grad.network_gradient(x, y, theta, cfg, 1e-3)
        loss, g, out = grad.network_gradient(np.asfortranarray(x), y, theta, cfg, 1e-3)
        assert loss == expected[0]
        assert np.array_equal(g, expected[1]) and np.array_equal(out, expected[2])


def test_forward_is_deterministic():
    rng = np.random.default_rng(14)
    cfg = sphere_cfg(3, network.CLASSICAL)
    theta = network.init_params(cfg, rng)
    x = rng.standard_normal((6, 3))
    a, _ = network.network_forward(x, theta, cfg)
    b, _ = network.network_forward(x, theta, cfg)
    assert np.array_equal(a, b)


def test_forward_checks_param_list_length():
    # the parameters of two layers, handed to a three-layer net
    theta = network.init_params(sphere_cfg(2), np.random.default_rng(15))
    with pytest.raises(InvalidConfig, match=r"30 scalars, got \(20,\)"):
        network.network_forward(E1[None], theta, sphere_cfg(3))


def test_classical_forward_checks_state_width():
    cfg = so3_cfg(2, network.CLASSICAL)
    theta = network.init_params(cfg, np.random.default_rng(16))
    with pytest.raises(InvalidConfig):
        network.network_forward(np.zeros((2, 3)), theta, cfg)


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
        theta = network.init_params(cfg, rng)
        assert theta.shape == (network.param_count(cfg),)
        assert network.flatten_params(network.unflatten_params(theta, cfg)).size == theta.size


def test_flatten_round_trip_is_bitwise():
    rng = np.random.default_rng(18)
    for cfg in (so3_cfg(3), sphere_cfg(2, network.CLASSICAL)):
        flat = network.init_params(cfg, rng)
        back = network.flatten_params(network.unflatten_params(flat, cfg))
        assert np.array_equal(flat, back)


def test_unflatten_returns_views_into_the_vector():
    rng = np.random.default_rng(20)
    for cfg in (so3_cfg(2), sphere_cfg(2, network.CLASSICAL)):
        flat = network.init_params(cfg, rng)
        params = network.unflatten_params(flat, cfg)
        for layer in params:
            for field in layer:
                assert np.shares_memory(field, flat)
                assert field.flags.c_contiguous
        flat[...] = 7.0
        assert np.all(network.flatten_params(params) == 7.0)


def test_unflatten_rejects_wrong_size():
    # theta is one flat vector: the right count in another shape is refused too
    for bad in (np.zeros(7), np.zeros((1, 10)), np.zeros((2, 5))):
        with pytest.raises(InvalidConfig, match="vector of 10 scalars"):
            network.unflatten_params(bad, sphere_cfg(1))


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(19)
    for cfg in (sphere_cfg(2), so3_cfg(1, network.CLASSICAL)):
        theta = network.init_params(cfg, rng)
        path = tmp_path / f"{cfg.model}-{cfg.space}.json"
        network.save_checkpoint(path, cfg, theta, meta={"note": "test"})
        cfg2, theta2, meta = network.load_checkpoint(path)
        assert (cfg2.model, cfg2.space, cfg2.layers) == \
            (cfg.model, cfg.space, cfg.layers)
        assert np.array_equal(theta2, theta)
        assert meta == {"note": "test"}


def test_checkpoint_records_generator_names(tmp_path):
    cfg = so3_cfg(1)
    theta = network.init_params(cfg, np.random.default_rng(21))
    path = tmp_path / "gen.json"
    network.save_checkpoint(path, cfg, theta)
    doc = json.loads(path.read_text())
    assert doc["generators"] == ["rot_z", "rot_y", "rot_x"]


STORED_FIELDS = {network.MANIFOLD: ["gains", "weights", "biases"],
                 network.CLASSICAL: ["w_out", "w_in", "bias"]}


@pytest.mark.parametrize("model", network.MODELS)
@pytest.mark.parametrize("space", manifolds.KINDS)
def test_checkpoint_stores_each_layer_in_the_schema_order(tmp_path, model, space):
    # theta, the per-layer params type and the checkpoint all follow one field order
    cfg = network.NetworkConfig(model, space, 2)
    theta = network.init_params(cfg, np.random.default_rng(23))
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(path, cfg, theta)
    schema = network.layer_schema(cfg)[1]
    assert [name for name, _ in schema] == STORED_FIELDS[model]
    layers = json.loads(path.read_text())["params"]
    for layer in layers:
        assert list(layer) == STORED_FIELDS[model]
        assert [np.shape(layer[name]) for name in layer] == [shape for _, shape in schema]
    first = np.ravel(layers[0][STORED_FIELDS[model][0]])
    assert np.array_equal(theta[:len(first)], first)


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


def test_load_checkpoint_refuses_an_unknown_key_or_a_missing_field_naming_the_file(tmp_path):
    # a misspelled key would otherwise be dropped, or reported as a field of shape (0,)
    for cfg in (sphere_cfg(2), so3_cfg(2, network.CLASSICAL)):
        first, *_, last = STORED_FIELDS[cfg.model]
        for edit, message in (
                (lambda doc: doc.update(mta=doc.pop("meta")), "unknown checkpoint keys: ['mta']"),
                (lambda doc: doc["params"][1].update(note=1), "unknown layer 1 keys: ['note']"),
                (lambda doc: doc["params"][0].update({first + "x": doc["params"][0].pop(first)}),
                 f"unknown layer 0 keys: ['{first}x']"),
                (lambda doc: doc["params"][1].pop(last), f"layer 1 lacks ['{last}']")):
            path, doc = saved_checkpoint(tmp_path, cfg)
            edit(doc)
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidConfig, match=re.escape(f"{path}: {message}")):
                network.load_checkpoint(path)
        # meta may be left out
        path, doc = saved_checkpoint(tmp_path, cfg)
        del doc["meta"]
        path.write_text(json.dumps(doc))
        assert network.load_checkpoint(path)[2] == {}


def test_load_checkpoint_refuses_other_generator_names_naming_the_file(tmp_path):
    # the layers run cfg.generators; a checkpoint that names another set is not theirs
    for cfg in (sphere_cfg(1), so3_cfg(1)):
        for generators in (["rot_x", "rot_q"], ["rot_y", "rot_z", "rot_x"], None):
            path, doc = saved_checkpoint(tmp_path, cfg)
            doc["generators"] = generators
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidConfig, match=re.escape(f"{path}: generators must be")):
                network.load_checkpoint(path)
    # the baseline has no generators, and a saved one has none to check
    path, doc = saved_checkpoint(tmp_path, sphere_cfg(1, network.CLASSICAL))
    assert "generators" not in doc
    assert network.load_checkpoint(path)[0] == sphere_cfg(1, network.CLASSICAL)
    # so one that names any, its space's own included, is not a saved one
    for cfg in (sphere_cfg(1, network.CLASSICAL), so3_cfg(1, network.CLASSICAL)):
        for generators in (["rot_x", "rot_q"], list(cfg.generators.names), None):
            path, doc = saved_checkpoint(tmp_path, cfg)
            doc["generators"] = generators
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidConfig, match=re.escape(
                    f"{path}: a classical checkpoint holds no generators, got {generators!r}")):
                network.load_checkpoint(path)


def test_load_checkpoint_refuses_a_meta_that_is_not_an_object_naming_the_file(tmp_path):
    for cfg in (sphere_cfg(1), so3_cfg(1, network.CLASSICAL)):
        for meta, name in (([1, "x"], "list"), (5, "int"), ("ok", "str"), (None, "NoneType")):
            path, doc = saved_checkpoint(tmp_path, cfg)
            doc["meta"] = meta
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidConfig, match=re.escape(
                    f"{path}: meta must be a JSON object, got {name}")):
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
        with pytest.raises(InvalidConfig, match="ckpt.json: layer 0: 'bias' holds non-finite"):
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


def test_load_checkpoint_names_the_file_in_a_config_error(tmp_path):
    path, doc = saved_checkpoint(tmp_path, sphere_cfg(1))
    for bad, message in (({"layers": 2.0}, "wrongly typed network config values: ['layers']"),
                         ({"model": "resnet"}, "unknown model 'resnet'")):
        path.write_text(json.dumps(dict(doc, **bad)))
        with pytest.raises(InvalidConfig, match=re.escape(f"{path}: {message}")):
            network.load_checkpoint(path)
    path.write_text('{"model": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}")
    with pytest.raises(InvalidConfig, match=re.escape(f"{path}: not valid JSON")):
        network.load_checkpoint(path)


def test_init_is_seed_deterministic():
    cfg = so3_cfg(2, network.CLASSICAL)
    a = network.init_params(cfg, np.random.default_rng(99))
    b = network.init_params(cfg, np.random.default_rng(99))
    assert np.array_equal(a, b)
