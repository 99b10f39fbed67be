"""Objective, schedule, optimizer step, and the training loop."""

import csv
import dataclasses
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from georesnet import data, grad, manifolds, network, train
from georesnet.errors import DivergenceDetected, InvalidConfig, OffManifold, from_dict, write_json


def sphere_config(layers, model=network.MANIFOLD):
    return network.NetworkConfig(model, manifolds.SPHERE2, layers)


def small_datasets(p=8, seed=3, steps=64):
    return data.generate_dataset("exp1", p, p, seed=seed, steps=steps)


# the flat parameter vector of one layer with gains (2, 0) and zero weights
GAIN_THETA = network.flatten_params([network.ManifoldLayerParams(
    gains=np.array([2.0, 0.0]), weights=np.zeros((2, 3)), biases=np.zeros(2))])


# --- objective --------------------------------------------------------------

def test_loss_is_zero_on_a_perfect_unregularized_fit():
    preds = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    value, cotangent = grad.objective(preds, preds, GAIN_THETA, lam=0.0, dt=0.5)
    assert value == 0.0
    assert np.array_equal(cotangent, np.zeros((2, 3)))


def test_loss_of_a_single_pair_is_its_squared_distance():
    preds = np.array([[1.0, 0.0, 0.0]])
    targets = np.array([[0.0, 1.0, 0.0]])
    value, cotangent = grad.objective(preds, targets, [], lam=0.0, dt=1.0)
    assert value == 2.0
    # d/d(preds) of ||preds - targets||^2 over a batch of one
    assert np.array_equal(cotangent, 2.0 * (preds - targets))


def test_loss_regularizer_term():
    # ||Theta||^2 = 4, lam = 1, dt = 0.5: penalty is 1 * 0.5 / 2 * 4 = 1
    preds = np.array([[0.0, 0.0, 1.0]])
    assert grad.objective(preds, preds, GAIN_THETA, lam=1.0, dt=0.5)[0] == 1.0


def test_loss_averages_over_the_batch():
    preds = np.zeros((4, 3))
    targets = np.zeros((4, 3))
    targets[0, 0] = 2.0  # one bad pair out of four
    value, cotangent = grad.objective(preds, targets)
    assert value == 1.0
    assert np.array_equal(cotangent, 0.5 * (preds - targets))


def test_loss_rejects_mismatched_batches():
    with pytest.raises(InvalidConfig):
        grad.objective(np.zeros((2, 3)), np.zeros((3, 3)), [], 0.0, 1.0)
    with pytest.raises(InvalidConfig):
        grad.objective(np.zeros((0, 3)), np.zeros((0, 3)), [], 0.0, 1.0)


# --- schedule and optimizer -------------------------------------------------

def test_schedule_decays_at_the_preset_epochs():
    cfg = train.TrainConfig()
    assert train.lr_schedule(0, cfg) == 10.0
    assert train.lr_schedule(499, cfg) == 10.0
    assert train.lr_schedule(500, cfg) == 8.0
    assert train.lr_schedule(6000, cfg) == 3.2768000000000006  # 10 * 0.8^5


def test_schedule_is_non_increasing():
    cfg = train.TrainConfig()
    values = [train.lr_schedule(e, cfg) for e in range(0, 8001, 50)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    with pytest.raises(InvalidConfig):
        train.lr_schedule(-1, cfg)


def test_sgd_step_with_zero_gradient_is_a_momentum_coast():
    p = np.array([1.0, -2.0, 3.0])
    v = np.zeros(3)
    p2, v2 = train.sgd_step(p, np.zeros(3), v, lr=0.5, momentum=0.9)
    assert np.array_equal(p2, p)
    assert np.array_equal(v2, np.zeros(3))


def test_sgd_step_without_momentum_is_plain_descent():
    p = np.array([1.0, 1.0])
    g = np.array([0.25, -0.5])
    p2, v2 = train.sgd_step(p, g, np.zeros(2), lr=2.0, momentum=0.0)
    assert np.array_equal(p2, p - 2.0 * g)
    assert np.array_equal(v2, g)


def test_sgd_momentum_accumulates_over_steps():
    p = np.array([0.0, 0.0])
    g = np.array([1.0, -1.0])
    lr, mu = 0.1, 0.9
    p1, v1 = train.sgd_step(p, g, np.zeros(2), lr, mu)
    p2, _ = train.sgd_step(p1, g, v1, lr, mu)
    # velocities g then 1.9 g: total displacement 2.9 lr g
    assert np.allclose(p2, -2.9 * lr * g, rtol=1e-15)


# --- configuration ----------------------------------------------------------

def test_train_config_validates_its_fields():
    for bad in (dict(lr0=0.0), dict(lr0=-1.0), dict(momentum=1.0),
                dict(momentum=-0.1), dict(decay_factor=0.0),
                dict(decay_factor=1.0), dict(epochs=-1),
                dict(lam=-1e-3), dict(seed=-1), dict(decay_epochs=(500, -5)),
                # NaN fails every comparison and inf passes a sign check;
                # either would train and read as a divergence
                dict(lr0=math.nan), dict(lr0=math.inf), dict(lam=math.nan),
                dict(lam=math.inf)):
        with pytest.raises(InvalidConfig):
            train.TrainConfig(**bad)
    assert train.TrainConfig(epochs=0).epochs == 0


def test_train_config_sorts_decay_epochs():
    cfg = train.TrainConfig(decay_epochs=(6000, 500, 2000))
    assert cfg.decay_epochs == (500, 2000, 6000)


def test_config_rejects_wrongly_typed_values():
    for bad in ({"epochs": "10"}, {"lr0": "1"}, {"epochs": 2.5}, {"batch_size": 2.5},
                {"decay_epochs": 500}, {"decay_epochs": [500, "1000"]}, {"seed": True}):
        with pytest.raises(InvalidConfig):
            from_dict(train.TrainConfig, bad, "config")
    assert from_dict(train.TrainConfig, {"lr0": 1, "epochs": np.int64(3)}, "config").epochs == 3


def test_config_stores_real_values_as_floats_json_can_write(tmp_path):
    # cli train echoes asdict(cfg) into meta.json; numpy and fractions
    # values are stored as the floats they hold
    for lam in (np.float32(1e-3), Fraction(1, 1000)):
        cfg = train.TrainConfig(lam=lam, lr0=np.float64(2), momentum=0)
        assert (type(cfg.lam), type(cfg.lr0), type(cfg.momentum)) == (float, float, float)
        assert cfg.lam == float(lam)
        write_json(tmp_path / "meta.json", dataclasses.asdict(cfg))
        doc = json.loads((tmp_path / "meta.json").read_text())
        assert from_dict(train.TrainConfig, doc, "config") == cfg


def test_from_dict_round_trips_a_train_config_and_rejects_unknowns():
    cfg = train.TrainConfig(lr0=2.0, epochs=17)
    assert from_dict(train.TrainConfig, dataclasses.asdict(cfg), "config") == cfg
    assert from_dict(train.TrainConfig, {"epochs": 5}, "config").epochs == 5
    assert from_dict(train.TrainConfig, {"decay_epochs": [10, 20]},
                     "config").decay_epochs == (10, 20)
    # training is full batch only; batch_size is not a key
    for unknown in ({"learning_rate": 1.0}, {"batch_size": 3}):
        with pytest.raises(InvalidConfig, match=next(iter(unknown))):
            from_dict(train.TrainConfig, unknown, "config")


# --- training loop ----------------------------------------------------------

def test_zero_epochs_returns_the_initialization():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(epochs=0, seed=12)
    metrics = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    assert len(metrics) == 0
    expected = network.init_params(net_cfg, np.random.default_rng(12))
    assert np.array_equal(metrics.final_params, expected)


def test_run_with_numpy_integer_configs_writes_a_readable_checkpoint(tmp_path):
    # numpy integers pass validation and are stored as int, so the
    # checkpoint's meta and the layer count serialize
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(np.int64(2))
    cfg = train.TrainConfig(epochs=np.int64(2), seed=np.int64(1))
    assert type(cfg.epochs) is int and type(cfg.seed) is int
    metrics, status, _, _ = train.run(train_ds, test_ds, net_cfg, cfg, tmp_path / "run")
    assert status == "ok" and len(metrics) == 2
    loaded, theta, meta = network.load_checkpoint(tmp_path / "run" / "checkpoint.json")
    assert loaded == sphere_config(2) and meta == {"seed": 1, "status": "ok"}
    assert np.array_equal(theta, metrics.final_params)


def test_run_returns_the_test_mse_of_its_checkpoint():
    # the checkpoint's test MSE is the test loss the next epoch would record
    train_ds, test_ds = small_datasets()
    for model in network.MODELS:
        net_cfg = sphere_config(2, model)
        metrics, status, _, test_mse = train.run(train_ds, test_ds, net_cfg,
                                                 train.TrainConfig(epochs=3, seed=4))
        longer = train.run(train_ds, test_ds, net_cfg, train.TrainConfig(epochs=4, seed=4))[0]
        assert status == "ok" and test_mse == longer.test_loss[3] != metrics.test_loss[2]


def test_train_loop_rejects_a_manifold_mismatch():
    train_ds, test_ds = small_datasets()
    so3_cfg = network.NetworkConfig(network.MANIFOLD, manifolds.SO3, 2)
    message = "datasets on sphere2 do not match the network on so3"
    with pytest.raises(InvalidConfig, match=f"^{message}$"):
        train.train_loop(train_ds, test_ds, so3_cfg, train.TrainConfig(epochs=1))


def test_first_row_describes_the_untouched_initialization():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(epochs=1, seed=5)
    metrics = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    theta = network.init_params(net_cfg, np.random.default_rng(5))
    out, _ = network.network_forward(train_ds.inputs, theta, net_cfg)
    expected = grad.objective(out, train_ds.targets, theta, cfg.lam, net_cfg.dt)[0]
    assert metrics.train_loss[0] == expected
    # the test rows ride along in the train pass; they must come out as
    # they would from a forward of their own
    test_out, _ = network.network_forward(test_ds.inputs, theta, net_cfg)
    assert metrics.test_loss[0] == grad.objective(test_out, test_ds.targets)[0]
    worst = max(np.max(manifolds.defect(net_cfg.space, out)),
                np.max(manifolds.defect(net_cfg.space, test_out)))
    assert metrics.max_defect[0] == worst
    assert metrics.epoch[0] == 0
    assert metrics.lr[0] == cfg.lr0


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
@pytest.mark.parametrize("model", network.MODELS)
def test_a_training_step_is_the_network_gradient_of_the_train_rows(model, experiment):
    # velocity starts at zero, so the first step is lr0 times the gradient;
    # train_loop takes it with the test rows in the same forward pass
    train_ds, test_ds = data.generate_dataset(experiment, 6, 4, seed=3, steps=16)
    net_cfg = network.NetworkConfig(model, train_ds.kind, 2)
    cfg = train.TrainConfig(epochs=1, seed=4)
    metrics = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    theta = network.init_params(net_cfg, np.random.default_rng(cfg.seed))
    loss, g, _ = grad.network_gradient(train_ds.inputs, train_ds.targets, theta, net_cfg,
                                       cfg.lam)
    assert metrics.train_loss[0] == loss
    assert np.array_equal(metrics.final_params, theta - cfg.lr0 * g)


def test_train_loop_is_deterministic():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(epochs=20, seed=7)
    a = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    b = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    assert np.array_equal(a.train_loss, b.train_loss)
    assert np.array_equal(a.test_loss, b.test_loss)
    assert np.array_equal(a.final_params, b.final_params)


def test_small_steps_without_momentum_descend():
    train_ds, test_ds = small_datasets(p=16)
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(lr0=0.01, momentum=0.0, epochs=60, seed=1)
    metrics = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    diffs = np.diff(metrics.train_loss)
    assert np.mean(diffs <= 1e-12) >= 0.95


def test_geometric_net_learns_the_sphere_flow():
    # the headline fit: four layers, default recipe at the quick epoch
    # budget, final test error under a tenth of the starting value while
    # every iterate stays on the sphere
    train_ds, test_ds = data.generate_dataset("exp1", 100, 100, seed=2024)
    net_cfg = sphere_config(4)
    cfg = train.TrainConfig(epochs=train.QUICK_EPOCHS)
    metrics = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    assert len(metrics) == cfg.epochs
    assert metrics.test_loss[-1] <= 0.1 * metrics.test_loss[0]
    assert np.max(metrics.max_defect) <= 1e-9


def test_runaway_step_size_raises_with_partial_metrics():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(lr0=1e8, epochs=100, seed=0)
    with pytest.raises(DivergenceDetected) as info:
        train.train_loop(train_ds, test_ds, net_cfg, cfg)
    metrics = info.value.metrics
    assert str(info.value) == f"non-finite loss at epoch {len(metrics)}"
    assert 0 < len(metrics) < cfg.epochs
    assert np.all(np.isfinite(metrics.train_loss))


def test_off_manifold_inputs_are_not_reported_as_divergence():
    train_ds, test_ds = small_datasets()
    train_ds.inputs[0] = np.nan
    with pytest.raises(OffManifold):
        train.train_loop(train_ds, test_ds, sphere_config(2),
                         train.TrainConfig(epochs=3, seed=0))


def test_classical_model_trains_through_the_same_loop():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(1, model=network.CLASSICAL)
    metrics = train.train_loop(train_ds, test_ds, net_cfg,
                               train.TrainConfig(epochs=5, seed=0))
    assert len(metrics) == 5
    assert np.all(np.isfinite(metrics.train_loss))
    # ambient updates drift off the sphere immediately
    assert metrics.max_defect[-1] > 0.0


def spy_on_forward(monkeypatch):
    """Wrap network.network_forward; the returned list gets, per call, the
    number of earlier traces still alive as it starts."""
    real = network.network_forward
    traces, alive = [], []

    def forward(*args):
        alive.append(sum(ref() is not None for ref in traces))
        out, trace = real(*args)
        traces.append(weakref.ref(trace))
        return out, trace

    monkeypatch.setattr(network, "network_forward", forward)
    return alive


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
@pytest.mark.parametrize("model", network.MODELS)
def test_full_batch_training_holds_one_forward_trace(monkeypatch, model, experiment):
    train_ds, test_ds = data.generate_dataset(experiment, 6, 4, seed=3, steps=16)
    net_cfg = network.NetworkConfig(model, train_ds.kind, 2)
    alive = spy_on_forward(monkeypatch)
    train.train_loop(train_ds, test_ds, net_cfg, train.TrainConfig(epochs=4, seed=0))
    assert alive == [0] * 4


# --- metrics serialization --------------------------------------------------

def test_metrics_csv_round_trips_bitwise(tmp_path):
    train_ds, test_ds = small_datasets()
    metrics = train.train_loop(train_ds, test_ds, sphere_config(2),
                               train.TrainConfig(epochs=3, seed=6))
    path = tmp_path / "metrics.csv"
    metrics.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(train.METRICS_COLUMNS)
    assert len(rows) == 1 + 3
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == metrics.epoch[i]
        assert float(row[1]) == metrics.lr[i]
        assert float(row[2]) == metrics.train_loss[i]
        assert float(row[3]) == metrics.test_loss[i]
        assert float(row[4]) == metrics.max_defect[i]
