"""Objective, schedule, optimizer step, and the training loop."""

import csv

import numpy as np
import pytest

from georesnet import data, grad, manifolds, network, train
from georesnet.errors import DivergenceDetected, InvalidConfig, OffManifold


def sphere_config(layers, model=network.MANIFOLD):
    return network.NetworkConfig(model, manifolds.SPHERE2, layers)


def small_datasets(p=8, seed=3, steps=64):
    return data.generate_dataset("exp1", p, p, seed=seed, steps=steps)


GAIN_PARAMS = [network.ManifoldLayerParams(
    gains=np.array([2.0, 0.0]), weights=np.zeros((2, 3)), biases=np.zeros(2))]


# --- objective --------------------------------------------------------------

def test_loss_is_zero_on_a_perfect_unregularized_fit():
    preds = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert train.loss(preds, preds, GAIN_PARAMS, lam=0.0, dt=0.5) == 0.0


def test_loss_of_a_single_pair_is_its_squared_distance():
    preds = np.array([[1.0, 0.0, 0.0]])
    targets = np.array([[0.0, 1.0, 0.0]])
    assert train.loss(preds, targets, [], lam=0.0, dt=1.0) == 2.0


def test_loss_regularizer_term():
    # ||Theta||^2 = 4, lam = 1, dt = 0.5: penalty is 1 * 0.5 / 2 * 4 = 1
    preds = np.array([[0.0, 0.0, 1.0]])
    assert train.loss(preds, preds, GAIN_PARAMS, lam=1.0, dt=0.5) == 1.0


def test_loss_averages_over_the_batch():
    preds = np.zeros((4, 3))
    targets = np.zeros((4, 3))
    targets[0, 0] = 2.0  # one bad pair out of four
    assert train.loss(preds, targets, [], lam=0.0, dt=1.0) == 1.0


def test_loss_rejects_mismatched_batches():
    with pytest.raises(InvalidConfig):
        train.loss(np.zeros((2, 3)), np.zeros((3, 3)), [], 0.0, 1.0)
    with pytest.raises(InvalidConfig):
        train.loss(np.zeros((0, 3)), np.zeros((0, 3)), [], 0.0, 1.0)


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
                dict(batch_size=0), dict(lam=-1e-3)):
        with pytest.raises(InvalidConfig):
            train.TrainConfig(**bad)
    assert train.TrainConfig(epochs=0).epochs == 0


def test_train_config_sorts_decay_epochs():
    cfg = train.TrainConfig(decay_epochs=(6000, 500, 2000))
    assert cfg.decay_epochs == (500, 2000, 6000)


def test_config_from_dict_round_trips_and_rejects_unknowns():
    cfg = train.TrainConfig(lr0=2.0, epochs=17)
    assert train.config_from_dict(cfg.to_dict()) == cfg
    assert train.config_from_dict({}, epochs=5).epochs == 5
    assert train.config_from_dict({"decay_epochs": [10, 20]}).decay_epochs == (10, 20)
    with pytest.raises(InvalidConfig):
        train.config_from_dict({"learning_rate": 1.0})


# --- training loop ----------------------------------------------------------

def test_zero_epochs_returns_the_initialization():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(epochs=0, seed=12)
    metrics = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    assert len(metrics) == 0
    expected = network.init_params(net_cfg, np.random.default_rng(12))
    assert np.array_equal(network.flatten_params(metrics.final_params),
                          network.flatten_params(expected))


def test_train_loop_rejects_a_manifold_mismatch():
    train_ds, test_ds = small_datasets()
    so3_cfg = network.NetworkConfig(network.MANIFOLD, manifolds.SO3, 2)
    with pytest.raises(InvalidConfig):
        train.train_loop(train_ds, test_ds, so3_cfg, train.TrainConfig(epochs=1))


def test_first_row_describes_the_untouched_initialization():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(epochs=1, seed=5)
    metrics = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    params = network.init_params(net_cfg, np.random.default_rng(5))
    out, _ = network.network_forward(train_ds.inputs, params, net_cfg)
    expected = train.loss(out, train_ds.targets, params, cfg.lam, net_cfg.dt)
    assert metrics.train_loss[0] == expected
    # the test rows ride along in the train pass; they must come out as
    # they would from a forward of their own
    test_out, _ = network.network_forward(test_ds.inputs, params, net_cfg)
    assert metrics.test_loss[0] == train.loss(test_out, test_ds.targets, [], 0.0, net_cfg.dt)
    worst = max(np.max(manifolds.defect(net_cfg.space, out)),
                np.max(manifolds.defect(net_cfg.space, test_out)))
    assert metrics.max_defect[0] == worst
    assert metrics.epoch[0] == 0
    assert metrics.lr[0] == cfg.lr0


def test_train_loop_is_deterministic():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(epochs=20, seed=7)
    a = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    b = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    assert np.array_equal(a.train_loss, b.train_loss)
    assert np.array_equal(a.test_loss, b.test_loss)
    assert np.array_equal(network.flatten_params(a.final_params),
                          network.flatten_params(b.final_params))


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
    assert metrics.diverged_at is None
    assert metrics.test_loss[-1] <= 0.1 * metrics.test_loss[0]
    assert np.max(metrics.max_defect) <= 1e-9


def test_runaway_step_size_raises_with_partial_metrics():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(lr0=1e8, epochs=100, seed=0)
    with pytest.raises(DivergenceDetected) as info:
        train.train_loop(train_ds, test_ds, net_cfg, cfg)
    metrics = info.value.metrics
    assert metrics.diverged_at is not None
    assert len(metrics) == metrics.diverged_at
    assert np.all(np.isfinite(metrics.train_loss))


def test_runaway_minibatch_run_raises_with_partial_metrics():
    # the first minibatch step overflows the parameters and the later
    # minibatches of epoch 0 turn them NaN, so the loss of epoch 1 is
    # non-finite
    train_ds, test_ds = small_datasets()
    cfg = train.TrainConfig(lr0=1e100, epochs=100, batch_size=3, seed=0)
    with pytest.raises(DivergenceDetected) as info:
        train.train_loop(train_ds, test_ds, sphere_config(2), cfg)
    metrics = info.value.metrics
    assert len(metrics) == metrics.diverged_at == 1
    assert np.all(np.isfinite(metrics.train_loss))
    assert np.all(np.isnan(network.flatten_params(metrics.final_params)))


def test_off_manifold_inputs_are_not_reported_as_divergence():
    train_ds, test_ds = small_datasets()
    train_ds.inputs[0] = np.nan
    with pytest.raises(OffManifold):
        train.train_loop(train_ds, test_ds, sphere_config(2),
                         train.TrainConfig(epochs=3, seed=0))


def test_minibatch_training_is_deterministic():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    cfg = train.TrainConfig(epochs=10, batch_size=3, seed=2)
    a = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    b = train.train_loop(train_ds, test_ds, net_cfg, cfg)
    assert np.array_equal(a.train_loss, b.train_loss)
    assert len(a) == 10


def test_oversized_batch_size_falls_back_to_full_batch():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(2)
    full = train.train_loop(train_ds, test_ds, net_cfg,
                            train.TrainConfig(epochs=8, seed=4))
    capped = train.train_loop(train_ds, test_ds, net_cfg,
                              train.TrainConfig(epochs=8, seed=4, batch_size=999))
    assert np.array_equal(full.train_loss, capped.train_loss)
    assert np.array_equal(network.flatten_params(full.final_params),
                          network.flatten_params(capped.final_params))


def test_classical_model_trains_through_the_same_loop():
    train_ds, test_ds = small_datasets()
    net_cfg = sphere_config(1, model=network.CLASSICAL)
    metrics = train.train_loop(train_ds, test_ds, net_cfg,
                               train.TrainConfig(epochs=5, seed=0))
    assert len(metrics) == 5
    assert np.all(np.isfinite(metrics.train_loss))
    # ambient updates drift off the sphere immediately
    assert metrics.max_defect[-1] > 0.0


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
