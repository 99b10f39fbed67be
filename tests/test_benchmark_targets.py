"""The benchmark traces package functions by name; every name must exist.

perfbench/tracer.py looks each (owner, attribute) up when it is imported,
so a rename or deletion in the package breaks the benchmark.  It also
counts the bytes each writer wrote by reading the path at a fixed argument
position, and a file that is not there counts as 0 bytes.  These tests make
either change break the unit tests first.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from georesnet import cli, data, manifolds, network, train
from georesnet.errors import DivergenceDetected

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_resolves():
    tracer = load_tracer()
    for owner, attr, name, _ in tracer.TARGETS:
        assert callable(owner.__dict__.get(attr)), name


def test_every_traced_writer_counts_the_bytes_it_wrote(tmp_path):
    tracer = load_tracer()
    counted = {name for _, _, name, work in tracer.TARGETS
               if work is not None and work.__qualname__.startswith("_path_bytes.")}
    assert set(tracer.WRITERS) | {"data.save_dataset", "data.save_dataset_csv"} <= counted
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"p_train": 4, "p_test": 4, "steps": 4, "csv": True}))
    fit = tmp_path / "train.json"
    fit.write_text(json.dumps({"epochs": 2}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment": "exp1", "manifold_layers": [1],
                                "classical_layers": [1], "seeds": [0], "train": {"epochs": 2},
                                "p_train": 4, "p_test": 4}))
    data_dir = str(tmp_path / "data")
    with tracer.Tracer() as spans:
        spans.rep = 0
        assert cli.main(["gen-data", "--experiment", "exp1", "--config", str(gen),
                         "--out", data_dir]) == 0
        assert cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                         "--layers", "1", "--data", data_dir, "--config", str(fit),
                         "--out", str(tmp_path / "train")]) == 0
        assert cli.main(["sweep", "--config", str(spec), "--workers", "1",
                         "--out", str(tmp_path / "sweep")]) == 0
    assert tracer.restored()
    seen = set()
    for nid, _, _, _, _, nbytes in spans.spans:
        name = spans.names[nid]
        if name in counted:
            seen.add(name)
            assert nbytes > 0, name
    assert seen == counted
    metrics = tracer.per_layer_metrics(spans.aggregate(0))
    for metric in ("data.save_dataset.bytes", "data.save_dataset_csv.bytes",
                   "data.load_dataset.bytes", "sweep.write.bytes", "cli.write.bytes"):
        assert metrics[metric] > 0, metric


def test_a_diverging_train_loop_raises_one_row_per_epoch_before_the_non_finite_loss(
        monkeypatch):
    # the tracer counts a train_loop's epochs as the rows of the RunMetrics it
    # returns or raises; a diverged epoch runs a forward but records no row
    tracer = load_tracer()
    forward = network.network_forward
    forwards = []
    monkeypatch.setattr(network, "network_forward",
                        lambda *args: forwards.append(1) or forward(*args))
    train_ds, test_ds = data.generate_dataset("exp1", 8, 8, seed=3, steps=64)
    net_cfg = network.NetworkConfig(network.MANIFOLD, manifolds.SPHERE2, 2)
    cfg = train.TrainConfig(lr0=1e8, epochs=100)
    with pytest.raises(DivergenceDetected) as info:
        train.train_loop(train_ds, test_ds, net_cfg, cfg)
    metrics = info.value.metrics
    assert isinstance(metrics, train.RunMetrics)
    assert 0 < len(forwards) - 1 == len(metrics) < cfg.epochs
    assert np.array_equal(metrics.epoch, np.arange(len(metrics)))
    assert tracer._epochs((), {}, info.value) == len(metrics)
