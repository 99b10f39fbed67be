"""Sweep harness: grids, per-cell training, aggregation, and artifacts."""

import csv
import math

import numpy as np
import pytest

from georesnet import data, manifolds, network, sweep, train
from georesnet.errors import InvalidConfig


def tiny_spec(**overrides):
    base = dict(experiment="exp1", manifold_layers=(1,), classical_layers=(1,),
                seeds=(0, 1), train={"epochs": 3}, p_train=4, p_test=4,
                data_seed=7)
    base.update(overrides)
    return sweep.SweepSpec(**base)


def tiny_datasets(spec, steps=32):
    return data.generate_dataset(spec.experiment, spec.p_train, spec.p_test,
                                 spec.data_seed, steps=steps)


# --- specs ------------------------------------------------------------------

def test_default_grids_match_the_benchmark():
    s1 = sweep.default_spec("exp1")
    assert s1.manifold_layers == (1, 2, 4, 8)
    assert s1.classical_layers == (1, 2, 4)
    s2 = sweep.default_spec("exp2")
    assert s2.manifold_layers == (5, 10, 20)
    assert s2.classical_layers == (1, 2, 4, 8)
    for s in (s1, s2):
        assert s.seeds == (0, 1, 2)
        assert s.train == {"epochs": train.QUICK_EPOCHS}
        assert s.p_train == 100 and s.p_test == 100


def test_default_grid_parameter_counts():
    s1, s2 = sweep.default_spec("exp1"), sweep.default_spec("exp2")

    def counts(spec, model, layer_list):
        kind = data.ode_by_id(spec.experiment).kind
        return [network.param_count(network.NetworkConfig(model, kind, m))
                for m in layer_list]

    assert counts(s1, network.MANIFOLD, s1.manifold_layers) == [10, 20, 40, 80]
    assert counts(s1, network.CLASSICAL, s1.classical_layers) == [21, 42, 84]
    assert counts(s2, network.MANIFOLD, s2.manifold_layers) == [165, 330, 660]
    assert counts(s2, network.CLASSICAL, s2.classical_layers) == [171, 342, 684, 1368]


def test_default_spec_accepts_overrides():
    s = sweep.default_spec("exp1", seeds=(5,), p_train=10)
    assert s.seeds == (5,)
    assert s.p_train == 10
    assert s.manifold_layers == (1, 2, 4, 8)


def test_spec_validation():
    with pytest.raises(InvalidConfig):
        tiny_spec(experiment="exp9")
    with pytest.raises(InvalidConfig):
        tiny_spec(manifold_layers=())
    with pytest.raises(InvalidConfig):
        tiny_spec(seeds=())


def test_spec_rejects_wrongly_typed_values():
    for field, bad in (("manifold_layers", 5), ("classical_layers", [1.5]),
                       ("seeds", [True]), ("seeds", "01"), ("p_train", "x"),
                       ("p_test", 2.0), ("data_seed", None), ("train", 5),
                       ("p_train", True)):
        with pytest.raises(InvalidConfig, match=field):
            tiny_spec(**{field: bad})


def test_spec_checks_its_train_overrides():
    # every cell builds its TrainConfig from these; a bad one fails when
    # the spec is read, before any dataset is generated
    for bad, word in (({"lr": 1}, "lr"), ({"epochs": 2.5}, "epochs"),
                      ({"lr0": -1.0}, "lr0"), ({"decay_epochs": 500}, "decay_epochs")):
        with pytest.raises(InvalidConfig, match=word):
            tiny_spec(train=bad)


def test_spec_dict_round_trip(tmp_path):
    spec = tiny_spec()
    assert sweep.spec_from_dict(spec.to_dict()) == spec
    path = tmp_path / "spec.json"
    sweep.save_spec(spec, path)
    assert sweep.load_spec(path) == spec
    with pytest.raises(InvalidConfig):
        sweep.spec_from_dict({"experiment": "exp1", "grid": []})


def test_cell_order_is_classical_first_and_exhaustive():
    spec = tiny_spec(manifold_layers=(1, 2), classical_layers=(4,), seeds=(0, 1))
    cells = sweep.cell_order(spec)
    assert cells == [
        (network.CLASSICAL, 4, 0), (network.CLASSICAL, 4, 1),
        (network.MANIFOLD, 1, 0), (network.MANIFOLD, 1, 1),
        (network.MANIFOLD, 2, 0), (network.MANIFOLD, 2, 1),
    ]


# --- cells ------------------------------------------------------------------

def test_run_cell_trains_and_reports():
    spec = tiny_spec()
    res = sweep.run_cell(spec, tiny_datasets(spec), network.MANIFOLD, 2, seed=0)
    assert res.status == "ok"
    assert res.model == network.MANIFOLD and res.layers == 2 and res.seed == 0
    assert res.param_count == 20
    assert math.isfinite(res.final_train_loss)
    assert math.isfinite(res.final_test_loss)
    assert res.final_mean_defect <= 1e-12
    assert len(res.metrics) == 3


def test_run_cell_records_divergence_as_a_status():
    spec = tiny_spec(train={"epochs": 30, "lr0": 1e8})
    res = sweep.run_cell(spec, tiny_datasets(spec), network.CLASSICAL, 1, seed=0)
    assert res.status == "diverged"
    assert math.isnan(res.final_train_loss)
    assert math.isnan(res.final_test_loss)
    assert res.metrics.diverged_at is not None


def test_run_cell_records_a_geometric_divergence_with_a_nan_defect():
    # the parameters overflow the rotation angle, so the layer states go
    # NaN and so does the loss; the cell still ends as a status
    spec = tiny_spec(train={"epochs": 30, "lr0": 1e100})
    res = sweep.run_cell(spec, tiny_datasets(spec), network.MANIFOLD, 2, seed=0)
    assert res.status == "diverged"
    assert len(res.metrics) == res.metrics.diverged_at
    assert math.isnan(res.final_mean_defect)


# --- whole sweeps -----------------------------------------------------------

def test_run_sweep_writes_the_artifact_tree(tmp_path):
    spec = tiny_spec()
    out = tmp_path / "out"
    results = sweep.run_sweep(spec, out_dir=out, datasets=tiny_datasets(spec))
    assert len(results) == 4
    assert [r.model for r in results] == ["classical", "classical",
                                          "manifold", "manifold"]
    for res in results:
        cell = out / "cells" / f"{res.model}-m{res.layers}-s{res.seed}"
        assert (cell / "metrics.csv").exists()
        cfg, params, meta = network.load_checkpoint(cell / "checkpoint.json")
        assert cfg.model == res.model and cfg.layers == res.layers
        assert meta["seed"] == res.seed and meta["status"] == res.status
        assert np.array_equal(network.flatten_params(params),
                              network.flatten_params(res.metrics.final_params))
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(sweep.RESULT_COLUMNS)
    assert len(rows) == 1 + 4
    assert (out / "sweep.svg").exists()


def test_run_sweep_is_bitwise_reproducible(tmp_path):
    spec = tiny_spec()
    ds = tiny_datasets(spec)
    a, b = tmp_path / "a", tmp_path / "b"
    sweep.run_sweep(spec, out_dir=a, datasets=ds)
    sweep.run_sweep(spec, out_dir=b, datasets=ds)
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_parallel_sweep_matches_serial(tmp_path):
    spec = tiny_spec()
    ds = tiny_datasets(spec)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    sweep.run_sweep(spec, out_dir=serial, datasets=ds)
    sweep.run_sweep(spec, out_dir=parallel, workers=2, datasets=ds)
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


# --- aggregation and chart --------------------------------------------------

def fake_result(model, count, seed, test_loss, status="ok"):
    return sweep.CellResult(model=model, layers=1, param_count=count, seed=seed,
                            final_train_loss=test_loss, final_test_loss=test_loss,
                            final_mean_defect=0.0, status=status)


def test_median_skips_diverged_cells_and_sorts_by_size():
    results = [
        fake_result("manifold", 20, 0, 0.5),
        fake_result("manifold", 20, 1, 0.3),
        fake_result("manifold", 20, 2, float("nan"), status="diverged"),
        fake_result("manifold", 10, 0, 1.0),
        fake_result("classical", 21, 0, 2.0),
    ]
    med = sweep.median_by_size(results, "manifold")
    assert list(med) == [10, 20]
    assert med[20] == 0.4
    assert med[10] == 1.0
    assert sweep.median_by_size(results, "classical") == {21: 2.0}


def test_chart_renders_both_series(tmp_path):
    results = [fake_result("manifold", c, 0, 1.0 / c) for c in (10, 20, 40)]
    results += [fake_result("classical", c, 0, 2.0 / c) for c in (21, 42)]
    path = tmp_path / "chart.svg"
    sweep.render_chart(results, path, title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 4  # two series in each of two panels
    assert "manifold" in text and "classical" in text


def test_chart_survives_an_all_diverged_sweep(tmp_path):
    results = [fake_result("classical", 21, s, float("nan"), status="diverged")
               for s in (0, 1)]
    path = tmp_path / "chart.svg"
    sweep.render_chart(results, path)
    assert "no finished cells" in path.read_text()
