"""Sweep harness: grids, per-cell training, aggregation, and artifacts."""

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from georesnet import data, manifolds, network, sweep, train
from georesnet.errors import InvalidConfig, from_dict


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


def test_default_spec_variants_keep_the_default_grid():
    s = dataclasses.replace(sweep.default_spec("exp1"), seeds=(5,), p_train=10)
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
    with pytest.raises(InvalidConfig, match="nonnegative"):
        tiny_spec(seeds=(0, -1))
    with pytest.raises(InvalidConfig, match="nonnegative"):
        tiny_spec(data_seed=-1)
    # every cell is built when the spec is made, so a bad layer count in
    # either list fails before any cell of the other list has trained
    for field in ("manifold_layers", "classical_layers"):
        for bad in ((0,), (1, -1)):
            with pytest.raises(InvalidConfig, match="layers must be a positive integer"):
                tiny_spec(**{field: bad})


def test_spec_rejects_a_repeated_layer_count_or_seed():
    # a repeat would train one cell directory twice, concurrently with
    # workers > 1, and count its loss twice in the median
    for field, bad in (("manifold_layers", (1, 2, 1)), ("classical_layers", [4, 4]),
                       ("seeds", (0, 0, 1))):
        with pytest.raises(InvalidConfig, match=field):
            tiny_spec(**{field: bad})


def test_spec_rejects_wrongly_typed_values():
    for field, bad in (("manifold_layers", 5), ("classical_layers", [1.5]),
                       ("seeds", [True]), ("seeds", "01"), ("p_train", "x"),
                       ("p_test", 2.0), ("data_seed", None), ("train", 5),
                       ("p_train", True)):
        with pytest.raises(InvalidConfig, match=field):
            tiny_spec(**{field: bad})


def test_spec_stores_numpy_integers_as_ints_json_can_write(tmp_path):
    # cmd_sweep writes spec.json after every cell has trained
    spec = tiny_spec(p_train=np.int64(4), p_test=np.int32(4), data_seed=np.uint8(7),
                     seeds=tuple(np.arange(2)), manifold_layers=[np.int64(1)])
    assert spec == tiny_spec()
    assert all(type(value) is int for value in (spec.p_train, spec.p_test, spec.data_seed,
                                                *spec.seeds, *spec.manifold_layers))
    sweep.save_spec(spec, tmp_path / "spec.json")
    assert sweep.load_spec(tmp_path / "spec.json") == spec


def test_spec_records_the_experiment_id_in_any_case(tmp_path):
    spec = tiny_spec(experiment="EXP1")
    assert spec.experiment == "exp1" and spec == tiny_spec()
    sweep.save_spec(spec, tmp_path / "spec.json")
    assert json.loads((tmp_path / "spec.json").read_text())["experiment"] == "exp1"


def test_spec_checks_its_train_overrides():
    # every cell builds its TrainConfig from these; a bad one fails when
    # the spec is read, before any dataset is generated
    for bad, word in (({"lr": 1}, "lr"), ({"epochs": 2.5}, "epochs"),
                      ({"lr0": -1.0}, "lr0"), ({"decay_epochs": 500}, "decay_epochs"),
                      ({"decay_epochs": [-5]}, "decay_epochs"),
                      ({"batch_size": 3}, "batch_size"), ({"epochs": 0}, "epochs"),
                      ({"epochs": 2, "seed": 7}, "seeds")):
        with pytest.raises(InvalidConfig, match=word):
            tiny_spec(train=bad)


def test_run_sweep_rechecks_a_train_dict_changed_after_the_spec_was_made(tmp_path,
                                                                          monkeypatch):
    # the spec is frozen but its train dict is not: run_sweep derives the
    # cells again, and that derivation checks them before any dataset is made
    generated = []
    monkeypatch.setattr(data, "generate_dataset", lambda *args: generated.append(args))
    for key, value in (("epochs", 0), ("seed", 7)):
        spec = tiny_spec()
        spec.train[key] = value
        out = tmp_path / key
        with pytest.raises(InvalidConfig, match="epochs" if key == "epochs" else "seeds"):
            sweep.run_sweep(spec, out_dir=out)
        assert not (out / "cells").exists()
    assert generated == []


def test_spec_dict_round_trip(tmp_path):
    spec = tiny_spec()
    assert from_dict(sweep.SweepSpec, dataclasses.asdict(spec), "sweep spec") == spec
    path = tmp_path / "spec.json"
    sweep.save_spec(spec, path)
    assert sweep.load_spec(path) == spec
    with pytest.raises(InvalidConfig):
        from_dict(sweep.SweepSpec, {"experiment": "exp1", "grid": []}, "sweep spec")


def test_load_spec_names_the_file_in_a_cell_error(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(dataclasses.asdict(tiny_spec()), seeds=[-1])))
    with pytest.raises(InvalidConfig, match=f"^{re.escape(str(path))}: seed must be nonnegative"):
        sweep.load_spec(path)


def test_cell_order_is_classical_first_and_exhaustive():
    spec = tiny_spec(manifold_layers=(1, 2), classical_layers=(4,), seeds=(0, 1),
                     train={"epochs": 3, "lr0": 2.0})
    cells = sweep.cell_order(spec)
    assert [(net_cfg.model, net_cfg.layers, cfg.seed) for net_cfg, cfg in cells] == [
        (network.CLASSICAL, 4, 0), (network.CLASSICAL, 4, 1),
        (network.MANIFOLD, 1, 0), (network.MANIFOLD, 1, 1),
        (network.MANIFOLD, 2, 0), (network.MANIFOLD, 2, 1),
    ]
    assert all(net_cfg.space == manifolds.SPHERE2 for net_cfg, _ in cells)
    assert [cfg for _, cfg in cells] == [train.TrainConfig(epochs=3, lr0=2.0, seed=seed)
                                         for seed in (0, 1) * 3]


# --- cells ------------------------------------------------------------------

def cell(model, layers, **overrides):
    """A cell's configs on tiny_spec's sphere data, as cell_order builds them."""
    return (network.NetworkConfig(model, manifolds.SPHERE2, layers),
            from_dict(train.TrainConfig, {"epochs": 3, **overrides, "seed": 0}, "config"))


def test_run_cell_trains_and_reports():
    res = sweep.run_cell(tiny_datasets(tiny_spec()), *cell(network.MANIFOLD, 2))
    assert res.status == "ok"
    assert res.model == network.MANIFOLD and res.layers == 2 and res.seed == 0
    assert res.param_count == 20
    assert math.isfinite(res.final_train_loss)
    assert math.isfinite(res.final_test_loss)
    assert res.final_mean_defect <= 1e-12
    assert len(res.metrics) == 3


def test_run_cell_records_divergence_as_a_status():
    res = sweep.run_cell(tiny_datasets(tiny_spec()),
                         *cell(network.CLASSICAL, 1, epochs=30, lr0=1e8))
    assert res.status == "diverged"
    assert math.isnan(res.final_train_loss)
    assert math.isnan(res.final_test_loss)
    assert len(res.metrics) < 30


def test_run_cell_records_a_geometric_divergence_with_a_nan_defect():
    # the parameters overflow the rotation angle, so the layer states go
    # NaN and so does the loss; the cell still ends as a status
    res = sweep.run_cell(tiny_datasets(tiny_spec()),
                         *cell(network.MANIFOLD, 2, epochs=30, lr0=1e100))
    assert res.status == "diverged"
    assert len(res.metrics) < 30
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
        cfg, theta, meta = network.load_checkpoint(cell / "checkpoint.json")
        assert cfg.model == res.model and cfg.layers == res.layers
        assert meta["seed"] == res.seed and meta["status"] == res.status
        assert np.array_equal(theta, res.metrics.final_params)
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


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap in a ProcessPoolExecutor that records max_workers and maps serially."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_sweep_starts_no_more_workers_than_cells(pool_sizes):
    spec = tiny_spec(seeds=(0,))  # two cells
    ds = tiny_datasets(spec)
    serial = sweep.run_sweep(spec, datasets=ds)
    pooled = sweep.run_sweep(spec, workers=8, datasets=ds)
    assert pool_sizes == [2]
    assert [r.final_test_loss for r in pooled] == [r.final_test_loss for r in serial]


def test_sweep_rejects_fewer_than_one_worker(pool_sizes):
    spec = tiny_spec()
    for workers in (0, -3):
        with pytest.raises(InvalidConfig, match="workers"):
            sweep.run_sweep(spec, workers=workers, datasets=tiny_datasets(spec))
    assert pool_sizes == []


def test_parallel_sweep_matches_serial(tmp_path):
    # a real process pool: every file of the tree, cells included, is bitwise the serial one
    spec = tiny_spec()
    ds = tiny_datasets(spec)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    sweep.run_sweep(spec, out_dir=serial, datasets=ds)
    sweep.run_sweep(spec, out_dir=parallel, workers=2, datasets=ds)
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert len(files) == 2 + 2 * 4  # sweep.csv, sweep.svg, and two files per cell
    assert files == sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file())
    for name in files:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


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
