"""Command-line behavior: artifacts, exit codes, and reproducibility."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import georesnet
from georesnet import cli, data, grad, network, sweep, train


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def gen_args(out, extra=()):
    return ["gen-data", "--experiment", "exp1", "--train-size", "6",
            "--test-size", "4", "--seed", "3", "--out", str(out), *extra]


# --- start-up ---------------------------------------------------------------

def test_importing_the_cli_loads_neither_scipy_linalg_nor_the_process_pool():
    # every command pays for what `import georesnet.cli` loads; scipy.linalg
    # (the dense-exponential oracle) and the process pool (sweep --workers)
    # are loaded only where they run
    src = os.path.dirname(os.path.dirname(os.path.abspath(georesnet.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import georesnet.cli; "
             "print(sorted({'scipy.linalg', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


# --- gen-data ---------------------------------------------------------------

def test_gen_data_writes_datasets_and_meta(tmp_path, capsys):
    config = write_json(tmp_path / "cfg.json", {"steps": 64})
    code = cli.main(gen_args(tmp_path / "d", ["--config", config]))
    assert code == 0
    train_ds = data.load_dataset(tmp_path / "d" / "train.json")
    test_ds = data.load_dataset(tmp_path / "d" / "test.json")
    assert len(train_ds) == 6 and len(test_ds) == 4
    assert train_ds.metadata["steps"] == 64
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    assert meta["command"] == "gen-data" and meta["seed"] == 3
    out = capsys.readouterr().out
    assert "train: 6 pairs" in out


def test_gen_data_is_bitwise_reproducible(tmp_path):
    config = write_json(tmp_path / "cfg.json", {"steps": 32})
    assert cli.main(gen_args(tmp_path / "a", ["--config", config])) == 0
    assert cli.main(gen_args(tmp_path / "b", ["--config", config])) == 0
    for name in ("train.json", "test.json", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_gen_data_optional_csv_export(tmp_path):
    config = write_json(tmp_path / "cfg.json", {"steps": 32})
    assert cli.main(gen_args(tmp_path / "d", ["--config", config, "--csv"])) == 0
    with open(tmp_path / "d" / "train.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "x0_1"
    assert len(rows) == 1 + 6


def test_gen_data_flags_win_over_the_config_which_wins_over_the_defaults(tmp_path):
    sizes = write_json(tmp_path / "sizes.json",
                       {"p_train": 3, "p_test": 2, "csv": False, "steps": 8})
    steps = write_json(tmp_path / "steps.json", {"steps": 8})
    flags = ["--train-size", "6", "--test-size", "4", "--csv"]
    for name, args, want in (("flags", ["--config", sizes, *flags], (6, 4, True)),
                             ("config", ["--config", sizes], (3, 2, False)),
                             ("defaults", ["--config", steps],
                              (data.DEFAULT_PAIRS, data.DEFAULT_PAIRS, False))):
        out = tmp_path / name
        assert cli.main(["gen-data", "--experiment", "exp1", "--out", str(out), *args]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert (meta["p_train"], meta["p_test"], (out / "train.csv").exists()) == want
        assert len(data.load_dataset(out / "train.json")) == meta["p_train"]


def test_gen_data_rejects_unknown_and_wrongly_typed_config_values(tmp_path, capsys):
    for i, (bad, key) in enumerate((({"p_train": "x"}, "p_train"), ({"p_test": 2.7}, "p_test"),
                                    ({"p_train": True}, "p_train"), ({"steps": 8.0}, "steps"),
                                    ({"csv": "false"}, "csv"), ({"csv": 1}, "csv"),
                                    ({"p_trian": 5}, "p_trian"), ({"steps": "x"}, "steps"))):
        config = write_json(tmp_path / f"gen{i}.json", bad)
        out = tmp_path / f"d{i}"
        assert cli.main(gen_args(out, ["--config", config])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and key in err
        assert not out.exists()


def test_gen_data_names_the_config_file_in_a_size_error(tmp_path, capsys):
    # sizes are checked when the file is read; a flag value has no file to name
    for i, (bad, message) in enumerate((({"p_train": 0}, "dataset sizes must be at least 1"),
                                        ({"p_test": -2}, "dataset sizes must be at least 1"),
                                        ({"steps": 0}, "steps must be at least 1"))):
        config = write_json(tmp_path / f"gen{i}.json", bad)
        out = tmp_path / f"d{i}"
        assert cli.main(["gen-data", "--experiment", "exp1", "--config", config,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out.exists()
    args = gen_args(tmp_path / "flag")
    args[args.index("--train-size") + 1] = "0"
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: dataset sizes must be at least 1\n"
    assert not (tmp_path / "flag").exists()


def test_unknown_experiment_fails_cleanly(tmp_path, capsys):
    code = cli.main(["gen-data", "--experiment", "exp9",
                     "--out", str(tmp_path / "d")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gen_data_rejects_a_negative_seed(tmp_path, capsys):
    args = gen_args(tmp_path / "data")
    args[args.index("--seed") + 1] = "-1"
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: seed must be nonnegative")


# --- train ------------------------------------------------------------------

def make_data_dir(tmp_path):
    config = write_json(tmp_path / "gen.json", {"steps": 64})
    assert cli.main(gen_args(tmp_path / "data", ["--config", config])) == 0
    return tmp_path / "data"


def test_train_writes_metrics_checkpoint_meta(tmp_path, capsys):
    data_dir = make_data_dir(tmp_path)
    config = write_json(tmp_path / "train.json", {"epochs": 3})
    out = tmp_path / "run"
    code = cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                     "--layers", "2", "--data", str(data_dir),
                     "--config", config, "--seed", "1", "--out", str(out)])
    assert code == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3
    cfg, params, meta = network.load_checkpoint(out / "checkpoint.json")
    assert cfg.layers == 2 and meta["status"] == "ok"
    doc = json.loads((out / "meta.json").read_text())
    assert doc["param_count"] == 20
    assert doc["train_config"]["seed"] == 1
    assert doc["epochs_recorded"] == 3
    assert doc["final_mean_test_defect"] <= 1e-12
    assert "[ok]" in capsys.readouterr().out


def test_train_prints_the_checkpoint_test_mse_beside_the_last_row(tmp_path, capsys):
    # the last metrics row reads its test loss before that epoch's step; the
    # checkpoint holds the parameters after it
    data_dir = make_data_dir(tmp_path)
    config = write_json(tmp_path / "train.json", {"epochs": 3})
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--model", "classical", "--experiment", "exp1", "--layers", "2",
                     "--data", str(data_dir), "--config", config, "--out", str(out)]) == 0
    cfg, theta, _ = network.load_checkpoint(out / "checkpoint.json")
    test = data.load_dataset(data_dir / "test.json")
    mse = grad.objective(network.network_forward(test.inputs, theta, cfg)[0], test.targets)[0]
    with open(out / "metrics.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert (f"test {float(last['test_loss']):.6g} (checkpoint {mse:.6g}) defect"
            in capsys.readouterr().out)


def test_train_runs_are_bitwise_reproducible(tmp_path):
    data_dir = make_data_dir(tmp_path)
    config = write_json(tmp_path / "train.json", {"epochs": 4})
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["train", "--model", "classical", "--experiment", "exp1",
                         "--layers", "1", "--data", str(data_dir),
                         "--config", config, "--out", str(out)]) == 0
        runs.append((out / "metrics.csv").read_bytes())
    assert runs[0] == runs[1]


def test_train_divergence_exits_3_with_partial_metrics(tmp_path, capsys):
    data_dir = make_data_dir(tmp_path)
    config = write_json(tmp_path / "train.json", {"epochs": 40, "lr0": 1e8})
    out = tmp_path / "run"
    code = cli.main(["train", "--model", "classical", "--experiment", "exp1",
                     "--layers", "1", "--data", str(data_dir),
                     "--config", config, "--out", str(out)])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    doc = json.loads((out / "meta.json").read_text())
    assert doc["status"] == "diverged"
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert 1 < len(rows) < 1 + 40  # some epochs recorded, not all


def test_train_geometric_divergence_exits_3_with_a_nan_defect(tmp_path):
    data_dir = make_data_dir(tmp_path)
    config = write_json(tmp_path / "train.json", {"epochs": 40, "lr0": 1e100})
    out = tmp_path / "run"
    code = cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                     "--layers", "2", "--data", str(data_dir),
                     "--config", config, "--out", str(out)])
    assert code == 3
    doc = json.loads((out / "meta.json").read_text())
    assert doc["status"] == "diverged"
    assert np.isnan(doc["final_mean_test_defect"])


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    data_dir = make_data_dir(tmp_path)
    for i, bad in enumerate(({"learning_rate": 1.0}, {"batch_size": 3})):
        config = write_json(tmp_path / f"train{i}.json", bad)
        code = cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                         "--layers", "1", "--data", str(data_dir),
                         "--config", config, "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: unknown config keys")


def test_train_rejects_wrongly_typed_config_values(tmp_path, capsys):
    data_dir = make_data_dir(tmp_path)
    for i, bad in enumerate(({"epochs": "10"}, {"lr0": "1"}, {"epochs": 2.5},
                             {"batch_size": 2.5}, {"decay_epochs": 500})):
        config = write_json(tmp_path / f"train{i}.json", bad)
        code = cli.main(["train", "--model", "classical", "--experiment", "exp1",
                         "--layers", "1", "--data", str(data_dir),
                         "--config", config, "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_train_rejects_a_non_finite_step_size_or_penalty(tmp_path, capsys):
    # json reads NaN and Infinity; neither may reach training, where it
    # would read as a divergence (exit 3)
    data_dir = make_data_dir(tmp_path)
    capsys.readouterr()
    for i, bad in enumerate(({"lr0": float("nan")}, {"lr0": float("inf")},
                             {"lam": float("nan")}, {"lam": float("inf")})):
        config = write_json(tmp_path / f"train{i}.json", bad)
        code = cli.main(["train", "--model", "classical", "--experiment", "exp1",
                         "--layers", "1", "--data", str(data_dir),
                         "--config", config, "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{next(iter(bad))} must be finite" in err


def test_train_rejects_a_step_size_or_penalty_no_float_can_hold(tmp_path, capsys):
    # json reads a 401-digit integer exactly, and it compares below inf; it
    # would overflow in the first step size or penalty product
    data_dir = make_data_dir(tmp_path)
    capsys.readouterr()
    for key in ("lr0", "lam"):
        config = write_json(tmp_path / f"{key}.json", {key: 10 ** 400})
        out = tmp_path / f"run-{key}"
        code = cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                         "--layers", "1", "--data", str(data_dir),
                         "--config", config, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: wrongly typed config values") and key in err
        assert not out.exists()


def train_args(config, out):
    return ["train", "--model", "manifold", "--experiment", "exp1", "--layers", "1",
            "--config", str(config), "--out", str(out)]


def test_train_names_the_config_file_in_a_range_error(tmp_path, capsys):
    # a file value is checked before a flag replaces it, so --seed 3 does not hide seed -1
    for i, (bad, flags, message) in enumerate((
            ({"lr0": -1}, [], "lr0 must be finite and positive"),
            ({"seed": -1}, ["--seed", "3"], "seed must be nonnegative"))):
        config = write_json(tmp_path / f"train{i}.json", bad)
        out = tmp_path / f"run{i}"
        assert cli.main(train_args(config, out) + flags) == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out.exists()


# json's parser recurses once per nesting level, and int() refuses over 4300 digits
HOSTILE_JSON = {"deep-nesting": '{"lr0": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}",
                "5000-digit-integer": '{"lr0": ' + "1" * 5000 + "}"}


@pytest.mark.parametrize("text", HOSTILE_JSON.values(), ids=HOSTILE_JSON.keys())
def test_train_reports_hostile_json_naming_the_file(tmp_path, capsys, text):
    config = tmp_path / "hostile.json"
    config.write_text(text)
    out = tmp_path / "run"
    assert cli.main(train_args(config, out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: not valid JSON: ")
    assert not out.exists()


def test_train_reports_a_missing_data_directory_as_an_io_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--model", "manifold", "--experiment", "exp1", "--layers", "1",
                     "--data", str(tmp_path / "missing"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("io error: ")
    assert not out.exists()


def test_train_with_zero_epochs_records_the_initial_net(tmp_path, capsys):
    data_dir = make_data_dir(tmp_path)
    config = write_json(tmp_path / "train.json", {"epochs": 0})
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--model", "classical", "--experiment", "exp1", "--layers", "2",
                     "--data", str(data_dir), "--config", config, "--seed", "4",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == "classical exp1 M=2: no epochs recorded [ok]\n"
    with open(out / "metrics.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [list(train.METRICS_COLUMNS)]
    cfg, theta, meta = network.load_checkpoint(out / "checkpoint.json")
    assert np.array_equal(theta, network.init_params(cfg, np.random.default_rng(4)))
    assert meta == {"seed": 4, "status": "ok"}


def test_train_rejects_a_negative_seed(tmp_path, capsys):
    for flag in ("--seed", "--data-seed"):
        code = cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                         "--layers", "1", flag, "-1", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: seed must be nonnegative")


def test_train_rejects_a_data_seed_beside_a_data_directory(tmp_path, capsys):
    # the loaded data would silently ignore the seed, even one equal to the default
    data_dir = make_data_dir(tmp_path)
    capsys.readouterr()
    for seed in ("0", "5"):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                      "--layers", "1", "--data", str(data_dir), "--data-seed", seed,
                      "--out", str(tmp_path / "run")])
        assert exit_.value.code == 2
        assert "argument --data-seed: not allowed with argument --data" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_reports_a_malformed_json_config(tmp_path, capsys):
    data_dir = make_data_dir(tmp_path)
    capsys.readouterr()
    config = tmp_path / "bad.json"
    config.write_text("{")
    code = cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                     "--layers", "1", "--data", str(data_dir),
                     "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.json" in err


def test_train_reports_a_malformed_dataset(tmp_path, capsys):
    data_dir = make_data_dir(tmp_path)
    capsys.readouterr()
    (data_dir / "test.json").write_text('{"kind": "sphere2", "inputs": [')
    code = cli.main(["train", "--model", "manifold", "--experiment", "exp1",
                     "--layers", "1", "--data", str(data_dir),
                     "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "test.json" in err


# --- sweep ------------------------------------------------------------------

def test_sweep_requires_an_experiment_or_spec(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["sweep", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "one of the arguments --experiment --config is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_an_experiment_beside_a_spec(tmp_path, capsys):
    # the spec names its own experiment, which would silently win
    spec = {"experiment": "exp1", "manifold_layers": [1], "classical_layers": [1],
            "seeds": [0], "train": {"epochs": 2}, "p_train": 4, "p_test": 4}
    config = write_json(tmp_path / "spec.json", spec)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["sweep", "--experiment", "exp2", "--config", config,
                  "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "argument --config: not allowed with argument --experiment" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_from_a_spec_file(tmp_path, capsys):
    spec = {"experiment": "exp1", "manifold_layers": [1], "classical_layers": [1],
            "seeds": [0, 1], "train": {"epochs": 2}, "p_train": 4, "p_test": 4,
            "data_seed": 7}
    config = write_json(tmp_path / "spec.json", spec)
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", config, "--out", str(out)])
    assert code == 0
    assert (out / "sweep.csv").exists()
    assert (out / "sweep.svg").exists()
    assert (out / "spec.json").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["cells"] == 4
    assert "median test loss" in capsys.readouterr().out


def test_sweep_reports_a_malformed_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"experiment": "exp1",')
    assert cli.main(["sweep", "--config", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_reports_a_wrongly_typed_spec(tmp_path, capsys):
    spec = {"experiment": "exp1", "manifold_layers": [1], "classical_layers": [1],
            "seeds": [0], "train": {"epochs": 1}, "p_train": 4, "p_test": 4}
    for field, bad in (("manifold_layers", 5), ("p_train", "x")):
        config = write_json(tmp_path / "spec.json", {**spec, field: bad})
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


def test_sweep_names_the_keys_a_spec_lacks(tmp_path, capsys):
    config = write_json(tmp_path / "spec.json", {"experiment": "exp1", "seeds": [0]})
    assert cli.main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lacks ['manifold_layers', 'classical_layers']" in err


def test_sweep_names_the_train_object_and_the_file_in_a_spec_error(tmp_path, capsys):
    # a spec has no top-level config: an error in its train overrides says train
    base = {"experiment": "exp1", "manifold_layers": [1], "classical_layers": [1],
            "seeds": [0], "train": {"epochs": 1}, "p_train": 4, "p_test": 4}
    for i, (bad, message) in enumerate((
            ({"train": {"lr0": "x"}}, "train: wrongly typed config values: ['lr0']"),
            ({"train": {"lr": 1}}, "train: unknown config keys: ['lr']"),
            ({"train": {"lr0": -1}}, "train: lr0 must be finite and positive"),
            ({"p_train": 0}, "dataset sizes must be at least 1"),
            ({"p_test": 0}, "dataset sizes must be at least 1"))):
        config = write_json(tmp_path / f"spec{i}.json", {**base, **bad})
        out = tmp_path / f"out{i}"
        assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out.exists()


def test_sweep_seed_overrides_the_data_seed_of_either_spec(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "run_sweep",
                        lambda spec, out_dir, workers: os.makedirs(out_dir) or [])
    config = write_json(tmp_path / "spec.json", dataclasses.asdict(sweep.default_spec("exp2")))
    for source in (["--experiment", "exp2"], ["--config", config]):
        out = tmp_path / source[0].strip("-")
        assert cli.main(["sweep", *source, "--seed", "5", "--out", str(out)]) == 0
        assert sweep.load_spec(out / "spec.json") == dataclasses.replace(
            sweep.default_spec("exp2"), data_seed=5)


def test_sweep_rejects_negative_seeds_and_non_finite_train_overrides(tmp_path, capsys):
    base = {"experiment": "exp1", "manifold_layers": [1], "classical_layers": [1],
            "seeds": [0], "train": {"epochs": 1}, "p_train": 4, "p_test": 4}
    bad_specs = ({**base, "seeds": [-1]}, {**base, "data_seed": -1},
                 {**base, "train": {"lr0": float("nan")}},
                 {**base, "train": {"lam": float("inf")}},
                 {**base, "train": {"epochs": 0}}, {**base, "train": {"epochs": 2, "seed": 7}},
                 # checked when the spec is read, before a classical cell trains
                 {**base, "manifold_layers": [0]}, {**base, "classical_layers": [1, -1]})
    runs = [["--config", write_json(tmp_path / f"spec{i}.json", spec)]
            for i, spec in enumerate(bad_specs)]
    runs.append(["--experiment", "exp1", "--seed", "-1"])
    for i, args in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert cli.main(["sweep", *args, "--out", str(out)]) == 1, args
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_train_and_a_sweep_cell_write_the_same_run(tmp_path):
    # both record a run through train.run, so the same data, net and
    # config give the same files, for a finished and a diverged run
    for status, overrides, extra in (("ok", {"epochs": 5}, []),
                                     ("diverged", {"epochs": 40, "lr0": 1e8}, ["--seed", "7"])):
        root = tmp_path / status
        root.mkdir()
        config = write_json(root / "train.json", overrides)
        code = cli.main(["train", "--model", "classical", "--experiment", "exp1",
                         "--layers", "1", "--data-seed", "7", "--seed", "0",
                         "--config", config, "--out", str(root / "train")])
        assert code == (3 if status == "diverged" else 0)
        # the diverged case sets the data seed with sweep --seed instead
        spec = {"experiment": "exp1", "manifold_layers": [1], "classical_layers": [1],
                "seeds": [0], "train": overrides, "p_train": 100, "p_test": 100}
        spec = write_json(root / "spec.json", spec if extra else {**spec, "data_seed": 7})
        assert cli.main(["sweep", "--config", spec, *extra, "--out", str(root / "sweep")]) == 0
        assert json.loads((root / "sweep" / "spec.json").read_text())["data_seed"] == 7
        cell = root / "sweep" / "cells" / "classical-m1-s0"
        assert network.load_checkpoint(cell / "checkpoint.json")[2]["status"] == status
        for name in ("metrics.csv", "checkpoint.json"):
            assert (cell / name).read_bytes() == (root / "train" / name).read_bytes(), name


# --- counts too large to run ------------------------------------------------

def test_a_count_past_the_integer_bound_exits_1_naming_its_file(tmp_path, capsys):
    # each count is refused when its config is made, before anything is allocated
    # or any directory made; the error names the file the count came from, if any
    huge = 10 ** 30
    configs = {"train": {"epochs": huge}, "gen": {"p_train": 10 ** 45},
               "spec": {"experiment": "exp1", "manifold_layers": [huge],
                        "classical_layers": [1]}}
    paths = {name: write_json(tmp_path / f"{name}.json", doc) for name, doc in configs.items()}
    train_cmd = ["train", "--model", "manifold", "--experiment", "exp1", "--layers"]
    gen_cmd = ["gen-data", "--experiment", "exp1"]
    for i, (args, path, what, key) in enumerate((
            (train_cmd + [str(huge)], None, "network config", "layers"),
            (train_cmd + ["1", "--config", paths["train"]], paths["train"], "config", "epochs"),
            (["sweep", "--config", paths["spec"]], paths["spec"], "sweep spec",
             "manifold_layers"),
            (gen_cmd + ["--config", paths["gen"]], paths["gen"], "gen-data config", "p_train"),
            (gen_cmd + ["--train-size", str(10 ** 45)], None, "gen-data config", "p_train"))):
        out = tmp_path / f"out{i}"
        assert cli.main([*args, "--out", str(out)]) == 1
        where = f"{path}: " if path else ""
        assert capsys.readouterr().err == (f"error: {where}{what} values out of range "
                                           f"[-2147483647, 2147483647]: ['{key}']\n")
        assert not out.exists()


def test_running_out_of_memory_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 7.28 TiB for an array with shape (10**12,)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(data, "generate_dataset", refuse)
    out = tmp_path / "d"
    assert cli.main(gen_args(out)) == 1
    assert capsys.readouterr().err == f"memory error: {message}\n"
    assert not out.exists()


# --- JSON artifacts ---------------------------------------------------------

def test_json_artifacts_keep_the_bytes_of_json_dump(tmp_path):
    # the package writes array leaves itself; every JSON file must still be
    # json.dump(doc, indent=1) and a newline, with sorted keys in meta.json only
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    inputs.mkdir()
    gen = write_json(inputs / "gen.json", {"steps": 16})
    fit = write_json(inputs / "train.json", {"epochs": 2})
    for experiment in ("exp1", "exp2"):
        root = outputs / experiment
        assert cli.main(["gen-data", "--experiment", experiment, "--train-size", "5",
                         "--test-size", "3", "--config", gen, "--out", str(root / "data")]) == 0
        assert cli.main(["train", "--model", "manifold", "--experiment", experiment,
                         "--layers", "2", "--data", str(root / "data"), "--config", fit,
                         "--out", str(root / "train")]) == 0
        spec = write_json(inputs / "spec.json", {
            "experiment": experiment, "manifold_layers": [1], "classical_layers": [1],
            "seeds": [0], "train": {"epochs": 2}, "p_train": 4, "p_test": 4})
        assert cli.main(["sweep", "--config", spec, "--out", str(root / "sweep")]) == 0
    paths = sorted(outputs.rglob("*.json"))
    assert {p.name for p in paths} == {"train.json", "test.json", "checkpoint.json",
                                       "spec.json", "meta.json"}
    for path in paths:
        text = path.read_text()
        expected = json.dumps(json.loads(text), indent=1,
                              sort_keys=path.name == "meta.json") + "\n"
        assert text == expected, path


# --- check ------------------------------------------------------------------

def test_check_suites_pass_and_report(tmp_path, capsys):
    for suite in ("invariants", "gradcheck", "bracket", "integrator"):
        out = tmp_path / suite
        code = cli.main(["check", suite, "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0, f"{suite} failed:\n{text}"
        assert "ok  " in text and "FAIL" not in text
        doc = json.loads((out / f"check-{suite}.json").read_text())
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])


def test_check_runs_without_an_output_directory(capsys):
    assert cli.main(["check", "bracket"]) == 0
    assert "bracket generating" in capsys.readouterr().out


def test_check_rejects_a_negative_seed(capsys):
    assert cli.main(["check", "bracket", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be nonnegative")


def test_a_failing_check_exits_1_and_reports_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITES, "bracket", lambda rng: [("always off", 1.0, 0.0)])
    assert cli.main(["check", "bracket", "--out", str(tmp_path)]) == 1
    assert "FAIL always off: 1.000e+00 (bound 0.000e+00)" in capsys.readouterr().out
    doc = json.loads((tmp_path / "check-bracket.json").read_text())
    assert doc["passed"] is False
    assert doc["checks"] == [{"name": "always off", "value": 1.0, "bound": 0.0,
                              "passed": False}]
