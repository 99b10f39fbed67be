"""Acceptance battery: the package's contract-level guarantees.

One test per criterion; ``pytest -v tests/test_acceptance.py`` prints a
pass/fail line for each, and ``-s`` adds the measured values behind every
verdict.  The two size-economy orderings (criterion 7) run the full
benchmark sweep for both experiments and are the only slow tests here.
"""

import json
import time

import numpy as np
import pytest

from georesnet import data, grad, linalg, manifolds, network, sweep, train
from georesnet.cli import main as cli_main

RNG_SEED = 20240817


# --- 1: the geometric net never leaves the manifold -------------------------

def test_criterion_1_manifold_invariance():
    rng = np.random.default_rng(RNG_SEED)
    started = time.perf_counter()
    worst = {manifolds.SPHERE2: 0.0, manifolds.SO3: 0.0}
    trials = 0
    for m in (1, 2, 4, 8, 16, 32, 64):
        for kind in manifolds.KINDS:
            cfg = network.NetworkConfig(network.MANIFOLD, kind, m)
            params = network.init_params(cfg, rng)
            x0 = manifolds.sample_uniform(kind, rng, 72)
            out = network.network_forward(x0, params, cfg)[0]
            worst[kind] = max(worst[kind],
                              float(np.max(manifolds.defect(kind, out))))
            trials += 72
    elapsed = time.perf_counter() - started
    print(f"\n  {trials} trials in {elapsed:.2f} s; "
          f"worst defect sphere {worst[manifolds.SPHERE2]:.3e}, "
          f"rotations {worst[manifolds.SO3]:.3e}")
    assert trials >= 1000
    assert worst[manifolds.SPHERE2] <= 1e-10
    assert worst[manifolds.SO3] <= 1e-9
    assert elapsed < 10.0


# --- 2: closed-form exponential against an independent oracle ---------------

def test_criterion_2_exponential_map():
    rng = np.random.default_rng(RNG_SEED)
    omega = rng.standard_normal((1000, 3))
    omega *= (rng.uniform(0.0, 5.0, 1000) / np.linalg.norm(omega, axis=1))[:, None]
    fast = linalg.expm_skew3(omega)
    worst = max(
        float(np.linalg.norm(fast[i]
                             - linalg.expm_dense(linalg.skew_from_axial(omega[i]))))
        for i in range(1000))
    axis = np.array([0.36, -0.48, 0.8])
    eps = 1e-9 * linalg.SMALL_ANGLE  # relative nudge; see branch continuity note
    jump = float(np.max(np.abs(
        linalg.expm_skew3((linalg.SMALL_ANGLE - eps) * axis)
        - linalg.expm_skew3((linalg.SMALL_ANGLE + eps) * axis))))
    print(f"\n  worst oracle deviation {worst:.3e}; branch jump {jump:.3e}")
    assert worst <= 1e-12
    assert jump <= 1e-12


# --- 3: commutator algebra and the spanning property ------------------------

def test_criterion_3_bracket_structure(tmp_path):
    # `check bracket` is the one implementation: the exact [rot_z, rot_y]
    # identity, then spanning on 1000 sphere points (depth 1) and on 100
    # rotations (depth 0), all drawn from this seed; -s shows its lines
    assert cli_main(["check", "bracket", "--seed", str(RNG_SEED),
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check-bracket.json").read_text())
    assert report["seed"] == RNG_SEED
    assert len(report["checks"]) == 3
    assert all(check["passed"] for check in report["checks"])


# --- 4: analytic gradients against finite differences -----------------------

def test_criterion_4_gradient_exactness():
    rng = np.random.default_rng(RNG_SEED)
    started = time.perf_counter()
    errors = []
    for _ in range(50):
        kind = manifolds.KINDS[rng.integers(2)]
        model = (network.MANIFOLD, network.CLASSICAL)[rng.integers(2)]
        layers = int(rng.choice((1, 2, 4)))
        cfg = network.NetworkConfig(model, kind, layers)
        params = network.init_params(cfg, rng)
        x = manifolds.sample_uniform(kind, rng, 3)
        y = manifolds.sample_uniform(kind, rng, 3)
        errors.append(grad.finite_diff_check(params, cfg, x, y, lam=1e-3))
    elapsed = time.perf_counter() - started
    errors = np.asarray(errors)
    print(f"\n  50 configurations in {elapsed:.2f} s; "
          f"worst {errors.max():.3e}, median {np.median(errors):.3e}")
    assert errors.max() <= 1e-4
    assert np.median(errors) <= 1e-6
    assert elapsed < 60.0


# --- 5: reference integrator converges at first order on clean data ---------

def test_criterion_5_integrator_convergence():
    starts = {
        "exp1": np.array([0.0, 1.0, 0.0]),
        "exp2": manifolds.sample_uniform(manifolds.SO3, np.random.default_rng(7)),
    }
    ratios = {}
    for ode in (data.EXP1, data.EXP2):
        x0 = starts[ode.id]
        ref = data.ground_truth_flow(x0, ode, steps=2 ** 14)
        err_c = np.linalg.norm(data.ground_truth_flow(x0, ode, steps=2 ** 10) - ref)
        err_f = np.linalg.norm(data.ground_truth_flow(x0, ode, steps=2 ** 11) - ref)
        ratios[ode.id] = err_c / err_f
    defects = {}
    for experiment in ("exp1", "exp2"):
        train_ds, test_ds = data.generate_dataset(experiment, 100, 100,
                                                  sweep.DEFAULT_DATA_SEED)
        defects[experiment] = max(train_ds.max_defect(), test_ds.max_defect())
    print(f"\n  halving ratios {ratios['exp1']:.4f} / {ratios['exp2']:.4f}; "
          f"data defects {defects['exp1']:.3e} / {defects['exp2']:.3e}")
    for experiment in ("exp1", "exp2"):
        assert 1.7 <= ratios[experiment] <= 2.3
        assert defects[experiment] <= 1e-10


# --- 6: parameter counts, asserted against serialized checkpoints -----------

def count_scalars(node):
    if isinstance(node, list):
        return sum(count_scalars(item) for item in node)
    return 1


def test_criterion_6_parameter_counts(tmp_path):
    grids = {
        "exp1": {network.MANIFOLD: ((1, 2, 4, 8), 10),
                 network.CLASSICAL: ((1, 2, 4), 21)},
        "exp2": {network.MANIFOLD: ((5, 10, 20), 33),
                 network.CLASSICAL: ((1, 2, 4, 8), 171)},
    }
    rng = np.random.default_rng(0)
    for experiment, by_model in grids.items():
        kind = data.ode_by_id(experiment).kind
        for model, (layer_list, per_layer) in by_model.items():
            for m in layer_list:
                cfg = network.NetworkConfig(model, kind, m)
                assert network.param_count(cfg) == per_layer * m
                path = tmp_path / f"{experiment}-{model}-{m}.json"
                network.save_checkpoint(path, cfg,
                                        network.init_params(cfg, rng))
                doc = json.loads(path.read_text())
                stored = sum(count_scalars(list(layer.values()))
                             for layer in doc["params"])
                assert stored == per_layer * m


# --- 7 and 8 share one full benchmark run -----------------------------------

@pytest.fixture(scope="module")
def benchmark_runs():
    runs = {}
    for experiment in ("exp1", "exp2"):
        started = time.perf_counter()
        results = sweep.run_sweep(sweep.default_spec(experiment))
        runs[experiment] = (results, time.perf_counter() - started)
    return runs


def size_economy(results, experiment):
    manifold = sweep.median_by_size(results, network.MANIFOLD)
    classical = sweep.median_by_size(results, network.CLASSICAL)
    smallest = min(manifold) if manifold else None
    largest = max(classical) if classical else None
    return manifold, classical, smallest, largest


def check_ordering(runs, experiment):
    results, elapsed = runs[experiment]
    manifold, classical, smallest, largest = size_economy(results, experiment)
    print(f"\n  {experiment} in {elapsed:.0f} s; "
          f"manifold medians {manifold}; classical medians {classical}")
    assert elapsed < 1800.0
    assert manifold and classical, "all cells of one family diverged"
    assert manifold[smallest] < classical[largest], (
        f"{experiment}: geometric net at {smallest} params reached median test "
        f"loss {manifold[smallest]:.6g}, not below the classical net at "
        f"{largest} params ({classical[largest]:.6g})")


def test_criterion_7_exp1_size_economy(benchmark_runs):
    check_ordering(benchmark_runs, "exp1")


def test_criterion_7_exp2_size_economy(benchmark_runs):
    check_ordering(benchmark_runs, "exp2")


def test_criterion_8_classical_drift(benchmark_runs):
    for experiment, (results, _) in benchmark_runs.items():
        classical_ok = [r for r in results
                        if r.model == network.CLASSICAL and r.status == "ok"]
        assert classical_ok, f"{experiment}: no classical cell finished"
        drift = min(r.final_mean_defect for r in classical_ok)
        manifold_cells = [r for r in results if r.model == network.MANIFOLD]
        on_manifold = max(float(np.max(r.metrics.max_defect))
                          for r in manifold_cells if len(r.metrics))
        print(f"\n  {experiment}: classical drift >= {drift:.3e}; "
              f"manifold worst defect over training {on_manifold:.3e}")
        assert drift > 1e-3
        assert on_manifold <= 1e-9


# --- 9: identical seeds reproduce result files bitwise ----------------------

def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"steps": 64}))
    for name in ("a", "b"):
        assert cli_main(["gen-data", "--experiment", "exp2", "--train-size", "5",
                         "--test-size", "4", "--seed", "11", "--config",
                         str(cfg), "--out", str(tmp_path / f"data-{name}")]) == 0
    assert (tmp_path / "data-a" / "train.json").read_bytes() == \
        (tmp_path / "data-b" / "train.json").read_bytes()

    tcfg = tmp_path / "train.json"
    tcfg.write_text(json.dumps({"epochs": 6}))
    for name in ("a", "b"):
        assert cli_main(["train", "--model", "manifold", "--experiment", "exp2",
                         "--layers", "5", "--data", str(tmp_path / "data-a"),
                         "--config", str(tcfg), "--seed", "2",
                         "--out", str(tmp_path / f"run-{name}")]) == 0
    assert (tmp_path / "run-a" / "metrics.csv").read_bytes() == \
        (tmp_path / "run-b" / "metrics.csv").read_bytes()

    scfg = tmp_path / "spec.json"
    scfg.write_text(json.dumps({
        "experiment": "exp1", "manifold_layers": [1], "classical_layers": [1],
        "seeds": [0], "train": {"epochs": 3}, "p_train": 4, "p_test": 4,
        "data_seed": 7}))
    for name in ("a", "b"):
        assert cli_main(["sweep", "--config", str(scfg),
                         "--out", str(tmp_path / f"sweep-{name}")]) == 0
    assert (tmp_path / "sweep-a" / "sweep.csv").read_bytes() == \
        (tmp_path / "sweep-b" / "sweep.csv").read_bytes()
