"""Acceptance battery: the package's contract-level guarantees.

One test per criterion; ``pytest -v tests/test_acceptance.py`` prints a
pass/fail line for each, and ``-s`` adds the measured values behind every
verdict.  Criteria 1-5 run the ``georesnet check`` suites, which are their
only implementation: criteria 2 and 5 share one run of ``check
integrator``.  The two size-economy orderings (criterion 7) run the full
benchmark sweep for both experiments and are the only slow tests here.
"""

import json
import time

import numpy as np
import pytest

from georesnet import data, network, sweep
from georesnet.cli import main as cli_main

RNG_SEED = 20240817


def passed_check(suite, tmp_path):
    """Names of the checks `georesnet check <suite>` ran at this seed, all passed.

    The suite is the one implementation of its criteria; -s shows its lines.
    """
    assert cli_main(["check", suite, "--seed", str(RNG_SEED),
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"check-{suite}.json").read_text())
    assert report["seed"] == RNG_SEED
    assert all(check["passed"] for check in report["checks"])
    return [check["name"] for check in report["checks"]]


# --- 1: the geometric net never leaves the manifold -------------------------

def test_criterion_1_manifold_invariance(tmp_path):
    # random nets with M = 1 .. 64 on both spaces, 72 points each: defects
    # at most 1e-10 on the sphere and 1e-9 on SO(3)
    started = time.perf_counter()
    assert len(passed_check("invariants", tmp_path)) == 2
    assert time.perf_counter() - started < 10.0


# --- 2 and 5 share one run of `check integrator` -----------------------------

@pytest.fixture(scope="module")
def integrator_checks(tmp_path_factory):
    return passed_check("integrator", tmp_path_factory.mktemp("integrator"))


# --- 2: closed-form exponential against an independent oracle ---------------

def test_criterion_2_exponential_map(integrator_checks):
    # 1000 random axial vectors against the dense oracle, and the jump
    # across the series branch at SMALL_ANGLE, both at most 1e-12
    names = integrator_checks
    assert "Rodrigues vs dense exponential (1000 samples)" in names
    assert "jump across the series branch" in names


# --- 3: commutator algebra and the spanning property ------------------------

def test_criterion_3_bracket_structure(tmp_path):
    # the exact [rot_z, rot_y] identity, then spanning on 1000 sphere points
    # (depth 1) and on 100 rotations (depth 0)
    assert len(passed_check("bracket", tmp_path)) == 3


# --- 4: analytic gradients against finite differences -----------------------

def test_criterion_4_gradient_exactness(tmp_path):
    # 50 random (space, model, M) configurations: worst relative error at
    # most 1e-4 and median at most 1e-6
    started = time.perf_counter()
    assert len(passed_check("gradcheck", tmp_path)) == 2
    assert time.perf_counter() - started < 60.0


# --- 5: reference integrator converges at first order on clean data ---------

def test_criterion_5_integrator_convergence(integrator_checks):
    # from fixed starts, the errors at 2^10 and 2^11 steps against 2^14
    # have a ratio in [1.7, 2.3], and the datasets at the default data seed
    # sit within 1e-10 of the manifold
    names = integrator_checks
    for experiment in ("exp1", "exp2"):
        assert f"{experiment} step-halving ratio minus 2 (2^10, 2^11 vs 2^14 steps)" in names
        assert f"{experiment} dataset defect (data seed {sweep.DEFAULT_DATA_SEED})" in names


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
        # two processes, as `sweep --workers 2` runs it; the cells and their
        # results are bitwise those of a serial sweep
        results = sweep.run_sweep(sweep.default_spec(experiment), workers=2)
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
