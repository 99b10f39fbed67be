"""Tiny-size checks that tracing observes the package without changing it.

Run with:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracer as tracing
import workloads
from conftest import BENCH, ROOT
from georesnet import cli, network, sweep


def _tiny_commands(out):
    """gen-data, train for both models, and a one-seed sweep, all tiny."""
    workloads._write_json(os.path.join(out, "in", "gen.json"),
                          {"p_train": 6, "p_test": 4, "steps": 8, "csv": True})
    workloads._write_json(os.path.join(out, "in", "train.json"), {"epochs": 3})
    workloads._write_json(os.path.join(out, "in", "spec.json"), {
        "experiment": "exp1", "manifold_layers": [2], "classical_layers": [1],
        "seeds": [0], "train": {"epochs": 3}, "p_train": 1, "p_test": 1})
    codes = [cli.main(["gen-data", "--experiment", "exp2", "--config",
                       os.path.join(out, "in", "gen.json"), "--out", os.path.join(out, "data")])]
    for model in ("manifold", "classical"):
        codes.append(cli.main(["train", "--model", model, "--experiment", "exp2",
                               "--layers", "2", "--data", os.path.join(out, "data"),
                               "--config", os.path.join(out, "in", "train.json"),
                               "--out", os.path.join(out, model)]))
    codes.append(cli.main(["sweep", "--config", os.path.join(out, "in", "spec.json"),
                           "--out", os.path.join(out, "sweep")]))
    return codes


def _workdir(name):
    """A fresh directory under the checkout's benchmark output directory."""
    path = os.path.join(ROOT, ".perfbench_out", "tests", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@pytest.fixture(scope="module")
def traced_pair():
    base = _workdir("pair")
    plain_codes = _tiny_commands(os.path.join(base, "plain"))
    tracer = tracing.Tracer()
    tracer.rep = 0
    with tracer:
        traced_codes = _tiny_commands(os.path.join(base, "traced"))
    return base, plain_codes, traced_codes, tracer


def test_tracing_restores_every_name_and_keeps_artifacts_identical(traced_pair):
    base, plain_codes, traced_codes, _ = traced_pair
    assert tracing.restored()
    assert network.sigmoid.__module__ == "georesnet.network"
    assert not hasattr(sweep.run_cell, "__wrapped__")
    assert plain_codes == traced_codes == [0, 0, 0, 0]
    plain = checks.digests(os.path.join(base, "plain"))
    traced = checks.digests(os.path.join(base, "traced"))
    assert plain == traced
    assert "sweep/sweep.csv" in plain and "data/train.csv" in plain
    assert not any(name.endswith("meta.json") for name in plain)


def test_every_layer_is_seen_and_self_times_add_up(traced_pair):
    _, _, _, tracer = traced_pair
    agg = tracer.aggregate(0)
    metrics = tracing.per_layer_metrics(agg)
    for name in tracing.FUNCTIONS:
        assert metrics[f"{name}.calls"] > 0, name
    # expm_skew3 is reached through both network and data
    parents = {tracer.names[tracer.spans[s[3]][0]] for s in tracer.spans
               if tracer.names[s[0]] == "linalg.expm_skew3" and s[3] >= 0}
    assert {"data.ground_truth_flow", "network.manifold_layer_forward",
            "grad.manifold_layer_vjp"} <= parents
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum == pytest.approx(agg["root_s"], rel=1e-9)
    assert metrics["cli.main.calls"] == 4
    assert metrics["train.epochs"] == 3 * 4  # two train runs, two sweep cells
    assert metrics["sweep.write.bytes"] > 0 and metrics["cli.write.bytes"] > 0
    assert metrics["data.flow_steps"] == 8 * (6 + 4) + 2 ** 14 * 2
    for span in tracer.spans:
        assert span[1] <= span[2]
        if span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] and span[2] <= parent[2]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    a, b = tracer._name_id("cli.main"), tracer._name_id("network.sigmoid")
    tracer.spans[:] = [[a, 0.0, 10.0, -1, 0, 0], [b, 1.0, 4.0, 0, 0, 0],
                       [b, 5.0, 6.0, 0, 0, 0], [b, 0.0, 1.0, -1, 1, 0]]
    agg = tracer.aggregate(0)
    assert agg["self_s"] == {"cli.main": 6.0, "network.sigmoid": 4.0}
    assert agg["calls"] == {"cli.main": 1, "network.sigmoid": 2}
    assert agg["root_s"] == 10.0


def test_dataset_check_catches_a_wrong_target():
    out = os.path.join(_workdir("dataset"), "d")
    assert cli.main(["gen-data", "--experiment", "exp1", "--train-size", "3",
                     "--test-size", "2", "--csv", "--out", out]) == 0
    assert checks.check_dataset_dir(out, "exp1", 3, 2, csv_expected=True, accurate=True) == []
    path = os.path.join(out, "test.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["targets"][0] = list(np.roll(doc["targets"][0], 1))  # still on the sphere
    with open(path, "w") as fh:
        json.dump(doc, fh)
    problems = checks.check_dataset_dir(out, "exp1", 3, 2, csv_expected=True, accurate=True)
    assert any("RK4" in p for p in problems)
    assert any("test.csv does not match" in p for p in problems)


def test_refuses_to_run_without_the_package_sources():
    bare = _workdir("bare")
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-data", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_check_catches_a_recorded_defect_and_a_non_finite_loss(traced_pair):
    base = traced_pair[0]
    run = os.path.join(_workdir("run"), "manifold")
    shutil.copytree(os.path.join(base, "plain", "manifold"), run)
    assert checks.check_run_dir(run, "exp2", "manifold", "ok") == []
    rows = checks.read_csv(os.path.join(run, "metrics.csv"))
    rows[-1]["max_defect"] = "0.001"
    rows[0]["test_loss"] = "nan"
    with open(os.path.join(run, "metrics.csv"), "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(",".join(r.values()) + "\n" for r in rows)
    problems = " ".join(checks.check_run_dir(run, "exp2", "manifold", "ok"))
    assert "non-finite" in problems and "1.000e-03 recorded" in problems
    assert checks.check_run_dir(run, "exp2", "manifold", "diverged") == []
