"""The benchmark's workloads, each driven through ``georesnet.cli.main``.

A workload writes its inputs (sweep spec, config files, datasets) from the
benchmark seed, warms up, and then runs one *operation set* per timed rep.
The program sees only those generated files.  Grids and the training recipe
are the paper's; the epoch budgets and the single training seed per run are
run length, chosen so that one rep takes a few seconds on two cores.
"""

import contextlib
import dataclasses
import json
import os
import traceback

import checks
from georesnet import cli

DEFAULT_DATA_SEED = 2024  # sweep.DEFAULT_DATA_SEED; benchmark seed 0 maps onto it

SWEEP_GRID = {"manifold_layers": [5, 10, 20], "classical_layers": [1, 2, 4, 8]}  # exp2
# Long enough that the lr0 = 10 recipe makes classical cells diverge
# (first divergences at epoch ~130-180), short enough for a ten-second rep.
SWEEP_EPOCHS = 200

GEN_STEPS = 2 ** 14
GEN_PAIRS = 100

WIDE_PAIRS = 10_000
WIDE_TEST_PAIRS = 100
WIDE_STEPS = 64        # timing does not depend on target accuracy
WIDE_EPOCHS = 30
WIDE_RUNS = (("manifold", 5), ("classical", 8))


def _write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _cli(directory, argv):
    """Exit code of one command, or the name of the exception it raised.

    The command's stdout and stderr go to directory/commands.log, so that the
    benchmark's own stdout ends with its result line.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "commands.log"), "a") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return cli.main(argv)
        except Exception as err:  # a crash is a failed operation, not a dead benchmark
            traceback.print_exc()
            return f"raised {type(err).__name__}"


def _warm_up(experiment, directory):
    """Run gen-data and train for both models once at a tiny size."""
    gen = _write_json(os.path.join(directory, "gen.json"),
                      {"p_train": 4, "p_test": 4, "steps": 4, "csv": True})
    fit = _write_json(os.path.join(directory, "train.json"), {"epochs": 2})
    data_dir = os.path.join(directory, "data")
    if _cli(directory, ["gen-data", "--experiment", experiment, "--config", gen,
                        "--out", data_dir]) != 0:
        raise RuntimeError("warm-up gen-data failed")
    for model in ("manifold", "classical"):
        if _cli(directory, ["train", "--model", model, "--experiment", experiment,
                            "--layers", "2", "--data", data_dir, "--config", fit,
                            "--out", os.path.join(directory, model)]) != 0:
            raise RuntimeError(f"warm-up train {model} failed")


@dataclasses.dataclass
class Outcome:
    """What one rep produced beyond files: diverged count and test MSEs."""

    diverged: int = 0
    test_mse: list = dataclasses.field(default_factory=list)


class SweepRotation:
    """``georesnet sweep`` on exp2's default grid."""

    name = "sweep-rotation"
    experiment = "exp2"

    def setup(self, seed, directory):
        spec = dict(SWEEP_GRID, experiment=self.experiment,
                    seeds=[seed], train={"epochs": SWEEP_EPOCHS},
                    p_train=GEN_PAIRS, p_test=GEN_PAIRS,
                    data_seed=DEFAULT_DATA_SEED + seed)
        _write_json(os.path.join(directory, "inputs", "spec.json"), spec)
        _warm_up(self.experiment, os.path.join(directory, "warm"))

    def run(self, seed, directory, out):
        return [_cli(directory, ["sweep", "--config",
                                 os.path.join(directory, "inputs", "spec.json"),
                                 "--workers", "1", "--out", out])]

    def check(self, directory, out, codes, report, first):
        cells = len(SWEEP_GRID["manifold_layers"]) + len(SWEEP_GRID["classical_layers"])
        result = Outcome()
        if codes != [0]:
            for _ in range(cells):
                report.op(False, f"sweep exited {codes[0]}")
            return result
        rows = checks.read_csv(os.path.join(out, "sweep.csv"))
        if len(rows) != cells:
            report.fail(f"sweep.csv has {len(rows)} rows, expected {cells}")
        for row in rows:
            status = row["status"]
            cell = os.path.join(out, "cells", f"{row['model']}-m{row['layers']}-s{row['seed']}")
            problems = [] if status in ("ok", "diverged") else [f"{cell}: status {status}"]
            problems += checks.check_run_dir(cell, self.experiment, row["model"], status)
            if status == "ok" and row["model"] == "manifold":
                result.test_mse.append(float(row["final_test_loss"]))
                if not float(row["final_mean_defect"]) <= checks.GEOMETRIC_DEFECT_TOL:
                    problems.append(f"{cell}: final_mean_defect {row['final_mean_defect']}")
            result.diverged += status == "diverged"
            report.op(not problems, "; ".join(problems))
        return result


class GenData:
    """``georesnet gen-data --csv`` for exp1 and exp2 at the default size."""

    name = "gen-data"
    experiments = ("exp1", "exp2")

    def setup(self, seed, directory):
        _write_json(os.path.join(directory, "inputs", "gen.json"),
                    {"p_train": GEN_PAIRS, "p_test": GEN_PAIRS, "steps": GEN_STEPS,
                     "csv": True})
        _warm_up("exp2", os.path.join(directory, "warm"))

    def run(self, seed, directory, out):
        config = os.path.join(directory, "inputs", "gen.json")
        return [_cli(directory, ["gen-data", "--experiment", exp,
                                 "--seed", str(DEFAULT_DATA_SEED + seed), "--config", config,
                                 "--out", os.path.join(out, exp)])
                for exp in self.experiments]

    def check(self, directory, out, codes, report, first):
        for exp, code in zip(self.experiments, codes):
            if code != 0:
                report.op(False, f"gen-data {exp} exited {code}")
                continue
            problems = checks.check_dataset_dir(os.path.join(out, exp), exp, GEN_PAIRS,
                                                GEN_PAIRS, csv_expected=True, accurate=first)
            report.op(not problems, "; ".join(problems))
        return Outcome()


class WideBatch:
    """``georesnet train --data`` on 10^4 SO(3) pairs, one cell per model."""

    name = "wide-batch"
    experiment = "exp2"

    def setup(self, seed, directory):
        inputs = os.path.join(directory, "inputs")
        gen = _write_json(os.path.join(inputs, "gen.json"),
                          {"p_train": WIDE_PAIRS, "p_test": WIDE_TEST_PAIRS,
                           "steps": WIDE_STEPS})
        _write_json(os.path.join(inputs, "train.json"), {"epochs": WIDE_EPOCHS})
        if _cli(directory, ["gen-data", "--experiment", self.experiment,
                            "--seed", str(DEFAULT_DATA_SEED + seed), "--config", gen,
                            "--out", os.path.join(inputs, "data")]) != 0:
            raise RuntimeError("wide-batch dataset generation failed")
        _warm_up(self.experiment, os.path.join(directory, "warm"))

    def run(self, seed, directory, out):
        inputs = os.path.join(directory, "inputs")
        return [_cli(directory, ["train", "--model", model, "--experiment", self.experiment,
                                 "--layers", str(layers), "--data", os.path.join(inputs, "data"),
                                 "--seed", str(seed),
                                 "--config", os.path.join(inputs, "train.json"),
                                 "--out", os.path.join(out, model)])
                for model, layers in WIDE_RUNS]

    def check(self, directory, out, codes, report, first):
        result = Outcome()
        if first:
            problems = checks.check_dataset_dir(
                os.path.join(directory, "inputs", "data"), self.experiment,
                WIDE_PAIRS, WIDE_TEST_PAIRS, csv_expected=False, accurate=False)
            report.op(not problems, "; ".join(problems))
        for (model, _), code in zip(WIDE_RUNS, codes):
            if code not in (0, 3):
                report.op(False, f"train {model} exited {code}")
                continue
            status = "ok" if code == 0 else "diverged"
            run_dir = os.path.join(out, model)
            problems = checks.check_run_dir(run_dir, self.experiment, model, status)
            if status == "ok" and model == "manifold":
                rows = checks.read_csv(os.path.join(run_dir, "metrics.csv"))
                result.test_mse.append(float(rows[-1]["test_loss"]))
            result.diverged += status == "diverged"
            report.op(not problems, "; ".join(problems))
        return result


WORKLOADS = {w.name: w for w in (
    SweepRotation(),
    GenData(),
    WideBatch(),
)}
