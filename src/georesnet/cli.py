"""Command-line surface: gen-data, train, sweep, check.

gen-data, train and sweep take --seed, --config and --out; --config names
a JSON file whose keys override the defaults documented per subcommand
(for sweep, a whole sweep spec).  train reads its two datasets from --data,
a gen-data directory.  The effective configuration is echoed into each
output directory's meta.json so results are self-describing.
check takes --seed and an optional --out; its suites are acceptance
criteria 1-5.  Exit codes: 0 success, 1 failed checks, 2 usage errors, 3
training divergence (partial metrics are still written).
"""

import argparse
import dataclasses
import os
import sys
import time
from functools import partial

import numpy as np

from . import data, grad, lie, linalg, manifolds, network, sweep, train
from .errors import (GeoResNetError, InvalidConfig, check_fields, from_dict, read_json_object,
                     write_json)


@dataclasses.dataclass(frozen=True)
class GenDataConfig:
    p_train: int = data.DEFAULT_PAIRS
    p_test: int = data.DEFAULT_PAIRS
    steps: int = data.DEFAULT_STEPS
    csv: bool = False

    def __post_init__(self):
        check_fields(self, "gen-data config")
        if min(self.p_train, self.p_test) < 1:
            raise InvalidConfig("dataset sizes must be at least 1")
        if self.steps < 1:
            raise InvalidConfig("steps must be at least 1")


def _read_config(path, cls, what):
    """cls from the --config file at path, or cls() when none is given."""
    return cls() if path is None else read_json_object(path, partial(from_dict, cls, what=what))


def cmd_gen_data(args):
    """Generate benchmark datasets.  Config keys: any GenDataConfig field; a given
    --train-size, --test-size or --csv wins over its key."""
    flags = {"p_train": args.train_size, "p_test": args.test_size, "csv": args.csv}
    cfg = dataclasses.replace(_read_config(args.config, GenDataConfig, "gen-data config"),
                              **{key: flag for key, flag in flags.items() if flag is not None})
    train_ds, test_ds = data.generate_dataset(
        args.experiment, cfg.p_train, cfg.p_test, args.seed, steps=cfg.steps)
    os.makedirs(args.out, exist_ok=True)
    for role, ds in (("train", train_ds), ("test", test_ds)):
        data.save_dataset(ds, os.path.join(args.out, f"{role}.json"))
        if cfg.csv:
            data.save_dataset_csv(ds, os.path.join(args.out, f"{role}.csv"))
        print(f"{role}: {len(ds)} pairs on {ds.kind}, max defect {ds.max_defect():.3e}")
    write_json(os.path.join(args.out, "meta.json"), {
        "command": "gen-data", "experiment": data.ode_by_id(args.experiment).id,
        "seed": args.seed, "p_train": cfg.p_train, "p_test": cfg.p_test, "steps": cfg.steps,
    }, sort_keys=True)
    return 0


def cmd_train(args):
    """Train one model on the gen-data directory --data.  Config keys: any TrainConfig field."""
    ode = data.ode_by_id(args.experiment)
    net_cfg = network.NetworkConfig(args.model, ode.kind, args.layers)
    cfg = _read_config(args.config, train.TrainConfig, "config")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    train_ds, test_ds = (data.load_dataset(os.path.join(args.data, f"{role}.json"))
                         for role in ("train", "test"))
    metrics, status, mean_defect, test_mse = train.run(train_ds, test_ds, net_cfg, cfg, args.out)
    if status == "diverged":
        print(f"diverged: non-finite loss at epoch {len(metrics)}", file=sys.stderr)
    write_json(os.path.join(args.out, "meta.json"), {
        "command": "train", "experiment": ode.id, "model": args.model,
        "layers": args.layers, "param_count": network.param_count(net_cfg),
        "train_config": dataclasses.asdict(cfg), "data": {"source": args.data},
        "checkpoint": "checkpoint.json", "status": status,
        "epochs_recorded": len(metrics), "wall_time_s": round(metrics.wall_time, 3),
        "final_mean_test_defect": mean_defect,
    }, sort_keys=True)
    if len(metrics):
        print(f"{args.model} {ode.id} M={args.layers}: "
              f"train {metrics.train_loss[-1]:.6g} test {metrics.test_loss[-1]:.6g} "
              f"(checkpoint {test_mse:.6g}) defect {metrics.max_defect[-1]:.3e} [{status}]")
    else:
        print(f"{args.model} {ode.id} M={args.layers}: no epochs recorded [{status}]")
    return 3 if status == "diverged" else 0


def cmd_sweep(args):
    """Run the benchmark sweep.  --config names a sweep spec JSON."""
    spec = sweep.load_spec(args.config) if args.config else sweep.default_spec(args.experiment)
    if args.seed is not None:
        spec = dataclasses.replace(spec, data_seed=args.seed)
    started = time.perf_counter()
    results = sweep.run_sweep(spec, out_dir=args.out, workers=args.workers)
    sweep.save_spec(spec, os.path.join(args.out, "spec.json"))
    write_json(os.path.join(args.out, "meta.json"), {
        "command": "sweep", "spec": dataclasses.asdict(spec),
        "wall_time_s": round(time.perf_counter() - started, 3),
        "cells": len(results),
        "diverged": sum(1 for r in results if r.status != "ok"),
    }, sort_keys=True)
    for model in (network.CLASSICAL, network.MANIFOLD):
        for count, med in sweep.median_by_size(results, model).items():
            print(f"{model} @ {count} params: median test loss {med:.6g}")
    return 0


# --- check suites ----------------------------------------------------------
# Each suite is the only implementation of its acceptance criteria, which run
# it at their own seed; the order of the draws from rng is part of the result.

def _suite_invariants(rng):
    """Criterion 1: random geometric nets up to 64 layers stay on the manifold."""
    worst = dict.fromkeys(manifolds.KINDS, 0.0)
    for m in (1, 2, 4, 8, 16, 32, 64):
        for kind in manifolds.KINDS:
            cfg = network.NetworkConfig(network.MANIFOLD, kind, m)
            theta = network.init_params(cfg, rng)
            x0 = manifolds.sample_uniform(kind, rng, 72)
            out = network.network_forward(x0, theta, cfg)[0]
            worst[kind] = max(worst[kind], float(np.max(manifolds.defect(kind, out))))
    return [(f"forward defect on {kind} (M up to 64, 7 x 72 points)", worst[kind], bound)
            for kind, bound in ((manifolds.SPHERE2, 1e-10), (manifolds.SO3, 1e-9))]

def _suite_gradcheck(rng):
    """Criterion 4: gradients against central differences on 50 random configs."""
    errors = []
    for _ in range(50):
        kind = manifolds.KINDS[rng.integers(2)]
        # two, not len(MODELS): a family added later must not move this report's draws
        model = network.MODELS[rng.integers(2)]
        cfg = network.NetworkConfig(model, kind, int(rng.choice((1, 2, 4))))
        theta = network.init_params(cfg, rng)
        x = manifolds.sample_uniform(kind, rng, 3)
        y = manifolds.sample_uniform(kind, rng, 3)
        errors.append(grad.finite_diff_check(theta, cfg, x, y, lam=1e-3))
    # the error has a heavy tail, so the bulk and the worst case are bounded apart
    return [("worst gradient error (50 configs)", max(errors), 1e-4),
            ("median gradient error (50 configs)", float(np.median(errors)), 1e-6)]

def _suite_bracket(rng):
    """Criterion 3: the bracket table, and spanning of every tangent space."""
    checks = []
    exact = float(np.max(np.abs(lie.lie_bracket(lie.ROT_Z, lie.ROT_Y) - lie.ROT_X)))
    checks.append(("[rot_z, rot_y] equals rot_x", exact, 0.0))
    gens = lie.standard_generators(manifolds.SPHERE2)
    pts = manifolds.sample_uniform(manifolds.SPHERE2, rng, 1000)
    bad = int(np.sum(~lie.bracket_generating_at(gens, pts, depth=1)))
    checks.append(("bracket generating on 1000 sphere points (depth 1)", bad, 0.0))
    gens3 = lie.standard_generators(manifolds.SO3)
    rots = manifolds.sample_uniform(manifolds.SO3, rng, 100)
    bad3 = int(np.sum(~lie.bracket_generating_at(gens3, rots, depth=0)))
    checks.append(("bracket generating on 100 rotations (depth 0)", bad3, 0.0))
    return checks

def _suite_integrator(rng):
    """Criteria 2 and 5: the Rodrigues exponential and the data integrator."""
    omega = rng.standard_normal((1000, 3))
    omega *= (rng.uniform(0.0, 5.0, 1000) / np.linalg.norm(omega, axis=1))[:, None]
    worst = max(float(np.linalg.norm(rot - linalg.expm_dense(linalg.skew_from_axial(w))))
                for rot, w in zip(linalg.expm_skew3(omega), omega))
    # a relative nudge across the series threshold moves the exponential by
    # about 1e-13, so a mismatch between the two branches would dominate
    axis = np.array([0.36, -0.48, 0.8])
    eps = 1e-9 * linalg.SMALL_ANGLE
    jump = float(np.max(np.abs(linalg.expm_skew3((linalg.SMALL_ANGLE - eps) * axis)
                               - linalg.expm_skew3((linalg.SMALL_ANGLE + eps) * axis))))
    checks = [("Rodrigues vs dense exponential (1000 samples)", worst, 1e-12),
              ("jump across the series branch", jump, 1e-12)]
    starts = (np.array([[0.0, 1.0, 0.0]]),
              manifolds.sample_uniform(manifolds.SO3, np.random.default_rng(7), 1))
    for ode, x0 in zip((data.EXP1, data.EXP2), starts):
        ref = data.ground_truth_flow(x0, ode, steps=2 ** 14)
        err_c = np.linalg.norm(data.ground_truth_flow(x0, ode, steps=2 ** 10) - ref)
        err_f = np.linalg.norm(data.ground_truth_flow(x0, ode, steps=2 ** 11) - ref)
        # first order means the error halves with the step: ratio near 2
        checks.append((f"{ode.id} step-halving ratio minus 2 (2^10, 2^11 vs 2^14 steps)",
                       float(abs(err_c / err_f - 2.0)), 0.3))
        flow = data.ground_truth_flow(manifolds.sample_uniform(ode.kind, rng, 2), ode,
                                      steps=2 ** 12)
        checks.append((f"{ode.id} flow defect", float(np.max(
            manifolds.defect(ode.kind, flow))), 1e-12))
        train_ds, test_ds = data.generate_dataset(ode.id, data.DEFAULT_PAIRS, data.DEFAULT_PAIRS,
                                                  sweep.DEFAULT_DATA_SEED)
        checks.append((f"{ode.id} dataset defect (data seed {sweep.DEFAULT_DATA_SEED})",
                       max(train_ds.max_defect(), test_ds.max_defect()), 1e-10))
    return checks

_SUITES = {
    "invariants": _suite_invariants,
    "gradcheck": _suite_gradcheck,
    "bracket": _suite_bracket,
    "integrator": _suite_integrator,
}


def cmd_check(args):
    """Run a named validation suite with fixed seeds; nonzero exit on failure."""
    if args.seed < 0:
        raise InvalidConfig("seed must be nonnegative")
    rng = np.random.default_rng(args.seed)
    checks = _SUITES[args.suite](rng)
    report = []
    failed = 0
    for name, value, bound in checks:
        ok = value <= bound
        failed += 0 if ok else 1
        report.append({"name": name, "value": value, "bound": bound, "passed": ok})
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.3e} (bound {bound:.3e})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, f"check-{args.suite}.json"), {
            "command": "check", "suite": args.suite, "seed": args.seed,
            "passed": failed == 0, "checks": report,
        }, sort_keys=True)
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="georesnet",
        description="Structure-preserving residual networks on S2 and SO(3).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate benchmark datasets")
    p.add_argument("--experiment", required=True, help="exp1 (sphere) or exp2 (rotations)")
    p.add_argument("--train-size", type=int, default=None,
                   help=f"train pairs (default: config p_train, else {data.DEFAULT_PAIRS})")
    p.add_argument("--test-size", type=int, default=None,
                   help=f"test pairs (default: config p_test, else {data.DEFAULT_PAIRS})")
    p.add_argument("--csv", action="store_true", default=None,
                   help="also write flat CSV exports (default: config csv, else off)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a single model")
    p.add_argument("--model", required=True, choices=list(network.MODELS))
    p.add_argument("--experiment", required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--data", required=True, help="gen-data directory with train.json/test.json")
    p.add_argument("--seed", type=int, default=None, help="training seed override")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run the parameter-count benchmark sweep")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--experiment", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="dataset seed override")
    grid.add_argument("--config", default=None, help="sweep spec JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run a validation suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeoResNetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"memory error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
