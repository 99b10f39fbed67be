"""georesnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-rotation --seed 3 --seconds 12 --trace 0

Runs from the root of a source checkout and imports ``src/georesnet`` from
it (nothing needs installing).  BLAS and OpenMP are pinned to one thread
before numpy loads.  A run sets up SETUP_REPS times (a fresh-interpreter
import, inputs written from the seed, a tiny warm-up of every command used),
then repeats the workload through ``georesnet.cli.main`` for about
``--seconds`` (at least MIN_REPS reps), then checks every rep's output files:
manifold defects, finite losses, RK4 accuracy of generated targets, byte
identity between reps and, for seed PINNED_SEED, against digests.json.

``--trace 0`` reports BENCHMARK.json's end-to-end metrics: ``run_s`` is the
median wall time of one rep, ``setup_s`` the median set-up time, and
``peak_rss_mb`` the process's peak resident memory.  ``--trace 1``
alternates untraced and traced reps and reports the per-layer metrics of the
traced ones (median over traced reps) and the tracing overhead, and writes
every span to ``spans.json``.

The last line of stdout is the JSON result; the lines above it are for
people.  Working files go to ``.perfbench_out/`` under the checkout.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3
MIN_REPS = 3
PINNED_SEED = 0
# Layer self times of a traced rep must add up to its wall time within this
# share; the gap is benchmark code between cli.main calls.
SELF_TIME_TOL = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's artifact digests as the seed-{PINNED_SEED} "
                             "reference in digests.json")
    return parser.parse_args(argv)


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import georesnet.cli; print(time.perf_counter() - t)")


def import_package():
    """Import georesnet (every module the workloads use) from the checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "georesnet", "__init__.py")):
        raise SystemExit(f"no georesnet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import georesnet.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(georesnet.cli.__file__)) != os.path.join(SRC, "georesnet"):
        raise SystemExit(f"imported georesnet from {georesnet.cli.__file__}, not {SRC}")


def import_seconds():
    """Import time of the package in a fresh interpreter, as a user pays it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.strip())


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return f"unknown ({ref})"


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git": _git_revision(), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _build(env):
    """The part of the environment that bitwise results depend on."""
    return {k: env[k] for k in ("python", "numpy", "scipy", "cpu", "machine")}


def _declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def run_reps(workload, seed, directory, work, seconds, tracer):
    """Timed reps for about `seconds`: at least MIN_REPS, then another rep only
    while it is expected to end within the budget.  With a tracer every
    second rep is traced."""
    reps = []
    start = time.perf_counter()
    while True:
        index = len(reps)
        elapsed = time.perf_counter() - start
        if index >= MIN_REPS and elapsed * (index + 1) / index > seconds:
            return reps
        out = os.path.join(work, f"rep{index}")
        gc.collect()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.rep = index
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            codes = workload.run(seed, directory, out)
            wall = time.perf_counter() - t0
        reps.append({"index": index, "traced": traced, "seconds": wall,
                     "out": out, "codes": codes})


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_package()

    import checks
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    work = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    report = checks.Report()

    import_times, setup_times, setup_digests = [], [], []
    for k in range(SETUP_REPS):
        directory = os.path.join(work, f"setup{k}")
        import_times.append(import_seconds())
        t0 = time.perf_counter()
        workload.setup(args.seed, directory)
        setup_times.append(time.perf_counter() - t0)
        setup_digests.append(checks.digests(os.path.join(directory, "inputs")))
    if any(d != setup_digests[0] for d in setup_digests):
        report.fail("set-up inputs differ between set-ups of one seed")

    tracer = tracing.Tracer() if args.trace else None
    reps = run_reps(workload, args.seed, directory, work, args.seconds, tracer)
    if tracer is not None and not tracing.restored():
        report.fail("a traced name was not restored after tracing")

    outcomes = []
    for rep in reps:
        try:
            outcomes.append(workload.check(directory, rep["out"], rep["codes"], report,
                                           first=rep["index"] == 0))
        except Exception as err:  # unreadable output is a failed operation
            report.op(False, f"rep {rep['index']}: checking its output raised {err!r}")
            outcomes.append(workloads.Outcome())
        rep["digests"] = {**{f"inputs/{k}": v for k, v in setup_digests[-1].items()},
                          **{f"out/{k}": v for k, v in checks.digests(rep["out"]).items()}}
    reference = reps[0]["digests"]
    for rep in reps[1:]:
        if rep["digests"] != reference:
            differ = sorted(k for k in set(rep["digests"]) | set(reference)
                            if rep["digests"].get(k) != reference.get(k))
            report.fail(f"rep {rep['index']} differs from rep 0 in {differ[:5]}")

    pinned_note = "not the pinned seed"
    if args.seed == PINNED_SEED:
        pinned_note = _check_pinned(workload.name, env, reference, report, args.record_digests)

    diverged = [o.diverged for o in outcomes]
    mses = [statistics.median(o.test_mse) for o in outcomes if o.test_mse]
    if len(set(diverged)) > 1 or len(set(mses)) > 1:
        report.fail(f"outcomes differ between reps: diverged {diverged}, test MSE {mses}")

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    values = {
        "run_s": statistics.median(r["seconds"] for r in untraced),
        "setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        values.update(_trace_metrics(tracer, tracing, traced, values["run_s"], report))
        tracer.write(os.path.join(work, "spans.json"),
                     {"workload": workload.name, "seed": args.seed, "environment": env})

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "reps": [{k: r[k] for k in ("index", "traced", "seconds", "codes")} for r in reps],
        "setup_times_s": setup_times, "import_times_s": import_times,
        "attempted": report.attempted, "failed": report.failed,
        "failed_share": report.failed / max(report.attempted, 1),
        "diverged_cells": diverged[0], "test_mse_median": mses[0] if mses else None,
        "problems": report.problems, "pinned_digests": pinned_note, "metrics": values,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    for entry in os.listdir(work):
        if os.path.isdir(os.path.join(work, entry)):
            shutil.rmtree(os.path.join(work, entry))

    _print_human(result, len(untraced))
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": report.failed == 0, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in _declared_metrics(section)},
    }))
    return 0


def _check_pinned(name, env, digests, report, record):
    doc = {"workloads": {}}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as fh:
            doc = json.load(fh)
    if record:
        if report.failed:
            raise SystemExit("refusing to record digests of a run that failed its checks")
        doc["environment"] = _build(env)
        doc["seed"] = PINNED_SEED
        doc["workloads"][name] = digests
        with open(DIGESTS, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return "recorded"
    if name not in doc["workloads"]:
        return "no recorded digests for this workload"
    if _build(env) != doc["environment"]:
        return "recorded on another python/numpy/scipy/CPU; not compared"
    want = doc["workloads"][name]
    differ = sorted(k for k in set(want) | set(digests) if want.get(k) != digests.get(k))
    if differ:
        report.fail(f"artifacts differ from the pinned seed-{PINNED_SEED} digests: {differ[:5]}")
        return f"MISMATCH in {len(differ)} files"
    return f"match ({len(want)} files)"


def _trace_metrics(tracer, tracing, traced, untraced_run_s, report):
    per_rep = []
    for rep in traced:
        agg = tracer.aggregate(rep["index"])
        metrics = tracing.per_layer_metrics(agg)
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        gap = abs(layer_sum - rep["seconds"]) / rep["seconds"]
        if gap > SELF_TIME_TOL:
            report.fail(f"layer self times sum to {layer_sum:.4f} s, traced rep took "
                        f"{rep['seconds']:.4f} s (gap {gap:.1%} > {SELF_TIME_TOL:.0%})")
        metrics["trace.self_time_gap"] = gap
        metrics["trace.spans"] = agg["spans"]
        per_rep.append(metrics)
    out = {}
    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        # counts repeat exactly across reps; keep them whole numbers
        counts = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if counts else statistics.median)(values)
    out["trace.run_s"] = statistics.median(r["seconds"] for r in traced)
    out["trace.untraced_run_s"] = untraced_run_s
    out["trace.overhead_share"] = out["trace.run_s"] / untraced_run_s - 1.0
    return out


def _print_human(result, n_untraced):
    env, m = result["environment"], result["metrics"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}")
    print("env: " + " ".join(f"{k}={env[k]}" for k in
                             ("python", "numpy", "scipy", "git", "nproc", "machine")))
    print(f"env: cpu={env['cpu']!r} threads={env['threads']}")
    print(f"run_s            {m['run_s']:.4f} s    median of {n_untraced} untraced reps "
          f"(max {max(r['seconds'] for r in result['reps'] if not r['traced']):.4f} s; "
          "no higher percentile: that needs 10 reps beyond it)")
    print(f"setup_s          {m['setup_s']:.4f} s    median of {len(result['setup_times_s'])} "
          "set-ups (fresh-interpreter import + inputs + warm-up)")
    print(f"peak_rss_mb      {m['peak_rss_mb']:.1f} MB")
    print(f"failed_share     {result['failed_share']:.4f}      "
          f"{result['failed']} of {result['attempted']} operations")
    print(f"diverged_cells   {result['diverged_cells']} count")
    mse = result["test_mse_median"]
    print(f"test_mse_median  {'n/a (no training)' if mse is None else repr(mse)} mse")
    print(f"pinned digests: {result['pinned_digests']}")
    if result["trace"]:
        print(f"trace: traced rep {m['trace.run_s']:.4f} s vs untraced {m['run_s']:.4f} s "
              f"(overhead {m['trace.overhead_share']:+.1%}); "
              f"self-time gap {m['trace.self_time_gap']:.2%}; {m['trace.spans']} spans")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
