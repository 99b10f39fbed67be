"""A scaled-down run of the loss-versus-parameter-count benchmark.

The real benchmark trains both model families over their full layer
grids and three seeds (`georesnet sweep --experiment exp1 --out ...`);
this demo shrinks the grids, budget, and dataset so the whole thing
finishes in seconds, then prints the aggregate table and writes the
same artifacts (sweep.csv, sweep.svg, per-cell metrics) to demos/out.
"""

import os

from georesnet import network, sweep

spec = sweep.SweepSpec(
    experiment="exp1",
    manifold_layers=(1, 2, 4),
    classical_layers=(1, 4),
    seeds=(0, 1),
    train={"epochs": 400},
    p_train=40, p_test=40,
)
out_dir = os.path.join(os.path.dirname(__file__), "out", "sweep_demo")

print("training", len(sweep.cell_order(spec)), "cells (reduced budget)...")
results = sweep.run_sweep(spec, out_dir=out_dir)

print(f"\n{'model':10s} {'params':>7s} {'median test loss':>17s} "
      f"{'median defect':>14s}")
for model in (network.CLASSICAL, network.MANIFOLD):
    losses = sweep.median_by_size(results, model)
    defects = sweep.median_by_size(results, model, "final_mean_defect")
    for count, med in losses.items():
        print(f"{model:10s} {count:7d} {med:17.6f} {defects[count]:14.2e}")

diverged = [r for r in results if r.status != "ok"]
if diverged:
    print(f"\n{len(diverged)} cell(s) diverged under the hot default step "
          "size; they are recorded with status 'diverged' and excluded "
          "from the medians.")
print(f"\nartifacts in {out_dir}: sweep.csv, sweep.svg, cells/*/metrics.csv")
print("the full benchmark is the same call with the default grids, 2000")
print("epochs, and three seeds; see the README for the CLI form.")
