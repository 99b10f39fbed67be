"""Parameter-count sweep: train every (model, layers, seed) cell, tabulate
final losses, and render the loss-versus-size comparison chart.

The sweep is the benchmark's headline artifact: for one experiment it
trains both model families over their layer lists and several seeds on a
shared dataset, then reports the median final losses per configuration.
Cells are independent; a diverged cell is recorded with status
"diverged" and skipped by the aggregation instead of aborting the sweep.
"""

import os
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import data, network, train
from .errors import (InvalidConfig, check_fields, from_dict, read_json_object, replacing,
                     write_csv, write_json)

DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_DATA_SEED = 2024

RESULT_COLUMNS = ("model", "layers", "param_count", "seed", "final_train_loss",
                  "final_test_loss", "final_mean_defect", "status")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment's grid: layer counts per model family, seeds, shared
    train overrides and dataset sizes.  Making a spec builds every cell's
    configs through cell_order, so a bad cell fails before any run.  A
    repeated layer count or seed would train two cells in one directory."""

    experiment: str
    manifold_layers: tuple
    classical_layers: tuple
    seeds: tuple = DEFAULT_SEEDS
    train: dict = None          # TrainConfig overrides applied to every cell
    p_train: int = data.DEFAULT_PAIRS
    p_test: int = data.DEFAULT_PAIRS
    data_seed: int = DEFAULT_DATA_SEED

    def __post_init__(self):
        check_fields(self, "sweep spec")
        object.__setattr__(self, "experiment", data.ode_by_id(self.experiment).id)
        for name in ("manifold_layers", "classical_layers", "seeds"):
            if not (values := getattr(self, name)) or len(set(values)) < len(values):
                raise InvalidConfig(f"{name} must be nonempty and repeat no entry: {list(values)}")
        if min(self.p_train, self.p_test) < 1:
            raise InvalidConfig("dataset sizes must be at least 1")
        if self.data_seed < 0:
            raise InvalidConfig("data_seed must be nonnegative")
        cell_order(self)  # every cell, before any run


def default_spec(experiment):
    """The benchmark grids.  Training defaults to quick mode (2000 epochs)
    so a full sweep stays desk-scale; dataclasses.replace with
    train={"epochs": 8000} gives the long schedule."""
    ode = data.ode_by_id(experiment)
    if ode.id == "exp1":
        base = {"manifold_layers": (1, 2, 4, 8), "classical_layers": (1, 2, 4)}
    else:
        base = {"manifold_layers": (5, 10, 20), "classical_layers": (1, 2, 4, 8)}
    return SweepSpec(experiment=ode.id, train={"epochs": train.QUICK_EPOCHS}, **base)


@dataclass
class CellResult:
    model: str
    layers: int
    param_count: int
    seed: int
    final_train_loss: float
    final_test_loss: float
    final_mean_defect: float
    status: str
    metrics: train.RunMetrics = None


def cell_order(spec):
    """The one place a spec becomes cells: each cell's (NetworkConfig, TrainConfig),
    classical first, then geometric, by layer count, then by seed.  Every call
    checks spec.train again, since the dict of a frozen spec can still change,
    and every error it finds there names train."""
    if "seed" in spec.train:
        raise InvalidConfig("train may not set seed: each cell trains at one of seeds")
    try:
        base = from_dict(train.TrainConfig, spec.train, "config")
    except InvalidConfig as err:
        raise InvalidConfig(f"train: {err}") from None
    if base.epochs < 1:
        raise InvalidConfig("train.epochs must be at least 1: a cell reports its last epoch")
    kind = data.ode_by_id(spec.experiment).kind
    return [(network.NetworkConfig(model, kind, layers), replace(base, seed=seed))
            for model, grid in ((network.CLASSICAL, spec.classical_layers),
                                (network.MANIFOLD, spec.manifold_layers))
            for layers in grid for seed in spec.seeds]


def run_cell(datasets, net_cfg, cfg, out_dir=None):
    """Train one cell on exactly the configs given; divergence becomes a
    status, not an exception.  With out_dir the run is written to
    out_dir/cells/<model>-m<layers>-s<seed>/ (see train.run)."""
    cell_dir = None if out_dir is None else os.path.join(
        out_dir, "cells", f"{net_cfg.model}-m{net_cfg.layers}-s{cfg.seed}")
    metrics, status, mean_defect, _ = train.run(*datasets, net_cfg, cfg, cell_dir)
    finished = status == "ok" and len(metrics)
    return CellResult(
        net_cfg.model, net_cfg.layers, network.param_count(net_cfg), cfg.seed,
        final_train_loss=float(metrics.train_loss[-1]) if finished else float("nan"),
        final_test_loss=float(metrics.test_loss[-1]) if finished else float("nan"),
        final_mean_defect=mean_defect, status=status, metrics=metrics)


def run_sweep(spec, out_dir=None, workers=1, datasets=None):
    """Run every cell of cell_order(spec) and return CellResults in that order.

    Datasets are generated once from (experiment, data_seed) unless an
    explicit (train, test) pair is passed.  With workers > 1 the cells
    run in separate processes, at most one per cell, each writing its own
    directory; results come back in cell order, so output files and
    aggregates do not depend on scheduling.
    """
    if workers < 1:
        raise InvalidConfig(f"workers must be at least 1, got {workers}")
    cells = cell_order(spec)  # checks every cell before any data is made
    if datasets is None:
        datasets = data.generate_dataset(spec.experiment, spec.p_train,
                                         spec.p_test, spec.data_seed)
    job = partial(run_cell, datasets, out_dir=out_dir)  # read per sweep, so a wrapped run_cell runs
    workers = min(workers, len(cells))  # a pool starts every worker at its first task
    if workers > 1:
        # imported only here: the process pool machinery is not needed otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, *zip(*cells)))
    else:
        results = list(map(job, *zip(*cells)))
    if out_dir is not None:
        write_results_csv(results, os.path.join(out_dir, "sweep.csv"))
        render_chart(results, os.path.join(out_dir, "sweep.svg"),
                     title=f"{spec.experiment}: final loss vs parameter count")
    return results


def write_results_csv(results, path):
    write_csv(path, RESULT_COLUMNS, ([getattr(r, name) for name in RESULT_COLUMNS]
                                     for r in results))


def median_by_size(results, model, field="final_test_loss"):
    """Median of a result field across ok seeds, keyed by param count."""
    by_count = {}
    for r in results:
        if r.model == model and r.status == "ok":
            by_count.setdefault(r.param_count, []).append(getattr(r, field))
    return {count: float(np.median(vals))
            for count, vals in sorted(by_count.items())}


# --- chart -----------------------------------------------------------------
# Self-contained SVG, no plotting dependency: two log-log panels (test and
# train loss against parameter count), one polyline per model family.

_PANEL_W = 380
_PANEL_H = 300
_MARGIN_L = 64
_MARGIN_B = 46
_MARGIN_T = 34
_GAP = 56

_SERIES_STYLE = {
    network.MANIFOLD: ("#1f6fb2", "manifold"),
    network.CLASSICAL: ("#c0392b", "classical"),
}


def _log_ticks(lo, hi):
    lo_e = int(np.floor(np.log10(lo)))
    hi_e = int(np.ceil(np.log10(hi)))
    return [10.0 ** e for e in range(lo_e, hi_e + 1)]


def _panel(results, field, x0, title):
    pts = {}
    for model in (network.CLASSICAL, network.MANIFOLD):
        med = median_by_size(results, model, field)
        if med:
            pts[model] = med
    values = [v for med in pts.values() for v in med.values()]
    counts = [c for med in pts.values() for c in med.keys()]
    if not values:
        return [f'<text x="{x0 + _PANEL_W / 2}" y="150">no finished cells</text>']
    vlo = max(min(values), 1e-16)
    vhi = max(max(values), vlo * 10)
    clo, chi = min(counts), max(counts)

    def sx(c):
        span = np.log10(chi) - np.log10(clo)
        span = span if span > 0 else 1.0
        return x0 + (np.log10(c) - np.log10(clo)) / span * _PANEL_W

    def sy(v):
        v = max(v, 1e-16)
        span = np.log10(vhi) - np.log10(vlo)
        span = span if span > 0 else 1.0
        top = _MARGIN_T
        return top + (np.log10(vhi) - np.log10(v)) / span * _PANEL_H

    bottom = _MARGIN_T + _PANEL_H
    parts = [
        f'<rect x="{x0:.1f}" y="{_MARGIN_T}" width="{_PANEL_W}" height="{_PANEL_H}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{x0 + _PANEL_W / 2:.1f}" y="{_MARGIN_T - 12}" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{x0 + _PANEL_W / 2:.1f}" y="{bottom + 36}" text-anchor="middle" '
        'font-size="12"># of parameters</text>',
    ]
    for tick in _log_ticks(vlo, vhi):
        if vlo <= tick <= vhi * 1.0001:
            y = sy(tick)
            parts.append(f'<line x1="{x0:.1f}" y1="{y:.2f}" x2="{x0 + _PANEL_W:.1f}" '
                         f'y2="{y:.2f}" stroke="#dddddd" stroke-width="0.7"/>')
            exp = int(round(np.log10(tick)))
            parts.append(f'<text x="{x0 - 6:.1f}" y="{y + 4:.2f}" text-anchor="end" '
                         f'font-size="11">1e{exp}</text>')
    for tick in sorted(set(counts)):
        x = sx(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" '
                     f'y2="{bottom + 5}" stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{bottom + 18}" text-anchor="middle" '
                     f'font-size="10">{tick}</text>')
    for model, med in pts.items():
        color, label = _SERIES_STYLE[model]
        coords = [(sx(c), sy(v)) for c, v in med.items()]
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     'stroke-width="1.8"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.2" fill="{color}"/>')
    return parts


def render_chart(results, path, title=""):
    """Write the two-panel median-loss chart as a standalone SVG file."""
    width = _MARGIN_L * 2 + _PANEL_W * 2 + _GAP
    height = _MARGIN_T + _PANEL_H + _MARGIN_B + 40
    x_left = _MARGIN_L
    x_right = _MARGIN_L + _PANEL_W + _GAP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    parts += _panel(results, "final_test_loss", x_left, "test loss")
    parts += _panel(results, "final_train_loss", x_right, "train loss")
    legend_y = _MARGIN_T + _PANEL_H + 34
    lx = x_left
    for model in (network.MANIFOLD, network.CLASSICAL):
        color, label = _SERIES_STYLE[model]
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 24}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{legend_y + 4}" font-size="12">{label}</text>')
        lx += 150
    if title:
        parts.append(f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle" '
                     f'font-size="12" fill="#555555">{title}</text>')
    parts.append("</svg>")
    with replacing(path) as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def save_spec(spec, path):
    write_json(path, asdict(spec))


def load_spec(path):
    return read_json_object(path, partial(from_dict, SweepSpec, what="sweep spec"))
