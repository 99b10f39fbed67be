"""Heavy-ball SGD with a step schedule, and the epoch loop.

Training minimizes grad.objective,

    L = (1/P) sum_j ||x_M(x0_j) - y_j||^2 + (lam dt / 2) sum_N ||Theta_N||^2

over the stacked per-layer parameters Theta_N, with full-batch gradient
descent plus momentum.  The step size starts large and decays by a fixed
factor at preset epochs; the large initial step is part of the recipe
(it hops over poor local minima early on), so non-finite losses are
treated as a reportable outcome, not a crash: the loop raises
DivergenceDetected carrying everything recorded so far, and run, which
trains and records every run of the CLI and the sweep, turns it into the
status "diverged".
"""

import math
import numbers
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import grad, manifolds, network
from .errors import DivergenceDetected, InvalidConfig, check_keys, is_a, write_csv

QUICK_EPOCHS = 2000

METRICS_COLUMNS = ("epoch", "lr", "train_loss", "test_loss", "max_defect")


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 10.0
    momentum: float = 0.9
    decay_epochs: tuple = (500, 1000, 2000, 4000, 6000)
    decay_factor: float = 0.8
    lam: float = 1e-3
    epochs: int = 8000
    seed: int = 0

    def __post_init__(self):
        wrong = [name for name in ("lr0", "momentum", "decay_factor", "lam")
                 if not is_a(numbers.Real, getattr(self, name))]
        wrong += [name for name in ("epochs", "seed")
                  if not is_a(numbers.Integral, getattr(self, name))]
        if not (isinstance(self.decay_epochs, (list, tuple))
                and all(is_a(numbers.Integral, e) for e in self.decay_epochs)):
            wrong.append("decay_epochs")
        if wrong:
            raise InvalidConfig(f"wrongly typed config values: {wrong}")
        if not 0.0 < self.lr0 < math.inf:
            raise InvalidConfig("lr0 must be finite and positive")
        if not 0.0 < self.decay_factor < 1.0:
            raise InvalidConfig("decay_factor must lie in (0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig("momentum must lie in [0, 1)")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be nonnegative")
        if not 0.0 <= self.lam < math.inf:
            raise InvalidConfig("lam must be finite and nonnegative")
        if self.seed < 0:
            raise InvalidConfig("seed must be nonnegative")
        object.__setattr__(self, "decay_epochs",
                           tuple(sorted(int(e) for e in self.decay_epochs)))

    def to_dict(self):
        return {**asdict(self), "decay_epochs": list(self.decay_epochs)}


def config_from_dict(doc, **overrides):
    """TrainConfig from a flat dict (e.g. a parsed JSON config file)."""
    values = {**(doc or {}), **overrides}
    check_keys(values, "config", known=TrainConfig.__dataclass_fields__)
    return TrainConfig(**values)


@dataclass
class RunMetrics:
    """Per-epoch series plus the final parameters of one training run.

    A run that diverged holds the epochs recorded before the non-finite
    loss, so its length is the epoch at which it diverged.
    """

    epoch: np.ndarray
    lr: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    max_defect: np.ndarray
    final_params: list
    wall_time: float = 0.0

    def __len__(self):
        return len(self.epoch)

    def to_csv(self, path):
        """Write the per-epoch series; floats as shortest exact decimals."""
        write_csv(path, METRICS_COLUMNS, zip(*(getattr(self, name) for name in METRICS_COLUMNS)))


def lr_schedule(epoch, cfg):
    """lr0 times decay_factor to the number of decay epochs already hit."""
    if epoch < 0:
        raise InvalidConfig("epoch must be nonnegative")
    hits = sum(1 for e in cfg.decay_epochs if e <= epoch)
    return cfg.lr0 * cfg.decay_factor ** hits


def sgd_step(params, grads, velocity, lr, momentum):
    """Heavy-ball update on flat vectors: v' = mu v + g, p' = p - lr v'."""
    velocity = momentum * velocity + grads
    return params - lr * velocity, velocity


def prediction_defects(outputs, space):
    """Per-sample manifold defect of network outputs: the baseline's drift,
    and for the geometric net a pure sanity number."""
    return manifolds.defect(space, outputs)


def _run_metrics(rows, params, start):
    """RunMetrics of the recorded rows (one per epoch, in METRICS_COLUMNS order)."""
    epoch, *series = rows.T
    return RunMetrics(epoch.astype(int), *series, final_params=params,
                      wall_time=time.perf_counter() - start)


def train_loop(train_ds, test_ds, net_cfg, cfg):
    """Run the full optimization and record per-epoch metrics.

    Per epoch, train_loss is the full objective (data plus regularizer)
    and test_loss the plain mean squared error, both at the parameters
    the epoch starts with; row 0 therefore describes the freshly
    initialized net.  max_defect is the worst output defect across train
    and test predictions that epoch.  Raises DivergenceDetected with the
    rows recorded so far if a loss stops being finite.

    Each epoch is one grad.network_gradient call, the function that
    `check gradcheck` checks, over the train and test inputs together: the
    test rows ride along through the forward pass and leave the train
    gradient unchanged.  Its trace is gone when it returns, so one forward
    trace is alive at a time.  The parameters live in one flat vector, and
    params holds views into it, so each SGD step writes straight through
    to the layers.
    """
    if train_ds.kind != net_cfg.space or test_ds.kind != net_cfg.space:
        raise InvalidConfig("dataset manifold does not match the network")
    flat = network.flatten_params(
        network.init_params(net_cfg, np.random.default_rng(cfg.seed)))
    params = network.unflatten_params(flat, net_cfg)
    velocity = np.zeros_like(flat)

    all_x = np.concatenate([train_ds.inputs, test_ds.inputs])

    rows = np.empty((cfg.epochs, len(METRICS_COLUMNS)))
    start = time.perf_counter()

    # A diverging run overflows, forward and backward, on its way to the
    # explicit non-finite check below; the intermediate overflow warnings
    # carry no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg)

            train_loss, g, all_out = grad.network_gradient(all_x, train_ds.targets, params,
                                                           net_cfg, cfg.lam)
            test_loss = grad.objective(all_out[len(train_ds):], test_ds.targets)[0]

            if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
                raise DivergenceDetected(f"non-finite loss at epoch {epoch}",
                                         _run_metrics(rows[:epoch], params, start))
            rows[epoch] = (epoch, lr, train_loss, test_loss,
                           np.max(prediction_defects(all_out, net_cfg.space)))
            flat[...], velocity = sgd_step(flat, g, velocity, lr, cfg.momentum)

    return _run_metrics(rows, params, start)


def run(train_ds, test_ds, net_cfg, cfg, out_dir=None):
    """Train one net and record the run: (metrics, status, mean test defect).

    status is "ok", or "diverged" when a loss stopped being finite; then
    metrics holds the epochs recorded before it.  The mean defect is that
    of the final net's outputs on the test inputs.  After a divergence the
    parameters are so large that overflow en route is expected, and a
    state that overflowed to NaN makes the mean NaN.  With out_dir, the
    run writes metrics.csv and checkpoint.json there, the checkpoint's
    meta holding the training seed and the status.
    """
    try:
        metrics, status = train_loop(train_ds, test_ds, net_cfg, cfg), "ok"
    except DivergenceDetected as err:
        metrics, status = err.metrics, "diverged"
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics.to_csv(os.path.join(out_dir, "metrics.csv"))
        network.save_checkpoint(os.path.join(out_dir, "checkpoint.json"), net_cfg,
                                metrics.final_params, meta={"seed": cfg.seed, "status": status})
    with np.errstate(over="ignore", invalid="ignore"):
        out = network.network_forward(test_ds.inputs, metrics.final_params, net_cfg)[0]
        return metrics, status, float(np.mean(prediction_defects(out, net_cfg.space)))
