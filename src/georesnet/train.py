"""Heavy-ball SGD with a step schedule, and the epoch loop.

Training minimizes grad.objective,

    L = (1/P) sum_j ||x_M(x0_j) - y_j||^2 + (lam dt / 2) sum_N ||Theta_N||^2

over the stacked per-layer parameters Theta_N, with full-batch gradient
descent plus momentum by default.  The step size starts large and decays
by a fixed factor at preset epochs; the large initial step is part of the
recipe (it hops over poor local minima early on), so non-finite losses
are treated as a reportable outcome, not a crash: the loop raises
DivergenceDetected carrying everything recorded so far, and run, which
trains and records every run of the CLI and the sweep, turns it into the
status "diverged".
"""

import csv
import numbers
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import grad, manifolds, network
from .errors import DivergenceDetected, InvalidConfig, is_a, replacing

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
    batch_size: int | None = None  # None means full batch
    seed: int = 0

    def __post_init__(self):
        wrong = [name for name in ("lr0", "momentum", "decay_factor", "lam")
                 if not is_a(numbers.Real, getattr(self, name))]
        wrong += [name for name in ("epochs", "seed")
                  if not is_a(numbers.Integral, getattr(self, name))]
        if not (self.batch_size is None or is_a(numbers.Integral, self.batch_size)):
            wrong.append("batch_size")
        if not (isinstance(self.decay_epochs, (list, tuple))
                and all(is_a(numbers.Integral, e) for e in self.decay_epochs)):
            wrong.append("decay_epochs")
        if wrong:
            raise InvalidConfig(f"wrongly typed config values: {wrong}")
        if self.lr0 <= 0:
            raise InvalidConfig("lr0 must be positive")
        if not 0.0 < self.decay_factor < 1.0:
            raise InvalidConfig("decay_factor must lie in (0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig("momentum must lie in [0, 1)")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be nonnegative")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidConfig("batch_size must be positive when given")
        if self.lam < 0:
            raise InvalidConfig("lam must be nonnegative")
        object.__setattr__(self, "decay_epochs",
                           tuple(sorted(int(e) for e in self.decay_epochs)))

    def to_dict(self):
        return {**asdict(self), "decay_epochs": list(self.decay_epochs)}


def config_from_dict(doc, **overrides):
    """TrainConfig from a flat dict (e.g. a parsed JSON config file)."""
    known = dict(doc or {})
    known.update(overrides)
    extra = set(known) - set(TrainConfig.__dataclass_fields__)
    if extra:
        raise InvalidConfig(f"unknown config keys: {sorted(extra)}")
    return TrainConfig(**known)


@dataclass
class RunMetrics:
    """Per-epoch series plus the final parameters of one training run."""

    epoch: np.ndarray
    lr: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    max_defect: np.ndarray
    final_params: list
    wall_time: float = 0.0
    diverged_at: int | None = None

    def __len__(self):
        return len(self.epoch)

    def to_csv(self, path):
        """Write the per-epoch series; floats as shortest exact decimals."""
        with replacing(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_COLUMNS)
            for i in range(len(self)):
                writer.writerow([
                    int(self.epoch[i]),
                    repr(float(self.lr[i])),
                    repr(float(self.train_loss[i])),
                    repr(float(self.test_loss[i])),
                    repr(float(self.max_defect[i])),
                ])


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


def _train_rows(trace, p_train):
    """The trace of the first p_train rows of a batch, as views."""
    return network.ForwardTrace(
        trace.config, trace.states[:, :p_train], trace.gates[:, :p_train],
        None if trace.axials is None else trace.axials[:, :p_train])


def train_loop(train_ds, test_ds, net_cfg, cfg):
    """Run the full optimization and record per-epoch metrics.

    Per epoch, train_loss is the full objective (data plus regularizer)
    and test_loss the plain mean squared error, both at the parameters
    the epoch starts with; row 0 therefore describes the freshly
    initialized net.  max_defect is the worst output defect across train
    and test predictions that epoch.  Raises DivergenceDetected with the
    rows recorded so far if a loss stops being finite.

    Each epoch runs one forward pass over the train and test inputs
    together; every layer treats rows independently, so the split outputs
    are bitwise those of two separate passes.  The parameters live in one
    flat vector, and params holds views into it, so each SGD step writes
    straight through to the layers.
    """
    if train_ds.kind != net_cfg.space or test_ds.kind != net_cfg.space:
        raise InvalidConfig("dataset manifold does not match the network")
    rng = np.random.default_rng(cfg.seed)
    flat = network.flatten_params(network.init_params(net_cfg, rng))
    params = network.unflatten_params(flat, net_cfg)
    velocity = np.zeros_like(flat)

    train_x, train_y = train_ds.inputs, train_ds.targets
    all_x = np.concatenate([train_x, test_ds.inputs])
    p_train = train_x.shape[0]

    series = {name: [] for name in METRICS_COLUMNS}
    start = time.perf_counter()

    def metrics(diverged_at=None):
        return RunMetrics(
            epoch=np.asarray(series["epoch"], dtype=int),
            lr=np.asarray(series["lr"], dtype=float),
            train_loss=np.asarray(series["train_loss"], dtype=float),
            test_loss=np.asarray(series["test_loss"], dtype=float),
            max_defect=np.asarray(series["max_defect"], dtype=float),
            final_params=params,
            wall_time=time.perf_counter() - start,
            diverged_at=diverged_at,
        )

    # A diverging run overflows on its way to the explicit non-finite check
    # below; the intermediate overflow warnings carry no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg)

            all_out, trace = network.network_forward(all_x, params, net_cfg)
            train_loss, r = grad.objective(all_out[:p_train], train_y, flat,
                                           cfg.lam, net_cfg.dt)
            test_loss = grad.objective(all_out[p_train:], test_ds.targets, (), 0.0,
                                       net_cfg.dt)[0]

            if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
                raise DivergenceDetected(
                    f"non-finite loss at epoch {epoch}", metrics(diverged_at=epoch))

            worst = np.max(prediction_defects(all_out, net_cfg.space))
            series["epoch"].append(epoch)
            series["lr"].append(lr)
            series["train_loss"].append(train_loss)
            series["test_loss"].append(test_loss)
            series["max_defect"].append(float(worst))

            if cfg.batch_size is None or cfg.batch_size >= p_train:
                g = grad.backward_from_trace(_train_rows(trace, p_train), params, flat,
                                             (2.0 / p_train) * r, cfg.lam)
                flat[...], velocity = sgd_step(flat, g, velocity, lr, cfg.momentum)
            else:
                order = rng.permutation(p_train)
                for lo in range(0, p_train, cfg.batch_size):
                    idx = order[lo:lo + cfg.batch_size]
                    g = grad.network_gradient(train_x[idx], train_y[idx], params,
                                              net_cfg, cfg.lam)[1]
                    flat[...], velocity = sgd_step(flat, g, velocity, lr, cfg.momentum)

    return metrics()


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
