"""Optimization loop: AdamW with decoupled weight decay, Smooth L1 loss,
seeded shuffling, and best-checkpoint early stopping."""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, asdict

import numpy as np

from . import numerics as nm
from . import schema
from .model import ModelConfig, flatten, forward, init_params, non_finite_param, param_views
from .numerics import GradTape, Tensor
from .rasterize import SampleWindow


class TrainError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    patience: int = 30
    max_epochs: int = 200
    batch_size: int = 8
    smooth_l1_beta: float = 1.0
    seed: int = 0
    val_fraction: float | None = None  # may only restate the cube's split; None uses it

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise TrainError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise TrainError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if not 0 < self.smooth_l1_beta < math.inf:
            raise TrainError(f"smooth_l1_beta must be finite and > 0, got {self.smooth_l1_beta!r}")
        if self.patience < 1:
            raise TrainError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 0:
            raise TrainError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise TrainError(f"seed must be >= 0, got {self.seed}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "TrainConfig":
        return schema.from_json(cls, d, TrainError, "train config")


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamWState:
    """AdamW moments: two vectors laid out like the flat parameter vector,
    and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    is_best: bool


@dataclass
class FitResult:
    params: "OrderedDict[str, Tensor]"
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    total_steps: int = 0


def smooth_l1(y_hat: Tensor, y: Tensor, beta: float = 1.0) -> Tensor:
    """Mean Smooth L1: quadratic within `beta` of zero error, linear outside.
    Differentiable w.r.t. both arguments."""
    if y_hat.shape != y.shape:
        raise nm.ShapeError(f"smooth_l1: shapes differ: {y_hat.shape} vs {y.shape}")
    if beta <= 0:
        raise TrainError(f"smooth_l1: beta must be > 0, got {beta}")
    e = y_hat.data - y.data
    abs_e = np.abs(e)
    quad = abs_e < beta
    vals = np.where(quad, 0.5 * e * e / beta, abs_e - 0.5 * beta)
    out = Tensor._wrap(np.asarray(vals.mean(), dtype=y_hat.dtype))
    tape = nm.active_tape()
    if tape is not None:
        dedge = np.where(quad, e / beta, np.sign(e)) / e.size

        def backward(g):
            d = g * dedge
            return d, -d

        tape.record(out, (y_hat, y), backward)
    return out


def adamw_step(flat: np.ndarray, grad: np.ndarray, state: AdamWState, lr: float,
               wd: float) -> np.ndarray:
    """One canonical AdamW update of the flat parameter vector, with bias
    correction; weight decay is applied directly to the parameters, not
    through the moments. Returns a new vector and never writes into `flat`,
    so views of earlier vectors keep their values."""
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    return flat - lr * (m_hat / (np.sqrt(v_hat) + EPS) + wd * flat)


def _batches(windows: list[SampleWindow], order, batch_size: int):
    """For each run of `batch_size` windows in `order`, the float32 input and
    target Tensors and the number of windows in the run."""
    for i in range(0, len(order), batch_size):
        run = [windows[j] for j in order[i:i + batch_size]]
        x = np.stack([w.input for w in run], dtype=np.float32)
        y = np.stack([w.target for w in run], dtype=np.float32)
        yield Tensor._wrap(x), Tensor._wrap(y), len(run)


def _dataset_loss(params, config, windows, beta, batch_size) -> float:
    total = 0.0
    for x, y, n in _batches(windows, range(len(windows)), batch_size):
        total += smooth_l1(forward(x, params, config), y, beta).item() * n
    return total / len(windows)


def fit(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_windows: list[SampleWindow],
    val_windows: list[SampleWindow],
) -> FitResult:
    """Minibatch AdamW with early stopping on validation Smooth L1.

    Fully deterministic under a fixed seed: initialization, shuffling, and
    update order all come from one seeded generator. Returns the parameters
    of the best validation epoch.
    """
    if not train_windows or not val_windows:
        raise TrainError("need at least one training and one validation window")
    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(model_cfg, rng)
    flat = flatten(p.data for p in params.values())
    state = AdamWState(m=np.zeros_like(flat), v=np.zeros_like(flat))
    beta = train_cfg.smooth_l1_beta
    # dropout applies to training steps only; validation runs deterministically
    drop_rng = rng.spawn(1)[0] if model_cfg.dropout > 0 else None
    result = FitResult(params=params)

    for epoch in range(train_cfg.max_epochs):
        train_total = 0.0
        for x, y, n in _batches(train_windows, rng.permutation(len(train_windows)),
                                train_cfg.batch_size):
            with GradTape() as tape:
                loss = smooth_l1(forward(x, params, model_cfg, dropout_rng=drop_rng), y, beta)
            grad = flatten(tape.gradients(loss, list(params.values())))
            del tape  # free the step's activations before the update allocates
            bad = non_finite_param(model_cfg, grad)
            if bad is not None:
                raise FloatingPointError(f"non-finite gradient for parameter {bad}")
            flat = adamw_step(flat, grad, state, train_cfg.learning_rate, train_cfg.weight_decay)
            params = param_views(model_cfg, flat)
            train_total += loss.item() * n
            result.total_steps += 1

        val_loss = _dataset_loss(params, model_cfg, val_windows, beta, train_cfg.batch_size)
        if not math.isfinite(val_loss):
            # a NaN would never count as best, so the initial weights would be returned
            raise FloatingPointError(f"validation loss is {val_loss} at epoch {epoch}")
        is_best = val_loss < result.best_val_loss
        if is_best:
            result.params, result.best_epoch, result.best_val_loss = params, epoch, val_loss
        result.history.append(EpochStats(epoch, train_total / len(train_windows), val_loss, is_best))
        if epoch - result.best_epoch >= train_cfg.patience:
            break
    return result


def write_history(path, history: list[EpochStats]) -> None:
    nm.save_csv(path, ["epoch", "train_loss", "val_loss", "is_best"],
                ([row.epoch, row.train_loss, row.val_loss, int(row.is_best)] for row in history))
