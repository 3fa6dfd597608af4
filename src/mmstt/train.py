"""Optimization loop: AdamW with decoupled weight decay, Smooth L1 loss,
seeded shuffling, and best-checkpoint early stopping."""

from __future__ import annotations

import csv
from collections import OrderedDict
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import numerics as nm
from .model import ModelConfig, forward, init_params
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
        if self.patience < 1:
            raise TrainError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "TrainConfig":
        if unknown := sorted(set(d) - {f.name for f in fields(cls)}):
            raise TrainError(f"unknown train config key(s): {', '.join(unknown)}")
        return cls(**d)


@dataclass
class AdamWState:
    """Canonical AdamW moments; shapes mirror the parameters."""

    m: "OrderedDict[str, np.ndarray]"
    v: "OrderedDict[str, np.ndarray]"
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params) -> "AdamWState":
        return cls(
            m=OrderedDict((k, np.zeros_like(p.data)) for k, p in params.items()),
            v=OrderedDict((k, np.zeros_like(p.data)) for k, p in params.items()),
        )


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


def adamw_step(params, grads, state: AdamWState, lr: float, wd: float):
    """One canonical AdamW update with bias correction; weight decay is applied
    directly to the parameters, not through the moments. Returns new params."""
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    new_params: OrderedDict[str, Tensor] = OrderedDict()
    for name, p in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        m = state.m[name]
        v = state.v[name]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new = p.data - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p.data)
        new_params[name] = Tensor._wrap(new.astype(p.dtype, copy=False))
    return new_params, state


def _batch(windows: list[SampleWindow], dtype) -> tuple[Tensor, Tensor]:
    x = np.stack([w.input for w in windows]).astype(dtype)
    y = np.stack([w.target for w in windows]).astype(dtype)
    return Tensor._wrap(x), Tensor._wrap(y)


def _dataset_loss(params, config, windows, beta, batch_size, dtype) -> float:
    total, count = 0.0, 0
    for i in range(0, len(windows), batch_size):
        chunk = windows[i:i + batch_size]
        x, y = _batch(chunk, dtype)
        loss = smooth_l1(forward(x, params, config), y, beta)
        total += loss.item() * len(chunk)
        count += len(chunk)
    return total / count


def fit(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_windows: list[SampleWindow],
    val_windows: list[SampleWindow],
    dtype=np.float32,
) -> FitResult:
    """Minibatch AdamW with early stopping on validation Smooth L1.

    Fully deterministic under a fixed seed: initialization, shuffling, and
    update order all come from one seeded generator. Returns the parameters
    of the best validation epoch.
    """
    if not train_windows or not val_windows:
        raise TrainError("need at least one training and one validation window")
    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(model_cfg, rng, dtype=dtype)
    state = AdamWState.for_params(params)
    beta = train_cfg.smooth_l1_beta
    # dropout applies to training steps only; validation runs deterministically
    drop_rng = rng.spawn(1)[0] if model_cfg.dropout > 0 else None
    result = FitResult(params=params)
    best_params = params
    since_best = 0

    for epoch in range(train_cfg.max_epochs):
        order = rng.permutation(len(train_windows))
        train_total, train_count = 0.0, 0
        for i in range(0, len(order), train_cfg.batch_size):
            chunk = [train_windows[j] for j in order[i:i + train_cfg.batch_size]]
            x, y = _batch(chunk, dtype)
            with GradTape() as tape:
                loss = smooth_l1(forward(x, params, model_cfg, dropout_rng=drop_rng), y, beta)
            grad_list = tape.gradients(loss, list(params.values()))
            grads = dict(zip(params.keys(), grad_list))
            params, state = adamw_step(
                params, grads, state, train_cfg.learning_rate, train_cfg.weight_decay
            )
            train_total += loss.item() * len(chunk)
            train_count += len(chunk)
            result.total_steps += 1

        val_loss = _dataset_loss(params, model_cfg, val_windows, beta, train_cfg.batch_size, dtype)
        is_best = val_loss < result.best_val_loss
        if is_best:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best_params = params
            since_best = 0
        else:
            since_best += 1
        result.history.append(EpochStats(epoch, train_total / train_count, val_loss, is_best))
        if since_best >= train_cfg.patience:
            break

    result.params = best_params
    return result


def write_history(path, history: list[EpochStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "is_best"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss), int(row.is_best)])
