"""Forecast quality metrics and machine-readable reports.

All headline numbers are computed in denormalized millimeters. Per horizon
the report carries RMSE/MAE/R2 pooled over evaluation windows plus mean
per-map SSIM and Pearson correlation; it also includes per-node series for
requested pixels and a binned residual table.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .model import ModelConfig, forward
from .numerics import Tensor, save_csv, save_json
from .rasterize import NormStats, SampleWindow

SSIM_WINDOW = 8


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------


def rmse(y_hat: np.ndarray, y: np.ndarray) -> float:
    if y_hat.shape != y.shape:
        raise EvalError(f"rmse: shapes differ: {y_hat.shape} vs {y.shape}")
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def mae(y_hat: np.ndarray, y: np.ndarray) -> float:
    if y_hat.shape != y.shape:
        raise EvalError(f"mae: shapes differ: {y_hat.shape} vs {y.shape}")
    return float(np.mean(np.abs(y_hat - y)))


def r2(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Coefficient of determination against the mean-of-truth baseline;
    NaN (undefined) when the truth is constant."""
    if y_hat.shape != y.shape:
        raise EvalError(f"r2: shapes differ: {y_hat.shape} vs {y.shape}")
    if y.size < 2:
        raise EvalError("r2 needs at least 2 elements")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return float("nan")
    ss_res = float(np.sum((y_hat - y) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the flattened maps; NaN if either is constant."""
    if a.shape != b.shape:
        raise EvalError(f"pearson: shapes differ: {a.shape} vs {b.shape}")
    a = a.ravel().astype(np.float64)
    b = b.ravel().astype(np.float64)
    da, db = a - a.mean(), b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        return float("nan")
    return float(da @ db) / denom


def ssim(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Structural similarity with uniform 8x8 sliding windows (stride 1).

    Maps may be stacked on leading axes, `(..., H, W)`: a lone 2-D map scores
    a float, a stack an array of per-map scores. `b` holds the reference maps;
    each map's stabilizing constants use C1=(0.01*R)^2 and C2=(0.03*R)^2 with
    R its reference's dynamic range. Window statistics are population moments,
    from separable box means of maps centred on their own mean. A map with
    zero reference range scores 1 when identical, else NaN. The window
    shrinks to fit maps smaller than 8 px.
    """
    if a.shape != b.shape:
        raise EvalError(f"ssim: shapes differ: {a.shape} vs {b.shape}")
    if a.ndim < 2:
        raise EvalError(f"ssim: need (..., H, W) maps, got shape {a.shape}")
    from scipy.ndimage import uniform_filter  # here, so only scoring pays its import

    a = a.astype(np.float64)
    b = b.astype(np.float64)
    maps = (-2, -1)
    r = b.max(axis=maps) - b.min(axis=maps)
    flat = r == 0.0
    win = min(SSIM_WINDOW, *a.shape[-2:])
    mean_a = a.mean(axis=maps, keepdims=True)
    mean_b = b.mean(axis=maps, keepdims=True)
    da, db = a - mean_a, b - mean_b
    moments = uniform_filter(np.stack([da, db, da * da, db * db, da * db]),
                             size=win, axes=maps, mode="constant")
    lo = win // 2  # first output pixel whose window lies inside the map
    h, w = a.shape[-2:]
    mu_da, mu_db, e_aa, e_bb, e_ab = moments[..., lo:lo + h - win + 1, lo:lo + w - win + 1]
    var_a = e_aa - mu_da**2
    var_b = e_bb - mu_db**2
    cov = e_ab - mu_da * mu_db
    mu_a = mu_da + mean_a
    mu_b = mu_db + mean_b
    r = np.where(flat, 1.0, r)[..., None, None]  # flat maps are scored below
    c1 = (0.01 * r) ** 2
    c2 = (0.03 * r) ** 2
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    score = score.mean(axis=maps)
    identical = np.all(a == b, axis=maps)
    score = np.where(flat, np.where(identical, 1.0, np.nan), score)
    return float(score) if score.ndim == 0 else score


@dataclass
class BinStats:
    bin_low: float
    bin_high: float
    count: int
    mae: float
    residual_median: float
    residual_q1: float
    residual_q3: float


def binned_errors(y_hat: np.ndarray, y: np.ndarray, n_bins: int = 10) -> list[BinStats]:
    """Equal-width bins over the truth range; per bin the MAE and residual
    quartiles (residual = prediction - truth). Empty bins keep count 0."""
    if n_bins < 2:
        raise EvalError(f"need at least 2 bins, got {n_bins}")
    if y_hat.shape != y.shape:
        raise EvalError(f"binned_errors: shapes differ: {y_hat.shape} vs {y.shape}")
    y_hat = y_hat.ravel().astype(np.float64)
    y = y.ravel().astype(np.float64)
    lo, hi = float(y.min()), float(y.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    which = np.clip(np.digitize(y, edges) - 1, 0, n_bins - 1)
    residual = y_hat - y
    table = []
    for i in range(n_bins):
        mask = which == i
        count = int(mask.sum())
        if count:
            res = residual[mask]
            q1, med, q3 = np.percentile(res, [25, 50, 75])
            bin_mae = float(np.abs(res).mean())
        else:
            q1 = med = q3 = bin_mae = float("nan")
        table.append(BinStats(float(edges[i]), float(edges[i + 1]), count, bin_mae,
                              float(med), float(q1), float(q3)))
    return table


# ---------------------------------------------------------------------------
# Whole-report evaluation
# ---------------------------------------------------------------------------


@dataclass
class HorizonMetrics:
    step: int  # 1-based forecast horizon (t+step)
    rmse: float
    mae: float
    r2: float
    ssim: float
    pearson: float


@dataclass
class NodeSeries:
    node_id: int
    pixel: tuple[int, int]
    window_start: int
    y_true: list[float]
    y_pred: list[float]


@dataclass
class ForecastReport:
    horizons: list[HorizonMetrics]
    bins: list[BinStats]
    nodes: list[NodeSeries]
    n_windows: int
    units: str = "mm"
    flags: list[str] = field(default_factory=list)

    def horizon(self, step: int) -> HorizonMetrics:
        for h in self.horizons:
            if h.step == step:
                return h
        raise KeyError(f"horizon t+{step} not in report")

    def check_invariants(self) -> None:
        for h in self.horizons:
            if not (h.rmse >= h.mae >= 0.0):
                raise EvalError(f"t+{h.step}: RMSE {h.rmse} < MAE {h.mae}")
            if not math.isnan(h.r2) and h.r2 > 1.0 + 1e-12:
                raise EvalError(f"t+{h.step}: R2 {h.r2} > 1")
            for name, v in (("ssim", h.ssim), ("pearson", h.pearson)):
                if not math.isnan(v) and not -1.0 - 1e-9 <= v <= 1.0 + 1e-9:
                    raise EvalError(f"t+{h.step}: {name} {v} outside [-1, 1]")


def predict_windows(params, config: ModelConfig, windows: list[SampleWindow]) -> np.ndarray:
    """Model forecasts for a list of windows, run 16 at a time in float32 and
    written into one float64 array: (n_windows, T_out, 1, H, W)."""
    g = config.grid_size
    out = np.empty((len(windows), config.t_out, 1, g, g))
    for i in range(0, len(windows), 16):
        x = Tensor._wrap(np.stack([w.input for w in windows[i:i + 16]], dtype=np.float32))
        out[i:i + 16] = forward(x, params, config).data
    return out


def evaluate(
    predictions: np.ndarray,
    windows: list[SampleWindow],
    norm_stats: NormStats,
    node_pixels: list[tuple[int, int]] | None = None,
    n_bins: int = 10,
    event_time_index: int | None = None,
) -> ForecastReport:
    """Score normalized forecasts (n_windows, T_out, 1, H, W), such as
    `predict_windows` returns, against the windows' targets, in millimeters.

    `event_time_index` marks windows whose target range contains a known
    abrupt event (the event is unforecastable from their inputs); they are
    listed in `report.flags`.
    """
    if not windows:
        raise EvalError("no evaluation windows")
    t_out = windows[0].target.shape[0]
    y_hat = norm_stats.denormalize(predictions[:, :, 0], 0)          # (n, T_out, H, W)
    y = norm_stats.denormalize(np.stack([w.target for w in windows])[:, :, 0], 0)

    horizons = []
    for k in range(t_out):
        ssims = ssim(y_hat[:, k], y[:, k])
        corrs = [pearson(y_hat[i, k], y[i, k]) for i in range(len(windows))]
        finite_ssims = ssims[~np.isnan(ssims)]
        finite_corrs = [v for v in corrs if not math.isnan(v)]
        horizons.append(
            HorizonMetrics(
                step=k + 1,
                rmse=rmse(y_hat[:, k], y[:, k]),
                mae=mae(y_hat[:, k], y[:, k]),
                r2=r2(y_hat[:, k], y[:, k]),
                ssim=float(np.mean(finite_ssims)) if finite_ssims.size else float("nan"),
                pearson=float(np.mean(finite_corrs)) if finite_corrs else float("nan"),
            )
        )

    nodes = []
    if node_pixels:
        w_idx = len(windows) - 1  # latest forecast
        window = windows[w_idx]
        width = y.shape[-1]
        for (ph, pw) in node_pixels:
            nodes.append(
                NodeSeries(
                    node_id=ph * width + pw,
                    pixel=(ph, pw),
                    window_start=window.start_index,
                    y_true=[float(v) for v in y[w_idx, :, ph, pw]],
                    y_pred=[float(v) for v in y_hat[w_idx, :, ph, pw]],
                )
            )

    flags = []
    if event_time_index is not None:
        for i, w in enumerate(windows):
            t0 = w.start_index + w.input.shape[0]
            if t0 <= event_time_index < t0 + t_out:
                flags.append(
                    f"window_start={w.start_index}: event at t={event_time_index} lies in the "
                    "target range and is not forecastable from the inputs"
                )

    report = ForecastReport(
        horizons=horizons,
        bins=binned_errors(y_hat, y, n_bins),
        nodes=nodes,
        n_windows=len(windows),
        flags=flags,
    )
    report.check_invariants()
    return report


# ---------------------------------------------------------------------------
# Writers (CSV + JSON; NaN serialized as null)
# ---------------------------------------------------------------------------


def write_report_json(path, report: ForecastReport) -> None:
    save_json(path, asdict(report))


def write_summary_csv(path, report: ForecastReport) -> None:
    save_csv(path, ["horizon", "rmse", "mae", "r2", "ssim", "corr"],
             ([f"t+{h.step}", h.rmse, h.mae, h.r2, h.ssim, h.pearson] for h in report.horizons))


def write_nodes_csv(path, report: ForecastReport) -> None:
    save_csv(path, ["node_id", "step", "y_true", "y_pred"],
             ([node.node_id, k, yt, yp] for node in report.nodes
              for k, (yt, yp) in enumerate(zip(node.y_true, node.y_pred), start=1)))


def write_bins_csv(path, report: ForecastReport) -> None:
    save_csv(path, [f.name for f in fields(BinStats)], (astuple(b) for b in report.bins))
