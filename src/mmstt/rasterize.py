"""Scattered points to normalized multi-channel data cubes and training windows.

Point values are linearly interpolated over the Delaunay triangulation of the
points onto a fine native grid, cells outside the convex hull take the nearest
point's value, and block means reduce the result to the working resolution.
That map depends only on the geometry, so it is one precomputed sparse matrix
applied to all acquisition dates and static priors at once. The per-pixel
displacement series is then smoothed along time and channels 0-3 are Z-scored
with statistics from the training time range only.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .ingest import AcquisitionCalendar, PointTable
from .numerics import Tensor, load_json, load_tensor, save_tensor_and_json
from .schema import is_finite_float

CHANNEL_NAMES = ("displacement", "mean_velocity", "acceleration", "seasonality", "f_sin", "f_cos")
YEAR_DAYS = 365.25


class RasterizeError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Raster geometry: fine interpolation grid and coarse working grid."""

    bbox: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    native_size: int = 256
    working_size: int = 64

    def __post_init__(self):
        if not (len(self.bbox) == 4 and all(map(is_finite_float, self.bbox))):
            raise RasterizeError(f"bbox must be 4 finite numbers, got {self.bbox!r}")
        xmin, ymin, xmax, ymax = self.bbox
        if not (xmax > xmin and ymax > ymin):
            raise RasterizeError(f"degenerate bounding box {self.bbox}")
        if self.native_size < 1 or self.working_size < 1:
            raise RasterizeError(
                f"grid sizes must be >= 1, got native {self.native_size}, working {self.working_size}"
            )
        if self.native_size % self.working_size:
            raise RasterizeError(
                f"native size {self.native_size} not divisible by working size {self.working_size}"
            )

    @property
    def block(self) -> int:
        return self.native_size // self.working_size

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) coordinates of native cell centers; row 0 is the north edge."""
        xmin, ymin, xmax, ymax = self.bbox
        n = self.native_size
        xs = xmin + (np.arange(n) + 0.5) * (xmax - xmin) / n
        ys = ymax - (np.arange(n) + 0.5) * (ymax - ymin) / n
        return np.meshgrid(xs, ys)


@dataclass
class NormStats:
    """Per-channel Z-score statistics for cube channels 0-3."""

    mean: list[float]
    std: list[float]
    constant: list[bool]

    def denormalize(self, x: np.ndarray, channel: int = 0) -> np.ndarray:
        return x * self.std[channel] + self.mean[channel]


@dataclass(frozen=True)
class SplitPlan:
    """Chronological train/validation split over window start indices. Every
    training window ends strictly before the first validation window begins,
    so the plan also fixes the time range the Z-score statistics may see.
    `t_in`, `t_out` and `val_fraction` are the inputs it was planned from."""

    t_in: int
    t_out: int
    val_fraction: float
    train_starts: tuple[int, ...]
    val_starts: tuple[int, ...]
    fit_stop: int


@dataclass
class DataCube:
    """(T, 6, H, W) tensor with channels
    [displacement, mean_velocity, acceleration, seasonality, f_sin, f_cos].
    `split` is the train/validation split the statistics were fitted for."""

    values: np.ndarray
    norm_stats: NormStats
    calendar: AcquisitionCalendar
    grid: GridSpec
    split: SplitPlan

    @property
    def n_times(self) -> int:
        return self.values.shape[0]


@dataclass
class SampleWindow:
    """One supervised sample: `input` is cube[start : start+t_in] with all six
    channels, `target` the normalized displacement channel of the following
    t_out slices."""

    input: np.ndarray   # (T_in, 6, H, W)
    target: np.ndarray  # (T_out, 1, H, W)
    start_index: int


# ---------------------------------------------------------------------------
# Spatial operations
# ---------------------------------------------------------------------------


class GridInterpolator:
    """Delaunay-linear interpolation of one scatter of (x, y) sites onto the
    working grid, as a sparse (working_size**2, n_points) matrix. Native cells
    take the barycentric weights of their simplex (from `Delaunay.transform`,
    as scipy's linear interpolator computes them), or weight 1 on the nearest
    site outside the hull; each working pixel averages its native block. At
    least one site must lie inside the grid's bbox."""

    def __init__(self, xy: np.ndarray, grid: GridSpec):
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] < 3:
            raise RasterizeError(f"need >=3 (x, y) points, got array of shape {xy.shape}")
        xmin, ymin, xmax, ymax = grid.bbox
        x, y = xy.T
        if not np.any((x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)):
            raise RasterizeError(
                f"no point lies inside bbox {grid.bbox}; every pixel would be extrapolated"
            )
        # Qhull, the nearest-site query and the cell centers square coordinate differences
        dx = float(max(x.max(), xmax)) - float(min(x.min(), xmin))
        dy = float(max(y.max(), ymax)) - float(min(y.min(), ymin))
        if not math.isfinite(dx * dx + dy * dy):
            raise RasterizeError(f"points and bbox {grid.bbox}: squared extent overflows a float")
        # here, so only rasterizing pays their import
        from scipy import sparse
        from scipy.spatial import Delaunay, QhullError, cKDTree

        self.grid = grid
        try:
            tri = Delaunay(xy)
        except QhullError:
            raise RasterizeError("points are collinear; Delaunay triangulation undefined") from None
        gx, gy = grid.cell_centers()
        targets = np.column_stack([gx.ravel(), gy.ravel()])
        simplex = tri.find_simplex(targets)
        # outside cells (simplex -1) read the last simplex here and are overwritten below
        transform = tri.transform[simplex]
        bary = np.einsum("cij,cj->ci", transform[:, :2], targets - transform[:, 2])
        weights = np.column_stack([bary, 1.0 - bary[:, 0] - bary[:, 1]])
        sites = tri.simplices[simplex]
        outside = simplex < 0
        weights[outside] = (1.0, 0.0, 0.0)
        sites[outside] = cKDTree(xy).query(targets[outside])[1][:, None]

        n, m, block = grid.native_size, grid.working_size, grid.block
        row, col = np.divmod(np.arange(n * n), n)
        pixel = (row // block) * m + col // block
        # duplicate (pixel, site) entries are summed, which folds in the block mean
        self._weights = sparse.csr_matrix(
            ((weights / block**2).ravel(), (np.repeat(pixel, 3), sites.ravel())),
            shape=(m * m, xy.shape[0]),
        )

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Rasterize (n_points,) or (n_points, k) values to (working, working[, k])."""
        values = np.asarray(values, dtype=np.float64)
        n_points = self._weights.shape[1]
        if values.ndim not in (1, 2) or values.shape[0] != n_points:
            raise RasterizeError(f"expected {n_points} values per column, got shape {values.shape}")
        m = self.grid.working_size
        return (self._weights @ values).reshape(m, m, *values.shape[1:])


def smooth_series(x: np.ndarray) -> np.ndarray:
    """Centered 3-tap moving average along axis 0 with the window shrinking at
    the edges (length-1 series pass through unchanged)."""
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[0]
    if t == 1:
        return x.copy()
    out = np.empty_like(x)
    out[1:-1] = (x[:-2] + x[1:-1] + x[2:]) / 3.0
    out[0] = (x[0] + x[1]) / 2.0
    out[-1] = (x[-2] + x[-1]) / 2.0
    return out


def encode_day(d: float) -> tuple[float, float]:
    """Cyclical encoding of a day-of-year value."""
    if d < 0:
        raise RasterizeError(f"day of year must be >= 0, got {d}")
    angle = 2.0 * math.pi * d / YEAR_DAYS
    return math.sin(angle), math.cos(angle)


def zscore_in_place(cube: np.ndarray, fit_stop: int) -> NormStats:
    """Standardize channels 0-3 of `cube` in place, with statistics computed
    only over time indices below `fit_stop`. Subtracting the mean and then
    dividing by the std are the two IEEE operations of `(x - mean) / std`, so
    the result is bitwise that of a copy, without a second cube in memory.
    Constant channels are centered and flagged, with std recorded as 1."""
    if fit_stop < 1:
        raise RasterizeError("empty fit range")
    stats = NormStats(mean=[], std=[], constant=[])
    for c in range(4):
        region = cube[:fit_stop, c]
        mean = float(region.mean())
        std = float(region.std())
        # tolerance absorbs interpolation round-off on truly constant fields
        constant = std <= 1e-12 * max(1.0, abs(mean))
        if constant:
            std = 1.0
        stats.mean.append(mean)
        stats.std.append(std)
        stats.constant.append(constant)
        cube[:, c] -= mean
        cube[:, c] /= std
    return stats


# ---------------------------------------------------------------------------
# Cube assembly
# ---------------------------------------------------------------------------


def bbox_of_points(points: PointTable) -> tuple[float, float, float, float]:
    return (*points.xy.min(axis=0).tolist(), *points.xy.max(axis=0).tolist())


def build_cube(
    points: PointTable,
    calendar: AcquisitionCalendar,
    grid: GridSpec,
    split: SplitPlan,
) -> DataCube:
    """Rasterize points into the normalized 6-channel cube.

    The cube is allocated once, filled channel by channel and Z-scored in
    place, so its peak is about one cube plus the rasterized series. The
    statistics are fitted on the split's training range, which keeps
    validation data out of them.
    """
    t = len(calendar)
    if points.series.shape[1] != t:
        raise RasterizeError(f"series length {points.series.shape[1]} != calendar length {t}")
    if split.val_starts[-1] + split.t_in + split.t_out != t:
        raise RasterizeError(f"split was not planned for a cube of {t} time steps")

    interp = GridInterpolator(points.xy, grid)
    h = w = grid.working_size
    cube = np.empty((t, 6, h, w), dtype=np.float64)
    cube[:, 0] = smooth_series(np.moveaxis(interp(points.series), -1, 0))
    cube[:, 1:4] = np.moveaxis(interp(points.priors), -1, 0)

    for ti, d in enumerate(calendar.days_of_year):
        f_sin, f_cos = encode_day(d)
        cube[ti, 4] = f_sin
        cube[ti, 5] = f_cos

    stats = zscore_in_place(cube, split.fit_stop)
    return DataCube(values=cube, norm_stats=stats, calendar=calendar, grid=grid, split=split)


# ---------------------------------------------------------------------------
# Windows and the chronological split
# ---------------------------------------------------------------------------


def make_windows(cube: DataCube, t_in: int = 10, t_out: int = 10) -> list[SampleWindow]:
    """Slice the cube into sliding input/target windows. Targets are the
    normalized displacement channel; evaluation denormalizes via norm_stats.
    Windows are views, so for a loaded cube only the frames a caller stacks
    are read from its file."""
    t = cube.n_times
    if t < t_in + t_out:
        raise RasterizeError(f"cube has {t} time steps; need at least {t_in + t_out}")
    windows = []
    for s in range(t - t_in - t_out + 1):
        windows.append(
            SampleWindow(
                input=cube.values[s:s + t_in],
                target=cube.values[s + t_in:s + t_in + t_out, 0:1],
                start_index=s,
            )
        )
    return windows


def plan_split(n_times: int, t_in: int, t_out: int, val_fraction: float) -> SplitPlan:
    """Chronological split of window start indices with a no-leakage gap: a
    training window's last time index stays strictly below every validation
    window's start index."""
    if t_in < 1 or t_out < 1:
        raise RasterizeError(f"t_in and t_out must be >= 1, got {t_in} and {t_out}")
    if not 0.0 < val_fraction < 1.0:
        raise RasterizeError(f"val_fraction must be in (0, 1), got {val_fraction}")
    starts = list(range(n_times - t_in - t_out + 1))
    if len(starts) < 2:
        raise RasterizeError(f"only {len(starts)} windows; cannot split")
    span = t_in + t_out
    n_val = max(1, round(val_fraction * len(starts)))
    val_starts = starts[-n_val:]
    train_starts = [s for s in starts if s + span - 1 < val_starts[0]]
    if not train_starts:
        raise RasterizeError("no training windows remain after the leakage gap; lower val_fraction")
    return SplitPlan(
        t_in=t_in,
        t_out=t_out,
        val_fraction=val_fraction,
        train_starts=tuple(train_starts),
        val_starts=tuple(val_starts),
        fit_stop=max(train_starts) + span,
    )


def split_windows(windows: list[SampleWindow], plan: SplitPlan) -> tuple[list[SampleWindow], list[SampleWindow]]:
    """`windows` as `make_windows` returns them, window `s` at index `s`."""
    return [windows[s] for s in plan.train_starts], [windows[s] for s in plan.val_starts]


# ---------------------------------------------------------------------------
# Persistence: shared binary tensor + JSON sidecar
# ---------------------------------------------------------------------------


def save_cube(path, cube: DataCube) -> None:
    """Write `<path>` (binary tensor) and `<path>.json` (semantic sidecar).
    The tensor is written from a read-only view of the cube, not a copy."""
    sidecar = {
        "channels": list(CHANNEL_NAMES),
        "norm_stats": {
            "mean": cube.norm_stats.mean,
            "std": cube.norm_stats.std,
            "constant": cube.norm_stats.constant,
        },
        "calendar": [d.isoformat() for d in cube.calendar.dates],
        "bbox": list(cube.grid.bbox),
        "native_size": cube.grid.native_size,
        "working_size": cube.grid.working_size,
        "split": {"t_in": cube.split.t_in, "t_out": cube.split.t_out,
                  "val_fraction": cube.split.val_fraction},
    }
    save_tensor_and_json(path, Tensor._wrap(np.asarray(cube.values, dtype=np.float64).view()),
                         f"{path}.json", sidecar)


def load_cube(path) -> DataCube:
    """Read a cube and its sidecar, refusing a tensor whose shape is not
    (len(calendar), 6, working_size, working_size) and statistics that are
    not 4 finite numbers for `mean`, 4 positive finite ones for `std` (with a
    zero std every forecast scores as perfect) and 4 booleans for `constant`.
    Every refusal of a sidecar value names the sidecar."""
    sidecar = load_json(f"{path}.json", "cube sidecar")
    values = load_tensor(path).data
    try:
        raw = sidecar["norm_stats"]
        for key, valid, kind in (
            ("mean", is_finite_float, "finite numbers"),
            ("std", lambda x: is_finite_float(x) and x > 0, "positive finite numbers"),
            ("constant", lambda x: isinstance(x, bool), "booleans"),
        ):
            entries = raw[key]
            if not (isinstance(entries, list) and len(entries) == 4 and all(map(valid, entries))):
                raise RasterizeError(f"norm_stats {key} must hold 4 {kind}, "
                                     f"one per Z-scored channel, got {entries!r}")
        stats = NormStats(mean=raw["mean"], std=raw["std"], constant=raw["constant"])
        calendar = AcquisitionCalendar(tuple(dt.date.fromisoformat(d) for d in sidecar["calendar"]))
        grid = GridSpec(
            bbox=tuple(sidecar["bbox"]),
            native_size=sidecar["native_size"],
            working_size=sidecar["working_size"],
        )
        split = sidecar["split"]
        if not split:
            raise RasterizeError("no train/validation split; rerun preprocess")
        split = plan_split(len(calendar), split["t_in"], split["t_out"], split["val_fraction"])
    except KeyError as exc:
        raise RasterizeError(f"cube sidecar {path}.json lacks the key {exc}") from None
    except TypeError as exc:
        raise RasterizeError(f"cube sidecar {path}.json holds a value of the wrong type: {exc}") from None
    except ValueError as exc:  # a bad date, bbox or split; the checks above do not know the file
        raise RasterizeError(f"cube sidecar {path}.json: {exc}") from None
    expected = (len(calendar), len(CHANNEL_NAMES), grid.working_size, grid.working_size)
    if values.shape != expected:
        raise RasterizeError(f"cube {path} has shape {values.shape}; its sidecar "
                             f"{path}.json describes {expected}")
    return DataCube(values=values, norm_stats=stats, calendar=calendar, grid=grid, split=split)
