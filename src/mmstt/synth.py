"""Synthetic scattered-point datasets for the deformation regimes used in
verification: periodic oscillation, continuous subsidence, an abrupt
co-seismic step, and stable ground.

Each point's series is a Gaussian-bowl spatial envelope times a temporal law
plus optional noise. The static features are then fitted back from the series
itself (slope, quadratic coefficient, period-matched sinusoid amplitude), in
one least-squares solve for every point, so the static channels genuinely
describe the dynamics.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import schema
from .ingest import AcquisitionCalendar, PointTable

KINDS = ("periodic", "continuous_subsidence", "coseismic_step", "stable")
WEEKS_PER_YEAR = 365.25 / 7.0


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class RegimeSpec:
    kind: str
    n_points: int = 200
    n_dates: int = 120
    amplitude: float = 10.0        # mm, periodic term
    period: float = 52.0           # steps (weeks)
    trend: float = 0.0             # mm per step
    step_time: int = 60            # step index of the co-seismic jump
    step_magnitude: float = 25.0   # mm
    center: tuple[float, float] = (500.0, 500.0)
    radius: float = 300.0          # Gaussian bowl radius, meters
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 1000.0, 1000.0)
    noise_std: float = 0.0         # mm
    start_date: str = "2018-01-05"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SynthError(f"unknown regime kind {self.kind!r}; expected one of {KINDS}")
        if not (self.bbox[2] > self.bbox[0] and self.bbox[3] > self.bbox[1]):
            raise SynthError(f"bbox needs max above min, got {list(self.bbox)}")
        if self.kind == "periodic" and self.period < 2:
            raise SynthError(f"period must be >= 2 steps, got {self.period}")
        if self.kind == "coseismic_step" and not 0 < self.step_time < self.n_dates:
            raise SynthError(
                f"step_time {self.step_time} must lie strictly inside 0..{self.n_dates}"
            )
        if self.n_points < 3:
            raise SynthError("need at least 3 points")
        if self.n_dates < 2:
            raise SynthError("need at least 2 dates")
        try:  # the last acquisition date must exist
            dt.date.fromisoformat(self.start_date) + dt.timedelta(weeks=self.n_dates - 1)
        except (ValueError, OverflowError) as exc:
            raise SynthError(f"start_date {self.start_date!r} + {self.n_dates} weeks: {exc}") from None
        if not 0 < 2.0 * self.radius * self.radius < math.inf:  # the envelope's width
            raise SynthError(f"radius needs 2 * radius**2 positive and finite, got {self.radius!r}")
        if self.kind != "stable" and not math.isfinite(float(self.trend) * (self.n_dates - 1)):
            raise SynthError(f"trend {self.trend!r} over {self.n_dates} dates leaves float range")
        if not self.noise_std >= 0:
            raise SynthError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise SynthError(f"seed must be >= 0, got {self.seed}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "RegimeSpec":
        return schema.from_json(cls, d, SynthError, "regime spec")


def temporal_law(spec: RegimeSpec, t: np.ndarray) -> np.ndarray:
    """Deterministic mm displacement at step indices `t` for a unit envelope."""
    if spec.kind == "stable":
        return np.zeros_like(t, dtype=np.float64)
    law = spec.trend * t
    if spec.kind == "periodic":
        law = law + spec.amplitude * np.sin(2.0 * math.pi * t / spec.period)
    elif spec.kind == "coseismic_step":
        law = law + spec.step_magnitude * (t >= spec.step_time)
    return law.astype(np.float64)


def fit_priors(series: np.ndarray, period: float) -> np.ndarray:
    """Every row's priors (n, T) -> (n, 3) through one (T, 4) operator: the
    least-squares slope in mm/year, a quadratic's t^2 coefficient in mm/year^2,
    and the amplitude of the sinusoid at `period` steps beside a line."""
    t = np.arange(series.shape[1], dtype=np.float64)
    years = t / WEEKS_PER_YEAR  # the polynomials' units, and better conditioned than weeks
    omega = 2.0 * math.pi / period
    # minimum-norm solves with np.linalg.lstsq's cutoff, so a short series is no special case
    line, quadratic, sinusoid = (np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(np.float64).eps) for a in (
        np.vander(years, 2), np.vander(years, 3),
        np.column_stack([np.sin(omega * t), np.cos(omega * t), np.ones_like(t), t])))
    coef = series @ np.column_stack([line[0], quadratic[0], *sinusoid[:2]])
    return np.column_stack([coef[:, :2], np.hypot(coef[:, 2], coef[:, 3])])


def generate(spec: RegimeSpec) -> tuple[PointTable, AcquisitionCalendar]:
    """Scatter points uniformly in the bounding box and synthesize their
    displacement series plus self-consistent static features."""
    rng = np.random.default_rng(spec.seed)
    start = dt.date.fromisoformat(spec.start_date)
    calendar = AcquisitionCalendar(
        tuple(start + dt.timedelta(weeks=i) for i in range(spec.n_dates))
    )
    xmin, ymin, xmax, ymax = spec.bbox
    xs = rng.uniform(xmin, xmax, size=spec.n_points)
    ys = rng.uniform(ymin, ymax, size=spec.n_points)
    cx, cy = spec.center
    try:  # Python floats, so each envelope has the bits of a scalar loop
        r2 = [(x - cx) ** 2 + (y - cy) ** 2 for x, y in zip(xs.tolist(), ys.tolist())]
    except OverflowError:
        r2 = [math.inf]
    if not max(r2) < math.inf:
        raise SynthError(f"center {list(spec.center)}: squared distances to bbox {list(spec.bbox)} leave float range")
    envelope = np.array([math.exp(-d / (2.0 * spec.radius**2)) for d in r2])
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        series = envelope[:, None] * temporal_law(spec, np.arange(spec.n_dates, dtype=np.float64))
        if spec.noise_std > 0:
            noise = rng.normal(0.0, spec.noise_std, size=series.shape)
            if not np.isfinite(noise).all():
                raise SynthError(f"noise_std {spec.noise_std!r} draws non-finite noise")
            series += noise
        # seasonality at the generating period, or else the annual cycle
        priors = fit_priors(series, spec.period if spec.kind == "periodic" else WEEKS_PER_YEAR)
    if not (np.isfinite(series).all() and np.isfinite(priors).all()):
        raise SynthError("the spec gives non-finite displacements or priors")
    ids = [f"s{i:05d}" for i in range(spec.n_points)]
    return PointTable(ids, np.column_stack([xs, ys]), priors, series), calendar
