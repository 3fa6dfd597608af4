"""Synthetic scattered-point datasets for the deformation regimes used in
verification: periodic oscillation, continuous subsidence, an abrupt
co-seismic step, and stable ground.

Each point's series is a Gaussian-bowl spatial envelope times a temporal law
plus optional noise. The static features are then fitted back from the series
itself (slope, quadratic coefficient, period-matched sinusoid amplitude), so
the static channels genuinely describe the dynamics.
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
        if self.radius <= 0:
            raise SynthError("radius must be positive")
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


def fit_velocity(series: np.ndarray) -> float:
    """Least-squares slope in mm/year (weekly cadence)."""
    t = np.arange(series.size, dtype=np.float64)
    slope = np.polyfit(t, series, 1)[0]
    return float(slope * WEEKS_PER_YEAR)


def fit_acceleration(series: np.ndarray) -> float:
    """Quadratic-fit t^2 coefficient in mm/year^2."""
    t = np.arange(series.size, dtype=np.float64)
    coeff = np.polyfit(t, series, 2)[0]
    return float(coeff * WEEKS_PER_YEAR**2)


def fit_seasonality(series: np.ndarray, period: float) -> float:
    """Amplitude of the least-squares sinusoid at the given period (steps)."""
    t = np.arange(series.size, dtype=np.float64)
    omega = 2.0 * math.pi / period
    basis = np.column_stack([np.sin(omega * t), np.cos(omega * t), np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(basis, series, rcond=None)
    return float(math.hypot(coef[0], coef[1]))


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
    t = np.arange(spec.n_dates, dtype=np.float64)
    law = temporal_law(spec, t)
    # seasonality is fitted against the generating period for periodic
    # regimes, against the annual cycle otherwise
    fit_period = spec.period if spec.kind == "periodic" else WEEKS_PER_YEAR

    priors = np.empty((spec.n_points, 3))
    series = np.empty((spec.n_points, spec.n_dates))
    for i in range(spec.n_points):
        r2 = (xs[i] - spec.center[0]) ** 2 + (ys[i] - spec.center[1]) ** 2
        envelope = math.exp(-r2 / (2.0 * spec.radius**2))
        s = envelope * law
        if spec.noise_std > 0:
            s = s + rng.normal(0.0, spec.noise_std, size=spec.n_dates)
        series[i] = s
        priors[i] = fit_velocity(s), fit_acceleration(s), fit_seasonality(s, fit_period)
    ids = [f"s{i:05d}" for i in range(spec.n_points)]
    return PointTable(ids, np.column_stack([xs, ys]), priors, series), calendar
