import math
import warnings

import numpy as np
import pytest

from mmstt import synth
from mmstt.synth import RegimeSpec, SynthError


def per_point_reference(spec):
    """xy and series made one point at a time: a scalar envelope times the
    law, then that point's own noise draw."""
    rng = np.random.default_rng(spec.seed)
    xmin, ymin, xmax, ymax = spec.bbox
    xs = rng.uniform(xmin, xmax, size=spec.n_points)
    ys = rng.uniform(ymin, ymax, size=spec.n_points)
    law = synth.temporal_law(spec, np.arange(spec.n_dates, dtype=np.float64))
    series = np.empty((spec.n_points, spec.n_dates))
    for i in range(spec.n_points):
        r2 = (xs[i] - spec.center[0]) ** 2 + (ys[i] - spec.center[1]) ** 2
        s = math.exp(-r2 / (2.0 * spec.radius**2)) * law
        if spec.noise_std > 0:
            s = s + rng.normal(0.0, spec.noise_std, size=spec.n_dates)
        series[i] = s
    return np.column_stack([xs, ys]), series


def per_row_priors(series, period):
    """Each row fitted on its own: np.polyfit of degree 1 and 2 and the
    np.linalg.lstsq sinusoid, in mm/year, mm/year^2 and mm."""
    t = np.arange(series.shape[1], dtype=np.float64)
    omega = 2.0 * math.pi / period
    basis = np.column_stack([np.sin(omega * t), np.cos(omega * t), np.ones_like(t), t])
    rows = []
    for s in series:
        coef, *_ = np.linalg.lstsq(basis, s, rcond=None)
        rows.append([np.polyfit(t, s, 1)[0] * synth.WEEKS_PER_YEAR,
                     np.polyfit(t, s, 2)[0] * synth.WEEKS_PER_YEAR**2,
                     math.hypot(coef[0], coef[1])])
    return np.array(rows)


class TestRegimeSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SynthError, match="kind"):
            RegimeSpec(kind="volcanic")

    def test_rejects_step_outside_series(self):
        with pytest.raises(SynthError, match="step_time"):
            RegimeSpec(kind="coseismic_step", n_dates=50, step_time=50)

    def test_rejects_short_period(self):
        with pytest.raises(SynthError, match="period"):
            RegimeSpec(kind="periodic", period=1.0)

    def test_json_round_trip(self):
        spec = RegimeSpec(kind="periodic", amplitude=5.0, seed=9)
        assert RegimeSpec.from_json(spec.to_json()) == spec
        # as read from a file: tuples arrive as lists, and an integer is a valid float
        loaded = RegimeSpec.from_json({"kind": "periodic", "amplitude": 5, "seed": 9,
                                       "center": [500, 500.0], "bbox": [0, 0, 1000, 1000]})
        assert loaded == spec and isinstance(loaded.center, tuple)


class TestGenerate:
    def test_stable_noise_free_is_all_zero(self):
        pts, cal = synth.generate(RegimeSpec(kind="stable", n_points=10, n_dates=20))
        assert len(pts) == 10
        assert len(cal) == 20
        assert np.all(pts.series == 0.0)
        assert np.all(pts.priors == 0.0)

    def test_weekly_cadence(self):
        _, cal = synth.generate(RegimeSpec(kind="stable", n_points=5, n_dates=8))
        gaps = {(b - a).days for a, b in zip(cal.dates, cal.dates[1:])}
        assert gaps == {7}

    def test_periodic_seasonality_matches_enveloped_amplitude(self):
        spec = RegimeSpec(kind="periodic", n_points=40, n_dates=120, amplitude=10.0,
                          period=52.0, trend=0.0, noise_std=0.0, seed=3)
        pts, _ = synth.generate(spec)
        for (x, y), seasonality in zip(pts.xy, pts.priors[:, 2]):
            r2 = (x - spec.center[0]) ** 2 + (y - spec.center[1]) ** 2
            envelope = math.exp(-r2 / (2 * spec.radius**2))
            if envelope < 1e-3:
                continue
            assert seasonality == pytest.approx(spec.amplitude * envelope, rel=0.02)

    def test_coseismic_jump_is_exact(self):
        spec = RegimeSpec(kind="coseismic_step", n_points=12, n_dates=40, trend=0.5,
                          step_time=25, step_magnitude=30.0, noise_std=0.0, seed=1)
        pts, _ = synth.generate(spec)
        for (x, y), s in zip(pts.xy, pts.series):
            r2 = (x - spec.center[0]) ** 2 + (y - spec.center[1]) ** 2
            envelope = math.exp(-r2 / (2 * spec.radius**2))
            # piecewise constant trend with the jump exactly at step_time
            jump = s[25] - s[24]
            assert jump == pytest.approx(envelope * (30.0 + 0.5), abs=1e-9)
            pre_diffs = np.diff(s[:25])
            post_diffs = np.diff(s[25:])
            assert np.allclose(pre_diffs, envelope * 0.5)
            assert np.allclose(post_diffs, envelope * 0.5)

    def test_series_bit_identical_to_a_per_point_loop(self):
        specs = [
            RegimeSpec(kind="periodic", n_points=15, n_dates=80, amplitude=6.0, period=26.0,
                       trend=0.2, noise_std=1.0, seed=5),
            RegimeSpec(kind="coseismic_step", n_points=300, n_dates=40, step_time=20, trend=-0.3,
                       center=(321.7, 654.3), radius=123.456, noise_std=0.2, seed=8),
            RegimeSpec(kind="continuous_subsidence", n_points=50, n_dates=30, trend=-0.5, seed=2),
            RegimeSpec(kind="stable", n_points=10, n_dates=5, noise_std=0.5, seed=1),
        ]
        for spec in specs:
            pts, _ = synth.generate(spec)
            xy, series = per_point_reference(spec)
            assert np.array_equal(pts.xy, xy)
            assert np.array_equal(pts.series, series)
            assert np.array_equal(np.signbit(pts.series), np.signbit(series))  # -0.0 kept

    def test_priors_are_the_fits_of_the_series(self):
        spec = RegimeSpec(kind="periodic", n_points=15, n_dates=80, amplitude=6.0,
                          period=26.0, trend=0.2, noise_std=1.0, seed=5)
        pts, _ = synth.generate(spec)
        assert np.array_equal(pts.priors, synth.fit_priors(pts.series, spec.period))

    def test_short_series_fit_without_rank_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts, _ = synth.generate(RegimeSpec(kind="periodic", n_points=5, n_dates=2,
                                               noise_std=1.0, seed=3))
        assert np.isfinite(pts.priors).all()

    def test_fixed_seed_bit_identical(self):
        spec = RegimeSpec(kind="coseismic_step", n_points=20, n_dates=30,
                          step_time=15, noise_std=2.0, seed=11)
        a, cal_a = synth.generate(spec)
        b, cal_b = synth.generate(spec)
        assert cal_a.dates == cal_b.dates
        assert a.ids == b.ids
        for column in ("xy", "priors", "series"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_emits_ingest_csv_format(self, tmp_path):
        from mmstt import ingest

        pts, cal = synth.generate(RegimeSpec(kind="periodic", n_points=8, n_dates=10,
                                             noise_std=0.5, seed=2))
        path = tmp_path / "synthetic.csv"
        ingest.write_csv(path, pts, cal)
        res = ingest.parse_csv(path)
        assert len(res.points) == 8
        assert res.n_dropped == 0
        assert res.calendar.dates == cal.dates
        assert np.array_equal(res.points.series[0], pts.series[0])


class TestFitPriors:
    def test_matches_a_per_row_reference(self):
        rng = np.random.default_rng(0)
        tables = [
            (synth.generate(RegimeSpec(kind="periodic", n_points=40, n_dates=120, amplitude=6.0,
                                       period=26.0, trend=0.2, noise_std=1.0, seed=5))[0].series, 26.0),
            (synth.generate(RegimeSpec(kind="coseismic_step", n_points=40, n_dates=240,
                                       step_time=120, noise_std=0.2, seed=7))[0].series,
             synth.WEEKS_PER_YEAR),
            (rng.normal(size=(30, 3)), 52.0),
            (rng.normal(size=(30, 7)), 2.0),
            (1e3 * rng.normal(size=(30, 500)), 13.5),
        ]
        for series, period in tables:
            got = synth.fit_priors(series, period)
            want = per_row_priors(series, period)
            tol = 1e-10 * np.maximum(1.0, np.abs(want).max(axis=0))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol), (series.shape, np.abs(got - want).max(axis=0))

    def test_recovers_known_coefficients(self):
        t = np.arange(150, dtype=np.float64)
        years = t / synth.WEEKS_PER_YEAR
        series = np.array([
            -3.0 + 7.5 * years,                                          # velocity 7.5 mm/year
            2.0 - 1.5 * years + 0.25 * years**2,                         # t^2 coefficient 0.25 mm/year^2
            1.0 + 0.02 * t + 4.0 * np.sin(2 * math.pi * t / 26.0 + 0.7),  # seasonality 4 mm
        ])
        priors = synth.fit_priors(series, 26.0)
        assert priors[0, 0] == pytest.approx(7.5, rel=1e-9, abs=1e-9)
        assert priors[1, 1] == pytest.approx(0.25, rel=1e-9, abs=1e-9)
        assert priors[2, 2] == pytest.approx(4.0, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("fields, named", [
    ({"radius": 1e-200}, "radius"),
    ({"radius": 1e200}, "radius"),
    ({"center": (1e200, 0.0)}, "center"),
    ({"kind": "continuous_subsidence", "trend": 1e307}, "trend"),
    ({"noise_std": 1e308}, "noise_std"),
    # each field in range, but trend * t + step_magnitude is not
    ({"kind": "coseismic_step", "trend": 6e305, "step_magnitude": 1e307, "step_time": 10},
     "non-finite displacements"),
])
def test_specs_past_float_range_are_refused(fields, named):
    spec = {"kind": "periodic", "n_points": 50, "n_dates": 300, **fields}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SynthError, match=named):
            synth.generate(RegimeSpec(**spec))
