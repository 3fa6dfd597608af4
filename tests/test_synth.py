import math

import numpy as np
import pytest

from mmstt import synth
from mmstt.synth import RegimeSpec, SynthError


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
        for p in pts:
            assert all(v == 0.0 for v in p.series)
            assert p.mean_velocity == 0.0
            assert p.acceleration == 0.0
            assert p.seasonality == 0.0

    def test_weekly_cadence(self):
        _, cal = synth.generate(RegimeSpec(kind="stable", n_points=5, n_dates=8))
        gaps = {(b - a).days for a, b in zip(cal.dates, cal.dates[1:])}
        assert gaps == {7}

    def test_periodic_seasonality_matches_enveloped_amplitude(self):
        spec = RegimeSpec(kind="periodic", n_points=40, n_dates=120, amplitude=10.0,
                          period=52.0, trend=0.0, noise_std=0.0, seed=3)
        pts, _ = synth.generate(spec)
        for p in pts:
            r2 = (p.easting - spec.center[0]) ** 2 + (p.northing - spec.center[1]) ** 2
            envelope = math.exp(-r2 / (2 * spec.radius**2))
            if envelope < 1e-3:
                continue
            assert p.seasonality == pytest.approx(spec.amplitude * envelope, rel=0.02)

    def test_coseismic_jump_is_exact(self):
        spec = RegimeSpec(kind="coseismic_step", n_points=12, n_dates=40, trend=0.5,
                          step_time=25, step_magnitude=30.0, noise_std=0.0, seed=1)
        pts, _ = synth.generate(spec)
        for p in pts:
            r2 = (p.easting - spec.center[0]) ** 2 + (p.northing - spec.center[1]) ** 2
            envelope = math.exp(-r2 / (2 * spec.radius**2))
            s = np.array(p.series)
            # piecewise constant trend with the jump exactly at step_time
            jump = s[25] - s[24]
            assert jump == pytest.approx(envelope * (30.0 + 0.5), abs=1e-9)
            pre_diffs = np.diff(s[:25])
            post_diffs = np.diff(s[25:])
            assert np.allclose(pre_diffs, envelope * 0.5)
            assert np.allclose(post_diffs, envelope * 0.5)

    def test_static_features_self_consistent(self):
        spec = RegimeSpec(kind="periodic", n_points=15, n_dates=80, amplitude=6.0,
                          period=26.0, trend=0.2, noise_std=1.0, seed=5)
        pts, _ = synth.generate(spec)
        for p in pts:
            s = np.array(p.series)
            assert p.mean_velocity == synth.fit_velocity(s)
            assert p.acceleration == synth.fit_acceleration(s)
            assert p.seasonality == synth.fit_seasonality(s, spec.period)

    def test_fixed_seed_bit_identical(self):
        spec = RegimeSpec(kind="coseismic_step", n_points=20, n_dates=30,
                          step_time=15, noise_std=2.0, seed=11)
        a, cal_a = synth.generate(spec)
        b, cal_b = synth.generate(spec)
        assert cal_a.dates == cal_b.dates
        for pa, pb in zip(a, b):
            assert pa == pb

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
        assert res.points[0].series == pts[0].series
