import math

import numpy as np
import pytest

from mmstt import evaluation as ev
from mmstt.rasterize import NormStats, SampleWindow


class TestPointMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(4, 5))
        assert ev.rmse(y, y) == 0.0
        assert ev.mae(y, y) == 0.0
        assert ev.r2(y, y) == 1.0

    def test_mean_baseline_gives_r2_zero(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=50)
        y_hat = np.full_like(y, y.mean())
        assert ev.r2(y_hat, y) == pytest.approx(0.0, abs=1e-12)

    def test_two_element_hand_computation(self):
        y = np.array([0.0, 2.0])
        y_hat = np.array([1.0, 1.0])
        assert ev.rmse(y_hat, y) == 1.0
        assert ev.mae(y_hat, y) == 1.0
        assert ev.r2(y_hat, y) == pytest.approx(0.0)

    def test_constant_truth_flagged_undefined(self):
        assert math.isnan(ev.r2(np.array([1.0, 2.0]), np.array([3.0, 3.0])))

    def test_rmse_ge_mae_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            y = rng.normal(size=shape)
            y_hat = y + rng.normal(size=shape)
            assert ev.rmse(y_hat, y) >= ev.mae(y_hat, y) >= 0.0


class TestPearson:
    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        assert ev.pearson(a, 2 * a + 3) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=30)
        assert ev.pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_covariance_formula_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=40)
            b = rng.normal(size=40)
            cov = np.mean((a - a.mean()) * (b - b.mean()))
            want = cov / (a.std() * b.std())
            assert abs(ev.pearson(a, b) - want) < 1e-10

    def test_constant_input_undefined(self):
        assert math.isnan(ev.pearson(np.ones(5), np.arange(5.0)))


def ssim_loop_oracle(a, b, win=8):
    r = b.max() - b.min()
    c1, c2 = (0.01 * r) ** 2, (0.03 * r) ** 2
    h, w = a.shape
    scores = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            pa = a[i:i + win, j:j + win].ravel()
            pb = b[i:i + win, j:j + win].ravel()
            mu_a, mu_b = pa.mean(), pb.mean()
            var_a = ((pa - mu_a) ** 2).mean()
            var_b = ((pb - mu_b) ** 2).mean()
            cov = ((pa - mu_a) * (pb - mu_b)).mean()
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


class TestSSIM:
    def test_identical_maps(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(16, 16))
        assert ev.ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_negated_map_scores_negative(self):
        # checkerboard keeps every window mean at zero, so the sign of the
        # structure term (anticorrelation) decides the score
        i, j = np.indices((16, 16))
        a = np.where((i + j) % 2 == 0, 1.0, -1.0) * (1.0 + 0.1 * np.sin(i * 0.7))
        assert ev.ssim(-a, a) < 0.0

    def test_matches_windowed_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            b = rng.normal(size=(16, 16))
            a = b + 0.3 * rng.normal(size=(16, 16))
            assert abs(ev.ssim(a, b) - ssim_loop_oracle(a, b)) < 1e-8

    def test_zero_range_reference(self):
        flat = np.zeros((10, 10))
        assert ev.ssim(flat, flat) == 1.0
        assert math.isnan(ev.ssim(flat + 1.0, flat))

    @pytest.mark.parametrize("size", [16, 6])
    def test_stack_scores_each_map_as_a_lone_call(self, size):
        # a 6x6 map shrinks the window to 6 px; the stack mixes maps with
        # different ranges, so each map must use its own R, c1 and c2
        rng = np.random.default_rng(12)
        b = rng.normal(size=(2, 3, size, size)) * rng.uniform(0.1, 50.0, size=(2, 3, 1, 1))
        a = b + rng.normal(size=b.shape)
        b[0, 1] = 4.0
        a[0, 1] = 4.0          # flat reference, identical forecast: 1.0
        b[1, 2] = -2.0         # flat reference, different forecast: NaN
        scores = ev.ssim(a, b)
        assert scores.shape == (2, 3)
        assert scores[0, 1] == 1.0
        assert math.isnan(scores[1, 2])
        for idx in np.ndindex(2, 3):
            lone = ev.ssim(a[idx], b[idx])
            assert isinstance(lone, float)
            if idx == (1, 2):
                assert math.isnan(lone)
            else:
                assert abs(scores[idx] - lone) < 1e-12, idx
                if idx != (0, 1):
                    win = min(8, size)
                    assert abs(lone - ssim_loop_oracle(a[idx], b[idx], win)) < 1e-12, idx


class TestBinnedErrors:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=200)
        for b in ev.binned_errors(y, y, 5):
            if b.count:
                assert b.mae == 0.0
                assert b.residual_median == 0.0

    def test_constant_residual(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=100)
        for b in ev.binned_errors(y + 0.7, y, 4):
            if b.count:
                assert b.residual_median == pytest.approx(0.7)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=321)
        y_hat = y + rng.normal(size=321)
        table = ev.binned_errors(y_hat, y, 5)
        assert sum(b.count for b in table) == 321
        assert len(table) == 5


# ---------------------------------------------------------------------------
# evaluate() on hand-built windows
# ---------------------------------------------------------------------------


def build_windows(n_windows, t_out=4, h=16, seed=0, stats=None):
    rng = np.random.default_rng(seed)
    stats = stats or NormStats(mean=[2.0, 0, 0, 0], std=[3.0, 1, 1, 1], constant=[False] * 4)
    windows, truth = [], []
    for i in range(n_windows):
        x = rng.normal(size=(4, 6, h, h))
        y = rng.normal(size=(t_out, 1, h, h))
        windows.append(SampleWindow(input=x, target=y, start_index=i))
        truth.append(y)
    return windows, np.stack(truth), stats


class TestEvaluate:
    def test_persistence_baseline_is_finite(self):
        windows, truth, stats = build_windows(3)
        # copy the input's last displacement frame forward
        preds = np.stack([np.repeat(w.input[-1:, 0:1], truth.shape[1], axis=0) for w in windows])
        report = ev.evaluate(preds, windows, stats)
        for h in report.horizons:
            assert math.isfinite(h.rmse) and math.isfinite(h.mae)
            assert h.r2 < 1.0

    def test_oracle_perfect_predictor(self):
        windows, truth, stats = build_windows(4)
        report = ev.evaluate(truth.copy(), windows, stats)
        for h in report.horizons:
            assert h.rmse < 1e-6
            assert h.ssim == pytest.approx(1.0, abs=1e-9)
            assert h.pearson == pytest.approx(1.0, abs=1e-9)

    def test_rmse_ge_mae_property(self):
        windows, truth, stats = build_windows(5, seed=3)
        preds = truth + np.random.default_rng(4).normal(size=truth.shape)
        report = ev.evaluate(preds, windows, stats)
        for h in report.horizons:
            assert h.rmse >= h.mae >= 0.0

    def test_denormalization_consistency(self):
        # rescaling a normalized-space RMSE by the channel std equals the
        # denormalized-space RMSE
        windows, truth, stats = build_windows(3, seed=5)
        preds = truth + np.random.default_rng(6).normal(size=truth.shape)
        report = ev.evaluate(preds, windows, stats)
        k = 0
        norm_rmse = ev.rmse(preds[:, k, 0], truth[:, k, 0])
        assert abs(report.horizons[k].rmse - norm_rmse * stats.std[0]) < 1e-6

    def test_event_in_target_window_flagged(self):
        windows, truth, stats = build_windows(3)
        # inputs span t=[start, start+4); targets [start+4, start+8)
        report = ev.evaluate(truth.copy(), windows, stats, event_time_index=5)
        assert len(report.flags) == 2  # windows starting at 0 and 1
        assert "not forecastable" in report.flags[0]

    def test_node_series(self):
        windows, truth, stats = build_windows(2)
        report = ev.evaluate(truth.copy(), windows, stats, node_pixels=[(0, 0), (3, 7)])
        assert [n.node_id for n in report.nodes] == [0, 3 * 16 + 7]
        n = report.nodes[1]
        want = stats.denormalize(truth[1, :, 0, 3, 7], 0)
        assert np.allclose(n.y_true, want)
        assert n.y_true == n.y_pred


def test_report_writers(tmp_path):
    windows, truth, stats = build_windows(2, t_out=10)
    preds = truth + 0.1 * np.random.default_rng(7).normal(size=truth.shape)
    report = ev.evaluate(preds, windows, stats, node_pixels=[(1, 1)])
    ev.write_report_json(tmp_path / "report.json", report)
    ev.write_summary_csv(tmp_path / "summary.csv", report)
    ev.write_nodes_csv(tmp_path / "nodes.csv", report)
    ev.write_bins_csv(tmp_path / "bins.csv", report)

    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "horizon,rmse,mae,r2,ssim,corr"
    steps = [row.split(",")[0] for row in summary[1:]]
    for need in ("t+1", "t+5", "t+10"):
        assert need in steps

    import json

    data = json.loads((tmp_path / "report.json").read_text())
    assert data["n_windows"] == 2
    assert data["units"] == "mm"
    assert len(data["horizons"]) == 10

    nodes = (tmp_path / "nodes.csv").read_text().splitlines()
    assert nodes[0] == "node_id,step,y_true,y_pred"
    assert len(nodes) == 1 + 10
