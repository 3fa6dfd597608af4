import numpy as np
import pytest

from mmstt import train as tr
from mmstt.model import ModelConfig
from mmstt.numerics import ShapeError, Tensor
from mmstt.rasterize import SampleWindow
from mmstt.train import AdamWState, TrainConfig


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), dtype=np.float64)


class TestSmoothL1:
    def test_zero_for_perfect_prediction(self):
        y = t64([[1.0, -2.0], [0.5, 3.0]])
        assert tr.smooth_l1(y, y).item() == 0.0

    def test_quadratic_branch(self):
        assert tr.smooth_l1(t64([0.5]), t64([0.0]), beta=1.0).item() == pytest.approx(0.125)

    def test_linear_branch(self):
        assert tr.smooth_l1(t64([3.0]), t64([0.0]), beta=1.0).item() == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tr.smooth_l1(t64([1.0, 2.0]), t64([1.0]))

    def test_gradient_both_branches(self):
        rng = np.random.default_rng(0)
        y_hat = t64(rng.normal(scale=2.0, size=24))  # errors straddle beta
        y = t64(rng.normal(size=24))
        from mmstt import numerics as nm

        report = nm.grad_check(lambda ps: tr.smooth_l1(ps[0], ps[1], beta=1.0), [y_hat, y])
        assert report.passed, str(report)


def scalar_adamw_oracle(p, g_seq, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled scalar AdamW, written independently of the implementation."""
    m = v = 0.0
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * (m_hat / (v_hat ** 0.5 + eps) + wd * p)
    return p


class TestAdamW:
    def test_zero_gradients_no_decay_leaves_params(self):
        params = {"w": t64([1.0, -2.0])}
        state = AdamWState.for_params(params)
        out, _ = tr.adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1, wd=0.0)
        assert np.array_equal(out["w"].data, params["w"].data)

    def test_single_step_descends_and_matches_oracle(self):
        params = {"w": t64([1.0])}
        state = AdamWState.for_params(params)
        out, _ = tr.adamw_step(params, {"w": np.array([1.0])}, state, lr=0.1, wd=0.0)
        assert out["w"].data[0] < 1.0
        want = scalar_adamw_oracle(1.0, [1.0], lr=0.1, wd=0.0)
        assert abs(out["w"].data[0] - want) < 1e-10

    def test_hundred_random_steps_match_oracle(self):
        rng = np.random.default_rng(1)
        p0 = float(rng.normal())
        grads = rng.normal(size=100)
        lr, wd = 1e-2, 1e-3
        params = {"w": t64([p0])}
        state = AdamWState.for_params(params)
        for g in grads:
            params, state = tr.adamw_step(params, {"w": np.array([g])}, state, lr, wd)
        want = scalar_adamw_oracle(p0, grads, lr, wd)
        assert abs(params["w"].data[0] - want) < 1e-10

    def test_decoupled_decay_shrinks_params(self):
        lr, wd = 0.05, 0.1
        params = {"w": t64([2.0, -4.0])}
        state = AdamWState.for_params(params)
        for step in range(1, 4):
            params, state = tr.adamw_step(params, {"w": np.zeros(2)}, state, lr, wd)
            assert np.allclose(params["w"].data, np.array([2.0, -4.0]) * (1 - lr * wd) ** step)

    def test_nonfinite_gradient_names_param(self):
        params = {"bad_param": t64([1.0])}
        state = AdamWState.for_params(params)
        with pytest.raises(FloatingPointError, match="bad_param"):
            tr.adamw_step(params, {"bad_param": np.array([np.nan])}, state, 0.1, 0.0)


TINY = ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                   embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=16)


def toy_windows(n, config=TINY, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = rng.normal(size=(config.t_in, config.c_in, config.grid_size, config.grid_size))
        y = rng.normal(size=(config.t_out, 1, config.grid_size, config.grid_size))
        out.append(SampleWindow(input=x, target=y, start_index=i))
    return out


def test_train_config_from_json_takes_null_val_fraction_and_integer_floats():
    cfg = TrainConfig.from_json({"val_fraction": None, "learning_rate": 1, "weight_decay": 0})
    assert cfg == TrainConfig(learning_rate=1.0, weight_decay=0.0)


class TestFit:
    def test_zero_epochs_returns_initial_params(self):
        cfg = TrainConfig(max_epochs=0, batch_size=2, seed=3)
        res = tr.fit(TINY, cfg, toy_windows(3), toy_windows(1, seed=9))
        assert res.history == []
        from mmstt.model import init_params

        want = init_params(TINY, np.random.default_rng(3))
        for name, p in want.items():
            assert np.array_equal(res.params[name].data, p.data)

    def test_empty_split_rejected(self):
        with pytest.raises(tr.TrainError, match="window"):
            tr.fit(TINY, TrainConfig(max_epochs=1), [], toy_windows(1))

    def test_loss_decreases_when_overfitting(self):
        w = toy_windows(1)
        cfg = TrainConfig(learning_rate=3e-3, weight_decay=0.0, max_epochs=60,
                          patience=60, batch_size=1, seed=0)
        res = tr.fit(TINY, cfg, w, w)
        assert res.history[-1].train_loss < res.history[0].train_loss * 0.5

    def test_fixed_seed_histories_bit_identical(self):
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=5, patience=5, batch_size=2, seed=42)
        a = tr.fit(TINY, cfg, toy_windows(5), toy_windows(2, seed=1))
        b = tr.fit(TINY, cfg, toy_windows(5), toy_windows(2, seed=1))
        assert [(e.train_loss, e.val_loss, e.is_best) for e in a.history] == \
               [(e.train_loss, e.val_loss, e.is_best) for e in b.history]
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_dropout_training_is_seeded_and_active(self):
        from dataclasses import replace

        dcfg = replace(TINY, dropout=0.25)
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=3, patience=3, batch_size=2, seed=5)
        a = tr.fit(dcfg, cfg, toy_windows(4), toy_windows(2, seed=1))
        b = tr.fit(dcfg, cfg, toy_windows(4), toy_windows(2, seed=1))
        plain = tr.fit(TINY, cfg, toy_windows(4), toy_windows(2, seed=1))
        assert [e.train_loss for e in a.history] == [e.train_loss for e in b.history]
        assert [e.train_loss for e in a.history] != [e.train_loss for e in plain.history]

    def test_early_stopping_returns_best_checkpoint(self):
        cfg = TrainConfig(learning_rate=5e-3, max_epochs=40, patience=3, batch_size=2, seed=7)
        res = tr.fit(TINY, cfg, toy_windows(4), toy_windows(2, seed=11))
        assert res.best_val_loss == min(e.val_loss for e in res.history)
        assert res.history[res.best_epoch].is_best
        # no epoch after best_epoch improved, and the run stopped `patience` later
        assert len(res.history) <= res.best_epoch + cfg.patience + 1


def test_write_history_round_trips(tmp_path):
    rows = [tr.EpochStats(0, 0.5, 0.7, True), tr.EpochStats(1, 0.25, 0.71, False)]
    path = tmp_path / "history.csv"
    tr.write_history(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,is_best"
    assert lines[1] == "0,0.5,0.7,1"
    assert float(lines[2].split(",")[1]) == 0.25
