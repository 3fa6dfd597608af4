"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two training-based
experiments carry the `slow` marker and take a few minutes each on a laptop
CPU; everything else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

from mmstt import evaluation as ev
from mmstt import model as md
from mmstt import numerics as nm
from mmstt import rasterize as rz
from mmstt import synth
from mmstt import train as tr
from mmstt.cli import main as cli_main
from mmstt.numerics import Tensor

TINY = md.ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                      embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=16)


def criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number} FAILED: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(0)
    params = md.init_params(TINY, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 2, 6, 8, 8)), dtype=np.float64)
    y = Tensor(rng.normal(size=(1, 2, 1, 8, 8)), dtype=np.float64)
    names = list(params)

    def f(plist):
        return tr.smooth_l1(md.forward(x, dict(zip(names, plist)), TINY), y, beta=1.0)

    t0 = time.time()
    report = nm.grad_check(f, list(params.values()), eps=1e-5, tol=1e-4, sample_size=200)
    elapsed = time.time() - t0
    criterion(
        1,
        report.passed and report.n_checked >= 200 and elapsed < 120,
        f"end-to-end grad check: max_rel_err={report.max_rel_err:.2e} over "
        f"{report.n_checked} entries in {elapsed:.1f}s (tol 1e-4, budget 120s)",
    )


# ---------------------------------------------------------------------------
# 2. Architecture invariants
# ---------------------------------------------------------------------------


def test_criterion_2_architecture_invariants():
    rng = np.random.default_rng(1)
    token_ok = True
    for _ in range(50):
        p = int(rng.choice([2, 4, 8]))
        g = p * int(rng.integers(1, 5))
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.integers(1, 9))
        t_in = int(rng.integers(1, 12))
        cfg = md.ModelConfig(t_in=t_in, t_out=t_in, grid_size=g, patch_size=p,
                             embed_dim=d, n_layers=1, n_heads=heads, ffn_hidden=2 * d)
        token_ok &= cfg.n_tokens == t_in * (g // p) ** 2

    deep = md.ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                          embed_dim=8, n_layers=2, n_heads=2, ffn_hidden=16)
    params = md.init_params(deep, np.random.default_rng(2))
    sink = []
    x1 = Tensor(rng.normal(size=(1, 2, 6, 8, 8)), dtype=np.float32)
    x2 = Tensor(np.concatenate([x1.data, x1.data]), dtype=np.float32)
    y2 = md.forward(x2, params, deep, attn_sink=sink).data
    attn_ok = len(sink) == deep.n_layers and all(
        np.all(np.abs(a.sum(axis=-1) - 1.0) < 1e-6) for a in sink
    )
    batch_ok = np.allclose(y2[0], y2[1], atol=1e-6)

    cfg = md.ModelConfig(t_in=3, t_out=3, c_in=6, grid_size=8, patch_size=4,
                         embed_dim=96, n_layers=1, n_heads=2, ffn_hidden=8)
    idp = md.init_params(cfg, np.random.default_rng(3), dtype=np.float64)
    for name, shape in md.param_shapes(cfg).items():
        if name in ("patch_proj.w", "head_proj.w"):
            idp[name] = Tensor(np.eye(96), dtype=np.float64)
        elif not name.endswith(".gamma"):
            idp[name] = Tensor(np.zeros(shape), dtype=np.float64)
    xr = Tensor(rng.normal(size=(2, 3, 6, 8, 8)), dtype=np.float64)
    tokens = md.tokenize(xr, idp, cfg)
    round_trip_ok = np.array_equal(md.reconstruct_maps(tokens, idp, cfg).data, xr.data)

    criterion(
        2,
        token_ok and attn_ok and batch_ok and round_trip_ok,
        f"token formula (50 configs)={token_ok}, attention rows sum to 1={attn_ok}, "
        f"identity round-trip bit-exact={round_trip_ok}, batch independence={batch_ok}",
    )


# ---------------------------------------------------------------------------
# 3. Pipeline invariants
# ---------------------------------------------------------------------------


def test_criterion_3_pipeline_invariants():
    spec = synth.RegimeSpec(kind="periodic", n_points=80, n_dates=60, amplitude=9.0,
                            period=26.0, trend=0.05, noise_std=0.3, seed=6)
    points, cal = synth.generate(spec)
    grid = rz.GridSpec(bbox=rz.bbox_of_points(points), native_size=32, working_size=8)
    plan = rz.plan_split(60, 10, 10, 0.25)
    cube = rz.build_cube(points, cal, grid, split=plan)

    ring = cube.values[:, 4] ** 2 + cube.values[:, 5] ** 2
    ring_ok = bool(np.all(np.abs(ring - 1.0) < 1e-6))
    static_ok = all(np.array_equal(cube.values[:, c], np.broadcast_to(cube.values[0, c],
                    cube.values[:, c].shape)) for c in (1, 2, 3))
    stats_ok = True
    for c in range(4):
        if cube.norm_stats.constant[c]:
            continue
        region = cube.values[:plan.fit_stop, c]
        stats_ok &= abs(float(region.mean())) < 1e-5
        stats_ok &= abs(float(region.std()) - 1.0) < 1e-4

    raw = points.series
    norm0 = (raw - cube.norm_stats.mean[0]) / cube.norm_stats.std[0]
    round_ok = bool(np.allclose(cube.norm_stats.denormalize(norm0, 0), raw, atol=1e-6))

    windows = rz.make_windows(cube, 10, 10)
    count_ok = len(windows) == 60 - 10 - 10 + 1
    gap_ok = max(plan.train_starts) + 19 < min(plan.val_starts)

    criterion(
        3,
        ring_ok and static_ok and stats_ok and round_ok and count_ok and gap_ok,
        f"sin^2+cos^2=1={ring_ok}, static channels constant={static_ok}, "
        f"fit-range stats={stats_ok}, norm round-trip={round_ok}, "
        f"window count exact={count_ok}, chronological gap={gap_ok}",
    )


# ---------------------------------------------------------------------------
# 4. Optimizer correctness
# ---------------------------------------------------------------------------


def test_criterion_4_optimizer_oracle():
    rng = np.random.default_rng(4)
    max_err = 0.0
    for trial in range(5):
        p_val = float(rng.normal())
        grads = rng.normal(size=100)
        lr = float(rng.uniform(1e-4, 1e-2))
        wd = float(rng.uniform(0.0, 1e-2))
        flat = np.array([p_val])
        state = tr.AdamWState(m=np.zeros(1), v=np.zeros(1))
        m = v = 0.0
        oracle = p_val
        for t, g in enumerate(grads, start=1):
            flat = tr.adamw_step(flat, np.array([g]), state, lr, wd)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            oracle -= lr * ((m / (1 - 0.9**t)) / ((v / (1 - 0.999**t)) ** 0.5 + 1e-8) + wd * oracle)
            max_err = max(max_err, abs(float(flat[0]) - oracle))
    oracle_ok = max_err < 1e-10

    lr, wd = 0.02, 0.5
    flat = np.array([1.0, -3.0])
    state = tr.AdamWState(m=np.zeros(2), v=np.zeros(2))
    decay_ok = True
    for step in range(1, 4):
        flat = tr.adamw_step(flat, np.zeros(2), state, lr, wd)
        decay_ok &= np.allclose(flat, np.array([1.0, -3.0]) * (1 - lr * wd) ** step, rtol=1e-12)

    criterion(4, oracle_ok and decay_ok,
              f"adamw vs scalar oracle over 500 random steps: max |diff|={max_err:.2e} "
              f"(tol 1e-10), zero-grad decay factor exact={decay_ok}")


# ---------------------------------------------------------------------------
# 5. Overfit one window
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_overfit_one_window():
    spec = synth.RegimeSpec(kind="periodic", n_points=60, n_dates=20, amplitude=8.0,
                            period=10.0, noise_std=0.1, seed=4)
    points, cal = synth.generate(spec)
    grid = rz.GridSpec(bbox=rz.bbox_of_points(points), native_size=32, working_size=8)
    cube = rz.build_cube(points, cal, grid, split=rz.plan_split(20, 2, 2, 0.2))
    window = rz.make_windows(cube, t_in=2, t_out=2)[0]
    cfg = md.ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                         embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=32)
    tcfg = tr.TrainConfig(learning_rate=3e-3, weight_decay=0.0, patience=500,
                          max_epochs=500, batch_size=1, seed=0)
    t0 = time.time()
    res = tr.fit(cfg, tcfg, [window], [window])
    elapsed = time.time() - t0
    best = min(e.train_loss for e in res.history)

    # smoothed training loss decreases in >=90% of epochs after epoch 50
    losses = np.array([e.train_loss for e in res.history])
    smoothed = np.convolve(losses, np.ones(9) / 9, mode="valid")
    tail = smoothed[50:]
    frac_down = float(np.mean(np.diff(tail) < 0))

    criterion(5, best < 1e-3 and elapsed < 300 and frac_down >= 0.90,
              f"single-window train loss reached {best:.2e} within "
              f"{len(res.history)} epochs in {elapsed:.0f}s (need <1e-3, budget 300s); "
              f"smoothed loss decreasing in {frac_down:.0%} of epochs after 50 (need >=90%)")


# ---------------------------------------------------------------------------
# 6. Synthetic periodic regime
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_periodic_regime():
    t0 = time.time()
    spec = synth.RegimeSpec(kind="periodic", n_points=200, n_dates=120, amplitude=10.0,
                            period=52.0, noise_std=0.2, seed=0)  # noise = 2% of amplitude
    points, cal = synth.generate(spec)
    grid = rz.GridSpec(bbox=rz.bbox_of_points(points), native_size=64, working_size=16)
    plan = rz.plan_split(120, 10, 10, 0.2)
    cube = rz.build_cube(points, cal, grid, split=plan)
    train_w, val_w = rz.split_windows(rz.make_windows(cube), plan)

    mcfg = md.ModelConfig(t_in=10, t_out=10, c_in=6, grid_size=16, patch_size=4,
                          embed_dim=32, n_layers=2, n_heads=4, ffn_hidden=128)
    tcfg = tr.TrainConfig(learning_rate=1e-4, weight_decay=1e-5, patience=30,
                          max_epochs=600, batch_size=4, seed=0)
    res = tr.fit(mcfg, tcfg, train_w, val_w)
    report = ev.evaluate(ev.predict_windows(res.params, mcfg, val_w), val_w, cube.norm_stats)
    h10 = report.horizon(10)
    elapsed = time.time() - t0
    criterion(
        6,
        h10.r2 >= 0.90 and h10.ssim >= 0.90 and elapsed < 1800,
        f"held-out t+10: r2={h10.r2:.4f} (need >=0.90), ssim={h10.ssim:.4f} (need >=0.90), "
        f"{len(res.history)} epochs in {elapsed:.0f}s (budget 1800s)",
    )


# ---------------------------------------------------------------------------
# 7. Co-seismic regime behavior
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_coseismic_regime():
    # A subsiding bowl with an abrupt upward rebound. The scored series holds
    # its event at t=100, inside the validation-era inputs; kink dynamics are
    # taught by three withheld-from-evaluation series whose events sit inside
    # their training ranges, at dates whose annual aliases stay clear of the
    # scored target range (a lone training event gets memorized against the
    # cyclical date channels and resurfaces as a phantom anniversary).
    base = dict(kind="coseismic_step", n_points=200, n_dates=120, trend=-0.4,
                step_magnitude=20.0, noise_std=0.1)

    def build(step_time, seed):
        spec = synth.RegimeSpec(**base, step_time=step_time, seed=seed)
        points, cal = synth.generate(spec)
        grid = rz.GridSpec(bbox=rz.bbox_of_points(points), native_size=64, working_size=16)
        plan = rz.plan_split(120, 10, 10, 0.2)
        cube = rz.build_cube(points, cal, grid, split=plan)
        return cube, rz.make_windows(cube), plan

    t0 = time.time()
    cube, windows, plan = build(step_time=100, seed=7)
    train_w, _ = rz.split_windows(windows, plan)
    by_start = {w.start_index: w for w in windows}
    # event-free gap windows drive early stopping; the scored windows below
    # never influence training or model selection
    stop_w = [by_start[s] for s in range(plan.train_starts[-1] + 1, plan.val_starts[0])]
    for st, sd in [(20, 17), (29, 27), (38, 37)]:
        aux_cube, aux_windows, aux_plan = build(st, sd)
        aux_train, _ = rz.split_windows(aux_windows, aux_plan)
        train_w += aux_train

    mcfg = md.ModelConfig(t_in=10, t_out=10, c_in=6, grid_size=16, patch_size=4,
                          embed_dim=32, n_layers=2, n_heads=4, ffn_hidden=128)
    tcfg = tr.TrainConfig(learning_rate=1e-4, weight_decay=1e-5, patience=60,
                          max_epochs=300, batch_size=8, seed=0)
    res = tr.fit(mcfg, tcfg, train_w, stop_w)

    group_a = [by_start[s] for s in range(91, 101)]   # event inside the input window
    group_b = [by_start[s] for s in range(81, 91)]    # event inside the target window

    preds_a = ev.predict_windows(res.params, mcfg, group_a)
    y_hat = cube.norm_stats.denormalize(preds_a[:, :, 0], 0)
    y = cube.norm_stats.denormalize(np.stack([w.target for w in group_a])[:, :, 0], 0)
    r2_a = ev.r2(y_hat, y)

    report_b = ev.evaluate(ev.predict_windows(res.params, mcfg, group_b), group_b,
                           cube.norm_stats, event_time_index=100)
    finite_b = all(np.isfinite([h.rmse, h.mae]).all() for h in report_b.horizons)
    flagged_b = len(report_b.flags) == len(group_b)
    elapsed = time.time() - t0
    criterion(
        7,
        r2_a >= 0.85 and finite_b and flagged_b,
        f"event-in-input r2={r2_a:.4f} (need >=0.85); event-in-target report "
        f"finite={finite_b}, all {len(report_b.flags)}/{len(group_b)} windows flagged; "
        f"{len(res.history)} epochs in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Metric oracles
# ---------------------------------------------------------------------------


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(8)
    point_ok = True
    order_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 40))
        y = rng.normal(size=n) * rng.uniform(0.5, 5)
        y_hat = y + rng.normal(size=n)
        rmse_oracle = (sum((a - b) ** 2 for a, b in zip(y_hat, y)) / n) ** 0.5
        mae_oracle = sum(abs(a - b) for a, b in zip(y_hat, y)) / n
        mean_y = sum(y) / n
        r2_oracle = 1 - sum((a - b) ** 2 for a, b in zip(y_hat, y)) / sum((b - mean_y) ** 2 for b in y)
        point_ok &= abs(ev.rmse(y_hat, y) - rmse_oracle) < 1e-10
        point_ok &= abs(ev.mae(y_hat, y) - mae_oracle) < 1e-10
        point_ok &= abs(ev.r2(y_hat, y) - r2_oracle) < 1e-10
        order_ok &= ev.rmse(y_hat, y) >= ev.mae(y_hat, y)

    pearson_ok = True
    for _ in range(100):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        cov = np.mean((a - a.mean()) * (b - b.mean()))
        pearson_ok &= abs(ev.pearson(a, b) - cov / (a.std() * b.std())) < 1e-10

    from test_evaluation import ssim_loop_oracle

    ssim_ok = True
    for _ in range(100):
        b = rng.normal(size=(12, 12))
        a = b + rng.uniform(0.1, 1.0) * rng.normal(size=(12, 12))
        ssim_ok &= abs(ev.ssim(a, b) - ssim_loop_oracle(a, b)) < 1e-8

    criterion(8, point_ok and pearson_ok and ssim_ok and order_ok,
              f"rmse/mae/r2 oracles={point_ok}, pearson oracle={pearson_ok}, "
              f"ssim oracle={ssim_ok}, rmse>=mae universally={order_ok} (100 inputs each)")


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------


def test_criterion_9_pipeline_determinism(tmp_path):
    spec = {"kind": "coseismic_step", "n_points": 60, "n_dates": 44, "trend": -0.3,
            "step_time": 22, "step_magnitude": 10.0, "noise_std": 0.2, "seed": 13}
    model_cfg = {"t_in": 2, "t_out": 2, "c_in": 6, "grid_size": 8, "patch_size": 4,
                 "embed_dim": 8, "n_layers": 1, "n_heads": 2, "ffn_hidden": 16, "dropout": 0.0}
    train_cfg = {"learning_rate": 1e-3, "weight_decay": 1e-5, "patience": 10,
                 "max_epochs": 4, "batch_size": 4, "smooth_l1_beta": 1.0, "seed": 3,
                 "val_fraction": 0.2}
    for name, payload in (("spec", spec), ("model", model_cfg), ("train", train_cfg)):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))

    def run(tag):
        out = tmp_path / tag
        assert cli_main(["synth", "--spec", str(tmp_path / "spec.json"),
                         "--out", str(out / "data.csv")]) == 0
        assert cli_main(["preprocess", "--csv", str(out / "data.csv"),
                         "--out", str(out / "cube.mmst"), "--native-size", "32",
                         "--working-size", "8", "--t-in", "2", "--t-out", "2",
                         "--val-fraction", "0.2"]) == 0
        assert cli_main(["train", "--cube", str(out / "cube.mmst"),
                         "--model-config", str(tmp_path / "model.json"),
                         "--train-config", str(tmp_path / "train.json"),
                         "--out-dir", str(out / "model")]) == 0
        assert cli_main(["eval", "--checkpoint", str(out / "model" / "checkpoint"),
                         "--cube", str(out / "cube.mmst"), "--out-dir", str(out / "report"),
                         "--val-fraction", "0.2", "--event-time", "22"]) == 0
        return out

    a, b = run("a"), run("b")
    same = {}
    for rel in ("data.csv", "model/history.csv", "report/report.json", "report/summary.csv"):
        same[rel] = (a / rel).read_bytes() == (b / rel).read_bytes()
    criterion(9, all(same.values()),
              "byte-identical reruns: " + ", ".join(f"{k}={v}" for k, v in same.items()))
