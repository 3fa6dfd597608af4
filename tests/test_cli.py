import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmstt import model as md
from mmstt.cli import main
from mmstt.numerics import Tensor, load_tensor, save_json, save_tensor

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def configs(tmp_path):
    spec = {
        "kind": "periodic", "n_points": 60, "n_dates": 44, "amplitude": 8.0,
        "period": 12.0, "noise_std": 0.1, "seed": 5,
    }
    model_cfg = {
        "t_in": 2, "t_out": 2, "c_in": 6, "grid_size": 8, "patch_size": 4,
        "embed_dim": 8, "n_layers": 1, "n_heads": 2, "ffn_hidden": 16, "dropout": 0.0,
    }
    train_cfg = {
        "learning_rate": 1e-3, "weight_decay": 1e-5, "patience": 5, "max_epochs": 3,
        "batch_size": 8, "smooth_l1_beta": 1.0, "seed": 0, "val_fraction": 0.2,
    }
    paths = {}
    for name, payload in (("spec", spec), ("model", model_cfg), ("train", train_cfg)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return tmp_path, paths


def preprocess(paths, out, val_fraction="0.2"):
    csv = out / "data.csv"
    cube = out / "cube.mmst"
    assert main(["synth", "--spec", paths["spec"], "--out", str(csv)]) == 0
    assert main(["preprocess", "--csv", str(csv), "--out", str(cube),
                 "--native-size", "32", "--working-size", "8",
                 "--t-in", "2", "--t-out", "2", "--val-fraction", val_fraction]) == 0
    return cube


def run_pipeline(tmp_path, paths, run="run"):
    out = tmp_path / run
    cube = preprocess(paths, out)
    assert main(["train", "--cube", str(cube), "--model-config", paths["model"],
                 "--train-config", paths["train"], "--out-dir", str(out / "model")]) == 0
    assert main(["eval", "--checkpoint", str(out / "model" / "checkpoint"),
                 "--cube", str(cube), "--out-dir", str(out / "report"),
                 "--val-fraction", "0.2", "--nodes", "2,3"]) == 0
    return out


def test_pipeline_smoke_end_to_end(configs):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    assert (out / "data.csv").exists()
    assert (out / "cube.mmst").exists()
    assert (out / "cube.mmst.json").exists()
    assert (out / "model" / "history.csv").exists()
    assert (out / "model" / "checkpoint" / "manifest.json").exists()
    report = json.loads((out / "report" / "report.json").read_text())
    assert report["n_windows"] >= 1
    summary = (out / "report" / "summary.csv").read_text().splitlines()
    assert summary[0] == "horizon,rmse,mae,r2,ssim,corr"
    assert len(summary) == 1 + 2  # t+1, t+2
    nodes = (out / "report" / "nodes.csv").read_text().splitlines()
    assert len(nodes) == 1 + 2


def test_zero_epoch_training_still_produces_artifacts(configs, tmp_path):
    tmp_path, paths = configs
    train = json.loads(Path(paths["train"]).read_text())
    train["max_epochs"] = 0
    p = tmp_path / "train0.json"
    p.write_text(json.dumps(train))
    paths = dict(paths, train=str(p))
    out = run_pipeline(tmp_path, paths, run="run0")
    history = (out / "model" / "history.csv").read_text().splitlines()
    assert history == ["epoch,train_loss,val_loss,is_best"]

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=refuse)
    manifest = json.loads((out / "model" / "checkpoint" / "manifest.json").read_text())
    assert manifest["validation_loss"] is None


def test_predict_window(configs):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    pred = out / "pred.mmst"
    assert main(["predict", "--checkpoint", str(out / "model" / "checkpoint"),
                 "--cube", str(out / "cube.mmst"),
                 "--window-start", "0", "--out", str(pred)]) == 0
    from mmstt.numerics import load_tensor

    t = load_tensor(pred)
    assert t.shape == (2, 1, 8, 8)
    sidecar = json.loads((out / "pred.mmst.json").read_text())
    assert sidecar["units"] == "mm"
    assert len(sidecar["target_dates"]) == 2


def test_a_predict_whose_sidecar_fails_leaves_no_sidecar(configs, monkeypatch, capsys):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    pred = out / "pred.mmst"

    def predict(start):
        return main(["predict", "--checkpoint", str(out / "model" / "checkpoint"),
                     "--cube", str(out / "cube.mmst"), "--window-start", start, "--out", str(pred)])

    assert predict("0") == 0

    def full_disk_on_sidecar(target, obj):
        if str(target) == f"{pred}.json":
            raise OSError(28, "No space left on device", str(target))
        save_json(target, obj)

    monkeypatch.setattr("mmstt.numerics.tensorfile.save_json", full_disk_on_sidecar)
    capsys.readouterr()
    assert predict("1") == 1
    assert "No space left on device" in capsys.readouterr().err
    # window 0's target dates must not describe window 1's forecast
    assert not Path(f"{pred}.json").exists()


def test_a_predict_whose_tensor_write_fails_keeps_the_old_forecast_without_a_sidecar(
        configs, monkeypatch, capsys):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    pred = out / "pred.mmst"

    def predict(start):
        return main(["predict", "--checkpoint", str(out / "model" / "checkpoint"),
                     "--cube", str(out / "cube.mmst"), "--window-start", start, "--out", str(pred)])

    assert predict("0") == 0
    old = pred.read_bytes()

    def full_disk(target, t):
        raise OSError(28, "No space left on device", str(target))

    monkeypatch.setattr("mmstt.numerics.tensorfile.save_tensor", full_disk)
    capsys.readouterr()
    assert predict("1") == 1
    assert "No space left on device" in capsys.readouterr().err
    assert pred.read_bytes() == old
    assert not Path(f"{pred}.json").exists()


def test_a_forecast_that_overflows_exits_2_and_writes_nothing(configs, capsys):
    # finite parameters scaled by 1e30 overflow float32 inside the forward
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    ckpt = tmp_path / "huge_params"
    shutil.copytree(out / "model" / "checkpoint", ckpt)
    huge = load_tensor(ckpt / "params.mmst").data * np.float32(1e30)
    assert np.isfinite(huge).all()
    save_tensor(ckpt / "params.mmst", Tensor._wrap(huge))
    pred = tmp_path / "pred.mmst"
    cases = {
        "window start 3:": ["predict", "--checkpoint", str(ckpt), "--cube", str(out / "cube.mmst"),
                            "--window-start", "3", "--out", str(pred)],
        "window start 0:": ["eval", "--checkpoint", str(ckpt), "--cube", str(out / "cube.mmst"),
                            "--out-dir", str(tmp_path / "report"), "--windows", "all"],
    }
    capsys.readouterr()
    for window, argv in cases.items():
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err == f"numerical error: {window} the forecast is not finite\n", err
    assert not pred.exists() and not Path(f"{pred}.json").exists()
    assert not (tmp_path / "report").exists()


def test_rerun_is_byte_identical(configs):
    tmp_path, paths = configs
    a = run_pipeline(tmp_path, paths, run="a")
    b = run_pipeline(tmp_path, paths, run="b")
    for rel in ("data.csv", "model/history.csv", "report/report.json",
                "report/summary.csv", "report/bins.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_validation_failures_exit_1(configs, capsys):
    tmp_path, paths = configs
    assert main(["synth", "--spec", str(tmp_path / "missing.json"), "--out", "x.csv"]) == 1
    assert "not found" in capsys.readouterr().err

    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({"kind": "volcanic"}))
    assert main(["synth", "--spec", str(bad_spec), "--out", str(tmp_path / "x.csv")]) == 1

    assert main(["preprocess", "--csv", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "c.mmst")]) == 1
    assert main(["eval", "--checkpoint", str(tmp_path / "nope"),
                 "--cube", str(tmp_path / "c.mmst"), "--out-dir", str(tmp_path / "r")]) == 1


def test_malformed_inputs_exit_1_without_traceback(configs, capsys):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    cube, ckpt = out / "cube.mmst", out / "model" / "checkpoint"

    def json_file(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    def with_extra_key(path, **extra):
        return {**json.loads(Path(path).read_text()), **extra}

    def damaged_cube(name, data: bytes, sidecar: dict):
        p = tmp_path / name
        p.write_bytes(data)
        Path(f"{p}.json").write_text(json.dumps(sidecar))
        return str(p)

    sidecar = json.loads(Path(f"{cube}.json").read_text())
    cube_size = len(sidecar["calendar"]) * 6 * sidecar["working_size"] ** 2

    def without(d, key):
        return {k: v for k, v in d.items() if k != key}

    manifest = json.loads((ckpt / "manifest.json").read_text())

    def damaged_checkpoint(name, manifest=manifest, remove=None, cut_params=False):
        p = tmp_path / name
        shutil.copytree(ckpt, p)
        (p / "manifest.json").write_text(json.dumps(manifest))
        if remove:
            (p / remove).unlink()
        if cut_params:
            f = p / "params.mmst"
            f.write_bytes(f.read_bytes()[:-4])
        return p

    no_sidecar = tmp_path / "no_sidecar.mmst"
    no_sidecar.write_bytes(cube.read_bytes())
    cut_sidecar = tmp_path / "cut_sidecar.mmst"
    cut_sidecar.write_bytes(cube.read_bytes())
    Path(f"{cut_sidecar}.json").write_text(Path(f"{cube}.json").read_text()[:30])
    cut_manifest = damaged_checkpoint("cut_manifest")
    (cut_manifest / "manifest.json").write_text((ckpt / "manifest.json").read_text()[:30])

    t_in3 = md.ModelConfig.from_json(with_extra_key(paths["model"], t_in=3))
    t_in3_ckpt = tmp_path / "t_in3"
    md.save_checkpoint(t_in3_ckpt, t_in3, md.init_params(t_in3, np.random.default_rng(0)))
    n_dates = len(sidecar["calendar"])

    def cube_holding(name, frame, value):
        p = tmp_path / name
        data = load_tensor(cube).data.copy()
        data[frame, 0, 0, 0] = value
        save_tensor(p, Tensor._wrap(data))
        Path(f"{p}.json").write_text(json.dumps(sidecar))
        return str(p)

    nan_input = cube_holding("nan_input.mmst", 0, np.nan)     # an input of window 0 only
    inf_target = cube_holding("inf_target.mmst", -1, -np.inf)  # a target of the last window only
    nan_ckpt = damaged_checkpoint("nan_params")
    nan_flat = load_tensor(ckpt / "params.mmst").data.copy()
    nan_flat[-1] = np.nan   # the last entry of fusion.b
    save_tensor(nan_ckpt / "params.mmst", Tensor._wrap(nan_flat))

    def evaluate(cube=cube, *extra, checkpoint=ckpt):
        return ["eval", "--checkpoint", str(checkpoint), "--cube", str(cube),
                "--out-dir", str(tmp_path / "report"), *extra]

    def rasterize(csv, *extra):
        return ["preprocess", "--csv", str(csv), "--out", str(tmp_path / "c.mmst"), *extra]

    long_field = tmp_path / "long_field.csv"
    long_field.write_text((out / "data.csv").read_text() + "p,1," + "9" * 200_000 + "\n")
    # eastings and northings times 1e200: still a triangle-rich scatter
    far_apart = tmp_path / "far_apart.csv"
    header, *rows = (out / "data.csv").read_text().splitlines()
    far_apart.write_text("\n".join([header] + [
        ",".join([pid, repr(float(x) * 1e200), repr(float(y) * 1e200), *rest])
        for pid, x, y, *rest in (row.split(",") for row in rows)]) + "\n")

    def train(model=paths["model"], train=paths["train"]):
        return ["train", "--cube", str(cube), "--model-config", model, "--train-config", train,
                "--out-dir", str(tmp_path / "model")]

    cases = {
        "node row and column past the grid": evaluate(cube, "--nodes", "99,99"),
        "negative node pixel": evaluate(cube, "--nodes=-1,-1"),
        "node column past the grid": evaluate(cube, "--nodes", "2,3;0,8"),
        "unknown train config key": train(train=json_file(
            "train_extra.json", with_extra_key(paths["train"], epochs=3))),
        "unknown model config key": train(model=json_file(
            "model_extra.json", with_extra_key(paths["model"], depth=2))),
        "config that is not an object": train(train=json_file("train_list.json", [1, 2])),
        "unknown regime spec key": ["synth", "--spec", json_file(
            "spec_extra.json", with_extra_key(paths["spec"], points=5)),
            "--out", str(tmp_path / "x.csv")],
        "tensor shorter than the fixed header": evaluate(
            damaged_cube("stub.mmst", cube.read_bytes()[:5], sidecar)),
        "tensor cut inside its extents": evaluate(
            damaged_cube("cut.mmst", cube.read_bytes()[:12], sidecar)),
        "tensor whose extents overflow int64": evaluate(damaged_cube(
            "huge.mmst", b"MMST" + struct.pack("<BBB3I", 1, 1, 3, 2**31, 2**31, 2**31), sidecar)),
        "sidecar without calendar": evaluate(
            damaged_cube("no_calendar.mmst", cube.read_bytes(), without(sidecar, "calendar"))),
        "sidecar without split": evaluate(
            damaged_cube("no_split.mmst", cube.read_bytes(), without(sidecar, "split"))),
        "sidecar with a text val_fraction": evaluate(damaged_cube(
            "text_split.mmst", cube.read_bytes(),
            {**sidecar, "split": {**sidecar["split"], "val_fraction": "0.2"}})),
        "cube with no split": evaluate(
            damaged_cube("null_split.mmst", cube.read_bytes(), {**sidecar, "split": None})),
        "sidecar whose norm_stats mean is empty": evaluate(damaged_cube(
            "no_mean.mmst", cube.read_bytes(),
            {**sidecar, "norm_stats": {**sidecar["norm_stats"], "mean": []}})),
        "sidecar with a zero norm_stats std": evaluate(damaged_cube(
            "zero_std.mmst", cube.read_bytes(),
            {**sidecar, "norm_stats": {**sidecar["norm_stats"], "std": [0.0, 1.0, 1.0, 1.0]}})),
        "rank-1 cube with the sidecar's element count": evaluate(damaged_cube(
            "rank1.mmst", b"MMST" + struct.pack("<BBBI", 1, 1, 1, cube_size) + bytes(8 * cube_size),
            sidecar)),
        "model t_in differs from the cube's split": train(model=json_file(
            "model_t_in.json", with_extra_key(paths["model"], t_in=3))),
        "checkpoint manifest without config": evaluate(checkpoint=damaged_checkpoint(
            "no_config", without(manifest, "config"))),
        "checkpoint without params.mmst": evaluate(checkpoint=damaged_checkpoint(
            "no_params", remove="params.mmst")),
        "checkpoint config that needs another parameter count": evaluate(
            checkpoint=damaged_checkpoint(
                "other_config", {**manifest, "config": {**manifest["config"], "ffn_hidden": 32}})),
        "checkpoint without a manifest (an interrupted save)": evaluate(
            checkpoint=damaged_checkpoint("no_manifest", remove="manifest.json")),
        "checkpoint manifest that is a list": evaluate(checkpoint=damaged_checkpoint(
            "list_manifest", [manifest])),
        "truncated checkpoint tensor": evaluate(checkpoint=damaged_checkpoint(
            "cut_params", cut_params=True)),
        "cube without a sidecar": evaluate(no_sidecar),
        "eval --windows all with a val_fraction the cube was not split with": evaluate(
            cube, "--windows", "all", "--val-fraction", "0.9"),
        "eval --windows all with a checkpoint whose t_in differs from the cube's split": evaluate(
            cube, "--windows", "all", checkpoint=t_in3_ckpt),
        "predict with a checkpoint whose t_in differs from the cube's split": [
            "predict", "--checkpoint", str(t_in3_ckpt), "--cube", str(cube),
            "--window-start", "0", "--out", str(tmp_path / "pred.mmst")],
        "eval with a checkpoint holding NaN": evaluate(checkpoint=nan_ckpt),
        "predict with a checkpoint holding NaN": [
            "predict", "--checkpoint", str(nan_ckpt), "--cube", str(cube),
            "--window-start", "0", "--out", str(tmp_path / "pred.mmst")],
        "eval --windows all with a cube holding NaN in an input frame": evaluate(
            nan_input, "--windows", "all"),
        "eval --windows all with a cube holding -inf in a target frame": evaluate(
            inf_target, "--windows", "all"),
        "predict with a cube holding NaN in an input frame": [
            "predict", "--checkpoint", str(ckpt), "--cube", nan_input,
            "--window-start", "0", "--out", str(tmp_path / "pred.mmst")],
        "sidecar with a bbox number too large for a float": evaluate(damaged_cube(
            "huge_bbox.mmst", cube.read_bytes(), {**sidecar, "bbox": [0, 0, 10**400, 1]})),
        "sidecar with a norm_stats mean too large for a float": evaluate(damaged_cube(
            "huge_mean.mmst", cube.read_bytes(),
            {**sidecar, "norm_stats": {**sidecar["norm_stats"], "mean": [10**400, 0, 0, 0]}})),
        "truncated checkpoint manifest": evaluate(checkpoint=cut_manifest),
        "truncated cube sidecar": evaluate(cut_sidecar),
        "sidecar with a calendar entry that is not a date": evaluate(damaged_cube(
            "bad_date.mmst", cube.read_bytes(), {**sidecar, "calendar": ["x", *sidecar["calendar"][1:]]})),
        "sidecar with a 3-number bbox": evaluate(damaged_cube(
            "short_bbox.mmst", cube.read_bytes(), {**sidecar, "bbox": sidecar["bbox"][:3]})),
        "sidecar with a text bbox": evaluate(damaged_cube(
            "text_bbox.mmst", cube.read_bytes(), {**sidecar, "bbox": "abcd"})),
        "zero working size": rasterize(out / "data.csv", "--working-size", "0"),
        "infinite bbox": rasterize(out / "data.csv", "--bbox", "0", "0", "inf", "inf"),
        "bbox that holds no point": rasterize(out / "data.csv", "--bbox", "1e9", "1e9", "2e9", "2e9"),
        "corrupt CSV (field over the csv size limit)": rasterize(long_field),
        "bbox whose squared extent overflows the nearest-site query": rasterize(
            out / "data.csv", "--bbox", "0", "0", "1e305", "1e305", "--t-in", "2", "--t-out", "2"),
        "bbox whose squared extent overflows the cell centers": rasterize(
            out / "data.csv", "--bbox", "0", "0", "1e306", "1e306", "--t-in", "2", "--t-out", "2"),
        "points whose squared extent overflows the triangulation": rasterize(
            far_apart, "--t-in", "2", "--t-out", "2"),
    }
    messages = {
        "checkpoint without params.mmst": "params.mmst",
        "checkpoint config that needs another parameter count": "needs (",
        "checkpoint without a manifest (an interrupted save)": "checkpoint manifest not found",
        "truncated checkpoint tensor": "params.mmst",
        "cube without a sidecar": "cube sidecar not found",
        "cube with no split": "no train/validation split",
        "sidecar whose norm_stats mean is empty": ("no_mean.mmst.json", "norm_stats mean"),
        "sidecar with a zero norm_stats std": ("zero_std.mmst.json", "norm_stats std"),
        "rank-1 cube with the sidecar's element count": "rank1.mmst has shape (",
        "tensor whose extents overflow int64": "payload size",
        "eval --windows all with a val_fraction the cube was not split with": "val_fraction",
        "eval --windows all with a checkpoint whose t_in differs from the cube's split": "t_in=3",
        "predict with a checkpoint whose t_in differs from the cube's split": "t_in=3",
        "eval with a checkpoint holding NaN": ("nan_params/params.mmst", "fusion.b"),
        "predict with a checkpoint holding NaN": ("nan_params/params.mmst", "fusion.b"),
        "eval --windows all with a cube holding NaN in an input frame": (
            "window start 0: the input holds NaN or ±inf"),
        "eval --windows all with a cube holding -inf in a target frame": (
            f"window start {n_dates - 4}: the target holds NaN or ±inf"),
        "predict with a cube holding NaN in an input frame": (
            "window start 0: the input holds NaN or ±inf"),
        "sidecar with a bbox number too large for a float": ("huge_bbox.mmst.json", "bbox"),
        "sidecar with a norm_stats mean too large for a float": (
            "huge_mean.mmst.json", "norm_stats mean"),
        "truncated checkpoint manifest": "cut_manifest/manifest.json",
        "truncated cube sidecar": "cut_sidecar.mmst.json",
        "bbox that holds no point": "no point lies inside bbox",
        "sidecar with a calendar entry that is not a date": ("bad_date.mmst.json", "'x'"),
        "sidecar with a 3-number bbox": ("short_bbox.mmst.json", "bbox"),
        "sidecar with a text bbox": ("text_bbox.mmst.json", "bbox"),
        "infinite bbox": "bbox",
        "bbox whose squared extent overflows the nearest-site query": (
            "bbox (0.0, 0.0, 1e+305, 1e+305)", "squared extent"),
        "bbox whose squared extent overflows the cell centers": (
            "bbox (0.0, 0.0, 1e+306, 1e+306)", "squared extent"),
        "points whose squared extent overflows the triangulation": ("bbox (", "squared extent"),
    }
    # config values of the wrong JSON type or out of range; the message names key and value
    bad_values = [
        ("train", "learning_rate", "0.001"), ("train", "patience", "5"),
        ("train", "batch_size", 2.5), ("train", "seed", "a"),
        ("model", "grid_size", "8"), ("model", "n_layers", 1.5),
        ("spec", "n_points", "40"), ("spec", "center", 5),
        ("model", "patch_size", 0), ("model", "n_heads", 0), ("train", "max_epochs", -3),
        ("train", "learning_rate", -1), ("spec", "noise_std", -1),
        ("train", "seed", -1), ("spec", "seed", -2),
        ("train", "smooth_l1_beta", float("nan")), ("train", "smooth_l1_beta", float("inf")),
        ("train", "smooth_l1_beta", 0), ("train", "learning_rate", float("inf")),
        ("train", "weight_decay", float("inf")),
        ("spec", "radius", float("nan")), ("spec", "period", float("nan")),
        ("spec", "amplitude", float("nan")), ("spec", "amplitude", float("inf")),
        ("spec", "trend", float("nan")), ("spec", "step_magnitude", float("inf")),
        ("spec", "center", [float("nan"), 500.0]), ("spec", "bbox", [10, 10, 0, 0]),
        ("spec", "bbox", [0, 0, float("inf"), 1000]), ("spec", "noise_std", float("inf")),
        ("spec", "start_date", "2018-13-01"), ("spec", "start_date", "9999-12-01"),
        ("spec", "amplitude", 10**400),
        ("spec", "radius", 1e-200), ("spec", "radius", 1e200), ("spec", "center", [1e200, 0]),
        ("spec", "trend", 1e307), ("spec", "noise_std", 1e308),
    ]
    for i, (config, key, value) in enumerate(bad_values):
        name = f"{config} {key}={value!r}"
        path = json_file(f"bad_value{i}.json", with_extra_key(paths[config], **{key: value}))
        cases[name] = (["synth", "--spec", path, "--out", str(tmp_path / "x.csv")]
                       if config == "spec" else train(**{config: path}))
        messages[name] = (key, repr(value))
    capsys.readouterr()
    for name, argv in cases.items():
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1, (name, err)
        wanted = messages.get(name, "")
        for part in wanted if isinstance(wanted, tuple) else (wanted,):
            assert part in err, (name, err)


def test_out_of_memory_exits_2_without_traceback(configs, capsys):
    # each size asks numpy for one array of 2**48 bytes, past the 2**47-byte
    # user address space of 64-bit Linux, so the request fails at once
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)

    def json_file(name, config, **extra):
        p = tmp_path / name
        p.write_text(json.dumps({**json.loads(Path(paths[config]).read_text()), **extra}))
        return str(p)

    cases = {
        "synth n_points=2**45": ["synth", "--spec", json_file("huge_spec.json", "spec", n_points=2**45),
                                 "--out", str(tmp_path / "x.csv")],
        "train ffn_hidden=2**42": ["train", "--cube", str(out / "cube.mmst"), "--model-config",
                                   json_file("huge_model.json", "model", ffn_hidden=2**42),
                                   "--train-config", paths["train"],
                                   "--out-dir", str(tmp_path / "model")],
    }
    capsys.readouterr()
    for name, argv in cases.items():
        assert main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1, (name, err)


def test_synth_of_a_two_date_series_prints_one_line(configs, capsys):
    # too few dates for the quadratic and the sinusoid fits: no RankWarning
    tmp_path, paths = configs
    spec = tmp_path / "two_dates.json"
    spec.write_text(json.dumps({**json.loads(Path(paths["spec"]).read_text()), "n_dates": 2}))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "two.csv")]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and out.startswith("synth: wrote 60 points x 2 dates"), out
    assert err == ""


def test_eval_checks_its_flags_before_running_the_model(configs, capsys, monkeypatch):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)

    def refuse(*args, **kwargs):
        raise AssertionError("the model ran before the flags were checked")

    monkeypatch.setattr("mmstt.cli.ev.predict_windows", refuse)
    capsys.readouterr()
    for flags, wanted in ((["--nodes", "2,3;0,8"], "0,8"), (["--nodes", "a,b"], "a,b"),
                          (["--bins", "0"], "--bins"), (["--bins", "1"], "--bins"),
                          (["--event-time", "-5"], "-5 lies outside"),
                          (["--event-time", "100000"], "100000 lies outside")):
        assert main(["eval", "--checkpoint", str(out / "model" / "checkpoint"),
                     "--cube", str(out / "cube.mmst"), "--out-dir", str(tmp_path / "report"),
                     *flags]) == 1, flags
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and wanted in err, (flags, err)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts open descriptors in /proc")
def test_repeated_predict_leaves_no_open_descriptor(configs):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    argv = ["predict", "--checkpoint", str(out / "model" / "checkpoint"),
            "--cube", str(out / "cube.mmst"), "--window-start", "0", "--out", str(out / "pred.mmst")]
    assert main(argv) == 0
    before = len(list(Path("/proc/self/fd").iterdir()))
    for _ in range(20):
        assert main(argv) == 0
    assert len(list(Path("/proc/self/fd").iterdir())) == before


def test_train_refuses_a_val_fraction_the_cube_was_not_split_with(configs, capsys):
    tmp_path, paths = configs
    out = tmp_path / "run"
    cube = preprocess(paths, out, val_fraction="0.4")
    capsys.readouterr()
    assert main(["train", "--cube", str(cube), "--model-config", paths["model"],
                 "--train-config", paths["train"], "--out-dir", str(out / "model")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "val_fraction" in err, err


def test_train_and_eval_default_to_the_cube_split(configs, capsys):
    tmp_path, paths = configs
    out = tmp_path / "run"
    cube = preprocess(paths, out, val_fraction="0.4")
    ckpt = out / "model" / "checkpoint"
    train_cfg = {k: v for k, v in json.loads(Path(paths["train"]).read_text()).items()
                 if k != "val_fraction"}
    (tmp_path / "train_cube_split.json").write_text(json.dumps(train_cfg))
    assert main(["train", "--cube", str(cube), "--model-config", paths["model"],
                 "--train-config", str(tmp_path / "train_cube_split.json"),
                 "--out-dir", str(out / "model")]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--cube", str(cube),
                 "--out-dir", str(out / "report")]) == 0
    report = json.loads((out / "report" / "report.json").read_text())
    assert report["n_windows"] == 16  # round(0.4 * 41) of the 44-date cube's windows

    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--cube", str(cube),
                 "--out-dir", str(out / "report"), "--val-fraction", "0.2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "val_fraction" in err, err


def test_manifest_written_with_resolved_config(configs):
    tmp_path, paths = configs
    out = run_pipeline(tmp_path, paths)
    manifest = json.loads((out / "model" / "run_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["resolved_config"]["train"]["learning_rate"] == 1e-3
    assert manifest["resolved_config"]["model"]["grid_size"] == 8
    assert "created_at" in manifest


def scipy_modules_loaded_by(script: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running `script`
    against the package in this checkout."""
    script += ("\nimport json, sys\n"
               "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_cold_start_loads_no_scipy(configs):
    # scipy is imported only where preprocess, eval and float64 GELU call it
    assert scipy_modules_loaded_by("import mmstt.cli") == []

    tmp_path, paths = configs
    out = tmp_path / "run"
    cube = preprocess(paths, out)
    commands = [
        ["train", "--cube", str(cube), "--model-config", paths["model"],
         "--train-config", paths["train"], "--out-dir", str(out / "model")],
        ["predict", "--checkpoint", str(out / "model" / "checkpoint"), "--cube", str(cube),
         "--window-start", "0", "--out", str(out / "pred.mmst")],
    ]
    script = f"from mmstt.cli import main\nfor argv in {commands!r}:\n    assert main(argv) == 0, argv"
    assert scipy_modules_loaded_by(script) == []
    assert (out / "pred.mmst").is_file()
