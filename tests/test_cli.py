import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from mmstt import model as md
from mmstt.cli import main


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

    def evaluate(cube=cube, *extra, checkpoint=ckpt):
        return ["eval", "--checkpoint", str(checkpoint), "--cube", str(cube),
                "--out-dir", str(tmp_path / "report"), *extra]

    def rasterize(csv, *extra):
        return ["preprocess", "--csv", str(csv), "--out", str(tmp_path / "c.mmst"), *extra]

    long_field = tmp_path / "long_field.csv"
    long_field.write_text((out / "data.csv").read_text() + "p,1," + "9" * 200_000 + "\n")

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
        "truncated checkpoint manifest": evaluate(checkpoint=cut_manifest),
        "truncated cube sidecar": evaluate(cut_sidecar),
        "zero working size": rasterize(out / "data.csv", "--working-size", "0"),
        "corrupt CSV (field over the csv size limit)": rasterize(long_field),
    }
    messages = {
        "checkpoint without params.mmst": "params.mmst",
        "checkpoint config that needs another parameter count": "needs (",
        "checkpoint without a manifest (an interrupted save)": "checkpoint manifest not found",
        "truncated checkpoint tensor": "params.mmst",
        "cube without a sidecar": "cube sidecar not found",
        "cube with no split": "no train/validation split",
        "tensor whose extents overflow int64": "payload size",
        "eval --windows all with a val_fraction the cube was not split with": "val_fraction",
        "eval --windows all with a checkpoint whose t_in differs from the cube's split": "t_in=3",
        "predict with a checkpoint whose t_in differs from the cube's split": "t_in=3",
        "truncated checkpoint manifest": "cut_manifest/manifest.json",
        "truncated cube sidecar": "cut_sidecar.mmst.json",
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
