"""Command-line pipeline: synth -> preprocess -> train -> predict/eval.

Model and training hyperparameters come from JSON config files; flags carry
only paths, seeds, and geometry. Every command writes a run manifest with its
resolved configuration so a run can be reproduced exactly. Exit codes:
0 success, 1 validation error, 2 runtime or numerical error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import ingest, model, rasterize, synth, train
from .numerics import Tensor, load_json, save_json, save_tensor


class ValidationFailure(ValueError):
    pass


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValidationFailure(f"{what} not found: {p}")
    return p


def _write_manifest(out_dir: Path, command: str, seed, config: dict, inputs: dict, outputs: dict):
    manifest = {
        "command": command,
        "seed": seed,
        "resolved_config": config,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "artifacts": {k: str(v) for k, v in outputs.items()},
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    save_json(out_dir / "run_manifest.json", manifest)


def _cube_windows(cube_path, model_cfg, val_fraction=None):
    """The cube and all its windows, window `s` at index `s`. The model must
    fit the cube's grid and the split fixed at preprocess; `val_fraction` may
    only restate the split's."""
    cube = rasterize.load_cube(_require_file(cube_path, "cube file"))
    split = cube.split
    if cube.values.shape[-1] != model_cfg.grid_size:
        raise ValidationFailure(
            f"cube working size {cube.values.shape[-1]} != model grid size {model_cfg.grid_size}"
        )
    if (split.t_in, split.t_out) != (model_cfg.t_in, model_cfg.t_out):
        raise ValidationFailure(
            f"cube split was planned for t_in={split.t_in}, t_out={split.t_out}; "
            f"the model has t_in={model_cfg.t_in}, t_out={model_cfg.t_out}"
        )
    if val_fraction is not None and val_fraction != split.val_fraction:
        raise ValidationFailure(
            f"val_fraction {val_fraction} differs from the cube's {split.val_fraction}, "
            "which its statistics were fitted for; rerun preprocess to change the split"
        )
    return cube, rasterize.make_windows(cube, t_in=model_cfg.t_in, t_out=model_cfg.t_out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = synth.RegimeSpec.from_json(load_json(args.spec, "regime spec"))
    if args.seed is not None:
        spec = synth.RegimeSpec.from_json({**spec.to_json(), "seed": args.seed})
    points, calendar = synth.generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ingest.write_csv(out, points, calendar)
    _write_manifest(out.parent, "synth", spec.seed, spec.to_json(),
                    {"spec": args.spec}, {"csv": out})
    print(f"synth: wrote {len(points)} points x {len(calendar)} dates to {out}")
    return 0


def cmd_preprocess(args) -> int:
    result = ingest.parse_csv(_require_file(args.csv, "input csv"))
    if not result.points:
        raise ValidationFailure(f"{args.csv}: no usable points")
    for row, reason in result.dropped:
        print(f"preprocess: dropped row {row}: {reason}", file=sys.stderr)
    bbox = tuple(args.bbox) if args.bbox else rasterize.bbox_of_points(result.points)
    grid = rasterize.GridSpec(bbox=bbox, native_size=args.native_size, working_size=args.working_size)
    plan = rasterize.plan_split(len(result.calendar), args.t_in, args.t_out, args.val_fraction)
    cube = rasterize.build_cube(result.points, result.calendar, grid, split=plan)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rasterize.save_cube(out, cube)
    config = {
        "native_size": args.native_size, "working_size": args.working_size,
        "bbox": list(bbox), "t_in": args.t_in, "t_out": args.t_out,
        "val_fraction": args.val_fraction, "n_points": len(result.points),
        "n_dropped": result.n_dropped, "fit_stop": plan.fit_stop,
    }
    _write_manifest(out.parent, "preprocess", None, config, {"csv": args.csv},
                    {"cube": out, "sidecar": f"{out}.json"})
    print(f"preprocess: cube {cube.values.shape} written to {out} "
          f"(stats fitted on t<{plan.fit_stop}, {result.n_dropped} rows dropped)")
    return 0


def cmd_train(args) -> int:
    model_cfg = model.ModelConfig.from_json(load_json(args.model_config, "model config"))
    train_cfg = train.TrainConfig.from_json(load_json(args.train_config, "train config"))
    if args.seed is not None:
        train_cfg = train.TrainConfig.from_json({**train_cfg.to_json(), "seed": args.seed})
    cube, windows = _cube_windows(args.cube, model_cfg, train_cfg.val_fraction)
    train_windows, val_windows = rasterize.split_windows(windows, cube.split)
    result = train.fit(model_cfg, train_cfg, train_windows, val_windows)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(out_dir / "checkpoint", model_cfg, result.params,
                          train_step=result.total_steps, val_loss=result.best_val_loss)
    train.write_history(out_dir / "history.csv", result.history)
    _write_manifest(out_dir, "train", train_cfg.seed,
                    {"model": model_cfg.to_json(), "train": train_cfg.to_json()},
                    {"cube": args.cube,
                     "model_config": args.model_config,
                     "train_config": args.train_config},
                    {"checkpoint": out_dir / "checkpoint", "history": out_dir / "history.csv"})
    print(f"train: {len(result.history)} epochs ({result.total_steps} steps), "
          f"best val loss {result.best_val_loss:.6f} at epoch {result.best_epoch}")
    return 0


def cmd_predict(args) -> int:
    ckpt = Path(args.checkpoint)
    model_cfg, params, _ = model.load_checkpoint(ckpt)
    cube, windows = _cube_windows(args.cube, model_cfg)
    if not 0 <= args.window_start < len(windows):
        raise ValidationFailure(
            f"window start {args.window_start} not available (0..{len(windows) - 1})"
        )
    pred = ev.predict_windows(params, model_cfg, [windows[args.window_start]])[0]  # (T_out, 1, H, W)
    pred_mm = cube.norm_stats.denormalize(pred, 0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_tensor(out, Tensor(pred_mm, dtype=np.float64))
    target_dates = cube.calendar.dates[
        args.window_start + model_cfg.t_in: args.window_start + model_cfg.t_in + model_cfg.t_out
    ]
    sidecar = {
        "units": "mm",
        "window_start": args.window_start,
        "target_dates": [d.isoformat() for d in target_dates],
        "shape": list(pred_mm.shape),
    }
    save_json(f"{out}.json", sidecar)
    _write_manifest(out.parent, "predict", None, sidecar,
                    {"checkpoint": ckpt, "cube": args.cube}, {"prediction": out})
    print(f"predict: forecast for window {args.window_start} written to {out}")
    return 0


def _parse_nodes(raw: str, size: int) -> list[tuple[int, int]]:
    pixels = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            h, w = (int(v) for v in part.split(","))
        except ValueError:
            raise ValidationFailure(f"bad --nodes entry {part!r}; expected 'row,col'") from None
        if not (0 <= h < size and 0 <= w < size):
            raise ValidationFailure(f"--nodes pixel {part!r} lies outside the {size}x{size} working grid")
        pixels.append((h, w))
    return pixels


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    model_cfg, params, _ = model.load_checkpoint(ckpt)
    cube, windows = _cube_windows(args.cube, model_cfg, args.val_fraction)
    if args.windows == "val":
        _, windows = rasterize.split_windows(windows, cube.split)
    report = ev.evaluate(
        ev.predict_windows(params, model_cfg, windows), windows, cube.norm_stats,
        node_pixels=_parse_nodes(args.nodes, cube.values.shape[-1]) if args.nodes else None,
        n_bins=args.bins,
        event_time_index=args.event_time,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ev.write_report_json(out_dir / "report.json", report)
    ev.write_summary_csv(out_dir / "summary.csv", report)
    ev.write_nodes_csv(out_dir / "nodes.csv", report)
    ev.write_bins_csv(out_dir / "bins.csv", report)
    _write_manifest(out_dir, "eval", None,
                    {"windows": args.windows, "val_fraction": args.val_fraction,
                     "bins": args.bins, "event_time": args.event_time},
                    {"checkpoint": ckpt, "cube": args.cube},
                    {"report": out_dir / "report.json", "summary": out_dir / "summary.csv"})
    for h in report.horizons:
        print(f"eval: t+{h.step}: rmse={h.rmse:.4f} mae={h.mae:.4f} r2={h.r2:.4f} "
              f"ssim={h.ssim:.4f} corr={h.pearson:.4f}")
    for flag in report.flags:
        print(f"eval: flag: {flag}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmstt",
        description="Multi-modal spatio-temporal displacement forecasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic deformation dataset as CSV")
    p.add_argument("--spec", required=True, help="RegimeSpec JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="rasterize a CSV into a normalized data cube")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True, help="output cube path (sidecar adds .json)")
    p.add_argument("--native-size", type=int, default=256)
    p.add_argument("--working-size", type=int, default=64)
    p.add_argument("--bbox", type=float, nargs=4, metavar=("XMIN", "YMIN", "XMAX", "YMAX"),
                   default=None, help="defaults to the data extent")
    p.add_argument("--t-in", type=int, default=10)
    p.add_argument("--t-out", type=int, default=10)
    p.add_argument("--val-fraction", type=float, default=0.2,
                   help="fixes the split, and with it the training time range the "
                        "statistics are fitted on; stored in the cube sidecar")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--model-config", required=True, help="ModelConfig JSON")
    p.add_argument("--train-config", required=True, help="TrainConfig JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the train config's seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="forecast one window with a trained checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--cube", required=True)
    p.add_argument("--window-start", type=int, required=True)
    p.add_argument("--out", required=True, help="output tensor path (mm)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a checkpoint and emit report files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--windows", choices=("val", "all"), default="val")
    p.add_argument("--val-fraction", type=float, default=None,
                   help="may only restate the cube's split (default: the cube's)")
    p.add_argument("--nodes", default=None, help="semicolon-separated 'row,col' pixels")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--event-time", type=int, default=None,
                   help="time index of a known abrupt event, for flagging")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FloatingPointError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValidationFailure, ValueError, OSError) as exc:
        # IngestError, RasterizeError, SynthError, ModelError, TrainError,
        # EvalError, and bad/missing files all land here
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
