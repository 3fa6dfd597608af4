"""The three benchmark workloads: their inputs, the `mmstt` commands they run
in-process through `mmstt.cli.main`, and the checks on every output.

A set-up makes the inputs (and, for the train workloads, the cube); a body
runs the timed commands once. Every CLI command is one operation: it fails
when it exits non-zero, prints a traceback, or its output fails a check.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from mmstt import cli
from mmstt import evaluation as ev
from mmstt import rasterize
from mmstt.numerics import load_tensor

VAL_FRACTION = 0.2
BATCH_SIZE = 4
GAP_ROW_SHARE = 0.02      # share of points given blank displacement cells
N_UNPARSEABLE_ROWS = 3
N_PREDICTS = 6            # windows forecast per body, evenly spaced over the cube


@dataclass(frozen=True)
class Workload:
    name: str
    regime: dict              # RegimeSpec fields; the seed comes from --seed
    native_size: int
    working_size: int
    model: dict               # ModelConfig fields
    epochs: int               # patience > epochs, so exactly this many run
    cube_in_setup: bool       # the train workloads build their cube in set-up
    corrupt_csv: bool         # blank cells and unparseable rows, as EGMS gaps would

    @property
    def t_in(self) -> int:
        return self.model["t_in"]

    @property
    def t_out(self) -> int:
        return self.model["t_out"]

    @property
    def n_dates(self) -> int:
        return self.regime["n_dates"]

    @property
    def rows_dropped(self) -> int:
        if not self.corrupt_csv:
            return 0
        return round(GAP_ROW_SHARE * self.regime["n_points"]) + N_UNPARSEABLE_ROWS

    def split(self) -> tuple[int, int]:
        """(train windows, val windows) of the chronological split, computed
        here independently of the program."""
        span = self.t_in + self.t_out
        n_windows = self.n_dates - span + 1
        n_val = max(1, round(VAL_FRACTION * n_windows))
        val_start = n_windows - n_val
        n_train = sum(1 for s in range(n_windows) if s + span - 1 < val_start)
        return n_train, n_val


def _model(**kw) -> dict:
    base = dict(t_in=10, t_out=10, c_in=6, grid_size=64, patch_size=8, embed_dim=64,
                n_layers=16, n_heads=4, ffn_hidden=256, dropout=0.0)   # ModelConfig() defaults
    return {**base, **kw}


WORKLOADS = {
    # Ingest and rasterization at paper grid size. Its model leg is tiny
    # (32 tokens, one layer), so preprocess_s never depends on the model.
    "raster-ingest": Workload(
        name="raster-ingest",
        regime=dict(kind="coseismic_step", n_points=2000, n_dates=240, step_time=120,
                    noise_std=0.2),
        native_size=256, working_size=64,
        model=_model(t_in=2, t_out=2, patch_size=16, embed_dim=8, n_layers=1, n_heads=2,
                     ffn_hidden=16),
        epochs=1, cube_in_setup=False, corrupt_csv=True,
    ),
    # Acceptance criterion 6 setting: many small tensors, per-call overhead.
    "train-accept": Workload(
        name="train-accept",
        regime=dict(kind="periodic", n_points=200, n_dates=120, amplitude=10.0, period=52.0,
                    noise_std=0.2),
        native_size=64, working_size=16,
        model=_model(grid_size=16, patch_size=4, embed_dim=32, n_layers=2, ffn_hidden=128),
        epochs=10, cube_in_setup=True, corrupt_csv=False,
    ),
    # ModelConfig() defaults: the N x N attention over 640 tokens dominates.
    "paper-scale": Workload(
        name="paper-scale",
        regime=dict(kind="continuous_subsidence", n_points=400, n_dates=60, trend=-0.5,
                    noise_std=0.2),
        native_size=256, working_size=64,
        model=_model(),
        epochs=1, cube_in_setup=True, corrupt_csv=False,
    ),
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of a workload, for the benchmark's own tests."""
    return dataclasses.replace(
        w,
        regime={**w.regime, "n_points": 120, "n_dates": 30,
                **({"step_time": 15} if "step_time" in w.regime else {})},
        native_size=32, working_size=8,
        model=_model(t_in=2, t_out=2, grid_size=8, patch_size=4, embed_dim=8,
                     n_layers=min(2, w.model["n_layers"]), n_heads=2, ffn_hidden=16),
        epochs=min(2, w.epochs),
    )


class Ledger:
    """Runs `mmstt` commands in-process and records the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str, problem: str) -> None:
        self.failures.append(f"{what}: {problem}")

    def call(self, argv, check=None) -> float | None:
        """Run one command; return its wall time, or None if it failed.
        `check(stdout)` runs after the timed region and returns a problem or None."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:            # argparse rejects bad arguments this way
            code = exc.code
        except Exception:                    # an escaped exception fails the operation
            code = "exception"
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
        text = out.getvalue() + err.getvalue()
        if code != 0 or "Traceback" in text:
            last = [line for line in text.splitlines() if line.strip()][-1:] or [""]
            self.fail(f"mmstt {argv[0]}", f"exit {code}: {last[0]}")
            return None
        if check is not None:
            try:
                problem = check(out.getvalue())
            except Exception as exc:         # a check that cannot read the output fails it
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.fail(f"mmstt {argv[0]}", problem)
                return None
        return wall


class Session:
    """One benchmark run of one workload: set-ups, bodies and their checks."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, src_dir: Path,
                 inject_failure: bool = False):
        self.w = workload
        self.seed = seed
        self.dir = work_dir
        self.src_dir = src_dir
        self.inject_failure = inject_failure
        self.ledger = Ledger()
        self.inputs = work_dir / "setup"       # CSV, configs and cube of the set-up
        self._cube_digest: str | None = None   # first cube written in this run
        self._val_loss = math.nan

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> dict[str, list[float]]:
        """Interpreter and library import, synth, CSV write and, for the train
        workloads, preprocess. Returns the samples it timed."""
        d = self.inputs
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        samples: dict[str, list[float]] = {}
        t0 = perf_counter()
        self._time_import()
        (d / "regime.json").write_text(json.dumps(self.w.regime))
        self.ledger.call(["synth", "--spec", d / "regime.json", "--out", d / "data.csv",
                          "--seed", self.seed])
        if self.w.corrupt_csv:
            corrupt_csv(d / "data.csv", self.seed, self.w.regime["n_points"])
        (d / "model.json").write_text(json.dumps(self.w.model))
        (d / "train.json").write_text(json.dumps({
            "learning_rate": 1e-4, "weight_decay": 1e-5, "patience": self.w.epochs + 1,
            "max_epochs": self.w.epochs, "batch_size": BATCH_SIZE, "seed": self.seed,
            "val_fraction": VAL_FRACTION,
        }))
        if self.w.cube_in_setup:
            samples["preprocess_s"] = _listed(self._preprocess(d))
        samples["setup_s"] = [perf_counter() - t0]
        return samples

    def _time_import(self) -> None:
        """A fresh interpreter importing the CLI and its libraries."""
        self.ledger.attempted += 1
        proc = subprocess.run([sys.executable, "-c", "import mmstt.cli"],
                              env=_child_env(self.src_dir), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            self.ledger.fail("import mmstt.cli", proc.stderr.strip()[-200:])

    # -- timed body ---------------------------------------------------------------

    def body(self) -> dict[str, list[float]]:
        """One pass of the workload's timed commands. Each starts with a
        preprocess of the set-up's CSV; where set-up already built the cube
        this rewrites it with identical bytes (checked) and adds a sample."""
        w, d = self.w, self.inputs
        out = self.dir / "body"
        shutil.rmtree(out, ignore_errors=True)
        samples: dict[str, list[float]] = defaultdict(list)
        samples["preprocess_s"] += _listed(self._preprocess(d))

        n_train, n_val = w.split()
        wall = self.ledger.call(
            ["train", "--cube", d / "cube.mmst", "--model-config", d / "model.json",
             "--train-config", d / "train.json", "--out-dir", out / "model"],
            check=lambda _: self._check_train(out / "model"))
        if wall is not None:
            samples["train_windows_per_s"].append(w.epochs * n_train / wall)
            samples["val_loss"].append(self._val_loss)

        g = w.working_size
        samples["eval_s"] += _listed(self.ledger.call(
            ["eval", "--checkpoint", out / "model" / "checkpoint", "--cube", d / "cube.mmst",
             "--out-dir", out / "report", "--val-fraction", VAL_FRACTION,
             "--nodes", f"{g // 2},{g // 2};{g // 4},{3 * g // 4}"],
            check=lambda _: self._check_report(out / "report" / "report.json", n_val)))

        last_start = self.w.n_dates - w.t_in - w.t_out
        starts = [round(k * last_start / (N_PREDICTS - 1)) for k in range(N_PREDICTS)]
        if self.inject_failure:
            starts.append(last_start + 1)      # no such window: the CLI must exit 1
        for k, start in enumerate(starts):
            pred = out / f"pred{k}.mmst"
            samples["predict_s"] += _listed(self.ledger.call(
                ["predict", "--checkpoint", out / "model" / "checkpoint",
                 "--cube", d / "cube.mmst", "--window-start", start, "--out", pred],
                check=lambda _, pred=pred: self._check_prediction(pred)))
        return samples

    # -- commands with checks -------------------------------------------------------

    def _preprocess(self, d: Path) -> float | None:
        w = self.w
        cube = d / "cube.mmst"
        return self.ledger.call(
            ["preprocess", "--csv", d / "data.csv", "--out", cube,
             "--native-size", w.native_size, "--working-size", w.working_size,
             "--t-in", w.t_in, "--t-out", w.t_out, "--val-fraction", VAL_FRACTION],
            check=lambda stdout: self._check_cube(cube, stdout))

    def _check_cube(self, path: Path, stdout: str) -> str | None:
        """Dropped rows as planted; bytes equal to the run's first cube; the
        read side (`load_cube` + `make_windows`) returns what was written."""
        found = re.search(r"(\d+) rows dropped", stdout)
        if found is None or int(found[1]) != self.w.rows_dropped:
            return f"expected {self.w.rows_dropped} rows dropped, output says {stdout.strip()!r}"
        raw = path.read_bytes()
        hasher = hashlib.sha256(raw)
        hasher.update(Path(f"{path}.json").read_bytes())
        digest = hasher.hexdigest()
        if self._cube_digest is None:
            self._cube_digest = digest
        elif digest != self._cube_digest:
            return "cube bytes differ from the first cube written in this run"
        cube = rasterize.load_cube(path)
        windows = rasterize.make_windows(cube, t_in=self.w.t_in, t_out=self.w.t_out)
        g = self.w.working_size
        shape = (self.w.n_dates, 6, g, g)
        written = np.frombuffer(raw, dtype="<f8", offset=7 + 4 * len(shape))
        if cube.values.shape != shape or not np.array_equal(cube.values.ravel(), written):
            return "re-read cube differs from the written bytes"
        if len(windows) != self.w.n_dates - self.w.t_in - self.w.t_out + 1:
            return f"make_windows returned {len(windows)} windows"
        return None

    def _check_train(self, out: Path) -> str | None:
        with (out / "history.csv").open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.w.epochs:
            return f"history.csv has {len(rows)} epochs, expected {self.w.epochs}"
        losses = [float(r["train_loss"]) for r in rows] + [float(r["val_loss"]) for r in rows]
        if not all(math.isfinite(v) for v in losses):
            return "history.csv holds a non-finite loss"
        if not (out / "checkpoint" / "manifest.json").is_file():
            return "no checkpoint manifest"
        self._val_loss = float(rows[-1]["val_loss"])
        return None

    def _check_report(self, path: Path, n_val: int) -> str | None:
        with path.open(encoding="utf-8") as fh:
            data = json.load(fh)
        horizons = [ev.HorizonMetrics(**{k: math.nan if v is None else v for k, v in h.items()})
                    for h in data["horizons"]]
        if len(horizons) != self.w.t_out or data["n_windows"] != n_val:
            return f"report has {len(horizons)} horizons over {data['n_windows']} windows"
        if not all(math.isfinite(h.rmse) and math.isfinite(h.mae) for h in horizons):
            return "report holds a non-finite loss"
        try:
            ev.ForecastReport(horizons=horizons, bins=[], nodes=[],
                              n_windows=data["n_windows"]).check_invariants()
        except ev.EvalError as exc:
            return f"report breaks ForecastReport invariants: {exc}"
        return None

    def _check_prediction(self, path: Path) -> str | None:
        pred = load_tensor(path).data
        g = self.w.working_size
        if pred.shape != (self.w.t_out, 1, g, g) or not np.isfinite(pred).all():
            return f"prediction has shape {pred.shape} or non-finite values"
        return None


def corrupt_csv(path: Path, seed: int, n_points: int) -> None:
    """Blank a short run of displacement cells in GAP_ROW_SHARE of the rows and
    make N_UNPARSEABLE_ROWS other rows unparseable; `preprocess` drops them all."""
    rng = np.random.default_rng([seed, 1])
    lines = path.read_text(encoding="utf-8").splitlines()
    n_gap = round(GAP_ROW_SHARE * n_points)
    rows = rng.choice(np.arange(1, n_points + 1), size=n_gap + N_UNPARSEABLE_ROWS, replace=False)
    first_date_col = 6
    for r in rows[:n_gap]:
        fields = lines[r].split(",")
        k = int(rng.integers(1, 5))
        start = int(rng.integers(first_date_col, len(fields) - k + 1))
        fields[start:start + k] = [""] * k
        lines[r] = ",".join(fields)
    bad_static, truncated, bad_value = rows[n_gap:]
    fields = lines[bad_static].split(",")
    fields[1] = "n/a"
    lines[bad_static] = ",".join(fields)
    lines[truncated] = ",".join(lines[truncated].split(",")[:-5])
    fields = lines[bad_value].split(",")
    fields[int(rng.integers(first_date_col, len(fields)))] = "#VALUE!"
    lines[bad_value] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _child_env(src_dir: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src_dir)}


def _listed(value) -> list[float]:
    return [] if value is None else [value]
