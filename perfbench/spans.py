"""In-memory span tracer that wraps the public functions of the mmstt layers.

Each layer is timed at the name its caller looks up: a wrapper replaces every
reference to a function in every loaded `mmstt` module, so `train.forward` and
`evaluation.forward` are traced as well as `model.forward`. The backward time
of a primitive comes from wrapping the closure each forward hands to
`GradTape.record`. Nothing under `src/` is changed; `installed()` restores the
original functions when it exits.

A span is `[id, name, parent_id, start, end]` with `perf_counter` seconds.
Span names are `<layer>.<function>`; the layer is the text before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

# the differentiable primitives of mmstt.numerics that the model calls
NUMERIC_OPS = ("matmul", "softmax_last_axis", "scale", "gelu", "layer_norm", "broadcast_add",
               "reshape", "transpose", "add", "slice_axis", "conv1x1")
LAYERS = ("synth", "ingest", "rasterize", "numerics", "model", "train", "evaluation", "cli")
CLI_COMMANDS = ("synth", "preprocess", "train", "eval", "predict")


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.tape_nodes: list[int] = []       # nodes recorded per GradTape.gradients call
        self.attn_score_bytes = 0             # largest softmax input seen
        self._open_tapes: dict[int, int] = {}

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, parent, perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]][1] if self._stack else None

    def wrap(self, name, fn, after=None):
        """Return `fn` timed as span `name`, or as the name a no-argument
        callable `name` returns at call time. `after(args, result)` updates
        counters once `fn` returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installing wrappers ------------------------------------------------

    def _patch_everywhere(self, fn, wrapper) -> None:
        """Replace every module-level reference to `fn` in loaded mmstt modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mmstt" or mod_name.startswith("mmstt.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Trace the mmstt layers for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        from mmstt import cli, evaluation, ingest, model, rasterize, synth, train
        from mmstt.numerics import tensor, tensorfile

        every = self._patch_everywhere
        every(synth.generate, self.wrap("synth.generate", synth.generate))
        every(ingest.write_csv, self.wrap("ingest.write_csv", ingest.write_csv))
        every(ingest.parse_csv, self.wrap("ingest.parse_csv", ingest.parse_csv, self._count_rows))

        for fname in ("build_cube", "save_cube", "load_cube", "make_windows"):
            fn = getattr(rasterize, fname)
            every(fn, self.wrap(f"rasterize.{fname}", fn,
                                self._count_cube_bytes if fname == "save_cube" else None))
        self._patch_attr(rasterize.GridInterpolator, "__call__",
                         self.wrap("rasterize.interp", rasterize.GridInterpolator.__call__))

        for op in NUMERIC_OPS:
            fn = getattr(tensor, op)
            after = {"matmul": self._count_matmul,
                     "softmax_last_axis": self._count_scores}.get(op)
            every(fn, self.wrap(f"numerics.{op}", fn, after))
        every(tensorfile.save_tensor, self.wrap("numerics.save_tensor", tensorfile.save_tensor,
                                                self._count_saved))
        every(tensorfile.load_tensor, self.wrap("numerics.load_tensor", tensorfile.load_tensor,
                                                self._count_loaded))
        self._patch_tape(tensor.GradTape)

        def forward_name():
            return "model.forward.train" if tensor.active_tape() is not None else "model.forward.infer"

        every(model.forward, self.wrap(forward_name, model.forward))
        for fname in ("tokenize", "encoder_layer", "multi_head_attention", "reconstruct_maps",
                      "save_checkpoint", "load_checkpoint"):
            fn = getattr(model, fname)
            every(fn, self.wrap(f"model.{fname}", fn))

        every(train.fit, self.wrap("train.fit", train.fit))
        every(train.smooth_l1, self.wrap("train.loss", train.smooth_l1))
        every(train.adamw_step, self.wrap("train.optimizer", train.adamw_step))
        every(train._dataset_loss, self.wrap("train.val", train._dataset_loss))

        for fname in ("predict_windows", "evaluate", "ssim"):
            fn = getattr(evaluation, fname)
            every(fn, self.wrap(f"evaluation.{fname}", fn))
        for fname in ("write_report_json", "write_summary_csv", "write_nodes_csv", "write_bins_csv"):
            fn = getattr(evaluation, fname)
            every(fn, self.wrap("evaluation.write_reports", fn))

        every(cli.main, self.wrap("cli.main", cli.main))
        for command in CLI_COMMANDS:
            fn = getattr(cli, f"cmd_{command}")
            every(fn, self.wrap(f"cli.{command}", fn))

    def _patch_tape(self, tape_cls) -> None:
        tracer = self
        record, gradients = tape_cls.record, tape_cls.gradients

        def traced_record(tape, out, inputs, backward):
            name = tracer.current_name() or "numerics.unknown"
            bwd_flops = 0
            if name == "numerics.matmul":
                bwd_flops = 2 * _matmul_flops(inputs[0].shape, out.shape)
            tracer._open_tapes[id(tape)] = tracer._open_tapes.get(id(tape), 0) + 1

            def timed_backward(g):
                sid = tracer.open(name + ".bwd")
                try:
                    return backward(g)
                finally:
                    tracer.close(sid)
                    tracer.counters["matmul_flops"] += bwd_flops

            return record(tape, out, inputs, timed_backward)

        def traced_gradients(tape, loss, params):
            tracer.tape_nodes.append(tracer._open_tapes.pop(id(tape), 0))
            with tracer.span("numerics.gradients"):
                return gradients(tape, loss, params)

        self._patch_attr(tape_cls, "record", traced_record)
        self._patch_attr(tape_cls, "gradients", traced_gradients)

    # -- counters -------------------------------------------------------------

    def _count_rows(self, args, result) -> None:
        self.counters["ingest.rows"] += len(result.points)
        self.counters["ingest.rows_dropped"] += result.n_dropped

    def _count_cube_bytes(self, args, result) -> None:
        self.counters["rasterize.cube_bytes"] += _tensor_file_bytes(args[1].values)

    def _count_matmul(self, args, result) -> None:
        self.counters["matmul_flops"] += _matmul_flops(args[0].shape, result.shape)

    def _count_scores(self, args, result) -> None:
        self.attn_score_bytes = max(self.attn_score_bytes, args[0].data.nbytes)

    def _count_saved(self, args, result) -> None:
        self.counters["numerics.bytes_written"] += _tensor_file_bytes(args[1].data)

    def _count_loaded(self, args, result) -> None:
        self.counters["numerics.bytes_read"] += _tensor_file_bytes(result.data)

    def take(self):
        """Return and reset the spans and counters gathered so far."""
        taken = (self.spans, dict(self.counters), self.tape_nodes, self.attn_score_bytes)
        self.spans, self.tape_nodes, self.attn_score_bytes = [], [], 0
        self.counters = defaultdict(float)
        return taken


def _matmul_flops(a_shape, out_shape) -> int:
    """2*M*N*K multiply-adds of one forward matmul (computed, not measured)."""
    return 2 * math.prod(out_shape) * a_shape[-1]


def _tensor_file_bytes(arr) -> int:
    """Size of the MMST file for `arr`: 7-byte header, u32 extents, payload."""
    return 7 + 4 * arr.ndim + arr.nbytes


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced round
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[sid] for sid, _, _, start, end in spans]


def check_nesting(spans) -> list[str]:
    """Problems with the span tree: unclosed spans, children outside their
    parent, negative self time."""
    problems = []
    for sid, name, parent, start, end in spans:
        if end is None:
            problems.append(f"span {name} never closed")
        elif parent is not None:
            p = spans[parent]
            if not (p[3] <= start <= end <= p[4]):
                problems.append(f"span {name} lies outside its parent {p[1]}")
    if not problems:
        for (_, name, *_), s in zip(spans, self_times(spans)):
            if s < -1e-9:
                problems.append(f"span {name} has negative self time {s}")
    return problems[:5]


def round_metrics(spans, counters, tape_nodes, attn_score_bytes) -> dict[str, float]:
    """Per-layer metrics of one traced round; span 0 is the round's root."""
    selfs = self_times(spans)
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    for (sid, name, _, start, end), s in zip(spans, selfs):
        total[name] += end - start
        self_by_name[name] += s
        calls[name] += 1

    m: dict[str, float] = {}
    m["synth.generate_s"] = total["synth.generate"]
    m["ingest.write_csv_s"] = total["ingest.write_csv"]
    m["ingest.parse_csv_s"] = total["ingest.parse_csv"]
    m["ingest.rows"] = counters.get("ingest.rows", 0)
    m["ingest.rows_dropped"] = counters.get("ingest.rows_dropped", 0)

    for fname in ("build_cube", "save_cube", "load_cube", "make_windows"):
        m[f"rasterize.{fname}_s"] = total[f"rasterize.{fname}"]
    m["rasterize.interp_calls"] = calls["rasterize.interp"]
    m["rasterize.cube_bytes"] = counters.get("rasterize.cube_bytes", 0)

    for op in NUMERIC_OPS:
        m[f"numerics.{op}.calls"] = calls[f"numerics.{op}"]
        m[f"numerics.{op}.fwd_s"] = total[f"numerics.{op}"]
        m[f"numerics.{op}.bwd_s"] = total[f"numerics.{op}.bwd"]
    m["numerics.gradients_s"] = self_by_name["numerics.gradients"]
    m["numerics.tape_nodes_per_step"] = _median(tape_nodes) if tape_nodes else 0
    gflop = counters.get("matmul_flops", 0) / 1e9
    matmul_s = m["numerics.matmul.fwd_s"] + m["numerics.matmul.bwd_s"]
    m["numerics.matmul.gflop"] = gflop
    m["numerics.matmul.gflop_per_s"] = gflop / matmul_s if matmul_s > 0 else 0.0
    m["numerics.attn_score_mb"] = attn_score_bytes / 2**20
    m["numerics.save_tensor_s"] = total["numerics.save_tensor"]
    m["numerics.load_tensor_s"] = total["numerics.load_tensor"]
    m["numerics.bytes_written"] = counters.get("numerics.bytes_written", 0)
    m["numerics.bytes_read"] = counters.get("numerics.bytes_read", 0)

    m["model.forward.train_s"] = total["model.forward.train"]
    m["model.forward.infer_s"] = total["model.forward.infer"]
    for fname in ("tokenize", "encoder_layer", "multi_head_attention", "reconstruct_maps",
                  "save_checkpoint", "load_checkpoint"):
        m[f"model.{fname}_s"] = total[f"model.{fname}"]

    m.update(_train_metrics(spans, total, calls))

    m["evaluation.predict_windows_s"] = total["evaluation.predict_windows"]
    m["evaluation.evaluate_self_s"] = self_by_name["evaluation.evaluate"]
    m["evaluation.ssim_calls"] = calls["evaluation.ssim"]
    m["evaluation.ssim_s"] = total["evaluation.ssim"]
    m["evaluation.write_reports_s"] = total["evaluation.write_reports"]

    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = total[f"cli.{command}"]
    layer_self = defaultdict(float)
    for (_, name, *_), s in zip(spans, selfs):
        layer_self[name.split(".", 1)[0]] += s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["bench.self_s"] = layer_self["bench"]
    m["trace.wall_s"] = spans[0][4] - spans[0][3]
    m["trace.spans"] = len(spans)
    return m


def _train_metrics(spans, total, calls) -> dict[str, float]:
    """A step runs from one `adamw_step` return to the next; the first step
    of an epoch starts when `fit` starts or the validation pass returns."""
    children = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append(span)
    step_s = in_step_s = backward_s = 0.0
    for sid, name, _, start, _ in spans:
        if name != "train.fit":
            continue
        anchor = start
        for _, child, _, c_start, c_end in children[sid]:
            if child == "train.val":
                anchor = c_end
                continue
            in_step_s += c_end - c_start
            if child == "numerics.gradients":
                backward_s += c_end - c_start
            elif child == "train.optimizer":
                step_s += c_end - anchor
                anchor = c_end
    return {
        "train.steps": calls["train.optimizer"],
        "train.step_s": step_s,
        "train.loss_s": total["train.loss"],
        "train.backward_s": backward_s,
        "train.optimizer_s": total["train.optimizer"],
        "train.val_s": total["train.val"],
        "train.step_other_s": step_s - in_step_s,
    }


def _median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


_UNITS = {
    "numerics.matmul.gflop": "GFLOP",
    "numerics.matmul.gflop_per_s": "GFLOP/s",
    "numerics.attn_score_mb": "MB",
    "rasterize.cube_bytes": "B",
    "numerics.bytes_written": "B",
    "numerics.bytes_read": "B",
}
# derived from shapes and byte layouts, not timed
COMPUTED = ("numerics.matmul.gflop", "numerics.attn_score_mb", "rasterize.cube_bytes",
            "numerics.bytes_written", "numerics.bytes_read")


def unit_of(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    return "s" if name.endswith("_s") else "count"


def is_count(name: str) -> bool:
    """Counts and byte totals, which must repeat exactly from round to round."""
    return unit_of(name) in ("count", "B") or name in COMPUTED
