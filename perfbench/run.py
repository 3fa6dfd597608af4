"""Benchmark of the mmstt pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload raster-ingest --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Every workload drives `mmstt.cli.main` in-process with one client issuing one
command at a time (a closed loop). `--trace 0` reports the end-to-end metrics
with tracing off; `--trace 1` alternates untraced and traced rounds and reports
the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.
Details (environment, every sample, failures, spans) go to
`.perfbench/<workload>-seed<seed>-trace<t>/` under the repository root.
"""

import os
import sys

# BLAS must be pinned before numpy is imported. MMSTT_THREADS stays unset so
# the program uses its default of one rasterization thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("MMSTT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 3       # set-ups per untraced run; setup_s is their median
MIN_BODIES = 2   # timed bodies per untraced run, even past --seconds

END_TO_END = {
    "setup_s": "s",
    "preprocess_s": "s",
    "train_windows_per_s": "windows/s",
    "eval_s": "s",
    "predict_s": "s",
    "peak_rss_mb": "MB",
    "val_loss": "Smooth-L1",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MMSTT_THREADS")


def main(argv=None) -> int:
    if not (SRC / "mmstt" / "cli.py").is_file():
        print(f"perfbench: the mmstt sources are missing: no {SRC / 'mmstt' / 'cli.py'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum time spent in the timed bodies (rounds when tracing)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's own tests")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one predict call that must fail (tests error counting)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args, list(wl.WORKLOADS))

    import mmstt
    if Path(mmstt.__file__).resolve().parent != (SRC / "mmstt").resolve():
        print(f"perfbench: imported mmstt from {mmstt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = wl.tiny(workload)
    return run_one(args, workload)


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def run_one(args, workload) -> int:
    import workloads as wl

    size = "" if args.size == "full" else f"-{args.size}"
    out_dir = OUT / f"{workload.name}{size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = environment()
    env["loadavg_start"] = loadavg()
    cpu_start = cpu_times()
    env["threads_after_warmup"] = threads_after_warmup()
    problems = []
    if env["threads_after_warmup"] not in (None, 1):
        problems.append(f"BLAS ignored the thread pin: {env['threads_after_warmup']} threads "
                        "after a warm-up matmul")

    session = wl.Session(workload, args.seed, out_dir / "work", SRC, args.inject_failure)
    try:
        if args.trace:
            metrics, record = traced_run(session, args.seconds, out_dir)
        else:
            metrics, record = untraced_run(session, args.seconds)
    finally:
        shutil.rmtree(out_dir / "work", ignore_errors=True)
    env["loadavg_end"] = loadavg()
    env["cpu_steal_pct"] = steal_pct(cpu_start, cpu_times())
    problems += record.pop("problems", [])
    failures = session.ledger.failures + problems
    correct = not failures

    record.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, size=args.size, env=env, metrics=metrics,
                  attempted=session.ledger.attempted, failures=failures)
    with (out_dir / "result.json").open("w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print_report(workload.name, args, env, metrics, record, session.ledger)
    result = {
        "correct": correct,
        "attempted": session.ledger.attempted,
        "failed": len(session.ledger.failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def untraced_run(session, seconds: float):
    samples = defaultdict(list)
    for _ in range(SETUPS):
        _merge(samples, session.setup())
    # The first body in a process runs up to 25% slower (the allocator has not
    # yet grown its heap), so it is checked but not timed.
    session.body()
    start = perf_counter()
    bodies = 0
    while bodies < MIN_BODIES or perf_counter() - start < seconds:
        _merge(samples, session.body())
        bodies += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["peak_rss_mb"] = [peak_mb]
    metrics = {}
    for name, unit in END_TO_END.items():
        if samples.get(name):
            metrics[name] = (statistics.median(samples[name]), unit)
    missing = [name for name in END_TO_END if name not in metrics]
    record = {"setups": SETUPS, "bodies": bodies, "samples": dict(samples),
              "problems": [f"no sample of {name}" for name in missing]}
    return metrics, record


def traced_run(session, seconds: float, out_dir: Path):
    """After one untimed warm-up round, rounds (set-up plus body) alternate
    traced and untraced; per-layer metrics are medians over the traced rounds
    and the overhead compares the two kinds of round."""
    import spans as sp

    tracer = sp.Tracer()
    session.setup()
    session.body()
    walls = {False: [], True: []}
    per_round, problems, kept_spans = [], [], []
    start = perf_counter()
    i = 1
    while i < 3 or perf_counter() - start < seconds:
        traced = i % 2 == 1
        t0 = perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            with tracer.span("bench.round") if traced else contextlib.nullcontext():
                session.setup()
                session.body()
        walls[traced].append(perf_counter() - t0)
        if traced:
            spans, counters, tape_nodes, score_bytes = tracer.take()
            problems += sp.check_nesting(spans)
            per_round.append(sp.round_metrics(spans, counters, tape_nodes, score_bytes))
            kept_spans.append(spans)
        i += 1

    names = list(per_round[0])
    metrics = {}
    for name in names:
        values = [m[name] for m in per_round]
        if sp.is_count(name) and len(set(values)) > 1:
            problems.append(f"count {name} differs between rounds: {values}")
        metrics[name] = (statistics.median(values), sp.unit_of(name))
    metrics["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False]),
                                   "s")
    for m in per_round:
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        if abs(layers - m["trace.wall_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
            problems.append(f"self times sum to {layers}, traced wall time is {m['trace.wall_s']}")
    with (out_dir / "spans.json").open("w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "parent", "start", "end"], "rounds": kept_spans}, fh)
    record = {"rounds": i - 1, "round_walls": {"untraced": walls[False], "traced": walls[True]},
              "per_round": per_round, "problems": problems}
    return metrics, record


def _merge(samples, new) -> None:
    for name, values in new.items():
        samples[name].extend(values)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg() -> str | None:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def cpu_times() -> list[int] | None:
    """Machine-wide CPU tick counters (the `cpu` line of /proc/stat)."""
    try:
        return [int(v) for v in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    except (OSError, ValueError, IndexError):
        return None


def steal_pct(start, end) -> float | None:
    """Share of CPU time the hypervisor gave to other guests during the run."""
    if not start or not end or len(start) < 8:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else None


def threads_after_warmup() -> int | None:
    """Thread count of this process after a matmul large enough for OpenBLAS
    to start its pool, if it ignored the pin."""
    import numpy as np

    a = np.ones((512, 512))
    a @ a
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    found = re.search(r"^Threads:\s+(\d+)", status, re.M)
    return int(found[1]) if found else None


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def describe(samples) -> str:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    n = len(samples)
    tail = [p for p in (99, 95, 90, 75) if n * (1 - p / 100) >= 10]
    text = f"median of {n}"
    if tail:
        q = statistics.quantiles(samples, n=100, method="inclusive")[tail[0] - 1]
        text += f", p{tail[0]} {q:.6g}"
    return text


def print_report(name, args, env, metrics, record, ledger) -> None:
    import spans as sp

    print(f"perfbench {name} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']}; " + " ".join(f"{k}={v}" for k, v in env["thread_env"].items())
          + f"; nproc {env['nproc']}; threads after warm-up {env['threads_after_warmup']}; "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}; "
          f"CPU steal {env['cpu_steal_pct']}%")
    samples = record.get("samples", {})
    for metric, (value, unit) in metrics.items():
        note = describe(samples[metric]) if metric in samples else ""
        if metric in sp.COMPUTED:
            note = "computed"
        print(f"  {metric:<34} {value:>14.6g} {unit:<10} {note}")
    rate = len(ledger.failures) / ledger.attempted if ledger.attempted else 0.0
    print(f"  {'error_rate':<34} {rate:>14.6g} {'ratio':<10} "
          f"{len(ledger.failures)} of {ledger.attempted} operations failed")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


# ---------------------------------------------------------------------------
# All workloads, each in a fresh process
# ---------------------------------------------------------------------------


def run_all(args, names) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.inject_failure:
            cmd.append("--inject-failure")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
