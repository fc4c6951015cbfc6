"""ewcones benchmark: one seeded workload, measured as a closed loop.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

One caller in one process sends the next operation when the previous one has
returned; BLAS and OpenMP are pinned to one thread here and in every child.
Each operation's result is checked by the oracle outside the timed region.
--trace 0 reports the end-to-end metrics; --trace 1 spends half the time
untraced and half traced and reports the per-layer metrics. The last line of
stdout is one JSON object; the line before it is the run record (inputs
digest and mix, tail percentile and sample count, environment), which is
also written with the spans under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 5
MIN_OPS = 30  # enough for a tail percentile with 10 samples beyond it
MAX_TAIL_WINDOWS = 20
MAX_MISSES_KEPT = 5

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true", help="print every metric with its unit")
    args = parser.parse_args(argv)
    if not args.list_metrics and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "thread_pins": THREAD_PINS,
    }


def setup_probe(workload: str, seed: int, outdir: Path) -> dict:
    """A fresh process that imports ewcones and runs the first operation."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(outdir)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


class Interleaved:
    """Untimed work between operations: candle samples and set-up probes.

    Both are spread over the run, so they see the machine as the operations do.
    """

    def __init__(self, seconds: float, probe, candle):
        self.candle = candle
        self.probe = probe
        self.seconds = seconds
        self.busy = 0.0
        self.setups: list[dict] = []

    def __call__(self, elapsed: float) -> None:
        self.candle.tick(elapsed)
        self.busy += elapsed
        if len(self.setups) < SETUP_PROBES and self.busy >= len(self.setups) * self.seconds / SETUP_PROBES:
            self.setups.append(self.probe())


class Loop:
    """Latencies and failures of one closed-loop stretch."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.busy = 0.0
        self.misses: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return (len(self.latencies) - self.failed) / self.busy


def closed_loop(workload, seconds: float, start: int, tracer=None, count: int = 0, between=None) -> Loop:
    """Run operations back to back, cycling through the items from `start`.

    Stops after `count` operations if given, else once `seconds` of operation
    time is measured. The oracle check and `between` run between operations,
    untimed.
    """
    loop = Loop()
    items = workload.items
    gc.collect()
    k = start
    while (len(loop.latencies) < count) if count else (loop.busy < seconds or len(loop.latencies) < MIN_OPS):
        item = items[k % len(items)]
        k += 1
        if tracer is not None:
            tracer.begin_op()
        elapsed, miss = workload.attempt(item)
        loop.busy += elapsed
        loop.latencies.append(elapsed)
        if miss is not None:
            loop.failed += 1
            if len(loop.misses) < MAX_MISSES_KEPT:
                loop.misses.append(miss)
        if tracer is not None:
            export = workload.child_export()
            if export is not None:
                tracer.absorb(export)
            tracer.end_op(**workload.trace_counts)
        if between is not None:
            between(elapsed)
    return loop


def tail(latencies: list[float], level: float) -> tuple[float, float, int]:
    """Tail latency at a fixed percentile with at least 10 samples beyond it.

    Taken in each of up to 20 consecutive windows that are just large enough
    for that, and the median over the windows is reported, so that one burst
    of noise from outside the program moves one window, not the figure. A
    run too short for one such window falls back to the highest percentile
    with 10 samples beyond it. Returns the value, the percentile and the
    number of windows.
    """
    n = len(latencies)
    need = math.ceil(10 / (1 - level) - 1e-9)
    if n < need:
        level, k = 1 - 10 / n, 1
    else:
        k = min(MAX_TAIL_WINDOWS, n // need)
    values = []
    for i in range(k):
        window = sorted(latencies[i * n // k:(i + 1) * n // k])
        beyond = math.floor((1 - level) * len(window) + 1e-9)
        values.append(window[len(window) - beyond - 1])
    return statistics.median(values), 100 * level, k


def end_to_end(loop: Loop, setups: list[dict], workload, speed: float) -> tuple[dict, dict]:
    """Figures scaled to the candle's reference speed, and as measured."""
    raw = {
        "ops_per_s": loop.ops_per_s,
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
        "latency_tail_ms": tail(loop.latencies, workload.tail_level)[0] * 1e3,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    scaled = {name: value / speed if name == "ops_per_s" else value * speed for name, value in raw.items()}
    scaled["peak_rss_mb"] = workload.peak_rss_mb()
    return scaled, raw


def per_layer(tracer, untraced: Loop, traced: Loop, setups: list[dict]) -> dict:
    totals = tracer.totals()
    ops = tracer.ops
    out = {}
    for name, _, _ in metrics.PER_LAYER:
        head, _, leaf = name.rpartition(".")
        if leaf == "self_ms" and head in metrics.LAYERS:
            value = sum(v for k, v in totals["self_s"].items() if k.startswith(head + ".")) * 1e3
        elif leaf == "self_ms":
            value = totals["self_s"].get(head, 0.0) * 1e3
        elif leaf == "calls" and head.count(".") == 1:
            value = totals["calls"].get(head, 0)
        else:
            continue
        out[name] = value / ops
    counts = tracer.counts
    out["linalg.hermitian_eig.calls_n16"] = counts["linalg.hermitian_eig.calls_n16"] / ops
    out["linalg.hermitian_eig.max_abs_err"] = tracer.max_eig_err
    out["certify.seesaw.eigh_calls"] = counts["numpy.linalg.eigh"] / ops
    out["cones.rows"] = counts["cones.rows"] / ops
    out["cli.bytes_out"] = counts["cli.bytes_out"] / ops
    out["init.import_ms"] = statistics.median(s["import_s"] for s in setups) * 1e3
    out["trace.ops"] = ops
    out["trace.ops_per_s_untraced"] = untraced.ops_per_s
    out["trace.ops_per_s_traced"] = traced.ops_per_s
    out["trace.overhead_ops_per_s"] = untraced.ops_per_s - traced.ops_per_s
    out["trace.overhead_pct"] = 100.0 * (untraced.ops_per_s - traced.ops_per_s) / untraced.ops_per_s
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list_metrics:
        print(metrics.listing())
        return 0
    if not (SRC / "ewcones" / "__init__.py").is_file():
        print(f"ewcones sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is first imported in this process
    sys.path.insert(0, str(SRC))

    outdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)

    def probe():
        return setup_probe(args.workload, args.seed, outdir)

    import ewcones
    import workloads
    from candle import Candle
    from tracer import Tracer

    if Path(ewcones.__file__).resolve().parent != SRC / "ewcones":
        print(f"imported ewcones from {ewcones.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir, child_env())
    # warm-up: the first operation, untimed, as in each set-up sample
    _, warm_miss = workload.attempt(workload.items[0])

    measured: dict = {}
    if args.trace:
        setups = [probe() for _ in range(SETUP_PROBES)]
        # the traced half repeats the untraced half's operations, so the
        # difference in ops_per_s is the tracing overhead alone
        untraced = closed_loop(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        workload.traced = True
        try:
            traced = closed_loop(workload, 0, 1, tracer, count=len(untraced.latencies))
        finally:
            tracer.uninstall()
        loops = [untraced, traced]
        values = per_layer(tracer, untraced, traced, setups)
        tracer.dump(outdir / "spans.jsonl")
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    else:
        between = Interleaved(args.seconds, probe, Candle())
        loops = [closed_loop(workload, args.seconds, 1, between=between)]
        setups = between.setups
        speed = between.candle.speed()
        values, measured["raw"] = end_to_end(loops[0], setups, workload, speed)
        measured["machine_speed"] = speed
        measured["candle_samples"] = len(between.candle.samples)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}

    attempted = sum(len(loop.latencies) for loop in loops) + len(setups) + 1
    failed = sum(loop.failed for loop in loops) + sum(not s["ok"] for s in setups) + (warm_miss is not None)
    _, tail_pct, tail_windows = tail(loops[-1].latencies, workload.tail_level)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process",
        "inputs": workload.summary,
        "latency_tail": {
            "percentile": tail_pct,
            "windows": tail_windows,
            "samples": len(loops[-1].latencies),
        },
        "setup_samples": setups,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "misses": [m for loop in loops for m in loop.misses],
        **measured,
        "environment": environment(),
    }
    latencies_ms = [[round(x * 1e3, 6) for x in loop.latencies] for loop in loops]
    (outdir / "record.json").write_text(json.dumps({**record, "latencies_ms": latencies_ms}, indent=1))
    for name, value in values.items():
        print(f"{name:42s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
