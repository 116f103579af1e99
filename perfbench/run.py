#!/usr/bin/env python3
"""guesslab benchmark: three closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

--trace 0 measures for --seconds and reports the end-to-end metrics:
setup_s (median of several fresh-interpreter set-ups), wall_s, op_p50_ms,
op_p99_ms and peak_rss_mb; times are in reference seconds, scaled by the
host-speed gauge of perfbench/calibrate.py.  --trace 1 makes one pass in seeded order in
which each op runs both untraced and traced, and reports the per-layer
metrics of perfbench/spans.py; the traced pass's spans are written to
.perfbench/runs/.  --workload all runs each workload in its own process and
prints one table.  The last line of stdout is always one JSON object.

The benchmark imports guesslab from src/ next to this directory and refuses
to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench
import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_GAUGE_SAMPLES = 20
RUN_GAUGE_SAMPLES = 10
CHILD_TIMEOUT_S = 170


def import_guesslab():
    if not (SRC / "guesslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no guesslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import guesslab

    if Path(guesslab.__file__).resolve().parent != SRC / "guesslab":
        raise SystemExit(f"perfbench: imported guesslab from {guesslab.__file__}, not {SRC}")
    return guesslab


def build(name, seed, tiny=False):
    return workloads.build(name, seed, OUT / "work" / f"{name}-{seed}", tiny=tiny)


def setup_probe(name, seed):
    """Runs in a fresh interpreter: import guesslab and build the inputs,
    then gauge the host's speed.  Returns the set-up time and the factor."""
    t0 = time.perf_counter()
    import_guesslab()
    build(name, seed)
    elapsed = time.perf_counter() - t0
    gauge = calibrate.Gauge()
    gauge.burst(SETUP_GAUGE_SAMPLES)
    return {"raw_s": elapsed, "factor": gauge.factor()}


def setup_seconds(name, seed):
    """Median over fresh interpreters of the set-up time in reference
    seconds, and the raw samples."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(s["raw_s"] / s["factor"] for s in samples), samples


def machine(seed):
    from guesslab import _kernels
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": _kernels.backend(),
        "GUESSLAB_KERNELS": os.environ.get("GUESSLAB_KERNELS"),
        "GUESSLAB_MAX_STATES": os.environ.get("GUESSLAB_MAX_STATES"),
        "seed": seed,
        "commit": commit,
    }


def untraced(name, seed, seconds):
    """Times are reported in reference seconds: measured, then divided by
    the run's `calibrate.Gauge` factor.  The raw figures go in the detail."""
    setup_s, setup_samples = setup_seconds(name, seed)
    workload = build(name, seed)
    gauge = calibrate.Gauge()
    gauge.burst(RUN_GAUGE_SAMPLES)
    result = bench.measure(workload, seed, seconds, gauge)
    raw = bench.end_to_end(result)
    metrics = {k: v / gauge.factor() for k, v in raw.items()}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}
    detail = {"ops": len(result.times), "samples": result.attempted,
              "first_pass_s": result.first_pass_s, "gauge": gauge.record(),
              "raw": raw, "setup": setup_samples}
    return result, {k: {"value": metrics[k], "unit": units[k]} for k in units}, detail


def traced(name, seed, tiny=False):
    """One pass in seeded order where every op runs both untraced and traced,
    back to back, so the summed difference is the tracing overhead.  Which of
    the pair goes first alternates, since a repeated call runs warmer."""
    import spans

    workload = build(name, seed, tiny)
    order = bench.seeded_order(workload, random.Random(seed))
    result = bench.Result()
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    for i, op in enumerate(order):
        tracer.op_index = i
        if i % 2:
            plain_s += bench.attempt(op, result)
        with tracer:
            traced_s += bench.attempt(op, result)
        if not i % 2:
            plain_s += bench.attempt(op, result)
    left = spans.wrappers_left()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left[:5]}")
    bench.judge(workload, result)
    metrics = spans.layer_metrics(tracer.summary(), tracer.errors, traced_s - plain_s)
    detail = {"untraced_wall_s": plain_s, "traced_wall_s": traced_s, "spans": len(tracer.fn)}
    return result, metrics, detail, tracer, [op.key for op in order]


def one(args):
    import_guesslab()
    info = machine(args.seed)
    if args.trace:
        result, metrics, detail, tracer, keys = traced(args.workload, args.seed)
    else:
        result, metrics, detail = untraced(args.workload, args.seed, args.seconds)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(runs / f"{stem}.spans.npz", keys)
    attempted, failed = result.attempted, result.failed_total
    record = {
        "workload": args.workload, "machine": info, "metrics": metrics, "detail": detail,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "digest": result.digest(), "op_errors": result.errors,
        "op_times_s": result.times,
    }
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload}: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for k, v in detail.items():
        print(f"  {k} = {v}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed}/{attempted})  digest = {result.digest()}")
    for key, err in sorted(result.errors.items())[:10]:
        print(f"  error {key}: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def all_workloads(args):
    """Each workload in its own process (so peak RSS is its own), one table."""
    rows = []
    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=max(600, 4 * args.seconds))
        if proc.returncode != 0 and not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and out["correct"] and proc.returncode == 0
        rows.append((name, out))
    for name, out in rows:
        print(f"{name}: correct={out['correct']} failed={out['failed']}/{out['attempted']}")
        for k, m in out["metrics"].items():
            print(f"  {k:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "workloads": {n: o for n, o in rows}}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return all_workloads(args)
    return one(args)


if __name__ == "__main__":
    sys.exit(main())
