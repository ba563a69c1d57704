"""xorsmp benchmark: one workload per invocation, each in fresh processes.

    python3 perfbench/run.py --workload c1_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it runs WORKERS fresh
``worker.py`` processes one after another, each setting up and measuring for
its share of ``--seconds``; their latencies are pooled, so no one process's
memory layout decides a figure, and ``setup_s`` is their median set-up time.
With ``--trace 1`` one worker records spans and reports the per-layer
metrics.  Every operation's answer is checked, the loop is checked against
the harness functions, and per-operation digests are compared across
processes.  The last line of standard output is one JSON object; the exit
code is 0 only when every check passed.  Workloads and metrics are described
in README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("c1_mix", "tail_r64", "sketch_grid", "dump_replay")
WORKERS = 4
BUDGET_S = 170.0  # the whole invocation, children included

# name -> (unit, better)
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "trial_ms_p50": ("ms", "lower"),
    "trial_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "transcript_bits_mean": ("bits", "lower"),
    "success_rate": ("share", "higher"),
    "ok_frac": ("share", "higher"),
}


def parse_args():
    p = argparse.ArgumentParser(description="xorsmp benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 1 << 32:
        p.error("--seed must lie in [0, 2^32)")
    if not 0 < args.seconds <= 120:
        p.error("--seconds must lie in (0, 120]")
    return args


def environment(root: Path, seed: int) -> dict:
    """What a result needs beside it to be compared: machine, builds, threads."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "git_commit": commit,
        "seed": seed,
    }


class WorkerFailed(Exception):
    pass


def run_worker(root: Path, args, mode: str, seconds: float, deadline: float) -> dict:
    """Start worker.py in a fresh process, wait for it, return its JSON."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(root), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # every start compiles alike
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{mode} worker overran the time budget") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def checks(runs: list) -> list:
    """Correctness, determinism and seed checks over every worker's report."""
    problems = []
    for r in runs:
        problems.extend(r["failures"][:5])
        if r["rerun_digest"] != r["warm_digest"]:
            problems.append("re-running the warm-up operations gave another digest")
        if r["inputs_digest"] == r["inputs_digest_next_seed"]:
            problems.append("seed + 1 gave the same inputs")
    for key in ("warm_digest", "digest"):
        seen = {r[key] for r in runs}
        if len(seen) != 1:
            problems.append(f"{key} differs between processes: {sorted(seen)}")
    return problems


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def report_measure(args, runs) -> dict:
    """Pool every timed operation's scaled latency over the workers.

    Throughput is the operations over the sum of their latencies; the
    percentiles are taken over the pooled per-operation latencies.  Every
    worker ends on a whole round, so each cell is pooled in equal measure.
    """
    first = runs[0]
    op_ms = sorted(v for r in runs for v in r["op_ms"])
    raw_ms = sorted(v for r in runs for v in r["raw_op_ms"])
    ops = len(op_ms)
    failed = sum(len(r["failures"]) for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    setups = [r["setup_s"] for r in runs]
    values = {
        "trials_per_s": ops / math.fsum(op_ms) * 1e3,
        "trial_ms_p50": percentile(op_ms, 0.50),
        "trial_ms_p90": percentile(op_ms, 0.90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "transcript_bits_mean": first["transcript_bits_mean"],
        "success_rate": first["success_rate"],
        "ok_frac": 1.0 - failed / attempted,
    }
    w = args.workload
    print(f"workload {w}: seed {args.seed}, {ops} operations in {len(runs)} processes of "
          f"{args.seconds / len(runs):.3g} s (closed loop, one caller)")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {w:12s} {name:22s} {values[name]:14.6g} {unit:6s} ({better} is better)")
    print(f"  {w:12s} {'failed_frac':22s} {failed / attempted:14.6g} share  "
          f"({failed} of {attempted} operations)")
    print(f"  {ops} latency samples after warm-up, scaled to a host-speed kernel time "
          f"of {first['ref_kernel_ms']} ms; kernel median (ms) "
          + ", ".join(f"{r['kernel_ms']:.4f}" for r in runs))
    print(f"  unscaled: {ops / math.fsum(raw_ms) * 1e3:.5g} operations/s, "
          f"p50 {percentile(raw_ms, 0.5):.4g} ms, p90 {percentile(raw_ms, 0.9):.4g} ms")
    print("  setup_s (scaled like the latencies) "
          + ", ".join(f"{s:.3f}" for s in setups) + "; unscaled "
          + ", ".join(f"{r['raw_setup_s']:.3f}" for r in runs)
          + "; cold first operation (ms) "
          + ", ".join(f"{r['cold_trial_ms']:.1f}" for r in runs))
    print(f"  transcript_bits_mean {first['transcript_bits_mean']:.1f} bits against the "
          f"trivial protocol's 2n = {first['trivial_bits']} bits")
    print(f"  scored prefix: {first['scored_ops']} operations, branches {first['branches']}, "
          f"sha256 {first['digest']}")
    print(f"  checks: {first['equivalence_trials']} trials per process equal to run_trials "
          f"or hd_error_experiment; digests equal across {len(runs)} processes")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()},
    }


def report_trace(args, main) -> dict:
    from tracer import PER_LAYER  # beside this script, on sys.path

    w = args.workload
    layer = main["per_layer"]
    passes = main["passes"]
    print(f"workload {w}: traced run, seed {args.seed}, {passes['ops_per_pass']} operations "
          f"per pass, {len(passes['untraced_s'])} untraced and "
          f"{len(passes['traced_s'])} traced passes")
    for name, (unit, moves) in PER_LAYER.items():
        print(f"  {w:12s} {name:26s} {layer[name]:12.6g} {unit:6s} moves: {moves}")
    print("  self time per operation by layer (ms): "
          + ", ".join(f"{k} {v:.4g}" for k, v in main["layer_self_ms"].items()))
    untraced = statistics.median(passes["untraced_s"])
    traced = statistics.median(passes["traced_s"])
    n = passes["ops_per_pass"]
    print(f"  spans cover {100 * layer['trace.coverage']:.1f}% of operation wall time; "
          f"tracing overhead: untraced {n / untraced:.1f} ops/s against traced "
          f"{n / traced:.1f} ops/s ({100 * layer['trace.overhead']:+.1f}%)")
    print(f"  {main['spans_written']} spans of the first traced pass in {main['spans_file']}")
    failed = len(main["failures"])
    return {
        "correct": True,
        "attempted": main["attempted"],
        "failed": failed,
        "metrics": {k: {"value": layer[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER},
    }


def main() -> int:
    args = parse_args()
    root = HERE.parent
    if not (root / "src" / "xorsmp" / "__init__.py").is_file():
        print(f"error: no xorsmp sources under {root / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    env = environment(root, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            runs = [run_worker(root, args, "trace", args.seconds, deadline)]
        else:
            runs = [
                run_worker(root, args, "measure", args.seconds / WORKERS, deadline)
                for _ in range(WORKERS)
            ]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        result = report_trace(args, runs[0])
    else:
        result = report_measure(args, runs)
    problems = checks(runs)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result["correct"] = not problems
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
