"""One workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --seconds S --mode M

Modes:
  measure  set up, check, then time operations for S seconds, untraced
  trace    set up (code builds and dump writes traced), check, then alternate
           untraced and traced passes over the scored prefix for S seconds

The last line of standard output is one JSON object for run.py.
"""

import time

STARTED = time.perf_counter()  # before xorsmp (and numpy) are imported

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402  (numpy; xorsmp comes later)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("measure", "trace"), required=True)
    return p.parse_args(argv)


CALIBRATE_EVERY_NS = 25_000_000  # time host speed after this much work


def import_workloads(root: Path):
    """Import xorsmp from the checkout's own sources, never an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import xorsmp

    if not Path(xorsmp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"xorsmp was imported from {xorsmp.__file__}, not {src}")
    import workloads

    return workloads


def digest(results) -> str:
    """sha256 over the per-operation (output, branch, cost_bits)."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.output},{r.branch},{r.cost_bits};".encode())
    return h.hexdigest()


def inputs_digest(wl, count: int) -> str:
    h = hashlib.sha256()
    for i in range(count):
        x, y = wl.inputs(i)
        h.update(f"{x:x},{y:x};".encode())
    return h.hexdigest()


class Runner:
    """Runs operations, counting attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures = []

    def run(self, i: int):
        self.attempted += 1
        try:
            res = self.wl.op(i)
        except Exception:  # an operation that raises is counted, not fatal
            self.failures.append(f"op {i} raised:\n{traceback.format_exc()}")
            return None
        if res.failure is not None:
            self.failures.append(f"op {i}: {res.failure}")
        return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def scored_summary(wl, results) -> dict:
    scored = results[: wl.scored_ops]
    branches = {}
    for r in scored:
        branches[r.branch] = branches.get(r.branch, 0) + 1
    return {
        "scored_ops": len(scored),
        "digest": digest(scored),
        "success_rate": sum(r.success for r in scored) / len(scored),
        "transcript_bits_mean": sum(r.cost_bits for r in scored) / len(scored),
        "branches": branches,
    }


def run_pass(runner, count: int, tracer=None):
    """One pass over operations 0..count-1; returns (results, seconds)."""
    results = []
    t0 = time.perf_counter()
    for i in range(count):
        if tracer is None:
            results.append(runner.run(i))
        else:
            with tracer.op(i):
                results.append(runner.run(i))
    return results, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads(args.root)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")

    setup_tracer = None
    if args.mode == "trace":
        import tracer

        setup_tracer = tracer.Tracer()
        setup_tracer.install(tracer.SETUP_TARGETS)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=args.root))
    try:
        wl.prepare(workdir)
    finally:
        workdir.rmdir()
    runner = Runner(wl)
    warm = []
    t0 = time.perf_counter()
    for i in range(wl.warm_ops):  # first touch of the codes and caches
        warm.append(runner.run(i))
        if i == 0:
            cold_ms = (time.perf_counter() - t0) * 1e3
    setup_s = time.perf_counter() - STARTED
    out = {
        "raw_setup_s": setup_s,
        "setup_s": setup_s * HostSpeed().settled_factor(),
        "cold_trial_ms": cold_ms,
        "warm_digest": digest(r for r in warm if r is not None),
        "attempted": runner.attempted,
        "failures": runner.failures,
    }
    if setup_tracer is not None:
        setup_tracer.uninstall()
        out["setup_trace"] = setup_tracer.setup_totals()

    out["equivalence_trials"] = wl.check_equivalence()
    out["inputs_digest"] = inputs_digest(wl, wl.round_len)
    other = workloads.WORKLOADS[args.workload](args.seed + 1)
    out["inputs_digest_next_seed"] = inputs_digest(other, wl.round_len)
    del other

    if args.mode == "measure":
        measure(args, wl, runner, out)
    else:
        trace(args, wl, runner, out)
    out["attempted"] = runner.attempted
    out["failures"] = runner.failures
    out.setdefault("peak_rss_mb", peak_rss_mb())
    print(json.dumps(out))
    return 0


def measure(args, wl, runner, out) -> None:
    """Closed loop, one caller: time each operation until the deadline, then
    finish the round (and at least the scored prefix).  Reports every
    operation's latency, raw and scaled to the reference host speed."""
    results = []  # the scored prefix only, so memory does not grow with the run
    lat_ns = array.array("q")
    host = HostSpeed()
    host.sample(0)
    clock = time.perf_counter_ns
    t_start = last = clock()
    deadline = t_start + int(args.seconds * 1e9)
    i = 0
    while i < wl.scored_ops or i % wl.round_len or clock() < deadline:
        t0 = clock()
        res = runner.run(i)
        t1 = clock()
        lat_ns.append(t1 - t0)
        if i < wl.scored_ops:
            results.append(res)
        i += 1
        if t1 - last >= CALIBRATE_EVERY_NS:
            host.sample(i)
            last = clock()
    host.sample(i)
    out["peak_rss_mb"] = peak_rss_mb()  # before the analysis below allocates
    ok = [r for r in results if r is not None]
    out.update(scored_summary(wl, ok))
    out["rerun_digest"] = digest(ok[: wl.warm_ops])
    factors = host.factors(i).tolist()
    raw_ms = [ns / 1e6 for ns in lat_ns]
    out.update(
        raw_op_ms=raw_ms,
        op_ms=[ms * f for ms, f in zip(raw_ms, factors)],
        ref_kernel_ms=host.ref_ms,
        kernel_ms=host.median_ms(),
        trivial_bits=wl.trivial_bits,
    )


def trace(args, wl, runner, out) -> None:
    """Untraced and traced passes over the scored prefix, alternating."""
    import tracer as tracer_mod

    tr = tracer_mod.Tracer()
    count = wl.scored_ops
    plain_s, traced_s = [], []
    deadline = time.perf_counter() + args.seconds
    results = None
    while not traced_s or time.perf_counter() < deadline:
        res, secs = run_pass(runner, count)
        plain_s.append(secs)
        results = results or res
        tr.install()
        try:
            res, secs = run_pass(runner, count, tr)
        finally:
            tr.uninstall()
        tr.keep = False  # spans of the first traced pass are written out
        traced_s.append(secs)
    ok = [r for r in results if r is not None]
    out.update(scored_summary(wl, ok))
    out["rerun_digest"] = digest(ok[: wl.warm_ops])
    metrics = tr.per_op()
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    setup = out["setup_trace"]
    metrics["gf2.code_build_s"] = setup["gf2.code_build_s"]
    metrics["protocol.dump_write_ms"] = (
        setup["dump_write_ns"] / 1e6 / setup["dumps_written"] if setup["dumps_written"] else 0.0
    )
    n = len(ok)
    for b in ("low", "high", "parity"):
        metrics[f"protocol.branch.{b}"] = out["branches"].get(b, 0) / n
    out["per_layer"] = metrics
    out["layer_self_ms"] = tr.layer_self_ms()
    out["passes"] = {"untraced_s": plain_s, "traced_s": traced_s, "ops_per_pass": count}
    path = args.root / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write_jsonl(path)
    out["spans_file"] = str(path.relative_to(args.root))
    out["spans_written"] = len(tr.kept)


if __name__ == "__main__":
    sys.exit(main())
