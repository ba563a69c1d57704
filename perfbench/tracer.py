"""Spans and counters recorded by wrapping public xorsmp functions.

Nothing in ``src/`` changes: while a traced pass runs, each function below
is replaced, at the module attribute its caller looks up, by a wrapper that
records a span (name, start, end, parent, operation).  ``protocol`` imports
``encode_blocks`` by name, so the wrapper goes on
``xorsmp.protocol.encode_blocks``; the benchmark loop calls
``hamming.hd_decide`` through the module, so that one goes on
``xorsmp.hamming``.  Spans stay in memory; the first traced pass is written
out as JSON lines when the run ends.

A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# (module or class, attribute, group).  The layer is the group's first word.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("xorsmp.bits", "sample_pair_with_distance", "bits"),
    ("xorsmp.predicate", "oracle", "predicate"),
    ("xorsmp.harness", "oracle", "predicate"),
    ("xorsmp.protocol", "p_shared", "coins"),
    ("xorsmp.harness", "p_shared", "coins"),
    ("xorsmp.protocol", "pk_shared", "coins"),
    ("xorsmp.protocol", "hd_shared", "coins"),
    ("xorsmp.hamming", "hd_shared", "coins"),
    ("xorsmp.protocol", "encode_blocks", "hamming.encode"),
    ("xorsmp.protocol", "hd_encode_shared", "hamming.encode"),
    ("xorsmp.hamming", "hd_encode_shared", "hamming.encode"),
    ("xorsmp.protocol", "decide_block", "hamming.decide"),
    ("xorsmp.protocol", "hd_decide", "hamming.decide"),
    ("xorsmp.hamming", "hd_decide", "hamming.decide"),
    ("xorsmp.gf2:BchCode", "decode_elements", "gf2.decode"),
    ("xorsmp.protocol", "run_protocol", "protocol.run"),
    ("xorsmp.protocol", "p_party_messages", "protocol.party"),
    ("xorsmp.protocol", "pk_party_messages", "protocol.party"),
    ("xorsmp.protocol", "p_referee", "protocol.referee"),
    ("xorsmp.harness", "p_referee", "protocol.referee"),
    ("xorsmp.protocol", "pk_referee", "protocol.referee"),
    ("xorsmp.harness", "parse_transcript", "protocol.dump_parse"),
    ("xorsmp.harness", "bundles_from_transcript", "protocol.dump_parse"),
    ("xorsmp.harness", "replay_transcript_text", "harness.replay"),
)
# Wrapped only while inputs are built and caches warmed, in a traced run.
SETUP_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("xorsmp.gf2:BchCode", "__init__", "gf2.code_build"),
    ("xorsmp.harness", "format_transcript", "protocol.dump_write"),
)
LAYERS = ("coins", "bits", "predicate", "hamming", "gf2", "protocol", "harness")
OP = "op"

# Per-layer metric: (unit, the end-to-end metric and workload it should move).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "coins.shared_ms": ("ms", "trials_per_s on c1_mix and dump_replay"),
    "coins.generator_calls": ("count", "trials_per_s on c1_mix"),
    "coins.shared_mb": ("MB", "peak_rss_mb on tail_r64 (computed from .nbytes)"),
    "bits.sample_ms": ("ms", "trials_per_s on c1_mix and sketch_grid"),
    "predicate.oracle_ms": ("ms", "none: a control"),
    "hamming.encode_ms": ("ms", "trial_ms_p50 on tail_r64, trials_per_s on c1_mix"),
    "hamming.encode_calls": ("count", "trials_per_s on c1_mix"),
    "hamming.decide_ms": ("ms", "trials_per_s on sketch_grid and dump_replay"),
    "hamming.decide_calls": ("count", "trials_per_s on sketch_grid and dump_replay"),
    "hamming.instances_encoded": ("count", "base of hamming.verdict_use_ratio"),
    "hamming.verdict_use_ratio": ("ratio", "trials_per_s on c1_mix (work that is never read)"),
    "hamming.self_ms": ("ms", "trials_per_s on every workload"),
    "gf2.decode_ms": ("ms", "trial_ms_p90 on tail_r64, trials_per_s on sketch_grid"),
    "gf2.decode.w1": ("count", "none: exact decode-path count"),
    "gf2.decode.w2": ("count", "none: exact decode-path count"),
    "gf2.decode.bm": ("count", "none: exact decode-path count"),
    "gf2.decode.fail": ("count", "none: exact decode-path count"),
    "gf2.code_build_s": ("s", "setup_s on tail_r64"),
    "protocol.party_ms": ("ms", "trials_per_s on c1_mix"),
    "protocol.referee_ms": ("ms", "trials_per_s on c1_mix and dump_replay"),
    "protocol.self_ms": ("ms", "trials_per_s on c1_mix"),
    "protocol.branch.low": ("share", "none: exact branch share"),
    "protocol.branch.high": ("share", "none: exact branch share"),
    "protocol.branch.parity": ("share", "none: exact branch share"),
    "protocol.dump_write_ms": ("ms", "setup_s on dump_replay (per dump written)"),
    "protocol.dump_parse_ms": ("ms", "trials_per_s on dump_replay"),
    "harness.replay_ms": ("ms", "trials_per_s on dump_replay"),
    "harness.self_ms": ("ms", "trials_per_s on dump_replay"),
    "harness.glue_ms": ("ms", "trials_per_s on c1_mix"),
    "trace.op_ms": ("ms", "traced operation time; compare trial_ms_p50"),
    "trace.spans_per_op": ("count", "none: tracing volume"),
    "trace.coverage": ("share", "none: share of operation time inside spans"),
    "trace.overhead": ("ratio", "none: traced / untraced pass time - 1"),
}


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _shared_nbytes(out) -> int:
    """Bytes of the coin arrays an hd_shared / pk_shared result holds."""
    arrays = [getattr(out, a, None) for a in ("buckets", "fmat", "fmat_f32", "sort_order", "bounds")]
    partition = getattr(out, "partition", None)
    if partition is not None:
        arrays.append(partition.block_of)
    return sum(a.nbytes for a in arrays if a is not None)


class Tracer:
    """Records spans for the operations run inside ``op`` while installed."""

    def __init__(self):
        self.spans: List[list] = []      # [name, start_ns, end_ns, parent, op_id, child_ns]
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()    # group -> self time
        self.top_ns: Counter = Counter()     # group -> time in spans whose parent is another group
        self.op_ns = 0
        self.ops = 0
        self.kept: List[list] = []
        self.keep = True
        self._saved: List[Tuple[object, str, object]] = []
        self._group: Dict[str, str] = {OP: OP}

    # -- installing wrappers -------------------------------------------------

    def install(self, targets=SPAN_TARGETS) -> None:
        for target, attr, group in targets:
            owner = _resolve(target)
            original = getattr(owner, attr)
            name = f"{target.split('.')[-1]}.{attr}"
            self._group[name] = group
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original, self._hook(attr)))
        if targets is SPAN_TARGETS:
            coin_source = _resolve("xorsmp.coins:CoinSource")
            original = coin_source.generator
            self._saved.append((coin_source, "generator", original))
            counts = self.counts

            def generator(self_):
                counts["coins.generator_calls"] += 1
                return original(self_)

            coin_source.generator = generator

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _hook(self, attr: str) -> Optional[Callable]:
        counts = self.counts
        if attr in ("encode_blocks", "hd_encode_shared"):
            def hook(args, kwargs, out):
                counts["hamming.encode_calls"] += 1
                k = _arg(args, kwargs, 4, "k") if attr == "encode_blocks" else 1
                counts["hamming.instances_encoded"] += k
            return hook
        if attr in ("decide_block", "hd_decide"):
            def hook(args, kwargs, out):
                counts["hamming.decide_calls"] += 1
            return hook
        if attr == "decode_elements":
            def hook(args, kwargs, out):
                if out is None:
                    kind = "fail"
                else:
                    kind = {0: "w0", 1: "w1", 2: "w2"}.get(len(out), "bm")
                counts[f"gf2.decode.{kind}"] += 1
            return hook
        if attr in ("hd_shared", "pk_shared"):
            def hook(args, kwargs, out):
                counts["coins.shared_bytes"] += _shared_nbytes(out)
            return hook
        if attr == "format_transcript":
            def hook(args, kwargs, out):
                counts["protocol.dumps_written"] += 1
            return hook
        return None

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, 0, 0, parent, -1, 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = time.perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    # -- recording operations --------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; aggregates and drops its spans after."""
        self.spans.clear()
        rec = [OP, 0, 0, -1, op_id, 0]
        self.spans.append(rec)
        self.stack.append(0)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()
            self._aggregate(op_id)

    def _aggregate(self, op_id: int) -> None:
        spans, group = self.spans, self._group
        for rec in spans:
            rec[4] = op_id
            g = group[rec[0]]
            dur = rec[2] - rec[1]
            self.self_ns[g] += dur - rec[5]
            parent = rec[3]
            if parent < 0 or group[spans[parent][0]] != g:
                self.top_ns[g] += dur
        self.op_ns += spans[0][2] - spans[0][1]
        self.ops += 1
        self.counts["trace.spans"] += len(spans) - 1
        if self.keep:
            base = len(self.kept)
            self.kept.extend(
                [r[0], r[1], r[2], r[3] + base if r[3] >= 0 else -1, r[4]] for r in spans
            )

    def setup_totals(self) -> Dict[str, float]:
        """Totals of a set-up phase traced with SETUP_TARGETS."""
        totals = Counter()
        for rec in self.spans:
            totals[self._group[rec[0]]] += rec[2] - rec[1]
        return {
            "gf2.code_build_s": totals["gf2.code_build"] / 1e9,
            "dump_write_ns": totals["protocol.dump_write"],
            "dumps_written": self.counts["protocol.dumps_written"],
        }

    # -- reporting --------------------------------------------------------------

    def per_op(self) -> Dict[str, float]:
        ops = self.ops
        ms = lambda ns: ns / 1e6 / ops  # noqa: E731
        layer_self = defaultdict(int)
        for g, ns in self.self_ns.items():
            layer_self[g.split(".")[0]] += ns
        encoded = self.counts["hamming.instances_encoded"]
        out = {
            "coins.shared_ms": ms(self.top_ns["coins"]),
            "coins.generator_calls": self.counts["coins.generator_calls"] / ops,
            "coins.shared_mb": self.counts["coins.shared_bytes"] / 1e6 / ops,
            "bits.sample_ms": ms(self.top_ns["bits"]),
            "predicate.oracle_ms": ms(self.top_ns["predicate"]),
            "hamming.encode_ms": ms(self.top_ns["hamming.encode"]),
            "hamming.encode_calls": self.counts["hamming.encode_calls"] / ops,
            "hamming.decide_ms": ms(self.top_ns["hamming.decide"]),
            "hamming.decide_calls": self.counts["hamming.decide_calls"] / ops,
            "hamming.instances_encoded": encoded / ops,
            "hamming.verdict_use_ratio": (
                self.counts["hamming.decide_calls"] / encoded if encoded else 0.0
            ),
            "hamming.self_ms": ms(layer_self["hamming"]),
            "gf2.decode_ms": ms(self.top_ns["gf2.decode"]),
            "protocol.party_ms": ms(self.self_ns["protocol.party"]),
            "protocol.referee_ms": ms(self.self_ns["protocol.referee"]),
            "protocol.self_ms": ms(layer_self["protocol"]),
            "protocol.dump_parse_ms": ms(self.top_ns["protocol.dump_parse"]),
            "harness.replay_ms": ms(self.top_ns["harness.replay"]),
            "harness.self_ms": ms(layer_self["harness"]),
            "harness.glue_ms": ms(self.self_ns[OP]),
            "trace.op_ms": ms(self.op_ns),
            "trace.spans_per_op": self.counts["trace.spans"] / ops,
            "trace.coverage": 1.0 - self.self_ns[OP] / self.op_ns,
        }
        for kind in ("w1", "w2", "bm", "fail"):
            out[f"gf2.decode.{kind}"] = self.counts[f"gf2.decode.{kind}"] / ops
        return out

    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per layer per operation, glue included."""
        totals = defaultdict(int)
        for g, ns in self.self_ns.items():
            totals["glue" if g == OP else g.split(".")[0]] += ns
        return {layer: totals[layer] / 1e6 / self.ops for layer in LAYERS + ("glue",)}

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, op_id) in enumerate(self.kept):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
