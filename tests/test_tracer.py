"""The benchmark's tracer (``perfbench/tracer.py``) wraps xorsmp functions
at the module attributes their callers look up.  A rename in ``src/`` would
otherwise break it only when the benchmark runs.  This reads perfbench and
never edits it."""

import importlib.util
from pathlib import Path

from xorsmp import protocol
from xorsmp.bits import sample_pair_with_distance
from xorsmp.coins import CoinSource
from xorsmp.predicate import Predicate, compute_profile

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    owners = [(tracer._resolve(target), attr) for target, attr, _ in tracer.SPAN_TARGETS]
    owners.append((CoinSource, "generator"))
    before = [getattr(owner, attr) for owner, attr in owners]
    # both tails run: profile (3, 2); weight n takes the high branch
    n = 32
    pred = Predicate([1 if k <= 2 or k >= n - 1 else k % 2 for k in range(n + 1)])
    coins = CoinSource.from_seed(11).derive("trial/0")
    x, y = sample_pair_with_distance(n, n, coins.derive("input"))
    tr = tracer.Tracer()
    try:
        tr.install()
        assert all(getattr(o, a) is not f for (o, a), f in zip(owners, before))
        with tr.op(0):
            out = protocol.run_protocol(pred, compute_profile(pred), x, y, "syndrome", coins)
    finally:
        tr.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(owners, before))
    assert out.branch == protocol.BRANCH_HIGH
    seen = {rec[0] for rec in tr.kept}
    # the referee decides its guards with decide_block on the difference,
    # so protocol.hd_decide is wrapped but not called in a run (decide calls
    # are counted below)
    for name in ("p_shared", "pk_shared", "hd_shared", "p_party_messages",
                 "pk_party_messages", "hd_encode_shared", "encode_blocks", "p_referee",
                 "pk_referee", "decide_block"):
        assert f"protocol.{name}" in seen, name
    # the BCH decoder ran under its wrapped name, and never on a zero
    # repetition (the referee skips those, so no weight-0 decode is counted)
    assert "gf2:BchCode.decode_elements" in seen
    assert sum(tr.counts[f"gf2.decode.{kind}"] for kind in ("w1", "w2", "bm", "fail")) > 0
    assert "gf2.decode.w0" not in tr.counts
    # the referee's difference bundle, encoded from x XOR y, encodes its two
    # guards, then, on first read, each threshold stack of the taken tail
    # that the search visited in some block; the parties' bundles encode
    # nothing, as no dump reads them
    t = [tail.branch for tail in protocol.TAILS].index(out.branch)
    run, msgs_a, msgs_b = out.shared.runs[t], out.bundle_a.runs[t], out.bundle_b.runs[t]
    levels = []  # the threshold of each decide_block call of the search

    def verdicts(j, blocks):
        levels.append(j)
        return [v.le for v in protocol.decide_block(msgs_a[j] ^ msgs_b[j], blocks)]

    read = set().union(*protocol.threshold_search(run.c, run.k, verdicts)[1])
    assert tr.counts["hamming.encode_calls"] == 2 + len(read) == 4
    # both guards are decided (the high branch is taken), then one call per
    # threshold asked at each level of the search
    assert tr.counts["hamming.decide_calls"] == 2 + len(levels)
