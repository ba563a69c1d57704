import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsmp import gf2, harness, protocol
from xorsmp.bits import BitVector, sample_pair_with_distance
from xorsmp.coins import CoinSource, c_of_k
from xorsmp.hamming import STRATEGIES, HDParams
from xorsmp.harness import (
    TrialConfig, auto_weights, replay_transcript_text, resolve_predicate, run_trials,
)
from xorsmp.predicate import (
    Predicate,
    compute_profile,
    eq_predicate,
    family,
    ham_predicate,
    oracle,
    parity_predicate,
)
from xorsmp.protocol import (
    ALICE,
    BOB,
    BRANCH_HIGH,
    BRANCH_LOW,
    BRANCH_PARITY,
    DIFFERENCE,
    Transcript,
    TranscriptEntries,
    bundles_from_transcript,
    format_transcript,
    p_party_messages,
    p_referee,
    p_shared,
    p_total_cost,
    p_transcript_entries,
    parse_transcript,
    pk_party_messages,
    pk_referee,
    pk_shared,
    run_protocol,
    threshold_params,
    transcript_cost,
)

from .oracles import complement, entry_rows

ROOT = CoinSource.from_seed(0xACE)


def all_pairs(n):
    for xv in range(1 << n):
        for yv in range(1 << n):
            yield BitVector(n, xv), BitVector(n, yv)


def test_pk_epsilon_budget_identity():
    # per-instance budget makes the union bound land exactly on 1/10
    for k in (1, 2, 4, 7, 8, 16, 32, 64):
        sh = pk_shared(k, 64, "syndrome", ROOT.derive(f"eps/{k}"))
        assert sh.c == c_of_k(k)
        params = threshold_params(k, "syndrome", 64)
        assert sh.params is params
        assert [p.d for p in params] == list(range(sh.c + 1))
        epsilon = params[0].epsilon
        assert all(p.epsilon == epsilon for p in params)
        total = k * max(1.0, math.log2(sh.c)) * epsilon
        assert abs(total - 0.1) < 1e-12


def test_pk_degenerate_k1():
    sh = pk_shared(1, 8, "syndrome", ROOT.derive("k1"))
    assert sh.c == 1
    assert len(sh.stacks) == 2  # thresholds 0 and 1
    assert sh.partition.block_of.tolist() == [0] * 8


@pytest.mark.parametrize("k", [1, 64, 255, 256, 257])
def test_pk_sort_order_is_stable_argsort_of_block_ids(k):
    # the block ids are sorted as the narrowest unsigned type holding k - 1
    # (uint8 up to k = 256, uint16 at 257); the order must be the int64
    # stable argsort's, so each block's positions stay in increasing order
    sh = pk_shared(k, 4096, "syndrome", ROOT.derive(f"sort/{k}"))
    block_of = sh.partition.block_of
    assert block_of.dtype == np.int64
    assert (sh.sort_order == np.argsort(block_of, kind="stable")).all()


def test_pk_message_count_and_symmetry():
    n, k = 64, 4
    sh = pk_shared(k, n, "syndrome", ROOT.derive("cnt"))
    x, y = sample_pair_with_distance(n, 3, ROOT.derive("cnt/in"))
    ma, mb = pk_party_messages(sh, x), pk_party_messages(sh, y)
    assert len(ma) == sh.c + 1
    for j in range(sh.c + 1):
        pas, pbs = ma[j].block_payloads(), mb[j].block_payloads()
        assert len(pas) == len(pbs) == k
        for pa, pb in zip(pas, pbs):
            assert pa.size == pb.size  # identical layout on both sides
    # one entry per (block, threshold) pair per party
    entries_per_party = sh.k * (sh.c + 1)
    assert sum(1 for _ in range(entries_per_party)) == entries_per_party


def test_pk_equal_inputs_yield_d0():
    for spec in ("eq", "parity", "ham:3"):
        pred = family(spec, 32)
        sh = pk_shared(4, 32, "syndrome", ROOT.derive(f"d0/{spec}"))
        x, _ = sample_pair_with_distance(32, 0, ROOT.derive(f"d0in/{spec}"))
        total = pk_referee(sh, pk_party_messages(sh, x ^ x))
        assert pred(total) == pred(0)
        assert total == 0


def test_pk_raw_is_exact_within_cap():
    # raw verdicts are exact, and k <= 8 keeps every block under the cap
    n, k = 10, 5
    pred = parity_predicate(n)
    for w in range(k + 1):
        for i in range(30):
            coins = ROOT.derive(f"rawpk/{w}/{i}")
            x, y = sample_pair_with_distance(n, w, coins.derive("in"))
            sh = pk_shared(k, n, "raw", coins)
            total = pk_referee(sh, pk_party_messages(sh, x ^ y))
            assert total == w
            assert pred(total) == pred(w)


def test_pk_referee_is_lazy(monkeypatch):
    n, k = 128, 8
    coins = ROOT.derive("lazy")
    x, y = sample_pair_with_distance(n, 5, coins.derive("in"))
    sh = pk_shared(k, n, "syndrome", coins)
    visits = []  # the (block, threshold) pairs decided
    decide = protocol.decide_block

    def recording(diff, blocks, *rest):
        visits.extend((i, diff.shared.params.d) for i in blocks)
        return decide(diff, blocks, *rest)

    monkeypatch.setattr(protocol, "decide_block", recording)
    pk_referee(sh, pk_party_messages(sh, x ^ y))
    assert len(set(visits)) == len(visits)
    assert 0 < len(visits) <= k * math.ceil(math.log2(sh.c + 1))


def test_pk_special_case_k0():
    # a tail of length 0 has no promise run: the referee answers D(0) on the
    # low tail and D(n) on the high one, which parity at odd n tells apart
    n = 9
    pred = parity_predicate(n)
    prof = compute_profile(pred)
    assert (prof.r0, prof.r1) == (0, 0) and pred(0) != pred(n)
    x = BitVector.random(n, ROOT.derive("k0/x"))
    for strategy in STRATEGIES:
        sh = p_shared(pred, prof, strategy, ROOT.derive(f"k0/{strategy}"))
        assert list(sh.runs) == [None, None]
        for y, w, branch in ((x, 0, BRANCH_LOW), (complement(x), n, BRANCH_HIGH)):
            res = p_referee(sh, p_party_messages(sh, x ^ y, DIFFERENCE))
            assert (res.branch, res.output, res.sum_h) == (branch, pred(w), 0)


def test_parity_predicate_degenerate_bundle():
    # r0 = r1 = 0: the bundle is two equality fingerprints plus the parity bit
    n = 64
    pred = parity_predicate(n)
    prof = compute_profile(pred)
    sh = p_shared(pred, prof, "syndrome", ROOT.derive("deg"))
    assert list(sh.runs) == [None, None]
    x, _ = sample_pair_with_distance(n, 7, ROOT.derive("degin"))
    bundle = p_party_messages(sh, x, ALICE)
    f = math.ceil(math.log2(10)) + 4
    assert bundle.guards[0].bit_length == f
    assert bundle.guards[1].bit_length == f
    assert sh.plan.party_bits == 2 * f + 1
    assert p_total_cost(prof, n, "syndrome") == 2 * (2 * f + 1)


def test_alice_bundle_independent_of_bob():
    # non-adaptivity: Alice's payloads depend on (x, coins) only
    n = 32
    pred = eq_predicate(n)
    prof = compute_profile(pred)
    coins = ROOT.derive("nonadapt")
    sh = p_shared(pred, prof, "syndrome", coins)
    x = BitVector.random(n, coins.derive("x"))
    b1 = p_party_messages(sh, x, ALICE)
    b2 = p_party_messages(sh, x, ALICE)
    e1 = p_transcript_entries(sh, b1, p_party_messages(sh, BitVector.zeros(n), BOB))
    e2 = p_transcript_entries(sh, b2, p_party_messages(sh, complement(BitVector.zeros(n)), BOB))
    alice1 = [row for row in entry_rows(e1) if row[0] == ALICE]
    alice2 = [row for row in entry_rows(e2) if row[0] == ALICE]
    assert alice1 and alice1 == alice2


def test_cost_decomposition():
    # total = 2 * (promise runs + threshold checks + parity bit), and the
    # arithmetic model matches the bits actually laid out
    n = 128
    cases = [
        (f"cost/{spec}/{strategy}", family(spec, n, ROOT.derive("fam/" + spec)), strategy, 9)
        for spec, strategy in (("ham:5", "syndrome"), ("eq", "bucket"), ("random:10", "raw"))
    ]
    # both tails run: profile (3, 4), at a low, a parity and a high weight
    two_tails = Predicate([1 if k <= 3 or k >= n - 2 else k % 2 for k in range(n + 1)])
    pinned = {"raw": 2_818, "bucket": 27_686, "syndrome": 11_322}
    cases += [
        (f"cost/two-tails/{strategy}/{w}", two_tails, strategy, w)
        for strategy in pinned
        for w in (2, 64, n - 1)
    ]
    for label, pred, strategy, w in cases:
        prof = compute_profile(pred)
        coins = ROOT.derive(label)
        x, y = sample_pair_with_distance(n, w, coins.derive("in"))
        out = run_protocol(pred, prof, x, y, strategy, coins)
        assert out.cost_bits == p_total_cost(prof, n, strategy)
        ba, bb = p_party_messages(out.shared, x, ALICE), p_party_messages(out.shared, y, BOB)
        t = Transcript(header={}, entries=p_transcript_entries(out.shared, ba, bb))
        assert transcript_cost(t) == out.cost_bits
        runs = zip((prof.r0, prof.r1), out.shared.runs, ba.runs, bb.runs)
        for r, run, run_a, run_b in runs:
            assert (run is None) == (run_a is None) == (r == 0)
            if r >= 1:
                sub = sum(params.stack_bits(r) for params in run.params)
                assert sub == sum(m.bit_length for m in run_a) == sum(m.bit_length for m in run_b)
                assert out.cost_bits >= 2 * sub  # superset of the promise run
        if pred is two_tails:
            assert (prof.r0, prof.r1) == (3, 4)
            assert out.cost_bits == pinned[strategy]
            if strategy == "raw":  # exact verdicts pick the branch of w
                assert out.branch == {2: BRANCH_LOW, 64: BRANCH_PARITY}.get(w, BRANCH_HIGH)


def _record_calls(monkeypatch):
    """Wrap ``protocol.encode_blocks`` (promise-run stacks; the guards encode
    through ``hamming``), ``protocol.hd_encode_shared`` (guards),
    ``protocol.hd_shared``, ``protocol.threshold_search`` and
    ``protocol.p_party_messages``, recording each encoded threshold, each
    encoded guard's coin label, each coin label drawn, each search's
    visited thresholds, listed per block, and the party of each bundle
    built; and ``CoinSource.generator``, recording the label of every
    stream opened."""
    seen = {"encode_blocks": [], "hd_encode_shared": [], "hd_shared": [],
            "threshold_search": [], "p_party_messages": [], "generator": []}
    opened = CoinSource.generator

    def generator(self):
        seen["generator"].append(self.path[-1])
        return opened(self)

    monkeypatch.setattr(CoinSource, "generator", generator)
    record = {
        "encode_blocks": lambda args, out: args[0].params.d,
        "hd_encode_shared": lambda args, out: args[0].coins.path[-1],
        "hd_shared": lambda args, out: args[1].path[-1],
        "threshold_search": lambda args, out: out[1],
        "p_party_messages": lambda args, out: args[2],
    }
    for name, what in record.items():
        def wrapper(*args, _name=name, _what=what, _original=getattr(protocol, name)):
            out = _original(*args)
            seen[_name].append(_what(args, out))
            return out
        monkeypatch.setattr(protocol, name, wrapper)
    return seen


# both tails run at n = 64: profile (3, 4)
LAZY_N = 64
LAZY_PRED = Predicate([1 if k <= 3 or k >= LAZY_N - 2 else k % 2 for k in range(LAZY_N + 1)])


def test_parameter_plan_is_built_once(monkeypatch):
    # the plan is a pure function of (r, strategy, n): every trial and the
    # cost model read the same HDParams, built on the first call
    prof = compute_profile(LAZY_PRED)
    sh = p_shared(LAZY_PRED, prof, "syndrome", ROOT.derive("plan/0"))
    assert sh.runs[0].params is threshold_params(prof.r0, "syndrome", LAZY_N)
    assert sh.guards[1].params is protocol.guard_params(prof.r1, "syndrome", LAZY_N)
    built = []
    check = HDParams.__post_init__
    monkeypatch.setattr(HDParams, "__post_init__", lambda self: built.append(self) or check(self))
    coins = ROOT.derive("plan/1")
    x, y = sample_pair_with_distance(LAZY_N, 2, coins.derive("in"))
    out = run_protocol(LAZY_PRED, prof, x, y, "syndrome", coins)
    assert out.cost_bits == p_total_cost(prof, LAZY_N, "syndrome")
    assert all(a.params is b.params for a, b in zip(out.shared.runs, sh.runs))
    # a second p_shared and a cost query of the shape read the same plan
    plans = []
    make_plan = protocol.trial_plan
    monkeypatch.setattr(protocol, "trial_plan", lambda *a: plans.append(make_plan(*a)) or plans[-1])
    assert p_shared(LAZY_PRED, prof, "syndrome", ROOT.derive("plan/2")).plan is sh.plan
    assert p_total_cost(prof, LAZY_N, "syndrome") == out.cost_bits
    assert plans == [sh.plan, sh.plan] and out.shared.plan is sh.plan
    assert built == []


def test_parity_branch_encodes_no_promise_stack(monkeypatch):
    prof = compute_profile(LAZY_PRED)
    assert (prof.r0, prof.r1) == (3, 4)
    seen = _record_calls(monkeypatch)
    for strategy in ("raw", "bucket", "syndrome"):
        for key in seen:
            seen[key].clear()
        coins = ROOT.derive(f"lazy/parity/{strategy}")
        x, y = sample_pair_with_distance(LAZY_N, LAZY_N // 2, coins.derive("in"))
        out = run_protocol(LAZY_PRED, prof, x, y, strategy, coins)
        assert out.branch == BRANCH_PARITY
        assert out.cost_bits == p_total_cost(prof, LAZY_N, strategy)
        assert seen["encode_blocks"] == []
        assert seen["hd_shared"] == ["p/hd0", "p/hd1"]  # the guards only
        assert not any(label.endswith("/partition") for label in seen["generator"])


def test_parity_branch_replay_draws_no_partition(tmp_path, monkeypatch):
    # a dump's entry sizes come from the plan, so replaying a parity-branch
    # dump opens the predicate's and the two guards' streams and nothing else
    cfg = TrialConfig(n=256, predicate_spec="random:16", weights=[128], trials=1,
                      seed=3, strategy="syndrome", dump_dir=tmp_path)
    run_trials(cfg)
    text = next(tmp_path.glob("trial-*.txt")).read_text()
    assert "\tbranch=parity\t" in text.splitlines()[0]
    seen = _record_calls(monkeypatch)
    assert replay_transcript_text(text).consistent
    assert seen["generator"] == ["predicate", "p/hd0", "p/hd1"]


def test_low_branch_encodes_only_visited_thresholds(monkeypatch, tmp_path):
    prof = compute_profile(LAZY_PRED)
    seen = _record_calls(monkeypatch)
    coins = ROOT.derive("lazy/low")
    x, y = sample_pair_with_distance(LAZY_N, 2, coins.derive("in"))
    out = run_protocol(LAZY_PRED, prof, x, y, "syndrome", coins)
    assert out.branch == BRANCH_LOW
    # one search, whose visits are listed per block
    assert len(seen["threshold_search"]) == 1
    assert len(seen["threshold_search"][0]) == prof.r0
    read = sorted(set().union(*seen["threshold_search"][0]))
    c = c_of_k(prof.r0)
    assert c not in read  # the top stack bounds the search and is never read
    # the referee's bundle, encoded from x XOR y, encodes each visited
    # threshold exactly once, and no other one, and its one read guard once;
    # without a dump, no party bundle is built, so none is encoded
    assert seen["p_party_messages"] == [DIFFERENCE]
    assert sorted(seen["encode_blocks"]) == read
    assert seen["hd_encode_shared"] == ["p/hd0"]
    # the hd0 guard settles the trial: hd1 and the tilde run are never drawn
    assert seen["hd_shared"][0] == "p/hd0"
    assert sorted(seen["hd_shared"][1:]) == sorted(f"pk/main/hd/{j}" for j in read)
    partitions = [label for label in seen["generator"] if label.endswith("/partition")]
    assert partitions == ["pk/main/partition"]
    assert "p/hd1" not in seen["generator"]
    assert out.cost_bits == p_total_cost(prof, LAZY_N, "syndrome")
    # writing a dump forces the rest: over the trial and its dump, every
    # stack of both runs is drawn once and encoded once per party, besides
    # the referee's
    ba, bb = p_party_messages(out.shared, x, ALICE), p_party_messages(out.shared, y, BOB)
    entries = p_transcript_entries(out.shared, ba, bb)
    assert transcript_cost(Transcript(header={}, entries=entries)) == out.cost_bits
    everything = [j for r in (prof.r0, prof.r1) for j in range(c_of_k(r) + 1)]
    assert sorted(seen["encode_blocks"]) == sorted(read + 2 * everything)
    assert sorted(seen["hd_encode_shared"]) == sorted(["p/hd0"] + 2 * ["p/hd0", "p/hd1"])
    drawn = [f"pk/{side}/hd/{j}" for side, r in (("main", prof.r0), ("tilde", prof.r1))
             for j in range(c_of_k(r) + 1)]
    assert sorted(seen["hd_shared"]) == sorted(["p/hd0", "p/hd1"] + drawn)
    # and its bytes are those of a trial whose coins were all drawn, and
    # stacks all encoded, before the referee ran
    sh = p_shared(LAZY_PRED, prof, "syndrome", coins)
    eager = [p_party_messages(sh, v, who)
             for v, who in ((x, ALICE), (y, BOB), (x ^ y, DIFFERENCE))]
    for bundle in eager:
        for run in bundle.runs:
            list(run)
        list(bundle.guards)
    assert p_referee(sh, eager[2]).branch == BRANCH_LOW
    forced = p_transcript_entries(sh, *eager[:2])
    assert entry_rows(forced) == entry_rows(entries)
    # run_trials builds the parties' bundles only to write a dump: once
    # each per trial, from _dump_trial, beside the referee's one per trial
    dumped = []
    build = harness.p_party_messages
    monkeypatch.setattr(harness, "p_party_messages",
                        lambda *args: dumped.append(args[2]) or build(*args))
    seen["p_party_messages"].clear()
    cfg = TrialConfig(n=LAZY_N, predicate_spec="ham:3", weights=[2, LAZY_N // 2], trials=2,
                      seed=11, strategy="syndrome", dump_dir=tmp_path)
    run_trials(cfg)
    assert len(list(tmp_path.glob("trial-*.txt"))) == 4
    assert dumped == [ALICE, BOB] * 4
    assert seen["p_party_messages"] == [DIFFERENCE] * 4


def test_unread_stack_payload_is_still_checked(monkeypatch, tmp_path):
    # replay draws only the coins of the stacks the referee reads, yet a
    # payload missing from an unread stack is still named
    cfg = TrialConfig(n=24, predicate_spec="ham:2", weights=[1], trials=1,
                      seed=5, strategy="syndrome", dump_dir=tmp_path)
    run_trials(cfg)
    lines = next(tmp_path.glob("trial-*.txt")).read_text().splitlines()
    c = c_of_k(3)
    label = f"p/pk/main/block/0/hd/{c}"
    seen = _record_calls(monkeypatch)
    assert replay_transcript_text("\n".join(lines) + "\n").consistent
    assert seen["threshold_search"]  # the low branch was taken
    assert f"pk/main/hd/{c}" not in seen["hd_shared"]
    cut = [ln for ln in lines if not ln.startswith(f"Alice\t{label}\t")]
    assert len(cut) == len(lines) - 1
    with pytest.raises(ValueError, match=f"expected Alice '{label}'"):
        replay_transcript_text("\n".join(cut) + "\n")


def test_transcript_cost_basics():
    assert transcript_cost(Transcript(header={})) == 0
    two_bits = Transcript(
        header={},
        entries=TranscriptEntries.from_payloads(
            (ALICE, BOB), ("p/parity", "p/parity"), [np.array([1], dtype=np.uint8)] * 2
        ),
    )
    assert transcript_cost(two_bits) == 2


def test_parity_predicate_exhaustive_exact_with_raw():
    # every pair at n = 4: the parity answer is exact once no verdict errs,
    # and raw verdicts never err
    n = 4
    pred = parity_predicate(n)
    prof = compute_profile(pred)
    for x, y in all_pairs(n):
        coins = ROOT.derive(f"pex/{x.value}/{y.value}")
        out = run_protocol(pred, prof, x, y, "raw", coins)
        assert out.output == oracle(pred, x, y)


def test_referee_branch_selection_raw():
    n = 16
    pred = ham_predicate(n, 2)  # r0 = 3, r1 = 0
    prof = compute_profile(pred)
    assert (prof.r0, prof.r1) == (3, 0)
    for w, branch in ((0, BRANCH_LOW), (3, BRANCH_LOW), (8, BRANCH_PARITY),
                      (16, BRANCH_HIGH)):
        coins = ROOT.derive(f"br/{w}")
        x, y = sample_pair_with_distance(n, w, coins.derive("in"))
        out = run_protocol(pred, prof, x, y, "raw", coins)
        assert out.branch == branch, (w, out.branch)
        assert out.output == oracle(pred, x, y)


def test_high_branch_uses_reflected_predicate():
    # weight >= n - r1 answers through the reflected predicate on the
    # complemented pair; with raw verdicts this is exact
    n = 12
    pred = Predicate([1 if k >= n - 2 else k % 2 for k in range(n + 1)])
    prof = compute_profile(pred)
    assert prof.r1 >= 1
    for w in range(n - prof.r1, n + 1):
        for i in range(10):
            coins = ROOT.derive(f"hi/{w}/{i}")
            x, y = sample_pair_with_distance(n, w, coins.derive("in"))
            out = run_protocol(pred, prof, x, y, "raw", coins)
            assert out.branch == BRANCH_HIGH
            assert out.output == oracle(pred, x, y)


def test_middle_branch_exact_when_taken():
    # whenever the parity branch answers, it answers exactly
    n = 64
    pred = family("random:6", n, ROOT.derive("mid/fam"))
    prof = compute_profile(pred)
    hit = 0
    for i in range(300):
        w = prof.r0 + 1 + (i % (n - prof.r1 - prof.r0 - 1))
        coins = ROOT.derive(f"mid/{i}")
        x, y = sample_pair_with_distance(n, w, coins.derive("in"))
        out = run_protocol(pred, prof, x, y, "syndrome", coins)
        if out.branch == BRANCH_PARITY:
            hit += 1
            assert out.output == oracle(pred, x, y)
    assert hit >= 290  # the guard thresholds fire only with tiny probability


def test_undefined_parity_sentinel_outputs_zero():
    # middle range {2} has no odd distances: t_odd is undefined and the
    # parity branch must fall back to 0
    pred = Predicate([0, 1, 0, 0, 1])
    prof = compute_profile(pred)
    assert prof.t_odd is None
    sh = p_shared(pred, prof, "syndrome", ROOT.derive("sent"))
    x, y = sample_pair_with_distance(4, 3, ROOT.derive("sentin"))
    res = p_referee(sh, p_party_messages(sh, x ^ y, DIFFERENCE))
    if res.branch == BRANCH_PARITY:  # reached unless a guard misfires
        assert res.output == 0


def test_determinism_bit_identical_transcripts():
    n = 64
    pred = family("ham:4", n)
    prof = compute_profile(pred)
    texts = []
    for _ in range(2):
        coins = CoinSource.from_seed(321).derive("trial/9")
        x, y = sample_pair_with_distance(n, 5, coins.derive("input"))
        out = run_protocol(pred, prof, x, y, "syndrome", coins)
        ba, bb = p_party_messages(out.shared, x, ALICE), p_party_messages(out.shared, y, BOB)
        entries = p_transcript_entries(out.shared, ba, bb)
        texts.append(
            format_transcript(Transcript(header={"seed": "321"}, entries=entries))
        )
    assert texts[0] == texts[1]


def test_transcript_roundtrip_replays_referee():
    n = 48
    pred = family("ham:3", n)
    prof = compute_profile(pred)
    for w in (0, 2, 10, 44, 48):
        coins = CoinSource.from_seed(777).derive(f"trial/{w}")
        x, y = sample_pair_with_distance(n, w, coins.derive("input"))
        out = run_protocol(pred, prof, x, y, "syndrome", coins)
        ba, bb = p_party_messages(out.shared, x, ALICE), p_party_messages(out.shared, y, BOB)
        t = Transcript(header={"w": str(w)}, entries=p_transcript_entries(out.shared, ba, bb))
        parsed = parse_transcript(format_transcript(t))
        assert parsed.header == t.header
        res = p_referee(out.shared, bundles_from_transcript(out.shared, parsed))
        assert res.output == out.output
        assert res.branch == out.branch


def test_parse_names_the_first_of_two_offsetting_faults():
    # an empty payload written 'a' and a '-' in place of a hex digit leave
    # the joined hex well formed; each is still a malformed line
    text = "# xorsmp-transcript v1\nAlice\tp/a\ta\t0\nBob\tp/b\t-b\t8\n"
    with pytest.raises(ValueError, match=r"^line 2 \('p/a'\): an empty payload is written '-'"):
        parse_transcript(text)


def test_transcript_labels_follow_grammar():
    n = 32
    pred = family("ham:2", n)
    prof = compute_profile(pred)
    coins = ROOT.derive("labels")
    x, y = sample_pair_with_distance(n, 2, coins.derive("in"))
    out = run_protocol(pred, prof, x, y, "syndrome", coins)
    ba, bb = p_party_messages(out.shared, x, ALICE), p_party_messages(out.shared, y, BOB)
    entries = p_transcript_entries(out.shared, ba, bb)
    labels = set(entries.labels)
    k, c = prof.r0, c_of_k(prof.r0)
    assert "p/hd0" in labels and "p/hd1" in labels and "p/parity" in labels
    for i in range(k):
        for j in range(c + 1):
            assert f"p/pk/main/block/{i}/hd/{j}" in labels
    per_party = 3 + k * (c + 1)  # hd0, hd1, parity, and the block grid
    assert len(entries) == 2 * per_party


def test_referee_rejects_same_party_bundles():
    n = 16
    pred = eq_predicate(n)
    prof = compute_profile(pred)
    sh = p_shared(pred, prof, "syndrome", ROOT.derive("same"))
    x, y = sample_pair_with_distance(n, 1, ROOT.derive("samein"))
    ba = p_party_messages(sh, x, ALICE)
    # the referee reads the difference bundle, never one party's
    with pytest.raises(ValueError, match=r"reads p_party_messages\(shared, x \^ y, DIFFERENCE\)"):
        p_referee(sh, ba)
    # nor one of another run shape
    other = p_shared(ham_predicate(n, 2), compute_profile(ham_predicate(n, 2)), "syndrome",
                     ROOT.derive("same"))
    diff = p_party_messages(other, x ^ y, DIFFERENCE)
    with pytest.raises(ValueError, match="another run shape"):
        p_referee(sh, diff)


def test_envelope_rejects_before_allocating(monkeypatch):
    # the r = 128 guard would hash into 4 r^2 = 2^16 buckets, past GF(2^16)
    assert protocol.SYNDROME_R_MAX == 127
    monkeypatch.setattr(gf2, "_CODES", {})
    seen = _record_calls(monkeypatch)
    pred = family("ham:127", 4096)
    prof = compute_profile(pred)
    assert prof.r0 == 128
    with pytest.raises(ValueError, match="syndrome supports tails up to r = 127"):
        p_total_cost(prof, 4096, "syndrome")
    with pytest.raises(ValueError, match="syndrome supports tails up to r = 127"):
        p_shared(pred, prof, "syndrome", ROOT.derive("envelope"))
    assert gf2._CODES == {}
    assert seen["hd_shared"] == []
    # r = 127 is inside; bucket and raw build no field
    assert p_total_cost(compute_profile(family("ham:126", 4096)), 4096, "syndrome") > 0
    assert p_total_cost(prof, 4096, "bucket") > 0
    for r in (-1, 9):
        with pytest.raises(ValueError, match=rf"tail length r = {r} outside \[0, n = 8\]"):
            protocol.check_envelope(8, r, "raw")


def test_bad_settings_raise_before_any_coin(monkeypatch):
    # the plan is checked and built at once, though guards and runs are
    # drawn on first read: a bad setting raises from p_shared itself
    seen = _record_calls(monkeypatch)
    pred = family("ham:127", 4096)
    prof = compute_profile(pred)
    with pytest.raises(ValueError, match="syndrome supports tails up to r = 127"):
        p_shared(pred, prof, "syndrome", ROOT.derive("early/r128"))
    with pytest.raises(ValueError, match="unknown strategy 'sketchy'"):
        p_shared(LAZY_PRED, compute_profile(LAZY_PRED), "sketchy", ROOT.derive("early/strategy"))
    assert seen["generator"] == []
    # and a valid p_shared draws nothing either, until a guard or run is read
    sh = p_shared(LAZY_PRED, compute_profile(LAZY_PRED), "syndrome", ROOT.derive("early/ok"))
    assert seen["generator"] == []
    sh.runs[1]
    assert seen["generator"] == ["pk/tilde/partition"]


def test_lazy_makes_each_item_once():
    made = []
    lazy = protocol.Lazy(3, lambda j: made.append(j) or (None if j == 1 else 10 * j))
    assert len(lazy) == 3 and made == []
    # an item that is None is kept like any other
    assert lazy[1] is None and lazy[1] is None
    assert made == [1]
    assert list(lazy) == [0, None, 20]
    assert made == [1, 0, 2]
    assert list(lazy) == [0, None, 20] and made == [1, 0, 2]
    # a negative index counts from the end; one out of range raises
    assert lazy[-1] == 20 and lazy[-3] == 0
    for j in (3, -4):
        with pytest.raises(IndexError):
            lazy[j]
    assert made == [1, 0, 2]
    assert list(protocol.Lazy(0, lambda j: made.append(j))) == []
    # make sees the index from the front, however the item was first read
    made.clear()
    lazy = protocol.Lazy(4, lambda j: made.append(j) or j)
    assert (lazy[-1], lazy[3], lazy[-4], lazy[0]) == (3, 3, 0, 0)
    assert made == [3, 0]


def test_cost_query_builds_no_code(monkeypatch):
    # the cost model reads sizes only: no BCH code (tens of MB at r0 = 100)
    monkeypatch.setattr(gf2, "_CODES", {})
    prof = compute_profile(family("ham:99", 4096))
    assert prof.r0 == 100
    assert p_total_cost(prof, 4096, "syndrome") == 1_691_118
    assert gf2._CODES == {}


# one-tailed random:8 at n = 64, two-tailed at n = 32 (r0 = 3, r1 = 2), and
# parity at n = 16, whose tails have length 0: d = 0 guards and no run
LINEAR_PREDICATES = {
    "random:8": family("random:8", 64, ROOT.derive("linear/fam")),
    "two-tailed": Predicate([1 if k <= 2 or k >= 31 else k % 2 for k in range(33)]),
    "parity": parity_predicate(16),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    spec=st.sampled_from(sorted(LINEAR_PREDICATES)),
    strategy=st.sampled_from(STRATEGIES),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_referee_reads_the_xor_of_the_two_bundles(spec, strategy, seed, data):
    # every segment is GF(2)-linear in the sender's input: per label, the XOR
    # of Alice's and Bob's payloads is the payload of the run's difference
    # bundle, which is encoded from x XOR y (complemented on the reflected
    # tail); a replay of the run's dump rebuilds that bundle from the two
    # parties' payloads, and the referee on it is the run's referee
    pred = LINEAR_PREDICATES[spec]
    n, prof = pred.n, compute_profile(pred)
    w = data.draw(st.sampled_from(sorted({0, 1, prof.r0, prof.r0 + 1, n // 2, n - prof.r1, n})))
    coins = ROOT.derive(f"linear/{spec}/{strategy}/{seed}")
    x, y = sample_pair_with_distance(n, w, coins.derive("in"))
    out = run_protocol(pred, prof, x, y, strategy, coins)
    bundle = p_party_messages(out.shared, x ^ y, DIFFERENCE)
    res = p_referee(out.shared, bundle)
    assert (res.output, res.branch) == (out.output, out.branch)
    ba, bb = p_party_messages(out.shared, x, ALICE), p_party_messages(out.shared, y, BOB)
    parties = p_transcript_entries(out.shared, ba, bb)
    diff = p_transcript_entries(out.shared, bundle, bundle)
    per = len(parties) // 2
    assert diff.labels[:per] == parties.labels[:per] == parties.labels[per:]
    for i in range(per):
        both = parties.payloads([i]) ^ parties.payloads([per + i])
        assert np.array_equal(both, diff.payloads([i])), diff.labels[i]
    # the replayed bundle carries every payload of the run's difference
    # bundle (both guards, every stack j = 0..c of each run, the parity bit)
    replayed = bundles_from_transcript(
        out.shared, parse_transcript(format_transcript(Transcript({}, parties)))
    )
    assert replayed.party == DIFFERENCE
    assert entry_rows(p_transcript_entries(out.shared, replayed, replayed)) == entry_rows(diff)
    assert p_referee(out.shared, replayed) == res


def test_xor_of_messages_needs_one_coin_draw_and_both_parties():
    n = 32
    pred = LINEAR_PREDICATES["two-tailed"]
    prof = compute_profile(pred)
    x, y = sample_pair_with_distance(n, 3, ROOT.derive("xor/in"))
    sh, other = (p_shared(pred, prof, "syndrome", ROOT.derive(f"xor/{s}")) for s in "ab")
    ba = p_party_messages(sh, x, ALICE)
    # a bundle is Alice's, Bob's or their difference
    with pytest.raises(ValueError, match="party must be 'Alice', 'Bob' or 'Alice\\^Bob'"):
        p_party_messages(sh, y, "Carol")
    # messages drawn from different coins, guards and run stacks alike
    foreign = p_party_messages(other, y, BOB)
    with pytest.raises(ValueError, match="different coins"):
        ba.guards[0] ^ foreign.guards[0]
    with pytest.raises(ValueError, match="different coins"):
        ba.runs[0][1] ^ foreign.runs[0][1]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "spec, n",
    [("values:111101010101010101011", 20), ("random:16", 256)],
    ids=["two-tailed", "random"],
)
def test_runs_replays_and_dumps_leave_no_reference_cycles(spec, n, strategy, tmp_path):
    # a cycle (say a Lazy whose make refers to itself) would hold a run's
    # arrays until the cyclic collector runs; with it off, each step must
    # leave nothing for it to find
    pred, _ = resolve_predicate(spec, n, CoinSource.from_seed(0).derive("predicate"))
    prof = compute_profile(pred)
    cfg = TrialConfig(n=n, predicate_spec=spec, weights="auto", trials=1, seed=4,
                      strategy=strategy, dump_dir=tmp_path)
    gc.collect()
    gc.disable()
    try:
        for w in auto_weights(prof, n):
            coins = ROOT.derive(f"cycles/{spec}/{strategy}/{w}")
            x, y = sample_pair_with_distance(n, w, coins.derive("in"))
            run_protocol(pred, prof, x, y, strategy, coins)
        assert gc.collect() == 0
        run_trials(cfg)
        assert gc.collect() == 0
        dumps = sorted(tmp_path.glob("trial-*.txt"))
        assert dumps
        for path in dumps:
            assert replay_transcript_text(path.read_text()).consistent
        assert gc.collect() == 0
    finally:
        gc.enable()
