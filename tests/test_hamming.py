import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsmp.bits import BitVector, sample_pair_with_distance
from xorsmp.coins import CoinSource
from xorsmp import gf2, hamming
from xorsmp.gf2 import unpack_words
from xorsmp.protocol import pk_party_messages, pk_shared

from . import oracles
from .oracles import code_parity_check, gf2_mat_vec
from xorsmp.hamming import (
    BlockMessages,
    HDParams,
    HDVerdict,
    decide_block,
    hd_decide,
    hd_encode_shared,
    hd_shared,
    threshold_search,
)

ROOT = CoinSource.from_seed(0x5EED)


def test_param_derivations():
    p = HDParams(d=4, epsilon=0.01, strategy="syndrome", length=100)
    assert p.bucket_count == 64
    assert HDParams(d=1, epsilon=0.01, strategy="syndrome", length=100).bucket_count == 16
    assert HDParams(d=3, epsilon=0.01, strategy="syndrome", length=100).bucket_count == 36
    assert p.repetitions == math.ceil(math.log2(100)) + 1
    assert p.fingerprint_rows == math.ceil(math.log2(p.repetitions * 100)) + 4
    b = HDParams(d=4, epsilon=0.01, strategy="bucket", length=100)
    assert b.repetitions == math.ceil(4 * math.log(100))
    # d = 0 is the capacity-0 syndrome sketch under both strategies: each
    # position its own bucket, an empty syndrome, then the fingerprint
    for strategy in ("bucket", "syndrome"):
        z = HDParams(d=0, epsilon=0.1, strategy=strategy, length=100)
        f = math.ceil(math.log2(10)) + 4
        assert z.fingerprint_rows == f
        assert z.segment_bits == (0, f)
        assert z.bucket_count == 100
        assert z.payload_bits == f
    # past the largest field, d = 0 still encodes and decides, and builds
    # no GF(2^m) field and no code
    fields, codes = dict(gf2._FIELDS), dict(gf2._CODES)
    n = 2**16 + 1
    for strategy in ("bucket", "syndrome"):
        z = HDParams(d=0, epsilon=0.1, strategy=strategy, length=n)
        shared = hd_shared(z, ROOT.derive(f"big0/{strategy}"))
        x = BitVector.random(n, ROOT.derive("big0x"))
        m_x = hd_encode_shared(shared, x)
        assert m_x.block_payloads()[0].size == z.payload_bits
        for y, verdict in ((x, HDVerdict(le=True, estimate=0)),
                           (x ^ BitVector(n, 1), HDVerdict(le=False, estimate=1))):
            assert hd_decide(z, m_x, hd_encode_shared(shared, y)) == verdict
    assert gf2._FIELDS == fields and gf2._CODES == codes
    with pytest.raises(ValueError):
        HDParams(d=1, epsilon=0.0, strategy="bucket", length=8)
    with pytest.raises(ValueError):
        HDParams(d=1, epsilon=0.5, strategy="quantum", length=8)
    # d = 128 would hash into 4 d^2 = 2^16 buckets, past GF(2^16): rejected
    # on construction, so no coin is drawn; bucket builds no field
    assert HDParams(d=127, epsilon=0.1, strategy="syndrome", length=1024).bucket_count < 2**16
    with pytest.raises(ValueError, match="syndrome supports thresholds up to d = 127"):
        HDParams(d=128, epsilon=0.1, strategy="syndrome", length=1024)
    assert HDParams(d=128, epsilon=0.1, strategy="bucket", length=1024).bucket_count == 2**16


def test_raw_payload_is_verbatim():
    params = HDParams(d=2, epsilon=0.1, strategy="raw", length=4)
    msg = hd_encode_shared(hd_shared(params, ROOT.derive("raw")), oracles.from_bits("1010"))
    assert msg.block_payloads()[0].tolist() == [1, 0, 1, 0]


def test_raw_is_exact_oracle():
    params = HDParams(d=3, epsilon=0.1, strategy="raw", length=32)
    for i in range(60):
        w = i % 9
        x, y = sample_pair_with_distance(32, w, ROOT.derive(f"rx/{i}"))
        shared = hd_shared(params, ROOT.derive(f"rc/{i}"))
        v = hd_decide(params, hd_encode_shared(shared, x), hd_encode_shared(shared, y))
        assert v.le == (w <= 3)
        assert v.estimate == w


def test_equal_inputs_always_le_estimate_zero():
    for strategy in ("raw", "bucket", "syndrome"):
        for d in (0, 2, 5):
            params = HDParams(d=d, epsilon=0.05, strategy=strategy, length=40)
            x, _ = sample_pair_with_distance(40, 0, ROOT.derive(f"eq/{strategy}/{d}"))
            shared = hd_shared(params, ROOT.derive(f"eqc/{strategy}/{d}"))
            v = hd_decide(params, hd_encode_shared(shared, x), hd_encode_shared(shared, x))
            assert v.le and v.estimate == 0


@given(st.integers(0, 2**32), st.sampled_from(["bucket", "syndrome"]),
       st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_gf2_linearity_of_messages(seedish, strategy, d):
    # encode(x) XOR encode(y) == encode(x XOR y) under the same coins
    n = 48
    coins = CoinSource.from_seed(seedish)
    params = HDParams(d=d, epsilon=0.05, strategy=strategy, length=n)
    shared = hd_shared(params, coins.derive("hd"))
    x = BitVector.random(n, coins.derive("x"))
    y = BitVector.random(n, coins.derive("y"))
    mx = hd_encode_shared(shared, x).block_payloads()[0]
    my = hd_encode_shared(shared, y).block_payloads()[0]
    mxy = hd_encode_shared(shared, x ^ y).block_payloads()[0]
    assert ((mx ^ my) == mxy).all()


def test_message_symmetry():
    params = HDParams(d=2, epsilon=0.05, strategy="syndrome", length=32)
    x, y = sample_pair_with_distance(32, 3, ROOT.derive("sym"))
    shared = hd_shared(params, ROOT.derive("symc"))
    ma, mb = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
    assert hd_decide(params, ma, mb) == hd_decide(params, mb, ma)


def test_wire_layout_segment_sizes():
    params = HDParams(d=2, epsilon=0.05, strategy="syndrome", length=32)
    shared = hd_shared(params, ROOT.derive("wlc"))
    msg = hd_encode_shared(shared, BitVector.random(32, ROOT.derive("wl")))
    red, f = params.code.redundancy, params.fingerprint_rows
    assert params.segment_bits == (red, f)
    # packed words: ceil(bits / 64) uint64 words per repetition and block
    synd, fp = msg.words
    assert synd.shape == (params.repetitions, 1, -(-red // 64))
    assert fp.shape == (params.repetitions, 1, -(-f // 64))
    assert msg.bit_length == params.repetitions * (red + f)
    assert msg.bit_length == params.payload_bits
    # rep-major concatenation: [syndrome | fingerprint] per repetition
    payload = msg.block_payloads()[0]
    per = red + f
    assert (payload[:red] == unpack_words(synd[0, 0], red)).all()
    assert (payload[red:per] == unpack_words(fp[0, 0], f)).all()
    assert (payload[per : per + red] == unpack_words(synd[1, 0], red)).all()
    # every strategy and d = 0: one (R, 1, ceil(bits / 64)) array per segment
    for strategy, d in (("raw", 2), ("bucket", 0), ("bucket", 2), ("syndrome", 0)):
        params = HDParams(d=d, epsilon=0.05, strategy=strategy, length=32)
        msg = hd_encode_shared(
            hd_shared(params, ROOT.derive("wlc")), BitVector.random(32, ROOT.derive("wl"))
        )
        assert [w.shape for w in msg.words] == [
            (params.repetitions, 1, -(-bits // 64)) for bits in params.segment_bits
        ]
        assert msg.bit_length == params.payload_bits
        if strategy != "raw":
            assert params.payload_bits == params.repetitions * sum(params.segment_bits)


def test_syndrome_gt_rate_above_threshold():
    # d = 2, true distance 3: claimed error below 5 percent, observed far less
    params = HDParams(d=2, epsilon=0.05, strategy="syndrome", length=32)
    gt = 0
    n_runs = 10_000
    for i in range(n_runs):
        coins = ROOT.derive(f"d2w3/{i}")
        x, y = sample_pair_with_distance(32, 3, coins.derive("input"))
        shared = hd_shared(params, coins.derive("hd"))
        v = hd_decide(params, hd_encode_shared(shared, x), hd_encode_shared(shared, y))
        gt += int(not v.le)
    assert gt / n_runs >= 0.95


def test_estimate_never_exceeds_true_distance_on_le():
    # collisions only cancel parities, so accepted estimates undercount
    for strategy in ("bucket", "syndrome"):
        params = HDParams(d=6, epsilon=0.05, strategy=strategy, length=48)
        for i in range(400):
            w = i % 7
            coins = ROOT.derive(f"under/{strategy}/{i}")
            x, y = sample_pair_with_distance(48, w, coins.derive("input"))
            shared = hd_shared(params, coins.derive("hd"))
            v = hd_decide(
                params, hd_encode_shared(shared, x), hd_encode_shared(shared, y)
            )
            assert v.le
            assert v.estimate <= w


def test_cost_monotone_in_d_and_epsilon():
    for strategy in ("bucket", "syndrome"):
        costs = [
            HDParams(d=d, epsilon=0.01, strategy=strategy, length=64).payload_bits
            for d in range(9)
        ]
        assert costs == sorted(costs)
        eps_costs = [
            HDParams(d=4, epsilon=e, strategy=strategy, length=64).payload_bits
            for e in (0.2, 0.1, 0.01, 0.001)
        ]
        assert eps_costs == sorted(eps_costs)


def search_one(c, verdict):
    """The level-synchronous search on one block: (result, visited)."""
    res, visited = threshold_search(c, 1, lambda j, blocks: [verdict(j) for _ in blocks])
    return res[0], visited[0]


def search_bits(h):
    return search_one(len(h) - 1, lambda j: h[j] == 1)[0]


def test_find_threshold_examples():
    assert search_bits([1, 1, 1]) == 0
    assert search_bits([0, 0, 1, 1, 1]) == 2
    assert search_bits([0, 0, 0]) == 2  # clamp on non-monotone/all-GT input


@given(st.integers(0, 20), st.integers(0, 20))
def test_find_threshold_monotone(c, t):
    t = min(t, c)
    h = [1 if j >= t else 0 for j in range(c + 1)]
    assert search_bits(h) == t


def test_threshold_search_visit_budget():
    for c in range(1, 40):
        for t in range(c + 1):
            h = [1 if j >= t else 0 for j in range(c + 1)]
            res, visited = search_one(c, lambda j: h[j] == 1)
            assert res == t
            assert len(visited) <= math.ceil(math.log2(c + 1))


def test_level_search_matches_per_block_oracle():
    # every block lands where its own sequential search lands and visits
    # the same thresholds, and each (block, threshold) is asked once: the
    # visit-budget cases (block t flips at t) and random non-monotone ones
    gen = np.random.default_rng(5)
    cases = [[[int(j >= t) for j in range(c + 1)] for t in range(c + 1)] for c in range(40)]
    cases += [gen.integers(0, 2, size=(k, c + 1)).tolist() for c in range(13) for k in (1, 3, 17)]
    for h in cases:
        c, k = len(h[0]) - 1, len(h)
        asked = []

        def verdicts(j, blocks):
            asked.extend((i, j) for i in blocks)
            return [h[i][j] == 1 for i in blocks]

        res, visited = threshold_search(c, k, verdicts)
        want = [oracles.threshold_search(c, lambda j, _i=i: h[_i][j] == 1) for i in range(k)]
        assert res == [r for r, _ in want]
        assert visited == [v for _, v in want]
        assert sorted(asked) == sorted((i, j) for i in range(k) for j in visited[i])


def block_distance(params, shareds, x, y):
    """Distance from the c + 1 threshold instances by lazy binary search."""
    msgs_a = [hd_encode_shared(s, x) for s in shareds]
    msgs_b = [hd_encode_shared(s, y) for s in shareds]
    res, _ = search_one(len(params) - 1, lambda j: hd_decide(params[j], msgs_a[j], msgs_b[j]).le)
    return res


def test_exact_block_distance_raw():
    params = [HDParams(d=j, epsilon=0.1, strategy="raw", length=24) for j in range(6)]
    x, y = sample_pair_with_distance(24, 3, ROOT.derive("ebd"))
    shareds = [hd_shared(p, ROOT.derive(f"ebd/{j}")) for j, p in enumerate(params)]
    assert block_distance(params, shareds, x, y) == 3


def test_exact_block_distance_zero_block():
    params = [HDParams(d=j, epsilon=0.1, strategy="syndrome", length=24)
              for j in range(4)]
    x, _ = sample_pair_with_distance(24, 0, ROOT.derive("z"))
    shareds = [hd_shared(p, ROOT.derive(f"z/{j}")) for j, p in enumerate(params)]
    assert block_distance(params, shareds, x, x) == 0


def test_exact_block_distance_syndrome_monte_carlo():
    # distance 3 within cap c = 7 at budget 1/1000: recovery rate 1 - 3 eps,
    # and only ceil(log2(8)) = 3 verdicts sit on the search path
    c, eps, n = 7, 1e-3, 48
    params = [HDParams(d=j, epsilon=eps, strategy="syndrome", length=n)
              for j in range(c + 1)]
    hits = 0
    n_runs = 10_000
    for i in range(n_runs):
        coins = ROOT.derive(f"ebd3/{i}")
        x, y = sample_pair_with_distance(n, 3, coins.derive("input"))
        shareds = [hd_shared(p, coins.derive(f"hd/{j}"))
                   for j, p in enumerate(params)]
        msgs_a = [hd_encode_shared(s, x) for s in shareds]
        msgs_b = [hd_encode_shared(s, y) for s in shareds]
        evaluated = []

        def verdict(j):
            evaluated.append(j)
            return hd_decide(params[j], msgs_a[j], msgs_b[j]).le

        res, visited = search_one(c, verdict)
        assert visited == evaluated
        assert len(visited) <= math.ceil(math.log2(c + 1))
        hits += int(res == 3)
    assert hits / n_runs >= 1 - 3 * eps - 3 * math.sqrt(3 * eps / n_runs)


def test_mismatched_instances_rejected():
    p1 = HDParams(d=1, epsilon=0.1, strategy="syndrome", length=16)
    p2 = HDParams(d=2, epsilon=0.1, strategy="syndrome", length=16)
    x, y = sample_pair_with_distance(16, 1, ROOT.derive("mm"))
    m1 = hd_encode_shared(hd_shared(p1, ROOT.derive("mm1")), x)
    m2 = hd_encode_shared(hd_shared(p2, ROOT.derive("mm2")), y)
    with pytest.raises(ValueError):
        hd_decide(p1, m1, m2)
    # params must be the messages' own instance, even when both agree
    shared = hd_shared(p2, ROOT.derive("mm3"))
    m_x, m_y = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
    for wrong in (p1, HDParams(d=5, epsilon=0.1, strategy="bucket", length=32)):
        with pytest.raises(ValueError):
            hd_decide(wrong, m_x, m_y)
    assert hd_decide(p2, m_x, m_y) == HDVerdict(le=True, estimate=1)


def test_messages_from_different_coins_rejected():
    # equal params are not enough: messages encoded under two coin draws
    # decide nothing, while copies drawn independently from one source do
    params = HDParams(2, 0.1, "syndrome", 16)
    x = BitVector.random(16, ROOT.derive("coinsx"))
    m_a = hd_encode_shared(hd_shared(params, ROOT.derive("a")), x)
    m_b = hd_encode_shared(hd_shared(params, ROOT.derive("b")), x)
    with pytest.raises(ValueError, match="different coins"):
        hd_decide(params, m_a, m_b)
    with pytest.raises(ValueError, match="different coins"):
        decide_block(m_b ^ m_a, [0])
    same = hd_encode_shared(hd_shared(params, ROOT.derive("a")), x)
    assert hd_decide(params, m_a, same) == HDVerdict(le=True, estimate=0)


def test_zero_syndrome_with_fingerprint_difference_is_gt():
    # equal syndromes but one differing fingerprint bit: the difference is a
    # codeword of weight >= 2d + 1, so both deciders must answer GT
    params = HDParams(d=1, epsilon=0.1, strategy="syndrome", length=16)
    shared = hd_shared(params, ROOT.derive("zs"))
    m_a = hd_encode_shared(shared, BitVector.random(16, ROOT.derive("zsx")))
    synd, fp = m_a.words
    fp = fp.copy()
    fp[0, 0, 0] ^= 1
    m_b = BlockMessages(shared, 1, words=(synd.copy(), fp))
    assert not hd_decide(params, m_a, m_b).le
    assert not decide_block(m_a ^ m_b, [0])[0].le


@pytest.mark.parametrize("d, w, epsilon, rep", [
    *(pytest.param(d, w, 0.1, 0, id=f"{d}-{w}") for d, w in [(1, 0), (1, 1), (2, 2), (3, 3)]),
    pytest.param(8, 6, 0.1, -1, id="8-6-last"),
    pytest.param(20, 15, 0.1, -1, id="20-15-last"),
    pytest.param(8, 6, 1e-18, -1, id="8-6-last-wide"),
])
def test_fingerprint_difference_after_decode_is_gt(d, w, epsilon, rep, monkeypatch):
    # one flipped fingerprint bit in one repetition must be caught after
    # every decode path: w = 0 leaves the syndromes equal (the difference is
    # then a codeword of weight >= 2d + 1), and w = 1, 2, 3 decode
    # repetition 0 through the weight-1, weight-2 and Berlekamp-Massey
    # paths.  w = 6 and 15 flip the last repetition, a predicted one of more
    # than two buckets, with one-word fingerprints and, at epsilon = 1e-18,
    # 70-row ones of two words
    params = HDParams(d=d, epsilon=epsilon, strategy="syndrome", length=32)
    assert (params.fingerprint_rows > 64) == (epsilon < 0.1)
    shared = hd_shared(params, ROOT.derive(f"zs/{d}"))
    x, y = sample_pair_with_distance(32, w, ROOT.derive(f"zsx/{d}/{w}"))
    m_a, m_b = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
    decoded = []  # the packed syndromes decoded
    decode = gf2.BchCode.decode_elements
    monkeypatch.setattr(
        gf2.BchCode, "decode_elements",
        lambda code, packed, *rest: decoded.append(packed) or decode(code, packed, *rest),
    )
    for v in (hd_decide(params, m_a, m_b), decide_block(m_a ^ m_b, [0])[0]):
        assert v.le and v.estimate == w
    synd, fp = m_b.words
    if rep:  # the last repetition is predicted, never decoded
        last = gf2.row_ints((m_a.words[0] ^ synd)[rep])[0]
        assert decoded and last not in decoded
    fp = fp.copy()
    fp[rep, 0, 0] ^= 1
    m_b = BlockMessages(shared, 1, words=(synd, fp))
    for v in (hd_decide(params, m_a, m_b), decide_block(m_a ^ m_b, [0])[0]):
        assert not v.le and v.estimate == d + 1


def test_single_instance_is_one_block_stack():
    # the single-instance message equals the k = 1 stack built from payloads
    for strategy in ("raw", "bucket", "syndrome"):
        for d in (0, 3):
            params = HDParams(d=d, epsilon=0.05, strategy=strategy, length=40)
            shared = hd_shared(params, ROOT.derive(f"one/{strategy}/{d}"))
            msg = hd_encode_shared(shared, BitVector.random(40, ROOT.derive("one")))
            assert msg.k == 1 and msg.bit_length == params.payload_bits
            back = BlockMessages.from_block_payloads(
                shared, msg.block_payloads()[0], np.array([0, 40])
            )
            assert (back.block_payloads()[0] == msg.block_payloads()[0]).all()


@pytest.mark.parametrize("zero_input", [False, True])
def test_stack_words_match_dense_oracle(zero_input):
    # k = 6 blocks over n = 12 with blocks 0 and 2 empty: every threshold's
    # words equal H . parity and F . parity mod 2 of each block's bucket
    # parities (F . x_block for d = 0), F being the (f, B) bit matrix whose
    # packed columns are fmat[r]; empty blocks and an all-zero input give
    # zero words.  So do single-block stacks whose syndromes span several
    # words: d = 8 (72 bits) and d = 20 (220 bits) at length 64
    def check(stack, msg, i, x_block):
        params = stack.params
        f = params.fingerprint_rows
        if params.d == 0:
            got = unpack_words(msg.words[1][0, i], f)
            assert (got == gf2_mat_vec(unpack_words(stack.fmat[0], f).T, x_block)).all()
            return
        h = code_parity_check(params.code)
        for r in range(params.repetitions):
            par = np.bincount(
                stack.buckets[r][x_block == 1], minlength=params.bucket_count
            ) % 2
            got_s = unpack_words(msg.words[0][r, i], params.code.redundancy)
            got_f = unpack_words(msg.words[1][r, i], f)
            assert (got_s == gf2_mat_vec(h, par)).all()
            assert (got_f == gf2_mat_vec(unpack_words(stack.fmat[r], f).T, par)).all()

    n, k = 12, 6
    coins = ROOT.derive("stack")
    shared = pk_shared(k, n, "syndrome", coins)
    block_of = shared.partition.block_of
    assert (shared.partition.block_sizes()[[0, 2]] == 0).all()
    x = BitVector(n, 0) if zero_input else BitVector.random(n, coins.derive("x"))
    msgs = pk_party_messages(shared, x)
    x_arr = x.to_array()
    for stack, msg in zip(shared.stacks, msgs):
        for i in range(k):
            check(stack, msg, i, x_arr * (block_of == i))
        if zero_input:
            assert not any(w.any() for w in msg.words)
    for d, bits in ((8, 72), (20, 220)):
        params = HDParams(d=d, epsilon=0.1, strategy="syndrome", length=64)
        assert params.code.redundancy == bits
        stack = hd_shared(params, coins.derive(f"one/{d}"))
        x = BitVector(64, 0) if zero_input else BitVector.random(64, coins.derive(f"x/{d}"))
        msg = hd_encode_shared(stack, x)
        check(stack, msg, 0, x.to_array())
        if zero_input:
            assert not any(w.any() for w in msg.words)


@pytest.mark.parametrize("d, epsilon, f", [(0, 0.1, 8), (2, 0.1, 10), (2, 1e-18, 70)])
def test_fingerprint_columns_are_masked_words(d, epsilon, f):
    # fmat packs each f-row column into ceil(f / 64) words with every bit at
    # or past f zero; otherwise a fingerprint checked against the words the
    # referee rebuilds from f wire bits (a replay) would disagree with the
    # live run
    n = 64
    params = HDParams(d=d, epsilon=epsilon, strategy="syndrome", length=n)
    assert params.fingerprint_rows == f
    shared = hd_shared(params, ROOT.derive(f"mask/{d}/{f}"))
    w = -(-f // 64)
    assert shared.fmat.shape == (params.repetitions, params.bucket_count, w)
    bits = unpack_words(shared.fmat, 64 * w)
    assert not bits[..., f:].any() and bits[..., :f].any()
    whole = np.array([0, n])
    for weight in (d, d + 1):
        x, y = sample_pair_with_distance(n, weight, ROOT.derive(f"maskx/{d}/{weight}"))
        m_a, m_b = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
        live = hd_decide(params, m_a, m_b)
        assert live.le == (weight <= d)
        r_a, r_b = (
            BlockMessages.from_block_payloads(shared, np.concatenate(m.block_payloads()), whole)
            for m in (m_a, m_b)
        )
        assert hd_decide(params, r_a, r_b) == live


@pytest.mark.parametrize(
    "d, epsilon, n",
    [(2, 1e-18, 48), (3, 1e-18, 48), (8, 0.1, 300), (16, 0.1, 1100)],
    ids=["f70-d2", "f70-d3", "straddle-d8", "straddle-d16"],
)
def test_decide_block_matches_dense_oracle(d, epsilon, n):
    # multi-word fingerprints (f = 70 > 64) and syndromes whose m-bit
    # elements straddle word boundaries (d m = 72 with m = 9, 176 with
    # m = 11): the referee reads both as Python ints per repetition, which
    # must agree with the dense decode and fingerprint of every repetition
    params = HDParams(d=d, epsilon=epsilon, strategy="syndrome", length=n)
    f, m = params.fingerprint_rows, params.code.m
    assert (f > 64) == (epsilon < 1e-9)
    assert epsilon < 1e-9 or any(i * m // 64 != ((i + 1) * m - 1) // 64 for i in range(d))
    shared = hd_shared(params, ROOT.derive(f"dense/{d}/{f}"))
    code = params.code

    def check(m_a, m_b):
        syn = unpack_words(m_a.words[0][:, 0] ^ m_b.words[0][:, 0], code.redundancy)
        fp = unpack_words(m_a.words[1][:, 0] ^ m_b.words[1][:, 0], f)
        got = decide_block(m_a ^ m_b, [0])[0]
        assert (got.le, got.estimate) == oracles.dense_verdict(shared, syn, fp)
        return got

    for w in (0, 1, 2, 3, d, d + 1, 2 * d + 1, n // 3):
        x, y = sample_pair_with_distance(n, w, ROOT.derive(f"densex/{d}/{w}"))
        m_a, m_b = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
        got = check(m_a, m_b)
        if w <= d:
            assert got.le and got.estimate == w
    synd, fp = m_a.words
    # a zero syndrome difference with a nonzero fingerprint difference
    # (in the last word, past bit 64 when f > 64)
    flipped = fp.copy()
    flipped[-1, 0, -1] ^= np.uint64(1) << np.uint64((f - 1) % 64)
    assert not check(m_a, BlockMessages(shared, 1, words=(synd, flipped))).le
    # a wrong decode: repetition 1's syndrome difference is bucket 3's
    # column and its fingerprint difference bucket 5's, so the referee
    # decodes (3,) and the fingerprint rejects it
    wrong_s, wrong_f = synd.copy(), fp.copy()
    wrong_s[1, 0] ^= code.cols[3]
    wrong_f[1, 0] ^= shared.fmat[1, 5]
    wrong = BlockMessages(shared, 1, words=(wrong_s, wrong_f))
    assert code.decode_elements(
        int.from_bytes(code.cols[3].astype("<u8").tobytes(), "little")) == (3,)
    got = check(m_a, wrong)
    assert not got.le and got.estimate == d + 1


def _count_decodes(monkeypatch):
    calls = []
    decode = gf2.BchCode.decode_elements
    monkeypatch.setattr(
        gf2.BchCode,
        "decode_elements",
        lambda self, packed, *rest: calls.append(packed) or decode(self, packed, *rest),
    )
    return calls


@pytest.mark.parametrize("d, n", [(16, 1024), (64, 4096)], ids=["d16", "d64"])
def test_guard_decide_matches_decoding_every_repetition(d, n, monkeypatch):
    # at guard sizes the referee predicts each repetition after the first
    # two Berlekamp-Massey decodes instead of decoding it; verdict and
    # estimate must be those of decoding every repetition, by the reference
    # decoder and by the library's
    params = HDParams(d=d, epsilon=0.1, strategy="syndrome", length=n)
    shared = hd_shared(params, ROOT.derive(f"guard/{d}"))
    calls = _count_decodes(monkeypatch)

    def check(diff):
        x = BitVector(n, 0)
        y = BitVector.from_array(np.isin(np.arange(n), diff))
        m_a, m_b = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
        syn, fp = (
            unpack_words(a[:, 0] ^ b[:, 0], bits)
            for a, b, bits in zip(m_a.words, m_b.words, params.segment_bits)
        )
        calls.clear()
        got = decide_block(m_a ^ m_b, [0])[0]
        decoded = len(calls)
        for decode in (oracles.reference_decode, oracles.library_decode):
            assert (got.le, got.estimate) == oracles.dense_verdict(shared, syn, fp, decode)
        return got, decoded

    gen = np.random.default_rng(d)
    predicted = 0
    for w in (3, d // 2, d, d + 1):
        diff = gen.choice(n, size=w, replace=False)
        got, decoded = check(diff)
        if w <= d:
            assert got.le and got.estimate == w
        collided = any(len(set(shared.buckets[r, diff].tolist())) < w for r in range(2))
        if w <= d and not collided:
            # the first two repetitions decode every position: the rest
            # are predicted
            assert decoded == 2
            predicted += 1
    assert predicted
    # two differing positions sharing a bucket in repetition 0 cancel
    # there, so the positions decoded in both of the first two repetitions
    # miss them: repetition 2's prediction fails and is decoded, and the
    # prediction rebuilt with it (the pair is marked by repetitions 1 and 2,
    # which do not collide) holds for the rest
    first = shared.buckets[0]
    pair = next(
        np.flatnonzero(first == first[p])[:2] for p in range(n) if (first == first[p]).sum() > 1
    )
    rest = gen.choice(np.setdiff1d(np.arange(n), pair), size=d // 2 - 2, replace=False)
    diff = np.concatenate([pair, rest])
    assert len(set(shared.buckets[0, diff].tolist())) < d // 2
    assert all(len(set(shared.buckets[r, diff].tolist())) == d // 2 for r in (1, 2))
    got, decoded = check(diff)
    assert got.le and got.estimate == d // 2
    assert decoded == 3 < params.repetitions


@pytest.mark.parametrize("strategy", ["raw", "bucket", "syndrome"])
def test_decide_block_reads_blocks_in_the_order_given(strategy):
    # a list of all k blocks that is not 0..k-1 must still be gathered: a
    # 2-block stack at threshold 1 with block distances 0 and 3 answers
    # [1, 0] with block 1's verdict first, and [0, 0] with block 0's twice
    n, j = 64, 1
    run = pk_shared(2, n, strategy, ROOT.derive(f"order/{strategy}"))
    far = run.sort_order[run.bounds[1] : run.bounds[1] + 3]  # three positions of block 1
    y = BitVector.from_array(np.isin(np.arange(n), far))
    diff = pk_party_messages(run, BitVector(n, 0))[j] ^ pk_party_messages(run, y)[j]
    near, apart = decide_block(diff, [0])[0], decide_block(diff, [1])[0]
    assert near == HDVerdict(le=True, estimate=0) and not apart.le
    assert decide_block(diff, [0, 1]) == [near, apart]
    assert decide_block(diff, [1, 0]) == [apart, near]
    assert decide_block(diff, [0, 0]) == [near, near]
    assert decide_block(diff, [1, 1]) == [apart, apart]


def test_bulk_decide_matches_per_block_oracle(monkeypatch):
    # a call deciding >= 32 blocks settles every repetition of weight 0, 1
    # or 2 in one pass and sends only the other blocks to the per-block
    # decider; every block's verdict must be dense_verdict of its own
    # differences.  Alice's input is zero, so Bob's words are the
    # differences: blocks at distance 0 to 4 and 7 (Berlekamp-Massey rows
    # among them), one zero block with a nonzero fingerprint, one distance-1
    # and one distance-2 block with a tampered fingerprint, one distance-3
    # block whose repetition 0 is made a weight-1 row with the wrong
    # fingerprint, and one distance-2 block whose repetition 0 is made the
    # syndrome of a pair with a bucket past B = 64 (the code has length 127)
    n, k, j = 1600, 40, 4
    run = pk_shared(k, n, "syndrome", ROOT.derive("bulk"))
    stack = run.stacks[j]
    params, code = stack.params, stack.params.code
    fld, b = code.field, params.bucket_count
    dists = [(0, 1, 2, 3, 4, 1, 0, 7)[i % 8] for i in range(k)]
    positions = [run.sort_order[run.bounds[i] : run.bounds[i + 1]] for i in range(k)]
    assert all(len(p) >= 7 for p in positions)
    diff = np.concatenate([p[:w] for p, w in zip(positions, dists)])
    y = BitVector.from_array(np.isin(np.arange(n), diff))
    m_a, m_b = pk_party_messages(run, BitVector(n, 0))[j], pk_party_messages(run, y)[j]
    synd, fp = (w.copy() for w in m_b.words)
    fp[0, 0, 0] ^= np.uint64(1)  # block 0: distance 0
    fp[1, 1, 0] ^= np.uint64(1 << 3)  # block 1: distance 1
    synd[0, 3] = code.cols[5]  # block 3: distance 3
    fp[0, 3] = stack.fmat[0, 6]
    rep = int(np.flatnonzero(synd[:, 10].any(axis=1))[0])  # block 10: distance 2
    fp[rep, 10, 0] ^= np.uint64(1 << 2)
    pair = [fld.exp[(2 * i + 1) * 5 % fld.order] ^ fld.exp[(2 * i + 1) * 100 % fld.order]
            for i in range(code.d)]  # block 18: distance 2
    synd[0, 18, 0] = np.uint64(oracles.pack_elements(code, pair))
    assert code.decode_elements(oracles.pack_elements(code, pair)) is None
    m_b = BlockMessages(stack, k, words=(synd, fp))

    def want(i):
        syn_bits = unpack_words(synd[:, i], code.redundancy)
        fp_bits = unpack_words(fp[:, i], params.fingerprint_rows)
        return oracles.dense_verdict(stack, syn_bits, fp_bits)

    calls = []
    decide = hamming._decide_syndrome
    monkeypatch.setattr(
        hamming, "_decide_syndrome", lambda *args: calls.append(args[-1]) or decide(*args)
    )
    blocks = list(range(k))
    got = decide_block(m_a ^ m_b, blocks, positions)
    assert [(v.le, v.estimate) for v in got] == [want(i) for i in blocks]
    assert not any(got[i].le for i in (0, 1, 3, 10, 18))
    assert got[2].le and got[4].le and (got[5].estimate, got[6].estimate) == (1, 0)
    assert got[2].estimate == 2
    # blocks 0, 1, 3 and 10 fail in the bulk pass, and weight-0/1/2 blocks
    # settle there; the rest, block 18 among them, reach the per-block decider
    assert calls == [i for i in blocks if (dists[i] >= 3 and i != 3) or i == 18]
    # 39 of the blocks go through the bulk pass, 20 all one by one
    for sub, decided in ((blocks[1:], calls[:]), (blocks[::2], blocks[::2])):
        calls.clear()
        assert decide_block(m_a ^ m_b, sub, positions) == [got[i] for i in sub]
        assert calls == decided


def test_guard_size_decide_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma, about 1.2 MB of peak memory, so the
    # referee deduplicates candidate buckets without it: a process that
    # decides the r = 64 guard (n = 4096, B = 16,384, candidate root search)
    # and a 64-block promise run (the bulk weight-0/1 pass) never loads it
    code = (
        "import sys\n"
        "from xorsmp.bits import sample_pair_with_distance\n"
        "from xorsmp.coins import CoinSource\n"
        "from xorsmp.hamming import hd_decide, hd_encode_shared, hd_shared\n"
        "from xorsmp.protocol import guard_params, pk_party_messages, pk_referee, pk_shared\n"
        "root = CoinSource.from_seed(3)\n"
        "x, y = sample_pair_with_distance(4096, 40, root.derive('input'))\n"
        "params = guard_params(64, 'syndrome', 4096)\n"
        "shared = hd_shared(params, root.derive('guard'))\n"
        "verdict = hd_decide(params, hd_encode_shared(shared, x), hd_encode_shared(shared, y))\n"
        "assert verdict.le and verdict.estimate == 40, verdict\n"
        "run = pk_shared(64, 4096, 'syndrome', root.derive('run'))\n"
        "assert pk_referee(run, pk_party_messages(run, x ^ y)) == 40\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
