import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from xorsmp.bits import BitVector
from xorsmp.coins import CoinSource, c_of_k, sample_partition

from . import oracles


def test_same_seed_and_path_identical_streams():
    a = CoinSource.from_seed(99).derive("trial/3").derive("pk/main/hd/2")
    b = CoinSource.from_seed(99).derive("trial/3").derive("pk/main/hd/2")
    bits_a = a.generator().integers(0, 2, size=1_000_000, dtype=np.uint8)
    bits_b = b.generator().integers(0, 2, size=1_000_000, dtype=np.uint8)
    assert (bits_a == bits_b).all()


def test_distinct_labels_distinct_streams():
    s = CoinSource.from_seed(7)
    a = s.derive("block/3").generator().integers(0, 2, size=128, dtype=np.uint8)
    b = s.derive("block/4").generator().integers(0, 2, size=128, dtype=np.uint8)
    assert (a != b).any()


def test_two_party_derivation_agrees():
    # Alice and Bob independently rebuild the same partition and sketch
    # coins from the shared seed and labels alone.
    from xorsmp.bits import BitVector
    from xorsmp.hamming import HDParams, HDVerdict, hd_decide, hd_encode_shared, hd_shared

    alice = CoinSource.from_seed(1234).derive("trial/0")
    bob = CoinSource.from_seed(1234).derive("trial/0")
    pa = sample_partition(500, 8, alice.derive("pk/main/partition"))
    pb = sample_partition(500, 8, bob.derive("pk/main/partition"))
    assert (pa.block_of == pb.block_of).all()
    params = HDParams(d=3, epsilon=0.01, strategy="syndrome", length=500)
    sa = hd_shared(params, alice.derive("pk/main/hd/3"))
    sb = hd_shared(params, bob.derive("pk/main/hd/3"))
    assert (oracles.coin_buckets(sa) == oracles.coin_buckets(sb)).all()
    assert (oracles.coin_fingerprints(sa) == oracles.coin_fingerprints(sb)).all()
    # the referee decides the two parties' messages from their own copies
    x = BitVector.random(500, alice.derive("x"))
    verdict = hd_decide(params, hd_encode_shared(sa, x), hd_encode_shared(sb, x ^ BitVector(500, 0b101)))
    assert verdict == HDVerdict(le=True, estimate=2)


def test_stream_is_philox_keyed_by_the_first_16_bytes():
    # a stream is opened from its key alone; it must be the stream of
    # Philox(key=...) on the same 128-bit integer, draw for draw
    root = CoinSource.from_seed(2024)
    for i in range(120):
        src = root.derive(f"trial/{i}").derive("p/hd0" if i % 2 else "p/pk/main/partition")
        ours = src.generator()
        ref = np.random.Generator(np.random.Philox(key=int.from_bytes(src.key[:16], "little")))
        a, b = ours.bit_generator.state, ref.bit_generator.state
        assert (a["state"]["counter"] == b["state"]["counter"]).all()
        assert (a["state"]["key"] == b["state"]["key"]).all()
        assert a["buffer_pos"] == b["buffer_pos"]
        for gen_draw in (
            lambda g: g.integers(0, 16, size=40, dtype=np.int64),
            lambda g: g.integers(0, 36, size=37, dtype=np.int64),
            lambda g: g.integers(0, 16384, size=25, dtype=np.int64),
            lambda g: g.integers(0, 1 << 64, size=9, dtype=np.uint64),
            lambda g: g.integers(0, 256, size=33, dtype=np.uint8),
            lambda g: g.permutation(50),
            lambda g: g.random(7),
        ):
            assert (gen_draw(ours) == gen_draw(ref)).all()


def test_key_sequence_answers_only_the_philox_request():
    from xorsmp.coins import _key_sequence

    seq = _key_sequence()(CoinSource.from_seed(3).key)
    words = seq.generate_state(2, np.uint64)
    assert words.dtype == np.uint64 and words.shape == (2,)
    for n_words, dtype in ((4, np.uint64), (2, np.uint32), (1, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="2 uint64 words"):
            seq.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        seq.generate_state(4)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is imported on the first stream opened, never with the
    # package, so a process that draws no coins does not carry it
    code = (
        "import sys, xorsmp.coins\n"
        "assert 'numpy.random' not in sys.modules\n"
        "xorsmp.coins.CoinSource.from_seed(1).generator()\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_seed_validation():
    with pytest.raises(ValueError):
        CoinSource.from_seed(-1)
    with pytest.raises(ValueError):
        CoinSource.from_seed(1 << 64)


def test_partition_single_block():
    part = sample_partition(4, 1, CoinSource.from_seed(0))
    assert part.block_of.tolist() == [0, 0, 0, 0]


def test_partition_rejects_zero_blocks():
    with pytest.raises(ValueError):
        sample_partition(4, 0, CoinSource.from_seed(0))


def test_partition_block_size_concentration():
    n, k = 100_000, 10
    part = sample_partition(n, k, CoinSource.from_seed(5).derive("conc"))
    sizes = part.block_sizes()
    assert sizes.sum() == n
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    assert (abs(sizes - n / k) <= 5 * sigma).all()


def test_partition_occupancy_chi_square():
    n, k = 10_000, 16
    part = sample_partition(n, k, CoinSource.from_seed(17).derive("chi"))
    counts = part.block_sizes().astype(float)
    expected = n / k
    statistic = ((counts - expected) ** 2 / expected).sum()
    critical = stats.chi2.ppf(1 - 0.001, df=k - 1)
    assert statistic < critical


def test_c_of_k_values():
    # independent evaluation of ceil(4 log2 k / log2 log2 k)
    def direct(k):
        return math.ceil(4 * math.log2(k) / math.log2(math.log2(k)))

    assert c_of_k(256) == direct(256) == 11
    assert c_of_k(16) == direct(16) == 8
    assert c_of_k(2) == 2
    for k in (1, 2, 3):
        assert c_of_k(k) == k
    for k in (4, 5, 6, 7, 8):
        assert c_of_k(k) == min(k, direct(k))
    with pytest.raises(ValueError):
        c_of_k(0)


def test_partition_lemma_small():
    # Lemma check at k = 16: blocks of the k ones stay below c with the
    # union-bound failure rate (e/c)^c * k as the ceiling.
    k = 16
    c = c_of_k(k)
    gen = CoinSource.from_seed(31).derive("lem").generator()
    samples = 4000
    blocks = gen.integers(0, k, size=(samples, k))
    flat = blocks + np.arange(samples)[:, None] * k
    counts = np.bincount(flat.ravel(), minlength=samples * k).reshape(samples, k)
    emp = (counts.max(axis=1) >= c).mean()
    bound = (math.e / c) ** c * k
    sigma = math.sqrt(bound * (1 - bound) / samples)
    assert emp <= bound + 3 * sigma


# The sketch coins: a keyed SplitMix64 counter stream per instance.

MASK64 = (1 << 64) - 1


def test_mix64_matches_splitmix64_known_answers():
    # SplitMix64 seeded with 0 (Steele, Lea and Flood's generator) returns
    # these four words first: mix64 of gamma, 2 gamma, 3 gamma, 4 gamma
    from xorsmp.coins import GAMMA, counter_values, mix64

    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
    states = [(i + 1) * GAMMA & MASK64 for i in range(4)]
    assert [oracles.splitmix64(z) for z in states] == want
    assert mix64(np.array(states, dtype=np.uint64)).tolist() == want
    assert counter_values(np.arange(4), GAMMA).tolist() == want
    # and the pure-int finalizer on words with every high bit pattern
    z = np.random.default_rng(7).integers(0, 1 << 64, size=2000, dtype=np.uint64)
    z[:4] = [0, 1, MASK64, 1 << 63]
    assert mix64(z.copy()).tolist() == [oracles.splitmix64(int(v)) for v in z]


def test_sketch_coins_known_answers():
    # the first bucket and fingerprint values of a fixed source, for a
    # small instance (a table) and the r = 64 guard (evaluated on demand);
    # pinned, and equal to the stream's definition in Python ints
    from xorsmp.hamming import HDParams, hd_shared

    src = CoinSource.from_seed(2026).derive("kat")
    assert oracles.stream_value(src, 0) == 11135313689208558455
    cases = [
        (
            HDParams(3, 0.1, "syndrome", 100),
            [[21, 19, 18, 11], [3, 1, 14, 31]],
            [622, 392, 481, 943],
        ),
        (
            HDParams(64, 0.1, "syndrome", 4096),
            [[9890, 8704, 8405, 5264], [11626, 4729, 6548, 4262]],
            [14, 395, 56, 900],
        ),
    ]
    for params, buckets, fingerprints in cases:
        shared = hd_shared(params, src)
        n, b, r_count = params.length, params.bucket_count, params.repetitions
        assert shared.buckets_at(np.arange(4))[:2].tolist() == buckets
        assert shared.fingerprints_at(np.arange(4))[:, 0].tolist() == fingerprints
        high = [[oracles.stream_value(src, rep * n + pos) >> 32 for pos in range(4)]
                for rep in range(2)]
        assert [[h * b >> 32 for h in row] for row in high] == buckets
        mask = (1 << params.fingerprint_rows) - 1
        words = [oracles.stream_value(src, r_count * n + c) for c in range(4)]
        assert [word & mask for word in words] == fingerprints


@pytest.mark.parametrize(
    "d, epsilon, n",
    [(3, 0.1, 100), (64, 0.1, 4096), (0, 0.1, 40), (0, 0.1, 9000), (2, 1e-18, 48),
     (2, 1e-18, 600), (4, 0.01, 64), (4, 0.01, 2000)],
    ids=["table", "guard", "d0-table", "d0-on-demand", "f70-table", "f70-on-demand",
         "bucket-table", "bucket-on-demand"],
)
def test_sketch_coins_at_chosen_indices_equal_the_whole_stream(d, epsilon, n):
    # an instance of at most TABLE_MAX_VALUES values reads a table, a larger
    # one evaluates each read; either way the values at any indices, in any
    # order and repeated, are the stream's definition at those indices
    from xorsmp.hamming import TABLE_MAX_VALUES, HDParams, hd_shared

    strategy = "bucket" if epsilon == 0.01 else "syndrome"
    params = HDParams(d, epsilon, strategy, n)
    shared = hd_shared(params, CoinSource.from_seed(77).derive(f"idx/{d}/{n}"))
    words = params.fingerprint_words
    assert (shared._table() is not None) == (params.stream_length <= TABLE_MAX_VALUES)
    gen = np.random.default_rng(n)
    if d:
        buckets = oracles.coin_buckets(shared)
        positions = gen.integers(0, n, size=50)
        assert (shared.buckets_at(positions) == buckets[:, positions]).all()
        assert (shared.buckets_at(np.arange(n)) == buckets).all()
        assert (shared.buckets_at(positions[:0]).shape == (params.repetitions, 0))
    if params.fingerprint_rows:
        fmat = oracles.coin_fingerprints(shared).reshape(-1, words)
        columns = gen.integers(0, len(fmat), size=(2, 3, 7))
        assert (shared.fingerprints_at(columns) == fmat[columns]).all()
        every = shared.fingerprints_at(np.arange(len(fmat)))
        assert (every == fmat).all()
        # the padding bits past f are zero, and some bit below f is set
        bits = np.unpackbits(every.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
        assert not bits[:, params.fingerprint_rows:].any()
        assert bits[:, : params.fingerprint_rows].any(axis=0).all()


def test_sketch_coins_raise_no_overflow_warning():
    # numpy warns when a uint64 scalar operation wraps; every coin path
    # wraps mod 2^64 by design, in arrays only
    import warnings

    from xorsmp.coins import counter_values, mix64
    from xorsmp.hamming import (
        HDParams, decide_block, hd_decide, hd_encode_shared, hd_shared,
    )
    from xorsmp.protocol import pk_party_messages, pk_referee, pk_shared

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key_max = CoinSource(b"\xff" * 32)
        assert key_max.counter_offset(MASK64) < 1 << 64
        mix64(np.array([MASK64, 0], dtype=np.uint64))
        counter_values(np.array([MASK64], dtype=np.uint64), MASK64)
        for params in (HDParams(3, 0.1, "syndrome", 100), HDParams(40, 0.1, "syndrome", 2000),
                       HDParams(4, 0.01, "bucket", 2000), HDParams(0, 0.1, "syndrome", 9000)):
            for src in (key_max, CoinSource.from_seed(5).derive("warn")):
                shared = hd_shared(params, src)
                x = BitVector.random(params.length, src.derive("x"))
                y = x ^ BitVector(params.length, (1 << (params.d + 1)) - 1)
                m_a, m_b = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
                assert not hd_decide(params, m_a, m_b).le
                decide_block(m_a ^ m_b, [0])
        run = pk_shared(40, 2000, "syndrome", key_max)
        assert pk_referee(run, pk_party_messages(run, BitVector(2000, 0b1011))) == 3


@pytest.mark.parametrize("d, n", [(1, 20_000), (64, 131_072)], ids=["B16", "B16384"])
def test_bucket_hash_is_uniform_chi_square(d, n):
    # multiply-shift of the stream's high 32 bits spreads every repetition's
    # positions evenly over the B = 16 or 16,384 buckets
    from xorsmp.hamming import HDParams, hd_shared

    params = HDParams(d, 0.1, "syndrome", n)
    shared = hd_shared(params, CoinSource.from_seed(19).derive(f"chi/{d}"))
    b = params.bucket_count
    assert b == max(16, 4 * d * d)
    counts = np.bincount(shared.buckets_at(np.arange(n)).ravel(), minlength=b).astype(float)
    assert counts.size == b
    expected = params.repetitions * n / b
    statistic = ((counts - expected) ** 2 / expected).sum()
    assert statistic < stats.chi2.ppf(1 - 0.001, df=b - 1)
