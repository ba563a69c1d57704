import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from xorsmp.coins import CoinSource, c_of_k, sample_partition


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
    assert (sa.buckets == sb.buckets).all()
    assert (sa.fmat == sb.fmat).all()
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
