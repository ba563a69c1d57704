import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsmp.bits import (
    BitVector,
    hamming_distance,
    parity,
    sample_pair_with_distance,
    sample_weight_vector,
)
from xorsmp.coins import CoinSource

from .oracles import complement, from_bits, weight_vector_by_loop

ROOT = CoinSource.from_seed(0xB17)


def bv(s: str) -> BitVector:
    return from_bits(s)


def test_hamming_distance_examples():
    assert hamming_distance(bv("0000"), bv("0000")) == 0
    assert hamming_distance(bv("1010"), bv("0110")) == 2


def test_hamming_distance_complement_is_full():
    for s in ("0000", "1010", "111", "10011010"):
        x = bv(s)
        assert hamming_distance(x, complement(x)) == x.length


def test_hamming_distance_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(bv("01"), bv("011"))


def test_parity_examples():
    assert parity(bv("0000")) == 0
    assert parity(bv("0100")) == 1
    assert parity(bv("1110")) == 1


def test_complement_examples():
    assert complement(bv("0000")) == bv("1111")
    assert complement(bv("1010")) == bv("0101")
    assert complement(complement(bv("100110"))) == bv("100110")


def test_complement_distance_identity():
    coins = ROOT.derive("compl")
    for i in range(50):
        x, y = sample_pair_with_distance(33, i % 34, coins.derive(str(i)))
        assert hamming_distance(complement(x), y) == 33 - hamming_distance(x, y)


def test_bitvector_validation():
    with pytest.raises(ValueError):
        BitVector(3, 8)  # needs 4 bits
    with pytest.raises(ValueError):
        BitVector(-1, 0)
    with pytest.raises(ValueError):
        from_bits("01x")
    v = bv("0110")
    with pytest.raises(AttributeError):
        v.value = 3


def test_array_roundtrip():
    x = bv("1011001")
    arr = x.to_array()
    assert arr.tolist() == [1, 0, 1, 1, 0, 0, 1]
    assert BitVector.from_array(arr) == x
    assert np.flatnonzero(arr).tolist() == [0, 2, 3, 6]
    assert x.weight() == 4


@given(st.integers(0, 64), st.integers(0, 2**64))
def test_xor_parity_identity(n, seedish):
    coins = CoinSource.from_seed(seedish % (1 << 64)).derive("p")
    x = BitVector.random(n, coins.derive("x"))
    y = BitVector.random(n, coins.derive("y"))
    assert parity(x ^ y) == parity(x) ^ parity(y)
    assert hamming_distance(x, y) == hamming_distance(y, x)


@given(st.integers(0, 2**32))
@settings(max_examples=50)
def test_triangle_inequality(seedish):
    coins = CoinSource.from_seed(seedish).derive("tri")
    x = BitVector.random(24, coins.derive("x"))
    y = BitVector.random(24, coins.derive("y"))
    z = BitVector.random(24, coins.derive("z"))
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_sample_pair_zero_distance():
    x, y = sample_pair_with_distance(8, 0, ROOT.derive("w0"))
    assert x == y


def test_sample_pair_full_distance():
    x, y = sample_pair_with_distance(8, 8, ROOT.derive("w8"))
    assert y == complement(x)


def test_sample_pair_exact_distance_every_time():
    for i in range(200):
        x, y = sample_pair_with_distance(8, 3, ROOT.derive(f"w3/{i}"))
        assert hamming_distance(x, y) == 3


@pytest.mark.parametrize("n, w", [(1, 0), (1, 1), (8, 0), (8, 1), (8, 5), (8, 8), (63, 32),
                                  (64, 64), (65, 1), (4096, 2048), (4096, 4096)])
def test_sample_weight_vector_matches_loop(n, w):
    coins = ROOT.derive(f"wv/{n}/{w}")
    z = sample_weight_vector(n, w, coins)
    assert z == weight_vector_by_loop(n, w, coins)
    assert z.weight() == w


def test_sample_pair_out_of_range():
    with pytest.raises(ValueError):
        sample_pair_with_distance(8, 9, ROOT)
    with pytest.raises(ValueError):
        sample_weight_vector(8, -1, ROOT)


def test_sampling_deterministic_in_coins():
    a = sample_pair_with_distance(64, 17, ROOT.derive("det"))
    b = sample_pair_with_distance(64, 17, ROOT.derive("det"))
    assert a == b
    c = sample_pair_with_distance(64, 17, ROOT.derive("det2"))
    assert a != c
