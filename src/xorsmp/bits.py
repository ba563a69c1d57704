"""Fixed-length bit vectors with packed storage and Hamming arithmetic.

Vectors are immutable; position 0 is the least significant bit of the
backing integer, so XOR and population count run at machine-word speed
regardless of length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .coins import CoinSource


@dataclass(frozen=True, slots=True, repr=False)
class BitVector:
    """An immutable bit string of fixed length."""

    length: int
    value: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"length must be nonnegative, got {self.length}")
        if self.value < 0 or self.value >> self.length:
            raise ValueError(f"value does not fit in {self.length} bits")

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitVector":
        packed = np.packbits(arr.astype(np.uint8), bitorder="little")
        return cls(len(arr), int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def random(cls, length: int, coins: CoinSource) -> "BitVector":
        nbytes = (length + 7) // 8
        raw = coins.generator().integers(0, 256, size=nbytes, dtype=np.uint8)
        value = int.from_bytes(raw.tobytes(), "little")
        return cls(length, value & ((1 << length) - 1) if length else 0)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"position {i} out of range for length {self.length}")
        return (self.value >> i) & 1

    def weight(self) -> int:
        return self.value.bit_count()

    def to_array(self) -> np.ndarray:
        """Expand to a uint8 array of 0/1 values, index = position."""
        nbytes = (self.length + 7) // 8
        raw = np.frombuffer(self.value.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.length, bitorder="little")

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} != {other.length}")
        return BitVector(self.length, self.value ^ other.value)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        if self.length <= 64:
            body = "".join(str(self.bit(i)) for i in range(self.length))
        else:
            body = f"<{self.length} bits, weight {self.weight()}>"
        return f"BitVector({body})"


def hamming_distance(x: BitVector, y: BitVector) -> int:
    """Number of positions where x and y differ."""
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} != {y.length}")
    return (x.value ^ y.value).bit_count()


def parity(x: BitVector) -> int:
    """Hamming weight of x, mod 2."""
    return x.value.bit_count() & 1


def input_bits(x: Union[BitVector, np.ndarray], length: int, owner: str) -> np.ndarray:
    """A party's input as ``length`` 0/1 uint8 values: a BitVector is
    unpacked, and an array is taken as already unpacked (``to_array``), so
    a caller encoding one input several times unpacks it once.  Raises
    ``ValueError`` naming ``owner`` when the length differs."""
    bits = x.to_array() if isinstance(x, BitVector) else x
    if bits.size != length:
        raise ValueError(f"input length {bits.size}, {owner} expects {length}")
    return bits


def sample_weight_vector(n: int, w: int, coins: CoinSource) -> BitVector:
    """Uniform vector of length n with exactly w ones."""
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range [0, {n}]")
    if w == 0:
        return BitVector.zeros(n)
    arr = np.zeros(n, dtype=np.uint8)
    arr[coins.generator().permutation(n)[:w]] = 1
    return BitVector.from_array(arr)


def sample_pair_with_distance(
    n: int, w: int, coins: CoinSource
) -> Tuple[BitVector, BitVector]:
    """A uniform x and a y at exact Hamming distance w from it.

    x is uniform over all length-n vectors and y = x XOR z for z uniform
    over the weight-w vectors, so the pair hits the requested distance on
    every sample.
    """
    if not 0 <= w <= n:
        raise ValueError(f"distance {w} out of range [0, {n}]")
    x = BitVector.random(n, coins.derive("x"))
    z = sample_weight_vector(n, w, coins.derive("z"))
    return x, x ^ z


__all__ = [
    "BitVector",
    "hamming_distance",
    "parity",
    "input_bits",
    "sample_weight_vector",
    "sample_pair_with_distance",
]
