"""Shared public-coin source with hierarchical derivation.

Every party in a protocol run holds the same master seed, so any party can
regenerate any stream from its derivation path alone; nothing about the
coins ever needs to be communicated.  Child sources are derived by keyed
BLAKE2b over the label, giving independent-behaving streams per label, and
each source's bit stream comes from a counter-based Philox generator keyed
by the first 128 bits of the derived key (reproducible and safe to fan out
across workers).  A Philox stream is fixed by its key and counter alone, so
a stream is opened straight from its key: no seed sequence is hashed and no
OS entropy is read.

Derivation label layout used by the protocols (both parties must follow it
byte for byte so their streams agree):

    trial/<t>/input                        harness input sampling
    trial/<t>/p/hd0, trial/<t>/p/hd1       threshold checks of the full protocol
    trial/<t>/p/pk/<side>/partition        side in {main, tilde}
    trial/<t>/p/pk/<side>/hd/<j>           one child per distance threshold j
    trial/<t>/pk/main/...                  standalone promise-protocol runs

Per-block and per-repetition values are drawn as arrays from the
per-threshold child (blocks are slices of one position-indexed array), so
the streams stay bit-identical between parties without a derivation per
block.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from math import ceil, log2
from typing import Tuple

import numpy as np

_PERSON = b"xorsmp.coins.v1"


@dataclass(frozen=True, slots=True, repr=False)
class CoinSource:
    """A value-semantics handle on one deterministic random stream.

    Equal (seed, path) means an identical stream: ``generator()`` always
    starts at position zero, so derive a fresh child for every distinct
    purpose instead of drawing twice from one source.  Sources compare and
    hash by key alone; the path only names the stream.
    """

    key: bytes
    path: Tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.key) != 32:
            raise ValueError("key must be 32 bytes")

    @classmethod
    def from_seed(cls, seed: int) -> "CoinSource":
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        key = hashlib.blake2b(
            seed.to_bytes(8, "little"), digest_size=32, person=_PERSON
        ).digest()
        return cls(key, ())

    def derive(self, label: str) -> "CoinSource":
        """Deterministic child stream; distinct labels give distinct streams."""
        key = hashlib.blake2b(
            label.encode("utf-8"), digest_size=32, key=self.key
        ).digest()
        return CoinSource(key, self.path + (label,))

    def generator(self) -> np.random.Generator:
        """A Philox generator keyed by this source, positioned at stream start:
        the stream of ``Philox(key=int.from_bytes(key[:16], "little"))``,
        opened from the key alone, with no OS entropy read."""
        return np.random.Generator(np.random.Philox(_key_sequence()(self.key)))

    def __repr__(self) -> str:
        return f"CoinSource({'/'.join(self.path) or '<root>'})"


@functools.cache
def _key_sequence() -> type:
    """The seed-sequence class a stream is opened with, built on first use:
    importing ``numpy.random`` with ``xorsmp`` would grow every process.

    Philox asks its seed sequence for exactly two uint64 words, the key; the
    class answers with the key's first 16 bytes, little-endian, which is the
    key ``Philox(key=...)`` sets from the same integer.  Any other request
    raises, so a numpy that asks differently fails instead of shifting
    streams."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        __slots__ = ("_key",)

        def __init__(self, key: bytes):
            self._key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a key opens a Philox stream as 2 uint64 words; asked for "
                    f"{n_words} of {np.dtype(dtype)}"
                )
            return np.frombuffer(self._key, dtype="<u8", count=2)

    return KeySequence


@dataclass(frozen=True, eq=False)
class Partition:
    """A random assignment of [n] positions to k blocks (blocks may be empty)."""

    n: int
    k: int
    block_of: np.ndarray  # shape (n,), entries in [0, k)

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.block_of, minlength=self.k)


def sample_partition(n: int, k: int, coins: CoinSource) -> Partition:
    """Each position lands in one of k blocks, independently and uniformly."""
    if k < 1:
        raise ValueError(f"block count must be positive, got {k}")
    block_of = coins.generator().integers(0, k, size=n, dtype=np.int64)
    return Partition(n=n, k=k, block_of=block_of)


def c_of_k(k: int) -> int:
    """Per-block cap on differing positions for a k-block partition.

    Evaluates ceil(4*log2(k)/log2(log2(k))), clamped to k.  Below k = 4 the
    inner logarithm is nonpositive or undefined, and a block can never hold
    more than k differing positions anyway, so the cap is k itself there.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k < 4:
        return k
    return min(k, ceil(4.0 * log2(k) / log2(log2(k))))


__all__ = ["CoinSource", "Partition", "sample_partition", "c_of_k"]
