"""One-shot SMP sketches deciding "is the Hamming distance at most d?".

Three interchangeable strategies share one message interface:

* ``raw``      sends the input verbatim; the referee compares exactly.
                Zero error, linear cost; the oracle baseline.
* ``bucket``   hashes positions into B = max(16, 4d^2) buckets and sends
                the B bucket parities, repeated R times.  Simple, quadratic
                in d.
* ``syndrome`` sends, per repetition, the BCH syndrome of the bucket-parity
                vector plus a random linear fingerprint of it.  The referee
                XORs the two parties' syndromes, decodes the difference to a
                sparse vector, and uses the fingerprint XOR to reject bogus
                decodes.  Near-linear in d.

For bucket and syndrome every message segment is a GF(2)-linear function
of the sender's input, so the XOR of the two messages equals the same
function of x XOR y; all decisions are made on that difference.  Both
strategies only ever under-count distances (hash collisions cancel
parities in pairs), which makes the verdict one-sided: a true distance at
most d is never reported as GT unless a fingerprint or decode anomaly
fires, and those events are inside the error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bits import BitVector
from .coins import CoinSource
from .gf2 import BchCode, bch_code

STRATEGIES = ("raw", "bucket", "syndrome")


@dataclass(frozen=True)
class HDParams:
    """Configuration of one distance-threshold instance.

    Derived sizes are fixed functions of (d, epsilon, strategy, length):
    B = max(16, 4d^2) buckets; bucket repetitions R = ceil(4 ln(1/eps));
    syndrome repetitions R = ceil(log2(1/eps)) + 1 with
    f = ceil(log2(R/eps)) + 4 fingerprint rows.  d = 0 degenerates to a
    pure equality fingerprint of f = ceil(log2(1/eps)) + 4 rows over the
    raw input.  Derived sizes are computed once per instance, on first use.
    """

    d: int
    epsilon: float
    strategy: str
    length: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.d < 0:
            raise ValueError("threshold must be nonnegative")
        if self.strategy != "raw" and not 0.0 < self.epsilon < 1.0:
            raise ValueError("error budget must lie in (0, 1)")

    @cached_property
    def bucket_count(self) -> int:
        # Floor of 16: with 4d^2 = 4 buckets at d = 1, a weight-3 difference
        # collapses to weight <= 1 in 5 of 8 repetitions (odd weights cannot
        # spread over so few buckets), blowing the error budget for inputs
        # two above the threshold.
        if self.d == 0:
            return 1
        return max(16, 4 * self.d * self.d)

    @cached_property
    def repetitions(self) -> int:
        if self.strategy == "raw" or self.d == 0:
            return 1
        if self.strategy == "bucket":
            return math.ceil(4.0 * math.log(1.0 / self.epsilon))
        return math.ceil(math.log2(1.0 / self.epsilon)) + 1

    @cached_property
    def fingerprint_rows(self) -> int:
        if self.strategy == "raw":
            return 0
        if self.d == 0:
            return math.ceil(math.log2(1.0 / self.epsilon)) + 4
        if self.strategy == "bucket":
            return 0
        return math.ceil(math.log2(self.repetitions / self.epsilon)) + 4

    @cached_property
    def code(self) -> Optional[BchCode]:
        if self.strategy == "syndrome" and self.d >= 1:
            return bch_code(self.bucket_count, self.d)
        return None

    @cached_property
    def payload_bits(self) -> int:
        """Message length in bits; identical for both parties."""
        return self.payload_bits_for(self.length)

    def payload_bits_for(self, block_len: int) -> int:
        if self.strategy == "raw":
            return block_len
        if self.d == 0:
            return self.fingerprint_rows
        if self.strategy == "bucket":
            return self.repetitions * self.bucket_count
        code = self.code
        assert code is not None
        return self.repetitions * (code.redundancy + self.fingerprint_rows)


@dataclass(frozen=True, eq=False)
class HDShared:
    """Public-coin material for one instance: both parties hold the same copy.

    ``buckets`` maps (repetition, position) -> bucket; ``fmat`` holds the
    fingerprint matrix, (R, f, B) for syndrome or (f, length) for the d = 0
    equality test, and ``fmat_f32`` its float32 copy for the encoder's
    matmuls.  Drawn in a fixed order from one derived stream so that
    independent derivations by each party agree bit for bit.
    """

    params: HDParams
    buckets: Optional[np.ndarray]
    fmat: Optional[np.ndarray]
    fmat_f32: Optional[np.ndarray] = None


def hd_shared(params: HDParams, coins: CoinSource) -> HDShared:
    """Materialize the shared randomness of one instance from its coin child."""
    if params.strategy == "raw":
        return HDShared(params, None, None)
    gen = coins.generator()
    if params.d == 0:
        fmat = _draw_bits(gen, (params.fingerprint_rows, params.length))
        return HDShared(params, None, fmat, fmat.astype(np.float32))
    buckets = gen.integers(
        0, params.bucket_count, size=(params.repetitions, params.length),
        dtype=np.int64,
    )
    fmat = None
    fmat_f32 = None
    if params.strategy == "syndrome":
        fmat = _draw_bits(
            gen,
            (params.repetitions, params.fingerprint_rows, params.bucket_count),
        )
        fmat_f32 = fmat.astype(np.float32)
    return HDShared(params, buckets, fmat, fmat_f32)


def _draw_bits(gen: np.random.Generator, shape) -> np.ndarray:
    n = int(np.prod(shape))
    raw = gen.integers(0, 256, size=(n + 7) // 8, dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").reshape(shape)


@dataclass(frozen=True)
class HDVerdict:
    le: bool               # the protocol's claim: distance <= d
    estimate: int          # best distance estimate backing the claim


def _mod2(arr: np.ndarray) -> np.ndarray:
    return (arr.astype(np.int32) & 1).astype(np.uint8)


def _fingerprint_matches(
    fmat_rep: np.ndarray, positions: Tuple[int, ...], fpd: np.ndarray
) -> bool:
    w = len(positions)
    if w == 0:
        return not fpd.any()
    if w == 1:
        return bool((fmat_rep[:, positions[0]] == fpd).all())
    if w == 2:
        col = fmat_rep[:, positions[0]] ^ fmat_rep[:, positions[1]]
    else:
        col = np.bitwise_xor.reduce(fmat_rep[:, list(positions)], axis=1)
    return bool((col == fpd).all())


def threshold_search(c: int, verdict) -> Tuple[int, List[int]]:
    """Binary search over lazily evaluated verdicts h(0..c), h(j) true
    meaning LE at threshold j; returns (result, visited).

    Assumes h is monotone nondecreasing and returns the smallest j with
    h(j) true; on non-monotone input (possible under sub-protocol errors)
    the landing index is returned as-is, always within [0, c].
    """
    visited: List[int] = []
    lo, hi = 0, c
    while lo < hi:
        mid = (lo + hi) // 2
        visited.append(mid)
        if verdict(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, visited


# One threshold instance across all k blocks of a partition; a single
# instance is the stack with k = 1.  The bucket hash is drawn per global
# position (restricting a uniform hash on [n] to a block gives an
# independent uniform hash on the block) and the fingerprint matrices are
# shared across blocks, which leaves every per-block failure bound intact
# since the union bound over blocks never needed independence.


@dataclass(eq=False)  # not frozen: built several times per trial, and frozen init is slow
class BlockMessages:
    """One party's messages for one threshold across all blocks.

    Wire layout of block i (bit-exact, rep-major): syndrome repetitions are
    [syndrome bits][fingerprint bits]; bucket repetitions are the B bucket
    parities; raw is the block's input bits verbatim; d = 0 is the f
    fingerprint bits.
    """

    shared: HDShared
    k: int
    parities: Optional[np.ndarray] = None      # (R, k, B)
    syndromes: Optional[np.ndarray] = None     # (R, k, redundancy)
    fingerprints: Optional[np.ndarray] = None  # (R, k, f) or (k, f) for d = 0
    raw_sorted: Optional[np.ndarray] = None    # input bits grouped by block
    raw_bounds: Optional[np.ndarray] = None    # block i occupies [b[i], b[i+1])

    def block_payload(self, i: int) -> np.ndarray:
        params = self.shared.params
        if params.strategy == "raw":
            return self.raw_sorted[self.raw_bounds[i] : self.raw_bounds[i + 1]]
        if params.d == 0:
            return self.fingerprints[i]
        if params.strategy == "bucket":
            return self.parities[:, i, :].reshape(-1)
        return np.concatenate(
            [self.syndromes[:, i, :], self.fingerprints[:, i, :]], axis=1
        ).reshape(-1)

    @classmethod
    def from_block_payloads(
        cls, shared: HDShared, payloads: Sequence[np.ndarray], bounds: np.ndarray
    ) -> "BlockMessages":
        """Inverse of ``block_payload``: payloads[i] is block i's wire bits,
        each already of the length ``payload_bits_for`` gives."""
        params = shared.params
        k = len(payloads)
        if params.strategy == "raw":
            return cls(shared, k, raw_sorted=np.concatenate(payloads), raw_bounds=bounds)
        if params.d == 0:
            return cls(shared, k, fingerprints=np.stack(payloads))
        rows = np.stack(payloads).reshape(k, params.repetitions, -1).transpose(1, 0, 2)
        if params.strategy == "bucket":
            return cls(shared, k, parities=np.ascontiguousarray(rows))
        red = params.code.redundancy
        return cls(
            shared,
            k,
            syndromes=np.ascontiguousarray(rows[:, :, :red]),
            fingerprints=np.ascontiguousarray(rows[:, :, red:]),
        )

    @property
    def bit_length(self) -> int:
        params = self.shared.params
        if params.strategy == "raw":
            return int(self.raw_sorted.size)
        return self.k * params.payload_bits_for(0)


def encode_blocks(
    shared: HDShared,
    x_arr: np.ndarray,
    ones: np.ndarray,
    block_of: np.ndarray,
    k: int,
    sort_order: Optional[np.ndarray] = None,
    bounds: Optional[np.ndarray] = None,
) -> BlockMessages:
    """Encode one party's input restricted to every block of the partition."""
    params = shared.params
    if params.strategy == "raw":
        return BlockMessages(
            shared, k, raw_sorted=x_arr[sort_order], raw_bounds=bounds
        )
    blocks = block_of[ones]
    if params.d == 0:
        # row b holds the input restricted to block b; (k, n) @ (n, f) -> (k, f)
        x_blocks = np.zeros((k, params.length), dtype=np.float32)
        x_blocks[blocks, ones] = 1.0
        fp = _mod2(x_blocks @ shared.fmat_f32.T)
        return BlockMessages(shared, k, fingerprints=fp)
    r_count, b_count = params.repetitions, params.bucket_count
    flat = shared.buckets[:, ones] + blocks * b_count
    flat += np.arange(0, r_count * k * b_count, k * b_count)[:, None]
    counts = np.bincount(flat.ravel(), minlength=r_count * k * b_count)
    par = (counts & 1).astype(np.uint8).reshape(r_count, k, b_count)
    if params.strategy == "bucket":
        return BlockMessages(shared, k, parities=par)
    code = params.code
    par_f = par.astype(np.float32)
    synd = _mod2(par_f.reshape(r_count * k, b_count) @ code.H_f32.T)
    # (R, k, B) @ (R, B, f) -> (R, k, f), batched BLAS
    fp = _mod2(np.matmul(par_f, shared.fmat_f32.transpose(0, 2, 1)))
    return BlockMessages(
        shared, k, parities=par, syndromes=synd.reshape(r_count, k, -1), fingerprints=fp
    )


def decide_block(
    msgs_a: BlockMessages, msgs_b: BlockMessages, i: int
) -> HDVerdict:
    """Referee's verdict for block i of one stacked threshold instance.

    Symmetric in its two message arguments.  Decode and fingerprint
    failures map to GT: above the threshold that is the right answer, and
    under the promise they are already inside the error budget.
    """
    shared = msgs_a.shared
    params = shared.params
    if params.strategy == "raw":
        a = msgs_a.block_payload(i)
        b = msgs_b.block_payload(i)
        dist = int((a ^ b).sum())
        return HDVerdict(le=dist <= params.d, estimate=dist)
    if params.d == 0:
        same = bool((msgs_a.fingerprints[i] == msgs_b.fingerprints[i]).all())
        return HDVerdict(le=same, estimate=0 if same else 1)
    if params.strategy == "bucket":
        diff = msgs_a.parities[:, i, :] ^ msgs_b.parities[:, i, :]
        estimate = int(diff.sum(axis=1).max())
        return HDVerdict(le=estimate <= params.d, estimate=estimate)
    code = params.code
    diffs = msgs_a.syndromes[:, i, :] ^ msgs_b.syndromes[:, i, :]
    fpd = msgs_a.fingerprints[:, i, :] ^ msgs_b.fingerprints[:, i, :]
    packed = np.packbits(diffs, axis=1, bitorder="little").tobytes()
    if packed.count(0) == len(packed):
        # Every repetition decodes to the empty set; a nonzero fingerprint
        # difference then means a codeword of weight >= 2d + 1, so GT.
        if fpd.any():
            return HDVerdict(le=False, estimate=params.d + 1)
        return HDVerdict(le=True, estimate=0)
    width = len(packed) // params.repetitions
    estimate = 0
    for rep in range(params.repetitions):
        word = int.from_bytes(packed[rep * width : (rep + 1) * width], "little")
        hit = code.decode_elements(code.elements_from_packed(word)) if word else ()
        if hit is None or not _fingerprint_matches(shared.fmat[rep], hit, fpd[rep]):
            return HDVerdict(le=False, estimate=params.d + 1)
        estimate = max(estimate, len(hit))
    return HDVerdict(le=True, estimate=estimate)


@lru_cache(maxsize=16)
def _one_block(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (block_of, sort_order, bounds) of the 1-block partition of [n]."""
    arrays = (np.zeros(n, dtype=np.int64), np.arange(n), np.array([0, n]))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def hd_encode_shared(shared: HDShared, x: BitVector) -> BlockMessages:
    """One party's message for a single instance: its 1-block stack."""
    n = shared.params.length
    if x.length != n:
        raise ValueError(f"input length {x.length}, instance expects {n}")
    x_arr = x.to_array()
    block_of, sort_order, bounds = _one_block(n)
    return encode_blocks(
        shared, x_arr, np.nonzero(x_arr)[0], block_of, 1, sort_order, bounds
    )


def hd_decide(params: HDParams, m_a: BlockMessages, m_b: BlockMessages) -> HDVerdict:
    """Referee's verdict from the two messages of one single instance."""
    if m_a.shared is not m_b.shared and m_a.shared.params != m_b.shared.params:
        raise ValueError("messages come from different instances")
    return decide_block(m_a, m_b, 0)


__all__ = [
    "STRATEGIES",
    "HDParams",
    "HDShared",
    "HDVerdict",
    "hd_shared",
    "hd_encode_shared",
    "hd_decide",
    "threshold_search",
    "BlockMessages",
    "encode_blocks",
    "decide_block",
]
