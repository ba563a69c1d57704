"""One-shot SMP sketches deciding "is the Hamming distance at most d?".

Three interchangeable strategies share one message interface:

* ``raw``      sends the input verbatim; the referee compares exactly.
                Zero error, linear cost; the oracle baseline.
* ``bucket``   hashes positions into B = max(16, 4d^2) buckets and sends
                the B bucket parities, repeated R times.  Simple, quadratic
                in d.
* ``syndrome`` sends, per repetition, the BCH syndrome of the bucket-parity
                vector plus a random linear fingerprint of it.  The referee
                decodes the syndrome difference to a sparse vector, and uses
                the fingerprint difference to reject bogus decodes.
                Near-linear in d.

Every message segment is a GF(2)-linear function of the sender's input, so
the XOR of the two messages (``msgs_a ^ msgs_b``) is the message the same
coins encode from x XOR y: a PinSketch of the difference (Dodis,
Ostrovsky, Reyzin and Smith).  The referee reads only that difference
stack, so a caller holding x XOR y encodes it once, on |x XOR y| ones,
instead of both messages.

Syndromes and fingerprints are computed as GF(2) operations: each is the
XOR of packed uint64 columns gathered at the input's ones (a bucket's BCH
column, a bucket's fingerprint column), taken per block.  The referee
checks a decode's one-word fingerprint as an int XOR of the decoded
buckets' columns, and a wider one with numpy.  Bucket and syndrome only
ever under-count distances (hash collisions cancel parities in pairs),
which makes the verdict one-sided: a true distance at most d is never
reported as GT unless a fingerprint or decode anomaly fires, and those
events are inside the error budget.

The referee works in batches.  ``decide_block`` decides any set of blocks
of one stack at once, and ``threshold_search`` runs the blocks' binary
searches level by level, so each level asks one ``decide_block`` call per
threshold.  It decodes only where the answer can lie, by three paths, each
chosen from a property of its input, never from a setting:

* Bulk pass over weights 0 to 2 (calls of at least ``BULK_MIN_BLOCKS``
  blocks): every repetition whose syndrome difference is zero, one bucket's
  column, or (at d >= 2) the XOR of the two columns that the pair's closed
  form names from S_1 and S_3 is settled, fingerprint included, in one
  numpy pass over all blocks, which checks two candidate buckets per
  repetition; only blocks with a repetition it cannot settle are decided
  one by one.
* Prediction: within a block, once two repetitions have decoded to more
  than two buckets, the positions decoded in both predict each later
  repetition, which is checked against its syndrome instead of decoded: a
  syndrome of a narrow-sense BCH code of designed distance 2d + 1 fixes its
  error set of weight at most d (Dodis, Ostrovsky, Reyzin and Smith), so a
  prediction that matches is the decode.  A miss is decoded, and the
  prediction rebuilt from that decode and the earlier ones.
* Candidate buckets (codes of at least ``CANDIDATE_MIN_BUCKETS`` buckets):
  every decode after a block's first one past weight 2 searches its roots
  among the buckets of the positions that such decodes returned, and scans
  the whole code only when they do not hold every root.

Verdicts and estimates are those of decoding every repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bits import BitVector, input_bits
from .coins import CoinSource
from .gf2 import (
    MAX_FIELD_DEGREE, BchCode, bch_code, pack_words, row_ints, syndrome_bits, unpack_words,
)

STRATEGIES = ("raw", "bucket", "syndrome")

# The largest syndrome threshold whose B = 4 d^2 buckets fit the largest
# configured field, GF(2^MAX_FIELD_DEGREE) with 2^m - 1 code positions.
SYNDROME_D_MAX = math.isqrt(((1 << MAX_FIELD_DEGREE) - 1) // 4)


@dataclass(frozen=True)
class HDParams:
    """Configuration of one distance-threshold instance.

    Derived sizes are fixed functions of (d, epsilon, strategy, length):
    B = max(16, 4d^2) buckets; bucket repetitions R = ceil(4 ln(1/eps));
    syndrome repetitions R = ceil(log2(1/eps)) + 1 with
    f = ceil(log2(R/eps)) + 4 fingerprint rows.  d = 0, under either
    strategy, is the syndrome sketch at capacity 0: each position is its
    own bucket, R = 1, the syndrome is empty and the f rows fingerprint the
    input itself.  Derived sizes are computed once per instance, on first use.
    Syndrome supports d <= ``SYNDROME_D_MAX`` (127), checked on construction,
    before any coin is drawn.
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
        if self.strategy == "syndrome" and self.d > SYNDROME_D_MAX:
            raise ValueError(
                f"syndrome supports thresholds up to d = {SYNDROME_D_MAX}: the 4d^2 "
                f"buckets must fit GF(2^{MAX_FIELD_DEGREE}); got d = {self.d}"
            )

    @cached_property
    def bucket_count(self) -> int:
        # Floor of 16: with 4d^2 = 4 buckets at d = 1, a weight-3 difference
        # collapses to weight <= 1 in 5 of 8 repetitions (odd weights cannot
        # spread over so few buckets), blowing the error budget for inputs
        # two above the threshold.
        if self.d == 0:
            return self.length
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
        if self.strategy == "raw" or (self.strategy == "bucket" and self.d):
            return 0
        return math.ceil(math.log2(self.repetitions / self.epsilon)) + 4

    @cached_property
    def code(self) -> Optional[BchCode]:
        if self.strategy == "syndrome" and self.d >= 1:
            return bch_code(self.bucket_count, self.d)
        return None

    @cached_property
    def syndrome_cols(self) -> np.ndarray:
        """Each bucket's packed syndrome column: no words at capacity 0."""
        return self.code.cols if self.code else np.zeros((self.bucket_count, 0), np.uint64)

    @cached_property
    def segment_bits(self) -> Tuple[int, ...]:
        """One repetition's wire segments, in order: the d m syndrome bits
        and then the f fingerprint bits for syndrome and for d = 0 (an
        empty syndrome), the B bucket parities for bucket, none for raw."""
        if self.strategy == "raw":
            return ()
        if not self.fingerprint_rows:
            return (self.bucket_count,)
        return (syndrome_bits(self.bucket_count, self.d), self.fingerprint_rows)

    @cached_property
    def payload_bits(self) -> int:
        """Message length in bits; identical for both parties."""
        if self.strategy == "raw":
            return self.length
        return self.repetitions * sum(self.segment_bits)

    def stack_bits(self, k: int) -> int:
        """Bits of a k-block stack over the whole input: raw sends every
        input bit once, the others one ``payload_bits`` message per block."""
        return self.length if self.strategy == "raw" else k * self.payload_bits


@dataclass(frozen=True, eq=False)
class HDShared:
    """Public-coin material for one instance: both parties hold the same copy.

    ``coins`` is the source it was drawn from; the referee decides only
    messages whose sources have the same key.  ``buckets`` maps (repetition,
    position) -> bucket, None at d = 0 where each position is its own
    bucket.  ``fmat`` is the fingerprint matrix as packed columns, None when
    f = 0: (R, B, w) uint64 words, w = ceil(f / 64), where bit t % 64 of word
    t // 64 of column b is row t and the bits at or past f are zero.  Drawn in
    a fixed order from one derived stream so that independent derivations by
    each party agree bit for bit.
    """

    params: HDParams
    coins: CoinSource
    buckets: Optional[np.ndarray]
    fmat: Optional[np.ndarray]


def hd_shared(params: HDParams, coins: CoinSource) -> HDShared:
    """Materialize the shared randomness of one instance from its coin child."""
    if params.strategy == "raw":
        return HDShared(params, coins, None, None)
    gen = coins.generator()
    buckets = fmat = None
    if params.d:
        size = (params.repetitions, params.length)
        buckets = gen.integers(0, params.bucket_count, size=size, dtype=np.int64)
    f = params.fingerprint_rows
    if f:
        size = (params.repetitions, params.bucket_count, -(-f // 64))
        fmat = gen.integers(0, 1 << 64, size=size, dtype=np.uint64)
        fmat[..., -1] &= np.uint64((1 << ((f - 1) % 64 + 1)) - 1)
    return HDShared(params, coins, buckets, fmat)


@dataclass(frozen=True)
class HDVerdict:
    le: bool               # the protocol's claim: distance <= d
    estimate: int          # best distance estimate backing the claim


def threshold_search(
    c: int, k: int, verdicts: Callable[[int, List[int]], List[bool]]
) -> Tuple[List[int], List[List[int]]]:
    """Binary search of k blocks over lazily evaluated verdicts h_i(0..c),
    h_i(j) true meaning LE at threshold j; returns each block's result and
    the thresholds it visited, in order.

    The blocks search level by level: at each level ``verdicts(j, blocks)``
    gives h_i(j) for every block i in ``blocks`` (in their order) that asks
    threshold j there, so one call serves all of them.  Each block visits
    exactly the thresholds its own binary search would.  For monotone
    nondecreasing h_i the result is the smallest j with h_i(j) true; on
    non-monotone input (possible under sub-protocol errors) it is the
    landing index, always within [0, c].
    """
    lo, hi = [0] * k, [c] * k
    visited: List[List[int]] = [[] for _ in range(k)]
    live = list(range(k)) if c else []
    while live:
        asks: Dict[int, List[int]] = {}
        for i in live:
            mid = (lo[i] + hi[i]) // 2
            visited[i].append(mid)
            asks.setdefault(mid, []).append(i)
        for j, blocks in asks.items():
            for i, le in zip(blocks, verdicts(j, blocks), strict=True):
                if le:
                    hi[i] = j
                else:
                    lo[i] = j + 1
        live = [i for i in live if lo[i] < hi[i]]
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

    Wire layout of block i (bit-exact, rep-major): each repetition sends
    the segments of ``HDParams.segment_bits`` in order; raw is the block's
    input bits verbatim.  Segment s is held as packed words (see
    ``gf2.pack_words``), one (R, k, ceil(bits / 64)) uint64 array in
    ``words[s]``; only the payload conversions touch bits.
    """

    shared: HDShared
    k: int
    words: Tuple[np.ndarray, ...] = ()       # one array per segment
    raw_sorted: Optional[np.ndarray] = None  # input bits grouped by block
    raw_bounds: Optional[np.ndarray] = None  # block i occupies [b[i], b[i+1])

    def block_payloads(self) -> List[np.ndarray]:
        """Wire bits of every block, in block order, unpacked in one pass."""
        params = self.shared.params
        if params.strategy == "raw":
            return np.split(self.raw_sorted, self.raw_bounds[1:-1])
        rows = np.concatenate(
            [unpack_words(w, bits) for w, bits in zip(self.words, params.segment_bits)],
            axis=2,
        )
        return list(rows.transpose(1, 0, 2).reshape(self.k, -1))

    @classmethod
    def from_block_payloads(
        cls, shared: HDShared, wire: np.ndarray, bounds: np.ndarray
    ) -> "BlockMessages":
        """Inverse of ``block_payloads``: ``wire`` is every block's wire bits
        in block order, block i of the input occupying [bounds[i], bounds[i+1])."""
        params = shared.params
        k = len(bounds) - 1
        if params.strategy == "raw":
            return cls(shared, k, raw_sorted=wire, raw_bounds=bounds)
        rows = wire.reshape(k, params.repetitions, -1)
        words = []
        start = 0
        for bits in params.segment_bits:  # pack each segment, then put repetitions first
            words.append(pack_words(rows[:, :, start : start + bits]).transpose(1, 0, 2))
            start += bits
        return cls(shared, k, words=tuple(words))

    @property
    def bit_length(self) -> int:
        return self.shared.params.stack_bits(self.k)

    def __xor__(self, other: "BlockMessages") -> "BlockMessages":
        """The difference stack: every segment of one stack XORed with the
        other's.  Each segment is GF(2)-linear in the sender's input, so
        this is the stack the same coins encode from the XOR of the two
        inputs.  Both must be drawn from the same coins."""
        if self.shared.coins.key != other.shared.coins.key:
            raise ValueError("messages were drawn from different coins")
        if self.shared.params.strategy == "raw":
            raw = self.raw_sorted ^ other.raw_sorted
            return BlockMessages(self.shared, self.k, raw_sorted=raw, raw_bounds=self.raw_bounds)
        words = tuple([a ^ b for a, b in zip(self.words, other.words)])
        return BlockMessages(self.shared, self.k, words=words)


def _xor_by_block(vals: np.ndarray, one_bounds: np.ndarray) -> np.ndarray:
    """XOR of the word rows vals[..., j, :] over the ones j of each block,
    block i owning j in [one_bounds[i], one_bounds[i+1]); empty blocks
    give zero words."""
    shape = vals.shape[:-2] + (one_bounds.size - 1, vals.shape[-1])
    if not vals.size:  # no ones, or no words (an empty syndrome)
        return np.zeros(shape, dtype=vals.dtype)
    if one_bounds.size == 2:  # a single block: one plain reduction
        return np.bitwise_xor.reduce(vals, axis=-2, keepdims=True)
    starts = one_bounds[:-1]
    filled = starts < one_bounds[1:]
    if filled.all():
        return np.bitwise_xor.reduceat(vals, starts, axis=-2)
    out = np.zeros(shape, dtype=vals.dtype)
    out[..., filled, :] = np.bitwise_xor.reduceat(vals, starts[filled], axis=-2)
    return out


def encode_blocks(
    shared: HDShared,
    x_sorted: np.ndarray,
    ones: np.ndarray,
    one_bounds: np.ndarray,
    k: int,
    bounds: np.ndarray,
) -> BlockMessages:
    """Encode one party's input restricted to every block of the partition.

    The party splits its input once for all thresholds: ``x_sorted`` holds
    its bits grouped by block (block i occupies [bounds[i], bounds[i+1]))
    and ``ones`` the positions of its ones grouped by block (block i owns
    ones[one_bounds[i]:one_bounds[i+1]]).
    """
    params = shared.params
    if params.strategy == "raw":
        return BlockMessages(shared, k, raw_sorted=x_sorted, raw_bounds=bounds)
    r_count = params.repetitions
    if not params.fingerprint_rows:  # bucket parities
        # parities laid out in whole words of bits, so they pack in one call
        width = 64 * -(-params.bucket_count // 64)
        rep_base = np.arange(0, r_count * k * width, k * width)[:, None]
        flat = shared.buckets.take(ones, axis=1) + rep_base
        if k > 1:  # offset each one by its block
            flat += np.repeat(np.arange(0, k * width, width), np.diff(one_bounds))
        counts = np.bincount(flat.ravel(), minlength=r_count * k * width)
        par = (counts & 1).astype(np.uint8).reshape(r_count, k, width)
        words = np.packbits(par, axis=-1, bitorder="little").view("<u8")
        return BlockMessages(shared, k, words=(words,))
    # A bucket hit twice cancels in the XOR, so no parity vector is needed.
    # take gathers rows several times faster than indexing with [hit], and
    # keeps hit C-ordered: buckets[:, ones] is Fortran-ordered, from which
    # the row gathers below run 3-5x slower
    hit = ones[None] if shared.buckets is None else shared.buckets.take(ones, axis=1)
    synd = _xor_by_block(params.syndrome_cols.take(hit, axis=0), one_bounds)
    cols = shared.fmat.reshape(-1, shared.fmat.shape[-1])  # (R B, w): rep r starts at r B
    rep_base = np.arange(r_count)[:, None] * params.bucket_count
    fp = _xor_by_block(cols.take(hit + rep_base, axis=0), one_bounds)
    return BlockMessages(shared, k, words=(synd, fp))


def decide_block(
    diff: BlockMessages,
    blocks: Sequence[int],
    positions: Optional[Sequence[np.ndarray]] = None,
) -> List[HDVerdict]:
    """Referee's verdicts for the given blocks of one stacked threshold
    instance, one verdict per block in the order given.

    ``diff`` is the difference stack, ``msgs_a ^ msgs_b``, or the stack
    encoded from the XOR of the two inputs; its rows for those blocks are
    turned into ints in one pass.  ``positions[i]`` lists block i's input
    positions, which only serve to predict decodes; None stands for every
    position, as for a single instance.  Decode and fingerprint failures
    map to GT: above the threshold that is the right answer, and under the
    promise they are already inside the error budget.
    """
    shared = diff.shared
    params = shared.params
    if params.strategy == "raw":
        bounds = diff.raw_bounds
        dists = [int(diff.raw_sorted[bounds[i] : bounds[i + 1]].sum()) for i in blocks]
        return [HDVerdict(le=dist <= params.d, estimate=dist) for dist in dists]
    # (R, len(blocks), w) words per segment: the blocks' differences
    step = len(blocks)
    diffs = list(diff.words)
    if step != diff.k or list(blocks) != list(range(step)):  # not every block, in order
        diffs = [words.take(blocks, axis=1) for words in diffs]
    if not params.fingerprint_rows:  # bucket parities
        # the padding bits are zero, so the row's set bits are the parities
        estimates = np.bitwise_count(diffs[0]).sum(axis=2).max(axis=0).tolist()
        return [HDVerdict(le=est <= params.d, estimate=est) for est in estimates]
    if step < BULK_MIN_BLOCKS:
        return _decide_each(shared, diffs, positions, blocks)
    verdicts = _settle_light_blocks(shared, *diffs)
    todo = [t for t, verdict in enumerate(verdicts) if verdict is None]
    if todo:
        diffs = [diff.take(todo, axis=1) for diff in diffs]
        rest = iter(_decide_each(shared, diffs, positions, [blocks[t] for t in todo]))
        verdicts = [next(rest) if verdict is None else verdict for verdict in verdicts]
    return verdicts


def _decide_each(
    shared: HDShared,
    diffs: List[np.ndarray],
    positions: Optional[Sequence[np.ndarray]],
    blocks: Sequence[int],
) -> List[HDVerdict]:
    """``_decide_syndrome`` for each block, from the (R, len(blocks), w)
    syndrome and fingerprint differences, with the rows turned into ints
    in one pass."""
    # one int per (repetition, block), repetition-major: block t's
    # repetitions are every step-th from t
    step = len(blocks)
    rows = shared.params.repetitions * step
    syn, fps = [row_ints(diff.reshape(rows, diff.shape[-1])) for diff in diffs]
    if step == 1:  # its repetitions are the whole lists
        return [_decide_syndrome(shared, syn, fps, positions, blocks[0])]
    return [
        _decide_syndrome(shared, syn[t::step], fps[t::step], positions, i)
        for t, i in enumerate(blocks)
    ]


# A call deciding at least this many blocks first settles every repetition
# of weight 0, 1 or 2 in one numpy pass (_settle_light_blocks), a fixed
# 0.03 to 0.05 ms.  Every decide_block call of 400 c1_mix and 30 tail_r64
# operations (seed 3), timed in-process on a 2-vCPU host with the cut-offs
# interleaved: c1_mix's calls of 1 to 16 blocks took 0.043 to 0.045 ms per
# operation at cut-offs of 4 to 32 and without the pass, and 0.049 with
# the pass at every call (best of 21); tail_r64's calls of 48 to 64 blocks
# 0.77 ms at cut-offs of 8 to 48 and 0.82 at 1, against 1.99 without
# (best of 11).
BULK_MIN_BLOCKS = 32


def _settle_light_blocks(
    shared: HDShared, syn: np.ndarray, fps: np.ndarray
) -> List[Optional[HDVerdict]]:
    """Verdicts of the blocks whose repetitions all have a syndrome
    difference of weight at most 2, or that have such a repetition whose
    fingerprint check fails; None for the others.

    ``syn`` and ``fps`` are the (R, blocks, words) syndrome and fingerprint
    differences, repetition-major.  Each repetition gets two candidate
    buckets, B standing for none (a zero column), and is settled as what
    ``BchCode.decode_elements`` returns for it when their columns XOR to its
    syndrome.  The candidates are log X_1 and log X_2, X_2 = X_1 + S_1, each
    B when its element is 0 or its log is not below B.  At d >= 2,
    X_1 = S_1 w for the even root w of w^2 + w = S_3 / S_1^3 + 1 read from
    ``Field.qsolve_np``; w = 0 (S_3 = S_1^3, or no root) and d = 1 give
    X_1 = 0, so the single bucket log S_1, and S_1 = 0 gives none, which
    settles a zero syndrome only.  A pair with one bucket at or past B
    leaves the other's column, which cannot match: it reads S_1 = X_2, and
    the syndrome S_1 = X_1 + X_2 with X_1 nonzero.  A settled repetition's
    fingerprint must be that of its buckets.  A block's verdict is GT when
    any repetition fails and LE with the largest decoded weight otherwise,
    so settling some repetitions in bulk and the rest one by one gives the
    same verdicts."""
    params = shared.params
    r_count, step, words = syn.shape
    b = params.bucket_count
    if words:  # d >= 1: S_1 (and S_3) come off the first syndrome word
        code = params.code
        fld, order = code.field, code.field.order
        word = syn[..., 0].view(np.int64)
        s1 = word & order
        if code.d >= 2:
            # exp at log S_3 - 3 log S_1 (mod order) is S_3 / S_1^3; S_1 = 0
            # or S_3 = 0 read exp at or past 2 order, which is 0, and so
            # does X_1 for w = 0, whose log is past every bucket
            log1 = fld.log_np.take(s1)
            log3 = fld.log_np.take(word >> code.m & order)
            u = fld.exp_np.take(log3 + (order - 3 * log1 % order)) ^ 1
            x1 = fld.exp_np.take(log1 + fld.log_np.take(fld.qsolve_np.take(u)))
        else:
            x1 = np.zeros_like(s1)
        cand = np.minimum(fld.log_np.take(np.array((x1, x1 ^ s1))), b)
    else:
        cand = np.full((2, r_count, step), b)
    # row B of the columns and column B of each repetition's fingerprint
    # matrix are zero
    cols = np.zeros((b + 1, words), dtype=np.uint64)
    cols[:b] = params.syndrome_cols
    pair = cols.take(cand, axis=0)
    unsettled = np.logical_or.reduce(pair[0] ^ pair[1] != syn, axis=2)
    fcols = np.zeros((r_count, b + 1, fps.shape[2]), dtype=np.uint64)
    fcols[:, :b] = shared.fmat
    base = np.arange(0, r_count * (b + 1), b + 1)[:, None]
    pair = fcols.reshape(-1, fps.shape[2]).take(cand + base, axis=0)
    wrong = np.logical_or.reduce(pair[0] ^ pair[1] != fps, axis=2)
    # a repetition's outcome, ranked: its weight, 3 when unsettled, 4 when a
    # settled fingerprint fails; a block's is the largest of its repetitions'
    rank = np.where(unsettled, 3, np.where(wrong, 4, np.add.reduce(cand < b)))
    # one verdict object per outcome: LE at weight 0, 1, 2; unsettled; GT
    outcomes = [HDVerdict(le=True, estimate=e) for e in range(3)]
    outcomes += [None, HDVerdict(le=False, estimate=params.d + 1)]
    return [outcomes[o] for o in np.maximum.reduce(rank).tolist()]


# A decode after a block's first one past weight 2 searches its locator's
# roots among candidate buckets first when the code has at least this many
# buckets: 4 r^2 = 16,384 for the r = 64 guard, at most 1,024 for r <= 16.
# The candidate search costs a dozen numpy calls, and the full scan deg
# slices of B entries.  Best of 30 in-process on a 2-vCPU host, a decode
# with w + w/4 candidates / with the full scan: B = 16,384, d = 64 at
# w = 3, 32, 62: 92/96, 272/623, 663/1,627 us; B = 4,096, d = 32 at
# w = 3, 16, 30: 62/49, 126/155, 207/283 us; B = 2,304, d = 24 at
# w = 3, 12, 22: 56/39, 92/94, 138/161 us.
CANDIDATE_MIN_BUCKETS = 4096


def _decide_syndrome(
    shared: HDShared,
    syn: List[int],
    fps: List[int],
    positions: Optional[Sequence[np.ndarray]],
    i: int,
) -> HDVerdict:
    """Block i's verdict from its per-repetition syndrome and fingerprint
    differences.

    Each decode to more than two buckets marks the block's input positions
    whose buckets it returned (``positions[i]``, every position when None).
    From the second such decode on, the positions marked by it and by an
    earlier one predict each later repetition's odd buckets: those that
    these positions hit an odd number of times.  A prediction of at most d
    buckets whose columns XOR to the repetition's syndrome is what the
    decoder would return, since two distinct sets of at most d buckets with
    one syndrome would differ by a nonzero codeword of weight at most
    2d < 2d + 1.  A repetition whose prediction misses is decoded, which
    rebuilds the prediction: two differing positions that share a bucket
    in one decoded repetition, or a position that shares a differing one's
    bucket in two, cost one more decode, not one per later repetition.  In
    a code of at least ``CANDIDATE_MIN_BUCKETS`` buckets, every decode after
    the first searches the buckets of the marked positions first.  Every
    repetition's fingerprint is checked.
    """
    params = shared.params
    if not any(syn):
        # Every repetition decodes to the empty set; a nonzero fingerprint
        # difference then means a codeword of weight >= 2d + 1, so GT.  At
        # d = 0 the syndrome is empty and this is the equality test.
        if any(fps):
            return HDVerdict(le=False, estimate=params.d + 1)
        return HDVerdict(le=True, estimate=0)
    code, fmat = params.code, shared.fmat
    one_word = fmat.shape[-1] == 1
    with_candidates = params.bucket_count >= CANDIDATE_MIN_BUCKETS
    estimate = 0
    buckets = None  # (R, block size): the block's buckets, on the first decode past weight 2
    seen = None  # per block position: did a decode past weight 2 return its bucket
    predicted = None  # per repetition, the buckets of the positions it predicts
    for rep, (word, fp) in enumerate(zip(syn, fps)):
        hit = ()  # a zero syndrome decodes to no bucket
        if word and predicted is not None:
            odd = set()
            for b in predicted[rep]:
                odd ^= {b}
            if len(odd) <= params.d and code.is_syndrome(odd, word):
                hit = tuple(sorted(odd))
        if word and not hit:
            candidates = None
            if seen is not None and with_candidates:
                candidates = buckets[rep, seen]
            hit = code.decode_elements(word, candidates)
            if hit is None:
                return HDVerdict(le=False, estimate=params.d + 1)
            if len(hit) > 2:
                if buckets is None:
                    buckets = shared.buckets
                    if positions is not None:
                        buckets = buckets.take(positions[i], axis=1)
                mark = np.zeros(params.bucket_count, dtype=bool)
                mark[list(hit)] = True
                now = mark[buckets[rep]]
                if seen is not None:
                    predicted = buckets[:, now & seen].tolist()
                    now |= seen
                seen = now
        # The decoded buckets' columns must XOR to the fingerprint
        # difference.  A one-word column is XORed as an int, at any decode
        # size: best of 5 in-process on a 2-vCPU host, 0.64 / 1.6 / 4.2 /
        # 9.2 us for 3 / 10 / 30 / 60 buckets against the numpy form's
        # 2.4 / 2.8 / 4.9 / 6.1, and 88% of tail_r64's checks are of 3 to 10
        # buckets, 4% of more than 30.  Wider columns keep the numpy form.
        if one_word:
            got = 0
            for b in hit:
                got ^= fmat.item(rep, b, 0)
        else:
            got = row_ints(np.bitwise_xor.reduce(fmat[rep].take(hit, axis=0), keepdims=True))[0]
        if got != fp:
            return HDVerdict(le=False, estimate=params.d + 1)
        estimate = max(estimate, len(hit))
    return HDVerdict(le=True, estimate=estimate)


def hd_encode_shared(shared: HDShared, x: Union[BitVector, np.ndarray]) -> BlockMessages:
    """One party's message for a single instance: its 1-block stack.  The
    input x may also be given unpacked (``bits.input_bits``)."""
    n = shared.params.length
    x_arr = input_bits(x, n, "instance")
    ones = np.flatnonzero(x_arr)
    return encode_blocks(
        shared, x_arr, ones, np.array([0, ones.size]), 1, np.array([0, n])
    )


def hd_decide(params: HDParams, m_a: BlockMessages, m_b: BlockMessages) -> HDVerdict:
    """Referee's verdict on ``m_a ^ m_b``, the difference of the two
    messages of one single instance, whose parameters must be ``params``."""
    # the identity test spares the field-by-field comparison (about 1.3 us
    # a call) when the messages were drawn for params itself, as they are
    # in the sketch-error experiments
    same = params is m_a.shared.params is m_b.shared.params
    if not (same or params == m_a.shared.params == m_b.shared.params):
        raise ValueError("messages come from a different instance than params")
    return decide_block(m_a ^ m_b, [0])[0]


__all__ = [
    "STRATEGIES",
    "SYNDROME_D_MAX",
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
