"""GF(2^m) arithmetic and binary BCH syndrome decoding.

The syndrome sketch strategy compresses a length-B parity vector p to its
BCH syndrome: the d odd power sums S_(2i-1) = sum of alpha^((2i-1) j) over
the odd buckets j, the syndrome of a narrow-sense BCH code of designed
distance 2d + 1 (the PinSketch view of Dodis, Ostrovsky, Reyzin and Smith).
Each code keeps the syndrome of every single bucket as a packed column of
uint64 words, so a syndrome is the XOR of the columns of the odd buckets;
no matrix over GF(2) is ever formed.  Decoding recovers the up-to-d odd
buckets from the transmitted syndrome as one packed row, a Python int.
Weight 0, 1 and 2 patterns, which dominate the protocol workload, are
decoded in O(1) from the tables below, reading S_1 and S_3 off the row with
a shift and a mask.  The rest split the row once into its d elements (the
even syndromes follow by squaring) and go through Berlekamp's binary form
of Berlekamp-Massey, which steps only the odd syndromes (S_2j = S_j^2
zeroes every other discrepancy) and keeps the locator as logs, then a Chien
search for the locator's roots.  Three paths keep that cost where the
answer can lie, each chosen from a property of its input:

* Early stopping: once a step's discrepancy is zero and many steps are
  left, one numpy gather computes every remaining discrepancy under the
  current locator; when all are zero the loop, which could not change the
  locator any more, stops.  A weight-w error skips its last d - w steps.
* Candidate root search: a caller may name candidate positions.  A locator
  of degree deg with deg roots among them has no other root, so those are
  the decode; with fewer, the same call scans the whole code as below.
* Full scan: every position, each locator term read as one strided slice
  of a table of inverse powers.

Every successful decode is verified before being returned: the XOR of the
decoded positions' columns, as an int, must equal the input row, so a
returned vector always reproduces the input syndrome; ambiguity beyond the
code's packing radius is the caller's fingerprint check to screen.

Packed words are little-endian throughout: bit j of a packed bit row is bit
j % 64 of word j // 64, which is the row's wire order.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

# Primitive polynomials over GF(2), one per extension degree (low-bit = x^0).
_PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}
MAX_FIELD_DEGREE = max(_PRIMITIVE_POLY)


class Field:
    """GF(2^m) with exp/log tables; alpha is the root of the primitive poly."""

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLY:
            raise ValueError(f"no primitive polynomial configured for m={m}")
        self.m = m
        self.order = (1 << m) - 1
        self.poly = _PRIMITIVE_POLY[m]
        # log 0 is a sentinel above every sum of two true logs, and exp reads 0
        # from 2 order up, so exp[log a + log b] = a b with zero factors too
        self.log_zero = 2 * self.order
        exp = [0] * (4 * self.order + 1)
        log = [self.log_zero] * (1 << m)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= self.poly
        if x != 1:
            raise ValueError(f"polynomial {self.poly:#x} is not primitive for m={m}")
        for i in range(self.order, 2 * self.order):
            exp[i] = exp[i - self.order]
        # Typed tables (exp in 2 bytes, as m <= 16; log in 4) keep the
        # decoder's table reads in cache, where a list's entries would point
        # at scattered int objects
        self.exp = array("H", exp)
        self.log = array("I", log)
        # zero-copy numpy views of the same tables, for gathers
        self.exp_np = np.frombuffer(self.exp, dtype=np.uint16)
        self.log_np = np.frombuffer(self.log, dtype=f"u{self.log.itemsize}")

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    @cached_property
    def qsolve_np(self) -> np.ndarray:
        """Entry u is the even root w of w^2 + w = u (the other is w + 1),
        or 0 when u is outside the map's image; at u = 0 the roots are 0
        and 1.  One uint16 table, read by scalar and bulk decodes alike."""
        w = np.arange(0, 1 << self.m, 2, dtype=np.uint16)
        table = np.zeros(1 << self.m, dtype=np.uint16)
        # exp reads 0 at twice log 0, so w = 0 squares to 0 too
        table[self.exp_np.take(2 * self.log_np.take(w)) ^ w] = w
        return table


_FIELDS: Dict[int, Field] = {}


def field_degree(n_buckets: int) -> int:
    """Smallest supported m >= 2 whose code length 2^m - 1 covers n_buckets."""
    m = max(2, n_buckets.bit_length())
    if m not in _PRIMITIVE_POLY:
        raise ValueError(f"no primitive polynomial configured for m={m}")
    return m


def syndrome_bits(n_buckets: int, d: int) -> int:
    """Wire length d * m of a syndrome (0 at d = 0), without building the code."""
    return d * field_degree(n_buckets) if d else 0


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a 0/1 array into little-endian uint64 words."""
    nbits = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (8 * -(-nbits // 64),), dtype=np.uint8)
    out[..., : (nbits + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


def unpack_words(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of ``pack_words``: the first nbits bits of each word row."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=nbits, bitorder="little")


def row_ints(words: np.ndarray) -> List[int]:
    """Each row of an (R, w) uint64 word array as one little-endian int."""
    rows, width = words.shape
    if width == 1:
        return words[:, 0].tolist()
    raw = words.astype("<u8", copy=False).tobytes()
    width *= 8
    return [int.from_bytes(raw[r * width : (r + 1) * width], "little") for r in range(rows)]


def field(m: int) -> Field:
    if m not in _FIELDS:
        _FIELDS[m] = Field(m)
    return _FIELDS[m]


class BchCode:
    """Narrow-sense binary BCH code over positions [0, n_buckets).

    d is the correction capacity (designed distance 2d + 1); the code
    length is 2^m - 1 for the smallest m that fits n_buckets, with unused
    positions simply never occurring in error vectors.
    """

    def __init__(self, n_buckets: int, d: int):
        if d < 1:
            raise ValueError("correction capacity must be at least 1")
        if n_buckets < 1:
            raise ValueError("need at least one position")
        m = field_degree(n_buckets)
        self.field = field(m)
        self.m = m
        self.d = d
        self.n_buckets = n_buckets
        if 2 * d >= (1 << m):
            raise ValueError(f"capacity {d} too large for code length {(1 << m) - 1}")
        self.redundancy = d * m
        self.cols = self._columns()
        self._elem_mask = (1 << m) - 1

    def _columns(self) -> np.ndarray:
        """(n_buckets, ceil(d m / 64)) words; row j packs the wire bits of
        alpha^j, alpha^(3j), ..., alpha^((2d-1)j), m bits per element."""
        fld, m = self.field, self.m
        exp = fld.exp_np[: fld.order].astype(np.uint64)
        pos = np.arange(self.n_buckets, dtype=np.int64)  # < order: no reduction
        step = 2 * pos % fld.order
        expo = pos.copy()  # (2i + 1) j mod order, for i = 0, 1, ...
        cols = np.zeros((self.n_buckets, -(-self.redundancy // 64)), dtype=np.uint64)
        for i in range(self.d):
            elem = exp[expo]
            word, shift = divmod(i * m, 64)
            cols[:, word] |= elem << np.uint64(shift)
            if shift + m > 64:  # element straddles a word boundary
                cols[:, word + 1] |= elem >> np.uint64(64 - shift)
            expo += step
            expo[expo >= fld.order] -= fld.order
        return cols

    @cached_property
    def _col_ints(self) -> List[int]:
        """The rows of ``cols`` as Python integers, for verifying decodes."""
        return row_ints(self.cols)

    def is_syndrome(self, positions: Iterable[int], packed: int) -> bool:
        """Is packed the syndrome row of the error with ones at positions?"""
        cols = self._col_ints
        acc = 0
        for p in positions:
            acc ^= cols[p]
        return acc == packed

    @cached_property
    def _inverse_powers(self) -> np.ndarray:
        """alpha^-k for k in [0, order + d n_buckets): the term Lambda_j
        alpha^(-j p) of a root search is entry order - log Lambda_j + j p,
        so its values at every position p are one stride-j slice."""
        fld = self.field
        period = fld.exp_np.take(-np.arange(fld.order) % fld.order)
        return np.resize(period, fld.order + self.d * self.n_buckets)

    def decode_elements(
        self, packed: int, candidates: Optional[np.ndarray] = None
    ) -> Optional[Tuple[int, ...]]:
        """Positions of a weight <= d error whose syndrome is the packed row
        ``packed`` (little-endian, element i at bits [i m, (i + 1) m), no
        bits at or past d m), or None.

        ``candidates`` (positions, in any order and with repeats) is where
        the root search looks first; a locator whose roots are not all
        among them is searched over every position, so they change the
        cost of a decode, never its result."""
        if not packed:
            return ()
        s1 = packed & self._elem_mask
        if s1:
            # weight-1: column j has S_1 = alpha^j
            pos = self.field.log[s1]
            if pos < self.n_buckets and self._col_ints[pos] == packed:
                return (pos,)
            if self.d >= 2:
                hit = self._decode_pair(s1, (packed >> self.m) & self._elem_mask, packed)
                if hit is not None:
                    return hit
        if self.d < 3:
            return None
        return self._decode_general(packed, candidates)

    def _decode_pair(self, s1: int, s3: int, packed: int) -> Optional[Tuple[int, ...]]:
        # X1 + X2 = S1 and X1 X2 = (S3 + S1^3) / S1, so X = S1 w for the two
        # roots w, w + 1 of w^2 + w = S3 / S1^3 + 1; the table's w = 0 means
        # no root, or X1 X2 = 0: no pair either way
        fld = self.field
        exp, log = fld.exp, fld.log
        w = fld.qsolve_np.item(exp[log[s3] + -3 * log[s1] % fld.order] ^ 1)
        if not w:
            return None
        hit = tuple(sorted((log[fld.mul(s1, w)], log[fld.mul(s1, w ^ 1)])))
        if hit[1] >= self.n_buckets or not self.is_syndrome(hit, packed):
            return None
        return hit

    def _decode_general(
        self, packed: int, candidates: Optional[np.ndarray]
    ) -> Optional[Tuple[int, ...]]:
        fld, m, mask = self.field, self.m, self._elem_mask
        lam = _berlekamp_massey(fld, [(packed >> s) & mask for s in range(0, self.redundancy, m)])
        deg = len(lam) - 1
        if deg < 1 or deg > self.d:
            return None
        # Chien search: Lambda(alpha^-p) = 0 iff p is an error position.
        # Lambda has at most deg roots, so deg roots among the candidates are
        # all of them, and deg roots in [0, n_buckets) mean it splits there
        # into distinct factors.
        positions = None if candidates is None else self._roots_among(lam, candidates)
        if positions is None:
            positions = self._roots(lam)
            if len(positions) != deg:
                return None
        return positions if self.is_syndrome(positions, packed) else None

    def _roots(self, lam: List[int]) -> Tuple[int, ...]:
        """Every position p in [0, n_buckets) with Lambda(alpha^-p) = 0.
        Term j is Lambda_j alpha^(-j p), so its values at all positions are
        one strided slice of the inverse-power table; lam[0] = 1 starts
        every position at one."""
        fld, inv, b = self.field, self._inverse_powers, self.n_buckets
        acc = np.ones(b, dtype=inv.dtype)
        for j in range(1, len(lam)):
            if lam[j]:
                start = fld.order - fld.log[lam[j]]
                acc ^= inv[start : start + j * b : j]
        return tuple(np.flatnonzero(acc == 0).tolist())

    def _roots_among(self, lam: List[int], candidates: np.ndarray) -> Optional[Tuple[int, ...]]:
        """The roots of Lambda among the candidate positions, increasing,
        when all deg of them are there; None otherwise.  One gather reads
        every term at every distinct candidate."""
        cand = np.sort(candidates)
        cand = cand[np.flatnonzero(np.diff(cand, prepend=-1))]
        deg = len(lam) - 1
        if cand.size < deg:
            return None
        lam = np.array(lam)
        js = np.flatnonzero(lam)[1:]
        starts = self.field.order - self.field.log_np.take(lam[js])
        terms = self._inverse_powers.take(np.multiply.outer(js, cand) + starts[:, None])
        roots = cand[np.bitwise_xor.reduce(terms, axis=0) == 1]  # the terms cancel lam[0] = 1
        return tuple(roots.tolist()) if roots.size == deg else None


# Berlekamp-Massey stops early only when the steps left times the locator's
# length exceed this: the check is one numpy gather of about that many
# table reads, a fixed 15-20 us, against the Python loop's reads plus a
# per-step cost.  Best of 150 in-process on a 2-vCPU host, loop against
# early stop: d = 64, weight 3 (180 reads left) 49/33 us; d = 32, weight 26
# (130 left) 138/138 us; d = 16, weight 5 (50 left) 30/35 us.
_EARLY_STOP_READS = 128


def _berlekamp_massey(fld: Field, selems: List[int]) -> List[int]:
    """Minimal LFSR connection polynomial Lambda (coefficients from x^0) of
    the syndromes S_1..S_2d whose odd ones are selems.

    Berlekamp's binary form: S_2j = S_j^2 makes the discrepancy of every
    even-numbered syndrome zero, so only the odd ones are stepped, two
    positions at a time.  Syndromes and Lambda are held as logs (zero as
    ``fld.log_zero``), so every product is one table read with no test.
    A step whose discrepancy is zero leaves Lambda as it is; after one,
    when many steps are left, one gather computes every remaining
    discrepancy under the current Lambda, and if all are zero no later
    step would change it, so the loop stops.
    """
    exp, log, order, zero = fld.exp, fld.log, fld.order, fld.log_zero
    n_syn = 2 * len(selems) - 1  # S_2d has no step
    slog = [zero] * n_syn  # slog[i] = log S_(i+1)
    slog[::2] = [log[s] for s in selems]
    for j in range(1, len(selems)):  # log S_2j = 2 log S_j
        if slog[j - 1] != zero:
            slog[2 * j - 1] = 2 * slog[j - 1] % order
    cur = [0] + [zero] * n_syn  # logs of Lambda, padded to its largest degree
    prev, prev_len = cur, 1
    prev_delta = 0  # log of the discrepancy that set prev
    shift, length = 1, 0
    for n in range(0, n_syn, 2):
        delta = exp[slog[n]]  # S_(n+1) + sum over i <= length of Lambda_i S_(n+1-i)
        for i in range(1, length + 1):
            delta ^= exp[cur[i] + slog[n - i]]
        if not delta:
            shift += 2
            if (n_syn - 1 - n) // 2 * length > _EARLY_STOP_READS and _rest_is_zero(
                fld, slog, cur[: length + 1], n + 2
            ):
                break
            continue
        dlog = log[delta]
        scale = (dlog - prev_delta) % order
        nxt = cur[:]  # cur + (delta / prev_delta) x^shift prev
        for i in range(prev_len):
            nxt[shift + i] = log[exp[cur[shift + i]] ^ exp[scale + prev[i]]]
        if 2 * length <= n:
            prev, prev_len, prev_delta = cur, length + 1, dlog
            length = n + 1 - length
            shift = 2
        else:
            shift += 2
        cur = nxt
    lam = [exp[c] for c in cur[: length + 1]]
    while len(lam) > 1 and lam[-1] == 0:
        lam.pop()
    return lam


def _rest_is_zero(fld: Field, slog: List[int], lam_logs: List[int], first: int) -> bool:
    """Are the discrepancies of the odd steps first, first + 2, ... all zero
    under the locator whose coefficient logs are lam_logs?"""
    steps = np.arange(first, len(slog), 2)[:, None]
    reads = np.array(slog).take(steps - np.arange(len(lam_logs))) + np.array(lam_logs)
    return not np.bitwise_xor.reduce(fld.exp_np.take(reads), axis=1).any()


_CODES: Dict[Tuple[int, int], BchCode] = {}


def bch_code(n_buckets: int, d: int) -> BchCode:
    key = (n_buckets, d)
    if key not in _CODES:
        _CODES[key] = BchCode(n_buckets, d)
    return _CODES[key]


__all__ = [
    "MAX_FIELD_DEGREE",
    "Field",
    "field",
    "field_degree",
    "syndrome_bits",
    "pack_words",
    "unpack_words",
    "row_ints",
    "BchCode",
    "bch_code",
]
