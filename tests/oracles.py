"""Independent brute-force oracles shared by the test modules.

These deliberately re-derive everything from first principles (definition
scans, full minimization) so the library code under test never feeds them.
"""

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from xorsmp.bits import BitVector
from xorsmp.coins import CoinSource
from xorsmp.predicate import Predicate


def from_bits(bits: str) -> BitVector:
    """Parse a left-to-right bit string, position 0 first."""
    if bits.strip("01"):
        raise ValueError("bit string must contain only 0/1")
    value = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            value |= 1 << i
    return BitVector(len(bits), value)


def format_predicate(d: Predicate) -> str:
    """A predicate file's text, as ``predicate.parse_predicate`` reads it."""
    return f"{d.n}\n" + "".join(str(v) for v in d.values) + "\n"


def weight_vector_by_loop(n: int, w: int, coins: CoinSource) -> BitVector:
    """``sample_weight_vector`` one position at a time: the same first w
    entries of the same permutation, each ORed into an integer."""
    value = 0
    for p in coins.generator().permutation(n)[:w]:
        value |= 1 << int(p)
    return BitVector(n, value)


def scan_violations(d: Predicate) -> List[int]:
    return [k for k in range(d.n - 1) if d.values[k] != d.values[k + 2]]


def feasible(d: Predicate, a: int, b: int) -> bool:
    """Is D 2-periodic on [a, n - b), i.e. every break outside the window?"""
    return all(v < a or v >= d.n - b for v in scan_violations(d))


def brute_force_profile(d: Predicate) -> Optional[Tuple[int, int]]:
    """Coordinatewise-minimal (r0, r1), or None when no joint minimum exists.

    For odd n, a break exactly at (n - 1)/2 can be cleared from either side
    but only at ceil(n/2); the two single-coordinate minima are then not
    jointly feasible and the caller must fall back to a Pareto check.
    """
    n = d.n
    cap = (n + 1) // 2
    cands = [
        (a, b)
        for a in range(cap + 1)
        for b in range(cap + 1)
        if feasible(d, a, b)
    ]
    assert cands, "clearing every break at ceil(n/2) must always work"
    a_min = min(a for a, _ in cands)
    b_min = min(b for _, b in cands)
    if feasible(d, a_min, b_min):
        return a_min, b_min
    return None


def assert_profile_minimal(d: Predicate, r0: int, r1: int) -> None:
    """The computed profile must be feasible and not shrinkable coordinatewise;
    when the joint minimum exists it must equal it exactly."""
    bf = brute_force_profile(d)
    if bf is not None:
        assert (r0, r1) == bf, f"{d}: got ({r0}, {r1}), brute force {bf}"
        return
    assert feasible(d, r0, r1), f"{d}: ({r0}, {r1}) infeasible"
    if r0 > 0:
        assert not feasible(d, r0 - 1, r1), f"{d}: r0 shrinkable"
    if r1 > 0:
        assert not feasible(d, r0, r1 - 1), f"{d}: r1 shrinkable"


@lru_cache(maxsize=16)
def bch_parity_check(n_buckets: int, d: int, m: int, poly: int) -> np.ndarray:
    """Dense (d m, n_buckets) parity-check matrix of the narrow-sense binary
    BCH code: row i m + t, column j holds bit t of alpha^((2i+1) j).

    Built from the field's definition alone: alpha is x in GF(2)[x]/(poly),
    and its powers come from repeated multiplication by x.  Read-only.
    """
    order = (1 << m) - 1
    powers = []
    a = 1
    for _ in range(order):
        powers.append(a)
        a <<= 1
        if a >> m:
            a ^= poly
    powers = np.array(powers, dtype=np.int64)
    cols = np.arange(n_buckets, dtype=np.int64)
    shifts = np.arange(m, dtype=np.int64)[:, None]
    h = np.concatenate(
        [(powers[(2 * i + 1) * cols % order][None, :] >> shifts) & 1 for i in range(d)]
    ).astype(np.uint8)
    h.setflags(write=False)
    return h


def code_parity_check(code) -> np.ndarray:
    """``bch_parity_check`` for a library code, from its field's definition."""
    return bch_parity_check(code.n_buckets, code.d, code.field.m, code.field.poly)


def gf2_mat_vec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec over GF(2), by integer sums of the selected columns."""
    return (mat[:, np.asarray(vec, dtype=bool)].sum(axis=1) % 2).astype(np.uint8)


def packed_row(bits: np.ndarray) -> int:
    """A row of wire bits as one little-endian int: bit j is the row's bit j."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def split_elements(code, packed: int) -> List[int]:
    """The d m-bit field elements of a packed syndrome row, element i at
    bits [i m, (i + 1) m)."""
    mask = (1 << code.field.m) - 1
    return [(packed >> (i * code.field.m)) & mask for i in range(code.d)]


def pack_elements(code, selems: List[int]) -> int:
    """Inverse of ``split_elements``: d field elements as one packed row."""
    return sum(e << (i * code.field.m) for i, e in enumerate(selems))


def decode_bits(code, bits: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The library's decode of a syndrome given as its d m wire bits."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    assert bits.size == code.redundancy, f"{bits.size} syndrome bits for {code.redundancy}"
    return code.decode_elements(packed_row(bits))


def berlekamp_massey(fld, syn: List[int]) -> List[int]:
    """Textbook Berlekamp-Massey: the minimal LFSR connection polynomial of
    the whole sequence syn (coefficients from x^0, trailing zeros removed),
    stepping every element with no use of S_2j = S_j^2."""
    exp, log, order = fld.exp, fld.log, fld.order
    cur = [1]
    prev = [1]
    shift = 1
    prev_delta = 1
    length = 0
    for n_i in range(len(syn)):
        delta = syn[n_i]
        top = min(length, len(cur) - 1)
        for i in range(1, top + 1):
            c, s = cur[i], syn[n_i - i]
            if c and s:
                delta ^= exp[log[c] + log[s]]
        if delta == 0:
            shift += 1
            continue
        scale_log = (log[delta] + order - log[prev_delta]) % order
        update = cur[:]
        need = shift + len(prev)
        if len(update) < need:
            update.extend([0] * (need - len(update)))
        for i, coeff in enumerate(prev):
            if coeff:
                update[shift + i] ^= exp[scale_log + log[coeff]]
        if 2 * length <= n_i:
            prev = cur
            prev_delta = delta
            length = n_i + 1 - length
            shift = 1
        else:
            shift += 1
        cur = update
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    return cur


def full_syndrome(fld, selems: List[int]) -> List[int]:
    """S_1..S_2d from the d odd syndromes, each even one the square of its half."""
    syn = [0] * (2 * len(selems))
    syn[::2] = selems
    for j in range(2, len(syn) + 1, 2):
        syn[j - 1] = fld.mul(syn[j // 2 - 1], syn[j // 2 - 1])
    return syn


def reference_decode(code, selems: List[int]) -> Optional[Tuple[int, ...]]:
    """The one error of weight <= d at positions below n_buckets whose
    syndrome is selems, or None: found by the textbook locator, a Horner
    evaluation at every alpha^-p and the dense parity check."""
    if not any(selems):
        return ()
    fld, order = code.field, code.field.order
    lam = berlekamp_massey(fld, full_syndrome(fld, selems))
    deg = len(lam) - 1
    if deg > code.d:
        return None
    exp = np.array(fld.exp[:order], dtype=np.int64)
    log = np.zeros(order + 1, dtype=np.int64)
    log[exp] = np.arange(order)
    x_inv_log = -np.arange(code.n_buckets, dtype=np.int64) % order
    acc = np.zeros(code.n_buckets, dtype=np.int64)
    for c in reversed(lam):  # acc = acc alpha^-p + c
        nz = acc != 0
        acc[nz] = exp[(log[acc[nz]] + x_inv_log[nz]) % order]
        acc ^= c
    roots = np.flatnonzero(acc == 0)
    if len(roots) != deg:
        return None
    e = np.zeros(code.n_buckets, dtype=np.uint8)
    e[roots] = 1
    bits = gf2_mat_vec(code_parity_check(code), e)
    return tuple(roots.tolist()) if split_elements(code, packed_row(bits)) == selems else None


def library_decode(code, selems: List[int]) -> Optional[Tuple[int, ...]]:
    """The library decoder on the syndrome whose d elements are selems."""
    return code.decode_elements(pack_elements(code, selems))


def dense_verdict(
    shared, syn_bits: np.ndarray, fp_bits: np.ndarray, decode=reference_decode
) -> Tuple[bool, int]:
    """The syndrome referee's (le, estimate) from the (R, d m) syndrome and
    (R, f) fingerprint difference bits: each repetition in order is decoded
    by ``decode`` (``reference_decode``, or ``library_decode`` for the
    library's decode of every repetition) and its decode's fingerprint is
    recomputed from the dense (f, B) matrix of the shared columns."""
    params = shared.params
    f = params.fingerprint_rows
    gt = (False, params.d + 1)
    if not syn_bits.any():
        return gt if fp_bits.any() else (True, 0)
    code = params.code
    estimate = 0
    for rep in range(params.repetitions):
        hit = decode(code, split_elements(code, packed_row(syn_bits[rep])))
        if hit is None:
            return gt
        e = np.zeros(params.bucket_count, dtype=np.uint8)
        e[list(hit)] = 1
        dense_f = np.unpackbits(
            shared.fmat[rep].astype("<u8").view(np.uint8), axis=-1, count=f, bitorder="little"
        ).T
        if (gf2_mat_vec(dense_f, e) != fp_bits[rep]).any():
            return gt
        estimate = max(estimate, len(hit))
    return True, estimate


def threshold_search(c: int, verdict) -> Tuple[int, List[int]]:
    """One block's binary search over lazily evaluated verdicts h(0..c), h(j)
    true meaning LE at threshold j; returns (result, visited).  The smallest
    j with h(j) true for monotone h, else the landing index in [0, c]."""
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


# The per-line transcript parser that the bulk ``protocol.parse_transcript``
# replaced, kept as its reference.  It accepts more spellings than the bulk
# parser (uppercase hex, any int() spelling of a length, any header version,
# a repeated header key), and a transcript is given as (header, rows).

EntryRow = Tuple[str, str, List[int]]


def entry_rows(entries) -> List[EntryRow]:
    """Each entry of a ``TranscriptEntries`` as (party, label, payload
    bits), read one slice at a time."""
    return [
        (party, label, entries.bits[start : start + nbits].tolist())
        for party, label, start, nbits in zip(
            entries.parties, entries.labels, entries.starts.tolist(), entries.sizes.tolist()
        )
    ]


def _reference_hex_to_bytes(hexstr: str, bitlen: int) -> bytes:
    if bitlen < 0:
        raise ValueError(f"negative bit length {bitlen}")
    if bitlen == 0:
        if hexstr != "-":
            raise ValueError(f"an empty payload is written '-', not {hexstr!r}")
        return b""
    want = 2 * ((bitlen + 7) // 8)
    if len(hexstr) != want:
        raise ValueError(f"{len(hexstr)} hex digits for {bitlen} bits, expected {want}")
    data = bytes.fromhex(hexstr)
    if 2 * len(data) != want:  # fromhex skips whitespace
        raise ValueError(f"{hexstr!r} has characters other than hex digits")
    if data[-1] >> (bitlen % 8 or 8):
        raise ValueError(f"nonzero padding bits past bit {bitlen}")
    return data


def reference_parse_transcript(text: str) -> Tuple[Dict[str, str], List[EntryRow]]:
    """One line at a time: blank lines skipped but counted, a malformed
    entry line raising ``ValueError`` naming it."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("# xorsmp-transcript"):
        raise ValueError("not a transcript dump: missing header line")
    header: Dict[str, str] = {}
    for tok in lines[0][1].split("\t")[1:]:
        key, _, val = tok.partition("=")
        header[key] = val
    rows: List[EntryRow] = []
    for no, ln in lines[1:]:
        cols = ln.split("\t")
        if len(cols) != 4:
            raise ValueError(f"line {no}: expected 4 tab-separated fields, got {len(cols)}")
        party, label, hexstr, bitlen = cols
        try:
            nbits = int(bitlen)
            chunk = _reference_hex_to_bytes(hexstr, nbits)
        except ValueError as exc:
            raise ValueError(f"line {no} ({label!r}): {exc}") from None
        bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8), bitorder="little")
        rows.append((party, label, bits[:nbits].tolist()))
    return header, rows
