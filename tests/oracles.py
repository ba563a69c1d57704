"""Independent brute-force oracles shared by the test modules.

These deliberately re-derive everything from first principles (definition
scans, full minimization) so the library code under test never feeds them.
"""

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from xorsmp.predicate import Predicate


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


def decode_bits(code, bits: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The library's decode of a syndrome given as its d m wire bits."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    assert bits.size == code.redundancy, f"{bits.size} syndrome bits for {code.redundancy}"
    packed = np.packbits(bits, bitorder="little").tobytes()
    return code.decode_elements(code.elements_from_packed(int.from_bytes(packed, "little")))
