"""Symmetric predicates D on {0..n} and their structural profile.

A predicate turns a Hamming distance into the function value: the target
function is f(x, y) = D(|x XOR y|).  The profile captures how far from the
ends D stops being 2-periodic; those tail lengths (r0 on the low side, r1
on the high side) are what the protocol's cost scales with.  On the middle
range [r0, n - r1] the value depends only on the parity of the distance,
recorded as t_even / t_odd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from .bits import BitVector, hamming_distance
from .coins import CoinSource


@dataclass(frozen=True, slots=True, repr=False)
class Predicate:
    """An immutable map {0..n} -> {0, 1}, stored as n + 1 packed values;
    built from any sequence of 0/1 values."""

    values: bytes
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        vals = bytes(self.values)
        if len(vals) < 1:
            raise ValueError("predicate needs at least one value (n >= 0)")
        if any(v not in (0, 1) for v in vals):
            raise ValueError("predicate values must be 0 or 1")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n", len(vals) - 1)

    def __call__(self, k: int) -> int:
        if not 0 <= k <= self.n:
            raise ValueError(f"distance {k} outside [0, {self.n}]")
        return self.values[k]

    def __repr__(self) -> str:
        body = "".join(str(v) for v in self.values)
        if len(body) > 40:
            body = body[:37] + "..."
        return f"Predicate(n={self.n}, {body})"


@dataclass(frozen=True)
class Profile:
    """Structural parameters of a predicate: tail lengths and middle parity.

    r0 and r1 are at most n/2, except that for odd n a break exactly at
    (n - 1)/2 cannot be cleared within n/2 from either side; it is assigned
    to the low tail, giving r0 = ceil(n/2) in that one case.
    """

    r0: int
    r1: int
    r: int
    t_even: Optional[int]
    t_odd: Optional[int]

    def t_of(self, k: int) -> Optional[int]:
        return self.t_even if k % 2 == 0 else self.t_odd


def violations(d: Predicate) -> FrozenSet[int]:
    """All k with D(k) != D(k + 2), i.e. the breaks in 2-periodicity."""
    v = d.values
    return frozenset(k for k in range(d.n - 1) if v[k] != v[k + 2])


def compute_profile(d: Predicate) -> Profile:
    """Minimal (r0, r1) with D 2-periodic on [r0, n - r1), plus the middle parity.

    Breaks below n/2 are cleared by raising r0, breaks at or above n/2 by
    raising r1; since r0 <= n - r1 the two minimizations decouple and the
    coordinatewise minimum is well defined (see Profile for the one odd-n
    boundary case where the sides overlap).
    """
    n = d.n
    viol = violations(d)
    r0 = max((k + 1 for k in viol if 2 * k < n), default=0)
    r1 = max((n - k for k in viol if 2 * k >= n), default=0)
    t_even: Optional[int] = None
    t_odd: Optional[int] = None
    for k in range(r0, n - r1 + 1):
        if k % 2 == 0 and t_even is None:
            t_even = d.values[k]
        elif k % 2 == 1 and t_odd is None:
            t_odd = d.values[k]
        if t_even is not None and t_odd is not None:
            break
    return Profile(r0=r0, r1=r1, r=max(r0, r1), t_even=t_even, t_odd=t_odd)


def oracle(d: Predicate, x: BitVector, y: BitVector) -> int:
    """Ground truth f(x, y) = D(|x XOR y|), evaluated directly."""
    if x.length != d.n or y.length != d.n:
        raise ValueError(
            f"input length must be {d.n}, got {x.length} and {y.length}"
        )
    return d.values[hamming_distance(x, y)]


def eq_predicate(n: int) -> Predicate:
    return Predicate([1] + [0] * n)


def ham_predicate(n: int, d: int) -> Predicate:
    """Threshold predicate: 1 iff the distance is at most d."""
    if d < 0:
        raise ValueError(f"threshold d < 0 (d = {d})")
    if d + 1 > n / 2:
        raise ValueError(f"threshold {d} leaves the r <= n/2 regime at n={n}")
    return Predicate([1 if k <= d else 0 for k in range(n + 1)])


def parity_predicate(n: int) -> Predicate:
    return Predicate([k % 2 for k in range(n + 1)])


def random_predicate(n: int, r_target: int, coins: CoinSource) -> Predicate:
    """A random predicate with profile exactly (r0 = r_target, r1 = 0).

    A random parity pattern fills [r_target, n]; values below r_target are
    random, with D(r_target - 1) forced to differ from D(r_target + 1) so
    the largest break sits exactly at r_target - 1.
    """
    if r_target < 0:
        raise ValueError(f"tail length r < 0 (r = {r_target})")
    if r_target > n / 2:
        raise ValueError(f"r_target {r_target} exceeds n/2 for n={n}")
    gen = coins.generator()
    t_even, t_odd = int(gen.integers(0, 2)), int(gen.integers(0, 2))
    vals = [t_even if k % 2 == 0 else t_odd for k in range(n + 1)]
    if r_target > 0:
        for k in range(r_target):
            vals[k] = int(gen.integers(0, 2))
        vals[r_target - 1] = 1 - vals[r_target + 1]
    return Predicate(vals)


def family(name: str, n: int, coins: Optional[CoinSource] = None) -> Predicate:
    """Build a predicate from a family spec: eq, ham:<d>, parity, random:<r>."""
    if n < 0:
        raise ValueError(f"input length n = {n} is negative")
    spec = name.strip().lower()
    if spec == "eq":
        return eq_predicate(n)
    if spec == "parity":
        return parity_predicate(n)
    if spec.startswith("ham:"):
        return ham_predicate(n, int(spec[4:]))
    if spec.startswith("random:"):
        if coins is None:
            raise ValueError("random predicate family needs a coin source")
        return random_predicate(n, int(spec[7:]), coins)
    raise ValueError(f"unknown predicate family {name!r}")


def parse_predicate(text: str) -> Predicate:
    """Read the two-line format: decimal n, then n + 1 characters of 0/1."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("line 2: missing predicate values")
    extra = [no for no, ln in enumerate(lines[2:], start=3) if ln.strip()]
    if extra:
        raise ValueError(f"line {extra[0]}: unexpected content")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"line 1: expected decimal n, got {lines[0]!r}") from None
    if n < 0:
        raise ValueError("line 1: n must be nonnegative")
    row = lines[1].strip()
    if len(row) != n + 1 or row.strip("01"):
        raise ValueError(
            f"line 2: expected exactly {n + 1} characters from {{0,1}}, got {row!r}"
        )
    return Predicate([int(ch) for ch in row])


__all__ = [
    "Predicate",
    "Profile",
    "violations",
    "compute_profile",
    "oracle",
    "eq_predicate",
    "ham_predicate",
    "parity_predicate",
    "random_predicate",
    "family",
    "parse_predicate",
]
