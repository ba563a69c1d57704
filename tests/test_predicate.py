import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsmp.bits import BitVector, complement, sample_pair_with_distance
from xorsmp.coins import CoinSource
from xorsmp.predicate import (
    Predicate,
    compute_profile,
    eq_predicate,
    family,
    ham_predicate,
    oracle,
    parity_predicate,
    parse_predicate,
    random_predicate,
    tilde,
    violations,
)

from .oracles import (
    assert_profile_minimal, brute_force_profile, feasible, format_predicate, scan_violations,
)

ROOT = CoinSource.from_seed(0xD00D)


def all_predicates(n):
    for mask in range(1 << (n + 1)):
        yield Predicate([(mask >> i) & 1 for i in range(n + 1)])


def test_violations_examples():
    assert violations(parity_predicate(8)) == frozenset()
    assert violations(eq_predicate(8)) == frozenset({0})
    # direct scan of the ham:2 definition
    d = ham_predicate(8, 2)
    expected = frozenset(k for k in range(7) if (k <= 2) != (k + 2 <= 2))
    assert expected == frozenset({1, 2})
    assert violations(d) == expected


def test_profile_eq():
    prof = compute_profile(eq_predicate(8))
    assert (prof.r0, prof.r1, prof.r) == (1, 0, 1)
    assert brute_force_profile(eq_predicate(8)) == (1, 0)


def test_profile_parity():
    prof = compute_profile(parity_predicate(8))
    assert (prof.r0, prof.r1, prof.r) == (0, 0, 0)
    assert prof.t_even == 0 and prof.t_odd == 1


def test_profile_top_indicator():
    d = Predicate([1 if k == 8 else 0 for k in range(9)])
    prof = compute_profile(d)
    assert (prof.r0, prof.r1, prof.r) == (0, 2, 2)
    assert brute_force_profile(d) == (0, 2)


def test_profile_matches_brute_force_exhaustive():
    for n in range(1, 9):
        for d in all_predicates(n):
            prof = compute_profile(d)
            assert_profile_minimal(d, prof.r0, prof.r1)


def test_profile_odd_midpoint_break():
    # D(1) != D(3) at n = 3 cannot be cleared within n/2 from either side;
    # the low tail absorbs it at ceil(n/2).
    d = Predicate([0, 1, 0, 0])
    prof = compute_profile(d)
    assert (prof.r0, prof.r1) == (2, 0)
    assert brute_force_profile(d) is None
    assert_profile_minimal(d, prof.r0, prof.r1)


def test_profile_tail_identity():
    for n in (6, 9, 12):
        for i in range(40):
            d = random_predicate(n, i % (n // 2 + 1), ROOT.derive(f"tail/{n}/{i}"))
            prof = compute_profile(d)
            for k in range(prof.r0, n - prof.r1 + 1):
                assert d.values[k] == prof.t_of(k)


def test_profile_sentinel_when_parity_class_empty():
    d = Predicate([0, 1, 0, 0, 1])  # breaks at 1 and 2, middle is just {2}
    prof = compute_profile(d)
    assert (prof.r0, prof.r1) == (2, 2)
    assert prof.t_even == 0 and prof.t_odd is None


def test_tilde_examples():
    assert list(tilde(eq_predicate(8)).values) == [0] * 8 + [1]
    d = Predicate([0, 1, 1, 0, 1])
    assert tilde(tilde(d)) == d


@given(st.integers(0, 2**32))
@settings(max_examples=60)
def test_tilde_involution_and_reflected_feasibility(seedish):
    # Reflection maps the 2-periodic window of D onto the window of its
    # reflection with both endpoints shifted by one: clearing breaks from
    # [a', n - b') for tilde(D) is the same constraint as clearing them
    # from [b' - 1, n - a' - 1) for D.  (The plain r0/r1 swap is off by
    # one at the window edges; minimality is checked separately.)
    gen = CoinSource.from_seed(seedish).generator()
    n = 16
    d = Predicate([int(v) for v in gen.integers(0, 2, size=n + 1)])
    td = tilde(d)
    assert tilde(td) == d
    assert sorted(scan_violations(td)) == sorted(n - 2 - v for v in scan_violations(d))
    for a in range(n // 2 + 1):
        for b in range(n // 2 + 1):
            assert feasible(td, a, b) == feasible(d, max(b - 1, 0), a + 1)
    tprof = compute_profile(td)
    assert_profile_minimal(td, tprof.r0, tprof.r1)


def test_oracle_examples():
    n = 8
    x, y = sample_pair_with_distance(n, 0, ROOT.derive("o0"))
    assert oracle(eq_predicate(n), x, y) == 1
    x, y = sample_pair_with_distance(n, 5, ROOT.derive("o5"))
    assert oracle(parity_predicate(n), x, y) == 1
    x, y = sample_pair_with_distance(n, 3, ROOT.derive("o3"))
    assert oracle(ham_predicate(n, 2), x, y) == 0
    with pytest.raises(ValueError):
        oracle(eq_predicate(4), BitVector.zeros(5), BitVector.zeros(5))


def test_reflection_identity():
    # oracle(tilde(D), complement(x), y) == oracle(D, x, y)
    n = 10
    for i in range(60):
        gen = ROOT.derive(f"refl/{i}").generator()
        d = Predicate([int(v) for v in gen.integers(0, 2, size=n + 1)])
        x, y = sample_pair_with_distance(n, i % (n + 1), ROOT.derive(f"rp/{i}"))
        assert oracle(tilde(d), complement(x), y) == oracle(d, x, y)


def test_family_eq_values():
    assert list(family("eq", 8).values) == [1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_family_ham_profile():
    d = family("ham:2", 8)
    assert brute_force_profile(d) == (3, 0)
    prof = compute_profile(d)
    assert (prof.r0, prof.r1) == (3, 0)


def test_family_random_profile_every_seed():
    for seed in range(30):
        d = family("random:5", 64, CoinSource.from_seed(seed))
        prof = compute_profile(d)
        assert (prof.r0, prof.r1) == (5, 0)
        assert brute_force_profile(d) == (5, 0)


def test_family_random_r0_zero():
    d = family("random:0", 16, ROOT.derive("r0"))
    prof = compute_profile(d)
    assert (prof.r0, prof.r1) == (0, 0)


def test_family_regime_guards():
    with pytest.raises(ValueError):
        family("random:5", 8, ROOT)
    with pytest.raises(ValueError):
        family("ham:4", 8)
    with pytest.raises(ValueError, match=r"d < 0 \(d = -1\)"):
        family("ham:-1", 8)
    with pytest.raises(ValueError, match=r"r < 0 \(r = -3\)"):
        family("random:-3", 8, ROOT)
    with pytest.raises(ValueError):
        family("nope", 8)


def test_family_rejects_negative_n():
    # eq at n = -5 used to build the n = 0 predicate
    for spec in ("eq", "parity", "ham:0", "random:0"):
        with pytest.raises(ValueError, match=r"^input length n = -5 is negative$"):
            family(spec, -5, ROOT)


def test_predicate_validation():
    with pytest.raises(ValueError):
        Predicate([0, 2, 1])
    with pytest.raises(ValueError):
        Predicate([])


def test_parse_format_roundtrip():
    d = Predicate([1, 0, 1, 1, 0])
    assert parse_predicate(format_predicate(d)) == d
    assert parse_predicate("4\n10110\n") == d
    assert parse_predicate("4\n10110") == d


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_predicate("x\n01\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_predicate("3\n01\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_predicate("1\n0x\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_predicate("1\n01\njunk\n")
