import numpy as np
import pytest

from xorsmp import gf2
from xorsmp.gf2 import bch_code, field, pack_words, syndrome_bits, unpack_words

from .oracles import (
    berlekamp_massey,
    code_parity_check,
    decode_bits,
    full_syndrome,
    gf2_mat_vec,
    pack_elements,
    packed_row,
    reference_decode,
    split_elements,
)

# The (buckets, capacity) pairs the sketch strategies actually build.
CODES = [(4, 1), (16, 2), (36, 3), (64, 4), (100, 5), (144, 6), (196, 7), (256, 8)]


def syndrome_bits_of(code, positions):
    e = np.zeros(code.n_buckets, dtype=np.uint8)
    e[list(positions)] = 1
    return gf2_mat_vec(code_parity_check(code), e)


def packed_syndrome(code, e):
    """The library's syndrome of e: the XOR of its packed columns at e's ones."""
    return np.bitwise_xor.reduce(
        code.cols[np.flatnonzero(e)], axis=0, initial=np.uint64(0)
    )


@pytest.mark.parametrize("b,d", CODES + [(16384, 64)])
def test_packed_columns_match_oracle(b, d):
    # (16384, 64) has m = 15: elements straddle the 64-bit word boundaries
    code = bch_code(b, d)
    assert code.cols.dtype == np.uint64
    assert code.cols.shape == (b, -(-code.redundancy // 64))
    assert code.redundancy == syndrome_bits(b, d)
    h = code_parity_check(code)
    assert (unpack_words(code.cols, code.redundancy) == h.T).all()
    # bits past the redundancy stay zero, so words compare as integers
    assert (pack_words(h.T) == code.cols).all()


def test_field_tables_are_permutations():
    for m in (3, 5, 8, 9, 11):
        fld = field(m)
        seen = fld.exp[: fld.order]
        assert len(set(seen)) == fld.order  # alpha generates the full group
        for a in (1, 2, 5, fld.order):
            assert fld.mul(a, fld.exp[fld.order - fld.log[a]]) == 1  # a^-1 = alpha^(-log a)


def test_field_mul_matches_polynomial_mult():
    fld = field(5)

    def slow_mul(a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> fld.m:
                a ^= fld.poly
        return acc

    gen = np.random.default_rng(1)
    for _ in range(300):
        a, b = int(gen.integers(0, 32)), int(gen.integers(0, 32))
        assert fld.mul(a, b) == slow_mul(a, b)


def test_qsolve_solves_its_quadratic():
    for m in (4, 5, 9):
        fld = field(m)
        hits = 0
        for u in range(1 << m):
            w = fld.qsolve(u)
            if w is not None:
                hits += 1
                assert fld.mul(w, w) ^ w == u
        assert hits == (1 << m) // 2  # image of w^2 + w has index 2


def test_zero_syndrome_decodes_to_empty():
    for b, d in CODES:
        code = bch_code(b, d)
        assert decode_bits(code, np.zeros(code.redundancy, dtype=np.uint8)) == ()


@pytest.mark.parametrize("b,d", CODES + [(1024, 16)])
def test_weight_one_exhaustive(b, d):
    code = bch_code(b, d)
    for pos in range(b):
        assert decode_bits(code, syndrome_bits_of(code, [pos])) == (pos,)


@pytest.mark.parametrize("b,d", CODES)
def test_weight_up_to_d_roundtrip(b, d):
    code = bch_code(b, d)
    gen = np.random.default_rng(b * 31 + d)
    for _ in range(250):
        w = int(gen.integers(0, d + 1))
        pos = tuple(sorted(int(p) for p in gen.choice(b, size=w, replace=False)))
        assert decode_bits(code, syndrome_bits_of(code, pos)) == pos


@pytest.mark.parametrize("kind", ["weight<=d", "weight>d", "random"])
@pytest.mark.parametrize("b,d", CODES + [(1024, 16), (16384, 64)])
def test_decoder_matches_textbook_reference(b, d, kind):
    # the binary, log-domain Berlekamp-Massey must give the textbook
    # locator, and decode_elements the reference's positions or None, on
    # correctable patterns, on patterns of weight d + 1..2d + 2 (which fail
    # or decode to another pattern) and on uniformly random syndromes, every
    # other one with about 3 in 4 elements zeroed (a late first nonzero
    # discrepancy drives the locator's length up to 2d - 1); the decoder
    # takes each syndrome as the packed row the referee holds
    code = bch_code(b, d)
    fld = code.field
    gen = np.random.default_rng([b, d, len(kind)])
    for t in range(12 if b > 2000 else 60):
        if kind == "random":
            selems = gen.integers(0, fld.order + 1, size=d)
            if t % 2:
                selems[gen.random(d) < 0.75] = 0
            selems = selems.tolist()
            packed = pack_elements(code, selems)
            assert split_elements(code, packed) == selems
        else:
            lo, hi = (0, d) if kind == "weight<=d" else (d + 1, min(2 * d + 2, b))
            pos = gen.choice(b, size=int(gen.integers(lo, hi + 1)), replace=False)
            packed = packed_row(syndrome_bits_of(code, pos))
            selems = split_elements(code, packed)
        lam = gf2._berlekamp_massey(fld, selems)
        assert lam == berlekamp_massey(fld, full_syndrome(fld, selems))
        got = code.decode_elements(packed)
        assert got == reference_decode(code, selems)
        if kind == "weight<=d":
            assert got == tuple(sorted(pos.tolist()))


@pytest.mark.parametrize("b,d", CODES + [(16384, 64)])
def test_column_ints_of_small_sets_decode_to_the_set(b, d):
    # the referee's decode prediction rests on this: the XOR of the column
    # ints of any 1 <= |S| <= d buckets is S's syndrome row, S is the one
    # weight <= d error with that row, and so the decoder returns exactly S
    code = bch_code(b, d)
    gen = np.random.default_rng([b, d, 1])
    for _ in range(20 if b > 2000 else 100):
        buckets = gen.choice(b, size=int(gen.integers(1, d + 1)), replace=False).tolist()
        packed = 0
        for p in buckets:
            packed ^= code._col_ints[p]
        assert packed == packed_row(syndrome_bits_of(code, buckets))
        assert code.is_syndrome(set(buckets), packed)
        assert code.decode_elements(packed) == tuple(sorted(buckets))


def test_weight_d_plus_one_rejected_by_fingerprint():
    # Overweight patterns either fail to decode or produce a candidate the
    # 16-row fingerprint rejects, except with probability ~2^-16 per slip.
    code = bch_code(256, 8)
    gen = np.random.default_rng(77)
    samples = 10_000
    unscreened = 0
    fmat = (np.random.default_rng(78).integers(0, 2, size=(16, 256))).astype(np.uint8)
    for _ in range(samples):
        pos = sorted(int(p) for p in gen.choice(256, size=9, replace=False))
        hit = decode_bits(code, syndrome_bits_of(code, pos))
        if hit is None:
            continue
        truth = np.zeros(256, dtype=np.uint8)
        truth[pos] = 1
        cand = np.zeros(256, dtype=np.uint8)
        cand[list(hit)] = 1
        if ((fmat @ truth) % 2 == (fmat @ cand) % 2).all():
            unscreened += 1
    # target rate >= 1 - 2^-12; allow 3 sigma at that rate
    gate = samples * 2**-12 + 3 * np.sqrt(samples * 2**-12)
    assert unscreened <= gate


def test_decoded_vector_always_reproduces_syndrome():
    # Even on garbage syndromes, any returned vector matches the input.
    code = bch_code(64, 4)
    gen = np.random.default_rng(5)
    decoded = 0
    for _ in range(2000):
        s = gen.integers(0, 2, size=code.redundancy).astype(np.uint8)
        hit = decode_bits(code, s)
        if hit is not None:
            decoded += 1
            assert len(hit) <= code.d
            assert (syndrome_bits_of(code, hit) == s).all()
    assert decoded > 0  # the check above must have exercised real decodes


def test_syndrome_linearity():
    code = bch_code(36, 3)
    gen = np.random.default_rng(9)
    for _ in range(100):
        e1 = gen.integers(0, 2, size=36).astype(np.uint8)
        e2 = gen.integers(0, 2, size=36).astype(np.uint8)
        s1 = packed_syndrome(code, e1)
        s2 = packed_syndrome(code, e2)
        s12 = packed_syndrome(code, e1 ^ e2)
        assert ((s1 ^ s2) == s12).all()
        h = code_parity_check(code)
        assert (unpack_words(s12, code.redundancy) == gf2_mat_vec(h, e1 ^ e2)).all()


def test_code_guards():
    with pytest.raises(ValueError):
        bch_code(0, 1)
    with pytest.raises(ValueError):
        bch_code(16, 0)
