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
    # entry u is the even root of w^2 + w = u, 0 outside the image (and at
    # u = 0, whose roots are 0 and 1)
    for m in (4, 5, 9, 16):
        fld = field(m)
        table = fld.qsolve_np
        assert table.dtype == np.uint16 and table.shape == (1 << m,)
        hits = 0
        for u in range(1 << m):
            w = int(table[u])
            assert w % 2 == 0
            if w or not u:
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


def locator_of(fld, roots):
    """Lambda(x) = prod over p in roots of (1 + alpha^p x), which vanishes
    exactly at alpha^-p for each p: coefficients from x^0."""
    lam = [1]
    for p in roots:
        a = fld.exp[p % fld.order]
        lam = [c ^ fld.mul(a, lam[i - 1]) if i else c for i, c in enumerate(lam + [0])]
    return lam


@pytest.mark.parametrize("b,d", [(1024, 16), (4096, 32), (16384, 64)])
def test_candidate_root_search_equals_full_scan(b, d):
    # the candidate search is exact: it returns the locator's roots when all
    # deg of them are among the candidates (repeats and extra positions
    # allowed), which are then the full scan's, and None otherwise, on
    # split locators whose candidates hold or miss a root and on random
    # locators, which rarely split
    code = bch_code(b, d)
    fld = code.field
    gen = np.random.default_rng([b, d, 2])
    for t in range(40):
        deg = int(gen.integers(1, d + 1))
        if t % 4 == 3:
            lam = [1] + gen.integers(0, fld.order + 1, size=deg).tolist()
            lam[-1] = lam[-1] or 1
            cands = gen.choice(b, size=int(gen.integers(1, 3 * d)))
        else:
            roots = gen.choice(b, size=deg, replace=False)
            lam = locator_of(fld, roots.tolist())
            cands = np.concatenate([roots, gen.choice(b, size=deg // 4), roots[: deg // 2]])
            if t % 4 == 1:  # one root left out
                cands = cands[cands != roots[0]]
            gen.shuffle(cands)
        full = code._roots(lam)
        got = code._roots_among(lam, cands)
        if len(full) == deg and set(full) <= set(cands.tolist()):
            assert got == full
        else:
            assert got is None
        if t % 4 != 3:
            assert full == tuple(sorted(roots.tolist()))


@pytest.mark.parametrize("b,d", [(4096, 32), (16384, 64)])
def test_decode_with_candidates_falls_back_to_the_full_scan(b, d, monkeypatch):
    # decode_elements with candidates returns the reference's positions;
    # candidates holding every error position need no full scan, and
    # candidates missing one fall back to it within the same call
    code = bch_code(b, d)
    scans = []
    full_scan = gf2.BchCode._roots
    monkeypatch.setattr(
        gf2.BchCode, "_roots", lambda self, lam: scans.append(1) or full_scan(self, lam)
    )
    gen = np.random.default_rng([b, d, 3])
    for w in (3, d // 4, d // 2, d):
        pos = gen.choice(b, size=w, replace=False)
        packed = packed_row(syndrome_bits_of(code, pos))
        want = tuple(sorted(pos.tolist()))
        assert reference_decode(code, split_elements(code, packed)) == want
        extra = np.concatenate([pos, gen.choice(b, size=w // 4 + 1), pos[:1]])
        for cands, full in ((extra, 0), (extra[extra != pos[-1]], 1), (extra[:0], 1)):
            scans.clear()
            assert code.decode_elements(packed, cands) == want
            assert len(scans) == full


@pytest.mark.parametrize("reads", [gf2._EARLY_STOP_READS, -1], ids=["cutoff", "every-zero"])
def test_early_stopping_bm_matches_textbook(reads, monkeypatch):
    # at d = 64 the binary Berlekamp-Massey stops once one gather shows every
    # remaining discrepancy zero; its locator must be the textbook one at
    # weights 0, 1, d/4, d/2 and d and on undecodable rows (weights past d,
    # random syndromes, half of them with 3 in 4 elements zeroed, whose
    # accidental zero discrepancies make the check fail and the loop go on,
    # and rows with one nonzero element after zeros);
    # "every-zero" tries the check at every zero discrepancy
    monkeypatch.setattr(gf2, "_EARLY_STOP_READS", reads)
    stops = []
    check = gf2._rest_is_zero
    monkeypatch.setattr(gf2, "_rest_is_zero", lambda *a: stops.append(check(*a)) or stops[-1])
    b, d = 16384, 64
    code = bch_code(b, d)
    fld = code.field
    gen = np.random.default_rng(64)
    rows = []
    for w in (0, 1, d // 4, d // 2, d, d + 1, 3 * d // 2, 2 * d):
        for _ in range(3):
            pos = gen.choice(b, size=w, replace=False)
            rows.append((w, split_elements(code, packed_row(syndrome_bits_of(code, pos)))))
    for t in range(6):
        selems = gen.integers(0, fld.order + 1, size=d)
        if t % 2:
            selems[gen.random(d) < 0.75] = 0
        rows.append((None, selems.tolist()))
    # one nonzero syndrome after zeros: the check after the first zero
    # discrepancy must read the very next step, and the last one
    for at in (1, 2, d - 1):
        rows.append((None, [0] * at + [1] + [0] * (d - 1 - at)))
    for w, selems in rows:
        stops.clear()
        lam = gf2._berlekamp_massey(fld, selems)
        assert lam == berlekamp_massey(fld, full_syndrome(fld, selems))
        if w is not None and w <= d:
            assert len(lam) - 1 == w
            # a weight-w locator is final after 2w syndromes: the check
            # stops the loop when enough steps are left
            assert (True in stops) == ((d - 1 - w) * w > reads)
