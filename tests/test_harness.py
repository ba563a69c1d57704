import builtins
import io
import math
from dataclasses import dataclass

import numpy as np
import pytest

from xorsmp import gf2, harness
from xorsmp.coins import CoinSource
from xorsmp.harness import (
    TrialConfig,
    auto_weights,
    SweepRow,
    cost_normalizer,
    csv_lines,
    hd_error_experiment,
    lemma_partition_experiment,
    replay_transcript_text,
    resolve_predicate,
    run_trials,
    sweep_r,
)
from xorsmp.predicate import compute_profile, family, format_predicate
from xorsmp.protocol import p_total_cost, parse_transcript, transcript_cost


def test_auto_weights_eq():
    prof = compute_profile(family("eq", 256))
    assert auto_weights(prof, 256) == [0, 1, 2, 128, 255, 256]


def test_auto_weights_parity():
    prof = compute_profile(family("parity", 256))
    assert auto_weights(prof, 256) == [0, 1, 128, 255, 256]


def test_resolve_predicate_file_and_inline(tmp_path):
    p = tmp_path / "pred.txt"
    p.write_text(format_predicate(family("ham:2", 8)))
    pred, name = resolve_predicate(f"file:{p}", 8, CoinSource.from_seed(0))
    assert pred == family("ham:2", 8)
    assert name == "values:111000000"
    again, _ = resolve_predicate(name, 8, CoinSource.from_seed(0))
    assert again == pred


def test_resolve_predicate_rejects_another_length(tmp_path):
    # a predicate of another length used to run at its own n
    p = tmp_path / "pred.txt"
    p.write_text(format_predicate(family("ham:2", 8)))
    with pytest.raises(ValueError, match=r"^predicate 'values:0101' has n = 3, not n = 10$"):
        resolve_predicate("values:0101", 10, CoinSource.from_seed(0))
    with pytest.raises(ValueError, match=r"has n = 8, not n = 9$"):
        resolve_predicate(f"file:{p}", 9, CoinSource.from_seed(0))


def test_resolve_predicate_file_error_names_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n0101x\n")
    with pytest.raises(ValueError, match="line 2"):
        resolve_predicate(f"file:{p}", 0, CoinSource.from_seed(0))


def test_run_trials_parity_raw_is_always_right():
    cfg = TrialConfig(n=16, predicate_spec="parity", weights="auto", trials=40,
                      seed=9, strategy="raw")
    cells, rows = run_trials(cfg)
    for cell in cells:
        assert cell.rate == 1.0
    assert len(rows) == 40 * len(cells)


def test_run_trials_rows_schema():
    cfg = TrialConfig(n=16, predicate_spec="eq", weights=[0, 1, 16], trials=5,
                      seed=4, strategy="syndrome")
    cells, rows = run_trials(cfg)
    assert [c.weight for c in cells] == [0, 1, 16]
    first = rows[0].split(",")
    assert len(first) == 11
    assert first[0] == "0" and first[1] == "16" and first[2] == "eq"
    assert first[3] == "1" and first[4] == "0"  # r0, r1 of eq
    assert rows[-1].split(",")[0] == str(3 * 5 - 1)


def test_run_trials_deterministic():
    cfg = TrialConfig(n=32, predicate_spec="random:4", weights="auto", trials=20,
                      seed=77, strategy="syndrome")
    _, rows1 = run_trials(cfg)
    _, rows2 = run_trials(cfg)
    assert rows1 == rows2


def test_run_trials_weight_validation():
    cfg = TrialConfig(n=8, predicate_spec="eq", weights=[9], trials=1, seed=0,
                      strategy="raw")
    with pytest.raises(ValueError):
        run_trials(cfg)


def test_lemma_partition_bounds():
    res = lemma_partition_experiment(16, 4000, seed=3)
    # independent evaluation of the union bound at k = 16, c = 8
    assert res.c == 8
    assert res.bound == pytest.approx((math.e / 8) ** 8 * 16)
    assert res.bound == pytest.approx(2.86e-3, rel=0.02)
    assert res.empirical <= res.bound + 3 * res.stderr
    res64 = lemma_partition_experiment(64, 4000, seed=3)
    assert res64.bound == pytest.approx(1.41e-4, rel=0.02)
    assert res64.empirical <= res64.bound + 3 * res64.stderr


def test_lemma_partition_guards():
    with pytest.raises(ValueError):
        lemma_partition_experiment(3, 4000, seed=0)
    with pytest.raises(ValueError):
        lemma_partition_experiment(16, 10, seed=0)


def test_hd_error_weight_at_threshold_is_clean():
    for strategy in ("bucket", "syndrome"):
        for res in hd_error_experiment(2, 0.1, strategy, 400, seed=5):
            if res.weight == 2:  # within the promise: one-sided, no error
                assert res.errors == 0
            else:
                assert res.rate <= 0.1 + 3 * res.stderr


def test_hd_error_rejects_raw():
    with pytest.raises(ValueError):
        hd_error_experiment(2, 0.1, "raw", 100, seed=0)


def test_sweep_cost_monotone_and_strategies_separate():
    rows_syn = sweep_r([4, 8, 16, 32], 256, "syndrome")
    costs_syn = [r.cost_bits for r in rows_syn]
    assert costs_syn == sorted(costs_syn) and len(set(costs_syn)) == 4
    rows_buc = sweep_r([4, 8, 16, 32], 256, "bucket")
    # bucket's quadratic regime pulls away from syndrome as r grows
    gaps = [b.cost_bits / s.cost_bits
            for b, s in zip(rows_buc, rows_syn)]
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] > 2.0


def test_sweep_normalizer():
    assert cost_normalizer(16) == pytest.approx(16 * 4.0**3 / 2.0)
    assert math.isnan(cost_normalizer(2))
    # r = -1 used to be priced as a periodic predicate: cost 34, ratio nan
    for r in (200, -1):
        with pytest.raises(ValueError, match=rf"^r = {r} outside \[0, n/2\] for n = 256$"):
            sweep_r([r], 256, "syndrome")


def test_sweep_deterministic():
    a = sweep_r([4, 8], 128, "syndrome")
    b = sweep_r([4, 8], 128, "syndrome")
    assert csv_lines(SweepRow, a) == csv_lines(SweepRow, b)


def test_sweep_prices_from_the_plan(monkeypatch):
    # each r is priced by p_total_cost: no input drawn, no protocol run,
    # so the r = 127 guard's BCH code is never built
    monkeypatch.setattr(gf2, "_CODES", {})
    rows = sweep_r([64, 127], 4096, "syndrome")
    assert gf2._CODES == {}
    assert csv_lines(SweepRow, rows)[1:] == [
        "64,4096,syndrome,1065078,8192,5347.85,199.16",
        "127,4096,syndrome,2311264,8192,15454.5,149.553",
    ]


def test_sweep_prices_the_profile_of_each_r():
    # any predicate of profile (r, 0) costs the same: the dropped trial loop
    # averaged equal numbers
    for row in sweep_r([0, 1, 5, 8], 16, "bucket"):
        for seed in range(3):
            prof = compute_profile(family(f"random:{row.r}", 16, CoinSource.from_seed(seed)))
            assert (prof.r0, prof.r1) == (row.r, 0)
            assert row.cost_bits == p_total_cost(prof, 16, "bucket")
        assert row.trivial_bits == 32


def test_csv_lines_formats_each_field_type():
    @dataclass
    class Record:
        name: str
        count: int
        share: float
        flag: bool

    assert csv_lines(Record, [Record("a", 3, 1 / 3, True), Record("b", -1, 2e6, False)]) == [
        "name,count,share,flag",
        "a,3,0.333333,1",
        "b,-1,2e+06,0",
    ]
    assert csv_lines(Record, []) == ["name,count,share,flag"]


def test_dump_and_replay_consistency(tmp_path):
    cfg = TrialConfig(n=24, predicate_spec="ham:2", weights="auto", trials=6,
                      seed=13, strategy="syndrome", dump_dir=tmp_path)
    cells, rows = run_trials(cfg)
    dumps = sorted(tmp_path.glob("trial-*.txt"))
    assert len(dumps) == len(rows)
    for path, row in zip(dumps, rows):
        res = replay_transcript_text(path.read_text())
        assert res.consistent
        fields = row.split(",")
        assert res.trial == int(fields[0])
        assert res.output == int(fields[6])
        assert res.truth == int(fields[7])
        assert res.correct == int(fields[8])
        assert res.cost_bits == int(fields[9])


def test_replay_resolves_a_runs_predicate_once(tmp_path, monkeypatch):
    # every dump of one run names the same (predicate, n, seed): replay
    # builds the family once for them, and again for a run with another seed
    for seed in (13, 14):
        cfg = TrialConfig(n=24, predicate_spec="random:3", weights=[1], trials=2,
                          seed=seed, strategy="syndrome", dump_dir=tmp_path / str(seed))
        run_trials(cfg)
    harness._dumped_run.cache_clear()
    built = []
    build = harness.family
    monkeypatch.setattr(harness, "family", lambda *args: built.append(args[:2]) or build(*args))
    for seed, want in ((13, 1), (14, 2)):
        dumps = sorted((tmp_path / str(seed)).glob("trial-*.txt"))
        assert len(dumps) == 2
        assert all(replay_transcript_text(path.read_text()).consistent for path in dumps)
        assert built == [("random:3", 24)] * want
    # a cached resolution still rejects a spelling the writer never produces
    upper = dumps[0].read_text().replace("predicate=random:3", "predicate=RANDOM:3", 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="'RANDOM:3' is not written 'random:3'"):
            replay_transcript_text(upper)


def test_replay_detects_tampering(tmp_path):
    cfg = TrialConfig(n=24, predicate_spec="eq", weights=[1], trials=1,
                      seed=2, strategy="syndrome", dump_dir=tmp_path)
    run_trials(cfg)
    path = next(tmp_path.glob("trial-*.txt"))
    lines = path.read_text().splitlines()
    tokens = lines[0].split("\t")
    for i, tok in enumerate(tokens):
        if tok.startswith("output="):
            tokens[i] = f"output={1 - int(tok.split('=')[1])}"
    res = replay_transcript_text("\n".join(["\t".join(tokens)] + lines[1:]))
    assert not res.consistent


@pytest.mark.parametrize("cut_before, missing", [
    ("p/parity", r"'p/parity'"),
    ("p/hd1", r"'p/hd1'"),
    ("p/pk/main/block/0/hd/1", r"'p/pk/main/block/0/hd/1'"),
])
def test_truncated_dump_names_missing_label(tmp_path, cut_before, missing):
    cfg = TrialConfig(n=24, predicate_spec="ham:2", weights=[1], trials=1,
                      seed=5, strategy="syndrome", dump_dir=tmp_path)
    run_trials(cfg)
    lines = next(tmp_path.glob("trial-*.txt")).read_text().splitlines()
    cut = next(i for i, ln in enumerate(lines)
               if ln.startswith(f"Bob\t{cut_before}\t"))
    with pytest.raises(ValueError, match=missing):
        replay_transcript_text("\n".join(lines[:cut]) + "\n")


def _raw_dump_with_short_hd0(tmp_path):
    """The n = 24 raw dump with Alice's 24-bit p/hd0 declared as 23 bits:
    the hex keeps its length, and bit 23 becomes a padding bit."""
    cfg = TrialConfig(n=24, predicate_spec="ham:2", weights=[1], trials=1,
                      seed=5, strategy="raw", dump_dir=tmp_path)
    run_trials(cfg)
    lines = next(tmp_path.glob("trial-*.txt")).read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("Alice\tp/hd0\t"))
    lines[i] = lines[i].rsplit("\t", 1)[0] + "\t23"
    return lines, i


def test_dump_with_wrong_payload_length_is_rejected(tmp_path):
    # the edit leaves bit 23 set, now in the padding, which parsing rejects
    lines, i = _raw_dump_with_short_hd0(tmp_path)
    assert int(lines[i].split("\t")[2][-2:], 16) >> 7 == 1
    with pytest.raises(ValueError, match=rf"^line {i + 1} \('p/hd0'\): nonzero padding bits"):
        replay_transcript_text("\n".join(lines) + "\n")


def test_dump_with_wrong_payload_length_and_zero_padding_is_rejected(tmp_path):
    # with the padding bit cleared the line parses, and replay names the sizes
    lines, i = _raw_dump_with_short_hd0(tmp_path)
    party, label, hexstr, bitlen = lines[i].split("\t")
    hexstr = hexstr[:-2] + f"{int(hexstr[-2:], 16) & 0x7F:02x}"
    lines[i] = "\t".join([party, label, hexstr, bitlen])
    with pytest.raises(ValueError, match="'p/hd0' payload has 23 bits, expected 24"):
        replay_transcript_text("\n".join(lines) + "\n")


def _hex_field(bits) -> str:
    """A payload's hex field as format_transcript writes it."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes().hex() or "-"


def _payload(fields):
    """The bits of a split entry line."""
    data = np.frombuffer(bytes.fromhex(fields[2].replace("-", "")), dtype=np.uint8)
    return np.unpackbits(data, bitorder="little")[: int(fields[3])]


def test_raw_run_entry_is_checked_against_the_partition(tmp_path):
    # a raw run's entries are its blocks, so their sizes come from the drawn
    # partition: one bit moved from block 0 to block 1 keeps every line
    # well formed and the total cost, and replay names the first block
    cfg = TrialConfig(n=24, predicate_spec="ham:2", weights=[1], trials=1,
                      seed=5, strategy="raw", dump_dir=tmp_path)
    run_trials(cfg)
    text = next(tmp_path.glob("trial-*.txt")).read_text()
    lines = text.splitlines()
    i, j = (next(i for i, ln in enumerate(lines) if ln.startswith(f"Alice\t{label}\t"))
            for label in ("p/pk/main/block/0/hd/0", "p/pk/main/block/1/hd/0"))
    first, second = lines[i].split("\t"), lines[j].split("\t")
    size = int(first[3])
    assert size >= 1
    a, b = _payload(first), _payload(second)
    moved = (a[:-1], np.concatenate([a[-1:], b]))
    for k, fields, bits in ((i, first, moved[0]), (j, second, moved[1])):
        lines[k] = "\t".join(fields[:2] + [_hex_field(bits), str(len(bits))])
    edited = "\n".join(lines) + "\n"
    assert transcript_cost(parse_transcript(edited)) == transcript_cost(parse_transcript(text))
    message = rf"^'p/pk/main/block/0/hd/0' payload has {size - 1} bits, expected {size}$"
    with pytest.raises(ValueError, match=message):
        replay_transcript_text(edited)


def _syndrome_dump_lines(tmp_path):
    cfg = TrialConfig(n=24, predicate_spec="ham:2", weights=[1], trials=1,
                      seed=5, strategy="syndrome", dump_dir=tmp_path)
    run_trials(cfg)
    return next(tmp_path.glob("trial-*.txt")).read_text().splitlines()


PK3 = "p/pk/main/block/0/hd/3"


@pytest.mark.parametrize("label, edit, message", [
    # a hex field cut short used to unpack zero-padded and replay consistently
    (PK3, lambda f: [f[0], f[1], f[2][:4], f[3]], r"4 hex digits for \d+ bits, expected"),
    (PK3, lambda f: f + ["extra"], "expected 4 tab-separated fields, got 5"),
    (PK3, lambda f: f[:3] + [f[3] + "x"], "invalid literal for int"),
    # 217 bits: bit 7 of the last byte is padding, and a set one used to replay
    (PK3, lambda f: [f[0], f[1], f[2][:-2] + f"{int(f[2][-2:], 16) | 0x80:02x}", f[3]],
     "nonzero padding bits past bit 217"),
    # the first byte dropped and two spaces appended keep the field's length;
    # bytes.fromhex skips the spaces, and the bits used to run into the next entry
    (PK3, lambda f: [f[0], f[1], f[2][2:] + "  ", f[3]], "characters other than hex digits"),
    # a parity entry parses at any size; replay checks it like every payload
    # (0 bits used to raise IndexError, and 2 bits were accepted)
    ("p/parity", lambda f: [f[0], f[1], "-", "0"], "'p/parity' payload has 0 bits, expected 1"),
    ("p/parity", lambda f: [f[0], f[1], "01", "2"], "'p/parity' payload has 2 bits, expected 1"),
], ids=["short-hex", "field-count", "non-integer-length", "padding-bit", "spaced-hex",
        "parity-0-bits", "parity-2-bits"])
def test_malformed_dump_line_is_rejected(tmp_path, label, edit, message):
    lines = _syndrome_dump_lines(tmp_path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(f"Alice\t{label}\t"))
    lines[i] = "\t".join(edit(lines[i].split("\t")))
    # a line that does not parse is named by number, a mis-sized payload by label
    where = rf"line {i + 1}\b.*" if label == PK3 else ""
    with pytest.raises(ValueError, match=rf"^{where}{message}"):
        replay_transcript_text("\n".join(lines) + "\n")


def _arabic_indic(digits: str) -> str:
    return "".join(chr(0x0660 + int(d)) for d in digits)


@pytest.mark.parametrize("edit, message", [
    (lambda f: [f[0], f[1], f[2].upper(), f[3]], "'[0-9A-F]+' has uppercase hex digits"),
    (lambda f: f[:3] + [f" {f[3]} "], r"bit length ' 217 ' is not written '217'"),
    (lambda f: f[:3] + [f"+{f[3]}"], r"bit length '\+217' is not written '217'"),
    (lambda f: f[:3] + [f"0{f[3]}"], r"bit length '0217' is not written '217'"),
    (lambda f: f[:3] + [f"{f[3][0]}_{f[3][1:]}"], r"bit length '2_17' is not written '217'"),
    (lambda f: f[:3] + [_arabic_indic(f[3])],
     "bit length '\u0662\u0661\u0667' is not written '217'"),
], ids=["uppercase-hex", "spaced-length", "signed-length", "zero-led-length",
        "underscored-length", "arabic-indic-length"])
def test_dump_line_has_one_spelling(tmp_path, edit, message):
    # each of these used to replay consistently: the dump format accepts
    # only what format_transcript writes
    lines = _syndrome_dump_lines(tmp_path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(f"Alice\t{PK3}\t"))
    assert lines[i].endswith("\t217") and lines[i].split("\t")[2] != lines[i].split("\t")[2].upper()
    lines[i] = "\t".join(edit(lines[i].split("\t")))
    with pytest.raises(ValueError, match=rf"^line {i + 1} \('{PK3}'\): {message}"):
        replay_transcript_text("\n".join(lines) + "\n")


def test_dump_header_has_one_version(tmp_path):
    lines = _syndrome_dump_lines(tmp_path)
    lines[0] = lines[0].replace("# xorsmp-transcript v1\t", "# xorsmp-transcript v2\t", 1)
    with pytest.raises(ValueError, match=r"^line 1: header starts '# xorsmp-transcript v2', "
                                         r"expected '# xorsmp-transcript v1'$"):
        replay_transcript_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("where", ["after", "before"])
def test_dump_header_repeated_key_is_named(tmp_path, where):
    # seed=6 after the real seed=5 used to win and replay inconsistently;
    # placed before it, it was overwritten and replayed consistently
    lines = _syndrome_dump_lines(tmp_path)
    magic, rest = lines[0].split("\t", 1)
    assert rest.startswith("seed=5\t")
    lines[0] = f"{lines[0]}\tseed=6" if where == "after" else f"{magic}\tseed=6\t{rest}"
    with pytest.raises(ValueError, match=r"^dump header field 'seed' appears twice$"):
        replay_transcript_text("\n".join(lines) + "\n")


def test_dump_header_field_without_value_is_named(tmp_path):
    lines = _syndrome_dump_lines(tmp_path)
    lines[0] += "\tverbose"
    with pytest.raises(ValueError, match=r"^dump header field 'verbose' has no '='$"):
        replay_transcript_text("\n".join(lines) + "\n")


def test_malformed_line_number_counts_blank_lines(tmp_path):
    # blank and whitespace-only lines are skipped, yet a line is named by
    # its number in the file
    lines = _syndrome_dump_lines(tmp_path)
    lines[4] += "\textra"
    lines[4:4] = ["  ", "\t "]
    with pytest.raises(ValueError, match=r"^line 7: expected 4 tab-separated fields, got 5$"):
        replay_transcript_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("key, edit, message", [
    # x cut to its first byte used to replay with truth 0 at distance 1
    ("x", lambda v: v[:2], r"'x': 2 hex digits for 24 bits, expected 6"),
    ("y", lambda v: v + "00", r"'y': 8 hex digits for 24 bits, expected 6"),
    ("seed", lambda v: v + "x", r"'seed': invalid literal for int\(\) with base 10: '5x'"),
    ("output", lambda v: "", r"'output': invalid literal for int\(\) with base 10: ''"),
    ("cost_bits", lambda v: "abc",
     r"'cost_bits': invalid literal for int\(\) with base 10: 'abc'"),
    # a weight that is not |x XOR y| used to replay consistently
    ("weight", lambda v: "7", r"'weight': 7, but \|x XOR y\| = 1$"),
    # each of these used to replay consistently: an integer field is plain
    # decimal, like an entry's bit length, and the predicate is written as
    # resolve_predicate names it
    ("seed", lambda v: "0" + v, r"'seed': '05' is not written '5'$"),
    ("seed", lambda v: "+" + v, r"'seed': '\+5' is not written '5'$"),
    ("n", lambda v: " " + v, r"'n': ' 24' is not written '24'$"),
    ("trial", lambda v: v + "0", r"'trial': '00' is not written '0'$"),
    ("predicate", str.upper, r"'predicate': 'HAM:2' is not written 'ham:2'$"),
    ("predicate", lambda v: " " + v, r"'predicate': ' ham:2' is not written 'ham:2'$"),
    ("seed", lambda v: "-" + v, r"'seed': seed must be an unsigned 64-bit integer$"),
    # the strategy used to raise without naming its field, and each branch
    # spelling used to replay with consistent False
    ("strategy", str.upper,
     r"'strategy': 'SYNDROME' is not one of 'raw', 'bucket', 'syndrome'$"),
    ("branch", str.upper, r"'branch': 'LOW' is not one of 'low', 'high', 'parity'$"),
    ("branch", lambda v: v + " ", r"'branch': 'low ' is not one of 'low', 'high', 'parity'$"),
], ids=["short-x", "long-y", "seed-not-int", "output-empty", "cost-bits-not-int",
        "weight-not-distance", "zero-led-seed", "signed-seed", "spaced-n", "zero-led-trial",
        "uppercase-predicate", "spaced-predicate", "negative-seed", "uppercase-strategy",
        "uppercase-branch", "spaced-branch"])
def test_dump_header_bad_field_is_named(tmp_path, monkeypatch, key, edit, message):
    lines = _syndrome_dump_lines(tmp_path)
    lines[0] = "\t".join(
        f"{key}={edit(t.split('=', 1)[1])}" if t.startswith(f"{key}=") else t
        for t in lines[0].split("\t")
    )

    def no_coins(*args):
        raise AssertionError("p_shared ran")

    # every header field is checked before any coin is drawn
    monkeypatch.setattr(harness, "p_shared", no_coins)
    with pytest.raises(ValueError, match=rf"^dump header field {message}"):
        replay_transcript_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, message", [
    (lambda tokens: tokens + ["foo=bar"], r"^dump header field 'foo' is unknown$"),
    (lambda tokens: tokens[::-1], r"^dump header field 'cost_bits' stands where 'seed' belongs$"),
], ids=["extra-field", "reversed-fields"])
def test_dump_header_has_the_writers_fields_in_order(tmp_path, edit, message):
    # both used to replay consistently: replay requires DUMP_HEADER's keys, in order
    lines = _syndrome_dump_lines(tmp_path)
    magic, *tokens = lines[0].split("\t")
    lines[0] = "\t".join([magic, *edit(tokens)])
    with pytest.raises(ValueError, match=message):
        replay_transcript_text("\n".join(lines) + "\n")


def test_dump_header_missing_field_is_named(tmp_path):
    lines = _syndrome_dump_lines(tmp_path)
    lines[0] = "\t".join(t for t in lines[0].split("\t") if not t.startswith("cost_bits="))
    with pytest.raises(ValueError, match="dump header has no 'cost_bits' field"):
        replay_transcript_text("\n".join(lines) + "\n")


def _swapped(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _bob_first(lines):
    first_bob = next(i for i, ln in enumerate(lines) if ln.startswith("Bob\t"))
    return lines[:1] + lines[first_bob:] + lines[1:first_bob]


@pytest.mark.parametrize("edit, message", [
    # two payloads of the same size trade places
    (lambda ls: _swapped(ls, 4, 8),
     r"^entry 4: expected Alice 'p/pk/main/block/0/hd/1', found Alice 'p/pk/main/block/1/hd/1'$"),
    (_bob_first,
     r"^entry 1: expected Alice 'p/hd0', found Bob 'p/hd0'$"),
    (lambda ls: ls[:3] + ls[2:],
     r"^entry 3: expected Alice 'p/pk/main/block/0/hd/0', found Alice 'p/hd1'$"),
    (lambda ls: ls[:2] + ["Alice\tp/extra\t01\t1"] + ls[2:],
     r"^entry 2: expected Alice 'p/hd1', found Alice 'p/extra'$"),
    (lambda ls: ls + [ls[-1]],
     r"^entry 31: expected the end after Bob 'p/parity'$"),
], ids=["alice-swap", "bob-first", "duplicate", "extra", "extra-at-end"])
def test_out_of_layout_entry_names_expected_label(tmp_path, edit, message):
    # replay used to look entries up by label: it replayed the first two
    # consistently and caught the others only as a cost mismatch
    lines = _syndrome_dump_lines(tmp_path)
    assert lines[1].startswith("Alice\tp/hd0\t") and lines[2].startswith("Alice\tp/hd1\t")
    assert lines[8].startswith("Alice\tp/pk/main/block/1/hd/1\t")  # c + 1 = 4 thresholds
    with pytest.raises(ValueError, match=message):
        replay_transcript_text("\n".join(edit(lines)) + "\n")


def test_replay_opens_no_predicate_file(tmp_path, monkeypatch):
    # _dump_trial inlines a predicate file as values:, so a dump that names
    # a file is rejected, and the file is never opened
    lines = _syndrome_dump_lines(tmp_path)
    pred_file = tmp_path / "pred.txt"
    pred_file.write_text(format_predicate(family("ham:2", 24)))
    lines[0] = "\t".join(
        f"predicate=file:{pred_file}" if t.startswith("predicate=") else t
        for t in lines[0].split("\t")
    )
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    real_open = io.open
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    with pytest.raises(ValueError, match=r"^dump header field 'predicate': .*never file:"):
        replay_transcript_text("\n".join(lines) + "\n")
    assert opened == []


def test_replay_rejects_predicate_of_another_length(tmp_path):
    # a 33-entry predicate in an n = 24 dump used to run the referee at
    # n = 32, stopped only by the oracle's input-length check
    lines = _syndrome_dump_lines(tmp_path)
    lines[0] = "\t".join(
        "predicate=values:" + "1" * 33 if t.startswith("predicate=") else t
        for t in lines[0].split("\t")
    )
    with pytest.raises(
        ValueError, match=r"^dump header field 'predicate': predicate 'values:1{33}' has n = 32, not n = 24$"
    ):
        replay_transcript_text("\n".join(lines) + "\n")
