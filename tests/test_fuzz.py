"""Property tests on the text formats: transcript dumps, predicate files
and config files.  A malformed dump or predicate file must end in a
``ValueError`` (which the CLI turns into a one-line message), and a
malformed config file in that one-line exit, never in another exception
from deep inside.  One more property covers the referee's bulk pass: it
decides threshold stacks as the per-block decider and the dense oracle do."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsmp import cli, hamming
from xorsmp.coins import CoinSource
from xorsmp.gf2 import unpack_words
from xorsmp.harness import TrialConfig, replay_transcript_text, run_trials
from xorsmp.hamming import HDParams, decide_block, encode_blocks, hd_shared
from xorsmp.predicate import Predicate, parse_predicate
from xorsmp.protocol import (
    Transcript,
    TranscriptEntries,
    format_transcript,
    parse_transcript,
)

from .oracles import dense_verdict, entry_rows, reference_parse_transcript

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# every character str.splitlines() breaks a line at
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FIELD = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS + "\t"),
    max_size=12,
)
LINE = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS), max_size=40
)
BITS = st.lists(st.integers(0, 1), max_size=200).map(lambda b: np.array(b, dtype=np.uint8))


@FUZZ
@given(
    header=st.dictionaries(FIELD.filter(lambda k: "=" not in k), FIELD, max_size=4),
    entries=st.lists(st.tuples(FIELD, FIELD, BITS), max_size=6),
)
def test_transcript_text_roundtrips(header, entries):
    parties, labels, payloads = zip(*entries) if entries else ((), (), ())
    t = Transcript(header, TranscriptEntries.from_payloads(parties, labels, payloads))
    back = parse_transcript(format_transcript(t))
    assert back.header == header
    assert entry_rows(back.entries) == [(p, l, b.tolist()) for p, l, b in entries]


def _hex_field(bits) -> str:
    """A payload's hex field as format_transcript writes it."""
    return np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes().hex() or "-"


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    """One real dump per strategy; the low branch reads promise-run stacks."""
    texts = []
    for strategy in ("raw", "bucket", "syndrome"):
        out = tmp_path_factory.mktemp(strategy)
        run_trials(TrialConfig(n=24, predicate_spec="ham:2", weights=[1], trials=1,
                               seed=5, strategy=strategy, dump_dir=out))
        texts.append(next(out.glob("trial-*.txt")).read_text())
    return texts


@FUZZ
@given(data=st.data())
def test_single_line_edit_replays_or_raises_value_error(dumps, data):
    lines = data.draw(st.sampled_from(dumps)).splitlines()
    # every kind of line (header, guard, promise-run block, parity) is as
    # likely to be edited, however many lines of each a dump has
    kinds = {}
    for i, ln in enumerate(lines):
        kinds.setdefault(re.sub(r"\d+", "#", ln.split("\t")[1]) if i else "header", []).append(i)
    i = data.draw(st.sampled_from(sorted(kinds)).flatmap(lambda k: st.sampled_from(kinds[k])),
                  label="line")
    kind = data.draw(st.sampled_from(["delete", "line", "payload", "field", "hex"]), label="edit")
    if kind == "delete":
        del lines[i]
    elif kind == "line":
        lines[i] = data.draw(LINE)
    elif kind == "payload":  # a well-formed payload of any size, so the line parses
        bits = data.draw(st.lists(st.integers(0, 1), max_size=300), label="payload")
        party_label = lines[i].split("\t")[:2]
        lines[i] = "\t".join(party_label + [_hex_field(bits), str(len(bits))])
    else:
        fields = lines[i].split("\t")
        f = data.draw(st.integers(0, len(fields) - 1), label="field")
        if kind == "hex":  # one character of the field becomes a hex digit or '-'
            pos = data.draw(st.integers(0, len(fields[f])), label="position")
            char = data.draw(st.sampled_from("0123456789abcdef-"))
            fields[f] = fields[f][:pos] + char + fields[f][pos + 1 :]
        else:  # a header field may keep its key
            key, eq, _ = fields[f].partition("=")
            keep = data.draw(st.booleans(), label="keep key")
            fields[f] = (key + eq if keep else "") + data.draw(FIELD)
        lines[i] = "\t".join(fields)
    try:
        replay_transcript_text("\n".join(lines) + "\n")
    except ValueError:
        pass


@FUZZ
@given(data=st.data())
def test_bulk_parse_agrees_with_the_reference(dumps, data):
    # one edit to one line of a real dump: both parsers return the same
    # transcript, or both raise ValueError with the same message
    lines = data.draw(st.sampled_from(dumps)).splitlines()
    kind = data.draw(
        st.sampled_from(["add field", "drop field", "length", "hex", "padding", "blank"]),
        label="edit",
    )
    i = data.draw(st.integers(1, len(lines) - 1), label="line")
    fields = lines[i].split("\t")
    if kind == "add field":
        fields.insert(data.draw(st.integers(0, 4), label="at"), data.draw(FIELD))
    elif kind == "drop field":
        del fields[data.draw(st.integers(0, 3), label="field")]
    elif kind == "length":  # written as format_transcript writes lengths
        fields[3] = str(data.draw(st.integers(0, 2 * int(fields[3]) + 16), label="bits"))
    elif kind == "hex":
        pos = data.draw(st.integers(0, len(fields[2]) - 1), label="position")
        char = data.draw(st.sampled_from("0123456789abcdefg- "), label="char")
        fields[2] = fields[2][:pos] + char + fields[2][pos + 1 :]
    elif kind == "padding":  # set one bit past the payload's end in its last byte
        spare = -int(fields[3]) % 8
        if spare:
            bit = 7 - data.draw(st.integers(0, spare - 1), label="padding bit")
            fields[2] = fields[2][:-2] + f"{int(fields[2][-2:], 16) | 1 << bit:02x}"
    lines[i] = "\t".join(fields)
    if kind == "blank":
        at = data.draw(st.integers(0, len(lines)), label="at")
        lines.insert(at, data.draw(st.sampled_from(["", " ", "\t", " \t  "]), label="blank"))
    text = "\n".join(lines) + "\n"
    try:
        want = reference_parse_transcript(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_transcript(text)
        assert str(got.value) == str(exc)
        return
    t = parse_transcript(text)
    assert (t.header, entry_rows(t.entries)) == want


PREDICATE_TEXT = st.one_of(
    st.text(),
    st.builds(lambda n, row, tail: f"{n}\n{row}\n{tail}",
              st.text("0123456789- +", max_size=4), st.text("01 \t2", max_size=12),
              st.sampled_from(["", "\n", " \n", "x\n"])),
)


@FUZZ
@given(PREDICATE_TEXT)
def test_parse_predicate_raises_only_value_error(text):
    try:
        pred = parse_predicate(text)
    except ValueError:
        return
    assert isinstance(pred, Predicate)


# config keys as flags and as identifiers, plus keys no subcommand reads
CONFIG_KEYS = sorted({k for f in cli._FLAGS for k in (f, f.replace("-", "_"))}) + [
    "", "bogus", "command",
]
CONFIG_LINE = st.one_of(
    LINE,
    st.builds(
        lambda key, sep, val: f"{key}{sep}{val}",
        st.sampled_from(CONFIG_KEYS),
        st.sampled_from(["=", " = ", "==", " "]),
        st.one_of(FIELD, st.sampled_from(["8", "-3", "1e3", "eq", "raw", "fast", "auto", "0,1"])),
    ),
)
CONFIG_BYTES = st.one_of(
    st.lists(CONFIG_LINE, max_size=6).map(lambda ls: "\n".join(ls).encode()),
    st.binary(max_size=40),  # mostly not UTF-8
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "fuzz.cfg"


@FUZZ
@given(command=st.sampled_from(sorted(cli._COMMANDS)), data=CONFIG_BYTES)
def test_config_merges_or_exits_with_message(config_path, command, data):
    config_path.write_bytes(data)
    args = cli._build_parser().parse_args([command, "--config", str(config_path)])
    try:
        merged = cli._merge_config(args)
    except SystemExit as exc:
        assert isinstance(exc.code, str) and exc.code.startswith(f"{config_path}:")
        assert len(exc.code.splitlines()) == 1, exc.code
        return
    assert merged.config == config_path


BLOCK = 8  # input positions per block in the stack property below


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(32, 40),
    j=st.integers(2, 10),
    epsilon=st.sampled_from([0.1, 0.01, 0.001]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_bulk_decide_equals_per_block_decider_and_oracle(k, j, epsilon, seed, data):
    # a random stack of k >= 32 blocks at threshold j, per-block differences
    # of weight 0 to 4 and a few flipped syndrome or fingerprint bits: a
    # call of at least 32 blocks (the bulk pass settles weights 0 to 2) gives
    # the per-block decider's verdicts and the dense oracle's
    n = BLOCK * k
    params = HDParams(d=j, epsilon=epsilon, strategy="syndrome", length=n)
    shared = hd_shared(params, CoinSource.from_seed(seed).derive("fuzz"))
    weights = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k), label="weights")
    gen = np.random.default_rng(seed)
    ones = np.concatenate(
        [BLOCK * i + np.sort(gen.choice(BLOCK, w, replace=False)) for i, w in enumerate(weights)]
    )
    one_bounds = np.concatenate([[0], np.cumsum(weights)])
    bounds = np.arange(0, n + 1, BLOCK)
    x = np.zeros(n, dtype=np.uint8)
    none = np.array([], dtype=np.int64)
    m_a = encode_blocks(shared, x, none, np.zeros(k + 1, dtype=np.int64), k, bounds)
    x[ones] = 1
    m_b = encode_blocks(shared, x, ones, one_bounds, k, bounds)
    words = [w.copy() for w in m_b.words]
    flips = st.tuples(
        st.integers(0, 1), st.integers(0, params.repetitions - 1), st.integers(0, k - 1),
        st.integers(0, 10**6),
    )
    for seg, rep, i, bit in data.draw(st.lists(flips, max_size=4), label="flips"):
        bit %= params.segment_bits[seg]
        words[seg][rep, i, bit // 64] ^= np.uint64(1 << bit % 64)
    m_b = hamming.BlockMessages(shared, k, words=tuple(words))
    blocks = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=32), label="blocks"))
    positions = [np.arange(BLOCK * i, BLOCK * (i + 1)) for i in range(k)]

    got = decide_block(m_a, m_b, blocks, positions)
    diffs = [w.take(blocks, axis=1) for w in words]  # Alice's words are zero
    assert got == hamming._decide_each(shared, diffs, positions, blocks)
    syn_bits, fp_bits = (unpack_words(w, bits) for w, bits in zip(words, params.segment_bits))
    assert [(v.le, v.estimate) for v in got] == [
        dense_verdict(shared, syn_bits[:, i], fp_bits[:, i]) for i in blocks
    ]
