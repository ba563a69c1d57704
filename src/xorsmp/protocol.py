"""The SMP protocols: the promise protocol over a random partition, and the
full three-branch protocol built from two of them.

Both parties build their messages from (own input, shared coins) only; the
referee reads the same public coins and the XOR of the two bundles, and
announces one bit.  The promise protocol partitions [n] into k blocks,
runs a stack of distance-threshold instances per block, and binary-searches
each block's distance; it returns the total.  The full protocol handles
each tail in ``TAILS`` with one construction, a threshold check and then
the promise protocol: on (x, y) for the low tail, and on (complement(x), y)
for the high tail, whose distance t is n minus the original.  The referee
of the first tail whose check passes answers D(t), or D(n - t) on the high
tail; a tail of length 0 has no promise run, and t is the check's estimate.
Otherwise it answers from the two parity bits, which is exact on the
2-periodic middle range.

Cost accounting is bit-exact: a transcript is the ordered list of payloads
both parties sent, and its cost is their total bit length.  Coins are free
(public-coin model) and the referee sends nothing.

Every message is GF(2)-linear in its sender's input, so the XOR of the
two bundles is the bundle the same coins encode from x XOR y (from its
complement on a reflected tail, as Alice's input is there), with parity
bit parity(x XOR y).  That difference bundle is all the referee reads:
``run_protocol`` encodes it once, on |x XOR y| ones, and a replay XORs
each of Alice's dumped payloads with Bob's before packing it.

Nothing is drawn or encoded that the referee does not read.  The cost
and the dump layout come from the run shape's plan (``trial_plan``),
checked and built once per process.  The referee always reads the low
tail's guard, reads the high tail's only when the low one fails, and
reads at most one promise run, in which the threshold search reads a few
stacks per block.  Each of these is keyed, a run's partition drawn
(``PShared``), and encoded, or read from a dump (``PBundle``), on its
first read, and a guard's or stack's coins are computed only where they
are read (``hamming.HDShared``).  A message is a pure function of (own
input, coins from its own derived child), so this changes no bit of it.
The parties' own bundles are built only when a dump is written, which
reads everything.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bits import BitVector, input_bits, parity
from .coins import CoinSource, Partition, c_of_k, sample_partition
from .gf2 import MAX_FIELD_DEGREE
from .hamming import (
    SYNDROME_D_MAX,
    BlockMessages,
    HDParams,
    HDShared,
    decide_block,
    encode_blocks,
    hd_decide,  # not called here: perfbench/tracer.py wraps protocol.hd_decide
    hd_encode_shared,
    hd_shared,
    threshold_search,
)
from .predicate import Predicate, Profile

ALICE = "Alice"
BOB = "Bob"


class Lazy(dict):
    """A memo whose item j >= 0 is ``make(j)``, made on first read and kept,
    even when it is None.  Guards, promise runs and threshold stacks are
    held this way: in SMP each one is a pure function of (own input, coins),
    so one the referee never reads is only counted, never computed.  It has
    no length of its own, so it cannot be iterated or sized; a reader counts
    from the plan, and an index past the plan raises from ``make``."""

    __slots__ = ("_make",)
    __iter__ = __len__ = None  # they would see only the items read so far

    def __init__(self, make: Callable[[int], object]):
        super().__init__()
        self._make = make

    def __missing__(self, j: int):
        if j < 0:
            raise IndexError(f"Lazy index {j} < 0")
        item = self[j] = self._make(j)
        return item


def check_envelope(n: int, r: int, strategy: str) -> None:
    """The supported (n, r, strategy) of the full protocol, checked before
    anything is drawn: a tail length 0 <= r <= n and, for ``syndrome``,
    r <= ``SYNDROME_D_MAX`` (127), since the distance-r guard hashes into
    4 r^2 buckets, which must fit the largest configured field.  Raises
    ``ValueError`` naming the limit; ``HDParams`` rejects unknown strategies."""
    if not 0 <= r <= n:
        raise ValueError(f"tail length r = {r} outside [0, n = {n}]")
    if strategy == "syndrome" and r > SYNDROME_D_MAX:
        raise ValueError(
            f"syndrome supports tails up to r = {SYNDROME_D_MAX}: the guard's 4r^2 "
            f"buckets must fit GF(2^{MAX_FIELD_DEGREE}); got r = {r}"
        )


@functools.cache
def guard_params(r: int, strategy: str, n: int) -> HDParams:
    """The threshold check "distance at most r", with error budget 1/10,
    that guards a tail of length r.  Built once per (r, strategy, n)."""
    return HDParams(d=r, epsilon=0.1, strategy=strategy, length=n)


@functools.cache
def threshold_params(k: int, strategy: str, n: int) -> Tuple[HDParams, ...]:
    """The stacked thresholds j = 0..c of a k-block promise run, in order,
    each with the per-instance budget 1/(10 k log2(c)), guarded below c = 2.
    Built once per (k, strategy, n); ``c_of_k`` rejects k < 1."""
    c = c_of_k(k)
    epsilon = 1.0 / (10.0 * k * max(1.0, math.log2(c)))
    return tuple(
        HDParams(d=j, epsilon=epsilon, strategy=strategy, length=n) for j in range(c + 1)
    )


@dataclass(frozen=True, eq=False)
class PkShared:
    """One promise-protocol run: split [n] into k blocks and run thresholds
    j = 0..c on every block; the referee recovers the total distance.  The
    partition is drawn at once; ``stacks`` is a ``Lazy`` memo whose item j,
    threshold j's coins, is keyed by its own ``pk/<side>/hd/<j>`` child when
    first read.  Readers count the stacks from ``params``."""

    k: int
    n: int
    partition: Partition
    params: Tuple[HDParams, ...]      # threshold_params(k, ...), thresholds j = 0..c
    stacks: Lazy[HDShared]            # thresholds j = 0..c
    sort_order: np.ndarray            # positions grouped by block, for raw payloads
    bounds: np.ndarray                # block i occupies sort_order[bounds[i]:bounds[i+1]]

    @property
    def c(self) -> int:
        return len(self.params) - 1


def pk_shared(k: int, n: int, strategy: str, coins: CoinSource, side: str = "main") -> PkShared:
    params = threshold_params(k, strategy, n)
    part = sample_partition(n, k, coins.derive(f"pk/{side}/partition"))
    stacks = Lazy(lambda j: hd_shared(params[j], coins.derive(f"pk/{side}/hd/{j}")))
    # keys of 16 bits or fewer make the stable sort a radix sort, with the
    # same order: 15 against 183 us at n = 4096, k = 64 on a 2-vCPU host
    sort_order = np.argsort(part.block_of.astype(np.min_scalar_type(k - 1)), kind="stable")
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(part.block_sizes(), out=bounds[1:])
    return PkShared(k, n, part, params, stacks, sort_order, bounds)


def pk_party_messages(shared: PkShared, x: Union[BitVector, np.ndarray]) -> Lazy[BlockMessages]:
    """One party's (c + 1) threshold stacks, each covering all k blocks and
    each encoded on first read.  The input x may also be given unpacked
    (``bits.input_bits``)."""
    # split the input by block once; every threshold stack reuses the split
    x_sorted = input_bits(x, shared.n, "run")[shared.sort_order]
    hits = np.flatnonzero(x_sorted)
    ones = shared.sort_order[hits]
    one_bounds = np.searchsorted(hits, shared.bounds)
    return Lazy(
        lambda j: encode_blocks(
            shared.stacks[j], x_sorted, ones, one_bounds, shared.k, shared.bounds
        )
    )


def pk_referee(shared: PkShared, diff: Lazy[BlockMessages]) -> int:
    """Recover each block's distance by lazy binary search, all blocks
    level by level, and return their total, clamped to n.  ``diff`` holds
    the difference's threshold stacks, ``pk_party_messages`` of x XOR y:
    stack by stack, the XOR of the two parties' runs."""
    bounds = shared.bounds
    positions = Lazy(lambda i: shared.sort_order[bounds[i] : bounds[i + 1]])

    def verdicts(j: int, blocks: List[int]) -> List[bool]:
        return [v.le for v in decide_block(diff[j], blocks, positions)]

    return min(sum(threshold_search(shared.c, shared.k, verdicts)[0]), shared.n)


# The full protocol.


BRANCH_LOW = "low"
BRANCH_HIGH = "high"
BRANCH_PARITY = "parity"
BRANCHES = (BRANCH_LOW, BRANCH_HIGH, BRANCH_PARITY)


@dataclass(frozen=True)
class Tail:
    """One tail of the full protocol: the threshold check labelled ``guard``
    and the promise run labelled ``side``; the referee answers ``branch``
    when the check passes.  A reflected tail is the low-tail construction
    on (complement(x), y), whose distance is n minus that of (x, y)."""

    guard: str
    side: str
    branch: str
    reflected: bool


TAILS = (Tail("hd0", "main", BRANCH_LOW, False), Tail("hd1", "tilde", BRANCH_HIGH, True))


@dataclass(frozen=True, eq=False)
class TrialPlan:
    """What no coin decides in a run of one shape (r0, r1, n, strategy).
    One party's entries are the guards ``p/hd0`` and ``p/hd1``, each run
    block by block (block i's thresholds j = 0..c in a row), ``p/parity``."""

    strategy: str
    rs: Tuple[int, ...]                     # each tail's length r
    guards: Tuple[HDParams, ...]            # guard_params(r, ...) of each tail
    runs: Tuple[Tuple[HDParams, ...], ...]  # threshold_params(r, ...); () when r = 0
    labels: Tuple[str, ...]                 # one party's entries, in wire order
    sizes: np.ndarray                       # their bits, read-only (p_layout sizes raw runs)
    run_starts: Tuple[int, ...]             # the entry at which each tail's run starts
    party_bits: int                         # bits each party sends


@functools.cache
def trial_plan(r0: int, r1: int, n: int, strategy: str) -> TrialPlan:
    """The plan of one run shape, envelope-checked and built once per
    process; every trial, replay and cost query of the shape reads it."""
    check_envelope(n, max(r0, r1), strategy)
    rs = (r0, r1)
    guards = tuple(guard_params(r, strategy, n) for r in rs)
    runs = tuple(threshold_params(r, strategy, n) if r else () for r in rs)
    labels = [f"p/{tail.guard}" for tail in TAILS]
    sizes = [g.payload_bits for g in guards]
    party_bits = sum(sizes) + 1  # the guards and the parity bit
    run_starts = []
    for tail, r, params in zip(TAILS, rs, runs):
        run_starts.append(len(labels))
        labels += (f"p/pk/{tail.side}/block/{i}/hd/{j}" for i, j in np.ndindex(r, len(params)))
        sizes += [p.payload_bits for p in params] * r
        party_bits += sum(p.stack_bits(r) for p in params)
    sizes = np.array(sizes + [1], dtype=np.int64)
    sizes.setflags(write=False)
    labels, run_starts = (*labels, "p/parity"), tuple(run_starts)
    return TrialPlan(strategy, rs, guards, runs, labels, sizes, run_starts, party_bits)


@dataclass(frozen=True, eq=False)
class PShared:
    """Public-coin material of the full protocol: the run shape's ``plan``
    and two ``Lazy`` memos keyed like ``TAILS``: the ``guards``, drawn from
    ``p/hd0`` or ``p/hd1`` on first read, and the ``runs``, whose partition
    is drawn from ``p/pk/<side>/partition`` and each stack from its own
    child likewise; so whether or when one is drawn changes no bit of
    another."""

    predicate: Predicate
    profile: Profile
    n: int
    plan: TrialPlan
    guards: Lazy[HDShared]          # threshold r on the tail's pair
    runs: Lazy[Optional[PkShared]]  # promise r run on it; None when r = 0


def p_shared(d: Predicate, profile: Profile, strategy: str, coins: CoinSource) -> PShared:
    """The plan, checked and built before any coin is drawn (a bad setting
    raises here), with guards and runs drawn on first read."""
    n = d.n
    plan = trial_plan(profile.r0, profile.r1, n, strategy)

    def guard(i: int) -> HDShared:
        return hd_shared(plan.guards[i], coins.derive(f"p/{TAILS[i].guard}"))

    def run(i: int) -> Optional[PkShared]:
        r = plan.rs[i]
        return pk_shared(r, n, strategy, coins.derive("p"), TAILS[i].side) if r else None

    return PShared(d, profile, n, plan, Lazy(guard), Lazy(run))


# The party of the bundle the referee reads: the one encoded from x XOR y,
# which is the XOR of Alice's bundle and Bob's.
DIFFERENCE = f"{ALICE}^{BOB}"


@dataclass(frozen=True, eq=False)
class PBundle:
    """Everything one party sends in the full protocol, or, with party
    ``DIFFERENCE``, the XOR of both parties' bundles; ``guards`` and
    ``runs`` are ``Lazy`` memos keyed like ``TAILS``, and a run is a memo of
    its threshold stacks.  A guard is encoded, and a run's input split by
    block, or each read from a dump, when the referee (or a dump writer)
    first reads it."""

    party: str
    shared: PShared
    guards: Lazy[BlockMessages]                   # 1-block stacks
    runs: Lazy[Optional[Lazy[BlockMessages]]]     # threshold stacks j = 0..c
    parity_bit: int


def p_party_messages(shared: PShared, own_input: BitVector, party: str) -> PBundle:
    """The bundle ``party`` encodes from ``own_input``: Alice's from x,
    Bob's from y, or the referee's ``DIFFERENCE`` bundle from x XOR y.  A
    reflected tail sees the complemented input on Alice's side and the
    plain input on Bob's, so the referee effectively works on the pair
    (complement(x), y) there; the difference is complemented there too,
    since complement(x) XOR y = complement(x XOR y).  Nothing is unpacked
    or encoded before it is read, and each guard and run unpacks the input
    itself."""
    if party not in (ALICE, BOB, DIFFERENCE):
        raise ValueError(f"party must be {ALICE!r}, {BOB!r} or {DIFFERENCE!r}")
    flip = party != BOB

    def own_bits(i: int) -> np.ndarray:
        bits = own_input.to_array()
        return bits ^ 1 if flip and TAILS[i].reflected else bits

    def guard(i: int) -> BlockMessages:
        return hd_encode_shared(shared.guards[i], own_bits(i))

    def run(i: int) -> Optional[Lazy[BlockMessages]]:
        return None if shared.runs[i] is None else pk_party_messages(shared.runs[i], own_bits(i))

    return PBundle(party, shared, Lazy(guard), Lazy(run), parity(own_input))


@dataclass(frozen=True)
class TrialOutcome:
    """One run's decision (output and branch), its transcript cost in bits,
    2 ``plan.party_bits``, the coins it drew, and the distance t the taken
    tail recovered (None on the parity branch).  The referee's bundle is
    not kept: ``p_party_messages(shared, x ^ y, DIFFERENCE)`` rebuilds it."""

    output: int
    branch: str
    cost_bits: int
    shared: PShared
    sum_h: Optional[int] = None


def p_referee(shared: PShared, diff: PBundle) -> TrialOutcome:
    """Three-branch decision on the ``DIFFERENCE`` bundle, the XOR of the
    two parties' bundles: low tail, high tail, then the parity answer.  The
    first tail whose check passes gives the distance t of its pair: the
    promise run's total, or the check's estimate when the tail has no run.
    The answer is D(t), or D(n - t) on the reflected tail, with sum_h = t."""
    if diff.party != DIFFERENCE:
        raise ValueError(
            "the referee reads p_party_messages(shared, x ^ y, DIFFERENCE),"
            f" not {diff.party}'s bundle"
        )
    if diff.shared.plan is not shared.plan:
        raise ValueError("the bundle comes from another run shape than shared")
    cost_bits = 2 * shared.plan.party_bits
    for i, tail in enumerate(TAILS):
        verdict = decide_block(diff.guards[i], [0])[0]
        if not verdict.le:
            continue
        run = shared.runs[i]
        t = verdict.estimate if run is None else pk_referee(run, diff.runs[i])
        output = shared.predicate(shared.n - t if tail.reflected else t)
        return TrialOutcome(output, tail.branch, cost_bits, shared, t)
    answer = shared.profile.t_of(diff.parity_bit)
    return TrialOutcome(answer if answer is not None else 0, BRANCH_PARITY, cost_bits, shared)


def p_total_cost(profile: Profile, n: int, strategy: str) -> int:
    """Deterministic total transcript cost of the full protocol, in bits,
    from the plan ``p_shared`` builds its instances with."""
    return 2 * trial_plan(profile.r0, profile.r1, n, strategy).party_bits


# Transcript accounting and the dump format.


# zero bits that pad a payload to whole bytes, by count
_PADDING = tuple(np.zeros(k, dtype=np.uint8) for k in range(8))


@dataclass(frozen=True, eq=False)
class TranscriptEntries:
    """A transcript's entries, column by column: entry i is ``parties[i]``
    sending ``labels[i]``, a payload of ``sizes[i]`` bits that starts at bit
    ``starts[i]`` of ``bits``.  Every payload starts on a whole byte and its
    padding up to the next byte is zero, so ``bits`` is what the dump's hex
    digits unpack to."""

    parties: Tuple[str, ...]
    labels: Tuple[str, ...]
    sizes: np.ndarray   # int64, bits of each payload
    bits: np.ndarray    # uint8, every payload's bits, each padded to whole bytes
    starts: np.ndarray  # int64, first bit of each payload, a multiple of 8

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_payloads(
        cls, parties: Sequence[str], labels: Sequence[str], payloads: Sequence[np.ndarray]
    ) -> "TranscriptEntries":
        """The entries (parties[i], labels[i], payloads[i]), each payload a
        0/1 array, laid out with one concatenation."""
        if not len(parties) == len(labels) == len(payloads):
            raise ValueError("need one party and one label per payload")
        sizes = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
        starts = np.zeros_like(sizes)
        np.cumsum(-(-sizes[:-1] // 8) * 8, out=starts[1:])
        gaps = map(_PADDING.__getitem__, (-sizes % 8).tolist())
        pieces = itertools.chain.from_iterable(zip(payloads, gaps))
        bits = np.concatenate([_PADDING[0], *pieces]).astype(np.uint8, copy=False)
        return cls(tuple(parties), tuple(labels), sizes, bits, starts)

    def payloads(self, entries: Sequence[int]) -> np.ndarray:
        """The payloads of one or more entries, concatenated in the order
        given, read with one gather."""
        sizes = self.sizes[entries]
        ends = np.cumsum(sizes)
        # entry i fills output bits [ends[i] - sizes[i], ends[i]), from starts[i] on
        shift = np.repeat(self.starts[entries] - ends + sizes, sizes)
        return self.bits[shift + np.arange(ends[-1])]


@dataclass
class Transcript:
    header: Dict[str, str]
    entries: TranscriptEntries = field(
        default_factory=lambda: TranscriptEntries.from_payloads((), (), ())
    )


def transcript_cost(t: Transcript) -> int:
    """Total payload bits sent by the two parties; the referee is free."""
    return int(t.entries.sizes.sum())


def p_layout(shared: PShared) -> Tuple[Tuple[str, ...], np.ndarray]:
    """One party's transcript entries in wire order, as labels and sizes in
    bits: the plan's, except that a raw run's entries, its blocks, are sized
    by its drawn partition.  Both parties send this layout, Alice first; the
    dump writer and the replay reader both walk it."""
    plan = shared.plan
    if plan.strategy != "raw":
        return plan.labels, plan.sizes
    sizes = plan.sizes.copy()
    for i, start in enumerate(plan.run_starts):
        run = shared.runs[i]
        if run is not None:
            step = len(run.params)
            sizes[start : start + run.k * step] = np.repeat(np.diff(run.bounds), step)
    return plan.labels, sizes


def p_transcript_entries(
    shared: PShared, bundle_a: PBundle, bundle_b: PBundle
) -> TranscriptEntries:
    labels, _ = p_layout(shared)
    payloads: List[np.ndarray] = []
    for bundle in (bundle_a, bundle_b):
        payloads.extend(bundle.guards[i].block_payloads()[0] for i in range(len(TAILS)))
        for i, params in enumerate(shared.plan.runs):
            stacks = (bundle.runs[i][j].block_payloads() for j in range(len(params)))
            payloads.extend(itertools.chain(*zip(*stacks)))
        payloads.append(np.array([bundle.parity_bit], dtype=np.uint8))
    parties = (bundle_a.party,) * len(labels) + (bundle_b.party,) * len(labels)
    return TranscriptEntries.from_payloads(parties, labels * 2, payloads)


_MAGIC = "# xorsmp-transcript v1"
# the bit lengths of a dump's entry lines, joined by tabs, as format_transcript
# writes them: ASCII decimal with no sign, space or leading zero
_LENGTHS = re.compile(r"(?:0|[1-9][0-9]*)(?:\t(?:0|[1-9][0-9]*))*")


def _decimal(text: str, what: str = "") -> int:
    """An integer written as the dump writer writes it, in plain decimal;
    ``ValueError`` otherwise."""
    number = int(text)
    if str(number) != text:
        raise ValueError(f"{what}{text!r} is not written {str(number)!r}")
    return number


def _hex_to_bytes(hexstr: str, bitlen: int) -> bytes:
    """The bytes of one payload's hex field.  A field of the wrong length,
    with anything but lowercase hex digits, or with a set bit in the last
    byte's padding raises ``ValueError``, so a cut payload cannot pass as
    zero bits and every payload has one spelling."""
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
    if hexstr != hexstr.lower():
        raise ValueError(f"{hexstr!r} has uppercase hex digits")
    if data[-1] >> (bitlen % 8 or 8):
        raise ValueError(f"nonzero padding bits past bit {bitlen}")
    return data


def format_transcript(t: Transcript) -> str:
    """The dump text: a header line, then one ``party<TAB>label<TAB>hex<TAB>
    bits`` line per entry.  Every payload's hex comes from one ``packbits``
    of all of them, sliced at whole bytes."""
    e = t.entries
    digits = np.packbits(e.bits, bitorder="little").tobytes().hex()
    first = e.starts // 4  # two hex digits per byte
    last = first + 2 * (-(-e.sizes // 8))
    head = "".join(f"\t{k}={v}" for k, v in t.header.items())
    lines = [_MAGIC + head]
    lines.extend(
        f"{party}\t{label}\t{digits[a:b] or '-'}\t{nbits}"
        for party, label, a, b, nbits in zip(
            e.parties, e.labels, first.tolist(), last.tolist(), e.sizes.tolist()
        )
    )
    return "\n".join(lines) + "\n"


def _parse_header(no: int, line: str) -> Dict[str, str]:
    magic, *tokens = line.split("\t")
    if magic != _MAGIC:
        raise ValueError(f"line {no}: header starts {magic!r}, expected {_MAGIC!r}")
    header: Dict[str, str] = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"dump header field {tok!r} has no '='")
        if key in header:
            raise ValueError(f"dump header field {key!r} appears twice")
        header[key] = value
    return header


def _entries_in_bulk(rows: List[List[str]]) -> TranscriptEntries:
    """The entry lines, already split at tabs, checked and decoded all at
    once.  Raises ``ValueError`` (or ``OverflowError``) when any line is
    malformed, without saying which; ``_check_entry_line`` names the first."""
    if not rows:
        return TranscriptEntries.from_payloads((), (), ())
    if set(map(len, rows)) != {4}:
        raise ValueError("an entry line without 4 fields")
    parties, labels, hexes, lengths = zip(*rows)
    if not _LENGTHS.fullmatch("\t".join(lengths)):
        raise ValueError("a bit length not written in plain decimal")
    sizes = np.fromiter(map(int, lengths), dtype=np.int64, count=len(lengths))
    nbytes = (sizes + 7) // 8
    digits = np.fromiter(map(len, hexes), dtype=np.int64, count=len(hexes))
    empty = sizes == 0
    if not np.array_equal(digits, np.where(empty, 1, 2 * nbytes)):
        raise ValueError("a hex field not of its payload's length")
    joined = "".join(hexes).encode()
    if joined.translate(None, b"0123456789abcdef-"):
        raise ValueError("a hex field with a character other than a lowercase hex digit")
    if empty.any() or b"-" in joined:  # an empty payload is '-', and only it
        dashes = np.flatnonzero(np.frombuffer(joined, dtype=np.uint8) == ord("-"))
        if not np.array_equal(dashes, (np.cumsum(digits) - 1)[empty]):
            raise ValueError("a '-' that is not an empty payload")
        joined = joined.replace(b"-", b"")
    data = np.frombuffer(bytes.fromhex(joined.decode()), dtype=np.uint8)
    ends = np.cumsum(nbytes)
    padded = sizes % 8 > 0
    if (data[ends[padded] - 1] >> (sizes[padded] % 8)).any():
        raise ValueError("a payload with nonzero padding bits")
    bits = np.unpackbits(data, bitorder="little")
    return TranscriptEntries(parties, labels, sizes, bits, 8 * (ends - nbytes))


def _check_entry_line(no: int, cols: List[str]) -> None:
    """Raise the ``ValueError`` naming line ``no`` if it is malformed."""
    if len(cols) != 4:
        raise ValueError(f"line {no}: expected 4 tab-separated fields, got {len(cols)}")
    _, label, hexstr, bitlen = cols
    try:
        _hex_to_bytes(hexstr, _decimal(bitlen, "bit length "))
    except ValueError as exc:
        raise ValueError(f"line {no} ({label!r}): {exc}") from None


def parse_transcript(text: str) -> Transcript:
    """Inverse of ``format_transcript``, accepting only what it writes: the
    ``v1`` header with each key once, lengths in ASCII decimal with no sign,
    space or leading zero, and lowercase hex of exactly the payload's length
    with zero padding bits.  Every entry line is split once and all of them
    are checked and decoded together; a malformed one raises ``ValueError``
    naming the first such line.  Blank lines are skipped but counted."""
    lines = text.splitlines()
    numbers: Sequence[int] = range(1, len(lines) + 1)
    if "" in lines or any(map(str.isspace, lines)):
        numbers = [no for no, ln in zip(numbers, lines) if ln.strip()]
        lines = [lines[no - 1] for no in numbers]
    if not lines or not lines[0].startswith("# xorsmp-transcript"):
        raise ValueError("not a transcript dump: missing header line")
    header = _parse_header(numbers[0], lines[0])
    rows = [ln.split("\t") for ln in lines[1:]]
    try:
        entries = _entries_in_bulk(rows)
    except (ValueError, OverflowError):
        for no, cols in zip(numbers[1:], rows):
            _check_entry_line(no, cols)
        raise
    return Transcript(header, entries)


def _run_stacks(
    run: PkShared, payloads: Callable[[np.ndarray], np.ndarray], first: int
) -> Lazy[BlockMessages]:
    """The threshold stacks of the run whose k (c + 1) entries start at
    entry ``first``, in wire order: threshold j is every (c + 1)-th entry
    from j.  A stack's coins are drawn, and its k payloads read with
    ``payloads`` and packed, when the referee first reads it."""
    step = len(run.params)
    blocks = first + step * np.arange(run.k)
    return Lazy(
        lambda j: BlockMessages.from_block_payloads(run.stacks[j], payloads(blocks + j), run.bounds)
    )


def _first_out_of_layout(
    labels: Tuple[str, ...], sizes: np.ndarray, e: TranscriptEntries
) -> ValueError:
    """The error naming the first entry that is not ``p_layout``'s."""
    want = [(who, *entry) for who in (ALICE, BOB) for entry in zip(labels, sizes.tolist())]
    got = zip(e.parties, e.labels, e.sizes.tolist())
    for pos, ((who, label, bits), (party, found, nbits)) in enumerate(zip(want, got), start=1):
        if party != who or found != label:
            return ValueError(f"entry {pos}: expected {who} {label!r}, found {party} {found!r}")
        if nbits != bits:
            return ValueError(f"{label!r} payload has {nbits} bits, expected {bits}")
    if len(e) < len(want):
        who, label, _ = want[len(e)]
        return ValueError(f"transcript ends before {who} {label!r}")
    return ValueError(f"entry {len(want) + 1}: expected the end after {BOB} 'p/parity'")


def bundles_from_transcript(shared: PShared, t: Transcript) -> PBundle:
    """The referee's ``DIFFERENCE`` bundle from a dumped transcript: each
    payload it reads is Alice's XOR Bob's under the same label, packed
    once, and its parity bit is Alice's XOR Bob's.  Together with the
    rederived coins this replays the referee exactly.  The entries must be
    ``p_layout``'s, Alice's and then Bob's, compared as whole columns: the
    first one out of place (wrong party or label, missing or extra) or of
    the wrong size raises ``ValueError`` naming the label expected there,
    whether or not the referee reads it."""
    labels, sizes = p_layout(shared)
    e = t.entries
    per = len(labels)
    if (
        e.parties != (ALICE,) * per + (BOB,) * per
        or e.labels != labels * 2
        or not np.array_equal(e.sizes, np.tile(sizes, 2))
    ):
        raise _first_out_of_layout(labels, sizes, e)
    whole = np.array([0, shared.n])

    def payloads(entries: np.ndarray) -> np.ndarray:
        # Bob's entry under a label is ``per`` entries after Alice's
        return e.payloads(entries) ^ e.payloads(entries + per)

    def guard(i: int) -> BlockMessages:
        return BlockMessages.from_block_payloads(shared.guards[i], payloads(np.array([i])), whole)

    def run(i: int) -> Optional[Lazy[BlockMessages]]:
        run = shared.runs[i]
        return None if run is None else _run_stacks(run, payloads, shared.plan.run_starts[i])

    parity_bit = int(e.bits[e.starts[per - 1]] ^ e.bits[e.starts[2 * per - 1]])
    return PBundle(DIFFERENCE, shared, Lazy(guard), Lazy(run), parity_bit)


def run_protocol(
    d: Predicate,
    profile: Profile,
    x: BitVector,
    y: BitVector,
    strategy: str,
    coins: CoinSource,
) -> TrialOutcome:
    """One end-to-end run: shared coins, the referee's ``DIFFERENCE``
    bundle encoded from x XOR y, and its decision.  Each stack the referee
    reads is encoded once, and the bundle is dropped with the run; the
    parties' own bundles are built only by a dump (``p_party_messages`` of
    x and of y)."""
    shared = p_shared(d, profile, strategy, coins)
    return p_referee(shared, p_party_messages(shared, x ^ y, DIFFERENCE))


__all__ = [
    "ALICE",
    "BOB",
    "DIFFERENCE",
    "BRANCH_LOW",
    "BRANCH_HIGH",
    "BRANCH_PARITY",
    "BRANCHES",
    "Tail",
    "TAILS",
    "Lazy",
    "check_envelope",
    "guard_params",
    "threshold_params",
    "PkShared",
    "pk_shared",
    "pk_party_messages",
    "pk_referee",
    "TrialPlan",
    "trial_plan",
    "PShared",
    "PBundle",
    "TrialOutcome",
    "p_shared",
    "p_party_messages",
    "p_referee",
    "p_total_cost",
    "Transcript",
    "TranscriptEntries",
    "transcript_cost",
    "p_layout",
    "p_transcript_entries",
    "format_transcript",
    "parse_transcript",
    "bundles_from_transcript",
    "run_protocol",
]
