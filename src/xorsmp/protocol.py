"""The SMP protocols: the promise protocol over a random partition, and the
full three-branch protocol built from two of them.

Both parties build their messages from (own input, shared coins) only; the
referee reads the two message bundles plus the same public coins and
announces one bit.  The promise protocol partitions [n] into k blocks,
runs a stack of distance-threshold instances per block, binary-searches
each block's distance, and applies the predicate to the total.  The full
protocol runs the promise protocol twice, once on (x, y) for the low tail
and once on (complement(x), y) for the high tail (whose distance is n
minus the original), guarded by one threshold check each, and otherwise
answers from the two parity bits, which is exact on the 2-periodic middle
range.

Cost accounting is bit-exact: a transcript is the ordered list of payloads
both parties sent, and its cost is their total bit length.  Coins are free
(public-coin model) and the referee sends nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bits import BitVector, complement, parity
from .coins import CoinSource, Partition, c_of_k, sample_partition
from .hamming import (
    BlockMessages,
    HDParams,
    HDShared,
    decide_block,
    encode_blocks,
    hd_decide,
    hd_encode_shared,
    hd_shared,
    threshold_search,
)
from .predicate import Predicate, Profile, tilde

ALICE = "Alice"
BOB = "Bob"


def pk_epsilon(k: int, c: int) -> float:
    """Per-instance error budget 1/(10 k log2(c)), guarded below c = 2."""
    return 1.0 / (10.0 * k * max(1.0, math.log2(c))) if k >= 1 else 0.0


@dataclass(frozen=True)
class PkInstance:
    """Parameters of one promise-protocol run: split into k blocks, cap c,
    per-threshold error budget epsilon, and the predicate applied to the
    recovered total distance."""

    k: int
    c: int
    epsilon: float
    apply: Predicate

    @classmethod
    def build(cls, k: int, apply: Predicate) -> "PkInstance":
        if k < 1:
            raise ValueError("promise bound must be at least 1 here; use the k=0 case")
        c = c_of_k(k)
        return cls(k=k, c=c, epsilon=pk_epsilon(k, c), apply=apply)


@dataclass(frozen=True, eq=False)
class PkShared:
    """Public-coin material for one promise-protocol run."""

    inst: PkInstance
    n: int
    partition: Partition
    stacks: Tuple[HDShared, ...]      # thresholds j = 0..c
    sort_order: np.ndarray            # positions grouped by block, for raw payloads
    bounds: np.ndarray                # block i occupies sort_order[bounds[i]:bounds[i+1]]


def pk_shared(
    inst: PkInstance, n: int, strategy: str, coins: CoinSource, side: str = "main"
) -> PkShared:
    part = sample_partition(n, inst.k, coins.derive(f"pk/{side}/partition"))
    stacks = tuple(
        hd_shared(
            HDParams(d=j, epsilon=inst.epsilon, strategy=strategy, length=n),
            coins.derive(f"pk/{side}/hd/{j}"),
        )
        for j in range(inst.c + 1)
    )
    sort_order = np.argsort(part.block_of, kind="stable")
    bounds = np.zeros(inst.k + 1, dtype=np.int64)
    np.cumsum(part.block_sizes(), out=bounds[1:])
    return PkShared(inst, n, part, stacks, sort_order, bounds)


@dataclass(frozen=True, eq=False)
class PkPartyMessages:
    """One party's messages for a promise-protocol run: (c + 1) stacked
    threshold instances, each covering all k blocks."""

    per_threshold: Tuple[BlockMessages, ...]

    @property
    def cost_bits(self) -> int:
        return sum(m.bit_length for m in self.per_threshold)


def pk_party_messages(shared: PkShared, x: BitVector) -> PkPartyMessages:
    if x.length != shared.n:
        raise ValueError(f"input length {x.length}, run expects {shared.n}")
    # split the input by block once; every threshold stack reuses the split
    x_sorted = x.to_array()[shared.sort_order]
    hits = np.flatnonzero(x_sorted)
    ones = shared.sort_order[hits]
    one_bounds = np.searchsorted(hits, shared.bounds)
    msgs = tuple(
        encode_blocks(stack, x_sorted, ones, one_bounds, shared.inst.k, shared.bounds)
        for stack in shared.stacks
    )
    return PkPartyMessages(per_threshold=msgs)


@dataclass(frozen=True)
class PkResult:
    output: int
    block_distances: Tuple[int, ...]
    sum_h: int
    verdicts_evaluated: int


def pk_referee(
    shared: PkShared, msgs_a: PkPartyMessages, msgs_b: PkPartyMessages
) -> PkResult:
    """Recover each block's distance by lazy binary search and apply the
    predicate to the clamped total."""
    inst = shared.inst
    if len(msgs_a.per_threshold) != inst.c + 1 or len(msgs_b.per_threshold) != inst.c + 1:
        raise ValueError("message bundle does not match the instance")
    h: List[int] = []
    evaluated = 0
    for i in range(inst.k):
        def verdict(j: int, _i=i) -> bool:
            return decide_block(msgs_a.per_threshold[j], msgs_b.per_threshold[j], _i).le

        h_i, visited = threshold_search(inst.c, verdict)
        evaluated += len(visited)
        h.append(h_i)
    total = min(sum(h), inst.apply.n)
    return PkResult(
        output=inst.apply(total),
        block_distances=tuple(h),
        sum_h=total,
        verdicts_evaluated=evaluated,
    )


def pk_special_case_k0(apply: Predicate) -> int:
    """Promise bound 0 means the inputs are equal: no messages, output D(0)."""
    return apply(0)


# The full protocol.


@dataclass(frozen=True, eq=False)
class PShared:
    predicate: Predicate
    profile: Profile
    n: int
    strategy: str
    hd0: HDShared                     # threshold r0 on (x, y)
    hd1: HDShared                     # threshold r1 on (complement(x), y)
    pk_main: Optional[PkShared]       # promise r0 run on (x, y), applies D
    pk_tilde: Optional[PkShared]      # promise r1 run on (complement(x), y), applies D-tilde


def p_shared(
    d: Predicate, profile: Profile, strategy: str, coins: CoinSource
) -> PShared:
    n = d.n
    hd0 = hd_shared(
        HDParams(d=profile.r0, epsilon=0.1, strategy=strategy, length=n),
        coins.derive("p/hd0"),
    )
    hd1 = hd_shared(
        HDParams(d=profile.r1, epsilon=0.1, strategy=strategy, length=n),
        coins.derive("p/hd1"),
    )
    pk_main = None
    if profile.r0 >= 1:
        pk_main = pk_shared(
            PkInstance.build(profile.r0, d), n, strategy, coins.derive("p"), side="main"
        )
    pk_tilde = None
    if profile.r1 >= 1:
        pk_tilde = pk_shared(
            PkInstance.build(profile.r1, tilde(d)),
            n,
            strategy,
            coins.derive("p"),
            side="tilde",
        )
    return PShared(d, profile, n, strategy, hd0, hd1, pk_main, pk_tilde)


@dataclass(frozen=True, eq=False)
class PBundle:
    """Everything one party sends in the full protocol."""

    party: str
    hd0_msg: BlockMessages            # 1-block stacks
    hd1_msg: BlockMessages
    pk_main_msgs: Optional[PkPartyMessages]
    pk_tilde_msgs: Optional[PkPartyMessages]
    parity_bit: int

    @property
    def cost_bits(self) -> int:
        total = self.hd0_msg.bit_length + self.hd1_msg.bit_length + 1
        if self.pk_main_msgs is not None:
            total += self.pk_main_msgs.cost_bits
        if self.pk_tilde_msgs is not None:
            total += self.pk_tilde_msgs.cost_bits
        return total


def p_party_messages(shared: PShared, own_input: BitVector, party: str) -> PBundle:
    """Build one party's bundle.  The high-tail components always see the
    complemented input on Alice's side and the plain input on Bob's, so the
    referee effectively works on the pair (complement(x), y) there."""
    if party not in (ALICE, BOB):
        raise ValueError(f"party must be {ALICE!r} or {BOB!r}")
    flipped = complement(own_input) if party == ALICE else own_input
    return PBundle(
        party=party,
        hd0_msg=hd_encode_shared(shared.hd0, own_input),
        hd1_msg=hd_encode_shared(shared.hd1, flipped),
        pk_main_msgs=(
            pk_party_messages(shared.pk_main, own_input)
            if shared.pk_main is not None
            else None
        ),
        pk_tilde_msgs=(
            pk_party_messages(shared.pk_tilde, flipped)
            if shared.pk_tilde is not None
            else None
        ),
        parity_bit=parity(own_input),
    )


BRANCH_LOW = "low"
BRANCH_HIGH = "high"
BRANCH_PARITY = "parity"


@dataclass(frozen=True)
class PResult:
    output: int
    branch: str
    sum_h: Optional[int] = None


def p_referee(shared: PShared, bundle_a: PBundle, bundle_b: PBundle) -> PResult:
    """Three-branch decision: low tail, high tail, then the parity answer."""
    if bundle_a.party == bundle_b.party:
        raise ValueError("need one bundle per party")
    profile = shared.profile
    v0 = hd_decide(shared.hd0.params, bundle_a.hd0_msg, bundle_b.hd0_msg)
    if v0.le:
        if shared.pk_main is None:
            return PResult(pk_special_case_k0(shared.predicate), BRANCH_LOW, 0)
        res = pk_referee(shared.pk_main, bundle_a.pk_main_msgs, bundle_b.pk_main_msgs)
        return PResult(res.output, BRANCH_LOW, res.sum_h)
    v1 = hd_decide(shared.hd1.params, bundle_a.hd1_msg, bundle_b.hd1_msg)
    if v1.le:
        if shared.pk_tilde is None:
            return PResult(pk_special_case_k0(tilde(shared.predicate)), BRANCH_HIGH, 0)
        res = pk_referee(shared.pk_tilde, bundle_a.pk_tilde_msgs, bundle_b.pk_tilde_msgs)
        return PResult(res.output, BRANCH_HIGH, res.sum_h)
    t = profile.t_of(bundle_a.parity_bit ^ bundle_b.parity_bit)
    return PResult(t if t is not None else 0, BRANCH_PARITY)


def p_total_cost(profile: Profile, n: int, strategy: str) -> int:
    """Deterministic total transcript cost of the full protocol, in bits."""
    party = 1  # parity bit
    for r in (profile.r0, profile.r1):
        party += HDParams(d=r, epsilon=0.1, strategy=strategy, length=n).payload_bits
        if r >= 1:
            c = c_of_k(r)
            eps = pk_epsilon(r, c)
            for j in range(c + 1):
                params = HDParams(d=j, epsilon=eps, strategy=strategy, length=n)
                party += n if strategy == "raw" else r * params.payload_bits_for(0)
    return 2 * party


# Transcript accounting and the dump format.


@dataclass(frozen=True, eq=False)
class TranscriptEntry:
    party: str
    label: str
    payload: np.ndarray  # uint8 bits

    @property
    def bit_length(self) -> int:
        return int(self.payload.size)


@dataclass
class Transcript:
    header: Dict[str, str]
    entries: List[TranscriptEntry] = field(default_factory=list)

    @property
    def cost_bits(self) -> int:
        return transcript_cost(self)


def transcript_cost(t: Transcript) -> int:
    """Total payload bits sent by the two parties; the referee is free."""
    return sum(e.bit_length for e in t.entries)


def _pk_entries(
    party: str, prefix: str, shared: PkShared, msgs: PkPartyMessages
) -> List[TranscriptEntry]:
    payloads = [m.block_payloads() for m in msgs.per_threshold]
    return [
        TranscriptEntry(party, f"{prefix}/block/{i}/hd/{j}", payloads[j][i])
        for i in range(shared.inst.k)
        for j in range(shared.inst.c + 1)
    ]


def p_transcript_entries(
    shared: PShared, bundle_a: PBundle, bundle_b: PBundle
) -> List[TranscriptEntry]:
    entries: List[TranscriptEntry] = []
    for bundle in (bundle_a, bundle_b):
        who = bundle.party
        entries.append(TranscriptEntry(who, "p/hd0", bundle.hd0_msg.block_payload(0)))
        entries.append(TranscriptEntry(who, "p/hd1", bundle.hd1_msg.block_payload(0)))
        if shared.pk_main is not None:
            entries.extend(
                _pk_entries(who, "p/pk/main", shared.pk_main, bundle.pk_main_msgs)
            )
        if shared.pk_tilde is not None:
            entries.extend(
                _pk_entries(who, "p/pk/tilde", shared.pk_tilde, bundle.pk_tilde_msgs)
            )
        entries.append(
            TranscriptEntry(
                who, "p/parity", np.array([bundle.parity_bit], dtype=np.uint8)
            )
        )
    return entries


def _bits_to_hex(bits: np.ndarray) -> str:
    if bits.size == 0:
        return "-"
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes().hex()


def _hex_to_bytes(hexstr: str, bitlen: int) -> bytes:
    """Inverse of ``_bits_to_hex``, up to unpacking; a field of the wrong
    length raises ``ValueError``, so a cut payload cannot pass as zero bits."""
    if bitlen < 0:
        raise ValueError(f"negative bit length {bitlen}")
    if bitlen == 0:
        if hexstr != "-":
            raise ValueError(f"an empty payload is written '-', not {hexstr!r}")
        return b""
    want = 2 * ((bitlen + 7) // 8)
    if len(hexstr) != want:
        raise ValueError(f"{len(hexstr)} hex digits for {bitlen} bits, expected {want}")
    return bytes.fromhex(hexstr)


def format_transcript(t: Transcript) -> str:
    head = "\t".join(f"{k}={v}" for k, v in t.header.items())
    lines = [f"# xorsmp-transcript v1\t{head}"]
    for e in t.entries:
        lines.append(f"{e.party}\t{e.label}\t{_bits_to_hex(e.payload)}\t{e.bit_length}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> Transcript:
    """Inverse of ``format_transcript``.  A malformed entry line (wrong
    field count, non-integer length, hex not of its length) raises
    ``ValueError`` naming the line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("# xorsmp-transcript"):
        raise ValueError("not a transcript dump: missing header line")
    header: Dict[str, str] = {}
    for tok in lines[0][1].split("\t")[1:]:
        key, _, val = tok.partition("=")
        header[key] = val
    fields = []  # (party, label, first bit, bit length) of each entry
    chunks = []
    nbytes = 0
    for no, ln in lines[1:]:
        cols = ln.split("\t")
        if len(cols) != 4:
            raise ValueError(f"line {no}: expected 4 tab-separated fields, got {len(cols)}")
        party, label, hexstr, bitlen = cols
        try:
            nbits = int(bitlen)
            chunk = _hex_to_bytes(hexstr, nbits)
        except ValueError as exc:
            raise ValueError(f"line {no} ({label!r}): {exc}") from None
        fields.append((party, label, 8 * nbytes, nbits))
        chunks.append(chunk)
        nbytes += len(chunk)
    # unpack every payload at once; each entry reads its own byte-aligned run
    bits = np.unpackbits(np.frombuffer(b"".join(chunks), dtype=np.uint8), bitorder="little")
    entries = [
        TranscriptEntry(party, label, bits[first : first + nbits])
        for party, label, first, nbits in fields
    ]
    return Transcript(header=header, entries=entries)


def _payload(by_label: Dict[str, np.ndarray], label: str) -> np.ndarray:
    if label not in by_label:
        raise ValueError(f"transcript has no {label!r} payload")
    return by_label[label]


def _stack_from_payloads(
    stack: HDShared,
    bounds: np.ndarray,
    by_label: Dict[str, np.ndarray],
    labels: List[str],
) -> BlockMessages:
    """One party's stacked messages rebuilt from the payloads of blocks
    0..k-1, whose labels are given in block order."""
    params = stack.params
    if params.strategy == "raw":
        sizes = np.diff(bounds)
    else:
        sizes = [params.payload_bits_for(0)] * len(labels)
    payloads = []
    for label, want in zip(labels, sizes):
        payload = _payload(by_label, label)
        if payload.size != want:
            raise ValueError(f"{label!r} payload has {payload.size} bits, expected {want}")
        payloads.append(payload)
    return BlockMessages.from_block_payloads(stack, payloads, bounds)


def _pk_from_payloads(
    shared: Optional[PkShared], by_label: Dict[str, np.ndarray], prefix: str
) -> Optional[PkPartyMessages]:
    if shared is None:
        return None
    return PkPartyMessages(
        per_threshold=tuple(
            _stack_from_payloads(
                stack,
                shared.bounds,
                by_label,
                [f"{prefix}/block/{i}/hd/{j}" for i in range(shared.inst.k)],
            )
            for j, stack in enumerate(shared.stacks)
        )
    )


def bundles_from_transcript(
    shared: PShared, t: Transcript
) -> Tuple[PBundle, PBundle]:
    """Rebuild both parties' bundles from a dumped transcript; together with
    the rederived coins this replays the referee exactly.  A missing or
    mis-sized payload raises ``ValueError`` naming its label."""
    whole = np.array([0, shared.n])
    bundles = {}
    for who in (ALICE, BOB):
        by_label = {e.label: e.payload for e in t.entries if e.party == who}
        bundles[who] = PBundle(
            party=who,
            hd0_msg=_stack_from_payloads(shared.hd0, whole, by_label, ["p/hd0"]),
            hd1_msg=_stack_from_payloads(shared.hd1, whole, by_label, ["p/hd1"]),
            pk_main_msgs=_pk_from_payloads(shared.pk_main, by_label, "p/pk/main"),
            pk_tilde_msgs=_pk_from_payloads(shared.pk_tilde, by_label, "p/pk/tilde"),
            parity_bit=int(_payload(by_label, "p/parity")[0]),
        )
    return bundles[ALICE], bundles[BOB]


@dataclass(frozen=True)
class TrialOutcome:
    output: int
    branch: str
    cost_bits: int
    bundle_a: PBundle
    bundle_b: PBundle
    shared: PShared


def run_protocol(
    d: Predicate,
    profile: Profile,
    x: BitVector,
    y: BitVector,
    strategy: str,
    coins: CoinSource,
) -> TrialOutcome:
    """One end-to-end run: shared coins, both bundles, referee decision."""
    shared = p_shared(d, profile, strategy, coins)
    bundle_a = p_party_messages(shared, x, ALICE)
    bundle_b = p_party_messages(shared, y, BOB)
    res = p_referee(shared, bundle_a, bundle_b)
    return TrialOutcome(
        output=res.output,
        branch=res.branch,
        cost_bits=bundle_a.cost_bits + bundle_b.cost_bits,
        bundle_a=bundle_a,
        bundle_b=bundle_b,
        shared=shared,
    )


__all__ = [
    "ALICE",
    "BOB",
    "BRANCH_LOW",
    "BRANCH_HIGH",
    "BRANCH_PARITY",
    "PkInstance",
    "PkShared",
    "PkPartyMessages",
    "PkResult",
    "pk_epsilon",
    "pk_shared",
    "pk_party_messages",
    "pk_referee",
    "pk_special_case_k0",
    "PShared",
    "PBundle",
    "PResult",
    "p_shared",
    "p_party_messages",
    "p_referee",
    "p_total_cost",
    "Transcript",
    "TranscriptEntry",
    "transcript_cost",
    "p_transcript_entries",
    "format_transcript",
    "parse_transcript",
    "bundles_from_transcript",
    "TrialOutcome",
    "run_protocol",
]
