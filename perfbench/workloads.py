"""The four benchmark workloads and the per-operation calls they time.

Every workload is an endless, seeded sequence of operations.  Operation i
belongs to cell ``i % len(cells)`` and is that cell's ``i // len(cells)``-th
trial, so any prefix of a run holds the cells in equal measure.  Trials use
the coin labels of ``harness.run_trials`` and ``harness.hd_error_experiment``
(``trial/<t>``, ``hd/<w>/trial/<s>``), and every call goes through a module
attribute (``protocol.run_protocol``, not a name bound at import), so the
tracer can wrap it.

``check_equivalence`` reruns a few trials through the harness functions and
fails when the benchmark's loop would time a different program.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from xorsmp import bits, hamming, harness, predicate, protocol
from xorsmp.coins import CoinSource

STRATEGY = "syndrome"
PER_CELL = 2000  # trial-index stride of one weight cell, as in the C1 fixture


class OpResult(NamedTuple):
    output: int
    branch: str          # protocol branch, "-" for a single sketch
    cost_bits: int       # both parties' payload bits
    success: bool        # matches the brute-force oracle or the exact comparison
    failure: Optional[str] = None  # set when the operation broke a hard check


class Mismatch(Exception):
    """The benchmark loop disagrees with a harness functions."""


@dataclass(frozen=True)
class Family:
    """One predicate of a protocol workload, built as ``run_trials`` builds it."""

    spec: str
    seed: int
    n: int
    root: CoinSource
    pred: predicate.Predicate
    name: str
    profile: predicate.Profile
    weights: Tuple[int, ...]
    cost_bits: int

    @classmethod
    def build(cls, spec: str, seed: int, n: int, weights=None) -> "Family":
        root = CoinSource.from_seed(seed)
        pred, name = harness.resolve_predicate(spec, n, root.derive("predicate"))
        profile = predicate.compute_profile(pred)
        if weights is None:
            weights = harness.auto_weights(profile, n)
        cost = protocol.p_total_cost(profile, n, STRATEGY)
        return cls(spec, seed, n, root, pred, name, profile, tuple(weights), cost)

    def trial(self, w: int, t: int) -> OpResult:
        """Trial t of ``run_trials`` at weight w, checked against the oracle."""
        coins = self.root.derive(f"trial/{t}")
        x, y = bits.sample_pair_with_distance(self.n, w, coins.derive("input"))
        out = protocol.run_protocol(self.pred, self.profile, x, y, STRATEGY, coins)
        truth = predicate.oracle(self.pred, x, y)
        failure = None
        if out.cost_bits != self.cost_bits:
            failure = f"cost_bits {out.cost_bits} != p_total_cost {self.cost_bits}"
        elif (
            out.branch == protocol.BRANCH_PARITY
            and self.profile.r0 < w < self.n - self.profile.r1
            and out.output != truth
        ):
            failure = f"parity branch wrong at periodic weight {w}"
        return OpResult(out.output, out.branch, out.cost_bits, out.output == truth, failure)

    def inputs(self, w: int, t: int) -> Tuple[int, int]:
        coins = self.root.derive(f"trial/{t}")
        x, y = bits.sample_pair_with_distance(self.n, w, coins.derive("input"))
        return x.value, y.value


class Workload:
    """Base: a list of cells and the operation that runs one trial of a cell."""

    name = ""
    trivial_bits = 0      # the trivial protocol's cost, 2n
    scored_rounds = 1     # rounds every run completes; the scored prefix
    cells: List = []

    @property
    def round_len(self) -> int:
        return len(self.cells)

    @property
    def warm_ops(self) -> int:
        """Operations run untimed first: one round touches every cell."""
        return self.round_len

    @property
    def scored_ops(self) -> int:
        return self.scored_rounds * self.round_len

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def inputs(self, i: int) -> Tuple[int, int]:
        """The (x, y) pair of operation i, as integers."""
        raise NotImplementedError

    def prepare(self, workdir: Path) -> None:
        """Build inputs that take more than seeding (files go under workdir)."""

    def check_equivalence(self) -> int:
        """Compare with the harness functions; returns the trials compared."""
        raise NotImplementedError


class ProtocolWorkload(Workload):
    """Full-protocol trials over one or more families (``run_trials`` labels)."""

    equivalence_trials = 1

    def __init__(self, families: List[Family]):
        self.families = families
        width = max(len(f.weights) for f in families)
        # interleave families so every prefix mixes them
        self.cells = [
            (f, c) for c in range(width) for f in families if c < len(f.weights)
        ]
        self.trivial_bits = 2 * families[0].n

    def op(self, i: int) -> OpResult:
        fam, c = self.cells[i % len(self.cells)]
        s = (i // len(self.cells)) % PER_CELL
        return fam.trial(fam.weights[c], c * PER_CELL + s)

    def inputs(self, i: int) -> Tuple[int, int]:
        fam, c = self.cells[i % len(self.cells)]
        s = (i // len(self.cells)) % PER_CELL
        return fam.inputs(fam.weights[c], c * PER_CELL + s)

    def check_equivalence(self, cells: Optional[int] = None) -> int:
        """run_trials rows for the first ``cells`` weights of each family."""
        q = self.equivalence_trials
        compared = 0
        for fam in self.families:
            cfg = harness.TrialConfig(
                n=fam.n,
                predicate_spec=fam.spec,
                weights=list(fam.weights[:cells]),
                trials=q,
                seed=fam.seed,
                strategy=STRATEGY,
            )
            _, rows = harness.run_trials(cfg)
            for row in rows:
                t, _, name, r0, r1, w, output, _, correct, cost, _ = row.split(",")
                mine = fam.trial(int(w), int(t))
                got = (name, fam.profile.r0, fam.profile.r1, mine.output, int(mine.success), mine.cost_bits)
                want = (name, int(r0), int(r1), int(output), int(correct), int(cost))
                if got != want:
                    raise Mismatch(f"{fam.spec} trial {t}: loop {got} != run_trials {want}")
                compared += 1
        return compared


class C1Mix(ProtocolWorkload):
    """The C1 fixture: five families, n = 256, syndrome, auto weights."""

    name = "c1_mix"
    scored_rounds = 24
    equivalence_trials = 2
    FAMILIES = ("eq", "ham:5", "parity", "random:8", "random:16")

    def __init__(self, seed: int):
        # seed 0 reproduces the fixture's seeds 1000 + i
        super().__init__(
            [Family.build(spec, 1000 + 10 * seed + i, 256) for i, spec in enumerate(self.FAMILIES)]
        )


class TailR64(ProtocolWorkload):
    """n = 4096, random:64, syndrome; seeded weights, four low-branch
    (w <= r0) to one parity-branch."""

    name = "tail_r64"
    N, R = 4096, 64
    STRATA = 3  # groups of (four low weights, one high weight)
    LOW = 4

    def __init__(self, seed: int):
        fam_seed = 64_000 + seed
        gen = CoinSource.from_seed(fam_seed).derive("bench/weights").generator()
        # one weight from each of LOW * STRATA slices of [1, r0] and of STRATA
        # slices of [2 r0, n/2], so every seed spreads its work alike.  The
        # 15 cells are an odd count, so the median and the 90th percentile
        # fall inside one cell's latencies, not on the edge between two.
        low = self._stratified(gen, 1, self.R + 1, self.LOW * self.STRATA)
        high = self._stratified(gen, 2 * self.R, self.N // 2 + 1, self.STRATA)
        weights = []
        for k in range(self.STRATA):
            weights += [low[k + j * self.STRATA] for j in range(self.LOW)] + [high[k]]
        super().__init__([Family.build(f"random:{self.R}", fam_seed, self.N, weights)])

    @staticmethod
    def _stratified(gen, lo: int, hi: int, count: int) -> List[int]:
        edges = [lo + (hi - lo) * k // count for k in range(count + 1)]
        return [int(gen.integers(a, b)) for a, b in zip(edges, edges[1:])]

    # the first group (four low weights, one high) touches every code and cache
    warm_ops = LOW + 1

    def check_equivalence(self) -> int:
        return super().check_equivalence(cells=self.warm_ops)


class SketchGrid(Workload):
    """The C5 grid on the single-instance hd_shared / hd_encode_shared / hd_decide path."""

    name = "sketch_grid"
    scored_rounds = 20
    equivalence_samples = 4
    SAMPLES = 10_000  # trial-index stride, as in C5

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = []
        for d in (0, 1, 2, 4, 8):
            root = CoinSource.from_seed(self.grid_seed(d))
            n = max(32, 8 * max(d, 1))  # hd_error_experiment's default length
            for eps in (0.1, 0.01):
                for strategy in ("bucket", "syndrome"):
                    params = hamming.HDParams(d=d, epsilon=eps, strategy=strategy, length=n)
                    for w in (d, d + 1):
                        self.cells.append((params, root, w))
        self.trivial_bits = sum(2 * p.length for p, _, _ in self.cells) / len(self.cells)

    def grid_seed(self, d: int) -> int:
        return 5000 + 10 * self.seed + d  # seed 0 reproduces C5's 5000 + d

    def _sketch(self, params, root: CoinSource, w: int, s: int) -> OpResult:
        coins = root.derive(f"hd/{w}/trial/{s}")
        x, y = bits.sample_pair_with_distance(params.length, w, coins.derive("input"))
        shared = hamming.hd_shared(params, coins.derive("coins"))
        m_a = hamming.hd_encode_shared(shared, x)
        m_b = hamming.hd_encode_shared(shared, y)
        verdict = hamming.hd_decide(params, m_a, m_b)
        cost = m_a.bit_length + m_b.bit_length
        failure = None
        if cost != 2 * params.payload_bits:
            failure = f"cost_bits {cost} != 2 * payload_bits {params.payload_bits}"
        return OpResult(int(verdict.le), "-", cost, verdict.le == (w <= params.d), failure)

    def op(self, i: int) -> OpResult:
        params, root, w = self.cells[i % len(self.cells)]
        return self._sketch(params, root, w, (i // len(self.cells)) % self.SAMPLES)

    def inputs(self, i: int) -> Tuple[int, int]:
        params, root, w = self.cells[i % len(self.cells)]
        coins = root.derive(f"hd/{w}/trial/{(i // len(self.cells)) % self.SAMPLES}")
        x, y = bits.sample_pair_with_distance(params.length, w, coins.derive("input"))
        return x.value, y.value

    def check_equivalence(self) -> int:
        """Verdicts of ``hd_error_experiment``, captured by wrapping hd_decide."""
        q = self.equivalence_samples
        compared = 0
        original = hamming.hd_decide
        for k in range(0, len(self.cells), 2):
            params, root, _ = self.cells[k]
            seen: List[bool] = []

            def recording(*args, **kwargs):
                verdict = original(*args, **kwargs)
                seen.append(verdict.le)
                return verdict

            hamming.hd_decide = recording
            try:
                results = harness.hd_error_experiment(
                    params.d, params.epsilon, params.strategy, q, self.grid_seed(params.d)
                )
            finally:
                hamming.hd_decide = original
            want = [bool(v) for v in seen]
            got = [
                bool(self._sketch(params, root, w, s).output)
                for w in (params.d, params.d + 1)
                for s in range(q)
            ]
            errors = [r.errors for r in results]
            got_errors = [
                sum(v != (w <= params.d) for v in got[j * q : (j + 1) * q])
                for j, w in enumerate((params.d, params.d + 1))
            ]
            if got != want or got_errors != errors:
                raise Mismatch(
                    f"d={params.d} eps={params.epsilon} {params.strategy}: "
                    f"loop verdicts {got} != hd_error_experiment {want}"
                )
            compared += len(got)
        return compared


class DumpReplay(Workload):
    """Replays transcript dumps written by ``run_trials(dump_dir=...)``."""

    name = "dump_replay"
    SPEC, N, PER_WEIGHT = "random:16", 256, 32

    def __init__(self, seed: int):
        self.family = Family.build(self.SPEC, 16_000 + seed, self.N)
        # cell = weight, so a prefix mixes weights; the scored prefix replays
        # every dump once
        self.cells = list(range(len(self.family.weights)))
        self.scored_rounds = self.PER_WEIGHT
        self.trivial_bits = 2 * self.N

    def prepare(self, workdir: Path) -> None:
        dump_dir = Path(tempfile.mkdtemp(prefix="dumps-", dir=workdir))
        try:
            cfg = harness.TrialConfig(
                n=self.N,
                predicate_spec=self.SPEC,
                weights="auto",
                trials=self.PER_WEIGHT,
                seed=self.family.seed,
                strategy=STRATEGY,
                dump_dir=dump_dir,
            )
            _, rows = harness.run_trials(cfg)
            self.texts = [
                (dump_dir / f"trial-{t:06d}.txt").read_text() for t in range(len(rows))
            ]
        finally:
            shutil.rmtree(dump_dir)
        self.rows = [row.split(",") for row in rows]
        self.branches = [_header_field(text, "branch") for text in self.texts]

    def _dump(self, i: int) -> int:
        c = i % len(self.cells)
        return c * self.PER_WEIGHT + (i // len(self.cells)) % self.PER_WEIGHT

    def op(self, i: int) -> OpResult:
        t = self._dump(i)
        res = harness.replay_transcript_text(self.texts[t])
        row = self.rows[t]
        failure = None
        if not res.consistent:
            failure = f"dump {t} replayed inconsistently"
        elif res.cost_bits != self.family.cost_bits:
            failure = f"dump {t}: cost_bits {res.cost_bits} != p_total_cost"
        elif (res.trial, res.output, res.cost_bits) != (int(row[0]), int(row[6]), int(row[9])):
            failure = f"dump {t}: replay disagrees with its run_trials row"
        return OpResult(res.output, self.branches[t], res.cost_bits, bool(res.correct), failure)

    def inputs(self, i: int) -> Tuple[int, int]:
        c = i % len(self.cells)
        return self.family.inputs(self.family.weights[c], self._dump(i))

    def check_equivalence(self) -> int:
        """The first two dumps of each weight: run_trials row against a fresh
        protocol run (every timed replay is checked against its row too)."""
        compared = 0
        for i in range(2 * len(self.cells)):
            t = self._dump(i)
            row = self.rows[t]
            mine = self.family.trial(int(row[5]), t)
            if (mine.output, mine.cost_bits) != (int(row[6]), int(row[9])):
                raise Mismatch(f"dump {t}: loop {mine[:3]} != run_trials row {row}")
            compared += 1
        return compared


def _header_field(text: str, key: str) -> str:
    for tok in text.split("\n", 1)[0].split("\t"):
        if tok.startswith(key + "="):
            return tok[len(key) + 1 :]
    raise ValueError(f"dump header has no {key!r}")


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    w.name: w for w in (C1Mix, TailR64, SketchGrid, DumpReplay)
}
