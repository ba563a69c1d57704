"""Monte Carlo experiment runner: success-rate estimation against the
brute-force oracle, the partition lemma check, sketch error measurement,
and cost sweeps.

Every trial draws its coins from a child stream derived from (seed, trial
index) alone, so results are reproducible byte for byte and independent of
execution order.  All empirical gates in the test suite compare against
binomial three-standard-error margins, which turns the probabilistic
claims into deterministic checks with a controlled flake rate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bits import BitVector, hamming_distance, sample_pair_with_distance
from .coins import CoinSource, c_of_k
from .hamming import STRATEGIES, HDParams
from .predicate import (
    Predicate,
    Profile,
    compute_profile,
    family,
    oracle,
    parse_predicate,
)
from .protocol import (
    ALICE,
    BOB,
    BRANCHES,
    Transcript,
    TrialOutcome,
    _decimal,
    _hex_to_bytes,
    bundles_from_transcript,
    format_transcript,
    p_party_messages,
    p_referee,
    p_shared,
    p_transcript_entries,
    parse_transcript,
    run_protocol,
    transcript_cost,
    trial_plan,
)


def resolve_predicate(spec: str, n: int, coins: CoinSource) -> Tuple[Predicate, str]:
    """Turn a CLI predicate spec into an n-bit predicate plus a replayable
    name.

    File-backed predicates are inlined as ``values:<bits>`` so that dumps
    remain replayable without the original file.  A file or inline
    predicate of another length than n is rejected.
    """
    spec = spec.strip()
    if spec.startswith("file:"):
        path = Path(spec[5:])
        try:
            pred = parse_predicate(path.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        name = "values:" + "".join(str(v) for v in pred.values)
    elif spec.startswith("values:"):
        row = spec[7:]
        if not row or row.strip("01"):
            raise ValueError(f"bad inline predicate {spec!r}")
        pred, name = Predicate([int(ch) for ch in row]), spec
    else:
        return family(spec, n, coins), spec.lower()
    if pred.n != n:
        raise ValueError(f"predicate {spec!r} has n = {pred.n}, not n = {n}")
    return pred, name


def auto_weights(profile: Profile, n: int) -> List[int]:
    """The boundary distances where the referee branches hand off."""
    cand = {
        0,
        profile.r0,
        profile.r0 + 1,
        n // 2,
        n - profile.r1 - 1,
        n - profile.r1,
        n,
    }
    return sorted(w for w in cand if 0 <= w <= n)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("need at least one trial per cell")


@dataclass(frozen=True)
class TrialConfig:
    n: int
    predicate_spec: str
    weights: Union[str, Sequence[int]]  # "auto" or explicit list
    trials: int
    seed: int
    strategy: str
    dump_dir: Optional[Path] = None

    def __post_init__(self):
        _check_trials(self.trials)


@dataclass
class CellStats:
    predicate: str
    weight: int
    trials: int = 0
    successes: int = 0
    branch_counts: Dict[str, int] = field(default_factory=dict)
    parity_branch_successes: int = 0
    cost_bits: int = 0

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        p = self.rate
        return math.sqrt(p * (1.0 - p) / self.trials)


RUN_CSV_HEADER = "trial,n,predicate,r0,r1,weight,output,truth,correct,cost_bits,seed"


def run_trials(cfg: TrialConfig) -> Tuple[List[CellStats], List[str]]:
    """Stratified success-probability estimation for one predicate.

    Returns per-cell statistics plus the per-trial CSV rows (strings,
    already in deterministic order).  When ``dump_dir`` is set, every trial
    also writes a replayable transcript dump.
    """
    root = CoinSource.from_seed(cfg.seed)
    pred, pred_name = resolve_predicate(
        cfg.predicate_spec, cfg.n, root.derive("predicate")
    )
    n = pred.n
    profile = compute_profile(pred)
    if cfg.weights == "auto":
        weights = auto_weights(profile, n)
    else:
        weights = list(cfg.weights)
        bad = [w for w in weights if not 0 <= w <= n]
        if bad:
            raise ValueError(f"weights {bad} outside [0, {n}]")
    if cfg.dump_dir is not None:
        cfg.dump_dir.mkdir(parents=True, exist_ok=True)
    cells: List[CellStats] = []
    rows: List[str] = []
    t = 0
    for w in weights:
        cell = CellStats(predicate=pred_name, weight=w)
        for _ in range(cfg.trials):
            trial_coins = root.derive(f"trial/{t}")
            x, y = sample_pair_with_distance(n, w, trial_coins.derive("input"))
            outcome = run_protocol(pred, profile, x, y, cfg.strategy, trial_coins)
            truth = oracle(pred, x, y)
            correct = int(outcome.output == truth)
            cell.trials += 1
            cell.successes += correct
            cell.branch_counts[outcome.branch] = (
                cell.branch_counts.get(outcome.branch, 0) + 1
            )
            if outcome.branch == "parity":
                cell.parity_branch_successes += correct
            cell.cost_bits = outcome.cost_bits
            rows.append(
                f"{t},{n},{pred_name},{profile.r0},{profile.r1},{w},"
                f"{outcome.output},{truth},{correct},{outcome.cost_bits},{cfg.seed}"
            )
            if cfg.dump_dir is not None:
                _dump_trial(cfg, pred_name, t, w, x, y, outcome)
            t += 1
        cells.append(cell)
    return cells, rows


# the header fields of a dump, in the order _dump_trial writes them; replay
# requires every one
DUMP_HEADER = (
    "seed", "n", "predicate", "strategy", "trial", "weight",
    "x", "y", "output", "branch", "cost_bits",
)


def _dump_trial(
    cfg: TrialConfig,
    pred_name: str,
    t: int,
    w: int,
    x: BitVector,
    y: BitVector,
    outcome: TrialOutcome,
) -> None:
    nbytes = (x.length + 7) // 8
    values = (
        cfg.seed, x.length, pred_name, cfg.strategy, t, w,
        x.value.to_bytes(nbytes, "little").hex(), y.value.to_bytes(nbytes, "little").hex(),
        outcome.output, outcome.branch, outcome.cost_bits,
    )
    transcript = Transcript(
        header=dict(zip(DUMP_HEADER, map(str, values), strict=True)),
        entries=p_transcript_entries(
            outcome.shared,
            p_party_messages(outcome.shared, x, ALICE),
            p_party_messages(outcome.shared, y, BOB),
        ),
    )
    path = cfg.dump_dir / f"trial-{t:06d}.txt"
    path.write_text(format_transcript(transcript))


@dataclass(frozen=True)
class ReplayResult:
    trial: int
    output: int
    recorded_output: int
    truth: int
    correct: int
    cost_bits: int
    consistent: bool


def _header_field(h: Dict[str, str], key: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` of one header field; a ``ValueError`` names the field."""
    try:
        return parse(h[key])
    except ValueError as exc:
        raise ValueError(f"dump header field {key!r}: {exc}") from None


def _one_of(choices: Sequence[str]) -> Callable[[str], str]:
    """A header field parser that accepts exactly the given spellings."""

    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(map(repr, choices))}")
        return value

    return parse


# Every dump of one run names the same predicate, length and seed, so a
# replay resolves them once: resolving and profiling took 0.09 + 0.03 ms
# per replay of an n = 256 random:16 dump, whose whole replay took 1.6 to
# 3.0 ms (best of 7 in-process, 2-vCPU host).  The predicate and profile
# are frozen, so sharing them is safe.
@functools.lru_cache(maxsize=16)
def _dumped_run(spec: str, n: int, coins: CoinSource) -> Tuple[Predicate, str, Profile]:
    """``resolve_predicate`` of a dump's predicate field and its profile."""
    pred, name = resolve_predicate(spec, n, coins)
    return pred, name, compute_profile(pred)


def replay_transcript_text(text: str) -> ReplayResult:
    """Re-run the referee on a dumped transcript and cross-check it.  A
    malformed dump raises ``ValueError``.  The header has ``DUMP_HEADER``'s
    fields in order, each as ``_dump_trial`` writes it (any other is named),
    and names a family or inline ``values:`` predicate; replay reads no file."""
    t = parse_transcript(text)
    h = t.header
    missing = [key for key in DUMP_HEADER if key not in h]
    if missing:
        raise ValueError(f"dump header has no {', '.join(map(repr, missing))} field")
    for key, want in itertools.zip_longest(h, DUMP_HEADER):  # h is at least as long
        if key != want:
            where = f"stands where {want!r} belongs" if key in DUMP_HEADER else "is unknown"
            raise ValueError(f"dump header field {key!r} {where}")
    root = _header_field(h, "seed", lambda v: CoinSource.from_seed(_decimal(v)))
    strategy = _header_field(h, "strategy", _one_of(STRATEGIES))
    branch = _header_field(h, "branch", _one_of(BRANCHES))
    trial, n, weight, output, cost_bits = (
        _header_field(h, key, _decimal) for key in ("trial", "n", "weight", "output", "cost_bits")
    )

    def input_bits(hexstr: str) -> BitVector:
        # checked like an n-bit payload; _dump_trial writes n = 0 as an empty field
        return BitVector(n, int.from_bytes(_hex_to_bytes(hexstr or "-", n), "little"))

    x, y = (_header_field(h, key, input_bits) for key in ("x", "y"))
    dist = hamming_distance(x, y)
    if weight != dist:
        raise ValueError(f"dump header field 'weight': {weight}, but |x XOR y| = {dist}")

    def dumped_predicate(spec: str) -> Tuple[Predicate, Profile]:
        if spec.strip().startswith("file:"):
            raise ValueError("a dump names a family or inlines values:, never file:")
        pred, name, profile = _dumped_run(spec, n, root.derive("predicate"))
        if name != spec:
            raise ValueError(f"{spec!r} is not written {name!r}")
        return pred, profile

    pred, profile = _header_field(h, "predicate", dumped_predicate)
    shared = p_shared(pred, profile, strategy, root.derive(f"trial/{trial}"))
    res = p_referee(shared, bundles_from_transcript(shared, t))
    truth = oracle(pred, x, y)
    cost = transcript_cost(t)
    consistent = res.output == output and cost == cost_bits and res.branch == branch
    return ReplayResult(
        trial=trial,
        output=res.output,
        recorded_output=output,
        truth=truth,
        correct=int(res.output == truth),
        cost_bits=cost,
        consistent=consistent,
    )


@dataclass(frozen=True)
class LemmaResult:
    k: int
    c: int
    samples: int
    failures: int
    empirical: float
    bound: float
    stderr: float


def lemma_partition_experiment(k: int, samples: int, seed: int) -> LemmaResult:
    """Fraction of random k-partitions giving some block at least c of the
    k differing positions, against the union bound (e/c)^c * k.

    Only the k ones of the difference vector matter, so the experiment
    draws their block labels directly.
    """
    if k < 4:
        raise ValueError("the clamped regime k < 4 is excluded")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    c = c_of_k(k)
    gen = CoinSource.from_seed(seed).derive(f"lemma/{k}").generator()
    blocks = gen.integers(0, k, size=(samples, k), dtype=np.int64)
    flat = blocks + np.arange(samples, dtype=np.int64)[:, None] * k
    counts = np.bincount(flat.ravel(), minlength=samples * k).reshape(samples, k)
    failures = int((counts.max(axis=1) >= c).sum())
    empirical = failures / samples
    bound = (math.e / c) ** c * k
    stderr = math.sqrt(empirical * (1.0 - empirical) / samples)
    return LemmaResult(k, c, samples, failures, empirical, bound, stderr)


@dataclass(frozen=True)
class HdErrorResult:
    d: int
    epsilon: float
    strategy: str
    weight: int
    samples: int
    errors: int
    rate: float
    stderr: float


def hd_error_params(d: int, epsilon: float, strategy: str) -> HDParams:
    """The instance ``hd_error_experiment`` measures: threshold d at budget
    epsilon on inputs of length max(32, 8 d).  Rejects raw, and every
    setting ``HDParams`` rejects, before any coin is drawn."""
    if strategy not in ("bucket", "syndrome"):
        raise ValueError("measure bucket or syndrome against the raw oracle")
    return HDParams(d=d, epsilon=epsilon, strategy=strategy, length=max(32, 8 * max(d, 1)))


def hd_error_experiment(
    d: int,
    epsilon: float,
    strategy: str,
    samples: int,
    seed: int,
) -> List[HdErrorResult]:
    """Verdict error rates at w = d, the largest weight the sketch must
    call LE, and w = d + 1, the smallest it must call GT, on the instance of
    ``hd_error_params``, scored against the exact comparison the raw
    strategy would make.  Neither is the hardest weight: the exact chance of
    a false LE peaks at w = d + 2, where one collision leaves d odd buckets."""
    # imported per call, so perfbench's sketch_grid and test_golden see a replaced hd_decide
    from .hamming import hd_decide, hd_encode_shared, hd_shared

    params = hd_error_params(d, epsilon, strategy)
    _check_trials(samples)
    n = params.length
    root = CoinSource.from_seed(seed)
    results = []
    for w in (d, d + 1):
        errors = 0
        for s in range(samples):
            coins = root.derive(f"hd/{w}/trial/{s}")
            x, y = sample_pair_with_distance(n, w, coins.derive("input"))
            shared = hd_shared(params, coins.derive("coins"))
            verdict = hd_decide(
                params, hd_encode_shared(shared, x), hd_encode_shared(shared, y)
            )
            errors += int(verdict.le != (w <= d))
        rate = errors / samples
        results.append(
            HdErrorResult(
                d=d,
                epsilon=epsilon,
                strategy=strategy,
                weight=w,
                samples=samples,
                errors=errors,
                rate=rate,
                stderr=math.sqrt(rate * (1.0 - rate) / samples),
            )
        )
    return results


@dataclass(frozen=True)
class SweepRow:
    r: int
    n: int
    strategy: str
    cost_bits: int
    trivial_bits: int  # each party sends its input: 2n
    normalizer: float
    ratio: float


def cost_normalizer(r: int) -> float:
    """The shape target r * log2(r)^3 / log2(log2(r))."""
    if r < 3:
        return float("nan")
    return r * math.log2(r) ** 3 / math.log2(math.log2(r))


def sweep_r(r_values: Sequence[int], n: int, strategy: str) -> List[SweepRow]:
    """Transcript cost per tail length r, beside the trivial 2n and the
    cost/normalizer ratio.  Cost depends only on the run shape, so each r
    is priced from the plan of tails (r, 0), both parties' bits; no
    predicate or input is drawn and no protocol is run."""
    rows = []
    for r in r_values:
        if not 0 <= r <= n / 2:
            raise ValueError(f"r = {r} outside [0, n/2] for n = {n}")
        cost = 2 * trial_plan(r, 0, n, strategy).party_bits
        norm = cost_normalizer(r)
        rows.append(SweepRow(r, n, strategy, cost, 2 * n, norm, cost / norm))
    return rows


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def csv_lines(record_type: type, records: Iterable[Any]) -> List[str]:
    """A header of the dataclass's field names, then one line per record:
    floats as ``.6g``, bools as 0/1, anything else as ``str``."""
    names = [f.name for f in fields(record_type)]
    return [",".join(names)] + [
        ",".join(_csv_cell(getattr(rec, name)) for name in names) for rec in records
    ]


__all__ = [
    "TrialConfig",
    "CellStats",
    "RUN_CSV_HEADER",
    "DUMP_HEADER",
    "resolve_predicate",
    "auto_weights",
    "run_trials",
    "ReplayResult",
    "replay_transcript_text",
    "LemmaResult",
    "lemma_partition_experiment",
    "HdErrorResult",
    "hd_error_params",
    "hd_error_experiment",
    "SweepRow",
    "cost_normalizer",
    "sweep_r",
    "csv_lines",
]
