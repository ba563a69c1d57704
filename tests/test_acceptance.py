"""Acceptance gates for the whole artifact.

Each criterion runs at its stated sample size and tolerance and prints one
summary line (visible with -s or on failure).  Empirical gates are fixed
numbers: every experiment is seeded, so reruns are bit-identical and the
three-standard-error margins make the checks deterministic in practice.
"""

import math
import time

import pytest

from xorsmp.bits import BitVector, sample_pair_with_distance
from xorsmp.cli import main as cli_main
from xorsmp.coins import CoinSource
from xorsmp.hamming import hd_decide, hd_encode_shared, hd_shared
from xorsmp.harness import (
    TrialConfig,
    hd_error_experiment,
    hd_error_params,
    lemma_partition_experiment,
    run_trials,
    sweep_r,
)
from xorsmp.predicate import Predicate, compute_profile, family, oracle, parity_predicate
from xorsmp.protocol import (
    BRANCH_PARITY,
    pk_party_messages,
    pk_referee,
    pk_shared,
    run_protocol,
)

from .oracles import assert_profile_minimal, branch_rate

FAMILIES = ("eq", "ham:5", "parity", "random:8", "random:16")
TRIALS_PER_CELL = 2000


def margin(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


@pytest.fixture(scope="module")
def stratified_cells():
    """Shared stratified runs for criteria 1 and 2: five predicate families
    at n = 256 with the syndrome strategy, 2000 trials per weight cell."""
    started = time.monotonic()
    results = {}
    for i, spec in enumerate(FAMILIES):
        cfg = TrialConfig(
            n=256,
            predicate_spec=spec,
            weights="auto",
            trials=TRIALS_PER_CELL,
            seed=1000 + i,
            strategy="syndrome",
        )
        cells, _ = run_trials(cfg)
        results[spec] = cells
    return results, time.monotonic() - started


def test_criterion_1_success_probability(stratified_cells):
    results, elapsed = stratified_cells
    gate = 2.0 / 3.0 - margin(2.0 / 3.0, TRIALS_PER_CELL)
    worst = 1.0
    for spec, cells in results.items():
        for cell in cells:
            worst = min(worst, cell.rate)
            assert cell.rate >= gate, (
                f"[C1] {spec} weight={cell.weight}: rate {cell.rate:.4f} < {gate:.4f}"
            )
    print(
        f"[C1] success probability: worst cell rate {worst:.4f} >= {gate:.4f} "
        f"across {sum(len(c) for c in results.values())} cells "
        f"({elapsed:.0f}s) PASS"
    )
    assert elapsed < 300.0, f"[C1] runtime {elapsed:.0f}s exceeds 5 minutes"


def test_criterion_2_branch_constants(stratified_cells):
    results, _ = stratified_cells
    low_gate = 0.81 - margin(0.81, TRIALS_PER_CELL)
    mid_gate = 0.80 - margin(0.80, TRIALS_PER_CELL)
    low_worst, mid_worst = 1.0, 1.0
    for spec, cells in results.items():
        prof = compute_profile(
            family(spec, 256, CoinSource.from_seed(1000 + FAMILIES.index(spec)).derive("predicate"))
        )
        for cell in cells:
            if cell.weight <= prof.r0:
                low_worst = min(low_worst, cell.rate)
                assert cell.rate >= low_gate, (
                    f"[C2] {spec} low cell w={cell.weight}: {cell.rate:.4f}"
                )
            elif prof.r0 < cell.weight < 256 - prof.r1:
                freq = branch_rate(cell, BRANCH_PARITY)
                mid_worst = min(mid_worst, freq)
                assert freq >= mid_gate, (
                    f"[C2] {spec} middle cell w={cell.weight}: parity branch "
                    f"frequency {freq:.4f} < {mid_gate:.4f}"
                )
                taken = cell.branch_counts.get(BRANCH_PARITY, 0)
                assert cell.parity_branch_successes == taken, (
                    f"[C2] {spec} w={cell.weight}: parity branch answered "
                    f"wrongly {taken - cell.parity_branch_successes} times"
                )
    print(
        f"[C2] branch constants: low-tail worst {low_worst:.4f} >= {low_gate:.4f}, "
        f"middle parity-branch worst {mid_worst:.4f} >= {mid_gate:.4f}, "
        "parity branch exact when taken PASS"
    )


def test_criterion_3_promise_protocol():
    n, trials = 1024, 10_000
    pred = parity_predicate(n)
    gate = 0.9 - margin(0.9, trials)
    rates = {}
    for k in (8, 16, 32):
        root = CoinSource.from_seed(3000 + k)
        good = 0
        for t in range(trials):
            coins = root.derive(f"trial/{t}")
            x, y = sample_pair_with_distance(n, k, coins.derive("input"))
            shared = pk_shared(k, n, "syndrome", coins)
            total = pk_referee(shared, pk_party_messages(shared, x ^ y))
            good += int(pred(total) == pred(k))
        rates[k] = good / trials
        assert rates[k] >= gate, f"[C3] k={k}: rate {rates[k]:.4f} < {gate:.4f}"
    print(
        "[C3] promise protocol at |x^y| = k: "
        + ", ".join(f"k={k}: {r:.4f}" for k, r in rates.items())
        + f" all >= {gate:.4f} PASS"
    )


def test_criterion_4_partition_lemma():
    started = time.monotonic()
    lines = []
    for k in (16, 64, 256):
        res = lemma_partition_experiment(k, 10_000, seed=4000 + k)
        gate = res.bound + 3 * res.stderr
        assert res.empirical <= gate, (
            f"[C4] k={k}: empirical {res.empirical:.2e} > bound {res.bound:.2e}"
        )
        lines.append(f"k={k}: {res.empirical:.1e} <= {res.bound:.1e}")
    elapsed = time.monotonic() - started
    print(f"[C4] partition lemma: {'; '.join(lines)} ({elapsed:.1f}s) PASS")
    assert elapsed < 60.0


def test_criterion_5_hd_error_contract():
    started = time.monotonic()
    worst = 0.0
    for d in (0, 1, 2, 4, 8):
        for eps in (0.1, 0.01):
            for strategy in ("bucket", "syndrome"):
                for res in hd_error_experiment(
                    d, eps, strategy, 10_000, seed=5000 + d
                ):
                    gate = eps + margin(eps, res.samples)
                    slack = res.rate / eps
                    worst = max(worst, slack)
                    assert res.rate <= gate, (
                        f"[C5] d={d} eps={eps} {strategy} w={res.weight}: "
                        f"error {res.rate:.5f} > {gate:.5f}"
                    )
    print(
        f"[C5] sketch error contract: worst error/epsilon ratio {worst:.3f} "
        f"over 40 cells x 10^4 seeds ({time.monotonic() - started:.0f}s) PASS"
    )


def test_criterion_5_hardest_weight():
    """The false-LE rate at w = d + 2, the weight where the exact chance of
    one is largest (one collision leaves d odd buckets), meets C5's gate on
    C5's instances, seeds and sample size.  The bucket hash and the
    fingerprints are a keyed SplitMix64 counter stream, a weaker mixer than
    a cryptographic generator, and the error bounds assume independent
    coins: this is the evidence that the stream behaves as they need."""
    started = time.monotonic()
    samples = 10_000
    worst = 0.0
    for d in (1, 2, 4, 8):
        w = d + 2
        root = CoinSource.from_seed(5000 + d)
        for eps in (0.1, 0.01):
            for strategy in ("bucket", "syndrome"):
                params = hd_error_params(d, eps, strategy)
                false_le = 0
                for s in range(samples):
                    coins = root.derive(f"hd/{w}/trial/{s}")
                    x, y = sample_pair_with_distance(params.length, w, coins.derive("input"))
                    shared = hd_shared(params, coins.derive("coins"))
                    m_a, m_b = hd_encode_shared(shared, x), hd_encode_shared(shared, y)
                    false_le += hd_decide(params, m_a, m_b).le
                rate = false_le / samples
                worst = max(worst, rate / eps)
                gate = eps + margin(eps, samples)
                assert rate <= gate, (
                    f"[C5] d={d} eps={eps} {strategy} w={w}: false LE {rate:.5f} > {gate:.5f}"
                )
    print(
        f"[C5] hardest weight d + 2: worst false-LE/epsilon ratio {worst:.3f} over 16 cells "
        f"x 10^4 seeds ({time.monotonic() - started:.0f}s) PASS"
    )


def test_criterion_6_cost_shape():
    """Transcript cost against the r log^3(r) / log log(r) normalizer.

    The measured spread is deterministic (message sizes do not depend on
    the data) and sits near 2.16: the per-block distance cap is identical
    at r = 8 and r = 16, so cost only doubles there while the smooth
    normalizer almost quadruples.  Consecutive sweep points stay within a
    factor 1.75.  The 2x gate below is kept as stated rather than tuned to
    what the construction produces; it fails, and the failure message
    carries the measured ratios.
    """
    rows = sweep_r([4, 8, 16, 32, 64], 4096, "syndrome")
    ratios = {row.r: row.ratio for row in rows}
    costs = [row.cost_bits for row in rows]
    assert costs == sorted(costs), "[C6] cost must grow with r"
    spread = max(ratios.values()) / min(ratios.values())
    consecutive = max(
        max(a, b) / min(a, b)
        for a, b in zip(list(ratios.values()), list(ratios.values())[1:])
    )
    print(
        f"[C6] cost shape: ratios "
        + ", ".join(f"r={r}: {v:.1f}" for r, v in ratios.items())
        + f"; spread {spread:.3f}, max consecutive step {consecutive:.3f}"
    )
    assert spread <= 2.0, (
        f"[C6] cost/normalizer spread {spread:.3f} exceeds 2.0; ratios "
        + ", ".join(f"r={r}: {v:.1f}" for r, v in ratios.items())
        + f" (max consecutive step {consecutive:.3f})"
    )


def every_predicate(n):
    for mask in range(1 << (n + 1)):
        yield Predicate([(mask >> i) & 1 for i in range(n + 1)])


def run_raw(pred, prof, x, y, coins):
    return run_protocol(pred, prof, x, y, "raw", coins).output


def test_criterion_7_raw_exhaustive_equivalence():
    started = time.monotonic()
    root = CoinSource.from_seed(7000)
    # all predicates x all pairs for n <= 4
    checked = 0
    for n in range(1, 5):
        for pred in every_predicate(n):
            prof = compute_profile(pred)
            for xv in range(1 << n):
                for yv in range(1 << n):
                    x, y = BitVector(n, xv), BitVector(n, yv)
                    out = run_raw(pred, prof, x, y, root.derive(f"a/{n}/{xv}/{yv}"))
                    assert out == oracle(pred, x, y), (n, pred, xv, yv)
                    checked += 1
    # all pairs at n = 5 for a predicate panel
    n = 5
    panel = [family("eq", n), family("parity", n), family("ham:1", n)]
    gen = root.derive("panel").generator()
    panel += [
        Predicate([int(v) for v in gen.integers(0, 2, size=n + 1)])
        for _ in range(40)
    ]
    for pi, pred in enumerate(panel):
        prof = compute_profile(pred)
        for xv in range(1 << n):
            for yv in range(1 << n):
                x, y = BitVector(n, xv), BitVector(n, yv)
                out = run_raw(pred, prof, x, y, root.derive(f"b/{pi}/{xv}/{yv}"))
                assert out == oracle(pred, x, y), (pred, xv, yv)
                checked += 1
    # 500 sampled predicates at n = 10, stratified pairs over every weight
    n = 10
    gen = root.derive("n10").generator()
    for pi in range(500):
        pred = Predicate([int(v) for v in gen.integers(0, 2, size=n + 1)])
        prof = compute_profile(pred)
        for w in range(n + 1):
            for rep in range(2):
                coins = root.derive(f"c/{pi}/{w}/{rep}")
                x, y = sample_pair_with_distance(n, w, coins.derive("input"))
                out = run_raw(pred, prof, x, y, coins)
                assert out == oracle(pred, x, y), (pred, w)
                checked += 1
    print(
        f"[C7] raw-strategy equivalence with the brute-force oracle on "
        f"{checked} runs ({time.monotonic() - started:.0f}s) PASS"
    )


def test_criterion_8_profile_minimality():
    started = time.monotonic()
    checked = 0
    for n in range(1, 11):
        for pred in every_predicate(n):
            prof = compute_profile(pred)
            assert_profile_minimal(pred, prof.r0, prof.r1)
            checked += 1
    gen = CoinSource.from_seed(8000).generator()
    for n in (12, 14):
        for _ in range(10_000):
            pred = Predicate([int(v) for v in gen.integers(0, 2, size=n + 1)])
            prof = compute_profile(pred)
            assert_profile_minimal(pred, prof.r0, prof.r1)
            checked += 1
    print(
        f"[C8] profile minimality vs brute force on {checked} predicates "
        f"({time.monotonic() - started:.0f}s) PASS"
    )


def test_criterion_9_cli_determinism(tmp_path):
    def invoke(tag):
        base = tmp_path / tag
        base.mkdir()
        cli_main([
            "run", "--n", "64", "--predicate", "random:6", "--trials", "30",
            "--seed", "90", "--strategy", "syndrome",
            "--out", str(base / "run.csv"),
            "--dump-transcripts", str(base / "dumps"),
        ])
        cli_main([
            "sweep-r", "--n", "128", "--r-values", "4,8,16", "--strategy", "syndrome",
            "--out", str(base / "sweep.csv"),
        ])
        cli_main([
            "lemma-partition", "--k", "16,64", "--trials", "3000", "--seed", "92",
            "--out", str(base / "lemma.csv"),
        ])
        cli_main([
            "hd-error", "--d", "0,2", "--epsilon", "0.1", "--trials", "500",
            "--seed", "93", "--strategy", "syndrome",
            "--out", str(base / "hd.csv"),
        ])
        return base

    a, b = invoke("a"), invoke("b")
    compared = 0
    for rel in ("run.csv", "sweep.csv", "lemma.csv", "hd.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        compared += 1
    dumps_a = sorted((a / "dumps").glob("*.txt"))
    dumps_b = sorted((b / "dumps").glob("*.txt"))
    assert [p.name for p in dumps_a] == [p.name for p in dumps_b]
    assert len(dumps_a) > 0
    for pa, pb in zip(dumps_a, dumps_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
        compared += 1
    print(
        f"[C9] byte-identical outputs across repeated invocations "
        f"({compared} files) PASS"
    )
