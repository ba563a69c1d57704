"""Byte-for-byte pins of seeded outputs: run CSV rows, transcript dumps,
their replays, and the C5 sketch-grid verdicts.

Equal seeds must give identical bytes, so any refactor of the sketch,
protocol or coin code has to leave these files untouched.  When a change
alters coin labels, draw order or coin format on purpose, regenerate the
files with

    PYTHONPATH=src python -m tests.test_golden --write

which also prints the big-trial digest to paste into ``BIG_TRIAL_SHA256``,
and say so in the change's notes.
"""

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from xorsmp import hamming
from xorsmp.harness import (
    RUN_CSV_HEADER,
    TrialConfig,
    hd_error_experiment,
    replay_transcript_text,
    run_trials,
)

GOLDEN = Path(__file__).parent / "golden"
N = 20
# profile (r0, r1) = (3, 2): both promise runs and all three branches occur
TWO_TAILS = "values:111101010101010101011"
RUN_CASES = ((TWO_TAILS, 2, 71), ("eq", 1, 72), ("parity", 1, 73))
STRATEGIES = ("raw", "bucket", "syndrome")
C5_SAMPLES = 100


def _run_outputs(strategy: str) -> str:
    """CSV rows, then every dump, then the replay of every dump."""
    parts = [RUN_CSV_HEADER]
    dumps, replays = [], []
    for spec, trials, seed in RUN_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            dump_dir = Path(tmp)
            cfg = TrialConfig(N, spec, "auto", trials, seed, strategy, dump_dir)
            _, rows = run_trials(cfg)
            parts.extend(rows)
            for path in sorted(dump_dir.glob("trial-*.txt")):
                text = path.read_text()
                dumps.append(text)
                r = replay_transcript_text(text)
                replays.append(
                    f"{seed},{r.trial},{r.output},{r.recorded_output},{r.truth},"
                    f"{r.correct},{r.cost_bits},{int(r.consistent)}"
                )
    return "\n".join(parts) + "\n" + "".join(dumps) + "\n".join(replays) + "\n"


def _c5_outputs() -> str:
    """hd_error_experiment on the C5 grid, with every verdict it saw."""
    lines = []
    original = hamming.hd_decide
    for d in (0, 1, 2, 4, 8):
        for eps in (0.1, 0.01):
            for strategy in ("bucket", "syndrome"):
                seen = []

                def recording(*args, **kwargs):
                    verdict = original(*args, **kwargs)
                    seen.append(f"{int(verdict.le)}:{verdict.estimate}")
                    return verdict

                hamming.hd_decide = recording
                try:
                    results = hd_error_experiment(d, eps, strategy, C5_SAMPLES, 5000 + d)
                finally:
                    hamming.hd_decide = original
                for res in results:
                    lines.append(
                        f"{res.d},{res.epsilon:.6g},{res.strategy},{res.weight},"
                        f"{res.samples},{res.errors},{res.rate:.6g},{res.stderr:.6g}"
                    )
                lines.append(" ".join(seen))
    return "\n".join(lines) + "\n"


def golden_outputs():
    out = {f"run_{s}.txt": (lambda s=s: _run_outputs(s)) for s in STRATEGIES}
    out["c5_grid.txt"] = _c5_outputs
    return out


# One large trial (n = 4096, r0 = 64): the files above only reach n = 20, far
# below the packed-word boundaries of the big codes.  The digest covers the
# whole dump, every payload of both parties included, so it pins the coins
# (fingerprint columns drawn as packed words) and every syndrome, fingerprint
# and parity bit of both parties at that size.  ``--write`` prints it.
BIG_TRIAL = TrialConfig(4096, "random:64", [40], 1, 64_001, "syndrome")
BIG_TRIAL_SHA256 = "2b636bc776e0ceb64c6730808df51d6aefb98df6ecbf7957befe574469b59e0d"


def big_trial_dump() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        run_trials(dataclasses.replace(BIG_TRIAL, dump_dir=Path(tmp)))
        return (Path(tmp) / "trial-000000.txt").read_text()


def test_big_trial_payload_digest():
    text = big_trial_dump()
    assert hashlib.sha256(text.encode()).hexdigest() == BIG_TRIAL_SHA256
    # and the payloads read back into packed words replay the same run
    assert replay_transcript_text(text).consistent


@pytest.mark.parametrize("name", sorted(golden_outputs()))
def test_golden_bytes(name):
    want = (GOLDEN / name).read_bytes()
    got = golden_outputs()[name]().encode()
    assert got == want, f"{name} differs from its golden file"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_golden --write")
    GOLDEN.mkdir(exist_ok=True)
    for name, make in golden_outputs().items():
        (GOLDEN / name).write_bytes(make().encode())
    digest = hashlib.sha256(big_trial_dump().encode()).hexdigest()
    print(f'BIG_TRIAL_SHA256 = "{digest}"')
