"""Command-line front end.

Subcommands: run, sweep-r, lemma-partition, hd-error, replay.  Every
invocation is a pure function of its flags and seed: repeating one
produces byte-identical CSV and transcript dumps.  A flat ``key = value``
config file can stand in for flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .harness import (
    RUN_CSV_HEADER,
    SWEEP_CSV_HEADER,
    TrialConfig,
    hd_error_experiment,
    lemma_partition_experiment,
    replay_transcript_text,
    run_trials,
    sweep_r,
)

LEMMA_CSV_HEADER = "k,c,samples,failures,empirical,bound,stderr"
HD_CSV_HEADER = "d,epsilon,strategy,weight,samples,errors,rate,stderr"
REPLAY_CSV_HEADER = "trial,output,recorded_output,truth,correct,cost_bits,consistent"


def _parse_config(path: Path) -> Dict[str, str]:
    values: Dict[str, str] = {}
    for ln_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{ln_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorsmp",
        description="SMP protocol simulator for symmetric XOR functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="key = value file; flags override")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--predicate", default=None,
                       help="eq | ham:d | parity | random:r | file:PATH")
        p.add_argument("--weights", default=None, help="comma list or 'auto'")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--strategy", default=None,
                       choices=["raw", "bucket", "syndrome"])
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--dump-transcripts", type=Path, default=None,
                       dest="dump_transcripts")

    p_run = sub.add_parser("run", help="stratified success-rate trials")
    common(p_run)

    p_sweep = sub.add_parser("sweep-r", help="cost versus tail length r")
    common(p_sweep)
    p_sweep.add_argument("--r-values", default=None, dest="r_values",
                         help="comma list of r (default 4,8,16,32,64)")

    p_lemma = sub.add_parser("lemma-partition", help="partition lemma check")
    common(p_lemma)
    p_lemma.add_argument("--k", default=None, help="comma list of block counts")

    p_hd = sub.add_parser("hd-error", help="sketch error rates vs the exact oracle")
    common(p_hd)
    p_hd.add_argument("--d", default=None, help="comma list of thresholds")
    p_hd.add_argument("--epsilon", default=None, help="comma list of budgets")

    p_replay = sub.add_parser("replay", help="re-run referees from transcript dumps")
    common(p_replay)
    return parser


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None) is None:
        return args
    file_vals = _parse_config(args.config)
    alias = {
        "dump-transcripts": "dump_transcripts",
        "r-values": "r_values",
    }
    for key, val in file_vals.items():
        attr = alias.get(key, key)
        if not hasattr(args, attr):
            raise SystemExit(f"config key {key!r} unknown for this command")
        if getattr(args, attr) is None:
            caster = {
                "n": int, "trials": int, "seed": int,
                "out": Path, "dump_transcripts": Path, "config": Path,
            }.get(attr, str)
            setattr(args, attr, caster(val))
    return args


def _emit(out: Optional[Path], lines: List[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _require(args, **defaults):
    for name, default in defaults.items():
        if getattr(args, name) is None:
            if default is None:
                raise SystemExit(f"--{name.replace('_', '-')} is required")
            setattr(args, name, default)


def cmd_run(args: argparse.Namespace) -> int:
    _require(args, n=None, predicate=None, trials=1000, seed=0,
             strategy="syndrome", weights="auto")
    weights = args.weights if args.weights == "auto" else _int_list(args.weights)
    cfg = TrialConfig(
        n=args.n,
        predicate_spec=args.predicate,
        weights=weights,
        trials=args.trials,
        seed=args.seed,
        strategy=args.strategy,
        dump_dir=args.dump_transcripts,
    )
    _, rows = run_trials(cfg)
    _emit(args.out, [RUN_CSV_HEADER] + rows)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, n=4096, trials=8, seed=0, strategy="syndrome")
    r_values = _int_list(args.r_values or "4,8,16,32,64")
    rows = sweep_r(r_values, args.n, args.strategy, args.trials, args.seed)
    _emit(args.out, [SWEEP_CSV_HEADER] + [row.csv() for row in rows])
    return 0


def cmd_lemma(args: argparse.Namespace) -> int:
    _require(args, trials=10000, seed=0)
    ks = _int_list(args.k or "16,64,256")
    lines = [LEMMA_CSV_HEADER]
    for k in ks:
        res = lemma_partition_experiment(k, args.trials, args.seed)
        lines.append(
            f"{res.k},{res.c},{res.samples},{res.failures},"
            f"{res.empirical:.6g},{res.bound:.6g},{res.stderr:.6g}"
        )
    _emit(args.out, lines)
    return 0


def cmd_hd_error(args: argparse.Namespace) -> int:
    _require(args, trials=10000, seed=0, strategy="syndrome")
    ds = _int_list(args.d or "0,1,2,4,8")
    epsilons = _float_list(args.epsilon or "0.1,0.01")
    lines = [HD_CSV_HEADER]
    for d in ds:
        for eps in epsilons:
            for res in hd_error_experiment(d, eps, args.strategy, args.trials,
                                           args.seed):
                lines.append(
                    f"{res.d},{res.epsilon:.6g},{res.strategy},{res.weight},"
                    f"{res.samples},{res.errors},{res.rate:.6g},{res.stderr:.6g}"
                )
    _emit(args.out, lines)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    if args.dump_transcripts is None:
        raise SystemExit("--dump-transcripts directory is required for replay")
    lines = [REPLAY_CSV_HEADER]
    bad = 0
    for path in sorted(Path(args.dump_transcripts).glob("trial-*.txt")):
        try:
            res = replay_transcript_text(path.read_text())
        except ValueError as exc:
            raise SystemExit(f"{path}: {exc}") from None
        bad += 0 if res.consistent else 1
        lines.append(
            f"{res.trial},{res.output},{res.recorded_output},{res.truth},"
            f"{res.correct},{res.cost_bits},{int(res.consistent)}"
        )
    _emit(args.out, lines)
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _merge_config(_build_parser().parse_args(argv))
    handler = {
        "run": cmd_run,
        "sweep-r": cmd_sweep,
        "lemma-partition": cmd_lemma,
        "hd-error": cmd_hd_error,
        "replay": cmd_replay,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
