"""Command-line front end.

Subcommands: run, sweep-r, lemma-partition, hd-error, replay.  Every
invocation is a pure function of its flags and seed: repeating one
produces byte-identical CSV and transcript dumps.  Each subcommand takes
only the flags it reads, so a stray flag is a usage error.  A flat
``key = value`` config file can stand in for flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .hamming import STRATEGIES
from .harness import (
    RUN_CSV_HEADER,
    HdErrorResult,
    LemmaResult,
    ReplayResult,
    SweepRow,
    TrialConfig,
    csv_lines,
    hd_error_experiment,
    hd_error_params,
    lemma_partition_experiment,
    replay_transcript_text,
    run_trials,
    sweep_r,
)


def _parse_config(path: Path) -> Dict[str, Tuple[int, str]]:
    """key -> (line number, value); a later line overrides an earlier one.
    A file that cannot be read or is not UTF-8 exits with its name."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"{path}: {exc}") from None
    values: Dict[str, Tuple[int, str]] = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{ln_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = (ln_no, val.strip())
    return values


def _list(flag: str, text: str, cast: Callable[[str], object]) -> list:
    """The values of the comma list ``--flag`` (blank items are skipped), from
    the command line or a config file.  A list with no values, or an item
    that ``cast`` rejects, raises ``ValueError`` naming the flag, so the
    command exits 1 before anything runs."""
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--{flag}: {exc}") from None
    if not values:
        raise ValueError(f"--{flag}: no values in {text!r}")
    return values


# flag -> add_argument keywords; ``type`` also casts the flag's config value
_FLAGS = {
    "config": dict(type=Path, help="key = value file; flags override"),
    "n": dict(type=int),
    "predicate": dict(help="eq | ham:d | parity | random:r | file:PATH"),
    "weights": dict(help="comma list or 'auto'"),
    "trials": dict(type=int),
    "seed": dict(type=int),
    "strategy": dict(choices=STRATEGIES),
    "out": dict(type=Path),
    "dump-transcripts": dict(type=Path),
    "r-values": dict(help="comma list of r (default 4,8,16,32,64)"),
    "k": dict(help="comma list of block counts"),
    "d": dict(help="comma list of thresholds"),
    "epsilon": dict(help="comma list of budgets"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorsmp",
        description="SMP protocol simulator for symmetric XOR functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("config",) + flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])  # dest: dashes become underscores
    return parser


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if args.config is None:
        return args
    flags = ("config",) + _COMMANDS[args.command][1]
    for key, (ln_no, val) in _parse_config(args.config).items():
        flag = key.replace("_", "-")
        if flag not in flags:
            raise SystemExit(f"{args.config}:{ln_no}: config key {key!r} unknown for this command")
        attr = flag.replace("-", "_")
        if getattr(args, attr) is not None:
            continue
        spec = _FLAGS[flag]
        try:
            value = spec.get("type", str)(val)
        except ValueError as exc:
            raise SystemExit(f"{args.config}:{ln_no}: {key}: {exc}") from None
        if value not in spec.get("choices", (value,)):
            raise SystemExit(
                f"{args.config}:{ln_no}: {key}: {val!r} is not one of {', '.join(spec['choices'])}"
            )
        setattr(args, attr, value)
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
    weights = args.weights if args.weights == "auto" else _list("weights", args.weights, int)
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
    _require(args, n=4096, strategy="syndrome", r_values="4,8,16,32,64")
    r_values = _list("r-values", args.r_values, int)
    _emit(args.out, csv_lines(SweepRow, sweep_r(r_values, args.n, args.strategy)))
    return 0


def cmd_lemma(args: argparse.Namespace) -> int:
    _require(args, trials=10000, seed=0, k="16,64,256")
    ks = _list("k", args.k, int)
    results = [lemma_partition_experiment(k, args.trials, args.seed) for k in ks]
    _emit(args.out, csv_lines(LemmaResult, results))
    return 0


def cmd_hd_error(args: argparse.Namespace) -> int:
    _require(args, trials=10000, seed=0, strategy="syndrome", d="0,1,2,4,8", epsilon="0.1,0.01")
    ds = _list("d", args.d, int)
    epsilons = _list("epsilon", args.epsilon, float)
    # every (d, epsilon) is checked before the first trial runs
    cells = [hd_error_params(d, eps, args.strategy) for d in ds for eps in epsilons]
    results = [
        res
        for p in cells
        for res in hd_error_experiment(p.d, p.epsilon, p.strategy, args.trials, args.seed)
    ]
    _emit(args.out, csv_lines(HdErrorResult, results))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    if args.dump_transcripts is None:
        raise SystemExit("--dump-transcripts directory is required for replay")
    paths = sorted(args.dump_transcripts.glob("trial-*.txt"))
    if not paths:
        raise SystemExit(f"{args.dump_transcripts}: no trial-*.txt dumps to replay")
    results = []
    for path in paths:
        try:
            results.append(replay_transcript_text(path.read_text()))
        except ValueError as exc:
            raise SystemExit(f"{path}: {exc}") from None
    _emit(args.out, csv_lines(ReplayResult, results))
    return 0 if all(res.consistent for res in results) else 1


# subcommand -> (help, the flags it reads besides --config, handler)
_COMMANDS = {
    "run": (
        "stratified success-rate trials",
        ("n", "predicate", "weights", "trials", "seed", "strategy", "out", "dump-transcripts"),
        cmd_run,
    ),
    "sweep-r": (
        "cost versus tail length r",
        ("n", "strategy", "out", "r-values"),
        cmd_sweep,
    ),
    "lemma-partition": ("partition lemma check", ("trials", "seed", "out", "k"), cmd_lemma),
    "hd-error": (
        "sketch error rates vs the exact oracle",
        ("trials", "seed", "strategy", "out", "d", "epsilon"),
        cmd_hd_error,
    ),
    "replay": ("re-run referees from transcript dumps", ("out", "dump-transcripts"), cmd_replay),
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.  Bad input (a malformed predicate file, a
    setting outside the supported envelope, an unwritable path) raises a
    ``ValueError`` or ``OSError``, which exits nonzero with its message."""
    args = _merge_config(_build_parser().parse_args(argv))
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"xorsmp {args.command}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
