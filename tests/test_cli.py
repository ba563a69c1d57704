import os
import subprocess
import sys
from pathlib import Path

import pytest

import xorsmp
from xorsmp import hamming
from xorsmp.cli import main
from xorsmp.harness import RUN_CSV_HEADER


def run_cli(*args):
    return main([str(a) for a in args])


def test_run_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    rc = run_cli("run", "--n", 16, "--predicate", "eq", "--trials", 5,
                 "--seed", 3, "--strategy", "raw", "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == RUN_CSV_HEADER
    assert len(lines) == 1 + 5 * 6  # auto weights of eq at n=16: 0,1,2,8,15,16


def test_run_stdout(capsys):
    rc = run_cli("run", "--n", "8", "--predicate", "parity", "--trials", "2",
                 "--seed", "0", "--strategy", "raw")
    assert rc == 0
    outp = capsys.readouterr().out
    assert outp.startswith(RUN_CSV_HEADER)


def test_run_byte_identical_repeats(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    da, db = tmp_path / "da", tmp_path / "db"
    for out, dump in ((a, da), (b, db)):
        run_cli("run", "--n", 24, "--predicate", "ham:2", "--trials", 4,
                "--seed", 99, "--strategy", "syndrome", "--out", out,
                "--dump-transcripts", dump)
    assert a.read_bytes() == b.read_bytes()
    files_a = sorted(da.glob("*.txt"))
    files_b = sorted(db.glob("*.txt"))
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_weights_flag_and_explicit_list(tmp_path):
    out = tmp_path / "w.csv"
    run_cli("run", "--n", 16, "--predicate", "eq", "--weights", "0,3",
            "--trials", 2, "--seed", 1, "--strategy", "raw", "--out", out)
    rows = out.read_text().splitlines()[1:]
    assert {r.split(",")[5] for r in rows} == {"0", "3"}


def test_predicate_file_flag(tmp_path):
    pred_file = tmp_path / "pred.txt"
    pred_file.write_text("8\n101010101\n")
    out = tmp_path / "f.csv"
    rc = run_cli("run", "--predicate", f"file:{pred_file}", "--n", 8,
                 "--trials", 2, "--seed", 0, "--strategy", "raw", "--out", out)
    assert rc == 0
    assert "values:101010101" in out.read_text()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n = 16\npredicate = eq\ntrials = 3\nseed = 5\nstrategy = raw\n"
        "weights = 0,1\n"
    )
    out1 = tmp_path / "c1.csv"
    run_cli("run", "--config", cfg, "--out", out1)
    assert len(out1.read_text().splitlines()) == 1 + 3 * 2
    out2 = tmp_path / "c2.csv"
    run_cli("run", "--config", cfg, "--trials", 1, "--out", out2)
    assert len(out2.read_text().splitlines()) == 1 + 1 * 2


def test_sweep_r_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep-r", "--n", 128, "--r-values", "4,8",
                 "--strategy", "syndrome", "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,n,strategy,cost_bits,trivial_bits,normalizer,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("4,128,syndrome,7974,256,")


def test_sweep_r_outside_half_n_exits_with_message():
    # r = -1 used to print a row priced as a periodic predicate
    for r in (-1, 33):
        proc = _cli_subprocess("sweep-r", "--n", 64, f"--r-values={r}")
        _assert_clean_exit(proc, f"xorsmp sweep-r: r = {r} outside [0, n/2] for n = 64")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stdout == ""


# lines the CSV writers printed before they shared one formatter
PINNED_CSV = [
    (("lemma-partition", "--k", "4,16", "--trials", 1000, "--seed", 1), [
        "k,c,samples,failures,empirical,bound,stderr",
        "4,4,1000,18,0.018,0.853096,0.00420428",
        "16,8,1000,0,0,0.00284286,0",
    ]),
    (("hd-error", "--d", "0,1", "--epsilon", 0.5, "--trials", 40, "--seed", 2,
      "--strategy", "bucket"), [
        "d,epsilon,strategy,weight,samples,errors,rate,stderr",
        "0,0.5,bucket,0,40,0,0,0",
        "0,0.5,bucket,1,40,2,0.05,0.0344601",
        "1,0.5,bucket,1,40,0,0,0",
        "1,0.5,bucket,2,40,0,0,0",
    ]),
]


@pytest.mark.parametrize("argv, expected", PINNED_CSV, ids=["lemma-partition", "hd-error"])
def test_csv_lines_are_pinned(tmp_path, argv, expected):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out) == 0
    assert out.read_text() == "\n".join(expected) + "\n"


def test_replay_csv_lines_are_pinned(tmp_path):
    dump = tmp_path / "dumps"
    run_cli("run", "--n", 16, "--predicate", "ham:1", "--weights", "1,3", "--trials", 1,
            "--seed", 8, "--strategy", "syndrome", "--out", tmp_path / "r.csv",
            "--dump-transcripts", dump)
    out = tmp_path / "replay.csv"
    assert run_cli("replay", "--dump-transcripts", dump, "--out", out) == 0
    assert out.read_text() == (
        "trial,output,recorded_output,truth,correct,cost_bits,consistent\n"
        "0,1,1,1,1,1142,1\n"
        "1,0,0,0,1,1142,1\n"
    )


@pytest.mark.parametrize("strategy, cost", [("raw", 2), ("bucket", 34), ("syndrome", 34)])
def test_empty_inputs_run_and_replay(tmp_path, strategy, cost):
    # at n = 0 the fingerprint offsets used to divide by zero buckets
    for spec, output in (("eq", 1), ("parity", 0)):
        out, dump = tmp_path / f"{spec}.csv", tmp_path / spec
        assert run_cli("run", "--n", 0, "--predicate", spec, "--trials", 1,
                       "--strategy", strategy, "--out", out, "--dump-transcripts", dump) == 0
        assert out.read_text().splitlines()[1:] == [
            f"0,0,{spec},0,0,0,{output},{output},1,{cost},0"
        ]
        replayed = tmp_path / f"{spec}-replay.csv"
        assert run_cli("replay", "--dump-transcripts", dump, "--out", replayed) == 0
        assert replayed.read_text().splitlines()[1:] == [f"0,{output},{output},{output},1,{cost},1"]


@pytest.mark.parametrize("n, spec, message", [
    (-5, "eq", "xorsmp run: input length n = -5 is negative"),
    (10, "values:0101", "xorsmp run: predicate 'values:0101' has n = 3, not n = 10"),
    (8, "random:-3", "xorsmp run: tail length r < 0 (r = -3)"),
], ids=["negative-n", "length-mismatch", "negative-tail"])
def test_bad_input_length_exits_with_message(n, spec, message):
    # n = -5 used to build the n = 0 predicate; values:0101 used to run at
    # n = 3; random:-3 used to run a periodic predicate as r0 = 0
    proc = _cli_subprocess("run", "--n", n, "--predicate", spec, "--trials", 1,
                           "--strategy", "raw")
    _assert_clean_exit(proc, message)
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_lemma_partition_cli(tmp_path):
    out = tmp_path / "lemma.csv"
    rc = run_cli("lemma-partition", "--k", "16", "--trials", 2000, "--seed", 1,
                 "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,c,samples,failures,empirical,bound,stderr"
    assert lines[1].startswith("16,8,2000,")


def test_hd_error_cli(tmp_path):
    out = tmp_path / "hd.csv"
    rc = run_cli("hd-error", "--d", "1", "--epsilon", "0.1", "--trials", 300,
                 "--seed", 2, "--strategy", "syndrome", "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,epsilon,strategy,weight,samples,errors,rate,stderr"
    assert len(lines) == 3  # weights d and d+1


def test_replay_cli(tmp_path):
    dump = tmp_path / "dumps"
    run_cli("run", "--n", 16, "--predicate", "eq", "--trials", 2, "--seed", 8,
            "--strategy", "syndrome", "--out", tmp_path / "r.csv",
            "--dump-transcripts", dump)
    out = tmp_path / "replay.csv"
    rc = run_cli("replay", "--dump-transcripts", dump, "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,output,recorded_output,truth,correct,cost_bits,consistent"
    assert all(line.endswith(",1") for line in lines[1:])


def _cli_subprocess(*argv):
    env = dict(os.environ)
    src = str(Path(xorsmp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "xorsmp", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _replay_subprocess(dump):
    return _cli_subprocess("replay", "--dump-transcripts", dump)


def _assert_clean_exit(proc, message):
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr, proc.stderr


def test_replay_truncated_dump_exits_with_message(tmp_path):
    dump = tmp_path / "dumps"
    run_cli("run", "--n", 16, "--predicate", "eq", "--weights", "1", "--trials", 1,
            "--seed", 8, "--strategy", "syndrome", "--out", tmp_path / "r.csv",
            "--dump-transcripts", dump)
    path = dump / "trial-000000.txt"
    text = path.read_text()
    path.write_text("\n".join(text.splitlines()[:-1]) + "\n")
    proc = _replay_subprocess(dump)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert "trial-000000.txt" in proc.stderr and "'p/parity'" in proc.stderr
    # a header without cost_bits is named too, not a KeyError
    head, _, body = text.partition("\n")
    head = "\t".join(t for t in head.split("\t") if not t.startswith("cost_bits="))
    path.write_text(head + "\n" + body)
    proc = _replay_subprocess(dump)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert f"{path}: dump header has no 'cost_bits' field" in proc.stderr


def test_replay_bad_parity_entry_exits_with_message(tmp_path):
    dump = tmp_path / "dumps"
    run_cli("run", "--n", 24, "--predicate", "ham:2", "--weights", "1", "--trials", 1,
            "--seed", 5, "--strategy", "syndrome", "--out", tmp_path / "r.csv",
            "--dump-transcripts", dump)
    path = dump / "trial-000000.txt"
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("Alice\tp/parity\t"))
    lines[i] = "Alice\tp/parity\t-\t0"
    path.write_text("\n".join(lines) + "\n")
    _assert_clean_exit(
        _replay_subprocess(dump), f"{path}: 'p/parity' payload has 0 bits, expected 1"
    )


def test_replay_requires_dir():
    with pytest.raises(SystemExit):
        run_cli("replay")


def test_replay_without_dumps_exits_with_message(tmp_path):
    # a mistyped directory used to print the CSV header alone and exit 0
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not a dump\n")
    for where in (tmp_path / "missing", empty):
        _assert_clean_exit(
            _replay_subprocess(where), f"{where}: no trial-*.txt dumps to replay"
        )


def _small_run(*extra):
    return ("run", "--n", 8, "--predicate", "eq", "--weights", "1", "--trials", 1, *extra)


@pytest.mark.parametrize("argv_and_path", [
    lambda t: (_small_run("--out", t / "afile" / "x.csv"), t / "afile"),
    lambda t: (_small_run("--dump-transcripts", t / "afile"), t / "afile"),
    lambda t: (("replay", "--dump-transcripts", t), t / "trial-000000.txt"),
], ids=["out-under-file", "dump-dir-is-file", "dump-is-dir"])
def test_os_error_exits_with_message(tmp_path, argv_and_path):
    # each used to end in a FileExistsError or IsADirectoryError traceback
    (tmp_path / "afile").write_text("")
    (tmp_path / "trial-000000.txt").mkdir()
    argv, path = argv_and_path(tmp_path)
    proc = _cli_subprocess(*argv)
    _assert_clean_exit(proc, str(path))
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_unreadable_config_exits_with_message(tmp_path):
    # a missing file and a non-UTF-8 one used to end in a traceback
    missing = tmp_path / "missing.cfg"
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("predicate = eq\n# r\u00e9glage\n".encode("latin-1"))
    for cfg, message in (
        (missing, "[Errno 2] No such file or directory"),
        (latin1, "'utf-8' codec can't decode byte 0xe9"),
    ):
        proc = _cli_subprocess("run", "--config", cfg, "--n", 8)
        _assert_clean_exit(proc, f"{cfg}: {message}")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--n", 8, "--predicate", "eq"),
        ("hd-error", "--d", 1, "--epsilon", 0.1),
    ],
    ids=lambda argv: argv[0],
)
def test_zero_trials_exits_with_message(argv):
    # hd-error used to divide by zero trials
    proc = _cli_subprocess(*argv, "--trials", 0)
    _assert_clean_exit(proc, "need at least one trial per cell")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("command, flag, text, message", [
    ("run", "weights", ",", "--weights: no values in ','"),
    ("run", "weights", "1,x", "--weights: invalid literal for int() with base 10: 'x'"),
    ("hd-error", "d", ",", "--d: no values in ','"),
    ("hd-error", "epsilon", ",", "--epsilon: no values in ','"),
    ("hd-error", "epsilon", "0.1,y", "--epsilon: could not convert string to float: 'y'"),
    ("lemma-partition", "k", ",", "--k: no values in ','"),
    ("sweep-r", "r-values", ",", "--r-values: no values in ','"),
])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_bad_comma_list_exits_naming_the_flag(tmp_path, command, flag, text, message, route):
    # an empty list used to print a header-only CSV and exit 0
    out = tmp_path / "out.csv"
    argv = [command, "--out", out]
    if command == "run":
        argv += ["--n", 8, "--predicate", "eq", "--trials", 1]
    if route == "flag":
        argv += [f"--{flag}={text}"]
    else:
        cfg = tmp_path / "list.cfg"
        cfg.write_text(f"{flag} = {text}\n")
        argv += ["--config", cfg]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == f"xorsmp {command}: {message}"
    assert not out.exists()


def test_bad_comma_list_is_a_one_line_exit_1():
    proc = _cli_subprocess("run", "--n", 8, "--predicate", "eq", "--weights", ",")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["xorsmp run: --weights: no values in ','"]


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("bogus = 1", "command = replay", "k = 16"):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit):
            run_cli("run", "--config", cfg, "--n", 8, "--predicate", "eq")


def test_stray_flag_is_usage_error(capsys):
    # each subcommand declares only the flags it reads
    for argv in (
        ("replay", "--dump-transcripts", "dumps", "--n", 5),
        ("lemma-partition", "--strategy", "raw", "--predicate", "eq", "--n", 5),
        ("hd-error", "--n", 4096),
        ("sweep-r", "--trials", 3),
        ("sweep-r", "--seed", 1),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_config_value_names_file_line_and_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("predicate = eq\nn = abc\n")
    _assert_clean_exit(
        _cli_subprocess("run", "--config", cfg),
        f"{cfg}:2: n: invalid literal for int() with base 10: 'abc'",
    )
    cfg.write_text("n = 8\npredicate = eq\n\nstrategy = fast\n")
    _assert_clean_exit(
        _cli_subprocess("run", "--config", cfg),
        f"{cfg}:4: strategy: 'fast' is not one of raw, bucket, syndrome",
    )


def test_bad_predicate_file_exits_with_message(tmp_path):
    pred = tmp_path / "bad.txt"
    pred.write_text("4\n10x01\n")
    _assert_clean_exit(
        _cli_subprocess("run", "--n", 4, "--predicate", f"file:{pred}", "--trials", 1),
        f"{pred}: line 2: expected exactly 5 characters from {{0,1}}, got '10x01'",
    )
    missing = tmp_path / "missing.txt"
    _assert_clean_exit(
        _cli_subprocess("run", "--n", 4, "--predicate", f"file:{missing}", "--trials", 1),
        f"{missing}: [Errno 2] No such file or directory",
    )


def test_single_sketch_past_the_field_exits_with_message(tmp_path):
    # a d = 128 syndrome sketch would hash into 4 d^2 = 2^16 buckets, past
    # GF(2^16): one line naming the limit, not the missing field of m = 17
    proc = _cli_subprocess("hd-error", "--d", 128, "--trials", 1)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "xorsmp hd-error: syndrome supports thresholds up to d = 127: the 4d^2 buckets "
        "must fit GF(2^16); got d = 128"
    ]
    # bucket builds no field and still runs there
    out = tmp_path / "bucket.csv"
    assert run_cli("hd-error", "--d", 128, "--epsilon", 0.1, "--trials", 1,
                   "--strategy", "bucket", "--out", out) == 0
    assert len(out.read_text().splitlines()) == 3


def test_hd_error_checks_every_d_before_any_trial(monkeypatch):
    # d = 128 is past the syndrome limit: the whole list is checked first,
    # so no d = 1 trial runs before the one-line exit
    drawn = []
    monkeypatch.setattr(hamming, "hd_shared", lambda *args: drawn.append(args))
    with pytest.raises(SystemExit) as exc:
        run_cli("hd-error", "--d", "1,128", "--strategy", "syndrome")
    assert exc.value.code == (
        "xorsmp hd-error: syndrome supports thresholds up to d = 127: the 4d^2 buckets "
        "must fit GF(2^16); got d = 128"
    )
    assert drawn == []


def test_unsupported_envelope_exits_with_message():
    limit = "syndrome supports tails up to r = 127"
    _assert_clean_exit(
        _cli_subprocess("sweep-r", "--n", 4096, "--r-values", 128, "--strategy", "syndrome"),
        f"{limit}: the guard's 4r^2 buckets must fit GF(2^16); got r = 128",
    )
    _assert_clean_exit(
        _cli_subprocess("run", "--n", 1024, "--predicate", "ham:130", "--trials", 1),
        f"{limit}: the guard's 4r^2 buckets must fit GF(2^16); got r = 131",
    )
