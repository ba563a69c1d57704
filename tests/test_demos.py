"""Every quick demo must still run against the current API.

Demo 04 is left out: it takes about 25 s and only exercises ``run_trials``,
which the harness tests cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import xorsmp

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_protocol_walkthrough.py",
    "02_sketch_strategies.py",
    "03_partition_lemma.py",
    "05_cost_sweep.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    src = str(Path(xorsmp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
