"""Smoke test of the benchmark's workloads (``perfbench/workloads.py``):
each builds at seed 0 and its first operations run without a hard-check
failure, so an API change in ``src/`` breaks the suite, not only the
benchmark.  This reads perfbench and never edits it."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {name: build(0) for name, build in module.WORKLOADS.items()}


@pytest.mark.parametrize("name, ops", [
    ("c1_mix", None), ("sketch_grid", None), ("tail_r64", 5), ("dump_replay", None),
])
def test_first_operations_pass_their_checks(workloads, tmp_path, name, ops):
    wl = workloads[name]
    wl.prepare(tmp_path)
    for i in range(wl.round_len if ops is None else ops):
        result = wl.op(i)
        assert result.failure is None, (name, i, result)


@pytest.mark.parametrize("name", ["c1_mix", "sketch_grid", "tail_r64", "dump_replay"])
def test_loop_matches_harness(workloads, tmp_path, name):
    # the start-up check the benchmark worker runs before it times anything;
    # dump_replay's reads the dumps its prepare writes
    wl = workloads[name]
    wl.prepare(tmp_path)
    assert wl.check_equivalence() > 0
