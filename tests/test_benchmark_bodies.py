"""One body of each benchmark workload (perfbench/workloads.py), seed 1:
operations are attempted and none fails the benchmark's own checks, so a
change the benchmark would refuse as incorrect fails here first."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_body_of_each_workload_passes_its_checks(name):
    wl = workloads.WORKLOADS[name](1, workloads.load_recorded())
    ops = workloads.Ops()
    wl.body(ops, workloads.Body(keep_problems=False), None)
    assert ops.attempted > 0
    assert ops.failed == 0, ops.failures
