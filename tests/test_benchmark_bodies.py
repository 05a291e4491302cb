"""One body of each benchmark workload (perfbench/workloads.py), seed 1:
operations are attempted and none fails the benchmark's own checks, so a
change the benchmark would refuse as incorrect fails here first.  A traced
body (perfbench/run.py --trace 1) must also time every layer the workload
runs, so a rename that unhooks one of the tracer's wrappers fails here."""

import sys
from pathlib import Path

import pytest

from maslab import kernels, solver

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_body_of_each_workload_passes_its_checks(name):
    wl = workloads.WORKLOADS[name](1, workloads.load_recorded())
    ops = workloads.Ops()
    wl.body(ops, workloads.Body(keep_problems=False), None)
    assert ops.attempted > 0
    assert ops.failed == 0, ops.failures


SOLVER_LAYERS = ["solver.compile_s", "kernels.make_plan_s", "kernels.point_quadrature_calls",
                 "solver.solve_s", "solver.apply_samples"]
# potential.shifted_height_* read 0 where every potential is quadratic
LAYERS = {
    "pucci_1d": SOLVER_LAYERS + ["regularity.holder_estimate_s"],
    "pucci_2d": SOLVER_LAYERS + [f"{m}.{tag}" for m in SOLVER_LAYERS[:3]
                                 for tag in ("perturbed", "aniso")],
    "exit_1d": SOLVER_LAYERS + ["mc.estimate_s"],
    "sections_2d": ["sections.fit_ellipsoid_calls", "sections.boundary_radii_calls",
                    "potential.shifted_height_calls", "sections.cover_s"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_body_times_the_layers_of_its_workload(name):
    wl = workloads.WORKLOADS[name](1, workloads.load_recorded())
    ops, tracer = workloads.Ops(), spans.Tracer()
    body = run.run_body(wl, ops, tracer)
    assert ops.attempted > 0
    assert ops.failed == 0, ops.failures
    assert solver.make_plan is kernels.make_plan  # the wrappers are gone
    metrics = {**run.body_layer_metrics(tracer, body), **run.sample_apply_assemble(body)}
    assert [m for m in LAYERS[name] if not metrics[m] > 0] == []


def test_exit_1d_alone_takes_the_fixed_policy_path():
    # exit_1d's linear problem assembles S straight from its triplets and
    # numbers no pattern; the M+ problems of pucci_1d and pucci_2d (lam < Lam)
    # number their summed pattern
    recorded = workloads.load_recorded()
    exit_1d = workloads.Exit1D(1, recorded).problem()
    assert exit_1d.fixed_policy and not hasattr(exit_1d, "_gather")
    pucci_2d = workloads.Pucci2D(1, recorded)
    for prob in [workloads.Pucci1D(1, recorded).problem()] + [
            pucci_2d.problem(tag) for tag in pucci_2d.CASES]:
        assert not prob.fixed_policy and hasattr(prob, "_gather")
