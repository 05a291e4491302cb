"""maslab benchmark: one workload per process, measured for a fixed time.

    python3 perfbench/run.py --workload pucci_1d --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (wall_probes, setup_s, peak_rss_mb; wall_s is printed
above it); with ``--trace 1`` it holds the per-layer metrics of a traced run.  Details, the environment and, for a
traced run, every span go to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("pucci_1d", "pucci_2d", "sections_2d", "exit_1d")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS = 3              # fresh processes per untraced run; each times setup_s
APPLY_SAMPLES = 5        # calls of apply / assemble on the final iterate


def prepare() -> dict:
    """Pin BLAS and OpenMP to one thread and put the checkout's ``src`` first
    on the import path.  Must run before numpy is imported.

    One thread, not nproc: the host shares its cores, and a second BLAS
    thread that spins while it waits for a core slowed the dense solves by
    several times whenever anything else ran (see README.md)."""
    nproc = len(os.sched_getaffinity(0))
    threads = {}
    for var in THREAD_VARS:
        os.environ[var] = threads[var] = "1"
    init = ROOT / "src" / "maslab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    return {"nproc": nproc, "threads": threads}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true",
                   help="internal: one process of an untraced run (prints 'ready' "
                        "after set-up, then one JSON report)")
    return p.parse_args(argv)


def run_workers(args) -> tuple[list[float], list[dict]]:
    """The untraced run: WORKERS fresh processes one after another, each
    measuring bodies for an equal share of --seconds.  A process's set-up
    time (imports, inputs, exact reference) is the time from its start until
    it reports ready.  Several processes per run also average out what
    differs from one process to the next: on the recording host the median
    body of the same workload differed by up to 10% between processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
           "--worker"]
    setup_times, reports = [], []
    for _ in range(WORKERS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup_times.append(time.perf_counter() - t0)
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: worker failed (exit {proc.returncode})")
        reports.append(json.loads(out))
    return setup_times, reports


def worker(args) -> int:
    """One process of an untraced run: set up, report ready, then run bodies
    under the speed probe for --seconds and print one JSON report."""
    import workloads
    from speed import SpeedProbe
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_recorded())
    print("ready", flush=True)
    ops = workloads.Ops()
    # Another body starts while it would end nearer the deadline than
    # stopping now does, so a process lasts its share give or take half a body.
    deadline = time.perf_counter() + args.seconds
    bodies, probes = [], []
    while not bodies or bodies[-1].wall / 2 + time.perf_counter() <= deadline:
        probes.append(SpeedProbe())
        bodies.append(run_body(wl, ops, probe=probes[-1]))
    print(json.dumps({
        "walls": [b.wall for b in bodies],
        "probe_medians": [p.median() for p in probes],
        "probe_counts": [len(p.samples) for p in probes],
        "grid_err": bodies[0].grid_err,
        "attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
    return 0


def environment(base: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return dict(base, numpy=numpy.__version__, scipy=scipy.__version__,
                blas=f"{blas.get('name')} {blas.get('version')}",
                python=sys.version.split()[0], commit=commit or "unknown")


def run_body(wl, ops, tracer=None, probe=None):
    """One body; with a tracer, wrappers are installed only while it runs.
    With a speed probe, the probe samples the host while the body runs and
    the time its samples take is left out of ``body.wall``."""
    import workloads
    body = workloads.Body(keep_problems=tracer is not None)
    if tracer is not None:
        install_wrappers(tracer)
        body.spans = [len(tracer.spans)]
    if probe is not None:
        probe.start()
    c0, t0 = os.times(), time.perf_counter()
    try:
        wl.body(ops, body, tracer)
    finally:
        t1, c1 = time.perf_counter(), os.times()
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.uninstall()
            body.spans.append(len(tracer.spans))
    body.wall = t1 - t0 - (probe.spent if probe is not None else 0.0)
    body.cpu = (c1.user - c0.user) + (c1.system - c0.system)
    return body


# -- traced run ----------------------------------------------------------------

def install_wrappers(tracer) -> None:
    from maslab import mc, regularity, sections, solver
    from maslab.potential import Potential
    tracer.install(solver.DiscreteProblem, "__init__", "solver.compile")
    tracer.install(solver, "solve", "solver.solve")
    tracer.install(solver, "make_plan", "kernels.make_plan")
    tracer.install(solver, "point_quadrature", "kernels.point_quadrature")
    tracer.install(Potential, "shifted_height", "potential.shifted_height")
    for fn in ("fit_ellipsoid", "engulfing_probe", "section_measure",
               "deformation_checks", "besicovitch_cover", "cz_decompose",
               "boundary_radii"):
        tracer.install(sections, fn, f"sections.{fn}")
    tracer.install(mc, "estimate_exit_payoff", "mc.estimate_exit_payoff")
    tracer.install(regularity, "holder_estimate", "regularity.holder_estimate")


def body_layer_metrics(tracer, body) -> dict:
    totals = tracer.totals(*body.spans)

    def inclusive(name, tag=None):
        return sum(row[1] for (n, t), row in totals.items()
                   if n == name and (tag is None or t == tag))

    def calls(name, tag=None):
        return sum(row[0] for (n, t), row in totals.items()
                   if n == name and (tag is None or t == tag))

    solves, runs = body.solves, body.mc
    unknowns = sum(s["unknowns"] for s in solves)
    nodes = sum(s["nodes"] for s in solves)
    pairs = sum(s["pairs"] for s in solves)
    m = {
        "solver.solve_s": inclusive("solver.solve"),
        "solver.iterations": sum(s["iterations"] for s in solves),
        "solver.final_residual": max((s["final_residual"] for s in solves), default=0.0),
        "solver.nodes_total": nodes,
        "kernels.nodes_per_point": nodes / unknowns if unknowns else 0.0,
        "solver.inbox_fraction": sum(s["in_box"] for s in solves) / pairs if pairs else 0.0,
        "solver.node_bytes": sum(s["node_bytes"] for s in solves),
    }
    for tag in (None, "perturbed", "aniso"):
        sfx = f".{tag}" if tag else ""
        m["solver.compile_s" + sfx] = inclusive("solver.compile", tag)
        m["kernels.make_plan_s" + sfx] = inclusive("kernels.make_plan", tag)
        m["kernels.point_quadrature_calls" + sfx] = calls("kernels.point_quadrature", tag)
        m["kernels.point_quadrature_s" + sfx] = inclusive("kernels.point_quadrature", tag)
    m.update({
        "sections.fit_ellipsoid_s": inclusive("sections.fit_ellipsoid"),
        "sections.fit_ellipsoid_calls": calls("sections.fit_ellipsoid"),
        "sections.engulfing_probe_s": inclusive("sections.engulfing_probe"),
        "sections.section_measure_s": inclusive("sections.section_measure"),
        "sections.deformation_checks_s": inclusive("sections.deformation_checks"),
        "sections.cover_s": (inclusive("sections.besicovitch_cover")
                             + inclusive("sections.cz_decompose")),
        "sections.boundary_radii_calls": calls("sections.boundary_radii"),
        "potential.shifted_height_calls": calls("potential.shifted_height"),
        "potential.shifted_height_s": inclusive("potential.shifted_height"),
        "mc.estimate_s": inclusive("mc.estimate_exit_payoff"),
        "mc.paths_per_s": (sum(r["paths"] for r in runs)
                           / inclusive("mc.estimate_exit_payoff") if runs else 0.0),
        "mc.mean_jumps": statistics.fmean(r["mean_jumps"] for r in runs) if runs else 0.0,
        "mc.std_error": max((r["std_error"] for r in runs), default=0.0),
        "regularity.holder_estimate_s": inclusive("regularity.holder_estimate"),
        "process.cpu_s": body.cpu,
    })
    return m


def sample_apply_assemble(body) -> dict:
    """Medians of repeated apply / assemble calls on each final iterate,
    summed over the body's problems."""
    apply_s = assemble_s = 0.0
    for s in body.solves:
        prob, u = s["problem"], s["u"].values.ravel()
        slopes = prob.node_slopes(prob.node_deltas(u))
        a, b = [], []
        for _ in range(APPLY_SAMPLES):
            t0 = time.perf_counter()
            prob.apply(u)
            t1 = time.perf_counter()
            prob.assemble(slopes)
            b.append(time.perf_counter() - t1)
            a.append(t1 - t0)
        apply_s += statistics.median(a)
        assemble_s += statistics.median(b)
    n = APPLY_SAMPLES if body.solves else 0
    return {"solver.apply_s": apply_s, "solver.assemble_s": assemble_s,
            "solver.apply_samples": n}


UNITS = {"wall_probes": "probe", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"solver.iterations": "count", "solver.final_residual": "max-abs",
               "solver.nodes_total": "count", "kernels.nodes_per_point": "nodes/point",
               "solver.inbox_fraction": "fraction", "solver.node_bytes": "B-computed",
               "mc.paths_per_s": "paths/s", "mc.mean_jumps": "jumps/path",
               "mc.std_error": "probability"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "count" if "calls" in name or "samples" in name or "bodies" in name else "s"


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    base_env = prepare()
    if args.worker:
        return worker(args)

    import maslab
    if not Path(maslab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported {maslab.__file__}, not the checkout's")
    import workloads
    from spans import Tracer

    env = environment(base_env)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env}
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"trace={args.trace} seconds={args.seconds:g}",
             "environment: " + " ".join(f"{k}={v}" for k, v in env.items())]

    if not args.trace:
        setup_times, reports = run_workers(args)
        walls = [w for r in reports for w in r["walls"]]
        probes = [m for r in reports for m in r["probe_medians"]]
        ratios = [w / m for w, m in zip(walls, probes)]
        values = {"wall_probes": statistics.median(ratios),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in reports)}
        result.update(wall_samples=walls, wall_probes_samples=ratios,
                      probe_medians=probes, setup_samples=setup_times,
                      probe_counts=[c for r in reports for c in r["probe_counts"]],
                      bodies_per_process=[len(r["walls"]) for r in reports])
        lines += [f"wall_probes  {values['wall_probes']:.1f} probe   median of "
                  f"{len(walls)} bodies in {WORKERS} processes, each body over "
                  f"the median of its {min(result['probe_counts'])}+ probe samples",
                  f"wall_s       {statistics.median(walls):.4f} s   median of "
                  f"{len(walls)} bodies (not bounded: see perfbench/README.md)",
                  f"probe        {statistics.median(probes):.6f} s   median over "
                  f"bodies of each body's median sample",
                  f"setup_s      {values['setup_s']:.4f} s   median of "
                  f"{len(setup_times)} fresh processes",
                  f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB   largest of the "
                  f"{WORKERS} processes"]
        units = UNITS
        ops = workloads.Ops()
        for r in reports:
            ops.attempted += r["attempted"]
            ops.failed += r["failed"]
            ops.failures += r["failures"]
        grid_errs = [r["grid_err"] for r in reports if r["grid_err"] is not None]
    else:
        # a warm-up body, then traced and untraced bodies in turn, so that
        # the overhead compares bodies run under the same conditions
        wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_recorded())
        ops = workloads.Ops()
        start = time.perf_counter()
        tracer = Tracer()
        run_body(wl, ops)
        traced, untraced = [run_body(wl, ops, tracer)], [run_body(wl, ops)]
        while traced[-1].wall + time.perf_counter() <= start + args.seconds:
            traced[-1].release()
            traced.append(run_body(wl, ops, tracer))
            if untraced[-1].wall + time.perf_counter() > start + args.seconds:
                break
            untraced.append(run_body(wl, ops))
        per_body = [body_layer_metrics(tracer, b) for b in traced]
        values = {k: statistics.median(m[k] for m in per_body) for k in per_body[0]}
        values.update(sample_apply_assemble(traced[-1]))
        overhead = (statistics.median(b.wall for b in traced)
                    - statistics.median(b.wall for b in untraced))
        values["trace.overhead_s"] = overhead
        values["trace.traced_bodies"] = len(traced)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "environment": env})
        result.update(untraced_walls=[b.wall for b in untraced],
                      traced_walls=[b.wall for b in traced])
        lines += [f"{k:<40} {v:.6g} {layer_unit(k)}" for k, v in values.items()]
        lines.append(f"tracing overhead {overhead:.4f} s per body (traced "
                     f"{len(traced)}, untraced {len(untraced)} bodies)")
        units = {k: layer_unit(k) for k in values}
        grid_errs = [b.grid_err for b in traced if b.grid_err is not None]

    if grid_errs:
        wl_class = workloads.WORKLOADS[args.workload]
        lines.append(f"grid_err     {grid_errs[0]:.4e} (max |u_h - exact| at "
                     f"{len(wl_class.PROBES)} probes, tolerance {wl_class.GRID_TOL:g})")
        result["grid_err"] = grid_errs[0]
    lines.append(f"operations: attempted {ops.attempted}, failed {ops.failed}")
    lines += [f"FAILED {f}" for f in ops.failures]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    final = {"correct": ops.failed == 0, "attempted": ops.attempted,
             "failed": ops.failed, "metrics": metrics}
    result.update(final, failures=ops.failures)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
