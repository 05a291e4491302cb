"""Record the solve probe values that the benchmark's checks compare against.

    python3 perfbench/record.py

Writes perfbench/recorded.json.  Rerun only when a change of the discrete
scheme is intended, and say so where the change is described.
"""

import json
import time

import run


def main():
    run.prepare()           # before numpy is imported
    import numpy as np
    import workloads
    from maslab import solver

    def probe_values(prob, tol, probes):
        t0 = time.perf_counter()
        u, rep = solver.solve(prob, f=0.0, tolerance=tol)
        print(f"  iterations {rep.iterations} residual {rep.final_residual:.2e} "
              f"{time.perf_counter() - t0:.2f} s")
        return u.eval(np.asarray(probes, dtype=float)).tolist()

    rec = {}
    p1 = workloads.Pucci1D(0)
    rec[p1.name] = {}
    for k in range(p1.JITTERS):
        print(f"pucci_1d shift {k}/32")
        rec[p1.name][str(k)] = probe_values(p1.problem(k), p1.TOL, p1.PROBES)
    p2 = workloads.Pucci2D(0)
    rec[p2.name] = {}
    for tag in p2.CASES:
        print(f"pucci_2d {tag}")
        rec[p2.name][tag] = probe_values(p2.problem(tag), p2.TOL, p2.PROBES)
    ex = workloads.Exit1D(0)
    print("exit_1d")
    rec[ex.name] = probe_values(ex.problem(), ex.TOL, [[x] for x in ex.PROBES])
    workloads.RECORDED.write_text(json.dumps(rec, indent=1) + "\n")


if __name__ == "__main__":
    main()
