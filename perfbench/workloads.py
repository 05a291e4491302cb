"""The four benchmark workloads: inputs made from a seed, one measured body,
and the checks that decide whether each operation succeeded.

The package is driven through its module attributes (``solver.solve``,
``sections.fit_ellipsoid``, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from maslab import mc, regularity, sections, solver
from maslab.errors import MaslabError
from maslab.grid import halfspace_rule, indicator_box_rule
from maslab.kernels import KernelSpec, midpoint_rule
from maslab.potential import make_potential

from exact import exit_right_probability

RECORDED = Path(__file__).with_name("recorded.json")

# Solve outputs must match the values recorded at the benchmark's first
# commit to this absolute tolerance (solutions lie in [0, 1]); it admits
# solver changes at the residual level but not a change of discretization.
PROBE_TOL = 1e-6
# Discrete maximum principle slack: data lie in [0, 1], so must u.
DMP_SLACK = 1e-9


class Ops:
    """Operation accounting: a raised MaslabError or a failed check fails one
    operation and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name: str, op) -> None:
        self.attempted += 1
        try:
            problems = op()
        except MaslabError as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))


class Body:
    """Observations of one body: what the layer metrics are computed from."""

    def __init__(self, keep_problems: bool):
        self.keep_problems = keep_problems
        self.solves: list[dict] = []
        self.mc: list[dict] = []
        self.grid_err: float | None = None

    def release(self) -> None:
        """Drop the kept problems and solutions (they hold the node arrays)."""
        for s in self.solves:
            s.pop("problem", None)
            s.pop("u", None)


def _node_stats(prob) -> dict:
    arrays = [prob.PID, prob.COEF, prob.CONST, prob.WBAR, prob.CROW, prob.CCOL,
              prob.CW]
    if isinstance(prob._mults, np.ndarray):
        arrays.append(prob._mults)
    in_box = prob.CROW.size / (1 << prob.n)   # one row per corner weight
    return {"unknowns": prob.P, "nodes": prob.Jtot,
            "in_box": in_box, "pairs": 2 * prob.Jtot,
            "node_bytes": sum(a.nbytes for a in arrays)}


def _solve_and_check(body: Body, tag: str, prob, tolerance: float, probes,
                     recorded) -> tuple[list[str], object, object]:
    u, rep = solver.solve(prob, f=0.0, tolerance=tolerance)
    rec = dict(_node_stats(prob), tag=tag, iterations=rep.iterations,
               final_residual=rep.final_residual)
    if body.keep_problems:
        rec.update(problem=prob, u=u)
    body.solves.append(rec)
    problems = []
    if not rep.converged:
        problems.append("not converged")
    if not rep.final_residual <= tolerance:
        problems.append(f"residual {rep.final_residual:.3e} > {tolerance:g}")
    if u.values.min() < -DMP_SLACK or u.values.max() > 1.0 + DMP_SLACK:
        problems.append(f"u outside [0, 1]: [{u.values.min():.3e}, "
                        f"{u.values.max():.6f}]")
    got = u.eval(np.asarray(probes, dtype=float))
    dev = float(np.abs(got - np.asarray(recorded)).max())
    if not dev <= PROBE_TOL:
        problems.append(f"probe values differ from recorded by {dev:.3e}")
    return problems, u, rep


def load_recorded() -> dict:
    return json.loads(RECORDED.read_text())


# ---------------------------------------------------------------------------
# pucci_1d: the criterion-10 solve, M+ u = 0 on [-9, 9] with indicator data
# ---------------------------------------------------------------------------

class Pucci1D:
    name = "pucci_1d"
    H = 1 / 128
    TOL = 1e-10
    JITTERS = 8                  # seeded data: exterior box shifted by k/32
    PROBES = [[-6.0], [-3.0], [0.0], [3.0], [6.0], [8.5]]

    def __init__(self, seed: int, recorded: dict | None = None):
        self.k = int(np.random.default_rng(seed).integers(self.JITTERS))
        self.pot = make_potential("iso_quadratic", 1)
        self.spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
        self.recorded = recorded and recorded[self.name][str(self.k)]

    def problem(self, k: int | None = None):
        shift = (self.k if k is None else k) / 32
        data = indicator_box_rule([9.0 + shift], [12.0 + shift], 1.0)
        return solver.DiscreteProblem(self.pot, self.spec, [-9.0], [9.0], self.H,
                                      data)

    def body(self, ops: Ops, body: Body, tracer) -> None:
        def op():
            problems, u, rep = _solve_and_check(body, "", self.problem(), self.TOL,
                                                self.PROBES, self.recorded)
            r = regularity.holder_estimate(u, self.pot, [0.0], self.spec,
                                           C0=rep.final_residual)
            # criterion-10 bounds
            if r["grid_artifact"] or not (r["alpha_hat"] > 0 and r["r2"] >= 0.9
                                          and r["seminorm_constant"] <= 0.5):
                problems.append(f"holder fit out of bounds: {r}")
            return problems
        ops.run("pucci_1d solve", op)


# ---------------------------------------------------------------------------
# pucci_2d: M+ u = 0 on [-1, 1]^2, perturbed (pointwise compile) and aniso
# (shift-invariant compile)
# ---------------------------------------------------------------------------

class Pucci2D:
    name = "pucci_2d"
    TOL = 1e-10
    CASES = {   # tag: (potential id, params, h)
        "perturbed": ("perturbed_quadratic", [0.1], 1 / 12),
        "aniso": ("aniso_quadratic", [4.0, 0.0, 0.0, 1.0], 1 / 16),
    }
    PROBES = [[0.0, 0.0], [0.5, 0.5], [-0.5, 0.5], [0.75, -0.25], [-0.8, -0.8]]

    def __init__(self, seed: int, recorded: dict | None = None):
        # the data do not depend on the seed: halfspace data 1{x_0 > 1}
        self.spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
        self.data = halfspace_rule(0, 1.0)
        self.pots = {tag: make_potential(pid, 2, params)
                     for tag, (pid, params, _) in self.CASES.items()}
        self.recorded = recorded and recorded[self.name]

    def problem(self, tag: str):
        return solver.DiscreteProblem(self.pots[tag], self.spec, [-1.0, -1.0],
                                      [1.0, 1.0], self.CASES[tag][2], self.data)

    def body(self, ops: Ops, body: Body, tracer) -> None:
        for tag in self.CASES:
            if tracer is not None:
                tracer.tag = tag
            ops.run(f"pucci_2d {tag} solve", lambda: _solve_and_check(
                body, tag, self.problem(tag), self.TOL, self.PROBES,
                self.recorded[tag])[0])
        if tracer is not None:
            tracer.tag = ""


# ---------------------------------------------------------------------------
# sections_2d: the criterion-6 probes, deformation checks and the two covers
# ---------------------------------------------------------------------------

class Sections2D:
    name = "sections_2d"
    R = 0.5
    RAYS = 128
    TRIALS = 48
    POTENTIALS = [("iso_quadratic", []), ("aniso_quadratic", [25.0, 0.0, 0.0, 1.0]),
                  ("perturbed_quadratic", [0.1])]

    def __init__(self, seed: int, recorded: dict | None = None):
        rng = np.random.default_rng(seed)
        self.pots = [make_potential(pid, 2, params) for pid, params in self.POTENTIALS]
        # off-centre centres at distance 0.5-0.8: far enough from the origin
        # that the perturbed section is not a disc
        rad = rng.uniform(0.5, 0.8, len(self.pots))
        ang = rng.uniform(0.0, 2.0 * math.pi, len(self.pots))
        self.centres = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)
        self.deform_centre = self.centres[-1]
        ax = np.linspace(0.0, 1.0, 16)
        gm = np.meshgrid(ax, ax, indexing="ij")
        self.cover_points = np.stack([a.ravel() for a in gm], axis=-1)
        self.cz_lattice = np.linspace(-4.0, 4.0, 1601)[:, None]
        self.cz_mask = np.abs(self.cz_lattice[:, 0]) < 1.0 / math.sqrt(2.0)
        self.iso1 = make_potential("iso_quadratic", 1)

    def probe(self, pot, c) -> list[str]:
        r = self.R
        gam = sections.engulfing_probe(pot, c, r, self.TRIALS)
        T = sections.fit_ellipsoid(pot, c, r, self.RAYS)
        dirs = sections.unit_directions(2, 64)
        bd = c[None, :] + sections.boundary_radii(pot, c, r, dirs)[:, None] * dirs
        span = bd.max(axis=0) - bd.min(axis=0)
        lo, hi = bd.min(axis=0) - 0.05 * span, bd.max(axis=0) + 0.05 * span
        axes = [np.linspace(lo[i], hi[i], 260) for i in range(2)]
        gm = np.meshgrid(*axes, indexing="ij")
        lattice = np.stack([a.ravel() for a in gm], axis=-1)
        cell = (axes[0][1] - axes[0][0]) * (axes[1][1] - axes[1][0])
        m_r = sections.section_measure(pot, c, r, lattice, cell)
        m_h = sections.section_measure(pot, c, r / 2, lattice, cell)
        dbl = m_r / m_h if m_h > 0 else math.inf
        problems = []   # criterion-6 bounds
        if not gam <= 8.0:
            problems.append(f"engulfing gamma {gam:.3f} > 8")
        if not T.inner_radius >= 0.2:
            problems.append(f"inner radius {T.inner_radius:.3f} < 0.2")
        if not 1.0 <= dbl <= 4.0 * 1.05:
            problems.append(f"doubling {dbl:.3f} outside [1, 4.2]")
        return problems

    def deformation(self) -> list[str]:
        rep = sections.deformation_checks(self.pots[-1], 1.0, self.deform_centre)
        problems = []
        if rep["failure"]:
            problems.append(f"delta_hat_min {rep['delta_hat_min']:.2e} < 1e-4")
        if not all(rep["shell_inequality_ok"]):
            problems.append(f"shell inequality failed: {rep['shell_inequality_ok']}")
        return problems

    def besicovitch(self) -> list[str]:
        eps = 0.1
        rep = sections.besicovitch_cover(self.pots[-1], self.cover_points, 0.2, eps)
        m_hat = rep.overlap_max / math.log(1.0 / eps)
        problems = []   # criterion-7 bounds
        if rep.measure_ratio != 1.0:
            problems.append(f"cover misses points: ratio {rep.measure_ratio}")
        if not m_hat <= 8.0:
            problems.append(f"overlap constant {m_hat:.2f} > 8")
        return problems

    def cz(self) -> list[str]:
        theta = 0.5
        rep = sections.cz_decompose(self.iso1, self.cz_lattice, self.cz_mask, theta,
                                    8.0 / 1600)
        problems = [] if rep.measure_ratio < 1.0 else ["|A| / |union| not < 1"]
        for s in rep.selected:
            ins = sections.contains_many(self.iso1, np.array(s.center), s.r,
                                         self.cz_lattice)
            if abs(int((ins & self.cz_mask).sum()) - theta * int(ins.sum())) > 2.0:
                problems.append(f"density off by more than 2 cells at {s.center}")
        return problems

    def body(self, ops: Ops, body: Body, tracer) -> None:
        for pot, c in zip(self.pots, self.centres):
            for centre in (np.zeros(2), c):
                ops.run(f"probe {pot.id} at {np.round(centre, 3).tolist()}",
                        lambda: self.probe(pot, centre))
        ops.run("deformation_checks", self.deformation)
        ops.run("besicovitch_cover", self.besicovitch)
        ops.run("cz_decompose", self.cz)


# ---------------------------------------------------------------------------
# exit_1d: criterion 4 made exact
# ---------------------------------------------------------------------------

class Exit1D:
    name = "exit_1d"
    SIGMA = 1.5
    H = 1 / 1024
    # The default 1e-10 sits below the roundoff floor of this grid's direct
    # solves (about mass * eps); 1e-9 is reached by the policy iteration.
    TOL = 1e-9
    PATHS = 10_000
    ETA = 0.025
    PROBES = [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75]
    # grid error at h = 1/1024 is 3.39e-4 (order about 1); a change that
    # loses accuracy beyond this tolerance fails the solve
    GRID_TOL = 4e-4

    def __init__(self, seed: int, recorded: dict | None = None):
        rng = np.random.default_rng(seed)
        self.pot = make_potential("iso_quadratic", 1)
        self.spec = KernelSpec(1.0, 1.0, self.SIGMA, "fixed_midpoint")
        self.data = halfspace_rule(0, 1.0)
        self.mc_seed = int(rng.integers(2 ** 32))
        # One start on each side.  The expected exit time from x is
        # proportional to (1 - x^2)^{sigma/2} (Getoor 1961), so the second
        # start is placed to keep the pair's expected number of jumps the same
        # for every seed: the seed moves the data, not the amount of work.
        s = self.SIGMA / 2
        a = float(rng.uniform(0.3, 0.5))
        pair = 2.0 * (1.0 - 0.4 ** 2) ** s
        b = math.sqrt(1.0 - (pair - (1.0 - a * a) ** s) ** (1.0 / s))
        self.x0 = [a, -b]
        self.exact_probes = np.array([exit_right_probability(x, self.SIGMA)
                                      for x in self.PROBES])
        self.exact_x0 = [exit_right_probability(x, self.SIGMA) for x in self.x0]
        self.recorded = recorded and recorded[self.name]

    def problem(self):
        return solver.DiscreteProblem(self.pot, self.spec, [-1.0], [1.0], self.H,
                                      self.data, "linear",
                                      kernel_rule=midpoint_rule(self.spec))

    def solve_op(self, body: Body) -> list[str]:
        probes = [[x] for x in self.PROBES]
        problems, u, _ = _solve_and_check(body, "", self.problem(), self.TOL,
                                          probes, self.recorded)
        body.grid_err = float(np.abs(u.eval(np.array(probes)) - self.exact_probes).max())
        if not body.grid_err <= self.GRID_TOL:
            problems.append(f"grid error {body.grid_err:.3e} > {self.GRID_TOL:g}")
        return problems

    def mc_op(self, body: Body, i: int) -> list[str]:
        cfg = mc.JumpProcessConfig(self.pot, KernelSpec(1.0, 1.0, self.SIGMA),
                                   eta=self.ETA, payoff=self.data,
                                   seed=self.mc_seed + i)
        res = mc.estimate_exit_payoff(cfg, [self.x0[i]], [-1.0], [1.0],
                                      paths=self.PATHS)
        body.mc.append(res)
        err = abs(res["mean"] - self.exact_x0[i])
        bound = 3.0 * res["std_error"] + res["bias_bound"]
        return [] if err <= bound else [
            f"|mc - exact| {err:.4f} > 3 se + bias {bound:.4f} at x0={self.x0[i]}"]

    def body(self, ops: Ops, body: Body, tracer) -> None:
        ops.run("exit_1d solve", lambda: self.solve_op(body))
        for i in range(len(self.x0)):
            ops.run(f"exit_1d mc x0={self.x0[i]:.4f}", lambda: self.mc_op(body, i))


WORKLOADS = {w.name: w for w in (Pucci1D, Pucci2D, Sections2D, Exit1D)}
