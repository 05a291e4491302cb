"""Monotone grid scheme for M+/M- u = f, linear and Isaacs equations.

The scheme is A u = f.  At each unknown, A u is the sup (M+), the inf (M-),
a fixed rule (linear) or the inf-sup (Isaacs) over policy matrices
S + diag(d) applied to u, plus the exterior part.  S >= 0 holds
interpolation weights times kernel mass, and d + (row sum of S) < 0 because
kernel mass leaves the box.  So A is monotone (Oberman 2006), the discrete
comparison principle holds exactly, and solve() finds u by policy (Howard)
iteration.

Each policy step freezes the extremal slopes at the current iterate and
solves the frozen-policy linear system for the correction, whose right-hand
side is the current residual, by GMRES.  The preconditioner is one FFT
circulant per problem, built from one row of a policy matrix (Strang 1986;
Lei and Sun 2013 for fractional diffusion): for a quadratic potential the
node set is shift-invariant, so policy matrices are Toeplitz up to the box
edge and the policy.  No P x P array or factor is formed.  Howard's
algorithm on a monotone scheme converges with inexact inner solves
(Bokanowski, Maroso and Zidani 2009), so the loop is the only solve path:
it returns its last finite iterate and names its exit -- the tolerance, the
roundoff floor eps * mass.max() * sup|u| (within FLOOR_FACTOR), a stalled
step, a correction that is not finite, or POLICY_STEPS.

Policy steps are inexact Newton steps (Eisenstat and Walker 1996): while
the policy may still change, the next step will move the slopes anyway, so
GMRES stops at the forcing term max(KRYLOV_RTOL, min(FORCING_MAX,
res_k / res_0)) relative to the step's right-hand side, res_k the max-norm
residual before step k.  The final step, whose slopes equal the previous
step's, solves to KRYLOV_RTOL.  On the criterion-10 problem this cuts the
GMRES iterations from 61 to 35 in the same 5 policy steps.

A linear equation, or an extremal one with lam == Lam, has one policy, so
its first step solves A u = f outright.  Its GMRES stops where the
tolerance asks, or at the roundoff floor of its own residual, whichever is
larger: the 2-norm of the floor vector eps * mass * sup|u| is at most
eps * |mass|_2 * sup|u|, and GMRES stops at FLOOR_FACTOR times that.  Before
the solve, sup|u| is estimated as the larger of the iterate's and the
data's bound (the maximum principle when f = 0) plus the sup of the
preconditioned f.  The 2-norm stop bounds the max-norm residual that the
outer loop tests: on the exit problem of the benchmark (P = 2049,
tolerance 1e-9, floor 5.9e-9 in the 2-norm) one step of 9 GMRES iterations
ends at a max-norm residual of 6.5e-10.  Where a 2-norm floor stop leaves
the max-norm residual above the tolerance, a second step, whose slopes
equal the first's, refines it at KRYLOV_RTOL.  That step is taken even when
the first residual already lies within FLOOR_FACTOR of the floor: the first
GMRES stopped at a bound on the floor, not at the floor itself.

The node set is compiled by kernels.point_quadrature over blocks of unknowns
(each point gets the nodes of its own sections), and operator values and
policies come from kernels.operator_values and kernels.policy_slopes, the
same reduction the pointwise operators use.  Nodes whose pair points both
fall outside the box see u only through 2u_p, so each point's such nodes
are compiled, exactly, as one node per distinct exterior value.  Only the
near slice of each block, [:near] of point_quadrature's [near | far]
layout, goes through the box test and the interpolation; a far node is
longer than the box diameter (the plan's far_radius), so its pair points
are exterior by construction and go straight to the exterior rule and the
fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, DataError
from .grid import ExteriorRule, GridFunction
from .kernels import (KernelRule, KernelSpec, _block_points, equation_rules,
                      group_multipliers, make_plan, operator_values,
                      point_quadrature, policy_slopes, policy_values,
                      rule_multipliers)
from .potential import Potential

# GMRES restart: a policy step took 4-19 iterations on 1D, 2D and masked
# problems, 36 at Lam/lam = 10; 60 holds 61 vectors of length P (16 MB at 33k).
KRYLOV_RESTART = 60
# Cycles per policy step; a step that ends at the cap is reported.
KRYLOV_CYCLES = 2
# Inner stop relative to the step's right-hand side (the absolute stop is
# 0.1 * tolerance) for the final step of a policy that may change, whose
# slopes equal the previous step's; the floor of every other such step's
# forcing term.  One at the roundoff floor made GMRES stagnate.
KRYLOV_RTOL = 1e-10
# Ceiling of the forcing term res_k / res_0 of a policy step whose policy
# may still change.
FORCING_MAX = 1e-2
# The policy loop stops within FLOOR_FACTOR of the roundoff floor
# eps * mass.max() * sup|u| of its linear systems, which no policy step gets
# below: on the pucci_1d problem (P = 2305) the policy residuals stalled at
# 1.0-1.4 times the floor, and 4 covers that spread.
FLOOR_FACTOR = 4.0
# Policy steps per solve; a solve that ends here reports "step_cap".
POLICY_STEPS = 40
# Cells of the dense (rows x lattice points) table that numbers the summed
# entries of S, one block of rows at a time.  Its 128 kB of flags and 512 kB
# of int32 ranks stay in cache and set no memory peak: on the pucci_1d
# problem the slot map took 22 ms, against 31 ms at 2^20 cells and 95 ms for
# np.unique of the (row, column) pairs.
SLOT_TABLE = 1 << 17


def _join(blocks: list) -> np.ndarray:
    """Concatenate per-block arrays, releasing the blocks as soon as they
    are copied so that only one node array exists twice at a time."""
    out = np.concatenate(blocks)
    blocks.clear()
    return out


def _rows(mask: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The rows of pts where mask is true, selected column by column and
    returned column-major (row selection is slow on column-major arrays)."""
    return np.stack([np.compress(mask, c) for c in pts.T]).T


def _slot_map(pid, crow, ccol, rowptr, N: int):
    """Each triplet's place in the summed, sorted CSR pattern of S (rows
    pid[crow], columns ccol; unknown p's triplets are rowptr[p]:rowptr[p+1]),
    with that pattern's column indices and row pointers, all int32.  Blocks
    of rows mark their entries in a dense (rows x N) table and number the
    marked cells in order: no sort."""
    P = rowptr.size - 1
    rows = max(1, SLOT_TABLE // N)
    slot = np.empty(ccol.size, dtype=np.int32)
    indptr = np.zeros(P + 1, dtype=np.int32)
    indices, nnz = [], 0
    for r0 in range(0, P, rows):
        r1 = min(P, r0 + rows)
        t = slice(rowptr[r0], rowptr[r1])
        key = (pid.take(crow[t]) - r0) * N + ccol[t]
        occupied = np.zeros((r1 - r0) * N, dtype=bool)
        occupied[key] = True
        cells = np.flatnonzero(occupied)
        del occupied
        rank = np.empty((r1 - r0) * N, dtype=np.int32)    # read only at the cells
        rank[cells] = np.arange(nnz, nnz + cells.size, dtype=np.int32)
        slot[t] = rank.take(key)
        indptr[r0 + 1:r1 + 1] = nnz + np.searchsorted(cells, np.arange(1, r1 - r0 + 1) * N)
        indices.append((cells % N).astype(np.int32))
        nnz += cells.size
    indices = np.concatenate(indices)
    indices.flags.writeable = indptr.flags.writeable = False
    return slot, indices, indptr


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    details: dict = field(default_factory=dict)


class DiscreteProblem:
    """Compiled nonlocal operator on a lattice over a box.

    `domain` is None (every lattice point is an unknown) or a callable that
    maps the (N, n) lattice points to one bool per point: unknowns are the
    points where it is true, the rest carry exterior data.  Every unknown p
    gets the node set of its own base point, built by
    kernels.point_quadrature on blocks of unknowns that keep each block
    within kernels.NODE_BUDGET nodes.
    Node bookkeeping is flat: node j belongs to unknown PID[j] with kernel
    bound COEF[j] and height WBAR[j]; S_j, the interpolated pair sum
    u(x_p + y_j) + u(x_p - y_j), is split into in-box contributions
    (triplets CROW, CCOL, CW) and a constant exterior part CONST[j].  The
    fully exterior nodes of a point (x_p + y_j and x_p - y_j outside the box,
    so delta = CONST - 2u_p) are folded into one group node per CONST value,
    with summed COEF and coef-weighted mean height and multipliers; each
    block lists its kept nodes, then its groups.  So PID is not
    nondecreasing, but the triplets are node-major: CROW, hence PID[CROW],
    is nondecreasing.  CROW and CCOL are int32.  The box test, the
    interpolation and the kept-node selection see only the block's near
    slice: every far node (kernels.point_quadrature's [near | far] layout,
    |y| beyond the plan's far_radius) is fully exterior by construction.
    Group sums are taken over runs of equal (point, CONST), and no run
    crosses the near/far seam, so no value depends on the block size.  Two
    sparse operators, built once from the triplets and sharing CW and CCOL,
    do every step's work: the interpolation (Jtot x N) gives node_deltas,
    and the gather sums each triplet into its slot of the canonical CSR
    pattern of S, so assemble is one sparse product.  node_counts has the
    node counts before and after the folding, the far slices' total
    (far_nodes) and the entries of that pattern (policy_entries);
    preconditioner is the circulant that every policy solve uses.
    """

    def __init__(self, potential: Potential, spec: KernelSpec, box_lo, box_hi,
                 h: float, exterior: ExteriorRule, equation: str = "extremal_plus",
                 kernel_rule: KernelRule | None = None, families=None,
                 domain=None):
        self._rules = equation_rules(equation, kernel_rule, families)
        self.potential, self.spec, self.exterior = potential, spec, exterior
        self.equation, self.families = equation, families

        zero = GridFunction.from_callable(box_lo, box_hi, h, lambda p: np.zeros(p.shape[0]),
                                          exterior)
        self.geom = zero
        self.n = zero.dim
        self.grid_pts = zero.points()
        self.N = self.grid_pts.shape[0]
        if domain is None:
            dom = np.ones(self.N, dtype=bool)
        else:
            dom = np.asarray(domain(self.grid_pts), dtype=bool)
            if dom.shape != (self.N,):
                raise ConfigurationError(f"domain gives shape {dom.shape} on {self.N} "
                                         f"lattice points, not ({self.N},)")
        if not dom.any():
            raise ConfigurationError("empty solve domain")
        self.unknown = np.nonzero(dom)[0]
        self.data_idx = np.nonzero(~dom)[0]
        self.P = self.unknown.size

        box_diam = float(np.linalg.norm(zero.hi - zero.lo))
        self.plan = make_plan(potential, spec, h, box_diam, exterior.sup_bound + 1.0)
        self._compile()
        self.preconditioner = _Circulant(self)

    # -- compilation ---------------------------------------------------------

    def _compile(self):
        geom, spec = self.geom, self.spec
        pid, coef, const, wbar = [], [], [], []
        crow, ccol, cw = [], [], []
        mults = [[] for _ in self._rules]
        j_off = quadrature_nodes = exterior_nodes = far_nodes = 0
        step = _block_points(self.plan)
        for first in range(0, self.P, step):
            pq = point_quadrature(self.plan,
                                  self.grid_pts[self.unknown[first:first + step]])
            J, nr = pq.coef.size, pq.near
            # near slice: row 2j + s holds x_j + y_j (s = 0) or x_j - y_j
            # (s = 1): the in-box triplets come out node-major, so CROW and
            # PID[CROW] are nondecreasing over the whole node set.
            # Column-major, as the node arrays are.
            pts = np.empty((self.n, nr, 2))
            np.add(pq.xj[:nr].T, pq.y[:nr].T, out=pts[:, :, 0])
            np.subtract(pq.xj[:nr].T, pq.y[:nr].T, out=pts[:, :, 1])
            pts = pts.reshape(self.n, 2 * nr).T
            ins = geom.inside(pts)
            ext = np.zeros(2 * nr)
            if not ins.all():
                out = ~ins
                ext[out] = self.exterior(_rows(out, pts))
            cj = ext[0::2] + ext[1::2]
            keep = ins[0::2] | ins[1::2]
            outer = ~keep
            # far slice: |y| > box diameter, so both pair points of every
            # far node lie outside the box, whatever its base point
            xf, yf = pq.xj[nr:], pq.y[nr:]
            cf = self.exterior(xf + yf) + self.exterior(xf - yf)

            def parts(v):
                # the fully exterior nodes: the near slice's, then the far slice
                return v[:nr][outer], v[nr:]

            # the nodes of a (point, CONST) group of fully exterior nodes
            # share delta = CONST - 2u_p, hence one slope: one node each.
            # Groups are summed over runs of equal (point, CONST), which are
            # long along a ray; runs are found in each part, so none crosses
            # the near/far seam and each point's runs do not depend on its block
            runs, pe, ec = [], [], []
            for p, c in zip(parts(pq.pid), (cj[outer], cf)):
                head = np.ones(c.size, dtype=bool)
                head[1:] = (p[1:] != p[:-1]) | (c[1:] != c[:-1])
                runs.append(np.flatnonzero(head))
                pe.append(p[runs[-1]])
                ec.append(c[runs[-1]])
            vals, code = np.unique(np.concatenate(ec), return_inverse=True)
            key, gid = np.unique(np.concatenate(pe) * vals.size + code, return_inverse=True)
            ce = parts(pq.coef)

            def group_sums(terms):
                return np.bincount(gid, weights=np.concatenate(
                    [np.add.reduceat(x, r) for x, r in zip(terms, runs)]))

            gc = group_sums(ce)

            def fold(v):
                sums = group_sums([c * x for c, x in zip(ce, parts(v))])
                return np.concatenate([v[:nr][keep], sums / gc])

            if ins.any():
                idx, wts = geom.interp_weights(_rows(ins, pts))
                rank = np.cumsum(keep, dtype=np.int32) - 1 + j_off
                crow.append(np.repeat(rank[np.nonzero(ins)[0] // 2], idx.shape[1]))
                ccol.append(idx.ravel())
                cw.append(wts.ravel())
            for m_list, rule in zip(mults, self._rules):
                m_list.append(fold(rule_multipliers(rule, spec, pq.xj, pq.y, pq.wbar)))
            pid.append(np.concatenate([pq.pid[:nr][keep], key // vals.size]) + first)
            coef.append(np.concatenate([pq.coef[:nr][keep], gc]))
            wbar.append(fold(pq.wbar))
            const.append(np.concatenate([cj[keep], vals[key % vals.size]]))
            j_off += coef[-1].size
            quadrature_nodes += J
            exterior_nodes += ce[0].size + ce[1].size
            far_nodes += J - nr
        self.PID = _join(pid)
        self.COEF = _join(coef)
        self.CONST = _join(const)
        self.WBAR = _join(wbar)
        self.Jtot = self.COEF.size
        self.CROW = _join(crow)
        self.CCOL = _join(ccol)
        self.CW = _join(cw)
        self.mass = np.bincount(self.PID, weights=self.COEF, minlength=self.P) \
            * 2.0 * spec.Lam
        self._mults = group_multipliers(self.equation, self.families,
                                        [_join(m) for m in mults])
        # node j's triplets are nodeptr[j]:nodeptr[j+1], unknown p's are
        # rowptr[p]:rowptr[p+1]; both operators share CW and CCOL
        nodeptr = np.zeros(self.Jtot + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.CROW, minlength=self.Jtot), out=nodeptr[1:])
        rowptr = np.zeros(self.P + 1, dtype=np.int64)
        rowptr[1:] = np.cumsum(np.bincount(self.PID, weights=np.diff(nodeptr),
                                           minlength=self.P))
        self._interp = sp.csr_matrix((self.CW, self.CCOL, nodeptr), shape=(self.Jtot, self.N))
        self._rowptr = rowptr
        slot, indices, indptr = _slot_map(self.PID, self.CROW, self.CCOL, rowptr, self.N)
        self._gather = sp.csc_matrix((self.CW, slot, nodeptr),
                                     shape=(indices.size, self.Jtot))
        self._pattern = (indices, indptr)
        self.node_counts = {"quadrature_nodes": quadrature_nodes, "compiled_nodes": j_off,
                            "exterior_groups": j_off - (quadrature_nodes - exterior_nodes),
                            "exterior_share": exterior_nodes / quadrature_nodes,
                            "far_nodes": far_nodes,
                            "policy_entries": indices.size}

    # -- discrete operator ---------------------------------------------------

    def node_deltas(self, u_flat: np.ndarray) -> np.ndarray:
        return self.CONST + self._interp @ u_flat - 2.0 * u_flat[self.unknown].take(self.PID)

    def apply(self, u_flat: np.ndarray, equation: str | None = None) -> np.ndarray:
        """A u at every unknown point; with equation "extremal_plus" or
        "extremal_minus", that operator on the problem's own nodes instead."""
        if equation not in (None, "extremal_plus", "extremal_minus"):
            raise ConfigurationError(f"apply takes 'extremal_plus' or 'extremal_minus', "
                                     f"not {equation!r}")
        mults = self._mults if equation is None else None
        return operator_values(self.node_deltas(u_flat), self.COEF, self.PID, self.P,
                               self.spec, equation or self.equation, mults)

    def node_slopes(self, delta: np.ndarray):
        """Frozen linearization slopes (policy) at the current iterate."""
        return policy_slopes(delta, self.COEF, self.PID, self.P, self.spec,
                             self.equation, self._mults)

    def assemble(self, slopes: np.ndarray):
        """Frozen-policy matrix S + diag(d) in the unknowns, S over all columns.

        S is the canonical CSR matrix (rows = unknowns, columns = all lattice
        points, one entry per distinct pair) of the interpolation triplets
        weighted by a = COEF * slopes, and d = -2 * (sum of a per point) the
        centre weights; the exterior part of A u is not included.  The
        pattern is fixed at compile, so S's entries are one sparse gather
        of a, and every S of the problem shares the read-only pattern.
        """
        a = self.COEF * slopes
        S = sp.csr_matrix((self._gather @ a, *self._pattern), shape=(self.P, self.N))
        return S, -2.0 * np.bincount(self.PID, weights=a, minlength=self.P)

    def data_values(self) -> np.ndarray:
        """Lattice values at non-domain points (exterior data inside the box)."""
        u = np.zeros(self.N)
        if self.data_idx.size:
            u[self.data_idx] = self.exterior(self.grid_pts[self.data_idx])
        return u


def _f_values(f, pts) -> np.ndarray:
    if f is None:
        return np.zeros(pts.shape[0])
    if np.isscalar(f):
        return np.full(pts.shape[0], float(f))
    vals = np.asarray(f(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DataError("right-hand side must be finite on the lattice")
    return vals


def _smooth_length(m: int) -> int:
    """Smallest 5-smooth integer >= m (one that divides 30^40): an FFT length
    with a large prime factor is slow (2 * 2305 = 4610 = 2 * 5 * 461)."""
    while math.gcd(m, 30 ** 40) != m:
        m += 1
    return m


class _Circulant:
    """Circulant C of the row of S + diag(d) at the midpoint slopes (lam +
    Lam) / 2 and the unknown nearest the box centre, laid out by offset on a
    periodic lattice of at least 2n - 1 points per axis so that no offsets
    wrap onto each other; solve(v) = R C^-1 R^T v, R the restriction to the
    unknowns.  The row is diagonally dominant with a negative sum (kernel
    mass leaves the box), so every eigenvalue of C is negative."""

    def __init__(self, problem: DiscreteProblem):
        shape = problem.geom.shape
        self.shape = tuple(_smooth_length(2 * m - 1) for m in shape)
        pos = np.array(np.unravel_index(problem.unknown, shape))
        p0 = int(np.argmin(((pos.T - (np.array(shape) - 1) / 2) ** 2).sum(axis=1)))
        mid = 0.5 * (problem.spec.lam + problem.spec.Lam)
        # the row is p0's own triplets, weighted by COEF * mid: no assembly
        t = slice(problem._rowptr[p0], problem._rowptr[p0 + 1])
        weights = problem.CW[t] * problem.COEF.take(problem.CROW[t]) * mid
        cols = np.array(np.unravel_index(problem.CCOL[t], shape))
        # (A v)_i = sum_k c_k v_(i+k) is the convolution of v with c_(-k)
        lag = np.ravel_multi_index(np.mod(pos[:, p0, None] - cols,
                                          np.array(self.shape)[:, None]), self.shape)
        layout = np.bincount(lag, weights=weights, minlength=int(np.prod(self.shape)))
        # the centre weight, at the unknown's own column
        layout[0] -= 2.0 * mid * problem.COEF[problem.PID == p0].sum()
        self.eig = np.fft.rfftn(layout.reshape(self.shape))
        self.index = np.ravel_multi_index(pos, self.shape)

    def solve(self, v: np.ndarray) -> np.ndarray:
        buf = np.zeros(self.shape)
        buf.flat[self.index] = v
        buf = np.fft.irfftn(np.fft.rfftn(buf) / self.eig, s=self.shape,
                            axes=range(buf.ndim))
        return buf.ravel()[self.index]


def _krylov(problem: DiscreteProblem, slopes, r, rtol: float, atol: float):
    """Correction dx with (S + diag(d)) dx = r, the policy system of `slopes`,
    by GMRES right-preconditioned so that max(atol, rtol * |r|) bounds the
    true residual; also the iteration count and whether it hit the cap."""
    S, d = problem.assemble(slopes)
    precond, z = problem.preconditioner, np.zeros(problem.N)

    def matvec(v):
        w = precond.solve(v)
        z[problem.unknown] = w      # data columns see zeros
        return S @ z + d * w

    AM = spla.LinearOperator((r.size, r.size), matvec=matvec, dtype=float)
    steps = []
    y, info = spla.gmres(AM, r, rtol=rtol, atol=atol, restart=KRYLOV_RESTART,
                         maxiter=KRYLOV_CYCLES, callback=steps.append,
                         callback_type="pr_norm")
    return precond.solve(y), len(steps), info > 0


def _linearize(problem: DiscreteProblem, u: np.ndarray, f_vals: np.ndarray):
    """Policy at u and the residual vector A u - f, from one node pass."""
    delta = problem.node_deltas(u)
    slopes = problem.node_slopes(delta)
    return slopes, policy_values(delta, problem.COEF, problem.PID, problem.P,
                                 slopes) - f_vals


def solve(problem: DiscreteProblem, f=None,
          tolerance: float = 1e-10) -> tuple[GridFunction, SolveReport]:
    """Fixed point of A u = f with exterior Dirichlet data, by policy iteration.

    Returns the last finite policy iterate.  details["stop"] says why the
    loop ended: "tolerance" (residual <= tolerance; the only stop that is
    converged), "floor" (within FLOOR_FACTOR of the roundoff floor, above
    the tolerance; for a fixed policy, not before its refinement step),
    "stalled" (a step after the third cut the residual by less than half),
    "not_finite" (a correction that is not finite, not applied) or
    "step_cap" (POLICY_STEPS steps).  iterations counts policy steps, each
    with its GMRES iterations in details["krylov_steps"], its relative GMRES
    stop in details["krylov_rtols"] and its residual in
    details["policy_residuals"]; details["krylov_capped"] counts the GMRES
    solves that ended at the cycle cap, and the problem's node_counts are
    there too.  Each stop is KRYLOV_RTOL, the forcing term or, for a policy
    that cannot change, the stop at the tolerance or the roundoff floor, all
    in the module docstring.
    """
    unk = problem.unknown
    f_vals = _f_values(f, problem.grid_pts[unk])
    u = problem.data_values()
    slopes, g = _linearize(problem, u, f_vals)
    res = res0 = float(np.abs(g).max())
    fixed = problem.equation == "linear" or (problem.equation != "isaacs"
                                             and problem.spec.lam == problem.spec.Lam)
    krylov_capped = 0
    policy_residuals, krylov_steps, krylov_rtols = [], [], []
    stop, prev, last = "step_cap", np.inf, None
    for step in range(1, POLICY_STEPS + 1):
        if fixed and last is None:
            # the stop at the tolerance or the floor of the module docstring
            sup_u = (max(float(np.abs(u).max()), problem.exterior.sup_bound)
                     + float(np.abs(problem.preconditioner.solve(f_vals)).max()))
            floor_2 = np.finfo(float).eps * float(np.linalg.norm(problem.mass)) * sup_u
            target = max(tolerance, FLOOR_FACTOR * floor_2)
            g_2 = float(np.linalg.norm(g))
            rtol = target / g_2 if g_2 > target else 1.0
        else:
            rtol = KRYLOV_RTOL
            if not (res0 == 0.0 or np.array_equal(slopes, last)):
                rtol = max(KRYLOV_RTOL, min(FORCING_MAX, res / res0))
        # the policy system for the correction dx has the right-hand side
        # -g: exterior and data-column parts are already in g
        dx, k, capped = _krylov(problem, slopes, -g, rtol, 0.1 * tolerance)
        krylov_steps.append(k)
        krylov_rtols.append(rtol)
        krylov_capped += capped
        if not np.all(np.isfinite(dx)):
            stop = "not_finite"
            break
        u[unk] += dx
        last = slopes
        slopes, g = _linearize(problem, u, f_vals)
        res = float(np.abs(g).max())
        policy_residuals.append(res)
        floor = float(np.finfo(float).eps * problem.mass.max() * np.abs(u).max())
        # a fixed policy's first step stopped GMRES at a floor estimate, so
        # the floor is accepted only after its refinement step
        if res <= tolerance or (res <= FLOOR_FACTOR * floor and (step > 1 or not fixed)):
            stop = "tolerance" if res <= tolerance else "floor"
            break
        if res >= 0.5 * prev and step > 3:
            stop = "stalled"
            break
        prev = res

    gf = GridFunction(problem.geom.lo, problem.geom.hi,
                      u.reshape(problem.geom.shape), problem.exterior)
    report = SolveReport(iterations=len(policy_residuals), final_residual=res,
                         converged=stop == "tolerance",
                         details={"equation": problem.equation,
                                  "unknowns": int(problem.P),
                                  "stop": stop,
                                  "krylov_steps": krylov_steps,
                                  "krylov_rtols": krylov_rtols,
                                  "krylov_capped": krylov_capped,
                                  "policy_residuals": policy_residuals,
                                  **problem.node_counts})
    return gf, report


def comparison_check(problem_sub: DiscreteProblem, u_sub: GridFunction,
                     v_super: GridFunction, f_sub, f_super,
                     tolerance: float = 1e-9) -> dict:
    """Discrete comparison: A u >= f_sub, A v <= f_super, u <= v off-domain
    imply u <= v everywhere; also checks M+(u-v) >= f_sub - f_super.

    The two grid functions must share the problem's lattice.
    """
    uf = u_sub.values.ravel()
    vf = v_super.values.ravel()
    fs = _f_values(f_sub, problem_sub.grid_pts[problem_sub.unknown])
    fg = _f_values(f_super, problem_sub.grid_pts[problem_sub.unknown])
    au = problem_sub.apply(uf)
    av = problem_sub.apply(vf)
    slack = 10.0 * max(tolerance, 1e-12) * max(1.0, np.abs(fs).max(), np.abs(au).max())
    pre_sub = float((au - fs).min())
    pre_super = float((fg - av).min())
    if pre_sub < -slack or pre_super < -slack:
        raise DataError(
            f"discrete sub/supersolution precondition violated "
            f"(margins {pre_sub:g}, {pre_super:g} below -{slack:g})")
    if problem_sub.data_idx.size:
        gap_ext = float((vf - uf)[problem_sub.data_idx].min())
    else:
        gap_ext = 0.0
    if gap_ext < -tolerance:
        raise DataError("u > v at exterior/data points: precondition violated")

    diff = uf - vf
    worst = float(diff[problem_sub.unknown].max())
    ok = worst <= tolerance
    # difference operator check: M+(u - v) >= f_sub - f_super, discretely
    mplus = problem_sub.apply(diff, "extremal_plus")
    diff_margin = float((mplus - (fs - fg)).min())
    return {"max_u_minus_v": worst, "ok": bool(ok),
            "worst_point": problem_sub.grid_pts[problem_sub.unknown[
                int(diff[problem_sub.unknown].argmax())]].tolist(),
            "subsolution_margin": pre_sub, "supersolution_margin": pre_super,
            "precondition_slack": slack,
            "mplus_diff_min_margin": diff_margin, "tolerance": tolerance}
