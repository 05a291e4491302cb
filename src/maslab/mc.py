"""Monte Carlo oracle: pure-jump process exit payoff for the linear case.

For lam = Lam the operator has a single admissible kernel, the generator of
a symmetric pure jump process whose jump measure is 2 K_x(y) dy.  Small
jumps (height below eta^2) are truncated; since the kernel is symmetric the
compensator drift vanishes and the truncation bias is bounded by the
neglected-generator mass times the accumulated expected holding time, which
the estimator reports as `bias_bound`.

Only the law of the jump chain matters for the exit distribution of the
f = 0 Dirichlet problem.  Every potential draws proposals exactly, by
inverse CDF along rays, from its quadratic model A = `_A`: density
(y.A.y / 2)^{-(n+sigma)/2}.  A quadratic potential takes every proposal,
at cutoff eta.  The perturbed entry thins them (Lewis and Shedler 1979):
D^2phi >= A gives wbar_x(y) >= y.A.y / 2, and a_lo <= D^2phi <= a_hi puts
the local truncation set {y.D^2phi(x).y / 2 >= eta^2} inside the model's
at cutoff eta sqrt(a_lo / a_hi), where the proposals are drawn.  A
proposal y at x is taken on the local set with probability
(wbar_x(y) / (y.A.y / 2))^{-(n+sigma)/2} <= 1, and otherwise leaves the
path where it is.  Taken jumps then have density proportional to K_x on
the local set, so the jump chain's law is that of the kernel truncated in
the local model height; the refusals only lengthen the holding times,
which the exit does not see.

Paths are simulated in lockstep, in fixed chunks of `_CHUNK` paths with one
Generator per chunk: every live path of a chunk draws its next proposals
in one vectorized call, and paths leave the chunk's arrays as they exit.
A result depends only on (seed, paths).

The frame L = sqrt(2) A^{-1/2}, which maps the unit-height frame
z = A^{1/2} y / sqrt(2) to increments, is computed once per estimate and
applied column by column.  Each round draws a block of `_BLOCK` proposals
per live path, laid out (coordinate, block, paths): in 1D one uniform per
proposal gives both its sign and its radius, with no branch, and in 2D a
second one gives its angle.  The positions are summed in place step by
step and tested for exit coordinate by coordinate; the
perturbed entry first thins each step on the paths still inside the box,
since its acceptance reads the position before it.  A path stops at its
first exit, so the rest of its last block is drawn for nothing;
`drawn_jumps` reports the proposals drawn, and the block is sized so that
this waste stays small next to the cost of a round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .grid import ExteriorRule
from .kernels import KernelSpec
from .potential import Potential
from .sections import sphere_measure

_MAX_JUMPS = 1_000_000
# Proposals per path per round, for every potential.  A small block wastes
# fewer draws after a path's exit, a large one takes fewer rounds, each of
# which costs about 40 us of fixed overhead.  CPU ms of the estimates
# (median of 7 runs or seeds, 3 for criterion 4; 1 thread) and proposals
# drawn per jump taken, sigma 1.5 unless stated, at _CHUNK = 16384.  The
# perturbed rows (eps 0.1, 10k paths from 0.4 or (0.3, 0)) take 190 ns per
# 1D jump at block 16, against 17 ns for iso:
#
#   block                                  4           8          16          32          64
#   exit_1d starts (seed 31, 2 x 10k)   24 1.031    23 1.071    19 1.154    23 1.330    34 1.744
#   criterion 4 (x0 0, 0.4; 2 x 100k)  279 1.029   233 1.067   194 1.145   213 1.308   416 1.682
#   eta 0.0125 (x0 0.4, 10k)            35 1.011    27 1.026    26 1.058    22 1.119    26 1.252
#   perturbed 1D eps 0.1, eta 0.025    182 1.14    133 1.18     97 1.26    101 1.43    134 1.80
#   perturbed 2D sigma 1.2, eta 0.1     38 1.37     37 1.70     39 2.53     54 4.63     89 9.23
_BLOCK = 16
# Paths per Generator.  Each chunk ends in rounds that move a few long-lived
# paths, so fewer chunks take fewer rounds: at 4096 the same block of 16
# took 27, 283 and 37 ms in the table's rows.
_CHUNK = 16384


@dataclass(frozen=True)
class JumpProcessConfig:
    potential: Potential
    spec: KernelSpec
    eta: float
    payoff: ExteriorRule
    seed: int

    def __post_init__(self):
        if self.spec.lam != self.spec.Lam:
            raise ConfigurationError("jump process needs lam == Lam (single kernel)")
        if self.eta <= 0:
            raise ConfigurationError("small-jump cutoff eta must be positive")


def total_truncated_mass(config: JumpProcessConfig) -> float:
    """Jump intensity: int_{wbar >= eta^2} 2 K(y) dy for the quadratic model."""
    pot, spec, eta = config.potential, config.spec, config.eta
    n, sigma, c = pot.dim, config.spec.sigma, config.spec.lam
    detA = np.linalg.det(pot._A)
    # change of variables z = A^{1/2} y / sqrt(2): wbar = |z|^2
    jac = 2.0 ** (n / 2.0) / math.sqrt(detA)
    return 2.0 * (2.0 - sigma) * c * jac * sphere_measure(n) * eta ** (-sigma) / sigma


def generator_truncation_bound(config: JumpProcessConfig, d2_scale: float) -> float:
    """|neglected generator| <= bound * d2_scale, bound ~ C eta^{2-sigma}."""
    pot, spec = config.potential, config.spec
    n, sigma = pot.dim, spec.sigma
    a_lo, _ = pot.hessian_bounds()
    a_eta = config.eta * math.sqrt(2.0 / a_lo)
    return (spec.lam * d2_scale * (0.5 * a_lo) ** (-(n + sigma) / 2.0)
            * sphere_measure(n) * a_eta ** (2.0 - sigma))


def _frame(pot: Potential, eta: float) -> np.ndarray:
    """eta L with L = sqrt(2) A^{-1/2}: y = L z maps the frame
    z = A^{1/2} y / sqrt(2), in which the model height is |z|^2, back to
    increments."""
    ev, V = np.linalg.eigh(pot._A)
    return eta * math.sqrt(2.0) * (V / np.sqrt(ev)) @ V.T


def _draw_jumps(rng, sigma: float, frame: np.ndarray, shape: tuple) -> np.ndarray:
    """Proposals from the model kernel, of shape (n,) + `shape`, sampled
    exactly by inverse CDF along rays.

    The law does not depend on the base point, so one call serves every
    live path and every step of a block.  One uniform u gives each jump's
    signed radius: t = 2u - (1 - 2^-53) runs over the odd multiples of
    2^-53 in (-1, 1), symmetric about 0 and never 0, so sign(t) is
    uniform and |t|^{-1/sigma} is the radius in units of eta, independent
    of it.  In 2D a second uniform gives an angle in [0, pi), which the
    sign turns into a uniform direction.
    """
    n = frame.shape[0]
    u = rng.random((n,) + shape)
    t = u[0]
    t *= 2.0
    t -= 1.0 - 2.0 ** -53
    r = np.abs(t)
    np.log(r, out=r)  # |t|^{-1/sigma}: log and exp cost less than np.power
    r *= -1.0 / sigma
    np.exp(r, out=r)
    np.copysign(r, t, out=r)
    if n == 1:
        r *= frame[0, 0]
        return r[None]
    ang = u[1]
    ang *= math.pi
    z = (r * np.cos(ang), r * np.sin(ang))
    y = np.empty_like(u)
    for i in range(n):
        np.add(frame[i, 0] * z[0], frame[i, 1] * z[1], out=y[i])
    return y


def _accept(rng, pot: Potential, sigma: float, eta: float, x: np.ndarray,
            y: np.ndarray) -> np.ndarray:
    """Which proposals y, one per row of the positions x, are taken: those
    whose local model height y.D^2phi(x).y / 2 is at least eta^2, each with
    probability (wbar_x(y) / (y.A.y / 2))^{-(n+sigma)/2}."""
    local = 0.5 * np.einsum("ki,kij,kj->k", y, pot.hessian(x), y)
    ratio = 0.5 * np.einsum("ki,ij,kj->k", y, pot._A, y)
    ratio /= pot.sym_height(x, y)
    ratio **= (pot.dim + sigma) / 2.0
    return (local >= eta * eta) & (rng.random(len(y)) < ratio)


def _point(name: str, value, dim: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(value, dtype=float))
    if p.shape != (dim,):
        raise ConfigurationError(f"{name} must have the potential's dimension {dim}, "
                                 f"got shape {p.shape}")
    return p


def estimate_exit_payoff(config: JumpProcessConfig, x0, box_lo, box_hi,
                         paths: int, d2_scale: float = 1.0) -> dict:
    """Mean exit payoff, standard error and truncation-bias bound.

    Paths run in chunks of `_CHUNK`; chunk c draws from the c-th child of
    SeedSequence(seed), so the result depends only on (seed, paths).  All
    live paths of a chunk advance together: each round draws a block of
    `_BLOCK` proposals for every one of them in one call, thins them step
    by step for the perturbed entry (a quadratic potential takes them
    all), sums the taken ones in place into positions, finds each path's
    first exit coordinate by coordinate, records its exit point and exact
    count of jumps taken, and drops the paths that left the box.  The
    payoff is evaluated once, at every exit point.  `drawn_jumps` counts
    the proposals drawn, against the `mean_jumps * paths` taken.
    """
    if paths < 100:
        raise ConfigurationError("need at least 100 paths")
    n = config.potential.dim
    x0 = _point("x0", x0, n)
    lo = _point("box_lo", box_lo, n)
    hi = _point("box_hi", box_hi, n)
    if np.any(x0 <= lo) or np.any(x0 >= hi):
        raise ConfigurationError("x0 must lie inside the domain box")

    pot, sigma, eta = config.potential, config.spec.sigma, config.eta
    intensity = total_truncated_mass(config)
    quad = pot.quadratic
    # a cutoff whose model truncation set holds every local one
    a_lo, a_hi = (1.0, 1.0) if quad else pot.hessian_bounds()
    frame = _frame(pot, eta * math.sqrt(a_lo / a_hi))
    exits = np.empty((paths, n))
    total_jumps = drawn = 0
    n_chunks = -(-paths // _CHUNK)
    for c, seq in enumerate(np.random.SeedSequence(config.seed).spawn(n_chunks)):
        rng = np.random.default_rng(seq)
        ids = np.arange(c * _CHUNK, min(paths, (c + 1) * _CHUNK))
        x = np.repeat(x0[:, None], ids.size, axis=1)  # live positions, (n, paths)
        # jumps each live path took; one count serves all if all are taken
        taken = 0 if quad else np.zeros(ids.size, dtype=np.int64)
        while ids.size:
            y = _draw_jumps(rng, sigma, frame, (_BLOCK, ids.size))
            drawn += _BLOCK * ids.size
            took = None if quad else np.zeros((_BLOCK, ids.size), dtype=bool)
            prev = x
            # positions in place, step by step: a cumsum along the block
            # axis costs several times more
            for j, step in enumerate(y.swapaxes(0, 1)):
                if not quad:
                    # thin on the paths still inside the box: one that left
                    # stays there, as its later proposals are refused
                    inside = (prev > lo[:, None]) & (prev < hi[:, None])
                    rows = np.flatnonzero(inside.all(axis=0))
                    took[j, rows] = _accept(rng, pot, sigma, eta, prev[:, rows].T, step[:, rows].T)
                    np.multiply(step, took[j], out=step)  # a refused proposal stays put
                np.add(prev, step, out=step)
                prev = step
            outside = np.zeros((_BLOCK, ids.size), dtype=bool)
            for pos, lo_i, hi_i in zip(y, lo, hi):
                outside |= pos <= lo_i
                outside |= pos >= hi_i
            exited = np.logical_or.reduce(outside, axis=0)
            live = ~exited
            cols = np.flatnonzero(exited)
            k = outside[:, cols].argmax(axis=0)  # index of the exiting jump
            for i, pos in enumerate(y):
                exits[ids[cols], i] = pos[k, cols]
            if quad:
                total_jumps += k.size * (taken + 1) + int(k.sum())
                taken += _BLOCK
            else:  # a path takes no proposal after its exit
                now = taken + took.sum(axis=0)
                total_jumps += int(now[cols].sum())
                taken = now[live]
            ids, x = ids[live], y[:, -1, live]
            if ids.size and (taken if quad else taken.max()) > _MAX_JUMPS:
                raise DataError("path exceeded 1e6 jumps (eta too small)")

    payoffs = config.payoff(exits)
    mean = float(payoffs.mean())
    std_error = float(payoffs.std(ddof=1) / math.sqrt(paths))
    mean_holding = total_jumps / paths / intensity
    bias_bound = generator_truncation_bound(config, d2_scale) * mean_holding
    return {"mean": mean, "std_error": std_error, "bias_bound": float(bias_bound),
            "paths": int(paths), "mean_jumps": total_jumps / paths,
            "drawn_jumps": int(drawn), "intensity": float(intensity), "eta": config.eta}
