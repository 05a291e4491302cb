"""Monte Carlo oracle: the pure jump process's exit payoff in the linear case.

For lam = Lam the operator has a single admissible kernel, the generator of
a symmetric pure jump process whose jump measure is 2 K_x(y) dy.  Only the
law of the exit point matters for the f = 0 Dirichlet problem, and the
potential picks one of two samplers of it.

A quadratic potential phi = x.A.x / 2 walks on sections, exactly.  In the
frame z = A^{1/2} y / sqrt(2) its sections are balls and the process is the
rotationally symmetric sigma-stable one, which, started at the centre of a
ball of radius r, leaves it at |z| = r V^{-1/2}, V ~ Beta(s, 1 - s) with
s = sigma/2, in a uniform direction independent of |z|, in every dimension
(Blumenthal, Getoor and Ray 1961).  Each step takes the largest section of
phi centred at the path's position that fits in the box and jumps to that
law's exit point; a path stops at its first point outside the box.  By the
strong Markov property the exit point has the process's law (walk on
spheres, Kyprianou, Osojnik and Shardlow 2018), so there is no truncation
and `bias_bound` is 0.  A stable path leaves in finitely many steps, under
two on average from the exit_1d starts.

The perturbed entry simulates the jump chain with small jumps (height below
eta^2) truncated.  Since the kernel is symmetric the compensator drift
vanishes, and the truncation bias is bounded by the neglected-generator
mass times the accumulated expected holding time, which the estimator
reports as `bias_bound`.  Proposals are drawn exactly, by inverse CDF along
rays, from the quadratic model A = `_A`: density
(y.A.y / 2)^{-(n+sigma)/2}, at cutoff eta sqrt(a_lo / a_hi), and thinned
(Lewis and Shedler 1979): D^2phi >= A gives wbar_x(y) >= y.A.y / 2, and
a_lo <= D^2phi <= a_hi puts the local truncation set
{y.D^2phi(x).y / 2 >= eta^2} inside the model's at that cutoff.  A
proposal y at x is taken on the local set with probability
(wbar_x(y) / (y.A.y / 2))^{-(n+sigma)/2} <= 1, and otherwise leaves the
path where it is.  Taken jumps then have density proportional to K_x on
the local set, so the jump chain's law is that of the kernel truncated in
the local model height; the refusals only lengthen the holding times,
which the exit does not see.

Paths are simulated in lockstep, in fixed chunks of `_CHUNK` paths with one
Generator per chunk: every live path of a chunk draws its next step or
proposals in one vectorized call, and paths leave the chunk's arrays as
they exit.  A result depends only on (seed, paths).

The frame L = sqrt(2) A^{-1/2}, which maps the unit-height frame
z = A^{1/2} y / sqrt(2) to increments, is computed once per estimate and
applied column by column.  A walk round draws one Beta variate and then
one uniform per live path, the uniform giving the sign in 1D and the angle
in 2D.  A thinned round draws a block of `_BLOCK` proposals per live path,
laid out (coordinate, block, paths): in 1D one uniform per proposal gives
both its sign and its radius, with no branch, and in 2D a second one gives
its angle.  The positions are summed in place step by step, each step
thinned on the paths still inside the box, since its acceptance reads the
position before it, and tested for exit coordinate by coordinate.  A path
stops at its first exit, so the rest of its last block is drawn for
nothing; `drawn_jumps` reports the proposals drawn, and the block is sized
so that this waste stays small next to the cost of a round.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, DataError
from .grid import ExteriorRule
from .kernels import KernelSpec
from .potential import Potential
from .sections import sphere_measure

# Steps of a walk, or jumps taken by a thinned path, before it is refused
_MAX_JUMPS = 1_000_000
# Proposals per path per round of the perturbed entry.  A small block wastes
# fewer draws after a path's exit, a large one takes fewer rounds, each of
# which costs about 40 us of fixed overhead.  CPU ms of the estimates
# (median of 7 runs or seeds; 1 thread) and proposals drawn per jump taken,
# at _CHUNK = 16384: 10k paths from 0.4 or (0.3, 0), eps 0.1.  A 1D jump
# costs 190 ns at block 16:
#
#   block                                  4           8          16          32          64
#   perturbed 1D sigma 1.5, eta 0.025  182 1.14    133 1.18     97 1.26    101 1.43    134 1.80
#   perturbed 2D sigma 1.2, eta 0.1     38 1.37     37 1.70     39 2.53     54 4.63     89 9.23
_BLOCK = 16
# Paths per Generator, for both samplers.  Each chunk ends in rounds that
# move a few long-lived paths, so fewer chunks take fewer rounds: at 4096
# the walk from the exit_1d starts (2 x 10k paths from 0.4 and -0.4) took
# 7.1 ms against 4.9, and the table's perturbed rows 171 and 46 ms against
# 92 and 45 (CPU, median of seeds 1-7).
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
        _integer("seed", self.seed)
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, not {self.seed}")


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


def _section_scale(pot: Potential) -> np.ndarray:
    """1 / sqrt(2 (A^{-1})_ii) for each axis i: the section
    {y : (y - x).A.(y - x) / 2 < r^2}, the ball |z| < r of the frame,
    reaches r sqrt(2 (A^{-1})_ii) from x along axis i."""
    return 1.0 / np.sqrt(2.0 * np.diag(np.linalg.inv(pot._A)))


def _exit_steps(rng, s: float, frame: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Increments of shape (n, m) from the centres of sections of radii
    `radius` (m,) to exit points of the stable process: |z| = radius V^{-1/2},
    V ~ Beta(s, 1 - s), in a uniform direction independent of it, mapped
    back by `frame` = L.

    One Beta draw per path, then one uniform u per path, each in one call:
    u gives the sign of u - 1/2 in 1D and the angle 2 pi u in 2D.
    """
    rho = radius / np.sqrt(rng.beta(s, 1.0 - s, radius.size))
    u = rng.random(radius.size)
    if frame.shape[0] == 1:
        u -= 0.5
        np.copysign(rho, u, out=rho)
        rho *= frame[0, 0]
        return rho[None]
    u *= 2.0 * math.pi
    z = (rho * np.cos(u), rho * np.sin(u))
    return np.stack([f[0] * z[0] + f[1] * z[1] for f in frame])


def _walk(rng, x0, lo, hi, m: int, s: float, frame: np.ndarray,
          scale: np.ndarray) -> tuple:
    """m walks on sections from x0 to their first points outside the box
    [lo, hi]: the exit points (m, n), the steps taken and the steps drawn,
    which are the same number.  Each round every live path takes the
    largest section centred at its position inside the box, of radius
    min_i (distance to a face of axis i) * scale_i, and jumps to its exit
    point."""
    exits = np.empty((m, x0.size))
    ids = np.arange(m)
    x = np.repeat(x0[:, None], m, axis=1)  # live positions, (n, paths)
    steps = rounds = 0
    while ids.size:
        rounds += 1
        radius = np.minimum(x - lo[:, None], hi[:, None] - x)
        radius *= scale[:, None]
        x += _exit_steps(rng, s, frame, radius.min(axis=0))
        out = np.zeros(ids.size, dtype=bool)
        for pos, lo_i, hi_i in zip(x, lo, hi):
            out |= pos <= lo_i
            out |= pos >= hi_i
        # the exit law puts no mass on the faces, so a point on one is
        # there by rounding an overshoot below an ulp: one ulp out keeps
        # its side for the payoff
        ends = x[:, out]
        for pos, lo_i, hi_i in zip(ends, lo, hi):
            pos[pos == lo_i] = np.nextafter(lo_i, -np.inf)
            pos[pos == hi_i] = np.nextafter(hi_i, np.inf)
        exits[ids[out]] = ends.T
        steps += rounds * int(out.sum())
        ids, x = ids[~out], x[:, ~out]
        if ids.size and rounds > _MAX_JUMPS:
            raise DataError(f"a walk exceeded {_MAX_JUMPS} steps")
    return exits, steps, steps


def _thin(rng, x0, lo, hi, m: int, pot: Potential, sigma: float, eta: float,
          frame: np.ndarray) -> tuple:
    """m thinned jump paths from x0 to their first points outside the box
    [lo, hi]: the exit points (m, n), the jumps taken and the proposals
    drawn.  Each round draws a block of `_BLOCK` proposals for every live
    path in one call, thins them step by step, sums the taken ones in
    place into positions, finds each path's first exit coordinate by
    coordinate, records its exit point and exact count of jumps taken, and
    drops the paths that left the box."""
    exits = np.empty((m, x0.size))
    ids = np.arange(m)
    x = np.repeat(x0[:, None], m, axis=1)  # live positions, (n, paths)
    taken = np.zeros(m, dtype=np.int64)  # jumps each live path took
    total = drawn = 0
    while ids.size:
        y = _draw_jumps(rng, sigma, frame, (_BLOCK, ids.size))
        drawn += _BLOCK * ids.size
        took = np.zeros((_BLOCK, ids.size), dtype=bool)
        prev = x
        # positions in place, step by step: a cumsum along the block axis
        # costs several times more
        for j, step in enumerate(y.swapaxes(0, 1)):
            # thin on the paths still inside the box: one that left stays
            # there, as its later proposals are refused
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
        now = taken + took.sum(axis=0)  # a path takes no proposal after its exit
        total += int(now[cols].sum())
        taken = now[live]
        ids, x = ids[live], y[:, -1, live]
        if ids.size and taken.max() > _MAX_JUMPS:
            raise DataError("path exceeded 1e6 jumps (eta too small)")
    return exits, total, drawn


def _integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, not {value!r}")


def _point(name: str, value, dim: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(value, dtype=float))
    if p.shape != (dim,):
        raise ConfigurationError(f"{name} must have the potential's dimension {dim}, "
                                 f"got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ConfigurationError(f"{name} must be finite, not {p.tolist()}")
    return p


def estimate_exit_payoff(config: JumpProcessConfig, x0, box_lo, box_hi,
                         paths: int, d2_scale: float = 1.0) -> dict:
    """Mean exit payoff from the box [box_lo, box_hi], standard error and
    bias bound.

    A quadratic potential walks on sections, which samples the exit point's
    law exactly: `bias_bound` is 0, `intensity` is inf (the untruncated
    process has infinitely many small jumps), and `mean_jumps` and
    `drawn_jumps` count walk steps, one drawn per step taken.  The
    perturbed entry thins jumps truncated at the cutoff `config.eta`, and
    `bias_bound` is the truncation-bias bound with the payoff's second
    differences bounded by `d2_scale`; `intensity` is the model's truncated
    jump intensity, and `drawn_jumps` counts the proposals drawn, against
    the `mean_jumps * paths` taken.  Only the perturbed entry reads `eta`
    and `d2_scale`.

    Paths run in chunks of `_CHUNK`; chunk c draws from the c-th child of
    SeedSequence(seed), so the result depends only on (seed, paths).  All
    live paths of a chunk advance together, and the payoff is evaluated
    once, at every exit point.
    """
    _integer("paths", paths)
    if paths < 100:
        raise ConfigurationError("need at least 100 paths")
    n = config.potential.dim
    x0 = _point("x0", x0, n)
    lo = _point("box_lo", box_lo, n)
    hi = _point("box_hi", box_hi, n)
    if np.any(x0 <= lo) or np.any(x0 >= hi):
        raise ConfigurationError("x0 must lie inside the domain box")

    pot, sigma, eta = config.potential, config.spec.sigma, config.eta
    if pot.quadratic:
        chunk = partial(_walk, s=sigma / 2.0, frame=_frame(pot, 1.0), scale=_section_scale(pot))
    else:
        # a cutoff whose model truncation set holds every local one
        a_lo, a_hi = pot.hessian_bounds()
        chunk = partial(_thin, pot=pot, sigma=sigma, eta=eta,
                        frame=_frame(pot, eta * math.sqrt(a_lo / a_hi)))
    exits = np.empty((paths, n))
    total_jumps = drawn = 0
    n_chunks = -(-paths // _CHUNK)
    for c, seq in enumerate(np.random.SeedSequence(config.seed).spawn(n_chunks)):
        rows = slice(c * _CHUNK, min(paths, (c + 1) * _CHUNK))
        exits[rows], jumps, draws = chunk(np.random.default_rng(seq), x0, lo, hi,
                                          rows.stop - rows.start)
        total_jumps += jumps
        drawn += draws

    payoffs = config.payoff(exits)
    mean = float(payoffs.mean())
    std_error = float(payoffs.std(ddof=1) / math.sqrt(paths))
    if pot.quadratic:
        intensity, bias_bound = math.inf, 0.0
    else:
        intensity = total_truncated_mass(config)
        mean_holding = total_jumps / paths / intensity
        bias_bound = generator_truncation_bound(config, d2_scale) * mean_holding
    return {"mean": mean, "std_error": std_error, "bias_bound": float(bias_bound),
            "paths": int(paths), "mean_jumps": total_jumps / paths,
            "drawn_jumps": int(drawn), "intensity": float(intensity), "eta": config.eta}
