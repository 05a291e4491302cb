"""Monte Carlo oracle: pure-jump process exit payoff for the linear case.

For lam = Lam the operator has a single admissible kernel, the generator of
a symmetric pure jump process whose jump measure is 2 K_x(y) dy.  Small
jumps (height below eta^2) are truncated; since the kernel is symmetric the
compensator drift vanishes and the truncation bias is bounded by the
neglected-generator mass times the accumulated expected holding time, which
the estimator reports as `bias_bound`.

Only the jump law matters for the exit distribution of the f = 0 Dirichlet
problem; for quadratic potentials it is sampled exactly by inverse CDF
along rays, for the perturbed entry by rejection against the quadratic
model (the truncation is then applied in the model height).

Paths are simulated in lockstep, in fixed chunks of `_CHUNK` paths with one
Generator per chunk: every live path of a chunk draws its next increments
in one vectorized call, and paths leave the chunk's arrays as they exit.
A result depends only on (seed, paths).

For quadratic potentials the frame L = sqrt(2) A^{-1/2}, which maps the
unit-height frame z = A^{1/2} y / sqrt(2) to increments, is computed once
per estimate and applied column by column.  Each round draws a block of
`_BLOCK` increments per live path, laid out (block, paths) for each
coordinate: in 1D one uniform per jump gives both its sign and its radius,
with no branch, and in 2D a second one gives its angle.  The positions are
summed in place step by step and tested for exit coordinate by coordinate.
A path stops at its first exit, so the rest of its last block is drawn for
nothing; `drawn_jumps` reports the increments drawn, and the block is sized
so that this waste stays small next to the cost of a round.
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
# Increments per path per round, quadratic potentials.  A small block wastes
# fewer draws after a path's exit, a large one takes fewer rounds, each of
# which costs about 40 us of fixed overhead.  CPU ms of the estimates
# (median of 7 runs, 3 for criterion 4; 1 thread) and increments drawn per
# jump taken, sigma 1.5, at _CHUNK = 16384:
#
#   block                                  4           8          16          32          64
#   exit_1d starts (seed 31, 2 x 10k)   24 1.031    23 1.071    19 1.154    23 1.330    34 1.744
#   criterion 4 (x0 0, 0.4; 2 x 100k)  279 1.029   233 1.067   194 1.145   213 1.308   416 1.682
#   eta 0.0125 (x0 0.4, 10k)            35 1.011    27 1.026    26 1.058    22 1.119    26 1.252
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


def _random_directions(rng, n: int, shape: tuple) -> np.ndarray:
    """Uniform directions on S^{n-1}, of shape `shape + (n,)`."""
    if n == 1:
        return np.where(rng.random(shape) < 0.5, -1.0, 1.0)[..., None]
    ang = 2.0 * math.pi * rng.random(shape)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def _frame(pot: Potential, eta: float) -> np.ndarray:
    """eta L with L = sqrt(2) A^{-1/2}: y = L z maps the frame
    z = A^{1/2} y / sqrt(2), in which the model height is |z|^2, back to
    increments."""
    ev, V = np.linalg.eigh(pot._A)
    return eta * math.sqrt(2.0) * (V / np.sqrt(ev)) @ V.T


def _draw_jumps(rng, sigma: float, frame: np.ndarray, shape: tuple) -> list:
    """Increments for a quadratic potential, one array of `shape` per
    coordinate, sampled exactly by inverse CDF along rays.

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
        return [r]
    ang = u[1]
    ang *= math.pi
    z = (r * np.cos(ang), r * np.sin(ang))
    return [frame[i, 0] * z[0] + frame[i, 1] * z[1] for i in range(n)]


def _envelope(config: JumpProcessConfig) -> tuple[float, float]:
    """The Hessian's lower bound a_lo and the rejection envelope
    (a_hi / a_lo)^{(n+sigma)/2} of _draw_jumps_generic: constants of the
    potential, computed once per estimate."""
    a_lo, a_hi = config.potential.hessian_bounds()
    return a_lo, (a_hi / a_lo) ** ((config.potential.dim + config.spec.sigma) / 2.0)


def _draw_jumps_generic(rng, config: JumpProcessConfig, x: np.ndarray, a_lo: float,
                        env: float) -> np.ndarray:
    """Perturbed entry: one increment per row of x, by rejection against
    the local quadratic model, with a_lo and env from _envelope.  Each
    round redraws only the rows not yet accepted."""
    pot, spec, eta = config.potential, config.spec, config.eta
    n, sigma = pot.dim, spec.sigma
    G = pot.hessian(x)
    out = np.empty_like(x)
    pending = np.ones(x.shape[0], dtype=bool)
    while pending.any():
        todo = np.flatnonzero(pending)
        m = todo.size
        theta = _random_directions(rng, n, (m,))
        q = 0.5 * np.einsum("ki,kij,kj->k", theta, G[todo], theta)
        # angular rejection: per-angle model mass ~ q^{-n/2}
        keep = rng.random(m) < (0.5 * a_lo / q) ** (n / 2.0)
        rows, theta, q = todo[keep], theta[keep], q[keep]
        t = eta / np.sqrt(q) * rng.random(rows.size) ** (-1.0 / sigma)
        y = t[:, None] * theta
        xs = x[rows]
        wbar_true = pot.sym_height(xs, y)
        model = q * t * t
        ratio = (np.maximum(wbar_true, 1e-300) / model) ** (-(n + sigma) / 2.0) / env
        acc = rng.random(rows.size) < ratio
        out[rows[acc]] = y[acc]
        pending[rows[acc]] = False
    return out


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
    live paths of a chunk advance together: each round draws their next
    increments in one call (a block of `_BLOCK` for quadratic potentials,
    one for the perturbed entry, whose law depends on the position), sums
    them in place into positions, finds each path's first exit coordinate
    by coordinate, records its exit point and exact jump count, and drops
    the paths that left the box.  The payoff is evaluated once, at every
    exit point.  `drawn_jumps` counts the increments drawn, against the
    `mean_jumps * paths` taken.
    """
    if paths < 100:
        raise ConfigurationError("need at least 100 paths")
    n = config.potential.dim
    x0 = _point("x0", x0, n)
    lo = _point("box_lo", box_lo, n)
    hi = _point("box_hi", box_hi, n)
    if np.any(x0 <= lo) or np.any(x0 >= hi):
        raise ConfigurationError("x0 must lie inside the domain box")

    intensity = total_truncated_mass(config)
    quad = config.potential.quadratic
    frame = _frame(config.potential, config.eta) if quad else None
    a_lo, env = (None, None) if quad else _envelope(config)
    block = _BLOCK if quad else 1
    exits = np.empty((paths, n))
    total_jumps = drawn = 0
    n_chunks = -(-paths // _CHUNK)
    for c, seq in enumerate(np.random.SeedSequence(config.seed).spawn(n_chunks)):
        rng = np.random.default_rng(seq)
        ids = np.arange(c * _CHUNK, min(paths, (c + 1) * _CHUNK))
        x = [np.full(ids.size, v) for v in x0]  # live positions, by coordinate
        jumps = 0  # taken by every live path of the chunk so far
        while ids.size:
            if quad:
                steps = _draw_jumps(rng, config.spec.sigma, frame, (block, ids.size))
            else:
                y = _draw_jumps_generic(rng, config, np.stack(x, axis=1), a_lo, env)
                steps = list(y.T[:, None, :])
            drawn += block * ids.size
            outside = np.zeros((block, ids.size), dtype=bool)
            for xi, pos, lo_i, hi_i in zip(x, steps, lo, hi):
                # positions in place, step by step: a cumsum along the
                # block axis costs several times more
                pos[0] += xi
                for j in range(1, block):
                    np.add(pos[j - 1], pos[j], out=pos[j])
                outside |= pos <= lo_i
                outside |= pos >= hi_i
            exited = np.logical_or.reduce(outside, axis=0)
            cols = np.flatnonzero(exited)
            k = outside[:, cols].argmax(axis=0)  # index of the exiting jump
            for i, pos in enumerate(steps):
                exits[ids[cols], i] = pos[k, cols]
            total_jumps += k.size * (jumps + 1) + int(k.sum())
            live = ~exited
            ids, x = ids[live], [pos[-1, live] for pos in steps]
            jumps += block
            if ids.size and jumps > _MAX_JUMPS:
                raise DataError("path exceeded 1e6 jumps (eta too small)")

    payoffs = config.payoff(exits)
    mean = float(payoffs.mean())
    std_error = float(payoffs.std(ddof=1) / math.sqrt(paths))
    mean_holding = total_jumps / paths / intensity
    bias_bound = generator_truncation_bound(config, d2_scale) * mean_holding
    return {"mean": mean, "std_error": std_error, "bias_bound": float(bias_bound),
            "paths": int(paths), "mean_jumps": total_jumps / paths,
            "drawn_jumps": int(drawn), "intensity": float(intensity), "eta": config.eta}
