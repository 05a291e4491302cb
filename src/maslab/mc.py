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
_BLOCK = 64    # increments per path per round, quadratic potentials
_CHUNK = 4096  # paths per Generator


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


def _sqrtm_inv(A: np.ndarray) -> np.ndarray:
    ev, V = np.linalg.eigh(A)
    return (V / np.sqrt(ev)) @ V.T


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


def _draw_jumps(rng, config: JumpProcessConfig, shape: tuple) -> np.ndarray:
    """Increments of shape `shape + (n,)` for a quadratic potential.

    Sampled exactly by inverse CDF along rays.  The law does not depend on
    the base point, so one call serves every live path and every step of a
    block.
    """
    pot, sigma, eta = config.potential, config.spec.sigma, config.eta
    radii = eta * rng.random(shape) ** (-1.0 / sigma)
    z = radii[..., None] * _random_directions(rng, pot.dim, shape)
    return math.sqrt(2.0) * z @ _sqrtm_inv(pot._A).T


def _draw_jumps_generic(rng, config: JumpProcessConfig, x: np.ndarray) -> np.ndarray:
    """Perturbed entry: one increment per row of x, by rejection against
    the local quadratic model.  Each round redraws only the rows not yet
    accepted."""
    pot, spec, eta = config.potential, config.spec, config.eta
    n, sigma = pot.dim, spec.sigma
    a_lo, a_hi = pot.hessian_bounds()
    G = pot.hessian(x)
    env = (a_hi / a_lo) ** ((n + sigma) / 2.0)
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


def estimate_exit_payoff(config: JumpProcessConfig, x0, box_lo, box_hi,
                         paths: int, d2_scale: float = 1.0) -> dict:
    """Mean exit payoff, standard error and truncation-bias bound.

    Paths run in chunks of `_CHUNK`; chunk c draws from the c-th child of
    SeedSequence(seed), so the result depends only on (seed, paths).  All
    live paths of a chunk advance together: each round draws their next
    increments in one call (a block of `_BLOCK` for quadratic potentials,
    one for the perturbed entry, whose law depends on the position), finds
    each path's first exit, records its payoff and exact jump count, and
    drops the paths that left the box.
    """
    if paths < 100:
        raise ConfigurationError("need at least 100 paths")
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if np.any(x0 <= lo) or np.any(x0 >= hi):
        raise ConfigurationError("x0 must lie inside the domain box")

    intensity = total_truncated_mass(config)
    quad = config.potential.quadratic
    block = _BLOCK if quad else 1
    payoffs = np.empty(paths)
    total_jumps = 0
    n_chunks = -(-paths // _CHUNK)
    for c, seq in enumerate(np.random.SeedSequence(config.seed).spawn(n_chunks)):
        rng = np.random.default_rng(seq)
        ids = np.arange(c * _CHUNK, min(paths, (c + 1) * _CHUNK))
        x = np.tile(x0, (ids.size, 1))
        jumps = 0  # taken by every live path of the chunk so far
        while ids.size:
            if quad:
                steps = _draw_jumps(rng, config, (ids.size, block))
            else:
                steps = _draw_jumps_generic(rng, config, x)[:, None, :]
            pos = x[:, None, :] + np.cumsum(steps, axis=1)
            outside = np.any((pos <= lo) | (pos >= hi), axis=2)
            exited = outside.any(axis=1)
            k = np.argmax(outside[exited], axis=1)  # index of the exiting jump
            payoffs[ids[exited]] = config.payoff(pos[exited, k])
            total_jumps += k.size * (jumps + 1) + int(k.sum())
            ids, x = ids[~exited], pos[~exited, -1]
            jumps += block
            if ids.size and jumps > _MAX_JUMPS:
                raise DataError("path exceeded 1e6 jumps (eta too small)")

    mean = float(payoffs.mean())
    std_error = float(payoffs.std(ddof=1) / math.sqrt(paths))
    mean_holding = total_jumps / paths / intensity
    bias_bound = generator_truncation_bound(config, d2_scale) * mean_holding
    return {"mean": mean, "std_error": std_error, "bias_bound": float(bias_bound),
            "paths": int(paths), "mean_jumps": total_jumps / paths,
            "intensity": float(intensity), "eta": config.eta}
