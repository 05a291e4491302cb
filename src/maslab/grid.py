"""Grid functions: lattice values + multilinear interpolation + exterior rule.

A GridFunction is the discrete unknown of the solver and the input of the
nonlocal operators: piecewise multilinear inside its box, an evaluable
bounded rule on the complement.  AnalyticField wraps a closed-form function
under the same evaluation interface (used for barriers and oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DataError
from .potential import _as_points


@dataclass(frozen=True)
class ExteriorRule:
    """Bounded evaluable data on the complement of the box."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: float

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        v = np.asarray(self.fn(pts), dtype=float)
        return np.broadcast_to(v, (pts.shape[0],)).astype(float, copy=False)


def constant_rule(c: float) -> ExteriorRule:
    return ExteriorRule(f"const({c:g})", lambda p, c=float(c): np.full(p.shape[0], c), abs(float(c)))


def zero_rule() -> ExteriorRule:
    return constant_rule(0.0)


def indicator_box_rule(lo, hi, height: float = 1.0) -> ExteriorRule:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))

    def fn(p):
        if p.shape[1] != lo.size:
            raise ConfigurationError(f"indicator_box of dimension {lo.size} on points "
                                     f"of dimension {p.shape[1]}")
        inside = np.all((p >= lo) & (p <= hi), axis=1)
        return np.where(inside, float(height), 0.0)

    return ExteriorRule(f"indicator({lo.tolist()},{hi.tolist()},{height:g})", fn, abs(float(height)))


def halfspace_rule(axis: int, threshold: float, height: float = 1.0) -> ExteriorRule:
    if axis != int(axis) or axis < 0:
        raise ConfigurationError(f"halfspace axis must be an integer >= 0, not {axis!r}")
    axis = int(axis)

    def fn(p):
        if axis >= p.shape[1]:
            raise ConfigurationError(f"halfspace axis {axis} on points of dimension {p.shape[1]}")
        return np.where(p[:, axis] > threshold, float(height), 0.0)

    return ExteriorRule(f"halfspace(x{axis}>{threshold:g},{height:g})", fn, abs(float(height)))


def gaussian_rule(amp: float = 1.0, width: float = 1.0, center=None) -> ExteriorRule:
    """amp * exp(-|p - center|^2 / width^2), center one number per dimension
    (default the origin); a width that is not finite and positive raises."""
    if not (math.isfinite(width) and width > 0):
        raise ConfigurationError(f"gaussian width must be finite and > 0, not {width!r}")
    c = None if center is None else np.atleast_1d(np.asarray(center, dtype=float))

    def fn(p):
        if c is not None and c.size != p.shape[1]:
            raise ConfigurationError(f"rule 'gaussian' does not take a {c.size}-dimensional "
                                     f"centre on points of dimension {p.shape[1]}")
        q = p if c is None else p - c
        r2 = np.einsum("ki,ki->k", q, q)
        with np.errstate(under="ignore"):
            return float(amp) * np.exp(-r2 / float(width) ** 2)

    where = "" if c is None else f",{c.tolist()}"
    return ExteriorRule(f"gaussian({amp:g},{width:g}{where})", fn, abs(float(amp)))


RULE_FACTORIES = {
    "zero": lambda params: zero_rule(*params),
    "constant": lambda params: constant_rule(*params),
    "indicator_box": lambda params: _indicator_from_flat(*params),
    "halfspace": lambda params: halfspace_rule(*params),
    "gaussian": lambda params: _gaussian_from_flat(*params),
}


def _indicator_from_flat(n, *bounds):
    # flat layout: n, lo..., hi..., height (optional)
    if n != int(n) or n < 1 or len(bounds) not in (2 * n, 2 * n + 1):
        raise ConfigurationError("indicator_box params are n >= 1, n lows, n highs "
                                 f"and an optional height, not {[n, *bounds]}")
    n = int(n)
    return indicator_box_rule(bounds[:n], bounds[n:2 * n], *bounds[2 * n:])


def _gaussian_from_flat(amp=1.0, width=1.0, *center):
    # flat layout: amp, width, then the centre's coordinates (all optional)
    return gaussian_rule(amp, width, center or None)


def make_rule(rule_id: str, params=()) -> ExteriorRule:
    """The rule `rule_id` with its flat params; a count of params the rule
    does not take raises ConfigurationError."""
    if rule_id not in RULE_FACTORIES:
        raise ConfigurationError(f"unknown exterior/data rule {rule_id!r}")
    try:
        return RULE_FACTORIES[rule_id](list(params))
    except TypeError as e:
        raise ConfigurationError(f"rule {rule_id!r} does not take params {list(params)}") from e


def _rows(mask: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The rows of pts where mask is true, selected column by column and
    returned column-major (row selection is slow on column-major arrays,
    and on row-major ones it runs an inner loop of length n per row)."""
    return np.stack([np.compress(mask, c) for c in pts.T]).T


def tensor_points(axes) -> np.ndarray:
    """All points of the lattice axes[0] x axes[1] x ..., last axis fastest,
    as an (N, len(axes)) array."""
    if len(axes) == 1:
        return np.asarray(axes[0])[:, None]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=-1)


def box_lattice(lo, hi, counts) -> np.ndarray:
    """The lattice of `counts` points per axis (one count, or one per axis)
    spanning the box [lo, hi] corner to corner, ordered as tensor_points."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    counts = np.broadcast_to(counts, lo.shape)
    return tensor_points([np.linspace(lo[i], hi[i], counts[i]) for i in range(lo.size)])


class GridFunction:
    """Values on a uniform lattice over a box, multilinear inside, rule outside."""

    def __init__(self, box_lo, box_hi, values: np.ndarray, exterior: ExteriorRule):
        self.lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
        self.values = np.asarray(values, dtype=float)
        self.exterior = exterior
        self.dim = self.lo.size
        if self.values.ndim != self.dim:
            raise ConfigurationError("values array rank must equal dimension")
        if not np.all(np.isfinite(self.values)):
            raise DataError("grid values must be finite")
        self.shape = self.values.shape
        steps = (self.hi - self.lo) / (np.array(self.shape) - 1)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ConfigurationError("lattice spacing must be uniform across axes")
        self.h = float(steps[0])

    @classmethod
    def from_callable(cls, box_lo, box_hi, h: float, fn, exterior: ExteriorRule):
        lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
        counts = np.rint((hi - lo) / h).astype(int) + 1
        if np.any(counts < 2) or np.any(np.abs((counts - 1) * h - (hi - lo)) > 1e-9 * (hi - lo)):
            raise ConfigurationError(f"grid step {h:g} does not divide the box sides {hi - lo}")
        pts = box_lattice(lo, hi, counts)
        vals = np.asarray(fn(pts), dtype=float).reshape(counts)
        return cls(lo, hi, vals, exterior)

    # -- geometry helpers ----------------------------------------------------

    def points(self) -> np.ndarray:
        return box_lattice(self.lo, self.hi, self.shape)

    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def sup_bound(self) -> float:
        return max(float(np.abs(self.values).max()), self.exterior.sup_bound)

    def inside(self, pts: np.ndarray) -> np.ndarray:
        # column by column: np.all over an (N, dim) comparison runs an inner
        # loop of length dim, several times slower for long N
        ok = np.ones(pts.shape[0], dtype=bool)
        for d in range(self.dim):
            c = pts[:, d]
            ok &= (c >= self.lo[d] - 1e-12) & (c <= self.hi[d] + 1e-12)
        return ok

    # -- evaluation ----------------------------------------------------------

    def interp_weights(self, pts: np.ndarray):
        """Multilinear stencil of in-box points: (k, 2^n) int32 flat lattice
        indices and their weights.  Corner c takes the upper neighbour along
        axis d when bit n-1-d of c is set.  Built axis by axis on columns."""
        idx, wts = [None], [None]
        stride = 1
        for d in reversed(range(self.dim)):
            rel = (pts[:, d] - self.lo[d]) / self.h
            base = np.maximum(np.minimum(np.floor(rel), self.shape[d] - 2), 0)
            frac = rel - base
            lower = base.astype(np.int32)
            lower *= np.int32(stride)
            upper = lower + np.int32(stride)
            idx = [c if i is None else i + c for c in (lower, upper) for i in idx]
            wts = [c if w is None else c * w for c in (1.0 - frac, frac) for w in wts]
            stride *= self.shape[d]
        return np.stack(idx, axis=1), np.stack(wts, axis=1)

    def eval(self, pts) -> np.ndarray:
        pts = _as_points(pts, self.dim)
        out = np.empty(pts.shape[0])
        ins = self.inside(pts)
        if ins.any():
            idx, wts = self.interp_weights(pts[ins])
            out[ins] = (self.values.ravel()[idx] * wts).sum(axis=1)
        if (~ins).any():
            out[~ins] = self.exterior(pts[~ins])
        return out


class AnalyticField:
    """Closed-form bounded function under the GridFunction evaluation interface."""

    def __init__(self, name: str, fn, sup_bound: float, dim: int):
        self.name = name
        self.fn = fn
        self.sup_bound = float(sup_bound)
        self.dim = dim

    def eval(self, pts) -> np.ndarray:
        return np.asarray(self.fn(_as_points(pts, self.dim)), dtype=float)
