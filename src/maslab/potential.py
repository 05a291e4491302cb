"""Catalog of convex potentials with exact derivatives.

Each entry provides closed-form value/gradient/Hessian and the height
function v_x(y) = phi(y) - phi(x) - grad(x).(y - x), which is the deviation
of phi from its supporting hyperplane at x and drives all section geometry.
Dimensions 1 and 2 are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogViolationError, ConfigurationError
from .grid import box_lattice

CATALOG_IDS = ("iso_quadratic", "aniso_quadratic", "perturbed_quadratic")


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce to an (k, dim) float array; scalars allowed in 1D."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim == 1:
        if dim == 1 and a.shape[0] != 1:
            a = a[:, None]
        else:
            a = a[None, :]
    if a.shape[1] != dim:
        raise ConfigurationError(f"point dimension {a.shape[1]} != potential dimension {dim}")
    return a


@dataclass(frozen=True)
class Potential:
    """A convex potential from the catalog.

    params:
      iso_quadratic        -- none
      aniso_quadratic      -- row-major entries of the SPD matrix A (n*n values)
      perturbed_quadratic  -- [eps], phi = |x|^2/2 + eps*sqrt(1+|x|^2), eps <= 0.5
    """

    id: str
    dim: int
    params: tuple = ()
    _A: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.id not in CATALOG_IDS:
            raise ConfigurationError(f"unknown potential id {self.id!r}; known: {CATALOG_IDS}")
        if self.dim not in (1, 2):
            raise ConfigurationError("dimension must be 1 or 2")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.id == "aniso_quadratic":
            n = self.dim
            if len(self.params) != n * n:
                raise ConfigurationError(f"aniso_quadratic needs {n * n} matrix entries")
            A = np.asarray(self.params, dtype=float).reshape(n, n)
            A = 0.5 * (A + A.T)
            ev = np.linalg.eigvalsh(A)
            if ev[0] <= 0:
                raise ConfigurationError("anisotropy matrix must be positive definite")
            if ev[-1] / ev[0] > 100.0 + 1e-9:
                raise ConfigurationError("anisotropy condition number exceeds 100")
            object.__setattr__(self, "_A", A)
        elif self.id == "perturbed_quadratic":
            if len(self.params) != 1:
                raise ConfigurationError("perturbed_quadratic needs exactly one parameter eps")
            eps = self.params[0]
            if not 0.0 < eps <= 0.5:
                raise ConfigurationError("perturbation amplitude must lie in (0, 0.5]")
            object.__setattr__(self, "_A", np.eye(self.dim))
        else:
            if self.params:
                raise ConfigurationError("iso_quadratic takes no parameters")
            object.__setattr__(self, "_A", np.eye(self.dim))

    @property
    def eps(self) -> float:
        return self.params[0] if self.id == "perturbed_quadratic" else 0.0

    # -- closed forms -------------------------------------------------------

    def value(self, x) -> np.ndarray:
        p = _as_points(x, self.dim)
        quad = 0.5 * np.einsum("ki,ij,kj->k", p, self._A, p)
        if self.eps:
            quad = quad + self.eps * np.sqrt(1.0 + np.einsum("ki,ki->k", p, p))
        return quad

    def gradient(self, x) -> np.ndarray:
        p = _as_points(x, self.dim)
        g = p @ self._A
        if self.eps:
            s = np.sqrt(1.0 + np.einsum("ki,ki->k", p, p))
            g = g + self.eps * p / s[:, None]
        return g

    def hessian(self, x) -> np.ndarray:
        p = _as_points(x, self.dim)
        k = p.shape[0]
        H = np.broadcast_to(self._A, (k, self.dim, self.dim)).copy()
        if self.eps:
            s = np.sqrt(1.0 + np.einsum("ki,ki->k", p, p))
            outer = np.einsum("ki,kj->kij", p, p)
            H += self.eps * (np.eye(self.dim)[None] / s[:, None, None]
                             - outer / (s ** 3)[:, None, None])
        return H

    def height(self, x, y) -> np.ndarray:
        """v_x(y) for a single base point x and one or many probes y."""
        xa = _as_points(x, self.dim)[0]
        ya = _as_points(y, self.dim)
        return self.shifted_height(xa, ya - xa[None, :])

    def shifted_height(self, x, y) -> np.ndarray:
        """w_x(y) = v_x(x + y), evaluated in a cancellation-free form.

        x is one base point or one per row of y.  The naive formula
        phi(x+y) - phi(x) - grad.y subtracts O(1) terms to produce an
        O(|y|^2) result; for quadratics the exact quadratic form is used and
        for the perturbed entry the difference of square roots is
        rationalized, so small heights keep full relative accuracy.
        """
        ya = _as_points(y, self.dim)
        xa = _as_points(x, self.dim)
        if xa.shape[0] not in (1, ya.shape[0]):
            raise ConfigurationError("need one base point or one per increment")
        if self.dim == 1:
            # elementwise: a (k, 1) @ (1, 1) matmul costs several times more
            y0 = ya[:, 0]
            w = 0.5 * (self._A[0, 0] * y0 * y0)
        else:
            w = 0.5 * np.einsum("ki,ki->k", ya @ self._A, ya)
        if self.eps:
            # a single base point broadcasts: s0 is then one value
            xpy = xa + ya
            s0 = np.sqrt(1.0 + np.einsum("ki,ki->k", xa, xa))
            s1 = np.sqrt(1.0 + np.einsum("ki,ki->k", xpy, xpy))
            xy = np.einsum("ki,ki->k", ya, xa)
            yy = np.einsum("ki,ki->k", ya, ya)
            # s1 - s0 - x.y/s0, written without cancellation:
            bracket = yy / (s0 + s1) - xy * (2.0 * xy + yy) / ((s0 + s1) ** 2 * s0)
            w = w + self.eps * bracket
        return np.maximum(w, 0.0)

    def hessian_bounds(self) -> tuple[float, float]:
        """Global (lower, upper) eigenvalue bounds of the Hessian."""
        ev = np.linalg.eigvalsh(self._A)
        lo, hi = float(ev[0]), float(ev[-1])
        if self.eps:
            hi += self.eps  # eigenvalues of the perturbation lie in [0, eps]
        return lo, hi

    def ma_band(self) -> tuple[float, float]:
        """Declared global bounds on det D^2 phi for this catalog entry."""
        det = float(np.linalg.det(self._A))
        if self.eps:
            return det, det * (1.0 + self.eps) ** self.dim
        return det, det


def make_potential(id: str, dim: int, params=()) -> Potential:
    return Potential(id=id, dim=dim, params=tuple(params))


def verify_ma_bounds(potential: Potential, box_lo, box_hi, samples: int) -> tuple[float, float]:
    """Min/max of det D^2 phi over a deterministic lattice in the box.

    Raises CatalogViolationError naming the offending point if a nonpositive
    determinant shows up (impossible for catalog entries, but checked).
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    pts = box_lattice(box_lo, box_hi, samples)
    H = potential.hessian(pts)
    det = np.linalg.det(H)
    bad = np.nonzero(det <= 0.0)[0]
    if bad.size:
        raise CatalogViolationError(
            f"det D^2 phi = {det[bad[0]]:g} <= 0 at point {pts[bad[0]]}")
    return float(det.min()), float(det.max())
