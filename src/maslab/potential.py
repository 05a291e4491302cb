"""Catalog of convex potentials with exact derivatives.

Each entry provides closed-form gradient/Hessian and the height
function v_x(y) = phi(y) - phi(x) - grad(x).(y - x), which is the deviation
of phi from its supporting hyperplane at x and drives all section geometry.
Dimensions 1 and 2 are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

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
        raise ConfigurationError(f"point dimension {a.shape[1]} != dimension {dim}")
    return a


def _dot(a: list, b: list) -> np.ndarray:
    """Row-wise dot product of two points given as lists of columns, summed
    in the order of einsum("ki,ki->k")."""
    out = a[0] * b[0]
    for ai, bi in zip(a[1:], b[1:]):
        out += ai * bi
    return out


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

    @property
    def quadratic(self) -> bool:
        """True for the exactly quadratic entries, whose sections are
        ellipsoids of one shape at every centre.  Their heights never read
        the base point, so kernels.point_quadrature builds one node set per
        batch and repeats it."""
        return self.id in ("iso_quadratic", "aniso_quadratic")

    # -- closed forms -------------------------------------------------------

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
        return self._heights(x, y, symmetric=False)

    def sym_height(self, x, y) -> np.ndarray:
        """wbar_x(y) = sqrt(w_x(y) * w_x(-y)), the symmetrized height, with x
        as in shifted_height.  Both heights come from one pass that shares
        the quadratic part, |x|, x.y and |y|^2; each is bit-equal to its
        shifted_height.  For quadratics w_x(-y) is w_x(y) bit for bit and
        sqrt(w * w) is w, so wbar is w_x(y)."""
        return self._heights(x, y, symmetric=True)

    def _heights(self, x, y, symmetric: bool) -> np.ndarray:
        ya = _as_points(y, self.dim)
        xa = _as_points(x, self.dim)
        if xa.shape[0] not in (1, ya.shape[0]):
            raise ConfigurationError("need one base point or one per increment")
        # column by column: an einsum over n <= 2 columns costs several
        # times more than the elementwise products.  The 2D aniso form keeps
        # its matmul: column arithmetic would change its rounding (BLAS uses
        # fused multiply-adds) for a non-diagonal A.
        yc = [ya[:, i] for i in range(self.dim)]
        if self.id == "aniso_quadratic":      # never perturbed
            ay = self._A[0, 0] * ya if self.dim == 1 else ya @ self._A
            return np.maximum(0.5 * _dot([ay[:, i] for i in range(self.dim)], yc), 0.0)
        yy = _dot(yc, yc)
        w = 0.5 * yy                # A = I
        if not self.eps:
            return np.maximum(w, 0.0)
        # a single base point broadcasts: s0 is then one value
        xc = [xa[:, i] for i in range(self.dim)]
        s0 = np.sqrt(1.0 + _dot(xc, xc))
        xy = _dot(yc, xc)

        def height(sign):
            # w_x(sign * y): s1 - s0 - x.y/s0, written without cancellation;
            # in place where the operands commute, which changes no bit
            step = np.add if sign > 0 else np.subtract
            xpy = [step(a, b) for a, b in zip(xc, yc)]
            s = _dot(xpy, xpy)
            s += 1.0
            np.sqrt(s, out=s)
            s += s0                                   # s0 + s1
            sxy = xy if sign > 0 else -xy
            num = 2.0 * sxy
            num += yy
            num *= sxy                                # x.y (2 x.y + y.y)
            num /= np.multiply(np.square(s), s0)
            w_s = np.divide(yy, s)
            w_s -= num
            w_s *= self.eps
            w_s += w
            return np.maximum(w_s, 0.0, out=w_s)

        if not symmetric:
            return height(1)
        return np.sqrt(height(1) * height(-1))

    def hessian_bounds(self) -> tuple[float, float]:
        """Global (lower, upper) eigenvalue bounds of the Hessian."""
        ev = np.linalg.eigvalsh(self._A)
        lo, hi = float(ev[0]), float(ev[-1])
        if self.eps:
            hi += self.eps  # eigenvalues of the perturbation lie in [0, eps]
        return lo, hi


def make_potential(id: str, dim: int, params=()) -> Potential:
    return Potential(id=id, dim=dim, params=tuple(params))

