"""Catalog of convex potentials with exact derivatives.

Each entry provides closed-form gradient/Hessian and the height
function v_x(y) = phi(y) - phi(x) - grad(x).(y - x), which is the deviation
of phi from its supporting hyperplane at x and drives all section geometry.
Dimensions 1 and 2 are supported.

Layout: points come as (N, n) arrays, but the heights are computed on their
columns, in blocks.  A ufunc over a row-major (N, n) array runs an inner
loop of length n (2 at most), several times slower than one pass over a
contiguous column, and each fresh temporary the size of a large lattice
costs page faults on top of its arithmetic.  So `pair_heights`, and
`height` through it, stream their pairs through one loop of blocks of at
most HEIGHT_BLOCK: each block's y - x is formed one column at a time into
one reused column-major (n, HEIGHT_BLOCK) buffer, `shifted_height` runs on
that block, and its values are copied into the output, the one array the
size of the input.  Within a pass the results of the height formulas are
reused in place.  Every per-element operation is that of the row-major
formulas, so the values are the same bit for bit for any block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

CATALOG_IDS = ("iso_quadratic", "aniso_quadratic", "perturbed_quadratic")

# Pairs per shifted_height call of pair_heights, and so probes per call of
# height.  It bounds the temporaries of one pass (y - x, |y|^2, x.y and the
# perturbed form's terms), which would otherwise each be the size of the
# lattice; at 2^13 pairs each is 64 KB.  One height call on perfbench's
# sections_2d probe lattice (260 x 260 = 67.6k points about an off-centre
# point), in ms / minor page faults per call (median of 200 calls in a fresh
# process after 5 warm ones, shared 2-vCPU host):
#
#   block       iso             aniso           perturbed
#   whole       0.85 / 496      1.40 / 760      2.13 / 1024
#   2^10        1.55 / 0        1.89 / 0        2.85 / 0
#   2^11        0.68 / 0        0.79 / 0        1.81 / 0
#   2^12        0.45 / 0        0.58 / 0        1.23 / 0
#   2^13        0.33 / 0        0.44 / 0        1.05 / 0
#   2^14        0.62 / 228      0.39 / 0        0.91 / 0
#   2^15        0.57 / 224      1.09 / 484      2.14 / 960
#
# Small blocks pay the per-call cost of each pass.  From 2^14 a block's
# temporaries are 128 KB or more, glibc malloc's default threshold for
# mapping and trimming memory, and they can fault again on every call.
HEIGHT_BLOCK = 1 << 13


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


def _as_point(x, dim: int) -> np.ndarray:
    """One point as a (dim,) float array; more than one row raises, where
    taking the first would drop the rest silently."""
    a = _as_points(x, dim)
    if a.shape[0] != 1:
        raise ConfigurationError(f"need one base point, not {a.shape[0]}")
    return a[0]


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
        """v_x(y) for a single base point x and one or many probes y; a base
        point of more than one row raises ConfigurationError.  It is row 0
        of pair_heights(x, y), so the probes pass through shifted_height
        HEIGHT_BLOCK at a time."""
        return self.pair_heights(_as_point(x, self.dim), y)[0]

    def pair_heights(self, x, y) -> np.ndarray:
        """v_{x_i}(y_j) for every row x_i of x and y_j of y, as a
        (len(x), len(y)) array whose row i is height(x_i, y) bit for bit.

        The pairs, row by row, pass through shifted_height in blocks of at
        most HEIGHT_BLOCK: whole rows of x while len(y) fits a block, else
        HEIGHT_BLOCK columns of one row.  Each block's y - x is formed column
        by column in one reused column-major buffer, and its heights are
        copied into the output, the one array of the size of the pairs."""
        xa, ya = _as_points(x, self.dim), _as_points(y, self.dim)
        k, m = xa.shape[0], ya.shape[0]
        out = np.empty((k, m))
        cols = max(1, min(m, HEIGHT_BLOCK))
        rows = max(1, min(k, HEIGHT_BLOCK // cols))
        d = np.empty((self.dim, rows * cols))
        base = np.empty_like(d) if rows > 1 else None
        for i0 in range(0, k, rows):
            r = min(rows, k - i0)
            for j0 in range(0, m, cols):
                c = min(cols, m - j0)
                for i in range(self.dim):
                    np.subtract(ya[j0:j0 + c, i], xa[i0:i0 + r, i, None],
                                out=d[i, :r * c].reshape(r, c))
                if r == 1:      # a single base point broadcasts
                    bx = xa[i0]
                else:
                    for i in range(self.dim):
                        base[i, :r * c].reshape(r, c)[...] = xa[i0:i0 + r, i, None]
                    bx = base[:, :r * c].T
                out[i0:i0 + r, j0:j0 + c] = self.shifted_height(
                    bx, d[:, :r * c].T).reshape(r, c)
        return out

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
        # fused multiply-adds) for a non-diagonal A.  The matmul of a
        # column-major ya gives the row-major one's bits (OpenBLAS on x86-64;
        # tests/test_potential.py checks it).  Each result below is a new
        # array, scaled and clipped in place.
        yc = [ya[:, i] for i in range(self.dim)]
        if self.id == "aniso_quadratic":      # never perturbed
            ay = self._A[0, 0] * ya if self.dim == 1 else ya @ self._A
            q = _dot([ay[:, i] for i in range(self.dim)], yc)
            q *= 0.5
            return np.maximum(q, 0.0, out=q)
        yy = _dot(yc, yc)
        if not self.eps:            # A = I
            yy *= 0.5
            return np.maximum(yy, 0.0, out=yy)
        w = 0.5 * yy
        # a single base point broadcasts: s0 is then one value
        xc = [xa[:, i] for i in range(self.dim)]
        s0 = np.sqrt(1.0 + _dot(xc, xc))
        xy = _dot(yc, xc)

        def height(sign):
            # w_x(sign * y): s1 - s0 - x.y/s0, written without cancellation;
            # in place where the operands commute, which changes no bit
            step = np.add if sign > 0 else np.subtract
            s, *rest = [step(a, b) for a, b in zip(xc, yc)]
            s *= s                                    # |x + sign y|^2 as _dot sums it
            for c in rest:
                s += np.multiply(c, c, out=c)
            s += 1.0
            np.sqrt(s, out=s)
            s += s0                                   # s0 + s1
            sxy = xy if sign > 0 else -xy
            num = 2.0 * sxy
            num += yy
            num *= sxy                                # x.y (2 x.y + y.y)
            den = np.square(s)
            den *= s0
            num /= den
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

