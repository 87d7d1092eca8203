"""IMEX time stepping for the self-similar flow.

The full linear part L = (1+i beta) d2/dy2 - (y/2) d/dy is treated
implicitly, by Crank-Nicolson; only the reaction terms are explicit, by
two-step Adams-Bashforth (a forward-Euler reaction on a first step).
Boundary values are pinned (Dirichlet).

Keeping the drift implicit matters: at the production grid the advective
Courant number sits right at 1, where explicit central drift under AB2 is
unstable (AB2 has no imaginary-axis stability).

The discrete operator L_h is written once, as bands, in
``Stepper._operator``.  Both sides of the step read it: the implicit matrix
I - (ds/2) L_h is LU-factored exactly once, in ``Stepper.__init__`` (L_h
does not depend on s), every step only solves with those factors (for the
pentadiagonal matrix, by its row interchanges and banded triangular
solves), and the explicit side applies L_h in difference form.
The kernels live in :mod:`cglblow._kernels_np`, which loads scipy's LAPACK
extension file directly rather than importing scipy.linalg, whose package
init costs a fresh process about 0.3 s and 28 MB; it falls back to
``scipy.linalg.lapack`` when the file cannot be loaded on its own.  Both
routes give the same routines.  A ``Stepper`` is fixed once built: ``step``
returns the Adams-Bashforth history (its reaction term) for the caller to
pass back in.
"""

from __future__ import annotations

import numpy as np

from . import _kernels_np as KERNELS


class Stepper:
    """Crank-Nicolson / Adams-Bashforth 2 stepper on a fixed uniform grid.

    ``reaction`` is the (p, delta) of the reaction term, or None for the
    pure drift-diffusion flow of the linear-mode tests; it has no default.
    space_order: 2 or 4 (the 4th-order Laplacian falls back to 2nd order
    one point from each boundary).  It serves any number of fields; the
    caller keeps the history of each.
    """

    def __init__(self, y: np.ndarray, ds: float, beta: float, *,
                 reaction, space_order: int = 2):
        if space_order not in (2, 4):
            raise ValueError("space_order must be 2 or 4")
        self.y = np.asarray(y, dtype=float)
        self.h = self.y[1] - self.y[0]
        self.ds = float(ds)
        self.beta = float(beta)
        self.reaction = reaction
        self.space_order = space_order
        self._op = self._operator()
        bands = self._bands()
        if space_order == 2:
            self._fact = KERNELS.tri_factor(bands)
            self._solve = KERNELS.tri_solve_factored
        else:
            self._fact = KERNELS.penta_factor(bands)
            self._solve = KERNELS.penta_solve_factored

    # -- spatial operator ----------------------------------------------------

    def _operator(self) -> np.ndarray:
        """L_h in diagonal-ordered form (entry (i, j) at row nb + i - j).

        L_h = (1+i beta) D2 - (y/2) D1 on the interior rows; the boundary
        rows are zero (their values are pinned).  Every row sums to zero
        in exact arithmetic, which ``cn_rhs`` relies on.
        """
        n, nb = len(self.y), self.space_order // 2
        cb = 1.0 + 1j * self.beta
        h, h2 = self.h, self.h**2
        op = np.zeros((2 * nb + 1, n), dtype=np.complex128)

        def put(first, coef):
            # coef[off]: entries (i, i + off) of L_h for rows first .. n-1-first
            for off, c in coef.items():
                op[nb - off, first + off:n - first + off] = c

        v = 0.5 * self.y[1:-1]
        put(1, {
            -1: cb / h2 + v / (2 * h),
            0: np.full(n - 2, -2 * cb / h2),
            1: cb / h2 - v / (2 * h),
        })
        if self.space_order == 4:
            v = v[1:-1]
            put(2, {
                -2: -cb / (12 * h2) - v / (12 * h),
                -1: 16 * cb / (12 * h2) + v * 8 / (12 * h),
                0: np.full(n - 4, -30 * cb / (12 * h2)),
                1: 16 * cb / (12 * h2) - v * 8 / (12 * h),
                2: -cb / (12 * h2) + v / (12 * h),
            })
        return op

    def _bands(self) -> np.ndarray:
        """The implicit matrix I - (ds/2) L_h, in the layout of
        ``_operator``; the boundary rows come out as identity rows
        (Dirichlet pins).
        """
        bands = np.zeros_like(self._op)
        bands[self.space_order // 2] = 1.0
        bands -= 0.5 * self.ds * self._op
        return bands

    # -- stepping ------------------------------------------------------------

    def step(self, w: np.ndarray, prev, bc_left, bc_right):
        """Advance the field w, shape (..., N), one ds.

        ``prev`` is the history the last step of these rows returned, None
        on a first step; the boundary values are for the new time level, one
        per row (or one for all rows).  Returns the new field and its
        history, this step's reaction term (None without ``reaction``).
        """
        w = np.ascontiguousarray(w, dtype=np.complex128)
        if prev is None:
            c_new, c_old = self.ds, 0.0
        else:
            c_new, c_old = 1.5 * self.ds, -0.5 * self.ds
        rhs, react = KERNELS.cn_rhs(w, prev, self._op, 0.5 * self.ds, c_new,
                                    c_old, self.reaction)
        rhs[..., 0] = bc_left
        rhs[..., -1] = bc_right
        return self._solve(self._fact, rhs.T).T, react
