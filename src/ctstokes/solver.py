"""Direct solution of the assembled saddle-point system.

The matrix is non-symmetric (non-symmetric boundary penalty and the
corrected continuity pairing), so a sparse LU factorization with partial
pivoting is used.  The three scalar constraint unknowns carry dense rows and
columns which ruin fill-reducing orderings, so every system is solved in
bordered form: the field block is factorized sparsely after a sparse
rank-one shift that removes its one-dimensional kernel (the joint constant
pressure/multiplier mode), and the dense border is eliminated through a
3x3 Schur complement.  Iterative refinement with the same factors
drives the residual to near machine precision, which the pointwise
divergence guarantee needs: a continuity-row residual is amplified by the
inverse pressure mass, i.e. by 1/h^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem

RESIDUAL_TOL = 1e-10
REFINE_TARGET = 1e-13
MAX_REFINE = 5
N_BORDER = 3  # alpha, beta, gamma: the layout's trailing scalar unknowns


class SolverError(RuntimeError):
    pass


@dataclass
class SolutionFields:
    """Solved coefficient vectors split by field."""

    u: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    alpha: float
    beta: float
    gamma: float
    residual: float

    @classmethod
    def from_vector(cls, x: np.ndarray, layout, residual: float) -> "SolutionFields":
        return cls(u=x[:layout.n_u],
                   p=x[layout.offset_p:layout.offset_p + layout.n_p],
                   lam=x[layout.offset_lam:layout.offset_lam + layout.n_lam],
                   alpha=float(x[layout.alpha]),
                   beta=float(x[layout.beta]),
                   gamma=float(x[layout.gamma]),
                   residual=residual)


class _BorderedLU:
    """Sparse LU of the pinned field block and a 3x3 Schur complement.

    M = [[K, B], [C, D]] with K the sparse field block and B, C, D the dense
    border of the three scalar unknowns.  K has a one-dimensional kernel
    (the joint constant pressure/multiplier mode) that the border completes,
    so K is shifted by the first border column b0 pinned at its largest
    entry j: S = K + b0 e_j^T.  With y = z + e_0 x_j the system becomes
    [[S, B], [C', D]], C' = C + D[:, 0] e_j^T, which block elimination
    solves through X = S^{-1} B and the Schur complement D - C' X; each
    right-hand side then costs one sparse solve.
    """

    def __init__(self, M: sp.csc_matrix):
        N = M.shape[0] - N_BORDER
        self.N = N
        B = M[:N, N:].toarray()
        D = M[N:, N:].toarray()
        self.j = j = int(np.argmax(np.abs(B[:, 0])))
        rows = np.flatnonzero(B[:, 0])
        S = M[:N, :N] + sp.csc_matrix((B[rows, 0], (rows, np.full(rows.size, j))),
                                      shape=(N, N))
        try:
            self.lu = spla.splu(S.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"pinned field block is singular: {exc}") from exc
        self.C = M[N:, :N].toarray()
        self.C[:, j] += D[:, 0]
        self.X = self.lu.solve(B)
        try:
            self.schur_inv = np.linalg.inv(D - self.C @ self.X)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"border Schur complement is singular: {exc}") from exc

    def solve(self, b):
        N = self.N
        w = self.lu.solve(b[:N])
        z = self.schur_inv @ (b[N:] - self.C @ w)
        x = np.concatenate([w - self.X @ z, z])
        x[N] += x[self.j]
        return x

    def min_pivot(self):
        return float(np.abs(self.lu.U.diagonal()).min())


def factorize(matrix: sp.spmatrix) -> _BorderedLU:
    """Factorize the saddle system, whose last N_BORDER unknowns are scalars."""
    A = matrix.tocsc()
    if A.shape[0] != A.shape[1] or A.shape[0] <= N_BORDER:
        raise SolverError(f"system is not square with a field block: {A.shape}")
    return _BorderedLU(A)


def solve_direct(system: SaddleSystem, rhs: np.ndarray) -> SolutionFields:
    """Solve one rhs under the residual contract; factorize on first use.

    Refinement runs past the contract down to stagnation of both the global
    residual and the continuity-block residual: the discrete divergence
    equals the inverse pressure mass applied to the continuity residual, an
    amplification of order 1/h^2, so those rows must be resolved to near
    machine precision for the pointwise divergence guarantee.

    Raises:
        SolverError: singular factorization, non-finite solution, or a
            residual above the contract after iterative refinement.
    """
    A, b = system.matrix, rhs
    layout = system.layout
    p_rows = slice(layout.offset_p, layout.offset_p + layout.n_p)
    if system.factor is None:
        system.factor = factorize(A)
    lu = system.factor
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError(
            "factorization produced non-finite values "
            f"(min |U_ii| = {lu.min_pivot():.3e}); system is singular to working precision")
    nb = np.linalg.norm(b)

    def residuals(x):
        r = A @ x - b
        rel = np.linalg.norm(r) / nb if nb > 0 else np.linalg.norm(r)
        return rel, float(np.abs(r[p_rows]).max(initial=0.0))

    res, res_p = residuals(x)
    for _ in range(MAX_REFINE):
        if res <= REFINE_TARGET and res_p <= 1e-15:
            break
        x_new = x + lu.solve(b - A @ x)
        res_new, res_p_new = residuals(x_new)
        if res_new >= res and res_p_new >= res_p:
            break
        x, res, res_p = x_new, res_new, res_p_new
    if res > RESIDUAL_TOL:
        raise SolverError(f"residual contract violated: {res:.3e} > {RESIDUAL_TOL:.1e}")
    return SolutionFields.from_vector(x, system.layout, float(res))


def dump_matrix_market(path, system: SaddleSystem) -> None:
    """Write the system matrix in Matrix Market format."""
    from scipy.io import mmwrite

    mmwrite(str(path), system.matrix.tocoo())
