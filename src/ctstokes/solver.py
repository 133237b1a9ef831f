"""Direct solution of the assembled saddle-point system.

The matrix is non-symmetric (non-symmetric boundary penalty and the
corrected continuity pairing), so a sparse LU factorization with partial
pivoting is used.  The three scalar constraint unknowns carry dense rows and
columns which ruin fill-reducing orderings, so large systems are solved in
bordered form: the field block is factorized sparsely after a sparse
rank-one shift that removes its one-dimensional kernel (the joint constant
pressure/multiplier mode), and the dense border is folded back through a
small Woodbury correction; if a probe solve rejects that factorization, the
full matrix is factorized plainly.  Iterative refinement with the same factors
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
BORDERED_MIN_DOFS = 4000


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


def _relative_residual(A, x, b):
    nb = np.linalg.norm(b)
    r = np.linalg.norm(A @ x - b)
    return r / nb if nb > 0 else r


class _PlainLU:
    """splu of the full matrix; adequate below the bordered-size threshold."""

    def __init__(self, A: sp.csc_matrix):
        self.lu = spla.splu(A)

    def solve(self, b):
        return self.lu.solve(b)

    def min_pivot(self):
        return float(np.abs(self.lu.U.diagonal()).min())


class _BorderedLU:
    """Sparse factorization of the field block plus dense 3x3 border.

    For M = [[K, B], [C, D]] with K sparse and (B, C) dense but low rank,
    K is shifted by one sparse outer product built from the first border
    column (pinned at its largest entry) so the shifted block S is
    nonsingular, and M = diag(S, I) + U W^T is solved by the Woodbury
    identity.  The shift exists because the border itself completes the rank
    of K; whether the pin hits the cokernel is verified by a probe solve in
    the caller, which falls back to the plain path.
    """

    def __init__(self, M: sp.csc_matrix, n_border: int):
        N = M.shape[0] - n_border
        self.N, self.nb = N, n_border
        K = M[:N, :N].tocsc()
        self.Bcols = np.asarray(M[:N, N:].todense())
        self.Crows = np.asarray(M[N:, :N].todense())
        self.Dblk = np.asarray(M[N:, N:].todense())

        j = int(np.argmax(np.abs(self.Bcols[:, 0])))
        col = sp.csc_matrix(self.Bcols[:, 0][:, None])
        e = sp.csc_matrix(([1.0], ([j], [0])), shape=(N, 1))
        shift = col @ e.T
        self.lu = spla.splu((K + shift).tocsc())

        # U W^T reproduces the border and removes the shift:
        #   [[-shift, B], [C, D - I]]  (rank <= 1 + 2*n_border)
        nw = 1 + 2 * n_border
        U = np.zeros((N + n_border, nw))
        W = np.zeros((N + n_border, nw))
        U[:N, 0] = -self.Bcols[:, 0]
        W[j, 0] = 1.0
        for i in range(n_border):
            U[:N, 1 + i] = self.Bcols[:, i]
            W[N + i, 1 + i] = 1.0
        for i in range(n_border):
            U[N + i, 1 + n_border + i] = 1.0
            W[:N, 1 + n_border + i] = self.Crows[i, :]
            W[N:, 1 + n_border + i] = self.Dblk[i, :] - np.eye(n_border)[i]
        self.U, self.W = U, W

        T = np.empty_like(U)
        for k in range(nw):
            T[:N, k] = self.lu.solve(U[:N, k])
            T[N:, k] = U[N:, k]
        G = np.eye(nw) + self.W.T @ T
        self.T = T
        self.G_lu = None
        try:
            import scipy.linalg

            self.G_lu = scipy.linalg.lu_factor(G)
        except Exception as exc:
            raise SolverError(f"border correction is singular: {exc}") from exc

    def solve(self, b):
        import scipy.linalg

        y = np.empty_like(b)
        y[:self.N] = self.lu.solve(b[:self.N])
        y[self.N:] = b[self.N:]
        z = scipy.linalg.lu_solve(self.G_lu, self.W.T @ y)
        return y - self.T @ z

    def min_pivot(self):
        return float(np.abs(self.lu.U.diagonal()).min())


def factorize(matrix: sp.spmatrix, n_border: int = 3):
    """Factorization chain: bordered rank-1 shift, then plain splu.

    Each stage is probed with a manufactured right-hand side; a stage whose
    probe misses the residual contract is discarded.  Small systems go
    straight to the plain path.
    """
    A = matrix.tocsc()
    n = A.shape[0]
    if n != A.shape[1]:
        raise SolverError(f"system is not square: {A.shape}")

    attempts = []
    if n >= BORDERED_MIN_DOFS and n_border > 0:
        attempts.append(lambda: _BorderedLU(A, n_border))
    attempts.append(lambda: _PlainLU(A))

    rng = np.random.default_rng(0)
    x_probe = rng.standard_normal(n)
    b_probe = A @ x_probe
    last_exc = None
    for make in attempts:
        try:
            lu = make()
        except (RuntimeError, SolverError) as exc:
            last_exc = exc
            continue
        x = lu.solve(b_probe)
        if not np.all(np.isfinite(x)):
            continue
        x = x + lu.solve(b_probe - A @ x)
        if _relative_residual(A, x, b_probe) <= 1e-11:
            return lu
    raise SolverError(f"sparse LU factorization failed: {last_exc}")


def solve_direct(system: SaddleSystem) -> SolutionFields:
    """Solve the system and enforce the relative residual contract.

    Refinement runs past the contract down to stagnation of both the global
    residual and the continuity-block residual: the discrete divergence
    equals the inverse pressure mass applied to the continuity residual, an
    amplification of order 1/h^2, so those rows must be resolved to near
    machine precision for the pointwise divergence guarantee.

    Raises:
        SolverError: singular factorization, non-finite solution, or a
            residual above the contract after iterative refinement.
    """
    A, b = system.matrix.tocsc(), system.rhs
    layout = system.layout
    p_rows = slice(layout.offset_p, layout.offset_p + layout.n_p)
    lu = factorize(A)
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
    """Write the system matrix (and rhs alongside) in Matrix Market format."""
    from scipy.io import mmwrite

    mmwrite(str(path), system.matrix.tocoo())
    np.savetxt(str(path) + ".rhs", system.rhs)
