"""Direct solution of the assembled saddle-point system.

The matrix is non-symmetric (non-symmetric boundary penalty and the
corrected continuity pairing), so a sparse LU factorization with partial
pivoting is used, after two exact reductions.  One factor object,
_CondensedLU, makes both and holds the one sparse LU.

First, static condensation.  Each macro triangle's 8 bubble velocity
unknowns and 8 of its 9 pressure unknowns (the layout's ``interior``) couple
only to unknowns of their own macro and to the scalars, and their 16x16
block [[a, C], [B, 0]] is invertible: B, the bubbles' divergence against 8
pressures, is the local Scott-Vogelius inf-sup condition on a Clough-Tocher
split.  Its inverse is explicit, [[0, B^-1], [C^-1, -C^-1 a B^-1]], batched
over macros; the whole block is never inverted, because its condition
number reaches 7.5e15 at n = 128.  The
remaining unknowns solve the Schur complement S = A_KK - A_KI A_II^-1 A_IK,
about a quarter of the system, and the interior ones are recovered macro by
macro.

Second, the bordered form.  The three scalar constraint unknowns carry dense
rows and columns which ruin fill-reducing orderings, so only the field
block of S is factorized sparsely, after a sparse rank-one shift that
removes its one-dimensional kernel (the joint constant pressure/multiplier
mode), and the dense border is eliminated through a 3x3 Schur complement.
A solve is the interior forward step, the bordered solve of S and the
interior back-solve.

Iterative refinement with the same factors, against the full matrix,
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
STALL = 0.5  # a step keeping more of the continuity residual than this has stalled
N_BORDER = 3  # alpha, beta, gamma: the layout's trailing scalar unknowns
SCHUR_ROWS = 4096  # kept rows per chunk of the Schur complement


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


def _interior_inverse(blocks: np.ndarray) -> np.ndarray:
    """Overwrite the (T, 16, 16) macro blocks [[a, C], [B, 0]] in place by
    their inverses, and return them.

    B or C is singular to working precision when its 1-norm condition
    number, taken from the computed inverse, reaches 1 / (8 eps), 8 being
    the order of the blocks.  An exactly singular one makes the batched
    inverse raise; only then does np.linalg.cond take the condition
    numbers, infinite for that block.

    Raises:
        SolverError: B or C of some macro is singular to working precision,
            or its block's inverse overflows.
    """
    a, C, B = blocks[:, :8, :8], blocks[:, :8, 8:], blocks[:, 8:, :8]
    pair = np.stack([B, C], axis=1)
    try:
        pinv = np.linalg.inv(pair)
        cond = (np.linalg.norm(pair, 1, axis=(-2, -1))
                * np.linalg.norm(pinv, 1, axis=(-2, -1)))
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(pair, 1)
    singular = cond >= 1.0 / (8 * np.finfo(float).eps)
    if singular.any():
        t, k = np.argwhere(singular)[0]
        name = ("divergence", "momentum pressure")[k]
        raise SolverError(f"macro {t}: interior {name} block is singular to "
                          f"working precision (1-norm condition number "
                          f"{cond[t, k]:.1e})")
    Binv, Cinv = np.moveaxis(pinv, 1, 0)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        blocks[:, 8:, 8:] = -Cinv @ a @ Binv
    blocks[:, :8, :8] = 0.0
    blocks[:, :8, 8:] = Binv
    blocks[:, 8:, :8] = Cinv
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        raise SolverError(f"macro {np.argmin(finite)}: the inverse of the interior "
                          "block overflows")
    return blocks


class _CondensedLU:
    """The system with its macro-interior unknowns eliminated, factorized.

    kept holds the remaining unknowns in their order, the scalar border
    last.  Their Schur complement is M = [[K, B], [C, D]], with K the sparse
    field block and B, C, D the dense border of the N_BORDER scalars.  K has
    a one-dimensional kernel (the joint constant pressure/multiplier mode)
    that the border completes, so K is shifted by the first border column
    b0 pinned at row j, where the kernel mode does not vanish:
    K' = K + b0 e_j^T.  j is the largest entry of the assembled first border
    column on the kept field rows: in a saddle system that column holds the
    pressure means, so the pin lands on a kept pressure row, where the
    kernel mode lives.  With y = z + e_0 x_j the system becomes
    [[K', B], [C', D]], C' = C + D[:, 0] e_j^T, which block elimination
    solves through X = K'^{-1} B and the Schur complement D - C' X; each
    right-hand side then costs one sparse solve.
    """

    def __init__(self, A: sp.csr_matrix, interior: np.ndarray):
        # each temporary is dropped as soon as what is built from it exists:
        # the heap keeps its high-water mark, and the LU lands on top of it
        n, T = A.shape[0], len(interior)
        self.interior = interior
        inner = interior.ravel()
        mask = np.ones(n, dtype=bool)
        mask[inner] = False
        self.kept = kept = np.flatnonzero(mask)
        rows = A[inner]
        A_II = rows[:, inner].tobsr(blocksize=(16, 16))    # inverted in place below
        self.A_IK = rows[:, kept]
        del rows
        # one stored block per macro, on the diagonal: an assembled system
        # stores every macro's, as each bubble has a positive stiffness diagonal
        if not (np.array_equal(A_II.indptr, np.arange(T + 1))
                and np.array_equal(A_II.indices, np.arange(T))):
            raise SolverError("interior unknowns of different macros are coupled, "
                              "or a macro has none")
        self.inv = _interior_inverse(A_II.data)
        P = (A_II @ self.A_IK).tocsr()
        del A_II
        # M = A_KK - A_KI P, SCHUR_ROWS kept rows at a time; each row of
        # the product is summed as over the whole block
        ki, schur = [], []
        for start in range(0, kept.size, SCHUR_ROWS):
            rows = A[kept[start:start + SCHUR_ROWS]]
            ki.append(rows[:, inner])
            schur.append(rows[:, kept] - ki[-1] @ P)
            del rows
        del P
        self.A_KI = sp.vstack(ki, format="csr")
        del ki
        M = sp.vstack(schur, format="csr")
        del schur
        M = M.tocsc()
        self.N = N = kept.size - N_BORDER
        alpha = np.abs(A[kept[:N], n - N_BORDER].toarray().ravel())
        self.j = j = int(np.argmax(alpha))
        B = M[:N, N:].toarray()
        D = M[N:, N:].toarray()
        self.C = M[N:, :N].toarray()
        self.C[:, j] += D[:, 0]
        K = M[:N, :N]
        del M
        pinned = np.flatnonzero(B[:, 0])
        K = K + sp.csc_matrix((B[pinned, 0], (pinned, np.full(pinned.size, j))),
                              shape=(N, N))
        try:
            self.lu = spla.splu(K.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"pinned field block is singular: {exc}") from exc
        del K
        self.X = self.lu.solve(B)
        with np.errstate(over="ignore", invalid="ignore"):     # checked below
            schur = D - self.C @ self.X
        if not np.isfinite(schur).all():
            raise SolverError("border Schur complement is not finite")
        try:
            self.schur_inv = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"border Schur complement is singular: {exc}") from exc

    def _inner(self, v):
        return (self.inv @ v[:, :, None])[:, :, 0]

    def solve(self, b):
        N, b_I = self.N, b[self.interior]
        c = b[self.kept] - self.A_KI @ self._inner(b_I).ravel()
        w = self.lu.solve(c[:N])
        z = self.schur_inv @ (c[N:] - self.C @ w)
        x_K = np.concatenate([w - self.X @ z, z])
        x_K[N] += x_K[self.j]
        x = np.empty(b.shape[0])
        x[self.kept] = x_K
        x[self.interior] = self._inner(b_I - (self.A_IK @ x_K).reshape(-1, 16))
        return x


def factorize(matrix: sp.spmatrix, layout) -> _CondensedLU:
    """Factorize the saddle system, whose last N_BORDER unknowns are scalars,
    after condensing the macro-interior unknowns layout.interior."""
    A = matrix.tocsr()
    if A.shape[0] != A.shape[1] or A.shape[0] <= N_BORDER:
        raise SolverError(f"system is not square with a field block: {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise SolverError("system matrix has non-finite entries")
    return _CondensedLU(A, layout.interior)


def solve_direct(system: SaddleSystem, rhs: np.ndarray) -> SolutionFields:
    """Solve one rhs under the residual contract; factorize on first use.

    Refinement runs past the contract down to stagnation of the
    continuity-block residual: it stops once the global residual is at
    REFINE_TARGET and a step has lowered the continuity residual by less
    than the factor STALL, or when a step lowers neither residual.  The
    discrete divergence equals the inverse pressure mass applied to the
    continuity residual, an amplification of order 1/h^2, so those rows
    must be resolved to near machine precision for the pointwise divergence
    guarantee.

    Raises:
        SolverError: singular factorization, non-finite solution, or a
            residual above the contract after iterative refinement.
    """
    A, b = system.matrix, rhs
    layout = system.layout
    p_rows = slice(layout.offset_p, layout.offset_p + layout.n_p)
    if system.factor is None:
        system.factor = factorize(A, layout)
    lu = system.factor
    # an overflow in the solves or the residual norms is checked below: it
    # leaves a non-finite solution or residual, and a step to a non-finite
    # residual is not taken
    with np.errstate(over="ignore", invalid="ignore"):
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError(
                "factorization produced non-finite values (min |U_ii| = "
                f"{np.abs(lu.lu.U.diagonal()).min():.3e}); system is singular to "
                "working precision")
        # s = 2^-e, e the exponent of max|b|: |s*b| cannot overflow, and is exact
        s = np.ldexp(1.0, -np.frexp(np.abs(b).max(initial=0.0))[1])
        nb = np.linalg.norm(s * b)

        def residuals(x):
            r = b - A @ x
            nr = np.linalg.norm(s * r)
            rel = nr / nb if nb > 0 else nr
            return r, rel, float(np.abs(r[p_rows]).max(initial=0.0))

        r, res, res_p = residuals(x)
        for _ in range(MAX_REFINE):
            x_new = x + lu.solve(r)
            r_new, res_new, res_p_new = residuals(x_new)
            if not (res_new < res or res_p_new < res_p):
                break
            stalled = res_p_new >= STALL * res_p
            x, r, res, res_p = x_new, r_new, res_new, res_p_new
            if stalled and res <= REFINE_TARGET:
                break
    if not res <= RESIDUAL_TOL:     # a NaN residual fails it too
        raise SolverError(f"residual contract violated: {res:.3e} > {RESIDUAL_TOL:.1e}")
    lam = x[layout.offset_lam:layout.offset_lam + layout.n_lam]
    return SolutionFields(x[:layout.n_u], x[p_rows], lam, float(x[layout.alpha]),
                          float(x[layout.beta]), float(x[layout.gamma]), float(res))
