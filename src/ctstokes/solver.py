"""Solution of the assembled saddle-point system.

The matrix is non-symmetric (non-symmetric boundary penalty and the
corrected continuity pairing).  Three steps reduce it to one sparse LU of
a velocity-only matrix that needs no pivoting.  One factor object,
_CondensedLU, makes them and holds that LU.

First, static condensation.  Each macro triangle's 8 bubble velocity
unknowns and 8 of its 9 pressure unknowns (the layout's ``interior``) couple
only to unknowns of their own macro and to the scalars, and their 16x16
block [[a, C], [B, 0]] is invertible: B, the bubbles' divergence against 8
pressures, is the local Scott-Vogelius inf-sup condition on a Clough-Tocher
split.  Its inverse is explicit, [[0, B^-1], [C^-1, -C^-1 a B^-1]], batched
over macros; the whole block is never inverted, because its condition
number reaches 7.5e15 at n = 128.  The
remaining unknowns solve the Schur complement M = A_KK - A_KI A_II^-1 A_IK,
about a quarter of the system, and the interior ones are recovered macro by
macro.

Second, the augmented Lagrangian.  div V_h lies in the discontinuous
pressure space, so the penalty GAMMA G W D, W an inverse mass of the
continuity unknowns, is local to each macro and changes no solution of the
transformed system.  Only the penalised velocity block of M is factorized,
with a symmetric fill-reducing ordering and no pivoting (Scott and
Vogelius' iterated penalty; Benzi and Olshanskii's preconditioner).

Third, GMRES on M, preconditioned by that factor; the three dense scalar
rows and columns enter the preconditioner through a 3x3 Schur complement.

Iterative refinement against the full matrix drives the residual to near
machine precision, which the pointwise divergence guarantee needs: a
continuity-row residual is amplified by the inverse pressure mass, i.e. by
1/h^2.

solve_direct returns the solution vector and its relative residual; the
level layer (verify.solve_on_level) splits the vector into fields.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .assembly import SaddleSystem

RESIDUAL_TOL = 1e-10
REFINE_TARGET = 1e-13
MAX_REFINE = 5
STALL = 0.5  # a step keeping more of the continuity residual than this has stalled
N_BORDER = 3  # alpha, beta, gamma: the layout's trailing scalar unknowns
SCHUR_ROWS = 4096  # kept rows per chunk of the Schur complement
GAMMA = 1e6  # augmented-Lagrangian penalty
KRYLOV_TOL = 1e-6  # relative residual at which a Krylov solve stops
MAX_KRYLOV = 200  # Krylov steps of one solve; sigma = 1e6 takes up to 68 at n = 64


class SolverError(RuntimeError):
    pass


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
    """The system with its macro-interior unknowns eliminated, and a
    penalised velocity block of the rest factorized.

    kept holds the remaining unknowns in their order: n_v velocities, then
    one pressure per macro and the multipliers (the continuity unknowns q),
    then the N_BORDER scalars b.  Their Schur complement is
    M = [[K, G, B_v], [D, 0, B_q], [C_v, C_q, E]]; its (q, q) block is
    empty because the interior inverse's bubble block is zero.  The
    augmented-Lagrangian transform T adds GAMMA G W times the continuity
    rows to the momentum rows, W the diagonal inverse mass of q read off
    A's mean columns, so TM has the velocity block
    K_gamma = K + GAMMA G W D, the border columns TB = B_v + GAMMA G W B_q
    and the same solution.  K_gamma alone is factorized, without pivoting.
    The preconditioner P^-1 T inverts P = [[K_gamma, [G, TB]], [0, S]],
    where S is the Schur complement of TM on (q, b) with its (q, q) block
    -D K_gamma^-1 G replaced by -W^-1 / GAMMA, which it tends to as GAMMA
    grows; S's border blocks are exact, from six solves with K_gamma at
    factor time, and S is inverted through its 3x3 Schur complement.
    GMRES solves M x = c with it on the right in a few steps, each one
    solve with K_gamma.
    """

    def __init__(self, A: sp.csr_matrix, layout):
        # each temporary is dropped as soon as what is built from it exists:
        # the heap keeps its high-water mark, and the LU lands on top of it
        n, interior = A.shape[0], layout.interior
        T = len(interior)
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
        self.M = M = sp.vstack(schur, format="csr")
        del schur
        self.N = N = kept.size - N_BORDER
        self.n_v = n_v = int(np.searchsorted(kept, layout.n_u))
        # W: 2/m_q = 12/det for a kept pressure, its P1 mass diagonal
        # det/12 inverted; 1/m_mu^2 for a multiplier
        q = kept[n_v:N]
        means = A[q][:, n - N_BORDER:n - 1].toarray()
        with np.errstate(divide="ignore", over="ignore"):
            w = np.where(q < layout.offset_lam, 2.0 / means[:, 0], 1.0 / means[:, 1] ** 2)
        if not np.isfinite(w).all():
            raise SolverError("a kept pressure or multiplier has no mean weight")
        self.gw = GAMMA * w     # the penalty's weights, GAMMA W
        self.G = M[:n_v, n_v:N]
        K = M[:n_v, :n_v] + self.G @ sp.diags(self.gw) @ M[n_v:N, :n_v]
        try:
            self.lu = spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"penalised velocity block is singular: {exc}") from exc
        del K
        # S = [[-W^-1 / GAMMA, U], [V, E - C_v Y]] with Y = K_gamma^-1 TB,
        # U = B_q - D Y and V = C_q - C_v K_gamma^-1 G; eliminating
        # y_q = GAMMA W (U y_b - f_q) leaves E - C_v Y + V GAMMA W U for y_b
        B_q, C_v = M[n_v:N, N:].toarray(), M[N:, :n_v].toarray()
        self.TB = M[:n_v, N:].toarray() + self.G @ (self.gw[:, None] * B_q)
        with np.errstate(over="ignore", invalid="ignore"):     # checked below
            Y = self.lu.solve(self.TB)
            self.U = B_q - M[n_v:N, :n_v] @ Y
            self.V = M[N:, n_v:N].toarray() - (self.G.T @ self.lu.solve(C_v.T, trans="T")).T
            schur = M[N:, N:].toarray() - C_v @ Y + self.V @ (self.gw[:, None] * self.U)
        if not np.isfinite(schur).all():
            raise SolverError("border Schur complement is not finite")
        try:
            self.schur_inv = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"border Schur complement is singular: {exc}") from exc

    def _inner(self, v):
        return (self.inv @ v[:, :, None])[:, :, 0]

    def _precondition(self, v):
        """P^-1 T v: the scalars y_b through the 3x3 Schur complement, then
        y_q, then one solve with K_gamma for the velocities."""
        n_v, N = self.n_v, self.N
        gwv = self.gw * v[n_v:N]
        y_b = self.schur_inv @ (v[N:] + self.V @ gwv)
        y_q = self.U @ y_b * self.gw - gwv
        x_v = self.lu.solve(v[:n_v] + self.G @ (gwv - y_q) - self.TB @ y_b)
        return np.concatenate([x_v, y_q, y_b])

    def _krylov(self, c):
        """GMRES on M x = c, right-preconditioned, without restart: the
        Arnoldi basis by modified Gram-Schmidt run twice, the Hessenberg
        least-squares problem by Givens rotations.  It stops once the
        residual is at KRYLOV_TOL relative to c: the penalty limits a
        solve's accuracy to about GAMMA eps anyway, and refinement against
        the full matrix resolves the rest.

        Raises:
            SolverError: non-finite values, a singular Hessenberg matrix, or
                no convergence in MAX_KRYLOV steps.
        """
        # s = 2^-e, e the exponent of max|c|: |s*c| cannot overflow, and is exact
        s = np.ldexp(1.0, -np.frexp(np.abs(c).max(initial=0.0))[1])
        beta = np.linalg.norm(s * c)
        if beta == 0.0:
            return np.zeros_like(c)
        if not np.isfinite(beta):
            raise SolverError("Krylov solve: the right-hand side is not finite")
        V, Z = [s * c / beta], []
        H = np.zeros((MAX_KRYLOV + 1, MAX_KRYLOV))
        rot = np.zeros((MAX_KRYLOV, 2))
        g = np.zeros(MAX_KRYLOV + 1)
        g[0] = beta
        for k in range(MAX_KRYLOV):
            Z.append(self._precondition(V[k]))
            v = self.M @ Z[k]
            h = H[:k + 2, k]
            for _ in range(2):
                for i, u in enumerate(V):
                    d = u @ v
                    h[i] += d
                    v -= d * u
            h[k + 1] = norm = np.linalg.norm(v)
            if not np.isfinite(h).all():
                raise SolverError("Krylov solve produced non-finite values; system is "
                                  "singular to working precision")
            for i, (cs, sn) in enumerate(rot[:k]):
                h[i], h[i + 1] = cs * h[i] + sn * h[i + 1], cs * h[i + 1] - sn * h[i]
            rho = np.hypot(h[k], h[k + 1])
            if rho == 0.0:
                raise SolverError(f"Krylov solve broke down at step {k + 1}: the "
                                  "Hessenberg matrix is singular")
            rot[k] = cs, sn = h[k] / rho, h[k + 1] / rho
            h[k], h[k + 1] = rho, 0.0
            g[k], g[k + 1] = cs * g[k], -sn * g[k]
            if abs(g[k + 1]) <= KRYLOV_TOL * beta:
                break
            V.append(v / norm)
        else:
            raise SolverError(f"Krylov solve did not converge in {MAX_KRYLOV} steps "
                              f"(relative residual {abs(g[-1]) / beta:.1e})")
        y = solve_triangular(H[:k + 1, :k + 1], g[:k + 1], check_finite=False)
        return sum(yi * zi for yi, zi in zip(y, Z)) / s

    def solve(self, b):
        b_I = b[self.interior]
        c = b[self.kept] - self.A_KI @ self._inner(b_I).ravel()
        x_K = self._krylov(c)
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
    return _CondensedLU(A, layout)


def solve_direct(system: SaddleSystem, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve one rhs under the residual contract; factorize on first use.
    Return the solution vector and its relative residual.

    Refinement runs past the contract down to stagnation of the
    continuity-block residual: it stops once the global residual is at
    REFINE_TARGET and a step has lowered the continuity residual by less
    than the factor STALL, or when a step lowers neither residual.  The
    discrete divergence equals the inverse pressure mass applied to the
    continuity residual, an amplification of order 1/h^2, so those rows
    must be resolved to near machine precision for the pointwise divergence
    guarantee.

    Raises:
        SolverError: singular factorization, a Krylov solve that breaks down
            or does not converge, non-finite solution, or a residual above
            the contract after iterative refinement.
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
    return x, float(res)
