import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ctstokes import solver
from ctstokes.geometry import circle_domain
from ctstokes.assembly import SaddleSystem, assemble_rhs
from ctstokes.solver import SolverError, factorize, solve_direct
from ctstokes.verify import (build_level, level_system, paper_case,
                             run_convergence, solve_on_level)


class _SaddleLayout:
    """Layout shim for a hand-built saddle system: n_u velocities, one
    pressure, one multiplier, then the three scalars; nothing condensed."""

    def __init__(self, n_u):
        self.n_u = n_u
        self.offset_p = n_u
        self.n_p = 1
        self.offset_lam = n_u + 1
        self.n_lam = 1
        self.alpha = n_u + 2
        self.beta, self.gamma = self.alpha + 1, self.alpha + 2
        self.interior = np.empty((0, 16), dtype=np.int64)


def _hand_saddle(a, div, mult, flux):
    """Two velocities, one pressure and one multiplier with unit mean
    weights, laid out as compose_system lays out an assembled system: rows
    u, p, lambda, alpha, beta, gamma."""
    (a11, a12), (a21, a22) = a
    return np.array([[a11, a12, div[0], mult[0], 0.0, 0.0, flux[0]],
                     [a21, a22, div[1], mult[1], 0.0, 0.0, flux[1]],
                     [div[0], div[1], 0.0, 0.0, 1.0, 0.0, 0.0],
                     [mult[0], mult[1], 0.0, 0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                     [flux[0], flux[1], 0.0, 0.0, 0.0, 0.0, 0.0]])


# a nonsingular hand system and its solution for the rhs HAND_RHS
HAND = _hand_saddle([[2.0, 1.0], [1.0, 3.0]], div=[1.0, 0.0], mult=[0.0, 1.0],
                    flux=[1.0, 1.0])
HAND_X = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
HAND_RHS = HAND @ HAND_X


def _raw_system(A):
    A = sp.csr_matrix(A)
    return SaddleSystem(matrix=A, layout=_SaddleLayout(A.shape[0] - 5))


def _fields(sol):
    return np.concatenate([sol.u, sol.p, sol.lam, [sol.alpha, sol.beta, sol.gamma]])


def test_identity_solve():
    # identity momentum and mean blocks, coupled only through the pairings
    A = _hand_saddle(np.eye(2), div=[1.0, 0.0], mult=[0.0, 1.0], flux=[1.0, 1.0])
    b = np.zeros(7)
    b[0] = 1.0
    sol = solve_direct(_raw_system(A), b)
    assert sol.residual <= solver.RESIDUAL_TOL
    assert np.allclose(A @ _fields(sol), b, rtol=0.0, atol=1e-15)


def test_two_by_two_hand_solve():
    # the 2x2 momentum block paired with one pressure and one multiplier,
    # bordered by three scalar unknowns
    assert HAND_RHS.tolist() == [9.0, 11.0, 4.0, 5.0, 1.0, 2.0, 2.0]
    sol = solve_direct(_raw_system(HAND), HAND_RHS)
    assert sol.residual <= solver.RESIDUAL_TOL
    assert np.allclose(_fields(sol), HAND_X, rtol=0.0, atol=1e-14)


def test_non_square_rejected():
    A = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(SolverError):
        factorize(A, _SaddleLayout(3))


def test_singular_matrix_rejected():
    # the second velocity couples to nothing: its row and column are zero,
    # and so are those of the penalised velocity block
    A = _hand_saddle([[1.0, 0.0], [0.0, 0.0]], div=[1.0, 0.0], mult=[1.0, 0.0],
                     flux=[1.0, 0.0])
    with pytest.raises(SolverError):
        solve_direct(_raw_system(A), np.ones(7))


def test_nan_residual_violates_contract():
    # the hand system at a scale where |b|^2 overflows: |r| / |b| taken
    # plainly would be inf / inf = NaN, which the contract rejects; both
    # norms, and the Krylov solve's, are taken after scaling by a power of
    # two, so the exact solution comes back within the contract
    b = 1e300 * HAND_RHS
    with np.errstate(over="ignore"):
        assert np.linalg.norm(b) == np.inf
    sol = solve_direct(_raw_system(HAND), b)
    assert sol.residual <= solver.RESIDUAL_TOL
    assert np.allclose(_fields(sol), 1e300 * HAND_X, rtol=1e-14, atol=0.0)


def test_non_finite_matrix_rejected():
    A = sp.csr_matrix(HAND)
    A.data[2] = np.nan
    with pytest.raises(SolverError, match="^system matrix has non-finite entries$"):
        factorize(A, _SaddleLayout(2))


def test_singular_schur_complement_rejected():
    # nonsingular penalised velocity block, but the flux scalar is
    # decoupled from it and its own entry is zero
    A = _hand_saddle([[2.0, 1.0], [1.0, 3.0]], div=[1.0, 0.0], mult=[0.0, 1.0],
                     flux=[0.0, 0.0])
    with pytest.raises(SolverError, match="Schur complement"):
        factorize(sp.csr_matrix(A), _SaddleLayout(2))


def test_star_system_residual_contract(star):
    sol, _ = solve_on_level(build_level(star, 8, 40.0), paper_case(0.1))
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("n", [8, 16, 32])
def test_recovery_of_random_solution(star, n):
    # from star n = 8 (757 dofs) up to n = 32
    system = level_system(build_level(star, n, 40.0))
    rng = np.random.default_rng(42)
    x0 = rng.standard_normal(system.matrix.shape[0])
    sol = solve_direct(system, system.matrix @ x0)
    x = _fields(sol)
    assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)


@pytest.mark.parametrize("case", ["star-16", "star-64", "circle-16"])
def test_factor_is_a_velocity_block_without_pivoting(star, case):
    dom, n = ((circle_domain((0.45, 0.52), 0.35), 16) if case == "circle-16"
              else (star, int(case.split("-")[1])))
    level = build_level(dom, n, 40.0)
    A, layout = level_system(level).matrix, level.layout
    lu = factorize(A, layout)
    T = len(layout.interior)
    assert layout.interior.shape == (T, 16) and 3 * T == layout.n_mtri
    assert lu.kept.size == layout.n_total - 16 * T
    # kept: the velocities but each macro's 8 bubble unknowns, then one
    # pressure per macro and the multipliers, then the three scalars
    assert lu.n_v == layout.n_u - 8 * T
    assert lu.N - lu.n_v == T + layout.n_lam
    # the condensed (pressure, multiplier) block is empty, so the penalty
    # leaves the pairings G and D as they are
    assert lu.M[lu.n_v:lu.N, lu.n_v:lu.N].nnz == 0
    # the sparse factor covers the kept velocities only, and its row
    # permutation is its column ordering: no pivoting
    assert lu.lu.shape == (lu.n_v, lu.n_v)
    assert np.array_equal(lu.lu.perm_r, lu.lu.perm_c)


# smallest |U_ii| of the penalised velocity block's factor at n = 16 / 32 /
# 64, measured: star 0.56 / 0.92 / 0.029 and circle 0.93 / 0.62 / 0.018 at
# sigma = 0; star 1.54 / 0.22 / 1.06 and circle 0.68 / 0.019 / 0.16 at
# sigma = 40.  Every solve here ends at a residual of at most 5.9e-15 and
# |div u_h| of at most 1.2e-13
@pytest.mark.parametrize("sigma", [0.0, 40.0])
@pytest.mark.parametrize("name", ["circle", "star"])
def test_factor_needs_no_pivots_without_the_penalty(study, name, sigma):
    # the library takes sigma = 0, which the CLI rejects; without the
    # boundary penalty the factor still meets no small pivot
    result = study(name, sigma)
    for report in result.tables[0.1].reports:
        assert result.min_pivot[report.n] >= 1e-3, report.n
        assert report.residual <= 1e-13 and report.linf_div <= 1e-12, report.n


# entries of L + U of star n, measured 46 358 / 295 070 / 1 720 595; the
# pinned saddle factor had 86 193 / 619 140 / 4 769 621
LU_NNZ_BOUND = {16: 50_000, 32: 310_000, 64: 1_800_000}


@pytest.mark.parametrize("n", sorted(LU_NNZ_BOUND))
def test_factor_fill_per_level(study, n):
    assert study("star", 40.0).lu_nnz[n] <= LU_NNZ_BOUND[n]


def test_krylov_cap_ends_in_solver_error(star, monkeypatch):
    # one Krylov step cannot meet KRYLOV_TOL: the solve fails with a
    # SolverError, never with numpy's LinAlgError
    level = build_level(star, 8, 40.0)
    monkeypatch.setattr(solver, "MAX_KRYLOV", 1)
    with pytest.raises(SolverError, match="^Krylov solve did not converge in 1 steps"):
        solve_on_level(level, paper_case(0.1))


def test_solve_deterministic(star):
    case = paper_case(1e-3)
    level = build_level(star, 8, 40.0)
    a, _ = solve_on_level(level, case)
    # a second level and factorization, and a second solve with the cached
    # factor
    for b, _ in (solve_on_level(build_level(star, 8, 40.0), case),
                 solve_on_level(level, case)):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.lam, b.lam)


def test_small_viscosity_contract(study):
    assert study("star", 40.0).tables[1e-5].reports[0].residual <= 1e-10


def test_one_factorization_serves_every_viscosity(circle, monkeypatch):
    calls = []
    original = solver.factorize

    def counting(matrix, layout):
        calls.append(matrix.shape)
        return original(matrix, layout)

    monkeypatch.setattr(solver, "factorize", counting)
    run_convergence(circle, [8, 16], [1e-1, 1e-3, 1e-5], 40.0)
    assert len(calls) == 2

    # the scaled solve against a direct solve of the nu-weighted system
    nu = 1e-5
    case = paper_case(nu)
    level = build_level(circle, 16, 40.0)
    ct, layout, bqd, blocks = level.ct, level.layout, level.bqd, level.blocks
    sol, _ = solve_on_level(level, case)
    m_q = sp.csr_matrix(blocks.m_q[:, None])
    m_mu = sp.csr_matrix(blocks.m_mu[:, None])
    c_n = sp.csr_matrix(blocks.c_n[:, None])
    A = sp.bmat([
        [nu * blocks.a, blocks.B_div.T, blocks.B_lam.T, None, None, c_n],
        [blocks.B_div, None, None, m_q, None, None],
        [blocks.B_lam_e, None, None, None, m_mu, None],
        [None, m_q.T, None, None, None, None],
        [None, None, m_mu.T, None, None, None],
        [c_n.T, None, None, None, None, None],
    ], format="csc")
    # the scaled rhs has the momentum rows divided by nu
    b = assemble_rhs(case.f, case.u, ct, layout, bqd, nu, level.sigma)
    b[:layout.n_u] *= nu
    x = spla.spsolve(A, b)
    u = x[:layout.n_u]
    p = x[layout.offset_p:layout.offset_p + layout.n_p]
    assert np.abs(sol.u - u).max() <= 1e-8 * np.abs(u).max()
    assert np.abs(sol.p - p).max() <= 1e-8 * np.abs(p).max()


@pytest.mark.parametrize("case", ["star-32", "circle-16"])
def test_preconditioned_steps_per_viscosity(star, circle, monkeypatch, case):
    # measured 12 / 12 / 11 preconditioner applications for nu = 0.1 / 1e-3
    # / 1e-5 on both meshes: three Krylov solves (the first solve and two
    # refinement steps) of 4 steps each, one of them 3 steps at nu = 1e-5
    dom, n = (star, 32) if case == "star-32" else (circle, 16)
    calls = []
    original = solver._CondensedLU._precondition

    def counting(self, v):
        calls.append(v.size)
        return original(self, v)

    monkeypatch.setattr(solver._CondensedLU, "_precondition", counting)
    level = build_level(dom, n, 40.0)
    for nu in (1e-1, 1e-3, 1e-5):
        calls.clear()
        solve_on_level(level, paper_case(nu))
        assert 0 < len(calls) <= 12, (nu, len(calls))


def test_interior_unknowns_couple_within_their_macro(star):
    level = build_level(star, 8, 40.0)
    ct, layout = level.ct, level.layout
    T = len(layout.interior)
    macro = np.full(layout.n_total, -1)
    macro[layout.interior] = np.arange(T)[:, None]
    # every other unknown of a macro: its micro triangles' velocity nodes
    # and pressures, and the multipliers of its boundary edges
    members = np.zeros((T, layout.n_total), dtype=bool)
    t = np.arange(3 * T) // 3
    members[t[:, None], 2 * layout.elem_nodes] = True
    members[t[:, None], 2 * layout.elem_nodes + 1] = True
    members[t[:, None], layout.offset_p + 3 * np.arange(3 * T)[:, None] + np.arange(3)] = True
    members[ct.boundary_tris[:, None] // 3, layout.offset_lam + layout.edge_mult] = True
    members[:, layout.alpha:] = True
    A = level_system(level).matrix.tocoo()
    for i, j in ((A.row, A.col), (A.col, A.row)):
        inner = macro[i] >= 0
        assert members[macro[i][inner], j[inner]].all()


def test_coupled_macros_are_rejected(star):
    # one entry coupling an interior unknown of macro 0 to one of macro 1
    system = level_system(build_level(star, 8, 40.0))
    layout = system.layout
    i, j = layout.interior[0, 0], layout.interior[1, 0]
    A = system.matrix + sp.csr_matrix(([1.0], ([i], [j])), shape=system.matrix.shape)
    factorize(system.matrix, layout)
    with pytest.raises(SolverError, match="^interior unknowns of different macros "
                       "are coupled, or a macro has none$"):
        factorize(A, layout)


@pytest.mark.parametrize("case", ["star", "circle"])
def test_condensed_solve_matches_full_solve(star, case):
    dom, n = (star, 8) if case == "star" else (circle_domain((0.45, 0.52), 0.35), 16)
    level = build_level(dom, n, 40.0)
    paper = paper_case(0.1)
    system = level_system(level)
    rhs = assemble_rhs(paper.f, paper.u, level.ct, level.layout, level.bqd,
                       paper.nu, level.sigma)
    sol = solve_direct(system, rhs)
    x = _fields(sol)
    # the reference: a full-matrix spsolve and one refinement step with it,
    # which brings its own error (3.5e-9 relative unrefined) below 1e-11
    A = system.matrix.tocsc()
    ref = spla.spsolve(A, rhs)
    ref = ref + spla.spsolve(A, rhs - A @ ref)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_condensation_keeps_fill_small(star):
    # star n = 32: 0.30 M entries in L + U, against 6.5 M for an LU of the
    # whole system
    system = level_system(build_level(star, 32, 40.0))
    lu = factorize(system.matrix, system.layout)
    assert lu.lu.nnz < 1.0e6


@pytest.mark.parametrize("block", ["divergence", "momentum pressure"])
def test_singular_macro_block_is_diagnosed(star, block):
    level = build_level(star, 8, 40.0)
    case = paper_case(0.1)
    system, layout = level_system(level), level.layout
    rhs = assemble_rhs(case.f, case.u, level.ct, layout, level.bqd, case.nu,
                       level.sigma)
    t = 17
    keep = np.ones(layout.n_total)
    keep[layout.offset_p + 9 * t + np.arange(9)] = 0.0
    A = system.matrix
    # zero the macro's continuity rows, or its pressure columns
    A = sp.diags(keep) @ A if block == "divergence" else A @ sp.diags(keep)
    with pytest.raises(SolverError, match=f"macro {t}: interior {block} block is singular"):
        solve_direct(SaddleSystem(matrix=A.tocsr(), layout=layout), rhs)


@pytest.mark.parametrize("block", ["divergence", "momentum pressure"])
def test_near_singular_macro_block_is_diagnosed(star, block):
    # one continuity row or pressure column of macro 17 scaled, not zeroed:
    # the block's 1-norm condition number goes from about 20 to c / scale,
    # 1.4e13 or 3.9e12 at 1e-12 and 1.4e17 or 3.9e16 at 1e-16, on either
    # side of the working-precision limit 1 / (8 eps) = 5.6e14
    system = level_system(build_level(star, 8, 40.0))
    layout = system.layout
    t = 17

    def scaled(scale):
        keep = np.ones(layout.n_total)
        keep[layout.offset_p + 9 * t + 1] = scale
        A = system.matrix
        A = sp.diags(keep) @ A if block == "divergence" else A @ sp.diags(keep)
        return A.tocsr()

    factorize(scaled(1e-12), layout)
    match = f"macro {t}: interior {block} block is singular"
    with pytest.raises(SolverError, match=match):
        factorize(scaled(1e-16), layout)


def test_interior_inverse_singularity_test_is_scale_free(star):
    # four macro blocks of star n = 8; macro 1 scaled by 1e-45 stays well
    # conditioned though det of its 8x8 blocks underflows to 0, and macro 2
    # with one continuity row zeroed has an exactly singular divergence block
    system = level_system(build_level(star, 8, 40.0))
    A = system.matrix.tocsr()
    blocks = np.stack([A[idx][:, idx].toarray()
                       for idx in system.layout.interior[:4]])
    tiny = blocks.copy()
    tiny[1] *= 1e-45
    assert np.linalg.det(tiny[1, 8:, :8]) == 0.0
    inv = solver._interior_inverse(blocks)
    assert np.allclose(1e-45 * solver._interior_inverse(tiny)[1], inv[1],
                       rtol=1e-10, atol=1e-10 * np.abs(inv[1]).max())
    tiny[2, 8 + 3] = 0.0
    with pytest.raises(SolverError, match=r"^macro 2: interior divergence block is "
                       r"singular to working precision \(1-norm condition number inf\)$"):
        solver._interior_inverse(tiny)


def test_schur_chunks_leave_the_factor_unchanged(monkeypatch):
    # each row of A_KK - A_KI P is summed as over the whole block, so the
    # chunk size moves no bit of the factor or of a solve: 931 kept rows
    # in one chunk against ten
    level = build_level(circle_domain((0.45, 0.52), 0.35), 16, 40.0)
    A, layout = level_system(level).matrix, level.layout
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    whole = factorize(A, layout)
    assert whole.kept.size <= solver.SCHUR_ROWS
    monkeypatch.setattr(solver, "SCHUR_ROWS", 100)
    chunked = factorize(A, layout)
    for attr in ("L", "U"):
        x, y = getattr(whole.lu, attr), getattr(chunked.lu, attr)
        assert x.indices.tobytes() == y.indices.tobytes()
        assert x.data.tobytes() == y.data.tobytes()
    for name in ("indptr", "indices", "data"):
        assert getattr(whole.A_KI, name).tobytes() == getattr(chunked.A_KI, name).tobytes()
    assert whole.solve(b).tobytes() == chunked.solve(b).tobytes()
