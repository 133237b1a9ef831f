import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_level
from ctstokes import solver
from ctstokes.assembly import SaddleSystem, assemble_rhs, compose_system
from ctstokes.solver import (SolverError, dump_matrix_market, factorize,
                             solve_direct)
from ctstokes.verify import paper_case


class _ScalarOnlyLayout:
    """Minimal layout shim for solving raw matrices through solve_direct."""

    def __init__(self, n):
        self.n_u = n
        self.offset_p = n
        self.n_p = 0
        self.offset_lam = n
        self.n_lam = 0
        self.alpha = self.beta = self.gamma = n - 1


def _raw_system(A, b):
    A = sp.csr_matrix(A)
    return SaddleSystem(matrix=A, rhs=np.asarray(b, dtype=float),
                        layout=_ScalarOnlyLayout(A.shape[0]))


def test_identity_solve():
    n = 5
    b = np.zeros(n)
    b[0] = 1.0
    sol = solve_direct(_raw_system(sp.eye(n), b))
    x = sol.u  # the shim maps the whole vector to the velocity slot
    assert np.allclose(x, b, atol=1e-15)


def test_two_by_two_hand_solve():
    # the 2x2 field block bordered by three scalar unknowns
    A = np.array([[2.0, 1.0, 1.0, 0.0, 0.0],
                  [1.0, 3.0, 0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 1.0]])
    sol = solve_direct(_raw_system(A, [4.0, 6.0, 1.0, 1.0, 3.0]))
    assert np.allclose(sol.u, [1.0, 1.0, 1.0, 2.0, 3.0], atol=1e-14)


def test_non_square_rejected():
    A = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(SolverError):
        factorize(A)


def test_singular_matrix_rejected():
    # the field block [[1, 0], [0, 0]] stays singular after the pin
    A = np.array([[1.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(SolverError):
        solve_direct(_raw_system(A, [1.0, 1.0, 1.0, 1.0, 1.0]))


def test_singular_schur_complement_rejected():
    # nonsingular field block, but the scalar unknowns are decoupled from it
    # and their own block is zero
    A = sp.block_diag([sp.eye(2), sp.csr_matrix((3, 3))])
    with pytest.raises(SolverError, match="Schur complement"):
        factorize(A)


def test_star_system_residual_contract(star):
    ct, layout, bqd, blocks = make_level(star, 8)
    case = paper_case(0.1)
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, 0.1, 40.0)
    sol = solve_direct(compose_system(blocks, layout, 0.1, rhs))
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("n", [8, 16, 32])
def test_recovery_of_random_solution(star, n):
    # from star n = 8 (757 dofs) up to n = 32
    ct, layout, bqd, blocks = make_level(star, n)
    case = paper_case(0.1)
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, 0.1, 40.0)
    system = compose_system(blocks, layout, 0.1, rhs)
    rng = np.random.default_rng(42)
    x0 = rng.standard_normal(system.matrix.shape[0])
    system.rhs = system.matrix @ x0
    sol = solve_direct(system)
    x = np.concatenate([sol.u, sol.p, sol.lam, [sol.alpha, sol.beta, sol.gamma]])
    assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)


def test_factorize_bordered_with_one_pin(star):
    # a small (757 dofs) and a large system take the same path
    for n in (8, 32):
        ct, layout, bqd, blocks = make_level(star, n)
        case = paper_case(0.1)
        rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, 0.1, 40.0)
        A = compose_system(blocks, layout, 0.1, rhs).matrix
        lu = factorize(A)
        N = A.shape[0] - solver.N_BORDER
        # the sparse factor covers the field block only
        assert lu.lu.shape == (N, N)
        x = lu.solve(rhs)
        # the unrefined solve already meets the residual contract
        assert np.linalg.norm(A @ x - rhs) <= solver.RESIDUAL_TOL * np.linalg.norm(rhs)
        x = x + lu.solve(rhs - A @ x)
        assert np.linalg.norm(A @ x - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_solve_deterministic(star):
    ct, layout, bqd, blocks = make_level(star, 8)
    case = paper_case(1e-3)
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, 1e-3, 40.0)
    a = solve_direct(compose_system(blocks, layout, 1e-3, rhs))
    b = solve_direct(compose_system(blocks, layout, 1e-3, rhs))
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.lam, b.lam)


def test_small_viscosity_contract(star):
    ct, layout, bqd, blocks = make_level(star, 16)
    case = paper_case(1e-5)
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, 1e-5, 40.0)
    sol = solve_direct(compose_system(blocks, layout, 1e-5, rhs))
    assert sol.residual <= 1e-10


def test_matrix_market_dump(tmp_path, star):
    from scipy.io import mmread

    ct, layout, bqd, blocks = make_level(star, 3)
    case = paper_case(0.1)
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, 0.1, 40.0)
    system = compose_system(blocks, layout, 0.1, rhs)
    path = tmp_path / "system.mtx"
    dump_matrix_market(path, system)
    M = mmread(path).tocsr()
    assert abs(M - system.matrix).max() == 0.0
    rhs_back = np.loadtxt(str(path) + ".rhs")
    assert np.allclose(rhs_back, system.rhs, atol=1e-15)
