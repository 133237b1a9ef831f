"""Refinement studies that the star's reference study does not cover: the
boundary correction's share of the optimal order, domains without the
star's six-fold symmetry, and ablations of the boundary penalty and of the
multiplier space."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (STUDY_DOMAINS, STUDY_LEVELS, hydrostatic_case,
                      smooth_pressure, smooth_pressure_grad)
from ctstokes import assembly
from ctstokes.assembly import SaddleSystem, assemble_rhs
from ctstokes.solver import N_BORDER, solve_direct
from ctstokes.verify import (RateTable, SolutionFields, build_level,
                             compute_errors, level_system, patch_case,
                             run_convergence, solve_on_level)


def _slope(table, col):
    """Least-squares convergence order of a column over the table's levels."""
    n = np.array([r.n for r in table.reports], dtype=float)
    err = np.array([getattr(r, col) for r in table.reports])
    return -np.polyfit(np.log2(n), np.log2(err), 1)[0]


def _order1_trace(table, delta, dirs):
    """taylor_trace without its second-order term."""
    return table.vals + delta[..., None] * (table.grads @ dirs[..., None])[..., 0]


def _order0_trace(table, delta, dirs):
    """The plain trace on the mesh boundary, at the quadrature points."""
    return np.broadcast_to(table.vals, delta.shape + table.vals.shape[-1:]).copy()


# least-squares slopes of (l2_u, h1_u, l2_p) over n = 16, 32, 64 at nu = 0.1
# with the trace of Taylor order 1 and 0; measured:
#   star    order 1: 1.805 / 1.248 / 1.293   order 0: 0.885 / 0.647 / 1.165
#   circle  order 1: 1.995 / 1.538 / 1.488   order 0: 0.756 / 0.301 / 0.382
# and as built (order 2): star 2.939 / 2.065 / 2.158, circle 3.020 / 1.946 / 2.078
LOWER_ORDER_SLOPES = {
    "star": {1: (1.805, 1.248, 1.293), 0: (0.885, 0.647, 1.165)},
    "circle": {1: (1.995, 1.538, 1.488), 0: (0.756, 0.301, 0.382)},
}


@pytest.mark.parametrize("name", ["star", "circle"])
def test_boundary_correction_gives_the_optimal_order(name, monkeypatch, study):
    # the same solves with the second-order Taylor trace replaced by lower
    # orders: the divergence guarantee holds at every order, the optimal
    # order only with the correction
    tables = {2: study(name, 40.0).tables[0.1]}
    for order, trace in ((1, _order1_trace), (0, _order0_trace)):
        monkeypatch.setattr(assembly, "taylor_trace", trace)
        tables[order] = run_convergence(STUDY_DOMAINS[name], STUDY_LEVELS, [0.1],
                                        40.0)[0.1]
    slopes = {}
    for order, table in tables.items():
        assert max(r.linf_div for r in table.reports) <= 1e-12
        slopes[order] = tuple(_slope(table, c) for c in ("l2_u", "h1_u", "l2_p"))
    assert min(slopes[2][1:]) >= 1.9
    for order in (1, 0):
        assert all(o2 > lower for o2, lower in zip(slopes[2], slopes[order])), order
        assert slopes[order] == pytest.approx(LOWER_ORDER_SLOPES[name][order],
                                              abs=0.01), order


# measured least-squares slopes over n = 16, 32, 64, reported, not bounded:
#   circle    l2_u 3.02 (nu 0.1) / 3.35 (nu 1e-5), lam_diag 2.42 / 3.46
#   ellipse   l2_u 3.04 (nu 0.1) / 4.44 (nu 1e-5), lam_diag 2.56 / 3.57
# h1_u / l2_p: circle 1.95 / 2.08 and 2.99 / 1.90, ellipse 2.04 / 2.09 and
# 4.02 / 1.92; every constraint below 5e-16
@pytest.mark.parametrize("name", ["circle", "ellipse"])
def test_asymmetric_domain_refinement_study(name, study):
    result = study(name, 40.0)
    for nu, table in result.tables.items():
        assert len(table.reports) == len(STUDY_LEVELS)
        assert _slope(table, "h1_u") >= 1.8, nu
        assert _slope(table, "l2_p") >= 1.8, nu
        assert max(r.linf_div for r in table.reports) <= 1e-12, nu
    # pressure mean, multiplier mean and boundary flux, each of 6 solves
    assert len(result.constraints) == 2 * len(STUDY_LEVELS)
    assert np.abs(result.constraints).max() <= 1e-14


# least-squares slopes over n = 16, 32, 64 of (h1_u, l2_p) at nu = 0.1, then
# 1e-5, for sigma = 0 / 0.01 / 1 / 40; measured:
#   star    nu 0.1:  1.94 / 1.87, 1.94 / 1.87, 1.95 / 1.89, 2.07 / 2.16
#           nu 1e-5: 3.72 / 1.87, 3.72 / 1.87, 3.60 / 1.87, 3.16 / 1.87
#   circle  nu 0.1:  1.93 / 1.84, 1.93 / 1.84, 1.93 / 1.85, 1.95 / 2.08
#           nu 1e-5: 3.22 / 1.90, 3.22 / 1.90, 3.19 / 1.90, 2.99 / 1.90
# linf_div <= 1.5e-13 and residual <= 9.2e-15 throughout; the patch case at
# n = 16 gives h1_u and l2_p <= 1.7e-12 at sigma <= 1 and <= 8.8e-11 at 40
@pytest.mark.parametrize("sigma", [0.0, 0.01, 1.0, 40.0])
@pytest.mark.parametrize("name", ["star", "circle"])
def test_boundary_penalty_is_not_needed_for_the_order(name, sigma, study):
    # the non-symmetric boundary terms without (or with a small) penalty
    # keep the order, the divergence guarantee and the patch; the CLI keeps
    # sigma positive, the library takes 0
    for nu, table in study(name, sigma).tables.items():
        assert _slope(table, "h1_u") >= 1.8, nu
        assert _slope(table, "l2_p") >= 1.8, nu
        assert max(r.linf_div for r in table.reports) <= 1e-12, nu
        assert max(r.residual for r in table.reports) <= 1e-13, nu
    _, patch = solve_on_level(build_level(STUDY_DOMAINS[name], 16, sigma),
                              patch_case(1.0))
    assert max(patch.h1_u, patch.l2_p) <= 1e-9


def _p1_multipliers(layout):
    """Q: the identity on u, p and the scalars, and on the multiplier the
    P2 interpolant R of a continuous P1 field mu on the boundary partition,
    one value per edge start: a midpoint row of R is the mean of its edge's
    start and end values."""
    B = layout.n_lam // 2
    e = np.arange(B)
    start, end = layout.edge_mult[:, 0], layout.edge_mult[:, 1]
    R = sp.csr_matrix((np.r_[np.ones(B), np.full(2 * B, 0.5)],
                       (np.r_[e, B + e, B + e], np.r_[e, start, end])),
                      shape=(2 * B, B))
    return sp.block_diag([sp.identity(layout.offset_lam), R, sp.identity(N_BORDER)],
                         format="csr")


def _solve_in_space(level, case, Q):
    """Solve Q^T A Q y = Q^T b with the package's solver and report on the
    velocity, pressure and multiplier of x = Q y (case.nu is 1, so none is
    scaled).  The restriction keeps the macro structure, the border, n_u
    and offset_lam, so the level's own layout serves its factorization."""
    layout = level.layout
    b = assemble_rhs(case.f, case.u, level.ct, layout, level.bqd, case.nu, level.sigma)
    A = (Q.T @ level_system(level).matrix @ Q).tocsr()
    y, residual = solve_direct(SaddleSystem(matrix=A, layout=layout), Q.T @ b)
    x = Q @ y
    sol = SolutionFields(x[:layout.n_u], x[layout.offset_p:layout.offset_lam],
                         x[layout.offset_lam:layout.offset_scalar], residual)
    return compute_errors(sol, case, level)


# least-squares slopes over n = 8, 16, 32 of the defect (l2_u, h1_u), both
# spaces measured: P1 star 2.3605 / 1.7751, circle 3.1153 / 2.6547; P2 star
# 3.1444 / 2.5464, circle 3.3886 / 3.0388.  The defect l2_u goes
# 2.44e-7 -> 3.12e-9 (P2) and 3.16e-5 -> 1.20e-6 (P1) on the star, and
# 6.76e-7 -> 6.17e-9 and 1.96e-4 -> 2.61e-6 on the circle; P1's linf_div
# stays <= 2.4e-17
P1_DEFECT_SLOPES = {"star": (2.3605, 1.7751), "circle": (3.1153, 2.6547)}


@pytest.mark.parametrize("name", ["star", "circle"])
def test_p2_multiplier_space_shrinks_the_pressure_robustness_defect(name):
    # the defect case u = 0, p = sin(3x) e^y, nu = 1, with the continuous P2
    # multiplier as built against its restriction to continuous P1: the
    # divergence guarantee does not depend on the multiplier degree, while
    # the defect is smaller with P2 at every level and falls faster
    dom = STUDY_DOMAINS[name]
    case = hydrostatic_case(1.0, smooth_pressure, smooth_pressure_grad)
    levels = [8, 16, 32]
    reports = {"P2": [], "P1": []}
    for n in levels:
        level = build_level(dom, n, 40.0)
        Q = {"P2": sp.identity(level.layout.n_total, format="csr"),
             "P1": _p1_multipliers(level.layout)}
        for space in reports:
            reports[space].append(_solve_in_space(level, case, Q[space]))
    slopes = {space: tuple(_slope(RateTable(1.0, 40.0, dom.name, reps), col)
                           for col in ("l2_u", "h1_u"))
              for space, reps in reports.items()}
    assert all(p2.l2_u < p1.l2_u for p2, p1 in zip(reports["P2"], reports["P1"]))
    assert all(s2 > s1 for s2, s1 in zip(slopes["P2"], slopes["P1"]))
    assert max(r.linf_div for r in reports["P1"]) <= 1e-11
    assert slopes["P1"] == pytest.approx(P1_DEFECT_SLOPES[name], abs=0.05)
