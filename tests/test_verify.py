import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

from conftest import (box_sdf_domain, ellipse_domain, hydrostatic_case,
                      node_coords, quadratic_pressure, quadratic_pressure_grad,
                      smooth_pressure, smooth_pressure_grad)
from ctstokes import assembly as asm
from ctstokes import solver
from ctstokes.fem import element_maps, eval_p1, triangle_rule
from ctstokes.geometry import (LevelSetDomain, ProjectionError, circle_domain,
                               star_domain)
from ctstokes.mesh import MeshError
from ctstokes.solver import factorize
from ctstokes.verify import (ErrorReport, RateTable, SolutionFields,
                             build_level, compute_errors, infsup_estimate,
                             level_system, paper_case, patch_case,
                             run_convergence, solve_on_level, write_json)

R0 = 0.3723423423343


def test_paper_case_divergence_free_pointwise():
    case = paper_case(0.1)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(200, 2))
    g = case.grad_u(pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() <= 1e-13


def test_paper_case_gradient_matches_fd():
    case = paper_case(0.37)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(50, 2))
    eps = 1e-6
    for j in range(2):
        d = np.zeros(2)
        d[j] = eps
        fd = (case.u(pts + d) - case.u(pts - d)) / (2 * eps)
        assert np.allclose(fd, case.grad_u(pts)[:, :, j], atol=1e-8)


def test_paper_case_forcing_symbolic():
    sympy = pytest.importorskip("sympy")
    x, y, nu = sympy.symbols("x y nu")
    psi = x ** 2 - x + sympy.Rational(1, 4) + y ** 2 - y
    u1 = 2 * psi * (2 * y - 1)
    u2 = -2 * psi * (2 * x - 1)
    p = 10 * (x ** 2 - y ** 2) ** 2
    f1 = -nu * (sympy.diff(u1, x, 2) + sympy.diff(u1, y, 2)) + sympy.diff(p, x)
    f2 = -nu * (sympy.diff(u2, x, 2) + sympy.diff(u2, y, 2)) + sympy.diff(p, y)
    f_exact = sympy.lambdify((x, y, nu), (f1, f2), "numpy")
    case = paper_case(0.013)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(100, 2))
    fx, fy = f_exact(pts[:, 0], pts[:, 1], 0.013)
    f = case.f(pts)
    assert np.allclose(f[:, 0], fx, atol=1e-12)
    assert np.allclose(f[:, 1], fy, atol=1e-12)
    assert np.allclose(case.f(np.array([0.5, 0.5])), [0.0, 0.0], atol=1e-15)


def test_paper_case_boundary_data_nonzero():
    case = paper_case(0.1)
    g = case.u(np.array([0.5 + R0, 0.5]))
    assert abs(g[1]) > 0.1  # non-homogeneous boundary path is exercised


def test_paper_case_weak_divergence(star_n8):
    ct = star_n8.ct
    case = paper_case(0.1)
    rule = triangle_rule(8)
    det, _, _ = element_maps(ct)
    p1 = eval_p1(rule.points)
    corners = ct.vertices[ct.triangles]
    pts = np.einsum("qk,mkc->mqc", p1.vals, corners)
    g = case.grad_u(pts)
    div = g[..., 0, 0] + g[..., 1, 1]
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = rng.standard_normal(ct.n_triangles)[:, None]  # piecewise constants
        val = float(np.einsum("q,m,mq->", rule.weights, det, div * q))
        assert abs(val) <= 1e-12


def test_patch_case_consistency():
    case = patch_case(1.0)
    pts = np.array([[0.2, 0.7], [0.9, 0.1]])
    g = case.grad_u(pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() == 0.0
    assert np.allclose(case.f(pts), [[-4.0, 3.0], [-4.0, 3.0]])


def test_invalid_viscosity():
    for nu in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            paper_case(nu)
        with pytest.raises(ValueError):
            patch_case(nu)


def _zero_case():
    def zero_vec(x):
        return np.zeros(np.asarray(x).shape)

    def zero_grad(x):
        return np.zeros(np.asarray(x).shape[:-1] + (2, 2))

    def zero_scalar(x):
        return np.zeros(np.asarray(x).shape[:-1])

    from ctstokes.verify import ManufacturedCase

    return ManufacturedCase(nu=1.0, u=zero_vec, grad_u=zero_grad,
                            p=zero_scalar, f=zero_vec)


def test_compute_errors_zero_case(star_n8):
    layout = star_n8.layout
    sol = SolutionFields(u=np.zeros(layout.n_u), p=np.zeros(layout.n_p),
                         lam=np.zeros(layout.n_lam), residual=0.0)
    rep = compute_errors(sol, _zero_case(), star_n8)
    for field in ("l2_u", "h1_u", "l2_p", "linf_div", "lam_diag"):
        assert getattr(rep, field) == 0.0


def test_compute_errors_interpolant_of_patch(star_n8):
    ct, layout = star_n8.ct, star_n8.layout
    case = patch_case(1.0)
    u = case.u(node_coords(ct))
    u_coeff = np.empty(layout.n_u)
    u_coeff[0::2] = u[:, 0]
    u_coeff[1::2] = u[:, 1]
    p_coeff = case.p(ct.vertices[ct.triangles]).ravel()
    sol = SolutionFields(u=u_coeff, p=p_coeff, lam=np.zeros(layout.n_lam),
                         residual=0.0)
    rep = compute_errors(sol, case, star_n8)
    assert rep.l2_u <= 1e-12
    assert rep.h1_u <= 1e-11
    assert rep.l2_p <= 1e-12
    assert rep.linf_div <= 1e-11


def test_mean_adjustment_invariance(star):
    level = build_level(star, 8, 40.0)
    case = paper_case(0.1)
    sol, rep = solve_on_level(level, case)

    shifted = paper_case(0.1)
    p_orig = shifted.p
    object.__setattr__(shifted, "p", lambda x: p_orig(x) + 3.7)
    rep2 = compute_errors(sol, shifted, level)
    assert rep2.l2_p == pytest.approx(rep.l2_p, abs=1e-12)


def test_rate_table_rates_and_serialization(tmp_path):
    reports = [ErrorReport(n=8, h=1 / 8, nu=0.1, sigma=40.0, dofs=100,
                           l2_u=1e-2, h1_u=1e-1, l2_p=2e-2, linf_div=1e-12,
                           lam_diag=1.0, max_delta_ratio=0.9, residual=1e-14),
               ErrorReport(n=16, h=1 / 16, nu=0.1, sigma=40.0, dofs=400,
                           l2_u=1.25e-3, h1_u=2.5e-2, l2_p=5e-3, linf_div=1e-12,
                           lam_diag=0.5, max_delta_ratio=0.9, residual=1e-14)]
    table = RateTable(nu=0.1, sigma=40.0, domain="star", reports=reports)
    rates = table.rates()
    assert rates["l2_u"][0] == pytest.approx(3.0)
    assert rates["h1_u"][0] == pytest.approx(2.0)
    assert rates["l2_p"][0] == pytest.approx(2.0)

    csv_path = tmp_path / "table.csv"
    table.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("n,h,dofs,l2_u,h1_u,l2_p,linf_div,max_delta_ratio,"
                        "rate_l2_u,rate_h1_u,rate_l2_p")
    assert len(lines) == 3

    json_path = tmp_path / "table.json"
    write_json(json_path, {f"{0.1:g}": table.as_dict()})
    payload = json.loads(json_path.read_text())
    assert "0.1" in payload
    assert payload["0.1"]["runs"][0]["n"] == 8
    assert payload["0.1"]["rates"]["l2_u"][0] == pytest.approx(3.0)


def test_run_convergence_requires_increasing_levels(star):
    with pytest.raises(ValueError):
        run_convergence(star, [16, 8], [0.1], 40.0)


def test_run_convergence_rejects_repeated_viscosities(star):
    # one RateTable per viscosity: a repeat would append each run twice
    with pytest.raises(ValueError, match="distinct"):
        run_convergence(star, [4, 8], [0.1, 0.1], 40.0)


def test_run_convergence_small(circle):
    tables = run_convergence(circle, [4, 8], [0.1], 40.0)
    table = tables[0.1]
    assert len(table.reports) == 2
    assert table.reports[0].n == 4 and table.reports[1].n == 8
    assert all(np.isfinite(r.max_delta_ratio) for r in table.reports)
    assert all(r.linf_div <= 1e-8 for r in table.reports)


def test_level_failure_context(star):
    with pytest.raises(RuntimeError, match="n=2"):
        # n = 2 is too coarse: no triangle fits inside the star
        run_convergence(star, [2, 4], [0.1], 40.0)


INFSUP_SHIFT = 1e-3  # s of the interior pair's shifted norm saddle system


def infsup_interior(ct, layout, bqd):
    """Inf-sup constant of the plain Stokes pair, the reference that
    infsup_estimate's multiplier pair is compared with.

    The velocity vanishes on the mesh boundary and only the pressure is
    kept.  Shift-invert Lanczos on S y = mu M_p y, S = B X^{-1} B^T, with
    one LU of the shifted norm saddle system [[X, B^T], [B, -s M_p]]: the
    constant pressure, S's one kernel mode, is the eigenvalue nearest -s
    and the next one is M_p-orthogonal to it, i.e. of zero mean.
    """
    boundary = ct.edge_counts == 1
    nodes = np.r_[ct.edges[boundary].ravel(), layout.n_mvert + np.flatnonzero(boundary)]
    keep = np.setdiff1d(np.arange(layout.n_u), np.r_[2 * nodes, 2 * nodes + 1])
    X = asm.assemble_stiffness(ct, layout)[keep][:, keep]
    B = asm.assemble_b(ct, layout, bqd)[0][:, keep]
    Y = asm.gram_pressure_mass(ct, layout)
    lu = spla.splu(sp.bmat([[X, B.T], [B, -INFSUP_SHIFT * Y]], format="csc"))

    def solve(g):
        return -lu.solve(np.concatenate([np.zeros(keep.size), g]))[keep.size:]

    m = Y.shape[0]
    opinv = spla.LinearOperator((m, m), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(m)
    mu = spla.eigsh(Y, k=2, M=Y, sigma=-INFSUP_SHIFT, OPinv=opinv, v0=v0,
                    return_eigenvectors=False)
    return float(np.sqrt(max(mu.max(), 0.0)))


def test_infsup_positive_and_reported(circle):
    levels = {n: build_level(circle, n, 40.0) for n in (4, 6, 8)}
    values = {n: infsup_estimate(lv.ct, lv.layout, lv.bqd) for n, lv in levels.items()}
    assert all(v > 0.0 for v in values.values())
    # trend is reported, not asserted against a bound
    print("inf-sup estimates (circle):", values)
    sv = infsup_interior(levels[4].ct, levels[4].layout, levels[4].bqd)
    assert sv > 0.0


def test_infsup_fitted_box():
    level = build_level(box_sdf_domain(), 4, 40.0)
    assert infsup_estimate(level.ct, level.layout, level.bqd) > 0.0


# (with multiplier, interior pair) per domain and level, as computed by a
# dense generalized eigensolve on null-space bases of the constraints
INFSUP_DENSE = {("star", 8): (0.154558083367, 0.229891635932),
                ("star", 16): (0.148631715920, 0.183127525395),
                ("circle", 8): (0.169107196386, 0.263012974751),
                ("circle", 16): (0.159228149737, 0.263012974751)}


def test_infsup_matches_dense_values(star, circle):
    for (name, n), expected in INFSUP_DENSE.items():
        level = build_level(star if name == "star" else circle, n, 40.0)
        for estimate, ref in zip((infsup_estimate, infsup_interior), expected):
            beta = estimate(level.ct, level.layout, level.bqd)
            assert beta == pytest.approx(ref, rel=1e-8), (name, n, estimate.__name__)


def test_infsup_repeatable(star):
    level = build_level(star, 16, 40.0)
    for estimate in (infsup_estimate, infsup_interior):
        values = {estimate(level.ct, level.layout, level.bqd) for _ in range(3)}
        assert len(values) == 1, values


def test_infsup_star_n32(star):
    level = build_level(star, 32, 40.0)
    beta = infsup_estimate(level.ct, level.layout, level.bqd)
    beta_interior = infsup_interior(level.ct, level.layout, level.bqd)
    # reported, not asserted against a bound
    print(f"inf-sup estimates (star, n = 32): {beta:.6f}, interior {beta_interior:.6f}")
    assert np.isfinite(beta) and beta > 0.0
    assert np.isfinite(beta_interior) and beta_interior > 0.0


def test_infsup_star_n64(star):
    # pinned one level further; reported, not asserted against a bound
    level = build_level(star, 64, 40.0)
    beta = infsup_estimate(level.ct, level.layout, level.bqd)
    print(f"inf-sup estimate (star, n = 64): {beta:.12f}")
    assert beta == pytest.approx(0.149367911387, rel=1e-8)


HYDROSTATIC_NUS = (1.0, 1e-4, 1e-8)
HYDROSTATIC_DOMAINS = {"star": star_domain(),
                       "circle": circle_domain((0.45, 0.52), 0.35)}


@pytest.mark.parametrize("name", sorted(HYDROSTATIC_DOMAINS))
def test_hydrostatic_quadratic_pressure_gives_no_flow(name):
    # div V_h lies in the pressure space and phi on the mesh boundary in the
    # multiplier space, so a quadratic pressure's gradient load moves nothing
    level = build_level(HYDROSTATIC_DOMAINS[name], 16, 40.0)
    for nu in HYDROSTATIC_NUS:
        case = hydrostatic_case(nu, quadratic_pressure, quadratic_pressure_grad)
        _, report = solve_on_level(level, case)
        assert nu * report.l2_u <= 1e-14
        assert nu * report.h1_u <= 1e-12


@pytest.mark.parametrize("name, levels", [("star", (8, 16, 32, 64)), ("circle", (16,))])
def test_hydrostatic_smooth_pressure_defect_scales_with_inverse_nu(name, levels):
    # beyond quadratics the scheme is not pressure robust: nu * u_h is the
    # same for every viscosity, so the velocity error grows like 1/nu
    tables = run_convergence(
        HYDROSTATIC_DOMAINS[name], levels, HYDROSTATIC_NUS, 40.0,
        case_factory=lambda nu: hydrostatic_case(nu, smooth_pressure,
                                                 smooth_pressure_grad))
    scaled = np.array([[nu * r.l2_u for r in tables[nu].reports]
                       for nu in HYDROSTATIC_NUS])
    assert np.all(scaled > 0)
    assert np.allclose(scaled, scaled[0], rtol=1e-6, atol=0.0)
    rates = tables[1.0].rates()
    shown = " ".join(f"{r:.2f}" for r in rates["l2_u"])
    print(f"{name}: nu * l2_u = {scaled[0]} at n = {levels}, rates {shown}")
    if name == "star":
        # regression pin on the defect's orders, measured at n = 16 -> 32 and
        # 32 -> 64 (3.7299 / 3.4707 and 3.1530 / 3.2384), margin 0.01: about
        # one order above the paper case's velocity rates, 3 and 2
        assert rates["l2_u"][1:] == pytest.approx([3.730, 3.471], abs=0.01)
        assert rates["h1_u"][1:] == pytest.approx([3.153, 3.238], abs=0.01)


def test_large_viscosity_pressure_error_is_nu_times_the_viscous_one():
    # the system is solved for p/nu, so l2_p / nu is the pressure error of
    # the viscous problem: measured on this circle it is 1.703951 /
    # 0.1178006 / 0.03295530 / 0.009373480 at n = 4 / 8 / 16 / 32 for every
    # nu from 1e2 to 1e100, to 7 digits, and converges at about 1.8; a
    # pressure made of nu times rounding would neither agree nor converge
    dom = circle_domain((0.5, 0.5), 0.4)
    scaled = {}
    for n in (8, 16):
        level = build_level(dom, n, 40.0)
        scaled[n] = [solve_on_level(level, paper_case(nu))[1].l2_p / nu
                     for nu in (1e4, 1e100)]
        assert scaled[n][1] == pytest.approx(scaled[n][0], rel=1e-6, abs=0.0)
    # regression pin: the 8 -> 16 ratio measured at nu = 1e4 is 3.574559
    assert scaled[8][0] / scaled[16][0] == pytest.approx(3.574559, rel=1e-6)


def test_solve_on_level_reports(star):
    level = build_level(star, 8, 40.0)
    sol, rep = solve_on_level(level, paper_case(0.1))
    assert rep.n == 8 and rep.h == 1 / 8
    assert rep.dofs == level.layout.n_total
    assert np.isfinite(rep.max_delta_ratio)
    assert rep.residual <= 1e-10
    for field in ("l2_u", "h1_u", "l2_p", "linf_div", "lam_diag"):
        v = getattr(rep, field)
        assert np.isfinite(v) and v >= 0


def test_traced_peaks_of_a_level_stay_near_what_it_keeps(star, monkeypatch):
    # numpy's allocations are traced and SuperLU's are not.  Measured at
    # star n = 32 (numpy 2.4.6, scipy 1.17.1) with the penalised velocity
    # factor, above the state each step keeps: build_level peaks 4.53 MiB and
    # level_system 6.37 MiB; factorize 4.76 MiB, and 3.46 MiB with the Schur
    # complement in chunks of 1 024 of the 4 447 kept rows (the first chunk
    # of SCHUR_ROWS holds 92 % of them); a solve with the factor in place
    # 5.88 MiB above its inputs.  Three of the allocation rules that
    # level_system's docstring lists show here: with the Schur complement
    # formed whole factorize peaks 5.37 MiB on either path, with the
    # condensation's temporaries alive to its end 8.23 MiB, and with the
    # velocity errors taken over all elements at once instead of
    # ERROR_BLOCK at a time the solve peaks 9.78 MiB.  The two factorize
    # bounds are today's peaks + 25 %, so the first fails without the early
    # dels and the second without the chunks; the other three are kept
    # from the pinned saddle factor, whose peaks were 4.5, 6.4 and 5.9 MiB,
    # + 25 %.
    tracemalloc.start()
    try:
        level = build_level(star, 32, 40.0)
        kept, peak = tracemalloc.get_traced_memory()
        assert peak - kept <= 5.7 * 2**20
        tracemalloc.reset_peak()
        system = level_system(level)
        kept, peak = tracemalloc.get_traced_memory()
        assert peak - kept <= 8.0 * 2**20
        tracemalloc.reset_peak()
        system.factor = factorize(system.matrix, level.layout)
        kept, peak = tracemalloc.get_traced_memory()
        assert peak - kept <= 5.95 * 2**20
        with monkeypatch.context() as patch:
            patch.setattr(solver, "SCHUR_ROWS", 1024)
            tracemalloc.reset_peak()
            chunked = factorize(system.matrix, level.layout)
            kept, peak = tracemalloc.get_traced_memory()
            assert peak - kept <= 4.33 * 2**20
            del chunked
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solve_on_level(level, paper_case(0.1))
        assert tracemalloc.get_traced_memory()[1] - before <= 7.4 * 2**20
    finally:
        tracemalloc.stop()


def test_reported_h_is_grid_spacing_of_padded_box():
    # a circle of radius 0.45 gets a box of side 2.5 r = 1.125, so the grid
    # spacing at n = 8 is 1.125 / 8, not 1 / 8
    dom = circle_domain((0.5, 0.5), 0.45)
    _, rep = solve_on_level(build_level(dom, 8, 40.0), patch_case(1.0))
    assert rep.h == 0.140625


def _shifted_box(center, half, shift):
    """Square box containing center +- half with a 0.02 margin: side
    max(1, 2.5 * max(half)) as circle_domain picks it, lower-left corner
    placed by shift in [0, 1]^2 between its extreme admissible positions."""
    c, half = np.asarray(center), np.asarray(half)
    side = max(1.0, 2.5 * float(half.max()))
    lo = c + half + 0.02 - side
    x0 = lo + np.asarray(shift) * (c - half - 0.02 - lo)
    return (x0[0], x0[1], x0[0] + side, x0[1] + side)


def _assert_patch_or_diagnosed(dom, n=16):
    """The quadratic patch is reproduced with every structural guarantee,
    or the level is rejected with a diagnosed error naming it."""
    try:
        level = build_level(dom, n, 40.0)
    except (MeshError, ProjectionError) as exc:
        assert str(exc).startswith(f"n={n}: ")
        return
    ct = level.ct   # boundary edges on local edge 0->1, as assembly assumes
    assert np.array_equal(ct.triangles[ct.boundary_tris, :2], ct.boundary_edges)
    m_q, m_mu = level.blocks.m_q, level.blocks.m_mu
    sol, rep = solve_on_level(level, patch_case(1.0))
    assert rep.h1_u <= 1e-8 and rep.l2_p <= 1e-8
    assert rep.linf_div <= 1e-8
    assert rep.residual <= 1e-10
    assert abs(float(m_q @ sol.p)) <= 1e-10
    assert abs(float(m_mu @ sol.lam)) <= 1e-10
    x0, y0, x1, y1 = dom.bounding_box
    assert rep.h == max(x1 - x0, y1 - y0) / n


_unit = st.floats(0.0, 1.0)


@given(r=st.floats(0.30, 0.45), s=_unit, t=_unit, shift=st.tuples(_unit, _unit))
def test_patch_on_random_circles(r, s, t, shift):
    # the radii and centres of the random-circle sweep, in a shifted box
    lo, hi = r + 0.02, 1.0 - r - 0.02
    c = (lo + s * (hi - lo), lo + t * (hi - lo))
    circle = circle_domain(c, r)
    dom = LevelSetDomain(circle.phi, circle.grad_phi, circle.hess_phi,
                         _shifted_box(c, (r, r), shift), "circle")
    _assert_patch_or_diagnosed(dom)


@given(a=st.floats(0.20, 0.45), b=st.floats(0.20, 0.45), s=_unit, t=_unit,
       shift=st.tuples(_unit, _unit))
def test_patch_on_random_ellipses(a, b, s, t, shift):
    half = np.array([a, b])
    lo, hi = half + 0.02, 1.0 - half - 0.02
    c = lo + np.array([s, t]) * (hi - lo)
    _assert_patch_or_diagnosed(ellipse_domain(c, half, _shifted_box(c, half, shift)))
