import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ellipse_domain, hydrostatic_case, make_level, solve_case
from ctstokes.fem import element_maps, eval_p1, triangle_rule
from ctstokes.geometry import (LevelSetDomain, ProjectionError, circle_domain,
                               star_domain)
from ctstokes.mesh import MeshError
from ctstokes.solver import SolutionFields
from ctstokes.verify import (ErrorReport, RateTable, build_level,
                             compute_errors, infsup_estimate, paper_case,
                             patch_case, run_convergence, solve_on_level,
                             write_json)

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
    ct, layout, bqd, blocks = star_n8
    case = paper_case(0.1)
    rule = triangle_rule(8)
    _, det, _, _ = element_maps(ct)
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
    with pytest.raises(ValueError):
        paper_case(0.0)
    with pytest.raises(ValueError):
        patch_case(-1.0)


def _zero_case():
    def zero_vec(x):
        return np.zeros(np.asarray(x).shape)

    def zero_grad(x):
        return np.zeros(np.asarray(x).shape[:-1] + (2, 2))

    def zero_scalar(x):
        return np.zeros(np.asarray(x).shape[:-1])

    from ctstokes.verify import ManufacturedCase

    return ManufacturedCase(name="zero", nu=1.0, u=zero_vec, grad_u=zero_grad,
                            p=zero_scalar, f=zero_vec)


def test_compute_errors_zero_case(star_n8):
    ct, layout, bqd, blocks = star_n8
    sol = SolutionFields(u=np.zeros(layout.n_u), p=np.zeros(layout.n_p),
                         lam=np.zeros(layout.n_lam), alpha=0.0, beta=0.0,
                         gamma=0.0, residual=0.0)
    rep = compute_errors(sol, _zero_case(), ct, layout, bqd, n=8,
                         max_delta_ratio=0.0)
    for field in ("l2_u", "h1_u", "l2_p", "linf_div", "lam_diag"):
        assert getattr(rep, field) == 0.0


def test_compute_errors_interpolant_of_patch(star_n8):
    ct, layout, bqd, blocks = star_n8
    case = patch_case(1.0)
    u = case.u(layout.node_coords)
    u_coeff = np.empty(layout.n_u)
    u_coeff[0::2] = u[:, 0]
    u_coeff[1::2] = u[:, 1]
    p_coeff = case.p(ct.vertices[ct.triangles]).ravel()
    sol = SolutionFields(u=u_coeff, p=p_coeff, lam=np.zeros(layout.n_lam),
                         alpha=0.0, beta=0.0, gamma=0.0, residual=0.0)
    rep = compute_errors(sol, case, ct, layout, bqd, n=8, max_delta_ratio=0.0)
    assert rep.l2_u <= 1e-12
    assert rep.h1_u <= 1e-11
    assert rep.l2_p <= 1e-12
    assert rep.linf_div <= 1e-11


def test_mean_adjustment_invariance(star_n8):
    ct, layout, bqd, blocks = star_n8
    case = paper_case(0.1)
    sol = solve_case(ct, layout, bqd, blocks, case)
    rep = compute_errors(sol, case, ct, layout, bqd, n=8, max_delta_ratio=0.0)

    shifted = paper_case(0.1)
    p_orig = shifted.p
    object.__setattr__(shifted, "p", lambda x: p_orig(x) + 3.7)
    rep2 = compute_errors(sol, shifted, ct, layout, bqd, n=8, max_delta_ratio=0.0)
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
    write_json(json_path, {0.1: table})
    payload = json.loads(json_path.read_text())
    assert "0.1" in payload
    assert payload["0.1"]["runs"][0]["n"] == 8
    assert payload["0.1"]["rates"]["l2_u"][0] == pytest.approx(3.0)


def test_run_convergence_requires_increasing_levels(star):
    with pytest.raises(ValueError):
        run_convergence(star, [16, 8], [0.1], 40.0)


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


def test_infsup_positive_and_reported(circle):
    values = {}
    for n in (4, 6, 8):
        ct, layout, bqd, blocks = make_level(circle, n)
        values[n] = infsup_estimate(ct, layout, bqd, include_multiplier=True)
        assert values[n] > 0.0
    # trend is reported, not asserted against a bound
    print("inf-sup estimates (circle):", values)
    ct, layout, bqd, blocks = make_level(circle, 4)
    sv = infsup_estimate(ct, layout, bqd, include_multiplier=False)
    assert sv > 0.0


def test_infsup_fitted_box():
    from conftest import box_sdf_domain

    ct, layout, bqd, blocks = make_level(box_sdf_domain(), 4)
    assert infsup_estimate(ct, layout, bqd) > 0.0


# (with multiplier, interior pair) per domain and level, as computed by a
# dense generalized eigensolve on null-space bases of the constraints
INFSUP_DENSE = {("star", 8): (0.154558083367, 0.229891635932),
                ("star", 16): (0.148631715920, 0.183127525395),
                ("circle", 8): (0.169107196386, 0.263012974751),
                ("circle", 16): (0.159228149737, 0.263012974751)}


def test_infsup_matches_dense_values(star, circle):
    for (name, n), expected in INFSUP_DENSE.items():
        level = build_level(star if name == "star" else circle, n, 40.0)
        for include_multiplier, ref in zip((True, False), expected):
            beta = infsup_estimate(level.ct, level.layout, level.bqd,
                                   include_multiplier=include_multiplier)
            assert beta == pytest.approx(ref, rel=1e-8), (name, n, include_multiplier)


def test_infsup_repeatable(star):
    level = build_level(star, 16, 40.0)
    for include_multiplier in (True, False):
        values = {infsup_estimate(level.ct, level.layout, level.bqd,
                                  include_multiplier=include_multiplier)
                  for _ in range(3)}
        assert len(values) == 1, values


def test_infsup_star_n32(star):
    level = build_level(star, 32, 40.0)
    beta = infsup_estimate(level.ct, level.layout, level.bqd)
    beta_interior = infsup_estimate(level.ct, level.layout, level.bqd,
                                    include_multiplier=False)
    # reported, not asserted against a bound
    print(f"inf-sup estimates (star, n = 32): {beta:.6f}, interior {beta_interior:.6f}")
    assert np.isfinite(beta) and beta > 0.0
    assert np.isfinite(beta_interior) and beta_interior > 0.0


HYDROSTATIC_NUS = (1.0, 1e-4, 1e-8)
HYDROSTATIC_DOMAINS = {"star": star_domain(),
                       "circle": circle_domain((0.45, 0.52), 0.35)}


def _xy(pts):
    pts = np.asarray(pts, dtype=float)
    return pts[..., 0], pts[..., 1]


def quadratic_pressure(pts):
    x, y = _xy(pts)
    return 2.0 * x * x - x * y + 0.5 * y * y + 3.0 * x - y + 0.25


def quadratic_pressure_grad(pts):
    x, y = _xy(pts)
    return np.stack([4.0 * x - y + 3.0, -x + y - 1.0], axis=-1)


def smooth_pressure(pts):
    x, y = _xy(pts)
    return np.sin(3.0 * x) * np.exp(y)


def smooth_pressure_grad(pts):
    x, y = _xy(pts)
    return np.stack([3.0 * np.cos(3.0 * x) * np.exp(y),
                     np.sin(3.0 * x) * np.exp(y)], axis=-1)


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


@pytest.mark.parametrize("name, levels", [("star", (8, 16, 32)), ("circle", (16,))])
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
    rates = " ".join(f"{r:.2f}" for r in tables[1.0].rates()["l2_u"])
    print(f"{name}: nu * l2_u = {scaled[0]} at n = {levels}, rates {rates}")


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
