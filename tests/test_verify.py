import json

import numpy as np
import pytest

from conftest import make_level, solve_case
from ctstokes.fem import element_maps, eval_p1, triangle_rule
from ctstokes.geometry import star_domain
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


def test_infsup_rejects_large_mesh(star):
    level = build_level(star, 32, 40.0)
    with pytest.raises(ValueError):
        infsup_estimate(level.ct, level.layout, level.bqd)


def test_solve_on_level_reports(star):
    level = build_level(star, 8, 40.0)
    sol, rep = solve_on_level(level, paper_case(0.1))
    assert rep.n == 8 and rep.h == pytest.approx(1 / 8)
    assert rep.dofs == level.layout.n_total
    assert np.isfinite(rep.max_delta_ratio)
    assert rep.residual <= 1e-10
    for field in ("l2_u", "h1_u", "l2_p", "linf_div", "lam_diag"):
        v = getattr(rep, field)
        assert np.isfinite(v) and v >= 0
