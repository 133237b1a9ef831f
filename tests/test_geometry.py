import numpy as np
import pytest

from conftest import annulus_domain, ellipse_domain, zero_hessian
from ctstokes.geometry import (LevelSetDomain, ProjectionError, circle_domain,
                               project_points, star_domain)

R0 = 0.3723423423343


def test_star_values():
    s = star_domain()
    assert s.phi(np.array([0.5 + R0, 0.5])) == pytest.approx(0.0, abs=1e-15)
    assert s.phi(np.array([0.5, 0.5])) == pytest.approx(-R0, abs=1e-15)
    assert s.phi(np.array([0.9, 0.5])) == pytest.approx(0.9 - 0.5 - R0, abs=1e-15)


def test_star_gradient_center_is_error():
    s = star_domain()
    with pytest.raises(ValueError):
        s.grad_phi(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        s.hess_phi(np.array([0.5, 0.5]))


def _points_about(center, n=50, seed=3):
    """Points 0.05-0.45 off the center along each axis, in random quadrants."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.45, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2)) + center


def _annulus_points():
    # off the kink of |r - 0.275|, where grad phi jumps
    pts = _points_about((0.5, 0.5))
    return pts[np.abs(np.linalg.norm(pts - 0.5, axis=1) - 0.275) > 1e-3]


@pytest.mark.parametrize("dom, pts", [
    (star_domain(), _points_about((0.5, 0.5))),
    (circle_domain((0.45, 0.52), 0.35), _points_about((0.45, 0.52))),
    (annulus_domain(), _annulus_points()),
    (ellipse_domain((0.5, 0.45), (0.4, 0.25)), _points_about((0.5, 0.45))),
], ids=["star", "circle", "annulus", "ellipse"])
def test_derivatives_match_finite_differences(dom, pts):
    # central differences are the reference for the analytic gradient and
    # Hessian that every domain supplies
    eps = 1e-6
    for j in range(2):
        d = np.zeros(2)
        d[j] = eps
        fd_grad = (dom.phi(pts + d) - dom.phi(pts - d)) / (2 * eps)
        assert np.allclose(fd_grad, dom.grad_phi(pts)[:, j], atol=1e-8)
        fd_hess = (dom.grad_phi(pts + d) - dom.grad_phi(pts - d)) / (2 * eps)
        assert np.allclose(fd_hess, dom.hess_phi(pts)[:, :, j], atol=1e-6)


def test_hessian_is_required():
    with pytest.raises(TypeError):
        LevelSetDomain(lambda x: np.asarray(x)[..., 0], lambda x: np.ones(np.shape(x)))


def test_circle_values():
    c = circle_domain((0.5, 0.5), 0.4)
    assert c.phi(np.array([0.8, 0.5])) == pytest.approx(-0.1, abs=1e-15)
    assert c.phi(np.array([0.5, 0.9])) == pytest.approx(0.0, abs=1e-15)
    assert c.phi(np.array([0.5, 1.0])) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        circle_domain((0.5, 0.5), -1.0)
    with pytest.raises(ValueError):
        c.grad_phi(np.array([0.5, 0.5]))


def test_project_circle_radial():
    c = circle_domain((0.5, 0.5), 0.4)
    x_star, delta, dirs = project_points(c, np.array([[0.8, 0.5]]))
    assert np.allclose(x_star[0], [0.9, 0.5], atol=1e-12)
    assert delta[0] == pytest.approx(0.1, abs=1e-12)
    assert np.allclose(dirs[0], [1.0, 0.0], atol=1e-12)


def test_project_on_boundary_degenerates():
    # a point on the boundary: zero transfer and a zero direction row; at
    # delta = 0 both Taylor terms of the corrected trace vanish, so the
    # direction is never needed there
    c = circle_domain((0.5, 0.5), 0.4)
    x_star, delta, dirs = project_points(c, np.array([[0.9, 0.5]]))
    assert delta[0] == 0.0
    assert np.array_equal(dirs[0], [0.0, 0.0])
    assert np.allclose(x_star[0], [0.9, 0.5])


def _star_boundary_roots(dom, x, n_samples=1_000_000):
    """All boundary points where (grad phi)^perp is orthogonal to x - y,
    found by dense sampling of the boundary curve plus bisection."""
    from scipy.optimize import brentq

    th = np.linspace(-np.pi, np.pi, n_samples + 1)
    rho = R0 + 0.1 * np.sin(6 * th)
    pts = np.column_stack([0.5 + rho * np.cos(th), 0.5 + rho * np.sin(th)])
    g = dom.grad_phi(pts)
    orth = -g[:, 1] * (x[0] - pts[:, 0]) + g[:, 0] * (x[1] - pts[:, 1])

    def f(t):
        r = R0 + 0.1 * np.sin(6 * t)
        b = np.array([0.5 + r * np.cos(t), 0.5 + r * np.sin(t)])
        gg = dom.grad_phi(b)
        return -gg[1] * (x[0] - b[0]) + gg[0] * (x[1] - b[1])

    roots = []
    sign_change = np.where(np.sign(orth[:-1]) * np.sign(orth[1:]) < 0)[0]
    for k in sign_change:
        t = brentq(f, th[k], th[k + 1], xtol=1e-15)
        r = R0 + 0.1 * np.sin(6 * t)
        roots.append([0.5 + r * np.cos(t), 0.5 + r * np.sin(t)])
    return np.asarray(roots)


def test_project_star_against_curve_oracle():
    s = star_domain()
    x = np.array([0.85, 0.5])
    x_star, delta, _ = project_points(s, x[None, :])
    roots = _star_boundary_roots(s, x)
    assert len(roots) > 0
    nearest = roots[np.argmin(np.linalg.norm(roots - x, axis=1))]
    assert np.allclose(x_star[0], nearest, atol=1e-9)
    assert delta[0] == pytest.approx(np.linalg.norm(nearest - x), abs=1e-9)


def test_projection_residuals_and_idempotency():
    # interior band: projections are taken from mesh boundary points, which
    # always lie inside the domain
    s = star_domain()
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(6000, 2))
    phi = s.phi(pts)
    pts = pts[(phi > -0.03) & (phi < 0.0)][:300]
    x_star, delta, dirs = project_points(s, pts)
    assert np.all(np.abs(s.phi(x_star)) <= 1e-10)
    g = s.grad_phi(x_star)
    d = pts - x_star
    orth = -g[:, 1] * d[:, 0] + g[:, 0] * d[:, 1]
    assert np.all(np.abs(orth) <= 1e-10)
    # projecting the projected points is a fixed point
    _, delta2, _ = project_points(s, x_star)
    assert np.all(delta2 <= 1e-10)
    # direction convention: x_star = x + delta * dir
    assert np.allclose(x_star, pts + delta[:, None] * dirs, atol=1e-12)


def test_circle_delta_is_radial_distance():
    c = circle_domain((0.5, 0.5), 0.4)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 0.9, size=(12000, 2))
    phi = c.phi(pts)
    pts = pts[(phi > -0.05) & (phi < 0.0)][:1000]
    assert len(pts) >= 500
    _, delta, _ = project_points(c, pts)
    exact = np.abs(np.linalg.norm(pts - 0.5, axis=1) - 0.4)
    assert np.max(np.abs(delta - exact)) <= 1e-12


def test_validate_rejects_empty_and_flat_domains():
    star_domain().validate()
    circle_domain((0.5, 0.5), 0.4).validate()
    empty = LevelSetDomain(lambda x: np.ones(np.asarray(x).shape[:-1]),
                           lambda x: np.asarray(x) * 0.0, zero_hessian)
    with pytest.raises(ValueError):
        empty.validate()
    flat = LevelSetDomain(lambda x: np.asarray(x)[..., 0] - 0.5,
                          lambda x: np.asarray(x) * 0.0, zero_hessian)
    with pytest.raises(ValueError):
        flat.validate()


def test_domain_checks_name_a_nan():
    # a NaN radius is not positive; it does not fall back to the unit box
    with pytest.raises(ValueError, match="^radius must be positive, got nan$"):
        circle_domain((0.5, 0.5), float("nan"))
    # a NaN centre is not a number, not a box too large to measure
    with pytest.raises(ValueError) as exc:
        circle_domain((float("nan"), 0.5), 0.3).validate()
    assert str(exc.value) == ("the bounding box [nan, nan] x [0, 1] has a "
                              "coordinate that is not a number")


def test_projection_failure_is_reported():
    # gradient pointing away from the zero set makes Newton diverge
    def hess(x):
        out = zero_hessian(x)
        out[..., 0, 0] = 2.0
        return out

    bad = LevelSetDomain(lambda x: np.asarray(x)[..., 0] ** 2 + 1.0,
                         lambda x: np.stack([2 * np.asarray(x)[..., 0],
                                             np.zeros(np.asarray(x).shape[:-1])],
                                            axis=-1), hess)
    with pytest.raises(ProjectionError, match=r"x = \[0\.3, 0\.4\] \(residual"):
        project_points(bad, np.array([[0.3, 0.4]]))


def test_singular_jacobian_is_reported():
    # phi = |y - c|^2 - r^2 has grad phi = 0 at c, so the Newton Jacobian
    # started there is zero; the failure names that point, not a LinAlgError
    c = np.array([0.5, 0.25])
    dom = LevelSetDomain(lambda x: np.sum((np.asarray(x) - c) ** 2, axis=-1) - 0.09,
                         lambda x: 2.0 * (np.asarray(x) - c),
                         lambda x: np.broadcast_to(2.0 * np.eye(2), np.shape(x) + (2,)))
    pts = np.array([[0.5, 0.5], c, [0.6, 0.25]])
    with pytest.raises(ProjectionError,
                       match=r"x = \[0\.5, 0\.25\] \(singular Newton Jacobian\)"):
        project_points(dom, pts)
