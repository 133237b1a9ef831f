"""Implicit domain geometry and the boundary transfer map.

The physical domain is described by a level-set function phi (negative
inside, positive outside).  Points on the computational boundary are
transferred to the physical boundary by solving, per point x, the 2x2
nonlinear system

    phi(y) = 0,      (grad phi(y))^perp . (x - y) = 0,

whose solution y lies on the zero level set with x - y parallel to the
boundary normal at y.  The transfer length is delta = |y - x| and the unit
transfer direction points from x toward y.
"""

from __future__ import annotations

import numpy as np

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
MAX_DAMPING_STEPS = 20
FD_STEP = 1e-7


class ProjectionError(RuntimeError):
    """Raised when the boundary projection fails to converge at some point."""


class LevelSetDomain:
    """Domain given by a scalar level set with analytic gradient.

    Args:
        phi: callable mapping points of shape (..., 2) to values (...,).
        grad_phi: callable mapping (..., 2) to gradients (..., 2).
        hess_phi: optional callable mapping (..., 2) to Hessians (..., 2, 2).
            When absent, projection Jacobians fall back to finite differences
            of the gradient.
        bounding_box: (xmin, ymin, xmax, ymax) rectangle containing the domain.
        name: short identifier used in reports.
    """

    def __init__(self, phi, grad_phi, hess_phi=None,
                 bounding_box=(0.0, 0.0, 1.0, 1.0), name="levelset"):
        self.phi = phi
        self.grad_phi = grad_phi
        self.hess_phi = hess_phi
        self.bounding_box = tuple(float(b) for b in bounding_box)
        self.name = name

    def validate(self, n_samples: int = 4096, band: float = 0.05, seed: int = 0) -> None:
        """Check the domain is non-empty and the gradient does not vanish near it.

        Samples the bounding box; every sampled point with |phi| <= band must
        have a nonzero gradient, and at least one sample must lie inside.
        """
        rng = np.random.default_rng(seed)
        x0, y0, x1, y1 = self.bounding_box
        pts = rng.uniform((x0, y0), (x1, y1), size=(n_samples, 2))
        vals = np.asarray(self.phi(pts))
        if not np.any(vals < 0.0):
            raise ValueError("level set has no interior points in the bounding box")
        near = pts[np.abs(vals) <= band]
        if near.size:
            g = np.asarray(self.grad_phi(near))
            norms = np.linalg.norm(g, axis=-1)
            if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
                raise ValueError("level-set gradient vanishes inside the boundary band")


def star_domain() -> LevelSetDomain:
    """Flower-shaped test domain inside the unit square.

    phi = r - 0.3723423423343 - 0.1*sin(6*theta) in polar coordinates about
    (0.5, 0.5).  At the center, where theta is undefined, phi is extended by
    continuity in r to -0.3723423423343; gradient evaluation there is an
    error.
    """
    r0 = 0.3723423423343
    amp = 0.1
    freq = 6.0
    cx, cy = 0.5, 0.5

    def phi(x):
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - cx
        dy = x[..., 1] - cy
        r = np.hypot(dx, dy)
        theta = np.arctan2(dy, dx)
        # arctan2(0, 0) = 0, so the r == 0 value is -r0 automatically
        return r - r0 - amp * np.sin(freq * theta)

    def grad(x):
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - cx
        dy = x[..., 1] - cy
        r = np.hypot(dx, dy)
        if np.any(r == 0.0):
            raise ValueError("gradient of the star level set is undefined at the center")
        theta = np.arctan2(dy, dx)
        c, s = dx / r, dy / r
        # d(phi)/dr = 1, d(phi)/dtheta = -amp*freq*cos(freq*theta)
        ptheta = -amp * freq * np.cos(freq * theta)
        gx = c - s * ptheta / r
        gy = s + c * ptheta / r
        return np.stack([gx, gy], axis=-1)

    def hess(x):
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - cx
        dy = x[..., 1] - cy
        r = np.hypot(dx, dy)
        if np.any(r == 0.0):
            raise ValueError("Hessian of the star level set is undefined at the center")
        theta = np.arctan2(dy, dx)
        c, s = dx / r, dy / r
        pr = 1.0
        ptheta = -amp * freq * np.cos(freq * theta)
        pthth = amp * freq * freq * np.sin(freq * theta)
        # polar-to-Cartesian second derivatives with phi_rr = phi_rtheta = 0
        hxx = s * s * pr / r + 2 * c * s * ptheta / r**2 + s * s * pthth / r**2
        hyy = c * c * pr / r - 2 * c * s * ptheta / r**2 + c * c * pthth / r**2
        hxy = -c * s * pr / r + (s * s - c * c) * ptheta / r**2 - c * s * pthth / r**2
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = hxx
        out[..., 0, 1] = hxy
        out[..., 1, 0] = hxy
        out[..., 1, 1] = hyy
        return out

    return LevelSetDomain(phi, grad, hess, bounding_box=(0.0, 0.0, 1.0, 1.0), name="star")


def circle_domain(center=(0.5, 0.5), radius=0.4) -> LevelSetDomain:
    """Circle of given center and radius as a signed-distance level set."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    cxy = np.asarray(center, dtype=float)
    r0 = float(radius)

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - cxy, axis=-1) - r0

    def grad(x):
        x = np.asarray(x, dtype=float)
        d = x - cxy
        n = np.linalg.norm(d, axis=-1)
        if np.any(n == 0.0):
            raise ValueError("gradient of the circle level set is undefined at the center")
        return d / n[..., None]

    def hess(x):
        x = np.asarray(x, dtype=float)
        d = x - cxy
        n = np.linalg.norm(d, axis=-1)
        if np.any(n == 0.0):
            raise ValueError("Hessian of the circle level set is undefined at the center")
        e = d / n[..., None]
        eye = np.eye(2)
        return (eye - e[..., :, None] * e[..., None, :]) / n[..., None, None]

    # unit-sized box when the circle fits (keeps grid sizes h = 1/n), else
    # a proportionally padded one
    half = max(0.5, 1.25 * r0)
    x0 = cxy - half
    x1 = cxy + half
    return LevelSetDomain(phi, grad, hess,
                          bounding_box=(x0[0], x0[1], x1[0], x1[1]), name="circle")


def _hess_fd(dom: LevelSetDomain, pts: np.ndarray) -> np.ndarray:
    """Finite-difference Hessian of phi from the analytic gradient."""
    scale = np.maximum(1.0, np.linalg.norm(pts, axis=-1))
    h = FD_STEP * scale
    out = np.empty(pts.shape[:-1] + (2, 2))
    for j in range(2):
        dp = np.zeros_like(pts)
        dp[..., j] = h
        gp = np.asarray(dom.grad_phi(pts + dp))
        gm = np.asarray(dom.grad_phi(pts - dp))
        out[..., :, j] = (gp - gm) / (2.0 * h)[..., None]
    # symmetrize: mixed partials commute for smooth phi
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _residual(dom, x, y):
    """Stacked residual (phi(y), grad(y)^perp . (x - y)) for batches."""
    f1 = np.asarray(dom.phi(y))
    g = np.asarray(dom.grad_phi(y))
    d = x - y
    f2 = -g[..., 1] * d[..., 0] + g[..., 0] * d[..., 1]
    return f1, f2, g


def project_points(dom: LevelSetDomain, pts: np.ndarray):
    """Project a batch of points onto the zero level set.

    Newton iteration on the 2x2 transfer system with residual-damped steps;
    points that fail to converge fall back to a damped closest-point fixed
    point sweep before Newton is retried.

    Args:
        dom: level-set domain.
        pts: array of shape (N, 2); Newton starts from the points themselves.

    Returns:
        Tuple (x_star (N, 2), delta (N,), direction (N, 2)).  Direction rows
        for delta == 0 are zero and must be replaced by the caller.

    Raises:
        ProjectionError: if any point fails both sweeps.
    """
    x = np.atleast_2d(np.asarray(pts, dtype=float))
    y = x.copy()

    def newton_sweep(y):
        active = np.ones(len(y), dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            f1, f2, g = _residual(dom, x, y)
            res = np.maximum(np.abs(f1), np.abs(f2))
            # non-finite residuals count as unconverged
            active = ~(res <= NEWTON_TOL)
            if not np.any(active):
                break
            ia = np.where(active)[0]
            ya, xa = y[ia], x[ia]
            ga = g[ia]
            if dom.hess_phi is not None:
                H = np.asarray(dom.hess_phi(ya))
            else:
                H = _hess_fd(dom, ya)
            d = xa - ya
            # rows: d(phi)/dy and d(g^perp . (x-y))/dy
            J = np.empty((len(ia), 2, 2))
            J[:, 0, :] = ga
            J[:, 1, 0] = -H[:, 1, 0] * d[:, 0] + H[:, 0, 0] * d[:, 1] + ga[:, 1]
            J[:, 1, 1] = -H[:, 1, 1] * d[:, 0] + H[:, 0, 1] * d[:, 1] - ga[:, 0]
            F = np.stack([f1[ia], f2[ia]], axis=-1)
            try:
                step = np.linalg.solve(J, F[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.stack([np.linalg.lstsq(Ji, Fi, rcond=None)[0]
                                 for Ji, Fi in zip(J, F)])
            # damped update: halve the step while the residual grows
            res_old = res[ia]
            ynew = ya - step
            for _ in range(MAX_DAMPING_STEPS):
                f1n, f2n, _ = _residual(dom, xa, ynew)
                res_new = np.maximum(np.abs(f1n), np.abs(f2n))
                worse = res_new > res_old
                if not np.any(worse):
                    break
                step[worse] *= 0.5
                ynew[worse] = ya[worse] - step[worse]
            y[ia] = ynew
        f1, f2, _ = _residual(dom, x, y)
        return y, np.maximum(np.abs(f1), np.abs(f2))

    y, res = newton_sweep(y)
    bad = ~(res <= NEWTON_TOL)
    if np.any(bad):
        # damped closest-point iteration as a fallback seed improver
        yb = x[bad].copy()
        for _ in range(200):
            f1 = np.asarray(dom.phi(yb))
            g = np.asarray(dom.grad_phi(yb))
            gn2 = np.sum(g * g, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = 0.5 * (f1 / gn2)[..., None] * g
            yb = yb - np.where(np.isfinite(step), step, 0.0)
        y[bad] = yb
        y, res = newton_sweep(y)
        bad = ~(res <= NEWTON_TOL)
        if np.any(bad):
            i = int(np.where(bad)[0][0])
            raise ProjectionError(
                f"boundary projection failed at x = {x[i].tolist()} "
                f"(residual {res[i]:.3e}); geometry and mesh are inconsistent")

    delta = np.linalg.norm(y - x, axis=-1)
    direction = np.zeros_like(x)
    pos = delta > 0.0
    direction[pos] = (y[pos] - x[pos]) / delta[pos, None]
    return y, delta, direction
