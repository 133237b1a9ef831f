"""Implicit domain geometry and the boundary transfer map.

The physical domain is described by a level-set function phi (negative
inside, positive outside) with its analytic gradient and Hessian.  Points
on the computational boundary are transferred to the physical boundary by
solving, per point x, the 2x2 nonlinear system

    phi(y) = 0,      (grad phi(y))^perp . (x - y) = 0,

whose solution y lies on the zero level set with x - y parallel to the
boundary normal at y.  The transfer length is delta = |y - x| and the unit
transfer direction points from x toward y; it is zero where delta = 0,
where both Taylor terms of the corrected trace vanish anyway.  The damped
Newton iteration either converges at every point or raises ProjectionError.
"""

from __future__ import annotations

import numpy as np

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
MAX_DAMPING_STEPS = 20
VALIDATE_SAMPLES = 4096   # points LevelSetDomain.validate draws from the box
VALIDATE_BAND = 0.05      # |phi| below which the gradient must not vanish
VALIDATE_SEED = 0


class ProjectionError(RuntimeError):
    """Raised when the boundary projection fails to converge at some point."""


class LevelSetDomain:
    """Domain given by a scalar level set with its analytic derivatives.

    Args:
        phi: callable mapping points of shape (..., 2) to values (...,).
        grad_phi: callable mapping (..., 2) to gradients (..., 2).
        hess_phi: callable mapping (..., 2) to Hessians (..., 2, 2).
        bounding_box: (xmin, ymin, xmax, ymax) rectangle containing the domain.
        name: short identifier used in reports.
    """

    def __init__(self, phi, grad_phi, hess_phi,
                 bounding_box=(0.0, 0.0, 1.0, 1.0), name="levelset"):
        self.phi = phi
        self.grad_phi = grad_phi
        self.hess_phi = hess_phi
        self.bounding_box = tuple(float(b) for b in bounding_box)
        self.name = name

    def validate(self) -> None:
        """Check the domain is non-empty and the gradient does not vanish near it.

        The box's coordinates must be numbers and its sides finite.  Samples
        VALIDATE_SAMPLES points of the bounding box; phi must be finite at
        every sample, every sampled point with |phi| <= VALIDATE_BAND must
        have a nonzero gradient, and at least one sample must lie inside.
        """
        rng = np.random.default_rng(VALIDATE_SEED)
        x0, y0, x1, y1 = self.bounding_box
        box = f"the bounding box [{x0:g}, {x1:g}] x [{y0:g}, {y1:g}]"
        if np.isnan(self.bounding_box).any():
            raise ValueError(f"{box} has a coordinate that is not a number")
        if not np.isfinite([x1 - x0, y1 - y0]).all():
            raise ValueError(f"{box} is too large: its sides overflow")
        pts = rng.uniform((x0, y0), (x1, y1), size=(VALIDATE_SAMPLES, 2))
        with np.errstate(over="ignore", invalid="ignore"):     # checked below
            vals = np.asarray(self.phi(pts))
        if not np.isfinite(vals).all():
            raise ValueError("level set is not finite in the bounding box")
        if not np.any(vals < 0.0):
            raise ValueError("level set has no interior points in the bounding box")
        near = pts[np.abs(vals) <= VALIDATE_BAND]
        if near.size:
            g = np.asarray(self.grad_phi(near))
            norms = np.linalg.norm(g, axis=-1)
            if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
                raise ValueError("level-set gradient vanishes inside the boundary band")


def star_domain() -> LevelSetDomain:
    """Flower-shaped test domain inside the unit square.

    phi = r - 0.3723423423343 - 0.1*sin(6*theta) in polar coordinates about
    (0.5, 0.5).  At the center, where theta is undefined, phi is extended by
    continuity in r to -0.3723423423343; evaluating its derivatives there is
    an error.
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

    def polar(x):
        """r, the radial unit vector (c, s), theta and d(phi)/dtheta."""
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - cx
        dy = x[..., 1] - cy
        r = np.hypot(dx, dy)
        if np.any(r == 0.0):
            raise ValueError("derivatives of the star level set are undefined at the center")
        theta = np.arctan2(dy, dx)
        return r, dx / r, dy / r, theta, -amp * freq * np.cos(freq * theta)

    def grad(x):
        # d(phi)/dr = 1
        r, c, s, _, ptheta = polar(x)
        gx = c - s * ptheta / r
        gy = s + c * ptheta / r
        return np.stack([gx, gy], axis=-1)

    def hess(x):
        r, c, s, theta, ptheta = polar(x)
        pthth = amp * freq * freq * np.sin(freq * theta)
        # polar-to-Cartesian second derivatives: phi_r = 1, phi_rr = phi_rtheta = 0
        hxx = s * s / r + 2 * c * s * ptheta / r**2 + s * s * pthth / r**2
        hyy = c * c / r - 2 * c * s * ptheta / r**2 + c * c * pthth / r**2
        hxy = -c * s / r + (s * s - c * c) * ptheta / r**2 - c * s * pthth / r**2
        out = np.empty(r.shape + (2, 2))
        out[..., 0, 0] = hxx
        out[..., 0, 1] = hxy
        out[..., 1, 0] = hxy
        out[..., 1, 1] = hyy
        return out

    return LevelSetDomain(phi, grad, hess, bounding_box=(0.0, 0.0, 1.0, 1.0), name="star")


def circle_domain(center, radius) -> LevelSetDomain:
    """Circle of given center and radius as a signed-distance level set."""
    if not radius > 0.0:    # a NaN radius fails it too
        raise ValueError(f"radius must be positive, got {radius:g}")
    cxy = np.asarray(center, dtype=float)
    r0 = float(radius)

    def phi(x):
        return np.linalg.norm(np.asarray(x, dtype=float) - cxy, axis=-1) - r0

    def radial(x):
        """Offset from the center and its length."""
        d = np.asarray(x, dtype=float) - cxy
        n = np.linalg.norm(d, axis=-1)
        if np.any(n == 0.0):
            raise ValueError("derivatives of the circle level set are undefined at the center")
        return d, n

    def grad(x):
        d, n = radial(x)
        return d / n[..., None]

    def hess(x):
        d, n = radial(x)
        e = d / n[..., None]
        return (np.eye(2) - e[..., :, None] * e[..., None, :]) / n[..., None, None]

    # unit-sized box when the circle fits (grid spacing 1/n), else a
    # proportionally padded one
    half = max(0.5, 1.25 * r0)
    x0, x1 = cxy - half, cxy + half
    return LevelSetDomain(phi, grad, hess,
                          bounding_box=(x0[0], x0[1], x1[0], x1[1]), name="circle")


def _residual(dom, x, y):
    """Stacked residual (phi(y), grad(y)^perp . (x - y)) for batches."""
    f1 = np.asarray(dom.phi(y))
    g = np.asarray(dom.grad_phi(y))
    d = x - y
    f2 = -g[..., 1] * d[..., 0] + g[..., 0] * d[..., 1]
    return f1, f2, g


def _failure(x, reason) -> ProjectionError:
    return ProjectionError(f"boundary projection failed at x = {x.tolist()} "
                           f"({reason}); geometry and mesh are inconsistent")


def project_points(dom: LevelSetDomain, pts: np.ndarray):
    """Project a batch of points onto the zero level set.

    Newton iteration on the 2x2 transfer system, started at the points, with
    steps halved while the residual grows.

    Args:
        dom: level-set domain.
        pts: array of shape (N, 2).

    Returns:
        Tuple (x_star (N, 2), delta (N,), direction (N, 2)).  Direction rows
        for delta == 0 are zero; the corrected traces need no direction there.

    Raises:
        ProjectionError: naming the first point whose residual is above
            NEWTON_TOL after NEWTON_MAX_ITER steps, or a point where the
            Newton Jacobian is singular.
    """
    x = np.atleast_2d(np.asarray(pts, dtype=float))
    y = x.copy()
    for it in range(NEWTON_MAX_ITER + 1):
        f1, f2, g = _residual(dom, x, y)
        res = np.maximum(np.abs(f1), np.abs(f2))
        # non-finite residuals count as unconverged
        ia = np.flatnonzero(~(res <= NEWTON_TOL))
        if len(ia) == 0:
            break
        if it == NEWTON_MAX_ITER:
            raise _failure(x[ia[0]], f"residual {res[ia[0]]:.3e}")
        ya, xa, ga = y[ia], x[ia], g[ia]
        H = np.asarray(dom.hess_phi(ya))
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
            # solve names no point; a singular J has a zero LU pivot, so det 0
            k = ia[np.argmin(np.abs(np.linalg.det(J)))]
            raise _failure(x[k], "singular Newton Jacobian") from None
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

    delta = np.linalg.norm(y - x, axis=-1)
    direction = np.zeros_like(x)
    pos = delta > 0.0
    direction[pos] = (y[pos] - x[pos]) / delta[pos, None]
    return y, delta, direction
