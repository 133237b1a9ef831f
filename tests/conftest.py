import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from ctstokes.geometry import LevelSetDomain, circle_domain, star_domain
from ctstokes.mesh import build_type1_mesh, clip_to_interior, clough_tocher
from ctstokes.fem import build_dof_layout
from ctstokes.assembly import (assemble_blocks, assemble_rhs,
                               build_boundary_data, compose_system)
from ctstokes.solver import solve_direct
from ctstokes.verify import ManufacturedCase

# fixed examples and no example database, so runs repeat; hypothesis still
# caches the constants it reads from source files in its storage directory,
# which defaults to ./.hypothesis
settings.register_profile("ctstokes", derandomize=True, deadline=None,
                          database=None, max_examples=25)
settings.load_profile("ctstokes")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "ctstokes-hypothesis"))


@pytest.fixture(scope="session")
def star():
    return star_domain()


@pytest.fixture(scope="session")
def circle():
    return circle_domain((0.5, 0.5), 0.4)


def zero_hessian(x):
    return np.zeros(np.shape(x) + (2,))


def box_sdf_domain():
    """Unit square as its own level set: the mesh boundary is exactly the
    physical boundary, so every transfer length vanishes."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.maximum(np.abs(x[..., 0] - 0.5), np.abs(x[..., 1] - 0.5)) - 0.5

    def grad(x):
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - 0.5
        dy = x[..., 1] - 0.5
        pick_x = np.abs(dx) >= np.abs(dy)
        gx = np.where(pick_x, np.sign(dx), 0.0)
        gy = np.where(pick_x, 0.0, np.sign(dy))
        return np.stack([gx, gy], axis=-1)

    # phi is piecewise linear
    return LevelSetDomain(phi, grad, zero_hessian, (0.0, 0.0, 1.0, 1.0), "box")


def everywhere_inside_domain():
    """Constant negative level set: clipping keeps the whole background mesh."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return -np.ones(x.shape[:-1])

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape)

    return LevelSetDomain(phi, grad, zero_hessian, (0.0, 0.0, 1.0, 1.0), "all")


def annulus_domain():
    """Ring 0.15 <= r <= 0.4 about (0.5, 0.5): phi = |r - 0.275| - 0.125.

    Its mesh boundary is two loops, the outer one counterclockwise and the
    hole's clockwise, from n = 16 up; at n = 8 the clipped mesh pinches."""
    c = np.array([0.5, 0.5])

    def radial(x):
        d = np.asarray(x, dtype=float) - c
        r = np.linalg.norm(d, axis=-1)
        return d, r, np.sign(r - 0.275)

    def phi(x):
        _, r, _ = radial(x)
        return np.abs(r - 0.275) - 0.125

    def grad(x):
        d, r, side = radial(x)
        return side[..., None] * d / r[..., None]

    def hess(x):
        d, r, side = radial(x)
        e = d / r[..., None]
        return (side[..., None, None] * (np.eye(2) - e[..., :, None] * e[..., None, :])
                / r[..., None, None])

    return LevelSetDomain(phi, grad, hess, (0.0, 0.0, 1.0, 1.0), "annulus")


def ellipse_domain(center, axes, bounding_box=(0.0, 0.0, 1.0, 1.0)):
    """Axis-aligned ellipse as the algebraic level set
    phi = ((x - cx)/a)^2 + ((y - cy)/b)^2 - 1, which is not a distance."""
    c = np.asarray(center, dtype=float)
    scale = 1.0 / np.asarray(axes, dtype=float) ** 2

    def phi(x):
        d = np.asarray(x, dtype=float) - c
        return np.sum(scale * d * d, axis=-1) - 1.0

    def grad(x):
        return 2.0 * scale * (np.asarray(x, dtype=float) - c)

    def hess(x):
        return np.broadcast_to(np.diag(2.0 * scale), np.shape(x) + (2,)).copy()

    return LevelSetDomain(phi, grad, hess, bounding_box, "ellipse")


@pytest.fixture(scope="session")
def annulus():
    return annulus_domain()


@pytest.fixture(scope="session")
def box_sdf():
    return box_sdf_domain()


def hydrostatic_case(nu, phi, grad_phi):
    """No flow under a gradient load: u = 0, p = phi, f = grad phi.

    The exact velocity does not depend on nu, so any discrete velocity is a
    defect of the scheme's pressure robustness."""

    def u(pts):
        return np.zeros(np.shape(pts))

    def grad_u(pts):
        return np.zeros(np.shape(pts) + (2,))

    return ManufacturedCase(name="hydrostatic", nu=nu, u=u, grad_u=grad_u,
                            p=phi, f=grad_phi)


def make_level(dom, n, sigma=40.0):
    """Mesh + layout + boundary data + blocks, without the verify-module wrapper."""
    ct = clough_tocher(clip_to_interior(build_type1_mesh(n, dom.bounding_box), dom))
    layout = build_dof_layout(ct)
    bqd = build_boundary_data(ct, layout, dom)
    blocks = assemble_blocks(ct, layout, bqd, sigma)
    return ct, layout, bqd, blocks


def solve_case(ct, layout, bqd, blocks, case, sigma=40.0):
    """Solve a case on a make_level tuple; p, lambda and gamma come back
    unscaled (the system is solved for them divided by nu)."""
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, case.nu, sigma)
    sol = solve_direct(compose_system(blocks, layout), rhs)
    nu = case.nu
    return replace(sol, p=nu * sol.p, lam=nu * sol.lam, gamma=nu * sol.gamma)


@pytest.fixture(scope="session")
def star_n8(star):
    return make_level(star, 8)


@pytest.fixture(scope="session")
def circle_n8(circle):
    return make_level(circle, 8)
