import os
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from ctstokes import assembly, verify
from ctstokes.assembly import assemble_constraints
from ctstokes.geometry import LevelSetDomain, circle_domain, star_domain
from ctstokes.verify import ManufacturedCase, build_level, run_convergence

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

    return LevelSetDomain(phi, grad, (0.0, 0.0, 1.0, 1.0), "box")


def everywhere_inside_domain():
    """Constant negative level set: clipping keeps the whole background mesh."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return -np.ones(x.shape[:-1])

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape)

    return LevelSetDomain(phi, grad, (0.0, 0.0, 1.0, 1.0), "all")


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

    return LevelSetDomain(phi, grad, (0.0, 0.0, 1.0, 1.0), "annulus")


def ellipse_domain(center, axes, bounding_box=(0.0, 0.0, 1.0, 1.0), angle=0.0):
    """Ellipse with its axes turned by angle, as the algebraic level set
    phi = d^T Q d - 1 with d = x - center and Q = R diag(axes)^-2 R^T, which
    is not a distance."""
    c = np.asarray(center, dtype=float)
    cos, sin = np.cos(angle), np.sin(angle)
    R = np.array([[cos, -sin], [sin, cos]])
    Q = R @ np.diag(1.0 / np.asarray(axes, dtype=float) ** 2) @ R.T

    def phi(x):
        d = np.asarray(x, dtype=float) - c
        return np.einsum("...i,ij,...j->...", d, Q, d) - 1.0

    def grad(x):
        return 2.0 * (np.asarray(x, dtype=float) - c) @ Q

    return LevelSetDomain(phi, grad, bounding_box, "ellipse")


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

    return ManufacturedCase(nu=nu, u=u, grad_u=grad_u, p=phi, f=grad_phi)


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


def node_coords(ct):
    """Coordinates of the velocity nodes in layout order: the micro
    vertices, then the micro edge midpoints."""
    mid = 0.5 * (ct.vertices[ct.edges[:, 0]] + ct.vertices[ct.edges[:, 1]])
    return np.vstack([ct.vertices, mid])


@pytest.fixture(scope="session")
def star_n8(star):
    """A level shared by the whole session, so no test solves on it: the
    first solve on a level drops its blocks and caches a factor on it."""
    return build_level(star, 8, 40.0)


# the refinement studies of the paper case that several tests read: each
# (domain, sigma) is solved once per session, at these levels and at
# nu = 0.1 and 1e-5
STUDY_LEVELS = [16, 32, 64]
STUDY_DOMAINS = {"star": star_domain(),
                 "circle": circle_domain((0.45, 0.52), 0.35),
                 "ellipse": ellipse_domain((0.47, 0.53), (0.38, 0.24), angle=0.4)}
_TAYLOR_TRACE = assembly.taylor_trace


@dataclass
class Study:
    """What a refinement study keeps once its levels and factors are gone."""

    tables: dict              # nu -> RateTable over STUDY_LEVELS
    constraints: np.ndarray   # pressure mean, multiplier mean, flux per solve
    min_pivot: dict           # n -> min |U_ii| of the level's K_gamma factor
    lu_nnz: dict              # n -> lu.nnz of that factor


def _run_study(dom, sigma):
    """run_convergence with each solve measured as it ends: the constraint
    functionals of every solution, and the factor of each level after its
    first solve."""
    dom.validate()
    solve, constraints, functionals = verify.solve_on_level, [], {}
    min_pivot, lu_nnz = {}, {}

    def solve_and_measure(level, case):
        sol, report = solve(level, case)
        if level.n not in functionals:
            lu = level.system.factor.lu
            min_pivot[level.n] = np.abs(lu.U.diagonal()).min()
            lu_nnz[level.n] = lu.nnz
            functionals[level.n] = assemble_constraints(level.ct, level.layout, level.bqd)
        m_q, m_mu, c_n = functionals[level.n]
        constraints.append((m_q @ sol.p, m_mu @ sol.lam, c_n @ sol.u))
        return sol, report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "solve_on_level", solve_and_measure)
        tables = run_convergence(dom, STUDY_LEVELS, [0.1, 1e-5], sigma)
    return Study(tables, np.array(constraints), min_pivot, lu_nnz)


@pytest.fixture(scope="session")
def study():
    """study(name, sigma): the paper case's Study on STUDY_DOMAINS[name],
    computed at its first request.  A test that patches the Taylor trace
    fetches its study first: the cache computes none under a patched trace."""
    cache = {}

    def get(name, sigma):
        if (name, sigma) not in cache:
            if assembly.taylor_trace is not _TAYLOR_TRACE:
                raise RuntimeError("a study needs the Taylor trace as built")
            cache[name, sigma] = _run_study(STUDY_DOMAINS[name], sigma)
        return cache[name, sigma]

    return get
