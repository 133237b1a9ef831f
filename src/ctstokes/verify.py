"""Manufactured solutions, error norms, and convergence studies.

Errors are measured over the computational domain: L2 and H1-seminorm
velocity errors, the L2 pressure error after subtracting each field's mean,
the max-norm of the discrete divergence (sampled at micro-triangle vertices,
where the per-element linear divergence attains its extremes), and a
weighted boundary-norm diagnostic comparing the multiplier with the
mean-adjusted trace interpolant of the exact pressure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly as asm
from .assembly import (BoundaryQuadData, SaddleSystem, SystemBlocks,
                       assemble_blocks, assemble_rhs, build_boundary_data,
                       compose_system, gram_h1_velocity, gram_multiplier,
                       gram_pressure_mass)
from .fem import (DofLayout, build_dof_layout, element_maps, eval_p1, eval_p2,
                  triangle_rule, vector_dofs)
from .geometry import LevelSetDomain, ProjectionError
from .mesh import (CtMesh, MeshError, build_type1_mesh, check_assumption_a,
                   clip_to_interior, clough_tocher)
from .solver import (N_BORDER, SolutionFields, SolverError, factorize,
                     solve_direct)

ERROR_QUAD_DEGREE = 8
# micro triangles per block of the velocity errors.  A power of two: a BLAS
# gemv kernel sums each row in an order set by its place in a group of a few
# rows, so blocks that start at multiples of a power of two leave every
# element's integral bitwise equal to the one over the whole mesh
ERROR_BLOCK = 1024

# the error rule on the reference triangle: weights, P1 values and the P2
# basis at its points; and the P2 gradients at the reference vertices
_ERROR_RULE = triangle_rule(ERROR_QUAD_DEGREE)
_ERROR_P1 = eval_p1(_ERROR_RULE.points).vals
_ERROR_P2 = eval_p2(_ERROR_RULE.points)
_VERTEX_GRADS = eval_p2([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).grads


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form Stokes solution with derived data.

    u maps (..., 2) points to velocities (..., 2); grad_u to (..., 2, 2)
    arrays of du_i/dx_j; p to scalars; f = -nu*lap(u) + grad(p).  The
    velocity must be divergence free.
    """

    nu: float
    u: Callable
    grad_u: Callable
    p: Callable
    f: Callable


def paper_case(nu: float) -> ManufacturedCase:
    """Quartic-pressure test solution on the unit square.

    u = (2*psi*(2y - 1), -2*psi*(2x - 1)) with psi = (x-1/2)^2 + (y-1/2)^2 - 1/4,
    p = 10*(x^2 - y^2)^2; the velocity is the rotated gradient of psi^2 and
    does not vanish on the physical boundary, so the non-homogeneous
    transfer path is exercised.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")

    def psi(x, y):
        return x * x - x + 0.25 + y * y - y

    def u(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        ps = psi(x, y)
        return np.stack([2.0 * ps * (2.0 * y - 1.0),
                         -2.0 * ps * (2.0 * x - 1.0)], axis=-1)

    def grad_u(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        ps = psi(x, y)
        g = np.empty(pts.shape[:-1] + (2, 2))
        g[..., 0, 0] = 2.0 * (2.0 * x - 1.0) * (2.0 * y - 1.0)
        g[..., 0, 1] = 2.0 * (2.0 * y - 1.0) ** 2 + 4.0 * ps
        g[..., 1, 0] = -2.0 * (2.0 * x - 1.0) ** 2 - 4.0 * ps
        g[..., 1, 1] = -2.0 * (2.0 * y - 1.0) * (2.0 * x - 1.0)
        return g

    def p(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return 10.0 * (x * x - y * y) ** 2

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        lap1 = 16.0 * (2.0 * y - 1.0)
        lap2 = -16.0 * (2.0 * x - 1.0)
        px = 40.0 * x * (x * x - y * y)
        py = -40.0 * y * (x * x - y * y)
        return np.stack([-nu * lap1 + px, -nu * lap2 + py], axis=-1)

    return ManufacturedCase(nu=nu, u=u, grad_u=grad_u, p=p, f=f)


def patch_case(nu: float) -> ManufacturedCase:
    """Quadratic divergence-free velocity with affine pressure.

    u = (3y^2, -3x^2) (the rotated gradient of x^3 + y^3) and
    p = 2x - 3y + 0.7.  The boundary correction operator is exact on
    quadratics, so the discrete solution must reproduce this case to solver
    precision on any admissible mesh.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")

    def u(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([3.0 * y * y, -3.0 * x * x], axis=-1)

    def grad_u(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        g = np.zeros(pts.shape[:-1] + (2, 2))
        g[..., 0, 1] = 6.0 * y
        g[..., 1, 0] = -6.0 * x
        return g

    def p(pts):
        pts = np.asarray(pts, dtype=float)
        return 2.0 * pts[..., 0] - 3.0 * pts[..., 1] + 0.7

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., 0] = -6.0 * nu + 2.0
        out[..., 1] = 6.0 * nu - 3.0
        return out

    return ManufacturedCase(nu=nu, u=u, grad_u=grad_u, p=p, f=f)


@dataclass
class ErrorReport:
    """Computed error norms and run diagnostics for a single solve."""

    n: int
    h: float
    nu: float
    sigma: float
    dofs: int
    l2_u: float
    h1_u: float
    l2_p: float
    linf_div: float
    lam_diag: float
    max_delta_ratio: float
    residual: float

    def as_dict(self) -> dict:
        return asdict(self)


def _reference_gradients(grads: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """du_c/dxi_a, (M, Q, 2, 2) indexed [m, q, a, c], from the reference
    gradients (Q, 6, 2) and the (M, 6, 2) element coefficients: one matmul
    with the gradients as a (2Q, 6) table."""
    table = grads.transpose(0, 2, 1).reshape(-1, 6)
    return (table @ coeffs).reshape(len(coeffs), -1, 2, 2)


def _divergence_at_vertices(ct: CtMesh, layout: DofLayout, u: np.ndarray) -> np.ndarray:
    """|div u_h| sampled at the three vertices of every micro triangle."""
    _, inv, _ = element_maps(ct)
    grad_ref = _reference_gradients(_VERTEX_GRADS, u[vector_dofs(layout.elem_nodes)])
    # div u = sum over a, c of inv[a, c] du_c/dxi_a
    M = len(inv)
    return np.abs(grad_ref.reshape(M, -1, 4) @ inv.reshape(M, 4, 1))[..., 0]


def _element_integrals(vals: np.ndarray) -> np.ndarray:
    """Per-element integrals over the reference triangle of vals (M, Q, ...)
    at the error rule points, summed over its trailing components; times
    det, they are integrals over the micro triangles."""
    flat = vals.reshape(len(vals), -1)
    return flat @ np.repeat(_ERROR_RULE.weights, flat.shape[1] // len(_ERROR_RULE.weights))


def _integrate(det: np.ndarray, vals: np.ndarray) -> float:
    """Integral over the mesh of vals (M, Q, ...) at the error rule points,
    summed over its trailing components."""
    return float(det @ _element_integrals(vals))


def _velocity_error_integrals(case: ManufacturedCase, coeffs: np.ndarray,
                              pts: np.ndarray, inv: np.ndarray):
    """Reference-element integrals of |u - u_h|^2 and |grad(u - u_h)|^2, two
    (M,) arrays, from the (M, 6, 2) element coefficients.  Taken ERROR_BLOCK
    elements at a time, so that the (block, Q, 2, 2) temporaries stay small."""
    e_u, e_gu = np.empty(len(inv)), np.empty(len(inv))
    for lo in range(0, len(inv), ERROR_BLOCK):
        blk = slice(lo, lo + ERROR_BLOCK)
        c = coeffs[blk]
        du = _ERROR_P2.vals @ c - np.asarray(case.u(pts[blk]))
        e_u[blk] = _element_integrals(du * du)
        # the J^-T push, du_c/dx_d = sum over a of du_c/dxi_a inv[a, d], as
        # one (2Q, 2) @ (2, 2) product per element
        grad_ref = _reference_gradients(_ERROR_P2.grads, c)
        guh = (np.swapaxes(grad_ref, -1, -2).reshape(len(c), -1, 2)
               @ inv[blk]).reshape(grad_ref.shape)
        dgu = guh - np.asarray(case.grad_u(pts[blk]))
        e_gu[blk] = _element_integrals(dgu * dgu)
    return e_u, e_gu


def multiplier_values_on_edges(bqd: BoundaryQuadData, lam: np.ndarray) -> np.ndarray:
    """Multiplier field at the boundary quadrature points, shape (B, Q)."""
    return lam[bqd.edge_mult] @ asm.EDGE_MU.T


@np.errstate(over="ignore", invalid="ignore")     # the norms are checked below
def compute_errors(sol: SolutionFields, case: ManufacturedCase,
                   level: LevelStructure) -> ErrorReport:
    """Error norms of a discrete solution on the level against the
    manufactured fields, reported with the level's n, h, sigma and max
    delta/h ratio.

    Raises:
        FloatingPointError: an error norm overflows.
    """
    ct, layout, bqd = level.ct, level.layout, level.bqd
    det, inv, _ = element_maps(ct)
    pts = _ERROR_P1 @ ct.vertices[ct.triangles]

    coeffs = sol.u[vector_dofs(layout.elem_nodes)]
    e_u, e_gu = _velocity_error_integrals(case, coeffs, pts, inv)
    l2_u = math.sqrt(float(det @ e_u))
    h1_u = math.sqrt(float(det @ e_gu))

    area = 0.5 * float(det.sum())
    ph = sol.p.reshape(-1, 3) @ _ERROR_P1.T
    pex = np.asarray(case.p(pts))
    mean_h = _integrate(det, ph) / area
    mean_ex = _integrate(det, pex) / area
    dp = (ph - mean_h) - (pex - mean_ex)
    l2_p = math.sqrt(_integrate(det, dp * dp))

    linf_div = float(_divergence_at_vertices(ct, layout, sol.u).max())

    # multiplier diagnostic: weighted boundary norm against the trace
    # interpolant of the exact pressure, both mean-adjusted
    mu_coeff = np.asarray(case.p(layout.mult_coords))
    bound_len = float(bqd.ds.sum())
    lam_h = sol.lam
    vals_mu = multiplier_values_on_edges(bqd, mu_coeff)
    vals_lam = multiplier_values_on_edges(bqd, lam_h)
    mean_mu = float(np.sum(bqd.ds * vals_mu)) / bound_len
    mean_lam = float(np.sum(bqd.ds * vals_lam)) / bound_len
    diff = (vals_lam - mean_lam) - (vals_mu - mean_mu)
    lam_diag = math.sqrt(float(np.sum(bqd.ds * bqd.lengths[:, None] * diff ** 2)))
    if not np.isfinite([l2_u, h1_u, l2_p, linf_div, lam_diag]).all():
        raise FloatingPointError("the error norms are not finite at "
                                 f"nu={case.nu:g}, sigma={level.sigma:g}")

    return ErrorReport(n=level.n, h=level.h, nu=case.nu, sigma=level.sigma,
                       dofs=layout.n_total, l2_u=l2_u, h1_u=h1_u, l2_p=l2_p,
                       linf_div=linf_div, lam_diag=lam_diag,
                       max_delta_ratio=float(level.delta_ratios.max()),
                       residual=sol.residual)


@dataclass
class LevelStructure:
    """Mesh-level data and the saddle system every viscosity shares."""

    n: int
    h: float                  # background grid spacing: larger box side / n
    ct: CtMesh
    layout: DofLayout
    bqd: BoundaryQuadData
    blocks: Optional[SystemBlocks]
    delta_ratios: np.ndarray  # per boundary edge, as check_assumption_a
    sigma: float
    system: Optional[SaddleSystem] = None


def build_level(dom: LevelSetDomain, n: int, sigma: float) -> LevelStructure:
    """Build mesh, layout, boundary data and saddle blocks for one level.

    Raises:
        MeshError, ProjectionError: the level cannot resolve the domain;
            the message starts with n=<n>.
        SolverError: the boundary penalty sigma/h_e overflows.
    """
    try:
        bg = build_type1_mesh(n, dom.bounding_box)
        macro = clip_to_interior(bg, dom)
        ct = clough_tocher(macro)
        layout = build_dof_layout(ct)
        bqd = build_boundary_data(ct, layout, dom)
        blocks = assemble_blocks(ct, layout, bqd, sigma)
        delta_ratios = check_assumption_a(ct, dom, bqd.delta)
    except (MeshError, ProjectionError) as exc:
        raise type(exc)(f"n={n}: {exc}") from exc
    except FloatingPointError as exc:
        raise SolverError(f"n={n}: {exc}") from exc
    x0, y0, x1, y1 = dom.bounding_box
    return LevelStructure(n=n, h=max(x1 - x0, y1 - y0) / n, ct=ct, layout=layout,
                          bqd=bqd, blocks=blocks, delta_ratios=delta_ratios,
                          sigma=sigma)


def level_system(level: LevelStructure) -> SaddleSystem:
    """The level's saddle system; the first call composes it and drops the
    blocks.

    Peak RSS follows the heap's high-water mark, which the allocator keeps,
    so it depends on which arrays are alive together.  Four allocation rules
    keep it down; without each, peak RSS of the star study at n = 8-64 or
    of a 50-circle sweep at n = 16 (one patch solve each) rose by: the
    velocity errors taken ERROR_BLOCK elements at a time, 25 MB on the
    study; the factorization freeing each condensation temporary as soon
    as it is used up, 15 MB on the study; the system composed here rather
    than in build_level, 11 MB on the sweep, because callers keep the
    previous level and its factor bound while they build the next; the
    Schur complement formed SCHUR_ROWS rows at a time, 3 MB on the study."""
    if level.system is None:
        level.system = compose_system(level.blocks, level.layout)
        level.blocks = None
    return level.system


def solve_on_level(level: LevelStructure, case: ManufacturedCase):
    """Solve the case on the level (p, lambda, gamma scaled back by nu).

    Raises:
        SolverError: the load or an error norm overflows, or as
            solve_direct.
    """
    try:
        rhs = assemble_rhs(case.f, case.u, level.ct, level.layout, level.bqd,
                           case.nu, level.sigma)
        sol = solve_direct(level_system(level), rhs)
        sol = replace(sol, p=case.nu * sol.p, lam=case.nu * sol.lam,
                      gamma=case.nu * sol.gamma)
        return sol, compute_errors(sol, case, level)
    except FloatingPointError as exc:
        raise SolverError(str(exc)) from exc


ERROR_COLUMNS = ("l2_u", "h1_u", "l2_p", "linf_div")


@dataclass
class RateTable:
    """Error reports over a refinement sequence with observed rates.

    Rates are log2 ratios of consecutive errors and are only meaningful for
    levels that halve the mesh size.
    """

    nu: float
    sigma: float
    domain: str
    reports: List[ErrorReport] = field(default_factory=list)

    def rates(self) -> Dict[str, List[float]]:
        out = {}
        for col in ERROR_COLUMNS:
            vals = [getattr(r, col) for r in self.reports]
            out[col] = [math.log2(vals[i] / vals[i + 1])
                        if vals[i] > 0 and vals[i + 1] > 0 else float("nan")
                        for i in range(len(vals) - 1)]
        return out

    def write_csv(self, path) -> None:
        rates = self.rates()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "h", "dofs", "l2_u", "h1_u", "l2_p",
                             "linf_div", "max_delta_ratio",
                             "rate_l2_u", "rate_h1_u", "rate_l2_p"])
            for i, r in enumerate(self.reports):
                row = [r.n, f"{r.h:.17g}", r.dofs]
                row += [f"{getattr(r, c):.12e}" for c in
                        ("l2_u", "h1_u", "l2_p", "linf_div", "max_delta_ratio")]
                for col in ("l2_u", "h1_u", "l2_p"):
                    row.append(f"{rates[col][i - 1]:.4f}" if i > 0 else "")
                writer.writerow(row)

    def as_dict(self) -> dict:
        return {"nu": self.nu, "sigma": self.sigma, "domain": self.domain,
                "runs": [r.as_dict() for r in self.reports],
                "rates": self.rates()}


class StudyError(ValueError):
    """Levels or viscosities that make no refinement study."""


def run_convergence(dom: LevelSetDomain, levels: Sequence[int],
                    nus: Sequence[float], sigma: float,
                    case_factory: Callable[[float], ManufacturedCase] = paper_case,
                    progress: Optional[Callable[[ErrorReport], None]] = None
                    ) -> Dict[float, RateTable]:
    """Full refinement study: one RateTable per viscosity.

    Levels should be increasing (rates assume each step halves h).  The
    saddle matrix does not depend on the viscosity: each level's first solve
    factorizes it and every viscosity reuses that factor.  progress, if
    given, receives each ErrorReport as its solve ends.

    Raises:
        StudyError: levels not strictly increasing, or a viscosity repeated.
        MeshError, ProjectionError: as build_level.
        SolverError: a solve failed; the message starts with n=<n> nu=<nu>.
    """
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise StudyError("levels must be strictly increasing")
    if len(set(nus)) < len(nus):
        raise StudyError("viscosities must be distinct")
    tables = {nu: RateTable(nu=nu, sigma=sigma, domain=dom.name) for nu in nus}
    for n in levels:
        level = build_level(dom, n, sigma)
        for nu in nus:
            try:
                _, report = solve_on_level(level, case_factory(nu))
            except SolverError as exc:
                raise SolverError(f"n={n} nu={nu:g}: {exc}") from exc
            tables[nu].reports.append(report)
            if progress is not None:
                progress(report)
    return tables


def write_json(path, payload) -> None:
    """Write payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def infsup_estimate(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData) -> float:
    """Numeric inf-sup constant of the continuity pairing with the multiplier.

    Returns sqrt(mu) for the smallest eigenvalue mu of S y = mu Y y
    (Chapelle & Bathe's inf-sup test), where S = B X^{-1} B^T, X is the Gram
    matrix of the mesh-dependent H1 norm on the velocity, Y that of the
    natural product norm on pressure and multiplier, and B stacks the
    divergence and uncorrected multiplier pairings.  Shift-invert Lanczos
    finds it; each step solves the norm saddle system [[X, B^T], [B, 0]],
    composed and factorized like the Stokes system, whose scalar border
    imposes zero flux on the velocity and zero means on pressure and
    multiplier.  X is the bubbles' stiffness on their macro, so
    the factorization condenses them as it does for the Stokes system.  The
    start vector is fixed, so repeated calls are bit-identical.  Reported
    as a diagnostic; no bound is asserted.
    """
    B_div, B_lam = asm.assemble_b(ct, layout, bqd)
    m_q, m_mu, c_n = asm.assemble_constraints(ct, layout, bqd)
    blocks = SystemBlocks(a=gram_h1_velocity(ct, layout, bqd), B_div=B_div,
                          B_lam=B_lam, B_lam_e=B_lam, m_q=m_q, m_mu=m_mu, c_n=c_n)
    A = compose_system(blocks, layout).matrix
    lu = factorize(A, layout)
    Y = sp.block_diag([gram_pressure_mass(ct, layout), gram_multiplier(layout, bqd)])

    def solve(g):
        # the norm system's solution for the rhs [0; g] has y = -S^{-1} g.
        # One solve leaves a residual of about 1e-6 and one refinement step
        # against A about 1e-12: beta is then within 1e-13 at star n = 64
        b = np.concatenate([np.zeros(layout.n_u), g, np.zeros(N_BORDER)])
        x = lu.solve(b)
        x += lu.solve(b - A @ x)
        return -x[layout.n_u:layout.n_u + g.size]

    m = Y.shape[0]
    opinv = spla.LinearOperator((m, m), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(m)
    # in shift-invert mode eigsh reads only the shape and dtype of its A.
    # The solves hold beta to about 1e-13, so Ritz residuals below 1e-10
    # are not asked for: 61 solves instead of 81 at star n = 64
    mu = spla.eigsh(Y, k=1, M=Y, sigma=0.0, OPinv=opinv, v0=v0, tol=1e-10,
                    return_eigenvectors=False)
    return float(np.sqrt(max(mu.max(), 0.0)))
