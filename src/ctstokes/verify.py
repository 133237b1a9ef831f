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
from .mesh import (AssumptionReport, CtMesh, MeshError, build_type1_mesh,
                   check_assumption_a, clip_to_interior, clough_tocher)
from .solver import (N_BORDER, SolutionFields, SolverError, factorize,
                     solve_direct)

ERROR_QUAD_DEGREE = 8

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

    name: str
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
    if nu <= 0:
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

    return ManufacturedCase(name="quartic-pressure", nu=nu, u=u,
                            grad_u=grad_u, p=p, f=f)


def patch_case(nu: float) -> ManufacturedCase:
    """Quadratic divergence-free velocity with affine pressure.

    u = (3y^2, -3x^2) (the rotated gradient of x^3 + y^3) and
    p = 2x - 3y + 0.7.  The boundary correction operator is exact on
    quadratics, so the discrete solution must reproduce this case to solver
    precision on any admissible mesh.
    """
    if nu <= 0:
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

    return ManufacturedCase(name="quadratic-patch", nu=nu, u=u,
                            grad_u=grad_u, p=p, f=f)


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


def _divergence_at_vertices(ct: CtMesh, layout: DofLayout, u: np.ndarray) -> np.ndarray:
    """|div u_h| sampled at the three vertices of every micro triangle."""
    _, _, _, invT = element_maps(ct)
    coeffs = u[vector_dofs(layout.elem_nodes)]
    grad_ref = np.einsum("qna,mnc->mqca", _VERTEX_GRADS, coeffs)
    return np.abs(np.einsum("mca,mqca->mq", invT, grad_ref))


def multiplier_values_on_edges(layout: DofLayout, bqd: BoundaryQuadData,
                               lam: np.ndarray) -> np.ndarray:
    """Multiplier field at the boundary quadrature points, shape (B, Q)."""
    return np.einsum("qm,bm->bq", bqd.mu, lam[bqd.edge_mult])


def compute_errors(sol: SolutionFields, case: ManufacturedCase, ct: CtMesh,
                   layout: DofLayout, bqd: BoundaryQuadData,
                   n: int = 0, h: float = float("nan"), sigma: float = 0.0,
                   max_delta_ratio: float = float("nan")) -> ErrorReport:
    """Error norms of a discrete solution against the manufactured fields."""
    w = _ERROR_RULE.weights
    _, det, _, invT = element_maps(ct)
    pts = np.einsum("qk,mkc->mqc", _ERROR_P1, ct.vertices[ct.triangles])

    coeffs = sol.u[vector_dofs(layout.elem_nodes)]
    uh = np.einsum("qn,mnc->mqc", _ERROR_P2.vals, coeffs)
    guh = np.einsum("mda,mqca->mqcd", invT,
                    np.einsum("qna,mnc->mqca", _ERROR_P2.grads, coeffs))

    du = uh - np.asarray(case.u(pts))
    dgu = guh - np.asarray(case.grad_u(pts))
    l2_u = math.sqrt(float(np.einsum("q,m,mqc,mqc->", w, det, du, du)))
    h1_u = math.sqrt(float(np.einsum("q,m,mqcd,mqcd->", w, det, dgu, dgu)))

    area = 0.5 * float(det.sum())
    ph = np.einsum("qk,mk->mq", _ERROR_P1, sol.p.reshape(-1, 3))
    pex = np.asarray(case.p(pts))
    mean_h = float(np.einsum("q,m,mq->", w, det, ph)) / area
    mean_ex = float(np.einsum("q,m,mq->", w, det, pex)) / area
    dp = (ph - mean_h) - (pex - mean_ex)
    l2_p = math.sqrt(float(np.einsum("q,m,mq,mq->", w, det, dp, dp)))

    linf_div = float(_divergence_at_vertices(ct, layout, sol.u).max())

    # multiplier diagnostic: weighted boundary norm against the trace
    # interpolant of the exact pressure, both mean-adjusted
    mu_coeff = np.asarray(case.p(layout.mult_coords))
    bound_len = float(bqd.ds.sum())
    lam_h = sol.lam
    vals_mu = multiplier_values_on_edges(layout, bqd, mu_coeff)
    vals_lam = multiplier_values_on_edges(layout, bqd, lam_h)
    mean_mu = float(np.sum(bqd.ds * vals_mu)) / bound_len
    mean_lam = float(np.sum(bqd.ds * vals_lam)) / bound_len
    diff = (vals_lam - mean_lam) - (vals_mu - mean_mu)
    lam_diag = math.sqrt(float(np.sum(bqd.ds * bqd.lengths[:, None] * diff ** 2)))

    return ErrorReport(n=n, h=h, nu=case.nu,
                       sigma=sigma, dofs=layout.n_total, l2_u=l2_u, h1_u=h1_u,
                       l2_p=l2_p, linf_div=linf_div, lam_diag=lam_diag,
                       max_delta_ratio=max_delta_ratio, residual=sol.residual)


@dataclass
class LevelStructure:
    """Mesh-level data and the saddle system every viscosity shares."""

    n: int
    h: float                  # background grid spacing: larger box side / n
    ct: CtMesh
    layout: DofLayout
    bqd: BoundaryQuadData
    blocks: Optional[SystemBlocks]
    assumption: AssumptionReport
    sigma: float
    system: Optional[SaddleSystem] = None


def build_level(dom: LevelSetDomain, n: int, sigma: float) -> LevelStructure:
    """Build mesh, layout, boundary data and saddle blocks for one level.

    Raises:
        MeshError, ProjectionError: the level cannot resolve the domain;
            the message starts with n=<n>.
    """
    try:
        bg = build_type1_mesh(n, dom.bounding_box)
        macro = clip_to_interior(bg, dom)
        ct = clough_tocher(macro)
        layout = build_dof_layout(ct)
        bqd = build_boundary_data(ct, layout, dom)
        blocks = assemble_blocks(ct, layout, bqd, sigma)
        assumption = check_assumption_a(ct, dom, bqd.delta)
    except (MeshError, ProjectionError) as exc:
        raise type(exc)(f"n={n}: {exc}") from exc
    x0, y0, x1, y1 = dom.bounding_box
    return LevelStructure(n=n, h=max(x1 - x0, y1 - y0) / n, ct=ct, layout=layout,
                          bqd=bqd, blocks=blocks, assumption=assumption, sigma=sigma)


def level_system(level: LevelStructure) -> SaddleSystem:
    """The level's saddle system; the first call composes it and drops the
    blocks.  Composed in build_level, or kept next to the blocks, it
    fragmented the heap (peak RSS of a 50-circle sweep rose 10-30 %)."""
    if level.system is None:
        level.system = compose_system(level.blocks, level.layout)
        level.blocks = None
    return level.system


def solve_on_level(level: LevelStructure, case: ManufacturedCase):
    """Solve the case on the level (p, lambda, gamma scaled back by nu)."""
    rhs = assemble_rhs(case.f, case.u, level.ct, level.layout, level.bqd,
                       case.nu, level.sigma)
    sol = solve_direct(level_system(level), rhs)
    sol = replace(sol, p=case.nu * sol.p, lam=case.nu * sol.lam,
                  gamma=case.nu * sol.gamma)
    report = compute_errors(sol, case, level.ct, level.layout, level.bqd,
                            n=level.n, h=level.h, sigma=level.sigma,
                            max_delta_ratio=level.assumption.max_ratio)
    return sol, report


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


def run_convergence(dom: LevelSetDomain, levels: Sequence[int],
                    nus: Sequence[float], sigma: float,
                    case_factory: Callable[[float], ManufacturedCase] = paper_case,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> Dict[float, RateTable]:
    """Full refinement study: one RateTable per viscosity.

    Levels should be increasing (rates assume each step halves h).  The
    saddle matrix does not depend on the viscosity: each level's first solve
    factorizes it and every viscosity reuses that factor.

    Raises:
        MeshError, ProjectionError: as build_level.
        SolverError: a solve failed; the message starts with n=<n> nu=<nu>.
    """
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
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
                progress(f"n={n} nu={nu:g}: l2_u={report.l2_u:.4e} "
                         f"h1_u={report.h1_u:.4e} l2_p={report.l2_p:.4e} "
                         f"div={report.linf_div:.2e}")
    return tables


def write_json(path, tables: Dict[float, RateTable]) -> None:
    payload = {f"{nu:g}": table.as_dict() for nu, table in sorted(tables.items())}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


INFSUP_SHIFT = 1e-3  # s of the interior pair's shifted norm saddle system


def infsup_estimate(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
                    include_multiplier: bool = True) -> float:
    """Numeric inf-sup constant of the continuity pairing.

    Returns sqrt(mu) for the smallest eigenvalue mu of S y = mu Y y
    (Chapelle & Bathe's inf-sup test), where S = B X^{-1} B^T, X is the Gram
    matrix of the mesh-dependent H1 norm on the velocity and Y that of the
    natural product norm on the pressure (and multiplier).  Shift-invert
    Lanczos finds it; each step is one solve with a norm saddle system
    [[X, B^T], [B, sigma Y]] factored once.  The start vector is fixed, so
    repeated calls are bit-identical.

    With the multiplier, B stacks the divergence and uncorrected multiplier
    pairings and the norm system is composed and factored like the Stokes
    system, whose scalar border imposes zero flux on the velocity and zero
    means on pressure and multiplier.  With include_multiplier=False the
    velocity vanishes on the mesh boundary and only the pressure is kept:
    the plain Stokes-pair constant.  There sigma = -s, so the constant
    pressure, S's one kernel mode, is the eigenvalue nearest sigma and the
    next one is Y-orthogonal to it, i.e. of zero mean.  Reported as a
    diagnostic; no bound is asserted.
    """
    B_div, B_lam = asm.assemble_b(ct, layout, bqd)
    Mp = gram_pressure_mass(ct, layout)
    if include_multiplier:
        m_q, m_mu, c_n = asm.assemble_constraints(ct, layout, bqd)
        blocks = SystemBlocks(a=gram_h1_velocity(ct, layout, bqd), B_div=B_div,
                              B_lam=B_lam, B_lam_e=B_lam, m_q=m_q, m_mu=m_mu, c_n=c_n)
        lu = factorize(compose_system(blocks, layout).matrix)
        Y, sigma, k = sp.block_diag([Mp, gram_multiplier(layout, bqd)]), 0.0, 1
        head, tail = layout.n_u, N_BORDER
    else:
        boundary = ct.edge_counts == 1
        nodes = np.r_[ct.edges[boundary].ravel(), layout.n_mvert + np.flatnonzero(boundary)]
        keep = np.setdiff1d(np.arange(layout.n_u), np.r_[2 * nodes, 2 * nodes + 1])
        X = asm.assemble_stiffness(ct, layout)[keep][:, keep]
        B = B_div[:, keep]
        Y, sigma, k = Mp, -INFSUP_SHIFT, 2
        lu = spla.splu(sp.bmat([[X, B.T], [B, sigma * Y]], format="csc"))
        head, tail = keep.size, 0

    def solve(g):
        # the norm system's solution for the rhs [0; g] has y = -(S - sigma Y)^{-1} g
        x = lu.solve(np.concatenate([np.zeros(head), g, np.zeros(tail)]))
        return -x[head:head + g.size]

    m = Y.shape[0]
    opinv = spla.LinearOperator((m, m), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(m)
    # in shift-invert mode eigsh reads only the shape and dtype of its A
    mu = spla.eigsh(Y, k=k, M=Y, sigma=sigma, OPinv=opinv, v0=v0,
                    return_eigenvectors=False)
    return float(np.sqrt(max(mu.max(), 0.0)))
