"""Assembly of the sparse saddle-point system.

Unknowns are ordered (velocity, pressure, multiplier, alpha, beta, gamma).
The momentum equation pairs the velocity with the uncorrected continuity
form; the continuity equation tests the velocity through the boundary
correction operator, so the multiplier coupling blocks are not transposes of
each other.  The three scalar unknowns impose zero pressure mean, zero
multiplier mean, and zero velocity flux through the mesh boundary on the
full spaces, which is algebraically equivalent to working in the
constrained subspaces.

All boundary integrands are evaluated through the owning micro triangle's
polynomial extension: the correction operator applied to a quadratic adds
the exact first and second directional Taylor terms, so it reproduces the
value at the projected boundary point exactly on quadratics.

The viscosity multiplies only the velocity block, so the momentum rows are
divided by nu and the unknowns are u, p/nu, lambda/nu, alpha, beta and
gamma/nu: every viscosity shares the nu = 1 matrix and changes only the rhs.

The quadrature is fixed here.  Every element integral uses the conical
Gauss rule of degree VOLUME_DEGREE on each micro triangle; every boundary
integral uses the Gauss-Legendre rule EDGE_RULE on each boundary edge.
Every micro triangle is an affine image of the reference triangle, so each
volume element matrix is a reference integral, computed once at import,
scaled by the Jacobian determinant and contracted with the inverse map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fem import (DofLayout, edge_rule, element_maps, eval_p1, eval_p2,
                  physical_hessians, triangle_rule, vector_dofs)
from .geometry import LevelSetDomain, project_points
from .mesh import CtMesh

VOLUME_DEGREE = 6         # triangle_rule degree on each micro triangle
EDGE_RULE = edge_rule(6)  # 6-point Gauss-Legendre on each boundary edge

# VOLUME_DEGREE rule on the reference triangle: weights, P1 values, P2 values
# and P2 gradients at its points, and the reference integrals built from them
_RULE = triangle_rule(VOLUME_DEGREE)
_W = _RULE.weights
_P1 = eval_p1(_RULE.points).vals                                  # (Q, 3)
_P2 = eval_p2(_RULE.points)
_K_REF = np.einsum("q,qia,qjb->abij", _W, _P2.grads, _P2.grads)  # (2, 2, 6, 6)
_B_REF = np.einsum("q,qk,qia->kia", _W, _P1, _P2.grads)          # (3, 6, 2)
_MASS_P1_REF = np.einsum("q,qi,qj->ij", _W, _P1, _P1)             # (3, 3)
_MEAN_P1_REF = _W @ _P1                                           # (3,)


def edge_shape_values(t: np.ndarray) -> np.ndarray:
    """Quadratic Lagrange shapes on [0, 1] with nodes at 0, 1, 1/2."""
    t = np.asarray(t, dtype=float)
    return np.stack([(1.0 - t) * (1.0 - 2.0 * t),
                     t * (2.0 * t - 1.0),
                     4.0 * t * (1.0 - t)], axis=-1)


@dataclass
class BoundaryQuadData:
    """Per-edge, per-quadrature-point boundary data.

    Arrays are indexed (edge, point, ...).  sh holds the corrected traces of
    the owning element's six scalar basis functions, dn their outward normal
    derivatives, and mu the three multiplier shapes at the rule points.
    """

    normals: np.ndarray       # (B, 2)
    lengths: np.ndarray       # (B,)
    points: np.ndarray        # (B, Q, 2)
    ds: np.ndarray            # (B, Q) physical weights
    x_star: np.ndarray        # (B, Q, 2)
    delta: np.ndarray         # (B, Q)
    vals: np.ndarray          # (B, Q, 6)
    sh: np.ndarray            # (B, Q, 6)
    dn: np.ndarray            # (B, Q, 6)
    mu: np.ndarray            # (Q, 3)
    elem_nodes: np.ndarray    # (B, 6) velocity node ids
    edge_mult: np.ndarray     # (B, 3) multiplier dof ids


def taylor_trace(vals, grads, hess, delta, dirs):
    """Second-order directional Taylor trace of basis functions.

    vals (..., n), grads (..., n, 2), hess broadcastable to (..., n, 2, 2),
    delta (...,), dirs (..., 2); returns corrected values (..., n).
    """
    first = np.einsum("...nc,...c->...n", grads, dirs)
    second = np.einsum("...c,...ncd,...d->...n", dirs, hess, dirs)
    return vals + delta[..., None] * first + 0.5 * delta[..., None] ** 2 * second


def build_boundary_data(ct: CtMesh, layout: DofLayout,
                        dom: LevelSetDomain) -> BoundaryQuadData:
    """Project the EDGE_RULE points of every boundary edge and tabulate
    corrected traces."""
    rule = EDGE_RULE
    tris, normals, lengths = ct.boundary_tris, ct.boundary_normals, ct.boundary_lengths
    B, Q = len(tris), len(rule.points)
    a, b = ct.vertices[ct.boundary_edges.T]

    t = rule.points
    points = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    ds = lengths[:, None] * rule.weights[None, :]

    flat = points.reshape(-1, 2)
    x_star, delta, dirs = project_points(dom, flat)
    x_star = x_star.reshape(B, Q, 2)
    delta = delta.reshape(B, Q)
    dirs = dirs.reshape(B, Q, 2)

    _, _, inv, invT = element_maps(ct)
    invb, invTb = inv[tris], invT[tris]
    v0 = ct.vertices[ct.triangles[tris, 0]]
    ref = np.einsum("bij,bqj->bqi", invb, points - v0[:, None, :])
    basis = eval_p2(ref.reshape(-1, 2))
    vals = basis.vals.reshape(B, Q, 6)
    grads = np.einsum("bij,bqnj->bqni", invTb, basis.grads.reshape(B, Q, 6, 2))
    hess = physical_hessians(basis.hessians, invb, invTb)

    sh = taylor_trace(vals, grads, hess[:, None], delta, dirs)
    dn = np.einsum("bqnc,bc->bqn", grads, normals)
    mu = edge_shape_values(t)
    elem_nodes = layout.elem_nodes[tris]
    edge_mult = layout.edge_mult
    return BoundaryQuadData(normals=normals, lengths=lengths, points=points,
                            ds=ds, x_star=x_star, delta=delta, vals=vals,
                            sh=sh, dn=dn, mu=mu, elem_nodes=elem_nodes,
                            edge_mult=edge_mult)


def _triplets(rows, cols, blocks):
    """Flatten per-element blocks (E, *r, *c) with row ids (E, *r) and
    column ids (E, *c) into (rows, cols, data) triplets."""
    r = rows.reshape(rows.shape + (1,) * (cols.ndim - 1))
    c = cols.reshape(cols.shape[:1] + (1,) * (rows.ndim - 1) + cols.shape[1:])
    return (np.broadcast_to(r, blocks.shape).ravel(),
            np.broadcast_to(c, blocks.shape).ravel(), blocks.ravel())


def _velocity_triplets(nodes_rows, nodes_cols, blocks):
    """Scatter per-element (E, n, m) blocks into both velocity components."""
    x = _triplets(2 * nodes_rows, 2 * nodes_cols, blocks)
    y = _triplets(2 * nodes_rows + 1, 2 * nodes_cols + 1, blocks)
    return tuple(np.concatenate(pair) for pair in zip(x, y))


def _sparse(shape, *parts) -> sp.csr_matrix:
    """CSR matrix of the triplet lists, duplicates summed."""
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _pressure_dofs(ct: CtMesh) -> np.ndarray:
    """Pressure unknowns (M, 3) of every micro triangle."""
    return 3 * np.arange(ct.n_triangles)[:, None] + np.arange(3)


def _stiffness_triplets(ct, layout):
    _, det, inv, _ = element_maps(ct)
    metric = det[:, None, None] * np.einsum("mac,mbc->mab", inv, inv)
    Ke = np.einsum("mab,abij->mij", metric, _K_REF)  # test i, trial j
    return _velocity_triplets(layout.elem_nodes, layout.elem_nodes, Ke)


def assemble_stiffness(ct: CtMesh, layout: DofLayout) -> sp.csr_matrix:
    """Symmetric volume stiffness grad:grad on the velocity space."""
    return _sparse((layout.n_u, layout.n_u), _stiffness_triplets(ct, layout))


def assemble_a(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
               sigma: float) -> sp.csr_matrix:
    """Velocity bilinear form at unit viscosity: stiffness plus boundary terms.

    grad:grad  -  (du/dn, v)  +  (dv/dn, S u)  +  sum_e sigma/h_e (S u, S v),
    with the positive sign on the third term (non-symmetric variant).
    """
    # boundary terms, test index i, trial index j
    Tb = (-np.einsum("bq,bqi,bqj->bij", bqd.ds, bqd.vals, bqd.dn)
          + np.einsum("bq,bqi,bqj->bij", bqd.ds, bqd.dn, bqd.sh)
          + sigma * np.einsum("bq,b,bqi,bqj->bij", bqd.ds, 1.0 / bqd.lengths,
                              bqd.sh, bqd.sh))
    return _sparse((layout.n_u, layout.n_u), _stiffness_triplets(ct, layout),
                   _velocity_triplets(bqd.elem_nodes, bqd.elem_nodes, Tb))


def _multiplier_triplets(bqd, trace):
    """Triplets of (trace(u).n, mu): rows multiplier dofs, cols velocity dofs."""
    L = np.einsum("bq,qm,bqi,bc->bmic", bqd.ds, bqd.mu, trace, bqd.normals)
    return _triplets(bqd.edge_mult, vector_dofs(bqd.elem_nodes), L)


def assemble_b(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData):
    """Continuity pairing without boundary correction: (B_div, B_lam).

    B_div holds -(div u, q): rows pressure dofs, cols velocity dofs.
    """
    _, det, _, invT = element_maps(ct)
    Be = -np.einsum("m,mca,kia->mkic", det, invT, _B_REF)  # (M, 3, 6, 2)
    B_div = _sparse((layout.n_p, layout.n_u),
                    _triplets(_pressure_dofs(ct), vector_dofs(layout.elem_nodes), Be))
    B_lam = _sparse((layout.n_lam, layout.n_u), _multiplier_triplets(bqd, bqd.vals))
    return B_div, B_lam


def assemble_be(layout: DofLayout, bqd: BoundaryQuadData) -> sp.csr_matrix:
    """Multiplier pairing with the corrected velocity trace: B_lam_e.

    The divergence part of the corrected continuity pairing is B_div from
    assemble_b; only the multiplier rows see the boundary correction.
    """
    return _sparse((layout.n_lam, layout.n_u), _multiplier_triplets(bqd, bqd.sh))


def assemble_constraints(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData):
    """Scalar constraint functionals (m_q, m_mu, c_n).

    m_q[k] integrates the k-th pressure basis function over the domain,
    m_mu[k] the k-th multiplier shape over the boundary, and c_n[k] the
    normal trace of the k-th velocity basis function over the boundary.
    """
    _, det, _, _ = element_maps(ct)
    m_q = np.outer(det, _MEAN_P1_REF).ravel()

    m_mu = np.zeros(layout.n_lam)
    vals = np.einsum("bq,qm->bm", bqd.ds, bqd.mu)
    np.add.at(m_mu, bqd.edge_mult.ravel(), vals.ravel())

    c_n = np.zeros(layout.n_u)
    tn = np.einsum("bq,bqi,bc->bic", bqd.ds, bqd.vals, bqd.normals)
    np.add.at(c_n, vector_dofs(bqd.elem_nodes).ravel(), tn.ravel())
    return m_q, m_mu, c_n


def assemble_rhs(f: Callable, g: Optional[Callable], ct: CtMesh,
                 layout: DofLayout, bqd: BoundaryQuadData, nu: float,
                 sigma: float) -> np.ndarray:
    """Scaled right-hand side (load f/nu) for body force f and boundary data g.

    Boundary data is taken at the projected physical point, pairing with the
    corrected test traces so the scheme is exact for quadratic solutions.
    The multiplier block receives the normal flux of the transferred data.
    The flux constraint row keeps a zero right-hand side: it pairs the
    velocity with the discrete normal, so it equals the integral of div u_h
    over the mesh, and the pressure rows make div u_h the constant alpha; a
    nonzero entry there would become a constant divergence.
    """
    rhs = np.zeros(layout.n_total)

    _, det, _, _ = element_maps(ct)
    points = np.einsum("qk,mkc->mqc", _P1, ct.vertices[ct.triangles])
    fvals = np.asarray(f(points)) / nu
    fe = np.einsum("q,m,mqc,qi->mic", _W, det, fvals, _P2.vals)
    np.add.at(rhs, vector_dofs(layout.elem_nodes).ravel(), fe.ravel())

    if g is not None:
        gm = np.asarray(g(bqd.x_star))                     # (B, Q, 2)
        ge = (np.einsum("bq,bqi,bqc->bic", bqd.ds, bqd.dn, gm)
              + sigma * np.einsum("bq,b,bqi,bqc->bic", bqd.ds,
                                  1.0 / bqd.lengths, bqd.sh, gm))
        np.add.at(rhs, vector_dofs(bqd.elem_nodes).ravel(), ge.ravel())

        gn = np.einsum("bqc,bc->bq", gm, bqd.normals)
        gmu = np.einsum("bq,bq,qm->bm", bqd.ds, gn, bqd.mu)
        np.add.at(rhs, layout.offset_lam + bqd.edge_mult.ravel(), gmu.ravel())
    return rhs


@dataclass
class SaddleSystem:
    """Matrix of the scaled system; the first solve caches its factor."""

    matrix: sp.csr_matrix
    layout: DofLayout
    factor: object = None


@dataclass
class SystemBlocks:
    """Building blocks of the saddle matrix."""

    a: sp.csr_matrix
    B_div: sp.csr_matrix
    B_lam: sp.csr_matrix
    B_lam_e: sp.csr_matrix
    m_q: np.ndarray
    m_mu: np.ndarray
    c_n: np.ndarray


def assemble_blocks(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
                    sigma: float) -> SystemBlocks:
    """Assemble every block of the saddle matrix."""
    a = assemble_a(ct, layout, bqd, sigma)
    B_div, B_lam = assemble_b(ct, layout, bqd)
    B_lam_e = assemble_be(layout, bqd)
    m_q, m_mu, c_n = assemble_constraints(ct, layout, bqd)
    return SystemBlocks(a=a, B_div=B_div, B_lam=B_lam, B_lam_e=B_lam_e,
                        m_q=m_q, m_mu=m_mu, c_n=c_n)


def compose_system(blocks: SystemBlocks, layout: DofLayout) -> SaddleSystem:
    """Glue the blocks into the full square matrix of the scaled system."""
    m_q = sp.csr_matrix(blocks.m_q[:, None])
    m_mu = sp.csr_matrix(blocks.m_mu[:, None])
    c_n = sp.csr_matrix(blocks.c_n[:, None])
    A = sp.bmat([
        [blocks.a, blocks.B_div.T, blocks.B_lam.T, None, None, c_n],
        [blocks.B_div, None, None, m_q, None, None],
        [blocks.B_lam_e, None, None, None, m_mu, None],
        [None, m_q.T, None, None, None, None],
        [None, None, m_mu.T, None, None, None],
        [c_n.T, None, None, None, None, None],
    ], format="csr")
    return SaddleSystem(matrix=A, layout=layout)


# ---------------------------------------------------------------------------
# norm Gram matrices and direct norm evaluation (diagnostics and cross-checks)

def gram_h1_velocity(ct: CtMesh, layout: DofLayout,
                     bqd: BoundaryQuadData) -> sp.csr_matrix:
    """Gram matrix of the mesh-dependent H1 norm on the velocity space:
    grad L2 squared plus edge L2 terms weighted by 1/h_e."""
    K = assemble_stiffness(ct, layout)
    Me = np.einsum("bq,b,bqi,bqj->bij", bqd.ds, 1.0 / bqd.lengths,
                   bqd.vals, bqd.vals)
    M = _sparse((layout.n_u, layout.n_u),
                _velocity_triplets(bqd.elem_nodes, bqd.elem_nodes, Me))
    return (K + M).tocsr()


def gram_pressure_mass(ct: CtMesh, layout: DofLayout) -> sp.csr_matrix:
    """L2 mass matrix of the discontinuous pressure space."""
    _, det, _, _ = element_maps(ct)
    Me = det[:, None, None] * _MASS_P1_REF
    dofs = _pressure_dofs(ct)
    return _sparse((layout.n_p, layout.n_p), _triplets(dofs, dofs, Me))


def gram_multiplier(layout: DofLayout, bqd: BoundaryQuadData) -> sp.csr_matrix:
    """Gram matrix of the weighted boundary norm on the multiplier space:
    sum over edges of h_e times the edge L2 inner product."""
    Me = np.einsum("bq,b,qi,qj->bij", bqd.ds, bqd.lengths, bqd.mu, bqd.mu)
    return _sparse((layout.n_lam, layout.n_lam),
                   _triplets(bqd.edge_mult, bqd.edge_mult, Me))


def norm_h1_direct(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
                   u: np.ndarray) -> float:
    """Mesh-dependent H1 norm evaluated by quadrature on the fields themselves."""
    _, det, _, invT = element_maps(ct)
    gu_ref = np.einsum("qna,mnc->mqca", _P2.grads, u[vector_dofs(layout.elem_nodes)])
    gu = np.einsum("mda,mqca->mqcd", invT, gu_ref)
    total = float(np.einsum("q,m,mqcd,mqcd->", _W, det, gu, gu))
    ub = np.einsum("bqn,bnc->bqc", bqd.vals, u[vector_dofs(bqd.elem_nodes)])
    total += float(np.einsum("bq,b,bqc,bqc->", bqd.ds, 1.0 / bqd.lengths, ub, ub))
    return np.sqrt(total)
