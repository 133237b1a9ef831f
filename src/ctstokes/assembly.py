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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fem import (DofLayout, QuadratureRule, edge_rule, element_maps, eval_p1,
                  eval_p2, physical_gradients, physical_hessians, triangle_rule)
from .geometry import LevelSetDomain, project_points
from .mesh import CtMesh

DEFAULT_VOLUME_DEGREE = 6
DEFAULT_EDGE_POINTS = 6


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
    grads: np.ndarray         # (B, Q, 6, 2)
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


def build_boundary_data(ct: CtMesh, layout: DofLayout, dom: LevelSetDomain,
                        rule: Optional[QuadratureRule] = None) -> BoundaryQuadData:
    """Project boundary quadrature points and tabulate corrected traces."""
    if rule is None:
        rule = edge_rule(DEFAULT_EDGE_POINTS)
    edges = ct.boundary_edges
    if not edges:
        raise ValueError("mesh has no boundary edges")
    B, Q = len(edges), len(rule.points)
    a = ct.vertices[[e.a for e in edges]]
    b = ct.vertices[[e.b for e in edges]]
    tris = np.array([e.tri for e in edges], dtype=np.int64)
    normals = np.array([e.normal for e in edges])
    lengths = np.array([e.length for e in edges])

    t = rule.points
    points = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    ds = lengths[:, None] * rule.weights[None, :]

    flat = points.reshape(-1, 2)
    x_star, delta, dirs = project_points(dom, flat)
    x_star = x_star.reshape(B, Q, 2)
    delta = delta.reshape(B, Q)
    dirs = dirs.reshape(B, Q, 2)
    degenerate = delta == 0.0
    if np.any(degenerate):
        dirs[degenerate] = np.broadcast_to(normals[:, None, :], dirs.shape)[degenerate]

    J, det, inv, invT = element_maps(ct)
    Jb, invb, invTb = J[tris], inv[tris], invT[tris]
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
                            grads=grads, sh=sh, dn=dn, mu=mu,
                            elem_nodes=elem_nodes, edge_mult=edge_mult)


def _velocity_block_triplets(nodes_rows, nodes_cols, blocks):
    """Scatter per-element (E, n, m) blocks into both velocity components."""
    E, n, m = blocks.shape
    r = (2 * nodes_rows)[:, :, None] + np.zeros((1, 1, m), dtype=np.int64)
    c = (2 * nodes_cols)[:, None, :] + np.zeros((1, n, 1), dtype=np.int64)
    rows = np.concatenate([r.ravel(), (r + 1).ravel()])
    cols = np.concatenate([c.ravel(), (c + 1).ravel()])
    data = np.concatenate([blocks.ravel(), blocks.ravel()])
    return rows, cols, data


def assemble_a(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
               sigma: float,
               vol_rule: Optional[QuadratureRule] = None,
               include_boundary: bool = True) -> sp.csr_matrix:
    """Velocity bilinear form at unit viscosity: stiffness plus boundary terms.

    grad:grad  -  (du/dn, v)  +  (dv/dn, S u)  +  sum_e sigma/h_e (S u, S v),
    with the positive sign on the third term (non-symmetric variant).
    include_boundary=False keeps only the symmetric volume stiffness
    (diagnostic use).
    """
    if vol_rule is None:
        vol_rule = triangle_rule(DEFAULT_VOLUME_DEGREE)
    J, det, inv, invT = element_maps(ct)
    basis = eval_p2(vol_rule.points)
    G = physical_gradients(basis.grads, invT)            # (M, Q, 6, 2)
    w = vol_rule.weights
    Ke = np.einsum("q,m,mqic,mqjc->mij", w, det, G, G)   # test i, trial j
    rows, cols, data = _velocity_block_triplets(layout.elem_nodes,
                                                layout.elem_nodes, Ke)
    parts = [(rows, cols, data)]

    if include_boundary:
        # boundary terms, test index i, trial index j
        Tb = (-np.einsum("bq,bqi,bqj->bij", bqd.ds, bqd.vals, bqd.dn)
              + np.einsum("bq,bqi,bqj->bij", bqd.ds, bqd.dn, bqd.sh)
              + sigma * np.einsum("bq,b,bqi,bqj->bij", bqd.ds, 1.0 / bqd.lengths,
                                  bqd.sh, bqd.sh))
        parts.append(_velocity_block_triplets(bqd.elem_nodes, bqd.elem_nodes, Tb))

    rows = np.concatenate([p[0] for p in parts])
    cols = np.concatenate([p[1] for p in parts])
    data = np.concatenate([p[2] for p in parts])
    A = sp.coo_matrix((data, (rows, cols)),
                      shape=(layout.n_u, layout.n_u)).tocsr()
    A.sum_duplicates()
    return A


def _divergence_triplets(ct, layout, vol_rule):
    """Triplets of -(div u, q): rows pressure dofs, cols velocity dofs."""
    J, det, inv, invT = element_maps(ct)
    p2 = eval_p2(vol_rule.points)
    p1 = eval_p1(vol_rule.points)
    G = physical_gradients(p2.grads, invT)
    w = vol_rule.weights
    Be = -np.einsum("q,m,qj,mqic->mjic", w, det, p1.vals, G)  # (M, 3, 6, 2)
    M = ct.n_triangles
    prow = (3 * np.arange(M, dtype=np.int64))[:, None, None, None] \
        + np.arange(3, dtype=np.int64)[None, :, None, None] \
        + np.zeros((1, 1, 6, 2), dtype=np.int64)
    ucol = (2 * layout.elem_nodes)[:, None, :, None] \
        + np.arange(2, dtype=np.int64)[None, None, None, :] \
        + np.zeros((1, 3, 1, 1), dtype=np.int64)
    return prow.ravel(), ucol.ravel(), Be.ravel()


def _multiplier_triplets(layout, bqd, trace):
    """Triplets of (trace(u).n, mu): rows multiplier dofs, cols velocity dofs."""
    L = np.einsum("bq,qm,bqi,bc->bmic", bqd.ds, bqd.mu, trace, bqd.normals)
    mrow = bqd.edge_mult[:, :, None, None] + np.zeros((1, 1, 6, 2), dtype=np.int64)
    ucol = (2 * bqd.elem_nodes)[:, None, :, None] \
        + np.arange(2, dtype=np.int64)[None, None, None, :] \
        + np.zeros((1, 3, 1, 1), dtype=np.int64)
    return mrow.ravel(), ucol.ravel(), L.ravel()


def assemble_b(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
               vol_rule: Optional[QuadratureRule] = None):
    """Continuity pairing without boundary correction: (B_div, B_lam)."""
    if vol_rule is None:
        vol_rule = triangle_rule(DEFAULT_VOLUME_DEGREE)
    r, c, d = _divergence_triplets(ct, layout, vol_rule)
    B_div = sp.coo_matrix((d, (r, c)), shape=(layout.n_p, layout.n_u)).tocsr()
    r, c, d = _multiplier_triplets(layout, bqd, bqd.vals)
    B_lam = sp.coo_matrix((d, (r, c)), shape=(layout.n_lam, layout.n_u)).tocsr()
    return B_div, B_lam


def assemble_be(layout: DofLayout, bqd: BoundaryQuadData) -> sp.csr_matrix:
    """Multiplier pairing with the corrected velocity trace: B_lam_e.

    The divergence part of the corrected continuity pairing is B_div from
    assemble_b; only the multiplier rows see the boundary correction.
    """
    r, c, d = _multiplier_triplets(layout, bqd, bqd.sh)
    return sp.coo_matrix((d, (r, c)), shape=(layout.n_lam, layout.n_u)).tocsr()


def assemble_constraints(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
                         vol_rule: Optional[QuadratureRule] = None):
    """Scalar constraint functionals (m_q, m_mu, c_n).

    m_q[k] integrates the k-th pressure basis function over the domain,
    m_mu[k] the k-th multiplier shape over the boundary, and c_n[k] the
    normal trace of the k-th velocity basis function over the boundary.
    """
    if vol_rule is None:
        vol_rule = triangle_rule(DEFAULT_VOLUME_DEGREE)
    _, det, _, _ = element_maps(ct)
    p1 = eval_p1(vol_rule.points)
    m_q = np.einsum("q,m,qj->mj", vol_rule.weights, det, p1.vals).ravel()

    m_mu = np.zeros(layout.n_lam)
    vals = np.einsum("bq,qm->bm", bqd.ds, bqd.mu)
    np.add.at(m_mu, bqd.edge_mult.ravel(), vals.ravel())

    c_n = np.zeros(layout.n_u)
    tn = np.einsum("bq,bqi,bc->bic", bqd.ds, bqd.vals, bqd.normals)
    cols = (2 * bqd.elem_nodes)[:, :, None] + np.arange(2)[None, None, :]
    np.add.at(c_n, cols.ravel(), tn.ravel())
    return m_q, m_mu, c_n


def assemble_rhs(f: Callable, g: Optional[Callable], ct: CtMesh,
                 layout: DofLayout, bqd: BoundaryQuadData, nu: float,
                 sigma: float,
                 vol_rule: Optional[QuadratureRule] = None) -> np.ndarray:
    """Scaled right-hand side (load f/nu) for body force f and boundary data g.

    Boundary data is taken at the projected physical point, pairing with the
    corrected test traces so the scheme is exact for quadratic solutions.
    The multiplier block receives the normal flux of the transferred data.
    The flux constraint row keeps a zero right-hand side: it pairs the
    velocity with the discrete normal, so it equals the integral of div u_h
    over the mesh, and the pressure rows make div u_h the constant alpha; a
    nonzero entry there would become a constant divergence.
    """
    if vol_rule is None:
        vol_rule = triangle_rule(DEFAULT_VOLUME_DEGREE)
    rhs = np.zeros(layout.n_total)

    _, det, _, _ = element_maps(ct)
    basis = eval_p2(vol_rule.points)
    corners = ct.vertices[ct.triangles]
    pts = np.einsum("qk,mkc->mqc", eval_p1(vol_rule.points).vals, corners)
    fvals = np.asarray(f(pts)) / nu
    fe = np.einsum("q,m,mqc,qi->mic", vol_rule.weights, det, fvals, basis.vals)
    cols = (2 * layout.elem_nodes)[:, :, None] + np.arange(2)[None, None, :]
    np.add.at(rhs, cols.ravel(), fe.ravel())

    if g is not None:
        gm = np.asarray(g(bqd.x_star))                     # (B, Q, 2)
        ge = (np.einsum("bq,bqi,bqc->bic", bqd.ds, bqd.dn, gm)
              + sigma * np.einsum("bq,b,bqi,bqc->bic", bqd.ds,
                                  1.0 / bqd.lengths, bqd.sh, gm))
        bcols = (2 * bqd.elem_nodes)[:, :, None] + np.arange(2)[None, None, :]
        np.add.at(rhs, bcols.ravel(), ge.ravel())

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
                    sigma: float,
                    vol_rule: Optional[QuadratureRule] = None) -> SystemBlocks:
    """Assemble every block of the saddle matrix."""
    if vol_rule is None:
        vol_rule = triangle_rule(DEFAULT_VOLUME_DEGREE)
    a = assemble_a(ct, layout, bqd, sigma, vol_rule)
    B_div, B_lam = assemble_b(ct, layout, bqd, vol_rule)
    B_lam_e = assemble_be(layout, bqd)
    m_q, m_mu, c_n = assemble_constraints(ct, layout, bqd, vol_rule)
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
                     bqd: BoundaryQuadData,
                     vol_rule: Optional[QuadratureRule] = None) -> sp.csr_matrix:
    """Gram matrix of the mesh-dependent H1 norm on the velocity space:
    grad L2 squared plus edge L2 terms weighted by 1/h_e."""
    K = assemble_a(ct, layout, bqd, 0.0, vol_rule, include_boundary=False)
    Me = np.einsum("bq,b,bqi,bqj->bij", bqd.ds, 1.0 / bqd.lengths,
                   bqd.vals, bqd.vals)
    r, c, d = _velocity_block_triplets(bqd.elem_nodes, bqd.elem_nodes, Me)
    M = sp.coo_matrix((d, (r, c)), shape=(layout.n_u, layout.n_u)).tocsr()
    return (K + M).tocsr()


def gram_pressure_mass(ct: CtMesh, layout: DofLayout,
                       vol_rule: Optional[QuadratureRule] = None) -> sp.csr_matrix:
    """L2 mass matrix of the discontinuous pressure space."""
    if vol_rule is None:
        vol_rule = triangle_rule(DEFAULT_VOLUME_DEGREE)
    _, det, _, _ = element_maps(ct)
    p1 = eval_p1(vol_rule.points)
    Me = np.einsum("q,m,qi,qj->mij", vol_rule.weights, det, p1.vals, p1.vals)
    M = ct.n_triangles
    rows = (3 * np.arange(M))[:, None, None] + np.arange(3)[None, :, None] \
        + np.zeros((1, 1, 3), dtype=np.int64)
    cols = (3 * np.arange(M))[:, None, None] + np.arange(3)[None, None, :] \
        + np.zeros((1, 3, 1), dtype=np.int64)
    A = sp.coo_matrix((Me.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(layout.n_p, layout.n_p)).tocsr()
    return A


def gram_multiplier(layout: DofLayout, bqd: BoundaryQuadData) -> sp.csr_matrix:
    """Gram matrix of the weighted boundary norm on the multiplier space:
    sum over edges of h_e times the edge L2 inner product."""
    Me = np.einsum("bq,b,qi,qj->bij", bqd.ds, bqd.lengths, bqd.mu, bqd.mu)
    rows = bqd.edge_mult[:, :, None] + np.zeros((1, 1, 3), dtype=np.int64)
    cols = bqd.edge_mult[:, None, :] + np.zeros((1, 3, 1), dtype=np.int64)
    A = sp.coo_matrix((Me.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(layout.n_lam, layout.n_lam)).tocsr()
    A.sum_duplicates()
    return A


def norm_h1_direct(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
                   u: np.ndarray,
                   vol_rule: Optional[QuadratureRule] = None) -> float:
    """Mesh-dependent H1 norm evaluated by quadrature on the fields themselves."""
    if vol_rule is None:
        vol_rule = triangle_rule(DEFAULT_VOLUME_DEGREE)
    J, det, inv, invT = element_maps(ct)
    basis = eval_p2(vol_rule.points)
    G = physical_gradients(basis.grads, invT)
    coeffs = u[2 * layout.elem_nodes[:, :, None] + np.arange(2)]  # (M, 6, 2)
    gu = np.einsum("mqnd,mnc->mqcd", G, coeffs)
    total = float(np.einsum("q,m,mqcd,mqcd->", vol_rule.weights, det, gu, gu))
    bcoeffs = u[2 * bqd.elem_nodes[:, :, None] + np.arange(2)]    # (B, 6, 2)
    ub = np.einsum("bqn,bnc->bqc", bqd.vals, bcoeffs)
    total += float(np.einsum("bq,b,bqc,bqc->", bqd.ds, 1.0 / bqd.lengths, ub, ub))
    return np.sqrt(total)
