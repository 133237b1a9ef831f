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
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .fem import (DofLayout, edge_rule, element_maps, eval_p1, eval_p2,
                  triangle_rule, vector_dofs)
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

# the P2 basis at the EDGE_RULE points (t, 0) on local edge 0->1, which
# every boundary edge is; the multiplier shapes, its columns at the start,
# end and midpoint nodes; and the edge mass table of its traces on [0, 1]
EDGE_NODES = [0, 1, 5]
EDGE_P2 = eval_p2(np.column_stack([EDGE_RULE.points, 0.0 * EDGE_RULE.points]))
EDGE_MU = EDGE_P2.vals[:, EDGE_NODES]                             # (Q, 3)
EDGE_MASS = np.einsum("q,qi,qj->ij", EDGE_RULE.weights, EDGE_P2.vals,
                      EDGE_P2.vals)                                # (6, 6)


@dataclass
class BoundaryQuadData:
    """Per-edge, per-quadrature-point boundary data.

    Arrays are indexed (edge, point, ...) at the EDGE_RULE points.  sh holds
    the corrected traces of the owning element's six scalar basis functions
    and dn their outward normal derivatives; the plain traces and the
    multiplier shapes there are the tables EDGE_P2.vals and EDGE_MU.
    """

    normals: np.ndarray       # (B, 2)
    lengths: np.ndarray       # (B,)
    points: np.ndarray        # (B, Q, 2)
    ds: np.ndarray            # (B, Q) physical weights
    x_star: np.ndarray        # (B, Q, 2)
    delta: np.ndarray         # (B, Q)
    sh: np.ndarray            # (B, Q, 6)
    dn: np.ndarray            # (B, Q, 6)
    elem_nodes: np.ndarray    # (B, 6) velocity node ids
    edge_mult: np.ndarray     # (B, 3) multiplier dof ids


def taylor_trace(table, delta, dirs):
    """Second-order directional Taylor trace of a basis tabulated at Q points.

    table: vals (Q, n), grads (Q, n, 2), hessians (n, 2, 2); delta (..., Q)
    and dirs (..., Q, 2) in the table's coordinates; returns (..., Q, n).
    """
    first = (table.grads @ dirs[..., None])[..., 0]
    dd = (dirs[..., :, None] * dirs[..., None, :]).reshape(dirs.shape[:-1] + (4,))
    second = dd @ table.hessians.reshape(-1, 4).T
    d = delta[..., None]
    return table.vals + d * first + 0.5 * d ** 2 * second


def build_boundary_data(ct: CtMesh, layout: DofLayout,
                        dom: LevelSetDomain) -> BoundaryQuadData:
    """Project the EDGE_RULE points of every boundary edge and tabulate
    corrected traces.  Gradients map as J^-T grad and Hessians as
    J^-T H J^-1, so a direction d enters the EDGE_P2 table as J^-1 d."""
    rule = EDGE_RULE
    tris, normals, lengths = ct.boundary_tris, ct.boundary_normals, ct.boundary_lengths
    B, Q = len(tris), len(rule.points)
    a, b = ct.vertices[ct.boundary_edges.T]

    points = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    ds = lengths[:, None] * rule.weights[None, :]

    x_star, delta, dirs = project_points(dom, points.reshape(-1, 2))
    x_star = x_star.reshape(B, Q, 2)
    delta = delta.reshape(B, Q)

    _, _, invT = element_maps(ct)
    invTb = invT[tris]
    sh = taylor_trace(EDGE_P2, delta, dirs.reshape(B, Q, 2) @ invTb)
    ref_normals = normals[:, None, :] @ invTb                     # (B, 1, 2)
    dn = (EDGE_P2.grads @ ref_normals[..., None])[..., 0]
    return BoundaryQuadData(normals=normals, lengths=lengths, points=points,
                            ds=ds, x_star=x_star, delta=delta, sh=sh, dn=dn,
                            elem_nodes=layout.elem_nodes[tris],
                            edge_mult=layout.edge_mult)


def _triplets(rows, cols, blocks):
    """Flatten per-element blocks (E, *r, *c) with row ids (E, *r) and
    column ids (E, *c) into (rows, cols, data) triplets."""
    r = rows.reshape(rows.shape + (1,) * (cols.ndim - 1))
    c = cols.reshape(cols.shape[:1] + (1,) * (rows.ndim - 1) + cols.shape[1:])
    return (np.broadcast_to(r, blocks.shape).ravel(),
            np.broadcast_to(c, blocks.shape).ravel(), blocks.ravel())


def _sparse(shape, *parts) -> sp.csr_matrix:
    """CSR matrix of the triplet lists, duplicates summed."""
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _velocity(scalar: sp.csr_matrix) -> sp.csr_matrix:
    """Velocity matrix of a form that treats both components alike, from
    its scalar form on the P2 nodes: velocity dof 2 node + c is the
    Kronecker layout, so the matrix is scalar (x) I_2."""
    return sp.kron(scalar, sp.identity(2), format="csr")


def _pressure_dofs(ct: CtMesh) -> np.ndarray:
    """Pressure unknowns (M, 3) of every micro triangle."""
    return 3 * np.arange(ct.n_triangles)[:, None] + np.arange(3)


def _stiffness_triplets(ct, layout):
    det, inv, invT = element_maps(ct)
    M = len(det)
    metric = det[:, None, None] * (inv @ invT)
    # test i, trial j
    Ke = (metric.reshape(M, 4) @ _K_REF.reshape(4, 36)).reshape(M, 6, 6)
    return _triplets(layout.elem_nodes, layout.elem_nodes, Ke)


def assemble_stiffness(ct: CtMesh, layout: DofLayout) -> sp.csr_matrix:
    """Symmetric volume stiffness grad:grad on the velocity space."""
    nodes = (layout.n_nodes, layout.n_nodes)
    return _velocity(_sparse(nodes, _stiffness_triplets(ct, layout)))


def _test_traces(bqd, sigma):
    """dv/dn + sigma/h_e S v (B, Q, 6): tested against S u and against g.

    Raises:
        FloatingPointError: the penalty term overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        traces = bqd.dn + (sigma / bqd.lengths)[:, None, None] * bqd.sh
    if not np.isfinite(traces).all():
        raise FloatingPointError(f"the penalty sigma/h_e overflows at sigma={sigma:g}")
    return traces


def assemble_a(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData,
               sigma: float) -> sp.csr_matrix:
    """Velocity bilinear form at unit viscosity: stiffness plus boundary terms.

    grad:grad  -  (du/dn, v)  +  (dv/dn, S u)  +  sum_e sigma/h_e (S u, S v),
    with the positive sign on the third term (non-symmetric variant).
    """
    # boundary terms, test index i, trial index j
    ds = bqd.ds[..., None]
    Tb = (np.swapaxes(_test_traces(bqd, sigma), 1, 2) @ (ds * bqd.sh)
          - EDGE_P2.vals.T @ (ds * bqd.dn))
    return _velocity(_sparse((layout.n_nodes, layout.n_nodes),
                             _stiffness_triplets(ct, layout),
                             _triplets(bqd.elem_nodes, bqd.elem_nodes, Tb)))


def _multiplier_triplets(bqd, trace):
    """Triplets of (trace(u).n, mu): rows multiplier dofs, cols velocity dofs."""
    L = ((EDGE_MU.T @ (bqd.ds[..., None] * trace))[..., None]
         * bqd.normals[:, None, None, :])
    return _triplets(bqd.edge_mult, vector_dofs(bqd.elem_nodes), L)


def assemble_b(ct: CtMesh, layout: DofLayout, bqd: BoundaryQuadData):
    """Continuity pairing without boundary correction: (B_div, B_lam).

    B_div holds -(div u, q): rows pressure dofs, cols velocity dofs.
    """
    det, inv, _ = element_maps(ct)
    M = len(det)
    Be = (_B_REF.reshape(18, 2) @ (-det[:, None, None] * inv)).reshape(M, 3, 6, 2)
    B_div = _sparse((layout.n_p, layout.n_u),
                    _triplets(_pressure_dofs(ct), vector_dofs(layout.elem_nodes), Be))
    B_lam = _sparse((layout.n_lam, layout.n_u), _multiplier_triplets(bqd, EDGE_P2.vals))
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
    det, _, _ = element_maps(ct)
    m_q = np.outer(det, _MEAN_P1_REF).ravel()

    m_mu = np.zeros(layout.n_lam)
    np.add.at(m_mu, bqd.edge_mult.ravel(), (bqd.ds @ EDGE_MU).ravel())

    c_n = np.zeros(layout.n_u)
    tn = (bqd.ds @ EDGE_P2.vals)[..., None] * bqd.normals[:, None, :]
    np.add.at(c_n, vector_dofs(bqd.elem_nodes).ravel(), tn.ravel())
    return m_q, m_mu, c_n


def assemble_rhs(f: Callable, g: Callable, ct: CtMesh,
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

    Raises:
        FloatingPointError: the load f or f/nu overflows.
    """
    rhs = np.zeros(layout.n_total)

    det, _, _ = element_maps(ct)
    points = _P1 @ ct.vertices[ct.triangles]
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        fvals = np.asarray(f(points))
        if not np.isfinite(fvals).all():
            raise FloatingPointError(f"the load f is not finite at nu={nu:g}")
        fvals = fvals / nu
        fe = det[:, None, None] * ((_W[:, None] * _P2.vals).T @ fvals)
    if not np.isfinite(fe).all():
        raise FloatingPointError(f"the load f/nu is not finite at nu={nu:g}")
    np.add.at(rhs, vector_dofs(layout.elem_nodes).ravel(), fe.ravel())

    gm = np.asarray(g(bqd.x_star))                         # (B, Q, 2)
    ge = np.swapaxes(_test_traces(bqd, sigma), 1, 2) @ (bqd.ds[..., None] * gm)
    np.add.at(rhs, vector_dofs(bqd.elem_nodes).ravel(), ge.ravel())

    gn = np.einsum("bqc,bc->bq", gm, bqd.normals)
    gmu = (bqd.ds * gn) @ EDGE_MU
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
    """Glue the blocks into the full square matrix of the scaled system.

    Each block row is stacked from CSR blocks and then the rows are, so
    no COO copy of the whole matrix is made, as sp.bmat would make."""
    n_u, n_p, n_lam = layout.n_u, layout.n_p, layout.n_lam
    m_q = sp.csr_matrix(blocks.m_q[:, None])
    m_mu = sp.csr_matrix(blocks.m_mu[:, None])
    c_n = sp.csr_matrix(blocks.c_n[:, None])
    zero = sp.csr_matrix
    rows = [
        [blocks.a, blocks.B_div.T, blocks.B_lam.T, zero((n_u, 2)), c_n],
        [blocks.B_div, zero((n_p, n_p + n_lam)), m_q, zero((n_p, 2))],
        [blocks.B_lam_e, zero((n_lam, n_p + n_lam + 1)), m_mu, zero((n_lam, 1))],
        [zero((1, n_u)), m_q.T, zero((1, n_lam + 3))],
        [zero((1, n_u + n_p)), m_mu.T, zero((1, 3))],
        [c_n.T, zero((1, n_p + n_lam + 3))],
    ]
    A = sp.vstack([sp.hstack([b.tocsr() for b in row], format="csr") for row in rows],
                  format="csr")
    return SaddleSystem(matrix=A, layout=layout)


# ---------------------------------------------------------------------------
# norm Gram matrices (diagnostics)

def gram_h1_velocity(ct: CtMesh, layout: DofLayout,
                     bqd: BoundaryQuadData) -> sp.csr_matrix:
    """Gram matrix of the mesh-dependent H1 norm on the velocity space:
    grad L2 squared plus edge L2 terms weighted by 1/h_e: ds/h_e is the
    rule weight, so every edge block is EDGE_MASS."""
    Me = np.broadcast_to(EDGE_MASS, (len(bqd.lengths), 6, 6))
    M = _sparse((layout.n_nodes, layout.n_nodes),
                _triplets(bqd.elem_nodes, bqd.elem_nodes, Me))
    return assemble_stiffness(ct, layout) + _velocity(M)


def gram_pressure_mass(ct: CtMesh, layout: DofLayout) -> sp.csr_matrix:
    """L2 mass matrix of the discontinuous pressure space."""
    det, _, _ = element_maps(ct)
    Me = det[:, None, None] * _MASS_P1_REF
    dofs = _pressure_dofs(ct)
    return _sparse((layout.n_p, layout.n_p), _triplets(dofs, dofs, Me))


def gram_multiplier(layout: DofLayout, bqd: BoundaryQuadData) -> sp.csr_matrix:
    """Gram matrix of the weighted boundary norm on the multiplier space:
    sum over edges of h_e times the edge L2 inner product."""
    Me = bqd.lengths[:, None, None] ** 2 * EDGE_MASS[np.ix_(EDGE_NODES, EDGE_NODES)]
    return _sparse((layout.n_lam, layout.n_lam),
                   _triplets(bqd.edge_mult, bqd.edge_mult, Me))
