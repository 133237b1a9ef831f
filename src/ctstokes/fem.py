"""Reference-element machinery and global degree-of-freedom layout.

Velocity: vector quadratic Lagrange elements, continuous across micro
triangles (nodes at vertices and edge midpoints).  Pressure: linear Lagrange
per micro triangle without continuity.  Boundary multiplier: continuous
quadratic polynomials per boundary edge (nodes at boundary vertices and edge
midpoints, shared with velocity trace nodes).  Three extra scalar unknowns
enforce the pressure mean, multiplier mean, and boundary flux constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes/weights on the reference triangle or interval."""

    points: np.ndarray   # (Q, 2) for triangles, (Q,) for edges
    weights: np.ndarray  # (Q,), summing to 1/2 (triangle) or 1 (interval)
    degree: int          # all polynomials up to this degree integrate exactly


def triangle_rule(min_degree: int) -> QuadratureRule:
    """Conical-product Gauss rule on the unit triangle {x, y >= 0, x + y <= 1}.

    A Gauss-Legendre rule in the collapsed coordinate is crossed with a
    Gauss-Jacobi rule absorbing the (1 - y) Jacobian, which integrates every
    polynomial of the requested degree exactly by construction.
    """
    if not 1 <= min_degree <= 10:
        raise ValueError("triangle rule supports degrees 1..10")
    m = min_degree // 2 + 1
    xg, wg = leggauss(m)
    u = 0.5 * (xg + 1.0)       # Gauss-Legendre on [0, 1]
    wu = 0.5 * wg
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    v = 0.5 * (xj + 1.0)       # Gauss-Jacobi, weight (1 - v) on [0, 1]
    wv = 0.25 * wj
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([((1.0 - V) * U).ravel(), V.ravel()])
    wts = np.outer(wu, wv).ravel()
    return QuadratureRule(points=pts, weights=wts, degree=2 * m - 1)


def edge_rule(n_points: int) -> QuadratureRule:
    """Gauss-Legendre rule on the reference interval [0, 1]."""
    if not 1 <= n_points <= 10:
        raise ValueError("edge rule supports 1..10 points")
    xg, wg = leggauss(n_points)
    return QuadratureRule(points=0.5 * (xg + 1.0), weights=0.5 * wg,
                          degree=2 * n_points - 1)


@dataclass(frozen=True)
class BasisEval:
    """Values, gradients and (constant) Hessians of a Lagrange basis.

    vals has shape (Q, n), grads (Q, n, 2), hessians (n, 2, 2); everything is
    with respect to reference coordinates unless push-forward data was
    applied by the caller.
    """

    vals: np.ndarray
    grads: np.ndarray
    hessians: np.ndarray


# gradients of the barycentric coordinates on the reference triangle
_GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

# quadratic Lagrange nodes: vertices, then midpoint opposite each vertex
P2_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                     [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])


def eval_p1(points) -> BasisEval:
    """Linear Lagrange basis (barycentric coordinates) at reference points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
    grads = np.broadcast_to(_GRAD_LAMBDA, (len(pts), 3, 2)).copy()
    return BasisEval(vals=lam, grads=grads, hessians=np.zeros((3, 2, 2)))


def eval_p2(points) -> BasisEval:
    """Quadratic Lagrange basis at reference points.

    Local ordering: the three vertex functions, then the midpoint functions
    of the edges opposite vertices 0, 1, 2.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
    g = _GRAD_LAMBDA
    vals = np.empty((len(pts), 6))
    grads = np.empty((len(pts), 6, 2))
    for i in range(3):
        vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        grads[:, i, :] = (4.0 * lam[:, i, None] - 1.0) * g[i]
    pairs = ((1, 2), (2, 0), (0, 1))
    for k, (i, j) in enumerate(pairs):
        vals[:, 3 + k] = 4.0 * lam[:, i] * lam[:, j]
        grads[:, 3 + k, :] = 4.0 * (lam[:, i, None] * g[j] + lam[:, j, None] * g[i])
    hess = np.empty((6, 2, 2))
    for i in range(3):
        hess[i] = 4.0 * np.outer(g[i], g[i])
    for k, (i, j) in enumerate(pairs):
        hess[3 + k] = 4.0 * (np.outer(g[i], g[j]) + np.outer(g[j], g[i]))
    return BasisEval(vals=vals, grads=grads, hessians=hess)


def element_maps(ct):
    """Affine map data per micro triangle: Jacobians, dets, inverse transposes."""
    p = ct.vertices[ct.triangles]
    J = np.empty((len(p), 2, 2))
    J[:, :, 0] = p[:, 1] - p[:, 0]
    J[:, :, 1] = p[:, 2] - p[:, 0]
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    inv /= det[:, None, None]
    invT = np.swapaxes(inv, 1, 2)
    return J, det, inv, invT


def physical_hessians(hess_ref: np.ndarray, inv: np.ndarray, invT: np.ndarray) -> np.ndarray:
    """Push constant reference Hessians (n, 2, 2) to physical ones (M, n, 2, 2)."""
    return np.einsum("mij,njk,mkl->mnil", invT, hess_ref, inv)


def vector_dofs(nodes: np.ndarray) -> np.ndarray:
    """Velocity unknowns (..., 2) of velocity nodes (...): components interleaved."""
    return 2 * nodes[..., None] + np.arange(2)


class DofLayout:
    """Global unknown numbering.

    Order: the two velocity components interleaved over nodes (micro vertices
    by index, then micro edge midpoints by lexicographic edge order), then
    three pressure values per micro triangle, then multiplier values at the
    start vertices of the boundary edges (edge order) followed by the edge
    midpoints, then the three scalar constraint unknowns.
    """

    def __init__(self, ct):
        self.n_mvert = ct.n_vertices
        self.n_medge = len(ct.edges)
        self.n_mtri = ct.n_triangles
        self.n_nodes = self.n_mvert + self.n_medge
        self.n_u = 2 * self.n_nodes
        self.n_p = 3 * self.n_mtri

        # velocity node coordinates: vertices then edge midpoints
        mid = 0.5 * (ct.vertices[ct.edges[:, 0]] + ct.vertices[ct.edges[:, 1]])
        self.node_coords = np.vstack([ct.vertices, mid])

        # per-element velocity nodes in P2 local order (vertices, opposite midpoints)
        self.elem_nodes = np.concatenate(
            [ct.triangles, self.n_mvert + ct.tri_edges], axis=1)

        # multiplier dofs: the B boundary edges' start vertices, then their
        # midpoints; an edge ends where its loop's next edge starts
        B = len(ct.boundary_edges)
        self.n_lam = 2 * B
        i = np.arange(B)
        self.edge_mult = np.column_stack([i, ct.boundary_next, B + i])
        p = ct.vertices[ct.boundary_edges]
        self.mult_coords = np.vstack([p[:, 0], 0.5 * (p[:, 0] + p[:, 1])])

        self.offset_p = self.n_u
        self.offset_lam = self.n_u + self.n_p
        self.offset_scalar = self.offset_lam + self.n_lam
        self.n_total = self.offset_scalar + 3

    @property
    def alpha(self) -> int:
        return self.offset_scalar

    @property
    def beta(self) -> int:
        return self.offset_scalar + 1

    @property
    def gamma(self) -> int:
        return self.offset_scalar + 2


def build_dof_layout(ct) -> DofLayout:
    """Deterministic global numbering for velocity, pressure, multiplier, scalars."""
    return DofLayout(ct)
