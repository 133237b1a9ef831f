"""Background triangulation, interior clipping, and barycentric refinement.

The computational mesh keeps exactly the background triangles whose closure
lies inside the physical domain.  Each retained macro triangle is split into
three micro triangles through its barycenter; the boundary edges of the
refined mesh coincide with those of the macro mesh and are stored as
arrays of oriented closed loops with outward normals.
"""

from __future__ import annotations

import numpy as np

from .fem import element_maps
from .geometry import LevelSetDomain, project_points

CLIP_TOL = 1e-12


class MeshError(RuntimeError):
    pass


def _edge_table(triangles: np.ndarray):
    """Unique undirected edges (lexicographic order) and per-edge triangle count.

    Returns (edges (E,2), tri_edges (T,3), counts (E,)).  tri_edges[t, k] is
    the edge opposite local vertex k of triangle t.
    """
    t = np.asarray(triangles)
    raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=0)
    # edge (a, b), a < b, as the key a*V + b: sorting the keys sorts the
    # edges lexicographically, much faster than np.unique over rows
    V = t.max(initial=0) + 1
    keys, inverse, counts = np.unique(raw.min(axis=1) * V + raw.max(axis=1),
                                      return_inverse=True, return_counts=True)
    edges = np.column_stack([keys // V, keys % V])
    tri_edges = inverse.reshape(3, len(t)).T
    return edges, tri_edges, counts


class MacroMesh:
    """Triangulation with vertices and counterclockwise triangles."""

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def validate(self) -> None:
        with np.errstate(divide="ignore", invalid="ignore"):    # the inverses go unread
            det = element_maps(self)[0]     # twice the signed areas
        if np.any(det <= 0.0):
            raise MeshError("mesh contains a triangle with non-positive area")
        if np.any(_edge_table(self.triangles)[2] > 2):
            raise MeshError("non-manifold edge: more than two incident triangles")


def build_type1_mesh(n: int, box=(0.0, 0.0, 1.0, 1.0)) -> MacroMesh:
    """Uniform n x n grid on the box, each cell split along its SW-NE diagonal.

    Produces 2*n^2 triangles on (n+1)^2 vertices; the diagonal direction is
    fixed (lower-left to upper-right) so meshes are reproducible.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    x0, y0, x1, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)):
        raise MeshError(f"the box [{x0:g}, {x1:g}] x [{y0:g}, {y1:g}] cannot "
                        f"resolve an n={n} grid: its coordinates are not "
                        "strictly increasing in floating point")
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i = I.ravel()
    j = J.ravel()
    v00 = vid(i, j)
    v10 = vid(i + 1, j)
    v01 = vid(i, j + 1)
    v11 = vid(i + 1, j + 1)
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return MacroMesh(vertices, triangles)


# barycentric sample lattice (i+j+k = 4): 15 points used by the clip safety
# pass; those with i, j, k all even are the vertices and edge midpoints, which
# with the barycenter (index 15 below) make the strict points
_LATTICE = np.array([(i / 4.0, j / 4.0)
                     for i in range(5) for j in range(5 - i)])
_STRICT = np.append(np.flatnonzero((4 * _LATTICE % 2 == 0).all(axis=1)),
                    len(_LATTICE))


def classify_interior(mesh: MacroMesh, dom: LevelSetDomain) -> np.ndarray:
    """Boolean mask of triangles whose closure lies inside the domain.

    A triangle is kept when phi <= 0 at its vertices, edge midpoints and
    barycenter, and phi <= CLIP_TOL on a 15-point barycentric lattice.  For
    smooth level sets resolved by the mesh this finite test is exact; a
    false keep perturbs the computational domain at cubic order in h.
    """
    p = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
    lam1, lam2 = _LATTICE.T
    lam0 = 1.0 - lam1 - lam2
    lattice = (lam0[None, :, None] * v0[:, None, :]
               + lam1[None, :, None] * v1[:, None, :]
               + lam2[None, :, None] * v2[:, None, :])
    points = np.concatenate([lattice, (v0 + v1 + v2)[:, None] / 3.0], axis=1)
    phi = np.asarray(dom.phi(points))
    return (np.all(phi[:, _STRICT] <= 0.0, axis=1)
            & np.all(phi[:, :len(_LATTICE)] <= CLIP_TOL, axis=1))


def clip_to_interior(bg: MacroMesh, dom: LevelSetDomain) -> MacroMesh:
    """Keep the triangles classified as interior and compact the vertex set."""
    keep = classify_interior(bg, dom)
    if not np.any(keep):
        raise MeshError("mesh too coarse for domain: no interior triangles")
    tris = bg.triangles[keep]
    used = np.unique(tris)
    remap = np.full(bg.n_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return MacroMesh(bg.vertices[used], remap[tris])


class CtMesh(MacroMesh):
    """Barycentric refinement of a macro mesh (three micro triangles each).

    Micro triangles 3t, 3t + 1 and 3t + 2 split macro triangle t through
    its barycentre, their vertex 2, so every boundary edge is local edge
    0->1 of its owning triangle.
    edges, tri_edges and edge_counts hold its edge table (see _edge_table).
    The boundary is stored as arrays over its B edges, loop after loop:
    boundary_edges (B, 2) holds the from/to vertex ids, boundary_tris the
    owning micro triangle, boundary_next the index of the following edge
    of the same loop, boundary_normals (B, 2) the outward unit normals and
    boundary_lengths (B,) the edge lengths.  Every edge runs as its
    counterclockwise owning triangle does, so the domain lies to the left
    of travel: outer loops are counterclockwise, hole loops clockwise, and
    the outward normal is the tangent rotated 90 degrees clockwise.
    """

    def __init__(self, macro: MacroMesh):
        bary = macro.vertices[macro.triangles].mean(axis=1)
        T = macro.n_triangles
        z = macro.n_vertices + np.arange(T)
        t = macro.triangles
        micro = np.empty((3 * T, 3), dtype=np.int64)
        micro[0::3] = np.column_stack([t[:, 0], t[:, 1], z])
        micro[1::3] = np.column_stack([t[:, 1], t[:, 2], z])
        micro[2::3] = np.column_stack([t[:, 2], t[:, 0], z])
        super().__init__(np.vstack([macro.vertices, bary]), micro)
        self.edges, self.tri_edges, self.edge_counts = _edge_table(self.triangles)
        self.boundary_edges, self.boundary_tris, self.boundary_next = \
            extract_boundary(self)
        p = self.vertices[self.boundary_edges]
        tv = p[:, 1] - p[:, 0]
        # matmul takes each dot product through BLAS, as np.linalg.norm does
        # for one vector; a sum of squares can differ in the last bit
        self.boundary_lengths = np.sqrt(tv[:, None, :] @ tv[:, :, None]).ravel()
        self.boundary_normals = (np.column_stack([tv[:, 1], -tv[:, 0]])
                                 / self.boundary_lengths[:, None])


def clough_tocher(mesh: MacroMesh) -> CtMesh:
    """Split every macro triangle through its barycenter and extract the boundary."""
    return CtMesh(mesh)


def extract_boundary(ct: CtMesh):
    """Oriented boundary loops of a triangulation as arrays.

    Boundary edges are the edges with exactly one incident triangle (the
    barycentric spokes are always shared).  Each directed edge keeps the
    orientation induced by its counterclockwise owning triangle.  Loops are
    ordered by their smallest vertex id and each starts at that vertex.
    Returns (edges (B, 2) from/to vertex ids, owning triangles (B,), index
    of the next edge in the loop (B,)).
    """
    if np.any(ct.edge_counts > 2):
        raise MeshError("non-manifold boundary: an edge has more than two triangles")
    # (local edge k, owning triangle) of each single-triangle edge, k-major
    # as in the edge table; local edge k runs from vertex k+1 to vertex k+2
    k, owner = np.nonzero(ct.edge_counts[ct.tri_edges.T] == 1)
    b_from = ct.triangles[owner, (k + 1) % 3]
    b_to = ct.triangles[owner, (k + 2) % 3]
    if len(np.unique(b_from)) < len(b_from):
        raise MeshError("non-manifold boundary vertex encountered")

    # every boundary vertex starts exactly one edge and ends exactly one
    starts = np.empty(ct.n_vertices, dtype=np.int64)
    starts[b_from] = np.arange(len(b_from))
    succ = starts[b_to]
    order, placed, walk = [], [False] * len(succ), succ.tolist()
    for j in np.argsort(b_from).tolist():
        while not placed[j]:
            placed[j] = True
            order.append(j)
            j = walk[j]
    order = np.array(order, dtype=np.int64)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edges = np.column_stack([b_from[order], b_to[order]])
    return edges, owner[order], rank[succ[order]]


def check_assumption_a(ct: CtMesh, dom: LevelSetDomain,
                       delta: np.ndarray) -> np.ndarray:
    """Per-edge ratios (max transfer length)/(edge length), shape (B,).

    delta (B, Q) holds the transfer lengths at each boundary edge's
    quadrature points, as build_boundary_data found them; only the start
    vertex of every edge is projected here, since an edge ends where its
    boundary_next edge starts.  The ratio is advisory: the method's
    stability theory assumes it is uniformly below 1.
    It does not separate admissible levels: on the star domain its maximum
    is 1.01-1.30 at n = 16...64, where the reference errors are reproduced.
    """
    _, delta_start, _ = project_points(dom, ct.vertices[ct.boundary_edges[:, 0]])
    delta_ends = np.maximum(delta_start, delta_start[ct.boundary_next])
    return np.maximum(delta.max(axis=1), delta_ends) / ct.boundary_lengths


def write_vtk(path, ct: CtMesh, point_data, cell_data) -> None:
    """Write the refined mesh as legacy-ASCII VTK with its data arrays.

    point_data maps names to arrays of shape (n_vertices,) or (n_vertices, 2)
    (vectors get a zero third component); cell_data maps names to arrays of
    shape (n_triangles,).
    """
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nctstokes mesh\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {ct.n_vertices} double\n")
        for x, y in ct.vertices:
            f.write(f"{x:.17g} {y:.17g} 0\n")
        f.write(f"CELLS {ct.n_triangles} {4 * ct.n_triangles}\n")
        for a, b, c in ct.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {ct.n_triangles}\n")
        f.write("5\n" * ct.n_triangles)
        f.write(f"POINT_DATA {ct.n_vertices}\n")
        for name, arr in point_data.items():
            arr = np.asarray(arr)
            if arr.ndim == 2:
                f.write(f"VECTORS {name} double\n")
                for row in arr:
                    f.write(f"{row[0]:.17g} {row[1]:.17g} 0\n")
            else:
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in arr:
                    f.write(f"{v:.17g}\n")
        f.write(f"CELL_DATA {ct.n_triangles}\n")
        for name, arr in cell_data.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in np.asarray(arr):
                f.write(f"{v:.17g}\n")
