import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import box_sdf_domain, everywhere_inside_domain
from ctstokes.assembly import EDGE_RULE, build_boundary_data
from ctstokes.fem import build_dof_layout, element_maps
from ctstokes.geometry import circle_domain, project_points, star_domain
from ctstokes.mesh import (CLIP_TOL, MacroMesh, MeshError, _edge_table,
                           build_type1_mesh, check_assumption_a,
                           classify_interior, clip_to_interior, clough_tocher,
                           extract_boundary, write_vtk)
from ctstokes.verify import build_level


def _assumption(ct, dom):
    """check_assumption_a on the transfer lengths build_boundary_data finds."""
    bqd = build_boundary_data(ct, build_dof_layout(ct), dom)
    return check_assumption_a(ct, dom, bqd.delta)


def _loops(nxt):
    """The cycles of the permutation nxt, each as an array of edge indices."""
    seen = np.zeros(len(nxt), dtype=bool)
    loops = []
    for i in range(len(nxt)):
        if not seen[i]:
            loop = [i]
            j = nxt[i]
            while j != i:
                loop.append(j)
                j = nxt[j]
            seen[loop] = True
            loops.append(np.array(loop))
    return loops


def _assert_boundary_invariants(ct, dom, n_loops):
    """Closed loops with outward normals; returns each loop's signed area."""
    edges, nxt = ct.boundary_edges, ct.boundary_next
    assert np.array_equal(np.sort(nxt), np.arange(len(edges)))
    assert np.array_equal(edges[:, 1], edges[nxt, 0])
    loops = _loops(nxt)
    assert len(loops) == n_loops
    # outward normals: phi grows along n_h, which is normal to its edge
    pa, pb = ct.vertices[edges[:, 0]], ct.vertices[edges[:, 1]]
    mid = 0.5 * (pa + pb)
    eps = ct.boundary_lengths[:, None] / 10
    assert np.all(dom.phi(mid + eps * ct.boundary_normals) > dom.phi(mid))
    assert np.all(np.abs(np.einsum("ij,ij->i", ct.boundary_normals, pb - pa)) < 1e-14)
    assert np.allclose(ct.boundary_lengths, np.linalg.norm(pb - pa, axis=1),
                       rtol=1e-15, atol=0.0)
    areas = []
    for loop in loops:
        x, y = pa[loop, 0], pa[loop, 1]
        areas.append(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert sum(areas) == pytest.approx(0.5 * element_maps(ct)[0].sum(), rel=1e-12)
    # a multiplier edge's end dof is the start dof of the loop's next edge
    edge_mult = build_dof_layout(ct).edge_mult
    assert np.array_equal(edge_mult[:, 1], edge_mult[nxt, 0])
    _assert_edges_are_local_edge_01(ct)
    return areas


def _assert_edges_are_local_edge_01(ct):
    """Every boundary edge runs from local vertex 0 to local vertex 1 of its
    owning micro triangle: the boundary tables in assembly are the P2 basis
    at the reference points (t, 0)."""
    assert np.array_equal(ct.triangles[ct.boundary_tris, :2], ct.boundary_edges)


def test_type1_counts():
    m = build_type1_mesh(2)
    assert m.n_triangles == 8 and m.n_vertices == 9
    m1 = build_type1_mesh(1)
    assert m1.n_triangles == 2
    # the two triangles share the diagonal
    shared = set(map(tuple, np.sort(m1.triangles, axis=1)))
    e0 = set(map(tuple, np.sort(m1.triangles[0][[0, 1, 1, 2, 2, 0]].reshape(3, 2), axis=1)))
    e1 = set(map(tuple, np.sort(m1.triangles[1][[0, 1, 1, 2, 2, 0]].reshape(3, 2), axis=1)))
    assert len(e0 & e1) == 1
    assert build_type1_mesh(24).n_triangles == 1152
    with pytest.raises(ValueError):
        build_type1_mesh(0)


def test_type1_validates():
    m = build_type1_mesh(5)
    m.validate()
    assert np.all(0.5 * element_maps(m)[0] > 0)
    # interior edges twice, boundary edges once
    assert set(np.unique(_edge_table(m.triangles)[2])) <= {1, 2}


def test_clip_matches_dense_classification():
    c = circle_domain((0.5, 0.5), 0.4)
    bg = build_type1_mesh(4)
    kept = clip_to_interior(bg, c)
    expected = []
    m = 140  # ~1e4 barycentric samples per triangle
    lam = np.array([(i / m, j / m) for i in range(m + 1) for j in range(m + 1 - i)])
    for tri in bg.triangles:
        p = bg.vertices[tri]
        pts = ((1 - lam[:, 0] - lam[:, 1])[:, None] * p[0]
               + lam[:, 0:1] * p[1] + lam[:, 1:2] * p[2])
        expected.append(bool(np.all(c.phi(pts) <= 0.0)))
    assert kept.n_triangles == int(np.sum(expected)) == 8


def test_clip_keeps_everything_or_nothing():
    bg = build_type1_mesh(3)
    assert clip_to_interior(bg, everywhere_inside_domain()).n_triangles == 18
    outside = everywhere_inside_domain()
    outside.phi = lambda x: np.ones(np.asarray(x).shape[:-1])
    with pytest.raises(MeshError):
        clip_to_interior(bg, outside)


def test_clipped_mesh_inside_domain():
    # refinement never pushes the computational domain outside the physical one
    s = star_domain()
    rng = np.random.default_rng(5)
    for n in (8, 16):
        mac = clip_to_interior(build_type1_mesh(n), s)
        lam = rng.dirichlet((1, 1, 1), size=100)
        for tri in mac.triangles:
            pts = lam @ mac.vertices[tri]
            assert np.all(s.phi(pts) <= CLIP_TOL)


def test_clough_tocher_counts_and_areas():
    ct = clough_tocher(clip_to_interior(build_type1_mesh(2),
                                        everywhere_inside_domain()))
    assert ct.n_triangles == 24
    one = MacroMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
    ct1 = clough_tocher(one)
    assert np.allclose(ct1.vertices[3], [1 / 3, 1 / 3])
    assert np.allclose(0.5 * element_maps(ct1)[0], 1 / 6)
    assert np.all(ct1.triangles[:, 2] == 3)

    s = star_domain()
    mac = clip_to_interior(build_type1_mesh(24), s)
    ct24 = clough_tocher(mac)
    macro_area = float((0.5 * element_maps(mac)[0]).sum())
    micro_area = float((0.5 * element_maps(ct24)[0]).sum())
    assert abs(micro_area - macro_area) <= 1e-12 * macro_area
    # micro triangle m splits macro triangle m // 3 through its barycentre
    parent = np.arange(ct24.n_triangles) // 3
    assert np.array_equal(ct24.triangles[:, 2], mac.n_vertices + parent)
    corners = ct24.triangles[:, :2, None] == mac.triangles[parent][:, None, :]
    assert np.all(corners.any(axis=2))


def test_boundary_full_box_single_loop():
    ct = clough_tocher(clip_to_interior(build_type1_mesh(2),
                                        everywhere_inside_domain()))
    assert len(ct.boundary_edges) == 8
    assert np.array_equal(ct.boundary_next, np.r_[1:8, 0])
    assert ct.boundary_edges[-1, 1] == ct.boundary_edges[0, 0]


def test_boundary_star_single_loop():
    s = star_domain()
    ct = clough_tocher(clip_to_interior(build_type1_mesh(24), s))
    _assert_boundary_invariants(ct, s, n_loops=1)
    for loop in _loops(ct.boundary_next):
        e = ct.boundary_edges[loop]
        t = ct.vertices[e[:, 1]] - ct.vertices[e[:, 0]]
        tn = np.roll(t, -1, axis=0)
        turning = np.arctan2(t[:, 0] * tn[:, 1] - t[:, 1] * tn[:, 0],
                             np.einsum("ij,ij->i", t, tn)).sum()
        assert turning == pytest.approx(2 * np.pi, abs=1e-10)


@pytest.mark.parametrize("n, areas", [(16, (0.4219, -0.1172)),
                                      (32, (0.4551, -0.0830))], ids=["n16", "n32"])
def test_boundary_annulus_two_loops(annulus, n, areas):
    # an outer counterclockwise loop and a clockwise hole loop
    ct = clough_tocher(clip_to_interior(build_type1_mesh(n), annulus))
    found = _assert_boundary_invariants(ct, annulus, n_loops=2)
    assert found == pytest.approx(areas, abs=5e-5)


@given(r=st.floats(0.30, 0.45), s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0),
       n=st.sampled_from([8, 16]))
def test_boundary_invariants_random_circles(r, s, t, n):
    # the radii and centres of the random-circle sweep: the centre keeps
    # the circle 0.02 inside the unit square
    lo, hi = r + 0.02, 1.0 - r - 0.02
    dom = circle_domain((lo + s * (hi - lo), lo + t * (hi - lo)), r)
    ct = clough_tocher(clip_to_interior(build_type1_mesh(n, dom.bounding_box), dom))
    _assert_boundary_invariants(ct, dom, n_loops=1)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_boundary_edges_are_local_edge_01(annulus, n):
    # the annulus pinches at n = 8 (test_pinched_boundary_vertex_rejected)
    domains = [star_domain()] + ([annulus] if n >= 16 else [])
    for dom in domains:
        _assert_edges_are_local_edge_01(
            clough_tocher(clip_to_interior(build_type1_mesh(n), dom)))


def test_euler_characteristic():
    s = star_domain()
    mac = clip_to_interior(build_type1_mesh(24), s)
    V, E, F = mac.n_vertices, len(_edge_table(mac.triangles)[0]), mac.n_triangles
    assert V - E + F == 1


def test_edge_table_matches_row_unique():
    # the integer-key sort gives np.unique's lexicographic row order
    ct = clough_tocher(clip_to_interior(build_type1_mesh(16), star_domain()))
    t = ct.triangles
    raw = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]), axis=1)
    edges, inverse, counts = np.unique(raw, axis=0, return_inverse=True,
                                       return_counts=True)
    got = _edge_table(t)
    for a, b in zip(got, (edges, inverse.reshape(3, -1).T, counts)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_clockwise_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    MacroMesh(verts, np.array([[0, 1, 2], [1, 3, 2]])).validate()
    with pytest.raises(MeshError, match="non-positive area"):
        MacroMesh(verts, np.array([[0, 1, 2], [1, 2, 3]])).validate()


def test_degenerate_triangle_rejected():
    # a zero determinant is a diagnosed error, not a division warning
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="non-positive area"):
        MacroMesh(verts, np.array([[0, 1, 3], [0, 1, 2]])).validate()


def test_nonmanifold_edge_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [1.5, 1.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    mesh = MacroMesh(verts, tris)
    with pytest.raises(MeshError):
        mesh.validate()
    with pytest.raises(MeshError):
        clough_tocher(mesh)


def test_pinched_boundary_vertex_rejected(annulus):
    # a bow-tie: two triangles that share only vertex 0
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    bow_tie = MacroMesh(verts, np.array([[0, 1, 2], [0, 3, 4]]))
    with pytest.raises(MeshError, match="non-manifold boundary vertex"):
        clough_tocher(bow_tie)
    # the annulus at n = 8 keeps triangles that meet only at a vertex
    with pytest.raises(MeshError, match="n=8: non-manifold boundary vertex"):
        build_level(annulus, 8, 40.0)


def test_assumption_a_fitted_box_is_zero():
    box = box_sdf_domain()
    ct = clough_tocher(clip_to_interior(build_type1_mesh(4), box))
    ratios = _assumption(ct, box)
    assert ratios.max() == 0.0


def test_assumption_a_circle_regression():
    # frozen by direct computation; the transfer length may exceed the edge
    # length on interior-clipped meshes, so this diagnostic is advisory only
    c = circle_domain((0.5, 0.5), 0.4)
    ct = clough_tocher(clip_to_interior(build_type1_mesh(16), c))
    ratios = _assumption(ct, c)
    assert ratios.max() == pytest.approx(1.4, abs=1e-9)
    assert np.all(np.isfinite(ratios))


def test_assumption_a_star_reports():
    s = star_domain()
    ct = clough_tocher(clip_to_interior(build_type1_mesh(24), s))
    ratios = _assumption(ct, s)
    assert np.isfinite(ratios.max())
    assert ratios.shape == (len(ct.boundary_edges),)
    assert np.all(np.isfinite(ratios)) and np.all(ratios >= 0)


@pytest.mark.parametrize("dom, n", [(star_domain(), 8), (star_domain(), 16),
                                    (circle_domain((0.45, 0.52), 0.35), 8)])
def test_assumption_a_reuses_boundary_transfer_lengths(dom, n):
    # a level projects each edge's endpoints only and takes the quadrature
    # points' transfer lengths from its boundary data; the ratios must equal
    # those of one projection of endpoints and EDGE_RULE points together,
    # and the level keeps their maximum
    level = build_level(dom, n, 40.0)
    ct = level.ct
    s = np.concatenate([EDGE_RULE.points, [0.0, 1.0]])
    pa, pb = ct.vertices[ct.boundary_edges.T]
    pts = pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]
    _, delta, _ = project_points(dom, pts.reshape(-1, 2))
    ratios = delta.reshape(len(pa), -1).max(axis=1) / ct.boundary_lengths
    assert np.array_equal(check_assumption_a(ct, dom, level.bqd.delta), ratios)
    assert level.max_delta_ratio == ratios.max()


def test_classification_is_deterministic():
    s = star_domain()
    bg = build_type1_mesh(8)
    assert np.array_equal(classify_interior(bg, s), classify_interior(bg, s))


def test_vtk_writer(tmp_path):
    s = star_domain()
    ct = clough_tocher(clip_to_interior(build_type1_mesh(8), s))
    path = tmp_path / "mesh.vtk"
    write_vtk(path, ct,
              point_data={"velocity": np.zeros((ct.n_vertices, 2)),
                          "marker": np.arange(ct.n_vertices, dtype=float)},
              cell_data={"pressure": np.zeros(ct.n_triangles)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {ct.n_vertices} double" in text
    assert f"CELLS {ct.n_triangles} {4 * ct.n_triangles}" in text
    assert f"POINT_DATA {ct.n_vertices}" in text
    assert f"CELL_DATA {ct.n_triangles}" in text
