import math

import numpy as np
import pytest

from conftest import everywhere_inside_domain, node_coords
from ctstokes.fem import (_GAUSS_JACOBI, build_dof_layout, edge_rule,
                          element_maps, eval_p1, eval_p2, triangle_rule)
from ctstokes.mesh import MacroMesh, build_type1_mesh, clip_to_interior, clough_tocher


def tri_monomial_integral(a, b):
    # int over unit triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_triangle_rule_degree1_is_centroid_weight():
    r = triangle_rule(1)
    assert r.weights.sum() == pytest.approx(0.5, abs=1e-15)


def test_triangle_rule_degree4_x2y2():
    r = triangle_rule(4)
    val = np.sum(r.weights * r.points[:, 0] ** 2 * r.points[:, 1] ** 2)
    assert val == pytest.approx(1 / 180, rel=1e-14)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_rule_monomial_exactness(degree):
    r = triangle_rule(degree)
    assert r.degree >= degree
    assert r.weights.sum() == pytest.approx(0.5, rel=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(r.weights * r.points[:, 0] ** a * r.points[:, 1] ** b)
            assert val == pytest.approx(tri_monomial_integral(a, b), rel=1e-13)


@pytest.mark.parametrize("m", range(1, 7))
def test_gauss_jacobi_table_matches_scipy(m):
    # the table stands in for scipy.special.roots_jacobi(m, 1.0, 0.0)
    from scipy.special import roots_jacobi
    nodes, weights = roots_jacobi(m, 1.0, 0.0)
    np.testing.assert_allclose(_GAUSS_JACOBI[m][0], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_GAUSS_JACOBI[m][1], weights, rtol=0, atol=1e-15)


def test_triangle_rule_bounds():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(11)


def test_edge_rule_properties():
    r1 = edge_rule(1)
    assert np.allclose(r1.points, [0.5]) and np.allclose(r1.weights, [1.0])
    for n, deg in ((3, 5), (6, 11)):
        r = edge_rule(n)
        for k in range(deg + 1):
            val = np.sum(r.weights * r.points ** k)
            assert val == pytest.approx(1 / (k + 1), rel=1e-13)
    with pytest.raises(ValueError):
        edge_rule(0)
    with pytest.raises(ValueError):
        edge_rule(11)


def test_p2_lagrange_property():
    from ctstokes.fem import P2_NODES

    vals = eval_p2(P2_NODES).vals
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_p2_partition_of_unity():
    rng = np.random.default_rng(0)
    lam = rng.dirichlet((1, 1, 1), size=100)
    pts = lam[:, 1:]
    b = eval_p2(pts)
    assert np.allclose(b.vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(b.grads.sum(axis=1), 0.0, atol=1e-13)
    assert np.allclose(b.hessians.sum(axis=0), 0.0, atol=1e-13)


def test_p1_gradients_constant():
    b = eval_p1(np.array([[0.3, 0.2], [0.1, 0.7]]))
    expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(b.grads[0], expected) and np.allclose(b.grads[1], expected)
    assert np.allclose(b.hessians, 0.0)


def test_pushforward_reproduces_quadratic():
    # interpolate a known quadratic on a skewed element and compare derivatives
    verts = np.array([[0.2, 0.1], [1.1, 0.3], [0.4, 0.9]])
    mesh = MacroMesh(verts, np.array([[0, 1, 2]]))
    ct = clough_tocher(mesh)
    layout = build_dof_layout(ct)

    def q(x):
        return 2.0 * x[..., 0] ** 2 - x[..., 0] * x[..., 1] + 0.5 * x[..., 1] ** 2 \
            + 3.0 * x[..., 0] - 1.0 * x[..., 1] + 0.25

    def grad_q(x):
        return np.stack([4.0 * x[..., 0] - x[..., 1] + 3.0,
                         -x[..., 0] + x[..., 1] - 1.0], axis=-1)

    hess_q = np.array([[4.0, -1.0], [-1.0, 1.0]])
    coeffs = q(node_coords(ct))

    rng = np.random.default_rng(1)
    lam = rng.dirichlet((1, 1, 1), size=100)
    ref = lam[:, 1:]
    basis = eval_p2(ref)
    det, inv, invT = element_maps(ct)
    G = np.einsum("mij,qnj->mqni", invT, basis.grads)  # push-forward per point
    H = np.einsum("mij,njk,mkl->mnil", invT, basis.hessians, inv)  # J^-T H J^-1
    for k in range(ct.n_triangles):
        nodes = layout.elem_nodes[k]
        c = coeffs[nodes]
        corners = ct.vertices[ct.triangles[k]]
        pts = (1 - ref[:, 0] - ref[:, 1])[:, None] * corners[0] \
            + ref[:, 0:1] * corners[1] + ref[:, 1:2] * corners[2]
        assert np.allclose(basis.vals @ c, q(pts), atol=1e-12)
        assert np.allclose(np.einsum("qnd,n->qd", G[k], c), grad_q(pts), atol=1e-12)
        assert np.allclose(np.einsum("ndk,n->dk", H[k], c), hess_q, atol=1e-12)


def test_dof_layout_counts_single_triangle():
    one = MacroMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
    ct = clough_tocher(one)
    layout = build_dof_layout(ct)
    # 4 micro vertices + 6 micro edges -> 20 velocity dofs; 3 micro triangles
    # -> 9 pressure dofs; 3 boundary vertices + 3 midpoints -> 6 multiplier
    # dofs; plus 3 scalars
    assert layout.n_u == 20
    assert layout.n_p == 9
    assert layout.n_lam == 6
    assert layout.n_total == 38
    assert layout.n_total == (2 * (layout.n_mvert + layout.n_medge)
                              + 3 * layout.n_mtri
                              + 2 * len(ct.boundary_edges) + 3)


def test_dof_layout_counts_unit_box():
    ct = clough_tocher(clip_to_interior(build_type1_mesh(1),
                                        everywhere_inside_domain()))
    layout = build_dof_layout(ct)
    # hand count: 6 micro vertices, 11 micro edges, 6 micro triangles,
    # 4 boundary vertices, 4 boundary edges
    assert (layout.n_mvert, layout.n_medge, layout.n_mtri) == (6, 11, 6)
    assert layout.n_u == 34 and layout.n_p == 18 and layout.n_lam == 8
    assert layout.n_total == 63


def test_multiplier_dofs_share_velocity_locations(star_n8):
    node_set = {tuple(np.round(c, 12)) for c in node_coords(star_n8.ct)}
    for c in star_n8.layout.mult_coords:
        assert tuple(np.round(c, 12)) in node_set


def test_dof_layout_deterministic(star):
    from ctstokes.geometry import star_domain

    a = build_dof_layout(clough_tocher(clip_to_interior(build_type1_mesh(8), star)))
    b = build_dof_layout(clough_tocher(clip_to_interior(build_type1_mesh(8), star)))
    assert np.array_equal(a.elem_nodes, b.elem_nodes)
    assert np.array_equal(a.edge_mult, b.edge_mult)
    assert np.array_equal(a.mult_coords, b.mult_coords)


def test_p2_interpolation_exact_for_quadratics(star_n8):
    ct, layout = star_n8.ct, star_n8.layout

    def q(x):
        return x[..., 0] ** 2 + 2.0 * x[..., 0] * x[..., 1] - x[..., 1] ** 2 + 1.0

    coeffs = q(node_coords(ct))
    rng = np.random.default_rng(2)
    lam = rng.dirichlet((1, 1, 1), size=50)
    ref = lam[:, 1:]
    basis = eval_p2(ref)
    for k in rng.choice(ct.n_triangles, size=20, replace=False):
        corners = ct.vertices[ct.triangles[k]]
        pts = (1 - ref[:, 0] - ref[:, 1])[:, None] * corners[0] \
            + ref[:, 0:1] * corners[1] + ref[:, 1:2] * corners[2]
        assert np.allclose(basis.vals @ coeffs[layout.elem_nodes[k]], q(pts),
                           atol=1e-12)
