import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (box_sdf_domain, everywhere_inside_domain, make_level,
                      solve_case)
from ctstokes import assembly
from ctstokes.assembly import (assemble_a, assemble_b, assemble_be,
                               assemble_blocks, assemble_constraints,
                               assemble_rhs, assemble_stiffness,
                               build_boundary_data, gram_h1_velocity,
                               norm_h1_direct, taylor_trace)
from ctstokes.fem import (build_dof_layout, edge_rule, element_maps, eval_p1,
                          eval_p2, triangle_rule)
from ctstokes.geometry import circle_domain, star_domain
from ctstokes.mesh import build_type1_mesh, clip_to_interior, clough_tocher
from ctstokes.verify import paper_case, patch_case, compute_errors, solve_on_level


def push_forward(grads_ref, invT):
    """Physical gradients (..., Q, n, 2) at every rule point from reference
    gradients (Q, n, 2) and inverse-transpose Jacobians (..., 2, 2)."""
    return np.einsum("...ij,qnj->...qni", invT, grads_ref)


def test_taylor_trace_shifts_polynomials_exactly():
    # linear: psi(x, y) = 3x - y + 2, shift by 0.1 along e1
    vals = np.array([2.0])            # psi at (0, 0)
    grads = np.array([[3.0, -1.0]])
    hess = np.zeros((1, 2, 2))
    out = taylor_trace(vals, grads, hess, np.array(0.1), np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(2.3, abs=1e-15)
    # quadratic: psi = x^2 at x = 1 -> (1 + 0.1)^2
    vals = np.array([1.0])
    grads = np.array([[2.0, 0.0]])
    hess = np.array([[[2.0, 0.0], [0.0, 0.0]]])
    out = taylor_trace(vals, grads, hess, np.array(0.1), np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(1.1 ** 2, abs=1e-15)
    # zero shift is the identity
    out = taylor_trace(vals, grads, hess, np.array(0.0), np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(1.0, abs=1e-16)


def test_eval_sh_trace_on_mesh(star_n8, star):
    ct, layout, bqd, blocks = star_n8
    assert np.abs(star.phi(bqd.x_star)).max() <= 1e-10
    # at every boundary quadrature point the corrected trace of a quadratic's
    # interpolant is the quadratic at the projected point
    def q(x):
        return (x[..., 0] - 0.3) ** 2 + 0.5 * x[..., 1]

    traced = np.einsum("bqn,bn->bq", bqd.sh, q(layout.node_coords)[bqd.elem_nodes])
    assert np.abs(traced - q(bqd.x_star)).max() <= 1e-12


def test_boundary_data_zero_delta_identity():
    box = box_sdf_domain()
    ct, layout, bqd, blocks = make_level(box, 4)
    assert np.all(bqd.delta == 0.0)
    assert np.allclose(bqd.sh, bqd.vals, atol=1e-14)
    # with zero transfer both continuity pairings coincide
    assert abs(blocks.B_lam - blocks.B_lam_e).max() <= 1e-14


def test_volume_stiffness_symmetric_and_kernel(star_n8):
    ct, layout, bqd, blocks = star_n8
    A = assemble_stiffness(ct, layout)
    assert abs(A - A.T).max() <= 1e-12
    const = np.zeros(layout.n_u)
    const[0::2] = 1.0
    assert np.abs(A @ const).max() <= 1e-12


def test_a_interior_rows_unaffected_by_boundary(star_n8):
    ct, layout, bqd, blocks = star_n8
    A = assemble_a(ct, layout, bqd, 40.0)
    Avol = assemble_stiffness(ct, layout)
    boundary_nodes = set(bqd.elem_nodes.ravel().tolist())
    interior = np.array([2 * n + c for n in range(layout.n_nodes)
                         if n not in boundary_nodes for c in (0, 1)])
    diff = (A - Avol).tocsr()
    assert abs(diff[interior]).max() <= 1e-14
    # constants lie in the kernel of the interior rows of the full form
    const = np.zeros(layout.n_u)
    const[0::2] = 1.0
    assert np.abs((A @ const)[interior]).max() <= 1e-12


def test_a_positive_on_random_vectors(star_n8):
    ct, layout, bqd, blocks = star_n8
    A = blocks.a.tocsr()
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.standard_normal(layout.n_u)
        assert float(v @ (A @ v)) > 0.0


def test_divergence_block_constant_velocity():
    ct, layout, bqd, blocks = make_level(box_sdf_domain(), 2)
    const = np.zeros(layout.n_u)
    const[0::2] = 1.0
    assert np.abs(blocks.B_div @ const).max() <= 1e-14


def test_divergence_block_matches_quadrature(star_n8):
    # spot check entries of the pressure-test block against independent
    # quadrature of -(div of one basis function) * (one pressure function)
    ct, layout, bqd, blocks = star_n8
    rule = triangle_rule(4)
    J, det, inv, invT = element_maps(ct)
    p2 = eval_p2(rule.points)
    p1 = eval_p1(rule.points)
    rng = np.random.default_rng(9)
    B = blocks.B_div.tocsr()
    for k in rng.choice(ct.n_triangles, 5, replace=False):
        G = push_forward(p2.grads, invT[k])
        for j in range(3):
            for i in range(6):
                for c in range(2):
                    val = -np.sum(rule.weights * det[k] * p1.vals[:, j] * G[:, i, c])
                    row = 3 * k + j
                    col = 2 * layout.elem_nodes[k, i] + c
                    assert B[row, col] == pytest.approx(val, abs=1e-13)


def test_stiffness_matches_quadrature(star_n8):
    # spot check entries of the stiffness against independent quadrature of
    # grad(phi_i) . grad(phi_j), summed over the elements sharing both nodes
    ct, layout, bqd, blocks = star_n8
    rule = triangle_rule(4)
    J, det, inv, invT = element_maps(ct)
    G = push_forward(eval_p2(rule.points).grads, invT)           # (M, Q, 6, 2)
    Ke = np.einsum("q,m,mqic,mqjc->mij", rule.weights, det, G, G)
    K = assemble_stiffness(ct, layout).tocsr()
    rng = np.random.default_rng(10)
    for k in rng.choice(ct.n_triangles, 5, replace=False):
        for a in layout.elem_nodes[k]:
            for b in layout.elem_nodes[k]:
                val = np.einsum("mi,mij,mj->", layout.elem_nodes == a, Ke,
                                layout.elem_nodes == b)
                for c in range(2):
                    assert K[2 * a + c, 2 * b + c] == pytest.approx(val, abs=1e-13)
                    assert K[2 * a + c, 2 * b + 1 - c] == 0.0


def test_be_shares_divergence_part(star_n8, star):
    ct, layout, bqd, blocks = star_n8
    _, Bl = assemble_b(ct, layout, bqd)
    Ble = assemble_be(layout, bqd)
    # the multiplier pairings differ where transfer lengths are positive
    assert abs(Bl - Ble).max() > 1e-6


def test_constraints_singular_without_them(star):
    # drop the scalar rows/columns: the (u, p, lam) block has the joint
    # constant pressure/multiplier mode in its kernel
    ct, layout, bqd, blocks = make_level(star, 3)
    assert ct.n_triangles == 6  # two macro triangles survive at n = 3
    K = sp.bmat([
        [blocks.a, blocks.B_div.T, blocks.B_lam.T],
        [blocks.B_div, None, None],
        [blocks.B_lam_e, None, None],
    ]).toarray()
    U, S, Vt = np.linalg.svd(K)
    assert S[-1] <= 1e-12 * S[0]
    null = Vt[-1]
    nu_, np_, nl_ = layout.n_u, layout.n_p, layout.n_lam
    u_part = null[:nu_]
    p_part = null[nu_:nu_ + np_]
    l_part = null[nu_ + np_:]
    scale = np.abs(null).max()
    assert np.abs(u_part).max() <= 1e-8 * scale
    assert p_part.std() <= 1e-8 * scale
    assert l_part.std() <= 1e-8 * scale
    assert p_part.mean() == pytest.approx(l_part.mean(), rel=1e-6)


def test_full_system_nonsingular_and_means_vanish(star_n8):
    ct, layout, bqd, blocks = star_n8
    sol = solve_case(ct, layout, bqd, blocks, paper_case(0.1))
    assert abs(float(blocks.m_q @ sol.p)) <= 1e-10
    assert abs(float(blocks.m_mu @ sol.lam)) <= 1e-10


def test_rhs_zero_data_gives_zero_vector(star_n8):
    ct, layout, bqd, blocks = star_n8

    def zero_vec(x):
        return np.zeros(np.asarray(x).shape)

    rhs = assemble_rhs(zero_vec, zero_vec, ct, layout, bqd, 0.1, 40.0)
    assert np.abs(rhs).max() == 0.0
    # homogeneous g reduces to the plain load vector
    case = paper_case(0.1)
    rhs_f = assemble_rhs(case.f, None, ct, layout, bqd, 0.1, 40.0)
    rhs_g0 = assemble_rhs(case.f, zero_vec, ct, layout, bqd, 0.1, 40.0)
    assert np.allclose(rhs_f, rhs_g0, atol=1e-15)


def test_patch_reproduced_exactly(star_n8):
    # global quadratic divergence-free velocity and affine pressure: the
    # boundary correction is exact on quadratics, so the discrete solution
    # reproduces the fields to solver precision
    ct, layout, bqd, blocks = star_n8
    case = patch_case(0.5)
    sol = solve_case(ct, layout, bqd, blocks, case)
    rep = compute_errors(sol, case, ct, layout, bqd, n=8, max_delta_ratio=0.0)
    assert rep.h1_u <= 1e-8
    assert rep.l2_p <= 1e-8
    assert rep.linf_div <= 1e-8


def test_patch_reproduced_on_circle(circle_n8, annulus):
    # the centred fixture, an off-centre circle whose boundary data has a
    # nonzero net flux through the mesh boundary, and an annulus whose
    # boundary is two loops
    off_centre = make_level(circle_domain((0.45, 0.52), 0.35), 8)
    ring = make_level(annulus, 16)
    for (ct, layout, bqd, blocks), nu in ((circle_n8, 0.1), (off_centre, 0.1),
                                          (ring, 1.0)):
        case = patch_case(nu)
        sol = solve_case(ct, layout, bqd, blocks, case)
        rep = compute_errors(sol, case, ct, layout, bqd, n=8, max_delta_ratio=0.0)
        assert rep.h1_u <= 1e-8
        assert rep.l2_p <= 1e-8
        assert rep.linf_div <= 1e-8


def test_edge_quadrature_refinement_stability(circle, monkeypatch):
    # circle fixture at n = 16: a 10-point edge rule barely moves the
    # entries the 6-point rule in use gives
    ct = clough_tocher(clip_to_interior(build_type1_mesh(16), circle))
    layout = build_dof_layout(ct)
    b6 = assemble_blocks(ct, layout, build_boundary_data(ct, layout, circle), 40.0)
    monkeypatch.setattr(assembly, "EDGE_RULE", edge_rule(10))
    b10 = assemble_blocks(ct, layout, build_boundary_data(ct, layout, circle), 40.0)
    for name in ("a", "B_lam_e"):
        M6, M10 = getattr(b6, name), getattr(b10, name)
        rel = sp.linalg.norm(M6 - M10) / sp.linalg.norm(M10)
        assert rel <= 1e-8


def test_norm_gram_matches_direct_evaluation(star_n8):
    ct, layout, bqd, blocks = star_n8
    G = gram_h1_velocity(ct, layout, bqd)
    rng = np.random.default_rng(6)
    for _ in range(20):
        v = rng.standard_normal(layout.n_u)
        quad_form = float(np.sqrt(v @ (G @ v)))
        direct = norm_h1_direct(ct, layout, bqd, v)
        assert quad_form == pytest.approx(direct, rel=1e-12)
