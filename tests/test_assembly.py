import numpy as np
import pytest
import scipy.sparse as sp

from conftest import box_sdf_domain, everywhere_inside_domain, node_coords
from ctstokes import assembly
from ctstokes.assembly import (assemble_a, assemble_b, assemble_be,
                               assemble_blocks, assemble_constraints,
                               assemble_rhs, assemble_stiffness,
                               build_boundary_data, gram_h1_velocity,
                               taylor_trace)
from ctstokes.fem import (BasisEval, build_dof_layout, edge_rule, element_maps,
                          eval_p1, eval_p2, triangle_rule, vector_dofs)
from ctstokes.geometry import circle_domain, star_domain
from ctstokes.mesh import build_type1_mesh, clip_to_interior, clough_tocher
from ctstokes.verify import build_level, paper_case, patch_case, solve_on_level


def push_forward(grads_ref, invT):
    """Physical gradients (..., Q, n, 2) at every rule point from reference
    gradients (Q, n, 2) and inverse-transpose Jacobians (..., 2, 2)."""
    return np.einsum("...ij,qnj->...qni", invT, grads_ref)


def test_taylor_trace_shifts_polynomials_exactly():
    # one basis function tabulated at one point, shifted by 0.1 along e1
    e1 = np.array([[1.0, 0.0]])
    # linear: psi(x, y) = 3x - y + 2 at (0, 0)
    table = BasisEval(vals=np.array([[2.0]]), grads=np.array([[[3.0, -1.0]]]),
                      hessians=np.zeros((1, 2, 2)))
    out = taylor_trace(table, np.array([0.1]), e1)
    assert out[0, 0] == pytest.approx(2.3, abs=1e-15)
    # quadratic: psi = x^2 at x = 1 -> (1 + 0.1)^2
    table = BasisEval(vals=np.array([[1.0]]), grads=np.array([[[2.0, 0.0]]]),
                      hessians=np.array([[[2.0, 0.0], [0.0, 0.0]]]))
    out = taylor_trace(table, np.array([0.1]), e1)
    assert out[0, 0] == pytest.approx(1.1 ** 2, abs=1e-15)
    # zero shift is the identity
    out = taylor_trace(table, np.array([0.0]), e1)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-16)


def test_eval_sh_trace_on_mesh(star_n8, star):
    ct, bqd = star_n8.ct, star_n8.bqd
    assert np.abs(star.phi(bqd.x_star)).max() <= 1e-10
    # at every boundary quadrature point the corrected trace of a quadratic's
    # interpolant is the quadratic at the projected point
    def q(x):
        return (x[..., 0] - 0.3) ** 2 + 0.5 * x[..., 1]

    traced = np.einsum("bqn,bn->bq", bqd.sh, q(node_coords(ct))[bqd.elem_nodes])
    assert np.abs(traced - q(bqd.x_star)).max() <= 1e-12


def test_boundary_data_zero_delta_identity():
    level = build_level(box_sdf_domain(), 4, 40.0)
    bqd, blocks = level.bqd, level.blocks
    assert np.all(bqd.delta == 0.0)
    assert np.array_equal(bqd.sh, np.broadcast_to(assembly.EDGE_P2.vals, bqd.sh.shape))
    # with zero transfer both continuity pairings coincide
    assert abs(blocks.B_lam - blocks.B_lam_e).max() <= 1e-14


def test_volume_stiffness_symmetric_and_kernel(star_n8):
    layout = star_n8.layout
    A = assemble_stiffness(star_n8.ct, layout)
    assert abs(A - A.T).max() <= 1e-12
    const = np.zeros(layout.n_u)
    const[0::2] = 1.0
    assert np.abs(A @ const).max() <= 1e-12


def test_a_interior_rows_unaffected_by_boundary(star_n8):
    ct, layout, bqd = star_n8.ct, star_n8.layout, star_n8.bqd
    A = assemble_a(ct, layout, bqd, star_n8.sigma)
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
    A = star_n8.blocks.a.tocsr()
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.standard_normal(star_n8.layout.n_u)
        assert float(v @ (A @ v)) > 0.0


def test_divergence_block_constant_velocity():
    level = build_level(box_sdf_domain(), 2, 40.0)
    const = np.zeros(level.layout.n_u)
    const[0::2] = 1.0
    assert np.abs(level.blocks.B_div @ const).max() <= 1e-14


def test_divergence_block_matches_quadrature(star_n8):
    # spot check entries of the pressure-test block against independent
    # quadrature of -(div of one basis function) * (one pressure function)
    ct, layout = star_n8.ct, star_n8.layout
    rule = triangle_rule(4)
    det, inv, invT = element_maps(ct)
    p2 = eval_p2(rule.points)
    p1 = eval_p1(rule.points)
    rng = np.random.default_rng(9)
    B = star_n8.blocks.B_div.tocsr()
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
    ct, layout = star_n8.ct, star_n8.layout
    rule = triangle_rule(4)
    det, inv, invT = element_maps(ct)
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
    layout, bqd = star_n8.layout, star_n8.bqd
    _, Bl = assemble_b(star_n8.ct, layout, bqd)
    Ble = assemble_be(layout, bqd)
    # the multiplier pairings differ where transfer lengths are positive
    assert abs(Bl - Ble).max() > 1e-6


def test_constraints_singular_without_them(star):
    # drop the scalar rows/columns: the (u, p, lam) block has the joint
    # constant pressure/multiplier mode in its kernel
    level = build_level(star, 3, 40.0)
    layout, blocks = level.layout, level.blocks
    assert level.ct.n_triangles == 6  # two macro triangles survive at n = 3
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


def test_full_system_nonsingular_and_means_vanish(star):
    level = build_level(star, 8, 40.0)
    blocks = level.blocks      # the solve drops them from the level
    sol, _ = solve_on_level(level, paper_case(0.1))
    assert abs(float(blocks.m_q @ sol.p)) <= 1e-10
    assert abs(float(blocks.m_mu @ sol.lam)) <= 1e-10


def test_rhs_zero_data_gives_zero_vector(star_n8):
    ct, layout, bqd = star_n8.ct, star_n8.layout, star_n8.bqd

    def zero_vec(x):
        return np.zeros(np.asarray(x).shape)

    rhs = assemble_rhs(zero_vec, zero_vec, ct, layout, bqd, 0.1, star_n8.sigma)
    assert np.abs(rhs).max() == 0.0
    # homogeneous g leaves the plain load vector, in the velocity rows only
    rhs_g0 = assemble_rhs(paper_case(0.1).f, zero_vec, ct, layout, bqd, 0.1,
                          star_n8.sigma)
    assert np.abs(rhs_g0[layout.n_u:]).max() == 0.0
    assert np.abs(rhs_g0[:layout.n_u]).max() > 0.0


def test_patch_reproduced_exactly(star):
    # global quadratic divergence-free velocity and affine pressure: the
    # boundary correction is exact on quadratics, so the discrete solution
    # reproduces the fields to solver precision
    _, rep = solve_on_level(build_level(star, 8, 40.0), patch_case(0.5))
    assert rep.h1_u <= 1e-8
    assert rep.l2_p <= 1e-8
    assert rep.linf_div <= 1e-8


def test_patch_reproduced_on_circle(circle, annulus):
    # the centred fixture's circle, an off-centre circle whose boundary data
    # has a nonzero net flux through the mesh boundary, and an annulus whose
    # boundary is two loops
    for dom, n, nu in ((circle, 8, 0.1), (circle_domain((0.45, 0.52), 0.35), 8, 0.1),
                       (annulus, 16, 1.0)):
        _, rep = solve_on_level(build_level(dom, n, 40.0), patch_case(nu))
        assert rep.h1_u <= 1e-8
        assert rep.l2_p <= 1e-8
        assert rep.linf_div <= 1e-8


def test_edge_quadrature_refinement_stability(circle, monkeypatch):
    # circle fixture at n = 16: a 10-point edge rule barely moves the
    # entries the 6-point rule in use gives
    ct = clough_tocher(clip_to_interior(build_type1_mesh(16), circle))
    layout = build_dof_layout(ct)
    b6 = assemble_blocks(ct, layout, build_boundary_data(ct, layout, circle), 40.0)
    # the edge tables are tabulated at the rule's points: replace them too
    rule = edge_rule(10)
    p2 = eval_p2(np.column_stack([rule.points, 0.0 * rule.points]))
    for name, value in (("EDGE_RULE", rule), ("EDGE_P2", p2),
                        ("EDGE_MU", p2.vals[:, assembly.EDGE_NODES]),
                        ("EDGE_MASS", np.einsum("q,qi,qj->ij", rule.weights,
                                                p2.vals, p2.vals))):
        monkeypatch.setattr(assembly, name, value)
    b10 = assemble_blocks(ct, layout, build_boundary_data(ct, layout, circle), 40.0)
    for name in ("a", "B_lam_e"):
        M6, M10 = getattr(b6, name), getattr(b10, name)
        rel = sp.linalg.norm(M6 - M10) / sp.linalg.norm(M10)
        assert rel <= 1e-8


def norm_h1_direct(ct, layout, bqd, u):
    """Mesh-dependent H1 norm evaluated by quadrature on the field itself."""
    rule = triangle_rule(assembly.VOLUME_DEGREE)
    det, _, invT = element_maps(ct)
    gu = push_forward(eval_p2(rule.points).grads, invT)
    gu = np.einsum("mqna,mnc->mqca", gu, u[vector_dofs(layout.elem_nodes)])
    total = float(np.einsum("q,m,mqca,mqca->", rule.weights, det, gu, gu))
    ub = np.einsum("qn,bnc->bqc", assembly.EDGE_P2.vals, u[vector_dofs(bqd.elem_nodes)])
    total += float(np.einsum("bq,b,bqc,bqc->", bqd.ds, 1.0 / bqd.lengths, ub, ub))
    return np.sqrt(total)


def test_norm_gram_matches_direct_evaluation(star_n8):
    ct, layout, bqd = star_n8.ct, star_n8.layout, star_n8.bqd
    G = gram_h1_velocity(ct, layout, bqd)
    rng = np.random.default_rng(6)
    for _ in range(20):
        v = rng.standard_normal(layout.n_u)
        quad_form = float(np.sqrt(v @ (G @ v)))
        direct = norm_h1_direct(ct, layout, bqd, v)
        assert quad_form == pytest.approx(direct, rel=1e-12)
