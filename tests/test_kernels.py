"""The per-element contractions against their einsum forms.

The error norms, the load vector, the element blocks and the boundary
blocks contract reference tables with per-element data as batched matmuls.
The references below are the same contractions written as multi-operand
einsums, index by index; the two orders of summation agree to rounding.
The boundary traces are checked against the per-point path: each rule
point mapped back to reference coordinates, the basis evaluated there and
its derivatives pushed forward.  The velocity forms, assembled once as
scalar forms and laid out as scalar (x) I_2, and the saddle matrix, stacked
from CSR row blocks, are checked bit for bit against the per-component
triplet assembly and the sp.bmat composition.  The macro condensation, its
blocks taken by tobsr and inverted in place, is checked bit for bit, with
its singularity diagnoses, against the blocks scattered from COO and
inverted after an slogdet pre-pass.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from ctstokes import assembly, solver, verify
from ctstokes.assembly import (assemble_a, assemble_b, assemble_be,
                               assemble_constraints, assemble_rhs,
                               assemble_stiffness, compose_system,
                               gram_h1_velocity, gram_multiplier)
from ctstokes.fem import element_maps, eval_p2, vector_dofs
from ctstokes.geometry import circle_domain, project_points, star_domain
from ctstokes.solver import SolverError, factorize
from ctstokes.verify import (build_level, compute_errors,
                             multiplier_values_on_edges, paper_case,
                             solve_on_level)


def errors_einsum(sol, case, ct, layout, bqd):
    """The five error fields of verify.compute_errors, as einsums."""
    w = verify._ERROR_RULE.weights
    P1, P2 = verify._ERROR_P1, verify._ERROR_P2
    det, _, invT = element_maps(ct)
    pts = np.einsum("qk,mkc->mqc", P1, ct.vertices[ct.triangles])

    coeffs = sol.u[vector_dofs(layout.elem_nodes)]
    uh = np.einsum("qn,mnc->mqc", P2.vals, coeffs)
    guh = np.einsum("mda,mqca->mqcd", invT,
                    np.einsum("qna,mnc->mqca", P2.grads, coeffs))

    du = uh - np.asarray(case.u(pts))
    dgu = guh - np.asarray(case.grad_u(pts))
    l2_u = math.sqrt(float(np.einsum("q,m,mqc,mqc->", w, det, du, du)))
    h1_u = math.sqrt(float(np.einsum("q,m,mqcd,mqcd->", w, det, dgu, dgu)))

    area = 0.5 * float(det.sum())
    ph = np.einsum("qk,mk->mq", P1, sol.p.reshape(-1, 3))
    pex = np.asarray(case.p(pts))
    mean_h = float(np.einsum("q,m,mq->", w, det, ph)) / area
    mean_ex = float(np.einsum("q,m,mq->", w, det, pex)) / area
    dp = (ph - mean_h) - (pex - mean_ex)
    l2_p = math.sqrt(float(np.einsum("q,m,mq,mq->", w, det, dp, dp)))

    grad_ref = np.einsum("qna,mnc->mqca", verify._VERTEX_GRADS, coeffs)
    linf_div = float(np.abs(np.einsum("mca,mqca->mq", invT, grad_ref)).max())

    mu_coeff = np.asarray(case.p(layout.mult_coords))
    bound_len = float(bqd.ds.sum())
    vals_mu = multiplier_values_on_edges(bqd, mu_coeff)
    vals_lam = multiplier_values_on_edges(bqd, sol.lam)
    mean_mu = float(np.sum(bqd.ds * vals_mu)) / bound_len
    mean_lam = float(np.sum(bqd.ds * vals_lam)) / bound_len
    diff = (vals_lam - mean_lam) - (vals_mu - mean_mu)
    lam_diag = math.sqrt(float(np.sum(bqd.ds * bqd.lengths[:, None] * diff ** 2)))
    return {"l2_u": l2_u, "h1_u": h1_u, "l2_p": l2_p, "linf_div": linf_div,
            "lam_diag": lam_diag}


def rhs_einsum(f, g, ct, layout, bqd, nu, sigma):
    """assembly.assemble_rhs, as einsums."""
    W, P1, P2 = assembly._W, assembly._P1, assembly._P2
    rhs = np.zeros(layout.n_total)
    det, _, _ = element_maps(ct)
    points = np.einsum("qk,mkc->mqc", P1, ct.vertices[ct.triangles])
    fvals = np.asarray(f(points)) / nu
    fe = np.einsum("q,m,mqc,qi->mic", W, det, fvals, P2.vals)
    np.add.at(rhs, vector_dofs(layout.elem_nodes).ravel(), fe.ravel())

    gm = np.asarray(g(bqd.x_star))
    ge = (np.einsum("bq,bqi,bqc->bic", bqd.ds, bqd.dn, gm)
          + sigma * np.einsum("bq,b,bqi,bqc->bic", bqd.ds,
                              1.0 / bqd.lengths, bqd.sh, gm))
    np.add.at(rhs, vector_dofs(bqd.elem_nodes).ravel(), ge.ravel())

    gn = np.einsum("bqc,bc->bq", gm, bqd.normals)
    gmu = np.einsum("bq,bq,qm->bm", bqd.ds, gn, assembly.EDGE_MU)
    np.add.at(rhs, layout.offset_lam + bqd.edge_mult.ravel(), gmu.ravel())
    return rhs


def velocity_triplets(nodes_rows, nodes_cols, blocks):
    """Per-element (E, n, m) blocks scattered into both velocity
    components, x then y, as triplets."""
    x = assembly._triplets(2 * nodes_rows, 2 * nodes_cols, blocks)
    y = assembly._triplets(2 * nodes_rows + 1, 2 * nodes_cols + 1, blocks)
    return tuple(np.concatenate(pair) for pair in zip(x, y))


def velocity_forms_per_component(ct, layout, bqd, sigma):
    """assemble_stiffness, assemble_a and gram_h1_velocity, each component's
    triplets built, sorted and summed: (K, a, gram)."""
    Ke = assembly._stiffness_triplets(ct, layout)[2].reshape(-1, 6, 6)
    ds = bqd.ds[..., None]
    Tb = (np.swapaxes(assembly._test_traces(bqd, sigma), 1, 2) @ (ds * bqd.sh)
          - assembly.EDGE_P2.vals.T @ (ds * bqd.dn))
    Me = np.broadcast_to(assembly.EDGE_MASS, (len(bqd.lengths), 6, 6))
    shape, nodes, edge_nodes = (layout.n_u, layout.n_u), layout.elem_nodes, bqd.elem_nodes
    stiffness = velocity_triplets(nodes, nodes, Ke)
    K = assembly._sparse(shape, stiffness)
    a = assembly._sparse(shape, stiffness, velocity_triplets(edge_nodes, edge_nodes, Tb))
    M = assembly._sparse(shape, velocity_triplets(edge_nodes, edge_nodes, Me))
    return K, a, (K + M).tocsr()


def compose_bmat(blocks):
    """compose_system's matrix through sp.bmat and its COO copy."""
    m_q = sp.csr_matrix(blocks.m_q[:, None])
    m_mu = sp.csr_matrix(blocks.m_mu[:, None])
    c_n = sp.csr_matrix(blocks.c_n[:, None])
    return sp.bmat([
        [blocks.a, blocks.B_div.T, blocks.B_lam.T, None, None, c_n],
        [blocks.B_div, None, None, m_q, None, None],
        [blocks.B_lam_e, None, None, None, m_mu, None],
        [None, m_q.T, None, None, None, None],
        [None, None, m_mu.T, None, None, None],
        [c_n.T, None, None, None, None, None],
    ], format="csr")


def boundary_traces_per_point(ct, bqd, dom):
    """sh and dn of build_boundary_data, point by point: each rule point
    mapped to reference coordinates, the P2 basis evaluated there, its
    gradients pushed forward by J^-T and its Hessians by J^-T H J^-1."""
    B, Q = bqd.delta.shape
    tris = ct.boundary_tris
    _, inv, invT = element_maps(ct)
    v0 = ct.vertices[ct.triangles[tris, 0]]
    ref = np.einsum("bij,bqj->bqi", inv[tris], bqd.points - v0[:, None, :])
    basis = eval_p2(ref.reshape(-1, 2))
    vals = basis.vals.reshape(B, Q, 6)
    grads = np.einsum("bij,bqnj->bqni", invT[tris], basis.grads.reshape(B, Q, 6, 2))
    hess = np.einsum("bij,njk,bkl->bnil", invT[tris], basis.hessians, inv[tris])
    dirs = project_points(dom, bqd.points.reshape(-1, 2))[2].reshape(B, Q, 2)
    first = np.einsum("bqnc,bqc->bqn", grads, dirs)
    second = np.einsum("bqc,bncd,bqd->bqn", dirs, hess, dirs)
    d = bqd.delta[..., None]
    sh = vals + d * first + 0.5 * d ** 2 * second
    dn = np.einsum("bqnc,bc->bqn", grads, bqd.normals)
    return sh, dn


def boundary_blocks_einsum(layout, bqd, sigma):
    """The boundary parts of assemble_a, assemble_b, assemble_be,
    assemble_constraints and the two boundary Gram matrices, as einsums."""
    V, mu = assembly.EDGE_P2.vals, assembly.EDGE_MU
    ds, h, n = bqd.ds, bqd.lengths, bqd.normals
    Tb = (-np.einsum("bq,qi,bqj->bij", ds, V, bqd.dn)
          + np.einsum("bq,bqi,bqj->bij", ds, bqd.dn, bqd.sh)
          + sigma * np.einsum("bq,b,bqi,bqj->bij", ds, 1.0 / h, bqd.sh, bqd.sh))
    L = np.einsum("bq,qm,qi,bc->bmic", ds, mu, V, n)
    Le = np.einsum("bq,qm,bqi,bc->bmic", ds, mu, bqd.sh, n)
    m_mu = np.zeros(layout.n_lam)
    np.add.at(m_mu, bqd.edge_mult.ravel(), np.einsum("bq,qm->bm", ds, mu).ravel())
    c_n = np.zeros(layout.n_u)
    np.add.at(c_n, vector_dofs(bqd.elem_nodes).ravel(),
              np.einsum("bq,qi,bc->bic", ds, V, n).ravel())
    Mu = np.einsum("bq,b,qi,qj->bij", ds, 1.0 / h, V, V)
    Mlam = np.einsum("bq,b,qi,qj->bij", ds, h, mu, mu)

    nodes, mult, udofs = bqd.elem_nodes, bqd.edge_mult, vector_dofs(bqd.elem_nodes)
    n_u, n_lam = layout.n_u, layout.n_lam
    sparse, triplets = assembly._sparse, assembly._triplets
    return {"a": sparse((n_u, n_u), velocity_triplets(nodes, nodes, Tb)),
            "B_lam": sparse((n_lam, n_u), triplets(mult, udofs, L)),
            "B_lam_e": sparse((n_lam, n_u), triplets(mult, udofs, Le)),
            "m_mu": m_mu, "c_n": c_n,
            "gram_u": sparse((n_u, n_u), velocity_triplets(nodes, nodes, Mu)),
            "gram_lam": sparse((n_lam, n_lam), triplets(mult, mult, Mlam))}


def stiffness_blocks_einsum(ct):
    """Element stiffness blocks (M, 6, 6), test i, trial j, as einsums."""
    det, inv, _ = element_maps(ct)
    metric = det[:, None, None] * np.einsum("mac,mbc->mab", inv, inv)
    return np.einsum("mab,abij->mij", metric, assembly._K_REF)


def divergence_blocks_einsum(ct):
    """Element blocks (M, 3, 6, 2) of B_div, as an einsum."""
    det, _, invT = element_maps(ct)
    return -np.einsum("m,mca,kia->mkic", det, invT, assembly._B_REF)


def interior_blocks_coo(A, interior):
    """The (T, 16, 16) macro blocks of A: its interior block copied to COO
    and scattered by row // 16."""
    inner = interior.ravel()
    A_II = A[inner][:, inner].tocoo()
    assert np.all(A_II.row // 16 == A_II.col // 16)
    blocks = np.zeros((len(interior), 16, 16))
    blocks[A_II.row // 16, A_II.row % 16, A_II.col % 16] = A_II.data
    return blocks


def interior_inverse_slogdet(blocks):
    """solver._interior_inverse with an slogdet pre-pass: an exactly
    singular B or C, a zero LU pivot, is inverted as the identity and
    given an infinite condition number."""
    a, C, B = blocks[:, :8, :8], blocks[:, :8, 8:], blocks[:, 8:, :8]
    pair = np.stack([B, C], axis=1)
    exact = np.linalg.slogdet(pair)[0] == 0
    pinv = np.linalg.inv(np.where(exact[..., None, None], np.eye(8), pair))
    cond = np.abs(pair).sum(axis=-2).max(axis=-1) * np.abs(pinv).sum(axis=-2).max(axis=-1)
    cond[exact] = np.inf
    singular = cond >= 1.0 / (8 * np.finfo(float).eps)
    if singular.any():
        t, k = np.argwhere(singular)[0]
        name = ("divergence", "momentum pressure")[k]
        raise SolverError(f"macro {t}: interior {name} block is singular to "
                          f"working precision (1-norm condition number "
                          f"{cond[t, k]:.1e})")
    Binv, Cinv = np.moveaxis(pinv, 1, 0)
    inv = np.zeros_like(blocks)
    inv[:, :8, 8:] = Binv
    inv[:, 8:, :8] = Cinv
    inv[:, 8:, 8:] = -Cinv @ a @ Binv
    return inv


def condensed_schur_coo(A, layout):
    """The condensed matrix M of factorize, with the inverses of
    interior_blocks_coo and interior_inverse_slogdet rebuilt as a
    block-diagonal BSR matrix and the Schur complement formed in one
    product."""
    A = A.tocsr()
    n, T = A.shape[0], len(layout.interior)
    inner = layout.interior.ravel()
    kept = np.setdiff1d(np.arange(n), inner)
    inv = interior_inverse_slogdet(interior_blocks_coo(A, layout.interior))
    inv_sp = sp.bsr_matrix((inv, np.arange(T), np.arange(T + 1)),
                           shape=(16 * T, 16 * T))
    P = (inv_sp @ A[inner][:, kept].tocsr()).tocsr()
    rows = A[kept]
    return sp.vstack([rows[:, kept] - rows[:, inner].tocsr() @ P], format="csr")


CASES = {"star": (star_domain(), 8),
         "circle": (circle_domain((0.45, 0.52), 0.35), 16)}


@pytest.fixture(scope="module", params=sorted(CASES))
def solved(request):
    """A level, a case and the case's solution on it."""
    dom, n = CASES[request.param]
    level = build_level(dom, n, 40.0)
    case = paper_case(0.1)
    return level, case, solve_on_level(level, case)[0]


@pytest.fixture(scope="module", params=sorted(CASES))
def level(request):
    """A level that no test solves on."""
    dom, n = CASES[request.param]
    return build_level(dom, n, 40.0)


def _rel(x, ref):
    """Largest entry of x - ref relative to the largest of ref, dense or sparse."""
    return abs(x - ref).max() / abs(ref).max()


@pytest.mark.parametrize("name", sorted(CASES))
def test_boundary_traces_match_per_point_path(name):
    dom, n = CASES[name]
    level = build_level(dom, n, 40.0)
    bqd = level.bqd
    sh, dn = boundary_traces_per_point(level.ct, bqd, dom)
    assert _rel(bqd.sh, sh) <= 1e-12
    assert _rel(bqd.dn, dn) <= 1e-12


def assert_same_csr(A, ref):
    """A and ref are the same CSR arrays, bit for bit."""
    assert A.format == ref.format == "csr" and A.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(A, name), getattr(ref, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_velocity_forms_and_composition_match_per_component_assembly(level):
    ct, layout, bqd, blocks = level.ct, level.layout, level.bqd, level.blocks
    K, a, gram = velocity_forms_per_component(ct, layout, bqd, level.sigma)
    assert_same_csr(assemble_stiffness(ct, layout), K)
    assert_same_csr(assemble_a(ct, layout, bqd, level.sigma), a)
    assert_same_csr(gram_h1_velocity(ct, layout, bqd), gram)
    assert_same_csr(compose_system(blocks, layout).matrix, compose_bmat(blocks))


def test_boundary_blocks_match_einsum_reference(level):
    ct, layout, bqd = level.ct, level.layout, level.bqd
    ref = boundary_blocks_einsum(layout, bqd, level.sigma)
    K = assemble_stiffness(ct, layout)
    _, B_lam = assemble_b(ct, layout, bqd)
    _, m_mu, c_n = assemble_constraints(ct, layout, bqd)
    found = {"a": assemble_a(ct, layout, bqd, level.sigma) - K, "B_lam": B_lam,
             "B_lam_e": assemble_be(layout, bqd), "m_mu": m_mu, "c_n": c_n,
             "gram_u": gram_h1_velocity(ct, layout, bqd) - K,
             "gram_lam": gram_multiplier(layout, bqd)}
    for name, value in found.items():
        assert _rel(value, ref[name]) <= 1e-12, name


def test_errors_match_einsum_reference(solved, monkeypatch):
    level, case, sol = solved
    ref = errors_einsum(sol, case, level.ct, level.layout, level.bqd)
    # one block of elements, and blocks of 32 (3 or more on both meshes)
    for block in (verify.ERROR_BLOCK, 32):
        monkeypatch.setattr(verify, "ERROR_BLOCK", block)
        report = compute_errors(sol, case, level)
        for name in ("l2_u", "h1_u", "l2_p", "lam_diag"):
            value = getattr(report, name)
            assert value == pytest.approx(ref[name], rel=1e-12, abs=0.0), name
        assert abs(report.linf_div - ref["linf_div"]) <= 1e-14


def test_error_blocks_leave_norms_unchanged(solved, monkeypatch):
    level, case, sol = solved
    ct = level.ct
    assert ct.n_triangles <= verify.ERROR_BLOCK
    whole = compute_errors(sol, case, level)
    # 3 blocks of the star at n = 8, 15 of the circle at n = 16
    monkeypatch.setattr(verify, "ERROR_BLOCK", 32)
    assert ct.n_triangles > 2 * verify.ERROR_BLOCK
    blocked = compute_errors(sol, case, level)
    for name in ("l2_u", "h1_u", "l2_p", "linf_div"):
        assert getattr(blocked, name) == getattr(whole, name), name


def test_rhs_matches_einsum_reference(solved):
    level, case, _ = solved
    ct, layout, bqd = level.ct, level.layout, level.bqd
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, case.nu, level.sigma)
    ref = rhs_einsum(case.f, case.u, ct, layout, bqd, case.nu, level.sigma)
    assert np.abs(rhs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_element_blocks_match_einsum_reference(solved):
    level = solved[0]
    ct, layout, bqd = level.ct, level.layout, level.bqd
    nodes = layout.elem_nodes
    Ke = assembly._stiffness_triplets(ct, layout)[2]
    ref = stiffness_blocks_einsum(ct).ravel()
    assert np.abs(Ke - ref).max() <= 1e-12 * np.abs(ref).max()
    # each pressure row belongs to one micro triangle and each of its
    # velocity columns appears once there, so the entries of B_div are the
    # element blocks' entries
    B_div = assemble_b(ct, layout, bqd)[0]
    ref = assembly._sparse(B_div.shape, assembly._triplets(
        assembly._pressure_dofs(ct), vector_dofs(nodes), divergence_blocks_einsum(ct)))
    assert abs(B_div - ref).max() <= 1e-12 * abs(ref).max()


def test_condensation_matches_coo_reference(level):
    layout = level.layout
    A = compose_system(level.blocks, layout).matrix
    inner = layout.interior.ravel()
    ref = interior_blocks_coo(A, layout.interior)
    found = A[inner][:, inner].tobsr(blocksize=(16, 16)).data
    assert found.tobytes() == ref.tobytes()
    inv = interior_inverse_slogdet(ref)
    assert solver._interior_inverse(found).tobytes() == inv.tobytes()
    lu = factorize(A, layout)
    assert lu.inv.tobytes() == inv.tobytes()
    M_ref = condensed_schur_coo(A, layout)
    for name in ("indptr", "indices", "data"):
        assert getattr(lu.M, name).tobytes() == getattr(M_ref, name).tobytes(), name


@pytest.mark.parametrize("scale", [0.0, 1e-16])
@pytest.mark.parametrize("block", ["divergence", "momentum pressure"])
def test_singular_macro_diagnosis_matches_slogdet_reference(level, block, scale):
    # macro 17 with its continuity rows or pressure columns zeroed (exactly
    # singular), or the second of them scaled by 1e-16 as tests/test_solver.py
    # scales it (condition number above 1 / (8 eps))
    layout = level.layout
    t = 17
    keep = np.ones(layout.n_total)
    keep[layout.offset_p + 9 * t + (np.arange(9) if scale == 0.0 else 1)] = scale
    A = compose_system(level.blocks, layout).matrix
    A = (sp.diags(keep) @ A if block == "divergence" else A @ sp.diags(keep)).tocsr()
    with pytest.raises(SolverError) as ref:
        interior_inverse_slogdet(interior_blocks_coo(A, layout.interior))
    with pytest.raises(SolverError) as found:
        factorize(A, layout)
    assert str(found.value) == str(ref.value)
    assert str(ref.value).startswith(f"macro {t}: interior {block} block is singular")
    assert str(ref.value).endswith("(1-norm condition number inf)") == (scale == 0.0)


@pytest.mark.parametrize("side", ["rows", "columns"])
def test_macro_without_interior_entries_matches_slogdet_reference(level, side):
    # the 16 interior rows or columns of macro 17 zeroed: its block is not
    # stored at all.  The reference, on zero-filled blocks, finds the zero
    # divergence block exactly singular; the factor rejects the missing
    # block by its one structure check
    layout = level.layout
    t = 17
    keep = np.ones(layout.n_total)
    keep[layout.interior[t]] = 0.0
    A = compose_system(level.blocks, layout).matrix
    A = (sp.diags(keep) @ A if side == "rows" else A @ sp.diags(keep)).tocsr()
    assert A[layout.interior[t]][:, layout.interior[t]].nnz == 0
    with pytest.raises(SolverError) as ref:
        interior_inverse_slogdet(interior_blocks_coo(A, layout.interior))
    with pytest.raises(SolverError) as found:
        factorize(A, layout)
    assert str(ref.value) == (
        f"macro {t}: interior divergence block is singular to working precision "
        "(1-norm condition number inf)")
    assert str(found.value) == ("interior unknowns of different macros are "
                                "coupled, or a macro has none")
