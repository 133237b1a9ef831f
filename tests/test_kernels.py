"""The per-element contractions against their einsum forms.

The error norms, the load vector and the element blocks contract reference
tables with per-element data as batched matmuls.  The references below are
the same contractions written as multi-operand einsums, index by index;
the two orders of summation agree to rounding.
"""

import math

import numpy as np
import pytest

from conftest import make_level, solve_case
from ctstokes import assembly, verify
from ctstokes.assembly import assemble_b, assemble_rhs
from ctstokes.fem import element_maps, vector_dofs
from ctstokes.geometry import circle_domain, star_domain
from ctstokes.verify import (compute_errors, multiplier_values_on_edges,
                             paper_case)


def errors_einsum(sol, case, ct, layout, bqd):
    """The five error fields of verify.compute_errors, as einsums."""
    w = verify._ERROR_RULE.weights
    P1, P2 = verify._ERROR_P1, verify._ERROR_P2
    _, det, _, invT = element_maps(ct)
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
    vals_mu = multiplier_values_on_edges(layout, bqd, mu_coeff)
    vals_lam = multiplier_values_on_edges(layout, bqd, sol.lam)
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
    _, det, _, _ = element_maps(ct)
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
    gmu = np.einsum("bq,bq,qm->bm", bqd.ds, gn, bqd.mu)
    np.add.at(rhs, layout.offset_lam + bqd.edge_mult.ravel(), gmu.ravel())
    return rhs


def stiffness_blocks_einsum(ct):
    """Element stiffness blocks (M, 6, 6), test i, trial j, as einsums."""
    _, det, inv, _ = element_maps(ct)
    metric = det[:, None, None] * np.einsum("mac,mbc->mab", inv, inv)
    return np.einsum("mab,abij->mij", metric, assembly._K_REF)


def divergence_blocks_einsum(ct):
    """Element blocks (M, 3, 6, 2) of B_div, as an einsum."""
    _, det, _, invT = element_maps(ct)
    return -np.einsum("m,mca,kia->mkic", det, invT, assembly._B_REF)


CASES = {"star": (star_domain(), 8),
         "circle": (circle_domain((0.45, 0.52), 0.35), 16)}


@pytest.fixture(scope="module", params=sorted(CASES))
def solved(request):
    dom, n = CASES[request.param]
    ct, layout, bqd, blocks = make_level(dom, n)
    case = paper_case(0.1)
    return ct, layout, bqd, blocks, case, solve_case(ct, layout, bqd, blocks, case)


def test_errors_match_einsum_reference(solved):
    ct, layout, bqd, _, case, sol = solved
    report = compute_errors(sol, case, ct, layout, bqd)
    ref = errors_einsum(sol, case, ct, layout, bqd)
    for name in ("l2_u", "h1_u", "l2_p", "lam_diag"):
        value = getattr(report, name)
        assert value == pytest.approx(ref[name], rel=1e-12, abs=0.0), name
    assert abs(report.linf_div - ref["linf_div"]) <= 1e-14


def test_rhs_matches_einsum_reference(solved):
    ct, layout, bqd, _, case, _ = solved
    rhs = assemble_rhs(case.f, case.u, ct, layout, bqd, case.nu, 40.0)
    ref = rhs_einsum(case.f, case.u, ct, layout, bqd, case.nu, 40.0)
    assert np.abs(rhs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_element_blocks_match_einsum_reference(solved):
    ct, layout, bqd, _, _, _ = solved
    nodes = layout.elem_nodes
    Ke = assembly._stiffness_triplets(ct, layout)[2]
    ref = assembly._velocity_triplets(nodes, nodes, stiffness_blocks_einsum(ct))[2]
    assert np.abs(Ke - ref).max() <= 1e-12 * np.abs(ref).max()
    # each pressure row belongs to one micro triangle and each of its
    # velocity columns appears once there, so the entries of B_div are the
    # element blocks' entries
    B_div = assemble_b(ct, layout, bqd)[0]
    ref = assembly._sparse(B_div.shape, assembly._triplets(
        assembly._pressure_dofs(ct), vector_dofs(nodes), divergence_blocks_einsum(ct)))
    assert abs(B_div - ref).max() <= 1e-12 * abs(ref).max()
