"""Divergence-free Stokes solver on unfitted meshes.

Continuous piecewise-quadratic velocity / discontinuous piecewise-linear
pressure on barycentric-refined triangulations, with boundary conditions
transferred from the physical boundary to the mesh boundary by a
second-order Taylor correction and enforced through a non-symmetric
Nitsche form plus a boundary Lagrange multiplier.
"""

from .geometry import LevelSetDomain, circle_domain, star_domain
from .mesh import (CtMesh, MacroMesh, build_type1_mesh, check_assumption_a,
                   clip_to_interior, clough_tocher, extract_boundary)
from .fem import DofLayout, build_dof_layout, edge_rule, eval_p1, eval_p2, triangle_rule
from .assembly import SaddleSystem
from .solver import solve_direct
from .verify import (ErrorReport, ManufacturedCase, RateTable, SolutionFields,
                     compute_errors, infsup_estimate, paper_case, patch_case,
                     run_convergence, solve_on_level)

__all__ = [
    "LevelSetDomain", "circle_domain", "star_domain",
    "MacroMesh", "CtMesh", "build_type1_mesh",
    "clip_to_interior", "clough_tocher", "extract_boundary",
    "check_assumption_a",
    "DofLayout", "build_dof_layout", "triangle_rule", "edge_rule",
    "eval_p1", "eval_p2",
    "SaddleSystem",
    "SolutionFields", "solve_direct",
    "ManufacturedCase", "ErrorReport", "RateTable", "paper_case",
    "patch_case", "compute_errors", "run_convergence", "solve_on_level",
    "infsup_estimate",
]

__version__ = "0.1.0"
