"""Command-line entry point: single solves and convergence studies.

Defaults reproduce the reference study: flower-shaped domain, penalty 40,
viscosities 1e-1, 1e-3, 1e-5 on refinements n = 8, 16, 32, 64, 128 of the
unit square.  Each command takes only the options it uses, and the command
line is their only source.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import verify
from .geometry import ProjectionError, circle_domain, star_domain
from .mesh import MeshError, write_vtk
from .solver import SolverError
from .verify import (StudyError, build_level, infsup_estimate, paper_case,
                     run_convergence, write_json)

DEFAULT_LEVELS = (8, 16, 32, 64, 128)
DEFAULT_NUS = (1e-1, 1e-3, 1e-5)
CIRCLE_DEFAULTS = {"radius": 0.4, "center": (0.5, 0.5)}  # set only with --domain circle


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # every usage error ends in main as `error: …`
        raise UsageError(message)


def _typed(cast, what, ok, into=list):
    """argparse type: comma- or space-separated `cast` values that pass `ok`."""
    def convert(text):
        try:
            values = [cast(tok) for tok in text.replace(",", " ").split()]
        except ValueError:
            values = None
        if values is None or not ok(values):
            raise argparse.ArgumentTypeError(f"expected {what}, got '{text}'")
        return into(values)
    return convert


def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  Options match by their full names only."""
    common = _Parser(add_help=False, allow_abbrev=False)
    opt = common.add_argument
    positive = _typed(float, "a positive number",
                      lambda v: len(v) == 1 and 0 < v[0] < np.inf,
                      into=lambda v: v[0])
    opt("--domain", choices=("star", "circle"), default="star")
    opt("--radius", type=positive)
    opt("--center", type=_typed(float, "two coordinates x,y",
                                lambda v: len(v) == 2 and np.isfinite(v).all(),
                                into=tuple),
        help="circle center as 'x,y'")
    opt("--levels", type=_typed(int, "positive integers",
                                lambda v: v and min(v) >= 1),
        default=list(DEFAULT_LEVELS), help="comma-separated refinement levels")
    opt("--nu", dest="nus", type=_typed(
            float, "distinct positive viscosities",
            lambda v: v and all(0 < x < np.inf for x in v) and len(set(v)) == len(v)),
        default=list(DEFAULT_NUS), help="comma-separated viscosities")
    opt("--sigma", type=positive, default=40.0)
    opt("--out", default="results")
    parser = _Parser(prog="ctstokes", allow_abbrev=False,
                     description="Divergence-free Stokes solver on unfitted meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="single solves, one per level/viscosity",
                           parents=[common], allow_abbrev=False)
    solve.add_argument("--format", dest="formats", default=["json"],
                       type=_typed(str, "formats among json, vtk",
                                   lambda v: v and set(v) <= {"json", "vtk"}),
                       help="comma-separated output formats")
    solve.add_argument("--infsup", action="store_true")
    sub.add_parser("converge", help="refinement study with rate tables",
                   parents=[common], allow_abbrev=False)
    return parser


def parse_config(argv) -> tuple:
    """Parse the command line into (command, options)."""
    args = _build_parser().parse_args(argv)
    for name, default in CIRCLE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.domain != "circle":
            raise UsageError(f"argument --{name}: not allowed with "
                             f"--domain {args.domain}")
    return args.command, args


def make_domain(cfg):
    """The configured domain, validated.

    Raises:
        UsageError: the level set fails LevelSetDomain.validate.
    """
    if cfg.domain == "star":
        dom = star_domain()
    else:
        dom = circle_domain(cfg.center, cfg.radius)
    try:
        dom.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return dom


def _report_lines(report) -> str:
    return (f"n={report.n} nu={report.nu:g}: l2_u={report.l2_u:.6e} "
            f"h1_u={report.h1_u:.6e} l2_p={report.l2_p:.6e} "
            f"linf_div={report.linf_div:.3e} delta_ratio="
            f"{report.max_delta_ratio:.3f} residual={report.residual:.2e}")


def _divergence_ok(report) -> bool:
    """Pointwise divergence contract: at most 1e-8, or 1e3 x the residual.

    A violation is reported with nu and sigma, the two inputs that break
    the guarantee while the solve succeeds: an extreme penalty at a coarse
    level, or a tiny viscosity, whose |grad u_h| of order 1/nu lifts the
    rounding of the divergence above the absolute bound."""
    bound = max(1e-8, 1e3 * report.residual)
    if report.linf_div <= bound:
        return True
    print(f"n={report.n} nu={report.nu:g}: divergence contract violated: "
          f"linf_div={report.linf_div:.3e} > {bound:.3e} = max(1e-8, 1e3 x "
          f"residual={report.residual:.2e}) at nu={report.nu:g}, "
          f"sigma={report.sigma:g}", file=sys.stderr)
    return False


def _export_vtk(path, level, sol):
    uh = np.column_stack([sol.u[0:2 * level.ct.n_vertices:2],
                          sol.u[1:2 * level.ct.n_vertices:2]])
    p_cells = sol.p.reshape(-1, 3).mean(axis=1)
    div_cells = verify._divergence_at_vertices(level.ct, level.layout,
                                               sol.u).max(axis=1)
    write_vtk(path, level.ct, point_data={"velocity": uh},
              cell_data={"pressure": p_cells, "div_u": div_cells})


def cmd_solve(cfg: argparse.Namespace) -> int:
    """One solve per (level, viscosity); writes per-run reports."""
    dom = make_domain(cfg)
    outdir = Path(cfg.out)
    ok = True
    reports = []
    for n in cfg.levels:
        level = build_level(dom, n, cfg.sigma)
        outdir.mkdir(parents=True, exist_ok=True)   # once a level resolves
        if cfg.infsup:
            beta = infsup_estimate(level.ct, level.layout, level.bqd)
            print(f"n={n}: inf-sup estimate = {beta:.6f}")
        for nu in cfg.nus:
            case = paper_case(nu)
            try:
                sol, report = verify.solve_on_level(level, case)
            except SolverError as exc:
                print(f"n={n} nu={nu:g}: SOLVE FAILED: {exc}", file=sys.stderr)
                ok = False
                continue
            reports.append(report)
            print(_report_lines(report))
            ok = _divergence_ok(report) and ok
            if "vtk" in cfg.formats:
                _export_vtk(outdir / f"solution_n{n}_nu{nu:g}.vtk", level, sol)
    if "json" in cfg.formats:
        write_json(outdir / "solve_reports.json", [r.as_dict() for r in reports])
    return 0 if ok else 1


def cmd_converge(cfg: argparse.Namespace) -> int:
    """Refinement study over all configured levels and viscosities; the
    output directory is made once the study has run."""
    if len(cfg.levels) < 2:
        raise UsageError("convergence study needs at least two levels")
    dom = make_domain(cfg)
    try:
        tables = run_convergence(dom, cfg.levels, cfg.nus, cfg.sigma,
                                 progress=lambda r: print(_report_lines(r)))
    except StudyError as exc:
        raise UsageError(str(exc)) from exc
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ok = True
    for nu, table in sorted(tables.items()):
        table.write_csv(outdir / f"convergence_nu{nu:g}.csv")
        for r in table.reports:
            ok = _divergence_ok(r) and ok
    write_json(outdir / "convergence.json",
               {f"{nu:g}": table.as_dict() for nu, table in sorted(tables.items())})
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        command, cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if command == "solve":
            return cmd_solve(cfg)
        return cmd_converge(cfg)
    except (UsageError, MeshError, ProjectionError) as exc:
        # build_level names the level in mesh and projection failures
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        # run_convergence names the level and viscosity of a failed solve
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
