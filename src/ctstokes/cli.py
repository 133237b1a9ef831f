"""Command-line entry point: single solves and convergence studies.

Defaults reproduce the reference study: flower-shaped domain, penalty 40,
viscosities 1e-1, 1e-3, 1e-5 on refinements n = 8, 16, 32, 64, 128 of the
unit square.  A flat key=value config file can seed any option; command-line
flags override file values, and the CTSTOKES_OUTDIR environment variable
overrides the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

from . import verify
from .geometry import ProjectionError, circle_domain, star_domain
from .mesh import ASSUMPTION_THRESHOLD, MeshError, write_vtk
from .solver import SolverError, dump_matrix_market
from .verify import (build_level, infsup_estimate, paper_case, run_convergence,
                     write_json)

DEFAULT_LEVELS = (8, 16, 32, 64, 128)
DEFAULT_NUS = (1e-1, 1e-3, 1e-5)
OUTDIR_ENV = "CTSTOKES_OUTDIR"
TRUE_WORDS = ("1", "true", "yes", "on")     # config-file flag values
FALSE_WORDS = ("0", "false", "no", "off")


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run options shared by both commands."""

    domain: str = "star"
    radius: float = 0.4
    center: tuple = (0.5, 0.5)
    levels: List[int] = field(default_factory=lambda: list(DEFAULT_LEVELS))
    nus: List[float] = field(default_factory=lambda: list(DEFAULT_NUS))
    sigma: float = 40.0
    out: str = "results"
    formats: List[str] = field(default_factory=lambda: ["csv", "json"])
    check_assumption: bool = False
    infsup: bool = False
    dump_matrix: bool = False

    def validate(self) -> None:
        if self.domain not in ("star", "circle"):
            raise UsageError(f"unknown domain '{self.domain}'")
        if self.sigma <= 0:
            raise UsageError("sigma must be positive")
        if not self.levels:
            raise UsageError("levels list must not be empty")
        if any(n < 1 for n in self.levels):
            raise UsageError("levels must be positive integers")
        if not self.nus or any(nu <= 0 for nu in self.nus):
            raise UsageError("viscosities must be positive")
        if self.radius <= 0:
            raise UsageError("radius must be positive")
        bad = [f for f in self.formats if f not in ("csv", "json", "vtk")]
        if bad:
            raise UsageError(f"unknown output format(s): {', '.join(bad)}")

    def make_domain(self):
        if self.domain == "star":
            return star_domain()
        return circle_domain(self.center, self.radius)


def _parse_list(text, cast):
    return [cast(tok) for tok in str(text).replace(",", " ").split()]


def _read_config_file(path) -> dict:
    """Flat key = value file; blank lines and #-comments ignored."""
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctstokes",
        description="Divergence-free Stokes solver on unfitted meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("solve", "single solves, one per level/viscosity"),
                            ("converge", "refinement study with rate tables")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--domain", choices=("star", "circle"))
        p.add_argument("--radius", type=float)
        p.add_argument("--center", help="circle center as 'x,y'")
        p.add_argument("--levels", help="comma-separated refinement levels")
        p.add_argument("--nu", dest="nus", help="comma-separated viscosities")
        p.add_argument("--sigma", type=float)
        p.add_argument("--out")
        p.add_argument("--format", dest="formats",
                       help="comma-separated output formats (csv,json,vtk)")
        p.add_argument("--check-assumption", action="store_true", default=None,
                       dest="check_assumption")
        p.add_argument("--infsup", action="store_true", default=None)
        p.add_argument("--dump-matrix", action="store_true", default=None,
                       dest="dump_matrix")
    return parser


def parse_config(argv) -> tuple:
    """Parse command-line arguments (and optional config file) into a RunConfig."""
    args = _build_parser().parse_args(argv)
    cfg = RunConfig()

    options = set(vars(args)) - {"command", "config"}
    file_values = _read_config_file(args.config) if args.config else {}
    # the file may name a list option by its flag (nu, format)
    aliases = {"nu": "nus", "format": "formats"}
    file_values = {aliases.get(k, k): v for k, v in file_values.items()}
    unknown = sorted(set(file_values) - options)
    if unknown:
        raise UsageError(f"{args.config}: unknown key(s): {', '.join(unknown)}")
    merged = dict(file_values)
    for key in options:
        cli_val = getattr(args, key)
        if cli_val is not None:
            merged[key] = cli_val

    try:
        if "domain" in merged:
            cfg.domain = str(merged["domain"])
        if "radius" in merged:
            cfg.radius = float(merged["radius"])
        if "center" in merged:
            c = _parse_list(merged["center"], float)
            if len(c) != 2:
                raise UsageError("center needs exactly two coordinates")
            cfg.center = tuple(c)
        if "levels" in merged:
            cfg.levels = _parse_list(merged["levels"], int)
        if "nus" in merged:
            cfg.nus = _parse_list(merged["nus"], float)
        if "sigma" in merged:
            cfg.sigma = float(merged["sigma"])
        if "out" in merged:
            cfg.out = str(merged["out"])
        if "formats" in merged:
            val = merged["formats"]
            cfg.formats = _parse_list(val, str) if isinstance(val, str) else list(val)
        for flag in ("check_assumption", "infsup", "dump_matrix"):
            if flag in merged:
                word = str(merged[flag]).lower()   # a word from the file, or True
                if word not in TRUE_WORDS + FALSE_WORDS:
                    raise UsageError(f"{flag} = {merged[flag]}: expected "
                                     "1/true/yes/on or 0/false/no/off")
                setattr(cfg, flag, word in TRUE_WORDS)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc

    if OUTDIR_ENV in os.environ:
        cfg.out = os.environ[OUTDIR_ENV]
    cfg.validate()
    return args.command, cfg


def _report_lines(report) -> str:
    return (f"n={report.n} nu={report.nu:g}: l2_u={report.l2_u:.6e} "
            f"h1_u={report.h1_u:.6e} l2_p={report.l2_p:.6e} "
            f"linf_div={report.linf_div:.3e} delta_ratio="
            f"{report.max_delta_ratio:.3f} residual={report.residual:.2e}")


def _divergence_ok(report) -> bool:
    """Pointwise divergence contract: at most 1e-8, or 1e3 x the residual."""
    if report.linf_div <= max(1e-8, 1e3 * report.residual):
        return True
    print(f"n={report.n} nu={report.nu:g}: divergence contract violated",
          file=sys.stderr)
    return False


def _export_vtk(path, level, sol):
    uh = np.column_stack([sol.u[0:2 * level.ct.n_vertices:2],
                          sol.u[1:2 * level.ct.n_vertices:2]])
    p_cells = sol.p.reshape(-1, 3).mean(axis=1)
    div_cells = verify._divergence_at_vertices(level.ct, level.layout,
                                               sol.u).max(axis=1)
    write_vtk(path, level.ct, point_data={"velocity": uh},
              cell_data={"pressure": p_cells, "div_u": div_cells})


def cmd_solve(cfg: RunConfig) -> int:
    """One solve per (level, viscosity); writes per-run reports."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dom = cfg.make_domain()
    dom.validate()
    ok = True
    reports = []
    for n in cfg.levels:
        level = build_level(dom, n, cfg.sigma)
        if cfg.check_assumption:
            rep = level.assumption
            print(f"n={n}: max delta_e/h_e = {rep.max_ratio:.4f} "
                  f"({len(rep.flagged)} edges above {ASSUMPTION_THRESHOLD:g})")
        if cfg.infsup:
            beta = infsup_estimate(level.ct, level.layout, level.bqd)
            print(f"n={n}: inf-sup estimate = {beta:.6f}")
        if cfg.dump_matrix:
            dump_matrix_market(outdir / f"system_n{n}.mtx",
                               verify.level_system(level))
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
        with open(outdir / "solve_reports.json", "w") as fh:
            json.dump([r.as_dict() for r in reports], fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def cmd_converge(cfg: RunConfig) -> int:
    """Refinement study over all configured levels and viscosities."""
    if len(cfg.levels) < 2:
        raise UsageError("convergence study needs at least two levels")
    if any(b <= a for a, b in zip(cfg.levels, cfg.levels[1:])):
        raise UsageError("convergence levels must be strictly increasing")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dom = cfg.make_domain()
    dom.validate()
    tables = run_convergence(dom, cfg.levels, cfg.nus, cfg.sigma, progress=print)
    ok = True
    for nu, table in sorted(tables.items()):
        if "csv" in cfg.formats:
            table.write_csv(outdir / f"convergence_nu{nu:g}.csv")
        for r in table.reports:
            ok = _divergence_ok(r) and ok
    if "json" in cfg.formats:
        write_json(outdir / "convergence.json", tables)
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
