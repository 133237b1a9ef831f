"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py``; not meant to be run by hand.  Set-up time runs from
the first line of this file (before numpy is imported) to the end of input
generation.  After set-up the worker runs one pass of the workload, or none
with ``--setup-only``.  The result goes to ``--out`` as JSON, because the
program prints on standard output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ctstokes import assembly, cli, geometry, mesh, solver, verify  # noqa: E402

import tracer as tr  # noqa: E402

SIGMA = 40.0
RESIDUAL_TOL = 1e-10          # the solver's residual contract
REF_RTOL = 1e-6               # study-star norms against star_reference.json
PATCH_TOL = 1e-8              # patch case must be reproduced to this

STAR_LEVELS = (8, 16, 32, 64)
STAR_NUS = (1e-1, 1e-3, 1e-5)
STAR_REFERENCE = HERE / "star_reference.json"

SWEEP_CASES = 50
SWEEP_N = 16
SWEEP_R = (0.30, 0.45)
SWEEP_MARGIN = 0.02


def solve_record(rep):
    """Outcome of one solve; ``fail`` and ``guarantee`` hold reasons or None."""
    vals = [rep.l2_u, rep.h1_u, rep.l2_p, rep.linf_div, rep.residual]
    fail = None
    if not all(math.isfinite(v) for v in vals):
        fail = "non-finite norm"
    elif rep.residual > RESIDUAL_TOL:
        fail = f"residual {rep.residual:.2e} > {RESIDUAL_TOL:g}"
    guarantee = None
    if rep.linf_div > max(1e-8, 1e3 * rep.residual):
        guarantee = f"linf_div {rep.linf_div:.2e}"
    return {"n": rep.n, "nu": rep.nu, "dofs": rep.dofs, "l2_u": rep.l2_u,
            "h1_u": rep.h1_u, "l2_p": rep.l2_p, "linf_div": rep.linf_div,
            "residual": rep.residual, "fail": fail, "guarantee": guarantee}


# ---------------------------------------------------------------------------
# study-star: the reference study through cli.main with default flags


def star_setup(seed, runs_dir):
    # the study's inputs are fixed; the seed only names the output directory
    if tuple(cli.DEFAULT_NUS) != STAR_NUS:
        raise SystemExit("cli default viscosities changed; update STAR_NUS")
    dom = geometry.star_domain()
    dom.validate()
    ref = {(r["n"], r["nu"]): r
           for r in json.loads(STAR_REFERENCE.read_text())["runs"]}
    return {"ref": ref, "out": runs_dir / f"study-star-seed{seed}"}


def star_pass(ctx, tracer=None):
    out = ctx["out"]
    shutil.rmtree(out, ignore_errors=True)
    argv = ["converge", "--levels", ",".join(map(str, STAR_LEVELS)),
            "--out", str(out)]
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:                       # counted, not hidden
        traceback.print_exc()
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0

    runs = {}
    path = out / "convergence.json"
    if path.exists():
        for table in json.loads(path.read_text()).values():
            for r in table["runs"]:
                runs[(r["n"], r["nu"])] = r
    records = []
    for key in [(n, nu) for n in STAR_LEVELS for nu in STAR_NUS]:
        r = runs.get(key)
        if r is None:
            records.append({"n": key[0], "nu": key[1], "guarantee": None,
                            "fail": error or "missing from convergence.json"})
            continue
        rec = solve_record(types.SimpleNamespace(**r))
        ref = ctx["ref"][key]
        if rec["fail"] is None:
            if r["dofs"] != ref["dofs"]:
                rec["fail"] = f"dofs {r['dofs']} != reference {ref['dofs']}"
            for col in ("l2_u", "h1_u", "l2_p"):
                if abs(r[col] - ref[col]) > REF_RTOL * abs(ref[col]):
                    rec["fail"] = f"{col} {r[col]:.9e} != reference {ref[col]:.9e}"
        records.append(rec)
    outputs_ok = (rc in (0, 1) and path.exists()
                  and all((out / f"convergence_nu{nu:g}.csv").exists()
                          for nu in STAR_NUS))
    # the user waits for the whole study (results are written at the end),
    # so on this workload one case is one study
    return {"wall_s": wall, "cases": [wall], "solves": records,
            "outputs_ok": outputs_ok}


# ---------------------------------------------------------------------------
# sweep-circle: random circles, one level and one patch solve each


def sweep_setup(seed, runs_dir):
    rng = np.random.default_rng(seed)
    # one radius from each of SWEEP_CASES equal slices of SWEEP_R, in random
    # order: each radius is still uniform on SWEEP_R, but the total work
    # (dofs grow with r^2) varies little from seed to seed
    lo, hi = SWEEP_R
    slices = rng.permutation(SWEEP_CASES) + rng.uniform(size=SWEEP_CASES)
    cases = []
    for r in (lo + (hi - lo) * slices / SWEEP_CASES).tolist():
        c = rng.uniform(r + SWEEP_MARGIN, 1.0 - r - SWEEP_MARGIN, size=2)
        dom = geometry.circle_domain(tuple(c), r)
        dom.validate()
        cases.append({"center": c.tolist(), "radius": r, "dom": dom})
    return {"cases": cases}


def sweep_pass(ctx, tracer=None):
    records, latency = [], []
    t0 = time.perf_counter()
    for i, case in enumerate(ctx["cases"]):
        if tracer is not None:
            tracer.case = i
        t = time.perf_counter()
        try:
            level = verify.build_level(case["dom"], SWEEP_N, SIGMA)
            _, rep = verify.solve_on_level(level, verify.patch_case(1.0))
        except Exception as exc:                   # counted, not hidden
            traceback.print_exc()
            rep, error = None, f"{type(exc).__name__}: {exc}"
        latency.append(time.perf_counter() - t)
        if rep is None:
            rec = {"guarantee": None, "fail": error}
        else:
            rec = solve_record(rep)
            if rec["guarantee"] is None and max(rep.h1_u, rep.l2_p) > PATCH_TOL:
                rec["guarantee"] = f"patch h1_u {rep.h1_u:.2e} l2_p {rep.l2_p:.2e}"
        records.append(dict(rec, case=i, center=case["center"],
                            radius=case["radius"]))
    return {"wall_s": time.perf_counter() - t0, "cases": latency,
            "solves": records, "outputs_ok": True}


WORKLOADS = {"study-star": (star_setup, star_pass),
             "sweep-circle": (sweep_setup, sweep_pass)}


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--runs-dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer, types.SimpleNamespace(
            cli=cli, verify=verify, assembly=assembly, solver=solver,
            mesh=mesh, geometry=geometry))
    setup, run_pass = WORKLOADS[args.workload]
    ctx = setup(args.seed, Path(args.runs_dir))
    result = {"setup_s": time.perf_counter() - T_START,
              "machine": machine_info()}

    if not args.setup_only:
        result["pass"] = run_pass(ctx, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        spans_path = out.with_suffix(".spans.jsonl")
        tracer.write_jsonl(spans_path)
        result["spans_file"] = str(spans_path)
        result["spans"] = len(tracer.spans)
        result["span_cost_s"] = tr.span_cost_s()
        result["layers"] = tr.layer_metrics(tracer.spans)
        if args.workload == "study-star":
            result["stages"] = tr.stage_rows(tracer.spans)
    out.write_text(json.dumps(result))


def machine_info():
    def blas(cfg):
        b = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{b.get('name')} {b.get('version')}"

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts")),
            "thread_caps": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")}}


if __name__ == "__main__":
    main()
