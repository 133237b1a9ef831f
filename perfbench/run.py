"""ctstokes benchmark: two workloads, checked, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-star --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep-circle --seed 1 --seconds 30 --trace 1

Every pass of a workload runs in a fresh worker process (``worker.py``)
with BLAS threads capped.  ``--trace 0`` repeats, while the next round is
expected to fit in ``--seconds``, one timed pass followed by a few
set-up-only processes, so that the set-up samples are spread over the
run like the passes, and reports the end-to-end metrics.  ``--trace 1``
runs one untraced and two traced passes of the same seed, checks that
tracing changed no result and that the two traced passes repeat every
count, and reports the per-layer metrics.  The last line of standard
output is the result as JSON.  Why the workloads and metrics were chosen:
NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS  # noqa: E402

WORKLOADS = ("study-star", "sweep-circle")
PROBES_PER_PASS = 5          # set-up-only processes after each timed pass
DEADLINE_S = 170.0           # a run must end well inside 180 s
THREADS = "1"                # BLAS/OpenMP threads per worker process

# ROADMAP baseline: one solve, star, sigma 40, nu 0.1 (2 cores, 7 GB)
ROADMAP_STAGES = {32: {"dofs": 17151, "blocks_s": 0.24, "factorize_s": 0.84,
                       "lu_nnz": 6.6e6, "errors_s": 0.12, "peak_rss_mb": 0.3e3},
                  64: {"dofs": 73189, "blocks_s": 1.0, "factorize_s": 7.9,
                       "lu_nnz": 45e6, "errors_s": 0.36, "peak_rss_mb": 1.3e3}}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def worker_env():
    env = dict(os.environ)
    env.pop("CTSTOKES_OUTDIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_worker(args, deadline, tag, *extra):
    name = f"{args.workload}-seed{args.seed}-{tag}"
    out, log = RUNS / f"result-{name}.json", RUNS / f"worker-{name}.log"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--runs-dir", str(RUNS), "--out", str(out),
           *extra]
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=worker_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"worker passed the {DEADLINE_S:g} s deadline; log: {log}")
    if rc != 0 or not out.exists():
        tail = log.read_text()[-2000:]
        fail(f"worker exited with {rc}:\n{tail}")
    return json.loads(out.read_text())


def norms(solves):
    """What must be bit-identical between passes of one seed."""
    keys = ("dofs", "l2_u", "h1_u", "l2_p", "linf_div", "residual")
    return [[s.get(k) for k in keys] for s in solves]


def outcome(results):
    """All solves of the passes, the failed and guarantee-failed ones, and
    whether every pass wrote its outputs and gave the first pass's norms."""
    passes = [r["pass"] for r in results]
    recs = [s for p in passes for s in p["solves"]]
    failed = [s for s in recs if s["fail"]]
    guar = [s for s in recs if s["guarantee"]]
    first = norms(passes[0]["solves"])
    ok = all(p["outputs_ok"] and norms(p["solves"]) == first for p in passes)
    return recs, failed, guar, ok


def quantile(vals, q):
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[q - 1]


def label(s):
    return f"case {s['case']}" if "case" in s else f"n={s['n']} nu={s['nu']:g}"


def print_outcome(recs, failed, guar):
    n = len(recs)
    print(f"  fail_ratio            {len(failed) / n:.4f} ratio "
          f"({len(failed)}/{n} solves)")
    for s in failed[:5]:
        print(f"    failed: {label(s)}: {s['fail']}")
    print(f"  guarantee_fail_ratio  {len(guar) / n:.4f} ratio "
          f"({len(guar)}/{n} solves)")
    for s in guar[:3]:
        print(f"    guarantee: {label(s)}: {s['guarantee']}")


def untraced(args, deadline):
    run_worker(args, deadline, "warmup", "--setup-only")   # warm caches; discarded
    results, setup = [], []
    t_begin = time.monotonic()
    # a round is one pass and its probes; start another while it is expected
    # to end inside --seconds
    while not results or (time.monotonic() - t_begin) * (len(results) + 1) \
            / len(results) <= args.seconds:
        res = run_worker(args, deadline, f"pass{len(results)}")
        results.append(res)
        setup.append(res["setup_s"])
        setup += [run_worker(args, deadline, "probe", "--setup-only")["setup_s"]
                  for _ in range(PROBES_PER_PASS)]
    recs, failed, guar, ok = outcome(results)
    lat = [c for r in results for c in r["pass"]["cases"]]
    walls = [r["pass"]["wall_s"] for r in results]
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                               "MB"),
               "case_s.p50": (statistics.median(lat), "s"),
               "case_s.p80": (quantile(lat, 80), "s")}
    print(f"{args.workload} seed {args.seed}: {len(walls)} pass(es), "
          f"{len(lat)} case samples, {len(setup)} set-up samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<21} {value:.6g} {unit}")
    print(f"  pass walls            {' '.join(f'{w:.3f}' for w in walls)} s")
    print(f"  set-up samples        {' '.join(f'{s:.3f}' for s in setup)} s")
    print_outcome(recs, failed, guar)
    return results[0], metrics, recs, failed, ok


def traced(args, deadline):
    base = run_worker(args, deadline, "untraced")
    runs = [run_worker(args, deadline, f"traced{k}", "--trace") for k in (1, 2)]
    recs, failed, guar, same = outcome([base] + runs)
    counts = [{k: r["layers"][k][0] for k in COUNT_METRICS} for r in runs]
    repeat = counts[0] == counts[1]
    for k in COUNT_METRICS:
        if counts[0][k] != counts[1][k]:
            print(f"  count {k}: {counts[0][k]} then {counts[1][k]}")
    # times: mean of the two traced passes; counts: equal when repeat holds
    layers = {name: (statistics.mean(r["layers"][name][0] for r in runs), unit)
              for name, (_, unit) in runs[0]["layers"].items()}

    t = runs[0]
    walls = [r["pass"]["wall_s"] for r in runs]
    spans = ", ".join(str(Path(r["spans_file"]).relative_to(ROOT)) for r in runs)
    print(f"{args.workload} seed {args.seed}: two traced passes, spans in {spans}")
    print(f"  {'layer metric':<28} {'value':>14}  unit")
    # BENCHMARK.json declares the reported metrics; cli.converge_s,
    # cli.output_s and cli.self_s are printed only, because the sweep never
    # enters the cli and they would read exactly 0 on every sweep-circle run
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    for name, (value, unit) in layers.items():
        note = "" if name in declared else "  (printed only)"
        print(f"  {name:<28} {value:>14.6g}  {unit}{note}")
    overhead = t["spans"] * t["span_cost_s"]
    print(f"  tracing overhead: {t['spans']} spans x {t['span_cost_s'] * 1e6:.2f} us"
          f" = {overhead:.4f} s ({overhead / walls[0]:.3%} of the traced pass)")
    print(f"  pass walls: untraced {base['pass']['wall_s']:.3f} s, traced "
          f"{walls[0]:.3f} s and {walls[1]:.3f} s (their difference is host "
          f"drift between processes, not the overhead)")
    print(f"  self-check: untraced and both traced norms/dofs identical: {same}")
    print(f"  self-check: counts repeat across the two traced passes: {repeat}")
    if t.get("stages"):
        print_stages(t["stages"])
    print_outcome(recs, failed, guar)
    metrics = {name: layers[name] for name in declared}
    return t, metrics, recs, failed, same and repeat


def print_stages(rows):
    print("  per-stage, first viscosity per level (this run | ROADMAP baseline):")
    print(f"  {'n':>4} {'dofs':>15} {'blocks s':>13} {'factorize s':>13} "
          f"{'LU nnz M':>13} {'errors s':>13} {'peak RSS MB':>15}")
    for r in rows:
        b = ROADMAP_STAGES.get(r["n"])
        if b is None:
            continue
        print(f"  {r['n']:>4} {r['dofs']:>7}|{b['dofs']:<7} "
              f"{r['blocks_s']:>6.2f}|{b['blocks_s']:<6.2f} "
              f"{r['factorize_s']:>6.2f}|{b['factorize_s']:<6.2f} "
              f"{r['lu_nnz'] / 1e6:>6.1f}|{b['lu_nnz'] / 1e6:<6.1f} "
              f"{r['errors_s']:>6.2f}|{b['errors_s']:<6.2f} "
              f"{r['peak_rss_mb']:>7.0f}|{b['peak_rss_mb']:<7.0f}")
    print("  (LU nnz here is SuperLU's factor storage count of the accepted "
          "factorization;\n   peak RSS is the process peak after that solve)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ctstokes" / "__init__.py").is_file():
        fail(f"no program sources at {ROOT / 'src' / 'ctstokes'}; "
             "run from the root of a ctstokes checkout")
    RUNS.mkdir(exist_ok=True)

    res, metrics, recs, failed, ok = (traced if args.trace else untraced)(
        args, deadline)
    m = res["machine"]
    print(f"machine: nproc {m['nproc']} (affinity {m['affinity']}), python "
          f"{m['python']}, numpy {m['numpy']} ({m['numpy_blas']}), scipy "
          f"{m['scipy']} ({m['scipy_blas']}), thread caps {m['thread_caps']}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": m, "metrics": metrics, "solves": recs}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": bool(ok and not failed), "attempted": len(recs),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
