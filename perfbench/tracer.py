"""Spans and counts around calls into ctstokes, recorded from outside.

The tracer replaces a function under the name a *calling* module looks it
up by (for example ``ctstokes.verify.build_level``, which
``run_convergence`` resolves through the globals of ``ctstokes.verify``),
so no file of the program changes.  Every call becomes one span: id, parent
id, name, case id, start and end time, peak RSS at both ends, and a few
attributes read off the arguments and the result after the span has
closed.  Spans stay in memory until ``write_jsonl`` at the end of the run.

``layer_metrics`` then folds the spans into the per-layer metrics declared
in ``BENCHMARK.json``; ``self_times`` gives each module's self time.
"""

from __future__ import annotations

import functools
import json
import resource
import time
import types
from collections import defaultdict


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []       # [id, parent, name, case, t0, t1, rss0, rss1, attrs]
        self._stack = []
        self._undo = []
        self.case = None

    def wrap(self, owner, attr, name, attrs=None):
        """Trace calls made through ``owner.attr`` as spans called ``name``.

        ``attrs(args, kwargs, result)`` returns a dict stored on the span;
        it runs after the span's end time is taken.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, self.case,
                   0.0, 0.0, _maxrss_mb(), 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
                rec[7] = _maxrss_mb()
            if attrs is not None:
                rec[8] = attrs(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write_jsonl(self, path):
        keys = ("id", "parent", "name", "case", "start", "end", "rss0_mb",
                "rss1_mb", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def install(tracer: Tracer, ct) -> None:
    """Wrap every public call between ctstokes modules that a solve makes.

    ``ct`` is a namespace holding the imported ctstokes modules.
    """
    w = tracer.wrap
    cli, verify, assembly, solver, mesh, geometry = (
        ct.cli, ct.verify, ct.assembly, ct.solver, ct.mesh, ct.geometry)

    # cli -> verify
    w(cli, "cmd_converge", "cli.cmd_converge")
    w(cli, "run_convergence", "verify.run_convergence")
    w(cli, "write_json", "verify.write_json")
    w(verify.RateTable, "write_csv", "verify.RateTable.write_csv")

    # verify -> verify / mesh / fem / assembly / solver
    w(verify, "build_level", "verify.build_level",
      lambda a, k, out: {"n": out.n, "dofs": out.layout.n_total})
    w(verify, "solve_on_level", "verify.solve_on_level",
      lambda a, k, out: {"n": a[0].n, "nu": a[1].nu, "dofs": out[1].dofs})
    w(verify, "compute_errors", "verify.compute_errors")
    w(verify, "build_type1_mesh", "mesh.build_type1_mesh")
    w(verify, "clip_to_interior", "mesh.clip_to_interior")
    w(verify, "clough_tocher", "mesh.clough_tocher",
      lambda a, k, out: {"micro_triangles": out.n_triangles,
                         "boundary_edges": len(out.boundary_edges)})
    w(verify, "check_assumption_a", "mesh.check_assumption_a")
    w(verify, "build_dof_layout", "fem.build_dof_layout",
      lambda a, k, out: {"dofs": out.n_total})
    w(verify, "element_maps", "fem.element_maps")
    w(verify, "build_boundary_data", "assembly.build_boundary_data")
    w(verify, "assemble_blocks", "assembly.assemble_blocks")
    w(verify, "assemble_rhs", "assembly.assemble_rhs")
    w(verify, "compose_system", "assembly.compose_system",
      lambda a, k, out: {"matrix_nnz": int(out.matrix.nnz)})
    w(verify, "solve_direct", "solver.solve_direct")

    # assembly -> assembly / fem / geometry
    for fn in ("assemble_a", "assemble_b", "assemble_be", "assemble_constraints"):
        w(assembly, fn, f"assembly.{fn}")
    w(assembly, "element_maps", "fem.element_maps")
    w(assembly, "project_points", "geometry.project_points",
      lambda a, k, out: {"points": len(out[1])})

    # mesh -> geometry
    w(mesh, "project_points", "geometry.project_points",
      lambda a, k, out: {"points": len(out[1])})

    # solver -> solver / scipy: splu goes through a private copy of the
    # ``spla`` module object so only the solver's own binding is traced
    w(solver, "factorize", "solver.factorize",
      lambda a, k, out: {"dofs": int(a[0].shape[0])})
    spla = types.ModuleType(solver.spla.__name__)
    spla.__dict__.update(vars(solver.spla))
    w(spla, "splu", "solver.splu",
      lambda a, k, out: {"dofs": int(out.shape[0]), "lu_nnz": int(out.nnz)})
    tracer._undo.append((solver, "spla", solver.spla))
    solver.spla = spla

    # setup: domain validation
    w(geometry.LevelSetDomain, "validate", "geometry.LevelSetDomain.validate")


def span_cost_s(calls=20000):
    """Seconds one traced call costs more than the bare call.

    Times a no-op wrapped the way ``install`` wraps the program (with an
    attribute function) against the same no-op unwrapped, best of five, on
    a tracer of its own.  Times the span count, this is the tracing
    overhead of a run.  The overhead is far below the host's drift between
    two processes, so a traced-minus-untraced difference cannot show it.
    """
    ns = types.SimpleNamespace(noop=lambda x: x)
    bare = ns.noop
    Tracer().wrap(ns, "noop", "noop", lambda a, k, out: {"x": out})
    wrapped = ns.noop

    def best(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(0.0, best(wrapped) - best(bare)) / calls


# ---------------------------------------------------------------------------
# folding spans into metrics


def _total_s(spans, *names):
    return sum(s[5] - s[4] for s in spans if s[2] in names)


def _calls(spans, name):
    return sum(1 for s in spans if s[2] == name)


def _attr_sum(spans, name, key):
    return sum(s[8][key] for s in spans if s[2] == name and s[8])


def factorizations(spans):
    """One record per factorize call: the accepted splu is its last child.

    The path is plain when that splu factored the whole system and bordered
    when it factored the field block only.
    """
    children = defaultdict(list)
    for s in spans:
        if s[2] == "solver.splu" and s[1] is not None:
            children[s[1]].append(s)
    out = []
    for s in spans:
        if s[2] != "solver.factorize" or not s[8]:
            continue
        splus = children[s[0]]
        last = splus[-1][8] if splus else {"dofs": 0, "lu_nnz": 0}
        out.append({"span": s, "lu_nnz": last["lu_nnz"],
                    "plain": last["dofs"] == s[8]["dofs"],
                    "rss_growth_mb": s[7] - s[6]})
    return out


def self_times(spans):
    """Self time per span (duration minus its children's), summed per module."""
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[5] - s[4]
    out = defaultdict(float)
    for s in spans:
        out[s[2].split(".", 1)[0]] += (s[5] - s[4]) - child[s[0]]
    return dict(out)


def layer_metrics(spans):
    """Per-layer metrics by name, as ``(value, unit)`` pairs."""
    fac = factorizations(spans)
    splu_calls = _calls(spans, "solver.splu")
    solve_s = _total_s(spans, "solver.solve_direct")
    m = {
        "solver.factorize_s": (_total_s(spans, "solver.factorize"), "s"),
        "solver.lu_nnz": (sum(f["lu_nnz"] for f in fac), "count"),
        "solver.factorize_calls": (len(fac), "count"),
        "solver.rss_growth_mb": (sum(f["rss_growth_mb"] for f in fac), "MB"),
        "solver.splu_calls": (splu_calls, "count"),
        "solver.factor_useful_ratio": (len(fac) / splu_calls if splu_calls else 0.0,
                                       "ratio"),
        "solver.path_plain": (sum(f["plain"] for f in fac), "count"),
        "solver.path_bordered": (sum(not f["plain"] for f in fac), "count"),
        "solver.refine_s": (solve_s - _total_s(spans, "solver.factorize"), "s"),
        "assembly.blocks_s": (_total_s(spans, "assembly.assemble_blocks"), "s"),
        "assembly.boundary_s": (_total_s(spans, "assembly.build_boundary_data"), "s"),
        "assembly.rhs_s": (_total_s(spans, "assembly.assemble_rhs"), "s"),
        "assembly.compose_s": (_total_s(spans, "assembly.compose_system"), "s"),
        "assembly.matrix_nnz": (_attr_sum(spans, "assembly.compose_system",
                                          "matrix_nnz"), "count"),
        "fem.element_maps_calls": (_calls(spans, "fem.element_maps"), "count"),
        "fem.element_maps_s": (_total_s(spans, "fem.element_maps"), "s"),
        "fem.layout_s": (_total_s(spans, "fem.build_dof_layout"), "s"),
        "fem.dofs": (_attr_sum(spans, "fem.build_dof_layout", "dofs"), "count"),
        "verify.level_s": (_total_s(spans, "verify.build_level"), "s"),
        "verify.solve_s": (_total_s(spans, "verify.solve_on_level"), "s"),
        "verify.errors_s": (_total_s(spans, "verify.compute_errors"), "s"),
        "mesh.background_s": (_total_s(spans, "mesh.build_type1_mesh"), "s"),
        "mesh.clip_s": (_total_s(spans, "mesh.clip_to_interior"), "s"),
        "mesh.split_s": (_total_s(spans, "mesh.clough_tocher"), "s"),
        "mesh.assumption_s": (_total_s(spans, "mesh.check_assumption_a"), "s"),
        "mesh.micro_triangles": (_attr_sum(spans, "mesh.clough_tocher",
                                           "micro_triangles"), "count"),
        "mesh.boundary_edges": (_attr_sum(spans, "mesh.clough_tocher",
                                          "boundary_edges"), "count"),
        "geometry.project_s": (_total_s(spans, "geometry.project_points"), "s"),
        "geometry.points_projected": (_attr_sum(spans, "geometry.project_points",
                                                "points"), "count"),
        "geometry.validate_s": (_total_s(spans, "geometry.LevelSetDomain.validate"),
                                "s"),
        "cli.converge_s": (_total_s(spans, "cli.cmd_converge"), "s"),
        "cli.output_s": (_total_s(spans, "verify.write_json",
                                  "verify.RateTable.write_csv"), "s"),
    }
    selfs = self_times(spans)
    for layer in ("assembly", "cli", "fem", "geometry", "mesh", "solver", "verify"):
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    return m


def stage_rows(spans):
    """Stage times of the first-viscosity solve per level (ROADMAP's table)."""
    by_id = {s[0]: s for s in spans}

    def ancestor(s, name):
        while s[1] is not None:
            s = by_id[s[1]]
            if s[2] == name:
                return s
        return None

    fac = {f["span"][0]: f for f in factorizations(spans)}
    rows = {}
    for s in spans:                       # spans are in call order
        if s[2] == "verify.build_level" and s[8]:
            rows.setdefault(s[8]["n"], {"n": s[8]["n"], "dofs": s[8]["dofs"]})
        elif s[2] == "assembly.assemble_blocks":
            level = ancestor(s, "verify.build_level")
            if level and level[8]:
                rows[level[8]["n"]]["blocks_s"] = s[5] - s[4]
        elif s[2] in ("solver.factorize", "verify.compute_errors"):
            solve = ancestor(s, "verify.solve_on_level")
            if not (solve and solve[8]):
                continue
            row = rows[solve[8]["n"]]
            if row.setdefault("nu", solve[8]["nu"]) != solve[8]["nu"]:
                continue
            row["peak_rss_mb"] = solve[7]
            if s[2] == "solver.factorize":
                row["factorize_s"], row["lu_nnz"] = s[5] - s[4], fac[s[0]]["lu_nnz"]
            else:
                row["errors_s"] = s[5] - s[4]
    keys = ("blocks_s", "factorize_s", "lu_nnz", "errors_s")
    return [r for n, r in sorted(rows.items()) if all(k in r for k in keys)]


# metrics that must repeat exactly across two traced runs of one seed
COUNT_METRICS = ("solver.lu_nnz", "solver.factorize_calls", "solver.splu_calls",
                 "solver.path_plain", "solver.path_bordered",
                 "assembly.matrix_nnz", "fem.element_maps_calls", "fem.dofs",
                 "mesh.micro_triangles", "mesh.boundary_edges",
                 "geometry.points_projected")
