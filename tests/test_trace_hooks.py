"""The benchmark's tracer (perfbench/tracer.py) wraps program functions by
the names their calling modules look them up by.  A rename or removal of
any of them breaks ``perfbench/run.py --trace 1``, so this installs the
tracer on the real modules, runs one small solve through it, and checks
that uninstalling restores every attribute."""

import importlib.util
import types
from pathlib import Path

from ctstokes import assembly, cli, geometry, mesh, solver, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tr = _load_tracer()
    owners = (cli, verify, assembly, solver, mesh, geometry,
              verify.RateTable, geometry.LevelSetDomain)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tr.Tracer()
    ns = types.SimpleNamespace(cli=cli, verify=verify, assembly=assembly,
                               solver=solver, mesh=mesh, geometry=geometry)
    try:
        tr.install(tracer, ns)
        wrapped = list(tracer._undo)
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
        level = verify.build_level(geometry.circle_domain((0.5, 0.5), 0.4), 8, 40.0)
        verify.solve_on_level(level, verify.patch_case(1.0))
    finally:
        tracer.uninstall()

    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        assert set(after) == set(snapshot), owner
        assert all(after[k] is v for k, v in snapshot.items()), owner

    metrics = tr.layer_metrics(tracer.spans)
    assert metrics["solver.factorize_calls"][0] == 1
    assert metrics["solver.splu_calls"][0] == 1
    assert metrics["fem.element_maps_calls"][0] > 0
    assert metrics["mesh.micro_triangles"][0] == level.ct.n_triangles


def test_tracer_covers_converge_command(tmp_path):
    # the CLI wrappers and the stage table read call signatures of the
    # program; a small study must give one complete row per level, and each
    # boundary edge is projected at its quadrature points and endpoints only
    tr = _load_tracer()
    tracer = tr.Tracer()
    ns = types.SimpleNamespace(cli=cli, verify=verify, assembly=assembly,
                               solver=solver, mesh=mesh, geometry=geometry)
    try:
        tr.install(tracer, ns)
        rc = cli.main(["converge", "--domain", "circle", "--levels", "4,8",
                       "--nu", "1", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0

    rows = tr.stage_rows(tracer.spans)
    assert [r["n"] for r in rows] == [4, 8]
    metrics = tr.layer_metrics(tracer.spans)
    assert metrics["cli.converge_s"][0] > 0
    edges = metrics["mesh.boundary_edges"][0]
    assert 0 < metrics["geometry.points_projected"][0] <= 8 * edges
