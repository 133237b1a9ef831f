import json
import os

import numpy as np
import pytest

from scipy.io import mmread

from ctstokes import verify
from ctstokes.cli import RunConfig, UsageError, main, parse_config
from ctstokes.geometry import circle_domain
from ctstokes.assembly import compose_system
from ctstokes.solver import SolverError
from ctstokes.verify import build_level


def test_defaults_reproduce_reference_study():
    command, cfg = parse_config(["converge"])
    assert command == "converge"
    assert cfg.domain == "star"
    assert cfg.sigma == 40.0
    assert cfg.levels == [8, 16, 32, 64, 128]
    assert cfg.nus == [1e-1, 1e-3, 1e-5]


def test_flag_overrides():
    _, cfg = parse_config(["solve", "--nu", "1e-3", "--levels", "8,16"])
    assert cfg.nus == [1e-3]
    assert cfg.levels == [8, 16]
    _, cfg = parse_config(["solve", "--domain", "circle", "--radius", "0.3",
                           "--center", "0.4,0.6", "--format", "csv",
                           "--sigma", "10"])
    assert cfg.domain == "circle" and cfg.radius == 0.3
    assert cfg.center == (0.4, 0.6)
    assert cfg.formats == ["csv"] and cfg.sigma == 10.0


def test_invalid_values_rejected(tmp_path, capsys):
    with pytest.raises(UsageError):
        parse_config(["solve", "--sigma", "-1"])
    with pytest.raises(UsageError):
        parse_config(["solve", "--nu", "0"])
    with pytest.raises(UsageError):
        parse_config(["solve", "--format", "xml"])
    assert main(["solve", "--sigma", "-1"]) == 2
    out = tmp_path / "x"
    assert main(["converge", "--levels", "16,8", "--out", str(out)]) == 2
    assert not out.exists()
    # the removed --vtk and quadrature flags are unknown options;
    # --format vtk remains
    for flag in (["--vtk"], ["--quad-volume", "6"], ["--quad-edge", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()
    # the quadrature is fixed in assembly: its old config keys are unknown
    cfg_file = tmp_path / "quad.cfg"
    for key in ("quad_volume", "quad_edge"):
        cfg_file.write_text(f"{key} = 6\n")
        assert main(["converge", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert f"unknown key(s): {key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# reference study\n"
        "domain = circle\n"
        "radius = 0.35\n"
        "levels = 4 8\n"
        "nu = 1e-2\n"
        "sigma = 20\n")
    _, cfg = parse_config(["solve", "--config", str(cfg_file)])
    assert cfg.domain == "circle" and cfg.radius == 0.35
    assert cfg.levels == [4, 8] and cfg.nus == [1e-2] and cfg.sigma == 20.0
    # command line wins over the file
    _, cfg = parse_config(["solve", "--config", str(cfg_file), "--sigma", "40"])
    assert cfg.sigma == 40.0
    _, cfg = parse_config(["solve", "--config", str(cfg_file), "--nu", "0.5"])
    assert cfg.nus == [0.5]
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma 40\n")
    with pytest.raises(UsageError):
        parse_config(["solve", "--config", str(bad)])
    # a misspelt key is an error, not a silent fallback to the defaults
    typo = tmp_path / "typo.cfg"
    typo.write_text("levles = 4,8\n")
    with pytest.raises(UsageError):
        parse_config(["converge", "--config", str(typo)])
    assert main(["converge", "--config", str(typo)]) == 2
    # a key that names no option is rejected, "sequential" and "vtk" included
    old = tmp_path / "old.cfg"
    old.write_text("sequential = true\nformat = csv\n")
    with pytest.raises(UsageError):
        parse_config(["converge", "--config", str(old)])
    assert main(["converge", "--config", str(old)]) == 2
    old.write_text("vtk = true\n")
    with pytest.raises(UsageError, match="vtk"):
        parse_config(["solve", "--config", str(old)])
    assert main(["solve", "--config", str(old)]) == 2
    # flag values: the four spellings of each truth value, anything else is
    # an error rather than a silent False
    flags = tmp_path / "flags.cfg"
    for word, value in (("1", True), ("TRUE", True), ("yes", True), ("on", True),
                        ("0", False), ("false", False), ("No", False), ("off", False)):
        flags.write_text(f"infsup = {word}\n")
        _, cfg = parse_config(["solve", "--config", str(flags)])
        assert cfg.infsup is value
    flags.write_text("infsup = ture\n")
    with pytest.raises(UsageError, match="infsup = ture"):
        parse_config(["solve", "--config", str(flags)])
    assert main(["solve", "--config", str(flags)]) == 2


def test_empty_levels_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("levels =\n")
    with pytest.raises(UsageError):
        parse_config(["solve", "--config", str(cfg_file)])


def test_env_var_overrides_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("CTSTOKES_OUTDIR", str(tmp_path / "env_out"))
    _, cfg = parse_config(["solve", "--out", "elsewhere"])
    assert cfg.out == str(tmp_path / "env_out")


def test_solve_command_circle_fixture(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--domain", "circle", "--radius", "0.4",
               "--levels", "8", "--nu", "0.1", "--out", str(out),
               "--format", "json,vtk", "--dump-matrix"])
    assert rc == 0
    assert (out / "solve_reports.json").exists()
    assert (out / "solution_n8_nu0.1.vtk").exists()
    # one matrix per level, the same for every viscosity
    level = build_level(circle_domain((0.5, 0.5), 0.4), 8, 40.0)
    M = mmread(out / "system_n8.mtx").tocsr()
    M_level = compose_system(level.blocks, level.layout).matrix
    assert abs(M - M_level).max() == 0.0
    assert sorted(p.name for p in out.glob("system_*")) == ["system_n8.mtx"]
    reports = json.loads((out / "solve_reports.json").read_text())
    assert reports[0]["n"] == 8
    assert reports[0]["linf_div"] <= 1e-8


def test_solve_prints_infsup_estimate(tmp_path, capsys):
    rc = main(["solve", "--domain", "circle", "--levels", "8", "--nu", "0.1",
               "--infsup", "--out", str(tmp_path / "run")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "n=8: inf-sup estimate = 0.169107" in lines


def test_converge_writes_tables(tmp_path):
    out = tmp_path / "conv"
    rc = main(["converge", "--domain", "circle", "--radius", "0.4",
               "--levels", "4,8", "--nu", "0.1", "--out", str(out)])
    assert rc == 0
    csv_text = (out / "convergence_nu0.1.csv").read_text()
    assert csv_text.splitlines()[0].startswith("n,h,dofs,l2_u")
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["0.1"]["domain"] == "circle"
    assert len(payload["0.1"]["runs"]) == 2


def test_solve_unresolvable_domain_is_usage_error(tmp_path, capsys):
    # no background triangle at n = 4 fits inside a circle of radius 0.05
    rc = main(["solve", "--domain", "circle", "--radius", "0.05", "--levels", "4",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: n=4: mesh too coarse for domain: no interior triangles\n")


def test_converge_unresolvable_domain_is_usage_error(tmp_path, capsys):
    rc = main(["converge", "--domain", "circle", "--radius", "0.05",
               "--levels", "4,8", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: n=4: mesh too coarse for domain: no interior triangles\n")


def test_invalid_domain_is_usage_error_before_output(tmp_path, capsys):
    # a circle too small for any validation sample to fall inside it
    for command, levels in (("solve", "4"), ("converge", "4,8")):
        out = tmp_path / command
        rc = main([command, "--domain", "circle", "--radius", "1e-6",
                   "--levels", levels, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: level set has no interior points in the bounding box\n")
        assert not out.exists()


def test_converge_solver_failure_is_reported(tmp_path, capsys, monkeypatch):
    def fail(system, rhs):
        raise SolverError("residual contract violated")

    monkeypatch.setattr(verify, "solve_direct", fail)
    rc = main(["converge", "--domain", "circle", "--levels", "4,8", "--nu", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n=4 nu=1: residual contract violated")
    assert "Traceback" not in err


def test_converge_needs_two_levels(tmp_path):
    rc = main(["converge", "--levels", "8", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_outputs_deterministic(tmp_path):
    args = ["converge", "--domain", "circle", "--radius", "0.4",
            "--levels", "4,8", "--nu", "0.1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("convergence_nu0.1.csv", "convergence.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
