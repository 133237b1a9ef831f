import json
import os

import numpy as np
import pytest

from scipy.io import mmread

from ctstokes.cli import RunConfig, UsageError, main, parse_config
from ctstokes.geometry import circle_domain
from ctstokes.assembly import compose_system
from ctstokes.verify import build_level


def test_defaults_reproduce_reference_study():
    command, cfg = parse_config(["converge"])
    assert command == "converge"
    assert cfg.domain == "star"
    assert cfg.sigma == 40.0
    assert cfg.levels == [8, 16, 32, 64, 128]
    assert cfg.nus == [1e-1, 1e-3, 1e-5]
    assert cfg.quad_volume == 6 and cfg.quad_edge == 6


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
    with pytest.raises(UsageError):
        parse_config(["solve", "--quad-volume", "12"])
    with pytest.raises(UsageError):
        parse_config(["solve", "--quad-edge", "0"])
    assert main(["solve", "--sigma", "-1"]) == 2
    assert main(["converge", "--quad-edge", "0"]) == 2
    out = tmp_path / "x"
    assert main(["converge", "--levels", "16,8", "--out", str(out)]) == 2
    assert not out.exists()
    # the removed --vtk flag is an unknown option; --format vtk remains
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--vtk", "--out", str(out)])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --vtk" in capsys.readouterr().err
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
