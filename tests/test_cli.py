import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctstokes import verify
from ctstokes.cli import UsageError, main, parse_config
from ctstokes.solver import SolverError


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
                           "--center", "0.4,0.6", "--format", "vtk",
                           "--sigma", "10"])
    assert cfg.domain == "circle" and cfg.radius == 0.3
    assert cfg.center == (0.4, 0.6)
    assert cfg.formats == ["vtk"] and cfg.sigma == 10.0


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
        assert main(["solve", *flag, "--out", str(out)]) == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()
    # each command takes only the options it uses; options are not abbreviated
    for command, flag, err in (
            ("converge", ["--infsup"], "unrecognized arguments: --infsup"),
            ("converge", ["--check-assumption"],
             "unrecognized arguments: --check-assumption"),
            ("converge", ["--dump-matrix"], "unrecognized arguments: --dump-matrix"),
            # converge always writes its CSVs and JSON, every report line
            # carries max delta_e/h_e, and a level's matrix is a library call
            ("converge", ["--format", "csv"], "unrecognized arguments: --format csv"),
            ("solve", ["--check-assumption"],
             "unrecognized arguments: --check-assumption"),
            ("solve", ["--dump-matrix"], "unrecognized arguments: --dump-matrix"),
            ("solve", ["--format", "csv"],
             "argument --format: expected formats among json, vtk, got 'csv'"),
            # the star takes no radius or centre
            ("solve", ["--radius", "0.2"],
             "argument --radius: not allowed with --domain star"),
            ("converge", ["--domain", "star", "--center", "0.3,0.3"],
             "argument --center: not allowed with --domain star"),
            ("solve", ["--center", "0.3,0.3", "--radius", "0.2"],
             "argument --radius: not allowed with --domain star"),
            ("solve", ["--dom", "circle"], "unrecognized arguments: --dom circle")):
        assert main([command, *flag, "--levels", "4,8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_empty_levels_rejected():
    with pytest.raises(UsageError):
        parse_config(["solve", "--levels="])


def test_options_come_from_the_command_line_only(tmp_path, capsys, monkeypatch):
    # a config file is an unknown argument, and no environment variable
    # redirects --out
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("levels = 4,8\n")
    out = tmp_path / "x"
    assert main(["converge", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: unrecognized arguments: --config {cfg_file}\n")
    assert list(tmp_path.iterdir()) == [cfg_file]
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("CTSTOKES_OUTDIR", str(env_out))
    assert main(["converge", "--domain", "circle", "--levels", "4,8", "--nu", "1",
                 "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == [
        "convergence.json", "convergence_nu1.csv"]
    assert not env_out.exists()


def test_readme_command_lines_parse():
    # the ```sh block under README's "Command line" heading advertises only
    # options the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", readme,
                      re.S | re.M).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("ctstokes ")]
    assert len(lines) == 3
    for line in lines:
        command, _ = parse_config(shlex.split(line)[1:])
        assert command == line.split()[1]


def test_solve_command_circle_fixture(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--domain", "circle", "--radius", "0.4",
               "--levels", "8", "--nu", "0.1", "--out", str(out),
               "--format", "json,vtk"])
    assert rc == 0
    assert (out / "solve_reports.json").exists()
    assert (out / "solution_n8_nu0.1.vtk").exists()
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
    out = tmp_path / "run"
    rc = main(["solve", "--domain", "circle", "--radius", "0.05", "--levels", "4",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: n=4: mesh too coarse for domain: no interior triangles\n")
    assert not out.exists()


def test_converge_unresolvable_domain_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["converge", "--domain", "circle", "--radius", "0.05",
               "--levels", "4,8", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: n=4: mesh too coarse for domain: no interior triangles\n")
    assert not out.exists()


def test_unresolvable_grid_spacing_is_mesh_error(tmp_path, capsys):
    # at x = 1e200 the box's x-range rounds to one value: every vertex would
    # land on the centre
    out = tmp_path / "run"
    rc = main(["solve", "--domain", "circle", "--center", "1e200,0.5",
               "--levels", "4", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n=4: the box [1e+200, 1e+200] x [0, 1] "
                          "cannot resolve an n=4 grid")
    assert err.count("\n") == 1
    assert not out.exists()


def test_overflowing_load_is_named(tmp_path, capsys):
    # f/nu overflows at a subnormal viscosity; the factor itself is fine
    out = tmp_path / "run"
    args = ["--domain", "circle", "--nu", "1e-320", "--out", str(out)]
    assert main(["solve", "--levels", "4", *args]) == 1
    assert capsys.readouterr().err == (
        "n=4 nu=9.99989e-321: SOLVE FAILED: the load f/nu is not finite at "
        "nu=9.99989e-321\n")
    assert main(["converge", "--levels", "4,8", *args]) == 1
    assert capsys.readouterr().err == (
        "error: n=4 nu=9.99989e-321: the load f/nu is not finite at "
        "nu=9.99989e-321\n")


def test_overflowing_penalty_is_named(tmp_path, capsys):
    # sigma/h_e overflows where the boundary blocks are assembled
    out = tmp_path / "run"
    args = ["--domain", "circle", "--sigma", "1e308", "--out", str(out)]
    message = "error: n=4: the penalty sigma/h_e overflows at sigma=1e+308\n"
    assert main(["solve", "--levels", "4", *args]) == 1
    assert capsys.readouterr().err == message
    assert main(["converge", "--levels", "4,8", *args]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_overflowing_level_set_is_usage_error(tmp_path, capsys):
    # |x - center| overflows over the box of a circle of radius 1e200
    out = tmp_path / "run"
    rc = main(["solve", "--domain", "circle", "--radius", "1e200", "--levels", "4",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: level set is not finite in the bounding box\n"
    assert not out.exists()


def test_overflowing_bounding_box_is_usage_error(tmp_path, capsys):
    # the circle's padded box is 2.5 r wide, which overflows above r = 7e307
    out = tmp_path / "run"
    rc = main(["solve", "--domain", "circle", "--radius", "1e308", "--levels", "4",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the bounding box [-1.25e+308, 1.25e+308] x [-1.25e+308, 1.25e+308] "
        "is too large: its sides overflow\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e150", "1e200", "1e305"])
def test_large_penalty_fails_every_solve(tmp_path, capsys, sigma):
    # sigma/h_e is finite but swamps the system, and every viscosity ends in
    # a diagnosis with no numpy warning (an error here).  At 1e305 a macro's
    # interior inverse overflows and no solve runs.  At 1e150 and 1e200 a
    # solve meets the residual contract and then breaks the divergence
    # contract, or its error norms overflow
    rc = main(["solve", "--domain", "circle", "--levels", "4", "--sigma", sigma,
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    nus = ["0.1", "0.001", "1e-05"]
    lines = captured.err.splitlines()
    if sigma == "1e305":
        assert captured.out == ""
        assert [line.split(": SOLVE FAILED: ")[0] for line in lines] == [
            f"n=4 nu={nu}" for nu in nus]
        return
    assert [line.split(": ")[0] for line in lines] == [f"n=4 nu={nu}" for nu in nus]
    for nu, line in zip(nus, lines):
        assert (": SOLVE FAILED: " in line
                or (": divergence contract violated: " in line
                    and line.endswith(f"at nu={nu}, sigma={float(sigma):g}"))), line


def test_overflowing_error_norms_name_nu_and_sigma(tmp_path, capsys):
    # at sigma = 1e200 the pressure error scales with sigma on the circle at
    # n = 4 and its square overflows at every viscosity: the diagnosis names
    # both inputs instead of blaming the viscosity
    rc = main(["solve", "--domain", "circle", "--levels", "4", "--sigma", "1e200",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    failed = [(nu, line) for nu, line in zip(["0.1", "0.001", "1e-05"], lines)
              if ": SOLVE FAILED: " in line]
    assert failed
    for nu, line in failed:
        assert line.endswith(f"at nu={nu}, sigma=1e+200"), line
    assert not any("--nu too" in line for line in lines)


def test_divergence_violation_names_its_bound_residual_and_sigma(tmp_path, capsys):
    # an extreme but finite penalty leaves a divergence that breaks the
    # pointwise guarantee at a coarse level while the solve succeeds
    rc = main(["solve", "--domain", "circle", "--levels", "4", "--nu", "0.1",
               "--sigma", "1e150", "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    report = dict(re.findall(r"(\w+)=(\S+)", captured.out))
    linf_div, residual = float(report["linf_div"]), float(report["residual"])
    assert linf_div > 1e-8 >= 1e3 * residual
    assert captured.err == (
        f"n=4 nu=0.1: divergence contract violated: linf_div={report['linf_div']} "
        f"> 1.000e-08 = max(1e-8, 1e3 x residual={report['residual']}) "
        "at nu=0.1, sigma=1e+150\n")


@pytest.mark.parametrize("args", [
    ["--domain", "star", "--levels", "16,32", "--nu", "0.1,1e-5", "--sigma", "1e6"],
    ["--domain", "circle", "--levels", "4", "--sigma", "1e10"],
    ["--domain", "circle", "--levels", "4", "--sigma", "1e12"],
    ["--domain", "circle", "--levels", "4", "--sigma", "1e14"]])
def test_large_penalty_keeps_the_divergence_guarantee(tmp_path, capsys, args):
    # the penalised factor resolves these to the residual contract and the
    # pointwise divergence; the pinned saddle LU gave linf_div up to 0.65 on
    # the star at sigma = 1e6 and 2.2e-8 to 4.2 on the circle
    rc = main(["solve", *args, "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.err == ""
    reports = json.loads((tmp_path / "run" / "solve_reports.json").read_text())
    assert len(reports) in (3, 4)
    bound = 1e-12 if "star" in args else 1e-8
    for report in reports:
        assert report["residual"] <= 1e-14 and report["linf_div"] <= bound, report


def test_tiny_viscosity_breaks_the_absolute_divergence_bound(tmp_path, capsys):
    # an open defect, pinned: |grad u_h| grows like 1/nu, so rounding alone
    # lifts linf_div above the absolute 1e-8 (8.2e-8 and 1.6e-8 here) while
    # the solve resolves the system to 7.7e-16 and 1.3e-15
    out = tmp_path / "run"
    rc = main(["converge", "--domain", "circle", "--levels", "8,16", "--nu", "1e-12",
               "--out", str(out)])
    assert rc == 1
    runs = json.loads((out / "convergence.json").read_text())["1e-12"]["runs"]
    assert [run["n"] for run in runs] == [8, 16]
    for run in runs:
        assert run["linf_div"] > 1e-8 and run["residual"] <= 1e-14
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["n=8 nu=1e-12", "n=16 nu=1e-12"]
    assert all("divergence contract violated" in line
               and line.endswith("at nu=1e-12, sigma=40")
               for line in lines)


@pytest.mark.parametrize("nu, reason", [
    # the pressure error is nu times that of the viscous problem, about
    # nu * 1.7 here, and its square overflows
    ("1e300", "the error norms are not finite at nu=1e+300, sigma=40"),
    # f = -nu lap u + grad p itself overflows
    ("1.7e308", "the load f is not finite at nu=1.7e+308"),
    # the solve meets the contract, but the velocity error grows like 1/nu
    # (README's pressure-robustness defect) and its norm overflows
    ("1e-200", "the error norms are not finite at nu=1e-200, sigma=40"),
    ("1e-300", "the error norms are not finite at nu=1e-300, sigma=40")])
def test_extreme_viscosity_fails_the_solve(tmp_path, capsys, nu, reason):
    rc = main(["solve", "--domain", "circle", "--levels", "4", "--nu", nu,
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"n=4 nu={float(nu):g}: SOLVE FAILED: {reason}\n"


def _extreme_floats():
    """Floats of magnitude 1e100 to 1e308 or 1e-308 to 1e-100 with
    log-uniform exponents, subnormals, the largest float, inf and nan, each
    of either sign."""
    exponent = st.one_of(st.integers(100, 307), st.integers(-308, -100))
    finite = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), exponent)
    subnormal = st.floats(5e-324, sys.float_info.min, exclude_max=True)
    special = st.sampled_from([sys.float_info.max, math.inf, math.nan])
    return st.tuples(st.one_of(finite, subnormal, special),
                     st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


_REPORT_VALUE = re.compile(r"(?:l2_u|h1_u|l2_p|linf_div|delta_ratio|residual)=(\S+)")


def _assert_diagnosed_result(command, domain, levels, option, value):
    """The run exits 0, 1 or 2 without raising or warning (warnings are
    errors here), prints only finite norms, and explains a non-zero exit:
    each stderr line is a usage error or names a solve at one of the levels."""
    # '--flag=value' keeps a value that starts with '-' from reading as a flag
    args = {"center-x": f"--center={value!r},0.5",
            "center-y": f"--center=0.5,{value!r}"}.get(option, f"--{option}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = main([command, "--domain", domain, "--levels", levels, "--out", tmp, args])
    assert rc in (0, 1, 2)
    for number in _REPORT_VALUE.findall(out.getvalue()):
        assert math.isfinite(float(number)), out.getvalue()
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        diagnosis = re.compile(rf"error: .+|n=(?:{levels.replace(',', '|')}) nu=\S+: "
                               r"(?:SOLVE FAILED|divergence contract violated): .+")
        assert lines and all(diagnosis.fullmatch(line) for line in lines), lines


@settings(max_examples=100)
@given(option=st.sampled_from(["radius", "center-x", "center-y", "sigma", "nu"]),
       value=_extreme_floats())
def test_extreme_inputs_end_in_a_diagnosed_result(option, value):
    _assert_diagnosed_result("solve", "circle", "4", option, value)


_CIRCLE_OPTIONS = ["radius", "center-x", "center-y", "sigma", "nu"]


@settings(max_examples=150)
@given(run=st.one_of(
           st.tuples(st.just(("converge", "circle", "4,8")),
                     st.sampled_from(_CIRCLE_OPTIONS)),
           st.tuples(st.sampled_from([("solve", "star", "8"),
                                      ("converge", "star", "8,16")]),
                     st.sampled_from(["sigma", "nu"]))),
       value=_extreme_floats())
def test_extreme_inputs_end_in_a_diagnosed_result_on_every_command(run, value):
    # the contract above, for a convergence study on the circle and for a
    # solve and a study on the star, whose shape takes no centre or radius
    (command, domain, levels), option = run
    _assert_diagnosed_result(command, domain, levels, option, value)


def test_cli_import_loads_no_scipy_special_or_io():
    # scipy.special and scipy.io cost start-up time and memory that no solve
    # needs.  Counted beyond what the sparse solver itself loads, which can
    # differ between scipy versions.
    code = ("import sys, numpy, scipy.sparse.linalg\n"
            "before = set(sys.modules)\n"
            "import ctstokes.cli\n"
            "print(' '.join(m for m in sorted(set(sys.modules) - before)"
            " if m.split('.')[:2] in (['scipy', 'special'], ['scipy', 'io'])))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == ""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every reduction whose order could follow the BLAS thread split is a
    # numpy pairwise sum: one and two threads give the same bytes.  n = 32
    # is the first level whose reductions a threaded BLAS splits
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-m", "ctstokes.cli", "converge",
                              "--levels", "8,16,32", "--out", str(out)],
                             env=env, check=True, capture_output=True, timeout=300)
        runs.append((run.stdout, {f.name: f.read_bytes() for f in out.iterdir()}))
    assert sorted(runs[0][1]) == ["convergence.json", "convergence_nu0.001.csv",
                                  "convergence_nu0.1.csv", "convergence_nu1e-05.csv"]
    assert runs[0] == runs[1]


def test_invalid_domain_is_usage_error_before_output(tmp_path, capsys):
    # a circle too small for any validation sample to fall inside it
    for command, levels in (("solve", "4"), ("converge", "4,8")):
        out = tmp_path / command
        rc = main([command, "--domain", "circle", "--radius", "1e-6",
                   "--levels", levels, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: none of the 4096 points sampled in the bounding box "
            "[0, 1] x [0, 1] has phi < 0\n")
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


def test_converge_needs_two_levels(tmp_path, capsys):
    # the order of the levels is run_convergence's rule; it ends as a usage error
    out = tmp_path / "x"
    for levels, message in (("8", "convergence study needs at least two levels"),
                            ("16,8", "levels must be strictly increasing"),
                            ("8,8", "levels must be strictly increasing")):
        assert main(["converge", "--levels", levels, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("sigma", "abc"), ("sigma", "-1"), ("center", "1,2,3"),
    ("domain", "square"), ("format", "xml"), ("levels", "0"),
    # non-finite numbers and an empty format list are usage errors too
    ("radius", "inf"), ("center", "inf,0.5"), ("center", "nan,0.5"),
    ("sigma", "inf"), ("nu", "inf"), ("format", "")])
def test_bad_value_same_error_from_flag_or_file(tmp_path, capsys, key, value):
    # options come from flags only: a bad value is a usage error that names
    # its flag, the same from parse_config and from main
    out = tmp_path / "run"
    args = [f"--{key}", value]
    with pytest.raises(UsageError) as exc:
        parse_config(["solve", *args])
    assert main(["solve", *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {exc.value}\n"
    assert captured.err.startswith(f"error: argument --{key}: ")
    assert captured.out == ""
    assert not out.exists()


def test_usage_errors_are_one_line(tmp_path, capsys):
    out = tmp_path / "run"
    for argv, message in (
            (["converge", "--nu", "0.1,0.1", "--out", str(out)],
             "error: argument --nu: expected distinct positive viscosities"),
            ([], "error: the following arguments are required: command")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()
