import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenmorse as gm
from conftest import DIPOLE_RADIUS
from greenmorse import cli, critical, shape


def test_find_critical_manifest_records_engine_and_environment(tmp_path, monkeypatch,
                                                               lobed_domain):
    domain = tmp_path / "lobed.json"
    vortex = tmp_path / "vortex.json"
    gm.save_domain(lobed_domain, domain)
    gm.save_vortex(gm.VortexStrengths([1.0]), gm.Configuration([[0.1, 0.0]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "out"
    assert cli.main(["find-critical", str(domain), str(vortex), "--starts", "2",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {"domain": str(domain), "vortex": str(vortex), "starts": 2,
                                  "seed": 0, "nodes": 256, "newton_tol": 1e-10,
                                  "collision_margin": 0.05}
    diagnostics = gm.build_engine(gm.load_domain(domain)).diagnostics
    # the conformal map's self-test numbers; a fresh build reproduces them
    assert set(diagnostics) == {"self_test_error", "exterior_cauchy_error", "centre_image",
                                "solve_residual", "iterations", "solve_nodes",
                                "eval_margin"}
    assert manifest["engine"] == diagnostics
    assert manifest["numpy"] == np.__version__
    # no command imports scipy, so the manifest records no scipy version
    assert "scipy" not in manifest
    assert manifest["openblas_num_threads"] == "1"

    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert cli.main(["find-critical", str(domain), str(vortex), "--starts", "2",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["openblas_num_threads"] is None


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs most of a command's start-up; the search draws its
    # starts without it
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    code = ("import sys, greenmorse.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_cli_import_does_not_load_openssl():
    # hashlib loads OpenSSL, several MB of every command's resident set;
    # only find-critical's report fingerprints use it, and import it then
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    code = "import sys, greenmorse.cli; print('_hashlib' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def _lobed_search_inputs(tmp_path, lobed_domain):
    """The lobed domain and the search benchmark's N = 3 strengths, as files."""
    domain, vortex = tmp_path / "lobed.json", tmp_path / "vortex.json"
    gm.save_domain(lobed_domain, domain)
    gm.save_vortex(gm.VortexStrengths([1.0, 1.0, -1.0]),
                   gm.Configuration([[0.3, 0.0], [-0.15, 0.25], [-0.15, -0.25]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    return str(domain), str(vortex)


def test_find_critical_does_not_load_numpy_random(tmp_path, lobed_domain):
    # importing numpy.random (and through it secrets and OpenSSL) costs a
    # fresh command several ms; the Halton scramble draws its permutations
    # from a private PCG64 instead
    domain, vortex = _lobed_search_inputs(tmp_path, lobed_domain)
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    code = ("import sys, greenmorse.cli as cli; code = cli.main(sys.argv[1:]); "
            "print(code, 'numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, "find-critical", domain, vortex,
                             "--starts", "4", "--out", str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", "False"]


def test_find_critical_manifest_counts_the_candidates(tmp_path, lobed_domain):
    # a collision margin wider than the domain refuses every candidate: the
    # search draws its whole budget, max(200 starts, 4000) in blocks of 128,
    # and exits 0 with no start; the manifest says how many it drew
    domain, vortex = _lobed_search_inputs(tmp_path, lobed_domain)
    for flags, starts, candidates in ((["--collision-margin", "5"], 0, 4096), ([], 4, 128)):
        out = tmp_path / f"out{starts}"
        assert cli.main(["find-critical", domain, vortex, "--starts", "4", *flags,
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert report["stats"]["starts"] == starts
        assert manifest["stats"]["candidates"] == candidates
        assert (manifest["stats"]["rounds"] == 0) == (starts == 0)
        # the report is unchanged by the count
        assert "candidates" not in report["stats"]


def _write_field(path, mode):
    cos = [0.0] * mode + [1.0]
    path.write_text(json.dumps({"type": "normal_fourier", "cos": cos}), encoding="utf-8")
    return str(path)


def _dipole_inputs(tmp_path, start=None):
    """The unit disk, the counter-rotating pair at ``start`` (by default its
    equilibrium on the axis) and the cos 3t normal field, as files."""
    domain = tmp_path / "disk.json"
    vortex = tmp_path / "dipole.json"
    gm.save_domain(gm.DomainSpec(gm.unit_circle()), domain)
    if start is None:
        start = [[DIPOLE_RADIUS, 0.0], [-DIPOLE_RADIUS, 0.0]]
    gm.save_vortex(gm.VortexStrengths([1.0, -1.0]), gm.Configuration(start),
                   gm.kirchhoff_routh_interaction(), vortex)
    return str(domain), str(vortex), _write_field(tmp_path / "cos3.json", 3)


def test_commands_do_not_load_scipy_linalg(tmp_path, lobed_domain):
    # every command runs on numpy alone: importing the CLI loads no scipy
    # module, and with scipy made unimportable the five commands and the
    # Nystrom engine still run
    domain = tmp_path / "lobed.json"
    vortex = tmp_path / "vortex.json"
    gm.save_domain(lobed_domain, domain)
    gm.save_vortex(gm.VortexStrengths([1.0, 1.0, -1.0]),
                   gm.Configuration([[0.3, 0.0], [-0.15, 0.25], [-0.15, -0.25]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    disk, dipole, cos3 = _dipole_inputs(tmp_path)
    commands = [
        ["green-check", str(domain)],
        ["find-critical", str(domain), str(vortex), "--starts", "4"],
        ["simulate", str(domain), str(vortex), "--dt", "0.01", "--horizon", "0.02"],
        ["perturb-study", disk, dipole, "--field", cos3, "--eps-grid", "0,0.01"],
        ["shape-verify", str(domain), "--field", cos3],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    code = (
        "import sys, greenmorse.cli as cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None\n"
        f"for i, command in enumerate({commands!r}):\n"
        f"    print(cli.main(command + ['--out', {str(tmp_path)!r} + f'/out{{i}}']))\n"
        "import greenmorse as gm\n"
        f"engine = gm.IntegralGreenEngine(gm.load_domain({str(domain)!r}))\n"
        "print(repr(engine.regular_part([0.3, 0.1], [-0.2, 0.2]).value))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    loaded, *ran, value = result.stdout.strip().splitlines()
    assert loaded == "[]"
    assert ran == ["0"] * len(commands)
    reference = gm.IntegralGreenEngine(lobed_domain)
    assert float(value) == reference.regular_part([0.3, 0.1], [-0.2, 0.2]).value


def test_perturb_study_keeps_one_collision_margin(tmp_path, monkeypatch):
    # the start's polish, its evaluation and every corrector step keep pairs
    # CORRECTOR_COLLISION_MARGIN apart
    margins = []

    def spy(evaluate):
        def recording(engine, strengths, spec, config, collision_margin=None):
            margins.append(collision_margin)
            return evaluate(engine, strengths, spec, config, collision_margin)
        return recording

    # newton_polish evaluates through f_omega_stack, the rest of shape through f_omega
    monkeypatch.setattr(critical, "f_omega_stack", spy(critical.f_omega_stack))
    monkeypatch.setattr(shape, "f_omega", spy(shape.f_omega))
    domain, vortex, field = _dipole_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["perturb-study", domain, vortex, "--field", field,
                     "--eps-grid", "0,0.01,0.02", "--out", str(out)]) == 0
    assert len(json.loads((out / "trace.json").read_text(encoding="utf-8"))["eps"]) == 3
    assert shape.CORRECTOR_COLLISION_MARGIN == 0.02
    assert len(margins) >= 3 and set(margins) == {0.02}


def test_perturb_study_writes_the_trace(tmp_path):
    domain, vortex, field = _dipole_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["perturb-study", domain, vortex, "--field", field,
                     "--eps-grid", "0,0.01,0.02", "--equivariant", "cyclic:3", "--svg",
                     "--out", str(out)]) == 0
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    assert trace["eps"] == [0.0, 0.01, 0.02]
    assert not trace["truncated"] and trace["diagnostic"] is None
    assert max(trace["residuals"]) <= 1e-10
    rows = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "eps,x1,y1,x2,y2,residual,min_abs_eig" and len(rows) == 4
    assert (out / "margin_vs_eps.svg").read_text(encoding="utf-8").startswith("<svg")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == ["trace.csv", "trace.json", "margin_vs_eps.svg"]
    assert manifest["config"]["equivariant"] == "cyclic:3"


def test_perturb_study_manifest_records_each_rung_solve(tmp_path):
    # the disk's closed form solves nothing; the cos 3t rungs eps = 0.0075
    # and 0.00875 are the last solved on 64 and the first on 128 of 512 nodes
    domain, vortex, field = _dipole_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["perturb-study", domain, vortex, "--field", field,
                     "--eps-grid", "0,0.0075,0.00875", "--nodes", "512",
                     "--out", str(out)]) == 0
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    assert trace["eps"] == [0.0, 0.0075, 0.00875]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stats"] == {"solve_nodes": [None, 64, 128]}
    # the trace files hold the rows alone
    assert "solve_nodes" not in trace
    assert (out / "trace.csv").read_text(encoding="utf-8").splitlines()[0] == \
        "eps,x1,y1,x2,y2,residual,min_abs_eig"


def test_perturb_study_start_that_does_not_polish(tmp_path):
    # a vortex outside the domain
    domain, vortex, field = _dipole_inputs(tmp_path, start=[[1.2, 0.0], [-0.5, 0.0]])
    out = tmp_path / "out"
    assert cli.main(["perturb-study", domain, vortex, "--field", field,
                     "--eps-grid", "0,0.01", "--out", str(out)]) == 1
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    assert trace == {"error": "start configuration did not polish: inadmissible-start"}
    assert not (out / "trace.csv").exists()


def test_manifest_config_holds_every_flag(tmp_path):
    # every parsed argument but --out, on the success and the failure path,
    # so that the run can be repeated from its manifest
    domain, vortex, field = _dipole_inputs(tmp_path, start=[[1.2, 0.0], [-0.5, 0.0]])
    out = tmp_path / "out"
    assert cli.main(["shape-verify", domain, "--field", field, "--x", "0.25,-0.1",
                     "--y", "0.1,0.35", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {"domain": domain, "field": field, "quantity": "H",
                                  "x": "0.25,-0.1", "y": "0.1,0.35", "vortex": None,
                                  "eps_ladder": "1e-2,5e-3,2.5e-3", "nodes": 256}
    assert cli.main(["perturb-study", domain, vortex, "--field", field,
                     "--eps-grid", "0,0.01", "--nodes", "128", "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {"domain": domain, "vortex": vortex, "field": field,
                                  "eps_grid": "0,0.01", "equivariant": None, "nodes": 128,
                                  "newton_tol": 1e-10, "svg": False}


@pytest.mark.parametrize("flags, message", [
    (["--equivariant", "cyclic"], "expected 'kind:order[:axis]'"),
    (["--eps-grid", "", "--svg"], "eps grid must be nonempty"),
    (["--eps-grid", "0,nan"], "eps grid must be nonempty, finite and nonnegative"),
    (["--eps-grid", "0,0.01,inf"], "eps grid must be nonempty, finite and nonnegative"),
], ids=["group-without-order", "empty-grid", "nan-grid", "inf-grid"])
def test_perturb_study_rejects_malformed_flags(tmp_path, capsys, flags, message):
    domain, vortex, field = _dipole_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["perturb-study", domain, vortex, "--field", field, *flags,
                     "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_perturb_study_grid_past_the_margin(tmp_path, capsys):
    domain, vortex, field = _dipole_inputs(tmp_path)
    assert cli.main(["perturb-study", domain, vortex, "--field", field,
                     "--eps-grid", "0,0.05,0.1,0.2", "--out", str(tmp_path / "out")]) == 2
    assert "exceeds the margin" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"amplitude": float("nan")},
                                   {"cos": [0.0, 0.0, 0.0, float("nan")]},
                                   {"cutoff_width": float("nan")}],
                         ids=["nan-amplitude", "nan-coefficient", "nan-cutoff"])
def test_commands_reject_a_non_finite_field(tmp_path, capsys, monkeypatch, entry):
    # refused when the field file is read, before any engine is built
    domain, vortex, _ = _dipole_inputs(tmp_path)
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"type": "normal_fourier", "cos": [0.0, 0.0, 0.0, 1.0],
                                 **entry}), encoding="utf-8")
    built = []
    monkeypatch.setattr(shape, "build_engine", lambda *args: built.append(args))
    monkeypatch.setattr(cli, "build_engine", lambda *args: built.append(args))
    for command in (["shape-verify", domain], ["perturb-study", domain, vortex]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--field", str(field), "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert built == [] and not any(out.iterdir())


def test_find_critical_writes_the_points_csv(tmp_path):
    domain, vortex, _ = _dipole_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["find-critical", domain, vortex, "--starts", "8", "--out", str(out)]) == 0
    points = json.loads((out / "report.json").read_text(encoding="utf-8"))["critical_points"]
    rows = [line.split(",") for line in
            (out / "critical_points.csv").read_text(encoding="utf-8").splitlines()]
    assert rows[0] == ["x1", "y1", "x2", "y2", "residual", "morse_index", "nullity", "margin",
                       "orbit_tag"]
    assert points and len(rows) == len(points) + 1
    for row, cp in zip(rows[1:], points):
        # 17 significant digits reproduce each double exactly
        assert [float(v) for v in row[:4]] == [v for p in cp["points"] for v in p]
        assert [float(row[4]), int(row[5]), int(row[6]), float(row[7]), row[8]] == [
            cp["residual"], cp["morse_index"], cp["nullity"], cp["margin"], cp["orbit_tag"]]


def test_find_critical_csv_header_without_points(tmp_path, lobed_domain):
    # the coordinate columns come from the vortex file's strengths, so a
    # search that converges nowhere (no gradient norm reaches 1e-30) writes
    # the same header as one that finds points
    domain, vortex = tmp_path / "lobed.json", tmp_path / "vortex.json"
    gm.save_domain(lobed_domain, domain)
    gm.save_vortex(gm.VortexStrengths([1.0, 1.0, -1.0]),
                   gm.Configuration([[0.3, 0.0], [-0.15, 0.25], [-0.15, -0.25]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    out = tmp_path / "out"
    assert cli.main(["find-critical", str(domain), str(vortex), "--starts", "1",
                     "--newton-tol", "1e-30", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["critical_points"] == []
    assert (out / "critical_points.csv").read_text(encoding="utf-8").splitlines() == [
        "x1,y1,x2,y2,x3,y3,residual,morse_index,nullity,margin,orbit_tag"]


@pytest.mark.parametrize("lobed", [False, True])
def test_shape_verify_dH(tmp_path, disk_domain, lobed_domain, lobed):
    domain = tmp_path / "domain.json"
    gm.save_domain(lobed_domain if lobed else disk_domain, domain)
    field = _write_field(tmp_path / "cos3.json", 3)
    out = tmp_path / "out"
    assert cli.main(["shape-verify", str(domain), "--field", field, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] and report["failures"] == []
    assert report["eps_ladder"] == [1e-2, 5e-3, 2.5e-3]
    assert len((out / "fd_ladder.csv").read_text(encoding="utf-8").splitlines()) == 4

    # grad_f of the dipole: each ladder row holds eps and the 2N = 4
    # differences, one column named for each coordinate
    vortex = tmp_path / "dipole.json"
    gm.save_vortex(gm.VortexStrengths([1.0, -1.0]),
                   gm.Configuration([[DIPOLE_RADIUS, 0.0], [-DIPOLE_RADIUS, 0.0]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    assert cli.main(["shape-verify", str(domain), "--field", field, "--quantity", "grad_f",
                     "--vortex", str(vortex), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] and len(report["analytic"]) == 4
    rows = [line.split(",") for line in
            (out / "fd_ladder.csv").read_text(encoding="utf-8").splitlines()]
    assert rows[0] == ["eps", "x1", "y1", "x2", "y2"]
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [[float(v) for v in row] for row in rows[1:]] == [
        [eps, *values] for eps, values in zip(report["eps_ladder"], report["fd_values"])]


@pytest.mark.parametrize("ladder", ["nan", "1e-2,inf", "1e-2,nan,2.5e-3", "1e-2,1e-2", ""])
def test_shape_verify_rejects_a_malformed_ladder(tmp_path, capsys, monkeypatch, disk_domain,
                                                ladder):
    # refused before the base engine is built; no report is written
    domain = tmp_path / "disk.json"
    gm.save_domain(disk_domain, domain)
    field = _write_field(tmp_path / "cos3.json", 3)
    built = []
    monkeypatch.setattr(shape, "build_engine", lambda *args: built.append(args))
    out = tmp_path / "out"
    assert cli.main(["shape-verify", str(domain), "--field", field, "--eps-ladder", ladder,
                     "--out", str(out)]) == 2
    assert ("error: eps ladder must be nonempty, finite, positive and strictly decreasing"
            in capsys.readouterr().err)
    assert built == [] and not any(out.iterdir())


@pytest.mark.parametrize("circular", [False, True])
def test_green_check_compares_the_default_engine(tmp_path, disk_domain, lobed_domain,
                                                 circular):
    domain = tmp_path / "domain.json"
    gm.save_domain(disk_domain if circular else lobed_domain, domain)
    out = tmp_path / "out"
    assert cli.main(["green-check", str(domain), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    checks = {c["name"]: c for c in report["checks"]}
    assert report["passed"] and all(c["passed"] for c in checks.values())
    label = "disk_oracle" if circular else "conformal_vs_integral"
    for quantity in ("value", "gradient", "hessian", "trace"):
        assert f"{label}_{quantity}" in checks
    other = "disk" if circular else "conformal"
    assert {"integral_symmetry", f"{other}_symmetry"} <= set(checks)
    if not circular:
        assert checks["conformal_vs_integral_value"]["max_error"] <= 1e-11
        assert {"conformal_exterior_cauchy_error", "conformal_centre_image",
                "conformal_solve_residual"} <= set(checks)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    default = gm.build_engine(gm.load_domain(domain))
    assert manifest["engine"] == default.diagnostics
    assert manifest["config"] == {"domain": str(domain), "nodes": 256}


def _simulate_inputs(tmp_path):
    domain = tmp_path / "disk.json"
    vortex = tmp_path / "vortex.json"
    gm.save_domain(gm.DomainSpec(gm.unit_circle()), domain)
    gm.save_vortex(gm.VortexStrengths([1.0, -1.0]),
                   gm.Configuration([[0.3, 0.1], [-0.2, -0.3]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    return str(domain), str(vortex)


@pytest.mark.parametrize("flag, message", [("--dt", "time step must be positive and finite"),
                                           ("--horizon", "horizon must be finite")],
                         ids=["dt", "horizon"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_non_finite_settings(tmp_path, capsys, flag, message, value):
    # refused by DynamicsConfig before anything is integrated
    domain, vortex = _simulate_inputs(tmp_path)
    assert cli.main(["simulate", domain, vortex, flag, value,
                     "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0.1", "0.14"])
def test_simulate_rejects_a_fractional_step_count(tmp_path, capsys, horizon):
    # 2.5 and 3.5 steps of 0.04: refused, where rounding used to run 2 and 4
    domain, vortex = _simulate_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", domain, vortex, "--dt", "0.04", "--horizon", horizon,
                     "--out", str(out)]) == 2
    assert "error: horizon must be a whole number of time steps" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_find_critical_rejects_a_nan_collision_margin(tmp_path, capsys):
    # refused by SearchConfig, through kr.check_collision_margin, before any start
    domain, vortex = _simulate_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["find-critical", domain, vortex, "--collision-margin", "nan",
                     "--out", str(out)]) == 2
    assert "error: collision_margin must be >= 0, got nan" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_simulate_manifest_records_solver_stats(tmp_path):
    domain, vortex = _simulate_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", domain, vortex, "--dt", "0.01", "--horizon", "0.03",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {"domain": domain, "vortex": vortex, "dt": 0.01,
                                  "horizon": 0.03, "integrator": "midpoint", "nodes": 256}
    engine = gm.build_engine(gm.load_domain(domain))
    strengths, config, spec = gm.load_vortex(vortex)
    traj = gm.integrate(engine, strengths, spec, config.flat(),
                        gm.DynamicsConfig(dt=0.01, horizon=0.03))
    assert manifest["stats"] == traj.solver_stats()
    assert manifest["stats"]["solver_iterations"]["sum"] >= 3
    # the trajectory file keeps its columns
    header = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,x1,y1,x2,y2,hamiltonian,angular_impulse"
