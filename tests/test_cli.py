import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import greenmorse as gm
from conftest import DIPOLE_RADIUS
from greenmorse import cli


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
                                "solve_residual", "iterations", "eval_margin"}
    assert manifest["engine"] == diagnostics
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__
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
    # scipy.linalg was most of the rest of the start-up; only the Nystrom
    # engine uses it, and imports it when it is built
    domain = tmp_path / "lobed.json"
    vortex = tmp_path / "vortex.json"
    gm.save_domain(lobed_domain, domain)
    gm.save_vortex(gm.VortexStrengths([1.0, 1.0, -1.0]),
                   gm.Configuration([[0.3, 0.0], [-0.15, 0.25], [-0.15, -0.25]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    disk, dipole, cos3 = _dipole_inputs(tmp_path)
    commands = [
        ["find-critical", str(domain), str(vortex), "--starts", "4"],
        ["simulate", str(domain), str(vortex), "--dt", "0.01", "--horizon", "0.02"],
        ["perturb-study", disk, dipole, "--field", cos3, "--eps-grid", "0,0.01"],
        ["shape-verify", str(domain), "--field", cos3],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    code = (
        "import sys, greenmorse.cli as cli\n"
        "def linalg(): return sorted(m for m in sys.modules if m.startswith('scipy.linalg'))\n"
        f"for i, command in enumerate({commands!r}):\n"
        f"    code = cli.main(command + ['--out', {str(tmp_path)!r} + f'/out{{i}}'])\n"
        "    print(code, linalg())\n"
        "import greenmorse as gm\n"
        f"engine = gm.IntegralGreenEngine(gm.load_domain({str(domain)!r}))\n"
        "value = engine.regular_part([0.3, 0.1], [-0.2, 0.2]).value\n"
        "print(engine.self_test_error <= 1e-8, bool(linalg()), repr(value))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    *ran, built = result.stdout.strip().splitlines()
    assert ran == ["0 []"] * len(commands)
    # the lazily imported scipy.linalg serves the integral engine as before
    ok, loaded, value = built.split()
    assert ok == "True" and loaded == "True"
    reference = gm.IntegralGreenEngine(lobed_domain)
    assert float(value) == reference.regular_part([0.3, 0.1], [-0.2, 0.2]).value


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
], ids=["group-without-order", "empty-grid"])
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
