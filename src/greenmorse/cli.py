"""Command-line harness: reproducible runs with machine-readable outputs.

Exit codes: 0 success, 1 quantitative (tolerance) failure, 2 malformed
input or validation error.  All randomness flows from --seed flags or fixed
seeds; CSV bodies are formatted at 17 significant digits so identical inputs
reproduce byte-identical files.  A run manifest is written last: the
command, its configuration (every parsed argument but ``--out``, as given, so
the run can be repeated from it at the same version) and outputs, the
diagnostics of the command's base Green engine, the one ``build_engine``
selects (null for shape-verify, whose engines are rebuilt per rung; on a
non-circular domain the conformal map's self-test numbers:
``self_test_error``, the largest of ``exterior_cauchy_error``,
``centre_image`` and ``solve_residual``, with ``iterations``, the
Kerzman-Stein solve's operator products, and ``eval_margin``), the numpy and
scipy versions and the OPENBLAS_NUM_THREADS setting (null if unset).
simulate's manifest also has ``stats``: the sum and maximum over the steps of
the integrator's fixed-point iterations and final update sizes.

``find-critical`` admits points more than the engine's ``eval_margin`` inside
and ``--collision-margin`` apart.  ``perturb-study`` exits 2, writing no
trace, on an empty ``--eps-grid`` or an ``--equivariant`` not ``kind:order[:axis]``.

``green-check`` builds the reference Nystrom engine, ``IntegralGreenEngine``,
next to the one ``build_engine`` selects.  On 10 seeded interior point pairs
it compares the Nystrom engine with the disk closed form on a circle, and
elsewhere the conformal-map engine with the Nystrom engine, and checks
symmetry, harmonicity and the harmonic measure of both.  No command imports
``scipy.linalg`` except ``green-check``, through the Nystrom engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .critical import (
    SearchConfig,
    find_critical_points,
    newton_polish,
    report_csv_rows,
    report_to_dict,
)
from .dynamics import DynamicsConfig, Trajectory, integrate
from .errors import DiscretizationFailureError, GreenMorseError
from .geometry import (
    SymmetryGroup,
    equivariant_project,
    load_domain,
    load_field,
    sample_interior,
)
from .green import IntegralGreenEngine, build_engine
from .kr import Configuration, f_omega, load_vortex
from .shape import continue_critical_point, fd_check

_PASS_TOL_ORACLE = 1e-6
_PASS_TOL_SYMMETRY = 1e-7
_PASS_TOL_TRACE = 1e-7
_PASS_TOL_HARMONIC = 1e-6
_PASS_TOL_NORMALIZATION = 1e-8
# green-check compares the engines on this many seeded interior point pairs
_CHECK_PAIRS = 10
_CHECK_SEED = 20


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_point(text: str) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return np.array(parts)


def _parse_floats(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_group(text: str) -> SymmetryGroup:
    kind, *numbers = text.split(":")
    if len(numbers) not in (1, 2):
        raise ValueError(f"expected 'kind:order[:axis]', got {text!r}")
    return SymmetryGroup(kind, int(numbers[0]), float(numbers[1]) if len(numbers) > 1 else 0.0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _agreement(engine, reference, pairs) -> tuple:
    """Largest relative differences of ``engine`` from ``reference`` over the
    pairs: H, its gradients, its Hessian blocks, and the boundary trace at
    the first point."""
    err_v = err_g = err_h = 0.0
    for x, y in pairs:
        a = engine.regular_part(x, y)
        b = reference.regular_part(x, y)
        err_v = max(err_v, abs(a.value - b.value) / max(abs(b.value), 1e-12))
        gscale = max(np.abs(b.grad_x).max(), np.abs(b.grad_y).max(), 1e-12)
        err_g = max(err_g, np.abs(a.grad_x - b.grad_x).max() / gscale,
                    np.abs(a.grad_y - b.grad_y).max() / gscale)
        hscale = max(np.abs(b.hess_xx).max(), np.abs(b.hess_yy).max(),
                     np.abs(b.hess_xy).max(), 1e-12)
        err_h = max(err_h,
                    np.abs(a.hess_xx - b.hess_xx).max() / hscale,
                    np.abs(a.hess_yy - b.hess_yy).max() / hscale,
                    np.abs(a.hess_xy - b.hess_xy).max() / hscale)
    x = pairs[0][0]
    err_t = np.abs(engine.boundary_normal_derivative(x).values
                   - reference.boundary_normal_derivative(x).values).max()
    return err_v, err_g, err_h, err_t


def cmd_green_check(args, out: Path):
    domain = load_domain(args.domain)
    checks = []

    def add(name, value, tol):
        checks.append({"name": name, "max_error": float(value),
                       "tolerance": tol, "passed": bool(value <= tol)})

    try:
        integral = IntegralGreenEngine(domain, args.nodes)
        engine = build_engine(domain, args.nodes)
    except DiscretizationFailureError as exc:
        checks.append({"name": "construction_self_test", "max_error": None,
                       "tolerance": None, "passed": False, "detail": str(exc)})
        _write_json(out / "report.json", {"checks": checks, "passed": False})
        return 1, ["report.json"], None, None
    add("construction_self_test", integral.self_test_error, 1e-8)

    margin = max(integral.eval_margin, 0.06 * domain.diameter)
    pts = sample_interior(domain, 2 * _CHECK_PAIRS, margin, _CHECK_SEED)
    pairs = list(zip(pts[0::2], pts[1::2]))
    # the disk oracle checks the integral engine; elsewhere the integral
    # engine is the reference for the conformal-map default
    if domain.is_disk():
        label, compared, reference = "disk_oracle", integral, engine
        engines = [("integral", integral), ("disk", engine)]
    else:
        label, compared, reference = "conformal_vs_integral", engine, integral
        engines = [("integral", integral), ("conformal", engine)]
        for name in ("exterior_cauchy_error", "centre_image", "solve_residual"):
            add(f"conformal_{name}", engine.diagnostics[name], 1e-8)
    err_v, err_g, err_h, err_t = _agreement(compared, reference, pairs)
    add(f"{label}_value", err_v, _PASS_TOL_ORACLE)
    add(f"{label}_gradient", err_g, _PASS_TOL_ORACLE)
    add(f"{label}_hessian", err_h, _PASS_TOL_ORACLE)
    add(f"{label}_trace", err_t, _PASS_TOL_TRACE)

    for label, checked in engines:
        sym = harm = norm = 0.0
        for x, y in pairs:
            a = checked.regular_part(x, y)
            b = checked.regular_part(y, x)
            sym = max(sym, abs(a.value - b.value))
            ratio = abs(np.trace(a.hess_xx)) / max(np.linalg.norm(a.hess_xx), 1e-300)
            harm = max(harm, ratio)
            trace = checked.boundary_normal_derivative(x)
            norm = max(norm, abs(-np.sum(trace.weights * trace.values) - 1.0))
        add(f"{label}_symmetry", sym, _PASS_TOL_SYMMETRY)
        add(f"{label}_harmonicity_ratio", harm, _PASS_TOL_HARMONIC)
        add(f"{label}_harmonic_measure_normalization", norm, _PASS_TOL_NORMALIZATION)

    passed = all(c["passed"] for c in checks)
    _write_json(out / "report.json", {"checks": checks, "passed": passed})
    return (0 if passed else 1), ["report.json"], engine, None


def cmd_find_critical(args, out: Path):
    domain = load_domain(args.domain)
    strengths, _, spec = load_vortex(args.vortex)
    engine = build_engine(domain, args.nodes)
    search = SearchConfig(
        starts=args.starts, seed=args.seed,
        collision_margin=args.collision_margin,
        newton_tol=args.newton_tol)
    report = find_critical_points(engine, strengths, spec, search)
    _write_json(out / "report.json", report_to_dict(report))
    _write_csv(out / "critical_points.csv", report_csv_rows(report))
    return 0, ["report.json", "critical_points.csv"], engine, None


def cmd_shape_verify(args, out: Path):
    domain = load_domain(args.domain)
    field = load_field(args.field)
    ladder = _parse_floats(args.eps_ladder)
    kwargs = {"nodes": args.nodes}
    if args.quantity == "grad_f":
        strengths, config, spec = load_vortex(args.vortex)
        kwargs.update(strengths=strengths, spec=spec, config=config)
    elif args.quantity == "robin":
        kwargs.update(x=_parse_point(args.x))
    else:
        kwargs.update(x=_parse_point(args.x), y=_parse_point(args.y))
    report = fd_check(domain, args.quantity, field, ladder, **kwargs)
    _write_json(out / "report.json", report.to_dict())
    rows = [["eps", "fd_value"]]
    for eps, val in zip(report.eps_ladder, report.fd_values):
        flat = np.atleast_1d(np.asarray(val, dtype=float))
        rows.append([f"{eps:.17g}"] + [f"{v:.17g}" for v in flat])
    _write_csv(out / "fd_ladder.csv", rows)
    return (0 if report.passed else 1), ["report.json", "fd_ladder.csv"], None, None


def _margin_svg(trace) -> str:
    eps = np.asarray(trace.eps_values, dtype=float)
    margins = np.maximum(np.asarray(trace.margins, dtype=float), 1e-300)
    logm = np.log10(margins)
    w, h, pad = 640, 400, 50
    if len(eps) > 1 and eps.max() > eps.min():
        xs = pad + (w - 2 * pad) * (eps - eps.min()) / (eps.max() - eps.min())
    else:
        xs = np.full(len(eps), pad, dtype=float)
    lo, hi = logm.min(), logm.max()
    span = max(hi - lo, 1e-9)
    ys = h - pad - (h - 2 * pad) * (logm - lo) / span
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n'
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>\n'
        f'<text x="{w // 2}" y="{h - 12}" font-size="14">eps</text>\n'
        f'<text x="8" y="{pad - 10}" font-size="14">log10 min |eig|</text>\n'
        f"</svg>\n")


def cmd_perturb_study(args, out: Path):
    domain = load_domain(args.domain)
    strengths, config, spec = load_vortex(args.vortex)
    field = load_field(args.field)
    if args.equivariant:
        group = _parse_group(args.equivariant)
        field = equivariant_project(field, group, domain)
    grid = _parse_floats(args.eps_grid)
    engine = build_engine(domain, args.nodes)
    search = SearchConfig(starts=1, newton_tol=args.newton_tol)
    polish = newton_polish(engine, strengths, spec, config.flat(), search)
    if not polish.converged:
        _write_json(out / "trace.json",
                    {"error": f"start configuration did not polish: {polish.failure}"})
        return 1, ["trace.json"], engine, None
    trace = continue_critical_point(engine, field, grid, polish.configuration,
                                    strengths, spec, newton_tol=args.newton_tol)
    _write_csv(out / "trace.csv", trace.csv_rows())
    _write_json(out / "trace.json", {
        "eps": list(trace.eps_values),
        "residuals": list(trace.residuals),
        "margins": list(trace.margins),
        "predictor_used": list(trace.predictor_used),
        "corrector_iterations": list(trace.corrector_iterations),
        "truncated": trace.truncated,
        "diagnostic": trace.diagnostic,
    })
    outputs = ["trace.csv", "trace.json"]
    if args.svg:
        with open(out / "margin_vs_eps.svg", "w", encoding="utf-8") as fh:
            fh.write(_margin_svg(trace))
        outputs.append("margin_vs_eps.svg")
    return (1 if trace.truncated else 0), outputs, engine, None


def cmd_simulate(args, out: Path):
    domain = load_domain(args.domain)
    strengths, config, spec = load_vortex(args.vortex)
    engine = build_engine(domain, args.nodes)
    dyn = DynamicsConfig(integrator=args.integrator, dt=args.dt, horizon=args.horizon)
    trajectory = integrate(engine, strengths, spec, config.flat(), dyn)
    _write_csv(out / "trajectory.csv", trajectory.csv_rows())
    return ((1 if trajectory.truncated else 0), ["trajectory.csv"], engine,
            trajectory.solver_stats())


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenmorse",
        description="Green-function energies on planar domains: oracles, "
                    "critical points, shape derivatives, vortex dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green-check", help="run Green engine oracle and property checks")
    p.add_argument("domain")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--out", default="greenmorse_out")
    p.set_defaults(func=cmd_green_check)

    p = sub.add_parser("find-critical", help="multi-start critical point search")
    p.add_argument("domain")
    p.add_argument("vortex")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--collision-margin", type=float, default=0.05)
    p.add_argument("--out", default="greenmorse_out")
    p.set_defaults(func=cmd_find_critical)

    p = sub.add_parser("shape-verify", help="validate shape derivatives by finite differences")
    p.add_argument("domain")
    p.add_argument("--field", required=True)
    p.add_argument("--quantity", choices=["H", "robin", "grad_f"], default="H")
    p.add_argument("--x", default="0.3,0.0")
    p.add_argument("--y", default="0.1,0.2")
    p.add_argument("--vortex", help="vortex file (grad_f quantity)")
    p.add_argument("--eps-ladder", default="1e-2,5e-3,2.5e-3")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--out", default="greenmorse_out")
    p.set_defaults(func=cmd_shape_verify)

    p = sub.add_parser("perturb-study", help="continue a critical point under a boundary field")
    p.add_argument("domain")
    p.add_argument("vortex")
    p.add_argument("--field", required=True)
    p.add_argument("--eps-grid", default="0,0.0025,0.005,0.01,0.02,0.03,0.04,0.05")
    p.add_argument("--equivariant", help="project the field, e.g. cyclic:3")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--newton-tol", type=float, default=1e-10)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out", default="greenmorse_out")
    p.set_defaults(func=cmd_perturb_study)

    p = sub.add_parser("simulate", help="integrate the point-vortex dynamics")
    p.add_argument("domain")
    p.add_argument("vortex")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--integrator", choices=["midpoint", "rk4"], default="midpoint")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--out", default="greenmorse_out")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(args.out)
    started = time.monotonic()
    try:
        out.mkdir(parents=True, exist_ok=True)
        code, outputs, engine, stats = args.func(args, out)
    except (json.JSONDecodeError, FileNotFoundError, KeyError, ValueError,
            GreenMorseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("func", "out", "command")},
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
        "outputs": outputs,
        "engine": None if engine is None else engine.diagnostics,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if stats is not None:
        manifest["stats"] = stats
    _write_json(out / "manifest.json", manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
