"""Command-line harness: reproducible runs with machine-readable outputs.

Exit codes: 0 success, 1 quantitative (tolerance) failure, 2 malformed
input or validation error.  All randomness flows from --seed flags or fixed
seeds.  Two functions own the file format, and every command builds its
records' rows and dicts for them: ``_write_csv`` writes float cells at 17
significant digits, so identical inputs reproduce byte-identical files, and
``_write_json`` turns numpy arrays and scalars into lists and numbers.  A
field file with a non-finite coefficient, amplitude or ``cutoff_width``, and
a vortex file with a non-finite strength, exit 2 before any engine is built.
Every command takes a domain file, ``--nodes`` and ``--out``, declared once
in a parent parser.  A run manifest is written last: the command, its
configuration (every parsed argument but ``--out``, as given, so the run
can be repeated from it at the same version) and outputs, the
diagnostics of the command's base Green engine, the one ``build_engine``
selects (null for shape-verify, whose engines are rebuilt per rung; on a
non-circular domain the conformal map's self-test numbers:
``self_test_error``, the largest of ``exterior_cauchy_error``,
``centre_image`` and ``solve_residual``, with ``iterations``, the
Kerzman-Stein solve's operator products, ``solve_nodes``, the number of
nodes it was solved on, and ``eval_margin``), the numpy
version and the OPENBLAS_NUM_THREADS setting (null if unset).
simulate's manifest also has ``stats``: the sum and maximum over the steps of
the integrator's solver iterations and final update sizes, and the number of
steps whose Newton correction was skipped; find-critical's has ``stats``
with ``rounds``, the search's lockstep rounds (``MorseReport.rounds``), and
``candidates``, the Halton candidates it drew for its starts: a search that
finds fewer starts than ``--starts`` has drawn its whole budget;
perturb-study's has ``stats`` with ``solve_nodes``, the density solve's node
count of each trace row's engine, null where the engine solves none (the
disk's closed form), so a trace on the disk reads null for eps = 0 and then
each rung's sub-grid.  simulate exits 2 on a ``--horizon`` that is not a
whole number of ``--dt`` steps.

Every default or choice list that the library holds comes from there:
``--nodes`` from ``green.DEFAULT_NODES``, the search flags from
``SearchConfig``, the dynamics flags from ``DynamicsConfig`` and
``dynamics.INTEGRATORS``, the shape-verify quantities from
``shape.QUANTITIES`` and green-check's self-test tolerance from
``green.SELF_TEST_TOL``.

``find-critical`` admits points more than the engine's ``eval_margin`` inside
and ``--collision-margin`` apart; a margin that is not >= 0, NaN included,
exits 2 with ``SearchConfig``'s message.  ``perturb-study`` polishes its
start and runs the continuation with the one ``shape.corrector_search``.  It
exits 2, writing no trace, on an empty ``--eps-grid`` or an ``--equivariant``
not ``kind:order[:axis]``.

``green-check`` builds the reference Nystrom engine, ``IntegralGreenEngine``,
next to the one ``build_engine`` selects.  On 10 seeded interior point pairs
it compares the Nystrom engine with the disk closed form on a circle, and
elsewhere the conformal-map engine with the Nystrom engine, and checks
symmetry, harmonicity and the harmonic measure of both.  Each engine is read
in three batched calls: ``blocks`` on the 20 points, ``blocks`` with each
pair's points exchanged, and the boundary traces at the first point of every
pair.  Every command runs on numpy alone; none imports scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .critical import SearchConfig, find_critical_points, newton_polish
from .dynamics import INTEGRATORS, DynamicsConfig, integrate
from .errors import DiscretizationFailureError, GreenMorseError
from .geometry import (
    SymmetryGroup,
    equivariant_project,
    load_domain,
    load_field,
    sample_interior,
)
from .green import DEFAULT_NODES, SELF_TEST_TOL, IntegralGreenEngine, build_engine
from .kr import load_vortex
from .shape import QUANTITIES, continue_critical_point, corrector_search, fd_check

_PASS_TOL_ORACLE = 1e-6
_PASS_TOL_SYMMETRY = 1e-7
_PASS_TOL_TRACE = 1e-7
_PASS_TOL_HARMONIC = 1e-6
_PASS_TOL_NORMALIZATION = 1e-8
# green-check compares the engines on this many seeded interior point pairs
_CHECK_PAIRS = 10
_CHECK_SEED = 20


def _write_csv(path: Path, header, rows) -> None:
    """The header, then one line per row: float cells (numpy floats included)
    at 17 significant digits, every other cell as ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in [header, *rows]:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")


def _xy(n: int) -> list:
    """The coordinate columns x1, y1, ..., xn, yn."""
    return [f"{c}{i}" for i in range(1, n + 1) for c in "xy"]


def _numpy_to_json(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_numpy_to_json)
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

def _pair_readings(engine, pts) -> tuple:
    """One engine's readings on the pairs (x, y) = (pts[2i], pts[2i + 1]),
    each with a leading pair axis, from three batched calls: H(x, y), its
    first-derivative blocks (grad_x, grad_y) and its second-derivative blocks
    (hess_xx, hess_yy, hess_xy) from ``blocks(pts)``; H(y, x) from ``blocks``
    with each pair's points exchanged; and the boundary traces at every x."""
    first = np.arange(0, len(pts), 2)
    pair = (first, first + 1)
    ev = engine.blocks(pts)
    swapped = engine.blocks(pts.reshape(-1, 2, 2)[:, ::-1].reshape(-1, 2))
    return (ev.value[pair],
            np.stack([ev.grad_x[pair], ev.grad_y[pair]], axis=1),
            np.stack([ev.hess_xx[pair], ev.hess_yy[pair], ev.hess_xy[pair]], axis=1),
            swapped.value[pair],
            engine._traces(pts[first])[0])


def _relative_error(a, b) -> float:
    """Largest over the pairs (the leading axis) of max |a - b| / max |b|,
    the scale floored at 1e-12."""
    def largest(x):
        return np.abs(x).reshape(len(x), -1).max(axis=1)

    return float(np.max(largest(a - b) / np.maximum(largest(b), 1e-12)))


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
    add("construction_self_test", integral.self_test_error, SELF_TEST_TOL)

    margin = max(integral.eval_margin, 0.06 * domain.diameter)
    pts = sample_interior(domain, 2 * _CHECK_PAIRS, margin, _CHECK_SEED)
    # the disk oracle checks the integral engine; elsewhere the integral
    # engine is the reference for the conformal-map default
    if domain.is_disk():
        label, engines = "disk_oracle", {"integral": integral, "disk": engine}
        compared, reference = "integral", "disk"
    else:
        label, engines = "conformal_vs_integral", {"integral": integral, "conformal": engine}
        compared, reference = "conformal", "integral"
        for name in ("exterior_cauchy_error", "centre_image", "solve_residual"):
            add(f"conformal_{name}", engine.diagnostics[name], SELF_TEST_TOL)
    readings = {name: _pair_readings(checked, pts) for name, checked in engines.items()}
    a, b = readings[compared], readings[reference]
    for kind, x, y in zip(("value", "gradient", "hessian"), a[:3], b[:3]):
        add(f"{label}_{kind}", _relative_error(x, y), _PASS_TOL_ORACLE)
    add(f"{label}_trace", np.abs(a[-1] - b[-1]).max(), _PASS_TOL_TRACE)

    for name, (value, _, hessians, reverse, traces) in readings.items():
        hess_xx = hessians[:, 0]
        harm = (np.abs(np.trace(hess_xx, axis1=1, axis2=2))
                / np.maximum(np.linalg.norm(hess_xx, axis=(1, 2)), 1e-300))
        norm = np.abs(-np.sum(engines[name].weights * traces, axis=1) - 1.0)
        add(f"{name}_symmetry", np.abs(value - reverse).max(), _PASS_TOL_SYMMETRY)
        add(f"{name}_harmonicity_ratio", harm.max(), _PASS_TOL_HARMONIC)
        add(f"{name}_harmonic_measure_normalization", norm.max(), _PASS_TOL_NORMALIZATION)

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
    _write_json(out / "report.json", {
        "stats": report.stats,
        "domain_fingerprint": report.domain_fingerprint,
        "function_fingerprint": report.function_fingerprint,
        "critical_points": [
            {"points": cp.configuration.points, "residual": cp.residual,
             "spectrum": cp.spectrum, "morse_index": cp.morse_index, "nullity": cp.nullity,
             "margin": cp.margin, "orbit_tag": cp.orbit_tag, "alignment": cp.alignment}
            for cp in report.points],
    })
    _write_csv(out / "critical_points.csv",
               _xy(len(strengths)) + ["residual", "morse_index", "nullity", "margin",
                                      "orbit_tag"],
               ([*cp.configuration.flat(), cp.residual, cp.morse_index, cp.nullity, cp.margin,
                 cp.orbit_tag] for cp in report.points))
    return 0, ["report.json", "critical_points.csv"], engine, {
        "rounds": report.rounds, "candidates": report.candidates}


def cmd_shape_verify(args, out: Path):
    domain = load_domain(args.domain)
    field = load_field(args.field)
    ladder = _parse_floats(args.eps_ladder)
    kwargs = {"nodes": args.nodes}
    header = ["eps", "fd_value"]
    if args.quantity == "grad_f":
        strengths, config, spec = load_vortex(args.vortex)
        kwargs.update(strengths=strengths, spec=spec, config=config)
        header = ["eps", *_xy(len(config))]
    elif args.quantity == "robin":
        kwargs.update(x=_parse_point(args.x))
    else:
        kwargs.update(x=_parse_point(args.x), y=_parse_point(args.y))
    report = fd_check(domain, args.quantity, field, ladder, **kwargs)
    _write_json(out / "report.json", {
        "quantity": report.quantity,
        "eps_ladder": report.eps_ladder,
        "fd_values": report.fd_values,
        "analytic": report.analytic,
        "richardson": report.richardson,
        "observed_order": report.observed_order,
        "rel_error": report.rel_error,
        "passed": report.passed,
        "failures": report.failures,
    })
    _write_csv(out / "fd_ladder.csv", header,
               ([eps, *np.ravel(val)] for eps, val in zip(report.eps_ladder, report.fd_values)))
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
    polish = newton_polish(engine, strengths, spec, config.flat(),
                           corrector_search(args.newton_tol))
    if not polish.converged:
        _write_json(out / "trace.json",
                    {"error": f"start configuration did not polish: {polish.failure}"})
        return 1, ["trace.json"], engine, None
    trace = continue_critical_point(engine, field, grid, polish.configuration,
                                    strengths, spec, newton_tol=args.newton_tol)
    n = len(trace.configurations[0]) if trace.configurations else 0
    _write_csv(out / "trace.csv", ["eps", *_xy(n), "residual", "min_abs_eig"],
               ([eps, *np.ravel(cfg), res, margin] for eps, cfg, res, margin in
                zip(trace.eps_values, trace.configurations, trace.residuals, trace.margins)))
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
    return ((1 if trace.truncated else 0), outputs, engine,
            {"solve_nodes": list(trace.solve_nodes)})


def cmd_simulate(args, out: Path):
    domain = load_domain(args.domain)
    strengths, config, spec = load_vortex(args.vortex)
    dyn = DynamicsConfig(integrator=args.integrator, dt=args.dt, horizon=args.horizon)
    engine = build_engine(domain, args.nodes)
    trajectory = integrate(engine, strengths, spec, config.flat(), dyn)
    _write_csv(out / "trajectory.csv",
               ["t", *_xy(trajectory.states.shape[1]), "hamiltonian", "angular_impulse"],
               ([t, *state.ravel(), h, impulse] for t, state, h, impulse in
                zip(trajectory.times, trajectory.states, trajectory.hamiltonian,
                    trajectory.angular_impulse)))
    return ((1 if trajectory.truncated else 0), ["trajectory.csv"], engine,
            trajectory.solver_stats())


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

_NEWTON_TOL_HELP = ("Newton converges where |grad f| <= this; near or below the gradient's "
                    "round-off floor, about 1e-16 on a lobed N = 3 search, rounding decides "
                    "whether a start converges")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenmorse",
        description="Green-function energies on planar domains: oracles, "
                    "critical points, shape derivatives, vortex dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    # the arguments every command takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("domain")
    common.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    common.add_argument("--out", default="greenmorse_out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green-check", parents=[common],
                       help="run Green engine oracle and property checks")
    p.set_defaults(func=cmd_green_check)

    p = sub.add_parser("find-critical", parents=[common],
                       help="multi-start critical point search")
    p.add_argument("vortex")
    p.add_argument("--starts", type=int, default=SearchConfig.starts)
    p.add_argument("--seed", type=int, default=SearchConfig.seed)
    p.add_argument("--newton-tol", type=float, default=SearchConfig.newton_tol,
                   help=_NEWTON_TOL_HELP)
    p.add_argument("--collision-margin", type=float, default=SearchConfig.collision_margin)
    p.set_defaults(func=cmd_find_critical)

    p = sub.add_parser("shape-verify", parents=[common],
                       help="validate shape derivatives by finite differences")
    p.add_argument("--field", required=True)
    p.add_argument("--quantity", choices=QUANTITIES, default="H")
    p.add_argument("--x", default="0.3,0.0")
    p.add_argument("--y", default="0.1,0.2")
    p.add_argument("--vortex", help="vortex file (grad_f quantity)")
    p.add_argument("--eps-ladder", default="1e-2,5e-3,2.5e-3")
    p.set_defaults(func=cmd_shape_verify)

    p = sub.add_parser("perturb-study", parents=[common],
                       help="continue a critical point under a boundary field")
    p.add_argument("vortex")
    p.add_argument("--field", required=True)
    p.add_argument("--eps-grid", default="0,0.0025,0.005,0.01,0.02,0.03,0.04,0.05")
    p.add_argument("--equivariant", help="project the field, e.g. cyclic:3")
    p.add_argument("--newton-tol", type=float, default=SearchConfig.newton_tol,
                   help=_NEWTON_TOL_HELP)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_perturb_study)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the point-vortex dynamics")
    p.add_argument("vortex")
    p.add_argument("--dt", type=float, default=DynamicsConfig.dt)
    p.add_argument("--horizon", type=float, default=DynamicsConfig.horizon)
    p.add_argument("--integrator", choices=INTEGRATORS, default=DynamicsConfig.integrator)
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
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if stats is not None:
        manifest["stats"] = stats
    _write_json(out / "manifest.json", manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
