"""Seeded inputs and output checks for the benchmark workloads.

Each operation is one greenmorse CLI command.  A workload writes the input
files of operation ``k`` of a run with seed ``seed``, using the library's own
``save_*`` functions, so the program sees only files and flags; then it checks
the command's outputs.  The tolerances below are fixed: a later change may
tighten them, never loosen them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import greenmorse as gm

# search: a reported critical point re-evaluated on a fresh engine with twice
# the nodes has at most this gradient norm
SEARCH_GRAD_TOL = 1e-6
# dynamics: max |H(t) - H(0)| along the trajectory
DRIFT_TOL = 1e-5
# continuation: the continuation Newton tolerance every rung residual meets
NEWTON_TOL = 1e-10
# continuation: |y| of both vortices; the cos 3t field keeps the x-axis a
# symmetry axis, so the dipole must stay on it
AXIS_TOL = 1e-8
# continuation: gradient norm of the last rung on a fresh engine with twice the nodes
LAST_RUNG_GRAD_TOL = 1e-8

LOBE_AMPLITUDE = 0.05


@dataclass
class Outcome:
    """What one checked operation did: ``units`` of work and the number of
    verified critical points it reported."""

    ok: bool
    reason: str = ""
    units: int = 0
    points: int = 0


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason)


def _cos3_field():
    return gm.cosine_field(3)


def _save_field(field, path: Path) -> None:
    # the library has no save_field; this is the format load_field reads
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "normal_fourier", "cos": list(field.cos_coeffs),
                   "sin": list(field.sin_coeffs), "cutoff_width": field.cutoff_width,
                   "amplitude": field.amplitude}, fh, indent=2)
        fh.write("\n")


def _lobed_domain():
    """The unit disk displaced by 0.05 cos(3t) along the normal."""
    return gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), _cos3_field(),
                                 LOBE_AMPLITUDE)


def _rng(seed: int, k: int):
    return np.random.default_rng([seed, k])


def _read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


class Search:
    """find-critical: N = 3, lambda = (1, 1, -1), lobed domain, integral engine."""

    name = "search"
    STARTS = 32
    NODES = 256
    STRENGTHS = (1.0, 1.0, -1.0)

    def __init__(self, work: Path):
        self.domain = _lobed_domain()
        self.domain_path = work / "lobed.json"
        gm.save_domain(self.domain, self.domain_path)
        self.strengths = gm.VortexStrengths(self.STRENGTHS)
        self.spec = gm.kirchhoff_routh_interaction()
        self._engine = None

    def command(self, seed: int, k: int, op_dir: Path) -> list:
        halton_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        # find-critical reads only the strengths; the points are a placeholder
        vortex = op_dir / "vortex.json"
        gm.save_vortex(self.strengths, gm.Configuration([[0.3, 0.0], [-0.15, 0.25],
                                                         [-0.15, -0.25]]),
                       self.spec, vortex)
        return ["find-critical", str(self.domain_path), str(vortex),
                "--starts", str(self.STARTS), "--seed", str(halton_seed),
                "--nodes", str(self.NODES)]

    def check(self, out: Path) -> Outcome:
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        if report["stats"]["starts"] != self.STARTS:
            return _fail(f"{report['stats']['starts']} starts, expected {self.STARTS}")
        if self._engine is None:
            self._engine = gm.build_engine(self.domain, 2 * self.NODES)
        for cp in report["critical_points"]:
            config = gm.Configuration(np.array(cp["points"]))
            res = gm.f_omega(self._engine, self.strengths, self.spec, config)
            gnorm = float(np.linalg.norm(res.gradient))
            if not gnorm <= SEARCH_GRAD_TOL:
                return _fail(f"critical point gradient {gnorm:.3e} at {2 * self.NODES} nodes")
            negative = int(np.sum(np.linalg.eigvalsh(res.hessian) < 0.0))
            if negative != cp["morse_index"]:
                return _fail(f"Morse index {cp['morse_index']}, Hessian has {negative} "
                             f"negative eigenvalues")
        return Outcome(True, units=self.STARTS, points=len(report["critical_points"]))

    def program_counts(self, out: Path) -> dict:
        with open(out / "report.json", encoding="utf-8") as fh:
            stats = json.load(fh)["stats"]
        return {"starts": stats["starts"], "converged": stats["converged"]}


class Dynamics:
    """simulate: a same-sign ring of 6 vortices at r = 0.45 on the lobed
    domain, midpoint rule; the seed rotates the ring."""

    name = "dynamics"
    COUNT = 6
    RADIUS = 0.45
    DT = 5e-3
    STEPS = 20
    NODES = 256

    def __init__(self, work: Path):
        self.domain_path = work / "lobed.json"
        gm.save_domain(_lobed_domain(), self.domain_path)

    def command(self, seed: int, k: int, op_dir: Path) -> list:
        angle = _rng(seed, k).uniform(0.0, 2.0 * np.pi)
        theta = angle + 2.0 * np.pi * np.arange(self.COUNT) / self.COUNT
        ring = self.RADIUS * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        vortex = op_dir / "vortex.json"
        gm.save_vortex(gm.VortexStrengths(np.ones(self.COUNT)), gm.Configuration(ring),
                       gm.kirchhoff_routh_interaction(), vortex)
        return ["simulate", str(self.domain_path), str(vortex),
                "--dt", repr(self.DT), "--horizon", repr(self.STEPS * self.DT),
                "--integrator", "midpoint", "--nodes", str(self.NODES)]

    def check(self, out: Path) -> Outcome:
        header, rows = _read_csv(out / "trajectory.csv")
        if len(rows) != self.STEPS + 1:
            return _fail(f"{len(rows) - 1} steps, expected {self.STEPS}")
        if not np.all(np.isfinite(rows)):
            return _fail("non-finite trajectory values")
        energy = rows[:, header.index("hamiltonian")]
        drift = float(np.max(np.abs(energy - energy[0])))
        if not drift <= DRIFT_TOL:
            return _fail(f"Hamiltonian drift {drift:.3e} exceeds {DRIFT_TOL:.0e}")
        return Outcome(True, units=self.STEPS)

    def program_counts(self, out: Path) -> dict:
        _, rows = _read_csv(out / "trajectory.csv")
        return {"steps": len(rows) - 1}


class Continuation:
    """perturb-study: the unit-disk dipole under the cos 3t normal field on a
    41-rung grid over [0, 0.05]; the seed moves the start along the axis."""

    name = "continuation"
    RUNGS = 41
    EPS_MAX = 0.05
    NODES = 512
    JITTER = 0.02

    def __init__(self, work: Path):
        self.disk = gm.DomainSpec(gm.unit_circle())
        self.field = _cos3_field()
        self.domain_path = work / "disk.json"
        self.field_path = work / "cos3.json"
        gm.save_domain(self.disk, self.domain_path)
        _save_field(self.field, self.field_path)
        self.grid = [float(e) for e in np.linspace(0.0, self.EPS_MAX, self.RUNGS)]
        self.strengths = gm.VortexStrengths([1.0, -1.0])
        self.spec = gm.kirchhoff_routh_interaction()
        self._engine = None

    def command(self, seed: int, k: int, op_dir: Path) -> list:
        # counter-rotating pair equilibrium radius on the unit disk
        a = float(np.sqrt(np.sqrt(5.0) - 2.0))
        shift = _rng(seed, k).uniform(-self.JITTER, self.JITTER, size=2)
        start = [[a + shift[0], 0.0], [-a + shift[1], 0.0]]
        vortex = op_dir / "vortex.json"
        gm.save_vortex(self.strengths, gm.Configuration(start), self.spec, vortex)
        return ["perturb-study", str(self.domain_path), str(vortex),
                "--field", str(self.field_path),
                "--eps-grid", ",".join(repr(e) for e in self.grid),
                "--nodes", str(self.NODES), "--newton-tol", repr(NEWTON_TOL)]

    def check(self, out: Path) -> Outcome:
        with open(out / "trace.json", encoding="utf-8") as fh:
            trace = json.load(fh)
        if trace["truncated"]:
            return _fail(f"truncated: {trace['diagnostic']}")
        eps = trace["eps"]
        if not set(self.grid) <= set(eps) or eps[-1] != self.grid[-1]:
            return _fail("the trace does not cover the eps grid")
        worst = max(trace["residuals"])
        if not worst <= NEWTON_TOL:
            return _fail(f"rung residual {worst:.3e} exceeds {NEWTON_TOL:.0e}")
        header, rows = _read_csv(out / "trace.csv")
        off_axis = float(np.max(np.abs(rows[:, [header.index("y1"), header.index("y2")]])))
        if not off_axis <= AXIS_TOL:
            return _fail(f"dipole left the axis by {off_axis:.3e}")
        if self._engine is None:
            domain = gm.apply_perturbation(self.disk, self.field, self.grid[-1])
            self._engine = gm.build_engine(domain, 2 * self.NODES)
        last = rows[-1, [header.index(c) for c in ("x1", "y1", "x2", "y2")]]
        res = gm.f_omega(self._engine, self.strengths, self.spec, gm.Configuration(last))
        gnorm = float(np.linalg.norm(res.gradient))
        if not gnorm <= LAST_RUNG_GRAD_TOL:
            return _fail(f"last rung gradient {gnorm:.3e} at {2 * self.NODES} nodes")
        return Outcome(True, units=len(eps))

    def program_counts(self, out: Path) -> dict:
        with open(out / "trace.json", encoding="utf-8") as fh:
            eps = json.load(fh)["eps"]
        # the eps = 0 rung is recorded without a corrector run
        return {"rungs_accepted": len(eps) - 1}


WORKLOADS = {w.name: w for w in (Search, Dynamics, Continuation)}
