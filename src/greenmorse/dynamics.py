"""Point-vortex dynamics driven by the assembled vortex energy.

The weighted symplectic form lambda_k dx_k/dt = J grad_{x_k} f (J = rotation
by +pi/2) makes critical points of the energy exactly the equilibria and
conserves both the energy and, on disks, the angular impulse
sum_k lambda_k |x_k - c|^2 about the centre c.  The implicit midpoint rule
preserves the quadratic impulse up to its fixed-point tolerance
``SOLVE_TOL``; both integrators are
order 2 or better in the time step.

The dynamics read only f and grad f, so no ``f_omega`` call here reads a
Hessian.  ``integrate`` evaluates f_omega once per sample for the energy, and
that evaluation's gradient also gives the next step's first velocity (the
midpoint predictor or the rk4 stage k1).  So a midpoint step makes 1 + i
``f_omega`` calls, i of them in ``velocity`` for its i fixed-point iterations,
and an rk4 step makes 4, three of them in ``velocity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GreenMorseError, NumericError
from .kr import Configuration, InteractionSpec, VortexStrengths, f_omega

# the midpoint rule's fixed-point iteration stops once an update's max-norm
# is at most SOLVE_TOL, and gives up after MAX_SOLVER_ITERATIONS steps
SOLVE_TOL = 1e-13
MAX_SOLVER_ITERATIONS = 200


@dataclass(frozen=True)
class DynamicsConfig:
    integrator: str = "midpoint"      # "midpoint" | "rk4"
    dt: float = 1e-3
    horizon: float = 1.0

    def __post_init__(self):
        if self.integrator not in ("midpoint", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least one time step")


@dataclass(frozen=True)
class Trajectory:
    """Samples at every step.  For each of the M - 1 steps taken,
    ``solver_iterations`` counts the midpoint rule's fixed-point iterations
    and ``solver_updates`` holds the max-norm of its final update (0 and 0.0
    for rk4, which solves nothing)."""

    times: np.ndarray            # (M,)
    states: np.ndarray           # (M, N, 2)
    hamiltonian: np.ndarray      # (M,)
    angular_impulse: np.ndarray  # (M,)
    rotation_symmetric: bool
    diagnostic: str | None = None    # why the run stopped early; None if it did not
    solver_iterations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    solver_updates: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def truncated(self) -> bool:
        return self.diagnostic is not None

    def solver_stats(self) -> dict:
        """Sum and maximum of the per-step solver iterations and final updates."""
        return {
            "solver_iterations": {"sum": int(np.sum(self.solver_iterations)),
                                  "max": int(np.max(self.solver_iterations, initial=0))},
            "final_update": {"sum": float(np.sum(self.solver_updates)),
                             "max": float(np.max(self.solver_updates, initial=0.0))},
        }

    def csv_rows(self):
        n = self.states.shape[1]
        header = ["t"]
        for i in range(n):
            header += [f"x{i + 1}", f"y{i + 1}"]
        header += ["hamiltonian", "angular_impulse"]
        rows = [header]
        for k in range(len(self.times)):
            row = [f"{self.times[k]:.17g}"]
            row += [f"{v:.17g}" for v in self.states[k].reshape(-1)]
            row += [f"{self.hamiltonian[k]:.17g}", f"{self.angular_impulse[k]:.17g}"]
            rows.append(row)
        return rows


def velocity(engine, strengths: VortexStrengths, spec: InteractionSpec,
             config: Configuration) -> np.ndarray:
    """dx_k/dt = (1/lambda_k) J grad_{x_k} f, shape (N, 2)."""
    return _velocity_from_gradient(strengths, f_omega(engine, strengths, spec, config).gradient)


def _velocity_from_gradient(strengths: VortexStrengths, gradient) -> np.ndarray:
    grad = gradient.reshape(-1, 2)
    rotated = np.stack([-grad[:, 1], grad[:, 0]], axis=1)
    return rotated / strengths.values[:, None]


def _velocity_flat(engine, strengths, spec, flat):
    return velocity(engine, strengths, spec,
                    Configuration(flat.reshape(-1, 2))).reshape(-1)


def integrate(engine, strengths: VortexStrengths, spec: InteractionSpec,
              x0, config: DynamicsConfig) -> Trajectory:
    """Integrate from x0, sampling every step; truncates on margin exit."""
    state = np.asarray(x0, dtype=float).reshape(-1).copy()
    n_steps = int(round(config.horizon / config.dt))
    dt = config.dt

    times = [0.0]
    states = [state.reshape(-1, 2).copy()]
    energies = []
    impulses = []
    iterations = []
    updates = []
    diagnostic = None

    def observables(flat):
        """Energy, angular impulse and velocity (flat) at the state ``flat``."""
        cfg = Configuration(flat.reshape(-1, 2))
        res = f_omega(engine, strengths, spec, cfg)
        rel = cfg.points - engine.domain.rotation_center
        impulse = float(np.sum(strengths.values * np.sum(rel * rel, axis=1)))
        return res.value, impulse, _velocity_from_gradient(strengths, res.gradient).reshape(-1)

    try:
        h0, i0, v = observables(state)
    except GreenMorseError as exc:
        raise NumericError(f"initial state inadmissible: {exc}") from exc
    energies.append(h0)
    impulses.append(i0)

    for step in range(1, n_steps + 1):
        try:
            if config.integrator == "rk4":
                k1 = v
                k2 = _velocity_flat(engine, strengths, spec, state + 0.5 * dt * k1)
                k3 = _velocity_flat(engine, strengths, spec, state + 0.5 * dt * k2)
                k4 = _velocity_flat(engine, strengths, spec, state + dt * k3)
                state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                solved, delta = 0, 0.0
            else:
                mid = state + 0.5 * dt * v
                for solved in range(1, MAX_SOLVER_ITERATIONS + 1):
                    new_mid = state + 0.5 * dt * _velocity_flat(engine, strengths, spec, mid)
                    delta = float(np.max(np.abs(new_mid - mid)))
                    mid = new_mid
                    if delta <= SOLVE_TOL:
                        break
                else:
                    diagnostic = f"implicit solve stalled at step {step}"
                    break
                state = 2.0 * mid - state
            h, imp, v = observables(state)
        except GreenMorseError as exc:
            diagnostic = f"step {step}: {exc}"
            break
        times.append(step * dt)
        states.append(state.reshape(-1, 2).copy())
        energies.append(h)
        impulses.append(imp)
        iterations.append(solved)
        updates.append(delta)

    return Trajectory(np.array(times), np.array(states), np.array(energies),
                      np.array(impulses), engine.domain.is_disk(), diagnostic,
                      np.array(iterations, dtype=int), np.array(updates, dtype=float))


def conservation_report(trajectory: Trajectory) -> dict:
    """Max drifts of the energy and (when meaningful) the angular impulse."""
    if len(trajectory.times) < 2:
        raise ValueError("conservation report needs at least two samples")
    h = trajectory.hamiltonian
    report = {
        "samples": int(len(trajectory.times)),
        "hamiltonian_drift": float(np.max(np.abs(h - h[0]))),
    }
    if trajectory.rotation_symmetric:
        imp = trajectory.angular_impulse
        report["angular_impulse_drift"] = float(np.max(np.abs(imp - imp[0])))
    return report
