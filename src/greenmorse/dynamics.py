"""Point-vortex dynamics driven by the assembled vortex energy.

The weighted symplectic form lambda_k dx_k/dt = J grad_{x_k} f (J = rotation
by +pi/2) makes critical points of the energy exactly the equilibria and
conserves both the energy and, on disks, the angular impulse
sum_k lambda_k |x_k - c|^2 about the centre c.  The implicit midpoint rule
preserves the quadratic impulse up to its fixed-point tolerance
``SOLVE_TOL``; both integrators are
order 2 or better in the time step.

A midpoint step solves m = x + (dt/2) v(m) for the midpoint m in three
stages (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2nd ed.,
section VIII.6).  It guesses m from the midpoint velocity extrapolated
linearly, 2 v(x) - w with w the previous step's last fixed-point velocity
(the first step, which has no w, takes the Euler guess x + (dt/2) v(x)).  It
corrects the guess by one Newton step, (I - dt/2 Dv) delta = m - x -
(dt/2) v(m), with Dv = diag(1/lambda) J Hess f from ``velocity(...,
jacobian=True)``; a system that is singular or not finite is skipped and the
step goes on from the guess.  Then it runs the plain fixed-point iteration
m <- x + (dt/2) v(m) until an update's max-norm is at most ``SOLVE_TOL``.

The Newton evaluation is the only ``f_omega`` call here that reads a Hessian.
``integrate`` evaluates f_omega once per sample for the energy, and that
evaluation's gradient also gives the next step's first velocity (the
extrapolation's v(x) or the rk4 stage k1).  So a midpoint step makes 1 + i
``f_omega`` calls, i of them in ``velocity``: the Newton evaluation and its
i - 1 fixed-point iterations.  An rk4 step makes 4, three of them in
``velocity``.
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
# the integrators DynamicsConfig accepts
INTEGRATORS = ("midpoint", "rk4")
# a horizon must be this close, relative to itself, to a whole number of steps
STEP_COUNT_RTOL = 1e-9


@dataclass(frozen=True)
class DynamicsConfig:
    integrator: str = "midpoint"      # one of INTEGRATORS
    dt: float = 1e-3
    horizon: float = 1.0

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("time step must be positive and finite")
        if not self.dt <= self.horizon < np.inf:
            raise ValueError("horizon must be finite and at least one time step")
        ratio = self.horizon / self.dt
        if abs(ratio - round(ratio)) > STEP_COUNT_RTOL * ratio:
            raise ValueError(f"horizon must be a whole number of time steps, "
                             f"got {self.horizon!r} / {self.dt!r} = {ratio!r}")

    @property
    def steps(self) -> int:
        """The number of time steps in the horizon."""
        return round(self.horizon / self.dt)


@dataclass(frozen=True)
class Trajectory:
    """Samples at every step.  For each of the M - 1 steps taken,
    ``solver_iterations`` counts the midpoint rule's velocity evaluations,
    the Newton evaluation and the fixed-point iterations after it;
    ``solver_updates`` holds the max-norm of its final fixed-point update;
    ``newton_skipped`` is True where the Newton correction was skipped (0,
    0.0 and False for rk4, which solves nothing)."""

    times: np.ndarray            # (M,)
    states: np.ndarray           # (M, N, 2)
    hamiltonian: np.ndarray      # (M,)
    angular_impulse: np.ndarray  # (M,)
    rotation_symmetric: bool
    diagnostic: str | None = None    # why the run stopped early; None if it did not
    solver_iterations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    solver_updates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    newton_skipped: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def truncated(self) -> bool:
        return self.diagnostic is not None

    def solver_stats(self) -> dict:
        """Sum and maximum of the per-step solver iterations and final
        updates, and the number of steps whose Newton correction was skipped."""
        return {
            "solver_iterations": {"sum": int(np.sum(self.solver_iterations)),
                                  "max": int(np.max(self.solver_iterations, initial=0))},
            "final_update": {"sum": float(np.sum(self.solver_updates)),
                             "max": float(np.max(self.solver_updates, initial=0.0))},
            "newton_skipped": int(np.sum(self.newton_skipped)),
        }


def velocity(engine, strengths: VortexStrengths, spec: InteractionSpec,
             config: Configuration, jacobian: bool = False):
    """dx_k/dt = (1/lambda_k) J grad_{x_k} f, shape (N, 2).

    With ``jacobian`` it returns (velocity, Dv): Dv = diag(1/lambda) J Hess f,
    the (2N, 2N) derivative of the flat velocity in the flat configuration,
    read from the same ``f_omega`` call's Hessian."""
    res = f_omega(engine, strengths, spec, config)
    v = _rotate(strengths, res.gradient).reshape(-1, 2)
    if not jacobian:
        return v
    return v, _rotate(strengths, res.hessian)


def _rotate(strengths: VortexStrengths, rows: np.ndarray) -> np.ndarray:
    """diag(1/lambda) J applied along the leading (2N) axis of ``rows``."""
    r = rows.reshape(len(strengths), 2, -1)
    rotated = np.stack([-r[:, 1], r[:, 0]], axis=1) / strengths.values[:, None, None]
    return rotated.reshape(rows.shape)


def _velocity_flat(engine, strengths, spec, flat):
    return velocity(engine, strengths, spec,
                    Configuration(flat.reshape(-1, 2))).reshape(-1)


def _newton_correction(residual: np.ndarray, dv: np.ndarray, dt: float):
    """delta with (I - dt/2 Dv) delta = residual, or None where that system
    is singular or not finite."""
    system = np.eye(len(residual)) - 0.5 * dt * dv
    if not np.all(np.isfinite(system)):
        return None
    try:
        delta = np.linalg.solve(system, residual)
    except np.linalg.LinAlgError:
        return None
    return delta if np.all(np.isfinite(delta)) else None


def integrate(engine, strengths: VortexStrengths, spec: InteractionSpec,
              x0, config: DynamicsConfig) -> Trajectory:
    """Integrate from x0, sampling every step; truncates on margin exit."""
    state = np.asarray(x0, dtype=float).reshape(-1).copy()
    dt = config.dt

    times = [0.0]
    states = [state.reshape(-1, 2).copy()]
    energies = []
    impulses = []
    iterations = []
    updates = []
    skipped = []
    diagnostic = None
    w = None    # the previous midpoint step's last fixed-point velocity

    def observables(flat):
        """Energy, angular impulse and velocity (flat) at the state ``flat``."""
        cfg = Configuration(flat.reshape(-1, 2))
        res = f_omega(engine, strengths, spec, cfg)
        rel = cfg.points - engine.domain.rotation_center
        impulse = float(np.sum(strengths.values * np.sum(rel * rel, axis=1)))
        return res.value, impulse, _rotate(strengths, res.gradient)

    try:
        h0, i0, v = observables(state)
    except GreenMorseError as exc:
        raise NumericError(f"initial state inadmissible: {exc}") from exc
    energies.append(h0)
    impulses.append(i0)

    for step in range(1, config.steps + 1):
        try:
            if config.integrator == "rk4":
                k1 = v
                k2 = _velocity_flat(engine, strengths, spec, state + 0.5 * dt * k1)
                k3 = _velocity_flat(engine, strengths, spec, state + 0.5 * dt * k2)
                k4 = _velocity_flat(engine, strengths, spec, state + dt * k3)
                state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                solved, delta, skip = 0, 0.0, False
            else:
                mid = state + 0.5 * dt * (v if w is None else 2.0 * v - w)
                v_mid, dv = velocity(engine, strengths, spec,
                                     Configuration(mid.reshape(-1, 2)), jacobian=True)
                correction = _newton_correction(mid - state - 0.5 * dt * v_mid.reshape(-1),
                                                dv, dt)
                skip = correction is None
                if not skip:
                    mid = mid - correction
                for solved in range(1, MAX_SOLVER_ITERATIONS + 1):
                    w = _velocity_flat(engine, strengths, spec, mid)
                    new_mid = state + 0.5 * dt * w
                    delta = float(np.max(np.abs(new_mid - mid)))
                    mid = new_mid
                    if delta <= SOLVE_TOL:
                        break
                else:
                    diagnostic = f"implicit solve stalled at step {step}"
                    break
                solved += 1    # the Newton evaluation
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
        skipped.append(skip)

    return Trajectory(np.array(times), np.array(states), np.array(energies),
                      np.array(impulses), engine.domain.is_disk(), diagnostic,
                      np.array(iterations, dtype=int), np.array(updates, dtype=float),
                      np.array(skipped, dtype=bool))


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
