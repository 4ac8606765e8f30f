import numpy as np
import pytest

import greenmorse as gm
from greenmorse import dynamics


def test_angular_impulse_conserved_about_off_centre_disk():
    # the midpoint rule keeps the quadratic impulse about the disk's centre
    engine = gm.build_engine(gm.DomainSpec(gm.circle(center=(0.5, 0.0))))
    traj = gm.integrate(engine, gm.VortexStrengths([1.0, -1.0]),
                        gm.kirchhoff_routh_interaction(),
                        np.array([0.8, 0.1, 0.3, -0.3]),
                        gm.DynamicsConfig(dt=1e-2, horizon=0.5))
    assert not traj.truncated
    assert np.ptp(traj.states[:, 0, 0]) > 1e-2   # the pair does move
    assert gm.conservation_report(traj)["angular_impulse_drift"] <= 1e-10


def reference_integrate(engine, strengths, spec, x0, config):
    """The integrator loop as it was when every step began with its own
    velocity evaluation: times, states, energies and impulses."""
    def velocity_flat(flat):
        return gm.velocity(engine, strengths, spec, gm.Configuration(flat.reshape(-1, 2))
                           ).reshape(-1)

    def observables(flat):
        cfg = gm.Configuration(flat.reshape(-1, 2))
        value = gm.f_omega(engine, strengths, spec, cfg).value
        rel = cfg.points - engine.domain.rotation_center
        return value, float(np.sum(strengths.values * np.sum(rel * rel, axis=1)))

    state = np.asarray(x0, dtype=float).reshape(-1).copy()
    dt = config.dt
    times, states = [0.0], [state.reshape(-1, 2).copy()]
    h, imp = observables(state)
    energies, impulses = [h], [imp]
    for step in range(1, int(round(config.horizon / dt)) + 1):
        if config.integrator == "rk4":
            k1 = velocity_flat(state)
            k2 = velocity_flat(state + 0.5 * dt * k1)
            k3 = velocity_flat(state + 0.5 * dt * k2)
            k4 = velocity_flat(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            mid = state + 0.5 * dt * velocity_flat(state)
            for _ in range(dynamics.MAX_SOLVER_ITERATIONS):
                new_mid = state + 0.5 * dt * velocity_flat(mid)
                delta = float(np.max(np.abs(new_mid - mid)))
                mid = new_mid
                if delta <= dynamics.SOLVE_TOL:
                    break
            state = 2.0 * mid - state
        h, imp = observables(state)
        times.append(step * dt)
        states.append(state.reshape(-1, 2).copy())
        energies.append(h)
        impulses.append(imp)
    return np.array(times), np.array(states), np.array(energies), np.array(impulses)


@pytest.mark.parametrize("integrator", ["midpoint", "rk4"])
def test_integrate_reuses_end_of_step_gradient(monkeypatch, lobed_engine, integrator):
    # a 6-vortex ring: the end-of-step evaluation supplies the next step's
    # first velocity, with the same trajectory bit for bit
    theta = 0.4 + 2.0 * np.pi * np.arange(6) / 6
    ring = 0.45 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    strengths = gm.VortexStrengths(np.ones(6))
    spec = gm.kirchhoff_routh_interaction()
    config = gm.DynamicsConfig(integrator=integrator, dt=5e-3, horizon=5 * 5e-3)
    expected = reference_integrate(lobed_engine, strengths, spec, ring.reshape(-1), config)

    calls = []
    f_omega = dynamics.f_omega

    def counting_f_omega(*args, **kwargs):
        calls.append(1)
        return f_omega(*args, **kwargs)

    monkeypatch.setattr(dynamics, "f_omega", counting_f_omega)
    traj = gm.integrate(lobed_engine, strengths, spec, ring.reshape(-1), config)
    assert not traj.truncated
    for got, want in zip((traj.times, traj.states, traj.hamiltonian, traj.angular_impulse),
                         expected):
        assert np.array_equal(got, want)
    assert len(traj.solver_iterations) == len(traj.solver_updates) == 5
    if integrator == "midpoint":
        assert np.all(traj.solver_iterations >= 1)
        assert np.all(traj.solver_updates <= dynamics.SOLVE_TOL)
        assert len(calls) == 1 + int(np.sum(1 + traj.solver_iterations))
    else:
        assert np.all(traj.solver_iterations == 0) and np.all(traj.solver_updates == 0.0)
        assert len(calls) == 1 + 4 * 5
    stats = traj.solver_stats()
    assert stats["solver_iterations"] == {"sum": int(np.sum(traj.solver_iterations)),
                                          "max": int(np.max(traj.solver_iterations))}
    assert stats["final_update"]["max"] == float(np.max(traj.solver_updates))


def test_stalled_midpoint_solve_truncates_with_a_diagnostic(monkeypatch, disk_engine):
    # one fixed-point iteration cannot reach SOLVE_TOL: the first step stalls
    monkeypatch.setattr(dynamics, "MAX_SOLVER_ITERATIONS", 1)
    traj = gm.integrate(disk_engine, gm.VortexStrengths([1.0, -1.0]),
                        gm.kirchhoff_routh_interaction(), np.array([0.3, 0.1, -0.2, -0.3]),
                        gm.DynamicsConfig(dt=1e-2, horizon=3e-2))
    assert traj.truncated
    assert traj.diagnostic == "implicit solve stalled at step 1"
    assert np.array_equal(traj.times, [0.0]) and len(traj.solver_iterations) == 0


@pytest.mark.parametrize("settings, message", [
    ({"dt": float("nan")}, "time step"),
    ({"dt": float("inf")}, "time step"),
    ({"dt": 0.0}, "time step"),
    ({"horizon": float("nan")}, "horizon"),
    ({"horizon": float("inf")}, "horizon"),
    ({"dt": 0.1, "horizon": 0.05}, "horizon"),
], ids=["dt-nan", "dt-inf", "dt-zero", "horizon-nan", "horizon-inf", "horizon-below-dt"])
def test_dynamics_config_rejects_bad_settings(settings, message):
    # NaN fails every comparison, and an infinite horizon has no step count
    with pytest.raises(ValueError, match=message):
        gm.DynamicsConfig(**settings)
