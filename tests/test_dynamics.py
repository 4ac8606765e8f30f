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


def reference_integrate(engine, strengths, spec, x0, config, scheme="newton"):
    """The integrator loop with every step beginning with its own velocity
    evaluation: times, states, energies and impulses.  The midpoint rule's
    ``scheme`` is "newton" (the extrapolated guess, one Newton correction,
    then the fixed-point loop), "guess" (the extrapolated guess and the loop,
    as when the correction is skipped) or "plain" (the Euler guess and the
    loop on every step, the scheme before the Newton correction)."""
    lam2 = np.repeat(strengths.values, 2)

    def velocity_flat(flat):
        return gm.velocity(engine, strengths, spec, gm.Configuration(flat.reshape(-1, 2))
                           ).reshape(-1)

    def velocity_jacobian(flat):
        # v_2k = -d_{2k+1} f / lambda_k and v_{2k+1} = d_{2k} f / lambda_k
        res = gm.f_omega(engine, strengths, spec, gm.Configuration(flat.reshape(-1, 2)))
        g, h = res.gradient, res.hessian
        v, dv = np.empty_like(g), np.empty_like(h)
        v[0::2], v[1::2] = -g[1::2], g[0::2]
        dv[0::2], dv[1::2] = -h[1::2], h[0::2]
        return v / lam2, dv / lam2[:, None]

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
    w = None
    for step in range(1, config.steps + 1):
        if config.integrator == "rk4":
            k1 = velocity_flat(state)
            k2 = velocity_flat(state + 0.5 * dt * k1)
            k3 = velocity_flat(state + 0.5 * dt * k2)
            k4 = velocity_flat(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            v = velocity_flat(state)
            if w is None or scheme == "plain":
                mid = state + 0.5 * dt * v
            else:
                mid = state + 0.5 * dt * (2.0 * v - w)
            if scheme == "newton":
                v_mid, dv = velocity_jacobian(mid)
                mid = mid - np.linalg.solve(np.eye(len(mid)) - 0.5 * dt * dv,
                                            mid - state - 0.5 * dt * v_mid)
            for _ in range(dynamics.MAX_SOLVER_ITERATIONS):
                w = velocity_flat(mid)
                new_mid = state + 0.5 * dt * w
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


def ring6():
    """The benchmark's ring of 6 unit vortices at r = 0.45, flat."""
    theta = 0.4 + 2.0 * np.pi * np.arange(6) / 6
    return (0.45 * np.stack([np.cos(theta), np.sin(theta)], axis=1)).reshape(-1)


@pytest.mark.parametrize("integrator", ["midpoint", "rk4"])
def test_integrate_reuses_end_of_step_gradient(monkeypatch, lobed_engine, integrator):
    # a 6-vortex ring: the end-of-step evaluation supplies the next step's
    # first velocity, with the same trajectory bit for bit
    strengths = gm.VortexStrengths(np.ones(6))
    spec = gm.kirchhoff_routh_interaction()
    config = gm.DynamicsConfig(integrator=integrator, dt=5e-3, horizon=5 * 5e-3)
    expected = reference_integrate(lobed_engine, strengths, spec, ring6(), config)

    calls = []
    f_omega = dynamics.f_omega

    def counting_f_omega(*args, **kwargs):
        calls.append(1)
        return f_omega(*args, **kwargs)

    monkeypatch.setattr(dynamics, "f_omega", counting_f_omega)
    traj = gm.integrate(lobed_engine, strengths, spec, ring6(), config)
    assert not traj.truncated
    for got, want in zip((traj.times, traj.states, traj.hamiltonian, traj.angular_impulse),
                         expected):
        assert np.array_equal(got, want)
    assert len(traj.solver_iterations) == len(traj.solver_updates) == 5
    assert len(traj.newton_skipped) == 5 and not np.any(traj.newton_skipped)
    if integrator == "midpoint":
        # the Newton evaluation and at least one fixed-point iteration
        assert np.all(traj.solver_iterations >= 2)
        assert np.all(traj.solver_updates <= dynamics.SOLVE_TOL)
        assert len(calls) == 1 + int(np.sum(1 + traj.solver_iterations))
    else:
        assert np.all(traj.solver_iterations == 0) and np.all(traj.solver_updates == 0.0)
        assert len(calls) == 1 + 4 * 5
    stats = traj.solver_stats()
    assert stats["solver_iterations"] == {"sum": int(np.sum(traj.solver_iterations)),
                                          "max": int(np.max(traj.solver_iterations))}
    assert stats["final_update"]["max"] == float(np.max(traj.solver_updates))
    assert stats["newton_skipped"] == 0


def test_newton_step_agrees_with_the_plain_fixed_point_loop(lobed_engine):
    # both solve the same midpoint equation to SOLVE_TOL; after the first
    # step the extrapolated, corrected guess leaves one fixed-point iteration
    strengths = gm.VortexStrengths(np.ones(6))
    spec = gm.kirchhoff_routh_interaction()
    config = gm.DynamicsConfig(dt=5e-3, horizon=20 * 5e-3)
    _, states, energies, _ = reference_integrate(lobed_engine, strengths, spec, ring6(),
                                                 config, scheme="plain")
    traj = gm.integrate(lobed_engine, strengths, spec, ring6(), config)
    assert not traj.truncated and len(traj.times) == 21
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.max(np.abs(traj.hamiltonian - energies)) <= 1e-12
    assert np.all(traj.solver_iterations[1:] == 2)


@pytest.mark.parametrize("engine_name", ["disk_engine", "lobed_engine"])
def test_velocity_jacobian_matches_central_differences(request, engine_name):
    # Dv = diag(1/lambda) J Hess f, against differences of the velocity itself
    engine = request.getfixturevalue(engine_name)
    strengths = gm.VortexStrengths([1.0, 2.0, -1.5])
    spec = gm.kirchhoff_routh_interaction()
    x = np.array([0.3, 0.1, -0.25, 0.3, -0.1, -0.35])
    v, dv = gm.velocity(engine, strengths, spec, gm.Configuration(x.reshape(-1, 2)),
                        jacobian=True)
    assert np.array_equal(v, gm.velocity(engine, strengths, spec,
                                         gm.Configuration(x.reshape(-1, 2))))
    assert dv.shape == (6, 6)
    h = 1e-5
    fd = np.empty_like(dv)
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        plus = gm.velocity(engine, strengths, spec, gm.Configuration((x + e).reshape(-1, 2)))
        minus = gm.velocity(engine, strengths, spec, gm.Configuration((x - e).reshape(-1, 2)))
        fd[:, i] = (plus - minus).reshape(-1) / (2 * h)
    assert np.max(np.abs(dv - fd)) <= 1e-6 * np.max(np.abs(dv))


def _force_jacobian(monkeypatch, jacobian_of):
    """Make ``velocity(..., jacobian=True)`` return ``jacobian_of(2N)`` as Dv."""
    velocity = dynamics.velocity

    def forced(engine, strengths, spec, config, jacobian=False):
        v = velocity(engine, strengths, spec, config)
        return (v, jacobian_of(v.size)) if jacobian else v

    monkeypatch.setattr(dynamics, "velocity", forced)


@pytest.mark.parametrize("system", ["singular", "non-finite"])
def test_skipped_newton_correction_iterates_from_the_guess(monkeypatch, lobed_engine, system):
    # a correction that cannot be computed is skipped: the step runs the plain
    # fixed-point loop from the extrapolated guess, and the stats count it
    dt = 2.0 ** -8     # dt/2 * (2/dt) I is exactly I, so I - dt/2 Dv is exactly 0
    strengths = gm.VortexStrengths(np.ones(6))
    spec = gm.kirchhoff_routh_interaction()
    config = gm.DynamicsConfig(dt=dt, horizon=5 * dt)
    expected = reference_integrate(lobed_engine, strengths, spec, ring6(), config,
                                   scheme="guess")
    _force_jacobian(monkeypatch, lambda n: (2.0 / dt) * np.eye(n) if system == "singular"
                    else np.full((n, n), np.nan))
    traj = gm.integrate(lobed_engine, strengths, spec, ring6(), config)
    assert not traj.truncated
    for got, want in zip((traj.times, traj.states, traj.hamiltonian, traj.angular_impulse),
                         expected):
        assert np.array_equal(got, want)
    assert np.all(traj.newton_skipped) and traj.solver_stats()["newton_skipped"] == 5
    assert np.all(traj.solver_updates <= dynamics.SOLVE_TOL)


def _assert_first_step_stalls(monkeypatch, disk_engine, dt, newton):
    # the first step needs at least two fixed-point iterations after its
    # Newton evaluation, so with one allowed it stalls
    inputs = (disk_engine, gm.VortexStrengths([1.0, -1.0]), gm.kirchhoff_routh_interaction(),
              np.array([0.3, 0.1, -0.2, -0.3]), gm.DynamicsConfig(dt=dt, horizon=3 * dt))
    full = gm.integrate(*inputs)
    assert not full.truncated and full.solver_iterations[0] >= 3
    assert full.newton_skipped[0] == (not newton)
    monkeypatch.setattr(dynamics, "MAX_SOLVER_ITERATIONS", 1)
    traj = gm.integrate(*inputs)
    assert traj.truncated
    assert traj.diagnostic == "implicit solve stalled at step 1"
    assert np.array_equal(traj.times, [0.0]) and len(traj.solver_iterations) == 0


def test_stalled_midpoint_solve_truncates_with_a_diagnostic(monkeypatch, disk_engine):
    # at dt = 0.05 the Newton-corrected Euler guess is still too far off for
    # one fixed-point iteration to reach SOLVE_TOL
    _assert_first_step_stalls(monkeypatch, disk_engine, 5e-2, newton=True)


def test_stalled_solve_without_its_newton_correction_truncates(monkeypatch, disk_engine):
    # with the correction skipped (a non-finite Jacobian), the Euler guess at
    # dt = 0.01 is too far off for one fixed-point iteration
    _force_jacobian(monkeypatch, lambda n: np.full((n, n), np.nan))
    _assert_first_step_stalls(monkeypatch, disk_engine, 1e-2, newton=False)


@pytest.mark.parametrize("dt, horizon", [(0.04, 0.1), (0.04, 0.14), (1e-3, 0.0105)],
                         ids=["half-below", "half-above", "fraction"])
def test_dynamics_config_rejects_a_fractional_step_count(dt, horizon):
    # round(horizon / dt) rounds halves to even: 2.5 steps would run 2, 3.5 would run 4
    with pytest.raises(ValueError, match="horizon must be a whole number of time steps"):
        gm.DynamicsConfig(dt=dt, horizon=horizon)


@pytest.mark.parametrize("dt, horizon, steps", [(5e-3, 0.1, 20), (0.01, 0.05, 5),
                                                (0.1, 0.3, 3), (0.01, 0.07, 7),
                                                (1e-3, 1.0, 1000)])
def test_dynamics_config_accepts_round_off_in_the_step_count(dt, horizon, steps):
    # the benchmark's 0.1 / 0.005 and CI's 0.05 / 0.01 divide exactly;
    # 0.3 / 0.1 = 2.9999999999999996 and 0.07 / 0.01 = 7.000000000000001
    assert gm.DynamicsConfig(dt=dt, horizon=horizon).steps == steps


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
