"""Layer micro-benchmark of single integration runs (L3) on the lobed domain.

Times ``integrate`` over 20 steps of dt = 5e-3 for the ring of 6 unit
vortices at r = 0.45 that the ``dynamics`` benchmark workload simulates, on
the 256-node conformal-map engine (the default), with the midpoint rule and
with rk4.  A midpoint step is one Newton evaluation, which reads the Hessian,
and its fixed-point iterations; an rk4 step is three gradient-only velocity
evaluations.  Both add one energy evaluation per step.  Run from the root of
a checkout with pytest-benchmark installed:

    OPENBLAS_NUM_THREADS=1 python -m pytest bench/bench_dynamics.py

The ``testpaths`` setting keeps tier-1 test runs from collecting this file.
"""

import numpy as np
import pytest

import greenmorse as gm

DT = 5e-3
STEPS = 20


@pytest.fixture(scope="module")
def lobed_engine():
    """The unit disk displaced by 0.05 cos(3t) along the normal, 256 nodes."""
    domain = gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), gm.cosine_field(3), 0.05)
    return gm.build_engine(domain, 256)


@pytest.mark.parametrize("integrator", ["midpoint", "rk4"])
def test_integrate(benchmark, lobed_engine, integrator):
    theta = 0.4 + 2.0 * np.pi * np.arange(6) / 6
    ring = 0.45 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    config = gm.DynamicsConfig(integrator=integrator, dt=DT, horizon=STEPS * DT)
    traj = benchmark(gm.integrate, lobed_engine, gm.VortexStrengths(np.ones(6)),
                     gm.kirchhoff_routh_interaction(), ring.reshape(-1), config)
    assert not traj.truncated and len(traj.times) == STEPS + 1
    assert gm.conservation_report(traj)["hamiltonian_drift"] <= 1e-5
