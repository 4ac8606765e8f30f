"""Layer micro-benchmark of ``f_omega`` (L2) and of engine builds (L1) on the
lobed domain.

Times one ``f_omega`` call for N in {2, 4, 8, 16} same-sign vortices on a ring,
once reading only the value and gradient (what the vortex dynamics and a
rejected search trial use) and once also reading ``.hessian`` (what an
accepted search step and the Morse classification use), on the 256-node
conformal-map engine (the default) and the 256-node Nystrom engine.  The
Nystrom engine computes every block in the call, so its two rows differ only
by the Hessian assembly in ``f_omega``.  It also
times the construction of both engines at 256 nodes (every command but
``perturb-study``) and 512 nodes (a ``perturb-study`` rung), and of the
512-node conformal-map engine on an 8:1 ellipse, whose Kerzman-Stein solve
takes the most GMRES steps of the test domains.  Run from the
root of a checkout with pytest-benchmark installed:

    OPENBLAS_NUM_THREADS=1 python -m pytest bench/bench_f_omega.py

The ``testpaths`` setting keeps tier-1 test runs from collecting this file.
"""

import numpy as np
import pytest

import greenmorse as gm

ENGINES = {"conformal": gm.ConformalGreenEngine, "integral": gm.IntegralGreenEngine}


@pytest.fixture(scope="module")
def lobed_domain():
    """The unit disk displaced by 0.05 cos(3t) along the normal."""
    return gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), gm.cosine_field(3), 0.05)


@pytest.fixture(scope="module", params=sorted(ENGINES))
def lobed_engine(request, lobed_domain):
    return ENGINES[request.param](lobed_domain, 256)


def _ring(n):
    theta = 0.3 + 2.0 * np.pi * np.arange(n) / n
    return gm.Configuration(0.45 * np.stack([np.cos(theta), np.sin(theta)], axis=1))


def _gradient(engine, strengths, spec, config):
    return gm.f_omega(engine, strengths, spec, config).gradient


def _hessian(engine, strengths, spec, config):
    return gm.f_omega(engine, strengths, spec, config).hessian


@pytest.mark.parametrize("read", [_gradient, _hessian], ids=["gradient", "hessian"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_f_omega(benchmark, lobed_engine, n, read):
    strengths = gm.VortexStrengths(np.ones(n))
    result = benchmark(read, lobed_engine, strengths, gm.kirchhoff_routh_interaction(),
                       _ring(n))
    assert np.all(np.isfinite(result))


@pytest.mark.parametrize("backend", sorted(ENGINES))
@pytest.mark.parametrize("nodes", [256, 512])
def test_build_engine(benchmark, lobed_domain, nodes, backend):
    engine = benchmark(ENGINES[backend], lobed_domain, nodes)
    assert engine.self_test_error <= 1e-8


def test_build_thin_ellipse(benchmark):
    ellipse = gm.DomainSpec(gm.BoundaryCurve([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.125]))
    engine = benchmark(gm.ConformalGreenEngine, ellipse, 512)
    assert engine.self_test_error <= 1e-8
