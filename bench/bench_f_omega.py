"""Layer micro-benchmark of ``f_omega`` (L2) and of engine builds (L1).

Times one ``f_omega`` call for N in {2, 4, 8, 16} same-sign vortices on a ring
and for the search workload's N = 3, lambda = (1, 1, -1), once reading only
the value and gradient (what the vortex dynamics and a rejected search trial
use) and once also reading ``.hessian`` (what an accepted search step and the
Morse classification use), on three 256-node engines: the conformal-map
engine on the lobed domain (the default off the disk) and the disk engine on
the unit disk (every disk command and rung 0 of ``perturb-study``), which
both return the Kirchhoff-Routh energy from one complex pass
(``green_sum``), and the Nystrom engine on the lobed domain, which
contracts per-pair blocks.  The Nystrom engine computes every block in the
call, so its two rows differ only by the Hessian contraction in
``regular_sum`` and the subtraction in ``f_omega``; each of its evaluations
factorises the Dirichlet matrix anew (``lu_solve`` is one numpy LU solve).
``test_f_omega_near_pair`` times the N = 3 case with points 0 and 1 closer
than eval_margin / 2 on the conformal-map engine, whose divided differences
for that pair come from the segment rule (``_segment_quotients``).  It also
times the construction of the conformal-map and Nystrom engines at 256 nodes
(every command but ``perturb-study``) and 512 nodes (a ``perturb-study``
rung); ``bench/bench_perturb.py`` times the conformal-map builds of a rung
and of an 8:1 ellipse.  Run from the root of a checkout with
pytest-benchmark installed:

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


@pytest.fixture(scope="module", params=sorted(ENGINES) + ["disk"])
def engine(request, lobed_domain):
    if request.param == "disk":
        return gm.DiskGreenEngine(gm.DomainSpec(gm.unit_circle()), 256)
    return ENGINES[request.param](lobed_domain, 256)


def _ring(n):
    theta = 0.3 + 2.0 * np.pi * np.arange(n) / n
    return gm.Configuration(0.45 * np.stack([np.cos(theta), np.sin(theta)], axis=1))


def _gradient(engine, strengths, spec, config):
    return gm.f_omega(engine, strengths, spec, config).gradient


def _hessian(engine, strengths, spec, config):
    return gm.f_omega(engine, strengths, spec, config).hessian


@pytest.mark.parametrize("read", [_gradient, _hessian], ids=["gradient", "hessian"])
@pytest.mark.parametrize("lam", [(1.0,) * 2, (1.0, 1.0, -1.0), (1.0,) * 4, (1.0,) * 8,
                                 (1.0,) * 16], ids=["2", "3-mixed", "4", "8", "16"])
def test_f_omega(benchmark, engine, lam, read):
    strengths = gm.VortexStrengths(lam)
    result = benchmark(read, engine, strengths, gm.kirchhoff_routh_interaction(),
                       _ring(len(lam)))
    assert np.all(np.isfinite(result))


@pytest.mark.parametrize("read", [_gradient, _hessian], ids=["gradient", "hessian"])
def test_f_omega_near_pair(benchmark, lobed_domain, read):
    engine = gm.ConformalGreenEngine(lobed_domain, 256)
    points = _ring(3).points.copy()
    points[1] = points[0] + 0.3 * engine.eval_margin * np.array([0.6, -0.8])
    result = benchmark(read, engine, gm.VortexStrengths([1.0, 1.0, -1.0]),
                       gm.kirchhoff_routh_interaction(), gm.Configuration(points))
    assert np.all(np.isfinite(result))


@pytest.mark.parametrize("backend", sorted(ENGINES))
@pytest.mark.parametrize("nodes", [256, 512])
def test_build_engine(benchmark, lobed_domain, nodes, backend):
    engine = benchmark(ENGINES[backend], lobed_domain, nodes)
    assert engine.self_test_error <= 1e-8
