"""Layer micro-benchmark of the critical-point search (L3) on the lobed domain.

Times, on the 256-node conformal-map engine of the lobed domain and for the
``search`` workload's N = 3, lambda = (1, 1, -1): drawing the workload's 32
Halton starts (the scramble's permutations and the candidates' admissibility
verdicts), one ``newton_polish`` run
from each of two fixed Halton starts (the stack-of-one path, S = 1, that
the ``continuation`` corrector runs; the search runs every start to its
end in the lockstep), one ``f_omega_stack`` call on the workload's 32
starts (the gradients of one lockstep round), and one
``find_critical_points`` call with the workload's 32 starts and the Halton
seed of its first operation at ``--seed 1``.  The engine is built once, so
the last row is the search alone, without the build and the output files of
the CLI command.  Run from the root of a checkout with pytest-benchmark
installed:

    OPENBLAS_NUM_THREADS=1 python -m pytest bench/bench_search.py

The ``testpaths`` setting keeps tier-1 test runs from collecting this file.
"""

import numpy as np
import pytest

import greenmorse as gm
from greenmorse.critical import _halton_starts

STRENGTHS = gm.VortexStrengths([1.0, 1.0, -1.0])
SPEC = gm.kirchhoff_routh_interaction()
# the Halton seed perfbench/workloads.py derives for operation 0 of seed 1
SEED = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])


@pytest.fixture(scope="module")
def lobed_engine():
    """The unit disk displaced by 0.05 cos(3t) along the normal, 256 nodes."""
    domain = gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), gm.cosine_field(3), 0.05)
    return gm.build_engine(domain, 256)


def test_halton_starts(benchmark, lobed_engine):
    search = gm.SearchConfig(starts=32, seed=SEED)
    starts, candidates = benchmark(_halton_starts, lobed_engine, search, 3)
    assert len(starts) == 32 and candidates % 128 == 0


@pytest.mark.parametrize("start", [0, 1])
def test_newton_polish(benchmark, lobed_engine, start):
    search = gm.SearchConfig(starts=32, seed=SEED)
    x0 = _halton_starts(lobed_engine, search, 3)[0][start]
    result = benchmark(gm.newton_polish, lobed_engine, STRENGTHS, SPEC, x0, search)
    assert result.converged and result.evaluations > result.iterations


def test_stacked_evaluation(benchmark, lobed_engine):
    search = gm.SearchConfig(starts=32, seed=SEED)
    points = np.reshape(_halton_starts(lobed_engine, search, 3)[0], (-1, 3, 2))
    ok, res = benchmark(gm.f_omega_stack, lobed_engine, STRENGTHS, SPEC, points,
                        search.collision_margin)
    assert ok.all() and res.gradient.shape == (32, 6)


def test_find_critical_points(benchmark, lobed_engine):
    report = benchmark(gm.find_critical_points, lobed_engine, STRENGTHS, SPEC,
                       gm.SearchConfig(starts=32, seed=SEED))
    assert report.stats["starts"] == 32 and report.points
