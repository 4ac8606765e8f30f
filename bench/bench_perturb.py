"""Layer micro-benchmark of a continuation rung's domain build (L0).

Every rung of ``perturb-study`` displaces the base boundary and re-fits it
(``apply_perturbation``), then validates the new curve, whose chord scan
gives the self-intersection probe and the diameter behind ``eval_margin``.
This times ``apply_perturbation(disk, cosine_field(3), 0.03)``, a rung of the
``continuation`` workload's grid, and ``BoundaryCurve._chord_scan`` on that
rung's curve, recomputed each round past its cache.  The cos 3t rungs are
nearly of constant width, the hard case of the scan.  It also times the
rung's 512-node engine build, whose Kerzman-Stein density is resolved on a
128-node sub-grid, the rung's whole build, ``apply_perturbation`` and then
the 512-node engine, as ``perturb-study`` makes it, and the 512-node build
on an 8:1 ellipse, whose density is resolved on no sub-grid: it pays for
three right-hand-side FFTs, which pass over the 64-, 128- and 256-node
levels unsolved, before the full solve, which takes the most GMRES steps of
the test domains.  Run from the root of a checkout with pytest-benchmark
installed:

    OPENBLAS_NUM_THREADS=1 python -m pytest bench/bench_perturb.py

The ``testpaths`` setting keeps tier-1 test runs from collecting this file.
"""

import pytest

import greenmorse as gm
from greenmorse.geometry import BoundaryCurve

EPS = 0.03


@pytest.fixture(scope="module")
def disk():
    return gm.DomainSpec(gm.unit_circle())


def test_apply_perturbation(benchmark, disk):
    rung = benchmark(gm.apply_perturbation, disk, gm.cosine_field(3), EPS)
    assert rung.boundary.max_degree == 4


def test_chord_scan(benchmark, disk):
    curve = gm.apply_perturbation(disk, gm.cosine_field(3), EPS).boundary
    largest, _, _ = benchmark(BoundaryCurve._chord_scan.func, curve)
    assert largest == curve._chord_scan[0]


def test_build_rung_engine(benchmark, disk):
    rung = gm.apply_perturbation(disk, gm.cosine_field(3), EPS)
    engine = benchmark(gm.build_engine, rung, 512)
    assert engine.solve_nodes < 512


def test_build_rung(benchmark, disk):
    def build():
        return gm.build_engine(gm.apply_perturbation(disk, gm.cosine_field(3), EPS), 512)

    engine = benchmark(build)
    assert engine.solve_nodes == 128


def test_build_thin_ellipse(benchmark):
    ellipse = gm.DomainSpec(gm.BoundaryCurve([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.125]))
    engine = benchmark(gm.build_engine, ellipse, 512)
    assert engine.solve_nodes == 512 and engine.self_test_error <= 1e-8
