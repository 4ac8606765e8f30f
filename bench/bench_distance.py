"""Layer micro-benchmark of the boundary queries (L0).

Times ``DomainSpec.signed_boundary_distance`` on the lobed domain at
N in {1, 3, 6, 384} points per query, exact (every point refined), and, at
N in {3, 6, 384}, the verdict ``contains`` at the lobed 256-node engine's
``eval_margin`` (0.05 x diameter, the one boundary threshold an evaluation
compares), the query every evaluation makes.  Those points are drawn from
[-1.1, 1.1]^2, so about half of them are refused.  Three verdict cases hold
deep points only.  Two of them the cached inscribed disk admits without
reading a boundary sample: the ``dynamics`` workload's 6-vortex ring at
r = 0.45, and a 384-point block (128 starts at N = 3) of admissible starts
more than twice ``eval_margin`` inside.  The third, ``lobes``, holds 64
points near the lobe tips, 1.5 to 1.7 ``eval_margin`` inside: outside the
disk's reach but admitted by the stride-8 scan, which it keeps timed.  Two
verdict cases time what a refused search trial queries: two points of the
dynamics ring and one 0.04 outside the lobed curve (a point outside the
domain) or 0.06 inside it (within ``eval_margin``, so accuracy-degraded),
which the stride-8 scan refuses.  Last, it times
``PerturbationField.evaluate`` at N = 64.  Run from the root of a checkout
with pytest-benchmark installed:

    OPENBLAS_NUM_THREADS=1 python -m pytest bench/bench_distance.py

The ``testpaths`` setting keeps tier-1 test runs from collecting this file.
"""

import numpy as np
import pytest

import greenmorse as gm


@pytest.fixture(scope="module")
def lobed_domain():
    """The unit disk displaced by 0.05 cos(3t) along the normal."""
    return gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), gm.cosine_field(3), 0.05)


def _points(n, seed=0):
    # interior points and points past the boundary, as a search visits them
    return np.random.default_rng(seed).uniform(-1.1, 1.1, size=(n, 2))


@pytest.mark.parametrize("n", [1, 3, 6, 384])
def test_signed_boundary_distance(benchmark, lobed_domain, n):
    pts = _points(n)
    dist = benchmark(lobed_domain.signed_boundary_distance, pts)
    assert dist.shape == (n,)


@pytest.mark.parametrize("n", [3, 6, 384])
def test_contains(benchmark, lobed_domain, n):
    pts = _points(n)
    inside = benchmark(gm.contains, lobed_domain, pts, 0.05 * lobed_domain.diameter)
    assert inside.shape == (n,)


def _deep_points(domain, case):
    if case == "ring":
        theta = 2 * np.pi * np.arange(6) / 6
        return 0.45 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if case == "lobes":
        rng = np.random.default_rng(0)
        t = 2 * np.pi / 3 * rng.integers(0, 3, 64) + rng.uniform(-0.15, 0.15, 64)
        frame = domain.boundary.frame(t)
        depth = rng.uniform(1.5, 1.7, 64) * 0.05 * domain.diameter
        return frame.point - depth[:, None] * frame.normal
    return gm.sample_interior(domain, 384, 0.1 * domain.diameter, seed=0)


@pytest.mark.parametrize("case", ["ring", "starts", "lobes"])
def test_deep_contains(benchmark, lobed_domain, case):
    pts = _deep_points(lobed_domain, case)
    margin = 0.05 * lobed_domain.diameter
    center, radius = lobed_domain._inscribed_disk
    on_disk = radius - np.hypot(*(pts - center).T) > margin
    # the level that admits them: the disk for the ring and the starts, the
    # stride-8 samples for the lobes
    assert not on_disk.any() if case == "lobes" else on_disk.mean() > 0.99
    assert np.all(benchmark(gm.contains, lobed_domain, pts, margin))


@pytest.mark.parametrize("depth", [-0.04, 0.06], ids=["outside", "inside"])
def test_refused_trial_contains(benchmark, lobed_domain, depth):
    frame = lobed_domain.boundary.frame(0.7)
    pts = np.vstack([_deep_points(lobed_domain, "ring")[:2],
                     frame.point - depth * frame.normal])
    margin = 0.05 * lobed_domain.diameter
    inside = benchmark(gm.contains, lobed_domain, pts, margin)
    assert np.array_equal(inside, [True, True, False])


def test_field_evaluate(benchmark, lobed_domain):
    pts = _points(64)
    field = gm.cosine_field(3)
    values = benchmark(field.evaluate, lobed_domain, pts)
    assert values.shape == (64, 2)
