"""The conformal-map engine against the Nystrom engine, and its own properties.

The Nystrom engine at 512 nodes is the reference: at points at least
``eval_margin`` inside, values and gradients must agree to 1e-11 relative,
Hessian blocks and boundary traces to 1e-9 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import greenmorse as gm
from conftest import low_mode_domains, point_at_distance, polynomial_image
from greenmorse import green

TWO_PI = 2 * np.pi
BLOCK_FIELDS = ("value", "grad_x", "grad_y", "hess_xx", "hess_yy", "hess_xy")
TOLERANCE = {"value": 1e-11, "grad_x": 1e-11, "grad_y": 1e-11,
             "hess_xx": 1e-9, "hess_yy": 1e-9, "hess_xy": 1e-9}


def _relative(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _deep_ring(domain, n):
    centre = domain.boundary.centroid
    theta = 0.3 + TWO_PI * np.arange(n) / n
    radius = 0.35 * (1.0 + 0.2 * np.cos(3.0 * theta))
    return centre + radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _margin_ring(domain, n):
    """n points exactly ``eval_margin`` inside (up to a 1e-9 relative nudge)."""
    dist = 0.05 * domain.diameter * (1.0 + 1e-9)
    return np.array([point_at_distance(domain, 0.2 + TWO_PI * m / n, dist) for m in range(n)])


@pytest.fixture(scope="module", params=["disk_domain", "lobed_domain", "tilted_domain"])
def engine_pair(request):
    domain = request.getfixturevalue(request.param)
    return (domain, gm.IntegralGreenEngine(domain, 512),
            {n: gm.ConformalGreenEngine(domain, n) for n in (256, 512)})


@pytest.mark.parametrize("ring", ["deep", "margin"])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_conformal_matches_nystrom(engine_pair, n, ring):
    domain, reference, conformal = engine_pair
    pts = (_deep_ring if ring == "deep" else _margin_ring)(domain, n)
    assert np.all(domain.signed_boundary_distance(pts) >= reference.eval_margin)
    ref = reference.blocks(pts)
    # at the margin the trapezoid rule of 256 nodes leaves about 1e-10
    for nodes in ((256, 512) if ring == "deep" else (512,)):
        ev = conformal[nodes].blocks(pts)
        for name in BLOCK_FIELDS:
            err = _relative(getattr(ev, name), getattr(ref, name))
            assert err <= TOLERANCE[name], (nodes, name, err)
    values, grads = conformal[512]._traces(pts)
    ref_values, ref_grads = reference._traces(pts)
    assert _relative(values, ref_values) <= 1e-9
    assert _relative(grads, ref_grads) <= 1e-9


@pytest.mark.parametrize("gap", [3e-2, 1e-4, 1e-8])
def test_close_pairs_keep_full_accuracy(engine_pair, gap):
    # Q = (F(x) - F(y)) / (x - y) and its derivatives, taken as differences,
    # would lose digits as 1 / gap^3 in the Hessian blocks
    domain, reference, conformal = engine_pair
    ring = _deep_ring(domain, 3)
    pts = np.vstack([ring, ring[1] + gap * np.array([0.6, 0.8])])
    ref = reference.blocks(pts)
    for nodes in (256, 512):
        ev = conformal[nodes].blocks(pts)
        for name in BLOCK_FIELDS:
            err = _relative(getattr(ev, name), getattr(ref, name))
            assert err <= TOLERANCE[name], (nodes, name, err)


def test_conformal_engine_on_the_disk_is_the_closed_form(disk_domain, disk_engine):
    engine = gm.ConformalGreenEngine(disk_domain, 256)
    pts = _deep_ring(disk_domain, 3)
    ev, exact = engine.blocks(pts), disk_engine.blocks(pts)
    for name in BLOCK_FIELDS:
        assert _relative(getattr(ev, name), getattr(exact, name)) <= TOLERANCE[name]
    rob, exact_rob = engine.robin([0.3, -0.2]), disk_engine.robin([0.3, -0.2])
    assert abs(rob.value - exact_rob.value) <= 1e-12
    assert np.max(np.abs(rob.hessian - exact_rob.hessian)) <= 1e-9


def test_coincident_points_use_the_diagonal_limits(lobed_engine):
    # regular_part(x, x) is the Robin function; x_j = x_k takes the x = y
    # limits of the divided differences
    x = np.array([0.21, -0.13])
    same = lobed_engine.regular_part(x, x)
    near = lobed_engine.regular_part(x, x + [1e-4, 0.0])
    rob = lobed_engine.robin(x)
    assert abs(same.value - rob.value) <= 1e-14 * abs(rob.value)
    assert abs(near.value - same.value) <= 1e-3 * abs(same.value)
    assert np.max(np.abs(near.hess_xx - same.hess_xx)) <= 1e-2 * np.max(np.abs(same.hess_xx))
    assert np.max(np.abs(same.hess_xy - same.hess_xy.T)) <= 1e-14 * np.max(np.abs(same.hess_xy))


def test_conformal_diagnostics(lobed_engine):
    diag = lobed_engine.diagnostics
    assert diag["self_test_error"] == max(diag["exterior_cauchy_error"], diag["centre_image"],
                                          diag["solve_residual"]) <= green.SELF_TEST_TOL
    assert diag["solve_residual"] <= green.FIXED_POINT_TOL
    # operator products: 6 measured (the fixed point S <- rhs + K S took 12)
    assert 0 < diag["iterations"] <= 8
    assert diag["eval_margin"] == 0.05 * lobed_engine.domain.diameter


@pytest.fixture(scope="module")
def thin_ellipse():
    """The 8:1 ellipse x = cos t, y = sin(t) / 8."""
    return gm.DomainSpec(gm.BoundaryCurve([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.125]))


# points eval_margin = 0.1 inside the thin ellipse, near its axis
ELLIPSE_POINTS = np.array([[-0.4, 0.005], [0.05, -0.008], [0.35, 0.0]])


def _dense_solve(domain, n):
    """A stand-in for ``green._kerzman_stein_solve``: ``np.linalg.solve`` of
    the assembled I - K, K = R diag(c1) - diag(c2) conj(R) diag(w) on the
    engine's nodes, with the relative residual of the engine's own K."""
    frame = domain.boundary.frame(TWO_PI * np.arange(n) / n)
    z, dz, tangent = (v @ np.array([1.0, 1.0j]) for v in (frame.point, frame.velocity,
                                                          frame.tangent))
    r = np.subtract.outer(z, z)
    np.fill_diagonal(r, 1.0)
    r = 1.0 / r
    np.fill_diagonal(r, 0.0)
    c2 = np.conj(tangent / (2j * np.pi))
    system = np.eye(n) - r * (1j * dz / n) + c2[:, None] * np.conj(r) * (np.abs(dz) * TWO_PI / n)

    def solve(kernel, rhs):
        s = np.linalg.solve(system, rhs)
        return s, 1, float(np.max(np.abs(rhs + kernel(s) - s)) / np.max(np.abs(s)))

    return solve


@pytest.mark.parametrize("name, block_tol", [("lobed_domain", 1e-13), ("tilted_domain", 1e-13),
                                             ("thin_ellipse", 1e-12)])
def test_krylov_map_equals_the_dense_solve(request, monkeypatch, name, block_tol):
    domain = request.getfixturevalue(name)
    engine = gm.ConformalGreenEngine(domain, 512)
    monkeypatch.setattr(green, "_kerzman_stein_solve", _dense_solve(domain, 512))
    dense = gm.ConformalGreenEngine(domain, 512)
    assert dense.solve_residual <= 1e-14
    # a solve fixes S to round-off of max |S|, and F = S T / (i conj S) moves
    # by that over |S|; |S|^2 is proportional to |F'|, which on the ellipse
    # spans a factor 1e7, so the difference is weighted by sqrt(|F'| / max |F'|).
    # Its blocks near the axis are as sensitive: two dense solves, of the
    # complex system and of its real form, differ there by 2.4e-13
    weight = np.sqrt(dense._boundary_speed / np.max(dense._boundary_speed))
    assert np.max(np.abs(engine._boundary_map - dense._boundary_map) * weight) <= 1e-14
    pts = ELLIPSE_POINTS if name == "thin_ellipse" else _margin_ring(domain, 3)
    ev, ref = engine.blocks(pts), dense.blocks(pts)
    for field_name in BLOCK_FIELDS:
        err = _relative(getattr(ev, field_name), getattr(ref, field_name))
        assert err <= block_tol, (field_name, err)


def test_thin_ellipse_in_few_products(thin_ellipse):
    # |K| grows with the aspect ratio: at 8:1 the fixed point contracts by
    # about 0.6 per step and would need some 60 steps; GMRES took 16 products
    engine = gm.build_engine(thin_ellipse, 512)
    assert engine.iterations <= 20
    reference = gm.IntegralGreenEngine(thin_ellipse, 512)
    assert np.all(thin_ellipse.signed_boundary_distance(ELLIPSE_POINTS) >= engine.eval_margin)
    ev, ref = engine.blocks(ELLIPSE_POINTS), reference.blocks(ELLIPSE_POINTS)
    for name in BLOCK_FIELDS:
        assert _relative(getattr(ev, name), getattr(ref, name)) <= TOLERANCE[name], name


def test_solve_past_the_product_cap_fails_the_build(monkeypatch, lobed_domain):
    monkeypatch.setattr(green, "PRODUCT_CAP", 3)
    with pytest.raises(gm.DiscretizationFailureError, match="3 operator products"):
        gm.ConformalGreenEngine(lobed_domain, 256)


# g(u) = u + sum_k c_k u^k with sum k |c_k| < 1: univalent on the disk
POLYNOMIAL_MAPS = {"c3-symmetric": [0.0, 1.0, 0.0, 0.0, 0.1],
                   "asymmetric": [0.0, 1.0, 0.15 + 0.1j, -0.08j, 0.0, 0.03]}


@pytest.mark.parametrize("nodes", [512, 1024])
@pytest.mark.parametrize("name", sorted(POLYNOMIAL_MAPS))
def test_boundary_map_of_a_polynomial_image_is_exact(name, nodes):
    # the Riemann map of g(D) with F(0) = 0 is g^-1 up to a rotation; the map
    # centre, the centroid of the boundary samples, is 0 to round-off
    domain = polynomial_image(POLYNOMIAL_MAPS[name])
    engine = gm.ConformalGreenEngine(domain, nodes)
    assert np.max(np.abs(green._map_centre(domain, engine.eval_margin))) <= 1e-15
    turn = engine._boundary_map * np.exp(-1j * engine.node_params)
    rotation = np.mean(turn) / abs(np.mean(turn))
    assert np.max(np.abs(turn - rotation)) <= 1e-14


def test_centroid_outside_the_domain_moves_the_map_centre():
    # the banana's boundary-sample centroid (0, 0.45) lies 0.05 outside it;
    # both engines then centre the map and the self-test probes on a grid
    # point deeper inside
    banana = gm.DomainSpec(gm.BoundaryCurve([0.0, 1.5], [0.0], [0.45, 0.0, 0.45], [0.0, 0.4]))
    assert banana.signed_boundary_distance(banana.boundary.centroid) < -0.04
    engine = gm.build_engine(banana, 512)
    reference = gm.IntegralGreenEngine(banana, 512)
    assert gm.contains(banana, green._map_centre(banana, engine.eval_margin), engine.eval_margin)
    pts = gm.sample_interior(banana, 4, 1.2 * engine.eval_margin, seed=0)
    ev, ref = engine.blocks(pts), reference.blocks(pts)
    for name in BLOCK_FIELDS:
        assert _relative(getattr(ev, name), getattr(ref, name)) <= TOLERANCE[name], name


def test_underresolved_map_fails_its_self_test(lobed_domain):
    # at 128 nodes an evaluation eval_margin inside is off by about 1e-5;
    # the Cauchy integral eval_margin outside shows it
    with pytest.raises(gm.DiscretizationFailureError, match="self-test"):
        gm.build_engine(lobed_domain, 128)


# ---------------------------------------------------------------------------
# properties on random low-mode domains
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=15, deadline=None)


def _interior_pair(domain, engine, u, v):
    """Two points on the chord through the centroid at angle u, at fractions
    v and -v/2 of the way to the boundary, both eval_margin inside."""
    centre = domain.boundary.centroid
    direction = np.array([np.cos(u), np.sin(u)])
    reach = np.max(np.abs((domain.boundary._dense[1].point - centre) @ direction))
    x, y = centre + v * reach * direction, centre - 0.5 * v * reach * direction
    if np.min(domain.signed_boundary_distance(np.array([x, y]))) < 1.1 * engine.eval_margin:
        return None
    return x, y


@PROPERTY_SETTINGS
@given(domain=low_mode_domains(), u=st.floats(0.0, TWO_PI), v=st.floats(0.05, 0.6))
def test_regular_part_is_symmetric(domain, u, v):
    engine = gm.build_engine(domain, 256)
    assert engine.backend == "conformal-map"
    pair = _interior_pair(domain, engine, u, v)
    if pair is None:
        return
    x, y = pair
    a, b = engine.regular_part(x, y), engine.regular_part(y, x)
    assert abs(a.value - b.value) <= 1e-13 * max(1.0, abs(a.value))
    assert np.max(np.abs(a.grad_x - b.grad_y)) <= 1e-12 * max(1.0, np.max(np.abs(a.grad_x)))
    assert np.max(np.abs(a.hess_xy - b.hess_xy.T)) <= 1e-11 * max(1.0, np.max(np.abs(a.hess_xy)))


@PROPERTY_SETTINGS
@given(domain=low_mode_domains(), u=st.floats(0.0, TWO_PI), v=st.floats(0.05, 0.6),
       scale=st.floats(0.3, 3.0), shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_regular_part_under_similarity(domain, u, v, scale, shift):
    # H_{a Omega + b}(a x + b, a y + b) = H_Omega(x, y) - ln(a) / 2pi, and the
    # gradient scales by 1 / a
    engine = gm.build_engine(domain, 256)
    pair = _interior_pair(domain, engine, u, v)
    if pair is None:
        return
    c = domain.boundary
    moved = gm.DomainSpec(gm.BoundaryCurve(
        scale * c.cos_x + np.r_[shift[0], np.zeros(len(c.cos_x) - 1)], scale * c.sin_x,
        scale * c.cos_y + np.r_[shift[1], np.zeros(len(c.cos_y) - 1)], scale * c.sin_y))
    moved_engine = gm.build_engine(moved, 256)
    x, y = pair
    a = engine.regular_part(x, y)
    b = moved_engine.regular_part(scale * x + shift, scale * y + shift)
    assert abs(b.value - (a.value - np.log(scale) / TWO_PI)) <= 1e-12 * max(1.0, abs(a.value))
    assert np.max(np.abs(scale * b.grad_x - a.grad_x)) <= 1e-11 * max(1.0, np.max(np.abs(a.grad_x)))
