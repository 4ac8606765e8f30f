import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import greenmorse as gm
from conftest import low_mode_domains, point_at_distance
from greenmorse import geometry, green
from greenmorse.geometry import as_circle, fit_curve


def ellipse(a, b):
    return gm.BoundaryCurve([0.0, a], [0.0, 0.0], [0.0, 0.0], [0.0, b])


# ---------------------------------------------------------------------------
# boundary frames
# ---------------------------------------------------------------------------

def test_circle_frame_at_zero(disk_domain):
    fr = disk_domain.boundary.frame(0.0)
    assert_allclose(fr.point, [1.0, 0.0], atol=1e-15)
    assert_allclose(fr.normal, [1.0, 0.0], atol=1e-15)
    assert_allclose(fr.curvature, 1.0, atol=1e-14)


def test_circle_frame_at_quarter(disk_domain):
    fr = disk_domain.boundary.frame(np.pi / 2)
    assert_allclose(fr.point, [0.0, 1.0], atol=1e-15)
    assert_allclose(fr.normal, [0.0, 1.0], atol=1e-15)
    assert_allclose(np.linalg.norm(fr.normal), 1.0, atol=1e-15)


def test_ellipse_curvature_closed_form():
    a, b = 2.0, 1.0
    curve = ellipse(a, b)
    fr = curve.frame(0.0)
    assert_allclose(fr.point, [2.0, 0.0], atol=1e-15)
    for t in (0.0, 0.7, 2.1):
        expected = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
        assert_allclose(curve.frame(t).curvature, expected, rtol=1e-12)


@pytest.mark.parametrize("name", ["lobed_domain", "tilted_domain"])
def test_jet_matches_central_differences(request, name):
    curve = request.getfixturevalue(name).boundary
    t = np.linspace(0.0, 2 * np.pi, 13)
    h = 1e-3
    jet = curve.jet(t)
    ahead, here, behind = curve.point(t + h), curve.point(t), curve.point(t - h)
    assert jet.shape == (13, 3, 2)
    assert np.array_equal(jet[:, 0], here)
    # truncation errors h^2 z''' / 6 and h^2 z'''' / 12 stay below 2e-6 here
    assert_allclose(jet[:, 1], (ahead - behind) / (2 * h), rtol=0, atol=1e-5)
    assert_allclose(jet[:, 2], (ahead - 2 * here + behind) / h**2, rtol=0, atol=1e-5)
    assert np.array_equal(curve.frame(t).velocity, jet[:, 1])


def test_degenerate_tangent_rejected():
    # a point "curve": zero tangent everywhere
    curve = gm.BoundaryCurve([0.3], [0.0], [0.1], [0.0])
    with pytest.raises(gm.MalformedCurveError):
        curve.frame(0.0)
    with pytest.raises(gm.MalformedCurveError):
        gm.DomainSpec(curve)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_rejected(lobed_domain, bad):
    # comparisons with NaN are False, so no geometric check would catch one
    c = lobed_domain.boundary
    curve = gm.BoundaryCurve(c.cos_x, np.r_[c.sin_x[:-1], bad], c.cos_y, c.sin_y)
    with pytest.raises(gm.MalformedCurveError, match="finite"):
        gm.DomainSpec(curve)
    with pytest.raises(gm.MalformedCurveError, match="finite"):
        curve.validate()


def test_clockwise_curve_rejected():
    with pytest.raises(gm.MalformedCurveError):
        gm.DomainSpec(gm.BoundaryCurve([0, 1], [0, 0], [0, 0], [0, -1.0]))


def test_normal_points_outward_on_convex_curves():
    curve = ellipse(1.5, 0.8)
    for t in np.linspace(0, 2 * np.pi, 17):
        fr = curve.frame(t)
        assert fr.point @ fr.normal > 0


def _degree_79_curve():
    """A unit circle with a small mode 79: its dense count is 1280, not a
    power of two."""
    return gm.BoundaryCurve(np.r_[0.0, 1.0, np.zeros(77), 1e-3], [0.0], [0.0], [0.0, 1.0])


# 256, 512 and 1024 divide the dense count 1024 of the three fixtures, 320
# and 255 do not; on the degree-79 curve 320 and 640 divide 1280 with q a
# power of two, and 256 divides it with q = 5, where some of the dense
# parameters 2 pi (5 i) / 1280 differ from 2 pi i / 256
@pytest.mark.parametrize("m", [256, 320, 512, 640, 1024, 255])
@pytest.mark.parametrize("name", ["disk_domain", "lobed_domain", "tilted_domain", "degree_79"])
def test_grid_frame_is_the_frame_on_the_grid(request, name, m):
    curve = (_degree_79_curve() if name == "degree_79"
             else request.getfixturevalue(name).boundary)
    t, frame = curve.grid_frame(m)
    assert np.array_equal(t, 2 * np.pi * np.arange(m) / m)
    for got, want in zip(frame, curve.frame(t)):
        assert got.flags.c_contiguous and np.array_equal(got, want)
        # a copy: the dense frame the curve caches stays its own
        assert not any(np.shares_memory(got, dense) for dense in curve._dense[1])


def test_grid_frame_slices_the_dense_frame(monkeypatch, lobed_domain):
    # where m divides the dense count by a power of two, no frame is evaluated
    curve = lobed_domain.boundary
    expected = {m: curve.frame(2 * np.pi * np.arange(m) / m) for m in (256, 512, 1024)}
    assert len(curve._dense[0]) == 1024

    def no_frame(self, t):
        raise AssertionError("frame evaluated")

    monkeypatch.setattr(gm.BoundaryCurve, "frame", no_frame)
    for m, want in expected.items():
        for got, value in zip(curve.grid_frame(m)[1], want):
            assert np.array_equal(got, value)


@pytest.mark.parametrize("n", [256, 512, 1024, 255])
def test_engine_nodes_are_the_frame_on_the_grid(lobed_domain, n):
    engine = green._EngineBase(lobed_domain, n)
    t = 2 * np.pi * np.arange(n) / n
    frame = lobed_domain.boundary.frame(t)
    speeds = np.hypot(frame.velocity[:, 0], frame.velocity[:, 1])
    assert np.array_equal(engine.node_params, t)
    assert np.array_equal(engine.nodes, frame.point)
    assert np.array_equal(engine.normals, frame.normal)
    assert np.array_equal(engine.curvatures, frame.curvature)
    assert np.array_equal(engine.speeds, speeds)
    assert np.array_equal(engine.weights, speeds * 2 * np.pi / n)
    assert np.array_equal(engine._velocity, frame.velocity @ np.array([1.0, 1.0j]))


# ---------------------------------------------------------------------------
# apply_perturbation
# ---------------------------------------------------------------------------

def test_dilation_gives_scaled_circle(disk_domain):
    out = gm.apply_perturbation(disk_domain, gm.identity_dilation(), 0.1)
    info = as_circle(out.boundary)
    assert info is not None
    center, radius = info
    assert_allclose(center, [0.0, 0.0], atol=1e-14)
    assert_allclose(radius, 1.1, atol=1e-14)


def test_zero_field_is_identity(disk_domain):
    out = gm.apply_perturbation(disk_domain, gm.zero_field(), 0.3)
    t = np.linspace(0, 2 * np.pi, 257)
    assert np.max(np.abs(out.boundary.point(t) - disk_domain.boundary.point(t))) <= 1e-12


def test_zero_eps_is_identity(disk_domain):
    out = gm.apply_perturbation(disk_domain, gm.cosine_field(3), 0.0)
    t = np.linspace(0, 2 * np.pi, 257)
    assert np.max(np.abs(out.boundary.point(t) - disk_domain.boundary.point(t))) <= 1e-12


def test_three_lobe_area(disk_domain):
    # r(t) = 1 + eps cos(3t) has area pi (1 + eps^2 / 2) exactly
    eps = 0.05
    out = gm.apply_perturbation(disk_domain, gm.cosine_field(3), eps)
    assert_allclose(out.boundary.signed_area, np.pi * (1 + eps**2 / 2), rtol=1e-12)
    assert out.boundary.signed_area > 0


@pytest.mark.parametrize("eps", [0.00125, 0.03, 0.05, -0.02])
def test_disk_refit_is_the_fit_of_its_frame(disk_domain, eps):
    # the disk's first fit, degree 4 + 3 on 256 samples, passes; its samples
    # come from the dense frame and the coefficients are those of the fit
    # of frame(t) itself
    field = gm.cosine_field(3)
    t = 2 * np.pi * np.arange(256) / 256
    frame = disk_domain.boundary.frame(t)
    expected = geometry._trim_trailing(
        fit_curve(frame.point + eps * field.boundary_values(frame, t), 7))
    moved = gm.apply_perturbation(disk_domain, field, eps).boundary
    for name in ("cos_x", "sin_x", "cos_y", "sin_y"):
        assert np.array_equal(getattr(moved, name), getattr(expected, name))


def test_margin_violation_raises(disk_domain):
    with pytest.raises(gm.PerturbationTooLargeError):
        gm.apply_perturbation(disk_domain, gm.identity_dilation(), 0.9)


def test_refit_rejects_underresolved_fit():
    t = 2 * np.pi * np.arange(256) / 256
    pts = np.stack([np.cos(t) + 0.2 * np.cos(7 * t), np.sin(t)], axis=1)
    with pytest.raises(gm.RefitFailureError):
        fit_curve(pts, max_degree=3)


@pytest.mark.parametrize("name, mode, eps, degree", [
    ("tilted_domain", 2, 0.005, 54),
    ("tilted_domain", 2, 0.02, 56),
    ("lobed_domain", 3, 0.01, 32),
    ("lobed_domain", 3, 0.005, 29),
])
def test_refit_degree_grows_until_the_fit_passes(request, name, mode, eps, degree):
    # z + eps g nu carries 1 / |z'|, so on these curves the first degree,
    # 4 K + mode, leaves a residual above the tolerance (4.8e-6 on the tilted
    # fixture, 1.55e-9 and 7.8e-10 on the lobed one) and the degree is doubled
    domain = request.getfixturevalue(name)
    field = gm.cosine_field(mode)
    assert 4 * domain.boundary.max_degree + mode < degree
    moved = gm.apply_perturbation(domain, field, eps)
    assert moved.boundary.max_degree == degree
    t = 2 * np.pi * np.arange(2000) / 2000
    frame = domain.boundary.frame(t)
    displaced = frame.point + eps * field.boundary_values(frame, t)
    assert np.max(np.abs(moved.signed_boundary_distance(displaced))) <= 1e-12


def test_refit_past_the_degree_cap_fails(monkeypatch, tilted_domain):
    # the tilted fixture needs degree 56; a cap below that leaves the first
    # fit's failure standing
    monkeypatch.setattr(geometry, "REFIT_DEGREE_CAP", 40)
    with pytest.raises(gm.RefitFailureError, match="re-fit residual"):
        gm.apply_perturbation(tilted_domain, gm.cosine_field(2), 0.005)


def test_perturbation_commutes_with_group_action(disk_domain):
    group = gm.SymmetryGroup("cyclic", 3)
    domain = gm.DomainSpec(gm.unit_circle(), symmetry=group)
    field = gm.cosine_field(3)
    eps = 0.04
    out = gm.apply_perturbation(domain, field, eps)
    assert out.symmetry is not None
    shift = 2 * np.pi / 3
    rot = np.array([[np.cos(shift), -np.sin(shift)], [np.sin(shift), np.cos(shift)]])
    t = np.linspace(0, 2 * np.pi, 181)
    rotated = out.boundary.point(t) @ rot.T
    shifted = out.boundary.point(t + shift)
    assert np.max(np.abs(rotated - shifted)) <= 1e-10


# ---------------------------------------------------------------------------
# contains / sampling
# ---------------------------------------------------------------------------

def test_contains_cases(disk_domain):
    assert gm.contains(disk_domain, [0.0, 0.0], 0.5)
    assert not gm.contains(disk_domain, [0.95, 0.0], 0.1)
    assert not gm.contains(disk_domain, [2.0, 0.0], 0.0)


@pytest.mark.parametrize("name", ["disk_domain", "lobed_domain"])
def test_non_finite_points_have_nan_distance(request, name):
    # and take no winding pass, which would cast rint(NaN) to int
    domain = request.getfixturevalue(name)
    dist = domain.signed_boundary_distance(np.array([[np.nan, 0.1], [np.inf, 0.0], [0.1, 0.0]]))
    assert np.all(np.isnan(dist[:2])) and dist[2] > 0
    assert np.isnan(domain.signed_boundary_distance([0.0, -np.inf]))


def test_contains_generic_backend(lobed_domain):
    # lobes peak at r = 1.05 along t = 0; troughs sit at r = 0.95
    assert gm.contains(lobed_domain, [0.0, 0.0], 0.5)
    assert gm.contains(lobed_domain, [1.02, 0.0], 0.0)
    assert not gm.contains(lobed_domain, [2.0, 0.0], 0.0)
    assert not gm.contains(lobed_domain, [0.0, 1.01], 0.0)
    assert not gm.contains(lobed_domain, [-0.97, 0.0], 0.0)


def test_sample_interior_batched_draw_order(lobed_domain):
    # each 256-draw batch is measured in one query and accepted in draw order;
    # these are the first rows drawn one point at a time
    pts = gm.sample_interior(lobed_domain, 10, 0.1, seed=7)
    assert np.array_equal(pts[:3], [[0.6013713804903869, -0.55531396355997],
                                    [-0.3496674301775492, 0.7548940030759133],
                                    [0.6441388575040923, -0.06479852375861339]])


@pytest.mark.parametrize("name", ["disk_domain", "lobed_domain", "banana_domain"])
def test_bounding_box_is_that_of_the_dense_samples(request, name):
    curve = request.getfixturevalue(name).boundary
    lo, hi = curve.bounding_box
    samples = curve._dense[1].point
    assert np.array_equal(lo, samples.min(axis=0)) and np.array_equal(hi, samples.max(axis=0))
    assert curve.bounding_box is curve.bounding_box


def test_sample_interior_postconditions(disk_domain):
    pts = gm.sample_interior(disk_domain, 10, 0.2, seed=7)
    assert pts.shape == (10, 2)
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 0.8 + 1e-12)


def test_sample_interior_deterministic(disk_domain):
    a = gm.sample_interior(disk_domain, 10, 0.2, seed=7)
    b = gm.sample_interior(disk_domain, 10, 0.2, seed=7)
    assert np.array_equal(a, b)


def test_sample_interior_empty_region(disk_domain):
    with pytest.raises(gm.EmptyRegionError):
        gm.sample_interior(disk_domain, 5, 1.5, seed=0)


# ---------------------------------------------------------------------------
# equivariant projection
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def symmetric_disk():
    return gm.DomainSpec(gm.unit_circle(), symmetry=gm.SymmetryGroup("cyclic", 3))


def test_project_invariant_field_is_identity(symmetric_disk):
    field = gm.cosine_field(3)
    group = gm.SymmetryGroup("cyclic", 3)
    out = gm.equivariant_project(field, group, symmetric_disk)
    assert_allclose(out.cos_coeffs, field.cos_coeffs, atol=1e-12)
    assert_allclose(out.sin_coeffs, field.sin_coeffs, atol=1e-12)


def test_project_odd_mode_averages_out(disk_domain):
    out = gm.equivariant_project(gm.cosine_field(1), gm.SymmetryGroup("cyclic", 2),
                                 disk_domain)
    assert np.max(np.abs(out.cos_coeffs)) <= 1e-12
    assert np.max(np.abs(out.sin_coeffs)) <= 1e-12


def test_project_keeps_only_invariant_component(symmetric_disk):
    field = gm.normal_field([0.0, 0.0, 1.0, 1.0])
    group = gm.SymmetryGroup("cyclic", 3)
    out = gm.equivariant_project(field, group, symmetric_disk)
    # independent oracle: average g over the shifted parameters by quadrature
    t = 2 * np.pi * np.arange(4096) / 4096
    avg = np.zeros_like(t)
    for k in range(3):
        avg += field.profile(t + 2 * np.pi * k / 3)
    avg /= 3
    assert np.max(np.abs(out.profile(t) - avg)) <= 1e-12
    assert abs(out.cos_coeffs[2]) <= 1e-12      # cos 2t killed
    assert_allclose(out.cos_coeffs[3], 1.0, atol=1e-12)  # cos 3t kept


def test_project_idempotent_and_linear(symmetric_disk):
    group = gm.SymmetryGroup("cyclic", 3)
    a1 = np.array([0.0, 0.5, 0.25, 1.0])
    b1 = np.array([0.0, 0.0, 0.3, -0.2])
    a2 = np.array([0.0, 0.0, 1.0, 0.1])
    b2 = np.array([0.0, 0.4, 0.0, 0.0])
    once = gm.equivariant_project(gm.normal_field(a1, b1), group, symmetric_disk)
    twice = gm.equivariant_project(once, group, symmetric_disk)
    assert np.max(np.abs(once.cos_coeffs - twice.cos_coeffs)) <= 1e-12
    assert np.max(np.abs(once.sin_coeffs - twice.sin_coeffs)) <= 1e-12
    p1 = gm.equivariant_project(gm.normal_field(a1, b1), group, symmetric_disk)
    p2 = gm.equivariant_project(gm.normal_field(a2, b2), group, symmetric_disk)
    combo = gm.equivariant_project(gm.normal_field(a1 + a2, b1 + b2), group, symmetric_disk)
    t = np.linspace(0, 2 * np.pi, 300)
    assert np.max(np.abs(combo.profile(t) - p1.profile(t) - p2.profile(t))) <= 1e-12


def test_project_dihedral_reflection(disk_domain):
    group = gm.SymmetryGroup("dihedral", 1, axis_angle=0.0)
    out = gm.equivariant_project(gm.normal_field([0.0], [0.0, 1.0]), group, disk_domain)
    # sin t is odd across the x-axis reflection; the average kills it
    t = np.linspace(0, 2 * np.pi, 100)
    assert np.max(np.abs(out.profile(t))) <= 1e-12


def test_project_mismatched_domain_raises():
    domain = gm.DomainSpec(ellipse(2.0, 1.0))
    with pytest.raises(gm.SymmetryMismatchError):
        gm.equivariant_project(gm.cosine_field(3), gm.SymmetryGroup("cyclic", 3), domain)


def test_symmetry_mismatch_on_domain_construction():
    with pytest.raises(gm.SymmetryMismatchError):
        gm.DomainSpec(ellipse(2.0, 1.0), symmetry=gm.SymmetryGroup("cyclic", 3))


def test_group_elements_closure():
    group = gm.SymmetryGroup("dihedral", 3, axis_angle=0.2)
    mats = [m for m, _ in group.elements()]
    assert len(mats) == 6
    assert any(np.allclose(m, np.eye(2)) for m in mats)
    for a in mats:
        for b in mats:
            prod = a @ b
            assert any(np.allclose(prod, m, atol=1e-12) for m in mats)


# ---------------------------------------------------------------------------
# chord scan
# ---------------------------------------------------------------------------

def _full_chord_scan(curve):
    """The chord scan over all ms^2 ordered sample pairs, with the cyclic
    index separation of each pair as a mask."""
    pts = curve._dense[1].point
    sub = pts[:: max(1, len(pts) // 512)]
    ms = len(sub)
    d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=2)
    idx = np.arange(ms)
    sep = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(sep, ms - sep)
    far_pi8 = d2[sep >= max(2, int(np.ceil(ms / 16.0)))].min()
    far_pi3 = d2[sep >= max(2, int(np.ceil(ms / 6.0)))].min()
    return float(d2.max()), float(far_pi8), float(far_pi3)


def _degree_97_curve():
    """A unit circle plus random modes up to degree 97 decaying like 1/k^2:
    1,568 dense samples, sub-sampled to an odd count of 523."""
    rng = np.random.default_rng(97)
    coeffs = [0.01 * rng.normal(size=98) / np.maximum(np.arange(98), 1.0) ** 2
              for _ in range(4)]
    coeffs[0][1] += 1.0
    coeffs[3][1] += 1.0
    return gm.BoundaryCurve(*coeffs)


def _moved(curve, scale, shift):
    """The curve scaled about the origin, then translated."""
    cos_x, cos_y = scale * curve.cos_x, scale * curve.cos_y
    return gm.BoundaryCurve(cos_x + np.r_[shift[0], np.zeros(len(cos_x) - 1)], scale * curve.sin_x,
                            cos_y + np.r_[shift[1], np.zeros(len(cos_y) - 1)], scale * curve.sin_y)


def test_chord_scan_equals_full_scan(disk_domain, lobed_domain, tilted_domain):
    # the cos 3t rungs of a continuation from the disk are nearly of constant
    # width, so every antipodal row comes close to the largest chord; the 8:1
    # ellipse has long flat stretches for the far minima.  The moved copies
    # put the round-off of the coordinates above that of the chords
    rungs = [gm.apply_perturbation(disk_domain, gm.cosine_field(3), eps).boundary
             for eps in (0.00125, 0.025, 0.05)]
    ellipse = gm.BoundaryCurve([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.125])
    curves = [disk_domain.boundary, lobed_domain.boundary, tilted_domain.boundary,
              _degree_97_curve(), *rungs, ellipse,
              _moved(rungs[0], 1e-3, (1e3, -2e3)), _moved(ellipse, 1e4, (-3.0, 0.5))]
    assert len(curves[3]._dense[1].point[::3]) == 523
    for curve in curves:
        # the same pairs, each squared length from the same operations
        assert curve._chord_scan == _full_chord_scan(curve)


# ---------------------------------------------------------------------------
# boundary distance
# ---------------------------------------------------------------------------

def _distance_probes(domain, seed=11):
    """About 2,000 points: inside, outside, and within 1e-3 of the boundary."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, 700)
    near = np.array([point_at_distance(domain, ti, d)
                     for ti, d in zip(t, rng.uniform(-1e-3, 1e-3, len(t)))])
    return np.vstack([rng.uniform(-0.9, 0.9, (650, 2)),
                      rng.uniform(-1.6, 1.6, (650, 2)), near])


def test_batched_distance_matches_per_row(lobed_domain):
    pts = _distance_probes(lobed_domain)
    batched = lobed_domain.signed_boundary_distance(pts)
    rows = np.concatenate([lobed_domain.signed_boundary_distance(p[None, :]) for p in pts])
    assert batched.shape == (len(pts),)
    assert np.max(np.abs(batched - rows)) <= 1e-15
    assert np.array_equal(np.sign(batched), np.sign(rows))
    assert np.sum(batched > 0) > 500 and np.sum(batched < 0) > 500
    assert np.sum(np.abs(batched) < 1e-3) >= 600


def test_batched_field_matches_per_row(lobed_domain):
    field = gm.cosine_field(3, amplitude=0.7, cutoff_width=0.35)
    pts = _distance_probes(lobed_domain, seed=12)[::4]
    rows = np.vstack([field.evaluate(lobed_domain, [p]) for p in pts])
    # |psi| <= 0.7 and |d psi / dt| <= 2.1: a few ulps of t* and the frame
    assert np.max(np.abs(field.evaluate(lobed_domain, pts) - rows)) <= 1e-14
    clear = field.vanishes_near(lobed_domain, pts)
    assert clear.dtype == bool and clear.shape == (len(pts),)
    assert np.array_equal(clear, [field.vanishes_near(lobed_domain, p) for p in pts])


@pytest.mark.parametrize("dist", [1e-3, 0.05, 0.2])
def test_distance_recovers_normal_offset(lobed_domain, dist):
    offsets = np.array([sign * dist for sign in (1.0, -1.0) for _ in range(6)])
    pts = np.array([point_at_distance(lobed_domain, t, d)
                    for t, d in zip(np.tile([0.0, 0.4, 1.3, 2.9, 4.4, 6.0], 2), offsets)])
    assert np.max(np.abs(lobed_domain.signed_boundary_distance(pts) - offsets)) <= 1e-12


def test_single_point_distance_is_float(disk_domain, lobed_domain):
    for domain in (disk_domain, lobed_domain):
        d = domain.signed_boundary_distance(np.array([0.3, 0.1]))
        assert type(d) is float
        assert type(gm.contains(domain, [0.3, 0.1])) is bool
        assert domain.signed_boundary_distance([[0.3, 0.1]]).shape == (1,)


# ---------------------------------------------------------------------------
# boundary verdict: properties on random low-mode domains
# ---------------------------------------------------------------------------

SCREEN_SETTINGS = settings(derandomize=True, database=None, max_examples=20, deadline=None)


def _screen_probes(domain, seed, thresholds=(0.0, 0.02, 0.1, 0.35)):
    """Points in and around the domain: uniform over its padded bounding box,
    at normal offsets up to 0.45, and within 1e-3 of each threshold's level
    set, inside and outside."""
    rng = np.random.default_rng(seed)
    dense = domain.boundary._dense[1].point
    box = rng.uniform(dense.min(axis=0) - 0.5, dense.max(axis=0) + 0.5, (80, 2))
    offsets = np.concatenate([rng.uniform(-0.45, 0.45, 80)]
                             + [m * s + rng.uniform(-1e-3, 1e-3, 10)
                                for m in thresholds for s in (1.0, -1.0)])
    frame = domain.boundary.frame(rng.uniform(0.0, 2 * np.pi, len(offsets)))
    return np.vstack([box, frame.point - offsets[:, None] * frame.normal])


@SCREEN_SETTINGS
@given(domain=low_mode_domains(), seed=st.integers(0, 2**32 - 1))
def test_screened_contains_equals_exact(domain, seed):
    eval_margin = 0.05 * domain.diameter    # the integral engine's eval_margin
    pts = _screen_probes(domain, seed, (0.0, 0.02, eval_margin, 0.35))
    exact = domain.signed_boundary_distance(pts)
    for m in (0.0, 0.02, eval_margin, 0.35):
        assert np.array_equal(gm.contains(domain, pts, m), exact > m)


@SCREEN_SETTINGS
@given(domain=low_mode_domains(), seed=st.integers(0, 2**32 - 1))
def test_sample_gap_bounds_a_finer_sampling(domain, seed):
    curve = domain.boundary
    pts = _screen_probes(domain, seed)[::8]
    _, coarse = curve._dense_scan(pts)
    m = len(curve._dense[0])
    fine = curve.point(2 * np.pi * np.arange(64 * m) / (64 * m))
    nearest = np.sqrt(np.min((fine[None, :, 0] - pts[:, 0, None]) ** 2
                             + (fine[None, :, 1] - pts[:, 1, None]) ** 2, axis=1))
    assert np.all(nearest >= coarse - curve._sample_gap)


@SCREEN_SETTINGS
@given(domain=low_mode_domains(), seed=st.integers(0, 2**32 - 1),
       margin=st.floats(0.0, 0.4))
def test_deep_points_skip_the_newton_refinement(domain, seed, margin):
    # contains refines only the points within about one sample gap of the
    # margin, on either side of the boundary: a refined point's nearest
    # dense sample is more than margin and at most margin + gap away
    curve = domain.boundary
    gap = curve._sample_gap
    pts = _screen_probes(domain, seed, (0.0, 0.02, margin, 0.35))
    exact = np.abs(domain.signed_boundary_distance(pts))
    refine = gm.BoundaryCurve._refine
    refined = []

    def counting_refine(self, p, *args):
        refined.append(p)
        return refine(self, p, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gm.BoundaryCurve, "_refine", counting_refine)
        verdict = gm.contains(domain, pts, margin)
    refined = np.vstack(refined) if refined else np.zeros((0, 2))
    reached = np.array([np.any(np.all(refined == p, axis=1)) for p in pts])
    assert not np.any(reached & (exact > margin + 2 * gap))
    assert not np.any(reached & (exact <= margin - gap))
    # every point in that shell is refined unless a level before the dense
    # scan settles it: the inscribed disk, the circumscribed one or the
    # stride-8 scan
    stride = geometry._COARSE_STRIDE
    dense = curve._dense_scan(pts)[1]
    coarse = curve._dense_scan(pts, stride)[1]
    r = np.hypot(*(pts - curve.centroid).T)
    disk = domain._inscribed_disk
    open_ = ((r <= domain._circumscribed_radius) & (coarse > margin)
             & (coarse - stride * gap <= margin))
    if disk is not None:
        open_ &= disk[1] - r <= margin
    shell = (dense > margin) & (dense - gap <= margin)
    assert np.array_equal(reached, open_ & shell) and reached.any()
    assert np.array_equal(verdict, domain.signed_boundary_distance(pts) > margin)


@SCREEN_SETTINGS
@given(domain=low_mode_domains(), seed=st.integers(0, 2**32 - 1))
def test_coarse_level_bounds_and_winds_as_the_curve(domain, seed):
    # the first level's lower bound holds against a 64x finer sampling, and
    # wherever every coarse sample is farther than delta_c the coarse
    # polygon's winding number is the curve's
    curve = domain.boundary
    stride = geometry._COARSE_STRIDE
    delta_c = stride * curve._sample_gap
    pts = _screen_probes(domain, seed)
    _, coarse = curve._dense_scan(pts, stride)
    m = len(curve._dense[0])
    fine = curve.point(2 * np.pi * np.arange(64 * m) / (64 * m))
    nearest = np.sqrt(np.min((fine[None, :, 0] - pts[::8, 0, None]) ** 2
                             + (fine[None, :, 1] - pts[::8, 1, None]) ** 2, axis=1))
    assert np.all(nearest >= coarse[::8] - delta_c)
    clear = coarse > delta_c
    assert clear.sum() >= len(pts) // 2
    assert np.array_equal(curve.winding_number(pts[clear], stride),
                          curve.winding_number(pts[clear]))


@SCREEN_SETTINGS
@given(domain=low_mode_domains())
def test_inscribed_disk_lies_inside_a_finer_sampling(domain):
    # rho is at most the distance from c to a 64x finer sampling of the
    # curve, and c is inside
    curve = domain.boundary
    disk = domain._inscribed_disk
    assert disk is not None     # a star-shaped domain about a point near its centroid
    center, radius = disk
    assert np.array_equal(center, curve.centroid)
    m = len(curve._dense[0])
    fine = curve.point(2 * np.pi * np.arange(64 * m) / (64 * m))
    assert 0.0 < radius <= np.min(np.hypot(*(fine - center).T))
    assert domain.signed_boundary_distance(center) >= radius


def test_banana_has_no_inscribed_disk(banana_domain):
    # its centroid lies outside, so contains works as without the disk: the
    # verdicts are bit for bit those of the levels below it
    assert banana_domain._inscribed_disk is None
    curve = banana_domain.boundary
    gap = curve._sample_gap
    stride = geometry._COARSE_STRIDE
    margin = 0.05 * banana_domain.diameter
    pts = _decision_probes(banana_domain, margin, 500, seed=3)
    # the circumscribed disk, the stride-8 scan and the dense scan, written out
    within = np.hypot(*(pts - curve.centroid).T) <= banana_domain._circumscribed_radius
    _, coarse = curve._dense_scan(pts, stride)
    deep = within & (coarse - stride * gap > margin)
    expected = np.zeros(len(pts), dtype=bool)
    expected[deep] = curve.winding_number(pts[deep], stride) == 1
    rest = within & ~deep & (coarse > margin)
    coarse_t, fine = curve._dense_scan(pts[rest])
    d = fine - gap
    near = d <= margin
    d[near] = curve._refine(pts[rest][near], coarse_t[near], fine[near])[1]
    expected[rest] = (fine > margin) & (d > margin) & (curve.winding_number(pts[rest]) == 1)
    assert (~within).any() and deep.any() and (within & ~deep & ~rest).any()
    assert (near & (d > margin)).any() and (near & (d <= margin)).any()
    verdict = gm.contains(banana_domain, pts, margin)
    assert np.array_equal(verdict, expected)
    assert np.array_equal(verdict, banana_domain.signed_boundary_distance(pts) > margin)


def _dynamics_ring(count=6, radius=0.45):
    theta = 2 * np.pi * np.arange(count) / count
    return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _spy_on_distance_passes(monkeypatch):
    """Record each distance scan, winding pass and Newton refinement of a
    boundary curve as (name, point count, stride)."""
    curve_type = gm.BoundaryCurve
    calls = []

    def spy(name):
        method = getattr(curve_type, name)

        def wrapped(self, p, *args):
            stride = args[0] if args and name != "_refine" else 1
            calls.append((name, len(p), stride))
            return method(self, p, *args)
        return wrapped

    for name in ("_dense_scan", "winding_number", "_refine"):
        monkeypatch.setattr(curve_type, name, spy(name))
    return calls


def test_deep_ring_settles_on_the_inscribed_disk(lobed_domain, lobed_engine, monkeypatch):
    # the dynamics ring lies well inside the inscribed disk: no scan of any
    # stride, no winding pass and no Newton refinement
    assert lobed_domain._inscribed_disk is not None     # built before the spy
    calls = _spy_on_distance_passes(monkeypatch)
    ring = _dynamics_ring()
    assert np.array_equal(lobed_engine.require_interior(ring), ring)
    assert calls == []


def test_mixed_query_winds_each_point_once(lobed_domain, lobed_engine, monkeypatch):
    # beside the deep ring, which the inscribed disk admits, three points
    # take the stride-8 scan: one 0.5 eval_margin inside is refused there,
    # unsigned; one 1.5 eval_margin inside a lobe is signed there by the
    # stride-8 polygon; one half a sample gap past eval_margin alone takes
    # the dense scan and the refinement, and is signed once, by the stride-8
    # polygon, since it is farther than the coarse gap from every sample
    margin = lobed_engine.eval_margin
    curve = lobed_domain.boundary
    gap = curve._sample_gap
    stride = geometry._COARSE_STRIDE
    near = point_at_distance(lobed_domain, 0.7, 0.5 * margin)
    deep = point_at_distance(lobed_domain, 0.0, 1.5 * margin)
    shell = point_at_distance(lobed_domain, 0.7, margin + 0.5 * gap)
    pts = np.vstack([_dynamics_ring(), near, deep, shell])
    assert margin > stride * gap
    assert lobed_domain._inscribed_disk is not None     # built before the spy
    calls = _spy_on_distance_passes(monkeypatch)
    verdict = gm.contains(lobed_domain, pts, margin)
    assert calls == [("_dense_scan", 3, stride), ("winding_number", 1, stride),
                     ("_dense_scan", 1, 1), ("_refine", 1, 1), ("winding_number", 1, stride)]
    assert np.array_equal(verdict, [True] * 6 + [False, True, True])


@pytest.fixture(scope="module")
def ellipse_domain():
    """The 8:1 ellipse: curvature radius b^2 / a = 1/64 at the tips."""
    return gm.DomainSpec(ellipse(1.0, 0.125))


@pytest.mark.parametrize("name", ["lobed_domain", "banana_domain", "ellipse_domain"])
@pytest.mark.parametrize("seed", range(5))
def test_screened_query_near_the_boundary_equals_the_exact_one(request, name, seed):
    # points on both sides, from _sample_gap to eval_margin + 8 _sample_gap
    # along the normal: contains signs those past the stride-8 scan's gap
    # by the stride-8 polygon, and at eval_margin also those that reach the
    # dense scan farther than 8 _sample_gap from every sample; its verdict
    # at 0 and at eval_margin must be the exact query's.  Half the points
    # lie midway between the samples of a stride 2 ... 64 polygon, where a
    # chord strays farthest from its arc, at depths log-uniform up to 32 gaps
    domain = request.getfixturevalue(name)
    curve = domain.boundary
    gap = curve._sample_gap
    margin = 0.05 * domain.diameter     # the conformal engine's eval_margin
    rng = np.random.default_rng(seed)
    m = len(curve._dense[0])
    stride = 2 ** rng.integers(1, 7, 100)
    t = np.concatenate([2 * np.pi * (stride * rng.integers(0, m // stride) + stride / 2) / m,
                        rng.uniform(0.0, 2 * np.pi, 100)])
    depth = np.concatenate([gap * np.exp(rng.uniform(0.0, np.log(32.0), 100)),
                            rng.uniform(gap, margin + geometry._COARSE_STRIDE * gap, 100)])
    pts = point_at_distance(domain, t, (depth * rng.choice([-1.0, 1.0], 200))[:, None])
    exact = domain.signed_boundary_distance(pts)
    for level in (0.0, margin):
        assert np.array_equal(gm.contains(domain, pts, level), exact > level)
    # and the sign is the curve's: every point is more than _sample_gap / 8
    # from the polygon through 8 m samples, whose winding number is then the
    # curve's by the same homotopy argument
    fine = curve.point(2 * np.pi * np.arange(8 * m) / (8 * m))
    angle = np.arctan2(fine[None, :, 1] - pts[:, 1, None], fine[None, :, 0] - pts[:, 0, None])
    turn = np.diff(angle, axis=1, append=angle[:, :1])
    turn -= 2 * np.pi * np.rint(turn / (2 * np.pi))
    assert np.array_equal(exact > 0, np.rint(turn.sum(axis=1) / (2 * np.pi)) == 1)
    # the stride-8 sign is exercised on both sides
    _, nearest = curve._dense_scan(pts)
    far = nearest > geometry._COARSE_STRIDE * gap
    assert (far & (exact > 0)).any() and (far & (exact < 0)).any()


def test_non_finite_point_refused_without_a_warning(lobed_engine, disk_engine):
    # a NaN or infinite coordinate reads distance NaN, contains refuses it,
    # and the boundary rule refuses it as outside; no step warns (warnings
    # are errors here, and this makes it explicit)
    margin = lobed_engine.eval_margin
    pts = np.array([[0.1, 0.0], [np.inf, 0.0], [np.nan, 0.2], [0.0, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = lobed_engine.domain.signed_boundary_distance(pts)
        assert dist[0] > margin and np.all(np.isnan(dist[1:]))
        assert np.array_equal(gm.contains(lobed_engine.domain, pts, margin),
                              [True, False, False, False])
        for engine in (lobed_engine, disk_engine):
            for point in pts[1:]:
                with pytest.raises(gm.OutsideDomainError):
                    engine.require_interior([[0.1, 0.0], point])


def test_near_point_beside_deep_ones_keeps_its_exact_distance(lobed_domain, lobed_engine):
    # in one batch with the deep ring, a point 0.5 eval_margin inside and one
    # as far outside get the exact distance they get alone
    margin = lobed_engine.eval_margin
    near = np.array([point_at_distance(lobed_domain, 0.7, 0.5 * margin),
                     point_at_distance(lobed_domain, 2.3, -0.5 * margin)])
    pts = np.vstack([_dynamics_ring(), near])
    exact = lobed_domain.signed_boundary_distance(pts)
    assert np.array_equal(exact[6:], lobed_domain.signed_boundary_distance(near))
    assert np.max(np.abs(exact[6:] - [0.5 * margin, -0.5 * margin])) <= 1e-12
    assert np.all(exact[:6] > margin)
    assert np.array_equal(gm.contains(lobed_domain, pts, margin), exact > margin)


@pytest.mark.parametrize("name", ["lobed_domain", "banana_domain"])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["inside", "outside"])
def test_sign_between_a_chord_and_its_arc(request, name, side):
    # points 1e-9 to 1e-6 from the curve at parameters midway between dense
    # samples lie between a chord of the dense polygon and its arc, on the
    # inside where the curve bulges out (the lobed domain) and on the outside
    # where it bends in (the banana); each must read its own side and its
    # exact distance, and contains at the margin 0 its side
    domain = request.getfixturevalue(name)
    m = len(domain.boundary._dense[0])
    t = 2.0 * np.pi * (np.arange(0, m, 4) + 0.5) / m
    for dist in (1e-9, 1e-8, 1e-7, 1e-6):
        pts = point_at_distance(domain, t, side * dist)
        signed = domain.signed_boundary_distance(pts)
        assert np.max(np.abs(signed - side * dist)) <= 1e-14
        assert np.all(gm.contains(domain, pts) == (side > 0))


def test_point_a_hair_inside_is_accuracy_degraded(lobed_engine):
    # the boundary rule reports a point 1e-8 inside, midway between dense
    # samples, as too near the boundary, not as outside
    m = len(lobed_engine.domain.boundary._dense[0])
    point = point_at_distance(lobed_engine.domain, 2.0 * np.pi * 100.5 / m, 1e-8)
    with pytest.raises(gm.AccuracyDegradedError):
        lobed_engine.require_interior(point)


def _decision_probes(domain, margin, count, seed):
    """``count`` points: a fifth uniform over the bounding box padded by 0.5,
    the rest within 2e-3 of the level sets at 0, +-``margin`` and
    2 ``margin`` (along the normals)."""
    rng = np.random.default_rng(seed)
    dense = domain.boundary._dense[1].point
    box = rng.uniform(dense.min(axis=0) - 0.5, dense.max(axis=0) + 0.5, (count // 5, 2))
    level = np.array([0.0, margin, -margin, 2 * margin])
    offsets = (np.repeat(level, (count - len(box)) // len(level))
               + rng.uniform(-2e-3, 2e-3, count - len(box)))
    frame = domain.boundary.frame(rng.uniform(0.0, 2 * np.pi, len(offsets)))
    return np.vstack([box, frame.point - offsets[:, None] * frame.normal])


@pytest.mark.parametrize("name", ["lobed_domain", "tilted_domain", "banana_domain"])
def test_contains_decides_as_the_exact_distance(name, request):
    # seeded points straddling the boundary and the engines' eval_margin
    # decide as the exact query does, at both thresholds the program
    # compares against
    domain = request.getfixturevalue(name)
    margin = 0.05 * domain.diameter     # the conformal engine's eval_margin
    pts = _decision_probes(domain, margin, 5000, seed=17)
    exact = domain.signed_boundary_distance(pts)
    for m in (0.0, margin):
        assert np.array_equal(gm.contains(domain, pts, m), exact > m)


@pytest.mark.parametrize("name", ["lobed_domain", "banana_domain", "tilted_domain",
                                  "ellipse_domain"])
def test_contains_refuses_as_the_screened_distance(name, request):
    # contains measures no distance for a point it refuses; its verdict must
    # still be the exact query's, d > m, at each level that decides: the
    # circumscribed disk, the stride-8 scan (refused within m of a sample,
    # signed past m + 8 gaps), the dense scan (refused within m, signed
    # past m + 1 gap) and the one-gap shell it refines; and it refuses NaN
    # and infinite points
    domain = request.getfixturevalue(name)
    curve = domain.boundary
    gap = curve._sample_gap
    stride = geometry._COARSE_STRIDE
    center, radius = curve.centroid, domain._circumscribed_radius
    rng = np.random.default_rng(33)
    m = len(curve._dense[0])
    for margin in (0.0, 0.05 * domain.diameter):
        # depths along the normal through both shells, on both sides, half
        # of them midway between dense samples
        t = np.concatenate([2 * np.pi * (rng.integers(0, m, 300) + 0.5) / m,
                            rng.uniform(0.0, 2 * np.pi, 300)])
        depth = np.concatenate([margin + rng.uniform(-stride, stride, 300) * gap,
                                margin + rng.uniform(-1.0, 1.0, 300) * gap])
        side = rng.choice([-1.0, 1.0], 600)
        theta = rng.uniform(0.0, 2 * np.pi, 100)
        beyond = center + (radius + rng.uniform(0.0, 0.5, 100))[:, None] * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1)
        pts = np.vstack([point_at_distance(domain, t, (side * depth)[:, None]), beyond,
                         [[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]]])
        verdict = gm.contains(domain, pts, margin)
        assert np.array_equal(verdict, domain.signed_boundary_distance(pts) > margin)
        assert not verdict[-3:].any()
        # every level is reached
        assert np.sum(np.hypot(*(pts - center).T) > radius) >= 100
        coarse = curve._dense_scan(pts[:-3], stride)[1]
        dense = curve._dense_scan(pts[:-3])[1]
        one_gap = (dense > margin) & (dense - gap <= margin)
        assert np.any(one_gap & verdict[:-3]) and np.any(one_gap & ~verdict[:-3])
        if margin > 0:
            assert np.any(coarse <= margin) and np.any(coarse - stride * gap > margin)
            shell = (coarse > margin) & (coarse - stride * gap <= margin)
            assert np.any(shell & (dense <= margin)) and np.any(shell & (dense - gap > margin))


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def test_cutoff_field_vanishes_inside(disk_domain):
    field = gm.cosine_field(3, cutoff_width=0.35)
    vals = field.evaluate(disk_domain, [[0.0, 0.0], [0.3, 0.2], [0.9, 0.0]])
    assert np.all(vals[0] == 0.0)
    assert np.all(vals[1] == 0.0)
    assert np.any(vals[2] != 0.0)
    assert field.vanishes_near(disk_domain, [0.3, 0.2])
    assert not field.vanishes_near(disk_domain, [0.9, 0.0])


def test_field_boundary_values_match_profile(disk_domain):
    field = gm.normal_field([0.0, 0.2, 0.0, 1.0], [0.0, -0.3])
    t = np.linspace(0, 2 * np.pi, 50)
    frame = disk_domain.boundary.frame(t)
    vals = field.boundary_values(frame, t)
    normals = frame.normal
    assert_allclose(np.sum(vals * normals, axis=1), field.profile(t), atol=1e-13)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_domain_roundtrip(tmp_path, lobed_domain):
    path = tmp_path / "dom.json"
    gm.save_domain(lobed_domain, path)
    back = gm.load_domain(path)
    t = np.linspace(0, 2 * np.pi, 100)
    assert_allclose(back.boundary.point(t), lobed_domain.boundary.point(t), atol=1e-14)


def test_unit_disk_fixture_parses(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"type": "fourier_curve",
                                "cos_x": [0, 1], "sin_y": [0, 1]}))
    domain = gm.load_domain(path)
    assert domain.is_disk()
    assert_allclose(domain.boundary.signed_area, np.pi, rtol=1e-12)


def test_domain_file_with_nan_rejected(tmp_path):
    # Python's json reads the bare token NaN as a float
    path = tmp_path / "nan.json"
    path.write_text('{"type": "fourier_curve", "cos_x": [0, 1, 0.01], '
                    '"sin_x": [0, 0, NaN], "sin_y": [0, 1]}')
    with pytest.raises(gm.MalformedCurveError, match="finite"):
        gm.load_domain(path)


def test_bad_domain_type_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "polygon", "cos_x": [0, 1]}))
    with pytest.raises(ValueError):
        gm.load_domain(path)
