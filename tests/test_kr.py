import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import greenmorse as gm
from conftest import DIPOLE_RADIUS, point_at_distance

TWO_PI = 2 * np.pi


def brute_force_log_sum(points, lam):
    """Independent oracle: direct j != k double loop."""
    total = 0.0
    for j in range(len(points)):
        for k in range(len(points)):
            if j == k:
                continue
            total += lam[j] * lam[k] * np.log(np.linalg.norm(points[j] - points[k]))
    return -total / TWO_PI


def loop_log_derivatives(points, lam):
    """Independent oracle: gradient and Hessian of the log sum, pair by pair."""
    n = len(points)
    grad = np.zeros((n, 2))
    hess = np.zeros((n, 2, n, 2))
    for j in range(n):
        for k in range(j + 1, n):
            d = points[j] - points[k]
            r2 = d @ d
            c = lam[j] * lam[k] / np.pi
            grad[j] -= c * d / r2
            grad[k] += c * d / r2
            a = c * (np.eye(2) * r2 - 2.0 * np.outer(d, d)) / (r2 * r2)
            hess[j, :, j, :] -= a
            hess[k, :, k, :] -= a
            hess[j, :, k, :] += a
            hess[k, :, j, :] += a
    return grad.reshape(-1), hess.reshape(2 * n, 2 * n)


def per_pair_reference(engine, strengths, spec, config):
    """Independent oracle: per-pair regular_part loop over j <= k, mirrored."""
    lam = strengths.values
    pts = config.points
    n = len(pts)
    inter = gm.interaction(spec, strengths, config)
    value = inter.value
    grad = inter.gradient.reshape(n, 2).copy()
    hess = inter.hessian.reshape(n, 2, n, 2).copy()
    for j in range(n):
        for k in range(j, n):
            ev = engine.regular_part(pts[j], pts[k])
            pairs = [(j, k, ev.value, ev.grad_x, ev.grad_y, ev.hess_xx, ev.hess_yy, ev.hess_xy)]
            if j != k:
                pairs.append((k, j, ev.value, ev.grad_y, ev.grad_x,
                              ev.hess_yy, ev.hess_xx, ev.hess_xy.T))
            for a, b, v, gx, gy, hxx, hyy, hxy in pairs:
                c = lam[a] * lam[b]
                value -= c * v
                grad[a] -= c * gx
                grad[b] -= c * gy
                hess[a, :, a, :] -= c * hxx
                hess[b, :, b, :] -= c * hyy
                hess[a, :, b, :] -= c * hxy
                hess[b, :, a, :] -= c * hxy.T
    m = 2 * n
    H = hess.reshape(m, m)
    return value, grad.reshape(m), 0.5 * (H + H.T)


def spread_configuration(n_points, seed):
    """N well-separated points inside the accuracy contract of both engines."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * (np.arange(n_points) + rng.uniform(0, 0.4, n_points)) / n_points
    radii = rng.uniform(0.15, 0.6, n_points) if n_points > 1 else rng.uniform(0.0, 0.6, 1)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    lam = rng.choice([-1.5, -1.0, 1.0, 2.0], n_points)
    return gm.VortexStrengths(lam), gm.Configuration(pts)


# ---------------------------------------------------------------------------
# interaction term
# ---------------------------------------------------------------------------

def test_zero_interaction():
    res = gm.interaction(gm.zero_interaction(), gm.VortexStrengths([1.0, 2.0]),
                         gm.Configuration([[0.1, 0.0], [0.5, 0.3]]))
    assert res.value == 0.0
    assert np.all(res.gradient == 0.0)
    assert np.all(res.hessian == 0.0)


def test_log_pair_unit_distance():
    res = gm.interaction(gm.kirchhoff_routh_interaction(), gm.VortexStrengths([1.0, 1.0]),
                         gm.Configuration([[0.5, 0.0], [-0.5, 0.0]]))
    assert_allclose(res.value, 0.0, atol=1e-15)


def test_log_pair_opposite_strengths():
    d = np.exp(-1.0)
    pts = np.array([[d / 2, 0.0], [-d / 2, 0.0]])
    lam = np.array([1.0, -1.0])
    res = gm.interaction(gm.kirchhoff_routh_interaction(), gm.VortexStrengths(lam),
                         gm.Configuration(pts))
    assert_allclose(res.value, -1 / np.pi, rtol=1e-14)
    assert_allclose(res.value, brute_force_log_sum(pts, lam), rtol=1e-14)


def test_log_sum_matches_brute_force_n4():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.5, 0.5, (4, 2))
    lam = np.array([1.0, -2.0, 0.5, 1.5])
    res = gm.interaction(gm.kirchhoff_routh_interaction(), gm.VortexStrengths(lam),
                         gm.Configuration(pts))
    assert_allclose(res.value, brute_force_log_sum(pts, lam), rtol=1e-13)


def test_log_sum_derivatives_match_loop_n5():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, (5, 2))
    lam = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
    res = gm.interaction(gm.kirchhoff_routh_interaction(), gm.VortexStrengths(lam),
                         gm.Configuration(pts))
    grad, hess = loop_log_derivatives(pts, lam)
    assert np.max(np.abs(res.gradient - grad)) <= 1e-13 * np.max(np.abs(grad))
    assert np.max(np.abs(res.hessian - hess)) <= 1e-13 * np.max(np.abs(hess))


def test_collision_rejected():
    with pytest.raises(gm.CollisionError):
        gm.interaction(gm.kirchhoff_routh_interaction(), gm.VortexStrengths([1.0, 1.0]),
                       gm.Configuration([[0.1, 0.1], [0.1, 0.1 + 1e-13]]))


def test_custom_interaction():
    def quadratic(points, lam):
        flat = points.reshape(-1)
        return 0.5 * flat @ flat, flat, np.eye(len(flat))

    spec = gm.custom_interaction(quadratic, collision_margin=1e-6)
    res = gm.interaction(spec, gm.VortexStrengths([1.0]), gm.Configuration([[0.3, 0.4]]))
    assert_allclose(res.value, 0.5 * 0.25)
    assert_allclose(res.gradient, [0.3, 0.4])
    assert np.array_equal(res.hessian, np.eye(2))


def test_strength_validation():
    with pytest.raises(ValueError):
        gm.VortexStrengths([1.0, 0.0])
    with pytest.raises(ValueError):
        gm.VortexStrengths([])


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_check_admissible_cases(disk_engine):
    spec = gm.kirchhoff_routh_interaction()
    ok = gm.check_admissible(disk_engine, spec,
                             gm.Configuration([[0.3, 0.0], [-0.3, 0.0]]), 0.1)
    assert ok and not ok.diagnostics

    bad = gm.check_admissible(disk_engine, spec,
                              gm.Configuration([[0.3, 0.0], [0.3, 1e-8]]), 0.1)
    assert not bad and any("collision" in d for d in bad.diagnostics)

    out = gm.check_admissible(disk_engine, spec,
                              gm.Configuration([[1.5, 0.0], [0.0, 0.0]]), 0.1)
    assert not out and any("boundary" in d for d in out.diagnostics)


_REFUSALS = (gm.CollisionError, gm.OutsideDomainError, gm.AccuracyDegradedError)


def _f_omega_admits(engine, spec, config):
    # an evaluation the rule admits must not warn (the tests turn warnings
    # into errors), so a log of 0 inside the contract fails here
    try:
        gm.f_omega(engine, gm.VortexStrengths(np.ones(len(config))), spec, config)
    except _REFUSALS:
        return False
    return True


# a point drawn at a boundary distance of 0 or eval_margin (the anchor) plus
# an offset of up to 1 % of the diameter, a hair inside the boundary (where
# the disk closed form cancels), or deep inside
_near_edge = st.tuples(st.floats(0.0, TWO_PI), st.sampled_from([0.0, 1.0]),
                       st.floats(-1.0, 1.0))
_hairline = st.tuples(st.floats(0.0, TWO_PI), st.just(0.0), st.floats(1e-12, 1e-7))
_deep = st.tuples(st.floats(0.0, TWO_PI), st.just(None), st.floats(0.2, 0.5))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(draws=st.lists(_near_edge | _hairline | _deep, min_size=1, max_size=3),
       pair_angle=st.floats(0.0, TWO_PI), pair_scale=st.one_of(st.none(), st.floats(0.5, 1.5)))
def test_check_admissible_iff_f_omega_admits(disk_engine, lobed_engine, draws, pair_angle,
                                             pair_scale):
    # the boundary rule and the collision margin decide all three of
    # f_omega, check_admissible and the block test of the search starts; a
    # last point, if drawn, sits about the collision margin from the first
    spec = gm.kirchhoff_routh_interaction()
    for engine in (disk_engine, lobed_engine):
        diameter = engine.domain.diameter
        cm = gm.kr.DEFAULT_MARGIN_FRACTION * diameter
        pts = [point_at_distance(engine.domain, t, offset * diameter if anchor is None
                                 else anchor * engine.eval_margin + 0.01 * offset * diameter)
               for t, anchor, offset in draws]
        if pair_scale is not None:
            pts.append(pts[0] + pair_scale * cm * np.array([np.cos(pair_angle),
                                                            np.sin(pair_angle)]))
        config = gm.Configuration(pts)
        result = gm.check_admissible(engine, spec, config)
        assert bool(result) == _f_omega_admits(engine, spec, config), result.diagnostics
        assert bool(result) == (not result.diagnostics)
        starts_rule = (gm.contains(engine.domain, config.points, engine.eval_margin).all()
                       and gm.kr.min_pair_distances(config.points) > cm)
        assert bool(result) == starts_rule


def test_boundary_rule_at_the_contract_distance(disk_domain, monkeypatch):
    # d = eval_margin exactly is refused by f_omega, check_admissible and the
    # start test alike; the next float beyond it is admitted by all three
    engine = gm.DiskGreenEngine(disk_domain)
    monkeypatch.setattr(engine, "eval_margin", 0.25)
    spec = gm.zero_interaction()
    for radius, admitted in ((0.75, False), (np.nextafter(0.75, 0.0), True)):
        config = gm.Configuration([[0.0, 0.0], [radius, 0.0]])
        assert disk_domain.signed_boundary_distance(config.points)[1] == 1.0 - radius
        assert bool(gm.check_admissible(engine, spec, config)) is admitted
        assert _f_omega_admits(engine, spec, config) is admitted
        assert gm.contains(disk_domain, config.points[1], engine.eval_margin) is admitted
    with pytest.raises(gm.AccuracyDegradedError):
        gm.f_omega(engine, gm.VortexStrengths([1.0, 1.0]), spec,
                   gm.Configuration([[0.0, 0.0], [0.75, 0.0]]))
    # on the disk's own rule a boundary point is outside, and a point 1e-9
    # inside, where the closed form's 1 - 2 x.y + |x|^2 |y|^2 rounds to 0, is
    # outside the accuracy contract
    disk = gm.build_engine(disk_domain)
    assert disk.eval_margin == 1e-4 * disk_domain.diameter
    with pytest.raises(gm.OutsideDomainError):
        gm.f_omega(disk, gm.VortexStrengths([1.0]), spec, gm.Configuration([[1.0, 0.0]]))
    with pytest.raises(gm.AccuracyDegradedError):
        gm.f_omega(disk, gm.VortexStrengths([1.0]), spec,
                   gm.Configuration([[1.0 - 1e-9, 0.0]]))


# ---------------------------------------------------------------------------
# assembled function
# ---------------------------------------------------------------------------

def test_n1_zero_interaction_is_negative_robin(disk_engine):
    lam = gm.VortexStrengths([1.0])
    for p in ([0.0, 0.0], [0.3, 0.2], [-0.5, 0.1]):
        res = gm.f_omega(disk_engine, lam, gm.zero_interaction(), gm.Configuration([p]))
        rob = disk_engine.robin(p)
        assert abs(res.value - (-rob.value)) <= 1e-14
        assert np.max(np.abs(res.gradient + rob.gradient)) <= 1e-14


def test_n1_center_evaluation(disk_engine):
    res = gm.f_omega(disk_engine, gm.VortexStrengths([1.0]), gm.zero_interaction(),
                     gm.Configuration([[0.0, 0.0]]))
    assert_allclose(res.value, 0.0, atol=1e-15)
    assert_allclose(res.gradient, 0.0, atol=1e-15)
    assert_allclose(res.hessian, -np.eye(2) / np.pi, atol=1e-13)


def test_dipole_stationarity(disk_engine, dipole_setup):
    lam, config, spec = dipole_setup
    res = gm.f_omega(disk_engine, lam, spec, config)
    assert np.linalg.norm(res.gradient) <= 1e-8
    assert abs(DIPOLE_RADIUS**4 + 4 * DIPOLE_RADIUS**2 - 1) <= 1e-14


def test_relabeling_invariance(disk_engine):
    spec = gm.kirchhoff_routh_interaction()
    lam_a = gm.VortexStrengths([1.0, -2.0])
    cfg_a = gm.Configuration([[0.3, 0.1], [-0.4, 0.2]])
    lam_b = gm.VortexStrengths([-2.0, 1.0])
    cfg_b = gm.Configuration([[-0.4, 0.2], [0.3, 0.1]])
    va = gm.f_omega(disk_engine, lam_a, spec, cfg_a).value
    vb = gm.f_omega(disk_engine, lam_b, spec, cfg_b).value
    assert abs(va - vb) <= 1e-12


def test_rotation_invariance_on_disk(disk_engine):
    spec = gm.kirchhoff_routh_interaction()
    lam = gm.VortexStrengths([1.0, -1.0, 0.5])
    pts = np.array([[0.3, 0.1], [-0.4, 0.2], [0.1, -0.5]])
    base = gm.f_omega(disk_engine, lam, spec, gm.Configuration(pts)).value
    for theta in (0.3, 1.1, 2.7):
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        val = gm.f_omega(disk_engine, lam, spec, gm.Configuration(pts @ rot.T)).value
        assert abs(val - base) <= 1e-10


def test_rotation_invariance_zero_spec(disk_engine):
    lam = gm.VortexStrengths([1.0, 2.0])
    pts = np.array([[0.3, 0.1], [-0.2, -0.4]])
    base = gm.f_omega(disk_engine, lam, gm.zero_interaction(), gm.Configuration(pts)).value
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    val = gm.f_omega(disk_engine, lam, gm.zero_interaction(),
                     gm.Configuration(pts @ rot.T)).value
    assert abs(val - base) <= 1e-10


def _central_differences(engine, lam, spec, flat, h):
    """Central differences of the value and the gradient of f_omega at the
    flat configuration ``flat``, with step h in each coordinate."""
    n = len(flat)
    fd_g = np.zeros(n)
    fd_h = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        rp = gm.f_omega(engine, lam, spec, gm.Configuration((flat + e).reshape(-1, 2)))
        rm = gm.f_omega(engine, lam, spec, gm.Configuration((flat - e).reshape(-1, 2)))
        fd_g[i] = (rp.value - rm.value) / (2 * h)
        fd_h[i] = (rp.gradient - rm.gradient) / (2 * h)
    return fd_g, fd_h


@pytest.mark.parametrize("n_points,seed", [(1, 0), (2, 1), (3, 2)])
def test_gradient_hessian_match_fd(disk_engine, n_points, seed):
    spec = gm.kirchhoff_routh_interaction() if n_points > 1 else gm.zero_interaction()
    rng = np.random.default_rng(seed)
    lam = gm.VortexStrengths(rng.choice([-1.5, -1.0, 1.0, 2.0], n_points))
    checked = 0
    while checked < 7:
        pts = rng.uniform(-0.55, 0.55, (n_points, 2))
        cfg = gm.Configuration(pts)
        if not gm.check_admissible(disk_engine, spec, cfg, 0.1):
            continue
        checked += 1
        res = gm.f_omega(disk_engine, lam, spec, cfg)
        errs_g = []
        errs_h = []
        for h in (1e-4, 5e-5):
            fd_g, fd_h = _central_differences(disk_engine, lam, spec, cfg.flat(), h)
            errs_g.append(np.max(np.abs(fd_g - res.gradient)))
            errs_h.append(np.max(np.abs(fd_h - res.hessian)))
        scale_g = max(np.max(np.abs(res.gradient)), 1.0)
        scale_h = max(np.max(np.abs(res.hessian)), 1.0)
        assert errs_g[0] <= 1e-6 * scale_g
        assert errs_h[0] <= 1e-5 * scale_h
        # halving the step shrinks the mismatch about 4x (order 2)
        if errs_g[0] > 1e-11 * scale_g:
            assert errs_g[1] <= 0.4 * errs_g[0]


LOBED_SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)

# a vortex on the lobed domain: polar angle, radius (the boundary lies at
# radius 0.95 or more, eval_margin about 0.1 inside it) and strength
_lobed_vortex = st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, 0.8),
                          st.sampled_from([-1.5, -1.0, 1.0, 2.0]))


def _lobed_configuration(vortices):
    angle, radius, lam = np.array(vortices).T
    pts = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return gm.VortexStrengths(lam), gm.Configuration(pts)


@LOBED_SETTINGS
@given(vortices=st.lists(_lobed_vortex, min_size=1, max_size=3))
def test_gradient_hessian_match_fd_on_lobed_engine(lobed_engine, vortices):
    # the engine the search and the dynamics use, at the disk test's tolerances
    lam, cfg = _lobed_configuration(vortices)
    spec = gm.kirchhoff_routh_interaction() if len(cfg) > 1 else gm.zero_interaction()
    assume(gm.check_admissible(lobed_engine, spec, cfg, 0.1))
    # every difference step stays beyond the contract distance
    assume(gm.contains(lobed_engine.domain, cfg.points, lobed_engine.eval_margin + 1e-3).all())
    res = gm.f_omega(lobed_engine, lam, spec, cfg)
    fd_g, fd_h = _central_differences(lobed_engine, lam, spec, cfg.flat(), 1e-4)
    scale_g = max(np.max(np.abs(res.gradient)), 1.0)
    scale_h = max(np.max(np.abs(res.hessian)), 1.0)
    assert np.max(np.abs(fd_g - res.gradient)) <= 1e-6 * scale_g
    assert np.max(np.abs(fd_h - res.hessian)) <= 1e-5 * scale_h


@LOBED_SETTINGS
@given(vortices=st.lists(_lobed_vortex, min_size=3, max_size=3),
       perm=st.permutations(range(3)))
def test_relabeling_invariance_on_lobed_engine(lobed_engine, vortices, perm):
    lam, cfg = _lobed_configuration(vortices)
    spec = gm.kirchhoff_routh_interaction()
    assume(gm.check_admissible(lobed_engine, spec, cfg, 0.1))
    perm = list(perm)
    res = gm.f_omega(lobed_engine, lam, spec, cfg)
    moved = gm.f_omega(lobed_engine, gm.VortexStrengths(lam.values[perm]), spec,
                       gm.Configuration(cfg.points[perm]))
    assert abs(moved.value - res.value) <= 1e-12 * max(abs(res.value), 1.0)
    grad = res.gradient.reshape(-1, 2)[perm]
    assert np.max(np.abs(moved.gradient.reshape(-1, 2) - grad)) <= 1e-12 * max(
        np.max(np.abs(grad)), 1.0)


@pytest.mark.parametrize("n_points", [1, 2, 3, 6])
def test_f_omega_matches_per_pair_reference(disk_engine, lobed_engine, n_points):
    spec = gm.kirchhoff_routh_interaction()
    for engine in (disk_engine, lobed_engine):
        strengths, config = spread_configuration(n_points, seed=n_points)
        res = gm.f_omega(engine, strengths, spec, config)
        value, grad, hess = per_pair_reference(engine, strengths, spec, config)
        assert abs(res.value - value) <= 1e-13 * abs(value)
        assert np.max(np.abs(res.gradient - grad)) <= 1e-13 * np.max(np.abs(grad))
        assert np.max(np.abs(res.hessian - hess)) <= 1e-13 * np.max(np.abs(hess))


def test_blocks_exactly_exchange_symmetric(lobed_engine):
    _, config = spread_configuration(6, seed=4)
    ev = lobed_engine.blocks(config.points)
    assert ev.value.shape == (6, 6) and ev.hess_xy.shape == (6, 6, 2, 2)
    # the diagonal j = k is one computed block; every other pair is exchanged
    for j in range(6):
        for k in range(6):
            if j == k:
                continue
            assert ev.value[j, k] == ev.value[k, j]
            assert np.array_equal(ev.grad_x[j, k], ev.grad_y[k, j])
            assert np.array_equal(ev.hess_xx[j, k], ev.hess_yy[k, j])
            assert np.array_equal(ev.hess_xy[j, k], ev.hess_xy[k, j].T)


def test_f_omega_one_engine_call_one_check_per_point(lobed_engine, monkeypatch):
    strengths, config = spread_configuration(6, seed=6)
    calls = {"blocks": 0, "regular_part": 0, "distance": 0, "admissible": 0, "f_omega": 0}
    distance_batches = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_distance(domain, points, *args, **kwargs):
        calls["distance"] += 1
        distance_batches.append(np.shape(points))
        return signed_boundary_distance(domain, points, *args, **kwargs)

    monkeypatch.setattr(lobed_engine, "blocks", counted("blocks", lobed_engine.blocks))
    monkeypatch.setattr(lobed_engine, "regular_part",
                        counted("regular_part", lobed_engine.regular_part))
    # DomainSpec is a frozen dataclass, so the method is patched on the class
    signed_boundary_distance = gm.DomainSpec.signed_boundary_distance
    monkeypatch.setattr(gm.DomainSpec, "signed_boundary_distance", counted_distance)
    monkeypatch.setattr(gm.kr, "check_admissible", counted("admissible", gm.kr.check_admissible))
    monkeypatch.setattr(gm.critical, "f_omega", counted("f_omega", gm.critical.f_omega))
    gm.f_omega(lobed_engine, strengths, gm.kirchhoff_routh_interaction(), config)
    assert calls == {"blocks": 1, "regular_part": 0, "distance": 1, "admissible": 0,
                     "f_omega": 0}
    assert distance_batches == [(6, 2)]

    # Newton polish checks nothing outside f_omega: one query per evaluation
    calls.update(distance=0)
    a = DIPOLE_RADIUS
    result = gm.newton_polish(lobed_engine, gm.VortexStrengths([1.0, -1.0]),
                              gm.kirchhoff_routh_interaction(), [a, 0.0, -a, 0.0],
                              gm.SearchConfig(starts=1))
    assert result.converged and calls["f_omega"] >= 2
    assert calls["distance"] == calls["f_omega"]
    assert calls["admissible"] == 0


def test_hessian_symmetric(disk_engine):
    res = gm.f_omega(disk_engine, gm.VortexStrengths([1.0, -1.0]),
                     gm.kirchhoff_routh_interaction(),
                     gm.Configuration([[0.3, 0.1], [-0.2, 0.35]]))
    asym = np.max(np.abs(res.hessian - res.hessian.T))
    assert asym <= 1e-10 * max(np.max(np.abs(res.hessian)), 1e-300)


def test_f_omega_hessian_is_exactly_symmetric(disk_engine, lobed_engine):
    # newton_polish and find_critical_points use f_omega's Hessian as it is,
    # so it is symmetric bit for bit, also when a custom interaction's is not
    def skewed(points, lam):
        m = points.size
        return 0.0, np.zeros(m), np.random.default_rng(m).standard_normal((m, m))

    specs = (gm.kirchhoff_routh_interaction(), gm.custom_interaction(skewed, 1e-6))
    for engine in (disk_engine, lobed_engine):
        for n_points in range(1, 7):
            strengths, config = spread_configuration(n_points, seed=n_points)
            for spec in specs:
                H = gm.f_omega(engine, strengths, spec, config).hessian
                assert np.array_equal(H, H.T)


def test_f_omega_raises_outside_domain(disk_engine, lobed_engine):
    with pytest.raises(gm.OutsideDomainError):
        gm.f_omega(disk_engine, gm.VortexStrengths([1.0]), gm.zero_interaction(),
                   gm.Configuration([[1.2, 0.0]]))

    # a point past the margin outranks a point in the accuracy band before it
    domain = lobed_engine.domain
    band = point_at_distance(domain, 0.3, 0.7 * lobed_engine.eval_margin)
    outside = point_at_distance(domain, 2.0, -0.1)
    spec = gm.kirchhoff_routh_interaction()
    with pytest.raises(gm.OutsideDomainError):
        gm.f_omega(lobed_engine, gm.VortexStrengths([1.0, -1.0]), spec,
                   gm.Configuration([band, outside]))

    # accuracy band only
    with pytest.raises(gm.AccuracyDegradedError) as info:
        gm.f_omega(lobed_engine, gm.VortexStrengths([1.0, -1.0]), spec,
                   gm.Configuration([[0.0, 0.0], band]))
    assert info.value.estimated_bound is not None


@pytest.mark.parametrize("point", [[np.nan, 0.1], [np.inf, 0.0]])
def test_f_omega_rejects_non_finite_point(disk_engine, lobed_engine, point):
    # a NaN distance is not inside
    for engine in (disk_engine, lobed_engine):
        with pytest.raises(gm.OutsideDomainError):
            gm.f_omega(engine, gm.VortexStrengths([1.0]), gm.zero_interaction(),
                       gm.Configuration([point]))


def test_f_omega_raises_on_collision(disk_engine, lobed_engine):
    with pytest.raises(gm.CollisionError):
        gm.f_omega(disk_engine, gm.VortexStrengths([1.0, 1.0]),
                   gm.kirchhoff_routh_interaction(),
                   gm.Configuration([[0.1, 0.0], [0.1, 1e-9]]))

    # a collision outranks a point outside the domain
    with pytest.raises(gm.CollisionError):
        gm.f_omega(lobed_engine, gm.VortexStrengths([1.0, 1.0, 1.0]),
                   gm.kirchhoff_routh_interaction(),
                   gm.Configuration([[2.0, 0.0], [0.1, 0.0], [0.1, 1e-9]]))


def test_negative_collision_margin_rejected(disk_engine, lobed_engine):
    coincident = gm.Configuration([[0.1, 0.0], [0.1, 0.0]])
    for engine in (disk_engine, lobed_engine):
        with pytest.raises(ValueError):
            gm.f_omega(engine, gm.VortexStrengths([1.0, 1.0]),
                       gm.kirchhoff_routh_interaction(), coincident, collision_margin=-1.0)
    with pytest.raises(ValueError):
        gm.custom_interaction(lambda points, lam: (0.0, 0.0, 0.0), -0.5)


def test_vortex_file_roundtrip(tmp_path, dipole_setup):
    lam, config, spec = dipole_setup
    path = tmp_path / "vortex.json"
    gm.save_vortex(lam, config, spec, path)
    lam2, config2, spec2 = gm.load_vortex(path)
    assert np.array_equal(lam.values, lam2.values)
    assert np.array_equal(config.points, config2.points)
    assert spec2.variant == "kirchhoff_routh"
