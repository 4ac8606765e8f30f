from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import greenmorse as gm
from greenmorse.critical import _ScrambledHalton, _halton_starts
from conftest import DIPOLE_RADIUS, orbit_distance, point_at_distance

# the two C3 orbits of critical points of f for lambda = (1, 1, -1) on the
# lobed domain, as (Morse index, f); each orbit has three points
LOBED_ORBITS = ((4, -0.4196715075), (5, -0.4167329881))


@pytest.fixture(scope="module")
def n1_report(disk_engine):
    return gm.find_critical_points(
        disk_engine, gm.VortexStrengths([1.0]), gm.zero_interaction(),
        gm.SearchConfig(starts=50, seed=7))


@pytest.fixture(scope="module")
def dipole_report(disk_engine):
    return gm.find_critical_points(
        disk_engine, gm.VortexStrengths([1.0, -1.0]), gm.kirchhoff_routh_interaction(),
        gm.SearchConfig(starts=200, seed=11))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_negative_definite():
    cls = gm.classify(-np.eye(2) / np.pi)
    assert cls.morse_index == 2
    assert_allclose(cls.margin, 1 / np.pi, rtol=1e-14)


def test_classify_mixed_diagonal():
    cls = gm.classify(np.diag([1.0, -1.0, 0.5, 2.0]))
    assert cls.morse_index == 1
    assert_allclose(cls.margin, 0.5)
    assert np.all(np.diff(cls.spectrum) >= 0)


def test_classify_zero_matrix():
    cls = gm.classify(np.zeros((4, 4)))
    assert cls.morse_index == 0
    assert cls.margin == 0.0


# ---------------------------------------------------------------------------
# fixtures on the disk
# ---------------------------------------------------------------------------

def test_n1_unique_critical_point_at_origin(n1_report):
    assert len(n1_report.points) == 1
    cp = n1_report.points[0]
    assert np.linalg.norm(cp.configuration.points[0]) <= 1e-8
    assert cp.morse_index == 2
    assert_allclose(cp.margin, 1 / np.pi, atol=1e-8)
    assert cp.residual <= 1e-10


def test_n1_search_stats(n1_report):
    stats = n1_report.stats
    assert stats["starts"] == 50
    assert stats["converged"] >= 45
    assert stats["converged"] - stats["deduplicated"] == 1
    # one evaluation per start, plus one per trial step
    assert stats["evaluations"] >= stats["starts"] + stats["iterations"]


def test_dipole_orbit_found(dipole_report):
    assert len(dipole_report.points) >= 20
    for cp in dipole_report.points:
        pts = cp.configuration.points
        for p in pts:
            assert abs(np.hypot(*p) - DIPOLE_RADIUS) <= 1e-8
        # antipodal pair
        assert np.linalg.norm(pts[0] + pts[1]) <= 1e-8
        assert cp.residual <= 1e-8


def test_dipole_orbit_tags(dipole_report):
    for cp in dipole_report.points:
        assert cp.orbit_tag == "rotation-orbit"
        assert cp.alignment >= 0.999
        assert cp.margin <= 1e-5 * np.max(np.abs(cp.spectrum))


def test_dipole_found_at_multiple_angles(dipole_report):
    angles = sorted(np.arctan2(p.configuration.points[0][1], p.configuration.points[0][0])
                    for p in dipole_report.points)
    spread = np.ptp(angles)
    assert spread > 1.0


def test_equal_pair_has_no_critical_points(disk_engine):
    report = gm.find_critical_points(
        disk_engine, gm.VortexStrengths([1.0, 1.0]), gm.kirchhoff_routh_interaction(),
        gm.SearchConfig(starts=200, seed=11))
    assert len(report.points) == 0
    assert sum(report.stats["failures_by_reason"].values()) == 200
    # damped Newton with backtracking made 15,802 f_omega calls here
    assert report.stats["evaluations"] <= 15_802


def test_lobed_search_finds_both_c3_orbits(lobed_engine):
    lam = gm.VortexStrengths([1.0, 1.0, -1.0])
    spec = gm.kirchhoff_routh_interaction()
    report = gm.find_critical_points(lobed_engine, lam, spec,
                                     gm.SearchConfig(starts=32, seed=1))
    assert report.stats["converged"] >= 30
    found = set()
    for cp in report.points:
        res = gm.f_omega(lobed_engine, lam, spec, cp.configuration)
        assert np.linalg.norm(res.gradient) <= 1e-10
        found.update(index for index, value in LOBED_ORBITS
                     if cp.morse_index == index and abs(res.value - value) <= 1e-6)
    assert found == {4, 5}


def test_first_polish_step_is_newton_step(monkeypatch, disk_domain, dipole_setup):
    # the damping starts at 0, so the first trial point is x0 - H^-1 g; the
    # Hessian margin here is about 6.8e-5
    lam, config, spec = dipole_setup
    engine = gm.build_engine(gm.apply_perturbation(disk_domain, gm.cosine_field(3), 0.0025))
    search = gm.SearchConfig(starts=1, collision_margin=0.02)
    f_omega = gm.critical.f_omega
    trials = []

    def recording(engine, strengths, spec, configuration, *margins):
        trials.append(configuration.flat())
        return f_omega(engine, strengths, spec, configuration, *margins)

    monkeypatch.setattr(gm.critical, "f_omega", recording)
    result = gm.newton_polish(engine, lam, spec, config.flat(), search)
    assert result.converged and result.evaluations == len(trials) >= 2
    res = f_omega(engine, lam, spec, config, 0.02)
    newton = np.linalg.solve(res.hessian, -res.gradient)
    assert np.linalg.norm(trials[1] - trials[0] - newton) <= 1e-10 * np.linalg.norm(newton)


# ---------------------------------------------------------------------------
# determinism / dedup / re-evaluation properties
# ---------------------------------------------------------------------------

def test_search_deterministic(disk_engine):
    cfg = gm.SearchConfig(starts=40, seed=3)
    lam = gm.VortexStrengths([1.0])
    a = gm.find_critical_points(disk_engine, lam, gm.zero_interaction(), cfg)
    b = gm.find_critical_points(disk_engine, lam, gm.zero_interaction(), cfg)
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert np.array_equal(pa.configuration.points, pb.configuration.points)


def test_no_two_report_entries_within_dedup_radius(dipole_report):
    pts = [cp.configuration.flat() for cp in dipole_report.points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) > gm.critical.DEDUP_RADIUS


def test_doubling_starts_keeps_critical_set(disk_engine):
    lam = gm.VortexStrengths([1.0])
    spec = gm.zero_interaction()
    a = gm.find_critical_points(disk_engine, lam, spec, gm.SearchConfig(starts=25, seed=5))
    b = gm.find_critical_points(disk_engine, lam, spec, gm.SearchConfig(starts=50, seed=5))
    assert len(a.points) == len(b.points) == 1
    d = np.linalg.norm(a.points[0].configuration.flat() - b.points[0].configuration.flat())
    assert d <= 1e-6


def test_doubling_starts_keeps_dipole_orbit(disk_engine, dipole_report):
    small = gm.find_critical_points(
        disk_engine, gm.VortexStrengths([1.0, -1.0]), gm.kirchhoff_routh_interaction(),
        gm.SearchConfig(starts=100, seed=11))
    for cp in small.points:
        dist = min(orbit_distance(cp.configuration.points, other.configuration.points)
                   for other in dipole_report.points)
        assert dist <= 1e-6


def test_reevaluation_at_doubled_nodes(disk_domain, dipole_report, dipole_setup):
    lam, _, spec = dipole_setup
    fresh = gm.IntegralGreenEngine(disk_domain, 512)
    for cp in dipole_report.points[:5]:
        res = gm.f_omega(fresh, lam, spec, cp.configuration)
        assert np.linalg.norm(res.gradient) <= 10 * 1e-10 + cp.residual


def test_rotate_and_polish_returns_to_orbit(disk_engine, dipole_report, dipole_setup):
    lam, _, spec = dipole_setup
    rng = np.random.default_rng(9)
    cfg = gm.SearchConfig(starts=1, seed=0)
    for cp in dipole_report.points[:3]:
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rotated = cp.configuration.points @ rot.T
        result = gm.newton_polish(disk_engine, lam, spec, rotated.reshape(-1), cfg)
        assert result.converged
        dist = min(orbit_distance(result.configuration.reshape(-1, 2),
                                  other.configuration.points)
                   for other in dipole_report.points)
        assert dist <= 1e-6


@pytest.mark.parametrize("d", [2, 4, 6, 12, 32])
@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 4_000_000_000])
def test_scrambled_halton_equals_scipy_stream(d, seed):
    from scipy.stats import qmc

    reference = qmc.Halton(d, scramble=True, seed=seed)
    sampler = _ScrambledHalton(d, seed)
    for _ in range(4):
        # bit for bit, and indices continue across calls
        assert np.array_equal(sampler.random(128), reference.random(128))


def _halton_starts_one_by_one(engine, search, n_points):
    """Reference: the starts drawn candidate by candidate, each tested with
    ``check_admissible``."""
    pts = engine.domain.boundary._dense[1].point
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    sampler = _ScrambledHalton(2 * n_points, search.seed)
    spec = gm.kirchhoff_routh_interaction()
    starts = []
    budget = max(200 * search.starts, 4000)
    drawn = 0
    while len(starts) < search.starts and drawn < budget:
        block = sampler.random(128)
        drawn += len(block)
        for row in block:
            cand = (lo + row.reshape(n_points, 2) * (hi - lo)).reshape(-1)
            if gm.check_admissible(engine, spec, gm.Configuration(cand),
                                   search.collision_margin):
                starts.append(cand)
                if len(starts) == search.starts:
                    break
    return starts


@pytest.mark.parametrize("n_points", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("engine_name", ["disk_engine", "lobed_engine"])
def test_halton_block_starts_equal_one_by_one(request, engine_name, seed, n_points):
    engine = request.getfixturevalue(engine_name)
    # a wide collision margin, so the pair test rejects candidates too
    for search in (gm.SearchConfig(starts=32, seed=seed),
                   gm.SearchConfig(starts=32, seed=seed, collision_margin=0.6)):
        starts = _halton_starts(engine, search, n_points)
        reference = _halton_starts_one_by_one(engine, search, n_points)
        assert len(starts) == len(reference) > 0
        assert all(np.array_equal(a, b) for a, b in zip(starts, reference))


# ---------------------------------------------------------------------------
# orbit detection
# ---------------------------------------------------------------------------

def test_detect_orbit_on_dipole(disk_engine, dipole_report):
    tag, alignment = gm.detect_rotation_orbit(disk_engine, dipole_report.points[0])
    assert tag == "rotation-orbit"
    assert alignment >= 0.999


def test_detect_orbit_about_off_centre_disk(dipole_setup):
    # rotations of a disk centred at (0.5, 0) fix its centre, not the origin
    lam, config, spec = dipole_setup
    engine = gm.build_engine(gm.DomainSpec(gm.circle(center=(0.5, 0.0))))
    result = gm.newton_polish(engine, lam, spec, (config.points + [0.5, 0.0]).reshape(-1),
                              gm.SearchConfig(starts=1))
    assert result.converged
    cls = gm.classify(result.hessian)
    cp = gm.CriticalPoint(gm.Configuration(result.configuration.reshape(-1, 2)),
                          result.residual, cls.spectrum, cls.morse_index,
                          cls.margin, result.hessian)
    tag, alignment = gm.detect_rotation_orbit(engine, cp)
    assert tag == "rotation-orbit"
    assert alignment >= 0.999


def test_detect_orbit_undefined_at_origin(disk_engine):
    cp = gm.CriticalPoint(gm.Configuration([[0.0, 0.0]]), 0.0,
                          np.array([-1 / np.pi, -1 / np.pi]), 2, 1 / np.pi,
                          -np.eye(2) / np.pi)
    with pytest.raises(gm.UndefinedOrbitError):
        gm.detect_rotation_orbit(disk_engine, cp)


def test_detect_orbit_isolated_on_lobed_domain(lobed_engine, dipole_setup):
    # continue-by-hand: polish the disk dipole on the perturbed domain and
    # check the orbit degeneracy is gone
    lam, config, spec = dipole_setup
    lobed_sym = gm.DomainSpec(lobed_engine.domain.boundary, gm.SymmetryGroup("cyclic", 3))
    engine = gm.build_engine(lobed_sym, 256)
    result = gm.newton_polish(engine, lam, spec, config.flat(),
                              gm.SearchConfig(starts=1, newton_tol=1e-10))
    assert result.converged
    cls = gm.classify(result.hessian)
    cp = gm.CriticalPoint(gm.Configuration(result.configuration.reshape(-1, 2)),
                          result.residual, cls.spectrum, cls.morse_index,
                          cls.margin, result.hessian)
    tag, _ = gm.detect_rotation_orbit(engine, cp)
    assert tag == "isolated"
    assert cls.margin >= 1e-4


def test_detect_orbit_requires_symmetry(lobed_engine, dipole_report):
    # lobed domain fixture carries no symmetry tag
    assert lobed_engine.domain.symmetry is None
    with pytest.raises(gm.SymmetryMismatchError):
        gm.detect_rotation_orbit(lobed_engine, dipole_report.points[0])


def test_search_config_validation():
    with pytest.raises(ValueError):
        gm.SearchConfig(newton_tol=-1.0)
    with pytest.raises(ValueError, match="DEDUP_RADIUS"):
        gm.SearchConfig(newton_tol=gm.critical.DEDUP_RADIUS)
    with pytest.raises(ValueError):
        gm.SearchConfig(collision_margin=-1.0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        gm.SearchConfig(seed=-1)
    with pytest.raises(ValueError, match="starts must be >= 1"):
        gm.SearchConfig(starts=0)


X0 = np.array([0.5, 0.0])


@pytest.mark.parametrize("gradient, hessian, admissible, x0, iterations, evaluations", [
    # f = x^3/3 + x + y^2/2: ||grad f|| has a local minimum 1 at the origin,
    # where H grad f = 0
    (lambda p: np.array([p[0] ** 2 + 1.0, p[1]]), lambda p: np.diag([2.0 * p[0], 1.0]),
     None, [0.0, 0.0], 0, 1),
    # the Newton step lowers ||g|| = 1 + 1e-6 exp(x) by about 6e-7 relative
    (lambda p: np.array([1.0 + 1e-6 * np.exp(p[0]), 0.0]), lambda p: np.eye(2),
     None, [0.0, 0.0], 1, 2),
    # every trial is refused: each refusal raises mu to max(4 mu, 1e-3 max
    # lam^2), which passes 1e8 max lam^2 on the 20th
    (lambda p: p - 0.1, lambda p: np.eye(2),
     lambda p: np.array_equal(p, X0), X0, 0, 21),
], ids=["merit-gradient", "relative-decrease", "damping-bound"])
def test_polish_merit_stationary_rules(monkeypatch, gradient, hessian, admissible, x0,
                                       iterations, evaluations):
    def fake_f_omega(engine, strengths, spec, configuration, *margins):
        x = configuration.flat()
        if admissible is not None and not admissible(x):
            raise gm.OutsideDomainError("refused")
        return SimpleNamespace(gradient=gradient(x), hessian=hessian(x))

    monkeypatch.setattr(gm.critical, "f_omega", fake_f_omega)
    result = gm.newton_polish(None, None, None, x0, gm.SearchConfig(starts=1))
    assert result.failure == "merit-stationary"
    assert (result.iterations, result.evaluations) == (iterations, evaluations)


def test_polish_from_accuracy_band_is_inadmissible_start(lobed_engine):
    # inside the domain, but closer to the boundary than the engine's
    # accuracy contract allows
    search = gm.SearchConfig(starts=1)
    dist = 0.7 * lobed_engine.eval_margin
    start = point_at_distance(lobed_engine.domain, 0.3, dist)
    result = gm.newton_polish(lobed_engine, gm.VortexStrengths([1.0]),
                              gm.zero_interaction(), start, search)
    assert result.failure == "inadmissible-start"
    assert result.iterations == 0 and not result.converged
