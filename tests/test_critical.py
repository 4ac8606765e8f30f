from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import greenmorse as gm
from greenmorse.critical import _ScrambledHalton, _halton_starts
from conftest import DIPOLE_RADIUS, orbit_distance, point_at_distance, polynomial_image

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
    assert cls.nullity == 4
    assert cls.margin == 0.0


def test_classify_counts_the_index_outside_the_null_band():
    # an eigenvalue within DEGENERACY_RATIO of the largest counts towards the
    # nullity, whatever its sign; the index counts the negative ones beyond
    for tiny in (-1e-9, 0.0, 1e-9):
        cls = gm.classify(np.diag([-2.0, tiny, 1.0, -1.0]))
        assert (cls.morse_index, cls.nullity) == (2, 1)
    cls = gm.classify(np.diag([-2.0, 1.0, -1.0, 0.5]))
    assert (cls.morse_index, cls.nullity) == (2, 0)


@pytest.mark.parametrize("spectrum, degenerate", [
    ([-2.0, 1.0], False),
    ([1.0, 1e-5], True),            # min |eig| = DEGENERACY_RATIO max |eig|
    ([1.0, -1.0001e-5], False),
    ([0.0, 0.0], True),
    ([np.nan, 1.0], True),
])
def test_degeneracy_rule(spectrum, degenerate):
    # the one test that orbit tagging and the continuation predictor read
    assert gm.critical.is_degenerate(np.array(spectrum)) is degenerate


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


@pytest.mark.parametrize("domain", [
    gm.DomainSpec(gm.BoundaryCurve([0.0, 1.0], [0.0], [0.0], [0.0, 0.5])),
    gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), gm.cosine_field(3), 0.02),
    gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), gm.cosine_field(2), 0.05),
    polynomial_image([0, 1, 0.12 + 0.05j, -0.02j]),
], ids=["ellipse-2:1", "cos3-0.02", "cos2-0.05", "polynomial-image"])
def test_robin_function_of_a_convex_domain_has_one_critical_point(domain):
    # Caffarelli and Friedman: on a convex domain the Robin function is
    # strictly convex, so N = 1 has exactly one critical point, and the
    # indices sum to the Euler characteristic of the domain, sum (-1)^index = 1
    assert np.all(domain.boundary._dense[1].curvature > 0)     # convex
    engine = gm.build_engine(domain, 256)
    report = gm.find_critical_points(engine, gm.VortexStrengths([1.0]), gm.zero_interaction(),
                                     gm.SearchConfig(starts=24, seed=1))
    assert len(report.points) == 1
    assert all(cp.nullity == 0 for cp in report.points)
    assert sum((-1) ** cp.morse_index for cp in report.points) == 1
    assert report.points[0].morse_index == 2


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


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_dipole_orbit_has_index_3_and_nullity_1(disk_engine, seed):
    # the orbit's tangent eigenvalue is round-off (below 1e-10); its sign
    # used to decide between index 3 and 4 from point to point
    report = gm.find_critical_points(
        disk_engine, gm.VortexStrengths([1.0, -1.0]), gm.kirchhoff_routh_interaction(),
        gm.SearchConfig(starts=24, seed=seed))
    assert report.points
    assert {(cp.morse_index, cp.nullity) for cp in report.points} == {(3, 1)}


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
    f_omega_stack = gm.critical.f_omega_stack
    trials = []

    def recording(engine, strengths, spec, points, *margins):
        trials.extend(p.reshape(-1) for p in points)
        return f_omega_stack(engine, strengths, spec, points, *margins)

    monkeypatch.setattr(gm.critical, "f_omega_stack", recording)
    result = gm.newton_polish(engine, lam, spec, config.flat(), search)
    assert result.converged and result.evaluations == len(trials) >= 2
    res = gm.f_omega(engine, lam, spec, config, 0.02)
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
    # an independent map solve on twice the nodes, not the disk's closed form
    fresh = gm.ConformalGreenEngine(disk_domain, 512)
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


def test_private_pcg64_shuffles_as_default_rng():
    # the scramble's permutations come from a private PCG64 so that a search
    # does not import numpy.random; it must shuffle as default_rng(seed)
    # does, seeding (one to five 32-bit seed words), the masked rejection
    # draws and the buffered 32-bit halves carried from one shuffle to the
    # next included
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**96 + 12345,
             2**128 - 1, 2**128 + 7, 2**160 + 3]
    seeds += np.random.default_rng(2017).integers(0, 2**63, 300).tolist()
    bases = [2, 3, 5, 7, 11, 13, 127, 131, 2, 3, 131]
    for seed in seeds:
        ours, numpy_rng = gm.critical._PCG64(seed), np.random.default_rng(seed)
        for base in bases:
            perm = np.arange(base)
            numpy_rng.shuffle(perm)
            assert ours.permutation(base) == perm.tolist(), (seed, base)


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
        starts, _ = _halton_starts(engine, search, n_points)
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
                          result.residual, cls.spectrum, cls.morse_index, cls.nullity,
                          cls.margin, result.hessian)
    tag, alignment = gm.detect_rotation_orbit(engine, cp)
    assert tag == "rotation-orbit"
    assert alignment >= 0.999


def test_detect_orbit_undefined_at_origin(disk_engine):
    cp = gm.CriticalPoint(gm.Configuration([[0.0, 0.0]]), 0.0,
                          np.array([-1 / np.pi, -1 / np.pi]), 2, 0, 1 / np.pi,
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
                          result.residual, cls.spectrum, cls.morse_index, cls.nullity,
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
    for margin in (-1.0, np.nan):
        with pytest.raises(ValueError, match="collision_margin must be >= 0"):
            gm.SearchConfig(collision_margin=margin)
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
    def fake_f_omega_stack(engine, strengths, spec, points, *margins):
        xs = [p.reshape(-1) for p in points]
        ok = np.array([admissible is None or admissible(x) for x in xs])
        kept = [x for x, keep in zip(xs, ok) if keep]
        return ok, SimpleNamespace(gradient=np.reshape([gradient(x) for x in kept], (-1, 2)),
                                   hessian=np.reshape([hessian(x) for x in kept], (-1, 2, 2)))

    monkeypatch.setattr(gm.critical, "f_omega_stack", fake_f_omega_stack)
    # the engine's node count sizes the slices of a stacked evaluation
    result = gm.newton_polish(SimpleNamespace(node_count=256), gm.VortexStrengths([1.0]),
                              None, x0, gm.SearchConfig(starts=1))
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


def test_polish_start_of_wrong_size(disk_engine):
    lam = gm.VortexStrengths([1.0, -1.0])
    for x0 in ([0.3, 0.0, -0.3], [0.3, 0.0, -0.3, 0.1, 0.0, 0.2]):
        with pytest.raises(ValueError, match="strengths and configuration lengths differ"):
            gm.newton_polish(disk_engine, lam, gm.kirchhoff_routh_interaction(), x0,
                             gm.SearchConfig(starts=1))


# ---------------------------------------------------------------------------
# the lockstep search and serial polishing
# ---------------------------------------------------------------------------

def _search_and_serial(monkeypatch, engine, strengths, spec, search):
    """Each start's result in the search, as ``find_critical_points`` hands
    it over, with ``newton_polish`` run alone from the same start."""
    starts, _ = gm.critical._halton_starts(engine, search, len(strengths))
    polish = gm.critical.newton_polish
    results = []

    def recording(*args, **kwargs):
        results.append(polish(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(gm.critical, "newton_polish", recording)
    report = gm.find_critical_points(engine, strengths, spec, search)
    monkeypatch.setattr(gm.critical, "newton_polish", polish)
    assert len(results) == len(starts) == report.stats["starts"]
    return report, [(got, polish(engine, strengths, spec, x0, search))
                    for x0, got in zip(starts, results)]


def _assert_same_run(got, alone):
    assert (got.converged, got.failure) == (alone.converged, alone.failure)
    assert (got.iterations, got.evaluations) == (alone.iterations, alone.evaluations)
    if alone.converged:
        assert np.max(np.abs(got.configuration - alone.configuration)) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lockstep_matches_serial_polishing(monkeypatch, lobed_engine, seed):
    # the search advances its starts together; each start's outcome is that
    # of newton_polish from it alone, so are the report's counts
    lam = gm.VortexStrengths([1.0, 1.0, -1.0])
    search = gm.SearchConfig(starts=12, seed=seed)
    report, runs = _search_and_serial(monkeypatch, lobed_engine, lam,
                                      gm.kirchhoff_routh_interaction(), search)
    for got, alone in runs:
        _assert_same_run(got, alone)
    assert report.rounds >= 1
    assert report.stats["evaluations"] == sum(alone.evaluations for _, alone in runs)
    assert report.stats["iterations"] == sum(alone.iterations for _, alone in runs)


def test_lockstep_matches_serial_polishing_where_starts_fail(monkeypatch, lobed_engine):
    # an accuracy-band start among the Halton starts is refused at once
    lam = gm.VortexStrengths([1.0, 1.0, -1.0])
    band = point_at_distance(lobed_engine.domain, 0.3, 0.7 * lobed_engine.eval_margin)
    halton = gm.critical._halton_starts
    monkeypatch.setattr(gm.critical, "_halton_starts", lambda *args: (halton(*args)[0][:5] + [
        np.concatenate([band, [0.1, 0.0, -0.1, 0.2]])], 128))
    report, runs = _search_and_serial(monkeypatch, lobed_engine, lam,
                                      gm.kirchhoff_routh_interaction(),
                                      gm.SearchConfig(starts=6, seed=1))
    assert report.stats["failures_by_reason"]["inadmissible-start"] == 1
    for got, alone in runs:
        _assert_same_run(got, alone)

    # a fake f = x^3/3 - x + y^2/2, refused where x > 2: critical points at
    # (+-1, 0), and the merit |grad f|^2 is stationary on x = 0
    def fake_f_omega_stack(engine, strengths, spec, points, *margins):
        p = points.reshape(-1, 2)
        ok = p[:, 0] <= 2.0
        x, y = p[ok].T
        hessian = np.zeros((len(x), 2, 2))
        hessian[:, 0, 0], hessian[:, 1, 1] = 2.0 * x, 1.0
        return ok, SimpleNamespace(gradient=np.stack([x * x - 1.0, y], axis=1), hessian=hessian)

    starts = [np.array(p) for p in ([0.0, 0.0], [1.5, 0.5], [-1.4, -0.3], [0.0, 0.7],
                                    [3.0, 0.0], [1.2, -0.1])]
    monkeypatch.setattr(gm.critical, "_halton_starts", lambda *args: (starts, len(starts)))
    monkeypatch.setattr(gm.critical, "f_omega_stack", fake_f_omega_stack)
    report, runs = _search_and_serial(monkeypatch, lobed_engine, gm.VortexStrengths([1.0]),
                                      gm.zero_interaction(), gm.SearchConfig(starts=6))
    assert report.stats["failures_by_reason"] == {"inadmissible-start": 1,
                                                  "merit-stationary": 2}
    for got, alone in runs:
        _assert_same_run(got, alone)
