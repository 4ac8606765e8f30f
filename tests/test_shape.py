import numpy as np
import pytest
from numpy.testing import assert_allclose

import greenmorse as gm
from conftest import DIPOLE_RADIUS
from greenmorse import shape

TWO_PI = 2 * np.pi

# margin path of the perturbed-dipole experiment, recorded from the first
# validated run (256 nodes, cos 3t field, grid below)
CONTINUATION_GRID = (0.0, 0.0025, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)
CONTINUATION_MARGINS = (
    4.440892098500626e-16,
    6.332344099024834e-05,
    0.0002528463573027717,
    0.001004312361471249,
    0.003909070472840309,
    0.008425035380950185,
    0.014164340339655801,
    0.02072406845196395,
)
# the same run's corrector iterations, predictor use and vortex x coordinates
# per rung, as damped Newton gave them
CONTINUATION_ITERATIONS = (0, 2, 1, 1, 2, 2, 2, 2)
CONTINUATION_PREDICTOR = (False, False, True, True, True, True, True, True)
CONTINUATION_X = (
    (0.48586827175664576, -0.48586827175664576),
    (0.48871337256290087, -0.483024568943302),
    (0.4915597710051814, -0.4801823645230546),
    (0.4972560579460989, -0.4745028525143229),
    (0.5086597494021801, -0.4631662436637037),
    (0.5200727450126694, -0.45186498757899285),
    (0.5314881846186147, -0.4406058336002582),
    (0.5428988361642766, -0.42939583236959683),
)


@pytest.fixture(scope="module")
def dipole_trace(disk_engine, dipole_setup):
    lam, config, spec = dipole_setup
    return gm.continue_critical_point(disk_engine, gm.cosine_field(3),
                                      CONTINUATION_GRID, config.flat(), lam, spec)


# ---------------------------------------------------------------------------
# boundary-integral variation formulas
# ---------------------------------------------------------------------------

def test_dH_disk_dilation_oracle(disk_engine, integral_engine):
    # scaling the disk: H_R(0,0) = -(1/2pi) ln R, so the variation is -1/2pi
    for engine in (disk_engine, integral_engine):
        got = gm.dH_shape(engine, [0.0, 0.0], [0.0, 0.0], gm.identity_dilation())
        assert_allclose(got, -1 / TWO_PI, atol=1e-10)


def test_dH_zero_field(disk_engine):
    assert gm.dH_shape(disk_engine, [0.3, 0.0], [0.1, 0.2], gm.zero_field()) == 0.0


def test_dH_linear_in_field(disk_engine):
    x, y = [0.3, 0.0], [0.1, 0.2]
    f1 = gm.cosine_field(2)
    f2 = gm.normal_field([0.0], [0.0, 0.0, 0.0, 1.0])
    fsum = gm.normal_field([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
    a = gm.dH_shape(disk_engine, x, y, f1)
    b = gm.dH_shape(disk_engine, x, y, f2)
    c = gm.dH_shape(disk_engine, x, y, fsum)
    assert abs(c - a - b) <= 1e-10 * max(abs(c), 1.0)
    half = gm.normal_field([0.0, 0.0, 0.5])
    assert abs(gm.dH_shape(disk_engine, x, y, half) - 0.5 * a) <= 1e-12


def test_dH_symmetric_in_points(disk_engine, lobed_engine):
    x, y = [0.3, -0.1], [0.15, 0.25]
    field = gm.cosine_field(3)
    for engine in (disk_engine, lobed_engine):
        assert gm.dH_shape(engine, x, y, field) == gm.dH_shape(engine, y, x, field)


def test_dRobin_equals_dH_on_diagonal(disk_engine, lobed_engine):
    # dh(x)[phi] = dH(x, x)[phi] exactly where phi(x) = 0 (no point-motion term)
    x = [0.3, -0.1]
    field = gm.cosine_field(3)
    for engine in (disk_engine, lobed_engine):
        assert np.all(field.evaluate(engine.domain, [x])[0] == 0.0)
        assert gm.dRobin_shape(engine, x, field) == gm.dH_shape(engine, x, x, field)


def test_dH_sign_coherence_under_expansion(disk_engine):
    # fields with <phi,nu> >= 0 expand the domain; the Robin value cannot rise
    for field in (gm.identity_dilation(), gm.normal_field([1.0, 0.0, 0.0, 0.3])):
        for x in ([0.0, 0.0], [0.4, 0.1], [-0.3, 0.3]):
            assert gm.dH_shape(disk_engine, x, x, field) < 0


def test_dRobin_disk_dilation_oracle(disk_engine):
    got = gm.dRobin_shape(disk_engine, [0.0, 0.0], gm.identity_dilation())
    assert_allclose(got, -1 / TWO_PI, atol=1e-12)


def test_dRobin_zero_field(disk_engine):
    assert gm.dRobin_shape(disk_engine, [0.4, 0.0], gm.zero_field()) == 0.0


def test_dRobin_point_motion_term(disk_engine):
    # dilation at x != 0: closed form h_{R}((1+eps)x) = -(1/2pi)(ln(1+eps)+ln(1-r^2))
    x = np.array([0.5, 0.0])
    got = gm.dRobin_shape(disk_engine, x, gm.identity_dilation())
    assert_allclose(got, -1 / TWO_PI, rtol=1e-10)


def test_dGradF_zero_field(disk_engine, dipole_setup):
    lam, config, spec = dipole_setup
    out = gm.dGradF_shape(disk_engine, lam, spec, config, gm.zero_field())
    assert np.all(out == 0.0)


def test_dGradF_symmetric_point_with_radial_field(disk_engine):
    # rotation-invariant boundary field at the centered single vortex
    lam = gm.VortexStrengths([1.0])
    config = gm.Configuration([[0.0, 0.0]])
    field = gm.normal_field([1.0], cutoff_width=0.3)
    out = gm.dGradF_shape(disk_engine, lam, gm.zero_interaction(), config, field)
    assert np.max(np.abs(out)) <= 1e-8


def test_dGradF_orthogonal_to_orbit_tangent(disk_engine, dipole_setup):
    lam, config, spec = dipole_setup
    field = gm.normal_field([1.0], cutoff_width=0.3)   # rotation invariant
    out = gm.dGradF_shape(disk_engine, lam, spec, config, field)
    pts = config.points
    tangent = np.stack([-pts[:, 1], pts[:, 0]], axis=1).reshape(-1)
    tangent /= np.linalg.norm(tangent)
    assert abs(out @ tangent) <= 1e-8 * max(np.linalg.norm(out), 1.0)


def _dGradF_per_point(engine, lam, config, field):
    """The dGradF formula evaluated one configuration point at a time."""
    lam = lam.values
    gn = field.boundary_normal_component(engine.domain.boundary, engine.node_params)
    combined = sum(lam_j * engine.boundary_normal_derivative(p).values
                   for lam_j, p in zip(lam, config.points))
    common = engine.weights * gn * combined
    return np.concatenate([2.0 * lam_m * (common @ engine.trace_gradient(p))
                           for lam_m, p in zip(lam, config.points)])


def test_dGradF_batched_matches_per_point(disk_engine, lobed_engine, dipole_setup):
    field = gm.normal_field([0.0, 0.4, 1.0], [0.0, 0.7, 0.0, 0.3])
    spec = gm.kirchhoff_routh_interaction()
    cases = [dipole_setup[:2],
             (gm.VortexStrengths([1.0, 1.0, -1.0]),
              gm.Configuration([[0.3, 0.1], [-0.25, 0.2], [0.05, -0.35]]))]
    for engine in (disk_engine, lobed_engine):
        for lam, config in cases:
            want = _dGradF_per_point(engine, lam, config, field)
            got = gm.dGradF_shape(engine, lam, spec, config, field)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dGradF_rejects_field_overlapping_points(disk_engine, dipole_setup):
    lam, config, spec = dipole_setup
    wide = gm.cosine_field(3, cutoff_width=0.8)   # support reaches the dipole
    with pytest.raises(gm.UnsupportedFieldError):
        gm.dGradF_shape(disk_engine, lam, spec, config, wide)
    off_center = gm.Configuration([[0.3, 0.0]])
    with pytest.raises(gm.UnsupportedFieldError):
        gm.dGradF_shape(disk_engine, gm.VortexStrengths([1.0]), gm.zero_interaction(),
                        off_center, gm.identity_dilation())


# ---------------------------------------------------------------------------
# finite-difference harness
# ---------------------------------------------------------------------------

def test_fd_check_dH_dilation(disk_domain):
    report = gm.fd_check(disk_domain, "H", gm.identity_dilation(),
                         [1e-2, 5e-3, 2.5e-3], x=[0.0, 0.0], y=[0.0, 0.0])
    assert report.passed
    assert_allclose(report.analytic, -1 / TWO_PI, atol=1e-10)
    assert abs(report.richardson - report.analytic) <= 1e-8


def test_fd_check_dH_material_convention(disk_domain):
    # dilation moves off-center points; the material value is still -1/2pi
    report = gm.fd_check(disk_domain, "H", gm.identity_dilation(),
                         [1e-2, 5e-3, 2.5e-3], x=[0.5, 0.0], y=[0.5, 0.0])
    assert report.passed
    assert_allclose(report.analytic, -1 / TWO_PI, rtol=1e-9)


def test_fd_check_dH_cutoff_field(disk_domain):
    report = gm.fd_check(disk_domain, "H", gm.cosine_field(3),
                         [1e-2, 5e-3, 2.5e-3], x=[0.3, 0.0], y=[0.1, 0.2])
    assert report.passed
    assert report.rel_error <= 1e-5
    assert report.observed_order is None or report.observed_order >= 1.0


def test_fd_check_zero_field(disk_domain):
    report = gm.fd_check(disk_domain, "H", gm.zero_field(),
                         [1e-2, 5e-3, 2.5e-3], x=[0.3, 0.0], y=[0.1, 0.2])
    assert report.passed
    assert all(v == 0.0 for v in report.fd_values)


def test_fd_check_robin(disk_domain):
    report = gm.fd_check(disk_domain, "robin", gm.cosine_field(2),
                         [1e-2, 5e-3, 2.5e-3], x=[0.4, 0.0])
    assert report.passed and report.rel_error <= 1e-5
    assert report.observed_order >= 1.0


def test_fd_check_grad_f_at_dipole(disk_domain, dipole_setup):
    lam, config, spec = dipole_setup
    report = gm.fd_check(disk_domain, "grad_f", gm.cosine_field(3),
                         [1e-2, 5e-3, 2.5e-3],
                         strengths=lam, spec=spec, config=config)
    assert report.passed and report.rel_error <= 1e-5
    assert report.observed_order >= 1.0


def test_fd_check_dH_lobed_domain(lobed_domain):
    # every refit needs a degree above the first one tried (19): 32 at
    # eps = +-0.01, 29 at +-0.005 and +-0.0025
    report = gm.fd_check(lobed_domain, "H", gm.cosine_field(3),
                         [1e-2, 5e-3, 2.5e-3], x=[0.3, 0.0], y=[0.1, 0.2])
    assert report.passed and not report.failures
    assert report.rel_error <= 1e-10


def test_fd_check_robin_tilted_domain(tilted_domain):
    report = gm.fd_check(tilted_domain, "robin", gm.cosine_field(2),
                         [1e-2, 5e-3, 2.5e-3], x=[0.3, 0.1])
    assert report.passed and not report.failures
    assert report.rel_error <= 1e-10


def test_fd_check_ladder_validation(disk_domain):
    with pytest.raises(ValueError):
        gm.fd_check(disk_domain, "H", gm.cosine_field(3), [1e-3, 1e-2],
                    x=[0.0, 0.0], y=[0.1, 0.0])
    with pytest.raises(gm.PerturbationTooLargeError):
        gm.fd_check(disk_domain, "H", gm.identity_dilation(), [0.5, 0.25],
                    x=[0.0, 0.0], y=[0.1, 0.0])


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continuation_trivial_grid(disk_engine, dipole_setup):
    lam, config, spec = dipole_setup
    trace = gm.continue_critical_point(disk_engine, gm.cosine_field(3), [0.0],
                                       config.flat(), lam, spec)
    assert trace.eps_values == (0.0,)
    assert_allclose(trace.configurations[0], config.points, atol=1e-14)
    assert not trace.truncated


def test_continuation_margin_path(dipole_trace):
    assert not dipole_trace.truncated
    assert dipole_trace.eps_values == CONTINUATION_GRID
    for res in dipole_trace.residuals:
        assert res <= 1e-8
    # orbit degeneracy at eps = 0, broken once the symmetry is gone
    assert dipole_trace.margins[0] <= 1e-6
    for eps, margin in zip(dipole_trace.eps_values, dipole_trace.margins):
        if eps >= 0.01:
            assert margin >= 1e-4


def test_continuation_margins_regression(dipole_trace):
    assert_allclose(dipole_trace.margins, CONTINUATION_MARGINS, rtol=1e-6, atol=1e-12)


def test_continuation_corrector_regression(dipole_trace):
    assert dipole_trace.corrector_iterations == CONTINUATION_ITERATIONS
    assert dipole_trace.predictor_used == CONTINUATION_PREDICTOR
    configs = np.asarray(dipole_trace.configurations)
    assert_allclose(configs[:, :, 0], CONTINUATION_X, rtol=0, atol=1e-12)
    # y is 0 by the reflection symmetry of the cos 3t field; what remains is
    # round-off, about 1e-16 over the soft Hessian eigenvalue (6.8e-5 at
    # eps = 0.0025), so it is bounded rather than pinned
    assert np.max(np.abs(configs[:, :, 1])) <= 1e-12


def test_continuation_predictor_engages(dipole_trace):
    # predictor must be skipped on the degenerate start and used later
    assert dipole_trace.predictor_used[0] is False
    assert dipole_trace.predictor_used[1] is False
    assert any(dipole_trace.predictor_used[2:])


def test_continuation_stays_on_axis(dipole_trace):
    for cfg in dipole_trace.configurations:
        assert np.max(np.abs(np.asarray(cfg)[:, 1])) <= 1e-8


def test_equivariant_continuation_matches(disk_domain, dipole_setup, dipole_trace):
    lam, config, spec = dipole_setup
    sym = gm.SymmetryGroup("cyclic", 3)
    domain = gm.DomainSpec(gm.unit_circle(), symmetry=sym)
    projected = gm.equivariant_project(gm.cosine_field(3), sym, domain)
    trace = gm.continue_critical_point(gm.build_engine(domain), projected, CONTINUATION_GRID,
                                       config.flat(), lam, spec)
    assert not trace.truncated
    assert_allclose(trace.margins, dipole_trace.margins, rtol=1e-8, atol=1e-14)


def test_continuation_of_a_close_pair():
    # the dipole of a disk of radius 0.036 is 0.035 apart: the corrector's
    # collision margin of 0.02 admits it, where the search default 0.05 does not
    R = 0.036
    a = R * DIPOLE_RADIUS
    trace = gm.continue_critical_point(gm.build_engine(gm.DomainSpec(gm.circle(radius=R))),
                                       gm.cosine_field(3, cutoff_width=0.35 * R),
                                       [0.0, 0.01 * R, 0.02 * R], [a, 0.0, -a, 0.0],
                                       gm.VortexStrengths([1.0, -1.0]),
                                       gm.kirchhoff_routh_interaction())
    assert not trace.truncated and trace.diagnostic is None
    assert trace.eps_values == (0.0, 0.01 * R, 0.02 * R)
    for cfg, res in zip(trace.configurations, trace.residuals):
        assert 0.02 < np.linalg.norm(cfg[0] - cfg[1]) < 0.05
        assert res <= 1e-10


# a start off the axis whose first corrector run exceeds 10 iterations, so
# the first step is halved seven times before a rung is accepted
HALVING_FIELD = ((0.0, 0.0, 0.5), (0.0, 0.7, 0.0, 0.3))
HALVING_START = (DIPOLE_RADIUS, 0.01, -DIPOLE_RADIUS, 0.0)
HALVING_GRID = (0.0, 0.03, 0.08)


def _halving_trace(dipole_setup):
    lam, _, spec = dipole_setup
    return gm.continue_critical_point(gm.build_engine(gm.DomainSpec(gm.unit_circle())),
                                      gm.normal_field(*HALVING_FIELD), HALVING_GRID,
                                      HALVING_START, lam, spec)


def test_continuation_halves_the_step(dipole_setup):
    trace = _halving_trace(dipole_setup)
    assert not trace.truncated and trace.diagnostic is None
    assert trace.eps_values == (0.0, 0.000234375, 0.03, 0.08)
    assert trace.corrector_iterations == (0, 5, 2, 2)
    assert trace.predictor_used == (False, True, True, True)
    for res in trace.residuals[1:]:
        assert res <= 1e-10


def test_continuation_truncates_with_a_diagnostic(disk_engine):
    # three equal vortices: the corrector fails from every step down to
    # MIN_STEP, the last run at a stationary point of its merit
    start = [[0.5, 0.0], [-0.25, 0.43], [-0.25, -0.43]]
    trace = gm.continue_critical_point(disk_engine, gm.cosine_field(4), [0.0, 0.1], start,
                                       gm.VortexStrengths([1.0, 1.0, 1.0]),
                                       gm.kirchhoff_routh_interaction())
    assert trace.truncated
    assert trace.eps_values == (0.0,)
    assert trace.diagnostic == ("continuation stalled near eps=0 targeting 0.1: "
                                "merit-stationary")


def test_continuation_classifies_and_predicts_once_per_rung(monkeypatch, dipole_setup):
    # one classification per accepted rung (the start included), one
    # dGradF for each rung that is stepped from with the predictor, and one
    # engine build per corrector attempt: the start uses the caller's engine
    calls = {"dGradF_shape": 0, "classify": 0, "build_engine": 0}
    for name in calls:
        original = getattr(shape, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(shape, name, counted)
    trace = _halving_trace(dipole_setup)
    assert len(trace.eps_values) == 4
    assert calls == {"dGradF_shape": 3, "classify": 4, "build_engine": 10}


def test_continuation_past_the_margin_fails_before_any_build(monkeypatch, disk_engine,
                                                             dipole_setup):
    # the margin of the unit disk is 0.15 and sup |cos 3t| = 1: the grid's end,
    # 0.2, is refused before any rung's engine is built
    lam, config, spec = dipole_setup
    builds = []
    monkeypatch.setattr(shape, "build_engine", lambda *a, **k: builds.append(a))
    with pytest.raises(gm.PerturbationTooLargeError):
        gm.continue_critical_point(disk_engine, gm.cosine_field(3), [0.0, 0.05, 0.1, 0.2],
                                   config.flat(), lam, spec)
    assert builds == []
