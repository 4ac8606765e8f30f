from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import greenmorse as gm

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# free-space kernel
# ---------------------------------------------------------------------------

def test_gamma_values():
    assert_allclose(gm.gamma([1.0, 0.0], [0.0, 0.0]), 0.0, atol=1e-15)
    assert_allclose(gm.gamma([np.exp(-1.0), 0.0], [0.0, 0.0]), 1 / TWO_PI, rtol=1e-14)


def test_gamma_coincidence_error():
    with pytest.raises(gm.SingularityError):
        gm.gamma([0.3, 0.3], [0.3, 0.3])


# ---------------------------------------------------------------------------
# disk closed form
# ---------------------------------------------------------------------------

def test_disk_regular_part_at_center(disk_engine):
    assert_allclose(disk_engine.regular_part([0, 0], [0, 0]).value, 0.0, atol=1e-15)


def test_disk_robin_closed_form_values(disk_engine):
    r = np.sqrt(1 - np.exp(-TWO_PI))
    assert_allclose(disk_engine.robin([r, 0.0]).value, 1.0, rtol=1e-12)
    assert_allclose(disk_engine.robin([0.5, 0.0]).value, -np.log(0.75) / TWO_PI, rtol=1e-13)


def test_disk_robin_at_center(disk_engine):
    rob = disk_engine.robin([0.0, 0.0])
    assert_allclose(rob.value, 0.0, atol=1e-15)
    assert_allclose(rob.gradient, [0.0, 0.0], atol=1e-15)
    assert_allclose(rob.hessian, np.eye(2) / np.pi, atol=1e-13)


def test_disk_robin_hessian_matches_fd(disk_engine):
    # cross-check of the chain-rule assembly at a generic point
    x = np.array([0.31, -0.17])
    h = 1e-5
    rob = disk_engine.robin(x)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd_g = (disk_engine.robin(x + e).value - disk_engine.robin(x - e).value) / (2 * h)
        assert_allclose(rob.gradient[i], fd_g, rtol=1e-8)
        fd_h = (disk_engine.robin(x + e).gradient - disk_engine.robin(x - e).gradient) / (2 * h)
        assert_allclose(rob.hessian[:, i], fd_h, rtol=1e-7)


def test_disk_robin_diverges_toward_boundary(disk_engine):
    assert disk_engine.robin([0.99, 0.0]).value > disk_engine.robin([0.9, 0.0]).value


def test_disk_green_value(disk_engine):
    got = disk_engine.green([0.5, 0.0], [-0.5, 0.0])
    assert_allclose(got, np.log(1.25) / TWO_PI, rtol=1e-13)


def test_disk_green_positive_inside(disk_engine):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        if np.hypot(*(x - y)) < 1e-2:
            continue
        assert disk_engine.green(x, y) > 0


def test_disk_green_vanishes_near_boundary(disk_engine):
    assert 0 < disk_engine.green([0.999, 0.0], [0.0, 0.0]) < 1e-3


def test_disk_poisson_kernel_at_center(disk_engine):
    trace = disk_engine.boundary_normal_derivative([0.0, 0.0])
    assert_allclose(trace.values, -1 / TWO_PI, rtol=1e-14)


def _image_formula_blocks(engine, pts):
    """Every block of H on a circle from the image formula in the reduced
    coordinates x~ = (x - c) / R: H = -(1/4pi) ln s - (1/2pi) ln R with
    s = 1 - 2 x~.y~ + |x~|^2 |y~|^2, differentiated by hand."""
    xt = (pts - engine.center) / engine.radius
    R = engine.radius
    X = xt[:, None, :]
    Y = xt[None, :, :]
    xx = np.sum(X * X, axis=-1, keepdims=True)
    yy = np.sum(Y * Y, axis=-1, keepdims=True)
    eye = np.eye(2)
    s = 1.0 - 2.0 * np.sum(X * Y, axis=-1, keepdims=True) + xx * yy
    sx = -2.0 * Y + 2.0 * X * yy
    sy = -2.0 * X + 2.0 * Y * xx
    sxx = 2.0 * yy[..., None] * eye
    syy = 2.0 * xx[..., None] * eye
    sxy = -2.0 * eye + 4.0 * X[..., :, None] * Y[..., None, :]
    c = -1.0 / (2.0 * TWO_PI)
    s1 = s[..., None]
    s2 = s1 * s1
    return dict(
        value=c * np.log(s[..., 0]) - np.log(R) / TWO_PI,
        grad_x=c * sx / s / R,
        grad_y=c * sy / s / R,
        hess_xx=c * (sxx / s1 - sx[..., :, None] * sx[..., None, :] / s2) / R**2,
        hess_yy=c * (syy / s1 - sy[..., :, None] * sy[..., None, :] / s2) / R**2,
        hess_xy=c * (sxy / s1 - sx[..., :, None] * sy[..., None, :] / s2) / R**2,
    )


@pytest.mark.parametrize("center, radius", [((0.0, 0.0), 1.0), ((0.5, -0.25), 2.5)])
def test_disk_engine_matches_the_image_formula(center, radius):
    # the disk engine is the conformal engine with the exact map; the image
    # formula, derived independently, agrees with every block to round-off.
    # Both take logs of numbers near 1, whose rounding is absolute: near the
    # centre H ~ |x|^2 / 2pi is off by about eps / 2pi in either form, so
    # the value's scale is at least 1 / 2pi.
    engine = gm.build_engine(gm.DomainSpec(gm.circle(center=center, radius=radius)))
    rng = np.random.default_rng(11)
    for n in rng.integers(1, 8, size=200):
        r = radius * np.sqrt(rng.uniform(0.0, 0.9, n))
        theta = rng.uniform(0.0, TWO_PI, n)
        pts = np.asarray(center) + r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ev = engine.blocks(pts)
        ref = _image_formula_blocks(engine, pts)
        for name, expected in ref.items():
            scale = np.max(np.abs(expected), initial=1.0 / TWO_PI if name == "value" else 0.0)
            assert np.max(np.abs(getattr(ev, name) - expected)) <= 1e-13 * scale, name


@pytest.mark.parametrize("center, radius", [((0.0, 0.0), 1.0), ((0.5, -0.25), 2.5)])
@pytest.mark.parametrize("depth", [1e-2, 1e-3, 2.5e-4])
def test_disk_robin_near_the_circle(center, radius, depth):
    # h(x) = -(1/2pi) ln((R^2 - |x - c|^2) / R) with gradient
    # (x - c) / (pi (R^2 - |x - c|^2)); R^2 - |x - c|^2 is formed exactly from
    # the floats, so the reference is accurate to a few ulps.  The points are
    # depth * R inside, down to 1.25 eval_margin.
    engine = gm.build_engine(gm.DomainSpec(gm.circle(center=center, radius=radius)))
    assert depth * radius > engine.eval_margin
    for theta in (0.0, 0.7, 2.0, 4.1):
        x = (np.asarray(center)
             + (1.0 - depth) * radius * np.array([np.cos(theta), np.sin(theta)]))
        d = [Fraction(a) - Fraction(b) for a, b in zip(x, center)]
        gap = Fraction(radius) ** 2 - d[0] ** 2 - d[1] ** 2
        value = -np.log(float(gap / Fraction(radius))) / TWO_PI
        grad = np.array([float(di / gap) for di in d]) / np.pi
        rob = engine.robin(x)
        assert abs(rob.value - value) <= 1e-12 * abs(value)
        assert np.max(np.abs(rob.gradient - grad)) <= 1e-12 * np.max(np.abs(grad))


def test_harmonic_measure_normalization(disk_engine, integral_engine, lobed_engine):
    for engine in (disk_engine, integral_engine, lobed_engine):
        trace = engine.boundary_normal_derivative([0.3, 0.4])
        total = -np.sum(trace.weights * trace.values)
        assert_allclose(total, 1.0, atol=1e-8)


def test_outside_point_rejected(disk_engine, integral_engine):
    for engine in (disk_engine, integral_engine):
        with pytest.raises(gm.OutsideDomainError):
            engine.regular_part([1.5, 0.0], [0.0, 0.0])


def test_require_interior_names_first_offending_point(disk_engine, lobed_engine):
    pts = [[0.1, 0.0], [1.5, 0.0], [0.2, 0.3], [0.0, -2.0]]
    for engine in (disk_engine, lobed_engine):
        with pytest.raises(gm.OutsideDomainError, match=r"point 1 at \("):
            engine.blocks(pts)


def test_engine_diagnostics(disk_engine, lobed_integral_engine):
    assert disk_engine.diagnostics == {"eval_margin": 2e-4}
    diag = lobed_integral_engine.diagnostics
    assert set(diag) == {"condition_estimate", "self_test_error", "eval_margin"}
    assert np.isfinite(diag["condition_estimate"]) and diag["condition_estimate"] >= 1.0
    assert diag["self_test_error"] == lobed_integral_engine.self_test_error
    assert diag["eval_margin"] == lobed_integral_engine.eval_margin > 0.0


@pytest.mark.parametrize("condition", [2e12, np.inf, np.nan],
                         ids=["above-the-limit", "singular", "non-finite-entry"])
def test_integral_engine_refuses_an_ill_conditioned_system(monkeypatch, lobed_domain,
                                                           condition):
    # one check: the condition number must be at most CONDITION_LIMIT = 1e12,
    # which neither inf (a singular D) nor NaN (a non-finite entry) is
    monkeypatch.setattr(np.linalg, "cond", lambda matrix, p: condition)
    with pytest.raises(gm.DiscretizationFailureError, match="condition estimate"):
        gm.IntegralGreenEngine(lobed_domain, 128)


# ---------------------------------------------------------------------------
# boundary-integral backend vs closed form
# ---------------------------------------------------------------------------

def test_integral_backend_selftest(integral_engine):
    assert integral_engine.self_test_error <= 1e-8


def test_lobed_backend_selftest(lobed_engine):
    assert lobed_engine.self_test_error <= 1e-8
    assert lobed_engine.backend == "conformal-map"


def test_auto_backend_selects_closed_form(disk_domain):
    assert gm.build_engine(disk_domain).backend == "disk-closed-form"


def test_auto_backend_selects_conformal_map(tilted_domain):
    assert gm.build_engine(tilted_domain).backend == "conformal-map"


def test_node_minimum_enforced(disk_domain):
    with pytest.raises(ValueError):
        gm.IntegralGreenEngine(disk_domain, 32)


def test_integral_matches_closed_form(disk_engine, integral_engine):
    pairs = [([0.4, -0.1], [0.3, 0.2]), ([0.7, 0.1], [-0.5, 0.4]),
             ([0.0, 0.0], [0.6, -0.3]), ([-0.2, -0.6], [0.1, 0.5])]
    for x, y in pairs:
        a = integral_engine.regular_part(x, y)
        b = disk_engine.regular_part(x, y)
        assert_allclose(a.value, b.value, rtol=1e-6, atol=1e-12)
        assert_allclose(a.grad_x, b.grad_x, rtol=1e-6, atol=1e-10)
        assert_allclose(a.grad_y, b.grad_y, rtol=1e-6, atol=1e-10)
        assert_allclose(a.hess_xx, b.hess_xx, rtol=1e-6, atol=1e-9)
        assert_allclose(a.hess_yy, b.hess_yy, rtol=1e-6, atol=1e-9)
        assert_allclose(a.hess_xy, b.hess_xy, rtol=1e-6, atol=1e-9)


def test_integral_trace_matches_poisson_kernel(disk_engine, integral_engine):
    x = np.array([0.5, 0.0])
    a = integral_engine.boundary_normal_derivative(x)
    b = disk_engine.boundary_normal_derivative(x)
    assert np.max(np.abs(a.values - b.values)) <= 1e-7


def test_trace_gradient_matches_closed_form(disk_engine, integral_engine):
    x = np.array([0.35, -0.25])
    a = integral_engine.trace_gradient(x)
    b = disk_engine.trace_gradient(x)
    assert np.max(np.abs(a - b)) <= 1e-7


def _explicit_adjoint_traces(engine, x):
    """The trace d_nu G(x, .) and its x-gradient from the explicitly assembled
    adjoint operator 1/2 I - K', solved densely."""
    z, nu, w = engine.nodes, engine.normals, engine.weights
    dx = z[None, :, 0] - z[:, None, 0]
    dy = z[None, :, 1] - z[:, None, 1]
    r2 = dx * dx + dy * dy
    np.fill_diagonal(r2, 1.0)
    # adjoint kernel (z_i - z_j).nu_i / |z_i - z_j|^2, diagonal limit kappa/2
    bare_adj = -(dx * nu[:, None, 0] + dy * nu[:, None, 1]) / r2
    np.fill_diagonal(bare_adj, engine.curvatures / 2.0)
    Kp = -(bare_adj * w[None, :]) / TWO_PI
    trace_op = 0.5 * np.eye(engine.node_count) - Kp
    d = z - x
    r2 = np.sum(d * d, axis=1)
    dn = d[:, 0] * nu[:, 0] + d[:, 1] * nu[:, 1]
    rhs = np.stack([-dn / r2,
                    nu[:, 0] / r2 - 2.0 * dn * d[:, 0] / r2**2,
                    nu[:, 1] / r2 - 2.0 * dn * d[:, 1] / r2**2], axis=1) / TWO_PI
    sol = np.linalg.solve(trace_op, rhs)
    return sol[:, 0], sol[:, 1:]


@pytest.mark.parametrize("nodes", [256, 512])
@pytest.mark.parametrize("domain_name", ["lobed_domain", "tilted_domain"])
def test_traces_match_explicit_adjoint_operator(request, domain_name, nodes):
    # the engine solves traces with the transposed Dirichlet LU factors
    engine = gm.IntegralGreenEngine(request.getfixturevalue(domain_name), nodes)
    for x in ([0.3, -0.2], [-0.2, 0.35]):
        values, grads = _explicit_adjoint_traces(engine, np.array(x))
        got = engine.boundary_normal_derivative(x).values
        assert np.max(np.abs(got - values)) <= 1e-13 * np.max(np.abs(values))
        got = engine.trace_gradient(x)
        assert np.max(np.abs(got - grads)) <= 1e-13 * np.max(np.abs(grads))


@pytest.mark.parametrize("make_engine", [gm.IntegralGreenEngine, gm.build_engine],
                         ids=["integral", "auto"])
def test_non_finite_curve_never_reaches_an_engine(lobed_domain, make_engine):
    # a NaN coefficient would make every node non-finite; the domain refuses it
    c = lobed_domain.boundary
    nan_curve = gm.BoundaryCurve(c.cos_x, np.r_[c.sin_x[:-1], np.nan], c.cos_y, c.sin_y)
    with pytest.raises(gm.MalformedCurveError, match="finite"):
        make_engine(gm.DomainSpec(nan_curve), 256)


def test_accuracy_contract_near_boundary(integral_engine):
    with pytest.raises(gm.AccuracyDegradedError) as info:
        integral_engine.regular_part([0.95, 0.0], [0.0, 0.0])
    assert info.value.estimated_bound is not None


# ---------------------------------------------------------------------------
# structural invariants, both backends
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sample_pairs():
    rng = np.random.default_rng(5)
    pairs = []
    while len(pairs) < 8:
        x, y = rng.uniform(-0.62, 0.62, 2), rng.uniform(-0.62, 0.62, 2)
        if np.hypot(*(x - y)) > 0.1:
            pairs.append((x, y))
    return pairs


def test_symmetry_of_regular_part(disk_engine, integral_engine, sample_pairs):
    for engine, tol in ((disk_engine, 1e-10), (integral_engine, 1e-7)):
        for x, y in sample_pairs:
            assert abs(engine.regular_part(x, y).value
                       - engine.regular_part(y, x).value) <= tol


def test_harmonicity_of_hessian(disk_engine, integral_engine, sample_pairs):
    for engine in (disk_engine, integral_engine):
        for x, y in sample_pairs:
            ev = engine.regular_part(x, y)
            assert abs(np.trace(ev.hess_xx)) <= 1e-6 * max(np.linalg.norm(ev.hess_xx), 1e-300)
            assert abs(np.trace(ev.hess_yy)) <= 1e-6 * max(np.linalg.norm(ev.hess_yy), 1e-12)


def test_cross_derivative_symmetry(disk_engine, integral_engine, sample_pairs):
    for engine, tol in ((disk_engine, 1e-12), (integral_engine, 1e-8)):
        for x, y in sample_pairs:
            a = engine.regular_part(x, y)
            b = engine.regular_part(y, x)
            assert np.max(np.abs(a.hess_xy - b.hess_xy.T)) <= tol


def test_hessian_blocks_symmetric(integral_engine, sample_pairs):
    for x, y in sample_pairs:
        ev = integral_engine.regular_part(x, y)
        assert np.max(np.abs(ev.hess_xx - ev.hess_xx.T)) <= 1e-12
        assert np.max(np.abs(ev.hess_yy - ev.hess_yy.T)) <= 1e-10


@pytest.mark.parametrize("make_engine", [gm.build_engine, gm.IntegralGreenEngine],
                         ids=["auto", "integral"])
def test_derivatives_match_finite_differences_order2(disk_domain, make_engine):
    engine = make_engine(disk_domain, 256)
    x = np.array([0.35, 0.15])
    y = np.array([-0.2, 0.3])
    steps = np.array([1e-3, 5e-4, 2.5e-4])
    ev = engine.regular_part(x, y)

    def errs(component):
        out = []
        for h in steps:
            if component == "grad_x":
                fd = np.array([
                    (engine.regular_part(x + [h, 0], y).value
                     - engine.regular_part(x - [h, 0], y).value) / (2 * h),
                    (engine.regular_part(x + [0, h], y).value
                     - engine.regular_part(x - [0, h], y).value) / (2 * h)])
                out.append(np.max(np.abs(fd - ev.grad_x)))
            else:
                fd = np.stack([
                    (engine.regular_part(x + [h, 0], y).grad_x
                     - engine.regular_part(x - [h, 0], y).grad_x) / (2 * h),
                    (engine.regular_part(x + [0, h], y).grad_x
                     - engine.regular_part(x - [0, h], y).grad_x) / (2 * h)], axis=1)
                out.append(np.max(np.abs(fd - ev.hess_xx)))
        return np.array(out)

    for component in ("grad_x", "hess_xx"):
        e = errs(component)
        slope = np.polyfit(np.log(steps), np.log(e), 1)[0]
        assert slope >= 1.7, f"{component} observed order {slope}"


def test_node_doubling_reduces_oracle_error(disk_domain, disk_engine):
    # spectral accuracy: doubling nodes cuts the disk-oracle error 10x until
    # it reaches the 1e-10 floor
    x, y = np.array([0.62, 0.55]), np.array([-0.6, 0.52])  # close to the margin
    ref = disk_engine.regular_part(x, y)
    prev = None
    for n in (64, 128, 256):
        eng = gm.IntegralGreenEngine(disk_domain, n)
        ev = eng.regular_part(x, y)
        err = max(abs(ev.value - ref.value), np.max(np.abs(ev.hess_xx - ref.hess_xx)))
        if prev is not None:
            assert err <= max(prev / 10.0, 1e-10)
        prev = err


def test_singular_green_coincidence(disk_engine):
    with pytest.raises(gm.SingularityError):
        disk_engine.green([0.2, 0.2], [0.2, 0.2])
