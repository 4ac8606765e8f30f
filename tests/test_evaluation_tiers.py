"""Value-and-gradient evaluations with Hessians computed on first read.

The references below are the eager evaluation path that computed every
derivative block in one pass: every block of a fresh evaluation read at once,
and the regular-part double sum contracted from them with its value and
gradient.  The split path must reproduce them bit for bit; the complex-form
``regular_sum`` of the conformal-map engines, the disk among them, must
reproduce the block contraction to round-off, and their ``green_sum`` the
interaction minus ``regular_sum``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenmorse as gm
from greenmorse import green


def eager_blocks(engine, points):
    """Every block of ``engine.blocks(points)``, all computed in one pass."""
    ev = engine.blocks(np.asarray(points, dtype=float).reshape(-1, 2))
    return {name: getattr(ev, name) for name in BLOCK_FIELDS}


def _eager_log_pair_terms(points, lam):
    n = len(points)
    d = points[:, None, :] - points[None, :, :]
    r2 = np.sum(d * d, axis=-1)
    np.fill_diagonal(r2, 1.0)
    c = np.outer(lam, lam) / np.pi
    np.fill_diagonal(c, 0.0)
    value = -0.25 * np.sum(c * np.log(r2))
    grad = -np.sum((c / r2)[..., None] * d, axis=1)
    a = (np.eye(2) * r2[..., None, None]
         - 2.0 * d[..., :, None] * d[..., None, :]) / (r2 * r2)[..., None, None]
    hess = np.einsum("jk,jkab->jakb", c, a)
    diag = np.arange(n)
    hess[diag, :, diag, :] -= hess.sum(axis=2)
    m = 2 * n
    return value, grad.reshape(m), hess.reshape(m, m)


def eager_regular_sum(engine, lam, pts):
    """sum_{j,k} lam_j lam_k H(x_j, x_k) contracted from the eager blocks."""
    n = len(pts)
    ev = eager_blocks(engine, pts)
    c = np.outer(lam, lam)
    value = np.sum(c * ev["value"])
    grad = (np.einsum("jk,jka->ja", c, ev["grad_x"])
            + np.einsum("jk,jka->ka", c, ev["grad_y"]))
    cross = np.einsum("jk,jkab->jakb", c, ev["hess_xy"])
    hess = cross + cross.transpose(2, 3, 0, 1)
    diag = np.arange(n)
    hess[diag, :, diag, :] += (np.einsum("jk,jkab->jab", c, ev["hess_xx"])
                               + np.einsum("jk,jkab->kab", c, ev["hess_yy"]))
    m = 2 * n
    return value, grad.reshape(m), hess.reshape(m, m)


def eager_f_omega(engine, strengths, config):
    """``f_omega`` for the Kirchhoff-Routh interaction, assembled in one pass
    from the block contraction."""
    lam = strengths.values
    pts = config.points
    inter_value, inter_grad, inter_hess = _eager_log_pair_terms(pts, lam)
    value, grad, hess = eager_regular_sum(engine, lam, pts)
    H = inter_hess - hess
    return inter_value - value, inter_grad - grad, 0.5 * (H + H.T)


def _relative_error(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


def _ring(domain, n, radius_fraction=0.35, phase=0.3):
    """n distinct points on a circle about the domain's centroid."""
    centre = domain.boundary.centroid
    theta = phase + 2.0 * np.pi * np.arange(n) / n
    radius = radius_fraction * (1.0 + 0.2 * np.cos(3.0 * theta))
    return centre + radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)


BLOCK_FIELDS = ("value", "grad_x", "grad_y", "hess_xx", "hess_yy", "hess_xy")


@pytest.fixture(scope="module")
def tilted_engine(tilted_domain):
    return gm.build_engine(tilted_domain, 256)


@pytest.fixture(scope="module")
def tilted_integral_engine(tilted_domain):
    return gm.IntegralGreenEngine(tilted_domain, 256)


@pytest.mark.parametrize("engine_name", ["disk_engine", "lobed_engine", "tilted_engine",
                                         "lobed_integral_engine", "tilted_integral_engine"])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_split_evaluation_equals_eager_path(request, engine_name, n):
    engine = request.getfixturevalue(engine_name)
    pts = _ring(engine.domain, n)
    lam = gm.VortexStrengths(np.array([1.0, -0.7, 1.3, 0.9, -1.1, 0.6])[:n])
    config = gm.Configuration(pts)

    ev = engine.blocks(pts)
    ref = eager_blocks(engine, pts)
    for name in BLOCK_FIELDS:
        assert np.array_equal(getattr(ev, name), ref[name]), name

    # the generic regular_sum is the block contraction, on every engine
    value, grad, hessian = green._EngineBase.regular_sum(engine, pts, lam.values)
    ref_value, ref_grad, ref_hess = eager_regular_sum(engine, lam.values, pts)
    assert value() == ref_value
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(hessian(), ref_hess)

    # f_omega goes through it on the integral engine; the conformal-map
    # engines, the disk among them, sum in complex form, equal to round-off
    res = gm.f_omega(engine, lam, gm.kirchhoff_routh_interaction(), config)
    value, grad, hess = eager_f_omega(engine, lam, config)
    if isinstance(engine, gm.ConformalGreenEngine):
        assert _relative_error(res.value, value) <= 1e-13
        assert _relative_error(res.gradient, grad) <= 1e-13
        assert _relative_error(res.hessian, hess) <= 1e-13
    else:
        assert res.value == value
        assert np.array_equal(res.gradient, grad)
        assert np.array_equal(res.hessian, hess)


@pytest.mark.parametrize("engine_name", ["lobed_engine", "tilted_engine"])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_conformal_regular_sum_equals_block_contraction(monkeypatch, request, engine_name, n):
    # mixed-sign strengths; for n >= 2 points 0 and 1 are closer than
    # eval_margin / 2, so their divided differences and second derivatives
    # come from the segment quotients
    engine = request.getfixturevalue(engine_name)
    pts = _ring(engine.domain, n)
    if n > 1:
        pts[1] = pts[0] + 0.3 * engine.eval_margin * np.array([0.6, -0.8])
    lam = np.array([1.0, -0.7, 1.3, 0.9, -1.1, 0.6])[:n]
    segments = []
    quotients = engine._segment_quotients
    monkeypatch.setattr(engine, "_segment_quotients",
                        lambda x, y: segments.append(len(x)) or quotients(x, y))

    value, grad, hessian = engine.regular_sum(pts, lam)
    hess = hessian()
    assert segments == ([] if n == 1 else [2])
    ref_value, ref_grad, ref_hessian = green._EngineBase.regular_sum(engine, pts, lam)
    assert _relative_error(value(), ref_value()) <= 1e-13
    assert _relative_error(grad, ref_grad) <= 1e-13
    assert _relative_error(hess, ref_hessian()) <= 1e-13
    assert np.array_equal(hess, hess.T)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(lam=st.lists(st.floats(0.3, 1.5) | st.floats(-1.5, -0.3), min_size=1, max_size=6),
       radius_fraction=st.floats(0.2, 0.4), phase=st.floats(0.0, 2.0 * np.pi),
       pair_angle=st.one_of(st.none(), st.floats(0.0, 2.0 * np.pi)))
def test_green_sum_equals_interaction_minus_regular_sum(disk_engine, lobed_engine, tilted_engine,
                                                       lam, radius_fraction, phase, pair_angle):
    # the one complex pass of the Kirchhoff-Routh energy against the log sum
    # in real form minus the regular-part sum, N = 1...6 with mixed signs; if
    # a pair angle is drawn (N >= 2), point 1 sits 0.3 eval_margin from point
    # 0, closer than eval_margin / 2, which takes the segment quotients on
    # the lobed and tilted engines.  The two sides cancel, so each is
    # compared relative to the larger of its two terms
    lam = np.array(lam)
    n = len(lam)
    spec = gm.kirchhoff_routh_interaction()
    for engine in (disk_engine, lobed_engine, tilted_engine):
        pts = _ring(engine.domain, n, radius_fraction, phase)
        if pair_angle is not None and n > 1:
            pts[1] = pts[0] + 0.3 * engine.eval_margin * np.array([np.cos(pair_angle),
                                                                   np.sin(pair_angle)])
        inter = gm.interaction(spec, gm.VortexStrengths(lam), gm.Configuration(pts))
        value, grad, hessian = engine.green_sum(pts, lam)
        hess = hessian()
        reg_value, reg_grad, reg_hessian = engine.regular_sum(pts, lam)
        reg_hess = reg_hessian()
        for ours, term, reg in ((value(), inter.value, reg_value()),
                                (grad, inter.gradient, reg_grad),
                                (hess, inter.hessian, reg_hess)):
            scale = max(np.max(np.abs(term)), np.max(np.abs(reg)))
            assert np.max(np.abs(ours - (term - reg))) <= 1e-13 * scale
        assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("n", [1, 3])
def test_integral_evaluation_is_one_solve(monkeypatch, lobed_integral_engine, n):
    # one boundary verdict query and one lu_solve for all 6N density
    # columns; the Hessian read solves nothing more
    solves = []
    queries = []
    lu_solve_ = green.lu_solve
    contains = green.contains

    def counting_lu_solve(lu_and_piv, b, *args, **kwargs):
        solves.append(b.shape[1])
        return lu_solve_(lu_and_piv, b, *args, **kwargs)

    def counting_contains(domain, points, *args, **kwargs):
        queries.append(len(points))
        return contains(domain, points, *args, **kwargs)

    monkeypatch.setattr(green, "lu_solve", counting_lu_solve)
    monkeypatch.setattr(green, "contains", counting_contains)
    config = gm.Configuration(_ring(lobed_integral_engine.domain, n))
    res = gm.f_omega(lobed_integral_engine, gm.VortexStrengths(np.ones(n)),
                     gm.kirchhoff_routh_interaction(), config)
    assert solves == [6 * n]
    assert queries == [n]
    first = res.hessian
    assert res.hessian is first
    assert solves == [6 * n]
    assert queries == [n]


@pytest.mark.parametrize("n", [1, 3, 6])
def test_conformal_evaluation_solves_nothing(monkeypatch, lobed_engine, n):
    # the map was built once; an evaluation is one Cauchy product and one
    # batched boundary verdict query, with or without its Hessian
    solves = []
    queries = []
    contains = green.contains

    def counting_contains(domain, points, *args, **kwargs):
        queries.append(len(points))
        return contains(domain, points, *args, **kwargs)

    monkeypatch.setattr(green, "lu_solve", lambda *args, **kwargs: solves.append(args))
    monkeypatch.setattr(np.linalg, "solve", lambda *args, **kwargs: solves.append(args))
    monkeypatch.setattr(green, "contains", counting_contains)
    config = gm.Configuration(_ring(lobed_engine.domain, n))
    res = gm.f_omega(lobed_engine, gm.VortexStrengths(np.ones(n)),
                     gm.kirchhoff_routh_interaction(), config)
    assert np.all(np.isfinite(res.hessian))
    lobed_engine._traces(config.points)
    assert solves == []
    assert queries == [n, n]
