"""Value-and-gradient evaluations with Hessians computed on first read.

The references below are the eager evaluation path that computed every
derivative block in one pass: all second-derivative blocks of the disk closed
form, every block of a fresh evaluation read at once on the conformal-map and
integral engines, and ``f_omega``'s Hessian assembled with its value and
gradient.  The split path must reproduce them bit for bit.
"""

import numpy as np
import pytest

import greenmorse as gm
from greenmorse import green

TWO_PI = 2 * np.pi


def _eager_mirrored(value, grad_x, grad_y, hess_xx, hess_yy, hess_xy):
    lower = np.tril_indices(len(value), -1)
    upper = lower[::-1]
    value[lower] = value[upper]
    grad_x[lower], grad_y[lower] = grad_y[upper], grad_x[upper]
    hess_xx[lower], hess_yy[lower] = hess_yy[upper], hess_xx[upper]
    hess_xy[lower] = hess_xy[upper].swapaxes(-1, -2)
    return dict(value=value, grad_x=grad_x, grad_y=grad_y,
                hess_xx=hess_xx, hess_yy=hess_yy, hess_xy=hess_xy)


def _eager_disk_blocks(engine, pts):
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
    return _eager_mirrored(
        c * np.log(s[..., 0]) - np.log(R) / TWO_PI,
        c * sx / s / R,
        c * sy / s / R,
        c * (sxx / s1 - sx[..., :, None] * sx[..., None, :] / s2) / R**2,
        c * (syy / s1 - sy[..., :, None] * sy[..., None, :] / s2) / R**2,
        c * (sxy / s1 - sx[..., :, None] * sy[..., None, :] / s2) / R**2,
    )


def eager_blocks(engine, points):
    """Every block of ``engine.blocks(points)``, all computed in one pass."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if isinstance(engine, gm.DiskGreenEngine):
        return _eager_disk_blocks(engine, pts)
    ev = engine.blocks(pts)
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


def eager_f_omega(engine, strengths, config):
    """``f_omega`` for the Kirchhoff-Routh interaction, assembled in one pass."""
    lam = strengths.values
    pts = config.points
    n = len(pts)
    inter_value, inter_grad, inter_hess = _eager_log_pair_terms(pts, lam)
    ev = eager_blocks(engine, pts)
    c = np.outer(lam, lam)
    value = inter_value - np.sum(c * ev["value"])
    grad = (inter_grad.reshape(n, 2)
            - np.einsum("jk,jka->ja", c, ev["grad_x"])
            - np.einsum("jk,jka->ka", c, ev["grad_y"]))
    cross = np.einsum("jk,jkab->jakb", c, ev["hess_xy"])
    hess = inter_hess.reshape(n, 2, n, 2) - cross - cross.transpose(2, 3, 0, 1)
    diag = np.arange(n)
    hess[diag, :, diag, :] -= (np.einsum("jk,jkab->jab", c, ev["hess_xx"])
                               + np.einsum("jk,jkab->kab", c, ev["hess_yy"]))
    m = 2 * n
    H = hess.reshape(m, m)
    return value, grad.reshape(m), 0.5 * (H + H.T)


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
    return gm.build_engine(tilted_domain, 256, backend="integral")


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

    res = gm.f_omega(engine, lam, gm.kirchhoff_routh_interaction(), config)
    value, grad, hess = eager_f_omega(engine, lam, config)
    assert res.value == value
    assert np.array_equal(res.gradient, grad)
    assert np.array_equal(res.hessian, hess)


@pytest.mark.parametrize("n", [1, 3])
def test_integral_evaluation_is_one_solve(monkeypatch, lobed_integral_engine, n):
    # one distance query and one lu_solve for all 6N density columns; the
    # Hessian read solves nothing more
    solves = []
    queries = []
    lu_solve_ = green.lu_solve
    distance = gm.DomainSpec.signed_boundary_distance

    def counting_lu_solve(lu_and_piv, b, *args, **kwargs):
        solves.append(b.shape[1])
        return lu_solve_(lu_and_piv, b, *args, **kwargs)

    def counting_distance(self, points, *args, **kwargs):
        queries.append(len(points))
        return distance(self, points, *args, **kwargs)

    monkeypatch.setattr(green, "lu_solve", counting_lu_solve)
    monkeypatch.setattr(gm.DomainSpec, "signed_boundary_distance", counting_distance)
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
    # batched boundary-distance query, with or without its Hessian
    solves = []
    queries = []
    distance = gm.DomainSpec.signed_boundary_distance

    def counting_distance(self, points, *args, **kwargs):
        queries.append(len(points))
        return distance(self, points, *args, **kwargs)

    monkeypatch.setattr(green, "lu_solve", lambda *args, **kwargs: solves.append(args))
    monkeypatch.setattr(np.linalg, "solve", lambda *args, **kwargs: solves.append(args))
    monkeypatch.setattr(gm.DomainSpec, "signed_boundary_distance", counting_distance)
    config = gm.Configuration(_ring(lobed_engine.domain, n))
    res = gm.f_omega(lobed_engine, gm.VortexStrengths(np.ones(n)),
                     gm.kirchhoff_routh_interaction(), config)
    assert np.all(np.isfinite(res.hessian))
    lobed_engine._traces(config.points)
    assert solves == []
    assert queries == [n, n]
