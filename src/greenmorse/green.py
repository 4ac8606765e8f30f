"""Dirichlet Green function engines for smooth planar domains.

The Green function splits as G = Gamma - H with Gamma the free-space
logarithmic kernel and H the harmonic correction matching Gamma's boundary
values.  Two backends evaluate H, its first and second derivatives, and the
boundary traces of the normal derivative of G:

* ``disk-closed-form`` — exact image-method formulas for circles;
* ``boundary-integral`` — a Nystrom discretization on the curve's uniform
  parameter grid.  The Dirichlet solve uses a second-kind double-layer
  equation (the kernel is smooth on smooth curves, so the plain trapezoid
  rule is spectrally accurate); boundary traces solve the adjoint second-kind
  equation for the normal derivative of G directly, which avoids
  hypersingular operators.  Derivatives in the source point come from
  auxiliary solves sharing one LU factorization; derivatives in the field
  point differentiate the representation kernel, which is smooth at interior
  points.

Each engine evaluates H through one path, ``blocks(points, margin)``: every
H(x_j, x_k) with its derivatives, as a ``GreenEvaluation`` with two leading
(j, k) axes.  It checks each point with one boundary-distance query (a point
no farther than ``margin`` inside is OutsideDomainError; then one closer than
``eval_margin`` is AccuracyDegradedError), computes the j <= k blocks (the
integral engine with one LU solve for all sources x_k) and copies each j > k
block from the (k, j) block with x and y exchanged.  ``regular_part(x, y)`` is
the computed (0, 1) entry of ``blocks([x, y])``; it, ``robin`` and the
boundary traces use margin 0.

Engines are immutable after construction and all evaluations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

from .errors import (
    AccuracyDegradedError,
    DiscretizationFailureError,
    OutsideDomainError,
    SingularityError,
)
from .geometry import TWO_PI, BoundaryCurve, DomainSpec, as_circle

# default node count; a power of two so node-doubling studies stay aligned
DEFAULT_NODES = 256
MIN_NODES = 64
# construction self-test: max interior error reproducing a harmonic probe
SELF_TEST_TOL = 1e-8
CONDITION_LIMIT = 1e12


def gamma(x, y) -> float:
    """Free-space kernel -(1/2pi) ln|x-y|."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.hypot(d[0], d[1])
    if r < 1e-14:
        raise SingularityError("gamma evaluated at coincident points")
    return -np.log(r) / TWO_PI


def grad_gamma(x, y) -> np.ndarray:
    """Gradient of gamma in its first argument."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r2 = d @ d
    if r2 < 1e-28:
        raise SingularityError("grad_gamma evaluated at coincident points")
    return -d / (TWO_PI * r2)


def hess_gamma(x, y) -> np.ndarray:
    """Hessian of gamma in its first argument (trace-free)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r2 = d @ d
    if r2 < 1e-28:
        raise SingularityError("hess_gamma evaluated at coincident points")
    return -(np.eye(2) * r2 - 2.0 * np.outer(d, d)) / (TWO_PI * r2 * r2)


@dataclass(frozen=True)
class GreenEvaluation:
    """Regular part H(x, y) with its first and second derivative blocks; for
    N points every field has two leading (j, k) axes, x = x_j and y = x_k."""

    value: np.ndarray       # (...)
    grad_x: np.ndarray      # (..., 2)
    grad_y: np.ndarray      # (..., 2)
    hess_xx: np.ndarray     # (..., 2, 2)
    hess_yy: np.ndarray     # (..., 2, 2)
    hess_xy: np.ndarray     # (..., 2, 2), [i, j] = d^2 H / dx_i dy_j

    def pair(self, j: int, k: int) -> "GreenEvaluation":
        """The (j, k) entry of a block evaluation: H(x_j, x_k)."""
        return GreenEvaluation(float(self.value[j, k]), self.grad_x[j, k],
                               self.grad_y[j, k], self.hess_xx[j, k],
                               self.hess_yy[j, k], self.hess_xy[j, k])


@dataclass(frozen=True)
class RobinEvaluation:
    """Robin function h(x) = H(x, x) with gradient and Hessian."""

    value: float
    gradient: np.ndarray    # (2,)
    hessian: np.ndarray     # (2, 2)


@dataclass(frozen=True)
class BoundaryTrace:
    """Values of d_{nu_z} G(x, z) at all quadrature nodes z."""

    values: np.ndarray      # (n,)
    nodes: np.ndarray       # (n, 2)
    normals: np.ndarray     # (n, 2)
    weights: np.ndarray     # (n,) arc-length weights


def _matrix2(a, b, c, d) -> np.ndarray:
    """Stack equal-shape arrays into [[a, b], [c, d]] on two trailing axes."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def _mirrored(value, grad_x, grad_y, hess_xx, hess_yy, hess_xy) -> GreenEvaluation:
    """Blocks with each j > k entry copied from the (k, j) entry, x and y exchanged."""
    lower = np.tril_indices(len(value), -1)
    upper = lower[::-1]
    value[lower] = value[upper]
    grad_x[lower], grad_y[lower] = grad_y[upper], grad_x[upper]
    hess_xx[lower], hess_yy[lower] = hess_yy[upper], hess_xx[upper]
    hess_xy[lower] = hess_xy[upper].swapaxes(-1, -2)
    return GreenEvaluation(value, grad_x, grad_y, hess_xx, hess_yy, hess_xy)


class _EngineBase:
    """Shared quadrature geometry for both backends."""

    backend = "abstract"
    # points closer than this to the boundary are outside the accuracy contract
    eval_margin = 0.0

    def __init__(self, domain: DomainSpec, n: int):
        if n < MIN_NODES:
            raise ValueError(f"node count must be >= {MIN_NODES}, got {n}")
        self.domain = domain
        self.node_count = n
        t = TWO_PI * np.arange(n) / n
        curve = domain.boundary
        frame = curve.frame(t)
        d1 = curve.derivative(t, 1)
        self.node_params = t
        self.nodes = frame.point
        self.normals = frame.normal
        self.curvatures = frame.curvature
        self.speeds = np.hypot(d1[:, 0], d1[:, 1])
        self.weights = self.speeds * TWO_PI / n

    def _require_interior(self, points, margin: float = 0.0) -> np.ndarray:
        """The points as an (N, 2) array, after one boundary-distance query each:
        every point is tested against ``margin`` before any against ``eval_margin``."""
        if margin < 0:
            raise ValueError("margin must be >= 0")
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        dists = []
        for i, p in enumerate(pts):
            dists.append(self.domain.signed_boundary_distance(p))
            if dists[-1] <= margin:
                raise OutsideDomainError(
                    f"point {i} at {tuple(p)} is not more than {margin:.3g} inside the domain")
        i = int(np.argmin(dists))
        if dists[i] < self.eval_margin:
            bound = float(np.exp(-np.pi * self.node_count * dists[i]
                                 / self.domain.boundary.perimeter))
            raise AccuracyDegradedError(
                f"point {i} is {dists[i]:.3g} from the boundary, inside the accuracy "
                f"contract distance {self.eval_margin:.3g}", estimated_bound=bound)
        return pts

    def robin(self, x) -> RobinEvaluation:
        """h(x) = H(x, x) via the chain rule on the diagonal restriction."""
        ev = self.blocks([x]).pair(0, 0)
        grad = ev.grad_x + ev.grad_y
        hess = ev.hess_xx + ev.hess_yy + ev.hess_xy + ev.hess_xy.T
        return RobinEvaluation(ev.value, grad, 0.5 * (hess + hess.T))

    def green(self, x, y) -> float:
        """G(x, y) = Gamma(x, y) - H(x, y); positive for interior points."""
        return gamma(x, y) - self.regular_part(x, y).value


class DiskGreenEngine(_EngineBase):
    """Closed-form engine for a circle of any center and radius.

    For the unit disk H(x, y) = -(1/4pi) ln(1 - 2 x.y + |x|^2 |y|^2); general
    circles reduce to it by translation and scaling, which adds the constant
    -(1/2pi) ln R to H.  The boundary trace is the (negative) Poisson kernel.
    """

    backend = "disk-closed-form"

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
        super().__init__(domain, n)
        info = as_circle(domain.boundary)
        if info is None:
            raise ValueError("DiskGreenEngine requires a circular boundary")
        self.center, self.radius = info

    def _reduce(self, points):
        return (points - self.center) / self.radius

    def blocks(self, points, margin: float = 0.0) -> GreenEvaluation:
        xt = self._reduce(self._require_interior(points, margin))
        R = self.radius
        X = xt[:, None, :]          # x = x_j
        Y = xt[None, :, :]          # y = x_k
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
        s1 = s[..., None]           # s broadcast over 2 x 2 blocks
        s2 = s1 * s1
        return _mirrored(
            c * np.log(s[..., 0]) - np.log(R) / TWO_PI,
            c * sx / s / R,
            c * sy / s / R,
            c * (sxx / s1 - sx[..., :, None] * sx[..., None, :] / s2) / R**2,
            c * (syy / s1 - sy[..., :, None] * sy[..., None, :] / s2) / R**2,
            c * (sxy / s1 - sx[..., :, None] * sy[..., None, :] / s2) / R**2,
        )

    def regular_part(self, x, y) -> GreenEvaluation:
        return self.blocks([x, y]).pair(0, 1)

    def boundary_normal_derivative(self, x) -> BoundaryTrace:
        xt = self._reduce(self._require_interior(x)[0])
        zt = (self.nodes - self.center) / self.radius
        r2 = np.sum((zt - xt) ** 2, axis=1)
        values = -(1.0 - xt @ xt) / (TWO_PI * r2) / self.radius
        return BoundaryTrace(values, self.nodes, self.normals, self.weights)

    def trace_gradient(self, x) -> np.ndarray:
        """d/dx of d_{nu_z} G(x, z) at every node, shape (n, 2)."""
        xt = self._reduce(self._require_interior(x)[0])
        zt = (self.nodes - self.center) / self.radius
        d = xt - zt
        r2 = np.sum(d * d, axis=1)
        coef = 2.0 / TWO_PI
        grad = coef * (xt[None, :] / r2[:, None]
                       + (1.0 - xt @ xt) * d / (r2**2)[:, None])
        return grad / self.radius**2


class IntegralGreenEngine(_EngineBase):
    """Nystrom boundary-integral engine on the curve's uniform parameter grid."""

    backend = "boundary-integral"

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
        super().__init__(domain, n)
        z, nu, kappa, w = self.nodes, self.normals, self.curvatures, self.weights
        dx = z[None, :, 0] - z[:, None, 0]
        dy = z[None, :, 1] - z[:, None, 1]
        r2 = dx * dx + dy * dy
        np.fill_diagonal(r2, 1.0)
        # double-layer kernel (z_j - z_i).nu_j / |z_j - z_i|^2; the diagonal
        # limit on a smooth curve is kappa/2
        bare = (dx * nu[None, :, 0] + dy * nu[None, :, 1]) / r2
        np.fill_diagonal(bare, kappa / 2.0)
        K = -(bare * w[None, :]) / TWO_PI
        dirichlet = K - 0.5 * np.eye(n)
        # adjoint kernel (z_i - z_j).nu_i / |z_i - z_j|^2, same diagonal limit
        bare_adj = -(dx * nu[:, None, 0] + dy * nu[:, None, 1]) / r2
        np.fill_diagonal(bare_adj, kappa / 2.0)
        Kp = -(bare_adj * w[None, :]) / TWO_PI
        trace_op = 0.5 * np.eye(n) - Kp

        anorm = np.abs(dirichlet).sum(axis=0).max()
        self._lu_dirichlet = lu_factor(dirichlet)
        self._lu_trace = lu_factor(trace_op)
        rcond = lapack.dgecon(self._lu_dirichlet[0], anorm, norm="1")[0]
        if rcond <= 0 or 1.0 / rcond > CONDITION_LIMIT:
            raise DiscretizationFailureError(
                f"discrete Dirichlet system condition estimate "
                f"{1.0 / max(rcond, 1e-300):.2e} exceeds {CONDITION_LIMIT:.0e}")

        self.eval_margin = 0.05 * domain.diameter
        self._complex_nodes = z[:, 0] + 1j * z[:, 1]
        self._moment_weights = w * (nu[:, 0] + 1j * nu[:, 1])
        self._self_test()

    def _self_test(self):
        """Reproduce the boundary data of the harmonic probe Re z^2 inside."""
        z = self.nodes
        data = z[:, 0] ** 2 - z[:, 1] ** 2
        mu = lu_solve(self._lu_dirichlet, data)
        centroid = self.domain.boundary.centroid
        probes = []
        for shrink in (0.3, 0.55):
            probes.append(centroid + shrink * (z[:: max(1, len(z) // 8)] - centroid))
        probes = np.vstack(probes)
        dists = np.array([self.domain.boundary.distance_to_boundary(p) for p in probes])
        threshold = min(0.1, 0.45 * float(dists.max()))
        probes = probes[dists >= threshold]
        values = self._representation(mu[:, None], probes)[0][:, 0].real
        worst = float(np.max(np.abs(values - (probes[:, 0] ** 2 - probes[:, 1] ** 2))))
        if worst > SELF_TEST_TOL:
            raise DiscretizationFailureError(
                f"construction self-test error {worst:.3e} exceeds {SELF_TEST_TOL:.1e}; "
                f"increase the node count")
        self.self_test_error = worst

    # -- interior representation ------------------------------------------------

    def _representation(self, densities: np.ndarray, points: np.ndarray):
        """Complex moments of the double-layer potential at interior points.

        Returns (f0, f1, f2), each of shape (points, density columns): the
        value of the associated holomorphic potential and its first two
        derivatives; the harmonic value is Re f0.
        """
        xc = points[:, 0] + 1j * points[:, 1]
        inv = 1.0 / (self._complex_nodes[None, :] - xc[:, None])
        base = self._moment_weights * inv
        f0 = -(base @ densities) / TWO_PI
        base *= inv
        f1 = -(base @ densities) / TWO_PI
        base *= inv
        f2 = -2.0 * (base @ densities) / TWO_PI
        return f0, f1, f2

    def blocks(self, points, margin: float = 0.0) -> GreenEvaluation:
        pts = self._require_interior(points, margin)
        n_pts = len(pts)
        d = self.nodes[:, None, :] - pts[None, :, :]
        r2 = np.sum(d * d, axis=2)
        dx, dy = d[..., 0], d[..., 1]
        # boundary data for H(., x_k) and its derivatives in x_k, six per point
        cols = np.stack([
            -0.5 * np.log(r2) / TWO_PI,
            dx / r2 / TWO_PI,
            dy / r2 / TWO_PI,
            (2.0 * dx * dx / r2 - 1.0) / r2 / TWO_PI,
            (2.0 * dx * dy / r2) / r2 / TWO_PI,
            (2.0 * dy * dy / r2 - 1.0) / r2 / TWO_PI,
        ], axis=2)
        mu = lu_solve(self._lu_dirichlet, cols.reshape(self.node_count, 6 * n_pts))
        # [j, k, c]: moment at field point x_j of density column c for source x_k
        f0, f1, f2 = (f.reshape(n_pts, n_pts, 6) for f in self._representation(mu, pts))
        return _mirrored(
            f0[..., 0].real.copy(),
            np.stack([f1[..., 0].real, -f1[..., 0].imag], axis=-1),
            np.stack([f0[..., 1].real, f0[..., 2].real], axis=-1),
            _matrix2(f2[..., 0].real, -f2[..., 0].imag, -f2[..., 0].imag, -f2[..., 0].real),
            _matrix2(f0[..., 3].real, f0[..., 4].real, f0[..., 4].real, f0[..., 5].real),
            _matrix2(f1[..., 1].real, f1[..., 2].real, -f1[..., 1].imag, -f1[..., 2].imag),
        )

    def regular_part(self, x, y) -> GreenEvaluation:
        return self.blocks([x, y]).pair(0, 1)

    def boundary_normal_derivative(self, x) -> BoundaryTrace:
        x = self._require_interior(x)[0]
        d = self.nodes - x
        r2 = np.sum(d * d, axis=1)
        rhs = -(d[:, 0] * self.normals[:, 0] + d[:, 1] * self.normals[:, 1]) / r2 / TWO_PI
        values = lu_solve(self._lu_trace, rhs)
        return BoundaryTrace(values, self.nodes, self.normals, self.weights)

    def trace_gradient(self, x) -> np.ndarray:
        x = self._require_interior(x)[0]
        d = self.nodes - x
        r2 = np.sum(d * d, axis=1)
        dn = d[:, 0] * self.normals[:, 0] + d[:, 1] * self.normals[:, 1]
        rhs = np.stack([
            (self.normals[:, 0] / r2 - 2.0 * dn * d[:, 0] / r2**2) / TWO_PI,
            (self.normals[:, 1] / r2 - 2.0 * dn * d[:, 1] / r2**2) / TWO_PI,
        ], axis=1)
        return lu_solve(self._lu_trace, rhs)


def build_engine(domain: DomainSpec, nodes: int = DEFAULT_NODES,
                 backend: str = "auto"):
    """Construct a Green engine for the domain.

    ``backend`` is "auto" (closed form for circles, integral otherwise),
    "disk", or "integral".  The integral backend runs a conditioning check
    and an interior self-test at construction.
    """
    if backend not in ("auto", "disk", "integral"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "disk" or (backend == "auto" and domain.is_disk()):
        return DiskGreenEngine(domain, nodes)
    return IntegralGreenEngine(domain, nodes)
