"""Dirichlet Green function engines for smooth planar domains.

The Green function splits as G = Gamma - H with Gamma the free-space
logarithmic kernel and H the harmonic correction matching Gamma's boundary
values.  Three engines evaluate H, its first and second derivatives, and the
boundary traces of the normal derivative of G.  ``build_engine`` selects one
of the first two; the third is a reference class, built only by calling it:

* ``disk-closed-form`` — exact image-method formulas for circles;
* ``conformal-map`` — the engine for every other domain: closed forms in
  the Riemann map F of the domain onto the unit disk,
  H(x, y) = (1/2pi) ln|(F(x) - F(y)) / (x - y)| - (1/2pi) ln|1 - F(x) conj F(y)|,
  and the Poisson kernel pulled back through F for the traces.  F comes from
  one Kerzman-Stein solve per domain (GMRES, closed by fixed-point sweeps,
  each step one product of an n x n matrix with two columns); its
  derivatives at N points are one (N, n) @ (n, 4) Cauchy product.  No
  evaluation solves a linear system.  It needs only numpy;
* ``boundary-integral`` (``IntegralGreenEngine``) — a Nystrom discretization
  on the curve's uniform parameter grid, the reference the tests and
  ``green-check`` compare against.  The Dirichlet solve uses a second-kind
  double-layer equation (the kernel is smooth on smooth curves, so the plain
  trapezoid rule is spectrally accurate).  Boundary traces solve the adjoint
  equation (1/2 I - K') v = b for the normal derivative of G, which avoids
  hypersingular operators; the discrete K' is W^-1 K^T W, W = diag(weights),
  so with the Dirichlet matrix D = K - 1/2 I a trace is the transposed solve
  v = -D^-T (W b) / W.  Derivatives in the source point come from auxiliary
  right-hand sides solved with the one LU factorization of D; derivatives in
  the field point differentiate the representation kernel, which is smooth at
  interior points.  It imports ``scipy.linalg`` when it is built, and solves
  through the module-level ``lu_solve``.

Each engine evaluates H through one path, ``blocks(points)``: every
H(x_j, x_k) with its derivatives, as a ``GreenEvaluation`` with two leading
(j, k) axes.  It checks the points with ``require_interior``, one batched
boundary-distance query for all points and the one rule of where a point
may be: a point is admissible iff its boundary distance d > ``eval_margin``
(OutsideDomainError for d <= 0 or NaN, else AccuracyDegradedError).  The
query passes ``exact_within = eval_margin``, so only points that could lie
within that distance of the boundary get the exact nearest-point solve; the
others report a lower bound with the exact sign, and every decision, the
point named and the message are those of the exact distance.
``eval_margin`` is 0.05 * diameter on the conformal and integral engines,
1e-4 * diameter on the disk (``DiskGreenEngine``).  It computes the j <= k
blocks.  The integral engine computes all of them with the call, from one
solve for 6N right-hand sides, Gamma(., x_k) and its two first and three
second derivatives in x_k for every source, and one product for the
moments of orders 0, 1 and 2.  The disk and conformal engines compute the
value and first-derivative blocks with the call (the conformal engine from
F and its first three derivatives at the points) and the second-derivative
blocks on the first read of any of them, from what the call kept; the
result is cached.  Each j > k block is copied from the (k, j) block with x
and y exchanged.
``regular_part(x, y)`` is the computed (0, 1) entry of ``blocks([x, y])``;
it, ``robin`` and the boundary traces check their points by the same rule.
``_traces(points)`` gives the traces of N points and their gradients from
one query and one evaluation (the integral engine with one solve for 3N
right-hand sides); ``boundary_normal_derivative`` and ``trace_gradient`` are
its single-point forms.

Engines are immutable after construction and all evaluations are pure; a
second-derivative read fills a cache of the evaluation and never raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    AccuracyDegradedError,
    DiscretizationFailureError,
    OutsideDomainError,
    SingularityError,
)
from .geometry import TWO_PI, DomainSpec, as_circle, contains

# default node count; a power of two so node-doubling studies stay aligned
DEFAULT_NODES = 256
MIN_NODES = 64
# construction self-tests: the largest error the integral engine may show
# reproducing a harmonic probe, and the conformal engine on its checks
SELF_TEST_TOL = 1e-8
CONDITION_LIMIT = 1e12
# Kerzman-Stein solve: GMRES stops at this relative residual estimate and the
# closing fixed-point sweeps at this relative step; past this many products
# with the operator the build fails
FIXED_POINT_TOL = 2e-15
PRODUCT_CAP = 100


def lu_solve(lu_and_piv, b, trans=0):
    """``scipy.linalg.lu_solve``, imported on first use so that only the
    integral engine loads ``scipy.linalg``."""
    from scipy.linalg import lu_solve as solve

    return solve(lu_and_piv, b, trans=trans)


def _kerzman_stein_solve(kernel, rhs) -> tuple:
    """S with (I - K) S = rhs, K the operator that ``kernel`` applies, with
    the number of products with K and the relative step of the last sweep.
    GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986)) runs on C^n
    taken as the real space R^2n, with the inner product Re<a, b> and Arnoldi
    with one reorthogonalisation, until its residual estimate is at most
    FIXED_POINT_TOL * |rhs|; then sweeps S <- rhs + K S end where a relative
    step is at most FIXED_POINT_TOL.  Past PRODUCT_CAP products it raises
    DiscretizationFailureError."""
    beta = float(np.linalg.norm(rhs))
    basis = np.empty((PRODUCT_CAP + 1, len(rhs)), dtype=complex)
    real_basis = basis.view(float)          # the same vectors in R^2n
    basis[0] = rhs / beta
    # the Arnoldi Hessenberg matrix, made upper triangular column by column by
    # Givens rotations (cosine, sine), and beta e_1 rotated alike: the modulus
    # of its entry below the triangle is the residual estimate.  (|H y - beta
    # e_1| of a least-squares y stalls near 1e-15 |rhs|, and that solve left
    # the 8:1 ellipse's blocks 20 times farther from the Nystrom engine's.)
    tri = np.zeros((PRODUCT_CAP + 1, PRODUCT_CAP))
    rotations = np.zeros((PRODUCT_CAP, 2))
    g = np.zeros(PRODUCT_CAP + 1)
    g[0] = beta
    for j in range(PRODUCT_CAP):
        v = basis[j] - kernel(basis[j])
        col = tri[: j + 2, j]
        for _ in range(2):                  # Gram-Schmidt, then once more
            h = real_basis[: j + 1] @ v.view(float)
            v -= h @ basis[: j + 1]
            col[:-1] += h
        col[-1] = norm = np.linalg.norm(v)
        for i, (cos, sin) in enumerate(rotations[:j]):
            col[i], col[i + 1] = cos * col[i] + sin * col[i + 1], cos * col[i + 1] - sin * col[i]
        r = np.hypot(col[j], col[j + 1])
        cos, sin = rotations[j] = col[j] / r, col[j + 1] / r
        col[j], col[j + 1] = r, 0.0
        g[j], g[j + 1] = cos * g[j], -sin * g[j]
        if abs(g[j + 1]) <= FIXED_POINT_TOL * beta:
            break
        basis[j + 1] = v / norm
    products = j + 1
    y = np.zeros(products)
    for i in reversed(range(products)):
        y[i] = (g[i] - tri[i, i + 1: products] @ y[i + 1:]) / tri[i, i]
    s = y @ basis[:products]
    while products < PRODUCT_CAP:
        step = rhs + kernel(s) - s
        products += 1
        s = s + step
        residual = float(np.max(np.abs(step)) / np.max(np.abs(s)))
        if residual <= FIXED_POINT_TOL:
            return s, products, residual
    raise DiscretizationFailureError(
        f"Kerzman-Stein solve did not converge in {PRODUCT_CAP} operator products")


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
    N points every field has two leading (j, k) axes, x = x_j and y = x_k.

    ``value``, ``grad_x`` and ``grad_y`` are computed when the evaluation is
    made; ``hess_xx``, ``hess_yy`` and ``hess_xy`` come from the private thunk
    ``_hessians`` on the first read of any of them and are then cached.
    """

    value: np.ndarray       # (...)
    grad_x: np.ndarray      # (..., 2)
    grad_y: np.ndarray      # (..., 2)
    # () -> (hess_xx (..., 2, 2), hess_yy (..., 2, 2), hess_xy (..., 2, 2)),
    # hess_xy[i, j] = d^2 H / dx_i dy_j
    _hessians: Callable = field(repr=False, compare=False)

    @cached_property
    def _hessian_blocks(self) -> tuple:
        return self._hessians()

    @property
    def hess_xx(self) -> np.ndarray:
        return self._hessian_blocks[0]

    @property
    def hess_yy(self) -> np.ndarray:
        return self._hessian_blocks[1]

    @property
    def hess_xy(self) -> np.ndarray:
        return self._hessian_blocks[2]

    def pair(self, j: int, k: int) -> "GreenEvaluation":
        """The (j, k) entry of a block evaluation: H(x_j, x_k)."""
        return GreenEvaluation(float(self.value[j, k]), self.grad_x[j, k], self.grad_y[j, k],
                               lambda: tuple(h[j, k] for h in self._hessian_blocks))


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
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _map_centre(domain: DomainSpec, margin: float) -> np.ndarray:
    """A point well inside the domain: the centroid of the boundary samples
    if it lies more than ``margin`` inside, else the deepest point of a
    16 x 16 grid over the samples' bounding box."""
    centroid = domain.boundary.centroid
    if contains(domain, centroid, margin):
        return centroid
    pts = domain.boundary._dense[1].point
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    u = (np.arange(16) + 0.5) / 16
    grid = lo + (hi - lo) * np.stack(np.meshgrid(u, u), axis=-1).reshape(-1, 2)
    return grid[np.argmax(domain.signed_boundary_distance(grid))]


def _mirrored(value, grad_x, grad_y, hessians) -> GreenEvaluation:
    """Blocks with each j > k entry copied from the (k, j) entry, x and y
    exchanged: the first-order blocks now, the Hessian blocks that the thunk
    ``hessians`` returns on first read."""
    k = np.arange(len(value))
    lower = np.nonzero(k[:, None] > k)     # np.tril_indices(N, -1), in a fifth of the time
    upper = lower[::-1]
    value[lower] = value[upper]
    grad_x[lower], grad_y[lower] = grad_y[upper], grad_x[upper]

    def mirrored_hessians():
        hess_xx, hess_yy, hess_xy = hessians()
        hess_xx[lower], hess_yy[lower] = hess_yy[upper], hess_xx[upper]
        hess_xy[lower] = hess_xy[upper].swapaxes(-1, -2)
        return hess_xx, hess_yy, hess_xy

    return GreenEvaluation(value, grad_x, grad_y, mirrored_hessians)


class _EngineBase:
    """Shared quadrature geometry for every engine."""

    backend = "abstract"

    def __init__(self, domain: DomainSpec, n: int):
        if n < MIN_NODES:
            raise ValueError(f"node count must be >= {MIN_NODES}, got {n}")
        self.domain = domain
        self.node_count = n
        t = TWO_PI * np.arange(n) / n
        frame = domain.boundary.frame(t)
        d1 = frame.velocity
        self.node_params = t
        self.nodes = frame.point
        self.normals = frame.normal
        self.curvatures = frame.curvature
        self.speeds = np.hypot(d1[:, 0], d1[:, 1])
        self._velocity = d1[:, 0] + 1j * d1[:, 1]      # z'(t) at the nodes
        self.weights = self.speeds * TWO_PI / n

    def require_interior(self, points) -> np.ndarray:
        """The points as an (N, 2) array, after one batched boundary-distance
        query: the boundary rule of every evaluation.  The lowest-index point
        with boundary distance d <= 0 (or NaN) is OutsideDomainError; else the
        point nearest the boundary, if d <= ``eval_margin`` (each engine's
        accuracy contract), is AccuracyDegradedError."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        # exact wherever the rule could decide
        dists = self.domain.signed_boundary_distance(pts, self.eval_margin)
        outside = np.flatnonzero(~(dists > 0.0))
        if len(outside):
            i = outside[0]
            raise OutsideDomainError(f"point {i} at {tuple(pts[i])} is not inside the domain")
        i = int(np.argmin(dists))
        if not dists[i] > self.eval_margin:
            bound = float(np.exp(-np.pi * self.node_count * dists[i]
                                 / self.domain.boundary.perimeter))
            raise AccuracyDegradedError(
                f"point {i} is {dists[i]:.3g} from the boundary, not beyond the accuracy "
                f"contract distance {self.eval_margin:.3g}", estimated_bound=bound)
        return pts

    @property
    def diagnostics(self) -> dict:
        """Numbers the engine computed about its own accuracy."""
        return {"eval_margin": self.eval_margin}

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
    The log's argument cancels near the circle, so ``eval_margin`` is
    1e-4 * diameter: the Robin function's derivatives are off by 4e-10
    (relative) there, by 2e-5 at 5e-7 * diameter, and the argument rounds
    to 0 near 5e-10 * diameter.
    """

    backend = "disk-closed-form"

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
        super().__init__(domain, n)
        info = as_circle(domain.boundary)
        if info is None:
            raise ValueError("DiskGreenEngine requires a circular boundary")
        self.center, self.radius = info
        self.eval_margin = 1e-4 * domain.diameter

    def _reduce(self, points):
        return (points - self.center) / self.radius

    def blocks(self, points) -> GreenEvaluation:
        xt = self._reduce(self.require_interior(points))
        R = self.radius
        X = xt[:, None, :]          # x = x_j
        Y = xt[None, :, :]          # y = x_k
        xx = np.sum(X * X, axis=-1, keepdims=True)
        yy = np.sum(Y * Y, axis=-1, keepdims=True)
        s = 1.0 - 2.0 * np.sum(X * Y, axis=-1, keepdims=True) + xx * yy
        sx = -2.0 * Y + 2.0 * X * yy
        sy = -2.0 * X + 2.0 * Y * xx
        c = -1.0 / (2.0 * TWO_PI)

        def hessians():
            eye = np.eye(2)
            sxx = 2.0 * yy[..., None] * eye
            syy = 2.0 * xx[..., None] * eye
            sxy = -2.0 * eye + 4.0 * X[..., :, None] * Y[..., None, :]
            s1 = s[..., None]       # s broadcast over 2 x 2 blocks
            s2 = s1 * s1
            return (
                c * (sxx / s1 - sx[..., :, None] * sx[..., None, :] / s2) / R**2,
                c * (syy / s1 - sy[..., :, None] * sy[..., None, :] / s2) / R**2,
                c * (sxy / s1 - sx[..., :, None] * sy[..., None, :] / s2) / R**2,
            )

        return _mirrored(c * np.log(s[..., 0]) - np.log(R) / TWO_PI,
                         c * sx / s / R, c * sy / s / R, hessians)

    def regular_part(self, x, y) -> GreenEvaluation:
        return self.blocks([x, y]).pair(0, 1)

    def _traces(self, points):
        """d_{nu_z} G(x_m, z) at every node z, (N, n), and its gradient in
        x_m, (N, n, 2): the Poisson kernel and its derivative."""
        xt = self._reduce(self.require_interior(points))
        zt = (self.nodes - self.center) / self.radius
        d = xt[:, None, :] - zt[None, :, :]
        r2 = np.sum(d * d, axis=2)
        s = 1.0 - np.sum(xt * xt, axis=1)
        values = -s[:, None] / (TWO_PI * r2) / self.radius
        grads = 2.0 / TWO_PI * (xt[:, None, :] / r2[..., None]
                                + s[:, None, None] * d / (r2**2)[..., None])
        return values, grads / self.radius**2

    def boundary_normal_derivative(self, x) -> BoundaryTrace:
        return BoundaryTrace(self._traces(x)[0][0], self.nodes, self.normals, self.weights)

    def trace_gradient(self, x) -> np.ndarray:
        """d/dx of d_{nu_z} G(x, z) at every node, shape (n, 2)."""
        return self._traces(x)[1][0]


class IntegralGreenEngine(_EngineBase):
    """Nystrom boundary-integral engine on the curve's uniform parameter grid."""

    backend = "boundary-integral"

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
        from scipy.linalg import lapack, lu_factor

        super().__init__(domain, n)
        z, nu, kappa, w = self.nodes, self.normals, self.curvatures, self.weights
        # D = K - 1/2 I, K the double-layer kernel -w_j (z_j - z_i).nu_j
        # / (2pi |z_j - z_i|^2), whose diagonal limit on a smooth curve is
        # -w_j kappa_j / 4pi
        dx = z[None, :, 0] - z[:, None, 0]
        dy = z[None, :, 1] - z[:, None, 1]
        r2 = dx * dx + dy * dy
        np.fill_diagonal(r2, 1.0)
        bare = (dx * nu[None, :, 0] + dy * nu[None, :, 1]) / r2
        np.fill_diagonal(bare, kappa / 2.0)
        dirichlet = -(bare * w[None, :]) / TWO_PI - 0.5 * np.eye(n)
        anorm = np.linalg.norm(dirichlet, 1)
        if not np.isfinite(anorm):
            raise DiscretizationFailureError("discrete Dirichlet system has non-finite entries")
        self._lu_dirichlet = lu_factor(dirichlet, check_finite=False)
        rcond = lapack.dgecon(self._lu_dirichlet[0], anorm, norm="1")[0]
        # 1-norm condition estimate of the discrete Dirichlet system
        self.condition_estimate = 1.0 / max(rcond, 1e-300)
        if rcond <= 0 or self.condition_estimate > CONDITION_LIMIT:
            raise DiscretizationFailureError(
                f"discrete Dirichlet system condition estimate "
                f"{self.condition_estimate:.2e} exceeds {CONDITION_LIMIT:.0e}")

        self.eval_margin = 0.05 * domain.diameter
        self._complex_nodes = z[:, 0] + 1j * z[:, 1]
        self._moment_weights = w * (nu[:, 0] + 1j * nu[:, 1])
        self._self_test()

    def _self_test(self):
        """Reproduce the boundary data of the harmonic probe Re z^2 inside."""
        z = self.nodes
        data = z[:, 0] ** 2 - z[:, 1] ** 2
        mu = lu_solve(self._lu_dirichlet, data)
        centre = _map_centre(self.domain, self.eval_margin)
        probes = []
        for shrink in (0.3, 0.55):
            probes.append(centre + shrink * (z[:: max(1, len(z) // 8)] - centre))
        probes = np.vstack(probes)
        dists = self.domain.boundary.nearest_parameter(probes)[1]
        threshold = min(0.1, 0.45 * float(dists.max()))
        probes = probes[dists >= threshold]
        values = self._moments(probes, mu[:, None])[0, :, 0].real
        worst = float(np.max(np.abs(values - (probes[:, 0] ** 2 - probes[:, 1] ** 2))))
        if worst > SELF_TEST_TOL:
            raise DiscretizationFailureError(
                f"construction self-test error {worst:.3e} exceeds {SELF_TEST_TOL:.1e}; "
                f"increase the node count")
        self.self_test_error = worst

    @property
    def diagnostics(self) -> dict:
        return {"condition_estimate": self.condition_estimate,
                "self_test_error": self.self_test_error,
                "eval_margin": self.eval_margin}

    # -- interior representation ------------------------------------------------

    def _moments(self, points: np.ndarray, densities: np.ndarray) -> np.ndarray:
        """The holomorphic potential of the double-layer densities (nodes,
        columns) and its first two derivatives at the (P, 2) points, stacked
        as (3, P, columns); the harmonic value is Re of the first.  The m-th
        derivative is -m! / 2pi times the moment with the kernel
        W nu / (z - x)^(m + 1)."""
        xc = points[:, 0] + 1j * points[:, 1]
        inv = 1.0 / (self._complex_nodes[None, :] - xc[:, None])
        b0 = self._moment_weights * inv
        b1 = b0 * inv
        return -(np.stack([b0, b1, 2.0 * (b1 * inv)]) @ densities) / TWO_PI

    def blocks(self, points) -> GreenEvaluation:
        pts = self.require_interior(points)
        n_pts = len(pts)
        d = self.nodes[:, None, :] - pts[None, :, :]
        r2 = np.sum(d * d, axis=2)
        dx, dy = d[..., 0], d[..., 1]
        # [node, k, c]: boundary data of H(., x_k) (c = 0), its two first
        # (c = 1, 2) and three second (c = 3, 4, 5) derivatives in x_k
        columns = np.stack([
            -0.5 * np.log(r2),
            dx / r2,
            dy / r2,
            (2.0 * dx * dx / r2 - 1.0) / r2,
            (2.0 * dx * dy / r2) / r2,
            (2.0 * dy * dy / r2 - 1.0) / r2,
        ], axis=2) / TWO_PI
        mu = lu_solve(self._lu_dirichlet, columns.reshape(self.node_count, 6 * n_pts))
        # [j, k, c]: moment at field point x_j of density column c for source x_k
        f0, f1, f2 = self._moments(pts, mu).reshape(3, n_pts, n_pts, 6)
        hessians = (
            _matrix2(f2[..., 0].real, -f2[..., 0].imag, -f2[..., 0].imag, -f2[..., 0].real),
            _matrix2(f0[..., 3].real, f0[..., 4].real, f0[..., 4].real, f0[..., 5].real),
            _matrix2(f1[..., 1].real, f1[..., 2].real, -f1[..., 1].imag, -f1[..., 2].imag),
        )
        return _mirrored(
            f0[..., 0].real.copy(),
            np.stack([f1[..., 0].real, -f1[..., 0].imag], axis=-1),
            np.stack([f0[..., 1].real, f0[..., 2].real], axis=-1),
            lambda: hessians,
        )

    def regular_part(self, x, y) -> GreenEvaluation:
        return self.blocks([x, y]).pair(0, 1)

    def _traces(self, points):
        """d_{nu_z} G(x_m, z) at every node z, (N, n), and its gradient in
        x_m, (N, n, 2), from one transposed Dirichlet solve for 3N columns."""
        pts = self.require_interior(points)
        nu, w = self.normals, self.weights
        d = self.nodes[:, None, :] - pts[None, :, :]
        r2 = np.sum(d * d, axis=2)
        dn = d[..., 0] * nu[:, None, 0] + d[..., 1] * nu[:, None, 1]
        # [z, m, c]: the trace's right-hand side (c = 0) and its x_m gradient
        rhs = np.stack([-dn / r2,
                        nu[:, None, 0] / r2 - 2.0 * dn * d[..., 0] / r2**2,
                        nu[:, None, 1] / r2 - 2.0 * dn * d[..., 1] / r2**2], axis=2) / TWO_PI
        # (1/2 I - K') v = b  <=>  D^T (W v) = -W b
        sol = lu_solve(self._lu_dirichlet, -w[:, None] * rhs.reshape(self.node_count, -1),
                       trans=1) / w[:, None]
        sol = sol.reshape(self.node_count, len(pts), 3).transpose(1, 0, 2)
        return sol[..., 0], sol[..., 1:]

    def boundary_normal_derivative(self, x) -> BoundaryTrace:
        return BoundaryTrace(self._traces(x)[0][0], self.nodes, self.normals, self.weights)

    def trace_gradient(self, x) -> np.ndarray:
        return self._traces(x)[1][0]


class ConformalGreenEngine(_EngineBase):
    """Riemann-map engine: H and the boundary traces in closed form through
    the conformal map F of the domain onto the unit disk with F(a) = 0, a the
    centroid of the boundary samples, or a grid point deeper inside if the
    centroid is not ``eval_margin`` inside (``_map_centre``).

    F comes from one Kerzman-Stein solve on the nodes z_j (Kerzman & Trummer,
    J. Comput. Appl. Math. 14 (1986)): (I - K) S = conj(T / (2 pi i (z - a)))
    with T the unit tangent and K_ij = w_j [T_j / (2 pi i (z_j - z_i))
    - conj(T_i / (2 pi i (z_i - z_j)))], K_ii = 0; then F = S T / (i conj S)
    on the boundary.  K is never formed: with R_ij = 1 / (z_i - z_j) (zero
    diagonal), K S = R (c1 S) - c2 conj(R conj(w S)), c1 = -z' / (n i) and
    c2 = conj(T / (2 pi i)), so a product with K is one product of R with two
    columns.  ``_kerzman_stein_solve`` runs GMRES and closes with fixed-point
    sweeps S <- rhs + K S; ``iterations`` counts its products with K (6 on
    the lobed fixture, 16 on an 8:1 ellipse at 512 nodes).  A solve that
    needs more than PRODUCT_CAP products fails the build.

    The derivatives dF/dz up to the third on the boundary come from spectral
    differentiation of F(z(t)) in t, divided by z'.  Their values at interior
    points are Cauchy integrals with the one kernel 1/(z - x): a single
    (N, n) @ (n, 4) product.  Then (C. C. Lin, PNAS 27 (1941))
    H(x, y) = (1/2pi) ln|Q(x, y)| - (1/2pi) ln|1 - F(x) conj F(y)| with the
    divided difference Q = (F(x) - F(y)) / (x - y), which is F'(x) at x = y
    (for pairs closer than eval_margin / 2, where the differences in Q and
    its derivatives would cancel, integrals of F', F'' and F''' along the
    segment from y to x), and the Poisson kernel pulled back through F,
    d_nu G(x, z) = -|F'(z)| (1 - |F(x)|^2) / (2 pi |F(z) - F(x)|^2).

    The construction self-test checks what |F| = 1 on the boundary, true by
    construction, cannot: the Cauchy integral of F at points outside the
    domain, some of them ``eval_margin`` out (zero for an analytic F, so what
    it reads is the error of an evaluation at that distance), |F(a)|, and the
    relative residual of the solve (the last sweep's relative step).
    """

    backend = "conformal-map"

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
        super().__init__(domain, n)
        self.eval_margin = 0.05 * domain.diameter
        z = self.nodes[:, 0] + 1j * self.nodes[:, 1]
        dz = self._velocity
        tangent = dz / self.speeds
        w = self.weights
        centre = _map_centre(domain, self.eval_margin)
        a = complex(centre[0], centre[1])
        r = np.subtract.outer(z, z)
        r.flat[:: n + 1] = 1.0
        np.divide(1.0, r, out=r)
        r.flat[:: n + 1] = 0.0
        c1 = 1j * dz / n
        c2 = np.conj(tangent / (2j * np.pi))
        rhs = np.conj(tangent / (2j * np.pi * (z - a)))

        def kernel(s):
            """K s."""
            p = r @ np.stack([c1 * s, np.conj(w * s)], axis=1)
            return p[:, 0] - c2 * np.conj(p[:, 1])

        s, self.iterations, self.solve_residual = _kerzman_stein_solve(kernel, rhs)

        boundary_map = s * tangent / (1j * np.conj(s))
        k = np.fft.fftfreq(n, 1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        jets = [boundary_map]
        for _ in range(3):
            jets.append(np.fft.ifft(1j * k * np.fft.fft(jets[-1])) / dz)
        self._complex_nodes = z
        self._boundary_map = boundary_map
        self._boundary_speed = np.abs(jets[1])          # |F'| at the nodes
        # Cauchy weights: column m times 1/(z - x), summed, is F^(m)(x)
        self._jets = np.stack(jets, axis=1) * (dz / (1j * n))[:, None]
        self._self_test(a)

    def _map(self, x: np.ndarray) -> np.ndarray:
        """F, F', F'', F''' at the complex points x, (N, 4)."""
        return (1.0 / (self._complex_nodes[None, :] - x[:, None])) @ self._jets

    def _self_test(self, a: complex):
        z = self._complex_nodes
        # outside points: 16 nodes pushed out along the normal by eval_margin,
        # where that leaves the domain, at which the Cauchy integral has the
        # quadrature error of an evaluation at the contract distance; and 8
        # points far out
        step = max(1, self.node_count // 16)
        nu = self.normals[::step]
        near = self.nodes[::step] + self.eval_margin * nu
        near = near[self.domain.signed_boundary_distance(near, 0.0) < 0]
        far = a + 1.5 * np.max(np.abs(z - a)) * np.exp(0.25j * np.pi * np.arange(8))
        probes = np.concatenate([near[:, 0] + 1j * near[:, 1], far])
        self.exterior_cauchy_error = float(np.max(np.abs(self._map(probes)[:, 0])))
        self.centre_image = float(abs(self._map(np.array([a]))[0, 0]))
        worst = max(self.exterior_cauchy_error, self.centre_image, self.solve_residual)
        if not worst <= SELF_TEST_TOL:
            raise DiscretizationFailureError(
                f"conformal map self-test error {worst:.3e} exceeds {SELF_TEST_TOL:.1e}; "
                f"increase the node count")
        self.self_test_error = worst

    @property
    def diagnostics(self) -> dict:
        return {"self_test_error": self.self_test_error,
                "exterior_cauchy_error": self.exterior_cauchy_error,
                "centre_image": self.centre_image,
                "solve_residual": self.solve_residual,
                "iterations": self.iterations,
                "eval_margin": self.eval_margin}

    def blocks(self, points) -> GreenEvaluation:
        pts = self.require_interior(points)
        x = pts[:, 0] + 1j * pts[:, 1]
        f, f1, f2, f3 = self._map(x).T
        diff = x[:, None] - x                   # [j, k]: x_j - x_k
        same = diff == 0
        diff[same] = 1.0
        # divided differences Q(x_j, x_k) and dQ/dx, dQ/dy; on the diagonal
        # Q = F', dQ/dx = dQ/dy = F''/2
        q = np.where(same, f1[:, None], (f[:, None] - f) / diff)
        qx = np.where(same, f2[:, None] / 2.0, (f1[:, None] - q) / diff)
        qy = np.where(same, f2[:, None] / 2.0, (q - f1) / diff)
        # the differences cancel as x_k nears x_j; closer than eval_margin / 2
        # they come from integrals along the segment instead
        near = np.nonzero((np.abs(diff) < 0.5 * self.eval_margin) & ~same)
        if len(near[0]):
            close = self._segment_quotients(x[near[0]], x[near[1]])
            q[near], qx[near], qy[near] = close[:3]
        fc = np.conj(f)
        b = 1.0 - f[:, None] * fc
        # H = Re A with A holomorphic in x_j: A = (ln Q - ln b) / 2pi
        u = f1[:, None] * fc / b
        ax = (qx / q + u) / TWO_PI

        def hessians():
            qxx = np.where(same, f3[:, None] / 3.0, (f2[:, None] - 2.0 * qx) / diff)
            qxy = np.where(same, f3[:, None] / 6.0, (qx - qy) / diff)
            if len(near[0]):
                qxx[near], qxy[near] = close[3:]
            axx = (qxx / q - (qx / q) ** 2 + f2[:, None] * fc / b + u * u) / TWO_PI
            # d2/dx dy ln Q, and d2/dx d(conj y) ln b
            p = (qxy - qx * qy / q) / q
            m = -f1[:, None] * np.conj(f1) / (b * b)
            hess_xx = _matrix2(axx.real, -axx.imag, -axx.imag, -axx.real)
            hess_xy = _matrix2(p.real - m.real, -p.imag - m.imag,
                               m.imag - p.imag, -p.real - m.real) / TWO_PI
            return hess_xx, hess_xx.swapaxes(0, 1).copy(), hess_xy

        grad_x = np.stack([ax.real, -ax.imag], axis=-1)
        return _mirrored((np.log(np.abs(q)) - np.log(np.abs(b))) / TWO_PI,
                         grad_x, grad_x.swapaxes(0, 1).copy(), hessians)

    def _segment_quotients(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Q = (F(x) - F(y)) / (x - y) at complex pairs (x, y), with dQ/dx,
        dQ/dy, d2Q/dx2 and d2Q/dxdy: the integrals over s in [0, 1] of F',
        s F'', (1 - s) F'', s^2 F''' and s (1 - s) F''' at y + s (x - y), by
        10-point Gauss-Legendre.  For |x - y| < eval_margin / 2 between
        points eval_margin inside, the segment keeps 3/4 of eval_margin from
        the boundary, and the rule's error is below 1e-15 relative."""
        from numpy.polynomial.legendre import leggauss

        t, w = leggauss(10)
        s, w = 0.5 * (t + 1.0), 0.5 * w
        jets = self._map((y[:, None] + (x - y)[:, None] * s).ravel()).reshape(len(x), -1, 4)
        return (jets[..., 1] @ w, jets[..., 2] @ (w * s), jets[..., 2] @ (w * (1.0 - s)),
                jets[..., 3] @ (w * s * s), jets[..., 3] @ (w * s * (1.0 - s)))

    def regular_part(self, x, y) -> GreenEvaluation:
        return self.blocks([x, y]).pair(0, 1)

    def _traces(self, points):
        """d_{nu_z} G(x_m, z) at every node z, (N, n), and its gradient in
        x_m, (N, n, 2): the Poisson kernel pulled back through F."""
        pts = self.require_interior(points)
        f, f1 = self._map(pts[:, 0] + 1j * pts[:, 1])[:, :2].T
        d = self._boundary_map - f[:, None]             # F(z) - F(x_m)
        d2 = d.real * d.real + d.imag * d.imag
        s = (1.0 - (f.real * f.real + f.imag * f.imag))[:, None]
        scale = -self._boundary_speed / TWO_PI
        # g = s / |d|^2 has Wirtinger derivative (s / d - conj F(x)) / |d|^2
        # in F(x), so grad_x g = 2 (Re, -Im) of that times F'(x)
        dg = 2.0 * (s / d - np.conj(f)[:, None]) / d2 * f1[:, None]
        return scale * s / d2, np.stack([dg.real, -dg.imag], axis=-1) * scale[:, None]

    def boundary_normal_derivative(self, x) -> BoundaryTrace:
        return BoundaryTrace(self._traces(x)[0][0], self.nodes, self.normals, self.weights)

    def trace_gradient(self, x) -> np.ndarray:
        return self._traces(x)[1][0]


def build_engine(domain: DomainSpec, nodes: int = DEFAULT_NODES):
    """The Green engine for the domain: the closed form on a circle, the
    conformal map, which checks itself at construction, elsewhere.
    ``IntegralGreenEngine``, the reference that tests and ``green-check``
    compare against, is built by calling its class.
    """
    if domain.is_disk():
        return DiskGreenEngine(domain, nodes)
    return ConformalGreenEngine(domain, nodes)
