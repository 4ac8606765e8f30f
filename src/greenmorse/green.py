"""Dirichlet Green function engines for smooth planar domains.

The Green function splits as G = Gamma - H with Gamma the free-space
logarithmic kernel and H the harmonic correction matching Gamma's boundary
values.  Three engines evaluate H, its first and second derivatives, and the
boundary traces of the normal derivative of G.  ``build_engine`` selects one
of the first two, which share one evaluation code; the third is a reference
class, built only by calling it:

* ``conformal-map`` — the engine for every non-circular domain: closed forms
  in the Riemann map F of the domain onto the unit disk,
  H(x, y) = (1/2pi) ln|(F(x) - F(y)) / (x - y)| - (1/2pi) ln|1 - F(x) conj F(y)|,
  and the Poisson kernel pulled back through F for the traces.  F comes from
  one Kerzman-Stein solve per domain (GMRES, closed by fixed-point sweeps,
  each step two products of the antisymmetric m x m Cauchy matrix, of
  which three blocks are formed, with one column), on the coarsest sub-grid
  of m of the n nodes that resolves the density, which is then interpolated
  to all n nodes (a sub-grid whose right-hand side is not resolved is
  passed over unsolved); its derivatives at N points are one (N, n) @ (n, 4)
  Cauchy product.  No evaluation solves a linear system;
* ``disk-closed-form`` (``DiskGreenEngine``) — the same engine on a circle,
  with its exact map F(x) = (x - c) / R in place of the solve, which makes
  those formulas the image method's;
* ``boundary-integral`` (``IntegralGreenEngine``) — a Nystrom discretization
  on the curve's uniform parameter grid, the blocks-and-traces reference
  that ``green-check`` and the tests compare against: it has ``blocks`` and
  the traces but no sum of H, so no energy is evaluated on it.  The
  Dirichlet solve uses a second-kind double-layer equation (the kernel is
  smooth on smooth curves, so the plain trapezoid rule is spectrally
  accurate).  Boundary traces solve the adjoint equation (1/2 I - K') v = b
  for the normal derivative of G, which avoids hypersingular operators; the
  discrete K' is W^-1 K^T W, W = diag(weights), so with the Dirichlet matrix
  D = K - 1/2 I a trace is the transposed solve v = -D^-T (W b) / W.
  Derivatives in the source point come from auxiliary right-hand sides
  solved with D; derivatives in the field point differentiate the
  representation kernel, which is smooth at interior points.  It keeps D
  and solves through the module-level ``lu_solve``, one numpy LU solve per
  call.

Each engine evaluates H at N points in batched calls.  ``blocks(points)``
gives every H(x_j, x_k) with its first and second derivatives, as a
``GreenEvaluation`` with two leading (j, k) axes, all computed with the call;
``green-check``, ``regular_part`` and the tests read it, and no command
evaluates an energy through it.  The conformal and disk engines sum H in
complex form, with no per-pair blocks, and these two sums are the program's
only way to sum it.  ``regular_sum(points, lam)`` gives the double sum
S = sum_{j,k} lam_j lam_k H(x_j, x_k) as a thunk for its value, its gradient
and a thunk for its Hessian.  ``green_sum(points, lam, diff)`` gives the
Kirchhoff-Routh energy that ``kr.f_omega`` returns, the log sum of the pairs
minus S, in the same complex pass, from the pair differences ``diff`` that
``kr.apart`` formed (``_lin_terms`` and ``_quotients`` read the same
array).  Both sums also take a stack of S configurations, (S, N, 2), and
return values (S,), gradients (S, 2N) and Hessians (S, 2N, 2N): the complex
arrays become (S, N, N) and each configuration's Cauchy product is made on
its own, so every row equals that configuration's sum alone.  The sums take
points that ``kr`` has admitted and check nothing.
The rule of where a point may be is ``interior``, one batched verdict
query (``geometry.contains``) for all the points of a stack, with one
verdict per configuration: a point is admissible iff its boundary distance
d > ``eval_margin``.  The query decides as the exact distance does but
measures no distance it does not need: a deep point is admitted on a lower
bound and a refused one on the cheapest test that refuses it.
``require_interior`` is its raising form for one configuration
(OutsideDomainError for d <= 0 or NaN, else AccuracyDegradedError), which
``blocks``, ``robin`` and the traces apply; it measures the exact distances
(``DomainSpec.signed_boundary_distance``) only when it raises, for the
point it names and its message.  An engine build measures no distance
where the domain's centroid is ``eval_margin`` inside: ``_map_centre``
checks that with ``contains``, and the conformal self-test picks its
outward probes with it too; only a centroid that fails the check makes
``_map_centre`` measure a grid.
``eval_margin`` is ``EVAL_MARGIN_FRACTION`` (0.05) of the diameter on the
conformal and integral engines, 1e-4 of it on the disk (``DiskGreenEngine``).
``blocks`` computes the j <= k blocks.  The integral engine computes them
from one solve for 6N right-hand sides, Gamma(., x_k) and its two first and
three second derivatives in x_k for every source, and one product for the
moments of orders 0, 1 and 2; the conformal and disk engines from F and its
first three derivatives at the points.  Each j > k block is copied from the
(k, j) block with x and y exchanged.
``regular_part(x, y)`` is the computed (0, 1) entry of ``blocks([x, y])``
and, on the conformal and disk engines, ``robin(x)`` is
``regular_sum([x], [1.0])`` of its checked point.
``_traces(points)`` gives the traces of N points and their gradients from
one query and one evaluation (the integral engine with one solve for 3N
right-hand sides); ``boundary_normal_derivative`` and ``trace_gradient`` are
its single-point forms.

Engines are immutable after construction and all evaluations are pure; a
call of a Hessian thunk never raises.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

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
# the accuracy contract of the conformal and integral engines: they evaluate
# points more than this fraction of the diameter inside
EVAL_MARGIN_FRACTION = 0.05
# Kerzman-Stein solve: GMRES stops at this relative residual estimate and the
# closing fixed-point sweeps at this relative step, and a sub-grid density is
# resolved when its top quarter band is at most this fraction of its largest
# DFT coefficient; past this many products with the operator a sub-grid solve
# is refused and a solve on all nodes fails the build
FIXED_POINT_TOL = 2e-15
PRODUCT_CAP = 100


def lu_solve(matrix, b, trans=0):
    """x with matrix x = b, or matrix^T x = b if ``trans``: one LU
    factorisation and solve (LAPACK gesv through ``np.linalg.solve``)."""
    return np.linalg.solve(matrix.T if trans else matrix, b)


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


def _szego_density(z, dz, tangent, w, rhs) -> tuple:
    """``_kerzman_stein_solve`` of (I - K) S = rhs, rhs = conj(T / (2 pi i
    (z - a))) for the map centre a, on the nodes z of a uniform parameter
    grid, with velocities dz = z'(t), unit tangents T and trapezoid weights
    w (see ``ConformalGreenEngine``): S, the products with K and the
    relative residual.  R_ij = 1 / (z_i - z_j) (zero diagonal) is
    antisymmetric, so only three of its blocks are formed, in one
    allocation: as three arrays, their freed memory went back to the system
    after every build and was faulted in again by the next (5 times the
    minor page faults over 40 builds)."""
    n = len(z)
    h, m = n // 2, n - n // 2
    buffer = np.empty(h * n + m * m, dtype=complex)
    r11 = np.subtract.outer(z[:h], z[:h], out=buffer[: h * h].reshape(h, h))
    r12 = np.subtract.outer(z[:h], z[h:], out=buffer[h * h: h * n].reshape(h, m))
    r22 = np.subtract.outer(z[h:], z[h:], out=buffer[h * n:].reshape(m, m))
    r11.flat[:: h + 1] = r22.flat[:: m + 1] = 1.0
    np.divide(1.0, buffer, out=buffer)
    r11.flat[:: h + 1] = r22.flat[:: m + 1] = 0.0
    c1 = 1j * dz / n
    c2 = np.conj(tangent / (2j * np.pi))

    def cauchy(v):
        """R v, R = [[r11, r12], [-r12^T, r22]]."""
        u1, u2 = v[:h], v[h:]
        return np.concatenate([r11 @ u1 + r12 @ u2, r22 @ u2 - r12.T @ u1])

    def kernel(s):
        """K s."""
        return cauchy(c1 * s) - c2 * np.conj(cauchy(np.conj(w * s)))

    return _kerzman_stein_solve(kernel, rhs)


def _band_resolved(coeffs) -> bool:
    """Whether the m DFT coefficients ``coeffs`` of index 3m/8 ... 5m/8, the
    top quarter of their band, are all at most FIXED_POINT_TOL times the
    largest."""
    m = len(coeffs)
    size = np.abs(coeffs)
    return bool(np.max(size[(3 * m + 7) // 8: 5 * m // 8 + 1]) <= FIXED_POINT_TOL * np.max(size))


def _resolved_density(z, dz, tangent, w, a) -> tuple:
    """The Szego density S at the n nodes z from ``_szego_density`` on the
    coarsest sub-grid that resolves it, with that solve's products and
    residual and its node count m.  The levels are m = n / 2^k >= MIN_NODES,
    the every-(n/m)-th nodes with weights (n/m) w, tried from the smallest.
    A level whose right-hand side conj(T / (2 pi i (z - a))) is not
    ``_band_resolved`` is passed over unsolved.  On every level measured
    (the cos 3t rungs, ellipses up to 8:1, the lobed domain, the banana, at
    256 to 1,024 nodes) that verdict was the density's, and it costs one
    m-point FFT, about 20 us, where the refused 64-node solve of a cos 3t
    rung took 0.45 ms and the 8:1 ellipse's three refused levels 6.6 ms.  A
    solved coarse S is kept when it is ``_band_resolved`` itself, so the
    screen can keep a finer level than the density test alone, never a
    coarser one; it is carried to the n nodes by trigonometric
    interpolation (its DFT zero-padded, the Nyquist coefficient split in
    half).  A coarse solve past PRODUCT_CAP counts as unresolved.  Level n
    is the plain solve."""
    n = m = len(z)
    rhs = np.conj(tangent / (2j * np.pi * (z - a)))
    while m % 2 == 0 and m // 2 >= MIN_NODES:
        m //= 2
    while m < n:
        q = n // m
        if not _band_resolved(np.fft.fft(rhs[::q])):
            m *= 2
            continue
        try:
            s, products, residual = _szego_density(z[::q], dz[::q], tangent[::q],
                                                   q * w[::q], rhs[::q])
        except DiscretizationFailureError:
            m *= 2
            continue
        coeffs = np.fft.fft(s)
        if _band_resolved(coeffs):
            half = (m + 1) // 2
            padded = np.zeros(n, dtype=complex)
            padded[:half], padded[n - m + half:] = coeffs[:half], coeffs[half:]
            if m % 2 == 0:
                padded[half] = padded[n - half] = 0.5 * coeffs[half]
            return np.fft.ifft(padded) * q, products, residual, m
        m *= 2
    return (*_szego_density(z, dz, tangent, w, rhs), n)


def gamma(x, y) -> float:
    """Free-space kernel -(1/2pi) ln|x-y|."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.hypot(d[0], d[1])
    if r < 1e-14:
        raise SingularityError("gamma evaluated at coincident points")
    return -np.log(r) / TWO_PI


class GreenEvaluation(NamedTuple):
    """Regular part H(x, y) with its first and second derivative blocks, all
    computed when the evaluation is made; for N points every field has two
    leading (j, k) axes, x = x_j and y = x_k."""

    value: np.ndarray       # (...)
    grad_x: np.ndarray      # (..., 2)
    grad_y: np.ndarray      # (..., 2)
    hess_xx: np.ndarray     # (..., 2, 2)
    hess_yy: np.ndarray     # (..., 2, 2)
    hess_xy: np.ndarray     # (..., 2, 2), hess_xy[i, j] = d^2 H / dx_i dy_j

    def pair(self, j: int, k: int) -> "GreenEvaluation":
        """The (j, k) entry of a block evaluation: H(x_j, x_k)."""
        return GreenEvaluation(float(self.value[j, k]), self.grad_x[j, k], self.grad_y[j, k],
                               self.hess_xx[j, k], self.hess_yy[j, k], self.hess_xy[j, k])


class RobinEvaluation(NamedTuple):
    """Robin function h(x) = H(x, x) with gradient and Hessian."""

    value: float
    gradient: np.ndarray    # (2,)
    hessian: np.ndarray     # (2, 2)


class BoundaryTrace(NamedTuple):
    """Values of d_{nu_z} G(x, z) at all quadrature nodes z."""

    values: np.ndarray      # (n,)
    nodes: np.ndarray       # (n, 2)
    normals: np.ndarray     # (n, 2)
    weights: np.ndarray     # (n,) arc-length weights


def _matrix2(a, b, c, d, out=None) -> np.ndarray:
    """Stack equal-shape arrays into [[a, b], [c, d]] on two trailing axes
    (of ``out``, if given)."""
    out = np.empty(np.shape(a) + (2, 2)) if out is None else out
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _complex_block(h, m, out=None) -> np.ndarray:
    """The real blocks d2H/dx_a dy_b of H = Re A, A holomorphic in x, from
    h = d2A/dxdy and m = d2A/dx d(conj y), on two trailing axes (of ``out``,
    if given); with y = x and m = 0, the Hessian of H in x."""
    return _matrix2(h.real + m.real, m.imag - h.imag, -h.imag - m.imag, m.real - h.real, out)


def _weighted_sum(c, logs, a, second_order) -> tuple:
    """sum_{j,k} c_jk Re A(x_j, x_k), c and Re A symmetric, A holomorphic in
    x_j, from thunks for 2pi Re A and the second derivatives and 2pi dA/dx,
    as ``_lin_terms`` gives them for one configuration, (N, N) arrays, or a
    stack, (S, N, N): a thunk for the value, a float or (S,), the gradient,
    (2N,) or (S, 2N), and a thunk for the symmetric Hessian, (2N, 2N) or
    (S, 2N, 2N), written once into an (..., N, 2, N, 2) array."""
    n = len(c)
    lead = a.shape[:-2]
    g = (c * a).sum(axis=-1) / np.pi

    def value():
        total = (c * logs()).sum(axis=(-2, -1))
        return total / TWO_PI if lead else float(total) / TWO_PI

    def hessian():
        own, hol, mix = second_order()
        hol = c * hol
        _set_diagonal(hol, hol.diagonal(0, -2, -1) + (c * own).sum(axis=-1))
        hess = np.empty(lead + (2 * n, 2 * n))
        _complex_block(hol, c * mix, hess.reshape(lead + (n, 2, n, 2)).swapaxes(-3, -2))
        return (hess + hess.swapaxes(-1, -2)) / TWO_PI

    # conj g viewed as floats is (Re g_1, -Im g_1, ..., Re g_N, -Im g_N)
    return value, g.conj().view(float), hessian


@cache
def _gauss_legendre() -> tuple:
    """Read-only nodes s on [0, 1] and weights of 10-point Gauss-Legendre."""
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(10)
    s, w = 0.5 * (t + 1.0), 0.5 * w
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _map_centre(domain: DomainSpec, margin: float) -> np.ndarray:
    """A point well inside the domain: the centroid of the boundary samples
    if it lies more than ``margin`` inside, else the deepest point of a
    16 x 16 grid over the samples' bounding box."""
    centroid = domain.boundary.centroid
    if contains(domain, centroid, margin):
        return centroid
    lo, hi = domain.boundary.bounding_box
    u = (np.arange(16) + 0.5) / 16
    grid = lo + (hi - lo) * np.stack(np.meshgrid(u, u), axis=-1).reshape(-1, 2)
    return grid[np.argmax(domain.signed_boundary_distance(grid))]


def _set_diagonal(a: np.ndarray, values) -> None:
    """Write the diagonal of a C-contiguous (N, N) array, or the diagonals of
    an (S, N, N) stack, from values (N,) or (S, N)."""
    n = a.shape[-1]
    if a.ndim == 2:
        a.flat[:: n + 1] = values
    else:
        a.reshape(-1, n * n)[:, :: n + 1] = values


def _mirrored(value, grad_x, grad_y, hess_xx, hess_yy, hess_xy) -> GreenEvaluation:
    """The blocks with each j > k entry copied from the (k, j) entry, x and y
    exchanged."""
    k = np.arange(len(value))
    lower = np.nonzero(k[:, None] > k)     # np.tril_indices(N, -1), in a fifth of the time
    upper = lower[::-1]
    value[lower] = value[upper]
    grad_x[lower], grad_y[lower] = grad_y[upper], grad_x[upper]
    hess_xx[lower], hess_yy[lower] = hess_yy[upper], hess_xx[upper]
    hess_xy[lower] = hess_xy[upper].swapaxes(-1, -2)
    return GreenEvaluation(value, grad_x, grad_y, hess_xx, hess_yy, hess_xy)


class _EngineBase:
    """Shared quadrature geometry for every engine: the boundary frame at
    the n nodes t_i = 2 pi i / n, the curve's ``grid_frame``, which for a
    power-of-two n up to the dense count slices the dense frame that every
    validated domain already holds."""

    backend = "abstract"
    # ``eval_margin`` is this fraction of the domain diameter
    _margin_fraction = EVAL_MARGIN_FRACTION

    def __init__(self, domain: DomainSpec, n: int):
        if n < MIN_NODES:
            raise ValueError(f"node count must be >= {MIN_NODES}, got {n}")
        self.domain = domain
        self.node_count = n
        self.eval_margin = self._margin_fraction * domain.diameter
        t, frame = domain.boundary.grid_frame(n)
        d1 = frame.velocity
        self.node_params = t
        self.nodes = frame.point
        self.normals = frame.normal
        self.curvatures = frame.curvature
        self.speeds = np.hypot(d1[:, 0], d1[:, 1])
        self._velocity = d1[:, 0] + 1j * d1[:, 1]      # z'(t) at the nodes
        self.weights = self.speeds * TWO_PI / n

    def interior(self, points) -> np.ndarray:
        """The boundary rule for a (..., N, 2) stack of configurations, from
        one ``contains`` query for all its points at ``eval_margin``: a
        configuration is admitted iff each of its points has boundary
        distance d > ``eval_margin``, so one with a NaN point is not.
        Returns the verdicts, shape (...).  The query measures no distance
        it does not need to decide, so a refused point costs the cheapest
        test that refuses it."""
        pts = np.asarray(points, dtype=float)
        inside = contains(self.domain, pts.reshape(-1, 2), self.eval_margin)
        return inside.reshape(pts.shape[:-1]).all(axis=-1)

    def require_interior(self, points) -> np.ndarray:
        """``interior`` for one configuration, raising: the points as an
        (N, 2) array, the boundary rule of every evaluation.  Only when the
        rule refuses does it measure the distances, for its message, in one
        exact ``signed_boundary_distance`` query: the lowest-index point
        with boundary distance d <= 0 (or NaN) is OutsideDomainError; else
        the point nearest the boundary, with d <= ``eval_margin`` (each
        engine's accuracy contract), is AccuracyDegradedError."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if self.interior(pts):
            return pts
        dists = self.domain.signed_boundary_distance(pts)
        outside = np.flatnonzero(~(dists > 0.0))
        if len(outside):
            i = outside[0]
            raise OutsideDomainError(
                f"point {i} at {tuple(pts[i].tolist())} is not inside the domain")
        i = int(np.argmin(dists))
        bound = float(np.exp(-np.pi * self.node_count * dists[i]
                             / self.domain.boundary.perimeter))
        raise AccuracyDegradedError(
            f"point {i} is {dists[i]:.3g} from the boundary, not beyond the accuracy "
            f"contract distance {self.eval_margin:.3g}", estimated_bound=bound)

    @property
    def diagnostics(self) -> dict:
        """Numbers the engine computed about its own accuracy."""
        return {"eval_margin": self.eval_margin}

    def blocks(self, points) -> GreenEvaluation:
        """Every H(x_j, x_k) at the N points, which ``require_interior``
        checks, with its derivative blocks."""
        return self._blocks(self.require_interior(points))

    def green(self, x, y) -> float:
        """G(x, y) = Gamma(x, y) - H(x, y); positive for interior points."""
        return gamma(x, y) - self.regular_part(x, y).value

    def regular_part(self, x, y) -> GreenEvaluation:
        return self.blocks([x, y]).pair(0, 1)

    def boundary_normal_derivative(self, x) -> BoundaryTrace:
        return BoundaryTrace(self._traces(x)[0][0], self.nodes, self.normals, self.weights)

    def trace_gradient(self, x) -> np.ndarray:
        """d/dx of d_{nu_z} G(x, z) at every node, shape (n, 2)."""
        return self._traces(x)[1][0]


class IntegralGreenEngine(_EngineBase):
    """Nystrom boundary-integral engine on the curve's uniform parameter grid:
    the blocks-and-traces reference that ``green-check`` and the tests
    compare against.  It evaluates ``blocks``, ``regular_part`` and the
    traces, and has no sum of H, so ``kr.f_omega`` takes a conformal or disk
    engine, not this one.  It keeps the Dirichlet matrix D, which each
    ``lu_solve`` factorises, and builds only if D's exact 1-norm condition
    number, ``condition_estimate``, is at most CONDITION_LIMIT (it is inf for
    a singular D, NaN for one with a non-finite entry)."""

    backend = "boundary-integral"

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
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
        self._dirichlet = -(bare * w[None, :]) / TWO_PI - 0.5 * np.eye(n)
        # 1-norm condition number of the discrete Dirichlet system
        self.condition_estimate = float(np.linalg.cond(self._dirichlet, 1))
        if not self.condition_estimate <= CONDITION_LIMIT:
            raise DiscretizationFailureError(
                f"discrete Dirichlet system condition estimate "
                f"{self.condition_estimate:.2e} exceeds {CONDITION_LIMIT:.0e}")

        self._complex_nodes = z[:, 0] + 1j * z[:, 1]
        self._moment_weights = w * (nu[:, 0] + 1j * nu[:, 1])
        self._self_test()

    def _self_test(self):
        """Reproduce the boundary data of the harmonic probe Re z^2 inside."""
        z = self.nodes
        data = z[:, 0] ** 2 - z[:, 1] ** 2
        mu = lu_solve(self._dirichlet, data)
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

    def _blocks(self, pts) -> GreenEvaluation:
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
        mu = lu_solve(self._dirichlet, columns.reshape(self.node_count, 6 * n_pts))
        # [j, k, c]: moment at field point x_j of density column c for source x_k
        f0, f1, f2 = self._moments(pts, mu).reshape(3, n_pts, n_pts, 6)
        return _mirrored(
            f0[..., 0].real.copy(),
            np.stack([f1[..., 0].real, -f1[..., 0].imag], axis=-1),
            np.stack([f0[..., 1].real, f0[..., 2].real], axis=-1),
            _matrix2(f2[..., 0].real, -f2[..., 0].imag, -f2[..., 0].imag, -f2[..., 0].real),
            _matrix2(f0[..., 3].real, f0[..., 4].real, f0[..., 4].real, f0[..., 5].real),
            _matrix2(f1[..., 1].real, f1[..., 2].real, -f1[..., 1].imag, -f1[..., 2].imag),
        )

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
        sol = lu_solve(self._dirichlet, -w[:, None] * rhs.reshape(self.node_count, -1),
                       trans=1) / w[:, None]
        sol = sol.reshape(self.node_count, len(pts), 3).transpose(1, 0, 2)
        return sol[..., 0], sol[..., 1:]

    # perfbench/tracer.py wraps these by name in this class's own body
    regular_part = _EngineBase.regular_part
    boundary_normal_derivative = _EngineBase.boundary_normal_derivative
    trace_gradient = _EngineBase.trace_gradient


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
    c2 = conj(T / (2 pi i)), so a product with K is two products of R with
    one column each (OpenBLAS takes longer for one product with two
    columns).  R = -R^T, so only three blocks of R are formed: split at
    h = n // 2, R = [[R11, R12], [-R12^T, R22]] (unequal blocks for odd n),
    and R v = (R11 v1 + R12 v2, R22 v2 - R12^T v1), R12^T a transposed view.
    ``_kerzman_stein_solve`` runs GMRES and closes with fixed-point
    sweeps S <- rhs + K S; ``iterations`` counts its products with K (6 on
    the lobed fixture, 16 on an 8:1 ellipse at 512 nodes).

    The trapezoid-rule Nystrom solve converges geometrically for analytic
    data (Trefethen & Weideman, SIAM Rev. 56 (2014)), so S is solved on the
    coarsest sub-grid of every q-th node that resolves it and interpolated
    to the n nodes (``_resolved_density``); ``solve_nodes`` is that grid's
    size, and ``iterations`` and ``solve_residual`` are those of its solve.
    A sub-grid whose right-hand side is not resolved is not solved at all.
    The cos 3t rungs of ``perturb-study`` solve on 64 or 128 of 512 nodes,
    the lobed fixture on 128 of 256, an 8:1 ellipse and any odd n on all n,
    the ellipse after three FFTs and no refused solve.
    The map, its jets, |F'| and the self-test are computed at the n nodes.

    The derivatives dF/dz up to the third on the boundary come from spectral
    differentiation of F(z(t)) in t, divided by z'.  Their values at interior
    points are Cauchy integrals with the one kernel 1/(z - x): a single
    (N, n) @ (n, 4) product.  The boundary speed |F'| that the traces read
    comes from the solve instead, since the round-off of that
    differentiation grows with n: S is the Szego kernel S(z, a), and
    F' = 2 pi S^2 / S(a, a) with S(a, a) = the integral of |S|^2 ds (S. R.
    Bell, *The Cauchy Transform, Potential Theory and Conformal Mapping*,
    CRC 1992), so |F'| = 2 pi |S|^2 / sum_j w_j |S_j|^2.  Then (C. C. Lin,
    PNAS 27 (1941))
    H(x, y) = (1/2pi) ln|Q(x, y)| - (1/2pi) ln|1 - F(x) conj F(y)| with the
    divided difference Q = (F(x) - F(y)) / (x - y), which is F'(x) at x = y
    (for pairs closer than eval_margin / 2, where the differences in Q and
    its derivatives would cancel, integrals of F', F'' and F''' along the
    segment from y to x; ``_quotients`` alone applies that rule), and the
    Poisson kernel pulled back through F,
    d_nu G(x, z) = -|F'(z)| (1 - |F(x)|^2) / (2 pi |F(z) - F(x)|^2).
    H is the real part of a function holomorphic in x.  ``_lin_terms``
    gives it and its derivatives as complex N x N arrays, which
    ``regular_sum`` and ``green_sum`` sum lam-weighted and ``blocks`` turns
    into real blocks.
    ``DiskGreenEngine`` replaces only the map and the quotients.

    The construction self-test checks what |F| = 1 on the boundary, true by
    construction, cannot: the Cauchy integral of F at points outside the
    domain, some of them ``eval_margin`` out (zero for an analytic F, so what
    it reads is the error of an evaluation at that distance), |F(a)|, and the
    relative residual of the solve (the last sweep's relative step).
    """

    backend = "conformal-map"

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
        super().__init__(domain, n)
        z = self.nodes[:, 0] + 1j * self.nodes[:, 1]
        dz = self._velocity
        tangent = dz / self.speeds
        w = self.weights
        centre = _map_centre(domain, self.eval_margin)
        a = complex(centre[0], centre[1])
        s, self.iterations, self.solve_residual, self.solve_nodes = _resolved_density(
            z, dz, tangent, w, a)
        boundary_map = s * tangent / (1j * np.conj(s))
        k = np.fft.fftfreq(n, 1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        jets = [boundary_map]
        for _ in range(3):
            jets.append(np.fft.ifft(1j * k * np.fft.fft(jets[-1])) / dz)
        self._complex_nodes = z
        self._boundary_map = boundary_map
        # |F'| at the nodes, from the Szego kernel
        density = s.real * s.real + s.imag * s.imag
        self._boundary_speed = TWO_PI * density / np.sum(w * density)
        # Cauchy weights: column m times 1/(z - x), summed, is F^(m)(x)
        self._jets = np.stack(jets, axis=1) * (dz / (1j * n))[:, None]
        self._self_test(a)

    def _map(self, x: np.ndarray) -> np.ndarray:
        """F, F', F'', F''' at the complex points x, shape x.shape + (4,).
        Along the last axis of x the Cauchy matrix 1 / (z - x) makes one
        product with the jets, so a stack (S, N) makes S products of one
        configuration each, and each gives what its N points alone give, bit
        for bit (one product over all S N points does not, for N = 1)."""
        return (1.0 / (self._complex_nodes - x[..., None])) @ self._jets

    def _self_test(self, a: complex):
        z = self._complex_nodes
        # outside points: 16 nodes pushed out along the normal by eval_margin,
        # where that leaves the domain, at which the Cauchy integral has the
        # quadrature error of an evaluation at the contract distance; and 8
        # points far out
        step = max(1, self.node_count // 16)
        nu = self.normals[::step]
        near = self.nodes[::step] + self.eval_margin * nu
        near = near[~contains(self.domain, near)]
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
                "solve_nodes": self.solve_nodes,
                "eval_margin": self.eval_margin}

    def _quotients(self, x: np.ndarray, diff: np.ndarray, f, f1, f2, f3) -> tuple:
        """The divided difference Q(x_j, x_k) = (F(x_j) - F(x_k)) / (x_j - x_k)
        at the complex points x, (N,) or a stack (S, N), given their
        differences ``diff`` (diagonal 1, as ``_lin_terms`` passes them) and F
        and its first three derivatives there, with dQ/dx and dQ/dy, all
        (..., N, N), and a thunk for d2Q/dx2 and d2Q/dxdy.  On the diagonal
        Q = F', dQ/dx = dQ/dy = F''/2, d2Q/dx2 = F'''/3 and d2Q/dxdy = F'''/6.
        The differences cancel as x_k nears x_j; for off-diagonal pairs
        closer than eval_margin / 2, coincident ones included, all five come
        from ``_segment_quotients`` instead."""
        close = np.abs(diff) < 0.5 * self.eval_margin
        _set_diagonal(close, False)
        near = np.nonzero(close)                # (..., j, k) indices
        if len(near[0]):
            diff = np.where(close, 1.0, diff)   # a copy: the caller's differences stay
        row = (..., slice(None), None)          # [..., j] broadcast along k
        q = (f[row] - f[..., None, :]) / diff
        _set_diagonal(q, f1)
        qx = (f1[row] - q) / diff
        qy = (q - f1[..., None, :]) / diff
        half = f2 / 2.0
        _set_diagonal(qx, half)
        _set_diagonal(qy, half)
        if len(near[0]):
            segment = self._segment_quotients(x[near[:-1]], x[near[:-2] + near[-1:]])
            q[near], qx[near], qy[near] = segment[:3]

        def second():
            qxx = (f2[row] - 2.0 * qx) / diff
            qxy = (qx - qy) / diff
            _set_diagonal(qxx, f3 / 3.0)
            _set_diagonal(qxy, f3 / 6.0)
            if len(near[0]):
                qxx[near], qxy[near] = segment[3:]
            return qxx, qxy

        return q, qx, qy, second

    def _lin_terms(self, points, diff=None) -> tuple:
        """Lin's formula at N admitted points (N, 2), or at a stack of
        configurations (S, N, 2), as complex (..., N, N) arrays [..., j, k]:
        with b = 1 - F(x_j) conj F(x_k), H is Re A for A = (ln Q - ln b) / 2pi,
        holomorphic in x = x_j.  ``diff`` holds the differences x_j - x_k as
        complex numbers, as ``kr.apart`` returns them; they are formed here
        if not given.  Returns ``diff`` with its diagonal set to 1, a thunk
        for 2pi H, 2pi dA/dx and a thunk for 2pi times d2A/dx2 (own),
        d2A/dxdy (hol, through Q) and d2A/dx d(conj y) (mix, through
        conj F(x_k))."""
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0] + 1j * pts[..., 1]
        if diff is None:
            diff = x[..., :, None] - x[..., None, :]
        _set_diagonal(diff, 1.0)
        jets = self._map(x)
        f, f1, f2, f3 = jets[..., 0], jets[..., 1], jets[..., 2], jets[..., 3]
        q, qx, qy, second = self._quotients(x, diff, f, f1, f2, f3)
        fc = np.conj(f)[..., None, :]
        b = 1.0 - f[..., :, None] * fc
        u = f1[..., :, None] * fc / b
        r = qx / q

        def second_order():
            qxx, qxy = second()
            own = qxx / q - r * r + f2[..., :, None] * fc / b + u * u
            return own, (qxy - r * qy) / q, f1[..., :, None] * np.conj(f1)[..., None, :] / (b * b)

        return diff, lambda: np.log(np.abs(q)) - np.log(np.abs(b)), r + u, second_order

    def _blocks(self, pts) -> GreenEvaluation:
        _, logs, a, second_order = self._lin_terms(pts)
        own, hol, mix = second_order()
        grad_x = np.stack([a.real, -a.imag], axis=-1) / TWO_PI
        hess_xx = _complex_block(own, 0.0) / TWO_PI
        return _mirrored(logs() / TWO_PI, grad_x, grad_x.swapaxes(0, 1).copy(),
                         hess_xx, hess_xx.swapaxes(0, 1).copy(), _complex_block(hol, mix) / TWO_PI)

    def regular_sum(self, points, lam) -> tuple:
        """S = sum_{j,k} lam_j lam_k H(x_j, x_k) over all pairs, the diagonal
        included, at N admitted points (``kr.f_omega`` applies the rules; this
        checks nothing), for one configuration or a stack at once: a thunk
        for the value, the gradient (2N,) and a thunk for the Hessian
        (2N, 2N), each with a leading axis S for an (S, N, 2) stack.  H is
        symmetric, so grad_{x_m} S = (Re g_m, -Im g_m) with
        g_m = 2 sum_k c_mk dA/dx(x_m, x_k), c = lam lam^T; g_m is holomorphic
        in x_m through every term (c own, summed onto the diagonal of c hol)
        and depends on x_k through hol and mix."""
        _, logs, a, second_order = self._lin_terms(points)
        return _weighted_sum(np.multiply.outer(lam, lam), logs, a, second_order)

    def robin(self, x) -> RobinEvaluation:
        """h(x) = H(x, x): ``regular_sum`` of the one point x, which
        ``require_interior`` checks, with strength 1."""
        value, grad, hessian = self.regular_sum(self.require_interior([x]), [1.0])
        return RobinEvaluation(value(), grad, hessian())

    def green_sum(self, points, lam, diff=None) -> tuple:
        """E = sum_{j != k} c_jk Gamma(x_j, x_k) - S, with c and S as in
        ``regular_sum``: ``kr.f_omega`` with the Kirchhoff-Routh interaction,
        in the same form, for one configuration or a stack at once.  Off the diagonal
        2pi (Gamma - H) = -Re(ln(x_j - x_k) + ln Q - ln b), so
        ln|x_j - x_k|, 1/(x_j - x_k) and -/+ 1/(x_j - x_k)^2 join the logs,
        dA/dx, own and hol, and E is their sum with -c for c.  The points
        must be admitted by both rules (``kr.admitted``), which this call
        does not check; ``diff`` is their complex differences as ``kr.apart``
        returns them, which this call overwrites (see ``_lin_terms``)."""
        d, logs, a, second_order = self._lin_terms(points, diff)
        inv = 1.0 / d                           # d is 1 on the diagonal, where ln|d| = 0
        _set_diagonal(inv, 0.0)

        def free_second_order():
            own, hol, mix = second_order()
            inv2 = inv * inv
            return own - inv2, hol + inv2, mix

        return _weighted_sum(-np.multiply.outer(lam, lam), lambda: logs() + np.log(np.abs(d)),
                             a + inv, free_second_order)

    def _segment_quotients(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Q = (F(x) - F(y)) / (x - y) at complex pairs (x, y), with dQ/dx,
        dQ/dy, d2Q/dx2 and d2Q/dxdy: the integrals over s in [0, 1] of F',
        s F'', (1 - s) F'', s^2 F''' and s (1 - s) F''' at y + s (x - y), by
        10-point Gauss-Legendre (``_gauss_legendre``).  For |x - y| <
        eval_margin / 2 between points eval_margin inside, the segment keeps
        3/4 of eval_margin from the boundary, and the rule's error is below
        1e-15 relative."""
        s, w = _gauss_legendre()
        jets = self._map((y[:, None] + (x - y)[:, None] * s).ravel()).reshape(len(x), -1, 4)
        return (jets[..., 1] @ w, jets[..., 2] @ (w * s), jets[..., 2] @ (w * (1.0 - s)),
                jets[..., 3] @ (w * s * s), jets[..., 3] @ (w * s * (1.0 - s)))

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


class DiskGreenEngine(ConformalGreenEngine):
    """The conformal engine on a circle of centre c and radius R with its
    exact Riemann map F(x) = (x - c) / R: no Kerzman-Stein solve, no
    self-test, and Lin's formula is the image formula H(x, y) = -(1/2pi) ln R
    - (1/2pi) ln|1 - F(x) conj F(y)|, with Q = 1/R exactly (``_quotients``).
    Near the circle only the rounding of F is lost: 1.25e-4 * diameter
    inside (``eval_margin`` is 1e-4 * diameter) the Robin value and gradient
    are within 7.1e-14 and 4.8e-13 (relative) of the exact -(1/2pi) ln((R^2 -
    |x - c|^2) / R) for R = 1 and 2.5; the error grows like 1 / distance."""

    backend = "disk-closed-form"
    _margin_fraction = 1e-4

    def __init__(self, domain: DomainSpec, n: int = DEFAULT_NODES):
        _EngineBase.__init__(self, domain, n)
        info = as_circle(domain.boundary)
        if info is None:
            raise ValueError("DiskGreenEngine requires a circular boundary")
        self.center, self.radius = info
        self._boundary_map = self._map(self.nodes[:, 0] + 1j * self.nodes[:, 1])[:, 0]
        self._boundary_speed = np.full(n, 1.0 / self.radius)

    def _map(self, x: np.ndarray) -> np.ndarray:
        """F = (x - c) / R, F' = 1/R and F'' = F''' = 0 at the complex points x."""
        f = (x - complex(*self.center)) / self.radius
        zero = np.zeros_like(f)
        return np.stack([f, zero + 1.0 / self.radius, zero, zero], axis=-1)

    def _quotients(self, x: np.ndarray, diff: np.ndarray, f, f1, f2, f3) -> tuple:
        """Q = 1/R for every pair, with zero derivatives: a difference
        quotient of F would add eps |x| / |x_j - x_k|^2 of round-off to dQ/dx
        beyond the segment rule's eval_margin / 2."""
        q = np.full(x.shape + x.shape[-1:], 1.0 / self.radius, dtype=complex)
        zero = np.zeros_like(q)
        return q, zero, zero, lambda: (zero, zero)

    # no self-test: the diagnostics are the eval_margin alone; and
    # perfbench/tracer.py wraps the three methods below in this class's body
    diagnostics = _EngineBase.diagnostics
    regular_part = _EngineBase.regular_part
    boundary_normal_derivative = _EngineBase.boundary_normal_derivative
    trace_gradient = _EngineBase.trace_gradient


def build_engine(domain: DomainSpec, nodes: int = DEFAULT_NODES):
    """The Green engine for the domain: the closed form on a circle, the
    conformal map, which checks itself at construction, elsewhere.
    ``IntegralGreenEngine``, the reference that tests and ``green-check``
    compare against, is built by calling its class.
    """
    if domain.is_disk():
        return DiskGreenEngine(domain, nodes)
    return ConformalGreenEngine(domain, nodes)
