"""Smooth bounded planar domains given by truncated Fourier boundary curves.

A boundary curve is a closed parametrization t -> (x(t), y(t)), t in [0, 2pi),
with each coordinate a trigonometric polynomial.  Domains built on such curves
are analytic, so boundary quadratures converge spectrally and perturbed
boundaries can be re-fit exactly up to a monitored truncation error.

All types are immutable after construction; every operation is a pure
function, safe for concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyRegionError,
    MalformedCurveError,
    PerturbationTooLargeError,
    RefitFailureError,
    SymmetryMismatchError,
)

TWO_PI = 2.0 * np.pi

# dense sampling used for distance / winding / self-intersection checks
_DENSE_MIN = 1024
# the coarse level of ``contains`` scans every _COARSE_STRIDE-th dense
# sample, and the polygon through them signs the points far from the curve
_COARSE_STRIDE = 8
# the chord scan first builds every _CHORD_STRIDE-th index separation
_CHORD_STRIDE = 8
# pointwise tolerance for symmetry-invariance verification
_SYMMETRY_TOL = 1e-10
# relative coefficient tolerance of ``as_circle``
_CIRCLE_TOL = 1e-13
# largest pointwise residual a Fourier re-fit may leave
REFIT_TOL = 1e-12
# ``apply_perturbation`` doubles its re-fit degree up to this cap
REFIT_DEGREE_CAP = 256
# ``vanishes_near`` widens the field's cutoff by this much
_VANISH_SLACK = 1e-8
# default width of the band inside the boundary where a normal field is nonzero
DEFAULT_CUTOFF_WIDTH = 0.35


def _as_coeffs(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float)).copy()
    if arr.ndim != 1:
        raise ValueError("coefficient list must be one-dimensional")
    arr.setflags(write=False)
    return arr


class BoundaryFrame(NamedTuple):
    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    curvature: float
    velocity: np.ndarray    # z'(t), the unnormalised tangent


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Closed simple curve t -> sum_k a_k cos(kt) + b_k sin(kt), per coordinate.

    ``cos_x[k]`` multiplies cos(kt) in x(t) and so on; ``sin_*[0]`` is unused.
    The parametrization is required to be regular (nonvanishing tangent) and
    counterclockwise (positive signed area).
    """

    cos_x: np.ndarray
    sin_x: np.ndarray
    cos_y: np.ndarray
    sin_y: np.ndarray

    def __post_init__(self):
        arrays = [_as_coeffs(a) for a in (self.cos_x, self.sin_x, self.cos_y, self.sin_y)]
        degree = max(len(a) for a in arrays)
        degree = max(degree, 2)  # hold at least wavenumbers {0, 1}
        padded = []
        for a in arrays:
            out = np.zeros(degree)
            out[: len(a)] = a
            padded.append(out)
        # sin coefficients at wavenumber 0 are meaningless; force them to zero
        padded[1][0] = 0.0
        padded[3][0] = 0.0
        for name, arr in zip(("cos_x", "sin_x", "cos_y", "sin_y"), padded):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def max_degree(self) -> int:
        return len(self.cos_x) - 1

    @cached_property
    def _jet_coeffs(self) -> np.ndarray:
        """(2K, 6) matrix taking [cos(kt), sin(kt)] to (z, z', z''), x before y:
        each t-derivative takes the coefficients (a_k, b_k) to (k b_k, -k a_k)."""
        k = np.arange(len(self.cos_x), dtype=float)[:, None]
        a = np.stack([self.cos_x, self.cos_y], axis=1)
        b = np.stack([self.sin_x, self.sin_y], axis=1)
        cos_rows, sin_rows = [a], [b]
        for _ in range(2):
            a, b = k * b, -k * a
            cos_rows.append(a)
            sin_rows.append(b)
        return np.vstack([np.hstack(cos_rows), np.hstack(sin_rows)])

    @cached_property
    def _ik(self) -> np.ndarray:
        """i k for the wavenumbers k = 0 ... K - 1."""
        return 1j * np.arange(len(self.cos_x))

    def _complex_jet(self, t: np.ndarray) -> np.ndarray:
        """z, z' and z'' at the 1-d parameters ``t`` as complex numbers, shape
        (len(t), 3): one product of [cos(kt), sin(kt)], read off e^{ikt},
        with ``_jet_coeffs``."""
        e = np.exp(np.multiply.outer(t, self._ik))
        return (np.concatenate([e.real, e.imag], axis=1) @ self._jet_coeffs).view(complex)

    def jet(self, t) -> np.ndarray:
        """z, z' and z'' at parameters ``t``, shape (len(t), 3, 2)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self._complex_jet(t).view(float).reshape(-1, 3, 2)

    def point(self, t) -> np.ndarray:
        """Boundary points at parameters ``t``, shape (len(t), 2)."""
        return self.jet(t)[:, 0]

    def frame(self, t) -> BoundaryFrame:
        """Point, unit tangent, outward unit normal, curvature and z' at t: each
        field for one parameter if t is a scalar, else stacked along axis 0."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        # contiguous copies: the dense scans read the points many times
        p, d1, d2 = np.ascontiguousarray(self.jet(ts).transpose(1, 0, 2))
        speed = np.hypot(d1[..., 0], d1[..., 1])
        if np.any(speed < 1e-12):
            raise MalformedCurveError(
                f"degenerate tangent at t={ts[np.argmax(speed < 1e-12)]:.6g}")
        tang = d1 / speed[..., None]
        normal = np.stack([tang[..., 1], -tang[..., 0]], axis=-1)
        curv = (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]) / speed**3
        if np.isscalar(t) or np.ndim(t) == 0:
            return BoundaryFrame(p[0], tang[0], normal[0], float(curv[0]), d1[0])
        return BoundaryFrame(p, tang, normal, curv, d1)

    @cached_property
    def _dense(self) -> tuple[np.ndarray, BoundaryFrame]:
        """The dense grid t_i = 2 pi i / m and the frame on it, for the
        distance, winding and chord scans and the curve's integrals.  It
        raises MalformedCurveError on a degenerate tangent."""
        m = max(_DENSE_MIN, 16 * len(self.cos_x))
        t = TWO_PI * np.arange(m) / m
        return t, self.frame(t)

    def grid_frame(self, m: int) -> tuple[np.ndarray, BoundaryFrame]:
        """The uniform grid t_i = 2 pi i / m, i < m, and ``frame(t)`` on it:
        copies of every q-th sample of the dense frame where m divides the
        dense count and those samples' parameters equal t bit for bit (so
        whenever q is a power of two), else ``frame(t)`` itself."""
        t = TWO_PI * np.arange(m) / m
        dense_t, dense = self._dense
        q, rest = divmod(len(dense_t), m)
        if rest == 0 and np.array_equal(dense_t[::q], t):
            return t, BoundaryFrame(*(values[::q].copy() for values in dense))
        return t, self.frame(t)

    @cached_property
    def signed_area(self) -> float:
        # the trapezoid rule integrates x y' - y x', of degree 2K, exactly
        _, fr = self._dense
        p, d1 = fr.point, fr.velocity
        return float(0.5 * np.mean(p[:, 0] * d1[:, 1] - p[:, 1] * d1[:, 0]) * TWO_PI)

    @cached_property
    def perimeter(self) -> float:
        speed = np.hypot(*self._dense[1].velocity.T)
        return float(np.mean(speed) * TWO_PI)

    @cached_property
    def _chord_scan(self) -> tuple[float, float, float]:
        """Over about 512 dense samples: the largest squared chord, and the
        smallest between samples at least ~pi/8 and ~pi/3 apart in parameter.
        Row s of the scan holds |p_{(i+s) mod ms} - p_i|^2 for i = 0 ... ms - 1
        and the cyclic index separations s = 1 ... ms // 2, so the rows hold
        every pair; each row is built in one contiguous pass per coordinate,
        each difference squared in place, so an entry rounds as dx * dx +
        dy * dy.  Only some rows are built, and the three values are those of
        all rows: first every _CHORD_STRIDE-th row, then the rows whose
        bounds from the built rows on either side cannot rule them out.
        Moving the far end of every chord of a row by one sample moves each
        chord length by at most the spacing 2 * step * ``_sample_gap``, so
        the root of row s's max is at most that of a built row s' plus
        |s - s'| spacings, and the root of its min at least that minus as
        many.  A row is built if its bound reaches the root of the largest
        chord built, or, at or past a far separation, of the smallest chord
        built there.  A slack of 1e-12 times the largest coordinate widens
        every bound by more than the round-off of a sample or an entry."""
        pts = self._dense[1].point
        step = max(1, len(pts) // 512)
        sub = pts[::step]
        ms = len(sub)
        half = ms // 2
        xs, ys = np.ascontiguousarray(sub.T)
        # [s, i]: the coordinates of p_{(i+s) mod ms}, views of the wrapped ones
        window_x, window_y = (np.lib.stride_tricks.sliding_window_view(
            np.concatenate([c, c[: half + 1]]), ms) for c in (xs, ys))

        def rows(separations: slice) -> np.ndarray:
            d2 = window_x[separations] - xs
            d2 *= d2
            dy = window_y[separations] - ys
            dy *= dy
            d2 += dy
            return d2

        far = [max(2, int(np.ceil(ms / 16.0))), max(2, int(np.ceil(ms / 6.0)))]
        stride = _CHORD_STRIDE
        # the smallest squared chord of each built row; row 0 is all zeros
        row_min = np.full(half + 1, np.inf)
        d2 = rows(slice(0, half + 1, stride))
        row_min[::stride] = d2.min(axis=1)
        largest = d2.max()
        top, bottom = np.sqrt(d2.max(axis=1)), np.sqrt(row_min[::stride])
        k, off = np.divmod(np.arange(half + 1), stride)
        spacing = 2 * step * self._sample_gap
        slack = 1e-12 * np.max(np.abs(sub))
        upper = np.minimum(top[k] + off * spacing,
                           np.append(top[1:], np.inf)[k] + (stride - off) * spacing)
        lower = np.maximum(bottom[k] - off * spacing,
                           np.append(bottom[1:], -np.inf)[k] - (stride - off) * spacing)
        build = upper + slack >= np.sqrt(largest)
        for f in far:
            build[f:] |= lower[f:] - slack <= np.sqrt(row_min[f:].min())
        # runs of rows to build, bridging gaps of at most a stride (rebuilding
        # a built row gives the same entries)
        wanted = np.flatnonzero(build)
        for run in np.split(wanted, np.flatnonzero(np.diff(wanted) > stride) + 1):
            if len(run):
                d2 = rows(slice(run[0], run[-1] + 1))
                row_min[run[0]: run[-1] + 1] = d2.min(axis=1)
                largest = max(largest, d2.max())
        return float(largest), float(row_min[far[0]:].min()), float(row_min[far[1]:].min())

    @cached_property
    def diameter(self) -> float:
        return float(np.sqrt(self._chord_scan[0]))

    @cached_property
    def centroid(self) -> np.ndarray:
        return self._dense[1].point.mean(axis=0)

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower-left and upper-right corners (lo, hi) of the box around
        the dense boundary samples."""
        pts = self._dense[1].point
        return pts.min(axis=0), pts.max(axis=0)

    @cached_property
    def _sample_gap(self) -> float:
        """delta: no curve point is farther than this from its nearest dense
        sample.  Every parameter lies within pi/m of one of the m samples and
        |z'| <= hypot(sum_k k (|a_k^x| + |b_k^x|), sum_k k (|a_k^y| + |b_k^y|)),
        so delta is pi/m times that bound, raised by 1e-9 relative to cover
        the round-off of a scanned distance.  The same argument bounds the
        gap of every s-th sample by s * delta."""
        k = np.arange(len(self.cos_x))
        speed_x = np.sum(k * (np.abs(self.cos_x) + np.abs(self.sin_x)))
        speed_y = np.sum(k * (np.abs(self.cos_y) + np.abs(self.sin_y)))
        m = len(self._dense[0])
        return float(np.pi / m * np.hypot(speed_x, speed_y) * (1.0 + 1e-9))

    def _dense_scan(self, p: np.ndarray, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Parameter of the nearest of every ``stride``-th dense sample to each
        of the (N, 2) points and the distance to it, two (N,) arrays.  The
        distance to the curve is at most that distance and at least that
        distance minus ``stride * _sample_gap``."""
        t, fr = self._dense
        pts = fr.point[::stride]
        d2 = (pts[None, :, 0] - p[:, 0, None]) ** 2 + (pts[None, :, 1] - p[:, 1, None]) ** 2
        i = np.argmin(d2, axis=1)
        return t[::stride][i], np.sqrt(d2[np.arange(len(p)), i])

    def _refine(self, p: np.ndarray, coarse_t: np.ndarray,
                coarse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``nearest_parameter`` for (N, 2) points from their ``_dense_scan``:
        up to 6 Newton steps on Re(conj(z(t) - p) z'(t)) = 0, half of
        d/dt |z(t) - p|^2 = 0, from the sample, in complex arithmetic on
        ``_complex_jet``.  A point stops at its first step below 1e-14, which
        it does not take (a point where the second derivative is below 1e-14
        takes none), so its answer does not depend on the other points; a
        point whose Newton answer is farther than that sample keeps the
        sample."""
        t = coarse_t.copy()
        pc = p[:, 0] + 1j * p[:, 1]
        for steps in range(7):      # 6 steps and the evaluation after them
            z, z1, z2 = self._complex_jet(t).T
            r = np.conj(z - pc)
            if steps == 6:
                break
            h = (z1 * np.conj(z1) + r * z2).real
            h[np.abs(h) < 5e-15] = np.inf
            step = (r * z1).real / h
            moving = np.abs(step) >= 1e-14
            if not moving.any():
                break
            t -= np.where(moving, step, 0.0)
        dist = np.abs(r)
        wandered = dist > coarse    # Newton wandered; keep the coarse answer
        return np.where(wandered, coarse_t, t % TWO_PI), np.where(wandered, coarse, dist)

    def _signed_scan(self, p: np.ndarray, t: np.ndarray, coarse: np.ndarray,
                     exact_within: float) -> np.ndarray:
        """Signed boundary distances of the (N, 2) points from their
        ``_dense_scan`` (t, coarse), exact where at most ``exact_within``
        and a lower bound beyond it: ``DomainSpec.signed_boundary_distance``
        measures with ``np.inf``, every point refined, and ``contains`` with
        its margin, refining only the shell within one gap of it.  A point
        at most ``_sample_gap`` from its nearest sample is signed by the
        outward normal at its nearest boundary point (between a chord and
        its arc, the dense polygon's winding number is wrong); one more than
        ``_COARSE_STRIDE * _sample_gap`` from it, so from every sample, by
        the winding number of the stride-8 polygon, by the argument in
        ``contains``; the others by the dense polygon's.  ``t`` is
        overwritten."""
        d = coarse - self._sample_gap
        near = np.flatnonzero(d <= exact_within)
        if len(near):
            t[near], d[near] = self._refine(p[near], t[near], coarse[near])
        inside = np.empty(len(p), dtype=bool)
        hug = coarse <= self._sample_gap
        if hug.any():
            fr = self.frame(t[hug])
            inside[hug] = np.sum((p[hug] - fr.point) * fr.normal, axis=1) <= 0.0
        # farther than the coarse gap from every sample: the coarse level's argument
        far = coarse > _COARSE_STRIDE * self._sample_gap
        if far.any():
            inside[far] = self.winding_number(p[far], _COARSE_STRIDE) == 1
        between = ~(hug | far)
        if between.any():
            inside[between] = self.winding_number(p[between]) == 1
        return np.where(inside, d, -d)

    def nearest_parameter(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Parameters of the closest boundary points and the distances to them,
        two (N,) arrays for points of shape (N, 2).

        Each point starts from its nearest dense sample and takes up to 6
        Newton steps on d/dt |z(t) - p|^2 = 0; a point whose Newton answer is
        farther than that sample keeps the sample.
        """
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        return self._refine(p, *self._dense_scan(p))

    def winding_number(self, points, stride: int = 1) -> np.ndarray:
        """Winding number of the curve about each of the (N, 2) points, (N,)
        ints: that of the polygon through every ``stride``-th dense sample."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        pts = self._dense[1].point[::stride]
        ang = np.arctan2(pts[None, :, 1] - p[:, 1, None], pts[None, :, 0] - p[:, 0, None])
        dang = np.diff(ang, axis=1, append=ang[:, :1])
        dang -= TWO_PI * np.rint(dang / TWO_PI)     # each step into [-pi, pi]
        return np.rint(dang.sum(axis=1) / TWO_PI).astype(int)

    @cached_property
    def fourier_c1(self) -> complex:
        """Coefficient of e^{it} in x(t) + i y(t); dominant for winding-1 curves."""
        return (0.5 * (self.cos_x[1] + 1j * self.cos_y[1])
                - 0.5j * (self.sin_x[1] + 1j * self.sin_y[1]))

    def validate(self):
        """Raise MalformedCurveError unless finite, regular, simple, counterclockwise."""
        if not all(np.all(np.isfinite(c)) for c in (self.cos_x, self.sin_x,
                                                     self.cos_y, self.sin_y)):
            raise MalformedCurveError("curve coefficients must be finite")
        # the dense frame, read first by ``signed_area``, rejects a degenerate tangent
        if self.signed_area <= 0:
            raise MalformedCurveError("curve is not counterclockwise (signed area <= 0)")
        # self-intersection probe: parameter-distant samples must stay apart
        if self._chord_scan[1] < 1e-18:
            raise MalformedCurveError("curve self-intersects (distant parameters coincide)")


def unit_circle() -> BoundaryCurve:
    return BoundaryCurve([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0])


def circle(center=(0.0, 0.0), radius: float = 1.0) -> BoundaryCurve:
    cx, cy = center
    return BoundaryCurve([cx, radius], [0.0, 0.0], [cy, 0.0], [0.0, radius])


def as_circle(curve: BoundaryCurve):
    """Return (center, radius) if the curve is a canonically parametrized circle."""
    cos_x, sin_x, cos_y, sin_y = curve.cos_x, curve.sin_x, curve.cos_y, curve.sin_y
    r = cos_x[1]
    tol = _CIRCLE_TOL * max(1.0, abs(r))
    ok = (
        abs(sin_y[1] - r) <= tol
        and abs(cos_y[1]) <= tol
        and abs(sin_x[1]) <= tol
        and np.all(np.abs(cos_x[2:]) <= tol)
        and np.all(np.abs(sin_x[2:]) <= tol)
        and np.all(np.abs(cos_y[2:]) <= tol)
        and np.all(np.abs(sin_y[2:]) <= tol)
        and r > tol
    )
    if not ok:
        return None
    return np.array([cos_x[0], cos_y[0]]), float(r)


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite subgroup of O(2): cyclic rotations or a dihedral group.

    ``kind`` is "cyclic" or "dihedral"; ``order`` is the rotation order p;
    ``axis_angle`` fixes the first reflection axis of a dihedral group.
    """

    kind: str
    order: int
    axis_angle: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cyclic", "dihedral"):
            raise ValueError(f"unknown symmetry kind {self.kind!r}")
        if self.order < 1:
            raise ValueError("group order must be >= 1")

    def elements(self):
        """List of (matrix, is_reflection) covering the whole group."""
        out = []
        for k in range(self.order):
            a = TWO_PI * k / self.order
            out.append((np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]), False))
        if self.kind == "dihedral":
            for k in range(self.order):
                b = self.axis_angle + np.pi * k / self.order
                out.append((np.array([[np.cos(2 * b), np.sin(2 * b)],
                                      [np.sin(2 * b), -np.cos(2 * b)]]), True))
        return out


def _parameter_map(curve: BoundaryCurve, matrix: np.ndarray, is_reflection: bool):
    """Parameter action realizing x(map(t)) = M x(t), or None if no such map.

    Rotations act as t -> t + s, reflections as t -> c - t.  The shift is read
    off the winding-1 Fourier coefficient, then verified pointwise.
    """
    c1 = curve.fourier_c1
    if abs(c1) < 1e-12:
        return None
    if is_reflection:
        # reflection across angle beta: z -> e^{2 i beta} conj(z)
        beta2 = np.arctan2(matrix[1, 0], matrix[0, 0])  # equals 2*beta
        const = (beta2 - 2 * np.angle(c1)) % TWO_PI
    else:
        alpha = np.arctan2(matrix[1, 0], matrix[0, 0])
        const = alpha % TWO_PI
    probe = TWO_PI * np.arange(64) / 64
    mapped = (const - probe) if is_reflection else (probe + const)
    mismatch = np.abs(curve.point(mapped) - curve.point(probe) @ matrix.T).max()
    if mismatch > _SYMMETRY_TOL:
        return None
    return const


def _parameter_maps(curve: BoundaryCurve, group: SymmetryGroup):
    """The (parameter map constant, is_reflection) of every group element, or
    None if some element does not map the curve to itself."""
    maps = []
    for matrix, is_refl in group.elements():
        const = _parameter_map(curve, matrix, is_refl)
        if const is None:
            return None
        maps.append((const, is_refl))
    return maps


@dataclass(frozen=True)
class DomainSpec:
    """A smooth bounded planar domain, optionally tagged with a symmetry group.

    ``perturbation_margin``, computed on first read, bounds the sup-norm of
    boundary displacements for which (id + psi) stays injective on the
    boundary: 0.3 x min(half the closest approach between parameter-distant
    boundary arcs, the minimal radius of curvature).
    """

    boundary: BoundaryCurve
    symmetry: SymmetryGroup | None = None

    def __post_init__(self):
        self.boundary.validate()
        if self.symmetry is not None and _parameter_maps(self.boundary, self.symmetry) is None:
            raise SymmetryMismatchError(
                "boundary is not invariant under the declared symmetry group")

    @property
    def diameter(self) -> float:
        return self.boundary.diameter

    @cached_property
    def perturbation_margin(self) -> float:
        curve = self.boundary
        clearance = 0.5 * float(np.sqrt(curve._chord_scan[2]))
        radius = 1.0 / max(np.abs(curve._dense[1].curvature).max(), 1e-12)
        return 0.3 * min(clearance, radius)

    @cached_property
    def _circle(self):
        return as_circle(self.boundary)

    def is_disk(self) -> bool:
        return self._circle is not None

    @property
    def rotation_center(self) -> np.ndarray:
        """Centre of the domain's rotations: a disk's centre, else the origin."""
        return self._circle[0] if self._circle is not None else np.zeros(2)

    @cached_property
    def _inscribed_disk(self):
        """(c, rho), a disk about the dense samples' centroid c that lies in
        the domain, or None.  rho = min_i |c - p_i| - ``_sample_gap`` is a
        lower bound of dist(c, boundary).  The disk exists only if rho > 0
        and the dense polygon winds once about c; then the curve does too,
        by the homotopy argument of the coarse level in ``contains``, so c
        is inside, and every x with |x - c| < rho is at least rho - |x - c|
        from the boundary.  A domain whose centroid lies outside, such as a
        banana, has none.  Only ``contains`` reads it."""
        curve = self.boundary
        center = curve.centroid
        radius = float(curve._dense_scan(center[None])[1][0]) - curve._sample_gap
        if not (radius > 0 and curve.winding_number(center)[0] == 1):
            return None
        return center, radius

    @cached_property
    def _circumscribed_radius(self) -> float:
        """R = max_i |p_i - c| + ``_sample_gap`` about the dense samples'
        centroid c.  Every curve point lies within ``_sample_gap`` of a
        sample, so the curve lies in the closed disk of radius R about c,
        and so does the domain it bounds: a point farther than R from c is
        outside.  Only ``contains`` reads it."""
        curve = self.boundary
        offsets = curve._dense[1].point - curve.centroid
        return float(np.hypot(*offsets.T).max()) + curve._sample_gap

    def signed_boundary_distance(self, points):
        """Distance to the boundary, negative outside the domain: a float for
        one point of shape (2,), an (N,) array for points of shape (N, 2).

        All points are measured in one batched query.  On a disk the distance
        is the closed form; otherwise one full dense scan, refined by the
        Newton steps of ``nearest_parameter`` and signed by
        ``BoundaryCurve._signed_scan``.  A point with a non-finite
        coordinate has distance NaN.  Where only the verdict d > m is wanted,
        ``contains`` gives it without measuring the points it refuses; the
        engines' boundary rule uses it, and measures distances here only for
        the messages of a refusal."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 2)
        if not np.isfinite(flat).all():
            finite = np.isfinite(flat).all(axis=1)
            dist = np.full(len(flat), np.nan)
            dist[finite] = self.signed_boundary_distance(flat[finite])
        elif self._circle is not None:
            center, radius = self._circle
            dist = radius - np.hypot(flat[:, 0] - center[0], flat[:, 1] - center[1])
        else:
            curve = self.boundary
            dist = curve._signed_scan(flat, *curve._dense_scan(flat), np.inf)
        return float(dist[0]) if pts.ndim == 1 else dist


# ---------------------------------------------------------------------------
# spec'd operations on domains
# ---------------------------------------------------------------------------

def contains(domain: DomainSpec, points, margin: float = 0.0):
    """True iff the point is inside with distance to the boundary > margin:
    a bool for one point of shape (2,), an (N,) bool array for (N, 2).

    This is the verdict of the exact distance, ``signed_boundary_distance(p)
    > margin``, from one batched query that measures no distance it does
    not need.  On a disk it is the closed form.  Otherwise each level below
    runs only for the points the ones before left open, and a point is
    refused without a sign or a refinement wherever it is decided outside
    or within ``margin`` of the boundary:

    1. the cached inscribed disk (c, rho) (``_inscribed_disk``, if the
       domain has one) admits a point with rho - |x - c| > ``margin``; when
       it admits every point, the query returns at once.
    2. the circumscribed disk about the same centroid c
       (``_circumscribed_radius`` R) refuses a point with |x - c| > R, which
       is outside, and a point with a non-finite coordinate.
    3. every ``_COARSE_STRIDE``-th dense sample: a point within ``margin``
       of one is refused, since the exact distance is at most the dense
       scan's, which is at most this one.  Their gap is delta_c =
       ``_COARSE_STRIDE * _sample_gap``, and a point whose distance d_c to
       the nearest of them has d_c - delta_c > ``margin`` is at least that
       far from the curve, and is signed by the winding number of their
       polygon.  That sign is exact: every curve point z(t) and the polygon
       point at the same parameter lie in the closed disk of radius delta_c
       about the nearer sample, which the point is outside, so the
       straight-line homotopy from the curve to the polygon misses the
       point.
    4. the full dense scan: a point within ``margin`` of a sample is
       refused.  A point more than ``_sample_gap`` past ``margin`` is signed
       by winding number; only the shell within one gap of ``margin`` runs
       the Newton refinement of the exact query (``_signed_scan``).

    So every verdict is the one ``signed_boundary_distance(points) >
    margin`` gives, that of the exact distance."""
    if not margin >= 0:
        raise ValueError("margin must be >= 0")
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    if domain._circle is not None:
        center, radius = domain._circle
        inside = radius - np.hypot(flat[:, 0] - center[0], flat[:, 1] - center[1]) > margin
        return bool(inside[0]) if pts.ndim == 1 else inside
    # both disks are about the dense samples' centroid
    curve = domain.boundary
    offset = flat - curve.centroid
    r = np.hypot(offset[:, 0], offset[:, 1])
    disk = domain._inscribed_disk
    if disk is not None:
        inside = disk[1] - r > margin
        # every point settles here (a non-finite one does not)
        if inside.all():
            return bool(inside[0]) if pts.ndim == 1 else inside
    else:
        inside = np.zeros(len(flat), dtype=bool)
    # a NaN or infinite radius fails the comparison
    rest = np.flatnonzero(~inside & (r <= domain._circumscribed_radius))
    if len(rest):
        p = flat[rest]
        coarse = curve._dense_scan(p, _COARSE_STRIDE)[1]
        deep = coarse - _COARSE_STRIDE * curve._sample_gap > margin
        if deep.any():
            inside[rest[deep]] = curve.winding_number(p[deep], _COARSE_STRIDE) == 1
        rest = rest[~deep & (coarse > margin)]
    if len(rest):
        p = flat[rest]
        t, coarse = curve._dense_scan(p)
        beyond = coarse > margin
        if beyond.any():
            inside[rest[beyond]] = curve._signed_scan(p[beyond], t[beyond], coarse[beyond],
                                                      margin) > margin
    return bool(inside[0]) if pts.ndim == 1 else inside


def sample_interior(domain: DomainSpec, count: int, margin: float, seed: int) -> np.ndarray:
    """Deterministic rejection sample of ``count`` interior points.

    Raises EmptyRegionError when the admissible region cannot be filled
    within the sampling budget.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = domain.boundary.bounding_box
    accepted = []
    budget = max(10_000, 2_000 * count)
    drawn = 0
    while len(accepted) < count and drawn < budget:
        batch = rng.uniform(lo, hi, size=(256, 2))
        drawn += len(batch)
        # accepted in draw order, up to the count
        accepted.extend(batch[contains(domain, batch, margin)][: count - len(accepted)])
    if len(accepted) < count:
        raise EmptyRegionError(
            f"could not find {count} interior points at margin {margin} "
            f"within {budget} draws")
    return np.array(accepted)


# ---------------------------------------------------------------------------
# perturbation fields
# ---------------------------------------------------------------------------

# the parameters at which ``sup_boundary_norm`` samples a field
_SUP_GRID = TWO_PI * np.arange(2048) / 2048


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^2 step: 0 at u<=0, 1 at u>=1."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (u * (6.0 * u - 15.0) + 10.0)


@dataclass(frozen=True)
class PerturbationField:
    """Domain-variation field, primarily defined by its boundary trace.

    * ``normal_fourier``: psi = g(t) nu(t) on the boundary with
      g(t) = sum a_k cos(kt) + b_k sin(kt); extended inward by a C^2 cutoff
      that vanishes at distance ``cutoff_width`` from the boundary.
    * ``identity_dilation``: psi(x) = x everywhere (used by dilation oracles).

    ``amplitude`` scales the whole field.
    """

    kind: str
    cos_coeffs: np.ndarray = dc_field(default_factory=lambda: np.zeros(1))
    sin_coeffs: np.ndarray = dc_field(default_factory=lambda: np.zeros(1))
    cutoff_width: float = DEFAULT_CUTOFF_WIDTH
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("normal_fourier", "identity_dilation"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        n = max(len(np.atleast_1d(self.cos_coeffs)), len(np.atleast_1d(self.sin_coeffs)), 1)
        for name, val in (("cos_coeffs", self.cos_coeffs), ("sin_coeffs", self.sin_coeffs)):
            arr = np.zeros(n)
            flat = np.atleast_1d(np.asarray(val, dtype=float))
            arr[: len(flat)] = flat
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"field {name} must be finite")
            if name == "sin_coeffs":
                arr[0] = 0.0    # sin(0 t) vanishes; its coefficient is meaningless
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not 0 < self.cutoff_width < np.inf:
            raise ValueError("cutoff_width must be positive and finite")
        if not np.isfinite(self.amplitude):
            raise ValueError("field amplitude must be finite")

    @property
    def max_mode(self) -> int:
        if self.kind == "identity_dilation":
            return 1
        nz = np.nonzero(np.abs(self.cos_coeffs) + np.abs(self.sin_coeffs) > 0)[0]
        return int(nz[-1]) if len(nz) else 0

    @property
    def is_zero(self) -> bool:
        if self.kind == "identity_dilation":
            return self.amplitude == 0.0
        return self.amplitude == 0.0 or (
            not np.any(self.cos_coeffs) and not np.any(self.sin_coeffs))

    def profile(self, t) -> np.ndarray:
        """Normal component g(t) (amplitude included) for normal_fourier fields."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.arange(len(self.cos_coeffs))
        kt = np.outer(t, k)
        return self.amplitude * (np.cos(kt) @ self.cos_coeffs + np.sin(kt) @ self.sin_coeffs)

    def boundary_normal_component(self, curve: BoundaryCurve, t) -> np.ndarray:
        """<psi, nu> at boundary parameters t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "identity_dilation":
            frame = curve.frame(t)
            return self.amplitude * np.sum(frame.point * frame.normal, axis=-1)
        return self.profile(t)

    def boundary_values(self, frame: BoundaryFrame, t) -> np.ndarray:
        """Vector field values on the boundary at parameters t, given the
        boundary's frame at t."""
        if self.kind == "identity_dilation":
            return self.amplitude * frame.point
        return self.profile(t)[:, None] * frame.normal

    def evaluate(self, domain: DomainSpec, points) -> np.ndarray:
        """Field values at interior (or boundary) points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "identity_dilation":
            return self.amplitude * pts
        out = np.zeros_like(pts)
        if self.is_zero:
            return out
        curve = domain.boundary
        tstar, dist = curve.nearest_parameter(pts)
        near = dist < self.cutoff_width
        tstar = tstar[near]
        eta = _smoothstep(1.0 - dist[near] / self.cutoff_width)
        out[near] = (eta * self.profile(tstar))[:, None] * curve.frame(tstar).normal
        return out

    def vanishes_near(self, domain: DomainSpec, points):
        """True where the field is identically zero on a neighborhood of the
        point: a bool for one point of shape (2,), an (N,) bool array for (N, 2)."""
        pts = np.asarray(points, dtype=float)
        if self.is_zero:
            out = np.ones(pts.shape[:-1], dtype=bool)
        elif self.kind == "identity_dilation":
            out = np.linalg.norm(pts, axis=-1) <= 1e-10
        else:
            out = contains(domain, pts, self.cutoff_width + _VANISH_SLACK)
        return bool(out) if pts.ndim == 1 else out

    def sup_boundary_norm(self, domain: DomainSpec) -> float:
        """Max of |psi| over the boundary, sampled at 2,048 parameters."""
        if self.kind == "identity_dilation":
            return float(self.amplitude) * float(
                np.max(np.hypot(*domain.boundary.point(_SUP_GRID).T)))
        return self._profile_sup

    @cached_property
    def _profile_sup(self) -> float:
        """Max of |g| of a normal_fourier field: it does not depend on the
        domain, so a continuation samples it once, not on every rung."""
        return float(np.max(np.abs(self.profile(_SUP_GRID))))


def normal_field(cos_coeffs, sin_coeffs=(), cutoff_width: float = DEFAULT_CUTOFF_WIDTH,
                 amplitude: float = 1.0) -> PerturbationField:
    return PerturbationField("normal_fourier", _as_coeffs(cos_coeffs) if len(np.atleast_1d(cos_coeffs)) else np.zeros(1),
                             _as_coeffs(sin_coeffs) if len(np.atleast_1d(sin_coeffs)) else np.zeros(1),
                             cutoff_width, amplitude)


def cosine_field(mode: int, amplitude: float = 1.0,
                 cutoff_width: float = DEFAULT_CUTOFF_WIDTH) -> PerturbationField:
    """Normal field g(t) = amplitude * cos(mode * t)."""
    coeffs = np.zeros(mode + 1)
    coeffs[mode] = 1.0
    return PerturbationField("normal_fourier", coeffs, np.zeros(1), cutoff_width, amplitude)


def identity_dilation(amplitude: float = 1.0) -> PerturbationField:
    return PerturbationField("identity_dilation", amplitude=amplitude)


def zero_field() -> PerturbationField:
    return PerturbationField("normal_fourier", np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# domain perturbation
# ---------------------------------------------------------------------------

def fit_curve(points: np.ndarray, max_degree: int) -> BoundaryCurve:
    """Least-squares Fourier fit of uniformly sampled boundary points.

    On a uniform parameter grid the least-squares projection onto modes
    <= max_degree is the truncated FFT.  The max pointwise residual is
    monitored; above ``REFIT_TOL`` the fit is rejected.
    """
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if max_degree >= m // 2:
        raise ValueError("max_degree too large for the sample count")

    def fit_1d(vals):
        spec = np.fft.rfft(vals) / m
        a = np.zeros(max_degree + 1)
        b = np.zeros(max_degree + 1)
        a[0] = spec[0].real
        a[1:] = 2.0 * spec[1 : max_degree + 1].real
        b[1:] = -2.0 * spec[1 : max_degree + 1].imag
        return a, b

    ax, bx = fit_1d(pts[:, 0])
    ay, by = fit_1d(pts[:, 1])
    curve = BoundaryCurve(ax, bx, ay, by)
    t = TWO_PI * np.arange(m) / m
    residual = float(np.max(np.abs(curve.point(t) - pts)))
    if residual > REFIT_TOL:
        raise RefitFailureError(
            f"Fourier re-fit residual {residual:.3e} exceeds {REFIT_TOL:.1e}")
    return curve


def _trim_trailing(curve: BoundaryCurve) -> BoundaryCurve:
    scale = max(np.abs(curve.cos_x).max(), np.abs(curve.sin_x).max(),
                np.abs(curve.cos_y).max(), np.abs(curve.sin_y).max(), 1e-300)
    keep = 2
    for k in range(len(curve.cos_x) - 1, 1, -1):
        if max(abs(curve.cos_x[k]), abs(curve.sin_x[k]),
               abs(curve.cos_y[k]), abs(curve.sin_y[k])) > 1e-13 * scale:
            keep = k + 1
            break
    return BoundaryCurve(curve.cos_x[:keep], curve.sin_x[:keep],
                         curve.cos_y[:keep], curve.sin_y[:keep])


def check_perturbation_size(domain: DomainSpec, field: PerturbationField, eps: float) -> None:
    """Raise PerturbationTooLargeError unless |eps| * sup|psi| on the boundary
    stays below the domain's ``perturbation_margin``."""
    size = abs(eps) * field.sup_boundary_norm(domain)
    if size >= domain.perturbation_margin:
        raise PerturbationTooLargeError(
            f"|eps| * sup|psi| = {size:.3e} at eps={eps:.6g} exceeds the margin "
            f"{domain.perturbation_margin:.3e}")


def apply_perturbation(domain: DomainSpec, field: PerturbationField, eps: float) -> DomainSpec:
    """Domain with boundary {z + eps * psi(z) : z on the old boundary}.

    The displaced boundary is re-fit onto Fourier modes, first up to four
    times the original truncation plus the field's own bandwidth.  The
    displacement g nu carries 1 / |z'|, so on a curve whose speed varies the
    displaced curve is no trigonometric polynomial: while the fit residual
    exceeds ``REFIT_TOL`` the degree and the sample count are doubled, and
    past ``REFIT_DEGREE_CAP`` the refit fails with RefitFailureError.  The
    symmetry tag survives only if the new boundary is still invariant.
    """
    check_perturbation_size(domain, field, eps)
    curve = domain.boundary
    k_fit = 4 * curve.max_degree + field.max_mode
    while True:
        m = max(16 * (k_fit + 1), 256)
        t, frame = curve.grid_frame(m)
        try:
            new_curve = _trim_trailing(
                fit_curve(frame.point + eps * field.boundary_values(frame, t), k_fit))
            break
        except RefitFailureError:
            if 2 * k_fit > REFIT_DEGREE_CAP:
                raise
            k_fit *= 2
    symmetry = domain.symmetry
    if symmetry is not None and _parameter_maps(new_curve, symmetry) is None:
        symmetry = None
    return DomainSpec(new_curve, symmetry)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def equivariant_project(field: PerturbationField, group: SymmetryGroup,
                        domain: DomainSpec) -> PerturbationField:
    """Group-average a field into the equivariant subspace.

    For normal fields on an invariant boundary the group acts by affine
    parameter maps, so the average is taken directly on the Fourier
    coefficients of the normal profile.  Idempotent and linear.
    """
    maps = _parameter_maps(domain.boundary, group)
    if maps is None:
        raise SymmetryMismatchError("domain is not invariant under the group; cannot project")
    if field.kind == "identity_dilation":
        return PerturbationField("identity_dilation", amplitude=field.amplitude)
    n = len(field.cos_coeffs)
    k = np.arange(n)
    acc_a = np.zeros(n)
    acc_b = np.zeros(n)
    a, b = field.cos_coeffs, field.sin_coeffs
    for const, is_refl in maps:
        ck, sk = np.cos(k * const), np.sin(k * const)
        acc_a += a * ck + b * sk
        if is_refl:
            acc_b += a * sk - b * ck
        else:
            acc_b += -a * sk + b * ck
    m = len(maps)
    return PerturbationField("normal_fourier", acc_a / m, acc_b / m,
                             field.cutoff_width, field.amplitude)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def domain_to_dict(domain: DomainSpec) -> dict:
    out = {
        "type": "fourier_curve",
        "cos_x": list(domain.boundary.cos_x),
        "sin_x": list(domain.boundary.sin_x),
        "cos_y": list(domain.boundary.cos_y),
        "sin_y": list(domain.boundary.sin_y),
    }
    if domain.symmetry is not None:
        out["symmetry"] = {
            "kind": domain.symmetry.kind,
            "order": domain.symmetry.order,
            "axis_angle": domain.symmetry.axis_angle,
        }
    return out


def domain_from_dict(data: dict) -> DomainSpec:
    if data.get("type") != "fourier_curve":
        raise ValueError("domain file must have type 'fourier_curve'")
    curve = BoundaryCurve(
        data.get("cos_x", [0.0]), data.get("sin_x", [0.0]),
        data.get("cos_y", [0.0]), data.get("sin_y", [0.0]))
    symmetry = None
    if data.get("symmetry"):
        s = data["symmetry"]
        symmetry = SymmetryGroup(s["kind"], int(s["order"]), float(s.get("axis_angle", 0.0)))
    return DomainSpec(curve, symmetry)


def load_domain(path) -> DomainSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return domain_from_dict(json.load(fh))


def save_domain(domain: DomainSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(domain_to_dict(domain), fh, indent=2)
        fh.write("\n")


def field_from_dict(data: dict) -> PerturbationField:
    kind = data.get("type", "normal_fourier")
    if kind == "identity_dilation":
        return identity_dilation(float(data.get("amplitude", 1.0)))
    if kind == "zero":
        return zero_field()
    if kind != "normal_fourier":
        raise ValueError(f"unknown field type {kind!r}")
    return normal_field(
        np.asarray(data.get("cos", [0.0]), dtype=float),
        np.asarray(data.get("sin", [0.0]), dtype=float),
        float(data.get("cutoff_width", DEFAULT_CUTOFF_WIDTH)),
        float(data.get("amplitude", 1.0)))


def load_field(path) -> PerturbationField:
    with open(path, "r", encoding="utf-8") as fh:
        return field_from_dict(json.load(fh))
