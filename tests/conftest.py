import os

# BLAS reads its thread count when numpy loads it, and some results (the
# round-off in test_continuation_corrector_regression among them) depend on
# the count, so the suite runs single-threaded wherever it is started
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import strategies as st

import greenmorse as gm
from greenmorse.geometry import fit_curve

# radius of the counter-rotating pair equilibrium on the unit disk: the
# positive root of a^4 + 4 a^2 - 1 = 0
DIPOLE_RADIUS = float(np.sqrt(np.sqrt(5.0) - 2.0))


@pytest.fixture(scope="session")
def disk_domain():
    return gm.DomainSpec(gm.unit_circle())


@pytest.fixture(scope="session")
def disk_engine(disk_domain):
    return gm.build_engine(disk_domain)


@pytest.fixture(scope="session")
def integral_engine(disk_domain):
    return gm.IntegralGreenEngine(disk_domain, 256)


@pytest.fixture(scope="session")
def lobed_domain(disk_domain):
    return gm.apply_perturbation(disk_domain, gm.cosine_field(3), 0.05)


@pytest.fixture(scope="session")
def lobed_engine(lobed_domain):
    return gm.build_engine(lobed_domain, 256)


@pytest.fixture(scope="session")
def lobed_integral_engine(lobed_domain):
    """The Nystrom engine, the reference the conformal-map default is tested against."""
    return gm.IntegralGreenEngine(lobed_domain, 256)


@pytest.fixture(scope="session")
def tilted_domain():
    """A curve with no symmetry: low modes in every coefficient family, an
    offset centre and a tilt."""
    return gm.DomainSpec(gm.BoundaryCurve([0.1, 1.0, 0.08, 0.0], [0.0, 0.15, 0.0, 0.03],
                                          [-0.05, 0.2, 0.0, 0.04], [0.0, 0.9, 0.06, 0.0]))


@pytest.fixture(scope="session")
def banana_domain():
    """x = 1.5 cos t, y = 0.45 + 0.4 sin t + 0.45 cos 2t: a curved, mirror-
    symmetric domain whose boundary-sample centroid (0, 0.45) lies outside it."""
    return gm.DomainSpec(gm.BoundaryCurve([0.0, 1.5], [0.0], [0.45, 0.0, 0.45], [0.0, 0.4]))


@pytest.fixture(scope="session")
def dipole_setup():
    a = DIPOLE_RADIUS
    return (gm.VortexStrengths([1.0, -1.0]),
            gm.Configuration([[a, 0.0], [-a, 0.0]]),
            gm.kirchhoff_routh_interaction())


def polynomial_image(coeffs) -> gm.DomainSpec:
    """Omega = g(D), g(u) = sum_k coeffs[k] u^k with coeffs[0] = 0 and
    coeffs[1] = 1, univalent if sum_{k >= 2} k |coeffs[k]| < 1: its boundary
    g(e^{it}) is a trigonometric polynomial in t, and its Riemann map g^-1
    takes the boundary point at parameter t to e^{it} exactly."""
    c = np.asarray(coeffs, dtype=complex)
    # Re and Im of c_k e^{ikt}: (a cos kt - b sin kt, b cos kt + a sin kt)
    return gm.DomainSpec(gm.BoundaryCurve(c.real, -c.imag, c.imag, c.real))


def _preimage(coeffs, points) -> np.ndarray:
    """u with g(u) = x for each point x, g as in ``polynomial_image``, by
    Newton's method started at u = x."""
    c = np.asarray(coeffs, dtype=complex)
    poly, deriv = c[::-1], np.polyder(c[::-1])
    x = points[:, 0] + 1j * points[:, 1]
    u = x.copy()
    for _ in range(30):
        u = u - (np.polyval(poly, u) - x) / np.polyval(deriv, u)
    assert np.max(np.abs(np.polyval(poly, u) - x)) <= 1e-15
    return u


def lin_green(coeffs, points) -> tuple:
    """H(x_j, x_k) and its gradient in x_j on g(D), g(u) = sum_k coeffs[k] u^k
    as in ``polynomial_image``, in closed form (C. C. Lin, PNAS 27 (1941)):
    with x = g(u), y = g(v) and the divided difference Q(u, v) =
    (g(u) - g(v)) / (u - v), summed termwise so that it is g'(u) at u = v,

        H(x, y) = -(1/2pi) (ln|Q(u, v)| + ln|1 - u conj v|).

    H is Re A with A(u) = -(ln Q + ln(1 - u conj v)) / 2pi, so grad_x H =
    (Re, -Im) of dA/du / g'(u).  Each point's u comes from ``_preimage``.
    Returns the (N, N) values and the (N, N, 2) gradients in x_j."""
    c = np.asarray(coeffs, dtype=complex)
    deriv = np.polyder(c[::-1])
    u = _preimage(coeffs, points)
    uj, vk = u[:, None], u[None, :]
    q = sum(c[k] * uj**i * vk ** (k - 1 - i) for k in range(1, len(c)) for i in range(k))
    q_u = sum(c[k] * i * uj ** (i - 1) * vk ** (k - 1 - i)
              for k in range(2, len(c)) for i in range(1, k))
    b = 1.0 - uj * np.conj(vk)
    value = -(np.log(np.abs(q)) + np.log(np.abs(b))) / (2 * np.pi)
    a_x = -(q_u / q - np.conj(vk) / b) / (2 * np.pi * np.polyval(deriv, uj))
    return value, np.stack([a_x.real, -a_x.imag], axis=-1)


def lin_trace(coeffs, points, t) -> np.ndarray:
    """The boundary trace d_nu G(x, .) on g(D), as in ``lin_green``, at the
    boundary points g(e^{it}) (the curve of ``polynomial_image`` at
    parameter t): the Poisson kernel of the disk carried over by g,

        -(1 - |u|^2) / (2pi |e^{it} - u|^2 |g'(e^{it})|),  x = g(u).

    Returns (N, len(t))."""
    c = np.asarray(coeffs, dtype=complex)
    u = _preimage(coeffs, points)[:, None]
    w = np.exp(1j * np.asarray(t, dtype=float))[None, :]
    speed = np.abs(np.polyval(np.polyder(c[::-1]), w))
    return -(1.0 - np.abs(u) ** 2) / (2 * np.pi * np.abs(w - u) ** 2 * speed)


def point_at_distance(domain, t, dist):
    """The boundary point at parameter t moved ``dist`` inward along the normal
    (outward for dist < 0)."""
    frame = domain.boundary.frame(t)
    return frame.point - dist * frame.normal


def orbit_distance(points_a, points_b) -> float:
    """Distance between configurations modulo a global rotation."""
    za = points_a[:, 0] + 1j * points_a[:, 1]
    zb = points_b[:, 0] + 1j * points_b[:, 1]
    s = np.vdot(zb, za)
    if abs(s) < 1e-300:
        return float(np.sqrt(np.sum(np.abs(za) ** 2 + np.abs(zb) ** 2)))
    phase = np.conj(s) / abs(s)
    return float(np.linalg.norm(np.abs(phase * za - zb)))


@st.composite
def low_mode_domains(draw):
    """A star-shaped domain r(t) (s cos t, sin t) + c with r = 1 + modes 2-4 of
    total size <= 0.48, stretched by s and moved by c: Fourier degree 5."""
    coef = draw(st.lists(st.floats(-0.08, 0.08), min_size=6, max_size=6))
    stretch = draw(st.floats(0.7, 1.3))
    cx, cy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    t = 2 * np.pi * np.arange(64) / 64
    r = 1.0 + sum(a * np.cos(k * t) + b * np.sin(k * t)
                  for k, a, b in zip((2, 3, 4), coef[::2], coef[1::2]))
    pts = np.stack([cx + stretch * r * np.cos(t), cy + r * np.sin(t)], axis=1)
    return gm.DomainSpec(fit_curve(pts, 5))
