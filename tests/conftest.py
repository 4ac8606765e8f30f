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
