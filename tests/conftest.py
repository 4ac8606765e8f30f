import numpy as np
import pytest

import greenmorse as gm

# radius of the counter-rotating pair equilibrium on the unit disk: the
# positive root of a^4 + 4 a^2 - 1 = 0
DIPOLE_RADIUS = float(np.sqrt(np.sqrt(5.0) - 2.0))


@pytest.fixture(scope="session")
def disk_domain():
    return gm.DomainSpec(gm.unit_circle())


@pytest.fixture(scope="session")
def disk_engine(disk_domain):
    return gm.build_engine(disk_domain, backend="disk")


@pytest.fixture(scope="session")
def integral_engine(disk_domain):
    return gm.build_engine(disk_domain, 256, backend="integral")


@pytest.fixture(scope="session")
def lobed_domain(disk_domain):
    return gm.apply_perturbation(disk_domain, gm.cosine_field(3), 0.05)


@pytest.fixture(scope="session")
def lobed_engine(lobed_domain):
    return gm.build_engine(lobed_domain, 256)


@pytest.fixture(scope="session")
def dipole_setup():
    a = DIPOLE_RADIUS
    return (gm.VortexStrengths([1.0, -1.0]),
            gm.Configuration([[a, 0.0], [-a, 0.0]]),
            gm.kirchhoff_routh_interaction())


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
