import numpy as np

import greenmorse as gm


def test_angular_impulse_conserved_about_off_centre_disk():
    # the midpoint rule keeps the quadratic impulse about the disk's centre
    engine = gm.build_engine(gm.DomainSpec(gm.circle(center=(0.5, 0.0))))
    traj = gm.integrate(engine, gm.VortexStrengths([1.0, -1.0]),
                        gm.kirchhoff_routh_interaction(),
                        np.array([0.8, 0.1, 0.3, -0.3]),
                        gm.DynamicsConfig(dt=1e-2, horizon=0.5))
    assert not traj.truncated
    assert np.ptp(traj.states[:, 0, 0]) > 1e-2   # the pair does move
    assert gm.conservation_report(traj)["angular_impulse_drift"] <= 1e-10
