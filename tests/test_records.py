"""The records' contract: the package's public names, and for every record
its constructors, defaults, repr and immutability; and the shape-verify
report, which the CLI writes from a record's fields."""

import json

import numpy as np
import pytest

import greenmorse as gm
from conftest import DIPOLE_RADIUS
from greenmorse import cli, critical, kr

# every public name of the package; names may be added, none may go
PUBLIC_NAMES = (
    "AccuracyDegradedError", "BoundaryCurve", "BoundaryTrace", "CollisionError",
    "Configuration", "ConformalGreenEngine", "ContinuationTrace", "CriticalPoint",
    "DiscretizationFailureError", "DiskGreenEngine", "DomainSpec", "DynamicsConfig",
    "EmptyRegionError", "EvaluationResult", "GreenEvaluation", "GreenMorseError",
    "IntegralGreenEngine", "InteractionSpec", "MalformedCurveError", "MorseReport",
    "NumericError", "OutsideDomainError", "PerturbationField", "PerturbationTooLargeError",
    "RefitFailureError", "RobinEvaluation", "SearchConfig", "ShapeDerivativeReport",
    "SingularityError", "SymmetryGroup", "SymmetryMismatchError", "Trajectory",
    "UndefinedOrbitError", "UnsupportedFieldError", "VortexStrengths", "apply_perturbation",
    "build_engine", "check_admissible", "circle", "classify", "conservation_report",
    "contains", "continue_critical_point", "cosine_field", "critical", "custom_interaction",
    "dGradF_shape", "dH_shape", "dRobin_shape", "detect_rotation_orbit", "dynamics",
    "equivariant_project", "errors", "f_omega", "f_omega_stack", "fd_check",
    "find_critical_points", "gamma", "geometry", "green", "identity_dilation", "integrate",
    "interaction", "kirchhoff_routh_interaction", "kr", "load_domain", "load_field",
    "load_vortex", "newton_polish", "normal_field", "sample_interior", "save_domain",
    "save_vortex", "shape", "unit_circle", "velocity", "zero_field", "zero_interaction",
)

_A = np.arange(4.0)
_M = np.eye(2)
_CONFIG = gm.Configuration([[0.1, 0.2]])

# every record with the arguments of one instance, by keyword in signature order
RECORDS = [
    (gm.BoundaryCurve, dict(cos_x=[0.0, 0.0], sin_x=[0.0, 0.0], cos_y=[0.0, 0.0],
                            sin_y=[0.0, 1.0])),
    (gm.SymmetryGroup, dict(kind="dihedral", order=3, axis_angle=0.2)),
    (gm.DomainSpec, dict(boundary=gm.unit_circle(), symmetry=None)),
    (gm.PerturbationField, dict(kind="normal_fourier", cos_coeffs=[0.0, 1.0],
                                sin_coeffs=[0.0, 0.5], cutoff_width=0.3, amplitude=2.0)),
    (gm.GreenEvaluation, dict(value=1.0, grad_x=_A[:2], grad_y=_A[2:], hess_xx=_M,
                              hess_yy=_M, hess_xy=_M)),
    (gm.RobinEvaluation, dict(value=1.0, gradient=_A[:2], hessian=_M)),
    (gm.BoundaryTrace, dict(values=_A, nodes=np.ones((4, 2)), normals=np.ones((4, 2)),
                            weights=_A)),
    (gm.VortexStrengths, dict(values=[1.0, -1.0])),
    (gm.Configuration, dict(points=[[0.1, 0.2], [0.3, 0.4]])),
    (gm.InteractionSpec, dict(variant="custom", custom_evaluator=abs, collision_margin=0.1)),
    (gm.EvaluationResult, dict(_value=float, gradient=_A, _hessian=np.eye)),
    (kr.AdmissibilityResult, dict(ok=False, diagnostics=("collision",))),
    (gm.SearchConfig, dict(starts=3, seed=1, collision_margin=0.02, newton_tol=1e-9)),
    (critical.Classification, dict(spectrum=_A, morse_index=1, nullity=0, margin=0.5)),
    (gm.CriticalPoint, dict(configuration=_CONFIG, residual=1e-12, spectrum=_A[:2],
                            morse_index=1, nullity=0, margin=0.5, hessian=_M,
                            orbit_tag="rotation-orbit", alignment=1.0)),
    (gm.MorseReport, dict(points=(), stats={}, domain_fingerprint="d",
                          function_fingerprint="f", rounds=2, candidates=4)),
    (critical.PolishResult, dict(configuration=_A, residual=1e-12, hessian=np.eye(4),
                                 iterations=3, evaluations=5, converged=True, failure=None)),
    (gm.ShapeDerivativeReport, dict(quantity="H", eps_ladder=(0.01,), fd_values=(1.0,),
                                    analytic=1.0, richardson=1.0, observed_order=2.0,
                                    rel_error=0.0, passed=True, failures=())),
    (gm.ContinuationTrace, dict(eps_values=(0.0,), configurations=(_M,), residuals=(0.0,),
                                margins=(1.0,), predictor_used=(False,),
                                corrector_iterations=(0,), solve_nodes=(None,),
                                diagnostic=None)),
    (gm.DynamicsConfig, dict(integrator="rk4", dt=0.01, horizon=0.05)),
    (gm.Trajectory, dict(times=_A, states=np.zeros((4, 1, 2)), hamiltonian=_A,
                         angular_impulse=_A, rotation_symmetric=True, diagnostic=None,
                         solver_iterations=np.ones(3, dtype=int), solver_updates=_A[:3],
                         newton_skipped=np.zeros(3, dtype=bool))),
]
_IDS = [cls.__name__ for cls, _ in RECORDS]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a is b or a == b


def test_public_names_import():
    missing = [name for name in PUBLIC_NAMES if not hasattr(gm, name)]
    assert missing == []


@pytest.mark.parametrize(("cls", "kwargs"), RECORDS, ids=_IDS)
def test_positional_and_keyword_constructors_agree(cls, kwargs):
    by_position, by_keyword = cls(*kwargs.values()), cls(**kwargs)
    for name in kwargs:
        assert _same(getattr(by_position, name), getattr(by_keyword, name)), name
    assert repr(by_position) == repr(by_keyword)
    assert repr(by_keyword).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize(("cls", "kwargs"), RECORDS, ids=_IDS)
def test_records_refuse_assignment(cls, kwargs):
    # as the frozen dataclasses did; PolishResult, once mutable, is immutable too
    record = cls(**kwargs)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_the_run_state_stays_mutable():
    runs = critical._Runs(_A[None], _A[None], np.eye(4)[None], [1.0], [0.0], [0], [1],
                          [False], [None])
    runs.x = runs.x + 1.0
    assert runs.x[0, 0] == 1.0 and runs.take([0]).failure == [None]


def test_defaults():
    # the CLI reads the settings' defaults from the classes
    assert (gm.SearchConfig.starts, gm.SearchConfig.seed, gm.SearchConfig.collision_margin,
            gm.SearchConfig.newton_tol) == (100, 0, 0.05, 1e-10)
    assert repr(gm.SearchConfig()) == ("SearchConfig(starts=100, seed=0, collision_margin=0.05, "
                                       "newton_tol=1e-10)")
    assert (gm.DynamicsConfig.integrator, gm.DynamicsConfig.dt,
            gm.DynamicsConfig.horizon) == ("midpoint", 1e-3, 1.0)
    assert repr(gm.DynamicsConfig()) == ("DynamicsConfig(integrator='midpoint', dt=0.001, "
                                         "horizon=1.0)")
    assert gm.SymmetryGroup("cyclic", 2).axis_angle == 0.0
    assert gm.DomainSpec(gm.unit_circle()).symmetry is None
    spec = gm.InteractionSpec("zero")
    assert spec.custom_evaluator is None and spec.collision_margin is None
    field = gm.PerturbationField("normal_fourier")
    assert field.cos_coeffs.tolist() == [0.0] and field.sin_coeffs.tolist() == [0.0]
    assert (field.cutoff_width, field.amplitude) == (0.35, 1.0)
    cp = gm.CriticalPoint(_CONFIG, 0.0, _A[:2], 0, 0, 1.0, _M)
    assert (cp.orbit_tag, cp.alignment) == ("isolated", None)
    assert critical.PolishResult(None, 1.0, None, 0, 1, False).failure is None
    report = gm.ShapeDerivativeReport("H", (), (), 1.0, None, None, 1.0, False)
    assert report.failures == ()
    traj = gm.Trajectory(_A, np.zeros((4, 1, 2)), _A, _A, False)
    assert traj.diagnostic is None
    assert [(a.dtype.kind, a.size) for a in (traj.solver_iterations, traj.solver_updates,
                                              traj.newton_skipped)] == [("i", 0), ("f", 0),
                                                                        ("b", 0)]


def test_cached_properties_compute_once():
    calls = []
    result = gm.EvaluationResult(lambda: calls.append("value") or 2.0, _A,
                                 lambda: calls.append("hessian") or _M)
    assert result.value == result.value == 2.0
    assert result.hessian is result.hessian
    assert calls == ["value", "hessian"]
    domain = gm.DomainSpec(gm.unit_circle())
    assert domain.perturbation_margin == domain.perturbation_margin > 0.0


@pytest.mark.parametrize("quantity", ["H", "grad_f"])
def test_shape_verify_report_keeps_its_keys_and_values(tmp_path, disk_domain, quantity):
    domain_path, field_path = tmp_path / "disk.json", tmp_path / "cos3.json"
    gm.save_domain(disk_domain, domain_path)
    field_path.write_text(json.dumps({"type": "normal_fourier", "cos": [0.0, 0.0, 0.0, 1.0]}),
                          encoding="utf-8")
    argv = ["shape-verify", str(domain_path), "--field", str(field_path),
            "--quantity", quantity]
    if quantity == "grad_f":
        vortex = tmp_path / "dipole.json"
        gm.save_vortex(gm.VortexStrengths([1.0, -1.0]),
                       gm.Configuration([[DIPOLE_RADIUS, 0.0], [-DIPOLE_RADIUS, 0.0]]),
                       gm.kirchhoff_routh_interaction(), vortex)
        argv += ["--vortex", str(vortex)]
        strengths, config, spec = gm.load_vortex(vortex)
        kwargs = dict(strengths=strengths, spec=spec, config=config)
    else:
        kwargs = dict(x=np.array([0.3, 0.0]), y=np.array([0.1, 0.2]))
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    keys = ["analytic", "eps_ladder", "failures", "fd_values", "observed_order", "passed",
            "quantity", "rel_error", "richardson"]
    assert sorted(report) == keys
    # each value is the field of the same name of the command's report
    expected = gm.fd_check(gm.load_domain(domain_path), quantity, gm.load_field(field_path),
                           [1e-2, 5e-3, 2.5e-3], **kwargs)
    assert report == json.loads(json.dumps({key: getattr(expected, key) for key in keys},
                                           default=cli._numpy_to_json))
    assert report["quantity"] == quantity and report["passed"] is True
