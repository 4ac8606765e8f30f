"""Numerical toolkit for Green-function energies of planar vortex systems.

Builds Dirichlet Green functions on smooth planar domains (closed forms on
disks, closed forms through a numerically computed Riemann map elsewhere,
and a spectral boundary-integral backend as the reference), assembles
Kirchhoff-Routh type energies with exact derivatives, locates and classifies
their critical points, differentiates them with respect to boundary
perturbations, and integrates the associated point-vortex dynamics.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyDegradedError,
    CollisionError,
    DiscretizationFailureError,
    EmptyRegionError,
    GreenMorseError,
    MalformedCurveError,
    NumericError,
    OutsideDomainError,
    PerturbationTooLargeError,
    RefitFailureError,
    SingularityError,
    SymmetryMismatchError,
    UndefinedOrbitError,
    UnsupportedFieldError,
)
from .geometry import (
    BoundaryCurve,
    DomainSpec,
    PerturbationField,
    SymmetryGroup,
    apply_perturbation,
    circle,
    contains,
    cosine_field,
    equivariant_project,
    identity_dilation,
    load_domain,
    load_field,
    normal_field,
    sample_interior,
    save_domain,
    unit_circle,
    zero_field,
)
from .green import (
    BoundaryTrace,
    ConformalGreenEngine,
    DiskGreenEngine,
    GreenEvaluation,
    IntegralGreenEngine,
    RobinEvaluation,
    build_engine,
    gamma,
)
from .kr import (
    Configuration,
    EvaluationResult,
    InteractionSpec,
    VortexStrengths,
    check_admissible,
    custom_interaction,
    f_omega,
    f_omega_stack,
    interaction,
    kirchhoff_routh_interaction,
    load_vortex,
    save_vortex,
    zero_interaction,
)
from .critical import (
    CriticalPoint,
    MorseReport,
    SearchConfig,
    classify,
    detect_rotation_orbit,
    find_critical_points,
    newton_polish,
)
from .shape import (
    ContinuationTrace,
    ShapeDerivativeReport,
    continue_critical_point,
    dGradF_shape,
    dH_shape,
    dRobin_shape,
    fd_check,
)
from .dynamics import (
    DynamicsConfig,
    Trajectory,
    conservation_report,
    integrate,
    velocity,
)
