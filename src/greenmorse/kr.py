"""Kirchhoff-Routh-type energies of vortex configurations.

The assembled function is

    f(x_1..x_N) - sum_{j,k} lambda_j lambda_k H(x_j, x_k)

with the double sum running over all pairs including j = k, so the diagonal
contributes the Robin terms -lambda_k^2 h(x_k).  The interaction f is either
the point-vortex log sum -(1/2pi) sum_{j != k} lambda_j lambda_k ln|x_j - x_k|,
identically zero, or a caller-supplied C^2 evaluator.  The engine sums H
(the conformal and disk engines, ``green.ConformalGreenEngine``):
``f_omega`` sums the log sum and the double sum in one pass
(``engine.green_sum``), and any other interaction minus the double sum
(``engine.regular_sum``).

Evaluation takes a stack: ``f_omega_stack`` evaluates S configurations,
given as an (S, N, 2) array, at once.  The collision rule ``apart`` and the
engine's boundary rule ``interior`` each give one verdict per
configuration, from one gap comparison and one batched verdict query
(``geometry.contains``), and the configurations both admit are evaluated
together.  ``f_omega`` is the raising S = 1 form, as ``require_apart`` and
``engine.require_interior`` are of the two rules, with the messages of the
rule that refused.  The collision rule forms the pair differences x_j - x_k
once, as complex numbers, and the log sum and ``green_sum`` reuse them.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyDegradedError, CollisionError, OutsideDomainError
from .frozen import Frozen
from .geometry import DomainSpec
from .green import _set_diagonal

# the collision margin defaults to this fraction of the domain diameter
DEFAULT_MARGIN_FRACTION = 1e-3


class VortexStrengths(Frozen):
    """Finite, nonzero circulation strengths lambda_1..lambda_N."""

    _fields = ("values",)

    def __init__(self, values):
        arr = np.atleast_1d(np.asarray(values, dtype=float)).copy()
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("strengths must be a nonempty 1-d list")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all strengths must be finite")
        if np.any(np.abs(arr) < 1e-12):
            raise ValueError("all strengths must be nonzero")
        arr.setflags(write=False)
        self._set(values=arr)

    def __len__(self):
        return len(self.values)


class Configuration(Frozen):
    """N planar points."""

    _fields = ("points",)

    def __init__(self, points):
        arr = np.asarray(points, dtype=float).reshape(-1, 2).copy()
        if len(arr) < 1:
            raise ValueError("configuration must contain at least one point")
        arr.setflags(write=False)
        self._set(points=arr)

    def __len__(self):
        return len(self.points)

    def flat(self) -> np.ndarray:
        return self.points.reshape(-1)


def _pair_differences(points: np.ndarray) -> tuple:
    """x_j - x_k at [..., j, k] as complex numbers for a (..., N, 2) stack of
    points (NaN, without a warning, for a non-finite point), and its squared
    length dx * dx + dy * dy, inf at j = k."""
    z = np.ascontiguousarray(points).view(complex)[..., 0]
    with np.errstate(invalid="ignore"):
        d = z[..., :, None] - z[..., None, :]
    r2 = d.real * d.real + d.imag * d.imag
    _set_diagonal(r2, np.inf)
    return d, r2


def check_collision_margin(margin: float) -> None:
    """ValueError unless the margin is >= 0 (so NaN is refused)."""
    if not margin >= 0:
        raise ValueError(f"collision_margin must be >= 0, got {margin}")


def apart(points, margin: float) -> tuple:
    """The collision rule for a (..., N, 2) stack of configurations: a
    configuration is admissible iff its smallest pair distance is more than
    ``margin`` (a NaN distance is not refused here; the boundary rule refuses
    its point).  Returns the verdicts, shape (...), and the
    ``_pair_differences`` of the points, which the evaluation reuses."""
    d, r2 = _pair_differences(points)
    return ~(np.sqrt(r2.min(axis=(-2, -1))) <= margin), d, r2


def require_apart(points, margin: float) -> tuple:
    """``apart`` for one configuration (N, 2), raising: ValueError for a margin
    that ``check_collision_margin`` refuses, CollisionError for pairs not more
    than ``margin`` apart.  It is the counterpart of the engines'
    ``require_interior``, and returns the pair differences d and r2."""
    check_collision_margin(margin)
    ok, d, r2 = apart(np.asarray(points, dtype=float), margin)
    if not ok:
        raise CollisionError(f"minimal pair distance {math.sqrt(r2.min()):.3e} not above "
                             f"the collision margin {margin:.3e}")
    return d, r2


def admitted(engine, points, collision_margin: float) -> tuple:
    """Both rules of ``f_omega`` for a (..., N, 2) stack: the verdicts of
    ``apart`` at the margin (checked by ``check_collision_margin``) and of
    ``engine.interior``, one verdict query for all the points,
    with the pair differences d and r2 of ``apart``."""
    check_collision_margin(collision_margin)
    pts = np.asarray(points, dtype=float)
    ok, d, r2 = apart(pts, collision_margin)
    return ok & engine.interior(pts), d, r2


class InteractionSpec(Frozen):
    """Interaction term: "kirchhoff_routh", "zero", or "custom".

    A custom evaluator maps (points (N,2), strengths (N,)) to
    (value, gradient (2N,), hessian (2N,2N)) and must be C^2 on its open
    domain, described by ``collision_margin``.
    """

    _fields = ("variant", "custom_evaluator", "collision_margin")

    def __init__(self, variant: str, custom_evaluator: Callable | None = None,
                 collision_margin: float | None = None):
        if variant not in ("kirchhoff_routh", "zero", "custom"):
            raise ValueError(f"unknown interaction variant {variant!r}")
        if variant == "custom" and custom_evaluator is None:
            raise ValueError("custom interaction requires an evaluator")
        if collision_margin is not None:
            check_collision_margin(collision_margin)
        self._set(variant=variant, custom_evaluator=custom_evaluator,
                  collision_margin=collision_margin)


def kirchhoff_routh_interaction() -> InteractionSpec:
    return InteractionSpec("kirchhoff_routh")


def zero_interaction() -> InteractionSpec:
    return InteractionSpec("zero")


def custom_interaction(evaluator: Callable, collision_margin: float) -> InteractionSpec:
    return InteractionSpec("custom", evaluator, collision_margin)


class EvaluationResult(Frozen):
    """The gradient, computed when the result is made, and the value and the
    Hessian, computed by the private thunks ``_value`` and ``_hessian`` on
    first read of ``value`` and ``hessian`` and then cached.  Admissibility
    is decided when the result is made, so neither read raises."""

    _fields = ("gradient",)

    def __init__(self, _value: Callable, gradient: np.ndarray, _hessian: Callable):
        # _value: () -> float; gradient: (2N,); _hessian: () -> (2N, 2N)
        self._set(_value=_value, gradient=gradient, _hessian=_hessian)

    @cached_property
    def value(self) -> float:
        return self._value()

    @cached_property
    def hessian(self) -> np.ndarray:
        """(2N, 2N), symmetric."""
        return self._hessian()


class AdmissibilityResult(NamedTuple):
    ok: bool
    diagnostics: tuple

    def __bool__(self):
        return self.ok


def _log_pair_terms(d: np.ndarray, r2: np.ndarray, lam: np.ndarray):
    """The gradient of -(1/2pi) sum_{j != k} l_j l_k ln|x_j - x_k|, and thunks
    for its value and Hessian, from the ``apart`` complex differences d and
    squared lengths r2 (whose diagonal it overwrites) of one configuration
    or a stack."""
    n = len(lam)
    d = d.view(float).reshape(d.shape + (2,))     # (dx, dy) at [..., j, k]
    _set_diagonal(r2, 1.0)
    c = np.outer(lam, lam) / np.pi
    np.fill_diagonal(c, 0.0)
    grad = -np.sum((c / r2)[..., None] * d, axis=-2)
    m = 2 * n

    def hessian():
        a = (np.eye(2) * r2[..., None, None]
             - 2.0 * d[..., :, None] * d[..., None, :]) / (r2 * r2)[..., None, None]
        hess = np.einsum("jk,...jkab->...jakb", c, a)
        diag = np.arange(n)
        # the indexed diagonal puts its j axis first
        hess[..., diag, :, diag, :] -= np.moveaxis(hess.sum(axis=-2), -3, 0)
        return hess.reshape(hess.shape[:-4] + (m, m))

    # every pair appears as (j, k) and (k, j)
    return (lambda: -0.25 * np.sum(c * np.log(r2), axis=(-2, -1)),
            grad.reshape(grad.shape[:-2] + (m,)), hessian)


def _stack_terms(terms, m: int) -> tuple:
    """One (value thunk, gradient, Hessian thunk) for a stack from those of
    its K configurations, in 2N = ``m`` coordinates: values (K,), gradients
    (K, m) and Hessians (K, m, m)."""
    k = len(terms)
    values = [value for value, _, _ in terms]
    hessians = [hessian for _, _, hessian in terms]
    return (lambda: np.array([value() for value in values], dtype=float).reshape(k),
            np.array([grad for _, grad, _ in terms], dtype=float).reshape(k, m),
            lambda: np.array([hessian() for hessian in hessians], dtype=float).reshape(k, m, m))


def _interaction_terms(spec: InteractionSpec, lam: np.ndarray, pts: np.ndarray, d, r2) -> tuple:
    """The interaction's value thunk, gradient and Hessian thunk at one
    configuration (N, 2) or a stack (S, N, 2) of configurations that
    ``apart`` admitted, with its differences d and r2; a custom evaluator is
    called once per configuration."""
    m = 2 * pts.shape[-2]
    lead = pts.shape[:-2]
    if spec.variant == "zero":
        value = np.zeros(lead) if lead else 0.0
        return lambda: value, np.zeros(lead + (m,)), lambda: np.zeros(lead + (m, m))
    if spec.variant == "kirchhoff_routh":
        return _log_pair_terms(d, r2, lam)
    if lead:
        return _stack_terms([_interaction_terms(spec, lam, p, None, None) for p in pts], m)
    value, grad, hess = spec.custom_evaluator(pts, lam)
    value, hess = float(value), np.asarray(hess, dtype=float).reshape(m, m)
    return lambda: value, np.asarray(grad, dtype=float).reshape(m), lambda: hess


def _require_pairs(strengths: VortexStrengths, config: Configuration, margin: float) -> tuple:
    """``require_apart`` at the margin, after the length check (ValueError)."""
    if len(strengths) != len(config):
        raise ValueError("strengths and configuration lengths differ")
    return require_apart(config.points, margin)


def interaction(spec: InteractionSpec, strengths: VortexStrengths,
                config: Configuration, collision_margin: float | None = None) -> EvaluationResult:
    """Value, gradient, and Hessian of the interaction term alone; the
    Hessian of the log sum is computed on first read.  The configuration must
    pass ``require_apart`` at the given margin, else the interaction's, else 0
    (``f_omega`` passes the margin that ``resolve_collision_margin`` gives)."""
    if collision_margin is None:
        collision_margin = spec.collision_margin if spec.collision_margin is not None else 0.0
    d, r2 = _require_pairs(strengths, config, collision_margin)
    return EvaluationResult(*_interaction_terms(spec, strengths.values, config.points, d, r2))


def check_admissible(engine, spec: InteractionSpec, config: Configuration,
                     collision_margin: float | None = None) -> AdmissibilityResult:
    """Whether ``f_omega`` admits the configuration, with diagnostics: by
    ``require_apart`` at the margin ``resolve_collision_margin`` gives and by
    ``engine.require_interior``, in the precedence of ``f_omega``.  A margin
    that is not >= 0 raises ValueError, as in ``f_omega``.  Like ``f_omega``
    it names one point, the first that the boundary rule refuses."""
    cm = resolve_collision_margin(engine.domain, spec, collision_margin)
    diagnostics = []
    try:
        require_apart(config.points, cm)
    except CollisionError as exc:
        diagnostics.append(f"collision: {exc}")
    try:
        engine.require_interior(config.points)
    except (OutsideDomainError, AccuracyDegradedError) as exc:
        diagnostics.append(f"boundary: {exc}")
    return AdmissibilityResult(not diagnostics, tuple(diagnostics))


def resolve_collision_margin(domain: DomainSpec, spec: InteractionSpec,
                             collision_margin: float | None) -> float:
    """The collision margin ``f_omega`` and ``check_admissible`` apply: the
    given one, else the interaction's, else ``DEFAULT_MARGIN_FRACTION`` of
    the diameter."""
    if collision_margin is None:
        collision_margin = spec.collision_margin
    if collision_margin is None:
        return DEFAULT_MARGIN_FRACTION * domain.diameter
    return collision_margin


def _energy(engine, spec: InteractionSpec, lam: np.ndarray, pts: np.ndarray, d, r2) -> tuple:
    """The value thunk, gradient and Hessian thunk of one admitted
    configuration (N, 2) or of an admitted stack (S, N, 2), from the pair
    differences d and r2 of ``apart``: one ``engine.green_sum`` call for the
    Kirchhoff-Routh interaction, else the interaction minus one
    ``engine.regular_sum`` call."""
    if spec.variant == "kirchhoff_routh":
        return engine.green_sum(pts, lam, d)
    inter_value, inter_grad, inter_hessian = _interaction_terms(spec, lam, pts, d, r2)
    value, grad, regular_hessian = engine.regular_sum(pts, lam)

    def hessian():
        H = inter_hessian() - regular_hessian()
        return 0.5 * (H + H.swapaxes(-1, -2))

    return lambda: inter_value() - value(), inter_grad - grad, hessian


def f_omega(engine, strengths: VortexStrengths, spec: InteractionSpec,
            config: Configuration, collision_margin: float | None = None) -> EvaluationResult:
    """Interaction minus the full regular-part double sum, with derivatives:
    the raising S = 1 form of ``f_omega_stack``.

    Admissibility is decided once, by two rules in this precedence, after a
    check that there are as many strengths as points: ``require_apart`` at
    the margin ``resolve_collision_margin`` gives (ValueError for a margin
    not >= 0, CollisionError for pairs not more than the margin apart); then
    the engine's ``require_interior``, one verdict query for all points
    (OutsideDomainError for a point not inside, AccuracyDegradedError
    for one not more than ``engine.eval_margin`` inside).
    ``check_admissible`` applies the same two rules.

    The engine is a conformal-map or disk engine, the engines that sum H
    (``build_engine`` gives one).  With the Kirchhoff-Routh interaction the
    result is one ``engine.green_sum`` call, which sums the log sum and
    S = sum_{j,k} lambda_j lambda_k H(x_j, x_k) in one complex pass, from
    the pair differences that ``require_apart`` formed.  Otherwise it is
    ``interaction`` minus S from one ``engine.regular_sum`` call, in the same
    complex form.  The gradient is computed by the call; the value on the
    first read of ``.value`` and the Hessian on the first read of
    ``.hessian``, then cached, so callers that need only the gradient, such as the search
    trials and the vortex dynamics' velocity, never pay for them.  The
    Hessian is symmetric bit for bit.
    """
    cm = resolve_collision_margin(engine.domain, spec, collision_margin)
    d, r2 = _require_pairs(strengths, config, cm)
    engine.require_interior(config.points)
    return EvaluationResult(*_energy(engine, spec, strengths.values, config.points, d, r2))


def f_omega_stack(engine, strengths: VortexStrengths, spec: InteractionSpec, points,
                  collision_margin: float | None = None) -> tuple:
    """``f_omega`` of an (S, N, 2) stack of configurations at once.

    Returns the verdicts of both rules (``admitted``, at the margin
    ``resolve_collision_margin`` gives), a bool array (S,), and the
    ``EvaluationResult`` of the K configurations they admit, in stack order:
    gradients (K, 2N), and on first read values (K,) and Hessians
    (K, 2N, 2N).  Each row is that configuration's ``f_omega``, bit for bit
    where the arithmetic is elementwise; the engine's Cauchy products are
    made per configuration, so they match too.  A refused configuration
    costs its part of the two rules' checks and nothing more.  A stack of
    one runs the same rules and arithmetic on (N, 2) and (N, N) arrays,
    which cost less per call than their (1, ...) forms.  ValueError unless
    ``points`` is (S, N, 2) with N = ``len(strengths)``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != (len(strengths), 2):
        raise ValueError("points must be an (S, N, 2) stack, N = len(strengths)")
    cm = resolve_collision_margin(engine.domain, spec, collision_margin)
    one = len(pts) == 1
    ok, d, r2 = admitted(engine, pts[0] if one else pts, cm)
    if one:
        ok = ok[None]
    if not ok.any():
        m = 2 * len(strengths)
        return ok, EvaluationResult(lambda: np.zeros(0), np.zeros((0, m)),
                                    lambda: np.zeros((0, m, m)))
    if one:
        value, grad, hessian = _energy(engine, spec, strengths.values, pts[0], d, r2)
        return ok, EvaluationResult(lambda: np.array([value()]), grad[None],
                                    lambda: hessian()[None])
    if not ok.all():
        pts, d, r2 = pts[ok], d[ok], r2[ok]
    return ok, EvaluationResult(*_energy(engine, spec, strengths.values, pts, d, r2))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def vortex_from_dict(data: dict) -> tuple[VortexStrengths, Configuration, InteractionSpec]:
    strengths = VortexStrengths(np.asarray(data["lambda"], dtype=float))
    config = Configuration(np.asarray(data["points"], dtype=float))
    name = data.get("interaction", "kirchhoff_routh")
    if name == "kirchhoff_routh":
        spec = kirchhoff_routh_interaction()
    elif name == "zero":
        spec = zero_interaction()
    else:
        raise ValueError(f"unknown interaction {name!r} in vortex file")
    return strengths, config, spec


def load_vortex(path) -> tuple[VortexStrengths, Configuration, InteractionSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return vortex_from_dict(json.load(fh))


def save_vortex(strengths: VortexStrengths, config: Configuration,
                spec: InteractionSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "lambda": list(strengths.values),
            "points": [list(p) for p in config.points],
            "interaction": spec.variant,
        }, fh, indent=2)
        fh.write("\n")
