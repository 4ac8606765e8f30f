"""Kirchhoff-Routh-type energies of vortex configurations.

The assembled function is

    f(x_1..x_N) - sum_{j,k} lambda_j lambda_k H(x_j, x_k)

with the double sum running over all pairs including j = k, so the diagonal
contributes the Robin terms -lambda_k^2 h(x_k).  The interaction f is either
the point-vortex log sum -(1/2pi) sum_{j != k} lambda_j lambda_k ln|x_j - x_k|,
identically zero, or a caller-supplied C^2 evaluator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import AccuracyDegradedError, CollisionError, OutsideDomainError
from .geometry import DomainSpec

TWO_PI = 2.0 * np.pi

# the collision margin defaults to this fraction of the domain diameter
DEFAULT_MARGIN_FRACTION = 1e-3


@dataclass(frozen=True)
class VortexStrengths:
    """Nonzero circulation strengths lambda_1..lambda_N."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.values, dtype=float)).copy()
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("strengths must be a nonempty 1-d list")
        if np.any(np.abs(arr) < 1e-12):
            raise ValueError("all strengths must be nonzero")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class Configuration:
    """N planar points."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float).reshape(-1, 2).copy()
        if len(arr) < 1:
            raise ValueError("configuration must contain at least one point")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __len__(self):
        return len(self.points)

    def flat(self) -> np.ndarray:
        return self.points.reshape(-1)


def min_pair_distances(points) -> np.ndarray:
    """Smallest distance between two of the N points of each configuration in
    a (..., N, 2) stack, shape (...); inf where N < 2."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[-2]
    if n < 2:
        return np.full(pts.shape[:-2], np.inf)
    d = pts[..., :, None, :] - pts[..., None, :, :]
    r2 = (d[..., 0] ** 2 + d[..., 1] ** 2).reshape(pts.shape[:-2] + (n * n,))
    r2[..., :: n + 1] = np.inf      # the diagonal, j = k
    return np.sqrt(r2.min(axis=-1))


@dataclass(frozen=True)
class InteractionSpec:
    """Interaction term: "kirchhoff_routh", "zero", or "custom".

    A custom evaluator maps (points (N,2), strengths (N,)) to
    (value, gradient (2N,), hessian (2N,2N)) and must be C^2 on its open
    domain, described by ``collision_margin``.
    """

    variant: str
    custom_evaluator: Callable | None = None
    collision_margin: float | None = None

    def __post_init__(self):
        if self.variant not in ("kirchhoff_routh", "zero", "custom"):
            raise ValueError(f"unknown interaction variant {self.variant!r}")
        if self.variant == "custom" and self.custom_evaluator is None:
            raise ValueError("custom interaction requires an evaluator")
        if self.collision_margin is not None and self.collision_margin < 0:
            raise ValueError("collision_margin must be >= 0")


def kirchhoff_routh_interaction() -> InteractionSpec:
    return InteractionSpec("kirchhoff_routh")


def zero_interaction() -> InteractionSpec:
    return InteractionSpec("zero")


def custom_interaction(evaluator: Callable, collision_margin: float) -> InteractionSpec:
    return InteractionSpec("custom", evaluator, collision_margin)


@dataclass(frozen=True)
class EvaluationResult:
    """Value and gradient, computed when the result is made, and the Hessian,
    computed by the private thunk ``_hessian`` on first read of ``hessian``
    and then cached.  Admissibility is decided when the result is made, so
    reading ``hessian`` does not raise."""

    value: float
    gradient: np.ndarray    # (2N,)
    _hessian: Callable = field(repr=False, compare=False)   # () -> (2N, 2N)

    @cached_property
    def hessian(self) -> np.ndarray:
        """(2N, 2N), symmetric."""
        return self._hessian()


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    diagnostics: tuple

    def __bool__(self):
        return self.ok


def _log_pair_terms(points: np.ndarray, lam: np.ndarray):
    """Value and gradient of -(1/2pi) sum_{j != k} l_j l_k ln|x_j - x_k|, and
    a thunk for its Hessian."""
    n = len(points)
    d = points[:, None, :] - points[None, :, :]     # [j, k] = x_j - x_k
    r2 = np.sum(d * d, axis=-1)
    np.fill_diagonal(r2, 1.0)
    c = np.outer(lam, lam) / np.pi
    np.fill_diagonal(c, 0.0)
    # every pair appears as (j, k) and (k, j)
    value = -0.25 * np.sum(c * np.log(r2))
    grad = -np.sum((c / r2)[..., None] * d, axis=1)
    m = 2 * n

    def hessian():
        a = (np.eye(2) * r2[..., None, None]
             - 2.0 * d[..., :, None] * d[..., None, :]) / (r2 * r2)[..., None, None]
        hess = np.einsum("jk,jkab->jakb", c, a)
        diag = np.arange(n)
        hess[diag, :, diag, :] -= hess.sum(axis=2)
        return hess.reshape(m, m)

    return value, grad.reshape(m), hessian


def interaction(spec: InteractionSpec, strengths: VortexStrengths,
                config: Configuration, collision_margin: float | None = None) -> EvaluationResult:
    """Value, gradient, and Hessian of the interaction term alone; the
    Hessian of the log sum is computed on first read."""
    lam = strengths.values
    pts = config.points
    if len(lam) != len(pts):
        raise ValueError("strengths and configuration lengths differ")
    margin = collision_margin
    if margin is None:
        margin = spec.collision_margin if spec.collision_margin is not None else 1e-12
    if margin < 0:
        raise ValueError("collision margin must be >= 0")
    gap = float(min_pair_distances(pts))
    if gap <= margin:
        raise CollisionError(
            f"minimal pair distance {gap:.3e} not above the collision margin {margin:.3e}")
    m = 2 * len(pts)
    if spec.variant == "zero":
        return EvaluationResult(0.0, np.zeros(m), lambda: np.zeros((m, m)))
    if spec.variant == "kirchhoff_routh":
        return EvaluationResult(*_log_pair_terms(pts, lam))
    value, grad, hess = spec.custom_evaluator(pts, lam)
    hess = np.asarray(hess, dtype=float).reshape(m, m)
    return EvaluationResult(float(value), np.asarray(grad, dtype=float).reshape(m),
                            lambda: hess)


def check_admissible(engine, spec: InteractionSpec, config: Configuration,
                     collision_margin: float | None = None) -> AdmissibilityResult:
    """Whether ``f_omega`` admits the configuration, with diagnostics: by
    ``engine.require_interior`` and the collision margin.  Like ``f_omega``
    it names one point, the first that the boundary rule refuses."""
    cm = resolve_collision_margin(engine.domain, spec, collision_margin)
    diagnostics = []
    try:
        engine.require_interior(config.points)
    except (OutsideDomainError, AccuracyDegradedError) as exc:
        diagnostics.append(f"boundary: {exc}")
    gap = float(min_pair_distances(config.points))
    if gap <= cm:
        diagnostics.append(f"collision: min pair distance {gap:.3g} <= {cm:.3g}")
    return AdmissibilityResult(not diagnostics, tuple(diagnostics))


def resolve_collision_margin(domain: DomainSpec, spec: InteractionSpec,
                             collision_margin: float | None) -> float:
    """The given margin, else the interaction's, else a fraction of the diameter."""
    if collision_margin is None:
        collision_margin = spec.collision_margin
    if collision_margin is None:
        return DEFAULT_MARGIN_FRACTION * domain.diameter
    return collision_margin


def f_omega(engine, strengths: VortexStrengths, spec: InteractionSpec,
            config: Configuration, collision_margin: float | None = None) -> EvaluationResult:
    """Interaction minus the full regular-part double sum, with derivatives.

    All H(x_j, x_k) come from one ``engine.blocks`` call: leading (j, k) axes,
    j > k blocks mirrored from the (k, j) blocks.  It and ``interaction``
    decide admissibility once, one boundary-distance query per point, with
    this precedence: CollisionError (the collision margin), then the
    engine's boundary rule, OutsideDomainError for a point not inside and
    AccuracyDegradedError for a point not more than ``engine.eval_margin``
    inside.  ``check_admissible`` applies the same rules.
    The gradient block for point m collects lambda_m lambda_k grad_x H(x_m, x_k)
    and lambda_j lambda_m grad_y H(x_j, x_m) over all j, k (diagonal included);
    Hessian blocks assemble the same way from the second-derivative blocks.

    The value and gradient are computed by the call, from the first-order
    blocks (on the conformal-map engine one Cauchy product, on the integral
    engine one ``lu_solve`` for 6N right-hand sides that also gives the
    second-derivative blocks).  The Hessian is assembled on the first read of
    ``.hessian``, which reads the engine's second-derivative blocks (computed
    on that read by the disk and conformal-map engines) and is then cached;
    callers that need only the gradient, such as the vortex dynamics and
    rejected search trials, never pay for it.
    """
    lam = strengths.values
    pts = config.points
    n = len(pts)
    cm = resolve_collision_margin(engine.domain, spec, collision_margin)
    inter = interaction(spec, strengths, config, collision_margin=cm)

    ev = engine.blocks(pts)
    c = np.outer(lam, lam)
    value = inter.value - np.sum(c * ev.value)
    grad = (inter.gradient.reshape(n, 2)
            - np.einsum("jk,jka->ja", c, ev.grad_x)
            - np.einsum("jk,jka->ka", c, ev.grad_y))
    m = 2 * n

    def hessian():
        cross = np.einsum("jk,jkab->jakb", c, ev.hess_xy)
        hess = inter.hessian.reshape(n, 2, n, 2) - cross - cross.transpose(2, 3, 0, 1)
        diag = np.arange(n)
        hess[diag, :, diag, :] -= (np.einsum("jk,jkab->jab", c, ev.hess_xx)
                                   + np.einsum("jk,jkab->kab", c, ev.hess_yy))
        H = hess.reshape(m, m)
        return 0.5 * (H + H.T)

    return EvaluationResult(value, grad.reshape(m), hessian)


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
