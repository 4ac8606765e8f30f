"""Multi-start damped Newton search for critical points, with Morse data.

Starts are drawn from a scrambled Halton sequence over admissible N-point
configurations, so runs are reproducible for a fixed seed.  Each Newton
iterate is kept admissible by shortening steps that would leave the allowed
region; convergence is measured on the gradient norm.  Converged points are
classified by the spectrum of the (symmetrized) Hessian.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import qmc

from .errors import (
    AccuracyDegradedError,
    CollisionError,
    NumericError,
    OutsideDomainError,
    SymmetryMismatchError,
    UndefinedOrbitError,
)
from .geometry import DomainSpec, domain_to_dict
from .kr import Configuration, InteractionSpec, VortexStrengths, check_admissible, f_omega

# a critical point counts as numerically degenerate below this fraction of
# the Hessian spectral norm
DEGENERACY_RATIO = 1e-5
ORBIT_ALIGNMENT_MIN = 0.999


@dataclass(frozen=True)
class SearchConfig:
    starts: int = 100
    seed: int = 0
    boundary_margin: float = 0.05
    collision_margin: float = 0.05
    newton_tol: float = 1e-10
    max_iterations: int = 60
    max_backtracks: int = 30
    dedup_radius: float = 1e-6

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.boundary_margin < 0 or self.collision_margin < 0:
            raise ValueError("margins must be >= 0")
        if self.dedup_radius <= 10.0 * self.newton_tol:
            raise ValueError("dedup_radius must exceed the tolerance-scale displacement")


@dataclass(frozen=True)
class Classification:
    spectrum: np.ndarray     # ascending eigenvalues
    morse_index: int         # count of negative eigenvalues
    margin: float            # min |eigenvalue|


@dataclass(frozen=True)
class CriticalPoint:
    configuration: Configuration
    residual: float
    spectrum: np.ndarray
    morse_index: int
    margin: float
    hessian: np.ndarray
    orbit_tag: str = "isolated"
    alignment: float | None = None


@dataclass(frozen=True)
class MorseReport:
    points: tuple
    stats: dict
    domain_fingerprint: str
    function_fingerprint: str


def classify(hessian: np.ndarray) -> Classification:
    """Spectrum / Morse index / non-degeneracy margin of a symmetric Hessian."""
    H = np.asarray(hessian, dtype=float)
    H = 0.5 * (H + H.T)
    try:
        spectrum = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    index = int(np.sum(spectrum < 0.0))
    margin = float(np.abs(spectrum).min())
    return Classification(spectrum, index, margin)


def rotation_tangent(points: np.ndarray, center) -> np.ndarray:
    """Unnormalized orbit tangent (J (x_1 - c), ..., J (x_N - c)) of rotations
    about c, J = rotation by +pi/2."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2) - center
    return np.stack([-pts[:, 1], pts[:, 0]], axis=1).reshape(-1)


def detect_rotation_orbit(engine, point: CriticalPoint) -> tuple[str, float]:
    """Tag a critical point as lying on a rotation orbit or being isolated.

    The tangent of the orbit under rotations about the domain's rotation
    centre is a candidate Hessian null direction; the point is tagged
    "rotation-orbit" when the margin is below the degeneracy threshold and
    the minimal-|eigenvalue| eigenvector aligns with the tangent.
    """
    domain = engine.domain
    if not domain.is_disk() and domain.symmetry is None:
        raise SymmetryMismatchError(
            "orbit detection requires a disk or a symmetry-tagged domain")
    tangent = rotation_tangent(point.configuration.points, domain.rotation_center)
    norm = np.linalg.norm(tangent)
    if norm < 1e-14:
        raise UndefinedOrbitError("all points at the rotation centre; orbit tangent undefined")
    tangent /= norm
    H = 0.5 * (point.hessian + point.hessian.T)
    evals, evecs = np.linalg.eigh(H)
    imin = int(np.argmin(np.abs(evals)))
    alignment = float(abs(evecs[:, imin] @ tangent))
    spectral_norm = float(np.abs(evals).max())
    degenerate = abs(evals[imin]) <= DEGENERACY_RATIO * max(spectral_norm, 1e-300)
    if degenerate and alignment >= ORBIT_ALIGNMENT_MIN:
        return "rotation-orbit", alignment
    return "isolated", alignment


@dataclass
class PolishResult:
    """``failure`` is None if converged, else "inadmissible-start", "stalled",
    "singular-hessian", "left-admissible-region", "line-search-failed" or "max-iterations"."""

    configuration: np.ndarray | None
    residual: float
    hessian: np.ndarray | None
    iterations: int
    converged: bool
    failure: str | None = None


def newton_polish(engine, strengths: VortexStrengths, spec: InteractionSpec,
                  x0, search: SearchConfig) -> PolishResult:
    """Damped Newton iteration on the gradient, kept admissible by f_omega."""
    x = np.asarray(x0, dtype=float).reshape(-1).copy()

    def evaluate(flat):
        res = f_omega(engine, strengths, spec, Configuration(flat.reshape(-1, 2)),
                      search.boundary_margin, search.collision_margin)
        return res.gradient, res.hessian

    try:
        grad, hess = evaluate(x)
    except (AccuracyDegradedError, OutsideDomainError, CollisionError):
        return PolishResult(None, np.inf, None, 0, False, "inadmissible-start")

    history = []
    for iteration in range(search.max_iterations):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= search.newton_tol:
            return PolishResult(x, gnorm, hess, iteration, True)
        history.append(gnorm)
        # a converging Newton run shrinks the residual fast; starts that have
        # not even halved it over the last 8 accepted steps are going nowhere
        if len(history) >= 9 and history[-1] > 0.5 * history[-9]:
            return PolishResult(None, gnorm, None, iteration, False, "stalled")
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=1e-12)[0]
        if not np.all(np.isfinite(step)):
            return PolishResult(None, gnorm, None, iteration, False, "singular-hessian")
        # halve on leaving the admissible region or on merit increase
        alpha = 1.0
        accepted = False
        for _ in range(search.max_backtracks + 12):
            try:
                g_new, h_new = evaluate(x + alpha * step)
            except (AccuracyDegradedError, OutsideDomainError, CollisionError):
                alpha *= 0.5
                if alpha <= 1e-12:
                    return PolishResult(None, gnorm, None, iteration, False,
                                        "left-admissible-region")
                continue
            if np.linalg.norm(g_new) < gnorm:
                x = x + alpha * step
                grad, hess = g_new, h_new
                accepted = True
                break
            alpha *= 0.5
            if alpha <= 1e-12:
                break
        if not accepted:
            return PolishResult(None, gnorm, None, iteration, False, "line-search-failed")
    gnorm = float(np.linalg.norm(grad))
    if gnorm <= search.newton_tol:
        return PolishResult(x, gnorm, hess, search.max_iterations, True)
    return PolishResult(None, gnorm, None, search.max_iterations, False, "max-iterations")


def _halton_starts(engine, spec, search: SearchConfig, n_points: int):
    """Admissible starting configurations from a scrambled Halton sequence."""
    # starts must be evaluable, so they also keep the engine's accuracy distance
    bm = max(search.boundary_margin, engine.eval_margin)
    _, pts = engine.domain.boundary._dense
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    sampler = qmc.Halton(d=2 * n_points, scramble=True, seed=search.seed)
    starts = []
    budget = max(200 * search.starts, 4000)
    drawn = 0
    while len(starts) < search.starts and drawn < budget:
        block = sampler.random(128)
        drawn += len(block)
        for row in block:
            cand = (lo + row.reshape(n_points, 2) * (hi - lo)).reshape(-1)
            if check_admissible(engine.domain, spec, Configuration(cand), bm,
                                search.collision_margin):
                starts.append(cand)
                if len(starts) == search.starts:
                    break
    return starts


def _lambda_preserving_permutations(lam: np.ndarray):
    n = len(lam)
    if n > 6:
        return [tuple(range(n))]
    from itertools import permutations
    perms = []
    for perm in permutations(range(n)):
        if np.allclose(lam[list(perm)], lam):
            perms.append(perm)
    return perms


def _config_distance(a: np.ndarray, b: np.ndarray, perms) -> float:
    pa = a.reshape(-1, 2)
    pb = b.reshape(-1, 2)
    best = np.inf
    for perm in perms:
        best = min(best, float(np.linalg.norm(pa[list(perm)] - pb)))
    return best


def find_critical_points(engine, strengths: VortexStrengths, spec: InteractionSpec,
                         search: SearchConfig) -> MorseReport:
    """Multi-start search; deterministic for a fixed seed."""
    n_points = len(strengths)
    starts = _halton_starts(engine, spec, search, n_points)
    perms = _lambda_preserving_permutations(strengths.values)

    found = []
    failures = Counter()
    for x0 in starts:
        result = newton_polish(engine, strengths, spec, x0, search)
        if result.converged:
            found.append(result)
        else:
            failures[result.failure] += 1

    unique = []
    for result in sorted(found, key=lambda r: tuple(np.round(r.configuration, 12))):
        if not any(_config_distance(result.configuration, u.configuration, perms)
                   <= search.dedup_radius for u in unique):
            unique.append(result)

    points = []
    can_tag = engine.domain.is_disk() or engine.domain.symmetry is not None
    for result in unique:
        cls = classify(result.hessian)
        cp = CriticalPoint(
            configuration=Configuration(result.configuration.reshape(-1, 2)),
            residual=result.residual,
            spectrum=cls.spectrum,
            morse_index=cls.morse_index,
            margin=cls.margin,
            hessian=0.5 * (result.hessian + result.hessian.T),
        )
        if can_tag:
            try:
                tag, alignment = detect_rotation_orbit(engine, cp)
                cp = replace(cp, orbit_tag=tag, alignment=alignment)
            except UndefinedOrbitError:
                pass
        points.append(cp)

    stats = {
        "starts": len(starts),
        "converged": len(found),
        "deduplicated": len(found) - len(unique),
        "rejected_inadmissible": sum(failures.values()),
        "failures_by_reason": dict(sorted(failures.items())),
    }
    return MorseReport(tuple(points), stats,
                       _fingerprint(domain_to_dict(engine.domain)),
                       _fingerprint({"lambda": list(strengths.values),
                                     "interaction": spec.variant}))


def _fingerprint(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def report_to_dict(report: MorseReport) -> dict:
    return {
        "stats": report.stats,
        "domain_fingerprint": report.domain_fingerprint,
        "function_fingerprint": report.function_fingerprint,
        "critical_points": [
            {
                "points": [list(p) for p in cp.configuration.points],
                "residual": cp.residual,
                "spectrum": list(cp.spectrum),
                "morse_index": cp.morse_index,
                "margin": cp.margin,
                "orbit_tag": cp.orbit_tag,
                "alignment": cp.alignment,
            }
            for cp in report.points
        ],
    }


def report_csv_rows(report: MorseReport):
    """One row per critical point: coordinates, residual, index, margin, tag."""
    if report.points:
        n = len(report.points[0].configuration)
    else:
        n = 0
    header = []
    for i in range(n):
        header += [f"x{i + 1}", f"y{i + 1}"]
    header += ["residual", "morse_index", "margin", "orbit_tag"]
    rows = [header]
    for cp in report.points:
        row = [f"{v:.17g}" for v in cp.configuration.flat()]
        row += [f"{cp.residual:.17g}", str(cp.morse_index),
                f"{cp.margin:.17g}", cp.orbit_tag]
        rows.append(row)
    return rows
