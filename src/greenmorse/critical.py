"""Multi-start Levenberg-Marquardt search for critical points, with Morse data.

Starts are drawn from a scrambled Halton sequence over admissible N-point
configurations (those ``check_admissible`` passes: points more than the
engine's ``eval_margin`` inside, pairs more than the collision margin apart),
so runs are reproducible for a fixed seed.  The sequence is Owen's randomized
Halton sequence (A. B. Owen, "A randomized Halton algorithm in R",
arXiv:1706.02808, 2017), drawn by the private ``_ScrambledHalton``; its
stream equals that of ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)``
bit for bit, without importing ``scipy.stats``.  From each start
``newton_polish`` runs Levenberg-Marquardt on the gradient: trial points
that ``f_omega`` refuses or that raise the gradient norm are rejected and
raise the damping, so every iterate stays admissible; convergence is
measured on the gradient norm.  Converged points are classified by the
spectrum of the (symmetrized) Hessian.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AccuracyDegradedError,
    CollisionError,
    NumericError,
    OutsideDomainError,
    SymmetryMismatchError,
    UndefinedOrbitError,
)
from .geometry import DomainSpec, contains, domain_to_dict
from .kr import Configuration, InteractionSpec, VortexStrengths, f_omega, min_pair_distances

# a critical point counts as numerically degenerate below this fraction of
# the Hessian spectral norm
DEGENERACY_RATIO = 1e-5
ORBIT_ALIGNMENT_MIN = 0.999
# a Newton polish gives up after this many accepted steps
MAX_ITERATIONS = 60
# converged points this close, up to a relabelling, are reported once
DEDUP_RADIUS = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """The settings a search varies; 10 ``newton_tol`` < ``DEDUP_RADIUS``."""

    starts: int = 100
    seed: int = 0
    collision_margin: float = 0.05
    newton_tol: float = 1e-10

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.collision_margin < 0:
            raise ValueError("collision_margin must be >= 0")
        if not 10.0 * self.newton_tol < DEDUP_RADIUS:
            raise ValueError("newton_tol must stay below DEDUP_RADIUS / 10")


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
    """Outcome of one ``newton_polish`` run.

    ``iterations`` counts accepted steps; ``evaluations`` counts ``f_omega``
    calls, rejected and inadmissible trial points included.  ``failure`` is
    None if converged, else one of

    * "inadmissible-start": ``f_omega`` refused the start;
    * "merit-stationary": the iterate is near a stationary point of the merit
      ||grad f||^2 that is not a critical point of f (see ``newton_polish``);
    * "max-iterations": ``MAX_ITERATIONS`` accepted steps did not converge.
    """

    configuration: np.ndarray | None
    residual: float
    hessian: np.ndarray | None
    iterations: int
    evaluations: int
    converged: bool
    failure: str | None = None


# f_omega refuses a configuration outside the admissible region with these
_INADMISSIBLE = (AccuracyDegradedError, OutsideDomainError, CollisionError)


def newton_polish(engine, strengths: VortexStrengths, spec: InteractionSpec,
                  x0, search: SearchConfig) -> PolishResult:
    """Levenberg-Marquardt iteration on g = grad f_omega, kept admissible by f_omega.

    Each accepted iterate takes one eigendecomposition of the Hessian, which
    ``f_omega`` returns exactly symmetric, H = Q diag(lam) Q^T.  A trial step is
    p(mu) = -(H^2 + mu I)^-1 H g = -Q (lam / (lam^2 + mu)) Q^T g, so a rejected
    trial needs no new factorisation, and mu = 0 gives the Newton step.  mu
    starts at 0; a trial that raises ||g|| or that ``f_omega`` refuses is
    rejected and sets mu <- max(4 mu, 1e-3 max lam^2); an accepted one sets
    mu <- mu / 4 (Moré, LNM 630, 1978; Nocedal & Wright, Numerical
    Optimization, section 10.3).

    H g is the gradient of the merit ||g||^2 / 2, so the merit can have local
    minima where g != 0, from which no step lowers it.  The run then ends as
    "merit-stationary": when ||H g|| <= 1e-3 ||H||_2 ||g||, when an accepted
    step lowers ||g|| by less than 1e-4 relative, or when mu passes
    1e8 max lam^2.

    A trial is judged by its gradient alone, so only the start and accepted
    trials read ``.hessian``; ``f_omega`` computes it on that read, and a
    rejected trial costs a value-and-gradient evaluation.
    """
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    evaluations = 0

    def evaluate(flat):
        nonlocal evaluations
        evaluations += 1
        return f_omega(engine, strengths, spec, Configuration(flat.reshape(-1, 2)),
                       search.collision_margin)

    def failed(reason, residual, iterations):
        return PolishResult(None, residual, None, iterations, evaluations, False, reason)

    try:
        res = evaluate(x)
    except _INADMISSIBLE:
        return failed("inadmissible-start", np.inf, 0)

    gnorm = float(np.linalg.norm(res.gradient))
    mu = 0.0
    iterations = 0
    stagnant = False
    while not gnorm <= search.newton_tol:    # a NaN gradient is not converged
        if stagnant:
            return failed("merit-stationary", gnorm, iterations)
        if iterations == MAX_ITERATIONS:
            return failed("max-iterations", gnorm, iterations)
        lam, Q = np.linalg.eigh(res.hessian)
        qg = Q.T @ res.gradient
        lam2 = lam * lam
        lam2_max = float(lam2.max())
        if np.linalg.norm(lam * qg) <= 1e-3 * np.sqrt(lam2_max) * gnorm:
            return failed("merit-stationary", gnorm, iterations)
        while True:
            # an exactly zero eigenvalue at mu = 0 takes the mu -> 0+ limit, 0
            denom = lam2 + mu
            scale = np.divide(lam, denom, out=np.zeros_like(lam), where=denom > 0.0)
            step = -(Q @ (scale * qg))
            try:
                trial = evaluate(x + step)
            except _INADMISSIBLE:
                pass
            else:
                gnorm_new = float(np.linalg.norm(trial.gradient))
                if gnorm_new < gnorm:
                    break
            mu = max(4.0 * mu, 1e-3 * lam2_max)
            if mu > 1e8 * lam2_max:
                return failed("merit-stationary", gnorm, iterations)
        x = x + step
        res = trial
        stagnant = gnorm_new > (1.0 - 1e-4) * gnorm
        gnorm = gnorm_new
        mu *= 0.25
        iterations += 1
    return PolishResult(x, gnorm, res.hessian, iterations, evaluations, True)


def _first_primes(n: int) -> list[int]:
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


class _ScrambledHalton:
    """Owen's randomized Halton sequence in [0, 1)^d (arXiv:1706.02808).

    Coordinate k is the van der Corput sequence in the k-th prime base b
    with every digit passed through its own random permutation of
    0..b-1: value i is sum_j perm_j[digit_j(i)] / b^(j+1).  A double
    resolves digits while b^-j > 2^-54, so each base gets
    ceil(54 / log2 b) - 1 permutations.  They are shuffled by one
    ``default_rng(seed)``, base after base, and the sum runs left to right
    with the weight divided by b at each digit.  This is the stream of
    ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)``, bit for bit;
    indices continue across ``random`` calls.
    """

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        self._bases = _first_primes(d)
        self._perms = []
        for base in self._bases:
            count = math.ceil(54 / math.log2(base)) - 1
            perms = np.repeat(np.arange(base)[None], count, axis=0)
            for perm in perms:
                rng.shuffle(perm)
            self._perms.append(perms)
        self._index = 0

    def random(self, n: int) -> np.ndarray:
        index = np.arange(self._index, self._index + n)
        self._index += n
        sample = np.zeros((n, len(self._bases)))
        for k, (base, perms) in enumerate(zip(self._bases, self._perms)):
            rest = index.copy()
            weight = 1.0 / base
            for perm in perms:
                sample[:, k] += perm[rest % base] * weight
                weight /= base
                rest //= base
        return sample


def _halton_starts(engine, search: SearchConfig, n_points: int):
    """Admissible starting configurations from Owen's scrambled Halton
    sequence (``_ScrambledHalton``, the stream of scipy's ``qmc.Halton``),
    mapped onto the bounding box of the boundary.  Each block of 128
    candidates is tested at once by the rules ``check_admissible`` applies
    to one: one ``contains`` query at the engine's ``eval_margin`` for all
    its points (d > ``eval_margin``, the boundary rule of ``engine.blocks``)
    and the closest-pair distance of every candidate."""
    pts = engine.domain.boundary._dense[1].point
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    sampler = _ScrambledHalton(2 * n_points, search.seed)
    starts = []
    budget = max(200 * search.starts, 4000)
    drawn = 0
    while len(starts) < search.starts and drawn < budget:
        block = sampler.random(128)
        drawn += len(block)
        cands = lo + block.reshape(-1, n_points, 2) * (hi - lo)
        inside = contains(engine.domain, cands.reshape(-1, 2),
                          engine.eval_margin).reshape(-1, n_points)
        ok = inside.all(axis=1) & (min_pair_distances(cands) > search.collision_margin)
        starts.extend(cands[ok].reshape(-1, 2 * n_points)[: search.starts - len(starts)])
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
    starts = _halton_starts(engine, search, n_points)
    perms = _lambda_preserving_permutations(strengths.values)

    found = []
    failures = Counter()
    iterations = evaluations = 0
    for x0 in starts:
        result = newton_polish(engine, strengths, spec, x0, search)
        iterations += result.iterations
        evaluations += result.evaluations
        if result.converged:
            found.append(result)
        else:
            failures[result.failure] += 1

    unique = []
    for result in sorted(found, key=lambda r: tuple(np.round(r.configuration, 12))):
        if not any(_config_distance(result.configuration, u.configuration, perms)
                   <= DEDUP_RADIUS for u in unique):
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
            hessian=result.hessian,
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
        "failures_by_reason": dict(sorted(failures.items())),
        "iterations": iterations,
        "evaluations": evaluations,
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
