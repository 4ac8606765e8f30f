"""Multi-start Levenberg-Marquardt search for critical points, with Morse data.

Starts are drawn from a scrambled Halton sequence over admissible N-point
configurations (those ``kr.admitted`` passes, the rules of ``f_omega``:
points more than the engine's ``eval_margin`` inside, pairs more than the
collision margin apart), so runs are reproducible for a fixed seed.  The
sequence is Owen's randomized Halton sequence (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808, 2017), drawn by the private
``_ScrambledHalton``; its stream equals that of
``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)`` bit for bit, without
importing ``scipy.stats``.  From each start ``newton_polish`` runs
Levenberg-Marquardt on the gradient: trial points that ``f_omega`` refuses
or that raise the gradient norm are rejected and raise the damping, so
every iterate stays admissible; convergence is measured on the gradient
norm.  Converged points are classified by the spectrum of the (symmetrized)
Hessian.

The search runs its starts in lockstep until each has ended: each round
evaluates one trial point of every live start in one ``kr.f_omega_stack``
call (one boundary verdict query for all of them) and decomposes the
Hessians of the accepted ones in one batched ``eigh``, while each start
keeps its own damping, counters and flags.  The rules are written once,
over a stack of runs (``_polish``), and a run's arithmetic does not depend
on the stack it is in, so each start ends as ``newton_polish`` would end it
from that start alone.  The stacked evaluations are made in slices of at
most ``_STACK_ELEMENTS`` Cauchy-matrix entries, so memory does not grow
with the number of starts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .errors import NumericError, SymmetryMismatchError, UndefinedOrbitError
from .frozen import Frozen
from .geometry import domain_to_dict
from .kr import (
    Configuration,
    InteractionSpec,
    VortexStrengths,
    admitted,
    check_collision_margin,
    f_omega_stack,
)

# a critical point counts as numerically degenerate below this fraction of
# the Hessian spectral norm
DEGENERACY_RATIO = 1e-5
ORBIT_ALIGNMENT_MIN = 0.999
# a Newton polish gives up after this many accepted steps
MAX_ITERATIONS = 60
# converged points this close, up to a relabelling, are reported once
DEDUP_RADIUS = 1e-6


class SearchConfig(Frozen):
    """The settings a search varies; 10 ``newton_tol`` < ``DEDUP_RADIUS``.

    A Newton polish converges where |grad f| <= ``newton_tol``.  The
    gradient has a round-off floor, about 1e-16 on the lobed N = 3 search:
    a ``newton_tol`` near or below it is accepted, but whether a start
    converges there is decided by rounding, not by the start.  The class
    attributes are the defaults."""

    _fields = ("starts", "seed", "collision_margin", "newton_tol")
    starts = 100
    seed = 0
    collision_margin = 0.05
    newton_tol = 1e-10

    def __init__(self, starts: int = starts, seed: int = seed,
                 collision_margin: float = collision_margin, newton_tol: float = newton_tol):
        if starts < 1:
            raise ValueError("starts must be >= 1")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        if newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        check_collision_margin(collision_margin)
        if not 10.0 * newton_tol < DEDUP_RADIUS:
            raise ValueError("newton_tol must stay below DEDUP_RADIUS / 10")
        self._set(starts=starts, seed=seed, collision_margin=collision_margin,
                  newton_tol=newton_tol)


class Classification(NamedTuple):
    spectrum: np.ndarray     # ascending eigenvalues
    morse_index: int         # count of negative eigenvalues outside the null band
    nullity: int             # count of eigenvalues in it (see ``is_degenerate``)
    margin: float            # min |eigenvalue|


class CriticalPoint(NamedTuple):
    configuration: Configuration
    residual: float
    spectrum: np.ndarray
    morse_index: int
    nullity: int
    margin: float
    hessian: np.ndarray
    orbit_tag: str = "isolated"
    alignment: float | None = None


class MorseReport(NamedTuple):
    points: tuple
    stats: dict
    domain_fingerprint: str
    function_fingerprint: str
    rounds: int             # lockstep rounds of the search (``find_critical_points``)
    candidates: int         # Halton candidates drawn for the starts (``_halton_starts``)


def classify(hessian: np.ndarray) -> Classification:
    """Spectrum, Morse index, nullity and non-degeneracy margin of a
    symmetric Hessian.  The eigenvalues that ``is_degenerate`` counts as
    zero make the nullity; the index counts the negative ones among the
    rest, so it does not flip with the sign of a round-off eigenvalue, and
    at a nondegenerate point it is the count of negative eigenvalues."""
    H = np.asarray(hessian, dtype=float)
    H = 0.5 * (H + H.T)
    try:
        spectrum = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    null = _null_band(spectrum)
    index = int(np.sum((spectrum < 0.0) & ~null))
    margin = float(np.abs(spectrum).min())
    return Classification(spectrum, index, int(np.sum(null)), margin)


def _null_band(spectrum) -> np.ndarray:
    """Which eigenvalues the degeneracy rule counts as zero: those with
    |eigenvalue| not above ``DEGENERACY_RATIO`` max(max |eigenvalue|,
    1e-300), NaN included."""
    size = np.abs(spectrum)
    return ~(size > DEGENERACY_RATIO * max(float(size.max()), 1e-300))


def is_degenerate(spectrum) -> bool:
    """The degeneracy rule: a Hessian spectrum is numerically degenerate if
    some eigenvalue lies in ``_null_band``, so a NaN spectrum counts as
    degenerate."""
    return bool(_null_band(spectrum).any())


def rotation_tangent(points: np.ndarray, center) -> np.ndarray:
    """Unnormalized orbit tangent (J (x_1 - c), ..., J (x_N - c)) of rotations
    about c, J = rotation by +pi/2."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2) - center
    return np.stack([-pts[:, 1], pts[:, 0]], axis=1).reshape(-1)


def detect_rotation_orbit(engine, point: CriticalPoint) -> tuple[str, float]:
    """Tag a critical point as lying on a rotation orbit or being isolated.

    The tangent of the orbit under rotations about the domain's rotation
    centre is a candidate Hessian null direction; the point is tagged
    "rotation-orbit" when the Hessian is degenerate (``is_degenerate``) and
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
    if is_degenerate(evals) and alignment >= ORBIT_ALIGNMENT_MIN:
        return "rotation-orbit", alignment
    return "isolated", alignment


class PolishResult(NamedTuple):
    """Outcome of one ``newton_polish`` run.

    ``iterations`` counts accepted steps; ``evaluations`` counts evaluated
    points, rejected and inadmissible trial points included.  ``failure`` is
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


# a lockstep round evaluates at most this many Cauchy-matrix entries (points
# times engine nodes) in one stacked call: the search's 32 N = 3 starts at
# 256 nodes fit in one, and memory does not grow with the number of starts
_STACK_ELEMENTS = 1 << 15


class _Runs:
    """The Levenberg-Marquardt state of S runs, one row each, as
    ``newton_polish`` defines the iteration and ``_polish`` advances it: the
    iterates ``x``, their gradients and Hessians as stacked arrays, and per
    run the gradient norm, the damping mu, the counters, the stagnation flag
    and the failure reason (None while running or converged), Python
    numbers as in a run of its own."""

    __slots__ = ("x", "gradient", "hessian", "gnorm", "mu", "iterations", "evaluations",
                 "stagnant", "failure")

    def __init__(self, x, gradient, hessian, gnorm, mu, iterations, evaluations, stagnant,
                 failure):
        self.x = x                      # (S, 2N)
        self.gradient = gradient        # (S, 2N)
        self.hessian = hessian          # (S, 2N, 2N)
        self.gnorm = gnorm              # inf for a refused start
        self.mu = mu
        self.iterations = iterations    # accepted steps
        self.evaluations = evaluations  # evaluated points
        self.stagnant = stagnant
        self.failure = failure

    @classmethod
    def start(cls, engine, strengths, spec, search, x0) -> "_Runs":
        """Runs from the (S, 2N) starts, each evaluated once; a start that
        ``f_omega`` refuses fails as "inadmissible-start"."""
        s, m = x0.shape
        runs = cls(x0.copy(), np.zeros((s, m)), np.zeros((s, m, m)), [math.inf] * s,
                   [0.0] * s, [0] * s, [1] * s, [False] * s, [None] * s)
        for first, ok, res in _evaluate(engine, strengths, spec, search, x0):
            rows = slice(first, first + len(ok))
            runs.gradient[rows][ok] = res.gradient
            runs.hessian[rows][ok] = res.hessian
            norms = iter(_norms(res.gradient).tolist())
            for i, admitted in enumerate(ok.tolist(), first):
                if admitted:
                    runs.gnorm[i] = next(norms)
                else:
                    runs.failure[i] = "inadmissible-start"
        return runs

    def take(self, rows: list) -> "_Runs":
        """The rows as a state of their own."""
        return _Runs(self.x[rows], self.gradient[rows], self.hessian[rows],
                     *([getattr(self, name)[i] for i in rows] for name in _SCALARS))

    def result(self, i: int) -> PolishResult:
        if self.failure[i] is not None:
            return PolishResult(None, self.gnorm[i], None, self.iterations[i],
                                self.evaluations[i], False, self.failure[i])
        return PolishResult(self.x[i].copy(), self.gnorm[i], self.hessian[i].copy(),
                            self.iterations[i], self.evaluations[i], True)


_SCALARS = ("gnorm", "mu", "iterations", "evaluations", "stagnant", "failure")


def _norms(g: np.ndarray) -> np.ndarray:
    """|g| of each row of g, from one dot product per row, as ``g @ g``."""
    return np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])


def _evaluate(engine, strengths, spec, search, x):
    """``f_omega_stack`` of the (S, 2N) points in slices of at most
    ``_STACK_ELEMENTS`` / (N n) configurations, n the engine's node count:
    for each slice, the index of its first row, the verdicts and the
    result."""
    n_points = x.shape[1] // 2
    size = max(1, _STACK_ELEMENTS // (n_points * engine.node_count))
    for first in range(0, len(x), size):
        ok, res = f_omega_stack(engine, strengths, spec,
                                x[first: first + size].reshape(-1, n_points, 2),
                                search.collision_margin)
        yield first, ok, res


def _polish(engine, strengths, spec, search, x0: np.ndarray) -> tuple:
    """Runs from the (S, 2N) starts x0, advanced together by the rules of
    ``newton_polish`` until each has ended, converged at |grad f| <=
    ``search.newton_tol`` or failed; returns the ended runs (``_Runs``) and
    the number of rounds.  A round evaluates one trial point of every live
    run (``_evaluate``); the Hessians of the accepted ones are decomposed
    together at the next round's checks."""
    s, m = x0.shape
    if m != 2 * len(strengths):
        raise ValueError("strengths and configuration lengths differ")
    runs = _Runs.start(engine, strengths, spec, search, x0)
    live = [i for i, reason in enumerate(runs.failure) if reason is None]
    fresh = [True] * s                          # at an iterate not checked yet
    lam, lam2, q, qg = np.empty((s, m)), np.empty((s, m)), np.empty((s, m, m)), np.empty((s, m))
    lam2_max = [0.0] * s
    rounds = 0
    while True:
        # the checks at a new iterate, in this order; a run whose damping
        # passed its bound has ended already
        running, check = [], []
        for i in live:
            if not fresh[i]:
                if runs.failure[i] is None:
                    running.append(i)
            elif runs.gnorm[i] <= search.newton_tol:  # a NaN gradient is not converged
                pass
            elif runs.stagnant[i] or runs.iterations[i] == MAX_ITERATIONS:
                runs.failure[i] = "merit-stationary" if runs.stagnant[i] else "max-iterations"
            else:
                check.append(i)
        if check:
            rows = check if len(check) < s else slice(None)
            values, vectors = np.linalg.eigh(runs.hessian[rows])
            projected = (vectors.swapaxes(1, 2) @ runs.gradient[rows][:, :, None])[:, :, 0]
            squares = values * values
            if len(check) == s:
                lam, lam2, q, qg = values, squares, vectors, projected
            else:
                lam[rows], lam2[rows], q[rows], qg[rows] = values, squares, vectors, projected
            size = squares.max(axis=1).tolist()
            merit = _norms(values * projected).tolist()
            for i, largest, lq in zip(check, size, merit):
                lam2_max[i] = largest
                if lq <= 1e-3 * math.sqrt(largest) * runs.gnorm[i]:
                    runs.failure[i] = "merit-stationary"
                else:
                    running.append(i)
        if not running:
            return runs, rounds
        live = sorted(running)
        rounds += 1
        every = len(live) == s
        # an exactly zero eigenvalue at mu = 0 takes the mu -> 0+ limit, 0
        mu = np.array([runs.mu[i] for i in live])[:, None]
        if every:
            x, lam_, denom, q_, qg_ = runs.x, lam, lam2 + mu, q, qg
        else:
            x, lam_, denom, q_, qg_ = runs.x[live], lam[live], lam2[live] + mu, q[live], qg[live]
        scale = np.divide(lam_, denom, out=np.zeros_like(lam_), where=denom > 0.0)
        trials = x - (q_ @ (scale * qg_)[:, :, None])[:, :, 0]
        fresh = [False] * s
        for first, ok, res in _evaluate(engine, strengths, spec, search, trials):
            norms = _norms(res.gradient).tolist()
            accepted, better, stacked = [], [], []  # rows of runs, result and trials
            j = -1
            for k, admitted in enumerate(ok.tolist(), first):
                i = live[k]
                runs.evaluations[i] += 1
                j += admitted
                gnorm = norms[j] if admitted else math.nan
                if gnorm < runs.gnorm[i]:       # accepted: the trial is the new iterate
                    accepted.append(i)
                    better.append(j)
                    stacked.append(k)
                    runs.stagnant[i] = gnorm > (1.0 - 1e-4) * runs.gnorm[i]
                    runs.gnorm[i] = gnorm
                    runs.mu[i] *= 0.25
                    runs.iterations[i] += 1
                    fresh[i] = True
                else:                           # rejected: raise the damping, up to its bound
                    runs.mu[i] = max(4.0 * runs.mu[i], 1e-3 * lam2_max[i])
                    if runs.mu[i] > 1e8 * lam2_max[i]:
                        runs.failure[i] = "merit-stationary"
            if len(accepted) == s:              # every run, in one slice
                runs.x, runs.gradient, runs.hessian = trials, res.gradient, res.hessian
            elif accepted:
                runs.x[accepted] = trials[stacked]
                runs.gradient[accepted] = res.gradient[better]
                runs.hessian[accepted] = res.hessian[better]


def newton_polish(engine, strengths: VortexStrengths, spec: InteractionSpec,
                  x0, search: SearchConfig, state: _Runs | None = None) -> PolishResult:
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

    The rules are written once, over a stack of runs (``_Runs``, ``_polish``),
    and a run's arithmetic does not depend on the stack it is in.  From x0
    this is ``_polish`` on a stack of one, each evaluation one
    ``kr.f_omega_stack`` call of one point; ValueError unless x0 holds 2N
    coordinates.  Given ``state``, the single ended run that
    ``find_critical_points`` ran in its lockstep, x0 is unused and nothing
    is evaluated: the result is that run's, the one x0 alone gives.
    """
    if state is None:
        state, _ = _polish(engine, strengths, spec, search,
                           np.asarray(x0, dtype=float).reshape(1, -1))
    return state.result(0)


def _first_primes(n: int) -> list[int]:
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


# numpy's SeedSequence hash constants, and the multiplier of its PCG64
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


class _PCG64:
    """``numpy.random.default_rng(seed)`` for an integer seed >= 0, as far
    as ``permutation(n)`` reads it for n < 2^32, without importing
    ``numpy.random`` (and, through it, ``secrets`` and OpenSSL).

    The seed is hashed as ``SeedSequence(seed)`` hashes it: its 32-bit
    words, least significant first, mixed into a pool of 4 words, from which
    ``generate_state(4, uint64)`` draws the initial state and increment of
    the 128-bit LCG.  Each draw steps the LCG and outputs the XSL-RR
    permutation of the new state (M. E. O'Neill, "PCG: a family of simple
    fast space-efficient statistically good algorithms for random number
    generation", HMC-CS-2014-0905).  32-bit draws take the low half of a
    64-bit output first and keep the high half for the next one.  A shuffle
    swaps entry i, for i = n-1 ... 1, with the first 32-bit draw masked to
    i's bit length that is <= i, as ``Generator.shuffle`` does."""

    def __init__(self, seed: int):
        words, rest = [], int(seed)
        while True:
            words.append(rest & _MASK32)
            rest >>= 32
            if not rest:
                break
        const = _HASH_INIT_A

        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * _HASH_MULT_A & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return value ^ value >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        const, state = _HASH_INIT_B, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * _HASH_MULT_B & _MASK32
            value = value * const & _MASK32
            state.append(value ^ value >> 16)
        # the 8 words as 4 little-endian uint64: state (s0, s1), increment (s2, s3)
        s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        self._next32 = self._draws(s0 << 64 | s1, s2 << 64 | s3).__next__

    @staticmethod
    def _draws(initstate: int, initseq: int):
        """The 32-bit draws: the low, then the high half of each output."""
        inc = (initseq << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        while True:
            state = (state * _PCG_MULT + inc) & _MASK128
            rot = state >> 122
            value = ((state >> 64) ^ state) & _MASK64
            value = (value >> rot | value << (64 - rot)) & _MASK64
            yield value & _MASK32
            yield value >> 32

    def permutation(self, n: int) -> list:
        perm = list(range(n))
        draw = self._next32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            perm[i], perm[j] = perm[j], perm[i]
        return perm


class _ScrambledHalton:
    """Owen's randomized Halton sequence in [0, 1)^d (arXiv:1706.02808).

    Coordinate k is the van der Corput sequence in the k-th prime base b
    with every digit passed through its own random permutation of
    0..b-1: value i is sum_j perm_j[digit_j(i)] / b^(j+1), digit_j(i) =
    i // b^j % b.  A double resolves digits while b^-j > 2^-54, so each
    base gets ceil(54 / log2 b) - 1 permutations.  They are drawn by one
    ``_PCG64(seed)``, base after base, as ``default_rng(seed)`` would shuffle
    them, and the terms are summed left to right (a cumulative sum along the
    digits) with the weight divided by b at each digit.  This is the stream
    of ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)``, bit for bit;
    indices continue across ``random`` calls.
    """

    def __init__(self, d: int, seed: int):
        rng = _PCG64(seed)
        self._bases = []
        for base in _first_primes(d):
            count = math.ceil(54 / math.log2(base)) - 1
            weights = [1.0 / base]
            for _ in range(count - 1):
                weights.append(weights[-1] / base)
            perms = np.array([rng.permutation(base) for _ in range(count)])
            # row j: perm_j[v] * b^-(j+1), the term of digit value v at digit j
            terms = perms * np.array(weights)[:, None]
            self._bases.append((base, base ** np.arange(count),
                                base * np.arange(count), terms.ravel()))
        self._index = 0

    def random(self, n: int) -> np.ndarray:
        index = np.arange(self._index, self._index + n)[:, None]
        self._index += n
        sample = np.empty((n, len(self._bases)))
        for k, (base, powers, rows, terms) in enumerate(self._bases):
            sample[:, k] = np.cumsum(terms.take(index // powers % base + rows), axis=1)[:, -1]
        return sample


def _halton_starts(engine, search: SearchConfig, n_points: int) -> tuple:
    """Admissible starting configurations from Owen's scrambled Halton
    sequence (``_ScrambledHalton``, the stream of scipy's ``qmc.Halton``),
    mapped onto the bounding box of the boundary, and the number of
    candidates drawn.  Each block of 128 candidates is tested at once by
    ``kr.admitted``, the verdicts of the two rules of ``f_omega`` at the
    search's collision margin; drawing stops at ``search.starts`` starts or
    once max(200 ``search.starts``, 4000) candidates are drawn."""
    lo, hi = engine.domain.boundary.bounding_box
    sampler = _ScrambledHalton(2 * n_points, search.seed)
    starts = []
    budget = max(200 * search.starts, 4000)
    drawn = 0
    while len(starts) < search.starts and drawn < budget:
        block = sampler.random(128)
        drawn += len(block)
        cands = lo + block.reshape(-1, n_points, 2) * (hi - lo)
        ok = admitted(engine, cands, search.collision_margin)[0]
        starts.extend(cands[ok].reshape(-1, 2 * n_points)[: search.starts - len(starts)])
    return starts, drawn


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
    """Multi-start search; deterministic for a fixed seed.

    The starts run in lockstep (``_polish``) until each has ended: each
    round evaluates one trial point of every live start in one stacked call
    and decomposes the Hessians of the accepted ones in one batched call,
    so each start's result is the one ``newton_polish`` gives from that
    start alone.  ``newton_polish`` hands over each start's ended run, once
    per start.  ``rounds`` counts the lockstep rounds and ``candidates``
    the Halton candidates drawn for the starts."""
    n_points = len(strengths)
    starts, candidates = _halton_starts(engine, search, n_points)
    perms = _lambda_preserving_permutations(strengths.values)
    runs, rounds = _polish(engine, strengths, spec, search,
                           np.reshape(starts, (-1, 2 * n_points)))

    found = []
    failures = Counter()
    iterations = evaluations = 0
    for i, x0 in enumerate(starts):
        result = newton_polish(engine, strengths, spec, x0, search, runs.take([i]))
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
        fields = (Configuration(result.configuration.reshape(-1, 2)), result.residual,
                  cls.spectrum, cls.morse_index, cls.nullity, cls.margin, result.hessian)
        tag = ()                        # (orbit_tag, alignment), if the orbit is defined
        if can_tag:
            try:
                tag = detect_rotation_orbit(engine, CriticalPoint(*fields))
            except UndefinedOrbitError:
                pass
        points.append(CriticalPoint(*fields, *tag))

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
                                     "interaction": spec.variant}), rounds, candidates)


def _fingerprint(data: dict) -> str:
    # imported here: loading OpenSSL costs every command's start-up memory
    import hashlib

    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]

