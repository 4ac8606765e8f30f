"""First variations of the Green regular part under domain perturbations.

Sign convention.  With the domain displaced by eps * phi and evaluation
points held fixed, the regular part varies as

    dH(x, y)[phi] = - int_{bd} <phi, nu> d_nu G(x, .) d_nu G(y, .) ds,

the Robin function as dh(x)[phi] = dH(x, x)[phi], and the gradient of the
assembled vortex energy (for fields vanishing near the configuration) as

    dGradF[phi]_m = 2 lambda_m int_{bd} <phi, nu> S(z) grad_x d_nu G(x_m, z) ds,
    S(z) = sum_j lambda_j d_nu G(x_j, z).

These signs are pinned by the dilation oracle on the unit disk, where
H_R(0,0) = -(1/2pi) ln R gives dH(0,0) = -1/(2pi) for the field phi(x) = x,
and every formula here is cross-checked against finite differences of
rebuilt engines (``fd_check``).  When evaluation points are transported
along the field ("material" convention), the point-motion terms
grad_x H . phi(x) + grad_y H . phi(y) are added on top of the boundary
integral; fields used for continuation vanish near the tracked points, which
makes the two conventions agree there.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiscretizationFailureError,
    GreenMorseError,
    RefitFailureError,
    UnsupportedFieldError,
)
from .critical import SearchConfig, classify, is_degenerate, newton_polish
from .geometry import DomainSpec, PerturbationField, apply_perturbation, check_perturbation_size
from .green import DEFAULT_NODES, build_engine
from .kr import Configuration, InteractionSpec, VortexStrengths, f_omega

_FLOOR = 1e-12
# continuation gives up when halving the eps step takes it below this
MIN_STEP = 1e-6
# fd_check passes when the extrapolated difference matches to this relative error
FD_RTOL = 1e-5
# the quantities fd_check validates
QUANTITIES = ("H", "robin", "grad_f")
# the collision margin of every f_omega call in a continuation, its start included
CORRECTOR_COLLISION_MARGIN = 0.02


def _field_normal_at_nodes(engine, field: PerturbationField) -> np.ndarray:
    return field.boundary_normal_component(engine.domain.boundary, engine.node_params)


def _boundary_pairing(engine, gn: np.ndarray, px: np.ndarray, py: np.ndarray) -> float:
    """Quadrature of -int <phi,nu> px py ds; px * py is formed first so that
    swapping the traces gives bit-identical results (see ``dH_shape``)."""
    return float(-np.sum(engine.weights * gn * (px * py)))


def dH_shape(engine, x, y, field: PerturbationField) -> float:
    """Boundary-integral variation of H(x, y); points held fixed.

    The result is exactly symmetric in x and y, bit for bit: the two
    boundary traces are multiplied together before the weights and the
    field's normal component, so the rounding does not depend on the order
    of the points.  ``dRobin_shape`` uses the same pairing, so
    dh(x) = dH(x, x) holds exactly where the field vanishes at x.
    """
    gn = _field_normal_at_nodes(engine, field)
    px = engine.boundary_normal_derivative(x).values
    py = engine.boundary_normal_derivative(y).values
    return _boundary_pairing(engine, gn, px, py)


def dRobin_shape(engine, x, field: PerturbationField) -> float:
    """Variation of the Robin function, including point motion.

    Returns -int <phi,nu> |d_nu G(x,.)|^2 ds plus grad h(x) . phi(x) when the
    field does not vanish at x.
    """
    gn = _field_normal_at_nodes(engine, field)
    px = engine.boundary_normal_derivative(x).values
    value = _boundary_pairing(engine, gn, px, px)
    phi_x = field.evaluate(engine.domain, [x])[0]
    if np.any(phi_x != 0.0):
        value += float(engine.robin(x).gradient @ phi_x)
    return value


def dGradF_shape(engine, strengths: VortexStrengths, spec: InteractionSpec,
                 config: Configuration, field: PerturbationField) -> np.ndarray:
    """Variation of grad f under the perturbation, as a 2N-vector.

    Requires the field to vanish on a neighborhood of every configuration
    point (then the interaction term does not vary and the points do not
    move), except for the exactly-zero field which is always admissible.
    """
    n = len(config)
    if field.is_zero:
        return np.zeros(2 * n)
    near = np.flatnonzero(~field.vanishes_near(engine.domain, config.points))
    if len(near):
        raise UnsupportedFieldError(
            f"field does not vanish near configuration point {tuple(config.points[near[0]])}")
    lam = strengths.values
    values, grads = engine._traces(config.points)     # (N, nodes), (N, nodes, 2)
    common = engine.weights * _field_normal_at_nodes(engine, field) * (lam @ values)
    return (2.0 * lam[:, None] * np.einsum("z,mzc->mc", common, grads)).reshape(-1)


# ---------------------------------------------------------------------------
# finite-difference validation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeDerivativeReport:
    quantity: str
    eps_ladder: tuple
    fd_values: tuple            # central differences per rung (scalar or vector)
    analytic: object            # float or ndarray
    richardson: object
    observed_order: float | None
    rel_error: float
    passed: bool
    failures: tuple = ()


def _neville_to_zero(eps, values):
    """Polynomial extrapolation in eps^2 to eps = 0."""
    x = np.asarray(eps, dtype=float) ** 2
    table = [np.asarray(v, dtype=float).copy() for v in values]
    n = len(table)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (x[i + level] * table[i] - x[i] * table[i + 1]) \
                / (x[i + level] - x[i])
    return table[0]


def _observed_order(eps, fd_values, reference):
    ref = np.asarray(reference, dtype=float)
    errs = []
    good_eps = []
    scale = max(float(np.max(np.abs(ref))), _FLOOR)
    for e, v in zip(eps, fd_values):
        err = float(np.max(np.abs(np.asarray(v, dtype=float) - ref)))
        if err > 1e-12 * scale:
            errs.append(err)
            good_eps.append(e)
    if len(errs) < 2:
        return None
    slope = np.polyfit(np.log(good_eps), np.log(errs), 1)[0]
    return float(slope)


def fd_check(domain: DomainSpec, quantity: str, field: PerturbationField,
             eps_ladder, *, x=None, y=None, strengths=None, spec=None,
             config=None, nodes: int = DEFAULT_NODES) -> ShapeDerivativeReport:
    """Validate an analytic shape derivative against rebuilt-engine differences.

    For each rung eps the Green engine is rebuilt on the perturbed domain and
    the selected quantity is evaluated with points transported by eps * phi
    (the material convention); the central difference across +/-eps is then
    Richardson-extrapolated and compared with the analytic boundary integral
    (plus point-motion terms where the convention requires them).  It passes
    when every rung is built and the relative error is at most ``FD_RTOL``.
    A ladder that is empty, not finite and positive or not strictly
    decreasing (ValueError), or whose head is past the perturbation margin,
    raises before any build.

    ``quantity``, one of ``QUANTITIES``: "H" (needs x, y), "robin" (needs
    x), or "grad_f" (needs strengths, spec, config).
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if (not eps_ladder or not all(0 < e < np.inf for e in eps_ladder)
            or list(eps_ladder) != sorted(set(eps_ladder), reverse=True)):
        raise ValueError("eps ladder must be nonempty, finite, positive and strictly decreasing")
    check_perturbation_size(domain, field, eps_ladder[0])

    engine0 = build_engine(domain, nodes)
    if quantity == "H":
        if x is None or y is None:
            raise ValueError("quantity 'H' requires x and y")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        phi_x = field.evaluate(domain, [x])[0]
        phi_y = field.evaluate(domain, [y])[0]
        ev = engine0.regular_part(x, y)
        analytic = dH_shape(engine0, x, y, field) \
            + float(ev.grad_x @ phi_x) + float(ev.grad_y @ phi_y)

        def evaluate(engine, eps):
            return engine.regular_part(x + eps * phi_x, y + eps * phi_y).value
    elif quantity == "robin":
        if x is None:
            raise ValueError("quantity 'robin' requires x")
        x = np.asarray(x, dtype=float)
        phi_x = field.evaluate(domain, [x])[0]
        analytic = dRobin_shape(engine0, x, field)

        def evaluate(engine, eps):
            return engine.robin(x + eps * phi_x).value
    else:
        if strengths is None or spec is None or config is None:
            raise ValueError("quantity 'grad_f' requires strengths, spec, config")
        analytic = dGradF_shape(engine0, strengths, spec, config, field)

        def evaluate(engine, eps):
            return f_omega(engine, strengths, spec, config).gradient

    fd_values = []
    used_eps = []
    failures = []
    for eps in eps_ladder:
        try:
            eng_p = build_engine(apply_perturbation(domain, field, +eps), nodes)
            eng_m = build_engine(apply_perturbation(domain, field, -eps), nodes)
            q_p = evaluate(eng_p, +eps)
            q_m = evaluate(eng_m, -eps)
        except GreenMorseError as exc:
            failures.append(f"eps={eps}: {exc}")
            continue
        fd_values.append((np.asarray(q_p) - np.asarray(q_m)) / (2.0 * eps))
        used_eps.append(eps)

    if not fd_values:
        return ShapeDerivativeReport(quantity, eps_ladder, (), analytic, None,
                                     None, np.inf, False, tuple(failures))
    richardson = _neville_to_zero(used_eps, fd_values)
    order = _observed_order(used_eps, fd_values, analytic) if len(used_eps) >= 3 else None
    a = np.asarray(analytic, dtype=float)
    r = np.asarray(richardson, dtype=float)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(r))), _FLOOR)
    rel_error = float(np.max(np.abs(a - r))) / scale
    passed = rel_error <= FD_RTOL and not failures
    fd_out = tuple(v if np.ndim(v) else float(v) for v in fd_values)
    analytic_out = analytic if np.ndim(analytic) else float(analytic)
    rich_out = richardson if np.ndim(richardson) else float(richardson)
    return ShapeDerivativeReport(quantity, tuple(used_eps), fd_out, analytic_out,
                                 rich_out, order, rel_error, passed, tuple(failures))


# ---------------------------------------------------------------------------
# critical-point continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuationTrace:
    eps_values: tuple
    configurations: tuple       # (N, 2) arrays
    residuals: tuple
    margins: tuple              # min |Hessian eigenvalue| per rung
    predictor_used: tuple       # bool per rung
    corrector_iterations: tuple
    solve_nodes: tuple          # the rung engine's ``solve_nodes``; None without a solve
    diagnostic: str | None      # why the trace ended early; None if it did not

    @property
    def truncated(self) -> bool:
        return self.diagnostic is not None


def corrector_search(newton_tol: float) -> SearchConfig:
    """The settings of every ``newton_polish`` in a continuation, the polish
    of its start included: one start, pairs ``CORRECTOR_COLLISION_MARGIN``
    apart."""
    return SearchConfig(starts=1, collision_margin=CORRECTOR_COLLISION_MARGIN,
                        newton_tol=newton_tol)


def continue_critical_point(engine, field: PerturbationField, eps_grid,
                            start_configuration, strengths: VortexStrengths,
                            spec: InteractionSpec, *,
                            newton_tol: float = SearchConfig.newton_tol) -> ContinuationTrace:
    """Track a critical point along the perturbation family eps -> Omega_eps.

    ``engine`` is the caller's engine on Omega_0 = ``engine.domain``; each
    later rung builds one with ``engine.node_count`` nodes on
    ``apply_perturbation(engine.domain, field, eps)``.  Each accepted rung
    stores the continued configuration, its gradient residual and the
    Hessian non-degeneracy margin, with the node count of its engine's
    density solve (None on an engine without one, such as the disk's); an
    eps = 0 grid point stores the start and the caller's engine.
    Each rung is classified once and, unless ``is_degenerate`` holds for its
    spectrum, gives one predictor direction H^-1 (-dGradF): an attempt at
    eps + d starts from x + direction * d.  The corrector is
    ``newton_polish``, Levenberg-Marquardt on the perturbed gradient, with
    the settings of ``corrector_search(newton_tol)``; the start's evaluation
    keeps the same collision margin.
    A corrector failing or needing more than 10 accepted steps halves the
    step; below ``MIN_STEP`` the trace ends, truncated, with a diagnostic.
    An empty grid or one with an entry that is not finite and nonnegative
    (ValueError), or one past the perturbation margin
    (PerturbationTooLargeError), raises before any rung is built.
    """
    grid = sorted(set(float(e) for e in eps_grid))
    if not grid or not all(0 <= e < np.inf for e in grid):
        raise ValueError("eps grid must be nonempty, finite and nonnegative")
    # ``engine`` moves on with the accepted rungs; every rung perturbs Omega_0
    domain, nodes = engine.domain, engine.node_count
    check_perturbation_size(domain, field, grid[-1])
    search = corrector_search(newton_tol)

    # (eps, configuration, residual, margin, predictor used, corrector
    # iterations, solve nodes)
    rows = []
    x = np.asarray(start_configuration, dtype=float).reshape(-1).copy()
    res = f_omega(engine, strengths, spec, Configuration(x.reshape(-1, 2)),
                  search.collision_margin)
    hessian, cls = res.hessian, classify(res.hessian)
    eps = 0.0
    if grid[0] == 0.0:
        rows.append((0.0, x.reshape(-1, 2).copy(), float(np.linalg.norm(res.gradient)),
                     cls.margin, False, 0, engine.diagnostics.get("solve_nodes")))
    step = None     # eps step of the next attempt; None right after an accepted rung
    diagnostic = None
    while eps < grid[-1]:
        target = grid[bisect.bisect_right(grid, eps)]
        if step is None:
            step = target - eps
            direction = None
            if not is_degenerate(cls.spectrum):
                dg = dGradF_shape(engine, strengths, spec,
                                  Configuration(x.reshape(-1, 2)), field)
                try:
                    direction = np.linalg.solve(hessian, -dg)
                except np.linalg.LinAlgError:
                    pass
        eps_next = eps + step
        guess = x if direction is None else x + direction * (eps_next - eps)
        try:
            engine_next = build_engine(apply_perturbation(domain, field, eps_next), nodes)
            polish = newton_polish(engine_next, strengths, spec, guess, search)
        except (RefitFailureError, DiscretizationFailureError) as exc:
            failure = str(exc)
        else:
            if polish.converged and polish.iterations <= 10:
                x, hessian, engine, eps = (polish.configuration, polish.hessian,
                                           engine_next, eps_next)
                cls = classify(hessian)
                rows.append((eps, x.reshape(-1, 2).copy(), float(polish.residual),
                             cls.margin, direction is not None, polish.iterations,
                             engine.diagnostics.get("solve_nodes")))
                step = None
                continue
            failure = polish.failure or f"{polish.iterations} iterations"
        step *= 0.5
        if step < MIN_STEP:
            diagnostic = (f"continuation stalled near eps={eps:.6g} "
                          f"targeting {target:.6g}: {failure}")
            break
    columns = tuple(zip(*rows)) or ((),) * 7
    return ContinuationTrace(*columns, diagnostic)
