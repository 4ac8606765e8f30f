"""Span tracer that wraps greenmorse's layer boundaries from outside the package.

A span is ``[name, parent, start, end, info]``: ``parent`` is the index of the
span that was open when this one started (-1 for none), times come from
``time.perf_counter`` and ``info`` holds a few facts read from the call's
arguments or result (the right-hand sides of an LU solve, whether a Newton run
converged).  Spans are kept in memory and written out once, at the end.

``Tracer.install`` replaces each traced function in every ``greenmorse`` module
that binds it (``from .kr import f_omega`` makes a second binding that patching
``kr`` alone would miss) and each traced method on its class.
``layer_totals`` turns one dump into per-layer counts and times;
``layer_metrics`` turns the totals of several runs into the reported metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "greenmorse"


def _rhs_columns(args, kwargs, result):
    b = args[1] if len(args) > 1 else kwargs["b"]
    return 1 if b.ndim == 1 else int(b.shape[1])


def _polish_info(args, kwargs, result):
    return [bool(result.converged), int(result.iterations)]


def _search_info(args, kwargs, result):
    return len(result.points)


# (module, function, info) for module-level functions
FUNCTIONS = [
    ("geometry", "load_domain", None),
    ("geometry", "apply_perturbation", None),
    ("green", "build_engine", None),
    ("green", "lu_solve", _rhs_columns),
    ("kr", "f_omega", None),
    ("kr", "check_admissible", None),
    ("critical", "find_critical_points", _search_info),
    ("critical", "newton_polish", _polish_info),
    ("shape", "continue_critical_point", None),
    ("shape", "dGradF_shape", None),
    ("dynamics", "integrate", None),
    ("dynamics", "velocity", None),
]

# (module, class, method, span name); both engine backends share a span name
METHODS = [
    ("geometry", "DomainSpec", "signed_boundary_distance", "geometry.signed_boundary_distance"),
    ("green", "DiskGreenEngine", "regular_part", "green.regular_part"),
    ("green", "IntegralGreenEngine", "regular_part", "green.regular_part"),
    ("green", "DiskGreenEngine", "boundary_normal_derivative", "green.boundary_normal_derivative"),
    ("green", "IntegralGreenEngine", "boundary_normal_derivative",
     "green.boundary_normal_derivative"),
    ("green", "DiskGreenEngine", "trace_gradient", "green.trace_gradient"),
    ("green", "IntegralGreenEngine", "trace_gradient", "green.trace_gradient"),
]


class Tracer:
    """Records nested spans around the wrapped calls of one process."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, info=None):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_spans[-1] if open_spans else -1, clock(), 0.0, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = "raised"
                raise
            finally:
                span[3] = clock()
                open_spans.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, info in FUNCTIONS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for module_name, class_name, method, span_name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), class_name)
            setattr(cls, method, self.wrap(span_name, cls.__dict__[method]))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def layer_totals(spans) -> dict:
    """Counts and seconds per layer for the spans of one CLI run."""
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            covered[s[1]] += dur[i]

    def parent(i):
        return spans[spans[i][1]][0] if spans[i][1] >= 0 else None

    t = {key: 0 for key in (
        "distance_calls", "distance_s", "domain_builds", "domain_build_s",
        "builds", "build_s", "regular_part_calls", "regular_part_self_s",
        "trace_calls", "trace_s", "lu_solve_calls", "lu_solve_rhs", "lu_solve_s",
        "f_omega_calls", "f_omega_self_s", "pair_calls", "admissibility_calls",
        "admissibility_s", "starts", "converged", "unique", "newton_iterations",
        "start_evals", "failed_start_s", "rung_attempts", "rungs_accepted",
        "dgradf_calls", "dgradf_s", "velocity_calls", "velocity_s",
        "integrations", "energy_evals")}
    search_polish = set()
    for i, (name, _, _, _, info) in enumerate(spans):
        d = dur[i]
        up = parent(i)
        if name == "geometry.signed_boundary_distance":
            t["distance_calls"] += 1
            t["distance_s"] += d
        elif name in ("geometry.load_domain", "geometry.apply_perturbation"):
            t["domain_builds"] += 1
            t["domain_build_s"] += d
            if up == "shape.continue_critical_point" and info == "raised":
                t["rung_attempts"] += 1
        elif name == "green.build_engine":
            t["builds"] += 1
            t["build_s"] += d
            if up == "shape.continue_critical_point" and info == "raised":
                t["rung_attempts"] += 1
        elif name == "green.regular_part":
            t["regular_part_calls"] += 1
            t["regular_part_self_s"] += d - covered[i]
            if up == "kr.f_omega":
                t["pair_calls"] += 1
        elif name in ("green.boundary_normal_derivative", "green.trace_gradient"):
            t["trace_calls"] += 1
            t["trace_s"] += d
        elif name == "green.lu_solve":
            t["lu_solve_calls"] += 1
            t["lu_solve_rhs"] += info if isinstance(info, int) else 0
            t["lu_solve_s"] += d
        elif name == "kr.f_omega":
            t["f_omega_calls"] += 1
            t["f_omega_self_s"] += d - covered[i]
            if up == "dynamics.integrate":
                t["energy_evals"] += 1
            # a parent span always precedes its children in the list
            if spans[i][1] in search_polish:
                t["start_evals"] += 1
        elif name == "kr.check_admissible":
            t["admissibility_calls"] += 1
            t["admissibility_s"] += d
        elif name == "critical.find_critical_points":
            t["unique"] += info if isinstance(info, int) else 0
        elif name == "critical.newton_polish":
            converged, iterations = info if isinstance(info, list) else (False, 0)
            if not converged:
                t["failed_start_s"] += d
            if up == "critical.find_critical_points":
                search_polish.add(i)
                t["starts"] += 1
                t["converged"] += converged
                t["newton_iterations"] += iterations
            elif up == "shape.continue_critical_point":
                t["rung_attempts"] += 1
                # continue_critical_point accepts a corrector run that
                # converges within 10 iterations and halves the step otherwise
                t["rungs_accepted"] += converged and iterations <= 10
        elif name == "shape.dGradF_shape":
            t["dgradf_calls"] += 1
            t["dgradf_s"] += d
        elif name == "dynamics.velocity":
            t["velocity_calls"] += 1
            t["velocity_s"] += d
        elif name == "dynamics.integrate":
            t["integrations"] += 1
    return t


def _ratio(num, den):
    return num / den if den else 0.0


# metric name -> (unit, value from the summed totals and the run count)
LAYER_METRICS = {
    "geometry.distance_calls": ("count", lambda t, n: t["distance_calls"] / n),
    "geometry.distance_s": ("s", lambda t, n: t["distance_s"] / n),
    "geometry.domain_builds": ("count", lambda t, n: t["domain_builds"] / n),
    "geometry.domain_build_s": ("s", lambda t, n: t["domain_build_s"] / n),
    "green.builds": ("count", lambda t, n: t["builds"] / n),
    "green.build_s": ("s", lambda t, n: t["build_s"] / n),
    "green.regular_part_calls": ("count", lambda t, n: t["regular_part_calls"] / n),
    "green.regular_part_self_s": ("s", lambda t, n: t["regular_part_self_s"] / n),
    "green.trace_calls": ("count", lambda t, n: t["trace_calls"] / n),
    "green.trace_s": ("s", lambda t, n: t["trace_s"] / n),
    "green.lu_solve_calls": ("count", lambda t, n: t["lu_solve_calls"] / n),
    "green.lu_solve_rhs": ("count", lambda t, n: t["lu_solve_rhs"] / n),
    "green.lu_solve_s": ("s", lambda t, n: t["lu_solve_s"] / n),
    "kr.f_omega_calls": ("count", lambda t, n: t["f_omega_calls"] / n),
    "kr.f_omega_self_s": ("s", lambda t, n: t["f_omega_self_s"] / n),
    "kr.pairs_per_eval": ("ratio", lambda t, n: _ratio(t["pair_calls"], t["f_omega_calls"])),
    "kr.admissibility_calls": ("count", lambda t, n: t["admissibility_calls"] / n),
    "kr.admissibility_s": ("s", lambda t, n: t["admissibility_s"] / n),
    "critical.starts": ("count", lambda t, n: t["starts"] / n),
    "critical.converged_ratio": ("ratio", lambda t, n: _ratio(t["converged"], t["starts"])),
    "critical.unique_ratio": ("ratio", lambda t, n: _ratio(t["unique"], t["converged"])),
    "critical.points_found": ("count", lambda t, n: t["unique"] / n),
    "critical.newton_iterations": ("count", lambda t, n: t["newton_iterations"] / n),
    "critical.evals_per_start": ("ratio", lambda t, n: _ratio(t["start_evals"], t["starts"])),
    "critical.failed_start_s": ("s", lambda t, n: t["failed_start_s"] / n),
    "shape.rungs_attempted": ("count", lambda t, n: t["rung_attempts"] / n),
    "shape.rung_accept_ratio": ("ratio",
                                lambda t, n: _ratio(t["rungs_accepted"], t["rung_attempts"])),
    "shape.dgradf_calls": ("count", lambda t, n: t["dgradf_calls"] / n),
    "shape.dgradf_s": ("s", lambda t, n: t["dgradf_s"] / n),
    "dynamics.velocity_calls": ("count", lambda t, n: t["velocity_calls"] / n),
    "dynamics.velocity_per_step": ("ratio", lambda t, n: _ratio(
        t["velocity_calls"], t["energy_evals"] - t["integrations"])),
    "dynamics.velocity_s": ("s", lambda t, n: t["velocity_s"] / n),
}


def layer_metrics(totals: list[dict]) -> dict:
    """Per-layer metrics over several CLI runs: counts and seconds are means
    per run, ratios are taken over the summed totals (0 where the base is 0)."""
    n = len(totals)
    summed = {key: sum(t[key] for t in totals) for key in totals[0]}
    return {name: {"value": float(fn(summed, n)), "unit": unit}
            for name, (unit, fn) in LAYER_METRICS.items()}


def program_counts(t: dict) -> dict:
    """Counts the tracer can compare with what the program reports itself."""
    return {
        "starts": t["starts"],
        "converged": t["converged"],
        # integrate evaluates the energy once at the start and once per step
        "steps": t["energy_evals"] - t["integrations"],
        "rungs_accepted": t["rungs_accepted"],
    }
