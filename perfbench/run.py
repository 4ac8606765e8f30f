"""Benchmark of whole greenmorse CLI commands, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads (perfbench/workloads.py): ``search`` (find-critical), ``dynamics``
(simulate) and ``continuation`` (perturb-study); run each in turn to cover all
three.  One operation is one CLI command in a fresh single-threaded worker
process (perfbench/worker.py) on inputs generated from ``--seed`` and the
operation's index.  Operations repeat until ``--seconds`` have passed, and at
least MIN_OPS times.  Every output is checked; an operation whose command or
check fails counts as failed.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  An ``environment`` JSON
line and one line per metric come before it.

``--trace 0`` reports the end-to-end metrics, means over the operations:

* ``wall_s``: the ``cli.main(argv)`` call (inputs, engines, work, outputs);
* ``ops_per_s``: unit operations per second of ``wall_s``: Newton starts
  (search), integrator steps (dynamics), accepted rungs (continuation);
* ``setup_s``: from spawning a fresh worker until ``greenmorse.cli`` is imported;
* ``peak_rss_mb``: the worker's peak resident set size.

The three times are given at a reference machine speed: after each operation a
fresh process times the fixed kernel of perfbench/calibrate.py, and the
operation's times are multiplied by REFERENCE_KERNEL_S over that kernel time.
On a shared machine whose speed drifts by up to 30 % from one half-minute to
the next, this is what keeps two runs comparable.  A run has only 3 to 6
operations, so it reports the mean of the scaled values, which uses all of
them, rather than their median.  Unscaled means and the mean kernel time are
printed before the result.

On ``search`` it also prints ``points_found``, the verified distinct critical
points per command.  That count is not among the gated metrics: how many of
a command's Newton starts converge depends on the seed far too much for any
bound.  The traced run reports it as ``critical.points_found``.

``--trace 1`` runs each operation twice on the same inputs, plain and with the
layers wrapped by perfbench/tracer.py, and reports the per-layer metrics of
the traced runs (means per command) and ``trace.overhead_ratio``, the median
traced-to-plain ``wall_s`` ratio.  Each traced run must also agree with the
program's own counts (Newton starts and converged starts, integrator steps,
accepted rungs), or it counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# With OPENBLAS_NUM_THREADS unset, the first lu_factor of a 256 x 256 matrix in a
# process took up to 140 ms on a 2-core VM against about 1 ms pinned to one
# thread (perfbench/baseline.json); workers run pinned.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
# perfbench/calibrate.py kernel time that reported times are scaled to: about
# its time on a quiet 2-core x86-64 VM with OpenBLAS 0.3.30 (Haswell kernels)
REFERENCE_KERNEL_S = 0.30
MIN_OPS = 3
OP_TIMEOUT_S = 120.0
# no operation starts after this; keeps a run well inside three minutes
LAST_START_S = 100.0


def _worker(root: Path, env: dict, argv: list, out: Path, trace: bool) -> dict:
    """Run one CLI command in a fresh worker; return its report or raise RuntimeError."""
    out.mkdir(parents=True)
    spec = {"argv": argv + ["--out", str(out)], "trace": trace,
            "result": str(out / "worker.json"), "spans": str(out / "spans.json")}
    spec_path = out / "worker_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"),
                               str(spec_path)], cwd=root, env=env, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out after {OP_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    report = json.loads((out / "worker.json").read_text(encoding="utf-8"))
    report["setup_s"] = report["ready"] - spawned
    if report["exit_code"] != 0:
        raise RuntimeError(f"greenmorse exited {report['exit_code']}: "
                           f"{proc.stderr.strip()[-400:]}")
    return report


def _calibrate(root: Path, env: dict) -> float:
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "calibrate.py")],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, check=True)
    return float(proc.stdout)


def _environment(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return None

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
        "threads": {key: os.environ.get(key) for key in PINNED_THREADS},
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["search", "dynamics", "continuation"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "greenmorse" / "cli.py").is_file():
        print(f"error: no greenmorse sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(src))
    import tracer
    from workloads import WORKLOADS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    work = root / ".perfbench_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work)
    print(json.dumps({"environment": _environment(root)}), flush=True)

    trace = bool(args.trace)
    outcomes, reports, totals, overheads, failures = [], [], [], [], []
    started = time.monotonic()
    k = 0
    while ((k < MIN_OPS or time.monotonic() < started + args.seconds)
           and time.monotonic() < started + LAST_START_S):
        op_dir = work / f"op{k:03d}"
        op_dir.mkdir()
        command = workload.command(args.seed, k, op_dir)
        k += 1
        try:
            report = _worker(root, env, command, op_dir / "plain", False)
            outcome = workload.check(op_dir / "plain")
            if trace and outcome.ok:
                traced = _worker(root, env, command, op_dir / "traced", True)
                outcome = workload.check(op_dir / "traced")
                spans = json.loads((op_dir / "traced" / "spans.json").read_text())
                t = tracer.layer_totals(spans)
                counted = tracer.program_counts(t)
                for key, value in workload.program_counts(op_dir / "traced").items():
                    if counted[key] != value:
                        outcome.ok = False
                        outcome.reason = f"traced {key} {counted[key]} != program's {value}"
                totals.append(t)
                overheads.append(traced["wall_s"] / report["wall_s"])
            elif not trace:
                report["kernel_s"] = _calibrate(root, env)
                print(f"op {k - 1}: wall_s {report['wall_s']:.4f} setup_s "
                      f"{report['setup_s']:.4f} kernel_s {report['kernel_s']:.4f}",
                      file=sys.stderr)
        except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
            failures.append(f"op {k - 1}: {exc}")
            continue
        if not outcome.ok:
            failures.append(f"op {k - 1}: {outcome.reason}")
            continue
        outcomes.append(outcome)
        reports.append(report)

    for line in failures:
        print(f"failed {line}", file=sys.stderr)
    if trace:
        metrics = tracer.layer_metrics(totals) if totals else {}
        if overheads:
            metrics["trace.overhead_ratio"] = {"value": statistics.median(overheads),
                                               "unit": "ratio"}
    elif reports:
        # per operation: REFERENCE_KERNEL_S over the kernel time measured after it
        scales = [REFERENCE_KERNEL_S / r["kernel_s"] for r in reports]
        walls = [r["wall_s"] for r in reports]
        setups = [r["setup_s"] for r in reports]
        rates = [o.units / r["wall_s"] for o, r in zip(outcomes, reports)]
        mean = statistics.mean
        print(f"unscaled: wall_s {mean(walls):.6g} s, ops_per_s {mean(rates):.6g} 1/s, "
              f"setup_s {mean(setups):.6g} s; reference kernel "
              f"{mean(r['kernel_s'] for r in reports):.6g} s (scaled to {REFERENCE_KERNEL_S} s)")
        metrics = {
            "wall_s": {"value": mean(v * f for v, f in zip(walls, scales)), "unit": "s"},
            "ops_per_s": {"value": mean(v / f for v, f in zip(rates, scales)), "unit": "1/s"},
            "setup_s": {"value": mean(v * f for v, f in zip(setups, scales)), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_kb"] / 1024.0 for r in reports), "unit": "MB"},
        }
    else:
        metrics = {}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if outcomes and args.workload == "search":
        print(f"points_found {statistics.mean(o.points for o in outcomes):.6g} count "
              f"(per command, mean)")
    print(f"operations attempted {k}, failed {len(failures)}")
    print(json.dumps({"correct": not failures, "attempted": k, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
