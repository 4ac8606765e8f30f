"""Start-up micro-benchmarks: fresh interpreters, as every CLI command starts.

``test_import_cli`` times a process that imports ``greenmorse.cli`` and
exits, which every command pays before it reads its inputs.
``test_find_critical_command`` times a process that runs the ``search``
benchmark workload's ``find-critical`` command (the lobed domain, N = 3,
lambda = (1, 1, -1), 32 starts at 256 nodes, the Halton seed of its first
operation at ``--seed 1``): the cold path, lazy imports and first calls
included, that the in-process rows of bench_search.py cannot see.  Each
round spawns one single-threaded Python process.  Run from the root of a
checkout with pytest-benchmark installed:

    python -m pytest bench/bench_startup.py

The ``testpaths`` setting keeps tier-1 test runs from collecting this file.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenmorse as gm

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the Halton seed perfbench/workloads.py derives for operation 0 of seed 1
SEED = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])


@pytest.fixture(scope="module")
def env():
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    env.update((var, "1") for var in THREAD_VARS)
    return env


def _run(argv, env):
    subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True)


def test_import_cli(benchmark, env):
    benchmark.pedantic(_run, args=(["-c", "import greenmorse.cli"], env), rounds=10,
                       warmup_rounds=1)


def test_find_critical_command(benchmark, env, tmp_path):
    domain, vortex, out = tmp_path / "lobed.json", tmp_path / "vortex.json", tmp_path / "out"
    gm.save_domain(gm.apply_perturbation(gm.DomainSpec(gm.unit_circle()), gm.cosine_field(3),
                                         0.05), domain)
    gm.save_vortex(gm.VortexStrengths([1.0, 1.0, -1.0]),
                   gm.Configuration([[0.3, 0.0], [-0.15, 0.25], [-0.15, -0.25]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    argv = ["-m", "greenmorse.cli", "find-critical", str(domain), str(vortex),
            "--starts", "32", "--seed", str(SEED), "--nodes", "256", "--out", str(out)]
    benchmark.pedantic(_run, args=(argv, env), rounds=10, warmup_rounds=1)
    assert (out / "report.json").exists()
