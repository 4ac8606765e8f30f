"""Start-up micro-benchmark: a fresh interpreter importing ``greenmorse.cli``.

Every CLI command pays this before it reads its inputs.  Each round spawns one
single-threaded Python process that imports the CLI module and exits.  Run
from the root of a checkout with pytest-benchmark installed:

    python -m pytest bench/bench_startup.py

The ``testpaths`` setting keeps tier-1 test runs from collecting this file.
"""

import os
import subprocess
import sys
from pathlib import Path

import greenmorse as gm

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_cli(env):
    subprocess.run([sys.executable, "-c", "import greenmorse.cli"], env=env, check=True)


def test_import_cli(benchmark):
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    env.update((var, "1") for var in THREAD_VARS)
    benchmark.pedantic(_import_cli, args=(env,), rounds=10, warmup_rounds=1)
