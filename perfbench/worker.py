"""Run one greenmorse CLI command in a fresh process and report what it cost.

Usage: python3 perfbench/worker.py SPEC.json

SPEC is a JSON object with ``argv`` (the CLI arguments), ``trace`` (wrap the
layers with perfbench/tracer.py), ``result`` (where to write this run's JSON
report) and ``spans`` (where to write the span dump when traced).  The report
holds ``ready`` (``time.monotonic()`` once ``greenmorse.cli`` is imported; the
parent subtracts its own spawn time to get the set-up time), ``wall_s`` (the
``cli.main`` call), ``exit_code`` and ``peak_rss_kb``.
"""

import json
import resource
import sys
import time

import greenmorse.cli as cli

READY = time.monotonic()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spec["spans"])
    report = {
        "ready": READY,
        "wall_s": wall,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
