"""The benchmark tracer (perfbench/tracer.py) wraps greenmorse functions and
engine methods by name; every name it lists must resolve, or ``--trace 1``
breaks.  A traced command must also count what the command reports itself,
or the benchmark fails it.  perfbench/ is only read here: the tracer is
loaded, and installed only inside a perfbench/worker.py subprocess."""

import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import greenmorse as gm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    package = tracer.PACKAGE
    for module_name, attr, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"{package}.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    for module_name, class_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"{package}.{module_name}"), class_name)
        # the tracer patches cls.__dict__[method], so it must be in the class body
        assert callable(cls.__dict__.get(method)), f"{class_name}.{method}"


def _traced_command(tmp_path, argv):
    """Run one CLI command traced in a perfbench worker; return its output
    directory and the layer totals of its spans."""
    out = tmp_path / "out"
    spec = {"argv": argv + ["--out", str(out)], "trace": True,
            "result": str(tmp_path / "worker.json"), "spans": str(tmp_path / "spans.json")}
    spec_path = tmp_path / "worker_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(gm.__file__).parents[1]))
    subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), str(spec_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    assert json.loads((tmp_path / "worker.json").read_text(encoding="utf-8"))["exit_code"] == 0
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    return out, _load_tracer().layer_totals(spans)


def test_traced_simulate_counts_the_steps_it_reports(tmp_path, lobed_domain):
    # integrate's f_omega calls outside velocity are one per sample, and each
    # velocity call is one of the solver iterations the manifest sums
    domain, vortex = tmp_path / "lobed.json", tmp_path / "vortex.json"
    gm.save_domain(lobed_domain, domain)
    gm.save_vortex(gm.VortexStrengths([1.0, 1.0]), gm.Configuration([[0.3, 0.1], [-0.2, -0.3]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    out, totals = _traced_command(tmp_path, ["simulate", str(domain), str(vortex),
                                             "--dt", "0.01", "--horizon", "0.03"])
    with open(out / "trajectory.csv", encoding="utf-8", newline="") as fh:
        steps = len(list(csv.reader(fh))) - 2
    assert steps == 3
    assert _load_tracer().program_counts(totals) == {
        "starts": 0, "converged": 0, "steps": steps, "rungs_accepted": 0}
    stats = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stats"]
    assert totals["velocity_calls"] == stats["solver_iterations"]["sum"]


def test_traced_search_counts_the_starts_it_reports(tmp_path):
    domain, vortex = tmp_path / "disk.json", tmp_path / "vortex.json"
    gm.save_domain(gm.DomainSpec(gm.unit_circle()), domain)
    gm.save_vortex(gm.VortexStrengths([1.0, -1.0]), gm.Configuration([[0.4, 0.0], [-0.4, 0.0]]),
                   gm.kirchhoff_routh_interaction(), vortex)
    out, totals = _traced_command(tmp_path, ["find-critical", str(domain), str(vortex),
                                             "--starts", "2"])
    stats = json.loads((out / "report.json").read_text(encoding="utf-8"))["stats"]
    assert stats["starts"] == 2
    assert _load_tracer().program_counts(totals) == {
        "starts": stats["starts"], "converged": stats["converged"], "steps": 0,
        "rungs_accepted": 0}
