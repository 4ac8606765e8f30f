"""The benchmark tracer (perfbench/tracer.py) wraps greenmorse functions and
engine methods by name; every name it lists must resolve, or ``--trace 1``
breaks.  The tracer is only read here, never installed."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
