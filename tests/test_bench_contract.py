"""The names the benchmark's tracer wraps must exist with the signatures it reads.

``bench/tracer.py`` replaces public functions of ``fedsim.cli`` and
``fedsim.engine`` by timing wrappers.  A refactor that renames or reshapes one
of them would break the traced benchmark without failing any program test;
these checks fail first.
"""

import importlib.util
import inspect
from pathlib import Path

import fedsim.engine

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    spans = load_tracer().SPANS
    assert spans
    for module, attr, _span, _counted in spans:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_forward_cached_takes_the_batch_third():
    # the tracer counts local samples as len(args[2]) of each forward call
    params = list(inspect.signature(fedsim.engine.forward_cached).parameters)
    assert params[2] == "batch"
