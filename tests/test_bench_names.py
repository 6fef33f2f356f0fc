"""The names the benchmark's tracer wraps must resolve in the package.

`perfbench/tracer.py` wraps each `(module, function)` of `TARGETS`, the CLI
entry point and the Poincare polynomial's `__post_init__`, by name; a rename
or a move out of `src/` breaks every traced benchmark run, so it fails here
first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
NUMPY_MODULES = {"existence", "finitefield"}  # the F_q oracle, which needs numpy

_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
TARGETS = [(mod, fn) for mod, fn, _ in tracer.TARGETS]


@pytest.mark.parametrize("mod,fn", TARGETS, ids=[f"{m}.{f}" for m, f in TARGETS])
def test_traced_function_resolves(mod, fn):
    if mod in NUMPY_MODULES:
        pytest.importorskip("numpy")
    assert callable(getattr(importlib.import_module(f"bbquiver.{mod}"), fn, None))


@pytest.mark.parametrize("name", [tracer.ROOT, tracer.POLY_INIT])
def test_dotted_name_resolves(name):
    mod, *path = name.split(".")
    obj = importlib.import_module(f"bbquiver.{mod}")
    for attr in path:
        obj = getattr(obj, attr, None)
    assert callable(obj)
