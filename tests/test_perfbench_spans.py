"""The benchmark's per-layer span names still name functions of the package.

perfbench/child.py reports calls and self time per span name; a name that
no traced function carries reads zero instead of failing.  So each name it
lists must be the span name of a function its tracer wraps.
"""

import importlib.util
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    """perfbench/child.py as a module, leaving sys.path as it was."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_every_span_name_resolves_to_a_traced_function():
    child = _load_child()
    tracer = child.tracer
    traced = set(tracer.trace_targets(tracer.qpolykit_modules()).values())
    names = child.CALLS_AND_SELF + child.CALLS_ONLY + child.SELF_ONLY + child.ISOLATION
    assert names
    assert [n for n in names if child.SPAN_ALIASES.get(n, n) not in traced] == []
