"""The names the end-to-end benchmark's tracer patches must exist in ``src/``.

``benchmarks/e2e/trace.py`` lists the attributes its traced passes wrap
(``pipeline_targets``, ``evaluation_targets``, ``serve_targets``).  A
renamed or deleted target fails only when a traced benchmark run reaches
``Tracer.patch``; this test fails on it in the quick tier instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _load_trace():
    # Loaded by path under its own name: ``trace`` would shadow (or be
    # shadowed by) the standard library module of that name.
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _load_trace()


@pytest.mark.parametrize(
    "targets", ["pipeline_targets", "evaluation_targets", "serve_targets"]
)
def test_every_trace_target_is_defined(targets):
    missing = []
    for owner, attribute, _ in getattr(TRACE, targets)():
        if isinstance(owner, type):
            # Tracer.patch reads a class attribute from the class's own
            # __dict__, so an inherited one does not count.
            present = attribute in vars(owner)
        else:
            present = hasattr(owner, attribute)
        if not present:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
    assert not missing, f"trace targets missing from src/: {missing}"
