"""The benchmark's span tracer wraps vortlab callables by name; keep them there."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _tracing_module().targets()
        if attr not in vars(owner)
    ]
    assert missing == []
