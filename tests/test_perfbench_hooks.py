"""The benchmark reaches vortlab by name: the span tracer wraps callables by name, and its
workloads, self-test and baseline items read ``vl.<attr>...`` chains; keep them there."""

import importlib
import importlib.util
import re
from pathlib import Path

import vortlab

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"
# ``vl`` is the package as perfbench imports it; an alias line ``cli = vl.cli`` names a chain
_CHAIN = re.compile(r"\b(vl|vortlab)((?:\.[A-Za-z_]\w*)+)")
_ALIAS = re.compile(r"^\s*(\w+) = vl((?:\.\w+)+)\s*$", re.MULTILINE)


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


def _chains():
    """Every attribute chain on the package in perfbench's sources, aliases expanded."""
    chains = set()
    for path in sorted(_PERFBENCH.glob("*.py")):
        text = path.read_text()
        chains.update(tail for _, tail in _CHAIN.findall(text))
        for alias, tail in _ALIAS.findall(text):
            chains.update(tail + more for more in re.findall(
                rf"\b{alias}((?:\.[A-Za-z_]\w*)+)", text))
    return sorted(chains)


def _resolve(chain):
    obj = vortlab
    for name in chain.lstrip(".").split("."):
        if not hasattr(obj, name):  # a submodule perfbench imports, as vortlab.cli
            importlib.import_module(f"{obj.__name__}.{name}")
        obj = getattr(obj, name)
    return obj


def test_every_chain_perfbench_names_resolves():
    chains = _chains()
    assert ".cli._default_generator" in chains and ".flows.make_fixture" in chains
    missing = []
    for chain in chains:
        try:
            _resolve(chain)
        except (AttributeError, ImportError):
            missing.append(f"vl{chain}")
    assert missing == []
