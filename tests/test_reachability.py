"""What the commands reach: every function, method and property getter defined in
``src/vortlab`` is called by one sweep of command runs, or is named in ``ALLOWED`` with
the reason it stays.  A surface that only tests call is one to wire into a command or
delete.  Lambdas and closures are out of scope: the sweep lists what ``inspect`` finds on
the modules and their classes."""

import contextlib
import functools
import inspect
import io
import re
import sys
import threading
from pathlib import Path

import vortlab
from vortlab import cli, errors, fields, flows, invariants, kinematics, poly, report, theorems
from vortlab import variational

_SRC = Path(vortlab.__file__).resolve().parent
_README = _SRC.parents[1] / "README.md"
MODULES = (cli, errors, fields, flows, invariants, kinematics, poly, report, theorems, variational)

# qualified name -> why it stays though no command run calls it
_PIN = "perfbench's tracer wraps it by name, so its per-layer metric keeps a callable"
_ITEM6 = "ROADMAP item 6 wires it into verify's theorem pairs or deletes it"
_ITEM18 = "ROADMAP item 18's exact-verdict oracle uses it or deletes it"
ALLOWED = {
    "fields.AnalyticTrajectoryField.position_hessian": _PIN,
    "fields.SampledTrajectoryField.position_hessian": _PIN,
    "fields.second_derivative": _PIN,
    "flows.fixture_names": "perfbench's workloads list the catalog through it",
    "invariants.cauchy_residual": _PIN,
    "invariants.image_velocity": _PIN,
    "theorems.circulation_drift": _PIN,
    "theorems.ertel_drift": _PIN,
    "theorems.helicity_drift": _PIN,
    "poly.Poly.__call__": _PIN,
    "invariants.cauchy_vorticity_reconstruct": _ITEM6,
    "invariants.lagrangian_vorticity_pullback": _ITEM6,
    "theorems.ertel_pv_label_form": _ITEM6,
    **{f"poly.Poly.{name}": _ITEM18 for name in (
        "__eq__", "__hash__", "__neg__", "__pow__", "__repr__", "__rsub__", "__setattr__",
        "__sub__", "compose", "degree", "is_zero")},
    "poly.Rat.__rsub__": _ITEM18 + " (Rat arithmetic with an int on the left)",
    "poly.Rat.__rtruediv__": _ITEM18 + " (Rat arithmetic with an int on the left)",
    "variational.BarotropicEOS.polytropic": "test tool: a nonzero EOS for the variational tests",
    "fields.VectorField.time_derivative": "test tool: unsteady velocities; every catalog "
                                          "velocity is steady and no command's triple has a "
                                          "delta_x (ROADMAP item 22)",
}


def _defined() -> dict:
    """Qualified name -> code object of every module-level function, method and property
    getter whose source is a file of the package."""
    out = {}

    def add(prefix, obj):
        obj = inspect.unwrap(obj)
        code = getattr(obj, "__code__", None)
        if (code is not None and Path(code.co_filename).resolve().parent == _SRC
                and "<" not in obj.__qualname__):  # not a lambda or a closure
            out[f"{prefix}.{obj.__qualname__}"] = code

    for module in MODULES:
        prefix = module.__name__.removeprefix("vortlab.")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, (property, functools.cached_property)):
                        member = getattr(member, "fget", None) or member.func
                    add(prefix, member)
            elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                add(prefix, obj)
    return out


def _runs(tmp_path):
    """The command runs of the sweep, each a callable."""
    def cmd(*argv):
        return lambda: cli.main(list(argv))

    runs = [cmd("verify", "--fixture", name) for name in flows.fixture_names()]
    for name in ("rigid-rotation", "abc"):
        runs += [cmd("drift", "--fixture", name, "--theorem", theorem)
                 for theorem in cli.THEOREMS]
        runs.append(cmd("action", "--fixture", name, "--grid", "2", "--nt", "2"))
    for name, small in (("gerstner", ()), ("abc", ("--param", "shape=6,6,6"))):
        for suffix in (".npz", ".csv"):
            path = str(tmp_path / f"{name}{suffix}")
            runs.append(cmd("export", "--fixture", name, *small, "--out", path))
            runs.append(lambda path=path: invariants.cauchy_drift(
                (field := fields.load_grid(path)), field.grid, field.times))
    config = tmp_path / "run.cfg"
    config.write_text("fixture = shear\ngrid = 3\n")
    runs += [cmd("identities", "--trials", "3"),
             cmd("drift", "--fixture", "abc", "--dt", "0.5,0.25", "--t1", "0.5"),
             # a non-extremal fixture's weak form, and the CSV report
             cmd("action", "--fixture", "non-euler", "--weak-form", "--grid", "2", "--nt", "2"),
             cmd("verify", "--fixture", "rigid-rotation", "--param", "omega0=2", "--format", "csv"),
             # exit 2 on a singular map, whose error names the label and time
             cmd("verify", "--fixture", "shear", "--param", "rate=1e308"),
             cmd("verify", "--config", str(config))]
    [tour] = re.findall(r"A quick tour:\n\n```python\n(.*?)```", _README.read_text(), re.DOTALL)
    runs.append(lambda: exec(compile(tour, "README.md", "exec"), {}))
    return runs


def _called(runs) -> set:
    """The code objects called while ``runs`` run, in this thread and in any it starts."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for module in MODULES:  # a memoized function made earlier in the process runs again
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    out = io.StringIO()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for run in runs:
                run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


def test_every_surface_is_reached_by_a_command_or_allowed(tmp_path):
    defined = _defined()
    called = _called(_runs(tmp_path))
    uncalled = sorted(name for name, code in defined.items() if code not in called)
    assert [name for name in uncalled if name not in ALLOWED] == []
    # an entry for a name that is reached, or gone, is stale
    assert sorted(set(ALLOWED) - set(uncalled)) == []
