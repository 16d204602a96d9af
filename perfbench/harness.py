"""Shared machinery: importing vortlab from the checkout, provenance, the
correctness gate and the closed-loop pass runner."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import speed
from threads import BLAS_VARS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

# Reference band: a reported number passes when it is within RTOL of the
# recorded value or within ATOL of it.  ATOL is 1e-4 of the smallest
# tolerance any vortlab check applies at CLI defaults (1e-8).
RTOL = 1e-12
ATOL = 1e-12

class SetupError(Exception):
    """The checkout does not hold a usable vortlab source tree."""


def import_vortlab():
    """Import vortlab from ``<checkout>/src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "vortlab" / "__init__.py").is_file():
        raise SetupError(f"no vortlab sources under {src}")
    sys.path.insert(0, str(src))
    import vortlab
    import vortlab.cli

    if Path(vortlab.__file__).resolve().parent != (src / "vortlab").resolve():
        raise SetupError(f"imported vortlab from {vortlab.__file__}, not from {src}")
    return vortlab


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vortlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads():
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def provenance() -> dict:
    import numpy as np

    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# operations and the correctness gate
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop request: a CLI call or a README-level library call.

    ``run`` returns (exit code, report dict).  ``expect`` is the documented
    exit code.  ``ref`` names the recorded reference values the report must
    reproduce; ops without one are judged by ``verdict`` alone.
    ``known_defect`` marks an op that misses its documented verdict at the
    reference commit: it still counts as failed, but does not make the run
    incorrect unless it fails some other way.
    """

    name: str
    run: Callable[[], tuple[int, dict]]
    expect: int
    points: int
    ref: str | None
    verdict: Callable[[dict], bool] | None = None
    known_defect: str | None = None


def cli_op(vortlab, argv) -> Callable[[], tuple[int, dict]]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vortlab.cli.main(list(argv))
        text = out.getvalue()
        return code, (json.loads(text) if text.strip() else {"stderr": err.getvalue()})

    return run


def flatten(obj, prefix="") -> dict:
    """Numeric, boolean and null leaves of a report, keyed by path."""
    out = {}
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.update(flatten(obj[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}[{i}]"))
    elif obj is None or isinstance(obj, (bool, int, float)):
        out[prefix] = obj
    return out


def _same(got, want) -> bool:
    if isinstance(want, bool) or want is None or isinstance(got, bool) or got is None:
        return got is want
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= max(RTOL * abs(want), ATOL)


def check(op: Op, code, report, reference: dict) -> list[tuple[str, str]]:
    """(kind, detail) for every way the op missed; empty when it passed."""
    problems = []
    if code != op.expect:
        problems.append(("verdict", f"exit {code}, documented {op.expect}"))
    if op.verdict is not None and not op.verdict(report):
        problems.append(("verdict", "reported verdict outside its documented band"))
    if op.ref is not None:
        want = reference.get(op.ref)
        if want is None:
            problems.append(("reference", f"no recorded reference {op.ref!r}"))
        else:
            got = flatten(report)
            bad = [p for p, w in want.items() if p not in got or not _same(got[p], w)]
            if bad:
                problems.append(("reference", f"{len(bad)} values off, first {bad[0]}"))
    return problems


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["ops"]


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One op's result; ``seconds`` are reference seconds (see speed.py),
    ``raw_seconds`` the wall-clock time.  Traced ops are timed raw only."""

    op: str
    seconds: float
    raw_seconds: float
    problems: list = field(default_factory=list)
    expected_failure: bool = False


def run_op(op: Op, reference: dict, tracer=None) -> Outcome:
    def attempt():
        try:
            return tracer.run_op(op.name, op.run) if tracer else op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            return exc

    if tracer is None:
        result, raw, seconds = speed.measure(attempt)
    else:
        t0 = perf_counter()
        result = attempt()
        raw = seconds = perf_counter() - t0
    if isinstance(result, Exception):
        return Outcome(op.name, seconds, raw, [("raised", f"{type(result).__name__}: {result}")])
    code, report = result
    problems = check(op, code, report, reference)
    expected = bool(problems) and op.known_defect is not None and all(
        kind == "verdict" for kind, _ in problems)
    return Outcome(op.name, seconds, raw, problems, expected)


def run_pass(ops, reference, tracer=None) -> list[Outcome]:
    return [run_op(op, reference, tracer) for op in ops]


def run_passes(ops, reference, seconds: float) -> list[list[Outcome]]:
    """Whole passes, one client, one op at a time, for about ``seconds``.

    At least one pass runs; another starts only if a pass as long as the
    last one still ends inside the budget, so runs stay near ``seconds``.
    """
    passes = []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(ops, reference))
        last = perf_counter() - t0
        if perf_counter() - begin + last > seconds:
            return passes


SETUP_REPS = (5, 200)  # fewest and most set-up repeats per run
SETUP_BUDGET_S = 0.5  # repeats continue past the fewest until this much time is spent


def timed_setup(setup):
    """Median set-up time over repeats in reference seconds, the repeat
    count, and the context of the last repeat."""
    fewest, most = SETUP_REPS
    times = []
    with speed.Clock() as clock:
        begin = clock.now()
        while len(times) < fewest or (clock.now() - begin < SETUP_BUDGET_S and len(times) < most):
            t0 = clock.now()
            ctx = setup()
            times.append(clock.now() - t0)
    return statistics.median(times) * clock.factor, len(times), ctx


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
