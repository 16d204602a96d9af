"""Command-line driver for the verification suites.

Subcommands::

    vortlab verify     --fixture NAME ...   full invariant suite, exit 0/1
    vortlab identities --trials N --seed S  exact-arithmetic identity battery
    vortlab action     --fixture NAME ...   relabeling scan / weak form / variational split
    vortlab drift      --fixture NAME ...   one --theorem's drift, or the --dt convergence probe
    vortlab export     --fixture NAME --out FILE   sampled-grid export (.npz or .csv)

Exit codes: 0 all checks passed, 1 a tolerance failed, 2 usage/config error, float
arithmetic that overflows, divides by zero or goes invalid, or a run that outgrows memory;
3 internal error (a fault of vortlab itself, with its traceback).
Reports are deterministic: identical configs (including --seed) produce
byte-identical output, and no timestamps or machine identifiers are embedded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import math
import random
import sys
import traceback
from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from . import __version__
from .errors import VortlabError
from .fields import (
    LabelGrid,
    SampledTrajectoryField,
    ScalarField,
    VectorField,
    _fit_stencil,
    save_grid,
)
from .flows import ADVECTED, Fixture, integrate_trajectories, make_fixture
from .invariants import _cauchy_sweep, _drift_loop, cauchy_drift
from .kinematics import (
    Frame,
    convective_gradient_residual,
    inverse_jacobian_rate_residual,
    jacobian_rate_residual,
    run_identity_battery,
)
from .report import DriftReport, dumps_deterministic
from .theorems import (
    LabelLoop,
    LabelRegion,
    beltrami_residual,
    _circulation_sweep,
    _ertel_sweep,
    _helicity_sweep,
    dalembert_euler_residual,
)
from .variational import (
    DEFAULT_EPS_LADDER,
    RelabelGenerator,
    SpaceTimeQuadrature,
    VariationTriple,
    action_ladder,
    bump_potential,
    el_part,
    fit_loglog_slope,
    mass_reference,
    momentum_residual,
    noether_boundary_term,
    relabeling_invariance_scan,
    rund_trautman_check,
    sine_potential,
    weak_form_integral,
)

THEOREMS = ("cauchy", "circulation", "ertel", "helicity")


@dataclass
class RunConfig:
    """Validated knob set shared by the subcommands."""

    fixture: str | None = None
    params: dict = dataclass_field(default_factory=dict)
    grid: tuple[int, int, int] = (9, 9, 9)
    t0: float | None = None
    t1: float | None = None
    nt: int = 9
    fd_order: int = 4
    tol: float | None = None
    out: str | None = None
    format: str = "json"
    seed: int = 1
    dt: tuple[float, ...] = ()
    trials: int = 100
    # the fields whose flag was given; flags with a parser default (--format, --seed,
    # --trials) never count, and a RunConfig made in code has none
    given: frozenset[str] = frozenset()

    def validate(self):
        if any(n < 2 for n in self.grid):
            raise VortlabError(f"grid resolution must be >= 2 per axis, got {self.grid}")
        for flag, value in (("--t0", self.t0), ("--t1", self.t1), ("--tol", self.tol),
                            *(("--dt", dt) for dt in self.dt)):
            if value is not None and not math.isfinite(value):
                raise VortlabError(f"{flag} must be a finite number, got {value}")
        if self.tol is not None and self.tol <= 0:
            raise VortlabError("tolerance must be positive")
        if self.fd_order not in (2, 4):
            raise VortlabError("--fd-order must be 2 or 4")
        if self.nt < 2:
            raise VortlabError("--nt must be >= 2")
        if self.trials < 0:
            raise VortlabError(f"--trials must be >= 0, got {self.trials}")
        if self.t0 is not None and self.t1 is not None and self.t1 <= self.t0:
            raise VortlabError(f"time window needs t1 > t0, got [{self.t0}, {self.t1}]")
        if self.dt and self.fixture not in ADVECTED:
            raise VortlabError(f"--dt applies to the advected fixtures ({', '.join(ADVECTED)}), "
                               f"not {self.fixture!r}")


def _parse_params(pairs) -> dict:
    """KEY=VALUE pairs; a comma-separated list of numbers becomes a tuple."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise VortlabError(f"fixture parameter {pair!r} is not key=value")
        key, val = pair.split("=", 1)
        parts = [_number(v) for v in val.split(",")]
        if any(isinstance(v, float) and not math.isfinite(v) for v in parts):
            raise VortlabError(f"fixture parameter {pair!r} is not finite")
        numbers = len(parts) > 1 and not any(isinstance(v, str) for v in parts)
        out[key] = tuple(parts) if numbers else _number(val)
    return out


def _number(text: str):
    """``text`` as an int, else a float, else unchanged."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _read_config_file(path: str) -> list[str]:
    """key=value lines become --key value argument pairs."""
    args = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise VortlabError(f"config line {line!r} is not key=value")
            key, val = line.split("=", 1)
            args.extend([f"--{key.strip()}", val.strip()])
    return args


@contextlib.contextmanager
def _usage_error(prefix: str, kinds=(TypeError, ValueError, OverflowError)):
    """Re-raise an exception of ``kinds`` in the block as a usage error (exit 2); the default
    kinds are a bad --param name or value, or a window a fixture's steps cannot cover."""
    try:
        yield
    except kinds as exc:
        raise VortlabError(f"{prefix}: {exc}") from exc


def _build_fixture(cfg: RunConfig, samples: bool = False) -> tuple[Fixture, tuple[float, float]]:
    """The fixture and its time window: each end is the flag's value if one is given, else the
    field's.  --t0, --t1 and --dt reach the maker as its params, so each has one route;
    --fd-order exits 2 but on an advected fixture or when the command ``samples`` one."""
    params = dict(cfg.params)
    if "order" in params:
        raise VortlabError("--param order: the stencil order is set by --fd-order")
    if len(cfg.dt) > 1:
        raise VortlabError("--dt takes one step outside drift's step-pair probe, got "
                           f"{','.join(map(str, cfg.dt))}")
    for key, flag in (("t0", cfg.t0), ("t1", cfg.t1), ("dt", cfg.dt[0] if cfg.dt else None)):
        if flag is not None:
            if key in params:
                raise VortlabError(f"--{key} and --param {key} set the same value; give one")
            params[key] = flag
    t0, t1 = params.get("t0"), params.get("t1")
    if isinstance(t0, (int, float)) and isinstance(t1, (int, float)):  # else the maker says why
        if not math.isfinite(float(t1) - float(t0)):  # before an advected build steps through it
            raise VortlabError(f"time window [{float(t0)}, {float(t1)}] is too wide for float "
                               "arithmetic: t1 - t0 overflows")
    if cfg.fixture in ADVECTED:
        params["order"] = cfg.fd_order
    with _usage_error(f"fixture {cfg.fixture!r}"):
        fixture = make_fixture(cfg.fixture, **params)
    if "fd_order" in cfg.given and cfg.fixture not in ADVECTED and not samples:
        raise VortlabError(f"--fd-order sets the stencils of the advected fixtures and of "
                           f"export; {cfg.fixture!r} has none, so the flag would change nothing")
    window = (float(cfg.t0 if cfg.t0 is not None else fixture.field.t0),
              float(cfg.t1 if cfg.t1 is not None else fixture.field.t1))
    return fixture, window


def _pipeline_tolerance(field):
    """Sweep of :func:`vortlab.invariants._drift_loop` returning the (pipeline error,
    default tolerance) of a fixture's field.  A sampled field's own representation error
    is measured from the data: the determinant of an advected incompressible map should
    stay 1, here on its nodes at the last stamp, read from the loop's frame there."""
    if field.backend != "sampled":
        return 0.0, 1e-8
    g = (yield field.grid.nodes(), field.t1).read("position_gradient")
    err = float(np.max(np.abs(np.linalg.det(g.reshape(-1, 3, 3)) - 1.0)))
    return err, max(1e-8, 50.0 * err)


def _drift_grid(cfg: RunConfig, field, window):
    """Label grid and times for the drift checks.

    Sampled fields stay on their own grid and on stored slices, so the
    vectorized node path applies; the last stored slice is always included.
    """
    if field.backend == "sampled":
        stride = max(1, (len(field.times) - 1) // (cfg.nt - 1))
        times = field.times[::stride]
        if times[-1] != field.times[-1]:
            times = np.append(times, field.times[-1])
        return field.grid, times
    grid = LabelGrid.cell_centers(field.box, cfg.grid)
    return grid, np.linspace(window[0], window[1], cfg.nt)


def _drift_reports(cfg: RunConfig, fixture: Fixture, window, theorems=THEOREMS, pipeline=True):
    """(pipeline error, tolerance: --tol or the pipeline's, the drift report of each of
    ``theorems``) on the grid, times, loop, region and S that ``verify`` and ``drift``
    share; the drifts and the pipeline error read their frames in one drift loop.
    Without ``pipeline`` (a caller with --tol that reports no pipeline error) the error
    is not measured and comes back None."""
    field, box = fixture.field, fixture.field.box
    sampled = field.backend == "sampled"
    grid, times = _drift_grid(cfg, field, window)
    small = grid if sampled else LabelGrid.cell_centers(box, (5, 5, 5))
    region = LabelRegion(fixture.spec.box, field.grid.shape if sampled else cfg.grid,
                         periodic=sampled and all(field.periodic))
    loop = LabelLoop.circle(box.center, 0.2 * float(min(box.extent)), max(64, 8 * cfg.grid[0]))
    S = ScalarField(value=lambda a, t: a[..., 2],
                    gradient_fn=lambda a, t: np.array([0.0, 0.0, 1.0]))
    sweeps = {  # generators: one that is not handed to the loop never runs
        "cauchy": _cauchy_sweep(field, grid, times),
        "circulation": _circulation_sweep(field, loop, times),
        "ertel": _ertel_sweep(field, fixture.material, S, small, times[::max(1, len(times) // 5)]),
        "helicity": _helicity_sweep(field, region, times[::max(1, len(times) // 4)]),
        "pipeline": _pipeline_tolerance(field),
    }
    names = [*theorems, "pipeline"] if pipeline else list(theorems)
    reports = dict(zip(names, _drift_loop(field, [sweeps[name] for name in names])))
    pipeline_err, default_tol = reports.pop("pipeline", (None, None))
    tol = cfg.tol if cfg.tol is not None else default_tol
    for rep in reports.values():
        rep.tolerance = tol
    if "helicity" in reports:  # the tolerance scales with |H(t0)|
        reports["helicity"].tolerance = max(tol, 10 * tol * abs(reports["helicity"].values[0]))
    return pipeline_err, tol, reports


def _claimable(rep: DriftReport) -> bool:
    """Whether the drift may fail a run: helicity only on a periodic cell or a tangent boundary."""
    meta = rep.metadata
    return rep.theorem != "helicity" or meta["periodic"] or meta["boundary_tangency"] <= 1e-10


def _sample_points(fixture: Fixture, window, seed: int, n: int = 20):
    """The probes of ``verify``: labels (n, 3) and a time for each (n,), drawn from ``seed``.
    On a sampled field they sit on stored nodes and slices (inner ones, if the window holds
    any) so interpolation error does not mask the residuals under test."""
    rng, field = random.Random(seed), fixture.field
    if field.backend == "sampled":
        nodes = field.grid.nodes()
        stamps = [t for t in field.times if window[0] <= t <= window[1]]
        inner = stamps[1:-1] or stamps
        pts = [(nodes[rng.randrange(len(nodes))], inner[rng.randrange(len(inner))])
               for _ in range(n)]
    else:
        pts = []
        for _ in range(n):
            a = np.array([rng.uniform(lo, hi) for lo, hi in zip(field.box.lo, field.box.hi)])
            frac = rng.uniform(0.1, 0.9)
            pts.append((a, window[0] + frac * (window[1] - window[0])))
    return np.array([a for a, _ in pts]), np.array([t for _, t in pts])


def _check(name, value, tol, asserted=True, **extra) -> dict:
    entry = {"check": name, "value": float(value), "tolerance": float(tol),
             "pass": bool(value <= tol) if asserted else True, "asserted": asserted}
    entry.update(extra)
    return entry


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    fixture, window = _build_fixture(cfg)
    field, material = fixture.field, fixture.material
    labels, times = _sample_points(fixture, window, cfg.seed)
    # one FD step for the time differences of the rate and Beltrami checks
    h_fd = field.dt if field.backend == "sampled" else 1e-3 * (window[1] - window[0])
    # rounding in that difference grows as 1/h: at a window of 1e-4 the rate check reads at
    # most 3.1e-9 on the closed-form fixtures (seeds 1-8), at 1e-5 up to 2.8e-8
    if field.backend != "sampled" and window[1] - window[0] < 1e-4:
        raise VortlabError(
            f"the window {list(window)} puts the time-difference step at h = {h_fd!r}, where "
            "rounding swamps the kinematic rate identity; use a window >= 0.0001")
    # the probes as one stack, each at its own time and at t0: two frames every check reads
    f, f0 = Frame(field, labels, times), Frame(field, labels, field.t0)
    bel = np.flatnonzero((window[0] + 2 * h_fd <= times) & (times <= window[1] - 2 * h_fd))[:10]
    if not len(bel):
        raise VortlabError(
            f"no probe time lies 2*h = {2 * h_fd:g} inside the window {list(window)}, as the "
            f"beltrami_residual stencil needs; use a window >= {4 * h_fd:g} or another --seed")
    pipeline_err, base_tol, drift = _drift_reports(cfg, fixture, window)

    def probe_check(name, residual):  # the max over the stack: that of the per-probe maxima
        return _check(name, float(np.max(np.abs(np.asarray(residual, float)))), base_tol)

    crep, hrep = drift["circulation"], drift["helicity"]
    checks = [
        probe_check("kinematic_rate_identity", jacobian_rate_residual(f, h_fd)),
        probe_check("kinematic_inverse_rate_identity",
                    inverse_jacobian_rate_residual(f, f.read("velocity_gradient"))),
        probe_check("kinematic_convective_identity", convective_gradient_residual(
            f.read("velocity"), f.read("velocity_gradient"))),
        probe_check("momentum_residual", momentum_residual(
            f, material, fixture.pressure, mass_reference(field, material, f.labels, f0))),
        _check("cauchy_drift", drift["cauchy"].max_drift, base_tol),
        _check("circulation_drift", crep.max_drift, base_tol, circulation=crep.values[0]),
        _check("ertel_drift", drift["ertel"].max_drift, base_tol),
        probe_check("dalembert_euler_residual", dalembert_euler_residual(f)),
        probe_check("beltrami_residual", beltrami_residual(f, f0, material, h_fd)[bel]),
        _check("helicity_drift", hrep.max_drift, hrep.tolerance, asserted=_claimable(hrep),
               helicity=hrep.values[0], boundary_tangency=hrep.metadata["boundary_tangency"]),
    ]

    passed = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "version": __version__,
        "fixture": fixture.spec.name,
        "parameters": fixture.spec.parameters,
        "extremal": fixture.spec.extremal,
        "window": list(window),
        "grid": list(cfg.grid),
        "nt": cfg.nt,
        "fd_order": cfg.fd_order,
        "seed": cfg.seed,
        "tolerance_override": cfg.tol,
        "pipeline_error": pipeline_err,
        "checks": checks,
        "pass": passed,
    }
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def cmd_identities(cfg: RunConfig) -> tuple[int, dict]:
    result = run_identity_battery(seed=cfg.seed, trials=cfg.trials)
    counts = result["exact_zero_counts"]
    passed = all(v == cfg.trials for v in counts.values())
    report = {
        "command": "identities",
        "version": __version__,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "redraws": result["redraws"],
        "exact_zero_counts": counts,
        "pass": passed,
    }
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


def _default_generator(box) -> RelabelGenerator:
    # compactly supported, so the relabeling never moves labels through the
    # box boundary: a genuine symmetry of the boxed functional on any fixture
    return RelabelGenerator.from_curl(bump_potential(box), label="bump")


def cmd_action(cfg: RunConfig, run_scan=True, run_weak=True, run_rt=True) -> tuple[int, dict]:
    fixture, window = _build_fixture(cfg)
    box = fixture.field.box
    quad = SpaceTimeQuadrature.midpoint(box, cfg.grid, window, cfg.nt)
    report = {
        "command": "action",
        "version": __version__,
        "fixture": fixture.spec.name,
        "parameters": fixture.spec.parameters,
        "window": list(window),
        "grid": list(cfg.grid),
        "nt": cfg.nt,
        "seed": cfg.seed,
    }
    field, material = fixture.field, fixture.material
    # the rungs, shifts and flux copies read the same stamps many times: keep their slices
    with field.holding():
        ok = True
        bump = _default_generator(box)
        if run_scan or run_rt:  # one S(0) and bump ladder for the scan, its control and the split
            var = VariationTriple.relabeling(bump)
            s0, rungs = action_ladder(field, material, var, quad, DEFAULT_EPS_LADDER)

        if run_scan:
            scan = relabeling_invariance_scan(bump, var, quad, DEFAULT_EPS_LADDER, s0, rungs)
            divergent = RelabelGenerator(
                VectorField(value=lambda a, t: np.asarray(a, float),
                            jacobian_fn=lambda a, t: np.eye(3)),
                label="divergent-control",
            )
            dvar = VariationTriple.relabeling(divergent)
            bad = relabeling_invariance_scan(
                divergent, dvar, quad, DEFAULT_EPS_LADDER,
                *action_ladder(field, material, dvar, quad, DEFAULT_EPS_LADDER, s0))
            control = bad.to_dict()
            if any(bad.deviation):
                scan_ok = scan.symmetric and not bad.symmetric
            else:  # an action that no relabeling moves leaves the control nothing to show
                control.update(asserted=False, reason="every control deviation is exactly 0")
                scan_ok = scan.symmetric
            ok = ok and scan_ok
            report["scan"] = {"generator": scan.to_dict(), "divergent_control": control,
                              "pass": scan_ok}

        if run_weak:
            gq = SpaceTimeQuadrature.gauss(box, (10, 10, 10), window, 5)
            if fixture.spec.extremal:  # both sides vanish
                gen = bump
                passes = lambda lhs, rhs: abs(lhs) < 1e-8 and abs(rhs) < 1e-8
            else:  # the two sides agree
                gen = RelabelGenerator.from_curl(sine_potential(box, exponents=(1, 0, 1)),
                                                 label="modulated-sine")
                passes = lambda lhs, rhs: (
                    abs(lhs - rhs) / (abs(lhs) + abs(rhs) + sys.float_info.epsilon) < 1e-6)
            lhs, rhs = weak_form_integral(field, material, gen, gq, fixture.pressure)
            weak_ok = passes(lhs, rhs)
            ok = ok and weak_ok
            report["weak_form"] = {"lhs": lhs, "rhs": rhs, "generator": gen.label, "pass": weak_ok}

        if run_rt:
            # the split uses the action's own (EOS-derived) pressure
            rows = rund_trautman_check(s0, rungs, DEFAULT_EPS_LADDER,
                                       el_part(field, material, var, quad),
                                       noether_boundary_term(field, material, var, quad))
            ladder = [{"eps": eps, "total": tot, "el_part": el, "bd_part": bd,
                       "mismatch": abs(tot - el - bd)}
                      for eps, (tot, el, bd) in zip(DEFAULT_EPS_LADDER, rows)]
            floor = 1e-12
            mism = [row["mismatch"] for row in ladder]
            slope = fit_loglog_slope(DEFAULT_EPS_LADDER, mism, floor=floor)
            rt_ok = slope is None or slope >= 0.9
            ok = ok and rt_ok
            report["rund_trautman"] = {"ladder": ladder, "slope": slope, "floor": floor,
                                       "pass": rt_ok}

    report["pass"] = ok
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def cmd_drift(cfg: RunConfig, theorem: str = "cauchy") -> tuple[int, dict]:
    report = {
        "command": "drift",
        "version": __version__,
        "fixture": cfg.fixture,
        "seed": cfg.seed,
    }
    if len(cfg.dt) >= 2:
        if theorem != "cauchy":
            raise VortlabError(f"--dt pairs probe the Cauchy drift, not --theorem {theorem}")
        if cfg.params:
            raise VortlabError("--dt pairs advect the fixture's default velocity and take no "
                               f"--param, got {', '.join(sorted(cfg.params))}")
        ignored = [f"--{name}" for name in ("grid", "nt", "tol") if name in cfg.given]
        if ignored:
            raise VortlabError("--dt pairs measure their own patch at six stamps against the "
                               "band [12, 20] and take no --grid, --nt or --tol, got "
                               + ", ".join(ignored))
        ratio = _dt_ratio_probe(cfg)
        # no integrator error shows above rounding: whatever the ratio, it measured rounding
        at_floor = max(ratio["drift"]) < 1e-10
        if at_floor:
            print(f"vortlab: both Cauchy drifts {tuple(ratio['drift'])} lie below 1e-10, at the "
                  "rounding floor: the pair measured rounding, not the integrator's order",
                  file=sys.stderr)
        report.update(ratio)
        passed = not at_floor and 12.0 <= ratio["drift_ratio"] <= 20.0
        report["pass"] = passed
        return (0 if passed else 1), report

    fixture, window = _build_fixture(cfg)
    rep = _drift_reports(cfg, fixture, window, (theorem,), cfg.tol is None)[2][theorem]
    passed = bool(rep.passed) or not _claimable(rep)
    report.update({"parameters": fixture.spec.parameters, theorem: rep.to_dict(), "pass": passed})
    return (0 if passed else 1), report


def _dt_ratio_probe(cfg: RunConfig) -> dict:
    """Cauchy-drift ratio between a step and its half on a fine interior patch.

    The pass band [12, 20] is 2^4 +- 25% for exactly that pair, so any other
    ``--dt`` list is a usage error.  The patch spacing is 0.4 of the finer
    step: with 4th-order stencils in space and time both errors scale as the
    4th power, so the spatial floor stays a fixed fraction of the integrator
    drift; the probe therefore needs ``--fd-order 4``.  Below a spacing of
    1e-3 the FD differentiation meets its rounding floor, and the probe
    refuses.  The drift is measured on the inner grid, away from the patch
    edges (one-sided stencils there carry a step-independent floor), and
    only that grid plus the 2-node halo its central stencils read is
    advected.
    """
    from .fields import Box

    if len(cfg.dt) != 2 or not math.isclose(cfg.dt[1], cfg.dt[0] / 2, rel_tol=1e-12):
        raise VortlabError("--dt pairs need exactly two steps A,B with B = A/2 (the pass band "
                           f"[12, 20] is 2^4 +- 25%), got {','.join(map(str, cfg.dt))}")
    if cfg.fd_order != 4:
        raise VortlabError("--dt pairs need --fd-order 4: the probe's spacing rule "
                           "assumes 4th-order spatial stencils")
    h, n, margin = cfg.dt[1] / 2.5, 17, 4
    if h < 1e-3:
        raise VortlabError(
            f"--dt {cfg.dt[1]} needs probe spacing {h:.3g} < 0.001, below which "
            "finite-difference rounding swamps the integrator drift; use steps >= 0.0025"
        )
    u = ADVECTED[cfg.fixture]()
    center = np.array([1.3, 2.1, 0.7])
    half = h * (n - 1) / 2
    box = Box(tuple(center - half), tuple(center + half))
    full = LabelGrid.nodes_inclusive(box, (n, n, n))
    skip = margin - cfg.fd_order // 2  # patch-edge nodes no inner stencil reads
    grid = LabelGrid(tuple(ax[skip:n - skip] for ax in full.axes), full.spacings)
    inner = Box(tuple(center - (half - margin * h)), tuple(center + (half - margin * h)))
    igrid = LabelGrid.nodes_inclusive(inner, (n - 2 * margin,) * 3)
    if cfg.t0 not in (None, 0.0):
        raise VortlabError(f"--dt pairs advect from t0 = 0, got --t0 {cfg.t0}")
    t1 = cfg.t1 if cfg.t1 is not None else 1.0
    times = np.linspace(0.0, t1, 6)

    def drift_at(dt):  # one advected patch alive at a time
        with _usage_error(f"fixture {cfg.fixture!r}"):
            # when the six read times are steps, store only those stamps; else an off-ladder
            # read interpolates between neighbouring steps, so every step is stored
            steps = round(t1 / dt)
            every = steps // 5 if steps > 0 and steps % 5 == 0 else 1
            field = integrate_trajectories(u, grid, 0.0, t1, dt, order=cfg.fd_order, every=every)
        return cauchy_drift(field, igrid, times).max_drift

    drift = [drift_at(dt) for dt in cfg.dt]
    return {
        "dt": list(cfg.dt),
        "drift": drift,
        "drift_ratio": drift[0] / drift[1],
        "patch": {"center": list(center), "spacing": h, "nodes": n, "margin": margin},
        # the advected velocity's own defaults, and the stencil order of both drifts
        "parameters": {name: p.default for name, p
                       in inspect.signature(ADVECTED[cfg.fixture]).parameters.items()},
        "fd_order": cfg.fd_order,
    }


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.out:
        raise VortlabError("export needs --out FILE (.npz or .csv)")
    fixture, window = _build_fixture(cfg, samples=True)
    if fixture.field.backend == "sampled":  # saved on the grid and stamps it was advected on
        for name, own in (("grid", "label grid, which --param shape sets"),
                          ("nt", "integrator stamps, which --dt and --t1 set")):
            if name in cfg.given:
                raise VortlabError(f"--{name}: export saves {cfg.fixture} on its own {own}")
        field = fixture.field
    else:
        for j, n in enumerate(cfg.grid, start=1):  # before the whole field is sampled
            _fit_stencil(n, cfg.fd_order, f"--grid axis{j}")
        grid = LabelGrid.nodes_inclusive(fixture.field.box, cfg.grid)
        times = np.linspace(window[0], window[1], cfg.nt)
        # far from 0 a fine ladder's stamps are not where a read locates them
        with _usage_error(f"--nt {cfg.nt} stamps over [{window[0]}, {window[1]}]", ValueError):
            field = SampledTrajectoryField.from_analytic(
                fixture.field, grid, times, order=cfg.fd_order
            )
    with _usage_error("--out", OSError):
        save_grid(field, cfg.out)
    report = {
        "command": "export",
        "version": __version__,
        "fixture": fixture.spec.name,
        "parameters": fixture.spec.parameters,
        "out": cfg.out,
        "shape": list(field.grid.shape),
        "times": len(field.times),
        "pass": True,
    }
    return 0, report


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _emit(report: dict, cfg: RunConfig):
    if cfg.format == "csv":
        text = _report_csv(report)
    else:
        text = dumps_deterministic(report) + "\n"
    if cfg.out and report.get("command") != "export":
        with _usage_error("--out", OSError), open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_csv(report: dict) -> str:
    """Flat key,value rows; check rows expanded one per line."""
    buf = io.StringIO()
    buf.write("key,value\n")

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else k, obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            buf.write(f"{prefix},{obj!r}\n")

    walk("", report)
    return buf.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one per process: parsing leaves it as it was (--param appends to a fresh list)
    parser = argparse.ArgumentParser(
        prog="vortlab",
        description="Label-space flow kinematics and conservation-law verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):  # every command
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        p.add_argument("--config", default=None, help="plain key=value file of extra flags")

    def fixture(p):  # the commands that build a fixture
        p.add_argument("--fixture", required=True, help="catalog fixture name")
        p.add_argument("--param", dest="params", action="append", metavar="KEY=VALUE",
                       help="fixture parameter override (repeatable)")
        p.add_argument("--grid", default=None, help="label grid resolution N1,N2,N3 (9,9,9)")
        p.add_argument("--t0", type=float, default=None)
        p.add_argument("--t1", type=float, default=None)
        p.add_argument("--nt", type=int, default=None, help="number of time samples (9)")
        p.add_argument("--fd-order", type=int, default=None, choices=(2, 4),
                       help="stencil order (4)")
        p.add_argument("--dt", default=None, help="integrator step(s), e.g. 0.01 or 0.01,0.005")

    def seed(p):
        p.add_argument("--seed", type=int, default=1)

    def tolerance(p):  # only the commands whose checks read it
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    def command(name, about, *groups):  # only the flags the command reads: any other exits 2
        p = sub.add_parser(name, help=about)
        for group in (output, *groups):
            group(p)
        p.set_defaults(command_parser=p)  # a flag it does not take is named under its usage
        return p

    command("verify", "run the full invariant suite on a fixture", fixture, seed, tolerance)
    command("identities", "exact-arithmetic identity battery", seed).add_argument(
        "--trials", type=int, default=100)
    p_act = command("action", "relabeling/variational checks", fixture, seed)
    p_act.add_argument("--scan", action="store_true", help="only the invariance scan")
    p_act.add_argument("--weak-form", action="store_true", help="only the weak-form pairing")
    p_act.add_argument("--rund-trautman", action="store_true", help="only the variational split")
    command("drift", "drift reports", fixture, seed, tolerance).add_argument(
        "--theorem", default="cauchy", choices=THEOREMS,
        help="the drift to report, as verify measures it")
    command("export", "export a fixture in the sampled-grid format", fixture)
    return parser


def _config_from_args(args) -> RunConfig:
    """The RunConfig of the flags the command registered and that hold a value; its defaults
    stand for the rest."""
    names = {f.name for f in fields(RunConfig)}
    values = {name: value for name, value in vars(args).items()
              if name in names and value is not None}
    cfg = RunConfig(**values, given=frozenset(
        name for name in values if args.command_parser.get_default(name) is None))
    if "grid" in values:
        try:
            cfg.grid = tuple(int(v) for v in str(args.grid).split(","))
        except ValueError:
            cfg.grid = ()  # named by the length check
        if len(cfg.grid) not in (1, 3):
            raise VortlabError(f"--grid wants 1 or 3 integers, got {args.grid!r}")
        cfg.grid *= 3 // len(cfg.grid)  # one integer stands for all three axes
    if "fixture" in values:  # the fixture group's step list and params
        try:
            cfg.dt = tuple(float(v) for v in str(args.dt).split(",")) if args.dt else ()
        except ValueError:
            raise VortlabError(f"--dt wants numbers separated by commas, got {args.dt!r}") from None
        cfg.params = _parse_params(args.params)
    return cfg


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # splice --config file contents ahead of explicit flags
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            if idx + 1 == len(argv):
                raise VortlabError("--config needs a file path")
            extra = _read_config_file(argv[idx + 1])
        except (OSError, UnicodeDecodeError, VortlabError) as exc:
            print(f"vortlab: config error: {exc}", file=sys.stderr)
            return 2
        argv = argv[:idx] + extra + argv[idx + 2:]
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config is not None:  # a second --config, or one read from the config file
            raise VortlabError("config error: only one --config is read, and not from a "
                               f"config file; got --config {args.config}")
        cfg = _config_from_args(args)
        cfg.validate()
        # an overflow, a division by zero or an invalid value (inf - inf, 0 * inf) raises at
        # the operation; leaving the block restores the caller's error state
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "action":
                chosen = (args.scan, args.weak_form, args.rund_trautman)  # none chosen: all three
                code, report = cmd_action(cfg, *(chosen if any(chosen) else (True,) * 3))
            elif args.command == "drift":
                code, report = cmd_drift(cfg, args.theorem)
            else:
                code, report = {"verify": cmd_verify, "identities": cmd_identities,
                                "export": cmd_export}[args.command](cfg)
        _emit(report, cfg)
        return code
    except (FloatingPointError, OverflowError) as exc:
        given = [f"--{key}" for key in ("t0", "t1", "dt", "tol")
                 if getattr(cfg, key) not in (None, ())]
        culprit = "a --param value" if cfg.params else " or ".join(given) or "a numeric flag"
        print(f"vortlab: fixture {cfg.fixture!r}: {culprit} is out of range for float "
              f"arithmetic ({exc})", file=sys.stderr)
        return 2
    except VortlabError as exc:
        print(f"vortlab: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # no flag caps a run's size, so this is the last resort
        detail = f" ({exc})" if str(exc) else ""
        print(f"vortlab: the run outgrew memory{detail}; --param shape, --grid, --nt, --dt "
              "and --t1 size it", file=sys.stderr)
        return 2
    except Exception:  # a fault of vortlab itself, not of the run's flags or tolerances
        traceback.print_exc()
        print("vortlab: internal error", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
