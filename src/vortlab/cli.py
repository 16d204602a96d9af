"""Command-line driver for the verification suites.

Subcommands::

    vortlab verify     --fixture NAME ...   full invariant suite, exit 0/1
    vortlab identities --trials N --seed S  exact-arithmetic identity battery
    vortlab action     --fixture NAME ...   relabeling scan / weak form / variational split
    vortlab drift      --fixture NAME ...   Cauchy drift report, or the --dt convergence probe
    vortlab export     --fixture NAME --out FILE   sampled-grid export (.npz or .csv)

Exit codes: 0 all checks passed, 1 a tolerance failed, 2 usage/config error.
Reports are deterministic: identical configs (including --seed) produce
byte-identical output, and no timestamps or machine identifiers are embedded.
"""

from __future__ import annotations

import argparse
import io
import math
import random
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import __version__
from .errors import VortlabError
from .fields import LabelGrid, SampledTrajectoryField, ScalarField, VectorField, save_grid
from .flows import Fixture, integrate_trajectories, make_fixture
from .invariants import cauchy_drift
from .kinematics import (
    convective_gradient_residual,
    inverse_jacobian_rate_residual,
    jacobian_rate_residual,
    run_identity_battery,
)
from .report import dumps_deterministic
from .theorems import (
    LabelLoop,
    LabelRegion,
    beltrami_residual,
    circulation_drift,
    dalembert_euler_residual,
    ertel_drift,
    helicity_drift,
)
from .variational import (
    DEFAULT_EPS_LADDER,
    RelabelGenerator,
    SpaceTimeQuadrature,
    VariationTriple,
    bump_potential,
    fit_loglog_slope,
    momentum_residual,
    relabeling_invariance_scan,
    rund_trautman_check,
    sine_potential,
    weak_form_integral,
)

_SAMPLED = ("abc", "taylor-green")


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

    def validate(self):
        if any(n < 2 for n in self.grid):
            raise VortlabError(f"grid resolution must be >= 2 per axis, got {self.grid}")
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


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise VortlabError(f"fixture parameter {pair!r} is not key=value")
        key, val = pair.split("=", 1)
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


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


def _build_fixture(cfg: RunConfig) -> Fixture:
    params = dict(cfg.params)
    if cfg.fixture in _SAMPLED:
        if cfg.dt:
            params.setdefault("dt", cfg.dt[0])
        params.setdefault("order", cfg.fd_order)
    if cfg.t1 is not None:
        params.setdefault("t1", cfg.t1)
    if cfg.t0 is not None:
        params.setdefault("t0", cfg.t0)
    try:
        return make_fixture(cfg.fixture, **params)
    except (TypeError, ValueError) as exc:
        # a bad --param name or value, or a window the fixture cannot cover
        raise VortlabError(f"fixture {cfg.fixture!r}: {exc}") from exc


def _window(cfg: RunConfig, fixture: Fixture) -> tuple[float, float]:
    t0 = cfg.t0 if cfg.t0 is not None else fixture.field.t0
    t1 = cfg.t1 if cfg.t1 is not None else fixture.field.t1
    return float(t0), float(t1)


def _pipeline_tolerance(field) -> tuple[float, float]:
    """(pipeline error, default tolerance) for a fixture's field.

    For sampled fields the pipeline's own representation error is measured
    from the data: the determinant of an advected incompressible map should
    stay 1.
    """
    if field.backend != "sampled":
        return 0.0, 1e-8
    g = field.node_gradients("position", len(field.times) - 1)
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


def _sample_points(fixture: Fixture, window, seed: int, n: int = 20):
    rng = random.Random(seed)
    box = fixture.field.box
    pts = []
    for _ in range(n):
        a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
        frac = rng.uniform(0.1, 0.9)
        t = window[0] + frac * (window[1] - window[0])
        pts.append((a, t))
    return pts


def _check(name, value, tol, asserted=True, **extra) -> dict:
    entry = {"check": name, "value": float(value), "tolerance": float(tol),
             "pass": bool(value <= tol) if asserted else True, "asserted": asserted}
    entry.update(extra)
    return entry


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    fixture = _build_fixture(cfg)
    window = _window(cfg, fixture)
    sampled = fixture.field.backend == "sampled"
    pipeline_err, default_tol = _pipeline_tolerance(fixture.field)
    base_tol = cfg.tol if cfg.tol is not None else default_tol
    pts = _sample_points(fixture, window, cfg.seed)
    if sampled:
        # keep probes on stored nodes and slices so interpolation error does
        # not mask the residuals under test
        rng = random.Random(cfg.seed)
        nodes = fixture.field.grid.nodes()
        stamps = [t for t in fixture.field.times if window[0] <= t <= window[1]]
        inner = stamps[1:-1] or stamps
        pts = [(nodes[rng.randrange(len(nodes))], inner[rng.randrange(len(inner))])
               for _ in range(len(pts))]
    checks = []

    def maxnorm(fn):
        return max(float(np.max(np.abs(np.asarray(fn(a, t), float)))) for a, t in pts)

    # one FD step for the time differences of the rate and Beltrami checks
    h_fd = fixture.field.dt if sampled else 1e-3 * (window[1] - window[0])
    checks.append(_check(
        "kinematic_rate_identity",
        maxnorm(lambda a, t: jacobian_rate_residual(fixture.field, a, t, h=h_fd)),
        base_tol,
    ))
    checks.append(_check(
        "kinematic_inverse_rate_identity",
        maxnorm(lambda a, t: inverse_jacobian_rate_residual(fixture.field, a, t)),
        base_tol,
    ))
    checks.append(_check(
        "kinematic_convective_identity",
        maxnorm(lambda a, t: convective_gradient_residual(fixture.field, a, t)),
        base_tol,
    ))
    checks.append(_check(
        "momentum_residual",
        maxnorm(lambda a, t: momentum_residual(fixture.field, fixture.material, fixture.pressure, a, t)),
        base_tol,
    ))
    grid, times = _drift_grid(cfg, fixture.field, window)
    rep = cauchy_drift(fixture.field, grid, times)
    checks.append(_check("cauchy_drift", rep.max_drift, base_tol))

    box = fixture.field.box
    center = box.center
    radius = 0.2 * float(min(box.extent))
    loop = LabelLoop.circle(center, radius, nodes=max(64, 8 * cfg.grid[0]))
    crep = circulation_drift(fixture.field, loop, times)
    checks.append(_check("circulation_drift", crep.max_drift, base_tol,
                         circulation=crep.values[0]))

    S = ScalarField(
        value=lambda a, t: a[..., 2], gradient_fn=lambda a, t: np.array([0.0, 0.0, 1.0])
    )
    small = LabelGrid.cell_centers(box, (5, 5, 5)) if not sampled else grid
    erep = ertel_drift(fixture.field, fixture.material, S, small, times[:: max(1, len(times) // 5)])
    checks.append(_check("ertel_drift", erep.max_drift, base_tol))

    checks.append(_check(
        "dalembert_euler_residual",
        maxnorm(lambda a, t: dalembert_euler_residual(fixture.field, a, t)),
        base_tol,
    ))
    bel_pts = [(a, t) for a, t in pts
               if window[0] + 2 * h_fd <= t <= window[1] - 2 * h_fd][:10]
    checks.append(_check(
        "beltrami_residual",
        max(float(np.max(np.abs(beltrami_residual(fixture.field, fixture.material, a, t, dt_fd=h_fd))))
            for a, t in bel_pts),
        base_tol,
    ))

    periodic = sampled and all(fixture.field.periodic)
    region = LabelRegion(fixture.spec.box, cfg.grid if not sampled else fixture.field.grid.shape,
                         periodic=periodic)
    hrep = helicity_drift(fixture.field, region, times[:: max(1, len(times) // 4)])
    tang = hrep.metadata["boundary_tangency"]
    checks.append(_check(
        "helicity_drift", hrep.max_drift,
        max(base_tol, 10 * base_tol * abs(hrep.values[0])),
        asserted=periodic or tang <= 1e-10,
        helicity=hrep.values[0], boundary_tangency=tang,
    ))

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
    fixture = _build_fixture(cfg)
    window = _window(cfg, fixture)
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
    ok = True
    bump = _default_generator(box)

    if run_scan:
        scan = relabeling_invariance_scan(fixture.field, fixture.material, bump, quad,
                                          eps_list=DEFAULT_EPS_LADDER)
        divergent = RelabelGenerator(
            VectorField(value=lambda a, t: np.asarray(a, float),
                        jacobian_fn=lambda a, t: np.eye(3)),
            label="divergent-control",
        )
        bad = relabeling_invariance_scan(fixture.field, fixture.material, divergent, quad,
                                         eps_list=DEFAULT_EPS_LADDER)
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
        lhs, rhs = weak_form_integral(fixture.field, fixture.material, gen, gq, fixture.pressure)
        weak_ok = passes(lhs, rhs)
        ok = ok and weak_ok
        report["weak_form"] = {"lhs": lhs, "rhs": rhs, "generator": gen.label, "pass": weak_ok}

    if run_rt:
        # the split uses the action's own (EOS-derived) pressure
        rows = rund_trautman_check(fixture.field, fixture.material,
                                   VariationTriple.relabeling(bump), quad, eps=DEFAULT_EPS_LADDER)
        ladder = [{"eps": eps, "total": tot, "el_part": el, "bd_part": bd,
                   "mismatch": abs(tot - el - bd)}
                  for eps, (tot, el, bd) in zip(DEFAULT_EPS_LADDER, rows)]
        floor = 1e-12
        mism = [row["mismatch"] for row in ladder]
        slope = fit_loglog_slope(DEFAULT_EPS_LADDER, mism, floor=floor)
        rt_ok = slope is None or slope >= 0.9
        ok = ok and rt_ok
        report["rund_trautman"] = {"ladder": ladder, "slope": slope, "floor": floor, "pass": rt_ok}

    report["pass"] = ok
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def cmd_drift(cfg: RunConfig) -> tuple[int, dict]:
    report = {
        "command": "drift",
        "version": __version__,
        "fixture": cfg.fixture,
        "seed": cfg.seed,
    }
    if len(cfg.dt) >= 2:
        if cfg.fixture not in _SAMPLED:
            raise VortlabError("--dt pairs apply to the advected fixtures (abc, taylor-green)")
        ratio = _dt_ratio_probe(cfg)
        report.update(ratio)
        passed = 12.0 <= ratio["drift_ratio"] <= 20.0
        report["pass"] = passed
        return (0 if passed else 1), report

    fixture = _build_fixture(cfg)
    grid, times = _drift_grid(cfg, fixture.field, _window(cfg, fixture))
    tol = cfg.tol if cfg.tol is not None else _pipeline_tolerance(fixture.field)[1]
    rep = cauchy_drift(fixture.field, grid, times, tolerance=tol)
    report["parameters"] = fixture.spec.parameters
    report["cauchy"] = rep.to_dict()
    report["pass"] = bool(rep.passed)
    return (0 if rep.passed else 1), report


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
    from .flows import abc_velocity, taylor_green_velocity

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
    u = abc_velocity() if cfg.fixture == "abc" else taylor_green_velocity()
    center = np.array([1.3, 2.1, 0.7])
    half = h * (n - 1) / 2
    box = Box(tuple(center - half), tuple(center + half))
    full = LabelGrid.nodes_inclusive(box, (n, n, n))
    skip = margin - cfg.fd_order // 2  # patch-edge nodes no inner stencil reads
    grid = LabelGrid(tuple(ax[skip:n - skip] for ax in full.axes), full.spacings)
    inner = Box(tuple(center - (half - margin * h)), tuple(center + (half - margin * h)))
    igrid = LabelGrid.nodes_inclusive(inner, (n - 2 * margin,) * 3)
    t1 = cfg.t1 if cfg.t1 is not None else 1.0
    times = np.linspace(0.0, t1, 6)
    drift = [
        cauchy_drift(integrate_trajectories(u, grid, 0.0, t1, dt, order=cfg.fd_order),
                     igrid, times).max_drift
        for dt in cfg.dt
    ]
    return {
        "dt": list(cfg.dt),
        "drift": drift,
        "drift_ratio": drift[0] / drift[1],
        "patch": {"center": list(center), "spacing": h, "nodes": n, "margin": margin},
    }


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.out:
        raise VortlabError("export needs --out FILE (.npz or .csv)")
    fixture = _build_fixture(cfg)
    window = _window(cfg, fixture)
    if fixture.field.backend == "sampled":
        field = fixture.field
    else:
        grid = LabelGrid.nodes_inclusive(fixture.field.box, cfg.grid)
        times = np.linspace(window[0], window[1], cfg.nt)
        field = SampledTrajectoryField.from_analytic(
            fixture.field, grid, times, order=cfg.fd_order
        )
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
        with open(cfg.out, "w") as fh:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortlab",
        description="Label-space flow kinematics and conservation-law verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fixture_required=True):
        p.add_argument("--fixture", required=fixture_required, help="catalog fixture name")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="fixture parameter override (repeatable)")
        p.add_argument("--grid", default="9,9,9", help="label grid resolution N1,N2,N3")
        p.add_argument("--t0", type=float, default=None)
        p.add_argument("--t1", type=float, default=None)
        p.add_argument("--nt", type=int, default=9, help="number of time samples")
        p.add_argument("--fd-order", type=int, default=4, choices=(2, 4))
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--dt", default=None, help="integrator step(s), e.g. 0.01 or 0.01,0.005")
        p.add_argument("--config", default=None, help="plain key=value file of extra flags")

    p_verify = sub.add_parser("verify", help="run the full invariant suite on a fixture")
    common(p_verify)
    p_id = sub.add_parser("identities", help="exact-arithmetic identity battery")
    common(p_id, fixture_required=False)
    p_id.add_argument("--trials", type=int, default=100)
    p_act = sub.add_parser("action", help="relabeling/variational checks")
    common(p_act)
    p_act.add_argument("--scan", action="store_true", help="only the invariance scan")
    p_act.add_argument("--weak-form", action="store_true", help="only the weak-form pairing")
    p_act.add_argument("--rund-trautman", action="store_true", help="only the variational split")
    p_drift = sub.add_parser("drift", help="drift reports")
    common(p_drift)
    p_exp = sub.add_parser("export", help="export a fixture in the sampled-grid format")
    common(p_exp)
    return parser


def _config_from_args(args) -> RunConfig:
    try:
        grid = tuple(int(v) for v in str(args.grid).split(","))
    except ValueError:
        raise VortlabError(f"--grid wants 1 or 3 integers, got {args.grid!r}") from None
    if len(grid) == 1:
        grid = grid * 3
    if len(grid) != 3:
        raise VortlabError(f"--grid wants 1 or 3 integers, got {args.grid!r}")
    try:
        dt = tuple(float(v) for v in str(args.dt).split(",")) if args.dt else ()
    except ValueError:
        raise VortlabError(f"--dt wants numbers separated by commas, got {args.dt!r}") from None
    return RunConfig(
        fixture=getattr(args, "fixture", None),
        params=_parse_params(getattr(args, "param", None)),
        grid=grid,
        t0=args.t0,
        t1=args.t1,
        nt=args.nt,
        fd_order=args.fd_order,
        tol=args.tol,
        out=args.out,
        format=args.format,
        seed=args.seed,
        dt=dt,
        trials=getattr(args, "trials", 100),
    )


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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        if args.command == "verify":
            code, report = cmd_verify(cfg)
        elif args.command == "identities":
            code, report = cmd_identities(cfg)
        elif args.command == "action":
            chosen = [args.scan, getattr(args, "weak_form"), getattr(args, "rund_trautman")]
            if any(chosen):
                code, report = cmd_action(cfg, run_scan=args.scan,
                                          run_weak=args.weak_form, run_rt=args.rund_trautman)
            else:
                code, report = cmd_action(cfg)
        elif args.command == "drift":
            code, report = cmd_drift(cfg)
        elif args.command == "export":
            code, report = cmd_export(cfg)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        _emit(report, cfg)
        return code
    except VortlabError as exc:
        print(f"vortlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
