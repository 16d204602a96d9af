"""The three workloads: their set-up, their operations and what each op must report.

Each workload is a set-up function (fixture, grid and quadrature
construction, timed as ``setup_s``) and a list of operations built from the
workload seed.  The seed feeds ``--seed`` of ``verify`` and ``identities``;
it is folded onto ``VARIANTS`` program seeds so that every input the
benchmark can generate has recorded reference values.
"""

from __future__ import annotations

import numpy as np

from harness import WORK, Op, cli_op

VARIANTS = 8
CONTROLS = ("dilation", "non-euler")  # documented to exit 1 under verify and drift
ACTION_FIXTURES = ("rigid-rotation", "dilation")
ACTION_GRID, ACTION_NT = 4, 3
TOUR_GRID, TOUR_TIMES = (17, 17, 17), 20
EXPORT_GRID, EXPORT_NT = 9, 9
OFFNODE_GRID = (8, 8, 8)
DT_PAIR = "0.01,0.005"


def program_seed(seed: int) -> int:
    return 1 + seed % VARIANTS


def _n(shape) -> int:
    return int(np.prod(shape))


# ---------------------------------------------------------------------------
# verify-catalog: `vortlab verify --fixture F` for every fixture, CLI defaults
# ---------------------------------------------------------------------------


def setup_verify(vl):
    fixtures = {name: vl.flows.make_fixture(name) for name in vl.flows.fixture_names()}
    grids = {name: vl.LabelGrid.cell_centers(fx.field.box, (9, 9, 9))
             for name, fx in fixtures.items()}
    return {"fixtures": fixtures, "grids": grids}


def ops_verify(vl, ctx, seed):
    s = program_seed(seed)
    ops = []
    for name, fx in ctx["fixtures"].items():
        # configured points: the cauchy sweep over the label grid (the
        # fixture's own grid for advected fixtures) times --nt 9
        nodes = _n(fx.spec.parameters["shape"]) if "shape" in fx.spec.parameters else 9 ** 3
        ops.append(Op(
            name=f"verify:{name}",
            run=cli_op(vl, ["verify", "--fixture", name, "--seed", str(s)]),
            expect=1 if name in CONTROLS else 0,
            points=nodes * 9,
            ref=f"verify:{name}@{s}",
        ))
    return ops


# ---------------------------------------------------------------------------
# action-variational: `vortlab action --fixture F --grid 4 --nt 3`
# ---------------------------------------------------------------------------


def setup_action(vl):
    out = {}
    for name in ACTION_FIXTURES:
        fx = vl.flows.make_fixture(name)
        box, window = fx.field.box, (fx.field.t0, fx.field.t1)
        out[name] = (
            fx,
            vl.SpaceTimeQuadrature.midpoint(box, (ACTION_GRID,) * 3, window, ACTION_NT),
            vl.SpaceTimeQuadrature.gauss(box, (10, 10, 10), window, 5),
        )
    return out


def ops_action(vl, ctx, seed):
    return [
        Op(
            name=f"action:{name}",
            run=cli_op(vl, ["action", "--fixture", name, "--grid", str(ACTION_GRID),
                            "--nt", str(ACTION_NT)]),
            expect=0,
            points=len(quad.space_nodes) * len(quad.time_nodes),
            ref=f"action:{name}",
        )
        for name, (_, quad, _) in ctx.items()
    ]


# ---------------------------------------------------------------------------
# label-sweep: pointwise sweeps, exact arithmetic, grid I/O, the integrator
# ---------------------------------------------------------------------------


def setup_label(vl):
    out = {}
    for name in ("gerstner", "rigid-rotation"):
        fx = vl.flows.make_fixture(name)
        out[name] = (
            fx,
            vl.LabelGrid.cell_centers(fx.field.box, TOUR_GRID),
            np.linspace(fx.field.t0, fx.field.t1, TOUR_TIMES),
        )
    box = out["gerstner"][0].field.box
    out["offnode"] = vl.LabelGrid.cell_centers(box, OFFNODE_GRID)
    return out


def _tour(vl, fx, grid, times, probe):
    def run():
        report = {"drift": vl.cauchy_drift(fx.field, grid, times).to_dict()}
        if probe is not None:
            report["omega"] = vl.lagrangian_vorticity(fx.field, np.array(probe), 0.3).tolist()
        return 0, report

    return run


def _offnode(vl, path, grid):
    def run():
        field = vl.load_grid(str(path))
        return 0, {"drift": vl.cauchy_drift(field, grid, field.times).to_dict()}

    return run


def _ratio_in_band(report) -> bool:
    ratio = report.get("drift_ratio")
    return ratio is not None and 12.0 <= ratio <= 20.0


def ops_label(vl, ctx, seed):
    s = program_seed(seed)
    WORK.mkdir(exist_ok=True)
    tour_points = _n(TOUR_GRID) * TOUR_TIMES
    ops = [
        # the README quick tour, and the same sweep on rigid rotation
        Op("tour:gerstner", _tour(vl, *ctx["gerstner"], probe=(2.0, 0.5, -1.0)), 0,
           tour_points, "tour:gerstner"),
        Op("tour:rigid-rotation", _tour(vl, *ctx["rigid-rotation"], probe=None), 0,
           tour_points, "tour:rigid-rotation"),
        Op("drift:non-euler", cli_op(vl, ["drift", "--fixture", "non-euler"]), 1,
           9 ** 3 * 9, "drift:non-euler"),
        Op("identities", cli_op(vl, ["identities", "--trials", "100", "--seed", str(s)]), 0,
           100, f"identities@{s}"),
    ]
    for ext in ("npz", "csv"):
        path = WORK / f"gerstner.{ext}"
        ops.append(Op(f"export:{ext}",
                      cli_op(vl, ["export", "--fixture", "gerstner", "--out", str(path)]), 0,
                      EXPORT_GRID ** 3 * EXPORT_NT, f"export:{ext}"))
        ops.append(Op(f"offnode:{ext}", _offnode(vl, path, ctx["offnode"]), 0,
                      _n(OFFNODE_GRID) * EXPORT_NT, f"offnode:{ext}"))
    # README: `vortlab drift --fixture abc --dt 0.01,0.005   # ratio ~ 16`;
    # points: the probe's inner 9^3 patch at 6 times, for both steps
    ops.append(Op("drift:abc-dt-pair",
                  cli_op(vl, ["drift", "--fixture", "abc", "--dt", DT_PAIR]), 0,
                  9 ** 3 * 6 * 2, None, verdict=_ratio_in_band,
                  known_defect="ROADMAP open item 2: ratio ~1 on the probe's spatial floor"))
    return ops


WORKLOADS = {
    "verify-catalog": (setup_verify, ops_verify),
    "action-variational": (setup_action, ops_action),
    "label-sweep": (setup_label, ops_label),
}
