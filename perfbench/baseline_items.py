"""One timed run of each ROADMAP Baseline item, for notes that later changes cite.

    python3 perfbench/baseline_items.py      # about 4 minutes, most of it the 9^3 x 9 action

Prints one line per item: wall-clock seconds and reference seconds (see
speed.py).  These are single runs, not medians; the benchmark proper is run.py.
"""

import threads

threads.pin()  # before numpy loads BLAS

import numpy as np  # noqa: E402

import harness  # noqa: E402
import speed  # noqa: E402


def items(vl):
    cli = vl.cli
    rot = vl.flows.make_fixture("rigid-rotation")
    abc = vl.flows.make_fixture("abc")
    window = (rot.field.t0, rot.field.t1)
    quad6 = vl.SpaceTimeQuadrature.midpoint(rot.field.box, (6, 6, 6), window, 4)
    triple = vl.VariationTriple.relabeling(cli._default_generator(rot.field.box))
    grid17 = vl.LabelGrid.cell_centers(rot.field.box, (17, 17, 17))
    out = [("cli action --fixture rigid-rotation (9^3, nt 9)",
            harness.cli_op(vl, ["action", "--fixture", "rigid-rotation"]))]
    for name in vl.flows.fixture_names():
        out.append((f"cli verify --fixture {name}",
                    harness.cli_op(vl, ["verify", "--fixture", name])))
    out += [
        ("cauchy_drift rigid-rotation 17^3 x 20 (analytic, pointwise)",
         lambda: vl.cauchy_drift(rot.field, grid17, np.linspace(*window, 20))),
        ("cauchy_drift abc 24^3 x 21 (sampled, node path)",
         lambda: vl.cauchy_drift(abc.field, abc.field.grid, abc.field.times)),
        ("rund_trautman_check rigid-rotation 6^3 x 4",
         lambda: vl.variational.rund_trautman_check(rot.field, rot.material, triple, quad6)),
        ("action rigid-rotation 6^3 x 4",
         lambda: vl.variational.action(rot.field, rot.material, quad6)),
        ("cli identities --trials 100", harness.cli_op(vl, ["identities", "--trials", "100"])),
    ]
    return out


def main():
    vl = harness.import_vortlab()
    print(f"{'item':<60} {'wall s':>9} {'ref s':>9}")
    for label, fn in items(vl):
        _, raw, ref = speed.measure(fn)
        print(f"{label:<60} {raw:9.3f} {ref:9.3f}", flush=True)


if __name__ == "__main__":
    main()
