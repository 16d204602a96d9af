"""Record the reference values that the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every operation of every workload once for each program seed and
writes the numeric, boolean and null leaves of each report to
``perfbench/reference.json``.  Run it only on a commit whose reports are
the intended reference; the gate then holds later commits to them.
"""

import threads

threads.pin()  # before numpy loads BLAS

import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402


def main():
    vl = harness.import_vortlab()
    recorded = {}
    for name, (setup, make_ops) in WORKLOADS.items():
        ctx = setup(vl)
        for seed in range(VARIANTS):
            for op in make_ops(vl, ctx, seed):
                if op.ref is None or op.ref in recorded:
                    continue
                code, report = op.run()
                if code != op.expect:
                    print(f"warning: {op.ref} exited {code}, documented {op.expect}",
                          file=sys.stderr)
                recorded[op.ref] = harness.flatten(report)
                print(f"{name}: {op.ref}: {len(recorded[op.ref])} values", flush=True)
    prov = harness.provenance()
    doc = {
        "recorded_at": {k: prov[k] for k in ("git_rev", "source_sha256", "python", "numpy")},
        "rtol": harness.RTOL,
        "atol": harness.ATOL,
        "ops": recorded,
    }
    with open(harness.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
