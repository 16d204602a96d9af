"""vortlab benchmark: three closed-loop workloads, one client, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-catalog --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` measures the end-to-end metrics, with times in reference
seconds (see speed.py) and wall clock printed beside them.  ``--trace 1`` runs one
untraced pass, then one set-up and one pass under the span tracer, and
reports the per-layer metrics; spans go to ``perfbench/_work``.
``--workload all`` runs every workload in its own process and prints one
table.  The last line of stdout is always one JSON result object.
"""

import threads

threads.pin()  # before numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS, program_seed  # noqa: E402

END_TO_END = ("wall_s", "max_op_s", "points_per_s", "passed_share", "peak_rss_mb", "setup_s")
UNITS = {"wall_s": "s", "max_op_s": "s", "points_per_s": "1/s", "passed_share": "ratio",
         "peak_rss_mb": "MB", "setup_s": "s"}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _tally(passes):
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.problems]
    return outcomes, failed, all(o.expected_failure for o in failed)


def _print_failures(failed):
    seen = set()
    for o in failed:
        key = (o.op, tuple(o.problems))
        if key not in seen:
            seen.add(key)
            tag = "expected (known defect)" if o.expected_failure else "FAILED"
            print(f"  {tag}: {o.op}: " + "; ".join(f"{k}: {d}" for k, d in o.problems))


def end_to_end(vl, name, seed, seconds):
    setup, make_ops = WORKLOADS[name]
    setup_s, reps, ctx = harness.timed_setup(lambda: setup(vl))
    ops = make_ops(vl, ctx, seed)
    passes = harness.run_passes(ops, harness.load_reference(), seconds)
    walls = [sum(o.seconds for o in p) for p in passes]
    raw_walls = [sum(o.raw_seconds for o in p) for p in passes]
    wall = statistics.median(walls)
    points = sum(op.points for op in ops)
    outcomes, failed, correct = _tally(passes)
    metrics = {
        "wall_s": wall,
        "max_op_s": statistics.median(max(o.seconds for o in p) for p in passes),
        "points_per_s": points / wall,
        "passed_share": 1.0 - len(failed) / len(outcomes),
        "peak_rss_mb": harness.peak_rss_mb(),
        "setup_s": setup_s,
    }
    print(f"workload {name}: {len(passes)} pass(es) of {len(ops)} ops, "
          f"{points} configured points per pass, set-up repeated {reps}x")
    print(f"  wall_s median {wall:.4f} s, max {max(walls):.4f} s over n={len(walls)} passes "
          "(too few passes for a percentile above the median); "
          f"wall-clock median {statistics.median(raw_walls):.4f} s")
    for op in ops:
        mine = [o for p in passes for o in p if o.op == op.name]
        print(f"  op {op.name:<24} median {statistics.median(o.seconds for o in mine):9.4f} s "
              f"(wall clock {statistics.median(o.raw_seconds for o in mine):9.4f} s)  "
              f"points {op.points}")
    print(f"  failed_share {len(failed) / len(outcomes):.4f} "
          f"({len(failed)} of {len(outcomes)} ops)")
    _print_failures(failed)
    for key in END_TO_END:
        print(f"  {key:<14} {metrics[key]:.6g} {UNITS[key]}")
    return outcomes, failed, correct, {k: _metric(metrics[k], UNITS[k]) for k in END_TO_END}


def traced(vl, name, seed):
    import tracing
    import layers

    setup, make_ops = WORKLOADS[name]
    reference = harness.load_reference()
    ctx = setup(vl)
    plain = harness.run_pass(make_ops(vl, ctx, seed), reference)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        ctx = tracer.run_op("setup", lambda: setup(vl))
        traced_pass = harness.run_pass(make_ops(vl, ctx, seed), reference, tracer)
    finally:
        restore()
    overhead = sum(o.raw_seconds for o in traced_pass) - sum(o.raw_seconds for o in plain)
    metrics = layers.per_layer(tracer, overhead)
    harness.WORK.mkdir(exist_ok=True)
    spans = harness.WORK / f"spans-{name}.npz"
    tracer.write(spans)
    print(f"workload {name} traced: {len(tracer.start)} spans written to {spans}")
    for root in layers.ROOTS:
        ranked = sorted(tracer.under(root).items(), key=lambda kv: -kv[1])[:8]
        if ranked:
            print(f"  largest spans under {root}: "
                  + ", ".join(f"{n} {s:.3f}s" for n, s in ranked))
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    outcomes, failed, correct = _tally([plain, traced_pass])
    _print_failures(failed)
    return outcomes, failed, correct, metrics


def run_all(seed, seconds):
    """Every workload in a fresh process; prints one table of end-to-end metrics."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<14} {'unit':<6} " + " ".join(f"{n:>20}" for n in rows))
    for key in END_TO_END:
        print(f"{key:<14} {UNITS[key]:<6} "
              + " ".join(f"{r['metrics'][key]['value']:>20.6g}" for r in rows.values()))
    print(f"{'failed_share':<14} {'ratio':<6} "
          + " ".join(f"{r['failed'] / r['attempted']:>20.4f}" for r in rows.values()))
    return {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{n}.{k}": v for n, r in rows.items() for k, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        if args.trace:
            parser.error("--workload all reports end-to-end metrics only")
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    try:
        vl = harness.import_vortlab()
    except (harness.SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(harness.provenance(), sort_keys=True))
    print(f"seed {args.seed} (program seed {program_seed(args.seed)})")
    if args.trace:
        outcomes, failed, correct, metrics = traced(vl, args.workload, args.seed)
    else:
        outcomes, failed, correct, metrics = end_to_end(vl, args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
