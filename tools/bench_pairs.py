"""Paired benchmark runs of two source trees: the parent and the change.

Runs ``perfbench/run.py --workload all`` N times in each tree, alternating
which tree runs first in each pair, then prints one row per workload and
end-to-end metric: each side's median and quartiles, the pairs the change
won (ties count for neither), and whether the medians differ by more than
the interquartile range of the parent's own runs::

    git archive PARENT_REV | tar -x -C ../parent
    python tools/bench_pairs.py --parent ../parent --pairs 10 --seconds 30 --seed 13

A gain is resolved when the change wins at least nine tenths of the pairs
and its median is better than the parent's by more than that range.  The
metrics and the direction of each are read from the change's
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, seed: int, seconds: float) -> dict[str, float]:
    """{"workload.metric": value} of one ``--workload all`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: perfbench reports an incorrect op")
    return {key: m["value"] for key, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    lines = [f"{'workload.metric':<34} {'parent median [q1, q3]':>32} "
             f"{'change median [q1, q3]':>32} {'wins':>6}  gap > parent IQR"]
    for key in parent[0]:
        metric = key.rsplit(".", 1)[1]
        sign = 1.0 if better.get(metric) == "lower" else -1.0
        p = [run[key] for run in parent]
        c = [run[key] for run in change]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        wins = sum(sign * (b - a) > 0 for a, b in zip(c, p))
        gain = sign * (pm - cm)
        verdict = "yes" if gain > p3 - p1 else "no"
        moved = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        lines.append(f"{key:<34} {pm:>12.5g} [{p1:.5g}, {p3:.5g}] "
                     f"{cm:>12.5g} [{c1:.5g}, {c3:.5g}] {wins:>3}/{len(p):<2}  {verdict} "
                     f"({moved} of the parent's median)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit, holding perfbench/ and src/")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)
    print(f"{args.pairs} pairs, --seed {args.seed} --seconds {args.seconds}")
    print("\n".join(summarize(runs["parent"], runs["change"], better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
