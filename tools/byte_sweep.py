"""Byte-identity sweep of the vortlab command line.

Runs each argv of a fixed list in a fresh ``python -m vortlab`` process, inside a
fresh empty working directory, and prints one line per run: the sha256 of its
stdout, stderr, exit code and every file it left in that directory (``export``'s
grid files, ``--out`` reports), then the exit code and the argv.  Two source
trees compare with ``diff``::

    python tools/byte_sweep.py --src ../parent/src > parent.txt
    python tools/byte_sweep.py > change.txt
    diff parent.txt change.txt

or in one call, against the ``src/`` of a git revision of this checkout, which
prints only the runs that differ (``-`` the revision, ``+`` this tree) and exits 1
if any do::

    python tools/byte_sweep.py --against HEAD~1

The list covers ``verify`` (default seed, seeds 1 to 8, CSV), ``drift``,
``action`` and ``export`` on every fixture, argv that exit 1 or 2, ``drift``
with each theorem and the ``--dt`` pairs, small ``action`` grids, CSV grid
files and ``identities``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

FIXTURES = ["abc", "dilation", "gerstner", "identity", "non-euler", "rigid-rotation", "shear",
            "taylor-green", "translation"]
THEOREMS = ["cauchy", "circulation", "ertel", "helicity"]
ROOT = Path(__file__).resolve().parents[1]


def runs() -> list[list[str]]:
    out = []
    for name in FIXTURES:
        out.append(["verify", "--fixture", name])
        out += [["verify", "--fixture", name, "--seed", str(s)] for s in range(1, 9)]
        out.append(["verify", "--fixture", name, "--format", "csv"])
        out += [[command, "--fixture", name] for command in ("drift", "action")]
        out.append(["export", "--fixture", name, "--out", "grid.npz"])
    out += [  # exit 1 or 2
        ["verify", "--fixture", "shear", "--param", "rate=1e308"],
        ["verify", "--fixture", "translation", "--param", "c=1e308,0,0"],
        ["verify", "--fixture", "abc", "--param", "A=1e308"],
        ["verify", "--fixture", "abc", "--param", "shape=5,5,1"],
        ["verify", "--fixture", "abc", "--t1", "0"],
        ["verify", "--fixture", "taylor-green", "--t1", "-1"],
        ["verify", "--fixture", "rigid-rotation", "--t1", "0"],
        ["drift", "--fixture", "taylor-green", "--dt", "0.01,0.005"],
    ]
    for name in ("rigid-rotation", "abc", "taylor-green"):
        out += [["drift", "--fixture", name, "--theorem", th] for th in THEOREMS]
    out.append(["drift", "--fixture", "abc", "--dt", "0.01,0.005"])
    out += [["drift", "--fixture", "abc", "--dt", dt, "--t1", t1]  # above and at the floor
            for dt, t1 in (("0.02,0.01", "0.1"), ("0.01,0.005", "0.05"))]
    for name in ("rigid-rotation", "dilation", "non-euler", "abc"):
        out.append(["action", "--fixture", name, "--grid", "3", "--nt", "2"])
    for fixture in (["gerstner"], ["abc", "--param", "shape=6,6,6"]):
        out.append(["export", "--fixture", *fixture, "--out", "grid.csv"])
    out += [["identities", "--seed", str(s)] for s in range(1, 9)]
    return out


def digest(argv: list[str], src: Path) -> tuple[str, int]:
    """sha256 of one run's stdout, stderr, exit code and the files it wrote, and the code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "vortlab", *argv], cwd=cwd, env=env,
                              capture_output=True)
        parts = [proc.stdout, proc.stderr, str(proc.returncode).encode()]
        for path in sorted(Path(cwd).rglob("*")):
            if path.is_file():
                parts += [str(path.relative_to(cwd)).encode(), path.read_bytes()]
    h = hashlib.sha256()
    for part in parts:  # length-prefixed, so no two records run together alike
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest(), proc.returncode


def line(argv: list[str], src: Path) -> str:
    sha, code = digest(argv, src)
    return f"{sha}  {code}  {' '.join(argv)}"


def against(rev: str, src: Path) -> int:
    """Run every argv on ``rev``'s src/ and on ``src``; print the runs that differ."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        differ = 0
        for run in runs():
            old, new = line(run, Path(tree) / "src"), line(run, src)
            if old != new:
                differ += 1
                print(f"- {old}\n+ {new}", flush=True)
    print(f"{differ} of {len(runs())} runs differ from {rev}", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to run, holding the vortlab package "
                             "(default: this checkout's src)")
    parser.add_argument("--against", metavar="REV",
                        help="also run the src/ of git revision REV and print only the runs "
                             "that differ; exit 1 if any do")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "vortlab" / "__init__.py").is_file():
        parser.error(f"no vortlab package under {src}")
    if args.against:
        return against(args.against, src)
    for run in runs():
        print(line(run, src), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
