"""The README's Python examples run as written and read what their comments say, and each
malformed-file line of its grid-format section is a file that load_grid rejects."""

import re
from pathlib import Path

import numpy as np
import pytest

from vortlab import flows
from vortlab.errors import GridFormatError
from vortlab.fields import LabelGrid, SampledTrajectoryField, load_grid, save_grid

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_and_drifts_at_rounding(capsys):
    text = _README.read_text()
    [block] = re.findall(r"A quick tour:\n\n```python\n(.*?)```", text, re.DOTALL)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["report"].max_drift < 1e-13  # "~1e-15 for the exact wave"
    assert capsys.readouterr().out.splitlines()[0] == repr(scope["report"].max_drift)


def _malformed_clauses() -> list[str]:
    """The bullets of the README's list of malformed grid files."""
    text = _README.read_text()
    [block] = re.findall(r"`load_grid` raises `GridFormatError` naming the path for each of "
                         r"these\nmalformed files.*?\n\n(.*?)\n\n", text, re.DOTALL)
    return [line[2:] for line in block.splitlines()]


def _grid(tmp_path, suffix, shape=(5, 5, 5), order=4) -> Path:
    """A small translation grid saved as grid<suffix>."""
    fx = flows.make_fixture("translation", c=(0.5, 0.0, 0.0))
    grid = LabelGrid.nodes_inclusive(fx.field.box, shape)
    field = SampledTrajectoryField.from_analytic(fx.field, grid, np.linspace(0.0, 1.0, 4),
                                                 order=order, periodic=(False, False, False))
    path = tmp_path / f"grid{suffix}"
    save_grid(field, str(path))
    return path


def _csv(tmp_path, edit) -> Path:
    """The small grid as CSV, its lines passed through ``edit``."""
    path = _grid(tmp_path, ".csv")
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return path


def _line(key, new):
    """An edit putting ``new`` in place of the header line of ``key``."""
    return lambda lines: [new if line[1:].split()[:1] == [key] else line for line in lines]


def _data_row(edit):
    """An edit passing the first data row through ``edit``."""
    def lines_with(lines):
        i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return [*lines[:i], edit(lines[i]), *lines[i + 1:]]
    return lines_with


def _insert(i, line):
    return lambda lines: [*lines[:i], line, *lines[i:]]


def _npz(tmp_path, **changes) -> Path:
    """The small grid as .npz, with arrays replaced."""
    path = _grid(tmp_path, ".npz")
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    np.savez(path, **{**arrays, **changes})
    return path


def _bytes(tmp_path, name, edit) -> Path:
    """A file ``name`` holding the bytes of the small .npz grid passed through ``edit``."""
    path = tmp_path / name
    path.write_bytes(edit(_grid(tmp_path, ".npz").read_bytes()))
    return path


def _bare_array(tmp_path) -> Path:
    np.save(tmp_path / "bare.npy", np.arange(3.0))
    return (tmp_path / "bare.npy").rename(tmp_path / "bare.npz")


def _non_utf8(tmp_path) -> Path:
    path = _grid(tmp_path, ".csv")
    magic, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(magic + b"\n# caf\xe9\n" + rest)
    return path


def _nonfinite(tmp_path, kind, value) -> Path:
    with np.load(_grid(tmp_path, ".npz")) as data:
        array = data[kind].copy()
    array[0, 1, 2, 3, 0] = value
    return _npz(tmp_path, **{kind: array})


def _short_axis(tmp_path) -> Path:
    path = _grid(tmp_path, ".csv", shape=(5, 4, 5), order=2)
    path.write_text(path.read_text().replace("# order 2", "# order 4"))
    return path


_HEADER_LINES = 9  # of the small grid's CSV file

# clause -> the files it names, each built in a directory of its own
_MALFORMED = {
    "a name not ending in `.csv` that is not an `.npz` archive: text, an empty or truncated "
    "file, one bare `np.save` array": [
        lambda tmp: _grid(tmp, ".csv").rename(tmp / "grid.npz"),
        lambda tmp: _grid(tmp, ".csv").rename(tmp / "grid.txt"),
        lambda tmp: _bytes(tmp, "empty.npz", lambda data: b""),
        lambda tmp: _bytes(tmp, "cut.npz", lambda data: data[:100]),
        _bare_array,
    ],
    "a `.csv` that is not UTF-8": [_non_utf8],
    "a CSV whose first line is not `# vortlab-grid 1`": [
        lambda tmp: _csv(tmp, lambda lines: [*lines[1:], lines[0]]),
        lambda tmp: _csv(tmp, lambda lines: [lines[1], lines[0], *lines[2:]]),
        lambda tmp: _csv(tmp, _insert(0, "")),
        lambda tmp: _csv(tmp, _line("vortlab-grid", "# vortlab-grid 2")),
    ],
    "a CSV header line that is empty or malformed": [
        lambda tmp: _csv(tmp, _line("order", "#")),
        lambda tmp: _csv(tmp, _line("order", "# order")),
        lambda tmp: _csv(tmp, _line("shape", "# shape 5 5 x 4")),
    ],
    "a CSV header key given twice": [
        lambda tmp: _csv(tmp, _insert(_HEADER_LINES, "# order 2")),
    ],
    "a CSV header line after the first data row": [
        lambda tmp: _csv(tmp, lambda lines: [*lines, "# note written last"]),
        lambda tmp: _csv(tmp, _insert(_HEADER_LINES + 20, "# note")),
    ],
    "a CSV `periodic` line without three flags": [
        lambda tmp: _csv(tmp, _line("periodic", "# periodic 0")),
    ],
    "a CSV `fields` line without `positions`, or naming a kind twice or one other than the "
    "three": [
        lambda tmp: _csv(tmp, _line("fields", "# fields displacements velocities accelerations")),
        lambda tmp: _csv(tmp, _line("fields", "# fields positions positions accelerations")),
        lambda tmp: _csv(tmp, _line("fields", "# fields positions velocities vorticity")),
    ],
    "a CSV `axis`/`times` line whose numbers (or the last node they give) are not finite": [
        lambda tmp: _csv(tmp, _line("axis1", "# axis1 inf 0.5")),
        lambda tmp: _csv(tmp, _line("times", "# times 0.0 1e308")),
    ],
    "a CSV `shape` longer than the file can hold": [
        lambda tmp: _csv(tmp, _line("shape", "# shape 100000 100000 100000 1000")),
        lambda tmp: _csv(tmp, _line("shape", f"# shape {'9' * 400} 5 5 4")),
        lambda tmp: _csv(tmp, lambda lines: lines[:-1]),
    ],
    "a CSV data row with a bad number, or another number of columns than `fields` gives": [
        lambda tmp: _csv(tmp, _data_row(lambda row: "x" + row[row.index(","):])),
        lambda tmp: _csv(tmp, _data_row(lambda row: row + ",1.0")),
        lambda tmp: _csv(tmp, _data_row(lambda row: row[:row.rindex(",")])),
        lambda tmp: _csv(tmp, lambda lines: [*lines, lines[-1]]),
    ],
    "an `.npz` array of another number of axes or dtype kind than the table gives: an object "
    "array, text where numbers belong, a 2-D axis, a fractional or textual `order`": [
        lambda tmp: _npz(tmp, positions=np.zeros((4, 5, 5, 5, 3), dtype=object)),
        lambda tmp: _npz(tmp, axis1=np.array(["a", "b", "c", "d", "e"])),
        lambda tmp: _npz(tmp, axis1=np.tile(np.linspace(-1.0, 1.0, 5), (2, 1))),
        lambda tmp: _npz(tmp, order=np.array([4.7])),
        lambda tmp: _npz(tmp, order=np.array(["x"])),
    ],
    "an empty `format` or `order` in an `.npz` file": [
        lambda tmp: _npz(tmp, format=np.array([], dtype=str)),
        lambda tmp: _npz(tmp, order=np.array([], dtype=int)),
    ],
    "an `.npz` `version` other than 1": [lambda tmp: _npz(tmp, version=np.array([2]))],
    "stored `velocities` or `accelerations` of another shape than `positions`": [
        lambda tmp: _npz(tmp, velocities=np.zeros((4, 5, 5, 4, 3))),
        lambda tmp: _npz(tmp, accelerations=np.zeros((3, 5, 5, 5, 3))),
    ],
    "`positions`, `velocities` or `accelerations` holding a NaN or an infinity, in either "
    "format": [
        lambda tmp: _nonfinite(tmp, "positions", np.inf),
        lambda tmp: _nonfinite(tmp, "velocities", np.nan),
        lambda tmp: _nonfinite(tmp, "accelerations", -np.inf),
        lambda tmp: _csv(tmp, _data_row(lambda row: "nan" + row[row.index(","):])),
        lambda tmp: _csv(tmp, _data_row(lambda row: row[:row.rindex(",")] + ",1e400")),
    ],
    "a non-periodic axis shorter than its stencil": [_short_axis],
    "an axis or time ladder that is not uniform": [
        lambda tmp: _npz(tmp, axis1=np.array([-1.0, -0.5, 0.25, 0.5, 1.0])),
        lambda tmp: _npz(tmp, times=np.array([0.0, 0.25, 0.75, 1.0])),
    ],
}


def test_every_malformed_file_case_is_a_readme_clause():
    assert sorted(_MALFORMED) == sorted(_malformed_clauses())


@pytest.mark.parametrize("clause", _malformed_clauses())
def test_malformed_grid_file_raises_format_error(clause, tmp_path):
    for i, build in enumerate(_MALFORMED[clause]):
        (tmp_path / str(i)).mkdir()
        path = build(tmp_path / str(i))
        with pytest.raises(GridFormatError, match=re.escape(path.name)):
            load_grid(str(path))
