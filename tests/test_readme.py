"""The README's Python examples run as written and read what their comments say."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_and_drifts_at_rounding(capsys):
    text = _README.read_text()
    [block] = re.findall(r"A quick tour:\n\n```python\n(.*?)```", text, re.DOTALL)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["report"].max_drift < 1e-13  # "~1e-15 for the exact wave"
    assert capsys.readouterr().out.splitlines()[0] == repr(scope["report"].max_drift)
