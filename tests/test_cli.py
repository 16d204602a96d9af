"""CLI contract: exit codes, determinism, report formats, export."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vortlab.cli import main
from vortlab.fields import load_grid


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_verify_extremal_passes(self, capsys):
        code, out = run_cli(
            ["verify", "--fixture", "rigid-rotation", "--grid", "5,5,5", "--nt", "4",
             "--t1", "2"], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_verify_dilation_fails_tolerances(self, capsys):
        code, out = run_cli(
            ["verify", "--fixture", "dilation", "--grid", "4,4,4", "--nt", "3"], capsys)
        assert code == 1
        rep = json.loads(out)
        failed = {c["check"] for c in rep["checks"] if not c["pass"]}
        assert "momentum_residual" in failed

    def test_unknown_fixture_usage_error(self, capsys):
        code, _ = run_cli(["verify", "--fixture", "nosuch"], capsys)
        assert code == 2

    def test_bad_grid_usage_error(self, capsys):
        code, _ = run_cli(["verify", "--fixture", "identity", "--grid", "1,1,1"], capsys)
        assert code == 2

    def test_bad_tolerance_usage_error(self, capsys):
        code, _ = run_cli(["verify", "--fixture", "identity", "--tol", "-1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--fixture", "gerstner", "--param", "bogus=1"],
        ["--fixture", "identity", "--t0", "1", "--t1", "0"],
        ["--fixture", "identity", "--t0", "5"],
    ])
    def test_bad_fixture_arguments_usage_error(self, args):
        r = subprocess.run([sys.executable, "-m", "vortlab.cli", "verify", *args],
                           capture_output=True, text=True)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr


class TestIdentities:
    def test_default_battery_passes(self, capsys):
        code, out = run_cli(["identities", "--trials", "25", "--seed", "7"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["exact_zero_counts"]["curl_pullback"] == 25

    def test_zero_trials_is_empty_pass(self, capsys):
        code, out = run_cli(["identities", "--trials", "0"], capsys)
        assert code == 0
        assert json.loads(out)["trials"] == 0

    def test_seed_reproduces_identical_bytes(self, capsys):
        _, out1 = run_cli(["identities", "--trials", "10", "--seed", "5"], capsys)
        _, out2 = run_cli(["identities", "--trials", "10", "--seed", "5"], capsys)
        assert out1 == out2


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        # separate interpreter runs must agree byte for byte
        cmd = [sys.executable, "-m", "vortlab.cli", "verify", "--fixture", "rigid-rotation",
               "--grid", "4,4,4", "--nt", "3", "--t1", "1", "--seed", "3"]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == 0 and r1.stdout == r2.stdout


class TestFormatsAndConfig:
    def test_csv_format(self, capsys):
        code, out = run_cli(
            ["identities", "--trials", "5", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("pass,") for line in out.splitlines())

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run_cli(
            ["identities", "--trials", "5", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["trials"] == 5

    def test_config_file_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fixture=rigid-rotation\ngrid=4,4,4\nnt=3\nt1=1\n")
        code, out = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["grid"] == [4, 4, 4]

    def test_malformed_config_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not key value\n")
        code, _ = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 2

    def test_config_without_path_usage_error(self, capsys):
        code = main(["verify", "--fixture", "gerstner", "--config"])
        assert code == 2
        assert capsys.readouterr().err.startswith("vortlab: config error: ")

    def test_config_not_utf8_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"nt=3\n\xff\xfe=1\n")
        code = main(["verify", "--fixture", "gerstner", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("vortlab: config error: ")

    @pytest.mark.parametrize("flag", [["--grid", "4,x,4"], ["--grid", ""], ["--dt", "0.1,fast"]])
    def test_unparsable_numbers_usage_error(self, flag, capsys):
        code = main(["identities", "--trials", "1", *flag])
        assert code == 2
        assert capsys.readouterr().err.startswith("vortlab: ")

    # key=value lines with real option names and arbitrary values; --out and
    # --trials stay out so an example can neither write files nor run long
    _CONFIG_LINES = st.lists(
        st.tuples(
            st.sampled_from(["grid", "nt", "dt", "t0", "t1", "seed", "tol", "fd-order",
                             "format", "param", "fixture", "config", "bogus", ""]),
            st.text(max_size=12),
        ).map(lambda kv: f"{kv[0]}={kv[1]}"),
        max_size=5,
    ).map(lambda lines: "\n".join(lines).encode("utf-8"))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(st.binary(max_size=64), _CONFIG_LINES))
    def test_fuzzed_config_runs_or_exits_2(self, tmp_path, capsys, data):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_bytes(data)
        code = main(["identities", "--config", str(cfg), "--trials", "1"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith(("vortlab: ", "usage: "))


class TestActionCommand:
    def test_scan_on_rotation(self, capsys):
        code, out = run_cli(
            ["action", "--fixture", "rigid-rotation", "--scan", "--grid", "5,5,5",
             "--nt", "3", "--t1", "1"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["scan"]["generator"]["slope"] is None or \
            rep["scan"]["generator"]["slope"] >= 1.9
        assert rep["scan"]["divergent_control"]["slope"] <= 1.2
        assert "asserted" not in rep["scan"]["divergent_control"]

    def test_scan_on_zero_action_decides_on_generator(self, capsys):
        # the identity map's action is identically zero, so the divergent
        # control cannot deviate; no tolerance failed and the scan passes
        code, out = run_cli(
            ["action", "--fixture", "identity", "--grid", "4,4,4", "--nt", "3", "--scan"],
            capsys)
        scan = json.loads(out)["scan"]
        assert code == 0
        assert scan["pass"] is True
        assert scan["divergent_control"]["deviation"] == [0.0] * 4
        assert scan["divergent_control"]["asserted"] is False
        assert "0" in scan["divergent_control"]["reason"]


class TestDriftCommand:
    def test_identity_all_zero(self, capsys):
        code, out = run_cli(
            ["drift", "--fixture", "identity", "--grid", "4,4,4", "--nt", "4"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert all(v == 0.0 for v in rep["cauchy"]["max_deviation"])

    def test_step_pair_reports_fourth_order_ratio(self, capsys):
        code, out = run_cli(["drift", "--fixture", "abc", "--dt", "0.1,0.05"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert 12.0 <= rep["drift_ratio"] <= 20.0

    def test_readme_step_pair_reports_fourth_order_ratio(self, capsys):
        # README: vortlab drift --fixture abc --dt 0.01,0.005   # ratio ~ 16
        code, out = run_cli(["drift", "--fixture", "abc", "--dt", "0.01,0.005"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert 12.0 <= rep["drift_ratio"] <= 20.0

    def test_step_pair_below_probe_rounding_floor_usage_error(self, capsys):
        code = main(["drift", "--fixture", "abc", "--dt", "0.002,0.001"])
        assert code == 2
        assert "rounding" in capsys.readouterr().err

    def test_sampled_times_reach_window_end(self, capsys):
        code, out = run_cli(["drift", "--fixture", "taylor-green", "--nt", "3"], capsys)
        times = json.loads(out)["cauchy"]["times"]
        assert code == 0
        assert len(times) == 3 and times[-1] == 1.0

    def test_sampled_times_keep_last_slice_when_stride_misses_it(self, capsys):
        # 21 stamps at --nt 7 give stride 3, which stops at 0.9 without the end slice
        code, out = run_cli(["drift", "--fixture", "taylor-green", "--nt", "7"], capsys)
        times = json.loads(out)["cauchy"]["times"]
        assert code == 0
        assert times[-1] == 1.0
        assert times[:-1] == pytest.approx([0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9])

    @pytest.mark.parametrize("fixture,dt", [("abc", "0.01,0.005"), ("taylor-green", "0.1,0.05")])
    def test_step_pair_needs_fourth_order_stencils(self, fixture, dt, capsys):
        code = main(["drift", "--fixture", fixture, "--dt", dt, "--fd-order", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--fd-order 4" in captured.err

    @pytest.mark.parametrize("dt", ["0.1,0.05,0.025", "0.1,0.1", "0.05,0.1"])
    def test_step_list_other_than_step_and_half_usage_error(self, dt, capsys):
        # the [12, 20] band holds for a step and its half only: three steps,
        # equal steps or the finer step first are usage errors, not failures
        code = main(["drift", "--fixture", "abc", "--dt", dt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "B = A/2" in captured.err

    def test_step_pair_rejected_for_analytic_fixture(self, capsys):
        code, _ = run_cli(["drift", "--fixture", "identity", "--dt", "0.1,0.05"], capsys)
        assert code == 2


class TestExport:
    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_roundtrip_via_cli(self, tmp_path, capsys, suffix):
        path = tmp_path / f"wave{suffix}"
        code, _ = run_cli(
            ["export", "--fixture", "gerstner", "--grid", "5,4,5", "--nt", "3",
             "--fd-order", "2", "--out", str(path)], capsys)
        assert code == 0
        field = load_grid(str(path))
        assert field.grid.shape == (5, 4, 5)
        assert len(field.times) == 3

    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_axis_shorter_than_stencil_is_a_usage_error(self, tmp_path, capsys, suffix):
        path = tmp_path / f"wave{suffix}"
        code = main(["export", "--fixture", "gerstner", "--grid", "5,4,3", "--nt", "3",
                     "--out", str(path)])
        assert code == 2
        assert "axis2 of length 4 is too short" in capsys.readouterr().err
        assert not path.exists()


def _readme_examples():
    """(command, comment) for each line of the README's "Examples:" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    rows = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        rows.append((command.strip(), comment.strip()))
    return rows


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    def test_block_found(self):
        assert len(README_EXAMPLES) == 6

    @pytest.mark.parametrize("command,comment", README_EXAMPLES,
                             ids=[c.split()[1] + "-" + c.split()[3] for c, _ in README_EXAMPLES])
    def test_example_does_what_its_comment_says(self, command, comment, tmp_path, capsys):
        argv = shlex.split(command)
        assert argv[0] == "vortlab"
        argv = argv[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        code, out = run_cli(argv, capsys)
        assert code == (1 if "exit 1" in comment else 0), comment
        rep = json.loads(out)
        if "exact zeros" in comment:
            assert comment.startswith("100/100")
            assert rep["exact_zero_counts"] and \
                all(v == 100 for v in rep["exact_zero_counts"].values())
        if "slope" in comment:
            assert comment == "slope >= 1.9"
            assert rep["scan"]["generator"]["slope"] >= 1.9
        if "ratio" in comment:
            assert 12.0 <= rep["drift_ratio"] <= 20.0
        if "--out" in argv:
            assert load_grid(argv[argv.index("--out") + 1]).grid.shape == (17, 5, 17)
