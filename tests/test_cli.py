"""CLI contract: exit codes, determinism, report formats, export."""

import dataclasses
import inspect
import json
import numbers
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vortlab import cli, fields, flows
from vortlab.cli import build_parser, main
from vortlab.fields import SampledTrajectoryField, load_grid
from vortlab.flows import _CATALOG, make_fixture
from vortlab.kinematics import (
    Frame,
    convective_gradient_residual,
    inverse_jacobian_rate_residual,
    jacobian_rate_residual,
)
from vortlab.theorems import beltrami_residual, dalembert_euler_residual
from vortlab.variational import mass_reference, momentum_residual


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

    @pytest.mark.parametrize("fixture,t1", [("rigid-rotation", "1e-5"), ("gerstner", "1e-5"),
                                            ("shear", "1e-6"), ("non-euler", "5e-5")])
    def test_verify_window_below_the_rounding_floor_usage_error(self, fixture, t1, capsys):
        # the rate check's time difference steps 1e-3 of the window: rounding, not the
        # identity, would fail it below a window of 1e-4
        code = main(["verify", "--fixture", fixture, "--t1", t1])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.endswith("rounding swamps the kinematic rate identity; "
                                     "use a window >= 0.0001\n")

    def test_verify_window_at_the_floor_runs(self, capsys):
        code, out = run_cli(["verify", "--fixture", "gerstner", "--t1", "1e-4"], capsys)
        assert code == 0
        rate = json.loads(out)["checks"][0]
        assert rate["check"] == "kinematic_rate_identity" and rate["value"] < 1e-8 / 3

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
        r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "vortlab.cli",
                            "verify", *args],
                           capture_output=True, text=True)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr


    @pytest.mark.parametrize("args", [
        ["verify", "--fixture", "identity", "--tol", "nan"],
        ["verify", "--fixture", "identity", "--t0=-inf"],
        ["export", "--fixture", "identity", "--out", "x.npz", "--t1", "nan"],
        ["export", "--fixture", "identity", "--out", "x.npz", "--t1", "inf"],
        ["verify", "--fixture", "abc", "--param", "t1=inf"],
        ["verify", "--fixture", "rigid-rotation", "--param", "omega0=nan"],
        ["verify", "--fixture", "translation", "--param", "c=1,nan,0"],
    ])
    def test_non_finite_number_usage_error(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "finite" in captured.err
        assert not (tmp_path / "x.npz").exists()

    @pytest.mark.parametrize("fixture,param,want", [
        *((name, "box=1", "box wants a Box") for name in
          ("identity", "translation", "shear", "rigid-rotation", "dilation", "non-euler")),
        ("rigid-rotation", "rho0=1,2", "rho0 wants a number"),
        ("gerstner", "rho0=x", "rho0 wants a number"),
        ("abc", "rho0=1,2,3", "rho0 wants a number"),
        ("translation", "c=1,2", "c wants 3 numbers"),
        ("abc", "shape=8", "shape wants 3 numbers"),
    ])
    def test_param_of_the_wrong_kind_usage_error(self, fixture, param, want, capsys):
        code = main(["verify", "--fixture", fixture, "--param", param])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and want in captured.err

    @pytest.mark.parametrize("args", [
        ["verify", "--fixture", "abc", "--param", "A=1e308"],
        ["verify", "--fixture", "non-euler", "--param", "strength=1e308"],
        ["verify", "--fixture", "non-euler", "--param", "t1=1e308"],
        *([command, "--fixture", "rigid-rotation", "--param", "omega0=1e308"]
          for command in ("verify", "drift", "action")),
        ["verify", "--fixture", "rigid-rotation", "--param", "omega0=1e200"],
    ])
    def test_overflowing_param_usage_error(self, args, capsys):
        # finite values too large for float arithmetic are caught when the fixture is built
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith(f"vortlab: fixture {args[2]!r}: ")

    @pytest.mark.parametrize("fixture,param", [
        ("dilation", "rho0=1e308"), ("gerstner", "rho0=1e308"),  # rho0 times the body force
        ("dilation", "t1=1e308"),  # det G of the finite G = (1 + t) I
        ("rigid-rotation", "rho0=1e-308"),  # too small: a division by rho0 overflows
        ("translation", "c=1e308,0,0"),  # circulation's sum reaches -inf + inf
    ])
    def test_overflow_past_the_map_reads_usage_error(self, fixture, param, capsys):
        code = main(["verify", "--fixture", fixture, "--param", param])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith(f"vortlab: fixture {fixture!r}: ")
        assert "a --param value is out of range" in captured.err

    def test_overflowing_flag_is_named_instead_of_a_param(self, capsys):
        code = main(["action", "--fixture", "translation", "--t1", "1e308", "--grid", "4",
                     "--nt", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("vortlab: fixture 'translation': --t1 is out of range "
                                       "for float arithmetic (")
        assert "--param" not in captured.err

    @pytest.mark.parametrize("command", ["verify", "action", "drift", "export"])
    @pytest.mark.parametrize("window", [["--t0=-1e308", "--t1", "1e308"],
                                        ["--param", "t0=-1e308", "--param", "t1=1e308"]])
    @pytest.mark.parametrize("fixture", ["identity", "abc", "taylor-green"])
    def test_window_too_wide_for_float_arithmetic_usage_error(self, command, window, fixture,
                                                              tmp_path, monkeypatch, capsys):
        # checked before an advected fixture's build steps through the window
        monkeypatch.chdir(tmp_path)
        code = main([command, "--fixture", fixture, *window, "--nt", "3", "--grid", "5",
                     *(["--out", "x.npz"] if command == "export" else [])])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("vortlab: time window [-1e+308, 1e+308] is too wide for float "
                                "arithmetic: t1 - t0 overflows\n")
        assert list(tmp_path.iterdir()) == []

    def test_singular_map_error_names_its_scaled_determinant(self, capsys):
        # |J| = 1 but the row norms reach 1e308: singular by the scale-invariant rule
        code = main(["verify", "--fixture", "shear", "--param", "rate=1e308"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.search(r"\|J\| over the product of G's row norms is [0-9.e-]+ < 1e-14\): "
                         r"Jacobian determinant 1\.0 below degeneracy threshold", captured.err)

    @pytest.mark.parametrize("command", ["verify", "identities", "export"])
    def test_unwritable_out_usage_error(self, command, tmp_path, capsys):
        out = {"verify": tmp_path / "missing" / "x.json", "identities": tmp_path,
               "export": tmp_path / "missing" / "x.npz"}[command]
        args = ["--trials", "1"] if command == "identities" else ["--fixture", "identity"]
        code = main([command, *args, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("vortlab: --out: ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command,args,flag", [
        ("action", ["--fixture", "rigid-rotation", "--grid", "4", "--nt", "3"], "--tol"),
        ("export", ["--fixture", "identity", "--out", "x.npz"], "--tol"),
        ("identities", ["--trials", "1"], "--tol"),
        ("identities", ["--trials", "1"], "--grid"),
        ("export", ["--fixture", "identity", "--out", "x.npz"], "--seed"),
    ])
    def test_flag_the_command_does_not_read_usage_error(self, command, args, flag, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main([command, *args, flag, "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and f"unrecognized arguments: {flag} 3" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,args,flag,taken", [
        ("identities", ["--trials", "1"], "--grid", "--trials"),
        ("export", ["--fixture", "identity", "--out", "x.npz"], "--seed", "--fixture"),
        ("action", ["--fixture", "rigid-rotation"], "--tol", "--scan"),
    ])
    def test_foreign_flag_gets_the_commands_usage(self, command, args, flag, taken, tmp_path,
                                                  monkeypatch, capsys):
        # the command's own usage lists the flags it does take
        monkeypatch.chdir(tmp_path)
        code = main([command, *args, flag, "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"usage: vortlab {command} ")
        assert taken in err.split(f"vortlab {command}: error:")[0]
        assert err.endswith(f"vortlab {command}: error: unrecognized arguments: {flag} 4\n")

    @pytest.mark.parametrize("args,message", [
        (["--fixture", "identity", "--param", "t1=1", "--t1", "2"],
         "--t1 and --param t1 set the same value; give one"),
        (["--fixture", "abc", "--param", "dt=0.05", "--dt", "0.05"],
         "--dt and --param dt set the same value; give one"),
        (["--fixture", "abc", "--param", "order=2"],
         "--param order: the stencil order is set by --fd-order"),
        (["--fixture", "identity", "--dt", "0.5"],
         "--dt applies to the advected fixtures (abc, taylor-green), not 'identity'"),
        (["--fixture", "abc", "--dt", "0.05,0.025"],
         "--dt takes one step outside drift's step-pair probe, got 0.05,0.025"),
    ], ids=["t1-twice", "dt-twice", "order-param", "dt-analytic", "dt-pair-outside-drift"])
    def test_one_route_per_fixture_value_usage_error(self, args, message, capsys):
        code = main(["verify", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err == f"vortlab: {message}\n"

    def test_one_node_advected_axis_usage_error_names_the_shape(self, capsys):
        code = main(["verify", "--fixture", "abc", "--param", "shape=5,5,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("vortlab: fixture 'abc': grid shape (5, 5, 1) needs at least "
                                "two nodes per axis\n")

    def test_run_that_outgrows_memory_exits_2_naming_the_flags_that_size_it(self, monkeypatch,
                                                                            capsys):
        def nodes(grid):  # the advection's first allocation of the size of the grid
            raise MemoryError(f"Unable to allocate the label stack of shape {grid.shape}")

        monkeypatch.setattr(fields.LabelGrid, "nodes", nodes)
        code = main(["verify", "--fixture", "abc", "--param", "shape=4096,4096,4096"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "vortlab: the run outgrew memory (Unable to allocate the label stack of shape "
            "(4096, 4096, 4096)); --param shape, --grid, --nt, --dt and --t1 size it\n")

    def test_internal_error_exits_3_with_its_traceback(self, monkeypatch, capsys):
        def verify(cfg):  # a fault of vortlab, not of the flags: exit 1 would read as a failure
            raise RuntimeError("a fault in the command")

        monkeypatch.setattr(cli, "cmd_verify", verify)
        code = main(["verify", "--fixture", "shear"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):\n")
        assert captured.err.endswith(
            "RuntimeError: a fault in the command\nvortlab: internal error\n")


# every scalar keyword of every catalog maker, at values that break float arithmetic
SWEEP_VALUES = ("-1", "2", "1e308", "-1e308", "1e200", "1e-308")
SWEEP_SHAPE = {"abc": ["--param", "shape=8,8,8"], "taylor-green": ["--param", "shape=8,8,4"]}


def _scalar_keys(maker):
    return [key for key, p in inspect.signature(maker).parameters.items()
            if isinstance(p.default, numbers.Real) and not isinstance(p.default, bool)]


class TestFloatingPointPolicy:
    @pytest.mark.parametrize("command", ["verify", "action"])
    @pytest.mark.parametrize("fixture", sorted(_CATALOG))
    def test_overflow_sweep_exits_0_1_or_2(self, command, fixture, capsys):
        bad = []
        for key in _scalar_keys(_CATALOG[fixture]):
            for value in SWEEP_VALUES:
                argv = [command, "--fixture", fixture, "--grid", "4", "--nt", "3",
                        *SWEEP_SHAPE.get(fixture, []), "--param", f"{key}={value}"]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
                captured = capsys.readouterr()
                runtime = [str(w.message) for w in caught
                           if issubclass(w.category, RuntimeWarning)]
                if runtime or code not in (0, 1, 2) or (code == 2 and (
                        captured.out or not captured.err.startswith("vortlab: "))):
                    bad.append((f"{key}={value}", code, runtime, captured.err[:120]))
        assert bad == []

    def test_main_leaves_numpy_error_state_as_found(self, capsys):
        before = np.geterr()
        assert main(["verify", "--fixture", "identity", "--grid", "4", "--nt", "3"]) == 0
        assert np.geterr() == before
        assert main(["action", "--fixture", "rigid-rotation", "--grid", "4", "--nt", "3",
                     "--param", "rho0=1e308"]) == 2
        assert "a --param value is out of range for float arithmetic (" in capsys.readouterr().err
        assert np.geterr() == before
        # library code after main still only warns
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert np.isinf(np.float64(1e308) * 10)


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

    def test_negative_trials_usage_error(self, tmp_path, capsys):
        code, out = run_cli(["identities", "--trials", "-3"], capsys)
        assert code == 2 and out == ""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=-3\n")
        code = main(["identities", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("vortlab: --trials must be >= 0")

    def test_seed_reproduces_identical_bytes(self, capsys):
        _, out1 = run_cli(["identities", "--trials", "10", "--seed", "5"], capsys)
        _, out2 = run_cli(["identities", "--trials", "10", "--seed", "5"], capsys)
        assert out1 == out2


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        # separate interpreter runs must agree byte for byte
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "vortlab.cli", "verify",
               "--fixture", "rigid-rotation", "--grid", "4,4,4", "--nt", "3", "--t1", "1",
               "--seed", "3"]
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

    @pytest.mark.parametrize("second", ["argv", "file"])
    def test_second_config_usage_error(self, second, tmp_path, capsys):
        # only one --config is read: a second one, on the line or in the file, is not dropped
        b = tmp_path / "b.cfg"
        b.write_text("trials=2\nseed=5\n")
        a = tmp_path / "a.cfg"
        a.write_text("trials=1\n" + (f"config={b}\n" if second == "file" else ""))
        code = main(["identities", "--config", str(a),
                     *(["--config", str(b)] if second == "argv" else [])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("vortlab: config error: ")
        assert str(b) in captured.err

    @pytest.mark.parametrize("flag", [["--grid", "4,x,4"], ["--grid", ""], ["--dt", "0.1,fast"]])
    def test_unparsable_numbers_usage_error(self, flag, capsys):
        code = main(["verify", "--fixture", "identity", *flag])
        assert code == 2
        assert capsys.readouterr().err.startswith("vortlab: ")

    # key=value lines with verify's option names and arbitrary values, except that --grid
    # and --nt draw from small or malformed values, so no example runs long; the analytic
    # fixture given after the file wins over a fixture line, and --out stays out, so no
    # example advects a field or writes a file
    _SMALL = st.sampled_from(["2", "3", "1", "0", "-2", "", "x", "2.5", "1e1", " 3", "3,3",
                              "2,3,2", "2,,3", "3,3,3,3"])
    _CONFIG_LINES = st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["grid", "nt"]), _SMALL),
            st.tuples(
                st.sampled_from(["dt", "t0", "t1", "seed", "tol", "fd-order", "format",
                                 "param", "fixture", "config", "bogus", ""]),
                st.text(max_size=12),
            ),
        ).map(lambda kv: f"{kv[0]}={kv[1]}"),
        max_size=5,
    ).map(lambda lines: "\n".join(lines).encode("utf-8"))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(st.binary(max_size=64), _CONFIG_LINES))
    def test_fuzzed_config_runs_or_exits_2(self, tmp_path, capsys, data):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_bytes(data)
        code = main(["verify", "--config", str(cfg), "--fixture", "shear"])
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


class TestActionSharing:
    """`action` evaluates each distinct action once: one S(0) and one bump
    ladder serve the scan, its divergent control and the split."""

    ARGS = ["action", "--fixture", "rigid-rotation", "--grid", "4", "--nt", "3"]

    @pytest.mark.parametrize("flags,actions", [([], 9), (["--scan"], 9),
                                               (["--rund-trautman"], 5)])
    def test_each_distinct_action_evaluated_once(self, flags, actions, monkeypatch, capsys):
        # S(0) and one S(eps) per rung: a ladder's rungs are evaluated together,
        # so the actions a call returns are counted, not the calls
        from vortlab import variational
        count = [0]
        evaluate = variational._actions

        def counted(*args):
            values = evaluate(*args)
            count[0] += len(values)
            return values

        monkeypatch.setattr(variational, "_actions", counted)
        code, _ = run_cli(self.ARGS + flags, capsys)
        assert code == 0
        assert count[0] == actions

    @pytest.mark.parametrize("flag,block", [("--scan", "scan"),
                                            ("--rund-trautman", "rund_trautman")])
    def test_one_part_alone_reports_the_default_runs_bytes(self, flag, block, capsys):
        _, full = run_cli(self.ARGS, capsys)
        _, alone = run_cli(self.ARGS + [flag], capsys)
        full, alone = json.loads(full)[block], json.loads(alone)[block]
        if block == "rund_trautman":
            full, alone = full["ladder"], alone["ladder"]
        # repr round-trips floats, so equal dumps mean equal bits
        assert json.dumps(alone) == json.dumps(full)


class TestCommandsReachEachPublicCheck:
    """`verify` and `action` call each traced check by its public name, so the
    benchmark's span tracer, which wraps these names, records them."""

    NAMES = ("ertel_pv", "beltrami_residual", "dalembert_euler_residual",
             "momentum_residual", "density_from_map",
             "relabeling_invariance_scan", "rund_trautman_check")

    def test_each_name_records_calls(self, monkeypatch, capsys):
        # one counting wrapper per function, bound wherever a vortlab namespace holds it
        calls = dict.fromkeys(self.NAMES, 0)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "vortlab" or name.startswith("vortlab.")]
        for name in self.NAMES:
            originals = {vars(m)[name] for m in modules if name in vars(m)}
            assert len(originals) == 1, name

            def counted(*args, _fn=originals.pop(), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counted)
        assert main(["verify", "--fixture", "gerstner", "--grid", "3", "--nt", "3"]) == 0
        assert main(["action", "--fixture", "rigid-rotation", "--grid", "2", "--nt", "2"]) == 0
        capsys.readouterr()
        assert [name for name, n in calls.items() if n == 0] == []


class TestParser:
    def test_built_once_and_parses_afresh(self, capsys):
        assert build_parser() is build_parser()
        args = ["action", "--fixture", "shear", "--grid", "4", "--nt", "3", "--weak-form"]
        _, first = run_cli(args + ["--param", "rate=2"], capsys)
        _, second = run_cli(args, capsys)
        assert json.loads(first)["parameters"]["rate"] == 2
        assert json.loads(second)["parameters"]["rate"] == 1.0

    def test_version_and_usage_error_keep_their_exit_codes(self, capsys):
        for _ in range(2):
            assert main(["--version"]) == 0
            assert main(["verify"]) == 2
        assert capsys.readouterr().err.count("usage: ") == 2

    @pytest.mark.parametrize("fixture,param,recorded", [
        ("abc", "shape=8,8,8", ("shape", [8, 8, 8])),
        ("translation", "c=1,0,0", ("c", [1.0, 0.0, 0.0])),
    ])
    def test_number_list_param_is_a_tuple(self, fixture, param, recorded, capsys):
        code, out = run_cli(["verify", "--fixture", fixture, "--param", param], capsys)
        assert code == 0
        key, value = recorded
        assert json.loads(out)["parameters"][key] == value

    def test_param_value_rules(self):
        from vortlab.cli import _parse_params
        assert _parse_params(["n=2", "x=0.5", "s=abc", "v=1,2.5,-3", "w=1,a", "e=8,"]) == {
            "n": 2, "x": 0.5, "s": "abc", "v": (1, 2.5, -3), "w": "1,a", "e": "8,"}


class TestDriftCommand:
    def test_identity_all_zero(self, capsys):
        code, out = run_cli(
            ["drift", "--fixture", "identity", "--grid", "4,4,4", "--nt", "4"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert all(v == 0.0 for v in rep["cauchy"]["max_deviation"])

    def test_tol_skips_the_pipeline_read(self, monkeypatch):
        # drift reports no pipeline error, so with --tol it reads no frame for one: the
        # circulation loop alone takes no whole slice, the default tolerance takes G at t1
        slices = []
        node_gradients = SampledTrajectoryField.node_gradients
        monkeypatch.setattr(SampledTrajectoryField, "node_gradients",
                            lambda self, kind, ti: slices.append((kind, ti))
                            or node_gradients(self, kind, ti))
        assert cli.cmd_drift(cli.RunConfig(fixture="abc", tol=1.0), "circulation")[0] == 0
        assert slices == []
        assert cli.cmd_drift(cli.RunConfig(fixture="abc"), "circulation")[0] == 0
        assert slices == [("position", 20)]

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

    def test_taylor_green_step_pair_drifts_at_rounding_floor_exit_1(self, capsys):
        # README: on taylor-green both drifts sit at the rounding floor, so the ratio misses the band
        code = main(["drift", "--fixture", "taylor-green", "--dt", "0.01,0.005"])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert code == 1 and rep["pass"] is False
        assert all(0 < d < 1e-10 for d in rep["drift"])
        assert not 12.0 <= rep["drift_ratio"] <= 20.0
        # stderr names the floor, with both drifts, in one line
        assert captured.err == (f"vortlab: both Cauchy drifts {tuple(rep['drift'])} lie below "
                                "1e-10, at the rounding floor: the pair measured rounding, not "
                                "the integrator's order\n")

    @pytest.mark.parametrize("dt,t1,code", [("0.01,0.005", "0.05", 1), ("0.02,0.01", "0.1", 0)])
    def test_step_pair_passes_only_above_the_rounding_floor(self, dt, t1, code, capsys):
        # at --t1 0.05 both drifts lie below 1e-10 while their ratio lands in the band by chance
        assert main(["drift", "--fixture", "abc", "--dt", dt, "--t1", t1]) == code
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert 12.0 <= rep["drift_ratio"] <= 20.0
        assert rep["pass"] is (code == 0)
        assert (max(rep["drift"]) < 1e-10) is (code == 1) is ("rounding floor" in captured.err)

    @pytest.mark.parametrize("fixture,parameters", [("abc", {"A": 1.0, "B": 1.0, "C": 1.0}),
                                                    ("taylor-green", {})])
    def test_step_pair_records_the_velocity_parameters_and_order(self, fixture, parameters,
                                                               capsys):
        main(["drift", "--fixture", fixture, "--dt", "0.1,0.05"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["parameters"] == parameters and rep["fd_order"] == 4

    def test_step_pair_above_rounding_floor_prints_no_floor_line(self, capsys):
        assert main(["drift", "--fixture", "abc", "--dt", "0.01,0.005"]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("window,message", [
        (["--t1", "0"], "fixture 'abc': need a uniform time ladder"),
        (["--t1", "-1"], "fixture 'abc': need a uniform time ladder"),
        (["--t1", "0.013"], "fixture 'abc': t1 - t0 must be an integer number of steps"),
        (["--t0", "0.5"], "--dt pairs advect from t0 = 0"),
    ])
    def test_step_pair_window_usage_error(self, window, message, capsys):
        # the window rules of verify: a window the steps cannot cover exits 2
        code = main(["drift", "--fixture", "abc", "--dt", "0.01,0.005", *window])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and message in captured.err

    def test_step_pair_with_param_usage_error(self, capsys):
        # the probe advects the default velocity, so a --param would be ignored
        code = main(["drift", "--fixture", "abc", "--dt", "0.1,0.05", "--param", "A=2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "take no --param, got A" in captured.err

    def test_step_pair_rejected_for_analytic_fixture(self, capsys):
        code, _ = run_cli(["drift", "--fixture", "identity", "--dt", "0.1,0.05"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flags,named", [
        (["--grid", "5"], "--grid"),
        (["--nt", "4"], "--nt"),
        (["--tol", "9"], "--tol"),
        (["--grid", "9,9,9", "--nt", "9", "--tol", "9"], "--grid, --nt, --tol"),
    ])
    def test_step_pair_with_flag_it_ignores_usage_error(self, flags, named, capsys):
        # the probe's patch, stamps and pass band are its own; a flag at its default counts too
        code = main(["drift", "--fixture", "abc", "--dt", "0.1,0.05", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.endswith(f"got {named}\n")


class TestStepPairStorage:
    """The --dt probe stores only the six stamps it reads when they are steps."""

    @staticmethod
    def _probe(argv, monkeypatch, capsys, every=None):
        """(exit code, stdout, stamps stored per advected patch), storing every
        ``every``-th step when it is given."""
        stored = []
        integrate = cli.integrate_trajectories

        def recording(*args, **kwargs):
            if every is not None:
                kwargs["every"] = every
            field = integrate(*args, **kwargs)
            stored.append(len(field.times))
            return field

        monkeypatch.setattr(cli, "integrate_trajectories", recording)
        code = main(argv)
        return code, capsys.readouterr().out, stored

    @pytest.mark.parametrize("window,stored", [([], [6, 6]), (["--t1", "0.33"], [34, 67])])
    def test_probe_stores_what_it_reads_with_the_bytes_of_every_step(
            self, window, stored, monkeypatch, capsys):
        # --t1 0.33 puts the read times between steps, so every step stays stored
        argv = ["drift", "--fixture", "abc", "--dt", "0.01,0.005", *window]
        code, out, got = self._probe(argv, monkeypatch, capsys)
        assert got == stored
        every_step = self._probe(argv, monkeypatch, capsys, every=1)
        assert every_step[:2] == (code, out)
        assert code == (0 if not window else 1)

    def test_readme_pair_traced_peak_stays_small(self, capsys):
        # storing all 201 steps of the finer run traces a 23 MB peak
        tracemalloc.start()
        try:
            code = main(["drift", "--fixture", "abc", "--dt", "0.01,0.005"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(capsys.readouterr().out)["pass"]
        assert peak < 8e6, peak


class TestStencilOrderFlag:
    """--fd-order is read by the advected fixtures and by export; verify, action and drift
    compute no label stencil on any other fixture, so the flag exits 2 there."""

    @pytest.mark.parametrize("command", ["verify", "action", "drift"])
    def test_analytic_fixture_usage_error(self, command, capsys):
        for fixture in ("gerstner", "non-euler"):
            code = main([command, "--fixture", fixture, "--fd-order", "4"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("vortlab: --fd-order sets the stencils")
            assert repr(fixture) in captured.err

    def test_default_order_has_one_owner(self, capsys):
        assert build_parser().parse_args(["verify", "--fixture", "abc"]).fd_order is None
        code, out = run_cli(["verify", "--fixture", "rigid-rotation", "--grid", "3", "--nt", "3"],
                            capsys)
        assert code == 0 and json.loads(out)["fd_order"] == cli.RunConfig.fd_order == 4

    def test_export_of_an_analytic_fixture_reads_it(self, tmp_path, capsys):
        path = str(tmp_path / "g.npz")
        code = main(["export", "--fixture", "gerstner", "--grid", "5", "--nt", "3",
                     "--fd-order", "2", "--out", path])
        assert code == 0 and load_grid(path).order == 2


class TestVerifyHoldsOneStamp:
    """``verify`` on an advected fixture holds one drift stamp's frames at a time and
    differentiates each whole gradient slice it reads once: 22 slices (position and
    velocity at the 11 drift stamps), the pipeline error reading the last stamp's frame.
    Each stamp's whole velocity slice is evaluated once, for its gradient and the image."""

    def test_whole_velocity_slices_evaluated_once_per_drift_stamp(self, monkeypatch):
        shapes = []
        abc = flows.ADVECTED["abc"]

        def counted(**params):
            u = abc(**params)
            return dataclasses.replace(u, value=lambda x, t: shapes.append(np.shape(x))
                                       or u.value(x, t))

        monkeypatch.setitem(flows.ADVECTED, "abc", counted)
        assert cli.cmd_verify(cli.RunConfig(fixture="abc"))[0] == 0
        assert shapes.count((24, 24, 24, 3)) == 11

    @pytest.mark.parametrize("fixture,limit_mib", [("abc", 26), ("taylor-green", 5)])
    def test_traced_peak_and_whole_slices(self, fixture, limit_mib, monkeypatch):
        cfg = cli.RunConfig(fixture=fixture)
        cli.cmd_verify(cfg)  # warm-up: first-call allocations are not the run's
        slices = []
        node_gradients = SampledTrajectoryField.node_gradients
        monkeypatch.setattr(SampledTrajectoryField, "node_gradients",
                            lambda self, kind, ti: slices.append((kind, ti))
                            or node_gradients(self, kind, ti))
        tracemalloc.start()
        try:
            code, _ = cli.cmd_verify(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < limit_mib * 2 ** 20, peak
        assert len(slices) == len(set(slices)) == 22


class TestActionHoldsItsSlices:
    """``action`` reads the same stamps through many label stacks (S(0), the rungs, the FD
    shifts of the pressure, the flux copies): inside its holding block each whole gradient
    slice is differentiated once, and the field keeps none after the command."""

    def test_each_whole_gradient_slice_differentiated_once(self, monkeypatch):
        slices, derivatives, built = [], [], []
        node_gradients = SampledTrajectoryField.node_gradients
        monkeypatch.setattr(SampledTrajectoryField, "node_gradients",
                            lambda self, kind, ti: slices.append((kind, ti))
                            or node_gradients(self, kind, ti))
        axis_derivative = fields._axis_derivative
        monkeypatch.setattr(fields, "_axis_derivative",
                            lambda *args, **kw: derivatives.append(kw["axis"])
                            or axis_derivative(*args, **kw))
        build = cli._build_fixture
        monkeypatch.setattr(cli, "_build_fixture",
                            lambda cfg, *rest: built.append(build(cfg, *rest)) or built[-1])
        cli.cmd_action(cli.RunConfig(fixture="taylor-green"))
        assert len(slices) > len(set(slices))  # the stacks read slices again
        assert len(derivatives) == 3 * len(set(slices))  # three axes per distinct slice
        assert built[0][0].field._held is None


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

    @pytest.mark.parametrize("fixture", ["abc", "taylor-green"])
    @pytest.mark.parametrize("flag,own", [
        (["--grid", "5"], "label grid, which --param shape sets"),
        (["--nt", "3"], "integrator stamps, which --dt and --t1 set"),
    ])
    def test_advected_grid_or_stamps_flag_usage_error(self, fixture, flag, own, tmp_path,
                                                      capsys):
        # an advected fixture is saved on the grid and stamps it was advected on
        path = tmp_path / "advected.npz"
        code = main(["export", "--fixture", fixture, *flag, "--out", str(path),
                     "--param", "shape=4,4,4", "--dt", "0.25", "--t1", "0.5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not path.exists()
        assert captured.err == f"vortlab: {flag[0]}: export saves {fixture} on its own {own}\n"

    def test_advected_grid_and_stamps_follow_their_routes(self, tmp_path, capsys):
        path = tmp_path / "abc.npz"
        code, out = run_cli(["export", "--fixture", "abc", "--out", str(path),
                             "--param", "shape=4,5,6", "--dt", "0.25", "--t1", "0.5"], capsys)
        assert code == 0
        assert (json.loads(out)["shape"], json.loads(out)["times"]) == ([4, 5, 6], 3)
        field = load_grid(str(path))
        assert field.grid.shape == (4, 5, 6) and len(field.times) == 3

    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_axis_shorter_than_stencil_is_a_usage_error(self, tmp_path, capsys, suffix):
        path = tmp_path / f"wave{suffix}"
        code = main(["export", "--fixture", "gerstner", "--grid", "5,4,3", "--nt", "3",
                     "--out", str(path)])
        assert code == 2
        assert "axis2 of length 4 is too short" in capsys.readouterr().err
        assert not path.exists()

    def test_grid_shorter_than_stencil_rejected_before_sampling(self, tmp_path, monkeypatch,
                                                                capsys):
        from vortlab import cli, fields

        def sample(*args, **kwargs):
            raise AssertionError("the field was sampled before --grid was checked")

        monkeypatch.setattr(cli.SampledTrajectoryField, "from_analytic", sample)
        code = main(["export", "--fixture", "identity", "--grid", "4",
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        assert capsys.readouterr().err == (
            "vortlab: --grid axis1 of length 4 is too short for the 5-point order-4 stencils\n")
        assert list(tmp_path.iterdir()) == []

    def test_window_whose_stamps_miss_their_ladder_is_a_usage_error(self, tmp_path, capsys):
        # at t0 = 1e6 a step of 1.25e-4 rounds, so the stamps sit up to 1e-6 of a step off the
        # ladder a read locates them on: the file could not be read at its own stamps
        code = main(["export", "--fixture", "gerstner", "--t0", "1e6", "--t1", "1000000.001",
                     "--out", str(tmp_path / "x.npz")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("vortlab: --nt 9 stamps over [1000000.0, 1000000.001]: need a "
                                "uniform time ladder with >= 2 stamps\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_suffix_is_a_usage_error_and_writes_nothing(self, tmp_path, capsys):
        code = main(["export", "--fixture", "identity", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "x.txt" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_synopsis():
    """(subcommand, [(flag, metavar or "")]) for each line of the README's
    "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    rows = []
    for line in block.splitlines():
        usage = line.partition("#")[0]
        rows.append((usage.split()[1],
                     re.findall(r"(--[a-z-]+)(?:\s+([A-Z][A-Z0-9]*|\.\.\.))?", usage)))
    return rows


README_SYNOPSIS = _readme_synopsis()
# a value of the right kind for each metavar of the synopsis
SYNOPSIS_VALUES = {"NAME": "identity", "N": "3", "S": "2", "DT": "0.01,0.005",
                   "FILE": "out.npz", "...": "cauchy"}


class TestReadmeSynopsis:
    def test_block_found(self):
        assert [command for command, _ in README_SYNOPSIS] == \
            ["verify", "identities", "action", "drift", "export"]

    @pytest.mark.parametrize("command,flags", README_SYNOPSIS,
                             ids=[command for command, _ in README_SYNOPSIS])
    def test_every_flag_parses(self, command, flags):
        argv = [command]
        for flag, metavar in flags:
            argv += [flag, SYNOPSIS_VALUES[metavar]] if metavar else [flag]
        build_parser().parse_args(argv)


def _readme_examples():
    """(command, comment) for each line of the README's "Examples:" block."""
    text = README.read_text(encoding="utf-8")
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


class TestVerifyProbeStack:
    """``verify`` reads its 20 probes as one stack at their own times and one at t0, and
    Beltrami's subset of them: each of the six probe checks reports the value of a
    per-probe loop of one-label frames, computed here."""

    @pytest.mark.parametrize("name", sorted(_CATALOG))
    def test_probe_checks_equal_a_per_probe_loop(self, name, monkeypatch):
        fixture = make_fixture(name)
        monkeypatch.setattr(cli, "make_fixture", lambda *args, **params: fixture)  # built once
        field, material = fixture.field, fixture.material
        for seed in range(8):
            cfg = cli.RunConfig(fixture=name, seed=seed)
            got = {c["check"]: c["value"] for c in cli.cmd_verify(cfg)[1]["checks"]}
            window = cli._build_fixture(cfg)[1]
            labels, times = cli._sample_points(fixture, window, seed)
            h = field.dt if field.backend == "sampled" else 1e-3 * (window[1] - window[0])
            probes = [(Frame(field, a, t), Frame(field, a, field.t0))
                      for a, t in zip(labels, times.tolist())]
            bel = [p for p in probes if window[0] + 2 * h <= p[0].t <= window[1] - 2 * h][:10]

            def worst(fn, frames=probes):
                return max(float(np.max(np.abs(np.asarray(fn(*p), float)))) for p in frames)

            want = {
                "kinematic_rate_identity": worst(lambda f, _: jacobian_rate_residual(f, h)),
                "kinematic_inverse_rate_identity": worst(
                    lambda f, _: inverse_jacobian_rate_residual(f, f.read("velocity_gradient"))),
                "kinematic_convective_identity": worst(lambda f, _: convective_gradient_residual(
                    f.read("velocity"), f.read("velocity_gradient"))),
                "momentum_residual": worst(lambda f, f0: momentum_residual(
                    f, material, fixture.pressure, mass_reference(field, material, f.labels, f0))),
                "dalembert_euler_residual": worst(lambda f, _: dalembert_euler_residual(f)),
                "beltrami_residual": worst(
                    lambda f, f0: beltrami_residual(f, f0, material, h), bel),
            }
            for check, value in want.items():
                assert got[check] == value, (seed, check)
