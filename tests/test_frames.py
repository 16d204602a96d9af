"""Kinematic frames: one owner of G, J, Omega and the evaluator reads of a
(label stack, time), shared by every `verify` check and routed through `drift`."""

import json

import numpy as np
import pytest

from vortlab import cli, flows, kinematics
from vortlab.cli import main
from vortlab.errors import DegenerateMapError, OutOfDomainError
from vortlab.fields import AnalyticTrajectoryField, Box, LabelGrid, ScalarField
from vortlab.invariants import cauchy_drift
from vortlab.kinematics import Frame, jacobian
from vortlab.theorems import LabelRegion, ertel_drift, helicity_drift
from vortlab.variational import (
    RelabelGenerator,
    SpaceTimeQuadrature,
    VariationTriple,
    action,
    bump_potential,
    density_from_map,
    el_part,
    local_variation_of_triple,
    mass_reference,
    noether_boundary_term,
    weak_form_integral,
)

from support import frame_of

BACKEND_METHODS = ("position", "velocity", "acceleration", "position_gradient",
                   "velocity_gradient", "acceleration_gradient", "position_hessian")


def run_verify(args, capsys):
    code = main(["verify", *args])
    return code, json.loads(capsys.readouterr().out)


class TestFrame:
    def test_each_read_is_made_once_and_returned_as_it_is(self, monkeypatch):
        fx = flows.make_fixture("gerstner")
        nodes = LabelGrid.cell_centers(fx.field.box, (3, 2, 3)).nodes()
        calls = []
        for method in ("position_gradient", "velocity_gradient", "velocity"):
            original = getattr(fx.field, method)
            monkeypatch.setattr(fx.field, method,
                                lambda a, t, _f=original, _m=method: calls.append(_m) or _f(a, t))
        frame = Frame(fx.field, nodes, 0.4)
        first = (frame.matrix, frame.det, frame.omega, frame.image, frame.cof, frame.inv)
        second = (frame.matrix, frame.det, frame.omega, frame.image, frame.cof, frame.inv)
        assert all(x is y for x, y in zip(first, second))
        assert sorted(calls) == ["position_gradient", "velocity", "velocity_gradient"]
        assert frame.read("velocity") is frame.read("velocity")

    def test_frame_values_are_the_bundle_values(self):
        fx = flows.make_fixture("gerstner")
        a, t = np.array([2.3, 0.5, -1.1]), 0.4
        frame, of_g = Frame(fx.field, a, t), frame_of(fx.field.position_gradient(a, t))
        for name in ("matrix", "det", "cof", "inv"):
            assert np.array_equal(getattr(frame, name), getattr(of_g, name)), name

    def test_domain_checked_once_at_construction_and_not_at_shifted_reads(self):
        fx = flows.make_fixture("abc", shape=(6, 6, 6), t1=0.2, dt=0.05)
        node = fx.field.grid.nodes()[7]
        with pytest.raises(OutOfDomainError):
            Frame(fx.field, node, 0.25)
        frame = Frame(fx.field, node, 0.2)
        # a finite-difference stencil may reach past the window, as it did before frames
        assert np.array_equal(frame.read("position_gradient", 0.05),
                              fx.field.position_gradient(node, 0.25))

    def test_jacobian_checks_the_map_when_called(self):
        box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        field = AnalyticTrajectoryField(
            lambda a, t: np.stack([a[..., 0], a[..., 1], (1 - t) * a[..., 2]], axis=-1),
            box, 0.0, 2.0, position_gradient=lambda a, t: np.diag([1.0, 1.0, 1 - t]))
        frame = Frame(field, (0.1, 0.2, 0.3), 1.0)  # made lazily: nothing read yet
        with pytest.raises(DegenerateMapError):
            frame.omega
        with pytest.raises(DegenerateMapError):
            jacobian(field, (0.1, 0.2, 0.3), 1.0)


BOX = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))


def collapsing_at_one():
    """x = (a1, a2, (1 - t)^2 a3) over [0, 2]: singular at t = 1 only."""
    return AnalyticTrajectoryField(
        lambda a, t: np.stack([a[..., 0], a[..., 1], (1 - t) ** 2 * a[..., 2]], axis=-1),
        BOX, 0.0, 2.0, position_gradient=lambda a, t: np.diag([1.0, 1.0, (1 - t) ** 2]))


def ill_conditioned():
    """x = G a with one constant G of |J| = 1e-15 and unit row norms: singular at every time."""
    g = np.array([[1.0, 0.0, 0.0], [1.0, 1e-15, 0.0], [0.0, 0.0, 1.0]])
    zero = lambda a, t: np.zeros(np.shape(a))
    return AnalyticTrajectoryField(
        lambda a, t: a @ g.T, BOX, 0.0, 2.0, velocity=zero, acceleration=zero,
        position_gradient=lambda a, t: g.copy())


class TestVariationalLayerReadsThroughFrames:
    """The action and the braces judge a map as every other check does."""

    @pytest.mark.parametrize("make,t", [(collapsing_at_one, 1.0), (ill_conditioned, 0.0)])
    @pytest.mark.parametrize("call", ["action", "el_part", "noether_boundary_term",
                                      "weak_form_integral", "density_from_map"])
    def test_singular_map_raises_degenerate_map_error(self, make, t, call):
        field, material = make(), flows.make_fixture("identity").material
        quad = SpaceTimeQuadrature.midpoint(BOX, (2, 2, 2), (0.0, 2.0), 1)  # one time: t = 1
        gen = RelabelGenerator.from_curl(bump_potential(BOX))
        var = VariationTriple.relabeling(gen)
        run = {
            "action": lambda: action(field, material, quad),
            "el_part": lambda: el_part(field, material, var, quad),
            "noether_boundary_term": lambda: noether_boundary_term(field, material, var, quad),
            "weak_form_integral": lambda: weak_form_integral(
                field, material, gen, quad, ScalarField.constant(0.0)),
            "density_from_map": lambda: density_from_map(
                Frame(field, quad.space_nodes, 1.0),
                mass_reference(field, material, quad.space_nodes)),
        }[call]
        want = rf"below degeneracy threshold at a=.*, t={t}$"
        with pytest.raises(DegenerateMapError, match=want):
            run()

    @pytest.mark.parametrize("call", ["local_variation_of_triple", "convective_gradient_residual"])
    def test_out_of_box_label_raises_out_of_domain_error(self, call):
        field = flows.make_fixture("rigid-rotation").field
        var = VariationTriple.relabeling(RelabelGenerator.from_curl(bump_potential(field.box)))
        a = np.array([5.0, 0.0, 0.0])
        # each reads through the frame of (a, t), whose construction checks the domain
        run = {
            "local_variation_of_triple": lambda: local_variation_of_triple(
                Frame(field, a, 1.0), var),
            "convective_gradient_residual": lambda: kinematics.convective_gradient_residual(
                Frame(field, a, 1.0).read("velocity"),
                Frame(field, a, 1.0).read("velocity_gradient")),
        }[call]
        with pytest.raises(OutOfDomainError, match=r"label \(5\.0, 0\.0, 0\.0\) outside"):
            run()


class TestVerifyReadsEachFrameOnce:
    """Counts named before frames landed, under ``verify --seed 1``.  Before,
    abc made 23 stacked Omega builds, 35 stacked checked determinants and 535
    evaluator calls; gerstner 24 Omega builds and 492 evaluator calls.  With
    one frame per probe, abc made 11 stacked Omega builds (the probes' one-label
    builds uncounted), 22 stacked determinants and at most 330 evaluator calls,
    gerstner 19 Omega builds and at most 340 evaluator calls.  The probes' two
    stacked frames add the Cauchy residual of the probe stack and Omega of the
    probe stack at t0, which Beltrami reads (2 builds), and a checked
    determinant on each frame (2)."""

    @staticmethod
    def count(fixture, monkeypatch, capsys):
        counts = {"omega": 0, "det": 0, "evaluator": 0}
        curl, det = kinematics.gradient_curl, kinematics.checked_det

        def counting_curl(gw, g):
            counts["omega"] += np.ndim(g) > 2  # verify reads the Cauchy residual on probes only
            return curl(gw, g)

        def counting_det(g, a=None, t=None):
            counts["det"] += np.ndim(g) > 2
            return det(g, a, t)

        def counting_fixture(name, **params):
            fx = flows.make_fixture(name, **params)
            for method in BACKEND_METHODS:
                original = getattr(fx.field, method)

                def wrapper(a, t, _f=original):
                    counts["evaluator"] += 1
                    return _f(a, t)

                setattr(fx.field, method, wrapper)
            return fx

        monkeypatch.setattr(kinematics, "gradient_curl", counting_curl)
        monkeypatch.setattr(kinematics, "checked_det", counting_det)
        monkeypatch.setattr(cli, "make_fixture", counting_fixture)
        code, _ = run_verify(["--fixture", fixture, "--seed", "1"], capsys)
        assert code == 0
        return counts

    def test_abc(self, monkeypatch, capsys):
        counts = self.count("abc", monkeypatch, capsys)
        assert counts["omega"] == 13
        assert counts["det"] == 24
        assert counts["evaluator"] <= 82

    def test_gerstner(self, monkeypatch, capsys):
        counts = self.count("gerstner", monkeypatch, capsys)
        assert counts["omega"] == 21
        assert counts["det"] == 30
        assert counts["evaluator"] <= 73


class TestSharedFramesKeepStandaloneValues:
    """``cauchy_drift``, ``ertel_drift`` and ``helicity_drift`` called alone give
    the bits ``verify`` reports through the frames it shares between them."""

    @pytest.mark.parametrize("fixture", ["abc", "taylor-green", "gerstner"])
    def test_bitwise(self, fixture, capsys):
        code, report = run_verify(["--fixture", fixture], capsys)
        assert code == 0
        checks = {c["check"]: c for c in report["checks"]}
        fx = flows.make_fixture(fixture)
        field, box = fx.field, fx.field.box
        if field.backend == "sampled":
            grid, times = field.grid, field.times[::(len(field.times) - 1) // 8]
            small = grid
            region = LabelRegion(fx.spec.box, grid.shape, periodic=True)
        else:
            grid, times = LabelGrid.cell_centers(box, (9, 9, 9)), np.linspace(field.t0, field.t1, 9)
            small = LabelGrid.cell_centers(box, (5, 5, 5))
            region = LabelRegion(fx.spec.box, (9, 9, 9))
        assert times[-1] == field.t1
        S = ScalarField(value=lambda a, t: a[..., 2],
                        gradient_fn=lambda a, t: np.array([0.0, 0.0, 1.0]))
        cauchy = cauchy_drift(field, grid, times)
        ertel = ertel_drift(field, fx.material, S, small, times[::max(1, len(times) // 5)])
        hel = helicity_drift(field, region, times[::max(1, len(times) // 4)])
        assert checks["cauchy_drift"]["value"] == cauchy.max_drift
        assert checks["ertel_drift"]["value"] == ertel.max_drift
        assert checks["helicity_drift"]["value"] == hel.max_drift
        assert checks["helicity_drift"]["helicity"] == hel.values[0]


class TestShortWindow:
    @pytest.mark.parametrize("args", [
        ["--fixture", "abc", "--t1", "0.1"],
        ["--fixture", "abc", "--t1", "0.15"],
        ["--fixture", "abc", "--t0", "0.9"],
        ["--fixture", "taylor-green", "--t1", "0.1"],
    ])
    def test_window_too_short_for_the_probes_is_a_usage_error(self, args, capsys):
        assert main(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "use a window >= 0.2" in captured.err


class TestDriftTheorem:
    @pytest.mark.parametrize("theorem", ["cauchy", "circulation", "ertel", "helicity"])
    def test_each_theorem_reports_the_drift_verify_measures(self, theorem, capsys):
        args = ["--fixture", "rigid-rotation", "--grid", "5", "--nt", "5"]
        code = main(["drift", *args, "--theorem", theorem])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["pass"] is True
        assert set(report) & {"cauchy", "circulation", "ertel", "helicity"} == {theorem}
        drift = report[theorem]
        assert drift["theorem"] == theorem and len(drift["times"]) >= 2
        _, verified = run_verify(args, capsys)
        check = {c["check"]: c for c in verified["checks"]}[f"{theorem}_drift"]
        assert max(drift["max_deviation"]) == check["value"]
        assert drift["tolerance"] == check["tolerance"]

    def test_default_is_cauchy(self, capsys):
        args = ["drift", "--fixture", "identity", "--grid", "4", "--nt", "3"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + ["--theorem", "cauchy"]) == 0
        assert capsys.readouterr().out == default

    def test_unknown_theorem_and_step_pair_are_usage_errors(self, capsys):
        assert main(["drift", "--fixture", "identity", "--theorem", "beltrami"]) == 2
        assert main(["drift", "--fixture", "abc", "--dt", "0.01,0.005", "--theorem", "ertel"]) == 2
        assert "Cauchy drift" in capsys.readouterr().err


class TestPerLabelTimeErrors:
    """An error from a stack with a time per label names the first offending label and that
    label's own time: the one-label call's error, word for word."""

    @staticmethod
    def message(call):
        with pytest.raises(Exception) as info:
            call()
        return type(info.value), str(info.value)

    def test_singular_map(self):
        field = collapsing_at_one()
        labels = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        times = np.array([0.5, 1.0, 1.0])
        got = self.message(lambda: Frame(field, labels, times).det)
        assert got == self.message(lambda: jacobian(field, labels[1], 1.0))
        assert got[0] is DegenerateMapError and "t=1.0" in got[1]

    @pytest.mark.parametrize("times, first", [((0.5, 2.5, 0.5), 1), ((0.5, 0.5, 2.5), 2)])
    def test_out_of_domain(self, times, first):
        field = collapsing_at_one()  # window [0, 2]; the third label lies outside the box
        labels = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [1.5, 0.0, 0.0]])
        got = self.message(lambda: Frame(field, labels, np.array(times)))
        assert got == self.message(lambda: Frame(field, labels[first], times[first]))
        assert got[0] is OutOfDomainError

    def test_non_positive_density(self):
        fx = flows.make_fixture("gerstner")
        labels = LabelGrid.cell_centers(fx.field.box, (3, 1, 1)).nodes()
        times = np.array([0.2, 0.4, 0.6])
        rho0j0 = np.array([1.0, 1.0, -1.0])
        got = self.message(lambda: density_from_map(Frame(fx.field, labels, times), rho0j0))
        assert got == self.message(
            lambda: density_from_map(Frame(fx.field, labels[2], 0.6), rho0j0[2]))
        assert "t=0.6" in got[1]
