"""Vorticity-theorem diagnostics: residuals, circulation, helicity."""

import math

import numpy as np
import pytest

from vortlab import flows, theorems
from vortlab.errors import (
    DegenerateMapError,
    NonPositiveDensityError,
    OutOfDomainError,
    VortlabError,
)
from vortlab.fields import (
    AnalyticTrajectoryField,
    Box,
    LabelGrid,
    SampledTrajectoryField,
    ScalarField,
)
from vortlab.invariants import cauchy_drift, cauchy_residual, lagrangian_vorticity
from vortlab.kinematics import Frame, jacobian
from vortlab.theorems import (
    LabelLoop,
    LabelRegion,
    beltrami_residual,
    boundary_tangency,
    circulation_drift,
    dalembert_euler_residual,
    ertel_drift,
    ertel_pv,
    ertel_pv_label_form,
    helicity_drift,
)
from vortlab.variational import FlowMaterial, mass_reference

S_LABEL = ScalarField(
    value=lambda a, t: a[..., 2], gradient_fn=lambda a, t: np.array([0.0, 0.0, 1.0])
)


def pv_at(field, material, S, a, t):
    """Ertel's q at labels ``a`` and time t, through the frame of (a, t)."""
    return ertel_pv(Frame(field, a, t), S, mass_reference(field, material, a))


def beltrami_at(field, material, a, t, dt_fd):
    """The Beltrami residual at labels ``a`` and time t, from the frames of (a, t) and (a, t0)."""
    return beltrami_residual(Frame(field, a, t), Frame(field, a, field.t0), material, dt_fd)


class TestDalembertEuler:
    def test_translation_zero(self):
        fx = flows.make_fixture("translation")
        assert np.allclose(dalembert_euler_residual(Frame(fx.field, (0.1, 0.2, 0.3), 0.5)), 0.0)

    def test_gerstner_extremal(self):
        fx = flows.make_fixture("gerstner")
        a = np.array([2.0, 0.5, -1.0])
        for t in np.linspace(fx.field.t0, fx.field.t1, 5):
            assert np.max(np.abs(dalembert_euler_residual(Frame(fx.field, a, t)))) < 1e-8

    def test_equals_cofactor_solve_of_cauchy_residual(self):
        fx = flows.make_fixture("non-euler")
        a, t = np.array([0.3, 0.8, -0.2]), 0.9
        lhs = dalembert_euler_residual(Frame(fx.field, a, t))
        bundle = jacobian(fx.field, a, t)
        rhs = np.linalg.solve(np.asarray(bundle.cof, float).T,
                              cauchy_residual(fx.field, a, t).astype(float))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs)) > 1e-3


class TestBeltrami:
    def test_translation_zero(self):
        fx = flows.make_fixture("translation")
        r = beltrami_at(fx.field, fx.material, (0.1, 0.1, 0.1), 0.5, 1e-3)
        assert np.max(np.abs(r)) < 1e-12

    def test_rotation_both_sides_vanish(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        r = beltrami_at(fx.field, fx.material, (0.4, -0.1, 0.3), 3.3, 1e-3)
        assert np.max(np.abs(r)) < 1e-8

    def test_abc_converges_second_order_in_dt_fd(self):
        fx = flows.make_fixture("abc", shape=(24, 24, 24), t1=1.0, dt=0.0125)
        a = np.array([1.3, 2.1, 0.7])
        norms = []
        for dtf in (0.2, 0.1, 0.05):
            r = beltrami_at(fx.field, fx.material, a, 0.5, dtf)
            norms.append(float(np.linalg.norm(r)))
        assert 2.5 < norms[0] / norms[1] < 6.0
        assert 2.5 < norms[1] / norms[2] < 6.0


class TestErtel:
    def test_constant_scalar_gives_zero(self):
        fx = flows.make_fixture("gerstner")
        S = ScalarField.constant(4.0)
        assert abs(pv_at(fx.field, fx.material, S, (2.0, 0.5, -1.0), 0.3)) < 1e-14

    def test_rotation_value_and_drift(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        q = pv_at(fx.field, fx.material, S_LABEL, (0.4, 0.2, 0.1), 2.2)
        assert q == pytest.approx(2.0, abs=1e-12)
        grid = LabelGrid.cell_centers(fx.field.box, (4, 4, 4))
        rep = ertel_drift(fx.field, fx.material, S_LABEL, grid, np.linspace(0, 5, 5))
        assert rep.max_drift <= 1e-10

    def test_two_routes_agree(self):
        fx = flows.make_fixture("gerstner")
        rng = np.random.default_rng(8)
        box = fx.field.box
        for _ in range(25):
            a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
            t = rng.uniform(fx.field.t0, fx.field.t1)
            q1 = pv_at(fx.field, fx.material, S_LABEL, a, t)
            q2 = ertel_pv_label_form(fx.field, fx.material, S_LABEL, a, t)
            assert abs(q1 - q2) <= 1e-10 * max(1.0, abs(q1))

    def test_gerstner_drift_over_period(self):
        fx = flows.make_fixture("gerstner")
        grid = LabelGrid.cell_centers(fx.field.box, (5, 3, 5))
        rep = ertel_drift(fx.field, fx.material, S_LABEL, grid,
                          np.linspace(fx.field.t0, fx.field.t1, 5))
        assert rep.max_drift <= 1e-8


# S = a1 a2 + a3^2 / 2: a label-only scalar whose gradient varies over the grid
S_QUADRATIC = ScalarField(
    value=lambda a, t: a[..., 0] * a[..., 1] + 0.5 * a[..., 2] ** 2,
    gradient_fn=lambda a, t: np.stack([a[..., 1], a[..., 0], a[..., 2]], axis=-1).astype(float),
)


def _ertel_drift_by_pointwise_loop(field, material, S, grid, times):
    """(max, L2) deviations of ertel_pv from its value at times[0], node by node."""
    nodes = grid.nodes()
    base = np.array([pv_at(field, material, S, a, times[0]) for a in nodes])
    max_dev, l2_dev = [], []
    for t in times:
        diff = np.abs(np.array([pv_at(field, material, S, a, t) for a in nodes]) - base)
        max_dev.append(float(diff.max()))
        l2_dev.append(math.sqrt(float(np.sum(diff**2)) * grid.cell_volume))
    return max_dev, l2_dev


def _small_abc():
    return flows.make_fixture("abc", shape=(6, 6, 6), t1=0.2, dt=0.05)


class TestErtelBatched:
    @pytest.mark.parametrize("case", ["sampled-own-grid", "sampled-off-node", "closed-form"])
    def test_matches_pointwise_loop(self, case):
        if case == "closed-form":
            # the non-Euler map drifts, so the comparison is not between zeros
            fx = flows.make_fixture("non-euler")
            grid = LabelGrid.cell_centers(fx.field.box, (5, 5, 5))
            times = np.linspace(fx.field.t0, fx.field.t1, 4)
        else:
            fx = _small_abc()
            own = case == "sampled-own-grid"
            grid = fx.field.grid if own else LabelGrid.cell_centers(fx.field.box, (4, 4, 4))
            times = fx.field.times[::2]
        rep = ertel_drift(fx.field, fx.material, S_QUADRATIC, grid, times)
        max_dev, l2_dev = _ertel_drift_by_pointwise_loop(
            fx.field, fx.material, S_QUADRATIC, grid, times)
        assert max(max_dev) > 1e-8
        assert np.allclose(rep.max_deviation, max_dev, rtol=0.0, atol=1e-12)
        assert np.allclose(rep.l2_deviation, l2_dev, rtol=0.0, atol=1e-12)

    def test_grid_beyond_box_raises_like_pointwise(self):
        fx = flows.make_fixture("gerstner")
        lo, hi = np.asarray(fx.field.box.lo), np.asarray(fx.field.box.hi)
        grid = LabelGrid.cell_centers(Box(tuple(lo), tuple(hi + fx.field.box.extent)), (3, 3, 3))
        with pytest.raises(OutOfDomainError):
            pv_at(fx.field, fx.material, S_LABEL, grid.nodes()[-1], 0.0)
        with pytest.raises(OutOfDomainError):
            ertel_drift(fx.field, fx.material, S_LABEL, grid, [0.0, 0.5])

    def test_time_beyond_stored_window_raises_on_own_grid(self):
        fx = _small_abc()
        late = fx.field.t1 + fx.field.dt
        with pytest.raises(OutOfDomainError):
            pv_at(fx.field, fx.material, S_LABEL, fx.field.grid.nodes()[0], late)
        with pytest.raises(OutOfDomainError):
            ertel_drift(fx.field, fx.material, S_LABEL, fx.field.grid, [fx.field.t0, late])
        with pytest.raises(OutOfDomainError):
            cauchy_drift(fx.field, fx.field.grid, [fx.field.t0, late])

    def test_singular_map_raises_like_pointwise(self):
        g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-16]])
        box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        field = AnalyticTrajectoryField(
            lambda a, t: g @ a, box,
            position_gradient=lambda a, t: g.copy(),
            velocity_gradient=lambda a, t: np.zeros((3, 3)),
        )
        material = flows.make_fixture("identity").material
        grid = LabelGrid.cell_centers(box, (2, 2, 2))
        with pytest.raises(DegenerateMapError):
            pv_at(field, material, S_LABEL, grid.nodes()[0], 0.5)
        with pytest.raises(DegenerateMapError):
            ertel_drift(field, material, S_LABEL, grid, [0.0, 0.5])

    def test_negative_initial_density_raises_like_pointwise(self):
        fx = flows.make_fixture("gerstner")
        material = FlowMaterial(
            rho0=ScalarField.constant(-1.0), eos=fx.material.eos,
            potential=fx.material.potential,
        )
        grid = LabelGrid.cell_centers(fx.field.box, (2, 2, 2))
        with pytest.raises(NonPositiveDensityError):
            pv_at(fx.field, material, S_LABEL, grid.nodes()[0], 0.5)
        with pytest.raises(NonPositiveDensityError):
            ertel_drift(fx.field, material, S_LABEL, grid, [0.0, 0.5])


class TestGridDriftEvaluatesOncePerTime:
    """Grid drifts make one evaluator call per time and gradient kind over all
    nodes: the trilinear lookups they trigger do not grow with the node count,
    and Ertel's q is evaluated once per time, on the frame of all nodes."""

    def test_lookups_bounded_per_time_and_kind(self, monkeypatch):
        calls = {"_locate": 0, "ertel_pv": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(SampledTrajectoryField, "_locate")
        counting(theorems, "ertel_pv")
        times = [0.0, 0.125, 0.25, 0.5]  # 0.125 lies between stored slices
        counts = []
        for shape in ((8, 8, 4), (24, 24, 4)):
            fx = flows.make_fixture("taylor-green", shape=shape, t1=0.5)
            box = fx.field.box
            loop = LabelLoop.circle(box.center, 0.2 * float(min(box.extent)))
            reports = {
                "ertel": lambda: ertel_drift(fx.field, fx.material, S_LABEL, fx.field.grid, times),
                "cauchy": lambda: cauchy_drift(fx.field, fx.field.grid, times),
                "circulation": lambda: circulation_drift(fx.field, loop, times),
                "helicity": lambda: helicity_drift(fx.field, LabelRegion(box, (4, 4, 2)), times),
            }
            count = {}
            for name, report in reports.items():
                calls.update({"_locate": 0, "ertel_pv": 0})
                report()
                count[name] = calls["_locate"]
                assert calls["ertel_pv"] == (len(times) if name == "ertel" else 0)
            counts.append(count)
        # ertel and cauchy: position and velocity per time (ertel's rho0 J0 at t0 reads the
        # frame of times[0], which is t0); at most two slices per evaluation
        assert counts[0] == counts[1]
        assert 0 < counts[0]["ertel"] + counts[0]["cauchy"] <= 2 * (1 + 4 * len(times))
        # lookups pinned per report (circulation: position gradient and
        # velocity per time; helicity: those and the velocity gradient, plus
        # the boundary-tangency vorticity at times[0]); the last stamp, 0.5, is
        # one lookup, not two with the slice before it at weight 0
        assert counts[0] == {"ertel": 10, "cauchy": 10, "circulation": 10, "helicity": 17}
        # the counters see pointwise work when there is some
        calls.update({"_locate": 0, "ertel_pv": 0})
        node = fx.field.grid.nodes()[1]
        theorems.ertel_pv(Frame(fx.field, node, 0.125), S_LABEL,
                          mass_reference(fx.field, fx.material, node))
        assert calls["ertel_pv"] == 1 and calls["_locate"] > 0


class TestCirculation:
    def test_identity_zero(self):
        fx = flows.make_fixture("identity")
        loop = LabelLoop.circle((0.0, 0.0, 0.0), 0.5)
        assert abs(circulation_drift(fx.field, loop, [0.5]).values[0]) < 1e-14

    def test_rotation_exact_value_and_drift(self):
        # vorticity 2 omega0 times the enclosed area pi r^2
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        loop = LabelLoop.circle((0.0, 0.0, 0.0), 1.0, nodes=64)
        rep = circulation_drift(fx.field, loop, np.linspace(0.0, 10.0, 7))
        assert rep.values[0] == pytest.approx(2.0 * math.pi, abs=1e-10)
        assert rep.max_drift <= 1e-10

    def test_stokes_self_consistency(self):
        # Gamma(r) / (pi r^2) approaches Omega . n at second order in r
        fx = flows.make_fixture("gerstner")
        center = np.array([2.0, 0.5, -1.0])
        omega = lagrangian_vorticity(fx.field, center, 0.2)
        errs = []
        for r in (0.2, 0.1, 0.05):
            loop = LabelLoop.circle(center, r, nodes=128, axes=(2, 0))
            gamma = circulation_drift(fx.field, loop, [0.2]).values[0]
            errs.append(abs(gamma / (math.pi * r * r) - omega[1]))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_drift_builds_the_loop_quadrature_once(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        c = LabelLoop.circle((0.1, -0.2, 0.3), 0.5, nodes=16)
        points = []
        loop = LabelLoop(point=lambda s: points.append(s) or c.point(s), tangent=c.tangent,
                         nodes=16)
        points.clear()  # the closure check's two calls
        times = np.linspace(0.0, 1.0, 9)
        rep = circulation_drift(fx.field, loop, times)
        assert len(points) == 16
        assert rep.values == [circulation_drift(fx.field, c, [t]).values[0] for t in times]

    def test_loop_validation(self):
        with pytest.raises(VortlabError):
            LabelLoop.circle((0, 0, 0), 0.5, nodes=4)
        with pytest.raises(VortlabError):
            LabelLoop(point=lambda s: np.array([s, 0.0, 0.0]),
                      tangent=lambda s: np.array([1.0, 0.0, 0.0]))


class TestHelicity:
    def test_planar_flow_zero(self):
        # rotation: vorticity along x3, velocity planar
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        region = LabelRegion(fx.field.box, (6, 6, 6))
        assert abs(helicity_drift(fx.field, region, [1.0]).values[0]) < 1e-12

    def test_identity_zero(self):
        fx = flows.make_fixture("identity")
        region = LabelRegion(fx.field.box, (4, 4, 4))
        assert helicity_drift(fx.field, region, [0.5]).values[0] == 0.0

    def test_abc_value_and_drift(self):
        fx = flows.make_fixture("abc", shape=(24, 24, 24), t1=0.5, dt=0.05)
        region = LabelRegion(fx.spec.box, (24, 24, 24), periodic=True)
        oracle = 3.0 * (2.0 * math.pi) ** 3
        rep = helicity_drift(fx.field, region, [0.0, 0.25, 0.5])
        assert abs(rep.values[0] - oracle) / oracle < 5e-3
        assert rep.max_drift / oracle < 1e-3

    def test_tangency_number(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        region = LabelRegion(fx.field.box, (6, 6, 6))
        # Omega = 2 omega0 e3 crosses the x3 faces: |Omega . n| ds = 2 * (1/3)^2
        assert boundary_tangency(fx.field, region, 0.0) == pytest.approx(2.0 / 9.0, rel=1e-10)

    def test_region_must_fit_domain(self):
        fx = flows.make_fixture("identity")
        region = LabelRegion(
            flows.Box((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0)), (4, 4, 4)
        )
        with pytest.raises(VortlabError):
            helicity_drift(fx.field, region, [0.0])

    def test_region_past_the_box_names_its_first_outside_label(self):
        fx = flows.make_fixture("rigid-rotation")
        # cell centers on a1: -0.6875, -0.0625, 0.5625, 1.1875; the box ends at 1
        region = LabelRegion(Box((-1.0, -1.0, -1.0), (1.5, 1.0, 1.0)), (4, 4, 4))
        with pytest.raises(OutOfDomainError, match=r"label \(1\.1875, -0\.75, -0\.75\) outside"):
            helicity_drift(fx.field, region, [0.0])
