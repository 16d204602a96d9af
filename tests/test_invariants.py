"""Image fields, the Cauchy-invariant residual and its drift."""

import random
from fractions import Fraction

import numpy as np

import pytest

from vortlab import flows
from vortlab.errors import DegenerateMapError
from vortlab.fields import (
    AnalyticTrajectoryField,
    Box,
    LabelGrid,
    PolynomialTrajectoryField,
    ScalarField,
    VectorField,
    fd_jacobian,
    matvec,
)
from vortlab.invariants import (
    cauchy_drift,
    cauchy_residual,
    cauchy_vorticity_reconstruct,
    image_velocity,
    lagrangian_vorticity,
    lagrangian_vorticity_pullback,
)
from vortlab.kinematics import Frame, gradient_curl, jacobian
from vortlab.poly import Poly, random_point, random_poly
from vortlab.theorems import dalembert_euler_residual, ertel_pv
from vortlab.variational import mass_reference

BOX = Box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))


class TestImageVelocity:
    def test_translation_gives_constant(self):
        fx = flows.make_fixture("translation", c=(1.0, 0.5, 0.0))
        V = image_velocity(fx.field, (0.2, 0.2, 0.2), 0.9)
        assert np.allclose(V, [1.0, 0.5, 0.0])

    def test_identity_gives_zero(self):
        fx = flows.make_fixture("identity")
        assert np.allclose(image_velocity(fx.field, (0.2, 0.2, 0.2), 0.5), 0.0)

    def test_rotation_matches_symbolic(self):
        # V = omega0 (-a2, a1, 0), independent of time
        fx = flows.make_fixture("rigid-rotation", omega0=1.5)
        a = np.array([0.3, -0.2, 0.7])
        for t in (0.0, 1.7, 6.1):
            assert np.allclose(image_velocity(fx.field, a, t),
                               [1.5 * 0.2, 1.5 * 0.3, 0.0], atol=1e-13)

    def test_circulation_form_identity(self):
        # V . da equals v . (G da) to rounding for random probes
        fx = flows.make_fixture("gerstner")
        rng = np.random.default_rng(42)
        box = fx.field.box
        for _ in range(100):
            a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
            t = rng.uniform(fx.field.t0, fx.field.t1)
            da = rng.normal(size=3)
            V = image_velocity(fx.field, a, t)
            g = fx.field.position_gradient(a, t)
            v = fx.field.velocity(a, t)
            assert abs(float(V @ da) - float(v @ (g @ da))) < 1e-12


class TestLagrangianVorticity:
    def test_translation_zero(self):
        fx = flows.make_fixture("translation")
        assert np.allclose(lagrangian_vorticity(fx.field, (0.1, 0.1, 0.1), 0.3), 0.0)

    def test_rotation_value(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        assert np.allclose(lagrangian_vorticity(fx.field, (0.4, 0.1, -0.2), 4.2),
                           [0.0, 0.0, 2.0], atol=1e-12)

    def test_matches_fd_curl_of_image_velocity(self):
        fx = flows.make_fixture("gerstner")
        a, t = np.array([1.5, 0.5, -1.2]), 0.4
        Vfield = VectorField(value=lambda aa, tt: image_velocity(fx.field, aa, t))
        assert np.allclose(lagrangian_vorticity(fx.field, a, t),
                           Vfield.curl(a, 0.0), atol=1e-9)

    def test_irrotational_polynomial_map_exactly_zero(self):
        # x = a + t grad(phi): the velocity image is an exact label gradient
        rng = random.Random(12)
        phi = Fraction(1, 4) * random_poly(rng, 4, degree=3, nterms=5)
        deltas = [Poly.variable(4, 3) * phi.diff(i) for i in range(3)]
        fld = PolynomialTrajectoryField.identity_plus(deltas, BOX, -1.0, 1.0)
        for _ in range(10):
            a = random_point(rng, 3, 4)
            t = random_point(rng, 1, 4)[0]
            omega = lagrangian_vorticity(fld, a, t)
            assert all(v == 0 for v in omega)

    def test_divergence_free_numerically_on_analytic_backend(self):
        fx = flows.make_fixture("gerstner")
        t = 0.4
        for a in ([1.8, 0.5, -1.3], [3.0, 0.2, -2.0]):
            d = fd_jacobian(lambda b: lagrangian_vorticity(fx.field, b, t), a, 1e-3)
            assert abs(d[0, 0] + d[1, 1] + d[2, 2]) < 1e-8

    def test_divergence_free_symbolically(self):
        # div(Omega) is the zero polynomial for random polynomial maps
        rng = random.Random(21)
        for _ in range(10):
            deltas = [Fraction(1, 8) * random_poly(rng, 4) for _ in range(3)]
            comps = [Poly.variable(4, i) + d for i, d in enumerate(deltas)]
            grad = [[c.diff(j) for j in range(3)] for c in comps]
            vgrad = [[c.diff(3).diff(j) for j in range(3)] for c in comps]
            m = [[sum((vgrad[k][j] * grad[k][i] for k in range(3)), Poly(4, {}))
                  for i in range(3)] for j in range(3)]
            omega = [m[1][2] - m[2][1], m[2][0] - m[0][2], m[0][1] - m[1][0]]
            div = omega[0].diff(0) + omega[1].diff(1) + omega[2].diff(2)
            assert div.is_zero


class TestPullbackForm:
    def test_identity_map(self):
        fx = flows.make_fixture("identity")
        out = lagrangian_vorticity_pullback(fx.field, (0.0, 0.0, 2.0), (0.1, 0.1, 0.1), 0.2)
        assert np.allclose(out, [0.0, 0.0, 2.0])

    def test_rotation_fixes_axis(self):
        fx = flows.make_fixture("rigid-rotation", omega0=0.7)
        out = lagrangian_vorticity_pullback(fx.field, (0.0, 0.0, 1.4), (0.3, 0.1, 0.0), 3.0)
        assert np.allclose(out, [0.0, 0.0, 1.4], atol=1e-13)

    def test_dilation_cofactor_scaling(self):
        fx = flows.make_fixture("dilation")
        out = lagrangian_vorticity_pullback(fx.field, (1.0, 0.0, 0.0), (0.1, 0.1, 0.1), 1.0)
        assert np.allclose(out, [4.0, 0.0, 0.0])

    def test_two_constructions_agree(self):
        # curl form vs cofactor pullback of the physical-space vorticity,
        # with omega recovered from the Eulerian velocity gradient
        fx = flows.make_fixture("gerstner")
        box = fx.field.box
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
            t = rng.uniform(fx.field.t0, fx.field.t1)
            om_label = lagrangian_vorticity(fx.field, a, t)
            bundle = jacobian(fx.field, a, t)
            du = fx.field.velocity_gradient(a, t) @ np.asarray(bundle.inv, float)
            omega_x = np.array([du[2, 1] - du[1, 2], du[0, 2] - du[2, 0], du[1, 0] - du[0, 1]])
            om_pull = lagrangian_vorticity_pullback(fx.field, omega_x, a, t)
            assert np.allclose(om_label, om_pull, atol=1e-10)

    def test_gerstner_vorticity_magnitude_oracle(self):
        # trochoidal-wave vorticity magnitude: 2 k c exp(2kb) / (1 - exp(2kb))
        fx = flows.make_fixture("gerstner")
        k = fx.spec.parameters["wavenumber"]
        c = (fx.spec.parameters["gravity"] / k) ** 0.5
        a = np.array([1.0, 0.5, -1.5])
        om = lagrangian_vorticity(fx.field, a, 0.3)
        E2 = np.exp(2 * k * a[2])
        omega_mag = 2.0 * k * c * E2 / (1.0 - E2)
        # label image scales by J = 1 - exp(2kb) along the invariant axis
        assert abs(abs(om[1]) - omega_mag * (1.0 - E2)) < 1e-10
        assert abs(om[0]) < 1e-13 and abs(om[2]) < 1e-13

    def test_flux_form_identity(self):
        # Omega . ds equals omega . (cof ds) to rounding on random bundles
        rng = random.Random(77)
        nprng = np.random.default_rng(77)
        count = 0
        while count < 100:
            deltas = [Fraction(1, 8) * random_poly(rng, 4) for _ in range(3)]
            fld = PolynomialTrajectoryField.identity_plus(deltas, BOX, -1.0, 1.0)
            a = np.array([nprng.uniform(-1, 1) for _ in range(3)])
            t = nprng.uniform(-1, 1)
            try:
                bundle = jacobian(fld, a, t)
            except Exception:
                continue
            omega_x = nprng.normal(size=3)
            ds = nprng.normal(size=3)
            omega_label = lagrangian_vorticity_pullback(fld, omega_x, a, t)
            lhs = float(omega_label @ ds)
            rhs = float(omega_x @ (np.asarray(bundle.cof, float) @ ds))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            count += 1


class TestCauchyResidual:
    def test_identity_and_translation(self):
        for name in ("identity", "translation"):
            fx = flows.make_fixture(name)
            assert np.allclose(cauchy_residual(fx.field, (0.1, 0.2, 0.3), 0.4), 0.0)

    def test_rotation_solves_euler(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        r = cauchy_residual(fx.field, (0.5, -0.5, 0.2), 7.7)
        assert np.max(np.abs(r)) < 1e-10

    def test_non_euler_map_detected(self):
        fx = flows.make_fixture("non-euler")
        r = cauchy_residual(fx.field, (Fraction(0), Fraction(1), Fraction(0)), Fraction(1))
        assert list(r) == [0, 0, -4]

    def test_matches_fd_curl_of_assembled_rate(self):
        # oracle: finite-difference curl of dV/dt = G^T xddot + dG^T/dt xdot
        fx = flows.make_fixture("non-euler")

        def vdot(a, t=1.0):
            g = fx.field.position_gradient(a, t).astype(float)
            gv = fx.field.velocity_gradient(a, t).astype(float)
            return matvec(np.swapaxes(g, -1, -2), fx.field.acceleration(a, t).astype(float)) + \
                matvec(np.swapaxes(gv, -1, -2), fx.field.velocity(a, t).astype(float))

        field = VectorField(value=lambda a, t: vdot(a))
        a = np.array([0.0, 1.0, 0.0])
        assert np.allclose(field.curl(a, 0.0), cauchy_residual(fx.field, a, 1.0), atol=1e-9)


class TestCauchyDrift:
    def test_rotation_drift_tiny(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=10.0)
        grid = LabelGrid.cell_centers(fx.field.box, (7, 7, 7))
        rep = cauchy_drift(fx.field, grid, np.linspace(0.0, 10.0, 9))
        assert rep.max_drift <= 1e-10
        assert rep.max_deviation[0] == 0.0

    def test_gerstner_drift_tiny(self):
        fx = flows.make_fixture("gerstner")
        grid = LabelGrid.cell_centers(fx.field.box, (7, 5, 7))
        rep = cauchy_drift(fx.field, grid, np.linspace(fx.field.t0, fx.field.t1, 7))
        assert rep.max_drift <= 1e-10

    def test_report_serialization(self):
        fx = flows.make_fixture("rigid-rotation")
        grid = LabelGrid.cell_centers(fx.field.box, (3, 3, 3))
        rep = cauchy_drift(fx.field, grid, [0.0, 1.0, 2.0])
        assert "tolerance" not in rep.to_json()
        rep.tolerance = 1e-8  # as the commands set it
        js = rep.to_json()
        assert '"theorem": "cauchy"' in js and '"passed": true' in js


class TestDriftLoop:
    """Sweeps run side by side read one frame per node stack and time, each in its own
    time order, and give the reports they give alone."""

    def test_shared_frames_and_standalone_reports(self, monkeypatch):
        from vortlab.invariants import _cauchy_sweep, _drift_loop
        from vortlab.theorems import LabelRegion, _helicity_sweep, helicity_drift

        fx = flows.make_fixture("taylor-green", shape=(8, 8, 4), t1=0.5)
        field, grid = fx.field, fx.field.grid
        region = LabelRegion(fx.spec.box, grid.shape, periodic=True)  # the grid's nodes
        cauchy_times, helicity_times = [0.5, 0.0, 0.25], [0.0, 0.5]
        alone = [cauchy_drift(field, grid, cauchy_times).to_dict(),
                 helicity_drift(field, region, helicity_times).to_dict()]
        made = []
        init = Frame.__init__
        monkeypatch.setattr(Frame, "__init__",
                            lambda self, f, labels, t: made.append(t) or init(self, f, labels, t))
        together = _drift_loop(field, [_cauchy_sweep(field, grid, cauchy_times),
                                       _helicity_sweep(field, region, helicity_times)])
        assert [report.to_dict() for report in together] == alone
        # the earliest waiting time first: 0.0 for helicity, 0.5 for both on one frame, then
        # cauchy's 0.0 and 0.25, in its own order
        assert made == [0.0, 0.5, 0.0, 0.25]


class TestSingularMapPolicy:
    def test_nearly_singular_map_raises(self):
        # |J| = 1e-16 against row norms 1, 1, sqrt 2: singular at the scale of the map
        g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-16]])
        field = AnalyticTrajectoryField(
            lambda a, t: g @ a, BOX,
            position_gradient=lambda a, t: g.copy(),
            velocity_gradient=lambda a, t: np.zeros((3, 3)),
            acceleration_gradient=lambda a, t: np.zeros((3, 3)),
        )
        a = np.array([0.1, 0.2, 0.3])
        with pytest.raises(DegenerateMapError):
            lagrangian_vorticity(field, a, 0.5)
        with pytest.raises(DegenerateMapError):
            cauchy_residual(field, a, 0.5)
        with pytest.raises(DegenerateMapError):
            jacobian(field, a, 0.5)


class TestGridEvaluation:
    def test_own_grid_reads_node_arrays(self):
        fx = flows.make_fixture("abc", shape=(6, 6, 6), t1=0.2, dt=0.05)
        field = fx.field
        g = Frame(field, field.grid.nodes(), field.times[2]).read("velocity_gradient")
        nodes = field.node_gradients("velocity", 2).reshape(-1, 3, 3)
        assert g.shape == (216, 3, 3)
        assert np.array_equal(g, nodes)

    @pytest.mark.parametrize("method", ["position_gradient", "velocity_gradient", "velocity"])
    def test_label_stack_returns_the_evaluators_array(self, method, monkeypatch):
        fx = flows.make_fixture("gerstner")
        nodes, t = LabelGrid.cell_centers(fx.field.box, (3, 2, 3)).nodes(), 0.4
        out = {}
        original = getattr(fx.field, method)

        def recorded(a, tt):
            out["array"] = original(a, tt)
            return out["array"]

        monkeypatch.setattr(fx.field, method, recorded)
        assert Frame(fx.field, nodes, t).read(method) is out["array"]

    @pytest.mark.parametrize("case", ["analytic", "sampled-off-node"])
    def test_other_grids_match_pointwise_evaluators(self, case):
        # every public label-space function: one call on a label stack equals
        # its calls label by label (one label is the empty leading shape)
        if case == "analytic":
            fx = flows.make_fixture("gerstner")
            grid, t = LabelGrid.cell_centers(fx.field.box, (3, 2, 3)), 0.4
        else:
            fx = flows.make_fixture("abc", shape=(6, 6, 6), t1=0.2, dt=0.05)
            grid, t = LabelGrid.cell_centers(fx.field.box, (2, 3, 2)), 0.125  # between slices
        field, nodes = fx.field, grid.nodes()
        g = Frame(field, nodes, t).read("position_gradient")
        for n, a in enumerate(nodes):
            assert np.array_equal(g[n], field.position_gradient(a, t))
        w = np.cos(np.arange(nodes.size)).reshape(nodes.shape)  # one vector per label
        S = ScalarField(
            value=lambda a, tt: a[..., 0] * a[..., 1] + 0.5 * a[..., 2] ** 2,
            gradient_fn=lambda a, tt: np.stack([a[..., 1], a[..., 0], a[..., 2]], axis=-1),
        )
        kernels = {
            "image_velocity": lambda a, v: image_velocity(field, a, t),
            "lagrangian_vorticity": lambda a, v: lagrangian_vorticity(field, a, t),
            "cauchy_residual": lambda a, v: cauchy_residual(field, a, t),
            "lagrangian_vorticity_pullback":
                lambda a, v: lagrangian_vorticity_pullback(field, v, a, t),
            "cauchy_vorticity_reconstruct":
                lambda a, v: cauchy_vorticity_reconstruct(field, v, a, t),
            "cauchy_vorticity_reconstruct(callable)": lambda a, v: cauchy_vorticity_reconstruct(
                field, lambda b: lagrangian_vorticity(field, b, field.t0), a, t),
            "ertel_pv": lambda a, v: ertel_pv(Frame(field, a, t), S,
                                              mass_reference(field, fx.material, a)),
            "dalembert_euler_residual": lambda a, v: dalembert_euler_residual(Frame(field, a, t)),
        }
        for name, kernel in kernels.items():
            stacked = np.asarray(kernel(nodes, w), float)
            by_label = np.array([kernel(a, v) for a, v in zip(nodes, w)], float)
            assert stacked.shape == by_label.shape, name
            assert np.array_equal(stacked, by_label), name


class TestLabelStackLayout:
    @pytest.mark.parametrize("case", ["sampled", "analytic"])
    def test_c_order_stacks_curl_like_moveaxis_views(self, case):
        if case == "sampled":
            field = flows.make_fixture("abc", shape=(12, 12, 12), t1=0.2, dt=0.05).field
            grid, t = field.grid, field.times[2]
        else:
            field = flows.make_fixture("gerstner").field
            grid, t = LabelGrid.cell_centers(field.box, (12, 12, 12)), 0.4
        nodes = grid.nodes()
        kinds = ("position", "velocity", "acceleration")
        stacks = {k: Frame(field, nodes, t).read(f"{k}_gradient") for k in kinds}
        # reference: the stacked einsum curl on C-order components-first copies
        views = {k: np.moveaxis(getattr(field, f"{k}_gradient")(nodes, t), 0, -1) for k in kinds}
        for k in kinds:
            assert stacks[k].flags.c_contiguous and not views[k].flags.c_contiguous
            assert np.array_equal(stacks[k], np.moveaxis(views[k], -1, 0))
        for k in ("velocity", "acceleration"):
            m = np.einsum("mj...,mk...->kj...", np.ascontiguousarray(views[k]),
                          np.ascontiguousarray(views["position"]))
            reference = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
            assert np.array_equal(gradient_curl(stacks[k], stacks["position"]),
                                  np.moveaxis(reference, 0, -1))


class TestAdvectedDriftOrder:
    def test_measured_convergence_order_at_least_3_7(self):
        # drift of the advected vorticity image is bounded by C dt^4; the
        # two-step Richardson order must stay close to the integrator's
        from vortlab.cli import RunConfig, _dt_ratio_probe

        probe = _dt_ratio_probe(RunConfig(fixture="abc", dt=(0.1, 0.05), t1=1.0))
        order = np.log2(probe["drift_ratio"])
        assert order >= 3.7, probe

    def test_probe_matches_full_patch_reference(self):
        # the probe advects the inner grid plus its stencil halo; advecting
        # the whole 17^3 patch must give the same drifts, bit for bit
        from vortlab.cli import RunConfig, _dt_ratio_probe

        probe = _dt_ratio_probe(RunConfig(fixture="abc", dt=(0.1, 0.05), t1=1.0))
        h, n, margin = 0.05 / 2.5, 17, 4
        center = np.array([1.3, 2.1, 0.7])
        half = h * (n - 1) / 2
        patch = LabelGrid.nodes_inclusive(Box(tuple(center - half), tuple(center + half)),
                                          (n, n, n))
        inner = half - margin * h
        igrid = LabelGrid.nodes_inclusive(Box(tuple(center - inner), tuple(center + inner)),
                                          (n - 2 * margin,) * 3)
        times = np.linspace(0.0, 1.0, 6)
        drifts = [
            cauchy_drift(flows.integrate_trajectories(flows.abc_velocity(), patch, 0.0, 1.0, dt),
                         igrid, times).max_drift
            for dt in (0.1, 0.05)
        ]
        assert probe["drift"] == drifts
        assert probe["drift_ratio"] == drifts[0] / drifts[1]
        assert probe["patch"] == {"center": list(center), "spacing": h, "nodes": n,
                                  "margin": margin}


class TestVorticityReconstruction:
    def test_identity_returns_seed(self):
        fx = flows.make_fixture("identity")
        out = cauchy_vorticity_reconstruct(fx.field, (1.0, 2.0, 3.0), (0.1, 0.1, 0.1), 0.7)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_rotation_keeps_axis(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.3)
        for t in (0.0, 2.0, 8.5):
            out = cauchy_vorticity_reconstruct(fx.field, (0.0, 0.0, 2.6), (0.3, 0.0, 0.1), t)
            assert np.allclose(out, [0.0, 0.0, 2.6], atol=1e-13)

    def test_dilation_arithmetic(self):
        # x = 2a at t = 1: J = 8, G = 2I
        fx = flows.make_fixture("dilation")
        out = cauchy_vorticity_reconstruct(fx.field, (8.0, 0.0, 0.0), (0.1, 0.1, 0.1), 1.0)
        assert np.allclose(out, [2.0, 0.0, 0.0])

    def test_matches_eulerian_vorticity_on_extremal_flow(self):
        # transported image equals the directly computed current image
        fx = flows.make_fixture("gerstner")
        a = np.array([2.5, 0.5, -1.0])
        omega0 = lagrangian_vorticity(fx.field, a, fx.field.t0)
        for t in np.linspace(fx.field.t0, fx.field.t1, 5)[1:]:
            omega_t = lagrangian_vorticity(fx.field, a, t)
            lhs = cauchy_vorticity_reconstruct(fx.field, omega0, a, t)
            bundle = jacobian(fx.field, a, t)
            rhs = (np.asarray(bundle.matrix, float) @ omega_t) / float(bundle.det)
            assert np.allclose(lhs, rhs, atol=1e-10)
