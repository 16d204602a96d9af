"""Fixture catalog and the trajectory integrator."""

import dataclasses
import gc
import math
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from vortlab import flows
from vortlab.cli import main
from vortlab.errors import VortlabError
from vortlab.fields import Box, LabelGrid, SampledTrajectoryField, VectorField, load_grid
from vortlab.invariants import cauchy_residual, lagrangian_vorticity
from vortlab.kinematics import Frame
from vortlab.variational import mass_reference, momentum_residual


def _random_probes(fx, n, seed=0):
    rng = np.random.default_rng(seed)
    box = fx.field.box
    for _ in range(n):
        a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
        t = rng.uniform(fx.field.t0, fx.field.t1)
        yield a, t


class TestCatalog:
    def test_names_and_unknown(self):
        assert "gerstner" in flows.fixture_names()
        with pytest.raises(VortlabError):
            flows.make_fixture("nope")

    def test_identity_anywhere(self):
        fx = flows.make_fixture("identity")
        a = np.array([0.3, -0.7, 0.2])
        assert np.allclose(fx.field.position(a, 0.8), a)

    def test_rotation_quarter_turn(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        x = fx.field.position(np.array([1.0, 0.0, 0.0]), math.pi / 2)
        assert np.allclose(x, [0.0, 1.0, 0.0], atol=1e-15)

    def test_gerstner_amplitude_decays_with_depth(self):
        fx = flows.make_fixture("gerstner", depth=6.0)
        k = fx.spec.parameters["wavenumber"]
        shallow = fx.field.position(np.array([1.0, 0.0, math.log(0.5) / k]), 0.3)
        deep = fx.field.position(np.array([1.0, 0.0, math.log(0.5) / k - 6.0]), 0.3)
        assert abs(deep[0] - 1.0) < 1e-2 * abs(shallow[0] - 1.0)

    def test_gerstner_rejects_steepness_at_one(self):
        with pytest.raises(VortlabError):
            flows.make_fixture("gerstner", max_steepness=1.0)

    def test_every_extremal_analytic_fixture_balances_momentum(self):
        for name in ("identity", "translation", "shear", "rigid-rotation", "gerstner"):
            fx = flows.make_fixture(name)
            assert fx.spec.extremal
            worst = 0.0
            for a, t in _random_probes(fx, 100, seed=11):
                r = momentum_residual(Frame(fx.field, a, t), fx.material, fx.pressure,
                                      mass_reference(fx.field, fx.material, a))
                worst = max(worst, float(np.max(np.abs(r))))
            assert worst < 1e-8, (name, worst)

    def test_non_extremal_controls_are_detected(self):
        dil = flows.make_fixture("dilation")
        a = (0.1, 0.1, 0.1)
        r = momentum_residual(Frame(dil.field, a, 0.5), dil.material, dil.pressure,
                              mass_reference(dil.field, dil.material, a))
        assert np.max(np.abs(r)) > 1e-3
        ne = flows.make_fixture("non-euler")
        assert np.max(np.abs(cauchy_residual(ne.field, (0.0, 1.0, 0.0), 1.0).astype(float))) > 1e-3
        assert not dil.spec.extremal and not ne.spec.extremal


class TestIntegrator:
    def test_constant_field_exact(self):
        c = np.array([0.3, -0.2, 0.1])
        u = VectorField(value=lambda x, t: c.copy(), steady=True)
        grid = LabelGrid.nodes_inclusive(Box((0, 0, 0), (1, 1, 1)), (3, 3, 3))
        fld = flows.integrate_trajectories(u, grid, 0.0, 1.0, 0.25)
        a = grid.nodes()[13]
        assert np.allclose(fld.position(a, 1.0), a + c, atol=1e-14)

    def test_gradient_on_axis_shorter_than_stencil_names_it(self):
        # positions read fine; an order-4 label gradient on a 3-node axis, or
        # a time derivative on a 3-stamp ladder, is a VortlabError naming it
        u = VectorField(value=lambda x, t: np.stack([x[..., 1], 0 * x[..., 0], 0 * x[..., 2]],
                                                    axis=-1), steady=True)
        grid = LabelGrid.nodes_inclusive(Box((0, 0, 0), (1, 1, 1)), (3, 3, 3))
        fld = flows.integrate_trajectories(u, grid, 0.0, 1.0, 0.25)
        fld.position(grid.nodes(), 0.5)
        with pytest.raises(VortlabError, match="non-periodic axis1 of length 3 is too short "
                                               "for the 5-point order-4 stencils"):
            lagrangian_vorticity(fld, grid.nodes()[13], 0.5)
        short = SampledTrajectoryField(grid, fld.times[:3], fld.positions[:3])
        with pytest.raises(VortlabError, match="time ladder of length 3 is too short"):
            short.velocity(grid.nodes()[13], 0.25)

    def test_rotation_fourth_order(self):
        omega = 1.0
        u = VectorField(
            value=lambda x, t: np.stack(
                [-omega * x[..., 1], omega * x[..., 0], 0.0 * x[..., 2]], axis=-1),
            jacobian_fn=lambda x, t: np.array(
                [[0.0, -omega, 0.0], [omega, 0.0, 0.0], [0.0, 0.0, 0.0]]
            ),
            steady=True,
        )
        grid = LabelGrid.nodes_inclusive(Box((0.5, -0.1, -0.1), (1.0, 0.1, 0.1)), (3, 3, 3))
        errs = []
        dts = (0.2, 0.1, 0.05)
        for dt in dts:
            fld = flows.integrate_trajectories(u, grid, 0.0, 2.0, dt)
            c, s = math.cos(2.0 * omega), math.sin(2.0 * omega)
            nodes = grid.nodes()
            exact = np.stack(
                [c * nodes[:, 0] - s * nodes[:, 1], s * nodes[:, 0] + c * nodes[:, 1],
                 nodes[:, 2]], axis=-1,
            )
            errs.append(np.max(np.abs(fld.positions[-1].reshape(-1, 3) - exact)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 <= slope <= 4.3
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_abc_determinant_drift_bounded(self):
        fx = flows.make_fixture("abc", shape=(16, 16, 16), t1=0.5, dt=0.05)
        g = fx.field.node_gradients("position", len(fx.field.times) - 1)  # t = t1 = 0.5
        J = np.linalg.det(g.reshape(-1, 3, 3))
        assert np.max(np.abs(J - 1.0)) < 5e-3

    def test_rejects_bad_step(self):
        u = VectorField(value=lambda x, t: np.zeros(3), steady=True)
        grid = LabelGrid.nodes_inclusive(Box((0, 0, 0), (1, 1, 1)), (3, 3, 3))
        with pytest.raises(ValueError):
            flows.integrate_trajectories(u, grid, 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            flows.integrate_trajectories(u, grid, 0.0, 1.0, 0.3)

    @pytest.mark.parametrize("steady", [True, False])
    def test_four_velocity_calls_per_step_and_stored_accelerations(self, steady):
        calls = []

        def value(x, t):
            calls.append(t)
            return np.stack([np.sin(x[..., 1]) + t * x[..., 2], np.cos(x[..., 2]),
                             (1.0 + t) * np.sin(x[..., 0])], axis=-1)

        def jac(x, t):
            out = np.zeros(x.shape + (3,))
            out[..., 0, 1] = np.cos(x[..., 1])
            out[..., 0, 2] = t
            out[..., 1, 2] = -np.sin(x[..., 2])
            out[..., 2, 0] = (1.0 + t) * np.cos(x[..., 0])
            return out

        def dudt(x, t):
            return np.stack([x[..., 2], 0.0 * x[..., 1], np.sin(x[..., 0])], axis=-1)

        if steady:
            u = VectorField(
                value=lambda x, t: value(x, 0.0), jacobian_fn=lambda x, t: jac(x, 0.0),
                steady=True)
        else:
            u = VectorField(value=value, jacobian_fn=jac, time_derivative_fn=dudt)
        grid = LabelGrid.nodes_inclusive(Box((0.1, 0.2, 0.3), (0.6, 0.9, 0.5)), (4, 3, 5))
        fld = flows.integrate_trajectories(u, grid, 0.0, 1.0, 0.125)
        assert len(calls) == 4 * 8  # the last stamp stores its position alone
        for k, t in enumerate(fld.times):
            x = fld.positions[k].reshape(-1, 3)
            expected = np.einsum("...ij,...j->...i", u.jacobian(x, t), u(x, t))
            if not steady:
                expected = u.time_derivative(x, t) + expected
            assert np.array_equal(fld.accelerations[k].reshape(-1, 3), expected)
            assert np.array_equal(fld.velocities[k].reshape(-1, 3), u(x, t))

    def test_taylor_green_fixture_planar(self):
        fx = flows.make_fixture("taylor-green", shape=(12, 12, 4), t1=0.2, dt=0.05)
        v = fx.field.node_values("velocity", 0)
        assert np.allclose(v[..., 2], 0.0)

    def test_taylor_green_default_a3_axis_reads_no_variation(self):
        # the default a3 axis has 4 periodic nodes, so its order-4 stencil aliases (the +-2
        # points coincide); its derivatives are exact only because nothing varies along a3:
        # G[..., 2] = e3 and dv/da3 = 0, to the rounding of the stencil sums
        field = flows.make_fixture("taylor-green").field
        assert (field.grid.shape[2], field.order, field.periodic[2]) == (4, 4, True)
        with field.holding():
            for k in range(len(field.times)):
                g = field.node_gradients("position", k)[..., 2]
                gv = field.node_gradients("velocity", k)[..., 2]
                assert np.max(np.abs(g - [0.0, 0.0, 1.0])) < 1e-15, k
                assert np.max(np.abs(gv)) < 1e-15, k

    def test_advected_fixtures_balance_momentum_at_nodes(self):
        # checks the analytic pressure wiring of the two steady Euler fields;
        # the error budget is the sampled pipeline's FD error
        for name, shape in (("abc", (16, 16, 16)), ("taylor-green", (16, 16, 4))):
            fx = flows.make_fixture(name, shape=shape, t1=0.2, dt=0.05)
            nodes = fx.field.grid.nodes()
            worst = 0.0
            for idx in (0, 57, 311):
                r = momentum_residual(Frame(fx.field, nodes[idx], 0.1), fx.material, fx.pressure,
                                      mass_reference(fx.field, fx.material, nodes[idx]))
                worst = max(worst, float(np.max(np.abs(r))))
            assert worst < 5e-2, (name, worst)


def _serial_rk4(u, grid, t0, t1, dt):
    """Reference: the integrator's RK4 loop over the whole label stack in one thread."""
    nsteps = int(round((t1 - t0) / dt))
    times = t0 + dt * np.arange(nsteps + 1)
    xs = grid.nodes().copy()
    pos, vel, acc = [], [], []
    for k, t in enumerate(times):
        k1 = u(xs, t)
        pos.append(xs)
        vel.append(k1)
        acc.append(flows.material_accelerations(u, xs, t, k1))
        if k == nsteps:
            break
        k2 = u(xs + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = u(xs + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = u(xs + dt * k3, t + dt)
        xs = xs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    shape = (len(times), *grid.shape, 3)
    return tuple(np.reshape(v, shape) for v in (pos, vel, acc))


def _unsteady_velocity():
    """The unsteady field of the call-count test, with its exact time derivative."""

    def value(x, t):
        return np.stack([np.sin(x[..., 1]) + t * x[..., 2], np.cos(x[..., 2]),
                         (1.0 + t) * np.sin(x[..., 0])], axis=-1)

    def jac(x, t):
        out = np.zeros(x.shape + (3,))
        out[..., 0, 1] = np.cos(x[..., 1])
        out[..., 0, 2] = t
        out[..., 1, 2] = -np.sin(x[..., 2])
        out[..., 2, 0] = (1.0 + t) * np.cos(x[..., 0])
        return out

    def dudt(x, t):
        return np.stack([x[..., 2], 0.0 * x[..., 1], np.sin(x[..., 0])], axis=-1)

    return VectorField(value=value, jacobian_fn=jac, time_derivative_fn=dudt)


def _advection_case(name, shape):
    """(velocity field, label grid) of a steady (abc) or unsteady test flow."""
    if name == "abc":
        box = Box((0.0, 0.0, 0.0), (flows.TWO_PI,) * 3)
        return flows.abc_velocity(), LabelGrid.cell_centers(box, shape)
    return _unsteady_velocity(), LabelGrid.nodes_inclusive(
        Box((0.1, 0.2, 0.3), (0.6, 0.9, 0.5)), shape)


def _counting(u, calls):
    """``u`` with every velocity call's stack length appended to ``calls``."""
    return dataclasses.replace(u, value=lambda x, t: calls.append(len(x)) or u.value(x, t))


@pytest.fixture
def force_chunks(monkeypatch):
    """Pin the CPU count (and optionally the chunk floor) the integrator sees."""

    def force(cpus, floor=None):
        monkeypatch.setattr(flows, "_usable_cpus", lambda: cpus)
        if floor is not None:
            monkeypatch.setattr(flows, "_CHUNK_FLOOR", floor)

    return force


class TestConcurrentAdvection:
    @pytest.mark.parametrize("name", ["abc", "unsteady"])
    def test_chunks_match_serial_reference_bitwise(self, name, force_chunks):
        force_chunks(2)
        u, grid = _advection_case(name, (24, 24, 8))  # 4,608 labels: two chunks of 2,304
        calls = []
        fld = flows.integrate_trajectories(_counting(u, calls), grid, 0.0, 0.5, 0.125)
        assert calls == [2304] * 2 * 4 * 4
        pos, vel, acc = _serial_rk4(u, grid, 0.0, 0.5, 0.125)
        # the chunks' stored positions, and the velocities read back from them on the
        # whole grid: bitwise the serial run's stage-1 values
        assert np.array_equal(fld.positions, pos)
        assert np.array_equal(fld.velocities, vel)
        assert np.array_equal(fld.accelerations, acc)

    def test_small_stacks_stay_in_one_chunk(self, force_chunks):
        force_chunks(2)
        u, grid = _advection_case("abc", (12, 12, 14))  # 2,016 labels, below the floor
        calls = []
        flows.integrate_trajectories(_counting(u, calls), grid, 0.0, 0.25, 0.125)
        assert calls == [2016] * 4 * 2

    def test_worker_exception_reaches_the_caller(self, force_chunks):
        class Boom(RuntimeError):
            pass

        def value(x, t):
            if t > 0.3 and x.reshape(-1, 3)[0, 0] > 0.75:  # second chunk only
                raise Boom("velocity failed")
            return np.zeros(x.shape)

        force_chunks(2, floor=8)
        u = VectorField(value=value, steady=True)
        grid = LabelGrid.nodes_inclusive(Box((0.5, 0.0, 0.0), (1.0, 1.0, 1.0)), (4, 3, 3))
        with pytest.raises(Boom):
            flows.integrate_trajectories(u, grid, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("name", ["abc", "unsteady"])
    def test_stress_more_chunks_than_cores(self, name, force_chunks):
        # 8 chunks of 108 labels on any core count, with thread switches
        # forced every microsecond: every chunk writes only its own rows of
        # the shared arrays, so the result stays bitwise the serial one
        force_chunks(8, floor=16)
        u, grid = _advection_case(name, (12, 12, 6))
        calls = []
        interval = sys.getswitchinterval()
        start = time.monotonic()
        try:
            sys.setswitchinterval(1e-6)
            fld = flows.integrate_trajectories(_counting(u, calls), grid, 0.0, 0.5, 0.05)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - start < 60.0
        assert calls == [108] * 8 * 4 * 10
        pos, vel, acc = _serial_rk4(u, grid, 0.0, 0.5, 0.05)
        assert np.array_equal(fld.positions, pos)
        assert np.array_equal(fld.velocities, vel)
        assert np.array_equal(fld.accelerations, acc)


class TestStoreStride:
    @pytest.mark.parametrize("chunks", [1, 2])
    @pytest.mark.parametrize("name", ["abc", "unsteady"])
    def test_stride_stores_the_every_step_run_bitwise(self, name, chunks, force_chunks):
        force_chunks(chunks)
        u, grid = _advection_case(name, (24, 24, 8))  # 4,608 labels: two chunks of 2,304
        full = flows.integrate_trajectories(u, grid, 0.0, 0.5, 0.0625)  # 8 steps
        for every in (1, 2, 4, 8):
            calls = []
            fld = flows.integrate_trajectories(_counting(u, calls), grid, 0.0, 0.5, 0.0625,
                                               every=every)
            assert calls == [4608 // chunks] * chunks * 4 * 8
            assert np.array_equal(fld.times, full.times[::every])
            assert np.array_equal(fld.positions, full.positions[::every])
            assert np.array_equal(fld.velocities, full.velocities[::every])
            assert np.array_equal(fld.accelerations, full.accelerations[::every])

    @pytest.mark.parametrize("every", [-1, 0, 3, 16])
    def test_stride_that_does_not_divide_the_steps_raises(self, every):
        u, grid = _advection_case("abc", (3, 3, 3))
        with pytest.raises(ValueError, match=f"store stride {every} does not divide the 8 "):
            flows.integrate_trajectories(u, grid, 0.0, 0.5, 0.0625, every=every)


class TestAccelerationsOnFirstRead:
    def test_jacobian_calls_cover_only_the_nodes_each_read_gathers(self, monkeypatch):
        u, grid = _advection_case("unsteady", (5, 5, 5))
        calls = []  # (time, nodes) of each call
        jacobian = VectorField.jacobian
        monkeypatch.setattr(VectorField, "jacobian",
                            lambda self, p, t: calls.append((t, np.size(p) // 3))
                            or jacobian(self, p, t))
        fld = flows.integrate_trajectories(u, grid, 0.0, 1.0, 0.125)
        assert calls == []
        a, t2 = grid.nodes()[7], fld.times[2]  # node (0, 1, 2) of the bounded 5^3 grid
        fld.acceleration(a, t2)  # the one node
        # its order-4 stencil points: rows 0 and 1 of the one-sided stencils on axes 1
        # and 2 (5 points each, the node itself among both) and the central one on axis 3
        fld.acceleration_gradient(a, t2)
        # nothing is kept: each whole-slice read computes the slice again
        fld.node_values("acceleration", 2)
        fld.node_values("acceleration", 2)
        assert calls == [(t2, 1), (t2, 5 + 4 + 4), (t2, 125), (t2, 125)]
        calls.clear()
        assert fld.accelerations.shape == fld.positions.shape
        assert calls == [(t, 125) for t in fld.times]

    def test_dt_pair_probe_never_evaluates_the_velocity_jacobian(self, monkeypatch, capsys):
        calls = []
        jacobian = VectorField.jacobian
        monkeypatch.setattr(VectorField, "jacobian",
                            lambda self, p, t: calls.append(t) or jacobian(self, p, t))
        assert main(["drift", "--fixture", "abc", "--dt", "0.01,0.005"]) == 0
        assert '"pass": true' in capsys.readouterr().out
        assert calls == []

    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_exported_accelerations_equal_the_eager_reference(self, tmp_path, capsys, suffix):
        path = str(tmp_path / f"abc{suffix}")
        assert main(["export", "--fixture", "abc", "--t1", "0.1", "--out", path]) == 0
        box = Box((0.0, 0.0, 0.0), (flows.TWO_PI,) * 3)
        grid = LabelGrid.periodic_cell(box, (24, 24, 24))
        _, _, acc = _serial_rk4(flows.abc_velocity(), grid, 0.0, 0.1, 0.05)
        assert load_grid(path).accelerations.tobytes() == acc.tobytes()


class TestVelocitiesOnRead:
    """An advected field stores its positions alone; a velocity read evaluates u(x_k, t_k) on
    the nodes it touches, bitwise the steps' stage-1 values."""

    def test_fixture_keeps_the_bytes_of_its_positions_not_twice_them(self):
        flows.make_fixture("abc", shape=(4, 4, 4))  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            fx = flows.make_fixture("abc", shape=(12, 12, 12))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        positions = fx.field.positions.nbytes
        assert positions == 21 * 12 ** 3 * 3 * 8
        assert positions <= kept < 1.25 * positions, kept  # 2.06 x with stored velocities

    def test_fixture_is_freed_with_its_last_reference(self):
        # no reference cycle between the field and its lazy callables: freed without the
        # cyclic collector, so repeated builds do not pile up their positions
        fx = flows.make_fixture("abc", shape=(6, 6, 6))
        fx.field.acceleration(fx.field.grid.nodes()[:2], 0.5)
        field = weakref.ref(fx.field)
        gc.disable()
        try:
            del fx
            assert field() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["abc", "unsteady"])
    def test_velocity_reads_equal_u_at_the_stored_positions_bitwise(self, name):
        u, grid = _advection_case(name, (6, 5, 4))
        fld = flows.integrate_trajectories(u, grid, 0.0, 0.5, 0.125)
        nodes, idx = grid.nodes(), np.array([0, 7, 7, 59, 119])  # a node twice
        for k, t in enumerate(fld.times):
            x = fld.positions[k]
            whole = u(x, t).tobytes()
            assert fld.node_values("velocity", k).tobytes() == whole
            assert fld.velocity(grid.mesh(), t).tobytes() == whole
            assert fld.velocity(nodes[idx], t).tobytes() == u(x.reshape(-1, 3)[idx], t).tobytes()
        # per-label times, each label at its own stamp
        ks = np.array([0, 3, 1, 4, 2])
        want = [u(fld.positions[k].reshape(-1, 3)[i], fld.times[k]) for i, k in zip(idx, ks)]
        assert fld.velocity(nodes[idx], fld.times[ks]).tobytes() == np.stack(want).tobytes()

    def test_held_velocity_slice_serves_gathers_and_accelerations(self):
        u, grid = _advection_case("abc", (6, 5, 4))
        shapes = []
        fld = flows.integrate_trajectories(
            dataclasses.replace(u, value=lambda x, t: shapes.append(np.shape(x)) or u(x, t)),
            grid, 0.0, 0.5, 0.125)
        shapes.clear()
        labels, t = grid.nodes()[[3, 8, 8]], fld.times[2]
        with fld.holding():
            fld.node_values("velocity", 2)
            gathered = [fld.velocity(labels, t), fld.acceleration(labels, t),
                        fld.node_values("acceleration", 2)]
        assert shapes == [(6, 5, 4, 3)]  # one evaluation of the stamp, on the whole grid
        shapes.clear()
        assert [v.tobytes() for v in gathered] == [
            v.tobytes() for v in (fld.velocity(labels, t), fld.acceleration(labels, t),
                                  fld.node_values("acceleration", 2))]
        assert shapes == [(2, 3), (2, 3), (6, 5, 4, 3)]  # outside it, each read evaluates u
