"""Trajectory-field backends, label-space operators and grid file I/O."""

import contextlib
import functools
import math
import struct
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from vortlab import fields, flows
from vortlab.cli import main
from vortlab.errors import GridFormatError, OutOfDomainError
from vortlab.fields import (
    AnalyticTrajectoryField,
    Box,
    LabelGrid,
    PolynomialTrajectoryField,
    SampledTrajectoryField,
    ScalarField,
    VectorField,
    _axis_derivative,
    derivative,
    exact_sum,
    fd_jacobian,
    load_grid,
    save_grid,
)
from vortlab.kinematics import Frame, gradient_curl
from vortlab.poly import Poly
from vortlab.theorems import LabelRegion
from vortlab.variational import (
    DeformedTrajectoryField,
    RelabelGenerator,
    VariationTriple,
    bump_potential,
)

BOX = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))


def _fit_slope(hs, errs):
    hs, errs = np.asarray(hs, float), np.asarray(errs, float)
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


class TestEvalState:
    """A parcel's state (position, velocity, acceleration) read through a domain-checked
    one-label :class:`Frame`."""

    @staticmethod
    def _state(field, a, t):
        frame = Frame(field, a, t)
        return tuple(frame.read(name) for name in ("position", "velocity", "acceleration"))

    def test_identity_map(self):
        fx = flows.make_fixture("identity")
        x, v, acc = self._state(fx.field, (1.0, 0.5, -0.5), 0.5)
        assert np.allclose(x, [1.0, 0.5, -0.5])
        assert np.allclose(v, 0.0) and np.allclose(acc, 0.0)

    def test_translation(self):
        fx = flows.make_fixture("translation", c=(1.0, 0.0, 0.0))
        _, v, acc = self._state(fx.field, (0.0, 0.0, 0.0), 0.7)
        assert np.allclose(v, [1.0, 0.0, 0.0]) and np.allclose(acc, 0.0)

    def test_polynomial_map_exact(self):
        a1, a2, a3, t = (Poly.variable(4, i) for i in range(4))
        f = PolynomialTrajectoryField([a1 + t * t * a2, a2, a3], BOX, 0.0, 3.0)
        x, v, acc = self._state(f, (Fraction(1), Fraction(1), Fraction(0)), Fraction(2))
        assert list(x) == [5, 1, 0]
        assert list(v) == [4, 0, 0]
        assert list(acc) == [2, 0, 0]

    def test_out_of_domain_raises(self):
        fx = flows.make_fixture("identity")
        with pytest.raises(OutOfDomainError):
            self._state(fx.field, (5.0, 0.0, 0.0), 0.5)
        with pytest.raises(OutOfDomainError):
            self._state(fx.field, (0.0, 0.0, 0.0), 99.0)


class TestPolyEval:
    def test_exactness_decided_once_per_call(self, monkeypatch):
        from vortlab import fields, poly

        calls = []
        original = poly.is_rational

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(fields, "is_rational", counted)
        monkeypatch.setattr(poly, "is_rational", counted)
        a1, a2, a3, t = (Poly.variable(4, i) for i in range(4))
        polys = np.array([[a1 * t, a2 ** 2, a3], [a1 + a2, t ** 3, a1 * a2 * a3]], dtype=object)
        labels = np.array([[Fraction(1, 2), Fraction(-1, 3), Fraction(2)],
                           [Fraction(1), Fraction(0), Fraction(-3, 4)]], dtype=object)
        out = fields._poly_eval(polys, labels, Fraction(1, 5))
        # one check per coordinate (three label axes and the time), none per polynomial
        assert len(calls) <= 4
        assert out.shape == (2, 2, 3) and out.dtype == object
        assert out[0, 1, 1] == Fraction(1, 125) and out[1, 1, 2] == 0
        assert all(isinstance(x, Fraction) for x in out.flat)


class TestLabelOperators:
    def test_gradient_of_coordinate(self):
        f = ScalarField(value=lambda a, t: a[..., 0])
        assert np.allclose(f.gradient((0.3, 0.1, 0.0), 0.0), [1.0, 0.0, 0.0])

    def test_gradient_example(self):
        f = ScalarField(value=lambda a, t: a[..., 0] * a[..., 1] + a[..., 2] ** 2)
        assert np.allclose(f.gradient((1.0, 2.0, 3.0), 0.0), [2.0, 1.0, 6.0], atol=1e-10)

    def test_gradient_of_constant(self):
        f = ScalarField.constant(4.2)
        assert np.allclose(f.gradient((0.0, 0.0, 0.0), 0.0), 0.0)

    def test_curl_and_div_examples(self):
        v = VectorField(value=lambda a, t: np.stack([-a[..., 1], a[..., 0], 0.0 * a[..., 2]], -1))
        assert np.allclose(v.curl((0.2, 0.3, 0.4), 0.0), [0.0, 0.0, 2.0], atol=1e-10)
        assert abs(v.divergence((0.2, 0.3, 0.4), 0.0)) < 1e-10
        r = VectorField(value=lambda a, t: np.asarray(a, float))
        assert abs(r.divergence((0.2, 0.3, 0.4), 0.0) - 3.0) < 1e-10
        assert np.allclose(r.curl((0.2, 0.3, 0.4), 0.0), 0.0, atol=1e-10)

    def test_curl_of_gradient_exactly_zero_on_polynomials(self):
        # v = grad(a1 a2 a3): symbolic curl must be the zero polynomial
        a1, a2, a3 = (Poly.variable(4, i) for i in range(3))
        phi = a1 * a2 * a3
        grads = [phi.diff(j) for j in range(3)]
        curl = [
            grads[2].diff(1) - grads[1].diff(2),
            grads[0].diff(2) - grads[2].diff(0),
            grads[1].diff(0) - grads[0].diff(1),
        ]
        assert all(c.is_zero for c in curl)

    def test_div_of_curl_exactly_zero_on_polynomials(self):
        import random

        from vortlab.poly import random_poly

        rng = random.Random(31)
        for _ in range(10):
            v = [random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)]
            curl = [
                v[2].diff(1) - v[1].diff(2),
                v[0].diff(2) - v[2].diff(0),
                v[1].diff(0) - v[0].diff(1),
            ]
            div = curl[0].diff(0) + curl[1].diff(1) + curl[2].diff(2)
            assert div.is_zero

    def test_fd_gradient_convergence_order(self):
        f = lambda a: np.sin(2 * a[..., 0]) * np.cos(a[..., 1])
        a = (0.3, -0.4, 0.2)
        exact = np.array([2 * math.cos(2 * a[0]) * math.cos(a[1]),
                          -math.sin(2 * a[0]) * math.sin(a[1]), 0.0])
        hs = [0.2, 0.1, 0.05]
        for order in (4, 2):
            errs = [np.max(np.abs(fd_jacobian(f, a, h, order) - exact)) for h in hs]
            assert _fit_slope(hs, errs) >= order - 0.2

    def test_fallbacks_use_the_module_steps_at_order_4(self):
        # bitwise on a stack and on one label: generic fields at 1e-4, the
        # analytic backend at 1e-3
        value = lambda a, t: np.sin(2 * a[..., 0]) * np.cos(a[..., 1]) * (1.0 + t * a[..., 2])
        vector = lambda a, t: np.stack([value(a, t), a[..., 2] * a[..., 0] ** 2 * t,
                                        np.exp(a[..., 1] - t)], axis=-1)
        s, v = ScalarField(value=value), VectorField(value=vector)
        field = AnalyticTrajectoryField(vector, BOX)
        t = 0.3
        stack = np.random.default_rng(8).uniform(-0.8, 0.8, (4, 3))
        for pts in (stack, stack[1]):
            assert (s.gradient(pts, t) == fd_jacobian(lambda b: value(b, t), pts, 1e-4, 4)).all()
            assert (v.jacobian(pts, t) == fd_jacobian(lambda b: vector(b, t), pts, 1e-4, 4)).all()
            assert (v.time_derivative(pts, t) ==
                    derivative(lambda dt: vector(pts, t + dt), 1e-4, 4)).all()
            assert (field.position_gradient(pts, t) ==
                    fd_jacobian(lambda b: vector(b, t), pts, 1e-3, 4)).all()


def per_offset_jacobian(f, a, h, order):
    """The centered FD Jacobian with one call of ``f`` per stencil offset and
    direction: the reference for the one-call stack of :func:`fd_jacobian`."""
    a = np.asarray(a, float)
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        cols.append(derivative(lambda s: f(a + s * e), h, order))
    return np.asarray(np.stack(cols, axis=-1), float)


# Scalar-, vector- and matrix-valued protocol callables built from + , * and /
# only, so a stack and its labels one at a time round alike.
FD_CALLABLES = {
    "scalar": lambda b: b[..., 0] * b[..., 0] * b[..., 1] / (3.0 + b[..., 2]),
    "vector": lambda b: np.stack([b[..., 0] * b[..., 1], b[..., 1] / (2.5 - b[..., 0]),
                                  b[..., 2] * b[..., 0] * b[..., 0]], axis=-1),
    "matrix": lambda b: np.stack([
        np.stack([b[..., 0] * b[..., 0], b[..., 1] * b[..., 2]], axis=-1),
        np.stack([b[..., 2] / 7.0, b[..., 0] * b[..., 1] + b[..., 2]], axis=-1),
    ], axis=-2),
}


class TestFdJacobian:
    # a centered stencil of order p differentiates a polynomial exactly when
    # its degree in the differenced variable is at most p
    A = np.array([0.3, -0.7, 1.1])

    @staticmethod
    def _counted(f, calls):
        def g(b):
            calls.append(b.shape)
            return f(b)
        return g

    @pytest.mark.parametrize("order", [2, 4])
    def test_scalar_valued(self, order):
        k, (b0, b1, b2) = order, self.A
        calls = []
        f = self._counted(lambda b: b[..., 0] ** k * b[..., 1] + b[..., 2] ** k, calls)
        out = fd_jacobian(f, self.A, 1e-2, order)
        exact = [k * b0 ** (k - 1) * b1, b0 ** k, k * b2 ** (k - 1)]
        assert out.shape == (3,)
        assert np.allclose(out, exact, rtol=0, atol=1e-10)
        assert len(calls) == 1  # one stack of every stencil offset and direction

    @pytest.mark.parametrize("order", [2, 4])
    def test_vector_valued(self, order):
        k, (b0, b1, b2) = order, self.A
        calls = []
        f = self._counted(lambda b: np.stack([b[..., 0] * b[..., 1], b[..., 1] ** k,
                                              b[..., 2] * b[..., 0] ** k], axis=-1), calls)
        out = fd_jacobian(f, self.A, 1e-2, order)
        exact = [[b1, b0, 0.0],
                 [0.0, k * b1 ** (k - 1), 0.0],
                 [k * b0 ** (k - 1) * b2, 0.0, b0 ** k]]
        assert out.shape == (3, 3)
        assert np.allclose(out, exact, rtol=0, atol=1e-10)
        assert len(calls) == 1

    @pytest.mark.parametrize("order", [2, 4])
    def test_matrix_valued(self, order):
        k, (b0, b1, b2) = order, self.A
        f = lambda b: np.stack([np.stack([b[..., 0] ** k, b[..., 1] * b[..., 2]], axis=-1),
                                np.stack([b[..., 2], b[..., 0] * b[..., 1]], axis=-1)], axis=-2)
        out = fd_jacobian(f, self.A, 1e-2, order)
        exact = [[[k * b0 ** (k - 1), 0.0, 0.0], [0.0, b2, b1]],
                 [[0.0, 0.0, 1.0], [b1, b0, 0.0]]]
        assert out.shape == (2, 2, 3)
        assert np.allclose(out, exact, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", sorted(FD_CALLABLES))
    @pytest.mark.parametrize("lead", [(), (5,), (2, 4)])
    def test_one_call_bitwise_equal_to_per_offset_loop(self, order, kind, lead):
        a = np.random.default_rng(len(lead) + order).uniform(-0.9, 0.9, (*lead, 3))
        calls = []
        got = fd_jacobian(self._counted(FD_CALLABLES[kind], calls), a, 1e-3, order)
        want = per_offset_jacobian(FD_CALLABLES[kind], a, 1e-3, order)
        assert calls == [(3 * order, *lead, 3)]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_callable_for_one_label_raises(self):
        with pytest.raises(ValueError, match=r"a\[\.\.\., i\]"):
            fd_jacobian(lambda b: b[0] * b[1], self.A, 1e-2)

    def test_out_of_domain_shift_names_the_per_offset_first_label(self):
        # node 1 sits within one step of the top of axis 2 and node 2 of the
        # bottom of axis 3: the a2 + h shift of node 1 is the first one out
        h = 1e-2
        a = np.array([[0.0, 0.1, 0.2], [0.3, 1.0 - 0.5 * h, -0.4], [-0.5, 0.6, -1.0 + 0.5 * h]])
        analytic = AnalyticTrajectoryField(lambda b, t: 2.0 * b, BOX)
        grid = LabelGrid.nodes_inclusive(BOX, (6, 6, 6))
        sampled = SampledTrajectoryField.from_analytic(analytic, grid, [0.0, 1.0])

        def checked(b):
            analytic.check_domain(b, 0.5)
            return analytic.position(b, 0.5)

        for f in (checked, lambda b: sampled.position(b, 0.5)):
            with pytest.raises(OutOfDomainError) as want:
                per_offset_jacobian(f, a, h, 4)
            with pytest.raises(OutOfDomainError) as got:
                fd_jacobian(f, a, h, 4)
            assert str(got.value) == str(want.value)
            assert repr(1.0 + 0.5 * h) in str(got.value)


class TestAnalyticFallbacks:
    def test_fd_velocity_matches_analytic(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0)
        bare = AnalyticTrajectoryField(
            position=lambda a, t: fx.field.position(a, t), box=fx.field.box, t0=0.0, t1=10.0
        )
        a, t = np.array([0.4, 0.2, 0.0]), 1.3
        assert np.allclose(bare.velocity(a, t), fx.field.velocity(a, t), atol=1e-9)
        assert np.allclose(bare.acceleration(a, t), fx.field.acceleration(a, t), atol=1e-7)
        assert np.allclose(
            bare.position_gradient(a, t), fx.field.position_gradient(a, t), atol=1e-10
        )


PROTOCOL_METHODS = (
    "position", "velocity", "acceleration",
    "position_gradient", "velocity_gradient", "acceleration_gradient", "position_hessian",
)
TAIL = {"position": (3,), "velocity": (3,), "acceleration": (3,),
        "position_gradient": (3, 3), "velocity_gradient": (3, 3),
        "acceleration_gradient": (3, 3), "position_hessian": (3, 3, 3)}


def _protocol_case(case):
    """(field, labels (N, 3), t, how stacks must compare with pointwise calls)."""
    rng = np.random.default_rng(5)
    if case in ("identity", "translation", "shear", "rigid-rotation", "dilation", "gerstner"):
        field = flows.make_fixture(case).field
        lo, hi = np.asarray(field.box.lo), np.asarray(field.box.hi)
        return field, lo + (hi - lo) * rng.uniform(0.1, 0.9, (5, 3)), 0.3, "bitwise"
    if case == "analytic-fd-fallback":
        field = AnalyticTrajectoryField(
            lambda a, t: a + t * np.sin(a[..., ::-1]) + t * t * a[..., [1, 2, 0]] ** 2, BOX)
        return field, rng.uniform(-0.8, 0.8, (5, 3)), 0.4, "bitwise"
    if case == "polynomial-float":
        return flows.make_fixture("non-euler").field, rng.uniform(-0.8, 0.8, (5, 3)), 0.7, "bitwise"
    if case == "polynomial-fraction":
        field = flows.make_fixture("non-euler").field
        labels = np.array([[Fraction(i - 2, 3), Fraction(1, i + 2), Fraction(-i, 7)]
                           for i in range(5)], dtype=object)
        return field, labels, Fraction(3, 4), "exact"
    field = flows.make_fixture("abc", shape=(6, 6, 6), t1=0.2, dt=0.05).field
    if case == "sampled-on-node":
        return field, field.grid.nodes()[[0, 7, 50, 129, 215]], field.times[2], "bitwise"
    return field, rng.uniform(0.2, 5.0, (5, 3)), 0.125, "bitwise"


class TestEvaluationProtocol:
    @pytest.mark.parametrize("case", [
        "identity", "translation", "shear", "rigid-rotation", "dilation", "gerstner",
        "analytic-fd-fallback", "polynomial-float", "polynomial-fraction",
        "sampled-on-node", "sampled-off-node",
    ])
    def test_stacks_match_stacked_pointwise_calls(self, case):
        field, labels, t, how = _protocol_case(case)
        n = len(labels)
        stack2 = np.stack([labels, labels[::-1]])
        for m in PROTOCOL_METHODS:
            evaluate = getattr(field, m)
            pointwise = np.stack([evaluate(a, t) for a in labels])
            batch, batch2 = evaluate(labels, t), evaluate(stack2, t)
            assert pointwise.shape == (n, *TAIL[m])
            assert batch.shape == (n, *TAIL[m]) and batch2.shape == (2, n, *TAIL[m])
            for got, want in ((batch, pointwise), (batch2[0], pointwise),
                              (batch2[1], pointwise[::-1])):
                if how == "exact":
                    assert got.dtype == object and (got == want).all(), m
                    assert all(isinstance(v, Fraction) for v in got.flat), m
                else:
                    assert np.array_equal(got, want), m

    @pytest.mark.parametrize("name", [
        "identity", "translation", "shear", "rigid-rotation", "dilation", "gerstner", "non-euler",
    ])
    def test_fixture_closed_forms_bitwise_on_cell_centres(self, name):
        # 9^3 cell centres: enough labels that a product or a libm call that
        # rounds differently on a stack shows up in some row
        field = flows.make_fixture(name).field
        labels = LabelGrid.cell_centers(field.box, (9, 9, 9)).nodes()
        for m in PROTOCOL_METHODS:
            evaluate = getattr(field, m)
            pointwise = np.stack([evaluate(a, 0.37) for a in labels])
            assert (evaluate(labels, 0.37) == pointwise).all(), m

    def test_scalar_and_vector_label_fields_on_stacks(self):
        fx = flows.make_fixture("rigid-rotation", gravity=2.0)
        labels = LabelGrid.cell_centers(fx.field.box, (5, 5, 5)).nodes()
        gerstner = flows.make_fixture("gerstner")
        glabels = LabelGrid.cell_centers(gerstner.field.box, (5, 5, 5)).nodes()
        poly = ScalarField.from_poly(Poly.variable(4, 0) * Poly.variable(4, 1) ** 3)
        fd = ScalarField(value=lambda a, t: np.sin(a[..., 0]) * a[..., 2])
        cases = [(fx.pressure, labels), (fx.material.rho0, labels), (gerstner.pressure, glabels),
                 (poly, labels), (fd, labels)]
        for f, pts in cases:
            for m in ("__call__", "gradient", "hessian"):
                if m == "hessian" and f.hessian_fn is None and f.gradient_fn is not None:
                    continue
                evaluate = getattr(f, m)
                want = np.stack([np.asarray(evaluate(a, 0.4), float) for a in pts])
                assert (np.asarray(evaluate(pts, 0.4), float) == want).all(), m
        potential = fx.material.potential
        xs = fx.field.position(labels, 0.4)
        assert (potential(xs, 0.4) == np.stack([potential(x, 0.4) for x in xs])).all()
        u = flows.abc_velocity()
        assert (u.curl(xs, 0.0) == np.stack([u.curl(x, 0.0) for x in xs])).all()
        a2, a3 = Poly.variable(4, 1), Poly.variable(4, 2)
        v = VectorField.from_polys([a2 ** 2, a3, Poly(4, {})])
        assert (v.curl(labels, 0.4) == np.stack([v.curl(a, 0.4) for a in labels])).all()

    def test_single_label_callable_fails_on_a_stack(self):
        labels = LabelGrid.cell_centers(BOX, (2, 2, 2)).nodes()
        old_spelling = ScalarField(value=lambda a, t: a[0] * a[1],
                                   gradient_fn=lambda a, t: np.array([a[1], a[0], 0.0 * a[2]]))
        with pytest.raises(ValueError, match=r"a\[\.\.\., i\]"):
            old_spelling(labels, 0.0)
        with pytest.raises(ValueError, match=r"a\[\.\.\., i\]"):
            old_spelling.gradient(labels, 0.0)
        assert old_spelling((0.5, 2.0, 1.0), 0.0) == 1.0

    def test_on_node_queries_return_node_arrays(self):
        field, labels, t, _ = _protocol_case("sampled-on-node")
        ti = 2  # t is the third stamp
        idx = [0, 7, 50, 129, 215]
        for kind in ("position", "velocity", "acceleration"):
            assert np.array_equal(getattr(field, kind)(labels, t),
                                  field.node_values(kind, ti).reshape(-1, 3)[idx])
            assert np.array_equal(getattr(field, f"{kind}_gradient")(labels, t),
                                  field.node_gradients(kind, ti).reshape(-1, 3, 3)[idx])


class TestSampledBackend:
    def test_reproduces_generating_field(self):
        fx = flows.make_fixture("gerstner")
        grid = LabelGrid.nodes_inclusive(fx.field.box, (17, 5, 17))
        times = np.linspace(fx.field.t0, fx.field.t1, 9)
        samp = SampledTrajectoryField.from_analytic(fx.field, grid, times)
        a = grid.nodes()[len(grid.nodes()) // 2]
        t = times[3]
        assert np.allclose(samp.position(a, t), fx.field.position(a, t), atol=1e-14)
        assert np.allclose(samp.velocity(a, t), fx.field.velocity(a, t), atol=1e-14)
        # spatial FD at h ~ 0.4: fourth-order truncation ~ h^4/30
        g_err = np.max(np.abs(samp.position_gradient(a, t) - fx.field.position_gradient(a, t)))
        assert g_err < 5e-4

    def test_time_fd_orders_when_derivatives_absent(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        grid = LabelGrid.nodes_inclusive(fx.field.box, (5, 5, 5))
        errs = {}
        for nt in (21, 41):
            times = np.linspace(0.0, 2.0, nt)
            positions = np.stack([fx.field.position(grid.mesh(), t) for t in times])
            samp = SampledTrajectoryField(grid, times, positions)
            a = grid.nodes()[31]
            t = times[nt // 2]
            errs[nt] = np.max(np.abs(samp.velocity(a, t) - fx.field.velocity(a, t)))
        # halving dt should shrink the 4th-order FD error ~16x
        assert errs[21] / errs[41] > 8.0

    def test_gradient_order_two_vs_four(self):
        # error measured at a point that is a grid node at every resolution,
        # so interpolation error cannot contaminate the stencil order
        fx = flows.make_fixture("gerstner")
        times = np.linspace(fx.field.t0, fx.field.t1, 5)
        errs = {2: [], 4: []}
        shapes = [(17, 5, 17), (33, 5, 33)]
        hs = []
        for shape in shapes:
            grid = LabelGrid.nodes_inclusive(fx.field.box, shape)
            hs.append(grid.spacings[0])
            k = (shape[0] - 1) // 4
            a = np.array([grid.axes[0][k], grid.axes[1][2], grid.axes[2][3 * k]])
            for order in (2, 4):
                samp = SampledTrajectoryField.from_analytic(fx.field, grid, times, order=order)
                g = samp.position_gradient(a, times[2])
                errs[order].append(
                    np.max(np.abs(g - fx.field.position_gradient(a, times[2])))
                )
        for order in (2, 4):
            slope = _fit_slope(hs, errs[order])
            assert slope >= order - 0.2, (order, slope, errs[order])

    def _translation_export(self):
        fx = flows.make_fixture("translation", c=(0.5, 0.0, 0.0))
        grid = LabelGrid.nodes_inclusive(fx.field.box, (5, 5, 5))
        return SampledTrajectoryField.from_analytic(fx.field, grid, np.linspace(0.0, 1.0, 4))

    def test_rejects_labels_beyond_non_periodic_axes(self):
        samp = self._translation_export()
        assert np.allclose(samp.position([1.0, 0.0, 0.0], 0.5), [1.25, 0.0, 0.0])
        for a in ([5.0, 0.0, 0.0], [0.0, -1.5, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 1.01]]):
            with pytest.raises(OutOfDomainError):
                samp.position(a, 0.5)
            with pytest.raises(OutOfDomainError):
                samp.velocity_gradient(a, 0.5)

    def test_out_of_grid_error_names_first_label_in_stack_order(self):
        fx = flows.make_fixture("rigid-rotation")
        grid = LabelGrid.nodes_inclusive(BOX, (5, 5, 5))
        samp = SampledTrajectoryField.from_analytic(fx.field, grid, np.linspace(0.0, 1.0, 3))
        labels = np.array([[0.0, 0.0, 1.5], [1.5, 0.0, 0.0]])
        with pytest.raises(OutOfDomainError, match=r"\(0\.0, 0\.0, 1\.5\) .* on axis 3"):
            samp.position(labels, 0.5)
        # the same label the analytic box check names
        with pytest.raises(OutOfDomainError, match=r"\(0\.0, 0\.0, 1\.5\)"):
            fx.field.check_domain(labels, 0.5)

    def test_periodic_axes_still_wrap(self):
        field = flows.make_fixture("abc", shape=(6, 6, 6), t1=0.2, dt=0.05).field
        a = np.array([0.3, 1.1, 2.0])
        shifted = a + np.array([2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi])
        assert np.allclose(field.position_gradient(shifted, 0.1),
                           field.position_gradient(a, 0.1), rtol=0.0, atol=1e-12)

    @staticmethod
    def _own_node_field(periodic):
        """A periodic advected field or a bounded sample of gerstner, both small."""
        if periodic:
            return flows.make_fixture("abc", shape=(6, 5, 4), t1=0.2, dt=0.05).field
        fx = flows.make_fixture("gerstner")
        grid = LabelGrid.nodes_inclusive(fx.field.box, (5, 5, 6))
        return SampledTrajectoryField.from_analytic(
            fx.field, grid, np.linspace(fx.field.t0, fx.field.t1, 5))

    @pytest.mark.parametrize("periodic", [True, False])
    def test_own_node_reads_equal_the_trilinear_gather_bitwise(self, periodic):
        field = self._own_node_field(periodic)
        nodes, mesh = field.grid.nodes(), field.grid.mesh()
        for t in (field.times[2], 0.5 * (field.times[1] + field.times[2])):
            for kind in ("position", "velocity", "acceleration"):
                for m in (kind, f"{kind}_gradient"):
                    got = getattr(field, m)(nodes, t)
                    gathered = np.stack([getattr(field, m)(a, t) for a in nodes])
                    assert got.tobytes() == gathered.tobytes()
                    assert getattr(field, m)(mesh, t).tobytes() == got.tobytes()
        on_ladder = field.position(nodes, field.times[2])
        # a view of the stamp's node data: no gather
        assert np.shares_memory(on_ladder, field.node_values("position", 2))

    @pytest.mark.parametrize("periodic", [True, False])
    def test_permuted_or_nearby_node_stacks_fall_through_to_the_gather(self, periodic):
        field = self._own_node_field(periodic)
        nodes, t = field.grid.nodes(), field.times[2]
        own = field.position(nodes, t), field.velocity_gradient(nodes, t)
        perm = np.random.default_rng(3).permutation(len(nodes))
        for labels, order in ((nodes[perm], perm), (nodes + 5e-13, slice(None))):
            got = field.position(labels, t)
            assert not np.shares_memory(got, field.positions)
            assert got.tobytes() == own[0][order].tobytes()
            assert field.velocity_gradient(labels, t).tobytes() == own[1][order].tobytes()

    def test_cached_and_own_node_stacks_are_read_only(self):
        field = self._own_node_field(True)
        nodes, t = field.grid.nodes(), field.times[1]
        reads = [lambda: field.position(nodes, t), lambda: field.velocity_gradient(nodes, t),
                 lambda: field.acceleration(nodes, t), lambda: field.node_gradients("position", 1),
                 lambda: field.node_values("acceleration", 1)]
        for read in reads:
            before = read().copy()
            with pytest.raises(ValueError, match="read-only"):
                read()[...] += 1.0
            assert read().tobytes() == before.tobytes()

    def test_periodic_stencils_equal_the_rolled_sum_bitwise(self):
        from vortlab.fields import _CENTRAL_1, _axis_derivative

        data = np.random.default_rng(4).normal(size=(7, 2, 1, 3))
        for order in (2, 4):
            offsets, weights = _CENTRAL_1[order]
            for axis in range(3):
                rolled = sum(float(w) * np.roll(data, -k, axis=axis)
                             for w, k in zip(weights, offsets)) / 0.3
                got = _axis_derivative(data, 0.3, axis, order, True, "axis")
                assert got.tobytes() == rolled.tobytes()

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_bounded_stencils_are_exact_on_polynomials_of_their_order(self, order, n):
        # central rows inside, one-sided rows at both edges, the right edge's negated:
        # every row is exact on a polynomial of the stencil order, edges included
        poly = np.polynomial.Polynomial([0.5, -1.0, 0.75, 2.0, -1.5][:order + 1])
        x = 0.3 * np.arange(n)
        for axis in range(3):
            shape, along = [2, 3, 2], [1, 1, 1]
            shape[axis] = along[axis] = n
            data = np.broadcast_to(poly(x).reshape(along), shape)
            got = _axis_derivative(data, 0.3, axis, order, False, "axis")
            want = np.broadcast_to(poly.deriv()(x).reshape(along), shape)
            assert np.allclose(got, want, rtol=0.0, atol=1e-11)

    def test_rejects_nonuniform_times(self):
        grid = LabelGrid.nodes_inclusive(BOX, (5, 5, 5))
        pos = np.zeros((3, 5, 5, 5, 3))
        with pytest.raises(ValueError):
            SampledTrajectoryField(grid, np.array([0.0, 0.1, 0.3]), pos)

    def test_position_reads_across_the_periodic_seam_add_the_period(self):
        field = flows.make_fixture("abc", shape=(24, 24, 24), t1=0.1, dt=0.05).field
        h = field.grid.spacings[0]
        labels = np.array([[2 * math.pi - h / 2, 1.0, 1.0], [2 * math.pi + 0.05, 1.0, 1.0]])
        # at t0 the positions are the labels: both read themselves, not x at node 0 unshifted
        assert np.allclose(field.position(labels, 0.0), labels, rtol=0.0, atol=1e-12)
        for a in labels:
            assert np.allclose(field.position(a, 0.0), a, rtol=0.0, atol=1e-12)

    def test_frames_take_labels_across_the_periodic_seam(self):
        # the seam cell, between the last node and the period, lies beyond the nodes' hull
        # (field.box): only the non-periodic axes and the window bound a frame's labels
        field = flows.make_fixture("abc").field
        a, t = np.array([2 * math.pi * 23.5 / 24, 1.0, 1.0]), 0.5
        want = gradient_curl(field.velocity_gradient(a, t), field.position_gradient(a, t))
        assert np.array_equal(Frame(field, a, t).omega, want)
        mixed = _advected_field((6, 6, 6), (True, False, False), 4)
        Frame(mixed, np.array([5.5, 1.0, 1.0]), 0.3).omega  # past the last node, 5.0
        with pytest.raises(OutOfDomainError, match=r"label \(1\.0, 5\.5, 1\.0\) outside"):
            Frame(mixed, np.array([1.0, 5.5, 1.0]), 0.3)
        with pytest.raises(OutOfDomainError, match="time"):
            Frame(field, a, 2.0)


def _advected_field(shape, periodic, order, positions_only=False):
    """abc trajectories on ``shape`` over [0, 0.6] with lazy accelerations, or from their
    positions alone; bounded axes simply stop at the cell's last node."""
    grid = LabelGrid.periodic_cell(Box((0.0, 0.0, 0.0), (6.0, 6.0, 6.0)), shape)
    field = flows.integrate_trajectories(flows.abc_velocity(), grid, 0.0, 0.6, 0.1,
                                         periodic=periodic, order=order)
    if positions_only:
        return SampledTrajectoryField(grid, field.times, field.positions, periodic=periodic,
                                      order=order)
    return field


@st.composite
def _block_reads(draw):
    """A field's shape, periodic flags, order and data (lazy accelerations or positions
    only), a small label stack on or off its nodes (past the seam on periodic axes, up to
    the edge on bounded ones) and a read time, on or off the stamps, end stamps included."""
    order = draw(st.sampled_from([2, 4]))
    periodic = tuple(draw(st.booleans()) for _ in range(3))
    shape = tuple(draw(st.integers(5, 10)) for _ in range(3))
    fracs = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.875])
    labels = []
    for _ in range(draw(st.integers(1, 3))):
        s = [draw(st.integers(-1 if p else 0, n if p else n - 1)) + draw(fracs)
             for n, p in zip(shape, periodic)]
        labels.append([6.0 / n * (x if p else min(x, n - 1))
                       for x, n, p in zip(s, shape, periodic)])
    t = 0.1 * draw(st.integers(0, 6)) + draw(st.sampled_from([0.0, 0.03]))
    return shape, periodic, order, draw(st.booleans()), np.array(labels), min(t, 0.6)


def _read_bytes(read, method, labels, t):
    try:
        return read(method, labels, t).tobytes()
    except OutOfDomainError as exc:  # a Hessian stencil stepping past a bounded edge
        return str(exc)


def _whole_slice_read(field, method, labels, t):
    """``method`` at ``labels`` and ``t`` from whole slices: ``node_values`` or
    ``node_gradients`` at each stamp the time falls between, taken at the labels' trilinear
    corners and weighted as the field weights them."""
    if method == "position_hessian":
        return fd_jacobian(lambda b: _whole_slice_read(field, "position_gradient", b, t),
                           labels, min(field.grid.spacings), 2)
    kind, gradient = method.removesuffix("_gradient"), method.endswith("_gradient")
    x = (t - field.t0) / field.dt
    s = float(round(x)) if abs(x - round(x)) <= 1e-9 else x
    last = len(field.times) - 1
    k0 = last if s == last else min(max(math.floor(s), 0), last - 1)
    a = np.asarray(labels, float)
    idx, periods, weights = field._corners(a)

    def at(k):
        whole = (field.node_gradients if gradient else field.node_values)(kind, k)
        data = whole[tuple(idx)]  # (corners, labels, ...)
        if periods is not None and kind == "position" and not gradient:
            period = np.multiply(field.grid.shape, field.grid.spacings)
            shift = np.moveaxis(periods, 0, -1) * period
            data = np.where(shift != 0, data + shift, data)
        if weights is None:
            return data[0].reshape(a.shape[:-1] + whole.shape[3:])
        w = weights.reshape(*weights.shape, *(1,) * (whole.ndim - 3))
        out = w[0] * data[0]
        for wk, dk in zip(w[1:], data[1:]):  # a corner of weight 0 is not added
            out = np.where(wk != 0, out + wk * dk, out)
        return out.reshape(a.shape[:-1] + whole.shape[3:])

    return at(k0) if s == k0 else (1 - (s - k0)) * at(k0) + (s - k0) * at(k0 + 1)


class TestBlockReads:
    """A read other than the field's own node stack computes only at the nodes it
    touches, bitwise as the whole slice gives it there."""

    @settings(max_examples=40, deadline=None)
    @given(case=_block_reads())
    def test_block_reads_equal_whole_slice_reads_bitwise(self, case):
        shape, periodic, order, positions_only, labels, t = case
        field = _advected_field(shape, periodic, order, positions_only)
        # in a holding block the reference's whole slices are kept and the reads take them
        for block in (contextlib.nullcontext(), field.holding()):
            with block:
                for stack in (labels, labels[0]):
                    for method in PROTOCOL_METHODS:
                        want = _read_bytes(lambda m, a, s: _whole_slice_read(field, m, a, s),
                                           method, stack, t)
                        # bytes compare signed zeros too
                        got = _read_bytes(lambda m, a, s: getattr(field, m)(a, s),
                                          method, stack, t)
                        assert got == want, method

    def test_one_node_reads_compute_no_whole_slice(self, monkeypatch):
        field = flows.make_fixture("abc").field
        slices, nodes = [], []
        node_gradients = field.node_gradients
        monkeypatch.setattr(field, "node_gradients",
                            lambda kind, ti: slices.append((kind, ti)) or node_gradients(kind, ti))
        accelerations = flows.material_accelerations
        monkeypatch.setattr(flows, "material_accelerations",
                            lambda u, xs, t, v: nodes.append(xs.size // 3)
                            or accelerations(u, xs, t, v))
        i, k = 1234, 7
        a, t = field.grid.nodes()[i], field.times[k]
        g, ga = field.position_gradient(a, t), field.acceleration_gradient(a, t)
        # accelerations only at the node's 12 order-4 stencil points, 4 along each axis
        assert slices == [] and nodes == [12]
        # a read in the seam cell, between nodes 23 and 0 of axis 1, takes both corners'
        # stencils across it: 21, 22, 23, 0, 1, 2 along axis 1 and 4 + 4 along each other
        field.acceleration_gradient((2 * math.pi - field.grid.spacings[0] / 2, *a[1:]), t)
        assert slices == [] and nodes == [12, 6 + 8 + 8]
        assert g.tobytes() == field.node_gradients("position", k).reshape(-1, 3, 3)[i].tobytes()
        assert (ga.tobytes()
                == field.node_gradients("acceleration", k).reshape(-1, 3, 3)[i].tobytes())
        assert nodes == [12, 22, 24 ** 3]

    def test_holding_block_computes_each_whole_slice_once(self, monkeypatch):
        field = flows.make_fixture("abc").field
        derivatives, nodes = [], []
        axis_derivative = fields._axis_derivative
        monkeypatch.setattr(fields, "_axis_derivative",
                            lambda *args, **kw: derivatives.append(kw["axis"])
                            or axis_derivative(*args, **kw))
        accelerations = flows.material_accelerations
        monkeypatch.setattr(flows, "material_accelerations",
                            lambda u, xs, t, v: nodes.append(xs.size // 3)
                            or accelerations(u, xs, t, v))
        # labels spread over the grid, off its nodes and stamps: reads of whole slices
        labels = field.grid.mesh() + field.grid.spacings[0] / 2
        t = (field.times[3] + field.times[4]) / 2
        reads = ("acceleration_gradient", "acceleration", "acceleration_gradient")
        with field.holding():
            held = [getattr(field, method)(labels, t).tobytes() for method in reads]
        # each stamp's lazy accelerations evaluated on every node once, then differentiated
        # once along each axis; the later reads come from the kept slices
        assert nodes == [24 ** 3] * 2 and len(derivatives) == 6
        assert field._held is None
        assert held == [getattr(field, method)(labels, t).tobytes() for method in reads]
        assert len(derivatives) == 6 + 2 * 6  # outside it each gradient read computes again

    def test_lazy_callables_receive_the_kind_before_on_the_nodes_a_read_touches(self):
        grid = LabelGrid.nodes_inclusive(BOX, (5, 4, 6))
        times = np.linspace(0.0, 1.0, 6)
        positions = np.random.default_rng(0).standard_normal((6, *grid.shape, 3))
        calls = []  # (kind, stamp, flat nodes or None for the whole slice, prev)

        def lazy(kind, scale):
            def data(k, nodes, prev):
                flat = None if nodes is ... else np.ravel_multi_index(nodes, grid.shape).tolist()
                calls.append((kind, k, flat, prev.tobytes()))
                return scale * prev
            return data

        field = SampledTrajectoryField(grid, times, positions, lazy("velocity", 2.0),
                                       lazy("acceleration", 3.0))
        x = positions[2]
        field.node_values("acceleration", 2)  # a whole slice
        assert calls == [("velocity", 2, None, x.tobytes()),
                         ("acceleration", 2, None, (2.0 * x).tobytes())]
        calls.clear()
        labels = grid.nodes()[[30, 7, 30]]  # a gather, one node twice
        rows, want = x.reshape(-1, 3)[[7, 30]], 6.0 * x.reshape(-1, 3)[[30, 7, 30]]
        assert field.acceleration(labels, times[2]).tobytes() == want.tobytes()
        assert calls == [("velocity", 2, [7, 30], rows.tobytes()),
                         ("acceleration", 2, [7, 30], (2.0 * rows).tobytes())]
        calls.clear()
        with field.holding():  # a held velocity slice serves the accelerations' gather
            field.node_values("velocity", 2)
            field.acceleration(labels, times[2])
        assert calls == [("velocity", 2, None, x.tobytes()),
                         ("acceleration", 2, [7, 30], (2.0 * rows).tobytes())]

    def test_held_gradient_slice_serves_a_small_read(self, monkeypatch):
        # a loop's few labels would gather their stencil points; inside a holding block
        # where the stamp's whole slice is held they take its rows, bitwise the gather's
        field = flows.make_fixture("abc", shape=(12, 12, 12)).field
        labels = field.grid.nodes()[[5, 700, 1500]] + 0.1
        t, rows = field.times[3], []
        stencil_rows = fields._stencil_rows
        monkeypatch.setattr(fields, "_stencil_rows",
                            lambda *args: rows.append(args) or stencil_rows(*args))
        gathered = field.position_gradient(labels, t).tobytes()
        assert rows
        rows.clear()
        with field.holding():
            field.node_gradients("position", 3)
            held = field.position_gradient(labels, t).tobytes()
        assert rows == [] and held == gathered

    def test_positions_only_read_takes_its_time_stencil_at_the_node_alone(self):
        fx = flows.make_fixture("rigid-rotation")
        grid = LabelGrid.nodes_inclusive(fx.field.box, (24, 24, 24))
        times = np.linspace(fx.field.t0, fx.field.t1, 21)
        positions = np.stack([fx.field.position(grid.mesh(), t) for t in times])
        field = SampledTrajectoryField(grid, times, positions)
        i, before = 1234, dict(vars(field))
        a = grid.nodes()[i]
        tracemalloc.start()
        try:
            field.acceleration(a, times[10])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # the read leaves the field as it found it: no derived array is kept
        assert vars(field).keys() == before.keys()
        assert all(vars(field)[key] is value for key, value in before.items())
        # bitwise the time derivatives of the whole position series, one-sided rows at
        # the end stamps included
        velocities = _axis_derivative(positions, field.dt, 0, 4, False, "time ladder")
        accelerations = _axis_derivative(velocities, field.dt, 0, 4, False, "time ladder")
        for k, t in enumerate(times):
            assert field.velocity(a, t).tobytes() == velocities[k].reshape(-1, 3)[i].tobytes()
            assert (field.acceleration(a, t).tobytes()
                    == accelerations[k].reshape(-1, 3)[i].tobytes())


@functools.cache
def _per_label_field(case):
    """The field of a per-label-time case, built once: (field, kind of labels)."""
    if case in ("identity", "translation", "shear", "rigid-rotation", "dilation", "gerstner"):
        return flows.make_fixture(case).field, "box"
    if case == "analytic-fd-fallback":
        field = AnalyticTrajectoryField(
            lambda a, t: a + t * np.sin(a[..., ::-1]) + t * t * a[..., [1, 2, 0]] ** 2, BOX)
        return field, "box"
    if case in ("polynomial", "polynomial-fraction"):
        return flows.make_fixture("non-euler").field, case
    # sampled: the advected fixtures (lazy accelerations) and grid files of abc
    if case == "taylor-green":
        return flows.make_fixture(case, shape=(8, 8, 4), t1=0.3).field, "nodes"
    field = flows.make_fixture("abc", shape=(6, 6, 6), t1=0.3).field
    if case == "abc":
        return field, "nodes"
    if case == "positions-npz":
        field = SampledTrajectoryField(field.grid, field.times, field.positions,
                                       periodic=field.periodic)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/grid.{case.split('-')[-1]}"
        save_grid(field, path)
        return load_grid(path), "nodes"


PER_LABEL_CASES = ("identity", "translation", "shear", "rigid-rotation", "dilation", "gerstner",
                   "analytic-fd-fallback", "polynomial", "polynomial-fraction", "abc",
                   "taylor-green", "grid-npz", "grid-csv", "positions-npz")


@st.composite
def _per_label_reads(draw):
    """A case, and a label stack with a time per label: repeated and distinct times; on a
    sampled field, labels on or off the nodes (past the periodic seam too) and times on the
    stamps, between them, on the last one and outside the window."""
    case = draw(st.sampled_from(PER_LABEL_CASES))
    field, kind = _per_label_field(case)
    n = draw(st.integers(1, 4))
    if kind == "nodes":
        shape, nt = field.grid.shape, len(field.times)
        fracs = st.sampled_from([0.0, 0.0, 0.25, 0.5])
        labels = [[ax[0] + field.grid.spacings[j] * (draw(st.integers(0, shape[j])) + draw(fracs))
                   for j, ax in enumerate(field.grid.axes)] for _ in range(n)]
        stamps = st.one_of(st.integers(0, nt - 1).map(float), st.sampled_from(
            [0.3, 1.5, nt - 1.0, nt - 1.7, -0.4, nt - 0.7]))
        times = [field.t0 + field.dt * draw(stamps) for _ in range(n)]
        return case, np.array(labels), np.array(times)
    if kind == "polynomial-fraction":
        rat = st.fractions(-1, 1, max_denominator=7)
        labels = np.array([[draw(rat) for _ in range(3)] for _ in range(n)], dtype=object)
        times = np.array([draw(st.fractions(0, 1, max_denominator=5)) for _ in range(n)],
                         dtype=object)
        return case, labels, times
    lo, hi = np.asarray(field.box.lo), np.asarray(field.box.hi)
    fracs = st.sampled_from([0.1, 0.3, 0.5, 0.77, 0.9])
    labels = np.array([lo + (hi - lo) * [draw(fracs) for _ in range(3)] for _ in range(n)])
    times = field.t0 + (field.t1 - field.t0) * np.array(
        [draw(st.sampled_from([0.0, 0.2, 0.2, 0.65, 1.0])) for _ in range(n)])
    return case, labels, times


class TestPerLabelTimes:
    """A stack with a time per label evaluates bitwise like its labels one at a time, each at
    its own scalar time, on every backend that takes them (signed zeros compared too)."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(read=_per_label_reads())
    def test_stack_equals_one_label_calls(self, read):
        case, labels, times = read
        field, _ = _per_label_field(case)
        for method in PROTOCOL_METHODS:
            got = getattr(field, method)(labels, times)
            want = np.stack([getattr(field, method)(a, t) for a, t in zip(labels, times)])
            assert got.shape == want.shape, method
            if want.dtype == object:
                assert got.dtype == object and (got == want).all(), method
                assert all(isinstance(v, Fraction) for v in got.flat), method
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), method

    @pytest.mark.parametrize("per_label", [False, True])
    def test_stack_of_labels_on_and_off_a_node_axis_keeps_signed_zeros(self, per_label):
        # the first label is on a node of axis 1, the second half-way: the stack adds an
        # upper corner of weight 0 for the first, whose own velocity holds a -0.0
        field = _per_label_field("taylor-green")[0]
        labels = np.array([[math.pi / 2, 0.0, 0.0], [math.pi / 8, 0.0, 0.0]])
        t = np.zeros(2) if per_label else 0.0
        for method in PROTOCOL_METHODS:
            want = np.stack([getattr(field, method)(a, 0.0) for a in labels])
            assert getattr(field, method)(labels, t).tobytes() == want.tobytes(), method

    @pytest.mark.parametrize("eps", [0.02, (0.01, 0.03)])
    def test_deformed_backend_rejects_per_label_times(self, eps):
        base = flows.make_fixture("gerstner").field
        var = VariationTriple.relabeling(RelabelGenerator.from_curl(bump_potential(base.box)))
        field = DeformedTrajectoryField(base, var, eps)
        labels = np.stack([base.box.center, base.box.center])
        for method in ("position", "velocity", "position_gradient"):
            with pytest.raises(TypeError, match="the deformed backend takes one time t"):
                getattr(field, method)(labels, np.array([0.1, 0.2]))
            getattr(field, method)(labels, 0.1)  # one time is fine

    def test_lazy_accelerations_once_per_distinct_stamp(self, monkeypatch):
        field = flows.make_fixture("abc", shape=(6, 6, 6), t1=0.3).field
        calls = []
        accelerations = flows.material_accelerations
        monkeypatch.setattr(flows, "material_accelerations",
                            lambda u, xs, t, v: calls.append(t) or accelerations(u, xs, t, v))
        nodes = field.grid.nodes()[[3, 40, 41, 100]]
        field.acceleration(nodes, field.times[[1, 4, 1, 4]])
        assert calls == [field.times[1], field.times[4]]


class TestGridIO:
    def _small_field(self):
        fx = flows.make_fixture("translation", c=(0.5, 0.0, 0.0))
        grid = LabelGrid.nodes_inclusive(fx.field.box, (5, 5, 5))
        times = np.linspace(0.0, 1.0, 4)
        return SampledTrajectoryField.from_analytic(fx.field, grid, times)

    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_roundtrip(self, tmp_path, suffix):
        field = self._small_field()
        path = str(tmp_path / f"grid{suffix}")
        save_grid(field, path)
        back = load_grid(path)
        assert back.grid.shape == field.grid.shape
        for kind in ("positions", "velocities", "accelerations"):  # repr round-trips
            assert np.array_equal(getattr(back, kind), getattr(field, kind))
        assert back.periodic == field.periodic
        assert back.order == field.order

    def test_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(GridFormatError):
            load_grid(path)

    def test_save_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "grid.txt"
        with pytest.raises(GridFormatError, match="grid.txt"):
            save_grid(self._small_field(), str(path))
        assert list(tmp_path.iterdir()) == []

    def test_rejects_text_under_npz_loader(self, tmp_path):
        path = tmp_path / "grid.txt"
        save_grid(self._small_field(), str(tmp_path / "grid.csv"))
        (tmp_path / "grid.csv").rename(path)
        with pytest.raises(GridFormatError, match="grid.txt"):
            load_grid(str(path))

    def test_rejects_empty_npz(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(GridFormatError, match="empty.npz"):
            load_grid(str(path))

    def test_rejects_bare_array_named_npz(self, tmp_path):
        np.save(tmp_path / "bare.npy", np.arange(3.0))
        path = tmp_path / "bare.npz"
        (tmp_path / "bare.npy").rename(path)
        with pytest.raises(GridFormatError, match="bare.npz"):
            load_grid(str(path))

    def test_rejects_truncated_npz(self, tmp_path):
        path = tmp_path / "cut.npz"
        save_grid(self._small_field(), str(path))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(GridFormatError, match="cut.npz"):
            load_grid(str(path))

    def test_rejects_non_utf8_csv(self, tmp_path):
        path = tmp_path / "latin.csv"
        save_grid(self._small_field(), str(path))
        path.write_bytes(b"# \xe9t\xe9\n" + path.read_bytes())
        with pytest.raises(GridFormatError, match="latin.csv"):
            load_grid(str(path))

    def test_missing_file_stays_file_not_found(self, tmp_path):
        for name in ("gone.npz", "gone.csv"):
            with pytest.raises(FileNotFoundError):
                load_grid(str(tmp_path / name))

    def test_rejects_malformed_csv(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(GridFormatError):
            load_grid(str(path))

    def test_rejects_bad_csv_number(self, tmp_path):
        path = tmp_path / "grid.csv"
        save_grid(self._small_field(), str(path))
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[row] = "not-a-number" + lines[row][lines[row].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridFormatError):
            load_grid(str(path))

    def test_rejects_csv_fields_without_positions(self, tmp_path):
        path = tmp_path / "grid.csv"
        save_grid(self._small_field(), str(path))
        text = path.read_text().replace("# fields positions ", "# fields displacements ")
        path.write_text(text)
        with pytest.raises(GridFormatError):
            load_grid(str(path))

    def _edit_csv(self, tmp_path, edit):
        """The small grid saved as CSV, its lines passed through ``edit``."""
        path = tmp_path / "grid.csv"
        save_grid(self._small_field(), str(path))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return str(path)

    @pytest.mark.parametrize("where", ["second", "last"])
    def test_magic_line_must_be_the_first(self, tmp_path, where):
        def move(lines):
            magic, *rest = lines
            return [rest[0], magic, *rest[1:]] if where == "second" else [*rest, magic]
        with pytest.raises(GridFormatError, match="needs the header line .# vortlab-grid 1. first"):
            load_grid(self._edit_csv(tmp_path, move))

    def test_rejects_repeated_csv_header_key(self, tmp_path):
        path = self._edit_csv(tmp_path, lambda lines: [
            *(line for line in lines if line.startswith("#")), "# order 2",
            *(line for line in lines if not line.startswith("#"))])
        with pytest.raises(GridFormatError, match="header key 'order' is given twice"):
            load_grid(path)

    @pytest.mark.parametrize("row", [1, 130, None], ids=["first-stamp", "second-stamp", "end"])
    def test_rejects_csv_header_line_after_the_data(self, tmp_path, row):
        def insert(lines):
            i = len(lines) if row is None else 9 + row
            return [*lines[:i], "# note a line", *lines[i:]]
        with pytest.raises(GridFormatError, match="header line '# note a line' after the data"):
            load_grid(self._edit_csv(tmp_path, insert))

    @pytest.mark.parametrize("fields", ["positions positions accelerations",
                                        "positions velocities vorticity"])
    def test_rejects_csv_fields_twice_or_unknown(self, tmp_path, fields):
        path = self._edit_csv(tmp_path, lambda lines: [
            f"# fields {fields}" if line.startswith("# fields") else line for line in lines])
        with pytest.raises(GridFormatError, match="'# fields' names each of"):
            load_grid(path)

    @pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
    @pytest.mark.parametrize("column, kind", [(0, "positions"), (4, "velocities"),
                                              (8, "accelerations")])
    def test_rejects_nonfinite_csv_node_data(self, tmp_path, value, column, kind):
        def put(lines):
            cells = lines[20].split(",")
            cells[column] = value
            return [*lines[:20], ",".join(cells), *lines[21:]]
        with pytest.raises(GridFormatError, match=f"{kind} holds a non-finite number"):
            load_grid(self._edit_csv(tmp_path, put))

    @pytest.mark.parametrize("kind", ["positions", "velocities", "accelerations"])
    def test_rejects_nonfinite_npz_node_data(self, tmp_path, kind):
        path = str(tmp_path / "grid.npz")
        save_grid(self._small_field(), path)
        with np.load(path) as data:
            array = data[kind].copy()
        array[1, 2, 3, 4, 2] = np.inf
        self._rewrite_npz(path, **{kind: array})
        with pytest.raises(GridFormatError, match=f"{kind} holds a non-finite number"):
            load_grid(path)

    @pytest.mark.parametrize("shape", ["100000 100000 100000 1000", f"{'9' * 400} 5 5 4"],
                             ids=["huge", "400-digit"])
    def test_oversized_csv_shape_allocates_nothing(self, tmp_path, shape):
        path = self._edit_csv(tmp_path, lambda lines: [
            f"# shape {shape}" if line.startswith("# shape") else line for line in lines])
        tracemalloc.start()
        try:
            with pytest.raises(GridFormatError, match="expected [0-9]+ rows x 9 cols"):
                load_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("error", [FloatingPointError, KeyboardInterrupt])
    def test_failed_csv_export_leaves_no_file_and_the_old_one(self, tmp_path, error):
        field = self._small_field()

        def accelerations(k, nodes, velocities):  # fails at the third stamp, after two are written
            if k == 2:
                raise error("stamp 2")
            return field.accelerations[k][nodes]

        failing = SampledTrajectoryField(field.grid, field.times, field.positions,
                                         field.velocities, accelerations)
        path = tmp_path / "grid.csv"
        with pytest.raises(error):
            save_grid(failing, str(path))
        assert list(tmp_path.iterdir()) == []
        path.write_text("an earlier export\n")
        with pytest.raises(error):
            save_grid(failing, str(path))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "an earlier export\n"
        save_grid(field, str(path))
        assert list(tmp_path.iterdir()) == [path]
        assert np.array_equal(load_grid(str(path)).accelerations, field.accelerations)

    def test_unwritable_csv_error_names_the_path(self, tmp_path):
        path = str(tmp_path / "missing" / "grid.csv")
        with pytest.raises(FileNotFoundError) as info:
            save_grid(self._small_field(), path)
        assert info.value.filename == path

    def test_csv_io_holds_one_stamp_at_a_time(self, tmp_path):
        field = flows.make_fixture("abc", shape=(12, 12, 12)).field
        table = 3 * field.positions.nbytes  # positions, velocities, lazy accelerations
        assert table == 21 * 12 ** 3 * 9 * 8
        path = str(tmp_path / "abc.csv")
        for op in (lambda: save_grid(field, path), lambda: load_grid(path)):
            tracemalloc.start()
            try:
                op()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * table

    def _rewrite_npz(self, path, **changes):
        save_grid(self._small_field(), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        for key, val in changes.items():
            if val is None:
                del arrays[key]
            else:
                arrays[key] = val
        np.savez(path, **arrays)

    @pytest.mark.parametrize("edit", [
        ("# order 4", "#\n# order 4"),
        ("# order 4", "# order"),
        ("# periodic 0 0 0", "# periodic 0"),
    ], ids=["bare-hash-line", "empty-order", "one-periodic-flag"])
    def test_rejects_malformed_csv_header(self, tmp_path, edit):
        path = tmp_path / "grid.csv"
        save_grid(self._small_field(), str(path))
        text = path.read_text()
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1]))
        with pytest.raises(GridFormatError):
            load_grid(str(path))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("line", [
        "# axis1 1e308 1e308", "# axis1 inf 0.5", "# axis2 0.0 nan",
        "# times nan 0.25", "# times 0.0 inf",
    ])
    def test_rejects_nonfinite_csv_ladder(self, tmp_path, line):
        # checked before any array arithmetic, so no overflow or invalid-value warning
        path = tmp_path / "grid.csv"
        save_grid(self._small_field(), str(path))
        key = line.split()[1]
        lines = [line if text.split()[1:2] == [key] else text
                 for text in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridFormatError, match="need finite numbers"):
            load_grid(str(path))

    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_rejects_axis_shorter_than_stencil(self, tmp_path, suffix):
        # a 5x4x3 grid at order 4: axes 2 and 3 are shorter than the 5-point
        # one-sided stencil, so it is neither written nor read; order 2
        # (3 points) or periodic short axes fit
        fx = flows.make_fixture("translation", c=(0.5, 0.0, 0.0))
        grid = LabelGrid.nodes_inclusive(fx.field.box, (5, 4, 3))
        times = np.linspace(0.0, 1.0, 4)
        path = str(tmp_path / f"grid{suffix}")
        with pytest.raises(GridFormatError, match="axis2 of length 4 is too short"):
            save_grid(SampledTrajectoryField.from_analytic(fx.field, grid, times), path)
        periodic = SampledTrajectoryField.from_analytic(fx.field, grid, times,
                                                        periodic=(False, True, True))
        save_grid(periodic, path)
        assert load_grid(path).periodic == (False, True, True)
        save_grid(SampledTrajectoryField.from_analytic(fx.field, grid, times, order=2), path)
        if suffix == ".csv":
            text = (tmp_path / "grid.csv").read_text()
            (tmp_path / "grid.csv").write_text(text.replace("# order 2", "# order 4"))
        else:
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files}
            np.savez(path, **{**arrays, "order": np.array([4])})
        with pytest.raises(GridFormatError, match="axis2 of length 4 is too short"):
            load_grid(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        line=st.integers(min_value=0, max_value=8),
        tokens=st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=10**12).map(str),
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.sampled_from(["", "positions", "velocities", "accelerations", "0", "1",
                                 "x", "-", "1e-320", "1e308"]),
            ),
            max_size=6,
        ),
        drop=st.booleans(),
    )
    def test_fuzzed_csv_header_loads_or_raises_format_error(self, tmp_path, line, tokens, drop):
        path = tmp_path / "fuzz.csv"
        if not path.exists():
            save_grid(self._small_field(), str(path))
            (tmp_path / "fuzz.orig").write_text(path.read_text())
        lines = (tmp_path / "fuzz.orig").read_text().splitlines()
        key = lines[line][1:].split()[0]
        lines[line] = "" if drop else " ".join(["#", key, *tokens])
        path.write_text("\n".join(lines) + "\n")
        try:
            field = load_grid(str(path))
        except GridFormatError:
            return
        assert field.position(field.grid.nodes()[0], field.t0).shape == (3,)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        row=st.integers(min_value=0, max_value=4 * 5 ** 3 - 1),
        cells=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "-1e400", "1e-400",
                                 "x", "0x1p3", "1_0", "#", "1.5 2.5"]),
            ),
            min_size=7, max_size=11,
        ),
    )
    @example(row=0, cells=["0.5"] * 9)
    @example(row=3, cells=["0.5", "", *["1.0"] * 7])
    @example(row=3, cells=["0.5"] * 10)
    @example(row=3, cells=["0.5"] * 8)
    @example(row=7, cells=["nan", *["1.0"] * 8])
    @example(row=7, cells=[*["1.0"] * 4, "inf", *["1.0"] * 4])
    @example(row=7, cells=[*["1.0"] * 8, "1e400"])
    @example(row=499, cells=["1.0", "x", *["1.0"] * 7])
    def test_fuzzed_csv_data_row_loads_or_raises_format_error(self, tmp_path, row, cells):
        path = tmp_path / "fuzz.csv"
        if not path.exists():
            save_grid(self._small_field(), str(path))
            (tmp_path / "fuzz.orig").write_text(path.read_text())
        lines = (tmp_path / "fuzz.orig").read_text().splitlines()
        lines[9 + row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        try:
            field = load_grid(str(path))
        except GridFormatError:
            return
        # it loads only as nine finite numbers, read as Python reads them
        values = [float(cell) for cell in cells]
        assert len(values) == 9 and all(map(math.isfinite, values))
        k, node = divmod(row, 5 ** 3)
        stored = [field.positions, field.velocities, field.accelerations]
        assert [float(v) for data in stored for v in data[k].reshape(-1, 3)[node]] == values

    def test_rejects_missing_npz_array(self, tmp_path):
        path = str(tmp_path / "grid.npz")
        self._rewrite_npz(path, times=None)
        with pytest.raises(GridFormatError):
            load_grid(path)

    def test_rejects_nonuniform_npz_axis(self, tmp_path):
        path = str(tmp_path / "grid.npz")
        self._rewrite_npz(path, axis1=np.array([-1.0, -0.5, 0.25, 0.5, 1.0]))
        with pytest.raises(GridFormatError):
            load_grid(path)

    @pytest.mark.parametrize("change", [
        {"positions": np.zeros((4, 5, 5, 5, 3), dtype=object)},
        {"order": np.array(["x"])},
        {"order": np.array([], dtype=int)},
        {"format": np.array([], dtype=str)},
        {"axis1": np.tile(np.linspace(-1.0, 1.0, 5), (2, 1))},
        {"axis1": np.array(["a", "b", "c", "d", "e"])},
        {"velocities": np.zeros((4, 5, 5, 4, 3))},
        {"accelerations": np.zeros((3, 5, 5, 5, 3))},
        {"version": np.array([2])},
        {"order": np.array([4.7])},
        {"axis1": np.array([0.0, 1e-9, 5e-9, 6e-9, 7e-9])},
    ], ids=["object-array", "text-order", "empty-order", "empty-format", "2d-axis",
            "text-axis", "velocities-shape", "accelerations-shape", "version-2",
            "fractional-order", "nanoscale-nonuniform-axis"])
    def test_rejects_malformed_npz_array(self, tmp_path, change):
        path = str(tmp_path / "grid.npz")
        self._rewrite_npz(path, **change)
        with pytest.raises(GridFormatError, match="grid.npz"):
            load_grid(path)

    def test_rejects_other_csv_version(self, tmp_path):
        path = tmp_path / "grid.csv"
        save_grid(self._small_field(), str(path))
        path.write_text(path.read_text().replace("# vortlab-grid 1\n", "# vortlab-grid 7\n"))
        with pytest.raises(GridFormatError, match="needs the header line .# vortlab-grid 1."):
            load_grid(str(path))

    def test_stored_kinds_must_match_the_positions(self):
        field = self._small_field()
        for kind in ("velocities", "accelerations"):
            arrays = {"velocities": field.velocities, "accelerations": field.accelerations,
                      kind: field.velocities[:, :, :, :4]}
            with pytest.raises(ValueError, match=f"{kind} shape"):
                SampledTrajectoryField(field.grid, field.times, field.positions, **arrays)

    def test_time_ladder_is_uniform_to_relative_rounding(self):
        grid = LabelGrid.nodes_inclusive(BOX, (5, 5, 5))
        with pytest.raises(ValueError, match="uniform time ladder"):
            SampledTrajectoryField(grid, [0.0, 1e-9, 5e-9], np.zeros((3, 5, 5, 5, 3)))
        # a ladder of nanosecond steps that is uniform builds
        field = SampledTrajectoryField(grid, [0.0, 1e-9, 2e-9], np.zeros((3, 5, 5, 5, 3)))
        assert field.dt == 1e-9

    def test_axis_or_ladder_off_where_reads_locate_it_is_rejected(self, tmp_path):
        # reads locate node i at origin + i step and stamp k at t0 + k dt, so a ladder off
        # that rule would read another node, or beside the stored one
        grid = LabelGrid.nodes_inclusive(Box((0.0, 0.0, 0.0), (4.0, 4.0, 4.0)), (5, 5, 5))
        times = np.array([0.0, 0.5, 1.0])
        positions = np.broadcast_to(grid.mesh(), (3, *grid.shape, 3)).copy()
        gap = LabelGrid((np.array([0.0, 1.0, 3.0, 4.0, 5.0]), *grid.axes[1:]), grid.spacings)
        with pytest.raises(ValueError, match="^axis1 is not uniformly spaced$"):
            SampledTrajectoryField(gap, times, positions)
        with pytest.raises(ValueError, match="uniform time ladder"):
            SampledTrajectoryField(grid, times + [0.0, 1e-7 * 0.5, 0.0], positions)
        path = tmp_path / "grid.npz"
        save_grid(SampledTrajectoryField(grid, times, positions), str(path))
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["axis1"][4] += 1e-6
        np.savez(path, **arrays)
        with pytest.raises(GridFormatError, match="grid.npz: axis1 is not uniformly spaced"):
            load_grid(str(path))

    @pytest.mark.parametrize("name", flows.fixture_names())
    def test_every_catalog_export_reloads(self, tmp_path, name):
        # the .npz file stores the ladders as written; the CSV loader rebuilds them as
        # start + step * arange(n), uniform to rounding by construction
        path = str(tmp_path / f"{name}.npz")
        assert main(["export", "--fixture", name, "--out", path]) == 0
        field = load_grid(path)
        assert field.positions.shape[1:] == (*field.grid.shape, 3)


class TestGrids:
    def test_cell_centers_cover_box(self):
        grid = LabelGrid.cell_centers(BOX, (4, 4, 4))
        nodes = grid.nodes()
        assert len(nodes) == 64
        assert abs(grid.cell_volume * 64 - np.prod(BOX.extent)) < 1e-12

    def test_periodic_cell_matches_the_fixture_and_region_layouts(self):
        two_pi = 2.0 * math.pi
        cell = Box((0.0, 0.0, 0.0), (two_pi, two_pi, two_pi))
        cases = [(cell, (24, 24, 24)), (cell, (24, 24, 4)),
                 (Box((-1.0, 0.5, 2.0), (1.0, 3.0, 2.5)), (5, 3, 7))]
        for box, shape in cases:
            grid = LabelGrid.periodic_cell(box, shape)
            region = LabelRegion(box, shape, periodic=True).grid()
            for j, (lo, hi, n) in enumerate(zip(box.lo, box.hi, shape)):
                axis = np.linspace(lo, hi, n, endpoint=False)
                assert grid.axes[j].tobytes() == axis.tobytes()
                assert grid.spacings[j] == (hi - lo) / n
                assert region.axes[j].tobytes() == axis.tobytes()
                assert region.spacings[j] == grid.spacings[j]
        fields = (flows.make_fixture("abc", shape=(6, 5, 4), t1=0.1).field,
                  flows.make_fixture("taylor-green", shape=(6, 5, 4), t1=0.1).field)
        for field in fields:
            grid = LabelGrid.periodic_cell(cell, (6, 5, 4))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(field.grid.axes, grid.axes))
            assert field.grid.spacings == grid.spacings

    def test_zero_length_axis_is_a_value_error(self):
        makers = (lambda: LabelGrid.periodic_cell(BOX, (0, 2, 2)),
                  lambda: LabelRegion(BOX, (2, 0, 2), periodic=True).grid(),
                  lambda: LabelGrid.cell_centers(BOX, (2, 2, 0)),
                  lambda: flows.make_fixture("abc", shape=(0, 4, 4)))
        for make in makers:
            with pytest.raises(ValueError, match="need at least one cell per axis"):
                make()

    def test_mesh_holds_the_nodes_in_row_major_order(self):
        grid = LabelGrid.cell_centers(BOX, (2, 3, 4))
        mesh = grid.mesh()
        assert mesh.shape == (2, 3, 4, 3)
        assert mesh[1, 2, 3].tolist() == [grid.axes[0][1], grid.axes[1][2], grid.axes[2][3]]
        assert grid.nodes().tobytes() == mesh.reshape(-1, 3).tobytes()

    def test_rejects_decreasing_axes(self):
        with pytest.raises(ValueError):
            LabelGrid((np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                      (1.0, 1.0, 1.0))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            LabelGrid((np.array([0.0, 1.0]),) * 3, (1.0, 0.0, 1.0))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))


def _sum_outcome(fn, values):
    """What ``fn(values)`` gives: the float's bytes (signed zeros count), "nan", or the
    exception's type and text."""
    try:
        total = fn(values)
    except (ValueError, OverflowError, FloatingPointError) as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(total) else struct.pack("<d", total)


def _fsum_outcome(values):
    """``_sum_outcome`` of ``math.fsum``, its ValueError or OverflowError counted as the
    FloatingPointError with the same text that ``exact_sum`` raises in its place."""
    out = _sum_outcome(math.fsum, values)
    return (FloatingPointError, out[1]) if isinstance(out, tuple) else out


class TestExactSum:
    """``exact_sum`` is ``math.fsum`` bitwise, special values included, and raises fsum's
    errors with their text as FloatingPointError: on short arrays too when they take the
    extraction path."""

    @pytest.fixture(autouse=True, params=["extracted", "default"])
    def floor(self, request, monkeypatch):
        if request.param == "extracted":
            monkeypatch.setattr(fields, "FSUM_BELOW", 0)

    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0], [0.0, -0.0], [-0.0, -0.0], [0.0] * 1000,
        [1e16, 1.0, -1e16], [0.1] * 10 + [-1.0], [1.0, 1e100, 1.0, -1e100],
        [1e-308, -1e-308, 5e-324], [5e-324, 5e-324, -1e-323], [5e-324] * 3, [2.0 ** -1060] * 7,
        [1.7e308, -1.7e308, 1e308], [1.7e308, 1e291], [2.0 ** 1000] * 300, [-1e308, 1e308] * 4,
        [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -105], [1.0, -(2.0 ** -54), 2.0 ** -106],
        [math.inf, 1.0], [-math.inf, -math.inf], [math.nan, 1.0], [math.nan, math.inf],
        [-math.inf, math.inf], [math.inf, math.nan, -math.inf], [1e308, 1e308],
        [1e308, 1e308, -math.inf], [math.inf, 1e308, 1e308],
    ])
    def test_named_cases(self, values):
        x = np.array(values, float)
        assert _sum_outcome(exact_sum, x) == _fsum_outcome(x)

    def test_fsum_errors_come_back(self):
        # as FloatingPointError, which the CLI reports as an out-of-range value (exit 2)
        with pytest.raises(FloatingPointError, match="-inf \\+ inf"):
            exact_sum(np.array([-math.inf, math.inf]))
        with pytest.raises(FloatingPointError, match="intermediate overflow"):
            exact_sum(np.array([1e308, 1e308]))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(width=64), max_size=40),
           cancel=st.lists(st.integers(0, 39), max_size=10), shape=st.sampled_from([-1, 2]))
    def test_equals_fsum_on_any_floats(self, values, cancel, shape):
        # subnormals, extremes, inf and NaN come from the float strategy; negated copies of
        # some terms cancel exactly
        x = np.array(values + [-values[i] for i in cancel if i < len(values)], float)
        if shape == 2 and x.size % 2 == 0:
            x = x.reshape(2, -1)  # any shape is summed whole
        assert _sum_outcome(exact_sum, x) == _fsum_outcome(np.ravel(x))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 20000),
           lo=st.integers(-1074, 1000), spread=st.integers(0, 1100))
    def test_equals_fsum_on_long_arrays(self, seed, n, lo, spread):
        rng = np.random.default_rng(seed)
        exponents = rng.integers(lo, min(lo + spread, 1000) + 1, n)
        x = rng.standard_normal(n) * np.ldexp(1.0, exponents)
        x[rng.integers(0, n, n // 3)] *= -1
        assert _sum_outcome(exact_sum, x) == _fsum_outcome(x)
