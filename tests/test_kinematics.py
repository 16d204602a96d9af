"""Jacobian bundle and the kinematic identity battery."""

import random
from fractions import Fraction

import numpy as np
import pytest

from vortlab import flows
from vortlab.errors import DegenerateMapError
from vortlab.fields import (
    AnalyticTrajectoryField,
    Box,
    PolynomialTrajectoryField,
    per_label,
)
from vortlab.kinematics import (
    DEGENERACY_RTOL,
    Frame,
    JacobianBundle,
    _rate_residual,
    checked_det,
    cof3,
    cofactor_rate,
    convective_gradient_residual,
    curl_cross_identity_residual,
    det3,
    det_rate,
    inverse_jacobian_rate_residual,
    jacobian,
    jacobian_rate_residual,
    pullback_gradient,
    run_identity_battery,
)
from vortlab.poly import Poly, Rat, random_point, random_poly

BOX = Box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))


def shear_field(rate=1.0):
    return flows.make_fixture("shear", rate=rate, t0=0.0, t1=5.0).field


class TestBundle:
    def test_identity_bundle(self):
        b = jacobian(flows.make_fixture("identity").field, (0.1, 0.2, 0.3), 0.5)
        assert np.allclose(b.matrix, np.eye(3))
        assert b.det == pytest.approx(1.0)
        assert np.allclose(b.cof, np.eye(3))
        assert np.allclose(b.inv, np.eye(3))

    def test_dilation_scaling(self):
        # x = 2a: J = 8, cofactors 4 I
        b = JacobianBundle(2.0 * np.eye(3))
        assert b.det == pytest.approx(8.0)
        assert np.allclose(b.cof, 4.0 * np.eye(3))
        assert np.allclose(b.inv, 0.5 * np.eye(3))

    def test_shear_bundle(self):
        b = jacobian(shear_field(), (0.0, 0.0, 0.0), 3.0)
        assert b.det == pytest.approx(1.0)
        assert np.allclose(b.matrix, [[1.0, 3.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_cof_equals_det_times_inv_transpose(self):
        rng = random.Random(5)
        for _ in range(30):
            deltas = [Fraction(1, 8) * random_poly(rng, 4) for _ in range(3)]
            fld = PolynomialTrajectoryField.identity_plus(deltas, BOX, -1.0, 1.0)
            a = random_point(rng, 3, 6)
            t = random_point(rng, 1, 6)[0]
            try:
                b = jacobian(fld, a, t)
            except DegenerateMapError:
                continue
            lhs = b.cof
            rhs = b.det * b.inv.T
            assert all(x == y for x, y in zip(lhs.flat, rhs.flat))
            prod = b.matrix @ b.inv
            assert all(prod[i, j] == (1 if i == j else 0) for i in range(3) for j in range(3))

    def test_degenerate_map_raises(self):
        a1, a2, a3, t = (Poly.variable(4, i) for i in range(4))
        collapsing = PolynomialTrajectoryField([a1, a2, t * a3], BOX, -1.0, 1.0)
        with pytest.raises(DegenerateMapError):
            jacobian(collapsing, (Fraction(0), Fraction(0), Fraction(1)), Fraction(0))

    def test_singular_map_error_names_first_label_and_time(self):
        # x = (a1, a2, (1 - t(2 - t)) a3) over [0, 2] collapses every label at t = 1
        box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        field = AnalyticTrajectoryField(
            lambda a, t: np.stack([a[..., 0], a[..., 1], (1 - t * (2 - t)) * a[..., 2]], axis=-1),
            box, 0.0, 2.0,
            position_gradient=lambda a, t: np.diag([1.0, 1.0, 1 - t * (2 - t)]),
        )
        nodes = np.array([[0.5, -0.25, 0.75], [0.1, 0.2, 0.3]])
        want = r"Jacobian determinant 0\.0 below degeneracy threshold at a=\(0\.5, -0\.25, 0\.75\), t=1\.0$"
        with pytest.raises(DegenerateMapError, match=want):
            Frame(field, nodes, 1.0).det
        with pytest.raises(DegenerateMapError, match=want):
            jacobian(field, nodes[0], 1.0)
        with pytest.raises(DegenerateMapError, match=want):
            jacobian(field, nodes, 1.0)
        assert jacobian(field, nodes, 0.5).det.shape == (2,)


class TestBatchedMatrixHelpers:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(4, 2, 3, 3))
        d, c = det3(stack), cof3(stack)
        assert d.shape == (4, 2) and c.shape == (4, 2, 3, 3)
        for idx in np.ndindex(4, 2):
            m = stack[idx]
            assert d[idx] == det3(m)
            assert np.array_equal(c[idx], cof3(m))

    def test_checked_det_flags_one_bad_matrix_in_a_stack(self):
        stack = np.repeat(np.eye(3)[None], 5, axis=0)
        assert np.array_equal(checked_det(stack), np.ones(5))
        stack[3] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-16]]
        with pytest.raises(DegenerateMapError):
            checked_det(stack)

    def test_checked_det_is_scale_invariant(self):
        # a tiny but well-conditioned map is not singular; a skewed one is
        assert checked_det(1e-7 * np.eye(3)) == pytest.approx(1e-21)
        skewed = 1e6 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-16]])
        with pytest.raises(DegenerateMapError):
            checked_det(skewed)

    def test_checked_det_exact_on_fractions(self):
        g = np.array([[Fraction(1), Fraction(2), Fraction(0)],
                      [Fraction(0), Fraction(1, 3), Fraction(1)],
                      [Fraction(1), Fraction(2), Fraction(0)]], dtype=object)
        with pytest.raises(DegenerateMapError):
            checked_det(g)
        g[2, 2] = Fraction(1, 7)
        assert checked_det(g) == Fraction(1, 21)


def _hypot_checked_det(g, a=None, t=None):
    """checked_det as it was before its 1-norm pre-check: np.hypot row norms at every label."""
    d = det3(g)
    gf = np.asarray(g, float)
    rows = np.hypot(np.hypot(gf[..., 0], gf[..., 1]), gf[..., 2])
    bound = DEGENERACY_RTOL * rows[..., 0] * rows[..., 1] * rows[..., 2]
    singular = np.ravel((d == 0) | (np.abs(np.asarray(d, float)) < bound))
    if singular.any():
        k = int(np.argmax(singular))
        dk, norms = np.ravel(d)[k], np.reshape(rows, (-1, 3))[k].tolist()
        ratio = abs(float(dk)) / norms[0] / norms[1] / norms[2] if dk != 0 else 0.0
        at = ""
        if a is not None:
            label = tuple(np.reshape(np.asarray(a, float), (-1, 3))[k].tolist())
            at = f" at a={label}, t={np.ravel(t)[k] if per_label(t) else t}"
        raise DegenerateMapError(
            f"singular map (|J| over the product of G's row norms is {ratio:.3g} < "
            f"{DEGENERACY_RTOL:g}): Jacobian determinant {dk} below degeneracy threshold{at}")
    return d


def _det_outcome(fn, g, a, t):
    """The determinant's bytes, or the error's type and text, of ``fn(g, a, t)``."""
    try:
        return "det", np.asarray(fn(g, a, t), float).tobytes()
    except (DegenerateMapError, FloatingPointError) as exc:
        return type(exc).__name__, str(exc)


def _det_stack(rng, n, kinds):
    """(n, 3, 3) matrices, each of a kind drawn from ``kinds``: 0 plain, 1 |J| over the row
    norms' product within a decade of DEGENERACY_RTOL, 2 rows scaled by 1e-160 to 1e300,
    3 a zero row, 4 an infinite entry, 5 a NaN entry."""
    g = rng.standard_normal((n, 3, 3))
    kind = rng.choice(kinds, n)
    near = np.flatnonzero(kind == 1)
    r1, r2 = g[near, 0], g[near, 1]
    plane = rng.standard_normal((len(near), 2, 1))
    r3 = plane[:, 0] * r1 + plane[:, 1] * r2
    normal = np.cross(r1, r2)
    area = np.linalg.norm(normal, axis=1)
    target = DEGENERACY_RTOL * 10.0 ** rng.uniform(-1, 1, len(near))
    lift = target * np.prod(np.linalg.norm([r1, r2, r3], axis=2), axis=0) / area
    g[near, 2] = r3 + (rng.choice([-1.0, 1.0], len(near)) * lift / area)[:, None] * normal
    scaled = kind == 2
    g[scaled] *= 10.0 ** rng.uniform(-160, 300, (scaled.sum(), 3, 1))
    for k, value in ((3, 0.0), (4, np.inf), (5, np.nan)):
        at = np.flatnonzero(kind == k)
        if k == 3:
            g[at, rng.integers(0, 3, len(at))] = value
        else:
            g[at, rng.integers(0, 3, len(at)), rng.integers(0, 3, len(at))] = value
    return g


class TestCheckedDetPreCheck:
    """The 1-norm pre-check returns what the hypot test alone returns, and raises the same
    error naming the same first label."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kinds", [(0, 1, 2), (0, 1, 2, 3, 4, 5), (1,), (2,)])
    def test_matches_the_hypot_test(self, seed, kinds):
        rng = np.random.default_rng(seed)
        g = _det_stack(rng, 400, kinds)
        a = rng.uniform(-1.0, 1.0, (400, 3))
        cases = [(g, a, 0.5), (g, a, rng.uniform(0.0, 1.0, 400)), (g[:7], None, None)]
        cases += [(g[k], a[k], 0.25) for k in range(0, 400, 37)]  # one matrix each
        # the CLI's float errors raise; without them, the stacks run through
        for state in ({"over": "raise", "invalid": "raise", "divide": "raise"}, {"all": "ignore"}):
            with np.errstate(**state):
                for case in cases:
                    assert _det_outcome(checked_det, *case) == _det_outcome(_hypot_checked_det,
                                                                            *case)

    def test_regular_stack_returns_its_determinants(self):
        # rows scaled by 1e-60 to 1e60: no product leaves the float range, no label is singular
        rng = np.random.default_rng(7)
        g = rng.standard_normal((1000, 3, 3)) * 10.0 ** rng.uniform(-60, 60, (1000, 3, 1))
        assert checked_det(g).tobytes() == _hypot_checked_det(g).tobytes()

    def test_fraction_stacks_take_the_hypot_test(self):
        rng = np.random.default_rng(5)
        g = np.array([[[Fraction(int(v), 3) for v in row] for row in m]
                      for m in rng.integers(-3, 4, (50, 3, 3))], dtype=object)
        for stack in (g, g[np.flatnonzero(det3(g) != 0)]):
            assert _det_outcome(checked_det, stack, None, None) == _det_outcome(
                _hypot_checked_det, stack, None, None)


class TestVolumeTransport:
    def test_incompressible_fixtures_keep_their_jacobian(self):
        # rotation and the trochoidal wave have time-independent determinants
        for name in ("rigid-rotation", "gerstner"):
            fx = flows.make_fixture(name)
            rng = np.random.default_rng(2)
            box = fx.field.box
            for _ in range(15):
                a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
                j0 = jacobian(fx.field, a, fx.field.t0).det
                jt = jacobian(fx.field, a, rng.uniform(fx.field.t0, fx.field.t1)).det
                assert abs(jt - j0) < 1e-12 * max(1.0, abs(j0))

    def test_analytic_cofactor_consistency(self):
        fx = flows.make_fixture("gerstner")
        b = jacobian(fx.field, (2.2, 0.5, -1.1), 0.7)
        assert np.max(np.abs(b.cof - b.det * np.asarray(b.inv, float).T)) < 1e-12
        assert np.max(np.abs(b.matrix @ b.inv - np.eye(3))) < 1e-12


class TestPullbackAndTransport:
    def test_identity_pullback(self):
        b = JacobianBundle(np.eye(3))
        assert np.allclose(pullback_gradient(b, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_dilation_pullback(self):
        b = JacobianBundle(2.0 * np.eye(3))
        assert np.allclose(pullback_gradient(b, [1.0, 1.0, 1.0]), [2.0, 2.0, 2.0])

    def test_shear_pullback(self):
        b = jacobian(shear_field(), (0.0, 0.0, 0.0), 3.0)
        assert np.allclose(pullback_gradient(b, [1.0, 0.0, 0.0]), [1.0, 3.0, 0.0])

    def test_pullback_gradient_matches_fd_composition(self):
        # grad_a of psi(x(a, t)) equals G^T grad_x psi
        fx = flows.make_fixture("gerstner")
        a, t = np.array([2.3, 0.5, -1.1]), 0.4
        b = jacobian(fx.field, a, t)
        x = fx.field.position(a, t)
        grad_x = np.array([np.cos(x[0]) * x[2], 0.0, np.sin(x[0])])
        want = pullback_gradient(b, grad_x)
        h = 1e-5
        got = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            xp = fx.field.position(a + h * e, t)
            xm = fx.field.position(a - h * e, t)
            got[j] = (np.sin(xp[0]) * xp[2] - np.sin(xm[0]) * xm[2]) / (2 * h)
        assert np.allclose(want, got, atol=1e-8)


class TestRateIdentities:
    def test_identity_map_zero(self):
        frame = jacobian(flows.make_fixture("identity").field, (0.1, 0.2, 0.3), 0.5)
        gv = frame.read("velocity_gradient")
        assert np.allclose(inverse_jacobian_rate_residual(frame, gv), 0.0)
        assert np.allclose(convective_gradient_residual(frame.read("velocity"), gv), 0.0)

    def test_rotation_residuals_with_fd_in_time(self):
        f = flows.make_fixture("rigid-rotation", omega0=1.0).field
        a, t = np.array([0.4, -0.3, 0.2]), 2.1
        assert np.max(np.abs(jacobian_rate_residual(jacobian(f, a, t), 1e-3))) < 1e-10

    def test_polynomial_shear_exactly_zero(self):
        a1, a2, a3, t = (Poly.variable(4, i) for i in range(4))
        fld = PolynomialTrajectoryField([a1 + t * a2, a2, a3], BOX, 0.0, 2.0)
        frame = jacobian(fld, (Fraction(1, 3), Fraction(-1, 2), Fraction(1)), Fraction(3, 4))
        gv = frame.read("velocity_gradient")
        assert all(v == 0 for v in inverse_jacobian_rate_residual(frame, gv).flat)
        assert all(v == 0 for v in convective_gradient_residual(frame.read("velocity"), gv))


class TestStackedCores:
    CORES = {
        "cofactor_rate": lambda b, gv, v: cofactor_rate(b.matrix, gv),
        "det_rate": lambda b, gv, v: det_rate(b.cof, gv),
        "rate": lambda b, gv, v: _rate_residual(b, gv, np.swapaxes(gv, -1, -2)),
        "inverse_rate": lambda b, gv, v: inverse_jacobian_rate_residual(b, gv),
        "convective": lambda b, gv, v: convective_gradient_residual(v, gv),
    }

    @staticmethod
    def _draw(rng, shape, exact):
        num, den = rng.integers(-9, 10, size=shape), rng.integers(1, 8, size=shape)
        if exact:
            return np.vectorize(lambda n, d: Fraction(int(n), int(d)), otypes=[object])(num, den)
        return num / den + 1e-3 * rng.normal(size=shape)

    @pytest.mark.parametrize("exact", [False, True])
    def test_stack_equals_its_labels(self, exact):
        rng = np.random.default_rng(11)
        g = np.eye(3, dtype=object if exact else float) + self._draw(rng, (5, 3, 3), exact) / 4
        gv, v = self._draw(rng, (5, 3, 3), exact), self._draw(rng, (5, 3), exact)
        stacked_bundle = JacobianBundle(g)
        for name, core in self.CORES.items():
            stacked = core(stacked_bundle, gv, v)
            for n in range(5):
                one = core(JacobianBundle(g[n]), gv[n], v[n])
                if exact:
                    assert all(isinstance(x, Fraction) for x in np.ravel(one)), name
                    assert np.all(stacked[n] == one), name
                else:
                    assert np.array_equal(stacked[n], one), name
            if exact and name in ("rate", "inverse_rate", "convective"):
                assert all(x == 0 for x in stacked.flat), name


class TestBattery:
    def test_hundred_randomized_triples_exact(self):
        out = run_identity_battery(seed=1, trials=100)
        assert out["exact_zero_counts"] == {
            "rate": 100, "inverse_rate": 100, "convective": 100,
            "curl_pullback": 100, "curl_cross": 100,
        }

    def test_each_quantity_evaluated_once_per_trial(self, monkeypatch):
        calls = {"position_gradient": 0, "velocity_gradient": 0}
        built = set()
        for name in calls:
            method = getattr(PolynomialTrajectoryField, name)

            def counted(self, a, t, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, a, t)

            monkeypatch.setattr(PolynomialTrajectoryField, name, counted)
        table = PolynomialTrajectoryField._table

        def recorded(self, kind):
            built.add(kind)
            return table(self, kind)

        monkeypatch.setattr(PolynomialTrajectoryField, "_table", recorded)
        out = run_identity_battery(seed=1, trials=10)
        assert out["redraws"] == 0
        assert calls == {"position_gradient": 10, "velocity_gradient": 10}
        assert not built & {"acceleration", "acceleration_gradient"}

    def test_each_coordinate_power_once_per_evaluation(self, monkeypatch):
        calls = [0]
        power = Rat.__pow__

        def counted(self, *args):
            calls[0] += 1
            return power(self, *args)

        monkeypatch.setattr(Rat, "__pow__", counted)
        out = run_identity_battery(seed=1, trials=100)
        assert set(out["exact_zero_counts"].values()) == {100}
        assert 0 < calls[0] <= 5200

    def test_perturbed_inputs_give_no_exact_zero(self):
        # negative control: exact Rat arithmetic must not manufacture a zero
        rng = random.Random(3)
        fld = PolynomialTrajectoryField.identity_plus(
            [Rat(1, 8) * random_poly(rng, 4) for _ in range(3)], BOX, -1.0, 1.0)
        a, t = random_point(rng, 3, 6), random_point(rng, 1, 6)[0]
        bundle = jacobian(fld, a, t)
        gv = fld.velocity_gradient(a, t)
        bad = gv.copy()
        bad[0, 1] += Rat(1, 7)
        rate = _rate_residual(bundle, bad, np.swapaxes(gv, -1, -2))
        want = np.full((3, 3), Fraction(0), dtype=object)
        want[1, 0] = Fraction(-1, 7)
        assert (rate == want).all() and all(type(x) is Rat for x in rate.flat)
        # the J^2-scaled inverse route vanishes for every dG/dt, so its control perturbs J:
        # the residual is then (1/7) d(adj G)/dt / J'^2, here computed in plain Fractions
        off = JacobianBundle(bundle.matrix)
        off.det = off.det + Rat(1, 7)
        inv = inverse_jacobian_rate_residual(off, gv)
        plain = np.vectorize(Fraction, otypes=[object])
        adj_rate = np.swapaxes(cofactor_rate(plain(bundle.matrix), plain(gv)), -1, -2)
        want = Fraction(1, 7) * adj_rate / Fraction(off.det) ** 2
        assert not all(x == 0 for x in inv.flat)
        assert (inv == want).all() and all(type(x) is Rat for x in inv.flat)

    def test_battery_is_deterministic(self):
        assert run_identity_battery(seed=9, trials=10) == run_identity_battery(seed=9, trials=10)

    def test_curl_cross_identity_floats(self):
        # also holds in float arithmetic to rounding
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=3), rng.normal(size=3)
        dv, dw = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        assert abs(curl_cross_identity_residual(v, w, dv, dw)) < 1e-12
