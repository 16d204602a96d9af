"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.

Criterion 3's dilation half is expected to fail and is marked strict-xfail:
an isotropic dilation x = lambda(t) a has velocity image V = lambda lambda'
a, whose time rate is the exact label gradient of (lambda lambda')' |a|^2/2,
so its curl (the Cauchy residual) is identically zero no matter how
non-extremal the flow is.  The dilation control is correctly detected by the
momentum residual instead (see the verify suite), and the non-Euler
polynomial map covers the Cauchy-detector half of the criterion.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from vortlab import flows
from vortlab.fields import Box, LabelGrid, ScalarField, VectorField
from vortlab.invariants import cauchy_drift, cauchy_residual
from vortlab.kinematics import Frame, run_identity_battery
from vortlab.poly import Poly
from vortlab.theorems import (
    LabelLoop,
    LabelRegion,
    beltrami_residual,
    circulation_drift,
    dalembert_euler_residual,
    ertel_drift,
    helicity_drift,
)
from vortlab.variational import (
    DEFAULT_EPS_LADDER,
    RelabelGenerator,
    SpaceTimeQuadrature,
    VariationTriple,
    action_ladder,
    bump_potential,
    el_part,
    fit_loglog_slope,
    noether_boundary_term,
    relabeling_invariance_scan,
    rund_trautman_check,
    sine_potential,
    weak_form_integral,
)


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status} - {detail}")


def poly_generator():
    a1, a2 = Poly.variable(4, 0), Poly.variable(4, 1)
    zero = Poly(4, {})
    return RelabelGenerator.from_potential_polys([zero, zero, a1 * a2], label="psi=a1*a2")


S_A3 = ScalarField(value=lambda a, t: a[..., 2],
                   gradient_fn=lambda a, t: np.array([0.0, 0.0, 1.0]))


class TestCriterion1:
    def test_identity_battery_exact_and_fast(self):
        t0 = time.perf_counter()
        out = run_identity_battery(seed=2024, trials=100)
        elapsed = time.perf_counter() - t0
        counts = out["exact_zero_counts"]
        ok = all(v == 100 for v in counts.values()) and elapsed < 10.0
        report(1, ok, f"identity battery 100 trials all-exact in {elapsed:.2f}s "
                      f"(counts {counts})")
        assert all(v == 100 for v in counts.values())
        assert elapsed < 10.0


class TestCriterion2:
    def test_cauchy_drift_on_exact_extremal_fixtures(self):
        t0 = time.perf_counter()
        rot = flows.make_fixture("rigid-rotation", omega0=1.0, t1=10.0)
        grid = LabelGrid.cell_centers(rot.field.box, (17, 17, 17))
        rot_drift = cauchy_drift(rot.field, grid, np.linspace(0.0, 10.0, 20)).max_drift
        ger = flows.make_fixture("gerstner", max_steepness=0.5)
        grid2 = LabelGrid.cell_centers(ger.field.box, (17, 17, 17))
        ger_drift = cauchy_drift(
            ger.field, grid2, np.linspace(ger.field.t0, ger.field.t1, 20)
        ).max_drift
        elapsed = time.perf_counter() - t0
        ok = rot_drift < 1e-10 and ger_drift < 1e-10 and elapsed < 30.0
        report(2, ok, f"Cauchy drift 17^3 x 20: rotation {rot_drift:.2e}, "
                      f"gerstner {ger_drift:.2e} in {elapsed:.1f}s")
        assert rot_drift < 1e-10
        assert ger_drift < 1e-10
        assert elapsed < 30.0


class TestCriterion3:
    def test_non_euler_map_triggers_detector(self):
        ne = flows.make_fixture("non-euler")
        mag = float(np.max(np.abs(
            cauchy_residual(ne.field, (0.0, 1.0, 0.0), 1.0).astype(float))))
        ok = mag > 1e-3
        report(3, ok, f"non-Euler polynomial map Cauchy residual {mag:.3f} > 1e-3")
        assert mag > 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="isotropic dilation is irrotational: its Cauchy residual is "
               "identically zero (curl of an exact gradient); the stated "
               "dilation sub-criterion is unattainable - see decisions ledger; "
               "non-extremality of dilation is detected by the momentum residual",
    )
    def test_dilation_cauchy_residual_as_stated(self):
        dil = flows.make_fixture("dilation")
        rng = np.random.default_rng(0)
        mags = []
        for _ in range(20):
            a = rng.uniform(-0.9, 0.9, size=3)
            t = rng.uniform(0.0, 1.0)
            mags.append(float(np.max(np.abs(cauchy_residual(dil.field, a, t)))))
        mag = max(mags)
        report(3, mag > 1e-3,
               f"dilation Cauchy residual {mag:.2e} (identically zero; expected "
               f"spec-defect failure, momentum residual covers the control)")
        assert mag > 1e-3


class TestCriterion4:
    def test_abc_cauchy_drift_ratio(self):
        u = flows.abc_velocity()
        center = np.array([1.3, 2.1, 0.7])
        h, n, margin = 0.02, 17, 4
        half = h * (n - 1) / 2
        box = Box(tuple(center - half), tuple(center + half))
        grid = LabelGrid.nodes_inclusive(box, (n, n, n))
        inner = Box(tuple(center - (half - margin * h)), tuple(center + (half - margin * h)))
        igrid = LabelGrid.nodes_inclusive(inner, (n - 2 * margin,) * 3)
        times = np.linspace(0.0, 1.0, 6)
        drifts = []
        for dt in (0.1, 0.05):
            fld = flows.integrate_trajectories(u, grid, 0.0, 1.0, dt)
            drifts.append(cauchy_drift(fld, igrid, times).max_drift)
        ratio = drifts[0] / drifts[1]
        ok = 12.0 <= ratio <= 20.0
        report(4, ok, f"ABC Cauchy-drift ratio dt/dt2 = {ratio:.1f} (target 16)")
        assert 12.0 <= ratio <= 20.0

    def test_rotation_endpoint_error_ratio(self):
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
        for dt in (0.1, 0.05):
            fld = flows.integrate_trajectories(u, grid, 0.0, 2.0, dt)
            c, s = math.cos(2.0), math.sin(2.0)
            nodes = grid.nodes()
            exact = np.stack(
                [c * nodes[:, 0] - s * nodes[:, 1], s * nodes[:, 0] + c * nodes[:, 1],
                 nodes[:, 2]], axis=-1,
            )
            errs.append(np.max(np.abs(fld.positions[-1].reshape(-1, 3) - exact)))
        ratio = errs[0] / errs[1]
        ok = 12.0 <= ratio <= 20.0
        report(4, ok, f"rotation endpoint position-error ratio = {ratio:.1f} (target 16)")
        assert 12.0 <= ratio <= 20.0


class TestCriterion5:
    @staticmethod
    def _scan(fx, gen, quad):
        var = VariationTriple.relabeling(gen)
        return relabeling_invariance_scan(
            gen, var, quad, DEFAULT_EPS_LADDER,
            *action_ladder(fx.field, fx.material, var, quad, DEFAULT_EPS_LADDER))

    def test_relabeling_invariance_slopes(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        quad = SpaceTimeQuadrature.midpoint(fx.field.box, (8, 8, 8), (0.0, 1.0), 6)
        good = self._scan(fx, poly_generator(), quad)
        bump = self._scan(
            fx, RelabelGenerator.from_curl(bump_potential(fx.field.box), label="bump"), quad)
        divergent = self._scan(
            fx,
            RelabelGenerator(VectorField(value=lambda a, t: np.asarray(a, float),
                                         jacobian_fn=lambda a, t: np.eye(3)),
                             label="divergent"),
            quad,
        )
        g_ok = good.slope is None or good.slope >= 1.9
        b_ok = bump.slope is None or bump.slope >= 1.9
        d_ok = divergent.slope is not None and divergent.slope <= 1.2 and not divergent.symmetric
        ok = g_ok and b_ok and d_ok
        report(5, ok,
               f"scan slopes: curl-potential {good.slope and round(good.slope, 2)}, "
               f"bump {round(bump.slope, 2)}, divergent {round(divergent.slope, 2)} "
               f"(flagged: {not divergent.symmetric})")
        assert g_ok and good.symmetric
        assert b_ok and bump.symmetric
        assert d_ok


class TestCriterion6:
    def test_weak_form_equivalence(self):
        ne = flows.make_fixture("non-euler")
        gen = RelabelGenerator.from_curl(
            sine_potential(ne.field.box, exponents=(1, 0, 1)), label="modulated-sine")
        quad = SpaceTimeQuadrature.gauss(ne.field.box, (12, 12, 12), (0.0, 1.0), 5)
        lhs, rhs = weak_form_integral(ne.field, ne.material, gen, quad, pressure=ne.pressure)
        rel = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + sys.float_info.epsilon)

        rot = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        bgen = RelabelGenerator.from_curl(bump_potential(rot.field.box), label="bump")
        bquad = SpaceTimeQuadrature.gauss(rot.field.box, (8, 8, 8), (0.0, 1.0), 4)
        blhs, brhs = weak_form_integral(rot.field, rot.material, bgen, bquad,
                                        pressure=rot.pressure)
        ok = rel < 1e-6 and abs(blhs) < 1e-8 and abs(brhs) < 1e-8
        report(6, ok, f"weak form: non-extremal |lhs-rhs| rel {rel:.1e} "
                      f"(lhs {lhs:.4f}); extremal sides {blhs:.1e}, {brhs:.1e}")
        assert rel < 1e-6
        assert abs(blhs) < 1e-8 and abs(brhs) < 1e-8


class TestCriterion7:
    FLOOR = 1e-12

    def _ladder(self, fx, quad, triple):
        rows = rund_trautman_check(
            *action_ladder(fx.field, fx.material, triple, quad, DEFAULT_EPS_LADDER),
            DEFAULT_EPS_LADDER, el_part(fx.field, fx.material, triple, quad),
            noether_boundary_term(fx.field, fx.material, triple, quad))
        return [abs(tot - (el + bd)) for tot, el, bd in rows]

    def test_variational_split_first_order(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        quad = SpaceTimeQuadrature.midpoint(fx.field.box, (6, 6, 6), (0.0, 1.0), 4)
        rel = self._ladder(fx, quad, VariationTriple.relabeling(poly_generator()))
        tt = self._ladder(fx, quad, VariationTriple.time_translation())
        rel_slope = fit_loglog_slope(DEFAULT_EPS_LADDER, rel, floor=self.FLOOR)
        tt_slope = fit_loglog_slope(DEFAULT_EPS_LADDER, tt, floor=self.FLOOR)
        # a triple whose mismatch sits below the floor everywhere has converged
        # past measurability (the rotation action is exactly time-shift
        # invariant); slope fits apply whenever there is signal to fit
        rel_ok = rel_slope >= 0.9 if rel_slope is not None else max(rel) <= self.FLOOR
        tt_ok = tt_slope >= 0.9 if tt_slope is not None else max(tt) <= self.FLOOR
        ok = rel_ok and tt_ok
        report(7, ok,
               f"variational split: relabeling slope {rel_slope and round(rel_slope, 2)} "
               f"(mismatch {rel[0]:.1e}->{rel[-1]:.1e}); time-translation "
               f"{'at rounding floor' if tt_slope is None else round(tt_slope, 2)}")
        assert rel_ok
        assert tt_ok


class TestCriterion8:
    def test_theorem_suite_on_extremal_fixtures(self):
        rot = flows.make_fixture("rigid-rotation", omega0=1.0, t1=10.0)
        loop = LabelLoop.circle((0.0, 0.0, 0.0), 0.8, nodes=96)
        times = np.linspace(0.0, 10.0, 8)
        crep = circulation_drift(rot.field, loop, times)
        gamma_err = abs(crep.values[0] - 2.0 * math.pi * 0.8 ** 2)
        circ_ok = gamma_err < 1e-8 and crep.max_drift < 1e-8

        grid = LabelGrid.cell_centers(rot.field.box, (5, 5, 5))
        erep = ertel_drift(rot.field, rot.material, S_A3, grid, times[:5])
        ger = flows.make_fixture("gerstner")
        ggrid = LabelGrid.cell_centers(ger.field.box, (5, 3, 5))
        gerep = ertel_drift(ger.field, ger.material, S_A3, ggrid,
                            np.linspace(ger.field.t0, ger.field.t1, 5))
        ertel_ok = erep.max_drift < 1e-8 and gerep.max_drift < 1e-8

        rng = np.random.default_rng(1)
        dal = 0.0
        for fx in (rot, ger):
            box = fx.field.box
            for _ in range(20):
                a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
                t = rng.uniform(fx.field.t0, fx.field.t1)
                dal = max(dal, float(np.max(np.abs(dalembert_euler_residual(
                    Frame(fx.field, a, t))))))
        dal_ok = dal < 1e-8

        abc = flows.make_fixture("abc", shape=(32, 32, 32), t1=1.0, dt=0.0125)
        a = np.array([1.3, 2.1, 0.7])
        norms = [float(np.linalg.norm(
            beltrami_residual(Frame(abc.field, a, 0.5), Frame(abc.field, a, abc.field.t0),
                              abc.material, dtf)))
            for dtf in (0.2, 0.1, 0.05)]
        ratios = (norms[0] / norms[1], norms[1] / norms[2])
        bel_ok = all(2.5 < r < 6.0 for r in ratios)

        ok = circ_ok and ertel_ok and dal_ok and bel_ok
        report(8, ok,
               f"theorems: circulation err {gamma_err:.1e}/drift {crep.max_drift:.1e}, "
               f"Ertel drifts {erep.max_drift:.1e}/{gerep.max_drift:.1e}, "
               f"D'Alembert {dal:.1e}, Beltrami ratios {ratios[0]:.2f},{ratios[1]:.2f}")
        assert circ_ok and ertel_ok and dal_ok and bel_ok


class TestCriterion9:
    def test_helicity_value_and_drift(self):
        shape = (48, 48, 48)
        fx = flows.make_fixture("abc", shape=shape, t1=1.0, dt=0.05)
        region = LabelRegion(fx.spec.box, shape, periodic=True)
        rep = helicity_drift(fx.field, region, np.linspace(0.0, 1.0, 5))
        # independent Eulerian quadrature oracle at matched resolution
        u = flows.abc_velocity()
        nodes = fx.field.grid.nodes()
        vals = u.value(nodes, 0.0)
        oracle = float(np.sum(vals * vals)) * fx.field.grid.cell_volume
        rel_err = abs(rep.values[0] - oracle) / abs(oracle)
        value_ok = rel_err < 5e-3 and abs(oracle - 3.0 * (2 * math.pi) ** 3) < 1e-8

        # trajectory-integration error measured from the advected data itself:
        # the incompressibility defect max|J - 1| (exactly zero for exact
        # trajectories and exact differentiation)
        g = fx.field.node_gradients("position", fx.field.time_index(1.0))
        jdef = float(np.max(np.abs(np.linalg.det(g.reshape(-1, 3, 3)) - 1.0)))
        rel_drift = rep.max_drift / abs(oracle)
        drift_ok = rel_drift <= 10.0 * jdef

        tg = flows.make_fixture("taylor-green", shape=(16, 16, 4), t1=0.5, dt=0.05)
        tg_region = LabelRegion(tg.spec.box, (16, 16, 4), periodic=True)
        tg_rep = helicity_drift(tg.field, tg_region, [0.0, 0.25, 0.5])
        planar_ok = max(abs(v) for v in tg_rep.values) < 1e-8

        ok = value_ok and drift_ok and planar_ok
        report(9, ok,
               f"helicity: H0 rel err {rel_err:.1e} (oracle {oracle:.2f}), "
               f"rel drift {rel_drift:.1e} <= 10x J-defect {jdef:.1e}, "
               f"planar |H| {max(abs(v) for v in tg_rep.values):.1e}")
        assert value_ok
        assert drift_ok
        assert planar_ok


class TestCriterion10:
    def test_verify_reports_byte_identical(self):
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "vortlab.cli", "verify",
               "--fixture", "rigid-rotation", "--grid", "5,5,5", "--nt", "4", "--t1", "2",
               "--seed", "11"]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        ok = r1.returncode == 0 and r1.stdout == r2.stdout and len(r1.stdout) > 0
        report(10, ok, f"two cmd_verify runs byte-identical "
                       f"({len(r1.stdout)} bytes, exit {r1.returncode})")
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
