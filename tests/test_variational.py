"""Action functional, relabeling machinery and the variational identities."""

import collections
import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from vortlab import cli, flows, variational
from vortlab.errors import FoldedRelabelingError, NonPositiveDensityError, VortlabError
from vortlab.fields import Box, ScalarField, VectorField, derivative
from vortlab.kinematics import Frame, cof3, det3
from vortlab.poly import Poly
from vortlab.variational import (
    BarotropicEOS,
    DeformedTrajectoryField,
    FlowMaterial,
    RelabelGenerator,
    SpaceTimeQuadrature,
    VariationTriple,
    action,
    action_ladder,
    bump_potential,
    density_from_map,
    el_part,
    fit_loglog_slope,
    local_variation_of_triple,
    mass_reference,
    momentum_residual,
    noether_boundary_term,
    pressure_from_eos,
    relabeling_invariance_scan,
    rund_trautman_check,
    sine_potential,
    weak_form_integral,
)


def first_component(x):
    """Vectors (x, 0, 0) for every label of a stack: (..., 3)."""
    out = np.zeros(np.shape(x) + (3,))
    out[..., 0] = x
    return out


def poly_generator():
    a1, a2 = Poly.variable(4, 0), Poly.variable(4, 1)
    zero = Poly(4, {})
    return RelabelGenerator.from_potential_polys([zero, zero, a1 * a2], label="psi=a1*a2")


def scan_of(field, material, gen, quad, eps_list=variational.DEFAULT_EPS_LADDER):
    """The invariance scan of ``gen`` read off its own ladder, as ``vortlab action`` runs it."""
    var = VariationTriple.relabeling(gen)
    return relabeling_invariance_scan(gen, var, quad, eps_list,
                                      *action_ladder(field, material, var, quad, eps_list))


def split_of(field, material, var, quad, eps_list):
    """The Rund-Trautman rows of ``var``, one per rung, as ``vortlab action`` runs them."""
    return rund_trautman_check(*action_ladder(field, material, var, quad, eps_list), eps_list,
                               el_part(field, material, var, quad),
                               noether_boundary_term(field, material, var, quad))


def density_at(field, material, a, t):
    """rho at labels ``a`` and time t, through the frame of (a, t)."""
    return density_from_map(Frame(field, a, t), mass_reference(field, material, a))


def momentum_at(field, material, pressure, a, t):
    """The momentum residual at labels ``a`` and time t, through the frame of (a, t)."""
    return momentum_residual(Frame(field, a, t), material, pressure,
                             mass_reference(field, material, a))


class TestEOS:
    def test_polytropic_pressure_exact_for_rationals(self):
        eos = BarotropicEOS.polytropic(Fraction(2), 3)
        rho = Fraction(3, 2)
        # E = K rho^2 / 2, p = rho^2 E' = K rho^3
        assert eos.energy(rho) == Fraction(9, 4)
        assert eos.pressure(rho) == Fraction(27, 4)

    def test_gamma_one_rejected(self):
        with pytest.raises(VortlabError):
            BarotropicEOS.polytropic(1.0, 1)


class TestMassAndMomentum:
    def test_identity_density(self):
        fx = flows.make_fixture("identity")
        assert density_at(fx.field, fx.material, (0.1, 0.2, 0.3), 0.7) == pytest.approx(1.0)

    def test_dilation_density(self):
        fx = flows.make_fixture("dilation")
        rho = density_at(fx.field, fx.material, (0.1, 0.2, 0.3), 1.0)
        assert rho == pytest.approx((1.0 + 1.0) ** -3)

    def test_rotation_density_constant(self):
        fx = flows.make_fixture("rigid-rotation")
        for t in (0.0, 3.3, 9.9):
            assert density_at(fx.field, fx.material, (0.4, 0.1, 0.0), t) == pytest.approx(1.0)

    def test_hydrostatic_rest_balances(self):
        # x = a, p = -g rho0 a3, P = g x3
        g = 9.81
        fx = flows.make_fixture("identity")
        material = FlowMaterial(
            rho0=ScalarField.constant(1.0),
            eos=BarotropicEOS.zero(),
            potential=flows.gravity_potential(g),
        )
        pressure = ScalarField(
            value=lambda a, t: -g * a[..., 2],
            gradient_fn=lambda a, t: np.array([0.0, 0.0, -g]),
        )
        r = momentum_at(fx.field, material, pressure, (0.3, -0.3, 0.5), 0.5)
        assert np.max(np.abs(r)) < 1e-12

    def test_translation_constant_pressure(self):
        fx = flows.make_fixture("translation")
        r = momentum_at(fx.field, fx.material, ScalarField.constant(7.0),
                              (0.1, 0.1, 0.1), 0.5)
        assert np.max(np.abs(r)) < 1e-12

    def test_gerstner_pressure_balances(self):
        fx = flows.make_fixture("gerstner")
        rng = np.random.default_rng(5)
        box = fx.field.box
        for _ in range(20):
            a = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.lo, box.hi)])
            t = rng.uniform(fx.field.t0, fx.field.t1)
            r = momentum_at(fx.field, fx.material, fx.pressure, a, t)
            assert np.max(np.abs(r)) < 1e-8

    def test_eos_pressure_field_route(self):
        # dilation with a polytropic EOS: p(a, t) uniform in a, so grad p = 0
        fx = flows.make_fixture("dilation")
        material = FlowMaterial(
            rho0=fx.material.rho0,
            eos=BarotropicEOS.polytropic(1.0, 2),
            potential=ScalarField.constant(0.0),
        )
        p = pressure_from_eos(fx.field, material)
        assert p((0.2, 0.2, 0.2), 1.0) == pytest.approx((1.0 + 1.0) ** -6)
        assert np.max(np.abs(p.gradient((0.0, 0.0, 0.0), 1.0))) < 1e-10


class TestAction:
    def test_rest_fluid_zero(self):
        fx = flows.make_fixture("identity")
        quad = SpaceTimeQuadrature.midpoint(fx.field.box, (4, 4, 4), (0.0, 1.0), 4)
        assert action(fx.field, fx.material, quad) == pytest.approx(0.0)

    def test_translation_kinetic_energy(self):
        # unit box, speed c: S = c^2 T / 2
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        fx = flows.make_fixture("translation", c=(2.0, 0.0, 0.0), box=box, t1=3.0)
        quad = SpaceTimeQuadrature.midpoint(box, (3, 3, 3), (0.0, 3.0), 5)
        assert action(fx.field, fx.material, quad) == pytest.approx(0.5 * 4.0 * 3.0)

    def test_rotation_moment_of_inertia(self):
        # S = omega0^2 T/2 * integral(a1^2 + a2^2); exact under Gauss quadrature
        fx = flows.make_fixture("rigid-rotation", omega0=1.5, t1=2.0)
        quad = SpaceTimeQuadrature.gauss(fx.field.box, (4, 4, 4), (0.0, 2.0), 3)
        expected = 0.5 * 1.5 ** 2 * 2.0 * (16.0 / 3.0)
        assert action(fx.field, fx.material, quad) == pytest.approx(expected, rel=1e-12)


class TestRelabelGenerators:
    def test_curl_of_quadratic_potential(self):
        gen = poly_generator()
        assert np.allclose(gen.delta_a((0.3, 0.4, 0.9)), [0.3, -0.4, 0.0])
        assert abs(gen.field.divergence((0.3, 0.4, 0.9), 0.0)) < 1e-14

    def test_gradient_potential_gives_zero(self):
        # delta_R = grad(phi) has zero curl
        phi = Poly.variable(4, 0) * Poly.variable(4, 1) * Poly.variable(4, 2)
        gen = RelabelGenerator.from_potential_polys([phi.diff(0), phi.diff(1), phi.diff(2)])
        assert np.allclose(gen.delta_a((0.5, -0.4, 0.8)), 0.0)

    def test_scalar_pair_cross_gradient(self):
        dR1 = ScalarField(value=lambda a, t: a[..., 0],
                          gradient_fn=lambda a, t: np.array([1.0, 0.0, 0.0]))
        R2 = ScalarField(value=lambda a, t: a[..., 1],
                         gradient_fn=lambda a, t: np.array([0.0, 1.0, 0.0]))
        gen = RelabelGenerator.from_scalar_pair(dR1, R2)
        assert np.allclose(gen.delta_a((0.3, 0.3, 0.3)), [0.0, 0.0, 1.0])
        assert abs(gen.field.divergence((0.3, 0.3, 0.3), 0.0)) < 1e-9

    def test_divergence_free_for_random_polynomial_potentials(self):
        import random

        from vortlab.poly import random_poly

        rng = random.Random(99)
        for _ in range(10):
            gen = RelabelGenerator.from_potential_polys(
                [random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)]
            )
            for _ in range(5):
                a = [rng.uniform(-1, 1) for _ in range(3)]
                assert abs(gen.field.divergence(a, 0.0)) < 1e-12


class TestLocalVariation:
    def test_identity_map(self):
        fx = flows.make_fixture("identity")
        var = VariationTriple.relabeling(poly_generator())
        out = local_variation_of_triple(Frame(fx.field, (0.3, 0.4, 0.0), 0.2), var)
        assert np.allclose(out, [-0.3, 0.4, 0.0])

    def test_dilation_scaling(self):
        fx = flows.make_fixture("dilation")
        var = VariationTriple.relabeling(poly_generator())
        out = local_variation_of_triple(Frame(fx.field, (0.3, 0.4, 0.0), 1.0), var)
        assert np.allclose(out, [-0.6, 0.8, 0.0])

    def test_shear_matrix(self):
        f = flows.make_fixture("shear", t1=5.0).field
        gen = RelabelGenerator(VectorField(value=lambda a, t: np.array([0.0, 1.0, 0.0]),
                                           jacobian_fn=lambda a, t: np.zeros((3, 3))))
        out = local_variation_of_triple(Frame(f, (0.0, 0.0, 0.0), 3.0),
                                        VariationTriple.relabeling(gen))
        assert np.allclose(out, [-3.0, -1.0, 0.0])

    def test_matches_triple_form(self):
        fx = flows.make_fixture("rigid-rotation")
        gen = poly_generator()
        var = VariationTriple.relabeling(gen)
        a, t = np.array([0.2, -0.6, 0.1]), 1.1
        assert np.allclose(local_variation_of_triple(Frame(fx.field, a, t), var),
                           -(fx.field.position_gradient(a, t) @ gen.delta_a(a)))


class TestInvarianceScan:
    def setup_method(self):
        self.fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        self.quad = SpaceTimeQuadrature.midpoint(self.fx.field.box, (6, 6, 6), (0.0, 1.0), 4)

    def test_eps_zero_is_exact(self):
        gen = poly_generator()
        s0 = action(self.fx.field, self.fx.material, self.quad)
        deformed = DeformedTrajectoryField(self.fx.field, VariationTriple.relabeling(gen), 0.0)
        assert action(deformed, self.fx.material, self.quad) == s0

    def test_divergence_free_generator_passes(self):
        scan = scan_of(self.fx.field, self.fx.material, poly_generator(), self.quad)
        assert scan.symmetric
        assert scan.slope is None or scan.slope >= 1.9
        assert scan.max_divergence < 1e-12

    def test_compact_bump_generator_second_order(self):
        gen = RelabelGenerator.from_curl(bump_potential(self.fx.field.box), label="bump")
        scan = scan_of(self.fx.field, self.fx.material, gen, self.quad)
        assert scan.symmetric
        assert 1.9 <= scan.slope <= 2.6

    def test_divergent_generator_flagged(self):
        bad = RelabelGenerator(VectorField(value=lambda a, t: np.asarray(a, float),
                                           jacobian_fn=lambda a, t: np.eye(3)), label="divergent")
        scan = scan_of(self.fx.field, self.fx.material, bad, self.quad)
        assert not scan.symmetric
        assert scan.slope <= 1.2
        assert scan.max_divergence > 1.0

    def test_fold_detection(self):
        bad = RelabelGenerator(VectorField(value=lambda a, t: -2.0 * np.asarray(a, float),
                                           jacobian_fn=lambda a, t: -2.0 * np.eye(3)),
                               label="folding")
        with pytest.raises(FoldedRelabelingError):
            scan_of(self.fx.field, self.fx.material, bad, self.quad, eps_list=(0.9,))

    def test_scalar_field_invariance_under_relabeling(self):
        # a parcel-attached scalar evaluated through the inverted relabeling
        # agrees with direct evaluation (composition tolerance 1e-10)
        gen = poly_generator()
        eps = 1e-3
        psi = lambda x: math.sin(x[0]) + x[1] * x[2]
        field = self.fx.field
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.uniform(-0.8, 0.8, size=3)
            b = a + eps * gen.delta_a(a)  # relabeled label of parcel a
            # invert the relabeling by fixed point iteration
            a_rec = b.copy()
            for _ in range(60):
                a_rec = b - eps * gen.delta_a(a_rec)
            t = 0.7
            direct = psi(field.position(a, t))
            via_inverse = psi(field.position(a_rec, t))
            assert abs(direct - via_inverse) < 1e-10
            assert np.allclose(field.velocity(a, t), field.velocity(a_rec, t), atol=1e-10)

    def test_volume_element_consistency(self):
        # sum of J-weighted volumes is preserved through the relabeling
        gen = poly_generator()
        eps = 1e-3
        field = self.fx.field
        var = VariationTriple.relabeling(gen)
        deformed = DeformedTrajectoryField(field, var, eps)
        t = 0.9
        total0, total1 = 0.0, 0.0
        from vortlab.kinematics import det3

        for a in self.quad.space_nodes:
            total0 += float(det3(field.position_gradient(a, t))) * 1.0
            total1 += float(det3(deformed.position_gradient(a, t))) * 1.0
        scale = abs(total0)
        assert abs(total0 - total1) < 1e-5 * scale


class TestWeakForm:
    def test_extremal_with_compact_support(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        gen = RelabelGenerator.from_curl(bump_potential(fx.field.box), label="bump")
        quad = SpaceTimeQuadrature.gauss(fx.field.box, (8, 8, 8), (0.0, 1.0), 4)
        lhs, rhs = weak_form_integral(fx.field, fx.material, gen, quad, pressure=fx.pressure)
        assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8

    def test_position_gradient_evaluations_per_time_node(self, monkeypatch):
        # one G for the momentum residual's bundle and one shared by the
        # variation -G delta_a and the Cauchy-residual curl
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        gen = RelabelGenerator.from_curl(bump_potential(fx.field.box), label="bump")
        quad = SpaceTimeQuadrature.gauss(fx.field.box, (3, 3, 3), (0.0, 1.0), 3)
        calls = {}
        method = fx.field.position_gradient

        def counted(a, t):
            if np.shape(a) == quad.space_nodes.shape:
                calls[float(t)] = calls.get(float(t), 0) + 1
            return method(a, t)

        monkeypatch.setattr(fx.field, "position_gradient", counted)
        weak_form_integral(fx.field, fx.material, gen, quad, pressure=fx.pressure)
        nodes = [float(t) for t in quad.time_nodes]
        assert set(nodes) <= set(calls)
        assert all(calls[t] <= 2 for t in nodes)

    def test_one_position_gradient_per_time_node(self, monkeypatch):
        # the momentum residual's bundle also serves -G delta_a and the Cauchy-residual curl
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        gen = RelabelGenerator.from_curl(bump_potential(fx.field.box), label="bump")
        quad = SpaceTimeQuadrature.gauss(fx.field.box, (3, 3, 3), (0.0, 1.0), 3)
        calls = []
        method = fx.field.position_gradient

        def counted(a, t):
            calls.append(float(t))
            return method(a, t)

        monkeypatch.setattr(fx.field, "position_gradient", counted)
        weak_form_integral(fx.field, fx.material, gen, quad, pressure=fx.pressure)
        # one G per time node, and the mass reference's one G at t0
        assert sorted(calls) == sorted([fx.field.t0, *(float(t) for t in quad.time_nodes)])

    def test_identity_zero(self):
        fx = flows.make_fixture("identity")
        gen = poly_generator()
        quad = SpaceTimeQuadrature.gauss(fx.field.box, (4, 4, 4), (0.0, 1.0), 3)
        lhs, rhs = weak_form_integral(fx.field, fx.material, gen, quad,
                                      pressure=ScalarField.constant(0.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_non_extremal_equality(self):
        ne = flows.make_fixture("non-euler")
        gen = RelabelGenerator.from_curl(
            sine_potential(ne.field.box, exponents=(1, 0, 1)), label="modulated-sine"
        )
        quad = SpaceTimeQuadrature.gauss(ne.field.box, (12, 12, 12), (0.0, 1.0), 5)
        lhs, rhs = weak_form_integral(ne.field, ne.material, gen, quad, pressure=ne.pressure)
        assert abs(lhs) > 0.1  # the pairing is genuinely nonzero
        assert abs(lhs - rhs) / (abs(lhs) + abs(rhs) + np.finfo(float).eps) < 1e-6

    def test_requires_vector_potential(self):
        fx = flows.make_fixture("identity")
        bare = RelabelGenerator(VectorField(value=lambda a, t: np.zeros(3)))
        quad = SpaceTimeQuadrature.gauss(fx.field.box, (3, 3, 3), (0.0, 1.0), 2)
        with pytest.raises(VortlabError):
            weak_form_integral(fx.field, fx.material, bare, quad, fx.pressure)

    def test_weak_and_noether_routes_equivalent(self):
        # extremal + symmetry: both routes vanish together; non-extremal +
        # symmetry: the bulk pairing equals minus the boundary brace, i.e.
        # the weak-form lhs equals the Noether term within quadrature error
        rot = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        gen = poly_generator()
        quad = SpaceTimeQuadrature.gauss(rot.field.box, (6, 6, 6), (0.0, 1.0), 4)
        lhs, _ = weak_form_integral(rot.field, rot.material, gen, quad, pressure=rot.pressure)
        bd = noether_boundary_term(rot.field, rot.material, VariationTriple.relabeling(gen),
                                   quad)
        assert abs(lhs) < 1e-8 and abs(bd) < 1e-8

        ne = flows.make_fixture("non-euler")
        quad2 = SpaceTimeQuadrature.gauss(ne.field.box, (6, 6, 6), (0.0, 1.0), 4)
        el = el_part(ne.field, ne.material, VariationTriple.relabeling(gen), quad2)
        bd2 = noether_boundary_term(ne.field, ne.material, VariationTriple.relabeling(gen),
                                    quad2)
        lhs2, _ = weak_form_integral(ne.field, ne.material, gen, quad2, pressure=ne.pressure)
        assert abs(lhs2 + el) < 1e-10 * max(1.0, abs(lhs2))  # lhs is -el by construction
        assert abs(el + bd2) < 2e-3 * max(1.0, abs(el))  # symmetry: el = -bd


class TestRundTrautman:
    def test_zero_triple_all_zero(self):
        fx = flows.make_fixture("rigid-rotation", t1=2.0)
        quad = SpaceTimeQuadrature.midpoint(fx.field.box, (4, 4, 4), (0.0, 1.0), 3)
        [(tot, el, bd)] = split_of(fx.field, fx.material, VariationTriple.zero(), quad, (1e-3,))
        assert tot == 0.0 and el == 0.0 and abs(bd) < 1e-13

    def test_relabeling_triple_on_extremal(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        quad = SpaceTimeQuadrature.midpoint(fx.field.box, (6, 6, 6), (0.0, 1.0), 4)
        gen = poly_generator()
        mism = []
        for eps in (1e-2, 3e-3, 1e-3):
            [(tot, el, bd)] = split_of(
                fx.field, fx.material, VariationTriple.relabeling(gen), quad, (eps,),
            )
            assert abs(el) < 1e-8 and abs(bd) < 1e-8
            mism.append(abs(tot - el - bd))
        slope = fit_loglog_slope((1e-2, 3e-3, 1e-3), mism, floor=1e-13)
        assert slope is None or slope >= 0.9

    def test_time_translation_on_extremal(self):
        # the rotation action is exactly autonomous: every part sits at the
        # rounding floor and the identity holds degenerately
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        quad = SpaceTimeQuadrature.midpoint(fx.field.box, (5, 5, 5), (0.0, 1.0), 4)
        [(tot, el, bd)] = split_of(
            fx.field, fx.material, VariationTriple.time_translation(), quad, (1e-3,),
        )
        assert abs(tot) < 1e-9 and abs(el) < 1e-12 and abs(bd) < 1e-9

    def test_identity_with_nonzero_parts(self):
        # non-extremal map and a coupling field variation: total, el and bd
        # are all nonzero and the mismatch decays at first order
        ne = flows.make_fixture("non-euler")
        quad = SpaceTimeQuadrature.gauss(ne.field.box, (6, 6, 6), (0.0, 1.0), 4)
        vt = VariationTriple(delta_x=VectorField(
            value=lambda a, t: first_component(0.1 * (1 + a[..., 1]) * (1 + t)),
            jacobian_fn=lambda a, t: np.array(
                [[0.0, 0.1 * (1 + t), 0.0], [0, 0, 0], [0, 0, 0]]
            ),
            time_derivative_fn=lambda a, t: first_component(0.1 * (1 + a[..., 1])),
        ))
        mism = []
        for eps in (1e-2, 3e-3, 1e-3):
            [(tot, el, bd)] = split_of(ne.field, ne.material, vt, quad, (eps,))
            assert abs(el) > 0.1 and abs(bd) > 0.1
            mism.append(abs(tot - el - bd))
        slope = fit_loglog_slope((1e-2, 3e-3, 1e-3), mism, floor=1e-13)
        assert 0.9 <= slope <= 1.3

    def test_noether_term_relabeling_on_extremal(self):
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        quad = SpaceTimeQuadrature.midpoint(fx.field.box, (6, 6, 6), (0.0, 1.0), 4)
        gen = poly_generator()
        bd = noether_boundary_term(fx.field, fx.material, VariationTriple.relabeling(gen), quad)
        assert abs(bd) < 1e-8

    def test_identity_with_in_plane_variation_on_rotation(self):
        # in-plane field variation couples to the centripetal acceleration:
        # el and bd are both nonzero and total converges to their sum
        fx = flows.make_fixture("rigid-rotation", omega0=1.0, t1=2.0)
        quad = SpaceTimeQuadrature.gauss(fx.field.box, (6, 6, 6), (0.0, 1.0), 4)
        vt = VariationTriple(delta_x=VectorField(
            value=lambda a, t: first_component(0.2 * (1 + a[..., 1]) * t),
            jacobian_fn=lambda a, t: np.array([[0.0, 0.2 * t, 0.0], [0, 0, 0], [0, 0, 0]]),
            time_derivative_fn=lambda a, t: first_component(0.2 * (1 + a[..., 1])),
        ))
        eps = 1e-4
        [(tot, el, bd)] = split_of(fx.field, fx.material, vt, quad, (eps,))
        assert abs(el) > 0.01 and abs(bd) > 0.01
        assert abs(tot - el - bd) < 1e-3 * max(1.0, abs(tot))


# ---------------------------------------------------------------------------
# Pointwise reference: the variational formulas one node at a time, as they
# were written before the layer evaluated the whole node stack per time.
# ---------------------------------------------------------------------------


def ref_rho0j0(field, material, a):
    return float(material.initial_density(a)) * float(det3(field.position_gradient(a, field.t0)))


def ref_lagrangian(field, material, a, t, rj):
    v = field.velocity(a, t)
    x = field.position(a, t)
    rho = rj / det3(field.position_gradient(a, t))
    kinetic = 0.5 * float(v @ v)
    return (kinetic - float(material.eos.energy(rho)) - float(material.potential(x, t))) * float(rj)


def ref_action(field, material, quad):
    rjs = [ref_rho0j0(field, material, a) for a in quad.space_nodes]
    return math.fsum(
        wt * wa * ref_lagrangian(field, material, a, t, rj)
        for t, wt in zip(quad.time_nodes, quad.time_weights)
        for a, wa, rj in zip(quad.space_nodes, quad.space_weights, rjs)
    )


def ref_momentum_residual(field, material, pressure, a, t):
    cof = cof3(field.position_gradient(a, t))
    rj = material.initial_density(a) * det3(field.position_gradient(a, field.t0))
    x = field.position(a, t)
    body = field.acceleration(a, t) + material.potential.gradient(x, t)
    return rj * body + cof @ pressure.gradient(a, t)


def ref_local_variation(field, var, a, t):
    g = field.position_gradient(a, t)
    return var.dx(a, t) - field.velocity(a, t) * var.dt(t) - g @ var.da(a)


def ref_el_part(field, material, var, quad, pressure):
    return math.fsum(
        -wa * wt * float(ref_momentum_residual(field, material, pressure, a, t)
                         @ ref_local_variation(field, var, a, t))
        for a, wa in zip(quad.space_nodes, quad.space_weights)
        for t, wt in zip(quad.time_nodes, quad.time_weights)
    )


def per_offset_jacobian(f, a, h, order=4):
    """Centered FD Jacobian of a one-label ``f``, one call per stencil offset and direction."""
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        cols.append(derivative(lambda s: f(a + s * e), h, order))
    return np.stack(cols, axis=-1)


def ref_noether(field, material, var, quad, pressure):
    t_lo, t_hi = quad.window

    def endpoint(a, t):
        rj = ref_rho0j0(field, material, a)
        L = ref_lagrangian(field, material, a, t, rj)
        dbar = ref_local_variation(field, var, a, t)
        return L * var.dt(t) + rj * float(field.velocity(a, t) @ dbar)

    def flux(a, t):
        L = ref_lagrangian(field, material, a, t, ref_rho0j0(field, material, a))
        dbar = ref_local_variation(field, var, a, t)
        p = float(pressure(a, t))
        return L * var.da(a) + p * (cof3(field.position_gradient(a, t)).T @ dbar)

    h = 1e-3 * min(field.box.extent)
    ends = math.fsum(wa * (endpoint(a, t_hi) - endpoint(a, t_lo))
                     for a, wa in zip(quad.space_nodes, quad.space_weights))
    div = []
    for a, wa in zip(quad.space_nodes, quad.space_weights):
        for t, wt in zip(quad.time_nodes, quad.time_weights):
            d = per_offset_jacobian(lambda b: flux(b, t), a, h)
            div.append(wa * wt * (d[0, 0] + d[1, 1] + d[2, 2]))
    return ends + math.fsum(div)


def _batched_case(name):
    """(fixture, material, generator, 4^3 x 2 Gauss quadrature) of an action test case.

    Gauss nodes are irrational, so sums and products of node values round;
    on cell centres of a symmetric box many of them are exact and a product
    that rounds differently on a stack would go unnoticed.
    """
    if name == "non-euler":
        fx = flows.make_fixture("non-euler")
        gen = poly_generator()
    else:
        fx = flows.make_fixture(name, **({"t1": 2.0} if name == "rigid-rotation" else {}))
        gen = RelabelGenerator.from_curl(bump_potential(fx.field.box), label="bump")
    material = fx.material
    if name == "dilation":
        # a density that varies over the labels and enters the energy, so
        # rho0 J0 on the stencil-shifted stacks and E(rho) are compared, and
        # delta_a = (0, 2 a2 a3, -a3^2), which meets the gravity imbalance along a3
        rho0 = ScalarField(
            value=lambda a, t: 1.0 + 0.25 * a[..., 0] + 0.2 * a[..., 1] * a[..., 1] * a[..., 2])
        material = FlowMaterial(rho0=rho0, eos=BarotropicEOS.polytropic(0.7, 2.4),
                                potential=material.potential)
        a2, a3 = Poly.variable(4, 1), Poly.variable(4, 2)
        zero = Poly(4, {})
        gen = RelabelGenerator.from_potential_polys([a2 * a3 * a3, zero, zero],
                                                    label="psi=a2*a3^2")
    quad = SpaceTimeQuadrature.gauss(fx.field.box, (4, 4, 4), (0.1, 0.9), 2)
    return fx, material, gen, quad


BATCHED_CASES = ["rigid-rotation", "dilation", "non-euler"]


class TestBatchedVariationalLayer:
    @pytest.mark.parametrize("name", BATCHED_CASES)
    def test_action_and_scan_bitwise(self, name):
        fx, material, gen, quad = _batched_case(name)
        s0 = ref_action(fx.field, material, quad)
        assert action(fx.field, material, quad) == s0
        var = VariationTriple.relabeling(gen)
        ladder = (1e-2, 3e-3)
        scan = scan_of(fx.field, material, gen, quad, eps_list=ladder)
        want = []
        for eps in ladder:
            s_eps = ref_action(DeformedTrajectoryField(fx.field, var, eps), material, quad)
            assert action(DeformedTrajectoryField(fx.field, var, eps), material, quad) == s_eps
            want.append(abs(s_eps - s0))
        assert scan.deviation == want
        assert scan.base_action == s0
        assert scan.max_divergence == max(abs(float(gen.field.divergence(a, 0.0)))
                                          for a in quad.space_nodes)

    @pytest.mark.parametrize("name", BATCHED_CASES)
    def test_integrands_bitwise_per_node(self, name):
        # fsum absorbs an ulp in one term, so the sums alone would not show a
        # product that rounds differently on the stack
        fx, material, gen, quad = _batched_case(name)
        var = VariationTriple.relabeling(gen)
        pressure = variational.pressure_from_eos(fx.field, material)
        nodes = quad.space_nodes
        for field in (fx.field, DeformedTrajectoryField(fx.field, var, 1e-2)):
            rj = np.array([ref_rho0j0(field, material, a) for a in nodes])
            for t in quad.time_nodes:
                got = variational._lagrangian_density(Frame(field, nodes, t), material, rj)
                want = [ref_lagrangian(field, material, a, t, r) for a, r in zip(nodes, rj)]
                assert (got == np.array(want)).all()
        for t in quad.time_nodes:
            got = momentum_at(fx.field, material, pressure, nodes, t)
            want = [ref_momentum_residual(fx.field, material, pressure, a, t) for a in nodes]
            assert (got == np.array(want)).all()
            got = local_variation_of_triple(Frame(fx.field, nodes, t), var)
            want = [ref_local_variation(fx.field, var, a, t) for a in nodes]
            assert (got == np.array(want)).all()

    @pytest.mark.parametrize("name", BATCHED_CASES)
    def test_el_part_bitwise_and_noether_close(self, name):
        fx, material, gen, quad = _batched_case(name)
        var = VariationTriple.relabeling(gen)
        pressure = variational.pressure_from_eos(fx.field, material)
        assert el_part(fx.field, material, var, quad) == \
            ref_el_part(fx.field, material, var, quad, pressure)
        got = noether_boundary_term(fx.field, material, var, quad)
        assert abs(got - ref_noether(fx.field, material, var, quad, pressure)) <= 1e-13

    def test_rund_trautman_ladder_matches_single_rungs(self):
        fx, material, gen, quad = _batched_case("rigid-rotation")
        var = VariationTriple.relabeling(gen)
        ladder = (1e-2, 1e-3)
        singles = [split_of(fx.field, material, var, quad, (e,))[0] for e in ladder]
        assert split_of(fx.field, material, var, quad, ladder) == singles

    def test_fold_error_names_first_folded_node(self):
        fx, material, _, quad = _batched_case("rigid-rotation")
        # folds only where a1 > 0.2
        folding = RelabelGenerator(
            VectorField(value=lambda a, t: np.zeros(3), jacobian_fn=lambda a, t: np.where(
                a[..., 0, None, None] > 0.2, -2.0, 0.0) * np.eye(3)),
            label="half-fold",
        )
        first = next(a for a in quad.space_nodes if a[0] > 0.2)
        with pytest.raises(FoldedRelabelingError, match=re.escape(str(tuple(first.tolist())))):
            scan_of(fx.field, material, folding, quad, eps_list=(0.9,))

    def test_nonpositive_density_still_raises(self):
        fx, _, gen, quad = _batched_case("rigid-rotation")
        # rho0 = a1 is negative on half the box
        material = FlowMaterial(rho0=ScalarField(value=lambda a, t: a[..., 0]),
                                eos=BarotropicEOS.zero(), potential=ScalarField.constant(0.0))
        first = str(tuple(next(a for a in quad.space_nodes if a[0] <= 0.0).tolist()))
        for run in (lambda: action(fx.field, material, quad),
                    lambda: density_at(fx.field, material, quad.space_nodes, 0.5),
                    lambda: el_part(fx.field, material, VariationTriple.relabeling(gen), quad)):
            with pytest.raises(NonPositiveDensityError, match=re.escape(first)):
                run()

    def test_noether_evaluator_calls_independent_of_node_count(self, monkeypatch):
        fx = flows.make_fixture("rigid-rotation", t1=2.0)
        var = VariationTriple.relabeling(poly_generator())
        methods = ("position", "velocity", "acceleration", "position_gradient",
                   "velocity_gradient", "acceleration_gradient", "position_hessian")
        counts = []
        for n in (4, 6):
            quad = SpaceTimeQuadrature.midpoint(fx.field.box, (n, n, n), (0.0, 1.0), 2)
            calls = [0]
            with monkeypatch.context() as m:
                for name in methods:
                    def counted(a, t, _original=getattr(fx.field, name)):
                        calls[0] += 1
                        return _original(a, t)

                    m.setattr(fx.field, name, counted)
                noether_boundary_term(fx.field, fx.material, var, quad)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0

    def test_each_brace_reads_g_once_per_stack_and_time(self, monkeypatch):
        fx = flows.make_fixture("rigid-rotation")
        box, window = fx.field.box, (fx.field.t0, fx.field.t1)
        var = VariationTriple.relabeling(RelabelGenerator.from_curl(bump_potential(box)))
        quad = SpaceTimeQuadrature.midpoint(box, (4, 4, 4), window, 3)
        reads = collections.Counter()
        original = fx.field.position_gradient

        def counted(a, t):
            reads[np.asarray(a, float).tobytes(), float(t)] += 1
            return original(a, t)

        monkeypatch.setattr(fx.field, "position_gradient", counted)
        el_part(fx.field, fx.material, var, quad)
        assert set(reads.values()) == {1}
        reads.clear()
        noether_boundary_term(fx.field, fx.material, var, quad)
        # rho0 J0 on the node stack and the t_lo endpoint both read (nodes, t0)
        assert reads.pop((quad.space_nodes.tobytes(), fx.field.t0)) == 2
        assert set(reads.values()) == {1}

    def test_flux_divergence_reads_g_once_per_time_node(self, monkeypatch):
        fx = flows.make_fixture("rigid-rotation")
        box, window = fx.field.box, (fx.field.t0, fx.field.t1)
        var = VariationTriple.relabeling(RelabelGenerator.from_curl(bump_potential(box)))
        quad = SpaceTimeQuadrature.midpoint(box, (4, 4, 4), window, 3)
        reads = collections.defaultdict(list)
        original = fx.field.position_gradient

        def counted(a, t):
            reads[float(t)].append(np.shape(a))
            return original(a, t)

        monkeypatch.setattr(fx.field, "position_gradient", counted)
        noether_boundary_term(fx.field, fx.material, var, quad)
        # the window ends are not midpoint nodes: every read at a node is the
        # flux's, one stack of the 12 stencil-shifted copies of the nodes
        assert [reads[float(t)] for t in quad.time_nodes] == [[(12, 64, 3)]] * 3

    def test_relabeling_memo_keys_on_content_and_is_read_only(self):
        fx, _, gen, quad = _batched_case("rigid-rotation")
        var = VariationTriple.relabeling(gen)
        nodes = quad.space_nodes.copy()
        da, jac = var.da(nodes), var.da_jac(nodes)
        assert not da.flags.writeable and not jac.flags.writeable
        with pytest.raises(ValueError):
            da[0, 0] = 1.0
        # the same labels in another array share the first evaluation
        assert var.da(nodes.copy()) is da
        nodes[0] = (0.1, -0.2, 0.3)
        assert (var.da(nodes) == gen.delta_a(nodes)).all()
        assert (var.da_jac(nodes) == gen.jacobian(nodes)).all()
        assert not (var.da(nodes) == da).all()

    @pytest.mark.parametrize("name", BATCHED_CASES)
    def test_memoized_relabeling_triple_bitwise(self, name):
        fx, material, gen, quad = _batched_case(name)
        plain = VariationTriple(delta_a=gen.field)
        ladder = (1e-2, 1e-3)
        assert split_of(fx.field, material, VariationTriple.relabeling(gen), quad, ladder) == \
            split_of(fx.field, material, plain, quad, ladder)

    @pytest.mark.parametrize("name", BATCHED_CASES)
    def test_eos_pressure_bitwise(self, name):
        fx, material, _, quad = _batched_case(name)
        pressure = pressure_from_eos(fx.field, material)
        nodes = quad.space_nodes
        for t in quad.time_nodes:
            want = material.eos.pressure(density_at(fx.field, material, nodes, t))
            for _ in range(2):  # the second call reads rho0 J0 from the memo
                assert (pressure(nodes, t) == want).all()
        a = tuple(nodes[5].tolist())
        assert pressure(a, 0.5) == material.eos.pressure(density_at(fx.field, material, a, 0.5))

    def test_action_evaluates_generator_once_per_stack(self, monkeypatch):
        calls = {"jacobian_fn": 0, "mass_reference": 0}
        original_bump = cli.bump_potential
        original_mass = variational.mass_reference

        def counted_bump(*args, **kwargs):
            pot = original_bump(*args, **kwargs)

            def jac(a, t, _fn=pot.jacobian_fn):
                calls["jacobian_fn"] += 1
                return _fn(a, t)

            return dataclasses.replace(pot, jacobian_fn=jac)

        def counted_mass(*args, **kwargs):
            calls["mass_reference"] += 1
            return original_mass(*args, **kwargs)

        monkeypatch.setattr(cli, "bump_potential", counted_bump)
        monkeypatch.setattr(variational, "mass_reference", counted_mass)
        code, _ = cli.cmd_action(cli.RunConfig(fixture="rigid-rotation", grid=(4, 4, 4), nt=3))
        assert code == 0
        assert 0 < calls["jacobian_fn"] <= 40
        # rho0 J0 once per label stack and owner, never per density: S(0), the bump and
        # control ladders, the weak form, el_part and its EOS pressure's shifted stack,
        # and the Noether term's endpoint nodes and shifted flux stack
        assert calls["mass_reference"] == 8


def _outcome(run):
    """The bytes of what ``run`` returns, or the type and message of what it raises."""
    try:
        return np.array(run(), float).tobytes()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


LADDER_SHAPES = {"abc": (8, 8, 8), "taylor-green": (8, 8, 4)}


class TestStackedLadder:
    """`action_ladder` evaluates every rung on one (R, N, 3) stack; each S(eps)
    must be the bits of the composed configuration's own action."""

    @staticmethod
    def _triples(box):
        divergent = RelabelGenerator(VectorField(value=lambda a, t: np.asarray(a, float),
                                                 jacobian_fn=lambda a, t: np.eye(3)))
        return {"bump": VariationTriple.relabeling(RelabelGenerator.from_curl(bump_potential(box))),
                "divergent-control": VariationTriple.relabeling(divergent),
                "time-translation": VariationTriple.time_translation()}

    @pytest.mark.parametrize("name", sorted(flows._CATALOG))
    def test_ladder_bitwise_rung_by_rung(self, name):
        shape = LADDER_SHAPES.get(name)
        fx = flows.make_fixture(name, **({"shape": shape} if shape else {}))
        box = fx.field.box
        quad = SpaceTimeQuadrature.midpoint(box, (4, 4, 4), (fx.field.t0, fx.field.t1), 3)
        eps = variational.DEFAULT_EPS_LADDER
        for label, var in self._triples(box).items():
            stacked = _outcome(lambda: variational.action_ladder(
                fx.field, fx.material, var, quad, eps)[1])
            singles = _outcome(lambda: [action(DeformedTrajectoryField(fx.field, var, e),
                                               fx.material, quad) for e in eps])
            assert stacked == singles, label
            assert isinstance(stacked, bytes), (label, stacked)  # a ladder that evaluates

    def test_second_rung_fold_raises_as_rung_by_rung(self):
        fx, material, _, quad = _batched_case("rigid-rotation")
        # D delta_a = -2 I where a1 > 0.2: det (1 - 2 eps)^3 folds at eps = 0.9, not at 0.1
        folding = VariationTriple.relabeling(RelabelGenerator(VectorField(
            value=lambda a, t: np.zeros(3), jacobian_fn=lambda a, t: np.where(
                a[..., 0, None, None] > 0.2, -2.0, 0.0) * np.eye(3))))
        eps = (0.1, 0.9)

        def rung_by_rung():
            for e in eps:
                deformed = DeformedTrajectoryField(fx.field, folding, e)
                deformed.fold_factor(quad.space_nodes)
                action(deformed, material, quad)

        with pytest.raises(FoldedRelabelingError) as single:
            rung_by_rung()
        with pytest.raises(FoldedRelabelingError) as stacked:
            variational.action_ladder(fx.field, material, folding, quad, eps)
        assert str(stacked.value) == str(single.value)
        assert "-0.512" in str(single.value)
