"""Tests for the exact polynomial layer."""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortlab.poly import Poly, Rat, random_point, random_poly


def small_polys(nvars=3):
    rngs = st.integers(min_value=0, max_value=10_000)
    return rngs.map(lambda s: random_poly(random.Random(s), nvars, degree=3, nterms=4))


class TestArithmetic:
    def test_constant_and_variable(self):
        c = Poly.constant(2, Fraction(3, 4))
        x = Poly.variable(2, 0)
        assert c((0, 0)) == Fraction(3, 4)
        assert x((Fraction(1, 2), 7)) == Fraction(1, 2)

    def test_example_polynomial(self):
        # f = a1*a2 + a3^2 evaluated exactly
        a1, a2, a3 = (Poly.variable(3, i) for i in range(3))
        f = a1 * a2 + a3 ** 2
        assert f((1, 2, 3)) == 11
        assert f.diff(0)((1, 2, 3)) == 2
        assert f.diff(1)((1, 2, 3)) == 1
        assert f.diff(2)((1, 2, 3)) == 6

    def test_float_inputs_degrade_to_float(self):
        f = Poly.variable(1, 0) ** 2
        assert isinstance(f((0.5,)), float)
        assert isinstance(f((Fraction(1, 2),)), Fraction)

    def test_pow_matches_repeated_mul(self):
        p = Poly.variable(2, 0) + 2 * Poly.variable(2, 1)
        assert p ** 3 == p * p * p

    def test_zero_power_is_one(self):
        p = Poly.variable(2, 1)
        assert (p ** 0)((5, 5)) == 1

    def test_rejects_bad_coefficients(self):
        with pytest.raises(TypeError):
            Poly(1, {(1,): 0.5})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Poly(1, {(-1,): 1})

    @settings(max_examples=30, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_ring_axioms(self, p, q, r):
        assert (p + q) - q == p
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p

    @settings(max_examples=30, deadline=None)
    @given(small_polys(), small_polys(), st.integers(0, 2))
    def test_derivative_is_linear_and_leibniz(self, p, q, i):
        assert (p + q).diff(i) == p.diff(i) + q.diff(i)
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


_BIG = st.integers(2**64, 2**80)
# zero, +-1, small values of either sign and magnitudes above 2**64
INTS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50), _BIG, _BIG.map(operator.neg))
RATS = st.builds(Rat, INTS, st.one_of(st.sampled_from([1, 2]), st.integers(1, 50), _BIG))
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def outcome(op, *args):
    """(type, value) of op(*args), or the type of what it raised."""
    try:
        got = op(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)
    return type(got), got


class TestRat:
    """Rat's own arithmetic with a Rat or an int must give Fraction's value, as a Rat in
    lowest terms; with anything else it must give Fraction's own result."""

    @staticmethod
    def assert_lean(got, want):
        assert type(got) is Rat and got == want and hash(got) == hash(want)
        assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1

    @settings(max_examples=300, deadline=None)
    @given(RATS, st.one_of(RATS, INTS))
    def test_binary_operations_match_fraction(self, x, y):
        for op in BINARY:
            for a, b in ((x, y), (y, x)):
                if op is operator.truediv and b == 0:
                    with pytest.raises(ZeroDivisionError):
                        op(a, b)
                else:
                    self.assert_lean(op(a, b), op(Fraction(a), Fraction(b)))

    @settings(max_examples=100, deadline=None)
    @given(RATS, st.integers(0, 6))
    def test_negation_and_power_match_fraction(self, x, n):
        self.assert_lean(-x, -Fraction(x))
        self.assert_lean(x ** n, Fraction(x) ** n)

    def test_division_by_zero_raises(self):
        for zero in (0, Rat(0)):
            with pytest.raises(ZeroDivisionError):
                Rat(3, 4) / zero
        with pytest.raises(ZeroDivisionError):
            5 / Rat(0)

    @settings(max_examples=100, deadline=None)
    @given(RATS, st.one_of(st.fractions(), st.floats(-1e6, 1e6)), st.integers(-3, -1))
    def test_other_operands_take_fractions_path(self, x, y, n):
        fx = Fraction(x)
        for op in BINARY:
            assert outcome(op, x, y) == outcome(op, fx, y)
            assert outcome(op, y, x) == outcome(op, y, fx)
        assert outcome(operator.pow, x, n) == outcome(operator.pow, fx, n)


class TestRingResultsAreClean:
    """Ring operations build their results without the checking constructor;
    those results must still look exactly like checked ones."""

    @staticmethod
    def assert_clean(r):
        assert all(c != 0 and type(c) is Rat for c in r.terms.values())
        assert all(type(e) is tuple and all(type(k) is int for k in e) for e in r.terms)
        checked = Poly(r.nvars, dict(r.terms))
        assert r == checked and hash(r) == hash(checked)

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), st.integers(0, 2),
           st.fractions(max_denominator=5), st.integers(-3, 3))
    def test_results_hold_no_zero_coefficient(self, p, q, i, c, n):
        for r in (p + q, p - q, q - p, p - p, p + (-p), -p, p * q, p * (q - q),
                  p * c, c * p, p * n, n + p, n - p, p - n, p.diff(i), (p - p).diff(i)):
            self.assert_clean(r)

    def test_cancellation_leaves_no_term(self):
        a, b = Poly.variable(2, 0), Poly.variable(2, 1)
        assert ((a + b) * (a - b) - a ** 2).terms == {(0, 2): Fraction(-1)}
        assert (a * b - b * a).terms == {}
        assert (a * 0).terms == {}

    def test_random_poly_draw_sequence_is_pinned(self):
        assert random_poly(random.Random(0), 4).terms == {
            (1, 0, 1, 1): Fraction(1), (0, 0, 2, 1): Fraction(2),
            (0, 0, 1, 0): Fraction(-2), (0, 1, 1, 0): Fraction(-1),
        }
        assert random_poly(random.Random(5), 3, degree=2, nterms=6, max_num=5, max_den=7).terms == {
            (0, 1, 1): Fraction(1, 7), (0, 0, 2): Fraction(4),
            (1, 0, 0): Fraction(-5, 2), (0, 0, 0): Fraction(63, 20),
        }


class TestComposeAndDiff:
    def test_compose_chain_rule(self):
        rng = random.Random(7)
        outer = random_poly(rng, 3, degree=2, nterms=4)
        inner = [random_poly(rng, 2, degree=2, nterms=3) for _ in range(3)]
        composed = outer.compose(inner)
        pt = random_point(rng, 2)
        # d(outer o inner)/dx0 via chain rule
        direct = composed.diff(0)(pt)
        chain = sum(
            outer.diff(k)(tuple(g(pt) for g in inner)) * inner[k].diff(0)(pt)
            for k in range(3)
        )
        assert direct == chain

    def test_mixed_partials_commute(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_poly(rng, 4, degree=3, nterms=5)
            assert p.diff(0).diff(3) == p.diff(3).diff(0)

    def test_degree_tracking(self):
        a = Poly.variable(2, 0)
        assert (a ** 3 + a).degree() == 3
        assert Poly(2, {}).degree() == 0

    def test_float_arrays_evaluate_bitwise_like_scalars(self):
        # numpy squares and cubes arrays with its own loops; a stack of points
        # must round like the same points one at a time
        x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
        p = Fraction(1, 3) * x0 ** 3 * x1 ** 2 - x1 ** 3 + Fraction(5, 7) * x0 ** 2
        pts = np.random.default_rng(3).uniform(-1.5, 1.5, (2000, 2))
        stacked = p([pts[:, 0], pts[:, 1]])
        assert (stacked == np.array([p(tuple(q)) for q in pts])).all()
