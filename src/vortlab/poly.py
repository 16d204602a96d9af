"""Sparse multivariate polynomials over the rationals.

This is the arithmetic core of the exact trajectory-field backend: label maps,
their derivatives and the kinematic identity battery all reduce to polynomial
differentiation and evaluation with exact rational coefficients, so residuals
that vanish analytically vanish *exactly* (no rounding floor).

Every exact value the package makes is a :class:`Rat`, a ``fractions.Fraction``
subclass whose arithmetic with another Rat or an int skips Fraction's operand
dispatch; it is a Fraction to every ``isinstance`` test and to ``float()``.

A polynomial in ``nvars`` variables is a dict mapping exponent tuples to
nonzero Rat coefficients, e.g. with variables (a1, a2, a3, t)::

    {(1, 0, 0, 0): Rat(1), (0, 2, 0, 1): Rat(-3, 4)}

represents a1 - (3/4) a2**2 t.  Evaluation preserves exactness: Fraction (or
int) inputs give a Fraction result, float inputs give a float.  Coordinates
may be numpy arrays of one shape: object arrays of Fractions are evaluated
exactly, anything else in floating point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np


class Rat(Fraction):
    """An exact rational: a Fraction whose ``+ - * /``, unary ``-`` and
    non-negative int ``**`` with another Rat or an int work directly on the
    stored numerator and denominator and give a Rat in lowest terms with a
    positive denominator.  Any other operand takes Fraction's own path and
    result.  It reads and writes the ``_numerator`` and ``_denominator`` slots
    that ``Fraction`` keeps."""

    __slots__ = ()

    def __add__(a, b):
        if isinstance(b, Rat):
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if isinstance(b, int):
            return _rat(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    __radd__ = __add__  # both are commutative, on the lean path and on Fraction's

    def __sub__(a, b):
        if isinstance(b, Rat):
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if isinstance(b, int):
            return _rat(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        if isinstance(a, int):
            return _rat(a * b._denominator - b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        if isinstance(b, Rat):
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if isinstance(b, int):
            return _mul(a._numerator, a._denominator, b, 1)
        return Fraction.__mul__(a, b)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if isinstance(b, Rat):
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        if isinstance(b, int):
            return _div(a._numerator, a._denominator, b, 1)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        if isinstance(a, int):
            return _div(a, 1, b._numerator, b._denominator)
        return Fraction.__rtruediv__(b, a)

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __pow__(a, b):
        if isinstance(b, int) and b >= 0:
            return _rat(a._numerator ** b, a._denominator ** b)
        return Fraction.__pow__(a, b)


_new = object.__new__


def _rat(n: int, d: int) -> Rat:
    """The Rat n/d of coprime n and d > 0, built without re-validation."""
    r = _new(Rat)
    r._numerator = n
    r._denominator = d
    return r


def _add(na, da, nb, db) -> Rat:
    """na/da + nb/db in lowest terms, dividing out gcd(da, db) first (Knuth 4.5.1)."""
    g = gcd(da, db)
    if g == 1:
        return _rat(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def _mul(na, da, nb, db) -> Rat:
    """(na/da) (nb/db) in lowest terms, cross-cancelling before the products."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _rat(na * nb, da * db)


def _div(na, da, nb, db) -> Rat:
    if not nb:
        raise ZeroDivisionError(f"Rat({na * db}, 0)")
    if nb < 0:
        na, nb = -na, -nb
    return _mul(na, da, db, nb)


_ZERO = Rat(0)


def _as_coeff(c) -> Rat:
    if type(c) is Rat:
        return c
    if isinstance(c, (int, Fraction)):
        return Rat(c)
    raise TypeError(f"polynomial coefficients must be rational, got {type(c).__name__}")


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean: dict[tuple[int, ...], Rat] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
            coeff = _as_coeff(coeff)
            if coeff != 0:
                clean[expo] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, nvars: int, terms: dict) -> "Poly":
        """A Poly over already clean terms (int exponent tuples to nonzero Rats)."""
        out = object.__new__(cls)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: _as_coeff(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): Rat(1)})

    # -- ring operations ---------------------------------------------------

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, _ZERO) + coeff
        return Poly._unchecked(self.nvars, {e: c for e, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._unchecked(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        terms: dict[tuple[int, ...], Rat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, _ZERO) + c1 * c2
        return Poly._unchecked(self.nvars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        try:
            return (self - other).is_zero
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Poly":
        """Exact partial derivative with respect to variable i."""
        terms: dict[tuple[int, ...], Rat] = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            terms[tuple(new)] = coeff * expo[i]
        return Poly._unchecked(self.nvars, terms)

    def __call__(self, point: Sequence):
        return self._eval(point, all(is_rational(x) for x in point), {})

    def _eval(self, point: Sequence, exact: bool, powers: dict):
        """Value at ``point`` (Fractions if ``exact``); ``powers`` caches (i, e) -> x_i ** e."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = None
        for expo, coeff in self.terms.items():
            val = coeff if exact else float(coeff)
            for i, e in enumerate(expo):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = _power(point[i], e)
                    val = val * powers[i, e]
            total = val if total is None else total + val
        if total is None:
            return _ZERO if exact else 0.0
        return total

    def compose(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute a polynomial for each variable."""
        if len(args) != self.nvars:
            raise ValueError("need one substitution per variable")
        nv = args[0].nvars
        out = Poly(nv, {})
        for expo, coeff in self.terms.items():
            term = Poly.constant(nv, coeff)
            for arg, e in zip(args, expo):
                if e:
                    term = term * arg ** e
            out = out + term
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for expo, coeff in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(expo) if e) or "1"
            bits.append(f"{coeff}*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


def _power(x, e: int):
    """x ** e, with libm rounding on float arrays as on float scalars.

    numpy's array power (squaring, vector loops) can differ from ``pow`` by an
    ulp, so without this a stack of labels would not evaluate bitwise like
    the same labels one at a time.
    """
    if isinstance(x, np.ndarray) and x.dtype != object and e > 1:
        return np.frompyfunc(pow, 2, 1)(x, e).astype(float)
    return x ** e


def is_rational(x) -> bool:
    """Whether a coordinate is exact: an int or Fraction, or an array of them."""
    if isinstance(x, np.ndarray):
        return x.dtype == object and all(isinstance(v, (int, Fraction)) for v in x.flat)
    return isinstance(x, (int, Fraction))


def random_poly(
    rng: random.Random,
    nvars: int,
    degree: int = 3,
    nterms: int = 4,
    max_num: int = 3,
    max_den: int = 3,
) -> Poly:
    """A sparse random polynomial with small rational coefficients.

    The coefficient pool deliberately excludes zero so the requested term
    count is honoured (up to exponent collisions).
    """
    terms: dict[tuple[int, ...], Rat] = {}
    nums = [n for n in range(-max_num, max_num + 1) if n != 0]
    for _ in range(nterms):
        d = rng.randint(0, degree)
        expo = [0] * nvars
        for _ in range(d):
            expo[rng.randrange(nvars)] += 1
        num = rng.choice(nums)
        den = rng.randint(1, max_den)
        terms[tuple(expo)] = terms.get(tuple(expo), _ZERO) + Rat(num, den)
    return Poly(nvars, terms)


def random_point(rng: random.Random, n: int, max_den: int = 8) -> tuple[Rat, ...]:
    """A random rational point with coordinates in [-1, 1]."""
    out = []
    for _ in range(n):
        den = rng.randint(1, max_den)
        num = rng.randint(-den, den)
        out.append(Rat(num, den))
    return tuple(out)
