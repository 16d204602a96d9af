"""Trajectory fields over label space and differential operators on them.

Conventions used throughout the package:

* labels ``a = (a1, a2, a3)`` live in a rectangular box in label space,
  positions ``x(a, t)`` in physical space; overdots are time derivatives at
  fixed label.
* the gradient matrix ``G = position_gradient(a, t)`` has entries
  ``G[i, j] = dx_i/da_j``; ``velocity_gradient`` and ``acceleration_gradient``
  are its first and second time derivatives (``dv_i/da_j``, ``dw_i/da_j``).
* ``position_hessian(a, t)[i, j, k] = d^2 x_i / (da_j da_k)``.

Evaluation protocol: every trajectory-field method takes labels of shape
(..., 3) and a scalar time, and returns (..., 3), (..., 3, 3) or
(..., 3, 3, 3); one label is the case with an empty leading shape.  A grid or
loop diagnostic evaluates all of its labels in one call per time.  The scalar
and vector fields over labels and over physical space follow the same rule
(values (...), gradients (..., 3), Hessians and Jacobians (..., 3, 3)).
Callables supplied to any of them receive the whole (..., 3) stack, indexed
``a[..., i]``, and return the full output shape or a constant of one label's
shape, such as a (3, 3) matrix, which is broadcast (:func:`fit_to_stack`);
any other shape raises ValueError.  A stack evaluates bitwise like its labels
one at a time: matrix-vector products go through :func:`matvec` and libm
functions through :func:`elementwise` where numpy's loops round differently.

Three interchangeable backends implement this protocol:

``AnalyticTrajectoryField``
    closed-form evaluators with centered finite-difference fallbacks for any
    derivative that is not supplied (orders 2 and 4, default 4).  Every
    fallback in the package goes through :func:`derivative`,
    :func:`second_derivative` or :func:`fd_jacobian` applied to the whole
    vector or matrix, and every curl through :func:`curl`.
``PolynomialTrajectoryField``
    components are :class:`~vortlab.poly.Poly` in (a1, a2, a3, t); every
    derivative is exact, and rational query points give Fraction results.
``SampledTrajectoryField``
    node data on a rectilinear grid of labels and a uniform time ladder;
    derivatives by finite differences at a declared order (one-sided stencils
    of matching order at non-periodic edges), trilinear-in-space /
    linear-in-time interpolation off the nodes.  A query within rounding of a
    node or a stored slice reads it exactly; labels beyond the grid on a
    non-periodic axis raise :class:`~vortlab.errors.OutOfDomainError`.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import GridFormatError, OutOfDomainError
from .poly import Poly, is_rational

Vec = np.ndarray

# A fractional grid or ladder index this close to an integer is on the node.
_SNAP = 1e-9

# Centered first-derivative stencils: offsets and weights (divide by h).
_CENTRAL_1 = {
    2: ((-1, 1), (Fraction(-1, 2), Fraction(1, 2))),
    4: ((-2, -1, 1, 2), (Fraction(1, 12), Fraction(-2, 3), Fraction(2, 3), Fraction(-1, 12))),
}
# Edge stencils of matching order anchored at the boundary: entry i holds the
# weights (on points 0..width-1) for the derivative AT point i.  Mirrored and
# negated for the other end.
_EDGE_1 = {
    2: [
        (Fraction(-3, 2), Fraction(2), Fraction(-1, 2)),
    ],
    4: [
        (Fraction(-25, 12), Fraction(4), Fraction(-3), Fraction(4, 3), Fraction(-1, 4)),
        (Fraction(-1, 4), Fraction(-5, 6), Fraction(3, 2), Fraction(-1, 2), Fraction(1, 12)),
    ],
}


def derivative(g: Callable[[float], float], h: float, order: int = 4):
    """Centered finite-difference derivative of a callable at 0."""
    offsets, weights = _CENTRAL_1[order]
    return sum(float(w) * g(k * h) for k, w in zip(offsets, weights)) / h


def second_derivative(g: Callable[[float], float], h: float, order: int = 4):
    if order == 2:
        return (g(h) - 2.0 * g(0.0) + g(-h)) / h**2
    return (-g(-2 * h) + 16 * g(-h) - 30 * g(0.0) + 16 * g(h) - g(2 * h)) / (12 * h**2)


def fd_jacobian(f: Callable[[Vec], object], a, h: float, order: int = 4) -> Vec:
    """Centered finite-difference Jacobian ``out[..., j] = df/da_j`` at ``a``.

    ``f`` may be scalar-, vector- or matrix-valued; it is evaluated once per
    stencil offset and direction, so every output component shares the calls.
    """
    a = np.asarray(a, float)
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        cols.append(derivative(lambda s: f(a + s * e), h, order))
    return np.asarray(np.stack(cols, axis=-1), float)


def curl(d):
    """Curl of a field from its Jacobian ``d[i, j] = dv_i/da_j``.

    Works on float and Fraction-object matrices; a batch broadcasts when its
    component axes come first, ``d`` of shape (3, 3, ...).
    """
    return np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]])


def _stack_curl(d):
    """:func:`curl` of Jacobians ``d`` (..., 3, 3) with the stack axes first; (..., 3)."""
    return np.moveaxis(curl(np.moveaxis(d, (-2, -1), (0, 1))), 0, -1)


def fit_to_stack(out, lead: tuple, tail: tuple) -> np.ndarray:
    """A supplied callable's value at the protocol shape ``lead + tail``.

    ``lead`` is the leading shape of the labels and ``tail`` the value of one
    label.  A value of shape ``tail`` is a constant and is broadcast; any other
    shape raises ValueError, so a callable written for one label (``a[i]``
    where the protocol needs ``a[..., i]``) fails on a stack.
    """
    out = np.asarray(out)
    if out.shape == lead + tail:
        return out
    if out.shape == tail:
        return np.broadcast_to(out, lead + tail).copy()
    raise ValueError(
        f"evaluator returned shape {out.shape} for labels of leading shape {lead}; "
        f"expected {lead + tail} or a constant of shape {tail} (index labels as a[..., i])"
    )


def _supplied(fn, a, t, tail: tuple):
    """``fn(a, t)`` under the protocol: a stack's value is fitted by :func:`fit_to_stack`,
    one label's value is returned as it is (a Fraction stays a Fraction).

    ``fn`` always receives an array, so ``a[..., i]`` works on a tuple label;
    a sequence of ints and Fractions becomes an object array and stays exact.
    """
    if not isinstance(a, np.ndarray):
        exact = all(isinstance(x, (int, Fraction)) for x in a)
        a = np.array(a, dtype=object) if exact else np.asarray(a, float)
    out = fn(a, t)
    return fit_to_stack(out, a.shape[:-1], tail) if a.ndim > 1 else out


def matvec(m, v):
    """``m @ v`` for every label of stacks ``m`` (..., 3, 3) and ``v`` (..., 3).

    Each row is bitwise equal to the product of one matrix and one vector;
    ``np.inner`` and ``np.einsum`` are not.
    """
    return (m @ np.asarray(v)[..., None])[..., 0]


def elementwise(fn, *args):
    """A scalar function (``math.exp``, ``pow`` ...) applied to every element
    of its broadcast arguments.

    numpy's vector loops for exp, sin, cos and power can round differently
    from libm, so closed forms that must match their one-label values bitwise
    on a stack go through here.  Scalar arguments give a float.
    """
    out = np.frompyfunc(fn, len(args), 1)(*args)
    return out.astype(float) if isinstance(out, np.ndarray) else float(out)


def _poly_jacobian(polys) -> np.ndarray:
    """Object array ``out[..., j] = d polys[...] / da_j`` of a sequence of Polys."""
    return np.array([[p.diff(j) for j in range(3)] for p in polys], dtype=object)


def _poly_eval(polys: np.ndarray, a, *rest) -> np.ndarray:
    """Evaluate an object array of Polys at points ``a`` of shape (..., n).

    ``rest`` holds trailing scalar coordinates (the time).  The result has
    shape ``a.shape[:-1] + polys.shape``: an object array of Fractions when
    every coordinate is rational, a float array otherwise.
    """
    # a sequence becomes an object array, so int and Fraction labels stay exact
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    coords = [*(a if a.ndim == 1 else np.moveaxis(a, -1, 0)), *rest]
    exact = all(is_rational(x) for x in coords)
    out = np.empty(a.shape[:-1] + (polys.size,), dtype=object if exact else float)
    for k, p in enumerate(polys.flat):
        out[..., k] = p(coords)
    return out.reshape(a.shape[:-1] + polys.shape)


# Corner offsets of the trilinear stencil, (3, corners, 1), keyed by the axes
# with a query off its node; the others need no upper corner.
_CORNERS = {
    off: np.array(list(itertools.product(*((0, 1) if o else (0,) for o in off)))).T[:, :, None]
    for off in itertools.product((False, True), repeat=3)
}


def _snap(s):
    """Fractional grid indices, with those within rounding of an integer set to it."""
    r = np.rint(s)
    return np.where(np.abs(s - r) <= _SNAP, r, s)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in label space."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent on every axis")

    def first_outside(self, a, pad: float = 0.0):
        """The first label of ``a`` (one label or an array stack (..., 3))
        outside the box, or None."""
        if getattr(a, "ndim", 1) == 1:
            x, y, z = a.tolist() if isinstance(a, np.ndarray) else a
            (l1, l2, l3), (h1, h2, h3) = self.lo, self.hi
            inside = (l1 - pad <= x <= h1 + pad and l2 - pad <= y <= h2 + pad
                      and l3 - pad <= z <= h3 + pad)
            return None if inside else a
        flat = np.asarray(a, float).reshape(-1, 3)
        inside = (flat >= np.subtract(self.lo, pad)) & (flat <= np.add(self.hi, pad))
        if inside.all():
            return None
        return flat[np.argmin(inside.all(axis=1))]

    def contains(self, a, pad: float = 0.0) -> bool:
        """Whether the label ``a``, or every label of a stack (..., 3), lies in the box."""
        return self.first_outside(a, pad) is None

    @property
    def extent(self) -> np.ndarray:
        return np.asarray(self.hi, float) - np.asarray(self.lo, float)

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo, float) + np.asarray(self.hi, float))


@dataclass(frozen=True)
class LabelGrid:
    """Rectilinear grid of label-space nodes with uniform per-axis spacing.

    For quadrature grids the nodes are cell centers and ``cell_volume`` is the
    midpoint-rule weight of each node.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    spacings: tuple[float, float, float]

    def __post_init__(self):
        for ax, h in zip(self.axes, self.spacings):
            if h <= 0:
                raise ValueError("grid spacings must be positive")
            if len(ax) > 1 and not np.all(np.diff(ax) > 0):
                raise ValueError("grid coordinates must be strictly increasing")

    @classmethod
    def cell_centers(cls, box: Box, shape: Sequence[int]) -> "LabelGrid":
        axes, spac = [], []
        for lo, hi, n in zip(box.lo, box.hi, shape):
            if n < 1:
                raise ValueError("need at least one cell per axis")
            h = (hi - lo) / n
            axes.append(lo + h * (np.arange(n) + 0.5))
            spac.append(h)
        return cls(tuple(axes), tuple(spac))

    @classmethod
    def nodes_inclusive(cls, box: Box, shape: Sequence[int]) -> "LabelGrid":
        """Endpoint-inclusive nodes (>= 2 per axis)."""
        axes, spac = [], []
        for lo, hi, n in zip(box.lo, box.hi, shape):
            if n < 2:
                raise ValueError("need at least two nodes per axis")
            axes.append(np.linspace(lo, hi, n))
            spac.append((hi - lo) / (n - 1))
        return cls(tuple(axes), tuple(spac))

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def nodes(self) -> np.ndarray:
        """All nodes as an (N, 3) array in C (row-major) order."""
        g1, g2, g3 = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=-1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(*self.axes, indexing="ij")


# ---------------------------------------------------------------------------
# Generic scalar / vector fields over (a, t) and over physical space.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFieldLabel:
    """A scalar field psi(a, t) with optional exact derivative evaluators.

    Labels follow the module's protocol: ``a`` of shape (..., 3) gives values
    (...), gradients (..., 3) and Hessians (..., 3, 3).
    """

    value: Callable[[Vec, float], float]
    gradient_fn: Callable[[Vec, float], Vec] | None = None
    hessian_fn: Callable[[Vec, float], Vec] | None = None
    h: float = 1e-4
    order: int = 4

    def __call__(self, a, t):
        return _supplied(self.value, a, t, ())

    def gradient(self, a, t) -> Vec:
        if self.gradient_fn is not None:
            return np.asarray(_supplied(self.gradient_fn, a, t, (3,)))
        return fd_jacobian(lambda b: self(b, t), a, self.h, self.order)

    def hessian(self, a, t) -> Vec:
        if self.hessian_fn is not None:
            return np.asarray(_supplied(self.hessian_fn, a, t, (3, 3)))
        hess = fd_jacobian(lambda b: self.gradient(b, t), a, self.h, self.order)
        return np.swapaxes(hess, -1, -2)

    @classmethod
    def constant(cls, c: float) -> "ScalarFieldLabel":
        return cls(value=lambda a, t: c, gradient_fn=lambda a, t: np.zeros(3),
                   hessian_fn=lambda a, t: np.zeros((3, 3)))

    @classmethod
    def from_poly(cls, p: Poly) -> "ScalarFieldLabel":
        """Wrap a 4-variable polynomial in (a1, a2, a3, t); derivatives exact."""
        val = np.array(p, dtype=object)
        grad = _poly_jacobian([p])[0]
        hess = _poly_jacobian(grad)
        # [()] unwraps one label's 0-d result into its Fraction or float
        return cls(value=lambda a, t: _poly_eval(val, a, t)[()],
                   gradient_fn=lambda a, t: _poly_eval(grad, a, t),
                   hessian_fn=lambda a, t: _poly_eval(hess, a, t))


@dataclass(frozen=True)
class VectorFieldLabel:
    """A vector field v(a, t) in label space; jacobian[..., i, j] = dv_i/da_j."""

    value: Callable[[Vec, float], Vec]
    jacobian_fn: Callable[[Vec, float], Vec] | None = None
    h: float = 1e-4
    order: int = 4

    def __call__(self, a, t) -> Vec:
        return np.asarray(_supplied(self.value, a, t, (3,)))

    def jacobian(self, a, t) -> Vec:
        if self.jacobian_fn is not None:
            return np.asarray(_supplied(self.jacobian_fn, a, t, (3, 3)))
        return fd_jacobian(lambda b: np.asarray(self(b, t), float), a, self.h, self.order)

    def curl(self, a, t) -> Vec:
        return _stack_curl(self.jacobian(a, t))

    def divergence(self, a, t):
        D = self.jacobian(a, t)
        return D[..., 0, 0] + D[..., 1, 1] + D[..., 2, 2]

    @classmethod
    def from_polys(cls, comps: Sequence[Poly]) -> "VectorFieldLabel":
        val, jac = np.array(comps, dtype=object), _poly_jacobian(comps)
        return cls(value=lambda a, t: _poly_eval(val, a, t),
                   jacobian_fn=lambda a, t: _poly_eval(jac, a, t))


@dataclass(frozen=True)
class EulerianScalarField:
    """A scalar field over physical space, e.g. an external potential P(x);
    points of shape (..., 3) give values (...) and gradients (..., 3)."""

    value: Callable[[Vec, float], float]
    gradient_fn: Callable[[Vec, float], Vec] | None = None
    h: float = 1e-4
    order: int = 4

    def __call__(self, x, t):
        return _supplied(self.value, x, t, ())

    def gradient(self, x, t) -> Vec:
        if self.gradient_fn is not None:
            return np.asarray(_supplied(self.gradient_fn, x, t, (3,)))
        return fd_jacobian(lambda y: self(y, t), x, self.h, self.order)


@dataclass(frozen=True)
class EulerianVectorField:
    """A vector field over physical space; jacobian[i, j] = dq_i/dx_j.

    The callables receive points of shape (..., 3) under the module's
    evaluation protocol; calling the field and its ``jacobian`` and
    ``time_derivative`` return (..., 3) and (..., 3, 3) arrays.
    """

    value: Callable[[Vec, float], Vec]
    jacobian_fn: Callable[[Vec, float], Vec] | None = None
    time_derivative_fn: Callable[[Vec, float], Vec] | None = None
    steady: bool = False
    h: float = 1e-4
    order: int = 4

    def __call__(self, x, t) -> Vec:
        return fit_to_stack(self.value(x, t), np.shape(x)[:-1], (3,))

    def jacobian(self, x, t) -> Vec:
        if self.jacobian_fn is not None:
            return fit_to_stack(self.jacobian_fn(x, t), np.shape(x)[:-1], (3, 3))
        return fd_jacobian(lambda y: np.asarray(self(y, t), float), x, self.h, self.order)

    def time_derivative(self, x, t) -> Vec:
        x = np.asarray(x, float)
        if self.steady:
            return np.zeros(x.shape)
        if self.time_derivative_fn is not None:
            return fit_to_stack(self.time_derivative_fn(x, t), x.shape[:-1], (3,))
        return derivative(lambda s: np.asarray(self(x, t + s), float), self.h, self.order)

    def curl(self, x, t) -> Vec:
        return _stack_curl(self.jacobian(x, t))

    @classmethod
    def from_polys(cls, comps: Sequence[Poly]) -> "EulerianVectorField":
        """Wrap three 3-variable polynomials in (x1, x2, x3); steady, exact."""
        val, jac = np.array(comps, dtype=object), _poly_jacobian(comps)
        return cls(value=lambda x, t: _poly_eval(val, x),
                   jacobian_fn=lambda x, t: _poly_eval(jac, x), steady=True)


# ---------------------------------------------------------------------------
# Trajectory fields
# ---------------------------------------------------------------------------


# Trailing output shape of each protocol method.
_TAIL = {
    "position": (3,), "velocity": (3,), "acceleration": (3,),
    "position_gradient": (3, 3), "velocity_gradient": (3, 3), "acceleration_gradient": (3, 3),
    "position_hessian": (3, 3, 3),
}


class TrajectoryField:
    """Protocol base: position/velocity/acceleration and their label gradients."""

    backend = "abstract"

    def __init__(self, box: Box, t0: float, t1: float, order: int = 4):
        if t1 <= t0:
            raise ValueError("time window must have t1 > t0")
        self.box = box
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.order = order

    # Subclasses implement, for labels a of shape (..., 3) and a scalar t:
    #   position, velocity, acceleration           -> (..., 3)
    #   position_gradient, velocity_gradient,
    #   acceleration_gradient                      -> (..., 3, 3)
    #   position_hessian                           -> (..., 3, 3, 3)

    def check_domain(self, a, t, time_pad: float = 0.0):
        """Raise OutOfDomainError for the first label of ``a`` outside the box
        or a time outside the window."""
        bad = self.box.first_outside(a)
        if bad is not None:
            raise OutOfDomainError(f"label {tuple(float(x) for x in bad)} outside {self.box}")
        if not (self.t0 - time_pad <= float(t) <= self.t1 + time_pad):
            raise OutOfDomainError(f"time {t} outside window [{self.t0}, {self.t1}]")


def eval_state(field: TrajectoryField, a, t):
    """Position, velocity and acceleration of the parcel labeled ``a`` at ``t``."""
    field.check_domain(a, t)
    return field.position(a, t), field.velocity(a, t), field.acceleration(a, t)


class AnalyticTrajectoryField(TrajectoryField):
    """Trajectory field from closed-form evaluators with FD fallbacks.

    Any derivative evaluator that is not supplied is replaced by a centered
    finite difference of the next-lower-level evaluator, at the declared
    order and step.
    """

    backend = "analytic"

    def __init__(
        self,
        position: Callable[[Vec, float], Vec],
        box: Box,
        t0: float = 0.0,
        t1: float = 1.0,
        velocity: Callable | None = None,
        acceleration: Callable | None = None,
        position_gradient: Callable | None = None,
        velocity_gradient: Callable | None = None,
        acceleration_gradient: Callable | None = None,
        position_hessian: Callable | None = None,
        order: int = 4,
        fd_step: float = 1e-3,
    ):
        super().__init__(box, t0, t1, order)
        self._fn = {
            "position": position,
            "velocity": velocity,
            "acceleration": acceleration,
            "position_gradient": position_gradient,
            "velocity_gradient": velocity_gradient,
            "acceleration_gradient": acceleration_gradient,
            "position_hessian": position_hessian,
        }
        self.fd_step = fd_step

    def _evaluate(self, name, a, t, lower=None):
        """The supplied evaluator ``name`` at labels ``a``, broadcast to its
        protocol shape; without one, the FD fallback: time derivatives of the
        position, or the label gradient of the evaluator ``lower``."""
        a = np.asarray(a, float)
        fn = self._fn[name]
        if fn is not None:
            return np.asarray(_supplied(fn, a, t, _TAIL[name]), float)
        if name == "velocity":
            return derivative(lambda s: self.position(a, t + s), self.fd_step, self.order)
        if name == "acceleration":
            return second_derivative(lambda s: self.position(a, t + s), self.fd_step, self.order)
        return fd_jacobian(lambda b: lower(b, t), a, self.fd_step, self.order)

    def position(self, a, t) -> Vec:
        return self._evaluate("position", a, t)

    def velocity(self, a, t) -> Vec:
        return self._evaluate("velocity", a, t)

    def acceleration(self, a, t) -> Vec:
        return self._evaluate("acceleration", a, t)

    def position_gradient(self, a, t) -> Vec:
        return self._evaluate("position_gradient", a, t, self.position)

    def velocity_gradient(self, a, t) -> Vec:
        return self._evaluate("velocity_gradient", a, t, self.velocity)

    def acceleration_gradient(self, a, t) -> Vec:
        return self._evaluate("acceleration_gradient", a, t, self.acceleration)

    def position_hessian(self, a, t) -> Vec:
        return self._evaluate("position_hessian", a, t, self.position_gradient)


class PolynomialTrajectoryField(TrajectoryField):
    """Exact trajectory field: components are polynomials in (a1, a2, a3, t).

    All derivatives are symbolic; rational (int / Fraction) query points give
    Fraction-valued results, which is what makes the identity battery's
    "exactly zero" assertions possible.
    """

    backend = "polynomial"
    _T = 3  # index of the time variable

    def __init__(self, components: Sequence[Poly], box: Box, t0: float = 0.0, t1: float = 1.0):
        super().__init__(box, t0, t1, order=0)
        comps = tuple(components)
        if len(comps) != 3 or any(p.nvars != 4 for p in comps):
            raise ValueError("need three polynomials in (a1, a2, a3, t)")
        self.components = comps
        vel = [p.diff(self._T) for p in comps]
        self._polys = {}
        for kind, ps in (("position", comps), ("velocity", vel),
                         ("acceleration", [p.diff(self._T) for p in vel])):
            self._polys[kind] = np.array(ps, dtype=object)
            self._polys[f"{kind}_gradient"] = _poly_jacobian(ps)
        self._polys["position_hessian"] = np.array(
            [_poly_jacobian(row) for row in self._polys["position_gradient"]], dtype=object)

    def position(self, a, t):
        return _poly_eval(self._polys["position"], a, t)

    def velocity(self, a, t):
        return _poly_eval(self._polys["velocity"], a, t)

    def acceleration(self, a, t):
        return _poly_eval(self._polys["acceleration"], a, t)

    def position_gradient(self, a, t):
        return _poly_eval(self._polys["position_gradient"], a, t)

    def velocity_gradient(self, a, t):
        return _poly_eval(self._polys["velocity_gradient"], a, t)

    def acceleration_gradient(self, a, t):
        return _poly_eval(self._polys["acceleration_gradient"], a, t)

    def position_hessian(self, a, t):
        return _poly_eval(self._polys["position_hessian"], a, t)

    @classmethod
    def identity_plus(cls, deltas: Sequence[Poly], box: Box, t0=0.0, t1=1.0):
        """x_i = a_i + delta_i(a, t); convenient for random perturbative maps."""
        comps = [Poly.variable(4, i) + d for i, d in enumerate(deltas)]
        return cls(comps, box, t0, t1)


# ---------------------------------------------------------------------------
# Sampled backend
# ---------------------------------------------------------------------------


def _axis_derivative(data: np.ndarray, h: float, axis: int, order: int, periodic: bool):
    """FD derivative of gridded data along one axis.

    Periodic axes use circular central stencils; otherwise interior points are
    central and edges fall back to one-sided stencils of the same order.
    """
    offsets, weights = _CENTRAL_1[order]
    if periodic:
        out = np.zeros_like(data)
        for k, w in zip(offsets, weights):
            out += float(w) * np.roll(data, -k, axis=axis)
        return out / h

    n = data.shape[axis]
    need = order // 2
    edge = _EDGE_1[order]
    width = len(edge[0])
    if n < width:
        raise ValueError(f"axis of length {n} too short for order-{order} stencils")
    out = np.zeros_like(data)

    def sl(idx):
        s = [slice(None)] * data.ndim
        s[axis] = idx
        return tuple(s)

    # interior
    interior = slice(need, n - need)
    acc = np.zeros_like(data[sl(interior)])
    for k, w in zip(offsets, weights):
        acc += float(w) * data[sl(slice(need + k, n - need + k))]
    out[sl(interior)] = acc / h
    # edges: boundary-anchored stencils, mirrored (with sign flip) on the right
    for i, ws in enumerate(edge):
        fwd = sum(float(w) * data[sl(k)] for k, w in enumerate(ws))
        out[sl(i)] = fwd / h
        bwd = sum(float(w) * data[sl(n - 1 - k)] for k, w in enumerate(ws))
        out[sl(n - 1 - i)] = -bwd / h
    return out


class SampledTrajectoryField(TrajectoryField):
    """Trajectory data sampled on a label grid and a uniform time ladder.

    ``positions`` has shape (nt, n1, n2, n3, 3); ``velocities`` and
    ``accelerations`` are optional and, when absent, are produced by finite
    differences along the time axis.  Spatial derivatives of the positions go
    through the displacement field x - a so that periodic axes can wrap.
    """

    backend = "sampled"

    def __init__(
        self,
        grid: LabelGrid,
        times: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray | None = None,
        accelerations: np.ndarray | None = None,
        periodic: tuple[bool, bool, bool] = (False, False, False),
        order: int = 4,
    ):
        times = np.asarray(times, float)
        if len(times) < 2 or not np.allclose(np.diff(times), times[1] - times[0]):
            raise ValueError("need a uniform time ladder with >= 2 stamps")
        if order not in (2, 4):
            raise ValueError("derivative order must be 2 or 4")
        box = Box(tuple(float(ax[0]) for ax in grid.axes), tuple(float(ax[-1]) for ax in grid.axes))
        super().__init__(box, times[0], times[-1], order)
        expected = (len(times), *grid.shape, 3)
        if positions.shape != expected:
            raise ValueError(f"positions shape {positions.shape} != {expected}")
        self.grid = grid
        self.times = times
        self.dt = float(times[1] - times[0])
        self.positions = positions
        self.velocities = velocities
        self.accelerations = accelerations
        self.periodic = tuple(bool(p) for p in periodic)
        if len(self.periodic) != 3:
            raise ValueError(f"need one periodic flag per label axis, got {len(self.periodic)}")
        self._mesh = np.stack(grid.meshgrid(), axis=-1)
        # per-axis columns for the (3, M) label rows of the lookup
        self._origin = np.array([[ax[0]] for ax in grid.axes])
        self._step = np.array([[ax[1] - ax[0]] for ax in grid.axes])
        self._bounded = ~np.array([[p] for p in self.periodic])
        self._cache: dict = {}

    # -- node-level data ----------------------------------------------------

    def _time_series(self, kind: str) -> np.ndarray:
        if kind == "position":
            return self.positions
        key = ("series", kind)
        if key in self._cache:
            return self._cache[key]
        if kind == "velocity":
            data = self.velocities
            if data is None:
                data = _axis_derivative(self.positions, self.dt, 0, self.order, False)
        elif kind == "acceleration":
            data = self.accelerations
            if data is None:
                data = _axis_derivative(self._time_series("velocity"), self.dt, 0, self.order, False)
        else:
            raise KeyError(kind)
        self._cache[key] = data
        return data

    def node_values(self, kind: str, ti: int) -> np.ndarray:
        return self._time_series(kind)[ti]

    def node_gradients(self, kind: str, ti: int) -> np.ndarray:
        """(n1, n2, n3, 3, 3) array of d(field_i)/da_j at grid nodes."""
        key = ("grad", kind, ti)
        if key in self._cache:
            return self._cache[key]
        data = self.node_values(kind, ti)
        if kind == "position":
            # differentiate the displacement so periodic wrap is exact
            data = data - self._mesh
        cols = []
        for j in range(3):
            cols.append(
                _axis_derivative(data, self.grid.spacings[j], axis=j, order=self.order,
                                 periodic=self.periodic[j])
            )
        grad = np.stack(cols, axis=-1)  # (..., 3 comps, 3 dirs)
        if kind == "position":
            grad = grad + np.eye(3)
        self._cache[key] = grad
        return grad

    # -- evaluation protocol --------------------------------------------------

    def _locate(self, vals: np.ndarray, a) -> np.ndarray:
        """Trilinear interpolation of node data ``vals`` (n1, n2, n3, ...) at
        labels ``a`` (..., 3).

        A coordinate within rounding of a node index reads that node, so an
        on-node query returns the node data exactly.  Periodic axes wrap; on
        the others a label beyond the grid raises OutOfDomainError.
        """
        a = np.asarray(a, float)
        q = np.ascontiguousarray(a.reshape(-1, 3).T)  # (3, M): one row per axis
        shape = vals.shape[:3]
        s = _snap((q - self._origin) / self._step)
        i0 = np.floor(s)
        if not all(self.periodic):
            n = np.array(shape)[:, None]
            outside = self._bounded & ~((s >= 0) & (s <= n - 1))
            if outside.any():
                j, m = np.argwhere(outside)[0]
                raise OutOfDomainError(f"label {tuple(q[:, m].tolist())} outside the sampled "
                                       f"grid on axis {j + 1}")
            i0 = np.where(self._bounded, np.minimum(i0, n - 2), i0)
        frac = s - i0
        d = _CORNERS[tuple(frac.any(axis=1).tolist())]  # (3, corners, 1)
        # "wrap" is the periodic index; on the other axes the index is in range
        flat_idx = np.ravel_multi_index(i0.astype(int)[:, None, :] + d, shape, mode="wrap")
        tail = vals.shape[3:]
        data = np.take(vals.reshape(-1, *tail), flat_idx, axis=0)  # (corners, M, ...)
        if d.shape[1] == 1:
            out = data[0]
        else:
            w = np.where(d, frac[:, None, :], 1 - frac[:, None, :])
            terms = (w[0] * w[1] * w[2]).reshape(*flat_idx.shape, *(1,) * len(tail)) * data
            out = terms[0]
            for term in terms[1:]:
                out = out + term
        return out.reshape(a.shape[:-1] + tail)

    def _interp(self, kind: str, a, t, gradient: bool = False):
        s = float(_snap((float(t) - self.t0) / self.dt))
        k0 = min(max(math.floor(s), 0), len(self.times) - 2)
        f = s - k0
        get = self.node_gradients if gradient else self.node_values
        v0 = self._locate(get(kind, k0), a)
        if f == 0.0:
            return v0
        v1 = self._locate(get(kind, k0 + 1), a)
        return (1 - f) * v0 + f * v1

    def position(self, a, t) -> Vec:
        return self._interp("position", a, t)

    def velocity(self, a, t) -> Vec:
        return self._interp("velocity", a, t)

    def acceleration(self, a, t) -> Vec:
        return self._interp("acceleration", a, t)

    def position_gradient(self, a, t) -> Vec:
        return self._interp("position", a, t, gradient=True)

    def velocity_gradient(self, a, t) -> Vec:
        return self._interp("velocity", a, t, gradient=True)

    def acceleration_gradient(self, a, t) -> Vec:
        return self._interp("acceleration", a, t, gradient=True)

    def position_hessian(self, a, t) -> Vec:
        # FD of the interpolated gradient; adequate for diagnostics only.
        return fd_jacobian(lambda b: self.position_gradient(b, t), a, min(self.grid.spacings), 2)

    def time_index(self, t: float) -> int:
        """Index of the stored slice at ``t``: ValueError off the ladder,
        OutOfDomainError for an on-ladder time outside the window."""
        s = float(_snap((float(t) - self.t0) / self.dt))
        if not s.is_integer():
            raise ValueError(f"time {t} is not on the stored ladder")
        if not 0 <= s < len(self.times):
            raise OutOfDomainError(f"time {t} outside window [{self.t0}, {self.t1}]")
        return int(s)

    @classmethod
    def from_analytic(
        cls,
        field: TrajectoryField,
        grid: LabelGrid,
        times: np.ndarray,
        store_derivatives: bool = True,
        order: int = 4,
        periodic=(False, False, False),
    ) -> "SampledTrajectoryField":
        """Sample another backend onto a grid (testing / export utility)."""
        times = np.asarray(times, float)
        nodes = np.stack(grid.meshgrid(), axis=-1)
        shape = (len(times), *grid.shape, 3)
        pos = np.empty(shape)
        vel = np.empty(shape) if store_derivatives else None
        acc = np.empty(shape) if store_derivatives else None
        for k, t in enumerate(times):
            pos[k] = field.position(nodes, t)
            if store_derivatives:
                vel[k] = field.velocity(nodes, t)
                acc[k] = field.acceleration(nodes, t)
        return cls(grid, times, pos, vel, acc, periodic=periodic, order=order)


# ---------------------------------------------------------------------------
# Grid-file I/O (formats documented in the README)
# ---------------------------------------------------------------------------

_GRID_MAGIC = "vortlab-grid"
_GRID_VERSION = 1


def _check_stencil_fit(path, field: SampledTrajectoryField):
    """Grid files hold fields whose non-periodic axes fit the order's one-sided stencil."""
    width = len(_EDGE_1[field.order][0])
    for j, (n, periodic) in enumerate(zip(field.grid.shape, field.periodic), start=1):
        if not periodic and n < width:
            raise GridFormatError(f"{path}: non-periodic axis{j} of length {n} is too short "
                                  f"for the {width}-point order-{field.order} stencils")


def save_grid(field: SampledTrajectoryField, path: str):
    """Write the self-describing binary (.npz) or CSV (.csv) grid format."""
    _check_stencil_fit(path, field)
    if str(path).endswith(".csv"):
        _save_grid_csv(field, path)
        return
    arrays = {
        "format": np.array([_GRID_MAGIC]),
        "version": np.array([_GRID_VERSION]),
        "axis1": field.grid.axes[0],
        "axis2": field.grid.axes[1],
        "axis3": field.grid.axes[2],
        "times": field.times,
        "positions": field.positions,
        "periodic": np.array(field.periodic, dtype=bool),
        "order": np.array([field.order]),
    }
    if field.velocities is not None:
        arrays["velocities"] = field.velocities
    if field.accelerations is not None:
        arrays["accelerations"] = field.accelerations
    np.savez(path, **arrays)


def load_grid(path: str) -> SampledTrajectoryField:
    """Read either grid format; malformed content raises GridFormatError."""
    if str(path).endswith(".csv"):
        return _load_grid_csv(path)
    with np.load(path, allow_pickle=False) as data:
        if "format" not in data or str(data["format"][0]) != _GRID_MAGIC:
            raise GridFormatError(f"{path} is not a grid file")
        try:
            axes = (data["axis1"], data["axis2"], data["axis3"])
            times, positions = data["times"], data["positions"]
            periodic = tuple(bool(b) for b in data["periodic"])
            order = int(data["order"][0])
        except KeyError as exc:
            raise GridFormatError(f"{path}: missing array ({exc})") from exc
        return _field_from_arrays(
            path, axes, times, positions,
            data["velocities"] if "velocities" in data else None,
            data["accelerations"] if "accelerations" in data else None,
            periodic, order,
        )


def _field_from_arrays(path, axes, times, positions, velocities, accelerations, periodic, order):
    """Sampled field over uniformly spaced axes; whatever it rejects is a format error."""
    spac = []
    for j, ax in enumerate(axes, start=1):
        steps = np.diff(ax)
        if len(steps) == 0 or not np.allclose(steps, steps[0]):
            raise GridFormatError(f"{path}: axis{j} is not uniformly spaced")
        spac.append(float(steps[0]))
    try:
        field = SampledTrajectoryField(
            LabelGrid(tuple(axes), tuple(spac)), times, positions, velocities, accelerations,
            periodic=periodic, order=order,
        )
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from exc
    _check_stencil_fit(path, field)
    return field


def _save_grid_csv(field: SampledTrajectoryField, path: str):
    n1, n2, n3 = field.grid.shape
    kinds = ["positions"]
    if field.velocities is not None:
        kinds.append("velocities")
    if field.accelerations is not None:
        kinds.append("accelerations")
    buf = io.StringIO()
    buf.write(f"# {_GRID_MAGIC} {_GRID_VERSION}\n")
    buf.write(f"# shape {n1} {n2} {n3} {len(field.times)}\n")
    for j, ax in enumerate(field.grid.axes, start=1):
        buf.write(f"# axis{j} {float(ax[0])!r} {float(field.grid.spacings[j - 1])!r}\n")
    buf.write(f"# times {float(field.times[0])!r} {float(field.dt)!r}\n")
    buf.write(f"# fields {' '.join(kinds)}\n")
    buf.write(f"# periodic {' '.join(str(int(p)) for p in field.periodic)}\n")
    buf.write(f"# order {field.order}\n")
    cols = {"positions": field.positions, "velocities": field.velocities,
            "accelerations": field.accelerations}
    for k in range(len(field.times)):
        flat = [cols[kind][k].reshape(-1, 3) for kind in kinds]
        for row in range(n1 * n2 * n3):
            buf.write(",".join(repr(float(v)) for block in flat for v in block[row]))
            buf.write("\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _load_grid_csv(path: str) -> SampledTrajectoryField:
    header: dict[str, list[str]] = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if not parts:
                    raise GridFormatError(f"{path}: empty header line")
                header[parts[0]] = parts[1:]
            else:
                try:
                    rows.append([float(v) for v in line.split(",")])
                except ValueError as exc:
                    raise GridFormatError(f"{path}: bad number in data row ({exc})") from exc
    if _GRID_MAGIC not in header:
        raise GridFormatError(f"{path}: missing '{_GRID_MAGIC}' header line")
    try:
        n1, n2, n3, nt = (int(v) for v in header["shape"])
        axis_steps = []
        for j in range(1, 4):
            start, step = (float(v) for v in header[f"axis{j}"])
            axis_steps.append((start, step))
        t0, dt = (float(v) for v in header["times"])
        kinds = header["fields"]
        periodic = tuple(bool(int(v)) for v in header["periodic"])
        order = int(header["order"][0])
    except (KeyError, ValueError, IndexError) as exc:
        raise GridFormatError(f"{path}: malformed header ({exc})") from exc
    if "positions" not in kinds:
        raise GridFormatError(f"{path}: '# fields' does not list positions")
    if min(n1, n2, n3, nt) < 1:
        raise GridFormatError(f"{path}: '# shape' needs positive sizes")
    starts_steps = [*axis_steps, (t0, dt)]
    ends = [start + step * (n - 1) for (start, step), n in zip(starts_steps, (n1, n2, n3, nt))]
    if not all(map(math.isfinite, [*itertools.chain(*starts_steps), *ends])):
        raise GridFormatError(f"{path}: axis and time ladders need finite numbers")
    expected = (nt * n1 * n2 * n3, 3 * len(kinds))
    if len(rows) != expected[0] or any(len(r) != expected[1] for r in rows):
        raise GridFormatError(f"{path}: expected {expected[0]} rows x {expected[1]} cols")
    axes = [start + step * np.arange(n) for (start, step), n in zip(axis_steps, (n1, n2, n3))]
    blocks = np.asarray(rows).reshape(nt, n1, n2, n3, 3 * len(kinds))
    arrays = {kind: blocks[..., 3 * i:3 * i + 3] for i, kind in enumerate(kinds)}
    return _field_from_arrays(
        path, axes, t0 + dt * np.arange(nt), arrays["positions"], arrays.get("velocities"),
        arrays.get("accelerations"), periodic, order,
    )
