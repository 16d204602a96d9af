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
loop diagnostic evaluates all of its labels in one call per time.  Two field
types, :class:`ScalarField` and :class:`VectorField`, cover every scalar and
vector field, whether over labels ``(a, t)`` or over physical space
``(x, t)``, and follow the same rule (values (...) or (..., 3), gradients
(..., 3), Hessians and Jacobians (..., 3, 3)).  Callables supplied to any of
them receive the whole (..., 3) stack, indexed ``a[..., i]``, and return the
full output shape or a constant of one label's shape, such as a (3, 3)
matrix, which is broadcast; any other shape raises ValueError.  A derivative
without a callable is an order-4 finite difference at :data:`FD_STEP`.  A
stack evaluates bitwise like its labels one at a time: matrix-vector products
go through :func:`matvec` and libm functions through :func:`elementwise`
where numpy's loops round differently.

Three interchangeable backends implement this protocol:

``AnalyticTrajectoryField``
    closed-form evaluators with centered order-4 finite-difference fallbacks
    (step :data:`ANALYTIC_FD_STEP`) for any derivative not supplied.  Every
    fallback in the package goes through :func:`derivative`,
    :func:`second_derivative` or :func:`fd_jacobian` applied to the whole
    vector or matrix, and every curl through :func:`curl`.  A label gradient
    is one call of the lower evaluator: :func:`fd_jacobian` hands it one
    stack of shape ``(3 * len(offsets), *a.shape)`` holding every
    stencil-shifted copy of the labels.
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
import zipfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import GridFormatError, OutOfDomainError, VortlabError
from .poly import Poly, is_rational

Vec = np.ndarray

# A fractional grid or ladder index this close to an integer is on the node.
_SNAP = 1e-9

# Steps of the order-4 finite-difference fallbacks for derivatives without an
# evaluator: scalar and vector fields (and a variation's time-shift rate), and
# the analytic trajectory backend.
FD_STEP = 1e-4
ANALYTIC_FD_STEP = 1e-3

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


def _combine(weights, values, h):
    """``sum(w * value) / h`` in stencil order: the one sum of every
    first-derivative stencil in the package."""
    return sum(float(w) * v for w, v in zip(weights, values)) / h


def derivative(g: Callable[[float], float], h: float, order: int = 4):
    """Centered finite-difference derivative of a callable at 0."""
    offsets, weights = _CENTRAL_1[order]
    return _combine(weights, (g(k * h) for k in offsets), h)


def second_derivative(g: Callable[[float], float], h: float):
    return (-g(-2 * h) + 16 * g(-h) - 30 * g(0.0) + 16 * g(h) - g(2 * h)) / (12 * h**2)


def fd_jacobian(f: Callable[[Vec], object], a, h: float, order: int = 4) -> Vec:
    """Centered finite-difference Jacobian ``out[..., j] = df/da_j`` at ``a``.

    ``f`` follows the evaluation protocol and may be scalar-, vector- or
    matrix-valued.  It is called once, on one stack of shape
    ``(3 * len(offsets), *a.shape)`` holding ``a + (k * h) * e_j`` in
    (direction j, offset k) order, and returns one value per label; each
    direction's values are combined by the stencil sum of :func:`derivative`.
    A raise inside ``f`` names the first offending label in that order, the
    one a call per offset would meet first.
    """
    offsets, weights = _CENTRAL_1[order]
    a = np.asarray(a, float)
    eye = np.eye(3)
    shifted = np.stack([a + (k * h) * eye[j] for j in range(3) for k in offsets])
    values = np.asarray(f(shifted), float)
    lead = shifted.shape[:-1]
    if values.shape[:len(lead)] != lead:
        raise ValueError(f"f returned shape {values.shape} for labels of leading shape {lead}; "
                         f"index labels as a[..., i]")
    values = values.reshape(3, len(offsets), *values.shape[1:])
    return np.stack(_combine(weights, np.swapaxes(values, 0, 1), h), axis=-1)


def entries(m):
    """``e[i][j] = m[..., i, j]`` for one matrix (3, 3) or a stack (..., 3, 3):
    views of a stack, the scalars of one matrix (``[()]`` unwraps its 0-d
    arrays, on which arithmetic is several times slower)."""
    return [[m[..., i, j][()] for j in range(3)] for i in range(3)]


def curl(d):
    """Curl of a field from its Jacobian ``d[..., i, j] = dv_i/da_j``: one
    matrix (3, 3) or a stack (..., 3, 3) of float or Fraction-object entries;
    the result is (..., 3)."""
    e = entries(d)
    return np.stack([e[2][1] - e[1][2], e[0][2] - e[2][0], e[1][0] - e[0][1]], axis=-1)


def _supplied(fn, a, t, tail: tuple):
    """``fn(a, t)`` under the protocol, for labels or points ``a`` (..., 3).

    ``fn`` always receives an array, so ``a[..., i]`` works on a tuple label;
    a sequence of ints and Fractions becomes an object array and stays exact.
    One label's value is returned as it is (a Fraction stays a Fraction).  On
    a stack of leading shape ``lead``, a value of shape ``tail`` (one label's)
    is a constant and is broadcast; any shape other than ``lead + tail``
    raises ValueError, so a callable written for one label (``a[i]`` where the
    protocol needs ``a[..., i]``) fails on a stack.
    """
    if not isinstance(a, np.ndarray):
        exact = all(isinstance(x, (int, Fraction)) for x in a)
        a = np.array(a, dtype=object) if exact else np.asarray(a, float)
    out = fn(a, t)
    if a.ndim == 1:
        return out
    out, lead = np.asarray(out), a.shape[:-1]
    if out.shape == lead + tail:
        return out
    if out.shape == tail:
        return np.broadcast_to(out, lead + tail).copy()
    raise ValueError(
        f"evaluator returned shape {out.shape} for labels of leading shape {lead}; "
        f"expected {lead + tail} or a constant of shape {tail} (index labels as a[..., i])"
    )


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
        out[..., k] = p._eval(coords, exact)
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

    def first_outside(self, a):
        """The first label of ``a`` (one label or a stack (..., 3)) outside
        the box, in stack order, or None."""
        flat = np.asarray(a, float).reshape(-1, 3)
        inside = (flat >= np.asarray(self.lo, float)) & (flat <= np.asarray(self.hi, float))
        if inside.all():
            return None
        return flat[np.argmin(inside.all(axis=1))]

    def contains(self, a) -> bool:
        """Whether the label ``a``, or every label of a stack (..., 3), lies in the box."""
        return self.first_outside(a) is None

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

    @classmethod
    def periodic_cell(cls, box: Box, shape: Sequence[int]) -> "LabelGrid":
        """Nodes of a periodic cell: one on each ``lo`` face, none on ``hi``."""
        return cls(*zip(*((np.linspace(lo, hi, n, endpoint=False), (hi - lo) / n)
                          for lo, hi, n in zip(box.lo, box.hi, shape))))

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def mesh(self) -> np.ndarray:
        """All nodes as an (n1, n2, n3, 3) array."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    def nodes(self) -> np.ndarray:
        """All nodes as an (N, 3) array in C (row-major) order."""
        return self.mesh().reshape(-1, 3)


# ---------------------------------------------------------------------------
# Scalar and vector fields over labels (a, t) or over physical space (x, t).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A scalar field psi(p, t) with optional exact derivative evaluators.

    The points ``p`` are labels or physical positions; under the module's
    protocol ``p`` of shape (..., 3) gives values (...), gradients (..., 3)
    and Hessians (..., 3, 3).  A derivative without an evaluator is a
    finite difference at :data:`FD_STEP`.
    """

    value: Callable[[Vec, float], float]
    gradient_fn: Callable[[Vec, float], Vec] | None = None
    hessian_fn: Callable[[Vec, float], Vec] | None = None

    def __call__(self, p, t):
        return _supplied(self.value, p, t, ())

    def gradient(self, p, t) -> Vec:
        if self.gradient_fn is not None:
            return np.asarray(_supplied(self.gradient_fn, p, t, (3,)))
        return fd_jacobian(lambda q: self(q, t), p, FD_STEP)

    def hessian(self, p, t) -> Vec:
        if self.hessian_fn is not None:
            return np.asarray(_supplied(self.hessian_fn, p, t, (3, 3)))
        return np.swapaxes(fd_jacobian(lambda q: self.gradient(q, t), p, FD_STEP), -1, -2)

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        return cls(value=lambda p, t: c, gradient_fn=lambda p, t: np.zeros(3),
                   hessian_fn=lambda p, t: np.zeros((3, 3)))

    @classmethod
    def from_poly(cls, p: Poly) -> "ScalarField":
        """Wrap a 4-variable polynomial in (a1, a2, a3, t); derivatives exact."""
        val = np.array(p, dtype=object)
        grad = _poly_jacobian([p])[0]
        hess = _poly_jacobian(grad)
        # [()] unwraps one label's 0-d result into its Fraction or float
        return cls(value=lambda a, t: _poly_eval(val, a, t)[()],
                   gradient_fn=lambda a, t: _poly_eval(grad, a, t),
                   hessian_fn=lambda a, t: _poly_eval(hess, a, t))


@dataclass(frozen=True)
class VectorField:
    """A vector field q(p, t) over labels or physical positions;
    ``jacobian(p, t)[..., i, j] = dq_i/dp_j``.

    Points of shape (..., 3) give values and time derivatives (..., 3) and
    Jacobians (..., 3, 3).  A ``steady`` field has a zero time derivative; a
    Jacobian or time derivative without an evaluator is a finite difference
    at :data:`FD_STEP`.
    """

    value: Callable[[Vec, float], Vec]
    jacobian_fn: Callable[[Vec, float], Vec] | None = None
    time_derivative_fn: Callable[[Vec, float], Vec] | None = None
    steady: bool = False

    def __call__(self, p, t) -> Vec:
        return np.asarray(_supplied(self.value, p, t, (3,)))

    def jacobian(self, p, t) -> Vec:
        if self.jacobian_fn is not None:
            return np.asarray(_supplied(self.jacobian_fn, p, t, (3, 3)))
        return fd_jacobian(lambda q: np.asarray(self(q, t), float), p, FD_STEP)

    def time_derivative(self, p, t) -> Vec:
        if self.steady:
            return np.zeros(np.shape(p))
        if self.time_derivative_fn is not None:
            return np.asarray(_supplied(self.time_derivative_fn, p, t, (3,)))
        p = np.asarray(p, float)
        return derivative(lambda s: np.asarray(self(p, t + s), float), FD_STEP)

    def curl(self, p, t) -> Vec:
        return curl(self.jacobian(p, t))

    def divergence(self, p, t):
        d = self.jacobian(p, t)
        return d[..., 0, 0] + d[..., 1, 1] + d[..., 2, 2]

    @classmethod
    def from_polys(cls, comps: Sequence[Poly]) -> "VectorField":
        """Wrap three polynomials, all exact: in (x1, x2, x3) a steady field,
        in (a1, a2, a3, t) a time-dependent one."""
        val, jac = np.array(comps, dtype=object), _poly_jacobian(comps)
        if comps[0].nvars == 3:
            return cls(value=lambda x, t: _poly_eval(val, x),
                       jacobian_fn=lambda x, t: _poly_eval(jac, x), steady=True)
        return cls(value=lambda a, t: _poly_eval(val, a, t),
                   jacobian_fn=lambda a, t: _poly_eval(jac, a, t))


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

    def check_domain(self, a, t):
        """Raise OutOfDomainError for the first label of ``a`` outside the box
        or a time outside the window."""
        bad = self.box.first_outside(a)
        if bad is not None:
            raise OutOfDomainError(f"label {tuple(float(x) for x in bad)} outside {self.box}")
        if not (self.t0 <= float(t) <= self.t1):
            raise OutOfDomainError(f"time {t} outside window [{self.t0}, {self.t1}]")


def eval_state(field: TrajectoryField, a, t):
    """Position, velocity and acceleration of the parcel labeled ``a`` at ``t``."""
    field.check_domain(a, t)
    return field.position(a, t), field.velocity(a, t), field.acceleration(a, t)


class AnalyticTrajectoryField(TrajectoryField):
    """Trajectory field from closed-form evaluators with FD fallbacks.

    Any derivative evaluator that is not supplied is replaced by a centered
    order-4 finite difference of the next-lower-level evaluator at
    :data:`ANALYTIC_FD_STEP`.
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
    ):
        super().__init__(box, t0, t1)
        self._fn = {
            "position": position,
            "velocity": velocity,
            "acceleration": acceleration,
            "position_gradient": position_gradient,
            "velocity_gradient": velocity_gradient,
            "acceleration_gradient": acceleration_gradient,
            "position_hessian": position_hessian,
        }

    def _evaluate(self, name, a, t, lower=None):
        """The supplied evaluator ``name`` at labels ``a``, broadcast to its
        protocol shape; without one, the FD fallback: time derivatives of the
        position, or the label gradient of the evaluator ``lower``."""
        a = np.asarray(a, float)
        fn = self._fn[name]
        if fn is not None:
            return np.asarray(_supplied(fn, a, t, _TAIL[name]), float)
        if name == "velocity":
            return derivative(lambda s: self.position(a, t + s), ANALYTIC_FD_STEP)
        if name == "acceleration":
            return second_derivative(lambda s: self.position(a, t + s), ANALYTIC_FD_STEP)
        return fd_jacobian(lambda b: lower(b, t), a, ANALYTIC_FD_STEP)

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
        self._polys = {"position": np.array(comps, dtype=object)}

    def _table(self, kind: str) -> np.ndarray:
        """The Polys behind protocol method ``kind``, differentiated on first use."""
        if kind not in self._polys:
            if kind == "position_hessian":
                rows = self._table("position_gradient")
                self._polys[kind] = np.array([_poly_jacobian(r) for r in rows], dtype=object)
            elif kind.endswith("_gradient"):
                self._polys[kind] = _poly_jacobian(self._table(kind.removesuffix("_gradient")))
            else:  # velocity and acceleration: time derivatives of the kind before
                prev = self._table("position" if kind == "velocity" else "velocity")
                self._polys[kind] = np.array([p.diff(self._T) for p in prev], dtype=object)
        return self._polys[kind]

    def position(self, a, t):
        return _poly_eval(self._table("position"), a, t)

    def velocity(self, a, t):
        return _poly_eval(self._table("velocity"), a, t)

    def acceleration(self, a, t):
        return _poly_eval(self._table("acceleration"), a, t)

    def position_gradient(self, a, t):
        return _poly_eval(self._table("position_gradient"), a, t)

    def velocity_gradient(self, a, t):
        return _poly_eval(self._table("velocity_gradient"), a, t)

    def acceleration_gradient(self, a, t):
        return _poly_eval(self._table("acceleration_gradient"), a, t)

    def position_hessian(self, a, t):
        return _poly_eval(self._table("position_hessian"), a, t)

    @classmethod
    def identity_plus(cls, deltas: Sequence[Poly], box: Box, t0=0.0, t1=1.0):
        """x_i = a_i + delta_i(a, t); convenient for random perturbative maps."""
        comps = [Poly.variable(4, i) + d for i, d in enumerate(deltas)]
        return cls(comps, box, t0, t1)


# ---------------------------------------------------------------------------
# Sampled backend
# ---------------------------------------------------------------------------


def _fit_stencil(n: int, order: int, name: str, error=VortlabError):
    """Raise ``error`` when the non-periodic axis ``name`` of ``n`` points is
    shorter than the order's one-sided edge stencil."""
    width = len(_EDGE_1[order][0])
    if n < width:
        raise error(f"{name} of length {n} is too short for the {width}-point "
                    f"order-{order} stencils")


def _axis_derivative(data: np.ndarray, h: float, axis: int, order: int, periodic: bool,
                     name: str):
    """FD derivative of gridded data along one axis, called ``name`` in errors.

    Periodic axes use circular central stencils; otherwise interior points are
    central and edges fall back to one-sided stencils of the same order, and
    an axis too short for them raises VortlabError.
    """
    offsets, weights = _CENTRAL_1[order]
    if periodic:
        return _combine(weights, (np.roll(data, -k, axis=axis) for k in offsets), h)

    n = data.shape[axis]
    _fit_stencil(n, order, name)
    need = order // 2
    out = np.zeros_like(data)

    def sl(idx):
        s = [slice(None)] * data.ndim
        s[axis] = idx
        return tuple(s)

    out[sl(slice(need, n - need))] = _combine(
        weights, (data[sl(slice(need + k, n - need + k))] for k in offsets), h)
    # edges: boundary-anchored stencils, mirrored (with sign flip) on the right
    for i, ws in enumerate(_EDGE_1[order]):
        out[sl(i)] = _combine(ws, (data[sl(k)] for k in range(len(ws))), h)
        out[sl(n - 1 - i)] = -_combine(ws, (data[sl(n - 1 - k)] for k in range(len(ws))), h)
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
        self._mesh = grid.mesh()
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
                data = _axis_derivative(self.positions, self.dt, 0, self.order, False,
                                        "time ladder")
        elif kind == "acceleration":
            data = self.accelerations
            if data is None:
                data = _axis_derivative(self._time_series("velocity"), self.dt, 0, self.order,
                                        False, "time ladder")
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
                                 periodic=self.periodic[j], name=f"non-periodic axis{j + 1}")
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
                m = np.argmax(outside.any(axis=0))  # the first flagged label in stack order
                j = np.argmax(outside[:, m])
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
        nodes = grid.mesh()
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
    for j, (n, periodic) in enumerate(zip(field.grid.shape, field.periodic), start=1):
        if not periodic:
            _fit_stencil(n, field.order, f"{path}: non-periodic axis{j}", GridFormatError)


def save_grid(field: SampledTrajectoryField, path: str):
    """Write the self-describing binary (.npz) or CSV (.csv) grid format."""
    if not str(path).endswith((".npz", ".csv")):
        raise GridFormatError(f"{path}: a grid file is named *.npz or *.csv")
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
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise GridFormatError(f"{path} is not an .npz archive ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise GridFormatError(f"{path} holds one bare array, not an .npz archive")
    with data:
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
    # one row per (time, node), the kinds side by side
    table = np.concatenate([getattr(field, kind).reshape(-1, 3) for kind in kinds], axis=1)
    for row in table.tolist():
        buf.write(",".join(map(repr, row)) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _load_grid_csv(path: str) -> SampledTrajectoryField:
    header: dict[str, list[str]] = {}
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
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
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"{path} is not UTF-8 text ({exc})") from exc
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
