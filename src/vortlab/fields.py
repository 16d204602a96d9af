"""Trajectory fields over label space and differential operators on them.

Conventions used throughout the package:

* labels ``a = (a1, a2, a3)`` live in a rectangular box in label space,
  positions ``x(a, t)`` in physical space; overdots are time derivatives at
  fixed label.
* the gradient matrix ``G = position_gradient(a, t)`` has entries
  ``G[i, j] = dx_i/da_j``; ``velocity_gradient`` and ``acceleration_gradient``
  are its first and second time derivatives (``dv_i/da_j``, ``dw_i/da_j``).
* ``position_hessian(a, t)[i, j, k] = d^2 x_i / (da_j da_k)``.

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
    linear-in-time interpolation off the nodes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import GridFormatError, OutOfDomainError
from .poly import Poly

Vec = np.ndarray

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


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in label space."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent on every axis")

    def contains(self, a, pad: float = 0.0) -> bool:
        return all(l - pad <= float(x) <= h + pad for x, l, h in zip(a, self.lo, self.hi))

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
    """A scalar field psi(a, t) with optional exact derivative evaluators."""

    value: Callable[[Vec, float], float]
    gradient_fn: Callable[[Vec, float], Vec] | None = None
    hessian_fn: Callable[[Vec, float], Vec] | None = None
    h: float = 1e-4
    order: int = 4

    def __call__(self, a, t):
        return self.value(a, t)

    def gradient(self, a, t) -> Vec:
        if self.gradient_fn is not None:
            return np.asarray(self.gradient_fn(a, t))
        return fd_jacobian(lambda b: self.value(b, t), a, self.h, self.order)

    def hessian(self, a, t) -> Vec:
        if self.hessian_fn is not None:
            return np.asarray(self.hessian_fn(a, t))
        return fd_jacobian(lambda b: self.gradient(b, t), a, self.h, self.order).T

    @classmethod
    def constant(cls, c: float) -> "ScalarFieldLabel":
        return cls(value=lambda a, t: c, gradient_fn=lambda a, t: np.zeros(3),
                   hessian_fn=lambda a, t: np.zeros((3, 3)))

    @classmethod
    def from_poly(cls, p: Poly) -> "ScalarFieldLabel":
        """Wrap a 4-variable polynomial in (a1, a2, a3, t); derivatives exact."""
        grads = [p.diff(j) for j in range(3)]
        hess = [[grads[j].diff(k) for k in range(3)] for j in range(3)]

        def val(a, t):
            return p((a[0], a[1], a[2], t))

        def grad(a, t):
            pt = (a[0], a[1], a[2], t)
            return _maybe_exact_vector([g(pt) for g in grads])

        def hes(a, t):
            pt = (a[0], a[1], a[2], t)
            return _maybe_exact_matrix([[hess[j][k](pt) for k in range(3)] for j in range(3)])

        return cls(value=val, gradient_fn=grad, hessian_fn=hes)


@dataclass(frozen=True)
class VectorFieldLabel:
    """A vector field v(a, t) in label space; jacobian[i, j] = dv_i/da_j."""

    value: Callable[[Vec, float], Vec]
    jacobian_fn: Callable[[Vec, float], Vec] | None = None
    h: float = 1e-4
    order: int = 4

    def __call__(self, a, t) -> Vec:
        return np.asarray(self.value(a, t))

    def jacobian(self, a, t) -> Vec:
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(a, t))
        return fd_jacobian(lambda b: np.asarray(self.value(b, t), float), a, self.h, self.order)

    def curl(self, a, t) -> Vec:
        return curl(self.jacobian(a, t))

    def divergence(self, a, t):
        D = self.jacobian(a, t)
        return D[0, 0] + D[1, 1] + D[2, 2]

    @classmethod
    def from_polys(cls, comps: Sequence[Poly]) -> "VectorFieldLabel":
        dcomp = [[comps[i].diff(j) for j in range(3)] for i in range(3)]

        def val(a, t):
            pt = (a[0], a[1], a[2], t)
            return _maybe_exact_vector([c(pt) for c in comps])

        def jac(a, t):
            pt = (a[0], a[1], a[2], t)
            return _maybe_exact_matrix([[dcomp[i][j](pt) for j in range(3)] for i in range(3)])

        return cls(value=val, jacobian_fn=jac)


@dataclass(frozen=True)
class EulerianScalarField:
    """A scalar field over physical space, e.g. an external potential P(x)."""

    value: Callable[[Vec, float], float]
    gradient_fn: Callable[[Vec, float], Vec] | None = None
    h: float = 1e-4
    order: int = 4

    def __call__(self, x, t):
        return self.value(x, t)

    def gradient(self, x, t) -> Vec:
        if self.gradient_fn is not None:
            return np.asarray(self.gradient_fn(x, t))
        return fd_jacobian(lambda y: self.value(y, t), x, self.h, self.order)


@dataclass(frozen=True)
class EulerianVectorField:
    """A vector field over physical space; jacobian[i, j] = dq_i/dx_j.

    ``values_fn`` / ``jacobians_fn`` are optional batched evaluators taking
    an (N, 3) array of points; they fall back to a loop over the pointwise
    evaluators.
    """

    value: Callable[[Vec, float], Vec]
    jacobian_fn: Callable[[Vec, float], Vec] | None = None
    time_derivative_fn: Callable[[Vec, float], Vec] | None = None
    values_fn: Callable[[Vec, float], Vec] | None = None
    jacobians_fn: Callable[[Vec, float], Vec] | None = None
    steady: bool = False
    h: float = 1e-4
    order: int = 4

    def values(self, xs, t) -> Vec:
        xs = np.asarray(xs, float)
        if self.values_fn is not None:
            return np.asarray(self.values_fn(xs, t))
        return np.array([self.value(x, t) for x in xs])

    def jacobians(self, xs, t) -> Vec:
        xs = np.asarray(xs, float)
        if self.jacobians_fn is not None:
            return np.asarray(self.jacobians_fn(xs, t))
        return np.array([self.jacobian(x, t) for x in xs])

    def __call__(self, x, t) -> Vec:
        return np.asarray(self.value(x, t))

    def jacobian(self, x, t) -> Vec:
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(x, t))
        return fd_jacobian(lambda y: np.asarray(self.value(y, t), float), x, self.h, self.order)

    def time_derivative(self, x, t) -> Vec:
        if self.steady:
            return np.zeros(3)
        if self.time_derivative_fn is not None:
            return np.asarray(self.time_derivative_fn(np.asarray(x, float), t))
        x = np.asarray(x, float)
        return derivative(lambda s: np.asarray(self.value(x, t + s), float), self.h, self.order)

    def curl(self, x, t) -> Vec:
        return curl(self.jacobian(x, t))

    @classmethod
    def from_polys(cls, comps: Sequence[Poly]) -> "EulerianVectorField":
        """Wrap three 3-variable polynomials in (x1, x2, x3); steady, exact."""
        dcomp = [[comps[i].diff(j) for j in range(3)] for i in range(3)]

        def val(x, t):
            return _maybe_exact_vector([c(tuple(x)) for c in comps])

        def jac(x, t):
            return _maybe_exact_matrix([[dcomp[i][j](tuple(x)) for j in range(3)] for i in range(3)])

        return cls(value=val, jacobian_fn=jac, steady=True)


def _maybe_exact_vector(vals):
    if any(isinstance(v, float) for v in vals):
        return np.array([float(v) for v in vals])
    return np.array(vals, dtype=object)


def _maybe_exact_matrix(rows):
    flat = [v for row in rows for v in row]
    if any(isinstance(v, float) for v in flat):
        return np.array([[float(v) for v in row] for row in rows])
    return np.array(rows, dtype=object)


# ---------------------------------------------------------------------------
# Trajectory fields
# ---------------------------------------------------------------------------


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

    # Subclasses implement:
    #   position, velocity, acceleration           -> (3,)
    #   position_gradient, velocity_gradient,
    #   acceleration_gradient                      -> (3, 3)
    #   position_hessian                           -> (3, 3, 3)

    def check_domain(self, a, t, time_pad: float = 0.0):
        if not self.box.contains(a):
            raise OutOfDomainError(f"label {tuple(float(x) for x in a)} outside {self.box}")
        if not (self.t0 - time_pad <= float(t) <= self.t1 + time_pad):
            raise OutOfDomainError(f"time {t} outside window [{self.t0}, {self.t1}]")

    @property
    def time_window(self) -> tuple[float, float]:
        return (self.t0, self.t1)


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

    def position(self, a, t) -> Vec:
        return np.asarray(self._fn["position"](np.asarray(a, float), t), float)

    def velocity(self, a, t) -> Vec:
        fn = self._fn["velocity"]
        if fn is not None:
            return np.asarray(fn(np.asarray(a, float), t), float)
        a = np.asarray(a, float)
        return derivative(lambda s: self.position(a, t + s), self.fd_step, self.order)

    def acceleration(self, a, t) -> Vec:
        fn = self._fn["acceleration"]
        if fn is not None:
            return np.asarray(fn(np.asarray(a, float), t), float)
        a = np.asarray(a, float)
        return second_derivative(lambda s: self.position(a, t + s), self.fd_step, self.order)

    def _grad_of(self, evaluate, a, t) -> Vec:
        return fd_jacobian(lambda b: evaluate(b, t), a, self.fd_step, self.order)

    def position_gradient(self, a, t) -> Vec:
        fn = self._fn["position_gradient"]
        if fn is not None:
            return np.asarray(fn(np.asarray(a, float), t), float)
        return self._grad_of(self.position, a, t)

    def velocity_gradient(self, a, t) -> Vec:
        fn = self._fn["velocity_gradient"]
        if fn is not None:
            return np.asarray(fn(np.asarray(a, float), t), float)
        return self._grad_of(self.velocity, a, t)

    def acceleration_gradient(self, a, t) -> Vec:
        fn = self._fn["acceleration_gradient"]
        if fn is not None:
            return np.asarray(fn(np.asarray(a, float), t), float)
        return self._grad_of(self.acceleration, a, t)

    def position_hessian(self, a, t) -> Vec:
        fn = self._fn["position_hessian"]
        if fn is not None:
            return np.asarray(fn(np.asarray(a, float), t), float)
        return self._grad_of(self.position_gradient, a, t)


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
        self._vel = tuple(p.diff(self._T) for p in comps)
        self._acc = tuple(p.diff(self._T).diff(self._T) for p in comps)
        self._grad = [[p.diff(j) for j in range(3)] for p in comps]
        self._vgrad = [[p.diff(j) for j in range(3)] for p in self._vel]
        self._agrad = [[p.diff(j) for j in range(3)] for p in self._acc]
        self._hess = [
            [[self._grad[i][j].diff(k) for k in range(3)] for j in range(3)]
            for i in range(3)
        ]

    @staticmethod
    def _pt(a, t):
        return (a[0], a[1], a[2], t)

    def position(self, a, t):
        pt = self._pt(a, t)
        return _maybe_exact_vector([p(pt) for p in self.components])

    def velocity(self, a, t):
        pt = self._pt(a, t)
        return _maybe_exact_vector([p(pt) for p in self._vel])

    def acceleration(self, a, t):
        pt = self._pt(a, t)
        return _maybe_exact_vector([p(pt) for p in self._acc])

    def position_gradient(self, a, t):
        pt = self._pt(a, t)
        return _maybe_exact_matrix([[self._grad[i][j](pt) for j in range(3)] for i in range(3)])

    def velocity_gradient(self, a, t):
        pt = self._pt(a, t)
        return _maybe_exact_matrix([[self._vgrad[i][j](pt) for j in range(3)] for i in range(3)])

    def acceleration_gradient(self, a, t):
        pt = self._pt(a, t)
        return _maybe_exact_matrix([[self._agrad[i][j](pt) for j in range(3)] for i in range(3)])

    def position_hessian(self, a, t):
        pt = self._pt(a, t)
        vals = [[[self._hess[i][j][k](pt) for k in range(3)] for j in range(3)] for i in range(3)]
        flat = [v for plane in vals for row in plane for v in row]
        if any(isinstance(v, float) for v in flat):
            return np.array(vals, dtype=float)
        return np.array(vals, dtype=object)

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
        self.periodic = tuple(periodic)
        self._mesh = np.stack(grid.meshgrid(), axis=-1)
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

    # -- pointwise protocol ---------------------------------------------------

    def _locate(self, vals: np.ndarray, a):
        """Trilinear interpolation weights for a query point."""
        idx, frac = [], []
        for ax, q, per in zip(self.grid.axes, a, self.periodic):
            n = len(ax)
            h = float(ax[1] - ax[0]) if n > 1 else 1.0
            s = (float(q) - float(ax[0])) / h
            i0 = int(np.floor(s))
            f = s - i0
            if per:
                i0 %= n
            else:
                i0 = min(max(i0, 0), n - 2)
                f = s - i0
            idx.append(i0)
            frac.append(f)
        out = 0.0
        for d1 in (0, 1):
            for d2 in (0, 1):
                for d3 in (0, 1):
                    w = (
                        (frac[0] if d1 else 1 - frac[0])
                        * (frac[1] if d2 else 1 - frac[1])
                        * (frac[2] if d3 else 1 - frac[2])
                    )
                    if w == 0.0:
                        continue
                    i = (idx[0] + d1) % vals.shape[0] if self.periodic[0] else min(idx[0] + d1, vals.shape[0] - 1)
                    j = (idx[1] + d2) % vals.shape[1] if self.periodic[1] else min(idx[1] + d2, vals.shape[1] - 1)
                    k = (idx[2] + d3) % vals.shape[2] if self.periodic[2] else min(idx[2] + d3, vals.shape[2] - 1)
                    out = out + w * vals[i, j, k]
        return out

    def _interp(self, kind: str, a, t, gradient: bool = False):
        t = float(t)
        s = (t - self.t0) / self.dt
        k0 = int(np.floor(s))
        k0 = min(max(k0, 0), len(self.times) - 2)
        f = s - k0
        get = self.node_gradients if gradient else self.node_values
        v0 = self._locate(get(kind, k0), a)
        if f == 0.0:
            return np.asarray(v0, float)
        v1 = self._locate(get(kind, k0 + 1), a)
        return np.asarray((1 - f) * v0 + f * v1, float)

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
        k = int(round((float(t) - self.t0) / self.dt))
        if not np.isclose(self.t0 + k * self.dt, t):
            raise ValueError(f"time {t} is not on the stored ladder")
        return min(max(k, 0), len(self.times) - 1)

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
        nodes = grid.nodes()
        shape = (len(times), *grid.shape, 3)
        pos = np.empty(shape)
        vel = np.empty(shape) if store_derivatives else None
        acc = np.empty(shape) if store_derivatives else None
        for k, t in enumerate(times):
            p = np.array([field.position(a, t) for a in nodes], float)
            pos[k] = p.reshape(*grid.shape, 3)
            if store_derivatives:
                vel[k] = np.array([field.velocity(a, t) for a in nodes], float).reshape(*grid.shape, 3)
                acc[k] = np.array([field.acceleration(a, t) for a in nodes], float).reshape(*grid.shape, 3)
        return cls(grid, times, pos, vel, acc, periodic=periodic, order=order)


# ---------------------------------------------------------------------------
# Grid-file I/O (formats documented in the README)
# ---------------------------------------------------------------------------

_GRID_MAGIC = "vortlab-grid"
_GRID_VERSION = 1


def save_grid(field: SampledTrajectoryField, path: str):
    """Write the self-describing binary (.npz) or CSV (.csv) grid format."""
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
        return SampledTrajectoryField(
            LabelGrid(tuple(axes), tuple(spac)), times, positions, velocities, accelerations,
            periodic=periodic, order=order,
        )
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from exc


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
        axes = []
        for j in range(1, 4):
            start, step = (float(v) for v in header[f"axis{j}"])
            n = (n1, n2, n3)[j - 1]
            axes.append(start + step * np.arange(n))
        t0, dt = (float(v) for v in header["times"])
        kinds = header["fields"]
        periodic = tuple(bool(int(v)) for v in header["periodic"])
        order = int(header["order"][0])
    except (KeyError, ValueError) as exc:
        raise GridFormatError(f"{path}: malformed header ({exc})") from exc
    if "positions" not in kinds:
        raise GridFormatError(f"{path}: '# fields' does not list positions")
    data = np.asarray(rows)
    if data.shape != (nt * n1 * n2 * n3, 3 * len(kinds)):
        raise GridFormatError(
            f"{path}: expected {nt * n1 * n2 * n3} rows x {3 * len(kinds)} cols, got {data.shape}"
        )
    blocks = data.reshape(nt, n1, n2, n3, 3 * len(kinds))
    arrays = {kind: blocks[..., 3 * i:3 * i + 3] for i, kind in enumerate(kinds)}
    return _field_from_arrays(
        path, axes, t0 + dt * np.arange(nt), arrays["positions"], arrays.get("velocities"),
        arrays.get("accelerations"), periodic, order,
    )
