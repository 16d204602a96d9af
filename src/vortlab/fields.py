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
(..., 3) and a time, and returns (..., 3), (..., 3, 3) or (..., 3, 3, 3); one
label is the case with an empty leading shape.  The time is a scalar, or a
numpy array of the labels' leading shape giving each label its own time.  A grid or
loop diagnostic evaluates all of its labels in one call per time.  Two field
types, :class:`ScalarField` and :class:`VectorField`, cover every scalar and
vector field, whether over labels ``(a, t)`` or over physical space
``(x, t)``, and follow the same rule (values (...) or (..., 3), gradients
(..., 3), Hessians and Jacobians (..., 3, 3)).  Callables supplied to any of
them receive the whole (..., 3) stack, indexed ``a[..., i]``, and a scalar
time (per-label times reach them through :func:`by_time`, one call per
distinct time), and return the full output shape or a constant of one label's
shape, such as a (3, 3) matrix, which is broadcast; any other shape raises
ValueError.  A derivative without a callable is an order-4 finite difference
at :data:`FD_STEP`.  A stack evaluates bitwise like its labels one at a time,
each at its own time: matrix-vector products go through :func:`matvec` and
libm functions through :func:`elementwise` where numpy's loops round
differently.

Three interchangeable backends implement this protocol:

``AnalyticTrajectoryField``
    closed-form evaluators with centered order-4 finite-difference fallbacks
    (step :data:`ANALYTIC_FD_STEP`) for any derivative not supplied, always for
    the position Hessian.  Every fallback in the package goes through
    :func:`derivative`, :func:`second_derivative` or :func:`fd_jacobian` applied
    to the whole vector or matrix, and every curl through :func:`curl`.  A label
    gradient is one call of the lower evaluator: :func:`fd_jacobian` hands it
    one stack of shape ``(3 * len(offsets), *a.shape)`` holding every
    stencil-shifted copy of the labels; per-label times call each closed form
    once per distinct time.
``PolynomialTrajectoryField``
    components are :class:`~vortlab.poly.Poly` in (a1, a2, a3, t); every
    derivative is exact, and rational query points give Fraction results.
    Per-label times are one more broadcast coordinate.
``SampledTrajectoryField``
    node data on a rectilinear grid of labels and a uniform time ladder;
    derivatives by finite differences at a declared order (one-sided stencils
    of matching order at non-periodic edges), trilinear-in-space /
    linear-in-time interpolation off the nodes, each read differentiating
    only at the nodes it touches.  A query within rounding of a node or
    a stored slice reads it exactly; labels beyond the grid on a non-periodic
    axis raise :class:`~vortlab.errors.OutOfDomainError`.  Per-label times
    are one scalar-time read per distinct time, through :func:`by_time`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import zipfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

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

# Centered first-derivative stencils: offsets and weights (divide by h).  Every
# weight is the correctly rounded float of its fraction (int / int is).
_CENTRAL_1 = {
    2: ((-1, 1), (-1 / 2, 1 / 2)),
    4: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
}
# Edge stencils of matching order anchored at the boundary: entry i holds the
# weights (on points 0..width-1) for the derivative AT point i.  Mirrored and
# negated for the other end.
_EDGE_1 = {
    2: [
        (-3 / 2, 2.0, -1 / 2),
    ],
    4: [
        (-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4),
        (-1 / 4, -5 / 6, 3 / 2, -1 / 2, 1 / 12),
    ],
}


def _combine(weights, values, h):
    """``sum(w * value) / h`` in stencil order: the one sum of every
    first-derivative stencil in the package."""
    terms = (w * v for w, v in zip(weights, values))
    return sum(terms, next(terms)) / h  # from the first term, a -0.0 one kept


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


def per_label(t) -> bool:
    """Whether the time ``t`` gives each label its own: an array with an axis (a cheap test,
    made on every evaluation)."""
    return isinstance(t, np.ndarray) and t.ndim > 0


def by_time(t, fn):
    """``fn(where, s)`` for each distinct time ``s`` of the array ``t``, in order of first
    appearance, with ``where`` the mask of ``t``'s entries at ``s``; each result (count,
    ...) fills those entries of one array of ``t``'s shape and the results' tail.  Per-label
    times reach closed forms written for one time through here."""
    t, out = np.asarray(t), None
    for s in dict.fromkeys(t.ravel().tolist()):
        where = t == s
        value = np.asarray(fn(where, s))
        if out is None:
            out = np.empty(t.shape + value.shape[1:], value.dtype)
        out[where] = value
    return out


def label_at(a, k: int, t=None) -> str:
    """``a=(...)`` for the k-th label of ``a`` (one label or a stack (..., 3)), and ``, t=...``
    for its time of ``t`` (a scalar or per-label times) when one is given: how an error names
    the label it rejects."""
    label = tuple(np.reshape(np.asarray(a, float), (-1, 3))[k].tolist())
    return f"a={label}" if t is None else f"a={label}, t={np.ravel(t)[k] if per_label(t) else t}"


def _supplied(fn, a, t, tail: tuple):
    """``fn(a, t)`` under the protocol, for labels or points ``a`` (..., 3).

    ``fn`` always receives an array, so ``a[..., i]`` works on a tuple label;
    a sequence of ints and Fractions becomes an object array and stays exact.
    One label's value is returned as it is (a Fraction stays a Fraction).  On
    a stack of leading shape ``lead``, a value of shape ``tail`` (one label's)
    is a constant and is broadcast; any shape other than ``lead + tail``
    raises ValueError, so a callable written for one label (``a[i]`` where the
    protocol needs ``a[..., i]``) fails on a stack.  Per-label times ``t``
    (broadcast to ``lead``) call ``fn`` once per distinct time, on its labels.
    """
    if per_label(t):
        a = np.asarray(a)
        return by_time(np.broadcast_to(t, a.shape[:-1]),
                       lambda where, s: _supplied(fn, a[where], s, tail))
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


# Below this many terms math.fsum beats the extraction's numpy calls (crossover measured at
# about 300 terms on a 2-core x86-64 machine, numpy 2.4).
FSUM_BELOW = 300


def exact_sum(array) -> float:
    """``math.fsum(array)``, bitwise, for an array of floats of any shape: the correctly
    rounded sum.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31:189, 2008): with
    sigma = 2**M 2**e, 2**e > max|p| and 2**M >= n + 2, q = (sigma + p) - sigma keeps each
    term's bits above 2**-53 sigma, p - q is the exact rest, and sum(q) is exact in any
    order.  Each level strips at least 53 - M bits below the largest rest, until no rest is
    left; fsum then rounds the few exact level sums once.  An array with a non-finite term,
    terms near overflow or no nonzero term goes to fsum itself, so its errors
    (``-inf + inf``, intermediate overflow) and special values are fsum's, and so are
    arrays of fewer than :data:`FSUM_BELOW` terms, where fsum's own loop is faster.
    """
    p = np.asarray(array, float).ravel()
    if p.size < FSUM_BELOW:
        return math.fsum(p)
    m = (p.size + 1).bit_length()  # 2**m >= n + 2
    top = float(np.max(np.abs(p))) if p.size else 0.0
    if not 0.0 < top < 2.0 ** (1022 - m):  # NaN fails too
        return math.fsum(p)
    levels = []
    while top:
        sigma = math.ldexp(1.0, m + math.frexp(top)[1])
        q = (sigma + p) - sigma
        p = p - q
        levels.append(float(np.sum(q)))
        top = float(np.max(np.abs(p)))
    return math.fsum(levels)


def _poly_jacobian(polys) -> np.ndarray:
    """Object array ``out[..., j] = d polys[...] / da_j`` of a sequence of Polys."""
    return np.array([[p.diff(j) for j in range(3)] for p in polys], dtype=object)


def _poly_eval(polys: np.ndarray, a, *rest) -> np.ndarray:
    """Evaluate an object array of Polys at points ``a`` of shape (..., n).

    ``rest`` holds trailing coordinates (the time), scalars or arrays of the
    points' leading shape, broadcast like the point coordinates.  The result has
    shape ``a.shape[:-1] + polys.shape``: an object array of Fractions when
    every coordinate is rational, a float array otherwise.
    """
    # a sequence becomes an object array, so int and Fraction labels stay exact
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    coords = [*(a if a.ndim == 1 else np.moveaxis(a, -1, 0)), *rest]
    exact = all(is_rational(x) for x in coords)
    out = np.empty(a.shape[:-1] + (polys.size,), dtype=object if exact else float)
    powers = {}  # each coordinate power once per call
    for k, p in enumerate(polys.flat):
        out[..., k] = p._eval(coords, exact, powers)
    return out.reshape(a.shape[:-1] + polys.shape)


# Corner offsets of the trilinear stencil, (3, corners, 1), keyed by the axes
# with a query off its node; the others need no upper corner.
_CORNERS = {
    off: np.array(list(itertools.product(*((0, 1) if o else (0,) for o in off)))).T[:, :, None]
    for off in itertools.product((False, True), repeat=3)
}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # a caller's in-place write would change later reads
    return a


def _snap(s):
    """Fractional grid indices, with those within rounding of an integer set to it."""
    r = np.rint(s)
    return np.where(np.abs(s - r) <= _SNAP, r, s)


def _on_ladder(x) -> bool:
    """Whether each entry i of ``x`` (two or more) lies within half of :data:`_SNAP` of i
    when located as a read locates it, at ``(x - x[0]) / (x[1] - x[0])``: a read at a
    stored coordinate then reads that node or stamp."""
    x = np.asarray(x, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        index = (x - x[0]) / (x[1] - x[0])
    return bool(np.all(np.abs(index - np.arange(len(x))) <= _SNAP / 2))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in label space."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent on every axis")

    def outside(self, a) -> np.ndarray:
        """Whether each label of ``a`` (one label or a stack (..., 3)), in stack
        order, lies outside the box: a flat boolean array."""
        flat = np.asarray(a, float).reshape(-1, 3)
        inside = (flat >= np.asarray(self.lo, float)) & (flat <= np.asarray(self.hi, float))
        # one whole-array reduction when every label is inside, as nearly every call finds
        return np.zeros(len(flat), bool) if inside.all() else ~inside.all(axis=1)

    @property
    def extent(self) -> np.ndarray:
        return np.asarray(self.hi, float) - np.asarray(self.lo, float)

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
        if min(shape) < 1:
            raise ValueError("need at least one cell per axis")
        return cls(*zip(*((lo + (hi - lo) / n * (np.arange(n) + 0.5), (hi - lo) / n)
                          for lo, hi, n in zip(box.lo, box.hi, shape))))

    @classmethod
    def nodes_inclusive(cls, box: Box, shape: Sequence[int]) -> "LabelGrid":
        """Endpoint-inclusive nodes (>= 2 per axis)."""
        if min(shape) < 2:
            raise ValueError("need at least two nodes per axis")
        return cls(*zip(*((np.linspace(lo, hi, n), (hi - lo) / (n - 1))
                          for lo, hi, n in zip(box.lo, box.hi, shape))))

    @classmethod
    def periodic_cell(cls, box: Box, shape: Sequence[int]) -> "LabelGrid":
        """Nodes of a periodic cell: one on each ``lo`` face, none on ``hi``."""
        if min(shape) < 1:
            raise ValueError("need at least one cell per axis")
        return cls(*zip(*((np.linspace(lo, hi, n, endpoint=False), (hi - lo) / n)
                          for lo, hi, n in zip(box.lo, box.hi, shape))))

    @functools.cached_property  # a hot read of the sampled backend's lookups
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
}


class TrajectoryField:
    """Protocol base: position/velocity/acceleration and their label gradients."""

    backend = "abstract"

    def __init__(self, box: Box, t0: float, t1: float, order: int = 4):
        if t1 <= t0:
            raise ValueError("time window must have t1 > t0")
        self.box = self._domain = box  # _domain: the box check_domain bounds labels by
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.order = order

    # Subclasses implement, for labels a of shape (..., 3) and a time t, a
    # scalar or an array of the labels' leading shape:
    #   position, velocity, acceleration           -> (..., 3)
    #   position_gradient, velocity_gradient,
    #   acceleration_gradient                      -> (..., 3, 3)
    #   position_hessian                           -> (..., 3, 3, 3)

    def holding(self):
        """A block in which the field may keep what its reads compute; this backend keeps
        nothing, so callers need not ask which backend they hold."""
        return contextlib.nullcontext(self)

    def check_domain(self, a, t):
        """Raise OutOfDomainError for the first label of ``a`` outside the box
        (a sampled field bounds only its non-periodic axes) or a time outside the
        window.  With per-label times, the error is the one-label call's for the
        first label that it would reject."""
        if per_label(t):
            times = np.ravel(t)
            ft = times.astype(float)
            bad = self._domain.outside(a) | ~((self.t0 <= ft) & (ft <= self.t1))
            if bad.any():
                k = int(np.argmax(bad))
                self.check_domain(np.reshape(np.asarray(a, float), (-1, 3))[k], times[k])
            return
        bad = self._domain.outside(a)
        if bad.any():
            label = np.reshape(np.asarray(a, float), (-1, 3))[int(np.argmax(bad))]
            raise OutOfDomainError(f"label {tuple(float(x) for x in label)} outside {self._domain}")
        if not (self.t0 <= float(t) <= self.t1):
            raise OutOfDomainError(f"time {t} outside window [{self.t0}, {self.t1}]")


class AnalyticTrajectoryField(TrajectoryField):
    """Trajectory field from closed-form evaluators with FD fallbacks.

    Any derivative evaluator that is not supplied is replaced by a centered
    order-4 finite difference of the next-lower-level evaluator at
    :data:`ANALYTIC_FD_STEP`; the position Hessian takes no evaluator.
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
    ):
        super().__init__(box, t0, t1)
        self._fn = {
            "position": position,
            "velocity": velocity,
            "acceleration": acceleration,
            "position_gradient": position_gradient,
            "velocity_gradient": velocity_gradient,
            "acceleration_gradient": acceleration_gradient,
        }

    def _evaluate(self, name, a, t, lower=None):
        """The supplied evaluator ``name`` at labels ``a``, broadcast to its
        protocol shape; without one, the FD fallback: time derivatives of the
        position, or the label gradient of the evaluator ``lower``."""
        a = np.asarray(a, float)
        fn = self._fn.get(name)
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
    n, need = data.shape[axis], order // 2

    def sl(idx):
        s = [slice(None)] * data.ndim
        s[axis] = idx
        return tuple(s)

    if periodic:
        # one copy wrapped by the stencil half-width: wrapped[need + i] = data[i mod n]
        wrapped = np.take(data, np.arange(-need, n + need) % n, axis=axis)
        return _combine(weights, (wrapped[sl(slice(need + k, need + k + n))] for k in offsets), h)

    _fit_stencil(n, order, name)
    out = np.empty_like(data)
    for where, points, ws, negate in _bounded_runs(n, order):
        d = _combine(ws, (data[sl(p)] for p in points), h)
        out[sl(where)] = -d if negate else d
    return out


@functools.cache
def _bounded_runs(n: int, order: int):
    """:func:`_stencil_rows` of a whole bounded axis of ``n`` points as slices: there every
    row's indices, and each of its terms' points, are one run."""
    run = lambda idx: slice(int(idx[0]), int(idx[0]) + len(idx))
    return [(run(where), [run(p) for p in points], ws, negate) for (where,), points, ws, negate
            in _stencil_rows(np.arange(n), np.full(n, n), True, order)]


def _stencil_rows(i: np.ndarray, n: np.ndarray, bounded, order: int):
    """The first-derivative stencils at the indices ``i`` of axes of ``n`` points (``n`` and
    ``bounded`` broadcast to ``i``), one per row present: (where in ``i``, point indices in
    term order (width, m), weights, whether the sum is negated).  A periodic axis wraps the
    central row; a bounded one takes the one-sided rows at its first and last order/2
    points, negating the right edge's: for whole bounded axes, gathers and the time axis."""
    need = order // 2
    rows = np.where(bounded, np.minimum(i, need) - np.minimum(n - 1 - i, need), 0)
    for r in (np.flatnonzero(np.bincount((rows + need).ravel())) - need).tolist():
        where = np.nonzero(rows == r)
        if r == 0:
            offsets, weights = _CENTRAL_1[order]
            yield where, (i[where] + np.array(offsets)[:, None]) % n[where], weights, False
        else:
            weights = _EDGE_1[order][need - abs(r)]
            k = np.arange(len(weights))[:, None]
            yield where, k if r < 0 else n[where] - 1 - k, weights, r > 0


class SampledTrajectoryField(TrajectoryField):
    """Trajectory data sampled on a label grid and a uniform time ladder.

    ``positions`` has shape (nt, n1, n2, n3, 3); ``velocities`` and
    ``accelerations`` are optional and, when absent, are produced by finite
    differences along the time axis.  Either may also be a callable
    ``(k, nodes, prev)`` giving its data at stamp index ``k`` on
    ``positions[k][nodes]``, ``nodes`` an index into (n1, n2, n3): ``...``
    for all of them, or a tuple of three index arrays; ``prev`` is the kind
    before it (positions for velocities, velocities for accelerations) at
    ``k`` on those nodes, as the field reads it.  Spatial derivatives
    of the positions go through the displacement field x - a so that
    periodic axes can wrap.

    The field keeps no derived array outside a :meth:`holding` block.  A read
    of its own node stack computes the whole slices it needs; any other read
    computes at its labels' trilinear corners alone, at each stamp it
    interpolates between (gradients from each corner's stencil points, time
    derivatives of unstored data from the stamps of the time stencil, lazy
    data on those nodes only, or from a held whole slice), bitwise as the
    whole slice gives them there.
    """

    backend = "sampled"

    def __init__(
        self,
        grid: LabelGrid,
        times: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray | Callable[[int, tuple, np.ndarray], np.ndarray] | None = None,
        accelerations: np.ndarray | Callable[[int, tuple, np.ndarray], np.ndarray] | None = None,
        periodic: tuple[bool, bool, bool] = (False, False, False),
        order: int = 4,
    ):
        times = np.asarray(times, float)
        if len(times) < 2 or not _on_ladder(times):
            raise ValueError("need a uniform time ladder with >= 2 stamps")
        if order not in (2, 4):
            raise ValueError("derivative order must be 2 or 4")
        if min(grid.shape) < 2:  # the nodes' hull would have no extent on that axis
            raise ValueError(f"grid shape {grid.shape} needs at least two nodes per axis")
        for j, ax in enumerate(grid.axes, start=1):  # _corners locates labels as origin + i step
            if not _on_ladder(ax):
                raise ValueError(f"axis{j} is not uniformly spaced")
        box = Box(tuple(float(ax[0]) for ax in grid.axes), tuple(float(ax[-1]) for ax in grid.axes))
        super().__init__(box, times[0], times[-1], order)
        expected = (len(times), *grid.shape, 3)
        for name, data in (("positions", positions), ("velocities", velocities),
                           ("accelerations", accelerations)):
            if data is not None and not callable(data) and data.shape != expected:
                raise ValueError(f"{name} shape {data.shape} != {expected}")
        self.grid = grid
        self.times = times
        self.dt = float(times[1] - times[0])
        self.positions = positions
        self._velocities = velocities
        self._accelerations = accelerations
        self.periodic = tuple(bool(p) for p in periodic)
        if len(self.periodic) != 3:
            raise ValueError(f"need one periodic flag per label axis, got {len(self.periodic)}")
        # periodic axes wrap, as in _corners, so only the others bound a label; ``box``
        # stays the nodes' hull, which sizes the commands' loops and quadratures
        lo = tuple(-math.inf if p else x for p, x in zip(self.periodic, box.lo))
        hi = tuple(math.inf if p else x for p, x in zip(self.periodic, box.hi))
        self._domain = Box(lo, hi)
        self._mesh = grid.mesh()
        # per-axis columns for the (3, M) label rows of the lookup
        self._origin = np.array([[ax[0]] for ax in grid.axes])
        self._step = np.array([[ax[1] - ax[0]] for ax in grid.axes])
        self._bounded = ~np.array([[p] for p in self.periodic])
        self._size = np.array([[n] for n in grid.shape])
        self._held: dict | None = None

    @contextlib.contextmanager
    def holding(self):
        """Keep the whole slices computed inside the block, for every read, until the outermost
        block ends: for a command whose label stacks read the same stamps many times."""
        outer, self._held = self._held, {} if self._held is None else self._held
        try:
            yield self
        finally:
            self._held = outer

    def _whole(self, key: tuple, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """``compute()``, a whole slice, computed once per :meth:`holding` block."""
        if self._held is not None and key not in self._held:
            self._held[key] = compute()
        return compute() if self._held is None else self._held[key]

    # -- node-level data ----------------------------------------------------

    def _series(self, kind: str, data):
        """(nt, n1, n2, n3, 3) ``kind``'s stored ``data``, computed slice by slice if lazy."""
        if not callable(data):
            return data
        out = np.empty(self.positions.shape)
        for k in range(len(self.times)):
            out[k] = self.node_values(kind, k)
        return out

    velocities = property(lambda self: self._series("velocity", self._velocities))
    accelerations = property(lambda self: self._series("acceleration", self._accelerations))

    def _values(self, kind: str, ti, flat=None) -> np.ndarray:
        """``kind``'s data at stamp ``ti``, the whole slice or (K, 3) at flat node indices
        (K,); lazy data, and the time derivative of the kind before it from the stamps of
        ti's time stencil alone, are computed once per distinct node.  Inside a
        :meth:`holding` block a read takes the rows of the stamp's held whole slice,
        computing it first when the read is as large as a gradient read that takes the whole
        slice."""
        stored, prev = {"position": (self.positions, None),
                        "velocity": (self._velocities, "position"),
                        "acceleration": (self._accelerations, "velocity")}[kind]
        whole = stored[ti] if stored is not None and not callable(stored) else None
        held, size = self._held, math.prod(self.grid.shape)
        if whole is None and flat is not None and held is not None and (
                (kind, ti) in held or 3 * self.order * len(flat) >= size):
            whole = self.node_values(kind, ti)
        if whole is not None:
            return whole if flat is None else np.take(whole.reshape(-1, 3), flat, axis=0)
        nodes = ... if flat is None else np.unravel_index(flat, self.grid.shape)
        if flat is not None and len(flat) > 1:
            unique, inverse = np.unique(flat, return_inverse=True)
            if len(unique) < len(flat):
                return self._values(kind, ti, unique)[inverse.reshape(-1)]

        def before(k):  # the kind before this one at stamp k, on the read's nodes
            return self.node_values(prev, k) if flat is None else self._values(prev, k, flat)

        if callable(stored):
            return np.asarray(stored(ti, nodes, before(ti)), float)
        _fit_stencil(len(self.times), self.order, "time ladder")
        ((_, stamps, weights, negate),) = _stencil_rows(np.array([ti]), np.array(self.times.shape),
                                                         True, self.order)
        d = _combine(weights, (before(k) for k in stamps[:, 0]), self.dt)
        return -d if negate else d

    def node_values(self, kind: str, ti: int) -> np.ndarray:
        """(n1, n2, n3, 3) read-only node data of ``kind`` at stamp index ``ti``."""
        return self._whole((kind, ti), lambda: _frozen(self._values(kind, ti)))

    def node_gradients(self, kind: str, ti: int) -> np.ndarray:
        """(n1, n2, n3, 3, 3) read-only array of d(field_i)/da_j at grid nodes."""
        def whole():
            data = self.node_values(kind, ti)
            if kind == "position":
                data = data - self._mesh  # the displacement, so periodic wrap is exact
            cols = [_axis_derivative(data, h, axis=j, order=self.order,
                                     periodic=self.periodic[j], name=f"non-periodic axis{j + 1}")
                    for j, h in enumerate(self.grid.spacings)]
            grad = np.stack(cols, axis=-1)  # (..., 3 comps, 3 dirs)
            return _frozen(grad + np.eye(3) if kind == "position" else grad)
        return self._whole(("grad", kind, ti), whole)

    def _gradients(self, kind: str, ti, flat: np.ndarray) -> np.ndarray:
        """(U, 3, 3) d(kind_i)/da_j at stamp ``ti`` at the flat node indices ``flat`` (U,),
        bitwise the rows of :meth:`node_gradients` there: the stencil points of every node
        along the three axes, gathered in one take, summed one stencil row at a time in
        :func:`_axis_derivative`'s term order.  Each distinct node is computed once, and
        from the whole slice once it is held or their 3 * order stencil points would
        outnumber it."""
        shape, size = self.grid.shape, math.prod(self.grid.shape)
        if 3 * self.order * len(flat) >= size:  # count the distinct nodes
            touched = np.zeros(size, bool)
            touched[flat] = True
            if 3 * self.order * np.count_nonzero(touched) >= size:
                return np.take(self.node_gradients(kind, ti).reshape(-1, 3, 3), flat, axis=0)
        if ("grad", kind, ti) in (self._held or {}):  # a smaller read
            return np.take(self._held["grad", kind, ti].reshape(-1, 3, 3), flat, axis=0)
        if len(flat) > 1:
            unique, inverse = np.unique(flat, return_inverse=True)
            if len(unique) < len(flat):
                return self._gradients(kind, ti, unique)[inverse.reshape(-1)]
        _check_stencil_fit(self)
        coords = np.array(np.unravel_index(flat, shape))  # (3 axes, U)
        strides = np.array([shape[1] * shape[2], shape[2], 1])
        rows = []  # (axis, node, weights, negated, flat point indices (width, m))
        for (axis, node), along, weights, negate in _stencil_rows(
                coords, np.broadcast_to(self._size, coords.shape), self._bounded, self.order):
            points = flat[node] + (along - coords[axis, node]) * strides[axis]
            rows.append((axis, node, weights, negate, points))
        points = np.concatenate([row[-1].ravel() for row in rows])
        data = self._values(kind, ti, points)
        if kind == "position":
            data = data - np.take(self._mesh.reshape(-1, 3), points, axis=0)
        grad, start, spacings = np.empty((len(flat), 3, 3)), 0, np.array(self.grid.spacings)
        for axis, node, weights, negate, p in rows:
            d = _combine(weights, data[start:start + p.size].reshape(*p.shape, 3),
                         spacings[axis][:, None])
            grad[node, :, axis] = -d if negate else d
            start += p.size
        return grad + np.eye(3) if kind == "position" else grad

    # -- evaluation protocol --------------------------------------------------

    def _corners(self, a: np.ndarray):
        """The trilinear stencil of labels ``a`` (..., 3): node indices
        (3, corners, M), one row per axis; the periods (3, corners, M) by
        which each index wrapped, or None when no index left the grid; and
        the corner weights (corners, M), None when every label is on a node.

        A coordinate within rounding of a node index reads that node.
        Periodic axes wrap; on the others a label beyond the grid raises
        OutOfDomainError.
        """
        q = np.ascontiguousarray(a.reshape(-1, 3).T)  # (3, M): one row per axis
        s = _snap((q - self._origin) / self._step)
        i0 = np.floor(s)
        if not all(self.periodic):
            outside = self._bounded & ~((s >= 0) & (s <= self._size - 1))
            if outside.any():
                m = np.argmax(outside.any(axis=0))  # the first flagged label in stack order
                j = np.argmax(outside[:, m])
                raise OutOfDomainError(f"label {tuple(q[:, m].tolist())} outside the sampled "
                                       f"grid on axis {j + 1}")
        frac = s - i0
        d = _CORNERS[tuple(frac.any(axis=1).tolist())]  # (3, corners, 1)
        idx, periods = i0.astype(int)[:, None, :] + d, None
        n = self._size[:, :, None]
        if not ((idx >= 0) & (idx < n)).all():
            bounded = self._bounded[:, :, None]
            periods, wrapped = np.divmod(idx, n)
            # a bounded axis keeps the upper corner of a label on its last
            # node, whose weight is 0, on that node
            idx = np.where(bounded, np.minimum(idx, n - 1), wrapped)
            periods = np.where(bounded, 0, periods) if any(self.periodic) else None
        if d.shape[1] == 1:
            return idx, periods, None
        w = np.where(d, frac[:, None, :], 1 - frac[:, None, :])
        return idx, periods, w[0] * w[1] * w[2]

    def _locate(self, kind: str, ti, gradient: bool, corners, lead: tuple) -> np.ndarray:
        """``kind``'s node data, or with ``gradient`` its label gradients, at
        stamp ``ti``, interpolated at the labels of leading shape ``lead`` whose
        :meth:`_corners` are ``corners``, computed at those corner nodes alone;
        None for the field's own node stack, read as its whole slice."""
        if corners is None:  # read-only, as the node arrays are
            vals = (self.node_gradients if gradient else self.node_values)(kind, ti)
            return vals.reshape(lead + vals.shape[3:])
        idx, periods, weights = corners
        flat = np.ravel_multi_index(idx, self.grid.shape)
        vals = (self._gradients if gradient else self._values)(kind, ti, flat.ravel())
        tail = vals.shape[1:]
        data = vals.reshape(flat.shape + tail)
        if periods is not None and kind == "position" and not gradient:
            # x - a is periodic, so a corner wrapped by p periods L reads x + p L on its axis
            shift = np.moveaxis(periods, 0, -1) * np.multiply(self.grid.shape, self.grid.spacings)
            data = np.where(shift != 0, data + shift, data)
        if weights is None:
            out = data[0]  # (M, ...)
        else:
            w = weights.reshape(*weights.shape, *(1,) * len(tail))
            terms = w * data
            out = terms[0]
            # a label on the node of an axis that others are off adds no upper corner there
            # (weight 0): its own one-label sum, signed zeros included
            for wk, term in zip(w[1:], terms[1:]):
                out = out + term if wk.all() else np.where(wk != 0, out + term, out)
        return out.reshape(lead + tail)

    def _interp(self, kind: str, a, t, gradient: bool = False):
        a = np.asarray(a, float)
        if per_label(t):
            return by_time(np.broadcast_to(t, a.shape[:-1]),
                           lambda where, s: self._interp(kind, a[where], s, gradient))
        # the fractional ladder index of t, within rounding of a stamp set to it
        s = float(_snap((np.asarray(t, float) - self.t0) / self.dt))
        last = len(self.times) - 1  # read alone, not after the slice before it at weight 0
        k0 = last if s == last else min(max(math.floor(s), 0), last - 1)
        f = s - k0
        own = a.size == self._mesh.size and np.array_equal(a.reshape(self._mesh.shape), self._mesh)
        corners = None if own else self._corners(a)
        v0 = self._locate(kind, k0, gradient, corners, a.shape[:-1])
        if f == 0.0:
            return v0
        v1 = self._locate(kind, k0 + 1, gradient, corners, a.shape[:-1])
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

    @classmethod
    def from_analytic(
        cls,
        field: TrajectoryField,
        grid: LabelGrid,
        times: np.ndarray,
        order: int = 4,
        periodic=(False, False, False),
    ) -> "SampledTrajectoryField":
        """Sample another backend onto a grid (testing / export utility)."""
        times = np.asarray(times, float)
        nodes = grid.mesh()
        shape = (len(times), *grid.shape, 3)
        pos = np.empty(shape)
        vel = np.empty(shape)
        acc = np.empty(shape)
        for k, t in enumerate(times):
            pos[k] = field.position(nodes, t)
            vel[k] = field.velocity(nodes, t)
            acc[k] = field.acceleration(nodes, t)
        return cls(grid, times, pos, vel, acc, periodic=periodic, order=order)


# ---------------------------------------------------------------------------
# Grid-file I/O (formats documented in the README)
# ---------------------------------------------------------------------------

_GRID_MAGIC = "vortlab-grid"
_GRID_VERSION = 1


def _check_stencil_fit(field: SampledTrajectoryField, prefix="", error=VortlabError):
    """Raise ``error`` for a non-periodic axis shorter than the order's one-sided stencil."""
    for j, (n, periodic) in enumerate(zip(field.grid.shape, field.periodic), start=1):
        if not periodic:
            _fit_stencil(n, field.order, f"{prefix}non-periodic axis{j}", error)


def save_grid(field: SampledTrajectoryField, path: str):
    """Write the self-describing binary (.npz) or CSV (.csv) grid format."""
    if not str(path).endswith((".npz", ".csv")):
        raise GridFormatError(f"{path}: a grid file is named *.npz or *.csv")
    _check_stencil_fit(field, f"{path}: ", GridFormatError)
    if str(path).endswith(".csv"):
        _save_grid_csv(field, path)
        return
    nodes = {name: getattr(field, name) for name in _stored_kinds(field)}  # lazy ones once
    np.savez(path, **{
        "format": np.array([_GRID_MAGIC]),
        "version": np.array([_GRID_VERSION]),
        "axis1": field.grid.axes[0],
        "axis2": field.grid.axes[1],
        "axis3": field.grid.axes[2],
        "times": field.times,
        "positions": nodes.pop("positions"),
        "periodic": np.array(field.periodic, dtype=bool),
        "order": np.array([field.order]),
        **nodes,
    })


# the node data kinds of a grid file, by the name the file gives them
_STORED_KINDS = {"positions": "position", "velocities": "velocity", "accelerations": "acceleration"}


def _stored_kinds(field: SampledTrajectoryField) -> dict:
    """The kinds of ``field``'s node data a grid file holds, by file name."""
    stored = (field.positions, field._velocities, field._accelerations)
    return {name: kind for (name, kind), data in zip(_STORED_KINDS.items(), stored)
            if data is not None}


# The arrays of an .npz grid file: (number of axes, dtype kinds) of each
_NPZ_ARRAYS = {"format": (1, "U"), "version": (1, "iu"), "order": (1, "iu"), "periodic": (1, "biu"),
               **{name: (1, "iuf") for name in ("axis1", "axis2", "axis3", "times")},
               **{name: (5, "iuf") for name in ("positions", "velocities", "accelerations")}}


def load_grid(path: str) -> SampledTrajectoryField:
    """Read either grid format; malformed content raises GridFormatError."""
    if str(path).endswith(".csv"):
        return _load_grid_csv(path)
    try:  # np.load refuses an object array as well, which would need unpickling
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise GridFormatError(f"{path} holds one bare array, not an .npz archive")
        with data:
            arrays = {name: data[name] for name in _NPZ_ARRAYS if name in data}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise GridFormatError(f"{path} is not a readable .npz archive ({exc})") from exc
    if arrays.get("format", np.array([])).tolist() != [_GRID_MAGIC]:
        raise GridFormatError(f"{path} is not a grid file")
    if missing := sorted(_NPZ_ARRAYS.keys() - {"velocities", "accelerations"} - arrays.keys()):
        raise GridFormatError(f"{path}: missing array {missing[0]!r}")
    for name, array in arrays.items():
        ndim, kinds = _NPZ_ARRAYS[name]
        if array.ndim != ndim or array.dtype.kind not in kinds:
            raise GridFormatError(f"{path}: {name} is not a {ndim}-axis array of kind "
                                  f"{'/'.join(kinds)}, got {array.dtype} of shape {array.shape}")
    if arrays["version"].tolist() != [_GRID_VERSION]:
        raise GridFormatError(f"{path}: version {arrays['version'].tolist()} is not supported")
    if arrays["order"].shape != (1,):
        raise GridFormatError(f"{path}: order holds {arrays['order'].size} values, not one")
    return _field_from_arrays(
        path, [arrays[f"axis{j}"] for j in (1, 2, 3)], arrays["times"], arrays["positions"],
        arrays.get("velocities"), arrays.get("accelerations"),
        tuple(bool(b) for b in arrays["periodic"]), int(arrays["order"][0]))


def _field_from_arrays(path, axes, times, positions, velocities, accelerations, periodic, order):
    """Sampled field over the axes, each spaced by its first step; whatever it rejects is a
    format error."""
    for name, data in zip(_STORED_KINDS, (positions, velocities, accelerations)):
        if data is not None and not np.isfinite(data).all():
            raise GridFormatError(f"{path}: {name} holds a non-finite number")
    # an axis of one node has no step; the constructor rejects it by the grid's shape
    spacings = tuple(float(ax[1] - ax[0]) if len(ax) > 1 else math.inf for ax in axes)
    try:
        field = SampledTrajectoryField(
            LabelGrid(tuple(axes), spacings), times, positions, velocities, accelerations,
            periodic=periodic, order=order,
        )
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from exc
    _check_stencil_fit(field, f"{path}: ", GridFormatError)
    return field


def _save_grid_csv(field: SampledTrajectoryField, path: str):
    """The header, then one stamp's rows at a time, into a sibling file that replaces ``path``
    once whole: a failed or interrupted export leaves no partial file, and ``path`` as it was."""
    n1, n2, n3 = field.grid.shape
    kinds = _stored_kinds(field)
    header = [
        f"# {_GRID_MAGIC} {_GRID_VERSION}",
        f"# shape {n1} {n2} {n3} {len(field.times)}",
        *(f"# axis{j} {float(ax[0])!r} {float(field.grid.spacings[j - 1])!r}"
          for j, ax in enumerate(field.grid.axes, start=1)),
        f"# times {float(field.times[0])!r} {float(field.dt)!r}",
        f"# fields {' '.join(kinds)}",
        f"# periodic {' '.join(str(int(p)) for p in field.periodic)}",
        f"# order {field.order}",
    ]
    directory, name = os.path.split(os.fspath(path))
    sibling = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(sibling, "x") as fh:
            fh.write("\n".join(header) + "\n")
            for k in range(len(field.times)):
                # one row per node, the kinds side by side
                table = np.concatenate(
                    [field.node_values(kind, k).reshape(-1, 3) for kind in kinds.values()], axis=1)
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
        os.replace(sibling, path)
    except OSError as exc:  # named by the caller's path, not the sibling's
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(sibling)


def _load_grid_csv(path: str) -> SampledTrajectoryField:
    """The header, then the data one stamp at a time into one float table."""
    try:
        with open(path, encoding="utf-8") as fh:
            header, data = _csv_header(path, fh)
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
            if len(set(kinds)) < len(kinds) or not set(kinds) <= _STORED_KINDS.keys():
                raise GridFormatError(f"{path}: '# fields' names each of "
                                      f"{', '.join(_STORED_KINDS)} at most once, and no other")
            if min(n1, n2, n3, nt) < 1:
                raise GridFormatError(f"{path}: '# shape' needs positive sizes")
            rows, cols = nt * n1 * n2 * n3, 3 * len(kinds)
            # a row is at least 2 cols - 1 bytes, so a shape the file cannot hold allocates nothing
            if rows * (2 * cols - 1) > os.fstat(fh.fileno()).st_size:
                raise GridFormatError(f"{path}: expected {rows} rows x {cols} cols")
            starts_steps = [*axis_steps, (t0, dt)]
            ends = [start + step * (n - 1)
                    for (start, step), n in zip(starts_steps, (n1, n2, n3, nt))]
            if not all(map(math.isfinite, [*itertools.chain(*starts_steps), *ends])):
                raise GridFormatError(f"{path}: axis and time ladders need finite numbers")
            table = _read_csv_table(path, data, nt, n1 * n2 * n3, cols)
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"{path} is not UTF-8 text ({exc})") from exc
    axes = [start + step * np.arange(n) for (start, step), n in zip(axis_steps, (n1, n2, n3))]
    blocks = table.reshape(nt, n1, n2, n3, cols)
    arrays = {kind: blocks[..., 3 * i:3 * i + 3] for i, kind in enumerate(kinds)}
    return _field_from_arrays(
        path, axes, t0 + dt * np.arange(nt), arrays["positions"], arrays.get("velocities"),
        arrays.get("accelerations"), periodic, order,
    )


def _csv_header(path: str, fh) -> tuple[dict[str, list[str]], Iterator[str]]:
    """The header lines of an open CSV grid file by key, and the data lines after them
    (stripped, blank ones skipped): the magic line first, the others each key once, and
    all of them before the first data row."""
    first = fh.readline().strip()
    if first[:1] != "#" or first[1:].split() != [_GRID_MAGIC, str(_GRID_VERSION)]:
        raise GridFormatError(
            f"{path}: needs the header line '# {_GRID_MAGIC} {_GRID_VERSION}' first")
    header = {_GRID_MAGIC: [str(_GRID_VERSION)]}
    lines = (stripped for line in fh if (stripped := line.strip()))
    for line in lines:
        if not line.startswith("#"):
            return header, itertools.chain([line], lines)
        parts = line[1:].split()
        if not parts:
            raise GridFormatError(f"{path}: empty header line")
        if parts[0] in header:
            raise GridFormatError(f"{path}: header key {parts[0]!r} is given twice")
        header[parts[0]] = parts[1:]
    return header, lines


def _read_csv_table(path: str, data, nt: int, per_stamp: int, cols: int) -> np.ndarray:
    """(nt, per_stamp, cols) float table of the data lines, parsed one stamp at a time: a
    header line among them, a bad number, or another count of rows or cols raises."""
    table = np.empty((nt, per_stamp, cols))
    expected = f"{path}: expected {nt * per_stamp} rows x {cols} cols"
    filled = 0
    for chunk in iter(lambda: list(itertools.islice(data, per_stamp)), []):
        if heading := next((s for s in chunk if s.startswith("#")), None):
            raise GridFormatError(f"{path}: header line {heading!r} after the data rows")
        if filled == nt or len(chunk) < per_stamp or any(s.count(",") != cols - 1 for s in chunk):
            raise GridFormatError(expected)
        cells = itertools.chain.from_iterable(map(str.split, chunk, itertools.repeat(",")))
        try:
            values = np.fromiter(map(float, cells), float, per_stamp * cols)
        except ValueError as exc:
            raise GridFormatError(f"{path}: bad number in data row ({exc})") from exc
        table[filled] = values.reshape(per_stamp, cols)
        filled += 1
    if filled < nt:
        raise GridFormatError(expected)
    return table
