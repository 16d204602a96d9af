"""Kinematic frame of the label map, and checkable kinematic identities.

A :class:`Frame` at (a, t) holds the gradient matrix G (``G[i, j] =
dx_i/da_j``), its determinant J, the cofactor matrix and the inverse.  The
cofactor matrix is built directly from 2x2 minors, so it stays meaningful
near (but not at) singular maps; the inverse is then cof^T / J.  The frame
also holds a field's evaluator reads, V, Omega and the Cauchy residual on one
label stack.

Matrix arguments are one matrix (3, 3) or, outside the curl identities, a
stack (..., 3, 3), of floats or Fractions alike: Fraction object arrays give
the identity battery its exactly-zero residuals on the polynomial backend.
"""

from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from .errors import DegenerateMapError
from .fields import (
    Box,
    PolynomialTrajectoryField,
    ScalarField,
    TrajectoryField,
    VectorField,
    curl,
    derivative,
    entries,
    label_at,
    matvec,
)
from .poly import Rat, random_point, random_poly

# Relative threshold for the scale-invariant singularity test.
DEGENERACY_RTOL = 1e-14
# The smallest normal float: above it a product's rounding error is relative.
_TINY = np.finfo(float).tiny


def det3(m):
    """Determinant of ``m[..., i, j]``: one matrix (3, 3) or a stack (..., 3, 3),
    whose result has the leading shape."""
    (a, b, c), (d, e, f), (g, h, i) = entries(m)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _minor_matrix(minor, like):
    """out[..., i, j] = (-1)**(i + j) minor(r0, r1, c0, c1), r0 < r1 the rows other
    than i and c0 < c1 the columns other than j, shaped and typed like ``like``."""
    out = np.empty(like.shape, dtype=like.dtype if like.dtype == object else float)
    for i in range(3):
        r = [k for k in range(3) if k != i]
        for j in range(3):
            value = minor(*r, *[k for k in range(3) if k != j])
            out[..., i, j] = value if (i + j) % 2 == 0 else -value
    return out


def cof3(m):
    """Cofactor matrix: cof[..., i, j] is the signed minor of m[..., i, j]."""
    e = entries(m)
    return _minor_matrix(lambda r0, r1, c0, c1: e[r0][c0] * e[r1][c1] - e[r0][c1] * e[r1][c0], m)


def cofactor_rate(g, gv):
    """d(cof G)/dt from G and dG/dt (..., 3, 3) via the minor product rule."""
    x, v = entries(g), entries(gv)

    def rate(r0, r1, c0, c1):
        return (v[r0][c0] * x[r1][c1] + x[r0][c0] * v[r1][c1]
                - v[r0][c1] * x[r1][c0] - x[r0][c1] * v[r1][c0])

    return _minor_matrix(rate, g)


def det_rate(cof, gv):
    """dJ/dt by Jacobi's formula: sum_ij cof(G)_ij dG_ij/dt."""
    c, v = entries(cof), entries(gv)
    return sum(c[i][j] * v[i][j] for i in range(3) for j in range(3))


class Frame:
    """The kinematics of ``field`` on one label stack (..., 3) at a time t, one
    for the stack or one per label (an array of the stack's leading shape), its
    domain checked once: each evaluator :meth:`read`, G (``matrix``) with its J
    (``det``, checked by :func:`checked_det`), cof(G) (``cof``), G^-1 (``inv``),
    V = G^T xdot (``image``), Omega = curl_a V (``omega``) and the
    Cauchy residual curl_a(G^T xddot) (``cauchy``), each computed on first read
    and kept.  A command or the drift loop holds one frame per (stack, time) while
    its checks read there and hands it to each; nothing else keeps frames.  Every
    value at a label is bitwise the one-label frame's at that label and its time."""

    def __init__(self, field: TrajectoryField, labels, t):
        field.check_domain(labels, t)
        self.field, self.labels, self.t, self._reads = field, labels, t, {}

    def read(self, method: str, s=0.0):
        """The evaluator ``method`` ("velocity", ...) at the labels and time t + s, as it
        returns it; a shifted time (of a finite-difference stencil) is not domain-checked."""
        if (method, s) not in self._reads:
            t = self.t + s if s else self.t
            self._reads[method, s] = getattr(self.field, method)(self.labels, t)
        return self._reads[method, s]

    _checked = cached_property(lambda self: (g := self.read("position_gradient"),
                                             checked_det(g, self.labels, self.t)))
    matrix = property(lambda self: self._checked[0])
    det = property(lambda self: self._checked[1])
    cof = cached_property(lambda self: cof3(self.matrix))
    inv = cached_property(
        lambda self: np.swapaxes(self.cof, -1, -2) / np.expand_dims(self.det, (-2, -1)))
    image = cached_property(lambda self: _image(self.matrix, self.read("velocity")))
    omega = cached_property(lambda self: gradient_curl(self.read("velocity_gradient"), self.matrix))
    cauchy = cached_property(
        lambda self: gradient_curl(self.read("acceleration_gradient"), self.matrix))


def checked_det(g, a=None, t=None):
    """det3(g), raising DegenerateMapError where the map is singular.

    The one singular-map test of the package.  It is scale-invariant: a map
    is singular where J == 0 or |J| < DEGENERACY_RTOL * s**3, with s**3 the
    product of the row norms of G (each taken by np.hypot, so a finite norm
    does not overflow).  J == 0 is decided exactly on Fraction matrices.
    ``g`` is one matrix (3, 3) or a stack (..., 3, 3); given the labels ``a``
    of ``g`` and its time ``t`` (a scalar or per-label times), the error names
    the first singular label and its time.

    A float stack first clears the labels where |J| > 2 DEGENERACY_RTOL times the
    product of the row 1-norms, each no smaller than its 2-norm; the factor 2 covers
    the rounding of both bounds wherever every product in this one is finite and
    normal.  Only the other labels take the norms by np.hypot.
    """
    d = det3(g)
    gf = np.asarray(g, float)
    df = np.ravel(np.asarray(d, float))
    suspect = np.arange(df.size)
    if np.asarray(g).dtype != object:
        with np.errstate(all="ignore"):  # a product out of range only leaves its label suspect
            m = np.abs(gf)
            norms1 = m[..., 0] + m[..., 1] + m[..., 2]
            p1 = (2 * DEGENERACY_RTOL) * norms1[..., 0]
            p2 = p1 * norms1[..., 1]
            p3 = p2 * norms1[..., 2]
            # an overflow leaves p3 inf or NaN, which no |J| exceeds
            clear = (p1 >= _TINY) & (p2 >= _TINY) & (p3 >= _TINY) & (
                np.abs(np.reshape(df, p3.shape)) > p3)
            suspect = np.flatnonzero(~clear)
        if not suspect.size:
            return d
    gs = gf.reshape(-1, 3, 3)[suspect]
    rows = np.hypot(np.hypot(gs[..., 0], gs[..., 1]), gs[..., 2])
    bound = DEGENERACY_RTOL * rows[:, 0] * rows[:, 1] * rows[:, 2]
    ds = np.ravel(d)[suspect]
    singular = (ds == 0) | (np.abs(df[suspect]) < bound)
    if singular.any():
        j = int(np.argmax(singular))
        k, dk, norms = int(suspect[j]), ds[j], rows[j].tolist()
        ratio = abs(float(dk)) / norms[0] / norms[1] / norms[2] if dk != 0 else 0.0
        at = "" if a is None else f" at {label_at(a, k, t)}"
        raise DegenerateMapError(
            f"singular map (|J| over the product of G's row norms is {ratio:.3g} < "
            f"{DEGENERACY_RTOL:g}): Jacobian determinant {dk} below degeneracy threshold{at}")
    return d


def gradient_curl(gw, g):
    """curl_a(G^T w) from Dw and G (Hessian terms cancel in the curl): the
    :func:`vortlab.fields.curl` of D[k, j] = sum_m G[m, k] Dw[m, j] from the six
    entries it reads, each an explicit three-term sum in m order, so a stack
    (..., 3, 3) rounds like each of its labels; (..., 3)."""
    x, w = entries(g), entries(gw)

    def d(k, j):
        return x[0][k] * w[0][j] + x[1][k] * w[1][j] + x[2][k] * w[2][j]

    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1)


def _image(g, w) -> np.ndarray:
    """G^T w, sum_m G[..., m, j] w[..., m], at every label of G (..., 3, 3)
    and w (..., 3), as an explicit three-term sum in m order, so a stack
    rounds like its labels.  ``G w`` is ``_image(np.swapaxes(g, -1, -2), w)``."""
    x, v = entries(g), [w[..., m][()] for m in range(3)]
    return np.stack([x[0][j] * v[0] + x[1][j] * v[1] + x[2][j] * v[2] for j in range(3)], axis=-1)


def jacobian(field: TrajectoryField, a, t) -> Frame:
    """The :class:`Frame` of (a, t) with G read and J checked now; labels (..., 3) give a stack."""
    frame = Frame(field, a, t)
    frame.det  # read now, so a singular map raises here
    return frame


# ---------------------------------------------------------------------------
# Identity battery
# ---------------------------------------------------------------------------


def jacobian_rate_residual(frame: Frame, h: float):
    """Residual of d(G^T)/dt = G^T (grad_x u)^T on a frame, with the Eulerian velocity
    gradient recovered by inverse pullback and the left side a centered time difference
    of G at step ``h`` (an independent route with O(h^order) truncation, order the
    field's own or 4 on the exact backend), whose shifted G reads the frame keeps.
    The exact route, with the backend's velocity gradient on the left, is
    :func:`_rate_residual`: identically zero on the polynomial backend."""
    gv, order = frame.read("velocity_gradient"), frame.field.order
    lhs = derivative(lambda s: frame.read("position_gradient", s), h,
                     order if order in (2, 4) else 4)
    return _rate_residual(frame, gv, np.swapaxes(lhs, -1, -2))


def _rate_residual(frame: Frame, gv, lhs):
    """lhs - G^T (grad_x u)^T, with lhs a value of d(G^T)/dt; stacks (..., 3, 3)."""
    grad_u_t = np.swapaxes(frame.inv, -1, -2) @ np.swapaxes(gv, -1, -2)  # G^-T dG^T/dt
    return lhs - np.swapaxes(frame.matrix, -1, -2) @ grad_u_t


def inverse_jacobian_rate_residual(frame: Frame, gv):
    """Residual of d(G^-1)/dt = -G^-1 (grad_x u)^T from a frame and dG/dt
    ``gv``; stacks (..., 3, 3).

    It is multiplied through by J^2 so every term is polynomial in the entries
    of G and dG/dt:  J d(adj G)/dt - (dJ/dt) adj G + adj G dG/dt adj G = 0,
    then divided back by J^2.
    """
    adj = np.swapaxes(frame.cof, -1, -2)
    adj_rate = np.swapaxes(cofactor_rate(frame.matrix, gv), -1, -2)
    j, j_rate = (np.expand_dims(x, (-2, -1)) for x in (frame.det, det_rate(frame.cof, gv)))
    return (j * adj_rate - j_rate * adj + adj @ gv @ adj) / (j * j)


def convective_gradient_residual(v, gv):
    """Residual of (grad_a v^T) v = grad_a(|v|^2) / 2 from v (..., 3) and dv/da
    ``gv`` (..., 3, 3), the right side differentiating the speed-squared through
    the same dv/da (symbolic product rule on the polynomial backend)."""
    # component-wise, mirroring d(v_m v_m)/da_j = 2 v_m dv_m/da_j
    e = entries(gv)
    rhs = np.stack([sum(v[..., m][()] * e[m][j] for m in range(3)) for j in range(3)], axis=-1)
    return matvec(np.swapaxes(gv, -1, -2), v) - rhs


def _curl_pullback_residual(frame: Frame, hess, qval, dq, hessF):
    """curl_a(G^T q(x) + grad_a F) - cof(G)^T curl_x q from the values at one point; the
    map's Hessian terms cancel only inside the antisymmetrization."""
    g = frame.matrix
    # d/da_j of (G^T q(x) + grad F)_k at [k, j]; dq @ g is d q(x) / da by the chain rule
    d = hessF.T + np.einsum("mjk,m->kj", hess, qval) + g.T @ (dq @ g)
    return curl(d) - frame.cof.T @ curl(dq)


def curl_cross_identity_residual(v, w, dv, dw):
    """Residual of  w . (curl v)  =  (curl w) . v  +  div(v x w)
    given pointwise values and jacobians of two label-space fields."""
    curl_v = curl(dv)
    curl_w = curl(dw)
    lhs = sum(w[i] * curl_v[i] for i in range(3))
    mid = sum(curl_w[i] * v[i] for i in range(3))
    # div(v x w): d/da_j (v_k w_l - v_l w_k) over the cyclic (j, k, l)
    div = sum(dv[k, j] * w[l] + v[k] * dw[l, j] - dv[l, j] * w[k] - v[l] * dw[k, j]
              for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    return lhs - mid - div


def run_identity_battery(seed: int, trials: int, box=None) -> dict:
    """Exact-arithmetic identity battery on seeded random polynomial maps.

    Each trial draws a perturbative map x = a + delta(a, t) with sparse
    rational coefficients (degree <= 3), a random polynomial Eulerian field q,
    a random label-space scalar F and a rational sample point, then checks
    that all five kinematic identities evaluate to exactly zero Fractions.
    Each quantity is read once per trial through the trial's :class:`Frame`: G
    with its checked J, dG/dt, v, x and the position Hessian feed every
    residual that needs them.  Draws that land on an exactly singular sample
    point are redrawn; the count of redraws is reported.
    """
    if box is None:
        box = Box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    rng = random.Random(seed)
    scale = Rat(1, 8)
    exact = {"rate": 0, "inverse_rate": 0, "convective": 0, "curl_pullback": 0, "curl_cross": 0}
    redraws = 0
    done = 0
    while done < trials:
        deltas = [scale * random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)]
        fld = PolynomialTrajectoryField.identity_plus(deltas, box, -1.0, 1.0)
        a = random_point(rng, 3, 6)
        t = random_point(rng, 1, 6)[0]
        q = VectorField.from_polys([random_poly(rng, 3, degree=3, nterms=4) for _ in range(3)])
        F = ScalarField.from_poly(random_poly(rng, 4, degree=3, nterms=4))
        try:
            frame = jacobian(fld, a, t)
        except DegenerateMapError:
            redraws += 1
            continue
        gv, pos = frame.read("velocity_gradient"), frame.read("position")
        v, w = (VectorField.from_polys([random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)])
                for _ in range(2))
        residuals = {
            "rate": _rate_residual(frame, gv, np.swapaxes(gv, -1, -2)).flat,
            "inverse_rate": inverse_jacobian_rate_residual(frame, gv).flat,
            "convective": convective_gradient_residual(frame.read("velocity"), gv),
            "curl_pullback": _curl_pullback_residual(frame, frame.read("position_hessian"),
                                                    q(pos, t), q.jacobian(pos, t), F.hessian(a, t)),
            "curl_cross": [curl_cross_identity_residual(
                v.value(a, t), w.value(a, t), v.jacobian(a, t), w.jacobian(a, t))],
        }
        for name, r in residuals.items():
            exact[name] += int(all(x == 0 for x in r))
        done += 1
    return {"trials": trials, "seed": seed, "redraws": redraws, "exact_zero_counts": exact}
