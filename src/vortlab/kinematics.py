"""Jacobian bundle of the label map and checkable kinematic identities.

The bundle at a point (a, t) collects the gradient matrix G (``G[i, j] =
dx_i/da_j``), its determinant J, the cofactor matrix and the inverse.  The
cofactor matrix is built directly from 2x2 minors, so it stays meaningful
near (but not at) singular maps; the inverse is then cof^T / J.

Matrix arguments are one matrix (3, 3) or, outside the curl identities, a
stack (..., 3, 3), of floats or Fractions alike: Fraction object arrays give
the identity battery its exactly-zero residuals on the polynomial backend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

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
    fd_jacobian,
    matvec,
)
from .poly import random_point, random_poly

# Relative threshold for the scale-invariant singularity test.
DEGENERACY_RTOL = 1e-14


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


@dataclass(frozen=True)
class JacobianBundle:
    """[G], J = det G, cofactor matrix and inverse at one point (a, t), or at
    every label of a stack: matrices (..., 3, 3) and determinants (...)."""

    matrix: np.ndarray
    det: float | Fraction
    cof: np.ndarray
    inv: np.ndarray

    @classmethod
    def from_matrix(cls, g: np.ndarray, a=None, t=None) -> "JacobianBundle":
        """The bundle of G; ``a`` and ``t`` locate it for :func:`checked_det`."""
        d, c = checked_det(g, a, t), cof3(g)
        return cls(matrix=g, det=d, cof=c, inv=np.swapaxes(c, -1, -2) / np.expand_dims(d, (-2, -1)))


def checked_det(g, a=None, t=None):
    """det3(g), raising DegenerateMapError where the map is singular.

    The one singular-map test of the package.  It is scale-invariant: a map
    is singular where J == 0 or |J| < DEGENERACY_RTOL * s**3, with s**3 the
    product of the row norms of G.  J == 0 is decided exactly on Fraction
    matrices.  ``g`` is one matrix (3, 3) or a stack (..., 3, 3); given the
    labels ``a`` of ``g`` and its time ``t``, the error names the first
    singular label and ``t``.
    """
    d = det3(g)
    gf = np.asarray(g, float)
    rows = np.sqrt(gf[..., 0] ** 2 + gf[..., 1] ** 2 + gf[..., 2] ** 2)
    bound = DEGENERACY_RTOL * rows[..., 0] * rows[..., 1] * rows[..., 2]
    singular = np.ravel((d == 0) | (np.abs(np.asarray(d, float)) < bound))
    if singular.any():
        k = int(np.argmax(singular))
        at = ""
        if a is not None:
            label = tuple(np.reshape(np.asarray(a, float), (-1, 3))[k].tolist())
            at = f" at a={label}, t={t}"
        raise DegenerateMapError(f"Jacobian determinant {np.ravel(d)[k]} below degeneracy "
                                 f"threshold{at}")
    return d


def jacobian(field: TrajectoryField, a, t) -> JacobianBundle:
    """The Jacobian bundle of the label map at (a, t); labels (..., 3) give a
    stacked bundle from one evaluator call."""
    field.check_domain(a, t)
    return JacobianBundle.from_matrix(field.position_gradient(a, t), a, t)


def pullback_gradient(bundle: JacobianBundle, grad_x) -> np.ndarray:
    """Label-space gradient of a quantity whose physical gradient is grad_x."""
    return matvec(np.swapaxes(bundle.matrix, -1, -2), grad_x)


def eulerian_velocity_gradient(field: TrajectoryField, a, t) -> np.ndarray:
    """du_i/dx_j along the trajectory, from dG/dt composed with G^-1."""
    bundle = jacobian(field, a, t)
    return field.velocity_gradient(a, t) @ bundle.inv


# ---------------------------------------------------------------------------
# Identity battery
# ---------------------------------------------------------------------------


def _fd_order(field: TrajectoryField) -> int:
    """Stencil order of an FD route: the field's own, or 4 on the exact backend."""
    return field.order if field.order in (2, 4) else 4


def jacobian_rate_residual(field: TrajectoryField, a, t, h: float | None = None):
    """Residual of d(G^T)/dt = G^T (grad_x u)^T with the Eulerian velocity
    gradient recovered by inverse pullback.

    With ``h`` the left side uses a centered time difference of G (an
    independent route with O(h^order) truncation); without it the backend's
    velocity-gradient evaluator is used and the residual isolates the exact
    matrix algebra (identically zero on the polynomial backend).
    """
    bundle = jacobian(field, a, t)
    gv = field.velocity_gradient(a, t)
    if h is None:
        return _rate_residual(bundle, gv, np.swapaxes(gv, -1, -2))
    lhs = derivative(lambda s: field.position_gradient(a, t + s), h, _fd_order(field))
    return _rate_residual(bundle, gv, np.swapaxes(lhs, -1, -2))


def _rate_residual(bundle: JacobianBundle, gv, lhs):
    """lhs - G^T (grad_x u)^T, with lhs a value of d(G^T)/dt; stacks (..., 3, 3)."""
    grad_u_t = np.swapaxes(bundle.inv, -1, -2) @ np.swapaxes(gv, -1, -2)  # G^-T dG^T/dt
    return lhs - np.swapaxes(bundle.matrix, -1, -2) @ grad_u_t


def inverse_jacobian_rate_residual(field: TrajectoryField, a, t, h: float | None = None):
    """Residual of d(G^-1)/dt = -G^-1 (grad_x u)^T.

    The exact route is multiplied through by J^2 so every term is polynomial
    in the entries of G and dG/dt:  J d(adj G)/dt - (dJ/dt) adj G + adj G
    dG/dt adj G = 0, then divided back by J^2.
    """
    bundle = jacobian(field, a, t)
    gv = field.velocity_gradient(a, t)
    if h is None:
        return _inverse_rate_residual(bundle, gv)
    dinv_dt = derivative(lambda s: JacobianBundle.from_matrix(field.position_gradient(a, t + s)).inv,
                         h, _fd_order(field))
    grad_u_t = gv @ bundle.inv  # (grad_x u^T)^T = dG/dt G^-1
    return dinv_dt + bundle.inv @ grad_u_t


def _inverse_rate_residual(bundle: JacobianBundle, gv):
    """The exact J^2-scaled route of :func:`inverse_jacobian_rate_residual`; stacks (..., 3, 3)."""
    adj = np.swapaxes(bundle.cof, -1, -2)
    adj_rate = np.swapaxes(cofactor_rate(bundle.matrix, gv), -1, -2)
    j, j_rate = (np.expand_dims(x, (-2, -1)) for x in (bundle.det, det_rate(bundle.cof, gv)))
    return (j * adj_rate - j_rate * adj + adj @ gv @ adj) / (j * j)


def convective_gradient_residual(field: TrajectoryField, a, t, h: float | None = None):
    """Residual of (grad_a v^T) v = grad_a(|v|^2) / 2.

    Without ``h`` the right side differentiates the speed-squared exactly
    through the backend (symbolic product rule on the polynomial backend);
    with ``h`` it uses a centered difference of |v|^2 in the labels.
    """
    v = field.velocity(a, t)
    gv = field.velocity_gradient(a, t)
    if h is None:
        return _convective_residual(v, gv)

    def speed2(b):
        w = field.velocity(b, t)
        return np.vecdot(w, w)

    return matvec(np.swapaxes(gv, -1, -2), v) - 0.5 * fd_jacobian(speed2, a, h, _fd_order(field))


def _convective_residual(v, gv):
    """(grad_a v^T) v minus grad_a(|v|^2) / 2 assembled from the same dv/da;
    v (..., 3) and gv (..., 3, 3)."""
    # component-wise, mirroring d(v_m v_m)/da_j = 2 v_m dv_m/da_j
    e = entries(gv)
    rhs = np.stack([sum(v[..., m][()] * e[m][j] for m in range(3)) for j in range(3)], axis=-1)
    return matvec(np.swapaxes(gv, -1, -2), v) - rhs


def curl_pullback_residual(
    field: TrajectoryField,
    q: VectorField,
    F: ScalarField,
    a,
    t,
):
    """Residual of the curl transformation rule for Q = G^T q(x) + grad_a F:

        curl_a Q  =  cof(G)^T (curl_x q)

    The left curl is assembled honestly from second derivatives of the map
    (the Hessian contributions cancel only inside the antisymmetrization).
    """
    bundle = jacobian(field, a, t)
    x = field.position(a, t)
    return _curl_pullback_residual(
        bundle, field.position_hessian(a, t), q(x, t), q.jacobian(x, t), F.hessian(a, t)
    )


def _curl_pullback_residual(bundle: JacobianBundle, hess, qval, dq, hessF):
    """curl_a(G^T q(x) + grad_a F) - cof(G)^T curl_x q from the values at one point."""
    g = bundle.matrix
    # chain[m, j] = d q_m(x) / da_j
    chain = [[sum(dq[m, l] * g[l, j] for l in range(3)) for j in range(3)] for m in range(3)]
    # D[j, k] = d/da_j of (G^T q(x) + grad F)_k
    D = np.empty((3, 3), dtype=object if g.dtype == object else float)
    for j in range(3):
        for k in range(3):
            val = hessF[j, k]
            for m in range(3):
                val = val + hess[m, j, k] * qval[m] + g[m, k] * chain[m][j]
            D[j, k] = val
    return curl(D.T) - bundle.cof.T @ curl(dq)


def curl_cross_identity_residual(v, w, dv, dw):
    """Residual of  w . (curl v)  =  (curl w) . v  +  div(v x w)
    given pointwise values and jacobians of two label-space fields."""
    curl_v = curl(dv)
    curl_w = curl(dw)
    lhs = sum(w[i] * curl_v[i] for i in range(3))
    mid = sum(curl_w[i] * v[i] for i in range(3))
    # div(v x w) = sum_j d/da_j (eps_jkl v_k w_l)
    eps = _EPS
    div = 0
    for j in range(3):
        for k in range(3):
            for l in range(3):
                e = eps[j][k][l]
                if e:
                    div = div + e * (dv[k, j] * w[l] + v[k] * dw[l, j])
    return lhs - mid - div


_EPS = [[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]


# ---------------------------------------------------------------------------
# Geometric element transport
# ---------------------------------------------------------------------------


def run_identity_battery(seed: int, trials: int, box=None) -> dict:
    """Exact-arithmetic identity battery on seeded random polynomial maps.

    Each trial draws a perturbative map x = a + delta(a, t) with sparse
    rational coefficients (degree <= 3), a random polynomial Eulerian field q,
    a random label-space scalar F and a rational sample point, then checks
    that all five kinematic identities evaluate to exactly zero Fractions.
    Each quantity is evaluated once per trial: G and its bundle, dG/dt, v, x
    and the position Hessian feed every residual that needs them.  Draws that
    land on an exactly singular sample point are redrawn; the count of
    redraws is reported.
    """
    if box is None:
        box = Box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    rng = random.Random(seed)
    scale = Fraction(1, 8)
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
            bundle = jacobian(fld, a, t)
        except DegenerateMapError:
            redraws += 1
            continue
        gv = fld.velocity_gradient(a, t)
        pos = fld.position(a, t)
        v, w = (VectorField.from_polys([random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)])
                for _ in range(2))
        residuals = {
            "rate": _rate_residual(bundle, gv, np.swapaxes(gv, -1, -2)).flat,
            "inverse_rate": _inverse_rate_residual(bundle, gv).flat,
            "convective": _convective_residual(fld.velocity(a, t), gv),
            "curl_pullback": _curl_pullback_residual(
                bundle, fld.position_hessian(a, t), q(pos, t), q.jacobian(pos, t), F.hessian(a, t)),
            "curl_cross": [curl_cross_identity_residual(
                v.value(a, t), w.value(a, t), v.jacobian(a, t), w.jacobian(a, t))],
        }
        for name, r in residuals.items():
            exact[name] += int(all(x == 0 for x in r))
        done += 1
    return {"trials": trials, "seed": seed, "redraws": redraws, "exact_zero_counts": exact}


def transform_line(bundle: JacobianBundle, da) -> np.ndarray:
    """Line element: dx = G da."""
    return matvec(bundle.matrix, da)


def transform_surface(bundle: JacobianBundle, ds) -> np.ndarray:
    """Oriented surface element: ds_x = cof(G) ds_a."""
    return matvec(bundle.cof, ds)


def transform_volume(bundle: JacobianBundle, dv):
    """Volume element: dV_x = J dV_a."""
    return bundle.det * dv
