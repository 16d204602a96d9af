"""Jacobian bundle of the label map and checkable kinematic identities.

The bundle at a point (a, t) collects the gradient matrix G (``G[i, j] =
dx_i/da_j``), its determinant J, the cofactor matrix and the inverse.  The
cofactor matrix is built directly from 2x2 minors, so it stays meaningful
near (but not at) singular maps; the inverse is then cof.T / J.

All helpers work on float arrays and on object arrays of Fractions alike,
which is how the identity battery gets exactly-zero residuals on the
polynomial backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateMapError
from .fields import (
    EulerianVectorField,
    ScalarFieldLabel,
    TrajectoryField,
    curl,
    derivative,
    fd_jacobian,
    matvec,
)

# Relative threshold for the scale-invariant singularity test.
DEGENERACY_RTOL = 1e-14


def det3(m):
    """Determinant of ``m[i, j]``.

    Batches broadcast with the component axes first, ``m`` of shape
    (3, 3, ...), as in :func:`vortlab.fields.curl`; the result then has the
    trailing shape.
    """
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def cof3(m):
    """Cofactor matrix: cof[i, j] is the signed minor of m[i, j].

    Batches broadcast with the component axes first, as in :func:`det3`.
    """
    out = np.empty(m.shape, dtype=m.dtype if m.dtype == object else float)
    for i in range(3):
        r = [k for k in range(3) if k != i]
        for j in range(3):
            c = [k for k in range(3) if k != j]
            minor = m[r[0], c[0]] * m[r[1], c[1]] - m[r[0], c[1]] * m[r[1], c[0]]
            out[i, j] = minor if (i + j) % 2 == 0 else -minor
    return out


def cofactor_rate(g, gv):
    """d(cof G)/dt from G and dG/dt via the minor product rule."""
    out = np.empty((3, 3), dtype=g.dtype if g.dtype == object else float)
    for i in range(3):
        r = [k for k in range(3) if k != i]
        for j in range(3):
            c = [k for k in range(3) if k != j]
            rate = (
                gv[r[0], c[0]] * g[r[1], c[1]] + g[r[0], c[0]] * gv[r[1], c[1]]
                - gv[r[0], c[1]] * g[r[1], c[0]] - g[r[0], c[1]] * gv[r[1], c[0]]
            )
            out[i, j] = rate if (i + j) % 2 == 0 else -rate
    return out


def det_rate(g, gv):
    """dJ/dt by Jacobi's formula: sum_ij cof(G)_ij dG_ij/dt."""
    c = cof3(g)
    return sum(c[i, j] * gv[i, j] for i in range(3) for j in range(3))


@dataclass(frozen=True)
class JacobianBundle:
    """[G], J = det G, cofactor matrix and inverse at one point (a, t), or at
    every label of a stack: matrices (..., 3, 3) and determinants (...)."""

    matrix: np.ndarray
    det: float | Fraction
    cof: np.ndarray
    inv: np.ndarray

    @classmethod
    def from_matrix(cls, g: np.ndarray) -> "JacobianBundle":
        gc = np.moveaxis(g, (-2, -1), (0, 1))  # component axes first
        d = checked_det(gc)
        # C order, so matrix products on the stack round like those on one matrix
        c = np.ascontiguousarray(np.moveaxis(cof3(gc), (0, 1), (-2, -1)))
        return cls(matrix=g, det=d, cof=c, inv=np.swapaxes(c, -1, -2) / np.expand_dims(d, (-2, -1)))


def checked_det(g):
    """det3(g), raising DegenerateMapError where the map is singular.

    The one singular-map test of the package.  It is scale-invariant: a map
    is singular where J == 0 or |J| < DEGENERACY_RTOL * s**3, with s**3 the
    product of the row norms of G.  J == 0 is decided exactly on Fraction
    matrices.  ``g`` is one matrix or a stack of shape (3, 3, ...).
    """
    d = det3(g)
    gf = np.asarray(g, float)
    rows = np.sqrt(gf[:, 0] ** 2 + gf[:, 1] ** 2 + gf[:, 2] ** 2)
    bound = DEGENERACY_RTOL * rows[0] * rows[1] * rows[2]
    singular = np.ravel((d == 0) | (np.abs(np.asarray(d, float)) < bound))
    if singular.any():
        first = np.ravel(d)[int(np.argmax(singular))]
        raise DegenerateMapError(f"Jacobian determinant {first} below degeneracy threshold")
    return d


def jacobian(field: TrajectoryField, a, t) -> JacobianBundle:
    """The Jacobian bundle of the label map at (a, t); labels (..., 3) give a
    stacked bundle from one evaluator call."""
    field.check_domain(a, t)
    return JacobianBundle.from_matrix(field.position_gradient(a, t))


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
    grad_u_t = bundle.inv.T @ gv.T  # (grad_x u^T) = G^-T dG^T/dt
    if h is None:
        lhs = gv.T
    else:
        order = field.order if field.order in (2, 4) else 4
        lhs = derivative(lambda s: field.position_gradient(a, t + s), h, order).T
    return lhs - bundle.matrix.T @ grad_u_t


def inverse_jacobian_rate_residual(field: TrajectoryField, a, t, h: float | None = None):
    """Residual of d(G^-1)/dt = -G^-1 (grad_x u)^T.

    The exact route is multiplied through by J^2 so every term is polynomial
    in the entries of G and dG/dt:  J d(adj G)/dt - (dJ/dt) adj G + adj G
    dG/dt adj G = 0, then divided back by J^2.
    """
    bundle = jacobian(field, a, t)
    g = bundle.matrix
    gv = field.velocity_gradient(a, t)
    if h is not None:
        order = field.order if field.order in (2, 4) else 4
        dinv_dt = derivative(
            lambda s: JacobianBundle.from_matrix(field.position_gradient(a, t + s)).inv, h, order
        )
        grad_u_t = gv @ bundle.inv  # (grad_x u^T)^T = dG/dt G^-1
        return dinv_dt + bundle.inv @ grad_u_t
    adj = bundle.cof.T
    adj_rate = cofactor_rate(g, gv).T
    j_rate = det_rate(g, gv)
    scaled = bundle.det * adj_rate - j_rate * adj + adj @ gv @ adj
    return scaled / (bundle.det * bundle.det)


def convective_gradient_residual(field: TrajectoryField, a, t, h: float | None = None):
    """Residual of (grad_a v^T) v = grad_a(|v|^2) / 2.

    Without ``h`` the right side differentiates the speed-squared exactly
    through the backend (symbolic product rule on the polynomial backend);
    with ``h`` it uses a centered difference of |v|^2 in the labels.
    """
    v = field.velocity(a, t)
    gv = field.velocity_gradient(a, t)
    lhs = gv.T @ v
    if h is not None:

        def speed2(b):
            w = field.velocity(b, t)
            return float(w @ w)

        rhs = 0.5 * fd_jacobian(speed2, a, h, field.order if field.order in (2, 4) else 4)
        return lhs - rhs
    # gradient of v.v assembled from the same velocity-gradient data,
    # component-wise, mirroring d(v_m v_m)/da_j = 2 v_m dv_m/da_j
    rhs = np.array([sum(v[m] * gv[m, j] for m in range(3)) for j in range(3)])
    return lhs - rhs


def curl_pullback_residual(
    field: TrajectoryField,
    q: EulerianVectorField,
    F: ScalarFieldLabel,
    a,
    t,
):
    """Residual of the curl transformation rule for Q = G^T q(x) + grad_a F:

        curl_a Q  =  cof(G)^T (curl_x q)

    The left curl is assembled honestly from second derivatives of the map
    (the Hessian contributions cancel only inside the antisymmetrization).
    """
    field.check_domain(a, t)
    g = field.position_gradient(a, t)
    bundle = JacobianBundle.from_matrix(g)
    x = field.position(a, t)
    qval = q.value(x, t)
    dq = q.jacobian(x, t)
    hess = field.position_hessian(a, t)
    hessF = F.hessian(a, t)
    # D[j, k] = d/da_j of (G^T q(x) + grad F)_k
    exact = g.dtype == object
    D = np.empty((3, 3), dtype=object if exact else float)
    for j in range(3):
        for k in range(3):
            val = hessF[j, k]
            for m in range(3):
                chain = sum(dq[m, l] * g[l, j] for l in range(3))
                val = val + hess[m, j, k] * qval[m] + g[m, k] * chain
            D[j, k] = val
    lhs = curl(D.T)
    curl_q = curl(dq)
    rhs = bundle.cof.T @ curl_q
    return lhs - rhs


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
    Draws that land on an exactly singular sample point are redrawn; the
    count of redraws is reported.
    """
    import random

    from . import fields as _fields
    from .poly import random_poly, random_point

    if box is None:
        box = _fields.Box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    rng = random.Random(seed)
    scale = Fraction(1, 8)
    exact = {"rate": 0, "inverse_rate": 0, "convective": 0, "curl_pullback": 0, "curl_cross": 0}
    redraws = 0
    done = 0
    while done < trials:
        deltas = [scale * random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)]
        fld = _fields.PolynomialTrajectoryField.identity_plus(deltas, box, -1.0, 1.0)
        a = random_point(rng, 3, 6)
        t = random_point(rng, 1, 6)[0]
        q = _fields.EulerianVectorField.from_polys(
            [random_poly(rng, 3, degree=3, nterms=4) for _ in range(3)]
        )
        F = _fields.ScalarFieldLabel.from_poly(random_poly(rng, 4, degree=3, nterms=4))
        try:
            r3 = jacobian_rate_residual(fld, a, t)
            r4 = inverse_jacobian_rate_residual(fld, a, t)
            r5 = convective_gradient_residual(fld, a, t)
            r6 = curl_pullback_residual(fld, q, F, a, t)
        except DegenerateMapError:
            redraws += 1
            continue
        v = _fields.VectorFieldLabel.from_polys(
            [random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)]
        )
        w = _fields.VectorFieldLabel.from_polys(
            [random_poly(rng, 4, degree=3, nterms=4) for _ in range(3)]
        )
        pt = (a[0], a[1], a[2])
        r7 = curl_cross_identity_residual(
            v.value(pt, t), w.value(pt, t), v.jacobian(pt, t), w.jacobian(pt, t)
        )
        exact["rate"] += int(all(x == 0 for x in r3.flat))
        exact["inverse_rate"] += int(all(x == 0 for x in r4.flat))
        exact["convective"] += int(all(x == 0 for x in r5))
        exact["curl_pullback"] += int(all(x == 0 for x in r6))
        exact["curl_cross"] += int(r7 == 0)
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
