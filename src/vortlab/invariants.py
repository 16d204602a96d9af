"""Image fields in label space and the Cauchy-invariant diagnostics.

The velocity image and the Lagrangian vorticity are

    V(a, t) = G^T xdot(a, t),          Omega(a, t) = curl_a V(a, t),

with G the gradient matrix of the label map.  Because mixed second
derivatives of the map are symmetric, the curl of any field of the form
G^T w(a, t) needs only first derivatives:

    curl_a (G^T w) = curl((Dw^T G)^T),   Dw[i, j] = dw_i/da_j,

where ``curl(D)`` (:func:`vortlab.fields.curl`, the package's one curl) is
the curl of a field whose Jacobian is D[i, j] = dv_i/da_j.  That is how
Omega and the Cauchy residual are assembled (no finite differencing of V
itself; tests cross-check against an FD curl).  The Cauchy residual uses
dV/dt = G^T xddot + dG^T/dt xdot, whose second term is a pure label-gradient
and drops out of the curl, leaving

    cauchy_residual = curl_a (G^T xddot) = curl((Ga^T G)^T),

zero exactly when the flow is extremal at (a, t).

Each quantity has one implementation on the protocol of :mod:`vortlab.fields`:
labels (..., 3) give values (..., 3) and gradients (..., 3, 3), one label
being the empty leading shape, and the drift reports call it on their whole
label stack once per time.  :func:`label_stack` makes the protocol call after
the domain check, and :func:`_position_stack` adds the singular-map check of G.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import LabelGrid, TrajectoryField, entries, matvec
from .kinematics import checked_det, jacobian
from .report import DriftReport


def label_stack(field: TrajectoryField, labels, t, method: str) -> np.ndarray:
    """The protocol evaluator ``method`` ("velocity", "velocity_gradient", ...)
    at labels (..., 3), in one call after ``check_domain``; the evaluator's
    array is returned as it is."""
    field.check_domain(labels, t)
    return getattr(field, method)(labels, t)


def _position_stack(field: TrajectoryField, labels, t):
    """G from :func:`label_stack` at labels (..., 3) and its determinant J,
    after the singular-map test of :func:`vortlab.kinematics.checked_det`."""
    g = label_stack(field, labels, t, "position_gradient")
    return g, checked_det(g, labels, t)


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


def _curl_image(field: TrajectoryField, a, t, g, kind: str) -> np.ndarray:
    """curl_a(G^T w) at labels (..., 3) for w the map's ``kind`` ("velocity" or
    "acceleration"), given the position-gradient stack ``g`` that a checked
    call (:func:`_position_stack`, :func:`vortlab.kinematics.jacobian`) read at
    the same labels and time, so the domain is not checked twice; (..., 3)."""
    return gradient_curl(getattr(field, f"{kind}_gradient")(a, t), g)


def image_velocity(field: TrajectoryField, a, t) -> np.ndarray:
    """Label-space velocity image V = G^T xdot; V.da equals u.dx by construction."""
    g, _ = _position_stack(field, a, t)
    return _image(g, label_stack(field, a, t, "velocity"))


def lagrangian_vorticity(field: TrajectoryField, a, t) -> np.ndarray:
    """Omega = curl_a V, assembled from the position and velocity gradients."""
    return _curl_image(field, a, t, _position_stack(field, a, t)[0], "velocity")


def lagrangian_vorticity_pullback(field: TrajectoryField, omega_x, a, t) -> np.ndarray:
    """Omega from the Eulerian vorticity: cof(G)^T omega_x."""
    return matvec(np.swapaxes(jacobian(field, a, t).cof, -1, -2), omega_x)


def cauchy_residual(field: TrajectoryField, a, t) -> np.ndarray:
    """curl_a(dV/dt); zero iff the flow is extremal at (a, t)."""
    return _curl_image(field, a, t, _position_stack(field, a, t)[0], "acceleration")


def cauchy_vorticity_reconstruct(field: TrajectoryField, omega0, a, t) -> np.ndarray:
    """Eulerian vorticity transported from its t0 image: omega = G Omega0 / J.

    ``omega0`` is either a 3-vector (label-independent check) or a callable
    a -> Omega(a, t0).
    """
    bundle = jacobian(field, a, t)
    base = omega0(a) if callable(omega0) else omega0
    return matvec(bundle.matrix, base) / np.expand_dims(bundle.det, -1)


# ---------------------------------------------------------------------------
# Drift over a grid
# ---------------------------------------------------------------------------


def _grid_drift(theorem: str, quantity, grid: LabelGrid, times, tolerance, metadata) -> DriftReport:
    """Max and cell-weighted L2 over the grid of the per-node deviation of
    ``quantity(t)`` from ``quantity(times[0])``: the Euclidean norm of a
    vector quantity (N, 3), the absolute value of a scalar one (N,)."""
    times = [float(t) for t in times]
    base = quantity(times[0])
    max_dev, l2_dev = [0.0], [0.0]
    for t in times[1:]:
        diff = quantity(t) - base
        dev = np.sqrt(np.sum(diff * diff, axis=1)) if diff.ndim > 1 else np.abs(diff)
        max_dev.append(float(np.max(dev)))
        l2_dev.append(math.sqrt(float(np.sum(dev**2)) * grid.cell_volume))
    return DriftReport(theorem=theorem, times=times, max_deviation=max_dev,
                       l2_deviation=l2_dev, tolerance=tolerance, metadata=metadata)


def cauchy_drift(
    field: TrajectoryField,
    grid: LabelGrid,
    times,
    tolerance: float | None = None,
) -> DriftReport:
    """Max and grid-weighted L2 deviation of Omega(a, t) from Omega(a, t0)."""
    nodes = grid.nodes()
    return _grid_drift(
        "cauchy", lambda t: lagrangian_vorticity(field, nodes, t), grid, times, tolerance,
        {"backend": field.backend, "grid_shape": list(grid.shape), "fd_order": field.order},
    )
