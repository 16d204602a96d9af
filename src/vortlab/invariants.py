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
labels (..., 3) give values (..., 3), one label being the empty leading
shape, and the drift reports call it on their whole label stack once per
time.  :func:`label_stack` makes the protocol call after the domain and
singular-map checks; its gradients come back components first, (3, 3, ...).
"""

from __future__ import annotations

import math

import numpy as np

from .fields import LabelGrid, TrajectoryField, curl, matvec
from .kinematics import checked_det, jacobian
from .report import DriftReport


def label_stack(field: TrajectoryField, labels, t, method: str) -> np.ndarray:
    """The protocol evaluator ``method`` ("velocity", "position_gradient", ...)
    at labels (..., 3), in one call after ``check_domain``.

    Gradients come back with component axes first, (3, 3, ...), as in
    :func:`vortlab.fields.curl`, copied to C order: ``einsum`` and the
    elementwise stack arithmetic run ~5x faster on a contiguous stack than
    on the strided ``moveaxis`` view, with bitwise equal results.  A
    position-gradient stack passes the singular-map test of
    :func:`vortlab.kinematics.checked_det`.
    """
    field.check_domain(labels, t)
    out = getattr(field, method)(labels, t)
    if method.endswith("_gradient"):
        out = np.ascontiguousarray(np.moveaxis(out, (-2, -1), (0, 1)))
        if method == "position_gradient":
            checked_det(out)
    return out


def gradient_curl(gw, g):
    """curl_a(G^T w) from Dw and G (Hessian terms cancel in the curl).

    With M[j, k] = sum_m Dw[m, j] G[m, k] the curl is curl(M^T); the
    symmetric Hessian contribution to d/da_j (G^T w)_k never reaches it.
    Stacks of shape (3, 3, ...) give a (3, ...) result.
    """
    return curl(np.einsum("mj...,mk...->kj...", gw, g))


def _image(g, w) -> np.ndarray:
    """G^T w at every label, from a :func:`label_stack` G (3, 3, ...) and w (..., 3)."""
    return np.einsum("mj...,...m->...j", g, w)


def _curl_image(field: TrajectoryField, a, t, g, kind: str) -> np.ndarray:
    """curl_a(G^T w) at labels (..., 3) for w the map's ``kind`` ("velocity" or
    "acceleration"), given its position-gradient stack ``g``; (..., 3)."""
    return np.moveaxis(gradient_curl(label_stack(field, a, t, f"{kind}_gradient"), g), 0, -1)


def image_velocity(field: TrajectoryField, a, t) -> np.ndarray:
    """Label-space velocity image V = G^T xdot; V.da equals u.dx by construction."""
    g = label_stack(field, a, t, "position_gradient")
    return _image(g, label_stack(field, a, t, "velocity"))


def lagrangian_vorticity(field: TrajectoryField, a, t) -> np.ndarray:
    """Omega = curl_a V, assembled from the position and velocity gradients."""
    return _curl_image(field, a, t, label_stack(field, a, t, "position_gradient"), "velocity")


def lagrangian_vorticity_pullback(field: TrajectoryField, omega_x, a, t) -> np.ndarray:
    """Omega from the Eulerian vorticity: cof(G)^T omega_x."""
    return matvec(np.swapaxes(jacobian(field, a, t).cof, -1, -2), omega_x)


def cauchy_residual(field: TrajectoryField, a, t) -> np.ndarray:
    """curl_a(dV/dt); zero iff the flow is extremal at (a, t)."""
    return _curl_image(field, a, t, label_stack(field, a, t, "position_gradient"), "acceleration")


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
