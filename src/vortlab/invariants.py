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

Each quantity has one implementation, on a :class:`vortlab.kinematics.Frame`:
the kinematics of one label stack (..., 3) at one time under the protocol of
:mod:`vortlab.fields`, one label being the empty leading shape.  The drift
reports read one frame per time on their whole label stack; a caller that
holds the frames (``vortlab verify``) hands them to every drift on those nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import LabelGrid, TrajectoryField, matvec
from .kinematics import Frame, gradient_curl, jacobian  # noqa: F401 (gradient_curl re-exported)
from .report import DriftReport


def image_velocity(field: TrajectoryField, a, t) -> np.ndarray:
    """Label-space velocity image V = G^T xdot; V.da equals u.dx by construction."""
    return Frame(field, a, t).image


def lagrangian_vorticity(field: TrajectoryField, a, t) -> np.ndarray:
    """Omega = curl_a V, assembled from the position and velocity gradients."""
    return Frame(field, a, t).omega


def lagrangian_vorticity_pullback(field: TrajectoryField, omega_x, a, t) -> np.ndarray:
    """Omega from the Eulerian vorticity: cof(G)^T omega_x."""
    return matvec(np.swapaxes(jacobian(field, a, t).cof, -1, -2), omega_x)


def cauchy_residual(field: TrajectoryField, a, t) -> np.ndarray:
    """curl_a(dV/dt); zero iff the flow is extremal at (a, t)."""
    return Frame(field, a, t).cauchy


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
    *, frames=None,
) -> DriftReport:
    """Max and grid-weighted L2 deviation of Omega(a, t) from Omega(a, t0); ``frames(t)``,
    when given, is the :class:`Frame` of the grid's nodes at t that the caller holds."""
    nodes = grid.nodes()
    frames = frames or (lambda t: Frame(field, nodes, t))
    return _grid_drift(
        "cauchy", lambda t: frames(t).omega, grid, times, tolerance,
        {"backend": field.backend, "grid_shape": list(grid.shape), "fd_order": field.order},
    )
