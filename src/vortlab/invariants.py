"""Image fields in label space and the Cauchy-invariant diagnostics.

The velocity image and the Lagrangian vorticity are

    V(a, t) = G^T xdot(a, t),          Omega(a, t) = curl_a V(a, t),

with G the gradient matrix of the label map.  Because mixed second
derivatives of the map are symmetric, the curl of any field of the form
G^T w(a, t) needs only first derivatives:

    curl_a (G^T w) = curl((Dw^T G)^T),   Dw[i, j] = dw_i/da_j,

where ``curl(D)`` (:func:`vortlab.fields.curl`, the package's one curl) is
the curl of a field whose Jacobian is D[i, j] = dv_i/da_j.  That is how
Omega and the Cauchy residual are assembled pointwise (no finite
differencing of V itself; tests cross-check against an FD curl).  The
Cauchy residual uses dV/dt = G^T xddot + dG^T/dt xdot, whose second term is
a pure label-gradient and drops out of the curl, leaving

    cauchy_residual = curl_a (G^T xddot) = curl((Ga^T G)^T),

zero exactly when the flow is extremal at (a, t).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateMapError
from .fields import LabelGrid, SampledTrajectoryField, TrajectoryField, curl
from .kinematics import jacobian
from .report import DriftReport


def image_velocity(field: TrajectoryField, a, t) -> np.ndarray:
    """Label-space velocity image V = G^T xdot; V.da equals u.dx by construction."""
    bundle = jacobian(field, a, t)
    return bundle.matrix.T @ field.velocity(a, t)


def _gradient_curl(gw, g):
    """curl_a(G^T w) from Dw and G (Hessian terms cancel in the curl).

    With M[j, k] = sum_m Dw[m, j] G[m, k] the curl is curl(M^T); the
    symmetric Hessian contribution to d/da_j (G^T w)_k never reaches it.
    """
    m = gw.T @ g
    return curl(m.T)


def lagrangian_vorticity(field: TrajectoryField, a, t) -> np.ndarray:
    """Omega = curl_a V, assembled from the position and velocity gradients."""
    field.check_domain(a, t)
    g = field.position_gradient(a, t)
    if det_is_zero(g):
        raise DegenerateMapError("lagrangian_vorticity at a singular point")
    return _gradient_curl(field.velocity_gradient(a, t), g)


def det_is_zero(g) -> bool:
    from .kinematics import det3

    return det3(g) == 0


def lagrangian_vorticity_pullback(field: TrajectoryField, omega_x, a, t) -> np.ndarray:
    """Omega from the Eulerian vorticity: cof(G)^T omega_x."""
    bundle = jacobian(field, a, t)
    return bundle.cof.T @ np.asarray(omega_x)


def cauchy_residual(field: TrajectoryField, a, t) -> np.ndarray:
    """curl_a(dV/dt); zero iff the flow is extremal at (a, t)."""
    field.check_domain(a, t)
    g = field.position_gradient(a, t)
    if det_is_zero(g):
        raise DegenerateMapError("cauchy_residual at a singular point")
    return _gradient_curl(field.acceleration_gradient(a, t), g)


def cauchy_vorticity_reconstruct(field: TrajectoryField, omega0, a, t) -> np.ndarray:
    """Eulerian vorticity transported from its t0 image: omega = G Omega0 / J.

    ``omega0`` is either a 3-vector (label-independent check) or a callable
    a -> Omega(a, t0).
    """
    bundle = jacobian(field, a, t)
    base = omega0(a) if callable(omega0) else np.asarray(omega0)
    return (bundle.matrix @ base) / bundle.det


# ---------------------------------------------------------------------------
# Drift over a grid
# ---------------------------------------------------------------------------


def _omega_on_grid(field: TrajectoryField, grid: LabelGrid, t) -> np.ndarray:
    """(N, 3) array of Omega at every grid node, C order.

    Sampled fields evaluated on their own grid at a stored time use the
    vectorized node arrays; everything else goes pointwise.
    """
    if isinstance(field, SampledTrajectoryField) and _grid_matches(field, grid):
        try:
            ti = field.time_index(t)
        except ValueError:
            ti = None
        if ti is not None:
            g = field.node_gradients("position", ti)
            gv = field.node_gradients("velocity", ti)
            m = np.einsum("...mj,...mk->...jk", gv, g)
            omega = curl(np.moveaxis(m, (-1, -2), (0, 1)))
            return np.moveaxis(omega, 0, -1).reshape(-1, 3)
    nodes = grid.nodes()
    return np.array([lagrangian_vorticity(field, a, t) for a in nodes])


def _grid_matches(field: SampledTrajectoryField, grid: LabelGrid) -> bool:
    return all(
        len(ax) == len(bx) and np.allclose(ax, bx)
        for ax, bx in zip(field.grid.axes, grid.axes)
    )


def cauchy_drift(
    field: TrajectoryField,
    grid: LabelGrid,
    times,
    tolerance: float | None = None,
) -> DriftReport:
    """Max and grid-weighted L2 deviation of Omega(a, t) from Omega(a, t0)."""
    times = [float(t) for t in times]
    base = _omega_on_grid(field, grid, times[0])
    w = grid.cell_volume
    max_dev, l2_dev = [], []
    for k, t in enumerate(times):
        if k == 0:
            max_dev.append(0.0)
            l2_dev.append(0.0)
            continue
        omega = _omega_on_grid(field, grid, t)
        diff = omega - base
        norms = np.sqrt(np.sum(diff * diff, axis=1))
        max_dev.append(float(np.max(norms)))
        l2_dev.append(math.sqrt(float(np.sum(norms**2)) * w))
    return DriftReport(
        theorem="cauchy",
        times=times,
        max_deviation=max_dev,
        l2_deviation=l2_dev,
        tolerance=tolerance,
        metadata={
            "backend": field.backend,
            "grid_shape": list(grid.shape),
            "fd_order": field.order,
        },
    )


def image_fields_on_grid(field: TrajectoryField, grid: LabelGrid, t):
    """(V, Omega) as (N, 3) arrays over the grid nodes (helicity building block)."""
    if isinstance(field, SampledTrajectoryField) and _grid_matches(field, grid):
        try:
            ti = field.time_index(t)
        except ValueError:
            ti = None
        if ti is not None:
            g = field.node_gradients("position", ti)
            v = field.node_values("velocity", ti)
            V = np.einsum("...mj,...m->...j", g, v).reshape(-1, 3)
            return V, _omega_on_grid(field, grid, t)
    nodes = grid.nodes()
    V = np.array([image_velocity(field, a, t) for a in nodes])
    omega = np.array([lagrangian_vorticity(field, a, t) for a in nodes])
    return V, omega
