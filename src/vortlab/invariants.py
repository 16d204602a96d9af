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
reports are sweeps of one drift loop, which makes one frame per time and
node stack and hands it to every sweep reading there (``vortlab verify`` runs
all of its drifts in one loop) and drops it; the commands set the tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import LabelGrid, TrajectoryField, matvec
from .kinematics import Frame, jacobian
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
    frame = jacobian(field, a, t)
    base = omega0(a) if callable(omega0) else omega0
    return matvec(frame.matrix, base) / np.expand_dims(frame.det, -1)


# ---------------------------------------------------------------------------
# Drift over a grid
# ---------------------------------------------------------------------------


def _drift_loop(field: TrajectoryField, sweeps) -> list:
    """What each sweep returns (its report), the sweeps run side by side over ``field``.
    A sweep is a generator that yields ``(nodes, t)`` for each :class:`Frame` it reads
    and is sent that frame.  The loop serves the earliest time any sweep waits for: it
    makes one frame per node stack read there (stacks compared bitwise), hands it to each
    sweep waiting on it in sweep order, and drops it once none waits there.  Each time is
    served inside ``field.holding()``, so a whole slice its frames read is computed once."""
    reports, waiting = [None] * len(sweeps), {}  # sweep index -> the (nodes, t) it waits for

    def send(i, frame):
        try:
            waiting[i] = sweeps[i].send(frame)
        except StopIteration as done:
            waiting.pop(i, None)
            reports[i] = done.value

    for i in range(len(sweeps)):
        send(i, None)
    while waiting:
        t, frames = min(s for _, s in waiting.values()), []  # the (nodes, frame) pairs at t
        with field.holding():
            while ready := [i for i, (_, s) in waiting.items() if s == t]:
                for i in ready:
                    nodes = waiting[i][0]
                    frame = next((f for n, f in frames if np.array_equal(n, nodes)), None)
                    if frame is None:
                        frames.append((nodes, frame := Frame(field, nodes, t)))
                    send(i, frame)
    return reports


def _grid_sweep(theorem: str, quantity, grid: LabelGrid, times, metadata):
    """Sweep of :func:`_drift_loop` giving the max and cell-weighted L2 over the grid of
    the per-node deviation of ``quantity(frame)`` from its value at ``times[0]``: the
    Euclidean norm of a vector quantity (N, 3), the absolute value of a scalar one (N,)."""
    nodes, times = grid.nodes(), [float(t) for t in times]
    base = quantity((yield nodes, times[0]))
    max_dev, l2_dev = [0.0], [0.0]
    for t in times[1:]:
        diff = quantity((yield nodes, t)) - base
        dev = np.sqrt(np.sum(diff * diff, axis=1)) if diff.ndim > 1 else np.abs(diff)
        max_dev.append(float(np.max(dev)))
        l2_dev.append(math.sqrt(float(np.sum(dev**2)) * grid.cell_volume))
    return DriftReport(theorem=theorem, times=times, max_deviation=max_dev,
                       l2_deviation=l2_dev, metadata=metadata)


def _cauchy_sweep(field: TrajectoryField, grid: LabelGrid, times):
    return _grid_sweep("cauchy", lambda frame: frame.omega, grid, times, {
        "backend": field.backend, "grid_shape": list(grid.shape), "fd_order": field.order})


def cauchy_drift(field: TrajectoryField, grid: LabelGrid, times) -> DriftReport:
    """Max and grid-weighted L2 deviation of Omega(a, t) from Omega(a, t0)."""
    return _drift_loop(field, [_cauchy_sweep(field, grid, times)])[0]
