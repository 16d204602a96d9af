"""The five vorticity-theorem diagnostics built on the image fields.

Each theorem becomes a residual or drift operation:

* curl-free material acceleration (acceleration potential existence),
* the vorticity/density evolution equation along trajectories,
* potential vorticity (omega/rho . grad_x S) conservation for label-only S,
* loop circulation via the velocity image,
* helicity over a label region, with a boundary-tangency diagnostic that
  says whether conservation is even claimable on that region.

Loops use the composite trapezoid rule on their periodic parametrization;
regions use the midpoint rule on cells, with boundary face quadratures for
the tangency number.

The residuals and the potential vorticity take a :class:`~vortlab.kinematics.Frame`
(labels (..., 3) at one time, or each at its own), and the drift reports call the
same functions on the frame of their whole label stack once per time: each drift is a
sweep of the drift loop of :mod:`vortlab.invariants`, and circulation and helicity share
one scalar-series sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import VortlabError
from .fields import Box, LabelGrid, ScalarField, TrajectoryField, derivative, exact_sum, matvec
from .invariants import _drift_loop, _grid_sweep, lagrangian_vorticity
from .kinematics import Frame, _image
from .report import DriftReport
from .variational import FlowMaterial, density_from_map, mass_reference


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelLoop:
    """Closed material curve a(s), s in [0, 1], its tangent da/ds and quadrature node count."""

    point: Callable[[float], np.ndarray]
    tangent: Callable[[float], np.ndarray]
    nodes: int = 64

    def __post_init__(self):
        if self.nodes < 8:
            raise VortlabError(f"loop needs >= 8 quadrature nodes, got {self.nodes}")
        gap = np.asarray(self.point(0.0), float) - np.asarray(self.point(1.0), float)
        if float(np.max(np.abs(gap))) > 1e-12:
            raise VortlabError(f"loop is not closed: |a(0) - a(1)| = {np.max(np.abs(gap))}")

    @classmethod
    def circle(cls, center, radius: float, nodes: int = 64, axes=(0, 1)) -> "LabelLoop":
        """Circle of given radius in the plane spanned by two label axes."""
        center = np.asarray(center, float)
        i, j = axes

        def point(s):
            a = center.copy()
            a[i] += radius * math.cos(2.0 * math.pi * s)
            a[j] += radius * math.sin(2.0 * math.pi * s)
            return a

        def tangent(s):
            v = np.zeros(3)
            v[i] = -2.0 * math.pi * radius * math.sin(2.0 * math.pi * s)
            v[j] = 2.0 * math.pi * radius * math.cos(2.0 * math.pi * s)
            return v

        return cls(point=point, tangent=tangent, nodes=nodes)


@dataclass(frozen=True)
class LabelRegion:
    """A box (or full periodic cell) of labels with boundary quadratures."""

    box: Box
    shape: tuple[int, int, int]
    periodic: bool = False

    def grid(self) -> LabelGrid:
        layout = LabelGrid.periodic_cell if self.periodic else LabelGrid.cell_centers
        return layout(self.box, self.shape)

    def boundary_faces(self):
        """(nodes, outward normal, per-node area) for each of the six faces;
        empty for a periodic cell (no boundary)."""
        if self.periodic:
            return []
        cells = LabelGrid.cell_centers(self.box, self.shape)
        faces = []
        for axis in range(3):
            others = [k for k in range(3) if k != axis]
            u, v = np.meshgrid(*(cells.axes[k] for k in others), indexing="ij")
            area = np.prod([cells.spacings[k] for k in others])
            for side, coord in ((-1.0, self.box.lo[axis]), (1.0, self.box.hi[axis])):
                nodes = np.empty((u.size, 3))
                nodes[:, axis] = coord
                nodes[:, others[0]] = u.ravel()
                nodes[:, others[1]] = v.ravel()
                normal = np.zeros(3)
                normal[axis] = side
                faces.append((nodes, normal, float(area)))
        return faces


# ---------------------------------------------------------------------------
# Residual operations
# ---------------------------------------------------------------------------


def dalembert_euler_residual(frame: Frame) -> np.ndarray:
    """curl_x of the material acceleration on a frame's labels, pulled back through the
    cofactors.

    Equals inv(cof^T) = G / J applied to the Cauchy residual R = curl_a(dV/dt),
    so it vanishes exactly where R does.
    """
    return _image(np.swapaxes(frame.matrix, -1, -2), frame.cauchy) / np.expand_dims(frame.det, -1)


def beltrami_residual(frame: Frame, frame0: Frame, material: FlowMaterial,
                      dt_fd: float) -> np.ndarray:
    """Residual of d/dt (omega/rho) = ((omega/rho) . grad_x) u along each parcel, on the
    frame of labels a (..., 3) at their times t and ``frame0``, that of the same labels
    at the field's own t0; (..., 3).

    omega comes from the vorticity transport formula seeded at t0, so
    omega/rho = G Omega0 / (rho0 J0) and the material derivative is a
    centered difference of step dt_fd, whose shifted G reads the frame keeps.
    """
    omega0 = frame0.omega.astype(float)
    rho0j0 = mass_reference(frame.field, material, frame.labels, frame0).astype(float)
    density_from_map(frame, rho0j0)  # raises on rho <= 0

    def omega_over_rho(s):
        g = frame.read("position_gradient", s).astype(float)
        return matvec(g, omega0) / np.expand_dims(rho0j0, -1)

    lhs = derivative(omega_over_rho, dt_fd, 2)
    du = frame.read("velocity_gradient").astype(float) @ np.asarray(frame.inv, float)
    return lhs - matvec(du, omega_over_rho(0.0))


def ertel_pv(frame: Frame, S: ScalarField, rho0j0):
    """Potential vorticity q = (omega/rho) . grad_x S for a label-only S on a frame's
    labels, given rho0 J0 there (:func:`vortlab.variational.mass_reference`): with
    J = det G, omega = G Omega / J, rho = rho0 J0 / J and grad_x S = cof(G) grad_a S / J."""
    jv = np.expand_dims(frame.det, -1)
    omega = _image(np.swapaxes(frame.matrix, -1, -2), frame.omega) / jv
    rho = density_from_map(frame, rho0j0)
    grad_S = np.asarray(S.gradient(frame.labels, frame.t), float)
    grad_x_S = _image(np.swapaxes(frame.cof, -1, -2), grad_S) / jv
    q = (omega / np.expand_dims(rho, -1)) * grad_x_S
    return q[..., 0] + q[..., 1] + q[..., 2]


def ertel_pv_label_form(
    field: TrajectoryField, material: FlowMaterial, S: ScalarField, a, t
) -> float:
    """The equivalent label-space form q = Omega . grad_a S / (rho0 J0)."""
    omega_label = lagrangian_vorticity(field, a, t).astype(float)
    rho0j0 = float(mass_reference(field, material, a))
    return float(omega_label @ np.asarray(S.gradient(a, t), float)) / rho0j0


def _ertel_sweep(field, material, S, grid: LabelGrid, times):
    nodes = grid.nodes()
    rho0j0 = mass_reference(field, material, nodes, (yield nodes, field.t0))
    metadata = {"backend": field.backend, "grid_shape": list(grid.shape)}
    return (yield from _grid_sweep("ertel", lambda frame: ertel_pv(frame, S, rho0j0), grid, times,
                                   metadata))


def ertel_drift(field: TrajectoryField, material: FlowMaterial, S: ScalarField, grid: LabelGrid,
                times) -> DriftReport:
    """Max and grid-weighted L2 deviation of :func:`ertel_pv` over all nodes from t = times[0],
    with rho0 J0 taken once from the frame at the field's t0."""
    return _drift_loop(field, [_ertel_sweep(field, material, S, grid, times)])[0]


def _series_sweep(theorem: str, value, labels, times, metadata):
    """Sweep of the drift loop giving the scalar ``value(frame)`` on the frame of ``labels`` at
    each time, and its deviation from the value at ``times[0]`` (max = L2)."""
    times, values = [float(t) for t in times], []
    for t in times:
        values.append(value((yield labels, t)))
    devs = [0.0] + [abs(v - values[0]) for v in values[1:]]
    return DriftReport(theorem=theorem, times=times, values=values, max_deviation=devs,
                       l2_deviation=devs, metadata=metadata)


# ---------------------------------------------------------------------------
# Circulation
# ---------------------------------------------------------------------------


def _circulation_sweep(field, loop: LabelLoop, times):
    """The loop integral of V . da by the equal-weight periodic rule.  Samples sit at cell
    midpoints of the parametrization, which keeps the spectral accuracy of the periodic
    trapezoid rule for smooth loops."""
    n = loop.nodes
    s = (np.arange(n) + 0.5) / n
    tangents = np.array([loop.tangent(si) for si in s], float)
    return (yield from _series_sweep(
        "circulation", lambda frame: exact_sum(np.einsum("nj,nj->n", frame.image, tangents) / n),
        np.array([loop.point(si) for si in s], float), times,
        {"backend": field.backend, "loop_nodes": n}))


def circulation_drift(field: TrajectoryField, loop: LabelLoop, times) -> DriftReport:
    """Circulation time series around a material loop and its deviation from times[0]."""
    return _drift_loop(field, [_circulation_sweep(field, loop, times)])[0]


# ---------------------------------------------------------------------------
# Helicity
# ---------------------------------------------------------------------------


def boundary_tangency(field: TrajectoryField, region: LabelRegion, t) -> float:
    """Max over boundary nodes of |Omega . n| ds; zero iff the vorticity image
    is tangent to the region boundary (the condition for helicity to be a
    conserved quantity on that region)."""
    faces = region.boundary_faces()
    if not faces:
        return 0.0
    omega = lagrangian_vorticity(field, np.concatenate([nodes for nodes, _, _ in faces]), t)
    ends = np.cumsum([len(nodes) for nodes, _, _ in faces])[:-1]
    return max(float(np.max(np.abs(o @ normal))) * area
               for o, (_, normal, area) in zip(np.split(omega, ends), faces))


def _helicity_sweep(field, region: LabelRegion, times):
    """The volume integral of Omega . V over the region (midpoint rule); a region node
    outside the field's domain raises OutOfDomainError naming it."""
    grid = region.grid()
    report = yield from _series_sweep(
        "helicity", lambda frame: exact_sum(np.vecdot(frame.image, frame.omega) * grid.cell_volume),
        grid.nodes(), times, {"backend": field.backend, "region_shape": list(region.shape),
                              "periodic": region.periodic})
    report.metadata["boundary_tangency"] = (
        0.0 if region.periodic else boundary_tangency(field, region, report.times[0]))
    return report


def helicity_drift(field: TrajectoryField, region: LabelRegion, times) -> DriftReport:
    """Helicity time series; the report always carries the tangency number, and conservation
    is only claimable when it vanishes (or the region is a full periodic cell)."""
    return _drift_loop(field, [_helicity_sweep(field, region, times)])[0]
