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

The residuals and the potential vorticity take labels (..., 3), and the
drift reports call the same kernels on their whole label stack once per
time: the Ertel drift shares the grid loop of the Cauchy drift, and the
circulation and helicity drifts share one loop over a scalar time series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import VortlabError
from .fields import Box, LabelGrid, ScalarField, TrajectoryField, derivative, fd_jacobian
from .invariants import (
    _curl_image,
    _grid_drift,
    _image,
    _position_stack,
    image_velocity,
    label_stack,
    lagrangian_vorticity,
)
from .kinematics import cof3, jacobian
from .report import DriftReport
from .variational import FlowMaterial, _mass_reference, _reject, density_from_map


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelLoop:
    """Closed material curve a(s), s in [0, 1], with quadrature node count."""

    point: Callable[[float], np.ndarray]
    tangent: Callable[[float], np.ndarray] | None = None
    nodes: int = 64

    def __post_init__(self):
        if self.nodes < 8:
            raise VortlabError(f"loop needs >= 8 quadrature nodes, got {self.nodes}")
        gap = np.asarray(self.point(0.0), float) - np.asarray(self.point(1.0), float)
        if float(np.max(np.abs(gap))) > 1e-12:
            raise VortlabError(f"loop is not closed: |a(0) - a(1)| = {np.max(np.abs(gap))}")

    def tangent_at(self, s: float) -> np.ndarray:
        if self.tangent is not None:
            return np.asarray(self.tangent(s), float)
        return derivative(lambda d: np.asarray(self.point((s + d) % 1.0), float), 1e-5, 2)

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

    @classmethod
    def square(cls, center, half_side: float, nodes: int = 64, axes=(0, 1)) -> "LabelLoop":
        center = np.asarray(center, float)
        i, j = axes
        corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]

        def point(s):
            s = s % 1.0
            leg = min(int(s * 4), 3)
            frac = s * 4 - leg
            (x0, y0), (x1, y1) = corners[leg], corners[(leg + 1) % 4]
            a = center.copy()
            a[i] += half_side * (x0 + (x1 - x0) * frac)
            a[j] += half_side * (y0 + (y1 - y0) * frac)
            return a

        def tangent(s):
            s = s % 1.0
            leg = min(int(s * 4), 3)
            (x0, y0), (x1, y1) = corners[leg], corners[(leg + 1) % 4]
            v = np.zeros(3)
            v[i] = 4.0 * half_side * (x1 - x0)
            v[j] = 4.0 * half_side * (y1 - y0)
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

    def divergence_selftest(self, w: Callable[[np.ndarray], np.ndarray]) -> float:
        """|volume integral of div w - boundary flux| for a caller-supplied
        linear field; a quadrature sanity check for the region's geometry.

        ``w`` follows the evaluation protocol: labels (..., 3), indexed
        ``a[..., i]``, give values (..., 3).  The divergence takes one call
        over every grid node; the boundary flux one call per face node.
        """
        if self.periodic:
            return 0.0
        grid = self.grid()
        h = 1e-4 * min(self.box.extent)
        d = fd_jacobian(w, grid.nodes(), h, 4)
        vol = 0.0
        for div in (d[..., 0, 0] + d[..., 1, 1] + d[..., 2, 2]).tolist():
            vol += div * grid.cell_volume
        flux = 0.0
        for nodes, normal, area in self.boundary_faces():
            for a in nodes:
                flux += float(np.asarray(w(a)) @ normal) * area
        return abs(vol - flux)


# ---------------------------------------------------------------------------
# Residual operations
# ---------------------------------------------------------------------------


def dalembert_euler_residual(field: TrajectoryField, a, t) -> np.ndarray:
    """curl_x of the material acceleration, pulled back through the cofactors.

    Equals inv(cof^T) = G / J applied to the Cauchy residual R = curl_a(dV/dt),
    so it vanishes exactly where R does.
    """
    g, j = _position_stack(field, a, t)
    r = _curl_image(field, a, t, g, "acceleration")
    return _image(np.swapaxes(g, -1, -2), r) / np.expand_dims(j, -1)


def beltrami_residual(
    field: TrajectoryField,
    material: FlowMaterial,
    a,
    t,
    dt_fd: float | None = None,
) -> np.ndarray:
    """Residual of d/dt (omega/rho) = ((omega/rho) . grad_x) u along a parcel.

    omega comes from the vorticity transport formula seeded at t0, so
    omega/rho = G Omega0 / (rho0 J0) and the material derivative is a
    centered difference of step dt_fd (default 1e-3 of the window).
    """
    if dt_fd is None:
        dt_fd = 1e-3 * (field.t1 - field.t0)
    omega0 = lagrangian_vorticity(field, a, field.t0).astype(float)
    rho0j0 = float(_mass_reference(field, material, a))
    density_from_map(field, material, a, t)  # raises on rho <= 0

    def omega_over_rho(tt):
        g = field.position_gradient(a, tt).astype(float)
        return (g @ omega0) / rho0j0

    lhs = (omega_over_rho(t + dt_fd) - omega_over_rho(t - dt_fd)) / (2.0 * dt_fd)
    bundle = jacobian(field, a, t)
    du = field.velocity_gradient(a, t).astype(float) @ np.asarray(bundle.inv, float)
    rhs = du @ omega_over_rho(t)
    return lhs - rhs


def _pv(field: TrajectoryField, S: ScalarField, a, t, rho0j0):
    """q at labels (..., 3) given rho0 J0 there: with J = det G, omega = G Omega / J,
    rho = rho0 J0 / J and grad_x S = cof(G) grad_a S / J, q = (omega / rho) . grad_x S."""
    g, j = _position_stack(field, a, t)
    jv = np.expand_dims(j, -1)
    omega = _image(np.swapaxes(g, -1, -2), _curl_image(field, a, t, g, "velocity")) / jv
    rho = rho0j0 / j
    _reject(rho <= 0.0, rho, a, "density", t=t)
    grad_x_S = _image(np.swapaxes(cof3(g), -1, -2), np.asarray(S.gradient(a, t), float)) / jv
    q = (omega / np.expand_dims(rho, -1)) * grad_x_S
    return q[..., 0] + q[..., 1] + q[..., 2]


def ertel_pv(field: TrajectoryField, material: FlowMaterial, S: ScalarField, a, t):
    """Potential vorticity q = (omega/rho) . grad_x S for a label-only S, at
    labels (..., 3); one label gives a float."""
    return _pv(field, S, a, t, _mass_reference(field, material, a))


def ertel_pv_label_form(
    field: TrajectoryField, material: FlowMaterial, S: ScalarField, a, t
) -> float:
    """The equivalent label-space form q = Omega . grad_a S / (rho0 J0)."""
    omega_label = lagrangian_vorticity(field, a, t).astype(float)
    rho0j0 = float(_mass_reference(field, material, a))
    return float(omega_label @ np.asarray(S.gradient(a, t), float)) / rho0j0


def ertel_drift(
    field: TrajectoryField,
    material: FlowMaterial,
    S: ScalarField,
    grid: LabelGrid,
    times,
    tolerance: float | None = None,
) -> DriftReport:
    """Max and grid-weighted L2 deviation of the potential vorticity from t = times[0]:
    :func:`ertel_pv` once per time over all nodes, with rho0 J0 taken once."""
    nodes = grid.nodes()
    rho0j0 = _mass_reference(field, material, nodes)
    return _grid_drift(
        "ertel", lambda t: _pv(field, S, nodes, t, rho0j0), grid, times, tolerance,
        {"backend": field.backend, "grid_shape": list(grid.shape)},
    )


# ---------------------------------------------------------------------------
# Circulation
# ---------------------------------------------------------------------------


def circulation(field: TrajectoryField, loop: LabelLoop, t) -> float:
    """Loop integral of V . da by the equal-weight periodic rule.

    Samples sit at cell midpoints of the parametrization, which keeps the
    spectral accuracy of the periodic trapezoid rule for smooth loops and
    avoids evaluating the tangent at parametrization corners (square loops
    would otherwise degrade to first order).
    """
    n = loop.nodes
    s = (np.arange(n) + 0.5) / n
    labels = np.array([loop.point(si) for si in s], float)
    tangents = np.array([loop.tangent_at(si) for si in s], float)
    return math.fsum(np.einsum("nj,nj->n", image_velocity(field, labels, t), tangents) / n)


def _series_drift(theorem: str, value, times, tolerance, metadata) -> DriftReport:
    """Scalar series ``value(t)`` and its deviation from ``value(times[0])`` (max = L2)."""
    times = [float(t) for t in times]
    values = [value(t) for t in times]
    devs = [abs(v - values[0]) for v in values]
    devs[0] = 0.0
    return DriftReport(theorem=theorem, times=times, values=values, max_deviation=devs,
                       l2_deviation=devs, tolerance=tolerance, metadata=metadata)


def circulation_drift(
    field: TrajectoryField,
    loop: LabelLoop,
    times,
    tolerance: float | None = None,
) -> DriftReport:
    return _series_drift(
        "circulation", lambda t: circulation(field, loop, t), times, tolerance,
        {"backend": field.backend, "loop_nodes": loop.nodes},
    )


# ---------------------------------------------------------------------------
# Helicity
# ---------------------------------------------------------------------------


def helicity(field: TrajectoryField, region: LabelRegion, t) -> float:
    """Volume integral of Omega . V over the region (midpoint rule); a region
    node outside the field's domain raises OutOfDomainError naming it."""
    grid = region.grid()
    nodes = grid.nodes()
    g, _ = _position_stack(field, nodes, t)
    V = _image(g, label_stack(field, nodes, t, "velocity"))
    omega = _curl_image(field, nodes, t, g, "velocity")
    return math.fsum(np.vecdot(V, omega) * grid.cell_volume)


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


def helicity_drift(
    field: TrajectoryField,
    region: LabelRegion,
    times,
    tolerance: float | None = None,
) -> DriftReport:
    """Helicity time series; the report always carries the tangency number,
    and conservation is only claimable when it vanishes (or the region is a
    full periodic cell)."""
    report = _series_drift(
        "helicity", lambda t: helicity(field, region, t), times, tolerance,
        {"backend": field.backend, "region_shape": list(region.shape), "periodic": region.periodic},
    )
    report.metadata["boundary_tangency"] = (
        0.0 if region.periodic else boundary_tangency(field, region, report.times[0]))
    return report
