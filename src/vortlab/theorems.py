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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveDensityError, VortlabError
from .fields import Box, LabelGrid, ScalarFieldLabel, TrajectoryField, derivative, fd_jacobian
from .invariants import (
    cauchy_residual,
    gradient_curl,
    gradients_on_grid,
    image_fields_on_grid,
    label_stack,
    lagrangian_vorticity,
    omega_stack,
)
from .kinematics import cof3, det3, inv3, jacobian
from .report import DriftReport
from .variational import FlowMaterial, density_from_map


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
        if self.periodic:
            axes = tuple(
                np.linspace(lo, hi, n, endpoint=False)
                for lo, hi, n in zip(self.box.lo, self.box.hi, self.shape)
            )
            spac = tuple((hi - lo) / n for lo, hi, n in zip(self.box.lo, self.box.hi, self.shape))
            return LabelGrid(axes, spac)
        return LabelGrid.cell_centers(self.box, self.shape)

    def boundary_faces(self):
        """(nodes, outward normal, per-node area) for each of the six faces;
        empty for a periodic cell (no boundary)."""
        if self.periodic:
            return []
        faces = []
        for axis in range(3):
            others = [k for k in range(3) if k != axis]
            centers = []
            for k in others:
                lo, hi, n = self.box.lo[k], self.box.hi[k], self.shape[k]
                h = (hi - lo) / n
                centers.append(lo + h * (np.arange(n) + 0.5))
            u, v = np.meshgrid(*centers, indexing="ij")
            area = np.prod(
                [(self.box.hi[k] - self.box.lo[k]) / self.shape[k] for k in others]
            )
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
        linear field; a quadrature sanity check for the region's geometry."""
        if self.periodic:
            return 0.0
        grid = self.grid()
        h = 1e-4 * min(self.box.extent)
        vol = 0.0
        for a in grid.nodes():
            d = fd_jacobian(lambda b: np.asarray(w(b), float), a, h, 4)
            vol += (d[0, 0] + d[1, 1] + d[2, 2]) * grid.cell_volume
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

    Equals inv(cof^T) applied to the curl of dV/dt, so it vanishes exactly
    where the Cauchy residual does.
    """
    bundle = jacobian(field, a, t)
    return inv3(bundle.cof.T) @ cauchy_residual(field, a, t)


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
    rho0j0 = float(material.initial_density(a)) * float(jacobian(field, a, field.t0).det)
    density_from_map(field, material, a, t)  # raises on rho <= 0

    def omega_over_rho(tt):
        g = field.position_gradient(a, tt).astype(float)
        return (g @ omega0) / rho0j0

    lhs = (omega_over_rho(t + dt_fd) - omega_over_rho(t - dt_fd)) / (2.0 * dt_fd)
    bundle = jacobian(field, a, t)
    du = field.velocity_gradient(a, t).astype(float) @ np.asarray(bundle.inv, float)
    rhs = du @ omega_over_rho(t)
    return lhs - rhs


def ertel_pv(field: TrajectoryField, material: FlowMaterial, S: ScalarFieldLabel, a, t) -> float:
    """Potential vorticity q = (omega/rho) . grad_x S for a label-only S."""
    bundle = jacobian(field, a, t)
    omega = (np.asarray(bundle.matrix, float) @ lagrangian_vorticity(field, a, t).astype(float)) / float(bundle.det)
    rho = float(density_from_map(field, material, a, t))
    grad_x_S = np.asarray(inv3(bundle.matrix.T), float) @ np.asarray(S.gradient(a, t), float)
    return float((omega / rho) @ grad_x_S)


def ertel_pv_label_form(
    field: TrajectoryField, material: FlowMaterial, S: ScalarFieldLabel, a, t
) -> float:
    """The equivalent label-space form q = Omega . grad_a S / (rho0 J0)."""
    omega_label = lagrangian_vorticity(field, a, t).astype(float)
    rho0j0 = float(material.initial_density(a)) * float(jacobian(field, a, field.t0).det)
    return float(omega_label @ np.asarray(S.gradient(a, t), float)) / rho0j0


def ertel_drift(
    field: TrajectoryField,
    material: FlowMaterial,
    S: ScalarFieldLabel,
    grid: LabelGrid,
    times,
    tolerance: float | None = None,
) -> DriftReport:
    """Max and grid-weighted L2 deviation of the potential vorticity from t = times[0].

    q is :func:`ertel_pv` evaluated once per time over all nodes: with J =
    det G, omega = G Omega / J, rho = rho0 J0 / J (rho0 J0 taken once at the
    field's t0) and grad_x S = cof(G) grad_a S / J, q = (omega / rho) . grad_x S.
    """
    times = [float(t) for t in times]
    nodes = grid.nodes()
    rho0 = np.asarray(material.initial_density(nodes), float)
    rho0j0 = rho0 * det3(gradients_on_grid(field, grid, field.t0, "position"))

    def pv(t):
        g = gradients_on_grid(field, grid, t, "position")
        j = det3(g)
        omega_label = gradient_curl(gradients_on_grid(field, grid, t, "velocity"), g)
        omega = np.einsum("ijn,jn->in", g, omega_label) / j
        rho = rho0j0 / j
        if np.any(rho <= 0.0):
            k = int(np.argmax(rho <= 0.0))
            raise NonPositiveDensityError(f"density {rho[k]} at a={nodes[k]}, t={t}")
        grad_a_S = np.asarray(S.gradient(nodes, t), float).T
        grad_x_S = np.einsum("ijn,jn->in", cof3(g), grad_a_S) / j
        return np.sum((omega / rho) * grad_x_S, axis=0)

    base = pv(times[0])
    w = grid.cell_volume
    max_dev, l2_dev = [0.0], [0.0]
    for t in times[1:]:
        diff = np.abs(pv(t) - base)
        max_dev.append(float(diff.max()))
        l2_dev.append(math.sqrt(float(np.sum(diff**2)) * w))
    return DriftReport(
        theorem="ertel",
        times=times,
        max_deviation=max_dev,
        l2_deviation=l2_dev,
        tolerance=tolerance,
        metadata={"backend": field.backend, "grid_shape": list(grid.shape)},
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
    g = label_stack(field, labels, t, "position_gradient")
    V = np.einsum("mjn,nm->nj", g, label_stack(field, labels, t, "velocity"))
    return math.fsum(np.einsum("nj,nj->n", V, tangents) / n)


def circulation_drift(
    field: TrajectoryField,
    loop: LabelLoop,
    times,
    tolerance: float | None = None,
) -> DriftReport:
    times = [float(t) for t in times]
    values = [circulation(field, loop, t) for t in times]
    devs = [abs(v - values[0]) for v in values]
    devs[0] = 0.0
    return DriftReport(
        theorem="circulation",
        times=times,
        values=values,
        max_deviation=devs,
        l2_deviation=devs,
        tolerance=tolerance,
        metadata={"backend": field.backend, "loop_nodes": loop.nodes},
    )


# ---------------------------------------------------------------------------
# Helicity
# ---------------------------------------------------------------------------


def helicity(field: TrajectoryField, region: LabelRegion, t) -> float:
    """Volume integral of Omega . V over the region (midpoint rule)."""
    grid = region.grid()
    for ax, lo_b, hi_b in zip(grid.axes, field.box.lo, field.box.hi):
        if ax[0] < lo_b - 1e-9 or ax[-1] > hi_b + 1e-9:
            raise VortlabError("region exceeds the field's label domain")
    V, omega = image_fields_on_grid(field, grid, t)
    w = grid.cell_volume
    return math.fsum(np.vecdot(V, omega) * w)


def boundary_tangency(field: TrajectoryField, region: LabelRegion, t) -> float:
    """Max over boundary nodes of |Omega . n| ds; zero iff the vorticity image
    is tangent to the region boundary (the condition for helicity to be a
    conserved quantity on that region)."""
    faces = region.boundary_faces()
    if not faces:
        return 0.0
    omega = omega_stack(field, np.concatenate([nodes for nodes, _, _ in faces]), t)
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
    times = [float(t) for t in times]
    values = [helicity(field, region, t) for t in times]
    devs = [abs(v - values[0]) for v in values]
    devs[0] = 0.0
    tangency = 0.0 if region.periodic else boundary_tangency(field, region, times[0])
    return DriftReport(
        theorem="helicity",
        times=times,
        values=values,
        max_deviation=devs,
        l2_deviation=devs,
        tolerance=tolerance,
        metadata={
            "backend": field.backend,
            "region_shape": list(region.shape),
            "periodic": region.periodic,
            "boundary_tangency": tangency,
        },
    )
