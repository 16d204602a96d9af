"""Fixture catalog of exact and numerically advected flows.

Every fixture bundles a trajectory field with the material data (initial
density, equation of state, external potential) and, when known, the analytic
pressure that makes the extremal fixtures solve the momentum balance exactly.
Analytic fixtures carry hand-derived gradients so no finite differencing
enters their diagnostics.

For advected flows the labels are the initial positions, so G(a, t0) = I and
the initial density is the initial Eulerian density.  The integrator is the
classical one-step 4th-order scheme; velocities come from the generating
field and accelerations from du/dt + (u . grad) u along the path, so sampled
fields carry exact-in-time derivative data at the nodes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, VortlabError
from .fields import (
    AnalyticTrajectoryField,
    Box,
    LabelGrid,
    PolynomialTrajectoryField,
    SampledTrajectoryField,
    ScalarField,
    TrajectoryField,
    VectorField,
    elementwise,
    matvec,
)
from .poly import Poly
from .variational import BarotropicEOS, FlowMaterial


def gravity_potential(g: float) -> ScalarField:
    """External potential of uniform gravity along x3."""
    return ScalarField(
        value=lambda x, t: g * x[..., 2], gradient_fn=lambda x, t: np.array([0.0, 0.0, g])
    )

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FixtureSpec:
    """Catalog entry: name, parameters, domain, and whether it solves Euler."""

    name: str
    parameters: dict
    box: Box
    t0: float
    t1: float
    extremal: bool
    notes: str = ""


@dataclass(frozen=True)
class Fixture:
    spec: FixtureSpec
    field: TrajectoryField
    material: FlowMaterial
    pressure: ScalarField | None = None

    @property
    def extremal(self) -> bool:
        return self.spec.extremal


def _const_vec(c):
    c = np.asarray(c, float)
    return lambda a, t: c.copy()


def _const_mat(m):
    m = np.asarray(m, float)
    return lambda a, t: m.copy()


_ZERO3 = _const_vec(np.zeros(3))
_ZERO33 = _const_mat(np.zeros((3, 3)))
_EYE3 = _const_mat(np.eye(3))
_ZERO333 = lambda a, t: np.zeros((3, 3, 3))


def _simple_material(rho0: float = 1.0) -> FlowMaterial:
    return FlowMaterial(
        rho0=ScalarField.constant(rho0),
        eos=BarotropicEOS.zero(),
        potential=ScalarField.constant(0.0),
    )


# ---------------------------------------------------------------------------
# Analytic fixtures
# ---------------------------------------------------------------------------


def make_identity(box=None, t0=0.0, t1=1.0) -> Fixture:
    box = box or Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    fld = AnalyticTrajectoryField(
        position=lambda a, t: np.asarray(a, float),
        velocity=_ZERO3,
        acceleration=_ZERO3,
        position_gradient=_EYE3,
        velocity_gradient=_ZERO33,
        acceleration_gradient=_ZERO33,
        position_hessian=_ZERO333,
        box=box,
        t0=t0,
        t1=t1,
    )
    spec = FixtureSpec("identity", {}, box, t0, t1, extremal=True, notes="fluid at rest")
    return Fixture(spec, fld, _simple_material(), pressure=ScalarField.constant(0.0))


def make_translation(c=(1.0, 0.0, 0.0), box=None, t0=0.0, t1=1.0) -> Fixture:
    box = box or Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    cv = np.asarray(c, float)
    fld = AnalyticTrajectoryField(
        position=lambda a, t: np.asarray(a, float) + cv * (t - t0),
        velocity=_const_vec(cv),
        acceleration=_ZERO3,
        position_gradient=_EYE3,
        velocity_gradient=_ZERO33,
        acceleration_gradient=_ZERO33,
        position_hessian=_ZERO333,
        box=box,
        t0=t0,
        t1=t1,
    )
    spec = FixtureSpec("translation", {"c": list(cv)}, box, t0, t1, extremal=True)
    return Fixture(spec, fld, _simple_material(), pressure=ScalarField.constant(0.0))


def make_shear(rate=1.0, box=None, t0=0.0, t1=1.0) -> Fixture:
    """Unidirectional shear x1 = a1 + rate * t * a2 (steady Euler solution)."""
    box = box or Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    k = float(rate)

    def pos(a, t):
        x = a.copy()
        x[..., 0] += k * t * a[..., 1]
        return x

    def vel(a, t):
        v = np.zeros_like(a)
        v[..., 0] = k * a[..., 1]
        return v

    def grad(a, t):
        return np.array([[1.0, k * t, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    fld = AnalyticTrajectoryField(
        position=pos,
        velocity=vel,
        acceleration=_ZERO3,
        position_gradient=grad,
        velocity_gradient=_const_mat([[0.0, k, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        acceleration_gradient=_ZERO33,
        position_hessian=_ZERO333,
        box=box,
        t0=t0,
        t1=t1,
    )
    spec = FixtureSpec("shear", {"rate": k}, box, t0, t1, extremal=True)
    return Fixture(spec, fld, _simple_material(), pressure=ScalarField.constant(0.0))


_SPIN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _rotmat(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def make_rigid_rotation(omega0=1.0, gravity=0.0, rho0=1.0, box=None, t0=0.0, t1=10.0) -> Fixture:
    """Rigid rotation about the x3 axis at rate omega0.

    Extremal with the rotating-bucket pressure
    p = rho0 (omega0^2 (a1^2 + a2^2) / 2 - g a3).
    """
    box = box or Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    w = float(omega0)

    fld = AnalyticTrajectoryField(
        # matvec is M @ a bitwise for every label of the stack (np.inner is not)
        position=lambda a, t: matvec(_rotmat(w * (t - t0)), a),
        velocity=lambda a, t: matvec(w * (_SPIN @ _rotmat(w * (t - t0))), a),
        acceleration=lambda a, t: matvec((w * w) * (_SPIN @ _SPIN @ _rotmat(w * (t - t0))), a),
        position_gradient=lambda a, t: _rotmat(w * (t - t0)),
        velocity_gradient=lambda a, t: w * _SPIN @ _rotmat(w * (t - t0)),
        acceleration_gradient=lambda a, t: (w * w) * _SPIN @ _SPIN @ _rotmat(w * (t - t0)),
        position_hessian=_ZERO333,
        box=box,
        t0=t0,
        t1=t1,
    )
    g = float(gravity)
    material = FlowMaterial(
        rho0=ScalarField.constant(rho0),
        eos=BarotropicEOS.zero(),
        potential=gravity_potential(g),
    )
    pressure = ScalarField(
        value=lambda a, t: rho0 * (0.5 * w * w * (a[..., 0] ** 2 + a[..., 1] ** 2) - g * a[..., 2]),
        gradient_fn=lambda a, t: rho0 * np.stack(
            [w * w * a[..., 0], w * w * a[..., 1], np.full(np.shape(a)[:-1], -g)], axis=-1),
    )
    spec = FixtureSpec(
        "rigid-rotation", {"omega0": w, "gravity": g, "rho0": rho0}, box, t0, t1, extremal=True
    )
    return Fixture(spec, fld, material, pressure=pressure)


def make_dilation(rho0=1.0, gravity=9.81, box=None, t0=0.0, t1=1.0) -> Fixture:
    """Uniform dilation x = (1 + t) a: the non-extremal control.

    With gravity switched on and no supporting pressure the momentum balance
    fails by rho0 * g.  The map itself is irrotational (V-dot is an exact
    label gradient), so its Cauchy residual vanishes identically; the
    non-extremality shows up in the momentum residual.
    """
    box = box or Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))

    fld = AnalyticTrajectoryField(
        position=lambda a, t: (1.0 + t) * np.asarray(a, float),
        velocity=lambda a, t: np.asarray(a, float),
        acceleration=_ZERO3,
        position_gradient=lambda a, t: (1.0 + t) * np.eye(3),
        velocity_gradient=_EYE3,
        acceleration_gradient=_ZERO33,
        position_hessian=_ZERO333,
        box=box,
        t0=t0,
        t1=t1,
    )
    material = FlowMaterial(
        rho0=ScalarField.constant(rho0),
        eos=BarotropicEOS.zero(),
        potential=gravity_potential(float(gravity)),
    )
    spec = FixtureSpec(
        "dilation", {"rho0": rho0, "gravity": float(gravity)}, box, t0, t1, extremal=False
    )
    return Fixture(spec, fld, material, pressure=ScalarField.constant(0.0))


def make_gerstner(
    wavenumber=1.0,
    gravity=9.81,
    rho0=1.0,
    max_steepness=0.5,
    depth=2.0,
    width=1.0,
    t0=0.0,
    t1=None,
) -> Fixture:
    """Gerstner trochoidal wave, extended trivially in the a2 direction.

    Labels (a1, a2, a3) with a3 <= b_top < 0; parcels orbit circles of radius
    exp(k a3)/k.  The steepness exp(k a3) must stay below 1 (self-intersecting
    crests otherwise); the catalog enforces max_steepness < 1 at the top of
    the domain.  Phase speed c satisfies c^2 = g / k; the analytic pressure
    depends on a3 only.
    """
    k = float(wavenumber)
    g = float(gravity)
    if k <= 0 or g <= 0:
        raise VortlabError("gerstner needs positive wavenumber and gravity")
    s = float(max_steepness)
    if not (0.0 < s < 1.0):
        raise VortlabError(f"gerstner steepness must lie in (0, 1), got {s}")
    c = math.sqrt(g / k)
    period = TWO_PI / (k * c)
    if t1 is None:
        t1 = t0 + period
    b_top = math.log(s) / k
    box = Box((0.0, 0.0, b_top - depth), (TWO_PI / k, width, b_top))

    def phase(a, t):
        return k * (a[..., 0] + c * (t - t0))

    def amp(a):
        return np.exp(k * a[..., 2])

    def pos(a, t):
        E, ph = amp(a), phase(a, t)
        x = a.copy()
        x[..., 0] -= E / k * np.sin(ph)
        x[..., 2] += E / k * np.cos(ph)
        return x

    def vel(a, t):
        E, ph = amp(a), phase(a, t)
        v = np.zeros_like(a)
        v[..., 0] = -c * E * np.cos(ph)
        v[..., 2] = -c * E * np.sin(ph)
        return v

    def acc(a, t):
        E, ph = amp(a), phase(a, t)
        w = np.zeros_like(a)
        w[..., 0] = g * E * np.sin(ph)
        w[..., 2] = -g * E * np.cos(ph)
        return w

    def xz_block(a, diag, xx, xz, zz):
        """(..., 3, 3) matrix with the given x-z block and ``diag`` at [1, 1]."""
        m = np.zeros(a.shape + (3,))
        m[..., 0, 0], m[..., 0, 2], m[..., 1, 1] = xx, xz, diag
        m[..., 2, 0], m[..., 2, 2] = xz, zz
        return m

    def grad(a, t):
        E, ph = amp(a), phase(a, t)
        cs, sn = np.cos(ph), np.sin(ph)
        return xz_block(a, 1.0, 1.0 - E * cs, -E * sn, 1.0 + E * cs)

    def vgrad(a, t):
        E, ph = amp(a), phase(a, t)
        cs, sn = np.cos(ph), np.sin(ph)
        kc = k * c
        return xz_block(a, 0.0, kc * E * sn, -kc * E * cs, -kc * E * sn)

    def agrad(a, t):
        E, ph = amp(a), phase(a, t)
        cs, sn = np.cos(ph), np.sin(ph)
        kg = k * g
        return xz_block(a, 0.0, kg * E * cs, kg * E * sn, -kg * E * cs)

    def hessian(a, t):
        E, ph = amp(a), phase(a, t)
        cs, sn = np.cos(ph), np.sin(ph)
        H = np.zeros(E.shape + (3, 3, 3))
        H[..., 0, 0, 0] = k * E * sn
        H[..., 0, 0, 2] = H[..., 0, 2, 0] = -k * E * cs
        H[..., 0, 2, 2] = -k * E * sn
        H[..., 2, 0, 0] = -k * E * cs
        H[..., 2, 0, 2] = H[..., 2, 2, 0] = -k * E * sn
        H[..., 2, 2, 2] = k * E * cs
        return H

    fld = AnalyticTrajectoryField(
        position=pos,
        velocity=vel,
        acceleration=acc,
        position_gradient=grad,
        velocity_gradient=vgrad,
        acceleration_gradient=agrad,
        position_hessian=hessian,
        box=box,
        t0=t0,
        t1=t1,
    )
    material = FlowMaterial(
        rho0=ScalarField.constant(rho0),
        eos=BarotropicEOS.zero(),
        potential=gravity_potential(g),
    )
    # dp/da3 = -rho0 g (1 - exp(2 k a3)); balances the orbital acceleration.
    def p_grad(a, t):
        out = np.zeros(np.shape(a))
        out[..., 2] = -rho0 * g * (1.0 - elementwise(math.exp, 2.0 * k * a[..., 2]))
        return out

    pressure = ScalarField(
        value=lambda a, t: -rho0 * g * (
            a[..., 2] - elementwise(math.exp, 2.0 * k * a[..., 2]) / (2.0 * k)),
        gradient_fn=p_grad,
    )
    spec = FixtureSpec(
        "gerstner",
        {"wavenumber": k, "gravity": g, "rho0": rho0, "max_steepness": s,
         "depth": depth, "period": period},
        box,
        t0,
        t1,
        extremal=True,
    )
    return Fixture(spec, fld, material, pressure=pressure)


def make_non_euler(strength=1.0, box=None, t0=0.0, t1=1.0) -> Fixture:
    """Deliberately non-Euler polynomial map x = (a1 + s t^2 a2^2, a2, a3)."""
    box = box or Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    from fractions import Fraction

    s = Fraction(strength).limit_denominator(10**6)
    a1, a2, a3, t = (Poly.variable(4, i) for i in range(4))
    comps = [a1 + s * t * t * a2 * a2, a2, a3]
    fld = PolynomialTrajectoryField(comps, box, t0, t1)
    spec = FixtureSpec("non-euler", {"strength": float(s)}, box, t0, t1, extremal=False)
    return Fixture(spec, fld, _simple_material(), pressure=ScalarField.constant(0.0))


# ---------------------------------------------------------------------------
# Eulerian velocity fields and the trajectory integrator
# ---------------------------------------------------------------------------


def abc_velocity(A=1.0, B=1.0, C=1.0) -> VectorField:
    """Steady Beltrami field on the 2 pi periodic box (curl u = u)."""

    def val(x, t):
        x = np.asarray(x, float)
        out = np.empty_like(x)
        out[..., 0] = A * np.sin(x[..., 2]) + C * np.cos(x[..., 1])
        out[..., 1] = B * np.sin(x[..., 0]) + A * np.cos(x[..., 2])
        out[..., 2] = C * np.sin(x[..., 1]) + B * np.cos(x[..., 0])
        return out

    def jac(x, t):
        x = np.asarray(x, float)
        out = np.zeros(x.shape + (3,))
        out[..., 0, 1] = -C * np.sin(x[..., 1])
        out[..., 0, 2] = A * np.cos(x[..., 2])
        out[..., 1, 0] = B * np.cos(x[..., 0])
        out[..., 1, 2] = -A * np.sin(x[..., 2])
        out[..., 2, 0] = -B * np.sin(x[..., 0])
        out[..., 2, 1] = C * np.cos(x[..., 1])
        return out

    return VectorField(value=val, jacobian_fn=jac, steady=True)


def abc_pressure(A=1.0, B=1.0, C=1.0) -> ScalarField:
    """Steady pressure for the Beltrami field: p = -|u|^2 / 2 (unit density)."""
    u = abc_velocity(A, B, C)

    def val(x, t):
        v = u(x, t)
        return -0.5 * np.vecdot(v, v)

    def grad(x, t):
        return -matvec(np.swapaxes(u.jacobian(x, t), -1, -2), u(x, t))

    return ScalarField(value=val, gradient_fn=grad)


def taylor_green_velocity() -> VectorField:
    """Steady planar cellular field u = (sin x1 cos x2, -cos x1 sin x2, 0)."""

    def val(x, t):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        out[..., 0] = np.sin(x[..., 0]) * np.cos(x[..., 1])
        out[..., 1] = -np.cos(x[..., 0]) * np.sin(x[..., 1])
        return out

    def jac(x, t):
        x = np.asarray(x, float)
        out = np.zeros(x.shape + (3,))
        out[..., 0, 0] = np.cos(x[..., 0]) * np.cos(x[..., 1])
        out[..., 0, 1] = -np.sin(x[..., 0]) * np.sin(x[..., 1])
        out[..., 1, 0] = np.sin(x[..., 0]) * np.sin(x[..., 1])
        out[..., 1, 1] = -np.cos(x[..., 0]) * np.cos(x[..., 1])
        return out

    return VectorField(value=val, jacobian_fn=jac, steady=True)


def taylor_green_pressure() -> ScalarField:
    # (u . grad) u = grad(-(cos 2x1 + cos 2x2)/4) for this velocity, so the
    # balancing pressure is +(cos 2x1 + cos 2x2)/4 at unit density
    def val(x, t):
        cos = [elementwise(math.cos, 2.0 * x[..., i]) for i in (0, 1)]
        return 0.25 * (cos[0] + cos[1])

    def grad(x, t):
        out = np.zeros(np.shape(x))
        out[..., 0] = -0.5 * elementwise(math.sin, 2.0 * x[..., 0])
        out[..., 1] = -0.5 * elementwise(math.sin, 2.0 * x[..., 1])
        return out

    return ScalarField(value=val, gradient_fn=grad)


def material_accelerations(u: VectorField, xs, t, v) -> np.ndarray:
    """du/dt + (u . grad) u at points of shape (..., 3), given v = u(xs, t)."""
    convective = np.einsum("...ij,...j->...i", u.jacobian(xs, t), v)
    if u.steady:
        return convective
    return u.time_derivative(xs, t) + convective


# Fewest labels per concurrently advected chunk; smaller ones gained nothing reliable
_CHUNK_FLOOR = 2048


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def integrate_trajectories(
    u: VectorField,
    grid: LabelGrid,
    t0: float,
    t1: float,
    dt: float,
    periodic: tuple[bool, bool, bool] = (False, False, False),
    domain: Box | None = None,
    order: int = 4,
) -> SampledTrajectoryField:
    """Advect every grid label through u with the classical 4th-order scheme.

    Positions, velocities and material accelerations are stored at every
    step; the stage-1 velocity is the stored one and feeds the acceleration,
    so each step evaluates u four times.  Positions are kept unwrapped so the
    displacement x - a stays a periodic function of the labels for periodic
    fields; for non-periodic fields a ``domain`` box triggers an
    out-of-domain error at the earliest step any trajectory left it.

    Contiguous chunks of the label stack are advected concurrently, one per
    CPU the process may run on but at least ``_CHUNK_FLOOR`` labels each:
    on smaller chunks the thread hand-offs between numpy's many small calls
    eat the second core's gain (measured on abc and taylor-green).  A stack
    evaluates bitwise like its labels one at a time, so the stored arrays do
    not depend on the number of chunks or CPUs.  ``u`` is called from worker
    threads and must not mutate shared state unguarded.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    nsteps = int(round((t1 - t0) / dt))
    if not math.isclose(t0 + nsteps * dt, t1, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError("t1 - t0 must be an integer number of steps")
    times = t0 + dt * np.arange(nsteps + 1)
    nodes = grid.nodes()

    shape = (len(times), len(nodes), 3)
    pos = np.empty(shape)
    vel = np.empty(shape)
    acc = np.empty(shape)

    def advect(lo, hi):
        # RK4 on labels lo:hi; the first step at which one left ``domain``, or None
        xs = nodes[lo:hi].copy()
        for k, t in enumerate(times):
            if domain is not None and not domain.contains(xs):
                return k
            k1 = u(xs, t)
            pos[k, lo:hi] = xs
            vel[k, lo:hi] = k1
            acc[k, lo:hi] = material_accelerations(u, xs, t, k1)
            if k == len(times) - 1:
                break
            k2 = u(xs + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = u(xs + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = u(xs + dt * k3, t + dt)
            xs = xs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return None

    chunks = max(1, min(_usable_cpus(), len(nodes) // _CHUNK_FLOOR))
    bounds = [len(nodes) * i // chunks for i in range(chunks + 1)]
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        futures = [pool.submit(advect, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        escaped = [k for k in (f.result() for f in futures) if k is not None]
    if escaped:
        raise OutOfDomainError(f"trajectory left the velocity domain at t={times[min(escaped)]}")
    pos, vel, acc = (v.reshape(len(times), *grid.shape, 3) for v in (pos, vel, acc))
    return SampledTrajectoryField(grid, times, pos, vel, acc, periodic=periodic, order=order)


def _advected(name, u, p, shape, t0, t1, dt, rho0, order, parameters) -> Fixture:
    """A steady field ``u`` advected on the 2 pi periodic cell (labels = initial
    positions), with the Eulerian pressure ``p`` pulled back to the labels."""
    box = Box((0.0, 0.0, 0.0), (TWO_PI, TWO_PI, TWO_PI))
    grid = LabelGrid.periodic_cell(box, shape)
    fld = integrate_trajectories(u, grid, t0, t1, dt, periodic=(True, True, True), order=order)
    pressure = eulerian_pressure_as_label_field(fld, p)
    spec = FixtureSpec(name, {**parameters, "shape": list(shape), "dt": dt}, box, t0, t1,
                       extremal=True, notes="numerically advected")
    return Fixture(spec, fld, _simple_material(rho0), pressure=pressure)


def make_abc(
    A=1.0,
    B=1.0,
    C=1.0,
    shape=(24, 24, 24),
    t0=0.0,
    t1=1.0,
    dt=0.05,
    rho0=1.0,
    order=4,
) -> Fixture:
    """ABC trajectories on the full periodic box, labels = initial positions."""
    return _advected("abc", abc_velocity(A, B, C), abc_pressure(A, B, C), shape, t0, t1, dt,
                     rho0, order, {"A": A, "B": B, "C": C})


def make_taylor_green(
    shape=(24, 24, 4), t0=0.0, t1=1.0, dt=0.05, rho0=1.0, order=4
) -> Fixture:
    """Taylor-Green cellular trajectories; planar vorticity, zero helicity."""
    return _advected("taylor-green", taylor_green_velocity(), taylor_green_pressure(), shape,
                     t0, t1, dt, rho0, order, {})


def eulerian_pressure_as_label_field(
    field: TrajectoryField, p: ScalarField
) -> ScalarField:
    """p(x(a, t), t) as a label field; grad_a p = G^T grad_x p."""

    def val(a, t):
        return p(field.position(a, t), t)

    def grad(a, t):
        x = field.position(a, t)
        return matvec(np.swapaxes(field.position_gradient(a, t), -1, -2), p.gradient(x, t))

    return ScalarField(value=val, gradient_fn=grad)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

_CATALOG = {
    "identity": make_identity,
    "translation": make_translation,
    "shear": make_shear,
    "rigid-rotation": make_rigid_rotation,
    "dilation": make_dilation,
    "gerstner": make_gerstner,
    "non-euler": make_non_euler,
    "abc": make_abc,
    "taylor-green": make_taylor_green,
}


def fixture_names() -> list[str]:
    return sorted(_CATALOG)


def make_fixture(name: str, **params) -> Fixture:
    """Instantiate a catalog fixture by name with keyword overrides."""
    try:
        maker = _CATALOG[name]
    except KeyError:
        raise VortlabError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    return maker(**params)
