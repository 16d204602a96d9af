"""Fixture catalog of exact and numerically advected flows.

Every fixture bundles a trajectory field with the material data (initial
density, equation of state, external potential) and, when known, the analytic
pressure that makes the extremal fixtures solve the momentum balance exactly.
Analytic fixtures carry hand-derived gradients so no finite differencing
enters their diagnostics.

For advected flows the labels are the initial positions, so G(a, t0) = I and
the initial density is the initial Eulerian density.  The integrator is the
classical one-step 4th-order scheme, and it stores positions alone;
velocities come from the generating field and accelerations from du/dt +
(u . grad) u along the path, so sampled fields carry exact-in-time
derivative data at the nodes; both are computed when read, on the nodes the
read touches.
"""

from __future__ import annotations

import contextvars
import inspect
import math
import numbers
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import VortlabError
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


def _const(c):
    c = np.asarray(c, float)
    return lambda a, t: c.copy()


_ZERO3 = _const(np.zeros(3))
_ZERO33 = _const(np.zeros((3, 3)))
_EYE3 = _const(np.eye(3))


def _simple_material(rho0: float = 1.0, gravity: float | None = None) -> FlowMaterial:
    """Constant rho0, no internal energy, and uniform gravity along x3 if ``gravity`` is given."""
    potential = ScalarField.constant(0.0) if gravity is None else gravity_potential(gravity)
    return FlowMaterial(rho0=ScalarField.constant(rho0), eos=BarotropicEOS.zero(),
                        potential=potential)


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
        velocity=_const(cv),
        acceleration=_ZERO3,
        position_gradient=_EYE3,
        velocity_gradient=_ZERO33,
        acceleration_gradient=_ZERO33,
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
        velocity_gradient=_const([[0.0, k, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        acceleration_gradient=_ZERO33,
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
        box=box,
        t0=t0,
        t1=t1,
    )
    g = float(gravity)
    material = _simple_material(rho0, g)
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
        box=box,
        t0=t0,
        t1=t1,
    )
    material = _simple_material(rho0, float(gravity))
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

    def orbit(a, t):
        """exp(k a3) and the cosine and sine of the phase k (a1 + c (t - t0))."""
        ph = k * (a[..., 0] + c * (t - t0))
        return np.exp(k * a[..., 2]), np.cos(ph), np.sin(ph)

    def pos(a, t):
        E, cs, sn = orbit(a, t)
        x = a.copy()
        x[..., 0] -= E / k * sn
        x[..., 2] += E / k * cs
        return x

    def vel(a, t):
        E, cs, sn = orbit(a, t)
        v = np.zeros_like(a)
        v[..., 0] = -c * E * cs
        v[..., 2] = -c * E * sn
        return v

    def acc(a, t):
        E, cs, sn = orbit(a, t)
        w = np.zeros_like(a)
        w[..., 0] = g * E * sn
        w[..., 2] = -g * E * cs
        return w

    def xz_block(a, diag, xx, xz, zz):
        """(..., 3, 3) matrix with the given x-z block and ``diag`` at [1, 1]."""
        m = np.zeros(a.shape + (3,))
        m[..., 0, 0], m[..., 0, 2], m[..., 1, 1] = xx, xz, diag
        m[..., 2, 0], m[..., 2, 2] = xz, zz
        return m

    def grad(a, t):
        E, cs, sn = orbit(a, t)
        return xz_block(a, 1.0, 1.0 - E * cs, -E * sn, 1.0 + E * cs)

    def vgrad(a, t):
        E, cs, sn = orbit(a, t)
        kc = k * c
        return xz_block(a, 0.0, kc * E * sn, -kc * E * cs, -kc * E * sn)

    def agrad(a, t):
        E, cs, sn = orbit(a, t)
        kg = k * g
        return xz_block(a, 0.0, kg * E * cs, kg * E * sn, -kg * E * cs)

    fld = AnalyticTrajectoryField(
        position=pos,
        velocity=vel,
        acceleration=acc,
        position_gradient=grad,
        velocity_gradient=vgrad,
        acceleration_gradient=agrad,
        box=box,
        t0=t0,
        t1=t1,
    )
    material = _simple_material(rho0, g)
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


class _Advection:
    """The classical RK4 run of a label stack on one daemon thread, which the first
    :meth:`stamp` starts, in the context that was current when the run was set up.  Each
    stored stamp is published under a condition, so a read of stamp k waits for stamp k
    alone.  The thread holds no reference to the field it feeds, and it stops at its next
    step once :attr:`cancel` is set."""

    def __init__(self, u: VectorField, nodes: np.ndarray, times: np.ndarray, dt: float,
                 every: int, out: np.ndarray):
        self._run_args = (u, nodes, times, dt, every)
        self._out = out
        # the build's context, so a caller's np.errstate holds on the thread too
        self._context = contextvars.copy_context()
        self._stored = 0  # stamps written so far
        self._error: BaseException | None = None
        self._changed = threading.Condition()
        self._thread: threading.Thread | None = None
        self.cancel = threading.Event()

    def stamp(self, k: int) -> np.ndarray:
        """(n1, n2, n3, 3) positions at stamp ``k`` once stored, or the thread's exception if
        it failed before storing them."""
        k = range(len(self._out))[k]  # as the array indexes: from the end if negative
        with self._changed:
            if self._thread is None:
                self._thread = threading.Thread(target=self._context.run, args=(self._run,),
                                                name="vortlab-advect", daemon=True)
                self._thread.start()
            while self._stored <= k and self._error is None:
                self._changed.wait()
            if self._stored <= k:
                raise self._error
        return self._out[k]

    def _run(self):
        u, xs, times, dt, every = self._run_args
        out = self._out.reshape(len(self._out), -1, 3)  # one row per label
        try:
            for k, t in enumerate(times):
                if self.cancel.is_set():
                    return
                if k % every == 0:
                    out[k // every] = xs
                    with self._changed:
                        self._stored += 1
                        self._changed.notify_all()
                if k == len(times) - 1:
                    break
                k1 = u(xs, t)
                k2 = u(xs + 0.5 * dt * k1, t + 0.5 * dt)
                k3 = u(xs + 0.5 * dt * k2, t + 0.5 * dt)
                k4 = u(xs + dt * k3, t + dt)
                xs = xs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except BaseException as exc:  # every kind: no read may wait for a stamp never stored
            with self._changed:
                self._error = exc  # raised by each read past the failed step
                self._changed.notify_all()


def integrate_trajectories(
    u: VectorField,
    grid: LabelGrid,
    t0: float,
    t1: float,
    dt: float,
    periodic: tuple[bool, bool, bool] = (False, False, False),
    order: int = 4,
    every: int = 1,
) -> SampledTrajectoryField:
    """Advect every grid label through u with the classical 4th-order scheme.

    Every step is taken and evaluates u four times, but positions are
    stored only at steps 0, every, 2 every, ..., the last: the field's
    ladder is ``times[::every]`` of the every-step ladder, the same floats,
    and a stride that does not divide the step count raises ValueError.
    Velocities u(x_k, t_k), bitwise the steps' stage-1 values, and
    accelerations by :func:`material_accelerations` are computed when read,
    on the nodes the read touches, from the positions and velocities the
    field hands them, and are not kept.  Positions are kept unwrapped so the
    displacement x - a stays a periodic function of the labels for periodic
    fields.

    The whole label stack is advected on one daemon thread, started by the
    field's first read, never here; it runs in a copy of the caller's
    context, so an np.errstate around this call holds there.  A read of
    stamp k waits until stamp k is stored, so the reads of early stamps run
    while later ones integrate; a whole-array read (``positions``,
    ``save_grid``) waits for every stamp.  An exception of ``u`` on the thread
    is raised, unchanged, by every read of a stamp past the step that failed.
    The thread stops at its next step once the field is collected.  ``u`` is
    called from the thread and from the field's reads at the same time, and
    must not mutate shared state unguarded.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    nsteps = int(round((t1 - t0) / dt))
    if not math.isclose(t0 + nsteps * dt, t1, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError("t1 - t0 must be an integer number of steps")
    if every < 1 or nsteps % every:
        raise ValueError(f"store stride {every} does not divide the {nsteps} steps")
    times = t0 + dt * np.arange(nsteps + 1)
    stamps = times[::every]
    run = _Advection(u, grid.nodes(), times, dt, every,
                     np.empty((len(stamps), *grid.shape, 3)))

    def positions(k, at, _):
        return run.stamp(k)[at]

    field = SampledTrajectoryField(
        grid, stamps, positions, lambda k, at, x: u(x, stamps[k]),
        lambda k, at, v: material_accelerations(u, positions(k, at, None), stamps[k], v),
        periodic=periodic, order=order)
    weakref.finalize(field, run.cancel.set)
    return field


# the Eulerian velocity of each advected fixture, by name, built from its recorded parameters
ADVECTED = {"abc": abc_velocity, "taylor-green": taylor_green_velocity}


def _advected(name, p, shape, t0, t1, dt, rho0, order, parameters) -> Fixture:
    """The steady field ``ADVECTED[name](**parameters)`` advected on the 2 pi periodic cell
    (labels = initial positions), with the Eulerian pressure ``p`` pulled back to the labels."""
    box = Box((0.0, 0.0, 0.0), (TWO_PI, TWO_PI, TWO_PI))
    grid = LabelGrid.periodic_cell(box, shape)
    fld = integrate_trajectories(ADVECTED[name](**parameters), grid, t0, t1, dt,
                                 periodic=(True, True, True), order=order)
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
    return _advected("abc", abc_pressure(A, B, C), shape, t0, t1, dt, rho0, order,
                     {"A": A, "B": B, "C": C})


def make_taylor_green(
    shape=(24, 24, 4), t0=0.0, t1=1.0, dt=0.05, rho0=1.0, order=4
) -> Fixture:
    """Taylor-Green cellular trajectories; planar vorticity, zero helicity."""
    return _advected("taylor-green", taylor_green_pressure(), shape, t0, t1, dt, rho0, order,
                     {})


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
    """Instantiate a catalog fixture by name with keyword overrides, each of its
    default's kind: a Box for ``box``, as many numbers as a tuple default, else a number."""
    try:
        maker = _CATALOG[name]
    except KeyError:
        raise VortlabError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    # the signature is read only for overrides: it costs twice a default build
    defaults = inspect.signature(maker).parameters if params else {}
    for key, value in params.items():
        if key not in defaults:
            continue  # the maker's TypeError names it
        default = defaults[key].default
        if key == "box":
            ok, want = isinstance(value, Box), "a Box"
        elif isinstance(default, tuple):
            ok = (isinstance(value, (tuple, list)) and len(value) == len(default)
                  and all(isinstance(v, numbers.Real) for v in value))
            want = f"{len(default)} numbers"
        else:
            ok, want = isinstance(value, numbers.Real), "a number"
        if not ok:
            raise VortlabError(f"fixture {name!r}: {key} wants {want}, got {value!r}")
    return maker(**params)
