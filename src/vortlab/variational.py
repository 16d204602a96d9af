"""Action functional, mass/momentum residuals and the relabeling machinery.

The action of a configuration x(a, t) over a window [t0, t1] is

    S = integral of (|xdot|^2 / 2 - E(rho) - P(x)) rho J  dV da dt,

with rho J = rho0(a) J(a, t0) frozen by mass conservation, so the integrand
uses rho0 J0 directly and rho = rho0 J0 / J only inside E.

Relabeling displacements delta_a are divergence-free directions, represented
either as the curl of a vector potential or as a cross product of two scalar
gradients.  Perturbed actions are evaluated on the *composed* configuration

    y_eps(a, t) = x(a + eps delta_a(a), t + eps delta_t(t)) + eps delta_x(...),

a genuine trajectory field over the original chart whose gradient picks up
the product-rule factor (I + eps grad delta_a^T); invariance scans, the weak
formulation and the Rund-Trautman split all reuse this one construction.

Every function here evaluates the whole (N, 3) quadrature node stack once per
time under the evaluation protocol of :mod:`vortlab.fields`: material data,
generators, variation triples and the composed configuration take labels
(..., 3).  The Noether flux is evaluated once per time, on one stack of the
12 stencil-shifted copies of the nodes.  The scan and the Rund-Trautman split
reduce one ladder S(0), [S(eps)], evaluated as one stack per time (the nodes
repeated per rung, (R, N, 3)), and the split takes its two braces once; each
brace uses the action's own p = p_eos(rho0 J0 / J).  The action, every ladder
and every brace read x, xdot and G with its checked J through one Frame per
(label stack, time).  Label-only data (delta_a, its Jacobian and rho0 J0) is
evaluated once per label stack, shared by times and rungs; the memo is keyed on
content and owned by the relabeling triple, the bulk brace's EOS pressure field
or the Noether term that reads it.  Each node's term is bitwise equal to a
one-label evaluation, and quadrature sums are reduced by
:func:`~vortlab.fields.exact_sum`, bitwise math.fsum (exactly rounded, so independent
of order): results are deterministic and S(eps) - S(0) is not lost to summation noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import FoldedRelabelingError, NonPositiveDensityError, VortlabError
from .fields import (
    FD_STEP,
    Box,
    LabelGrid,
    ScalarField,
    TrajectoryField,
    VectorField,
    by_time,
    derivative,
    elementwise,
    exact_sum,
    fd_jacobian,
    label_at,
    matvec,
    per_label,
)
from .kinematics import Frame, det3


# ---------------------------------------------------------------------------
# Material data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarotropicEOS:
    """Internal energy per unit mass E(rho) and its derivative.

    The pressure is always derived as p = rho^2 E'(rho).
    """

    energy: Callable[[float], float]
    denergy: Callable[[float], float]
    label: str = "custom"

    def pressure(self, rho):
        return rho * rho * self.denergy(rho)

    @classmethod
    def zero(cls) -> "BarotropicEOS":
        return cls(energy=lambda rho: 0.0 * rho, denergy=lambda rho: 0.0 * rho, label="zero")

    @classmethod
    def polytropic(cls, K, gamma) -> "BarotropicEOS":
        """E = K rho^(gamma-1) / (gamma-1); derived pressure K rho^gamma.

        Integer gamma with Fraction inputs stays exact.
        """
        if gamma == 1:
            raise VortlabError("polytropic exponent gamma must differ from 1")

        def power(rho, n):
            # libm pow on a float stack too, so it rounds like one density at a time
            if isinstance(rho, np.ndarray) and rho.dtype != object:
                return elementwise(pow, rho, n)
            return rho ** n

        def energy(rho):
            return K * power(rho, gamma - 1) / (gamma - 1)

        def denergy(rho):
            return K * power(rho, gamma - 2)

        return cls(energy=energy, denergy=denergy, label=f"polytropic(K={K}, gamma={gamma})")


def _reject(bad, values, a, what: str, error=NonPositiveDensityError, t=None):
    """Raise ``error`` naming the first label of ``a`` (one label or a stack)
    where ``bad`` holds, with ``values`` there, and its time of ``t`` (a scalar
    or per-label times), if given."""
    flags = np.ravel(bad)
    if flags.any():
        k = int(np.argmax(flags))
        raise error(f"{what} = {np.ravel(values)[k]} at {label_at(a, k, t)}")


def _per_stack(fn):
    """The label-only function ``fn``, evaluated once per distinct label stack:
    keyed on the stack's shape and bytes (not its identity), values read-only;
    a stack repeated along a broadcast leading axis (a ladder's rungs) is read once."""
    memo = {}

    def cached(a):
        a = np.asarray(a, float)
        stack = a[0] if a.ndim > 2 and a.strides[0] == 0 else a
        key = (stack.shape, stack.tobytes())
        if key not in memo:
            memo[key] = np.asarray(fn(stack))
            memo[key].flags.writeable = False
        value = memo[key]
        return value if stack is a else np.broadcast_to(value, a.shape[:1] + value.shape)

    return cached


@dataclass(frozen=True)
class FlowMaterial:
    """Initial density, barotropic EOS and external conservative potential."""

    rho0: ScalarField
    eos: BarotropicEOS
    potential: ScalarField

    def initial_density(self, a):
        """rho0 at one label or at every label of a stack (..., 3)."""
        rho = self.rho0(a, 0.0)
        _reject(np.asarray(rho, float) <= 0.0, rho, a, "rho0")
        return rho


# ---------------------------------------------------------------------------
# Mass and momentum
# ---------------------------------------------------------------------------


def mass_reference(field, material, a, frame0: Frame | None = None):
    """rho0 J0 at labels ``a``, J0 taken at the field's own t0 (from ``frame0``, if given)."""
    rho0 = np.asarray(material.initial_density(a), float)
    return rho0 * (frame0 or Frame(field, a, field.t0)).det


def density_from_map(frame: Frame, rho0j0):
    """rho = rho0 J0 / J on a frame's labels, given rho0 J0 there (:func:`mass_reference`);
    raises where it is not positive."""
    rho = rho0j0 / frame.det
    _reject(rho <= 0.0, rho, frame.labels, "density", t=frame.t)
    return rho


def momentum_residual(frame: Frame, material: FlowMaterial, pressure: ScalarField, rho0j0):
    """rho0 J0 (xddot + grad_x P) + cof(G) grad_a p on a frame's labels, given rho0 J0
    there; zero on extremal flows."""
    x = frame.read("position")
    body = frame.read("acceleration") + material.potential.gradient(x, frame.t)
    grad_p = pressure.gradient(frame.labels, frame.t)
    return np.expand_dims(rho0j0, -1) * body + matvec(frame.cof, grad_p)


def pressure_from_eos(field: TrajectoryField, material: FlowMaterial) -> ScalarField:
    """p(a, t) = p_eos(rho0 J0 / J(a, t)) as a label field (FD gradient), the
    density of :func:`density_from_map` with rho0 J0 taken once per label stack."""
    rho0j0 = _per_stack(lambda a: mass_reference(field, material, a))

    def val(a, t):
        rho = density_from_map(Frame(field, a, t), rho0j0(a))
        return np.asarray(material.eos.pressure(rho), float)[()]

    return ScalarField(value=val)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeQuadrature:
    """Tensor quadrature: label-space nodes x weights and a time rule."""

    space_nodes: np.ndarray
    space_weights: np.ndarray
    time_nodes: np.ndarray
    time_weights: np.ndarray
    window: tuple[float, float]
    label: str = "custom"

    @classmethod
    def midpoint(cls, box: Box, shape, window, nt: int) -> "SpaceTimeQuadrature":
        grid = LabelGrid.cell_centers(box, shape)
        nodes = grid.nodes()
        weights = np.full(len(nodes), grid.cell_volume)
        t0, t1 = window
        ht = (t1 - t0) / nt
        times = t0 + ht * (np.arange(nt) + 0.5)
        return cls(nodes, weights, times, np.full(nt, ht), (float(t0), float(t1)),
                   label="midpoint")

    @classmethod
    def gauss(cls, box: Box, orders, window, nt: int) -> "SpaceTimeQuadrature":
        """Tensor Gauss-Legendre; exact for smooth integrands at low cost."""
        rule = functools.cache(np.polynomial.legendre.leggauss)  # once per distinct order
        pts, wts = [], []
        for lo, hi, n in zip(box.lo, box.hi, orders):
            x, w = rule(n)
            pts.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            wts.append(0.5 * (hi - lo) * w)
        g1, g2, g3 = np.meshgrid(*pts, indexing="ij")
        nodes = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=-1)
        w1, w2, w3 = np.meshgrid(*wts, indexing="ij")
        weights = (w1 * w2 * w3).ravel()
        t0, t1 = window
        xt, wt = rule(nt)
        times = 0.5 * (t1 - t0) * xt + 0.5 * (t1 + t0)
        tweights = 0.5 * (t1 - t0) * wt
        return cls(nodes, weights, times, tweights, (float(t0), float(t1)), label="gauss")


# ---------------------------------------------------------------------------
# Action
# ---------------------------------------------------------------------------


def _lagrangian_density(frame: Frame, material, rho0j0):
    """(|v|^2/2 - E(rho) - P(x)) rho0 J0 on a frame's labels, rho from :func:`density_from_map`."""
    v = frame.read("velocity")
    kinetic = 0.5 * np.vecdot(v, v)
    energy = np.asarray(material.eos.energy(density_from_map(frame, rho0j0)), float)
    potential = np.asarray(material.potential(frame.read("position"), frame.t), float)
    return (kinetic - energy - potential) * rho0j0


def action(
    field: TrajectoryField,
    material: FlowMaterial,
    quad: SpaceTimeQuadrature,
) -> float:
    """The action of the configuration over the quadrature's window.

    The mass reference rho0 J0 is frozen at the field's own t0, so deformed
    configurations are referenced consistently with their base.
    """
    return _actions(field, material, quad, quad.space_nodes)[0]


def _actions(field, material, quad, labels) -> list[float]:
    """[S] on the nodes (N, 3), or one exactly summed S per rung of a ladder's nodes (R, N, 3)."""
    rho0j0 = mass_reference(field, material, quad.space_nodes, Frame(field, labels, field.t0))
    w = quad.space_weights
    terms = [wt * w * _lagrangian_density(Frame(field, labels, t), material, rho0j0)
             for t, wt in zip(quad.time_nodes, quad.time_weights)]
    return [exact_sum(row) for row in np.atleast_2d(np.concatenate(terms, -1))]


# ---------------------------------------------------------------------------
# Relabeling generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelabelGenerator:
    """A relabeling direction delta_a(a), divergence-free by construction.

    ``field`` is delta_a as a vector field over labels, read at t = 0.
    ``potential`` (the vector field whose curl is delta_a) is retained when
    available because the weak-form pairing integrates against it.
    """

    field: VectorField
    potential: VectorField | None = None
    label: str = "custom"

    def delta_a(self, a) -> np.ndarray:
        return self.field(a, 0.0)

    def jacobian(self, a) -> np.ndarray:
        """D[..., i, j] = d(delta_a_i)/da_j."""
        return self.field.jacobian(a, 0.0)

    @classmethod
    def from_curl(cls, potential: VectorField, label="curl") -> "RelabelGenerator":
        return cls(VectorField(value=potential.curl), potential=potential, label=label)


def _bump1d(s):
    # C-infinity bump on (-1, 1), elementwise; libm exp, as for one label
    out = np.zeros(np.shape(s))
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = elementwise(math.exp, -1.0 / (1.0 - si * si)) * math.e
    return out


def _bump1d_deriv(s, bump):
    """d/ds of the bump at ``s`` from its values ``bump`` = _bump1d(s) there."""
    out = np.zeros(np.shape(s))
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = bump[inside] * (-2.0 * si / elementwise(pow, 1.0 - si * si, 2))
    return out


def _separable_potential(values, slopes) -> VectorField:
    """Vector potential (0, 0, f1(a1) f2(a2) f3(a3)) from the per-axis values
    ``values(a)`` = [f_i] and derivatives ``slopes(a, f)`` = [f_i'], given the
    values f just computed; each product is taken in axis order."""

    def val(a, t):
        f = values(a)
        out = np.zeros(np.shape(a))
        out[..., 2] = f[0] * f[1] * f[2]
        return out

    def jac(a, t):
        f = values(a)
        df = slopes(a, f)
        out = np.zeros(np.shape(a) + (3,))
        out[..., 2, 0] = df[0] * f[1] * f[2]
        out[..., 2, 1] = f[0] * df[1] * f[2]
        out[..., 2, 2] = f[0] * f[1] * df[2]
        return out

    return VectorField(value=val, jacobian_fn=jac)


def bump_potential(box: Box, margin: float = 0.05) -> VectorField:
    """Compactly supported vector potential (0, 0, prod_i bump_i(a_i)); it vanishes
    with all derivatives ``margin`` * L_i before each box face."""
    lo = np.asarray(box.lo, float)
    hi = np.asarray(box.hi, float)
    c = 0.5 * (lo + hi)
    half = (0.5 - margin) * (hi - lo)

    def values(a):
        s = (a - c) / half
        return [_bump1d(s[..., i]) for i in range(3)]

    def slopes(a, f):
        s = (a - c) / half
        return [_bump1d_deriv(s[..., i], f[i]) / half[i] for i in range(3)]

    return _separable_potential(values, slopes)


def sine_potential(box: Box, exponents=(0, 0, 0)) -> VectorField:
    """Periodic vector potential (0, 0, psi) vanishing on every box face.

    psi = prod a_i^{e_i} sin(2 pi (a_i - lo_i) / L_i), one period per axis.
    The optional monomial modulation breaks full-period orthogonality
    against polynomial integrands while keeping psi (hence delta_R) zero on
    all faces, which is what drops the weak-form divergence term.
    """
    lo = np.asarray(box.lo, float)
    L = box.extent
    k = [2.0 * math.pi / L[i] for i in range(3)]

    def mono(a, i):
        return elementwise(pow, a[..., i], exponents[i]) if exponents[i] else 1.0

    def values(a):
        return [mono(a, i) * elementwise(math.sin, k[i] * (a[..., i] - lo[i])) for i in range(3)]

    def slopes(a, f):
        ders = []
        for i, e in enumerate(exponents):
            ph = k[i] * (a[..., i] - lo[i])
            dmono = e * elementwise(pow, a[..., i], e - 1) if e else 0.0
            ders.append(dmono * elementwise(math.sin, ph)
                        + mono(a, i) * k[i] * elementwise(math.cos, ph))
        return ders

    return _separable_potential(values, slopes)


# ---------------------------------------------------------------------------
# Variation triples and the composed configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationTriple:
    """Evaluable (delta_t, delta_a, delta_x) direction.

    Supported shapes: delta_t = delta_t(t), delta_a = delta_a(a) (a vector
    field over labels, read at t = 0) and delta_x = delta_x(a, t); that
    covers relabelings, time translations and direct field variations.  A
    direction left None is zero.
    """

    delta_t: Callable[[float], float] | None = None
    delta_t_rate: Callable[[float], float] | None = None
    delta_a: VectorField | None = None
    delta_x: VectorField | None = None
    label: str = "custom"

    def dt(self, t) -> float:
        return 0.0 if self.delta_t is None else float(self.delta_t(t))

    def dt_rate(self, t) -> float:
        if self.delta_t is None:
            return 0.0
        if self.delta_t_rate is not None:
            return float(self.delta_t_rate(t))
        return derivative(lambda s: self.delta_t(t + s), FD_STEP)

    @staticmethod
    def _zeros(a, tail):
        return np.zeros(np.shape(a)[:-1] + tail)

    def da(self, a) -> np.ndarray:
        return self._zeros(a, (3,)) if self.delta_a is None else self.delta_a(a, 0.0)

    def da_jac(self, a) -> np.ndarray:
        return self._zeros(a, (3, 3)) if self.delta_a is None else self.delta_a.jacobian(a, 0.0)

    def dx(self, a, t) -> np.ndarray:
        return self._zeros(a, (3,)) if self.delta_x is None else self.delta_x(a, t)

    def dx_jac(self, a, t) -> np.ndarray:
        return self._zeros(a, (3, 3)) if self.delta_x is None else self.delta_x.jacobian(a, t)

    def dx_dot(self, a, t) -> np.ndarray:
        return self._zeros(a, (3,)) if self.delta_x is None else self.delta_x.time_derivative(a, t)

    @classmethod
    def relabeling(cls, gen: RelabelGenerator) -> "VariationTriple":
        # delta_a and its Jacobian depend on the labels only: once per stack
        da, jac = _per_stack(gen.delta_a), _per_stack(gen.jacobian)
        delta_a = VectorField(value=lambda a, t: da(a), jacobian_fn=lambda a, t: jac(a))
        return cls(delta_a=delta_a, label=f"relabeling[{gen.label}]")


def local_variation_of_triple(frame: Frame, var: VariationTriple) -> np.ndarray:
    """delta-bar x = delta_x - xdot delta_t - (delta_a . grad_a) x on a frame's labels."""
    a, t = frame.labels, frame.t
    return var.dx(a, t) - frame.read("velocity") * var.dt(t) - matvec(frame.matrix, var.da(a))


class DeformedTrajectoryField(TrajectoryField):
    """The composed configuration y(a, t) = x(a~, t~) + eps delta_x(a~, t~).

    Only the pieces the action needs are implemented (position, velocity,
    position gradient), for labels (..., 3) like the other backends;
    gradients carry the product-rule factor (I + eps grad delta_a^T).  A fold
    of the label chart (non-positive det(I + eps D delta_a)) raises immediately.
    A ladder ``eps`` of R amplitudes takes labels (R, ..., 3), rung r at eps[r];
    the rungs that share a chart time t~ read the base together.  Times are
    one scalar t per call: per-label times raise TypeError.
    """

    backend = "deformed"

    def __init__(self, base: TrajectoryField, var: VariationTriple, eps):
        super().__init__(base.box, base.t0, base.t1, base.order)
        self.base = base
        self.var = var
        self.eps = np.asarray(eps, float)

    def _rungs(self, a):
        """Labels with a rung axis (one amplitude: a ladder of one), eps shaped to scale them."""
        a = np.asarray(a, float)
        a = a if self.eps.ndim else a[None]
        return a, self.eps.reshape((-1,) + (1,) * (a.ndim - 1))

    def _rung_chart(self, a):
        """I + eps D delta_a at labels ``a``, rung axis leading."""
        a, eps = self._rungs(a)
        return np.eye(3) + eps[..., None] * self.var.da_jac(a)

    def _on_chart(self, a, t, fn):
        """fn(rungs, eps, a~, t~) on each mask ``rungs`` of rungs sharing a chart time t~."""
        if per_label(t):
            raise TypeError(f"the {self.backend} backend takes one time t, not per-label times")
        a, eps = self._rungs(a)
        at = a + eps * self.var.da(a)
        tt = t + self.eps.reshape(-1) * self.var.dt(t)
        out = by_time(tt, lambda rungs, s: fn(rungs, eps[rungs], at[rungs], s))
        return out if self.eps.ndim else out[0]

    def fold_factor(self, a):
        """det(I + eps D delta_a) at labels ``a``; raises FoldedRelabelingError
        at the first label (of the first rung) where it is not positive."""
        det = det3(self._rung_chart(a))
        _reject(det <= 0.0, det, a, "relabeling folds the domain: det", FoldedRelabelingError)
        return det if self.eps.ndim else det[0]

    def position(self, a, t):
        return self._on_chart(a, t, lambda r, eps, at, tt: (
            self.base.position(at, tt) + eps * self.var.dx(at, tt)))

    def velocity(self, a, t):
        return self._on_chart(a, t, lambda r, eps, at, tt: (
            (1.0 + eps * self.var.dt_rate(t))
            * (self.base.velocity(at, tt) + eps * self.var.dx_dot(at, tt))))

    def position_gradient(self, a, t):
        chart = self._rung_chart(a)
        return self._on_chart(a, t, lambda r, eps, at, tt: (
            (self.base.position_gradient(at, tt) + eps[..., None] * self.var.dx_jac(at, tt))
            @ chart[r]))


# ---------------------------------------------------------------------------
# Relabeling invariance scan
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    eps: list[float]
    deviation: list[float]
    slope: float | None
    max_divergence: float
    base_action: float
    symmetric: bool
    metadata: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


SLOPE_FLOOR = 1e-14
SLOPE_THRESHOLD = 1.9


def fit_loglog_slope(xs, ys, floor: float = SLOPE_FLOOR) -> float | None:
    """Least-squares slope of log y against log x; None when y sits at the
    rounding floor everywhere (nothing to fit)."""
    xs = [float(x) for x in xs]
    ys = [abs(float(y)) for y in ys]
    kept = [(x, y) for x, y in zip(xs, ys) if y > floor]
    if len(kept) < 2:
        return None
    lx = np.log([x for x, _ in kept])
    ly = np.log([y for _, y in kept])
    return float(np.polyfit(lx, ly, 1)[0])


DEFAULT_EPS_LADDER = (1e-2, 3e-3, 1e-3, 3e-4)


def action_ladder(field, material, var, quad, eps_list, s0=None):
    """S(0) (unless given) and [S(eps)] of one triple on one quadrature: one composed
    configuration over the nodes repeated per rung (R, N, 3), one Frame per time for
    all rungs, every rung's chart checked for folds before the actions are evaluated."""
    s0 = action(field, material, quad) if s0 is None else s0
    nodes = quad.space_nodes
    labels = np.broadcast_to(nodes, (len(eps_list),) + nodes.shape)
    deformed = DeformedTrajectoryField(field, var, eps_list)
    deformed.fold_factor(labels)
    return s0, _actions(deformed, material, quad, labels)


def relabeling_invariance_scan(gen: RelabelGenerator, var: VariationTriple,
                               quad: SpaceTimeQuadrature, eps_list, s0, rungs) -> ScanResult:
    """|S(eps) - S(0)| ladder for a relabeling direction ``gen``, read off the ladder
    S(0), [S(eps)] that :func:`action_ladder` built on its relabeling triple ``var``.

    S(eps) is the action of the composed configuration on the same
    quadrature.  A divergence-free generator leaves no first-order term, so
    the fitted log-log slope is ~2 (or better, symmetric at SLOPE_THRESHOLD);
    a divergent generator is flagged by its ~1 slope.  The divergence of delta_a
    is read from ``var``, whose per-stack memo the ladder filled on the nodes.
    """
    deltas = [abs(s - s0) for s in rungs]
    max_div = float(np.max(np.abs(var.delta_a.divergence(quad.space_nodes, 0.0))))
    slope = fit_loglog_slope(eps_list, deltas, floor=max(abs(s0), 1.0) * 1e-14)
    return ScanResult(eps=[float(e) for e in eps_list], deviation=deltas, slope=slope,
                      max_divergence=max_div, base_action=s0,
                      symmetric=slope is None or slope >= SLOPE_THRESHOLD,
                      metadata={"generator": gen.label, "quadrature": quad.label})


# ---------------------------------------------------------------------------
# Weak formulation and the Rund-Trautman split
# ---------------------------------------------------------------------------


def weak_form_integral(
    field: TrajectoryField,
    material: FlowMaterial,
    gen: RelabelGenerator,
    quad: SpaceTimeQuadrature,
    pressure: ScalarField,
) -> tuple[float, float]:
    """Both sides of the weak-form pairing for a relabeling direction.

    lhs: momentum residual under ``pressure`` dotted with the local variation -G delta_a.
    rhs: -(rho0 J0) curl_a(dV/dt) dotted with the vector potential delta_R
    (the divergence term is dropped; use a potential that vanishes on the
    boundary, has compact support, or a periodic domain).
    """
    if gen.potential is None:
        raise VortlabError("weak_form_integral needs a curl-form generator (vector potential)")
    nodes, wa = quad.space_nodes, quad.space_weights
    rho0j0 = mass_reference(field, material, nodes)
    da = gen.delta_a(nodes)
    dR = np.asarray(gen.potential(nodes, 0.0), float)
    lhs_terms, rhs_terms = [], []
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        w = wa * wt
        frame = Frame(field, nodes, t)
        res = momentum_residual(frame, material, pressure, rho0j0)
        lhs_terms.append(w * np.vecdot(res, -matvec(frame.matrix, da)))
        # the Cauchy residual curl_a(G^T xddot) on the same G
        rhs_terms.append(-w * rho0j0 * np.vecdot(frame.cauchy, dR))
    return exact_sum(np.concatenate(lhs_terms)), exact_sum(np.concatenate(rhs_terms))


def rund_trautman_check(s0, rungs, eps_list, el, bd) -> list[tuple[float, float, float]]:
    """(total, el_part, bd_part) of the fundamental variational split, one row per rung
    of the ladder S(0), [S(eps)] of :func:`action_ladder`, given the two braces ``el``
    (:func:`el_part`) and ``bd`` (:func:`noether_boundary_term`) of the same triple.

    total: finite difference (S(eps) - S(0)) / eps of the action under the
    composed configuration.  el_part: bulk Euler-Lagrange pairing with the
    local variation.  bd_part: time-endpoint terms plus the space-divergence
    quadrature.  The identity total = el_part + bd_part holds to O(eps) plus
    quadrature error.

    S(0), el_part and bd_part do not depend on eps and are taken once for the
    whole ladder, which the scan reduces too (folds are checked per rung);
    ``vortlab action`` evaluates it once for both.

    Both braces use the action's own stress p = rho^2 E'(rho) at
    rho = rho0 J0 / J (:func:`el_part`, :func:`noether_boundary_term`); any
    other pressure, such as a momentum-balancing one, breaks the identity.
    """
    return [((s - s0) / e, el, bd) for s, e in zip(rungs, eps_list)]


def el_part(
    field: TrajectoryField,
    material: FlowMaterial,
    var: VariationTriple,
    quad: SpaceTimeQuadrature,
) -> float:
    """Bulk brace of the variational formula: -(momentum residual) . delta-bar x, with
    the FD-differentiated :func:`pressure_from_eos`; cof(G) and delta-bar x share one G."""
    pressure = pressure_from_eos(field, material)
    nodes, wa = quad.space_nodes, quad.space_weights
    rho0j0 = mass_reference(field, material, nodes)
    terms = []
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        frame = Frame(field, nodes, t)
        res = momentum_residual(frame, material, pressure, rho0j0)
        dbar = local_variation_of_triple(frame, var)
        terms.append(-wa * wt * np.vecdot(res, dbar))
    return exact_sum(np.concatenate(terms))


def noether_boundary_term(
    field: TrajectoryField,
    material: FlowMaterial,
    var: VariationTriple,
    quad: SpaceTimeQuadrature,
) -> float:
    """Boundary brace: time-endpoint spatial quadratures at the window ends
    plus the space-time quadrature of the divergence of the Noether flux

        w_j = L delta_a_j + p (cof^T delta-bar x)_j ,   p = p_eos(rho0 J0 / J).

    The flux is evaluated once per time, on one stack of the 12
    stencil-shifted copies of the nodes (order 4); rho0 J0 does not depend on
    time and is taken once for that stack.  L, delta-bar x, cof(G) and p share
    one G per time.
    """
    t_lo, t_hi = quad.window
    nodes, wa = quad.space_nodes, quad.space_weights
    rho0j0 = _per_stack(lambda b: mass_reference(field, material, b))

    def endpoint_integrand(t):
        frame, rj = Frame(field, nodes, t), rho0j0(nodes)
        dbar = local_variation_of_triple(frame, var)
        return (_lagrangian_density(frame, material, rj) * var.dt(t)
                + rj * np.vecdot(frame.read("velocity"), dbar))

    endpoint = exact_sum(wa * (endpoint_integrand(t_hi) - endpoint_integrand(t_lo)))
    div_step = 1e-3 * min(field.box.extent)

    def flux(b, t):
        frame, rj = Frame(field, b, t), rho0j0(b)
        L = _lagrangian_density(frame, material, rj)
        p = np.asarray(material.eos.pressure(rj / frame.det), float)
        dbar = local_variation_of_triple(frame, var)
        cof_t = np.swapaxes(frame.cof, -1, -2)
        return L[..., None] * var.da(b) + p[..., None] * matvec(cof_t, dbar)

    div_terms = []
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        d = fd_jacobian(lambda b: flux(b, t), nodes, div_step, 4)
        div_terms.append(wa * wt * (d[..., 0, 0] + d[..., 1, 1] + d[..., 2, 2]))
    return endpoint + exact_sum(np.concatenate(div_terms))
