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
12 stencil-shifted copies of the nodes, and the Rund-Trautman split computes
S(0), the bulk and the boundary brace once for a whole eps ladder; each
brace uses the action's own p = p_eos(rho0 J0 / J) and reads G once per
(label stack, time).  Label-only data (delta_a, its Jacobian and rho0 J0) is
evaluated once per label stack and reused across times and eps rungs; the
memo is keyed on the stack's content and owned by the relabeling triple, the
bulk brace's EOS pressure field or the Noether term that reads it.  Each
node's term is bitwise equal to a one-label evaluation, and quadrature sums
are accumulated with math.fsum (exactly rounded, so independent of order):
results are deterministic and S(eps) - S(0) is not lost to summation noise.
"""

from __future__ import annotations

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
    derivative,
    elementwise,
    fd_jacobian,
    matvec,
)
from .invariants import _curl_image, _position_stack
from .kinematics import cof3, det3


# ---------------------------------------------------------------------------
# Material data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarotropicEOS:
    """Internal energy per unit mass E(rho) and its derivative.

    The pressure is always derived as p = rho^2 E'(rho); an independently
    supplied pressure law can be checked against it.
    """

    energy: Callable[[float], float]
    denergy: Callable[[float], float]
    label: str = "custom"

    def pressure(self, rho):
        return rho * rho * self.denergy(rho)

    def check_pressure(self, p_fn: Callable[[float], float], rhos):
        """Max relative mismatch between the derived and supplied pressure (<= 1e-12)."""
        worst = 0.0
        for rho in rhos:
            derived = self.pressure(rho)
            supplied = p_fn(rho)
            scale = max(abs(float(derived)), abs(float(supplied)), 1e-300)
            worst = max(worst, abs(float(derived - supplied)) / scale)
        if worst > 1e-12:
            raise VortlabError(f"EOS pressure mismatch {worst:.3e} exceeds rtol 1.0e-12")
        return worst

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
    where ``bad`` holds, with ``values`` there."""
    flags = np.ravel(bad)
    if flags.any():
        k = int(np.argmax(flags))
        label = tuple(np.reshape(np.asarray(a, float), (-1, 3))[k].tolist())
        at = f"a={label}" if t is None else f"a={label}, t={t}"
        raise error(f"{what} = {np.ravel(values)[k]} at {at}")


def _per_stack(fn):
    """The label-only function ``fn``, evaluated once per distinct label stack:
    keyed on the stack's shape and bytes (not its identity), values read-only."""
    memo = {}

    def cached(a):
        a = np.asarray(a, float)
        key = (a.shape, a.tobytes())
        if key not in memo:
            memo[key] = np.asarray(fn(a))
            memo[key].flags.writeable = False
        return memo[key]

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


def _mass_reference(field, material, a):
    """rho0 J0 at labels ``a``, J0 taken at the field's own t0."""
    rho0 = np.asarray(material.initial_density(a), float)
    return rho0 * _position_stack(field, a, field.t0)[1]


def density_from_map(field: TrajectoryField, material: FlowMaterial, a, t):
    """rho = rho0(a) J(a, t0) / J(a, t)."""
    rho = _mass_reference(field, material, a) / _position_stack(field, a, t)[1]
    _reject(rho <= 0.0, rho, a, "density", t=t)
    return rho


def mass_residual(field: TrajectoryField, material: FlowMaterial, rho_fn, a, t):
    """rho J - rho0 J0 for an independently supplied density evaluator."""
    return rho_fn(a, t) * _position_stack(field, a, t)[1] - _mass_reference(field, material, a)


def momentum_residual(
    field: TrajectoryField,
    material: FlowMaterial,
    pressure: ScalarField,
    a,
    t,
) -> np.ndarray:
    """rho0 J0 (xddot + grad_x P) + cof(G) grad_a p; zero on extremal flows."""
    return _momentum_residual(field, material, pressure, a, t, _position_stack(field, a, t)[0],
                              _mass_reference(field, material, a))


def _momentum_residual(field, material, pressure, a, t, g, rho0j0):
    """:func:`momentum_residual` given G and rho0 J0 at (a, t)."""
    x = field.position(a, t)
    body = field.acceleration(a, t) + material.potential.gradient(x, t)
    return np.expand_dims(rho0j0, -1) * body + matvec(cof3(g), pressure.gradient(a, t))


def pressure_from_eos(field: TrajectoryField, material: FlowMaterial) -> ScalarField:
    """p(a, t) = p_eos(rho0 J0 / J(a, t)) as a label field (FD gradient), the
    density of :func:`density_from_map` with rho0 J0 taken once per label stack."""
    rho0j0 = _per_stack(lambda a: _mass_reference(field, material, a))

    def val(a, t):
        rho = rho0j0(a) / _position_stack(field, a, t)[1]
        _reject(rho <= 0.0, rho, a, "density", t=t)
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
        pts, wts = [], []
        for lo, hi, n in zip(box.lo, box.hi, orders):
            x, w = np.polynomial.legendre.leggauss(n)
            pts.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            wts.append(0.5 * (hi - lo) * w)
        g1, g2, g3 = np.meshgrid(*pts, indexing="ij")
        nodes = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=-1)
        w1, w2, w3 = np.meshgrid(*wts, indexing="ij")
        weights = (w1 * w2 * w3).ravel()
        t0, t1 = window
        xt, wt = np.polynomial.legendre.leggauss(nt)
        times = 0.5 * (t1 - t0) * xt + 0.5 * (t1 + t0)
        tweights = 0.5 * (t1 - t0) * wt
        return cls(nodes, weights, times, tweights, (float(t0), float(t1)), label="gauss")


# ---------------------------------------------------------------------------
# Action
# ---------------------------------------------------------------------------


def _lagrangian_density(field, material, a, t, rho0j0, j):
    """(|v|^2/2 - E(rho) - P(x)) rho0 J0 at labels ``a`` (..., 3), rho = rho0 J0 / J."""
    v = field.velocity(a, t)
    x = field.position(a, t)
    _reject(j == 0.0, j, a, "J", t=t)
    rho = rho0j0 / j
    _reject(rho <= 0.0, rho, a, "rho", t=t)
    kinetic = 0.5 * np.vecdot(v, v)
    energy = np.asarray(material.eos.energy(rho), float)
    return (kinetic - energy - np.asarray(material.potential(x, t), float)) * rho0j0


def action(
    field: TrajectoryField,
    material: FlowMaterial,
    quad: SpaceTimeQuadrature,
) -> float:
    """The action of the configuration over the quadrature's window.

    The mass reference rho0 J0 is frozen at the field's own t0, so deformed
    configurations are referenced consistently with their base.
    """
    nodes = quad.space_nodes
    rho0 = np.asarray(material.initial_density(nodes), float)
    rho0j0 = rho0 * det3(field.position_gradient(nodes, field.t0))
    terms = []
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        j = det3(field.position_gradient(nodes, t))  # no singular-map check: L tests J and rho
        L = _lagrangian_density(field, material, nodes, t, rho0j0, j)
        terms.extend(wt * quad.space_weights * L)
    return math.fsum(terms)


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

    @classmethod
    def from_potential_polys(cls, comps, label="curl-poly") -> "RelabelGenerator":
        """Exact generator from three polynomials in (a1, a2, a3, t)."""
        comps = list(comps)
        curl = VectorField.from_polys([
            comps[2].diff(1) - comps[1].diff(2),
            comps[0].diff(2) - comps[2].diff(0),
            comps[1].diff(0) - comps[0].diff(1),
        ])
        return cls(curl, potential=VectorField.from_polys(comps), label=label)

    @classmethod
    def from_scalar_pair(
        cls, dR1: ScalarField, R2: ScalarField, label="cross-gradient"
    ) -> "RelabelGenerator":
        """delta_a = grad dR1 x grad R2 (the alternative representation)."""
        delta = VectorField(value=lambda a, t: np.cross(dR1.gradient(a, t), R2.gradient(a, t)))
        return cls(delta, label=label)


def _bump1d(s):
    # C-infinity bump on (-1, 1), elementwise; libm exp, as for one label
    out = np.zeros(np.shape(s))
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = elementwise(math.exp, -1.0 / (1.0 - si * si)) * math.e
    return out


def _bump1d_deriv(s):
    out = np.zeros(np.shape(s))
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = _bump1d(si) * (-2.0 * si / elementwise(pow, 1.0 - si * si, 2))
    return out


def _separable_potential(values, slopes) -> VectorField:
    """Vector potential (0, 0, f1(a1) f2(a2) f3(a3)) from the per-axis values
    ``values(a)`` = [f_i] and derivatives ``slopes(a)`` = [f_i']; each product
    is taken in axis order."""

    def val(a, t):
        f = values(a)
        out = np.zeros(np.shape(a))
        out[..., 2] = f[0] * f[1] * f[2]
        return out

    def jac(a, t):
        f, df = values(a), slopes(a)
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

    def slopes(a):
        s = (a - c) / half
        return [_bump1d_deriv(s[..., i]) / half[i] for i in range(3)]

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

    def slopes(a):
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
        if self.delta_x is None:
            return self._zeros(a, (3,))
        return self.delta_x.time_derivative(a, t)

    @classmethod
    def relabeling(cls, gen: RelabelGenerator) -> "VariationTriple":
        # delta_a and its Jacobian depend on the labels only: once per stack
        da, jac = _per_stack(gen.delta_a), _per_stack(gen.jacobian)
        delta_a = VectorField(value=lambda a, t: da(a), jacobian_fn=lambda a, t: jac(a))
        return cls(delta_a=delta_a, label=f"relabeling[{gen.label}]")

    @classmethod
    def time_translation(cls) -> "VariationTriple":
        return cls(delta_t=lambda t: 1.0, delta_t_rate=lambda t: 0.0, label="time-translation")

    @classmethod
    def zero(cls) -> "VariationTriple":
        return cls(label="zero")


def local_variation_of_triple(field: TrajectoryField, var: VariationTriple, a, t) -> np.ndarray:
    """delta-bar x = delta_x - xdot delta_t - (delta_a . grad_a) x."""
    return _local_variation(field, var, a, t, field.position_gradient(a, t))


def _local_variation(field, var, a, t, g):
    """:func:`local_variation_of_triple` given G at (a, t)."""
    return var.dx(a, t) - field.velocity(a, t) * var.dt(t) - matvec(g, var.da(a))


class DeformedTrajectoryField:
    """The composed configuration y(a, t) = x(a~, t~) + eps delta_x(a~, t~).

    Only the pieces the action needs are implemented (position, velocity,
    position gradient), for labels (..., 3) like the other backends;
    gradients carry the product-rule factor (I + eps grad delta_a^T).  A fold
    of the label chart (non-positive det(I + eps D delta_a)) raises
    immediately.
    """

    backend = "deformed"

    def __init__(self, base: TrajectoryField, var: VariationTriple, eps: float):
        self.base = base
        self.var = var
        self.eps = float(eps)
        self.box = base.box
        self.t0 = base.t0
        self.t1 = base.t1
        self.order = base.order

    def _chart(self, a, t):
        a = np.asarray(a, float)
        at = a + self.eps * self.var.da(a)
        tt = t + self.eps * self.var.dt(t)
        return at, tt

    def fold_factor(self, a):
        """det(I + eps D delta_a) at labels ``a``; raises FoldedRelabelingError
        at the first label where it is not positive."""
        det = det3(np.eye(3) + self.eps * self.var.da_jac(a))
        _reject(det <= 0.0, det, a, "relabeling folds the domain: det", FoldedRelabelingError)
        return det

    def position(self, a, t):
        at, tt = self._chart(a, t)
        return self.base.position(at, tt) + self.eps * self.var.dx(at, tt)

    def velocity(self, a, t):
        at, tt = self._chart(a, t)
        rate = 1.0 + self.eps * self.var.dt_rate(t)
        return rate * (self.base.velocity(at, tt) + self.eps * self.var.dx_dot(at, tt))

    def position_gradient(self, a, t):
        at, tt = self._chart(a, t)
        chart = np.eye(3) + self.eps * self.var.da_jac(a)
        core = self.base.position_gradient(at, tt) + self.eps * self.var.dx_jac(at, tt)
        return core @ chart


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


def relabeling_invariance_scan(
    field: TrajectoryField,
    material: FlowMaterial,
    gen: RelabelGenerator,
    quad: SpaceTimeQuadrature,
    eps_list=DEFAULT_EPS_LADDER,
) -> ScanResult:
    """|S(eps) - S(0)| ladder for a relabeling direction.

    S(eps) is the action of the composed configuration on the same
    quadrature.  A divergence-free generator leaves no first-order term, so
    the fitted log-log slope is ~2 (or better, symmetric at SLOPE_THRESHOLD);
    a divergent generator is flagged by its ~1 slope.
    """
    var = VariationTriple.relabeling(gen)
    nodes = quad.space_nodes
    s0 = action(field, material, quad)
    deltas = []
    for eps in eps_list:
        deformed = DeformedTrajectoryField(field, var, eps)
        deformed.fold_factor(nodes)
        deltas.append(abs(action(deformed, material, quad) - s0))
    max_div = float(np.max(np.abs(var.delta_a.divergence(nodes, 0.0))))
    slope = fit_loglog_slope(eps_list, deltas, floor=max(abs(s0), 1.0) * 1e-14)
    return ScanResult(
        eps=[float(e) for e in eps_list],
        deviation=deltas,
        slope=slope,
        max_divergence=max_div,
        base_action=s0,
        symmetric=slope is None or slope >= SLOPE_THRESHOLD,
        metadata={"generator": gen.label, "quadrature": quad.label},
    )


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
    rho0j0 = _mass_reference(field, material, nodes)
    da = gen.delta_a(nodes)
    dR = np.asarray(gen.potential(nodes, 0.0), float)
    lhs_terms, rhs_terms = [], []
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        w = wa * wt
        g, _ = _position_stack(field, nodes, t)
        res = _momentum_residual(field, material, pressure, nodes, t, g, rho0j0)
        lhs_terms.extend(w * np.vecdot(res, -matvec(g, da)))
        # the Cauchy residual curl_a(G^T xddot) on the same G
        cauchy = _curl_image(field, nodes, t, g, "acceleration")
        rhs_terms.extend(-w * rho0j0 * np.vecdot(cauchy, dR))
    return math.fsum(lhs_terms), math.fsum(rhs_terms)


def rund_trautman_check(
    field: TrajectoryField,
    material: FlowMaterial,
    var: VariationTriple,
    quad: SpaceTimeQuadrature,
    eps=1e-3,
) -> tuple[float, float, float] | list[tuple[float, float, float]]:
    """(total, el_part, bd_part) of the fundamental variational split.

    total: finite difference (S(eps) - S(0)) / eps of the action under the
    composed configuration.  el_part: bulk Euler-Lagrange pairing with the
    local variation.  bd_part: time-endpoint terms plus the space-divergence
    quadrature.  The identity total = el_part + bd_part holds to O(eps) plus
    quadrature error.

    ``eps`` may be a sequence (a ladder); the result is then a list with one
    triple per rung.  S(0), el_part and bd_part do not depend on eps and are
    computed once for the whole ladder.

    Both braces use the action's own stress p = rho^2 E'(rho) at
    rho = rho0 J0 / J (:func:`el_part`, :func:`noether_boundary_term`); any
    other pressure, such as a momentum-balancing one, breaks the identity.
    """
    s0 = action(field, material, quad)
    el = el_part(field, material, var, quad)
    bd = noether_boundary_term(field, material, var, quad)
    rows = [
        ((action(DeformedTrajectoryField(field, var, e), material, quad) - s0) / e, el, bd)
        for e in np.ravel(eps).tolist()
    ]
    return rows if np.ndim(eps) else rows[0]


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
    rho0j0 = _mass_reference(field, material, nodes)
    terms = []
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        g, _ = _position_stack(field, nodes, t)
        res = _momentum_residual(field, material, pressure, nodes, t, g, rho0j0)
        dbar = _local_variation(field, var, nodes, t, g)
        terms.extend(-wa * wt * np.vecdot(res, dbar))
    return math.fsum(terms)


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
    rho0j0 = _per_stack(lambda b: _mass_reference(field, material, b))

    def endpoint_integrand(t):
        rj = rho0j0(nodes)
        g = field.position_gradient(nodes, t)
        L = _lagrangian_density(field, material, nodes, t, rj, det3(g))
        dbar = _local_variation(field, var, nodes, t, g)
        return L * var.dt(t) + rj * np.vecdot(field.velocity(nodes, t), dbar)

    endpoint = math.fsum(wa * (endpoint_integrand(t_hi) - endpoint_integrand(t_lo)))
    div_step = 1e-3 * min(field.box.extent)

    def flux(b, t):
        g, j = _position_stack(field, b, t)
        rj = rho0j0(b)
        L = _lagrangian_density(field, material, b, t, rj, j)
        p = np.asarray(material.eos.pressure(rj / j), float)
        dbar = _local_variation(field, var, b, t, g)
        cof_t = np.swapaxes(cof3(g), -1, -2)
        return L[..., None] * var.da(b) + p[..., None] * matvec(cof_t, dbar)

    div_terms = []
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        d = fd_jacobian(lambda b: flux(b, t), nodes, div_step, 4)
        div_terms.extend(wa * wt * (d[..., 0, 0] + d[..., 1, 1] + d[..., 2, 2]))
    return endpoint + math.fsum(div_terms)
