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
Quadrature sums are accumulated with math.fsum, so results are deterministic
and the tiny differences S(eps) - S(0) are not lost to summation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import FoldedRelabelingError, NonPositiveDensityError, VortlabError
from .fields import (
    Box,
    EulerianScalarField,
    LabelGrid,
    ScalarFieldLabel,
    TrajectoryField,
    VectorFieldLabel,
    derivative,
    fd_jacobian,
)
from .kinematics import det3, jacobian


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

    def check_pressure(self, p_fn: Callable[[float], float], rhos, rtol: float = 1e-12):
        """Max relative mismatch between the derived and supplied pressure."""
        worst = 0.0
        for rho in rhos:
            derived = self.pressure(rho)
            supplied = p_fn(rho)
            scale = max(abs(float(derived)), abs(float(supplied)), 1e-300)
            worst = max(worst, abs(float(derived - supplied)) / scale)
        if worst > rtol:
            raise VortlabError(f"EOS pressure mismatch {worst:.3e} exceeds rtol {rtol:.1e}")
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

        def energy(rho):
            return K * rho ** (gamma - 1) / (gamma - 1)

        def denergy(rho):
            return K * rho ** (gamma - 2)

        return cls(energy=energy, denergy=denergy, label=f"polytropic(K={K}, gamma={gamma})")


def zero_potential() -> EulerianScalarField:
    return EulerianScalarField(
        value=lambda x, t: 0.0, gradient_fn=lambda x, t: np.zeros(3)
    )


@dataclass(frozen=True)
class FlowMaterial:
    """Initial density, barotropic EOS and external conservative potential."""

    rho0: ScalarFieldLabel
    eos: BarotropicEOS
    potential: EulerianScalarField

    def initial_density(self, a) -> float:
        rho = self.rho0(a, 0.0)
        if float(rho) <= 0.0:
            raise NonPositiveDensityError(f"rho0({a}) = {rho}")
        return rho


# ---------------------------------------------------------------------------
# Mass and momentum
# ---------------------------------------------------------------------------


def density_from_map(field: TrajectoryField, material: FlowMaterial, a, t):
    """rho = rho0(a) J(a, t0) / J(a, t)."""
    j0 = jacobian(field, a, field.t0).det
    j = jacobian(field, a, t).det
    rho = material.initial_density(a) * j0 / j
    if float(rho) <= 0.0:
        raise NonPositiveDensityError(f"density {rho} at a={a}, t={t}")
    return rho


def mass_residual(field: TrajectoryField, material: FlowMaterial, rho_fn, a, t):
    """rho J - rho0 J0 for an independently supplied density evaluator."""
    j0 = jacobian(field, a, field.t0).det
    j = jacobian(field, a, t).det
    return rho_fn(a, t) * j - material.initial_density(a) * j0


def momentum_residual(
    field: TrajectoryField,
    material: FlowMaterial,
    pressure: ScalarFieldLabel,
    a,
    t,
) -> np.ndarray:
    """rho0 J0 (xddot + grad_x P) + cof(G) grad_a p; zero on extremal flows."""
    bundle = jacobian(field, a, t)
    j0 = jacobian(field, a, field.t0).det
    rho0j0 = material.initial_density(a) * j0
    x = field.position(a, t)
    body = field.acceleration(a, t) + material.potential.gradient(x, t)
    return rho0j0 * body + bundle.cof @ pressure.gradient(a, t)


def pressure_from_eos(field: TrajectoryField, material: FlowMaterial) -> ScalarFieldLabel:
    """p(a, t) = p_eos(rho(a, t)) as a label field (FD gradient)."""

    def val(a, t):
        return float(material.eos.pressure(density_from_map(field, material, a, t)))

    return ScalarFieldLabel(value=val)


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


def _lagrangian_density(field, material, a, t, rho0j0):
    """(|v|^2/2 - E(rho) - P(x)) rho0 J0 at one node."""
    v = field.velocity(a, t)
    x = field.position(a, t)
    j = det3(field.position_gradient(a, t))
    if float(j) == 0.0:
        raise NonPositiveDensityError(f"J = 0 at a={a}, t={t}")
    rho = rho0j0 / j
    if float(rho) <= 0.0:
        raise NonPositiveDensityError(f"rho = {rho} at a={a}, t={t}")
    kinetic = 0.5 * float(v @ v)
    return (kinetic - float(material.eos.energy(rho)) - float(material.potential.value(x, t))) * float(rho0j0)


def action(
    field: TrajectoryField,
    material: FlowMaterial,
    quad: SpaceTimeQuadrature,
) -> float:
    """The action of the configuration over the quadrature's window.

    The mass reference rho0 J0 is frozen at the field's own t0, so deformed
    configurations are referenced consistently with their base.
    """
    t0 = field.t0
    terms = []
    rho0j0 = []
    for a in quad.space_nodes:
        j0 = det3(field.position_gradient(a, t0))
        rho0j0.append(float(material.initial_density(a)) * float(j0))
    for t, wt in zip(quad.time_nodes, quad.time_weights):
        for a, wa, rj in zip(quad.space_nodes, quad.space_weights, rho0j0):
            terms.append(wt * wa * _lagrangian_density(field, material, a, t, rj))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Relabeling generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelabelGenerator:
    """A relabeling direction delta_a(a), divergence-free by construction.

    ``potential`` (the vector field whose curl is delta_a) is retained when
    available because the weak-form pairing integrates against it.
    """

    delta_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray] | None = None
    potential: VectorFieldLabel | None = None
    label: str = "custom"
    h: float = 1e-4

    def delta_a(self, a) -> np.ndarray:
        return np.asarray(self.delta_fn(np.asarray(a, float)))

    def jacobian(self, a) -> np.ndarray:
        """D[i, j] = d(delta_a_i)/da_j."""
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(np.asarray(a, float)))
        return fd_jacobian(self.delta_a, a, self.h, 4)

    def divergence(self, a) -> float:
        d = self.jacobian(a)
        return float(d[0, 0] + d[1, 1] + d[2, 2])

    @classmethod
    def from_curl(cls, potential: VectorFieldLabel, label="curl") -> "RelabelGenerator":
        def delta(a):
            return potential.curl(a, 0.0)

        return cls(delta_fn=delta, potential=potential, label=label)

    @classmethod
    def from_potential_polys(cls, comps, label="curl-poly") -> "RelabelGenerator":
        """Exact generator from three polynomials in (a1, a2, a3, t)."""
        comps = list(comps)
        curl = [
            comps[2].diff(1) - comps[1].diff(2),
            comps[0].diff(2) - comps[2].diff(0),
            comps[1].diff(0) - comps[0].diff(1),
        ]
        dcurl = [[curl[i].diff(j) for j in range(3)] for i in range(3)]

        def delta(a):
            pt = (a[0], a[1], a[2], 0.0)
            return np.array([float(c(pt)) for c in curl])

        def jac(a):
            pt = (a[0], a[1], a[2], 0.0)
            return np.array([[float(dcurl[i][j](pt)) for j in range(3)] for i in range(3)])

        return cls(
            delta_fn=delta,
            jacobian_fn=jac,
            potential=VectorFieldLabel.from_polys(comps),
            label=label,
        )

    @classmethod
    def from_scalar_pair(
        cls, dR1: ScalarFieldLabel, R2: ScalarFieldLabel, label="cross-gradient"
    ) -> "RelabelGenerator":
        """delta_a = grad dR1 x grad R2 (the alternative representation)."""

        def delta(a):
            return np.cross(dR1.gradient(a, 0.0), R2.gradient(a, 0.0))

        return cls(delta_fn=delta, label=label)


def _bump1d(s: float) -> float:
    # C-infinity bump on (-1, 1)
    if abs(s) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - s * s)) * math.e


def _bump1d_deriv(s: float) -> float:
    if abs(s) >= 1.0:
        return 0.0
    return _bump1d(s) * (-2.0 * s / (1.0 - s * s) ** 2)


def bump_potential(box: Box, amplitude: float = 1.0, margin: float = 0.05) -> VectorFieldLabel:
    """Compactly supported vector potential (0, 0, bump(a)); vanishes with all
    derivatives before reaching the box boundary."""
    lo = np.asarray(box.lo, float)
    hi = np.asarray(box.hi, float)
    c = 0.5 * (lo + hi)
    half = (0.5 - margin) * (hi - lo)

    def val(a, t):
        a = np.asarray(a, float)
        v = amplitude
        for i in range(3):
            v *= _bump1d((a[i] - c[i]) / half[i])
        return np.array([0.0, 0.0, v])

    def jac(a, t):
        a = np.asarray(a, float)
        s = [(a[i] - c[i]) / half[i] for i in range(3)]
        vals = [_bump1d(si) for si in s]
        ders = [_bump1d_deriv(si) / half[i] for i, si in enumerate(s)]
        out = np.zeros((3, 3))
        for j in range(3):
            term = amplitude * ders[j]
            for i in range(3):
                if i != j:
                    term *= vals[i]
            out[2, j] = term
        return out

    return VectorFieldLabel(value=val, jacobian_fn=jac)


def sine_potential(
    box: Box, waves=(1, 1, 1), amplitude: float = 1.0, exponents=(0, 0, 0)
) -> VectorFieldLabel:
    """Periodic vector potential (0, 0, psi) vanishing on every box face.

    psi = amplitude * prod a_i^{e_i} sin(2 pi n_i (a_i - lo_i) / L_i).  The
    optional monomial modulation breaks full-period orthogonality against
    polynomial integrands while keeping psi (hence delta_R) zero on all
    faces, which is what drops the weak-form divergence term.
    """
    lo = np.asarray(box.lo, float)
    L = box.extent
    k = [2.0 * math.pi * waves[i] / L[i] for i in range(3)]

    def factors(a):
        vals, ders = [], []
        for i in range(3):
            ph = k[i] * (a[i] - lo[i])
            s, cs = math.sin(ph), math.cos(ph)
            mono = a[i] ** exponents[i] if exponents[i] else 1.0
            dmono = exponents[i] * a[i] ** (exponents[i] - 1) if exponents[i] else 0.0
            vals.append(mono * s)
            ders.append(dmono * s + mono * k[i] * cs)
        return vals, ders

    def val(a, t):
        vals, _ = factors(a)
        return np.array([0.0, 0.0, amplitude * vals[0] * vals[1] * vals[2]])

    def jac(a, t):
        vals, ders = factors(a)
        out = np.zeros((3, 3))
        out[2, 0] = amplitude * ders[0] * vals[1] * vals[2]
        out[2, 1] = amplitude * vals[0] * ders[1] * vals[2]
        out[2, 2] = amplitude * vals[0] * vals[1] * ders[2]
        return out

    return VectorFieldLabel(value=val, jacobian_fn=jac)


# ---------------------------------------------------------------------------
# Variation triples and the composed configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationTriple:
    """Evaluable (delta_t, delta_a, delta_x) direction.

    Supported shapes: delta_t = delta_t(t), delta_a = delta_a(a) and
    delta_x = delta_x(a, t); that covers relabelings, time translations and
    direct field variations.
    """

    delta_t: Callable[[float], float] | None = None
    delta_t_rate: Callable[[float], float] | None = None
    delta_a: Callable[[np.ndarray], np.ndarray] | None = None
    delta_a_jac: Callable[[np.ndarray], np.ndarray] | None = None
    delta_x: Callable[[np.ndarray, float], np.ndarray] | None = None
    delta_x_jac: Callable[[np.ndarray, float], np.ndarray] | None = None
    delta_x_dot: Callable[[np.ndarray, float], np.ndarray] | None = None
    label: str = "custom"
    h: float = 1e-4

    def dt(self, t) -> float:
        return 0.0 if self.delta_t is None else float(self.delta_t(t))

    def dt_rate(self, t) -> float:
        if self.delta_t is None:
            return 0.0
        if self.delta_t_rate is not None:
            return float(self.delta_t_rate(t))
        return derivative(lambda s: self.delta_t(t + s), self.h, 4)

    def da(self, a) -> np.ndarray:
        return np.zeros(3) if self.delta_a is None else np.asarray(self.delta_a(np.asarray(a, float)))

    def da_jac(self, a) -> np.ndarray:
        if self.delta_a is None:
            return np.zeros((3, 3))
        if self.delta_a_jac is not None:
            return np.asarray(self.delta_a_jac(np.asarray(a, float)))
        return fd_jacobian(self.da, a, self.h, 4)

    def dx(self, a, t) -> np.ndarray:
        return np.zeros(3) if self.delta_x is None else np.asarray(self.delta_x(np.asarray(a, float), t))

    def dx_jac(self, a, t) -> np.ndarray:
        if self.delta_x is None:
            return np.zeros((3, 3))
        if self.delta_x_jac is not None:
            return np.asarray(self.delta_x_jac(np.asarray(a, float), t))
        return fd_jacobian(lambda b: self.dx(b, t), a, self.h, 4)

    def dx_dot(self, a, t) -> np.ndarray:
        if self.delta_x is None:
            return np.zeros(3)
        if self.delta_x_dot is not None:
            return np.asarray(self.delta_x_dot(np.asarray(a, float), t))
        return derivative(lambda s: self.dx(a, t + s), self.h, 4)

    @classmethod
    def relabeling(cls, gen: RelabelGenerator) -> "VariationTriple":
        return cls(delta_a=gen.delta_a, delta_a_jac=gen.jacobian, label=f"relabeling[{gen.label}]")

    @classmethod
    def time_translation(cls) -> "VariationTriple":
        return cls(delta_t=lambda t: 1.0, delta_t_rate=lambda t: 0.0, label="time-translation")

    @classmethod
    def zero(cls) -> "VariationTriple":
        return cls(label="zero")


def local_variation_of_triple(field: TrajectoryField, var: VariationTriple, a, t) -> np.ndarray:
    """delta-bar x = delta_x - xdot delta_t - (delta_a . grad_a) x."""
    g = field.position_gradient(a, t)
    return var.dx(a, t) - field.velocity(a, t) * var.dt(t) - g @ var.da(a)


class DeformedTrajectoryField:
    """The composed configuration y(a, t) = x(a~, t~) + eps delta_x(a~, t~).

    Only the pieces the action needs are implemented (position, velocity,
    position gradient); gradients carry the product-rule factor
    (I + eps grad delta_a^T).  A fold of the label chart (non-positive
    det(I + eps D delta_a)) raises immediately.
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

    def fold_factor(self, a) -> float:
        d = np.eye(3) + self.eps * self.var.da_jac(a)
        det = float(det3(d))
        if det <= 0.0:
            raise FoldedRelabelingError(
                f"relabeling folds the domain at a={tuple(np.asarray(a, float))}: det={det}"
            )
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
        a = np.asarray(a, float)
        chart = np.eye(3) + self.eps * self.var.da_jac(a)
        core = self.base.position_gradient(at, tt) + self.eps * self.var.dx_jac(at, tt)
        return core @ chart

    def check_domain(self, a, t, time_pad: float = 0.0):
        # evaluators extend smoothly past the box; the base map is the arbiter
        return None


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
        return {
            "eps": self.eps,
            "deviation": self.deviation,
            "slope": self.slope,
            "max_divergence": self.max_divergence,
            "base_action": self.base_action,
            "symmetric": self.symmetric,
            "metadata": self.metadata,
        }


SLOPE_FLOOR = 1e-14


def fit_loglog_slope(xs, ys, floor: float | None = None) -> float | None:
    """Least-squares slope of log y against log x; None when y sits at the
    rounding floor everywhere (nothing to fit)."""
    xs = [float(x) for x in xs]
    ys = [abs(float(y)) for y in ys]
    if floor is None:
        floor = SLOPE_FLOOR
    kept = [(x, y) for x, y in zip(xs, ys) if y > floor]
    if len(kept) < 2:
        return None
    lx = np.log([x for x, _ in kept])
    ly = np.log([y for _, y in kept])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


DEFAULT_EPS_LADDER = (1e-2, 3e-3, 1e-3, 3e-4)


def relabeling_invariance_scan(
    field: TrajectoryField,
    material: FlowMaterial,
    gen: RelabelGenerator,
    quad: SpaceTimeQuadrature,
    eps_list=DEFAULT_EPS_LADDER,
    slope_threshold: float = 1.9,
) -> ScanResult:
    """|S(eps) - S(0)| ladder for a relabeling direction.

    S(eps) is the action of the composed configuration on the same
    quadrature.  A divergence-free generator leaves no first-order term, so
    the fitted log-log slope is ~2 (or better); a divergent generator is
    flagged by its ~1 slope.
    """
    var = VariationTriple.relabeling(gen)
    s0 = action(field, material, quad)
    deltas = []
    for eps in eps_list:
        deformed = DeformedTrajectoryField(field, var, eps)
        for a in quad.space_nodes:
            deformed.fold_factor(a)
        deltas.append(abs(action(deformed, material, quad) - s0))
    max_div = max(abs(gen.divergence(a)) for a in quad.space_nodes)
    slope = fit_loglog_slope(eps_list, deltas, floor=max(abs(s0), 1.0) * 1e-14)
    symmetric = slope is None or slope >= slope_threshold
    return ScanResult(
        eps=[float(e) for e in eps_list],
        deviation=deltas,
        slope=slope,
        max_divergence=max_div,
        base_action=s0,
        symmetric=symmetric,
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
    pressure: ScalarFieldLabel | None = None,
) -> tuple[float, float]:
    """Both sides of the weak-form pairing for a relabeling direction.

    lhs: momentum residual dotted with the local variation -G delta_a.
    rhs: -(rho0 J0) curl_a(dV/dt) dotted with the vector potential delta_R
    (the divergence term is dropped; use a potential that vanishes on the
    boundary, has compact support, or a periodic domain).
    """
    if gen.potential is None:
        raise VortlabError("weak_form_integral needs a curl-form generator (vector potential)")
    if pressure is None:
        pressure = pressure_from_eos(field, material)
    from .invariants import cauchy_residual

    lhs_terms, rhs_terms = [], []
    for a, wa in zip(quad.space_nodes, quad.space_weights):
        j0 = jacobian(field, a, field.t0).det
        rho0j0 = float(material.initial_density(a)) * float(j0)
        da = gen.delta_a(a)
        dR = np.asarray(gen.potential.value(a, 0.0), float)
        for t, wt in zip(quad.time_nodes, quad.time_weights):
            w = wa * wt
            res = momentum_residual(field, material, pressure, a, t)
            g = field.position_gradient(a, t)
            lhs_terms.append(w * float(res @ (-(g @ da))))
            cr = cauchy_residual(field, a, t)
            rhs_terms.append(-w * rho0j0 * float(np.asarray(cr, float) @ dR))
    return math.fsum(lhs_terms), math.fsum(rhs_terms)


def rund_trautman_check(
    field: TrajectoryField,
    material: FlowMaterial,
    var: VariationTriple,
    quad: SpaceTimeQuadrature,
    eps: float = 1e-3,
    pressure: ScalarFieldLabel | None = None,
) -> tuple[float, float, float]:
    """(total, el_part, bd_part) of the fundamental variational split.

    total: finite difference (S(eps) - S(0)) / eps of the action under the
    composed configuration.  el_part: bulk Euler-Lagrange pairing with the
    local variation.  bd_part: time-endpoint terms plus the space-divergence
    quadrature.  The identity total = el_part + bd_part holds to O(eps) plus
    quadrature error.

    ``pressure`` must be the action's own stress, rho^2 E'(rho); it defaults
    to the EOS-derived field and exists only so callers with a closed form
    for that same quantity can avoid the FD pressure gradient.  Substituting
    an unrelated momentum-balancing pressure breaks the identity.
    """
    if pressure is None:
        pressure = pressure_from_eos(field, material)
    s0 = action(field, material, quad)
    deformed = DeformedTrajectoryField(field, var, eps)
    total = (action(deformed, material, quad) - s0) / eps
    el = el_part(field, material, var, quad, pressure)
    bd = noether_boundary_term(field, material, var, quad, pressure)
    return total, el, bd


def el_part(
    field: TrajectoryField,
    material: FlowMaterial,
    var: VariationTriple,
    quad: SpaceTimeQuadrature,
    pressure: ScalarFieldLabel | None = None,
) -> float:
    """Bulk brace of the variational formula: -(momentum residual) . delta-bar x."""
    if pressure is None:
        pressure = pressure_from_eos(field, material)
    terms = []
    for a, wa in zip(quad.space_nodes, quad.space_weights):
        for t, wt in zip(quad.time_nodes, quad.time_weights):
            res = momentum_residual(field, material, pressure, a, t)
            dbar = local_variation_of_triple(field, var, a, t)
            terms.append(-wa * wt * float(res @ dbar))
    return math.fsum(terms)


def noether_boundary_term(
    field: TrajectoryField,
    material: FlowMaterial,
    var: VariationTriple,
    quad: SpaceTimeQuadrature,
    pressure: ScalarFieldLabel | None = None,
    div_step: float | None = None,
) -> float:
    """Boundary brace: time-endpoint spatial quadratures at the window ends
    plus the space-time quadrature of the divergence of the Noether flux

        w_j = L delta_a_j + p (cof^T delta-bar x)_j .
    """
    if pressure is None:
        pressure = pressure_from_eos(field, material)
    t_lo, t_hi = quad.window
    rho0j0 = {}
    for idx, a in enumerate(quad.space_nodes):
        j0 = jacobian(field, a, field.t0).det
        rho0j0[idx] = float(material.initial_density(a)) * float(j0)

    def endpoint_integrand(idx, a, t):
        L = _lagrangian_density(field, material, a, t, rho0j0[idx])
        dbar = local_variation_of_triple(field, var, a, t)
        return L * var.dt(t) + rho0j0[idx] * float(field.velocity(a, t) @ dbar)

    endpoint = math.fsum(
        wa * (endpoint_integrand(i, a, t_hi) - endpoint_integrand(i, a, t_lo))
        for i, (a, wa) in enumerate(zip(quad.space_nodes, quad.space_weights))
    )

    if div_step is None:
        div_step = 1e-3 * min(field.box.extent)

    def flux(a, t):
        rj = float(material.initial_density(a)) * float(jacobian(field, a, field.t0).det)
        L = _lagrangian_density(field, material, a, t, rj)
        bundle = jacobian(field, a, t)
        dbar = local_variation_of_triple(field, var, a, t)
        p = float(pressure(a, t))
        return L * var.da(a) + p * (bundle.cof.T @ dbar)

    div_terms = []
    for a, wa in zip(quad.space_nodes, quad.space_weights):
        for t, wt in zip(quad.time_nodes, quad.time_weights):
            d = fd_jacobian(lambda b: flux(b, t), a, div_step, 4)
            div_terms.append(wa * wt * (d[0, 0] + d[1, 1] + d[2, 2]))
    return endpoint + math.fsum(div_terms)
