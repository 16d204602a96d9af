"""Test tools shared by the test modules: frames of a bare gradient matrix, exact
polynomial relabeling generators and the time-translation triple."""

import numpy as np

from vortlab.fields import Box, TrajectoryField, VectorField
from vortlab.kinematics import Frame
from vortlab.poly import Poly
from vortlab.variational import RelabelGenerator, VariationTriple


class _ConstantGradient(TrajectoryField):
    """A field whose position gradient is the G it is given at every label read: one
    matrix (3, 3), or a stack (..., 3, 3) for labels of its leading shape.  G is returned
    as it is, so a Fraction object array stays exact."""

    def __init__(self, g):
        super().__init__(Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), 0.0, 1.0)
        self.g = g

    def position_gradient(self, a, t):
        return self.g


def frame_of(g) -> Frame:
    """The :class:`Frame` of a bare G (one matrix or a stack, floats or Fractions): its
    ``matrix``, checked ``det``, ``cof`` and ``inv`` at labels of G's leading shape."""
    g = np.asarray(g)
    return Frame(_ConstantGradient(g), np.zeros(g.shape[:-1]), 0.0)


def potential_generator(comps, label="curl-poly") -> RelabelGenerator:
    """Exact generator delta_a = curl R from three polynomials R in (a1, a2, a3, t)."""
    comps = list(comps)
    curl = VectorField.from_polys([
        comps[2].diff(1) - comps[1].diff(2),
        comps[0].diff(2) - comps[2].diff(0),
        comps[1].diff(0) - comps[0].diff(1),
    ])
    return RelabelGenerator(curl, potential=VectorField.from_polys(comps), label=label)


def poly_generator() -> RelabelGenerator:
    """The generator of the potential (0, 0, a1 a2)."""
    a1, a2 = Poly.variable(4, 0), Poly.variable(4, 1)
    zero = Poly(4, {})
    return potential_generator([zero, zero, a1 * a2], label="psi=a1*a2")


def time_translation() -> VariationTriple:
    """The variation triple of a unit time shift."""
    return VariationTriple(delta_t=lambda t: 1.0, delta_t_rate=lambda t: 0.0,
                           label="time-translation")
