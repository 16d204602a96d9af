"""vortlab: label-space kinematics of barotropic flows and numerical
verification of the conservation laws that follow from them."""

__version__ = "0.1.0"

from .errors import (
    DegenerateMapError,
    FoldedRelabelingError,
    GridFormatError,
    NonPositiveDensityError,
    OutOfDomainError,
    VortlabError,
)
from .fields import (
    AnalyticTrajectoryField,
    Box,
    LabelGrid,
    PolynomialTrajectoryField,
    SampledTrajectoryField,
    ScalarField,
    TrajectoryField,
    VectorField,
    load_grid,
    save_grid,
)
from .kinematics import jacobian
from .invariants import (
    cauchy_drift,
    cauchy_residual,
    cauchy_vorticity_reconstruct,
    image_velocity,
    lagrangian_vorticity,
    lagrangian_vorticity_pullback,
)
from .report import DriftReport
from .theorems import LabelLoop, LabelRegion
from .variational import (
    BarotropicEOS,
    FlowMaterial,
    RelabelGenerator,
    SpaceTimeQuadrature,
    VariationTriple,
    action,
    density_from_map,
    mass_reference,
    momentum_residual,
)
from .flows import Fixture, FixtureSpec, fixture_names, integrate_trajectories, make_fixture
from .poly import Poly
