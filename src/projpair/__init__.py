"""Projection pairs over parametrized curve families.

Numerical tools for single projections along parallel and fan ray families,
pairwise range conditions and their kernels, a separability test showing the
exponential fan-fan family admits no such condition, and a CGNE experiment
driving a discrete two-vertex system toward data no image can produce.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ConfigurationError,
    DegenerateKernelError,
    DivergenceError,
    DomainError,
    EvaluationError,
    ParallelRaysError,
    ProjPairError,
    SingularPointError,
)
from .geometry import (
    ATTENUATION_MU,
    HALF_FAN_ANGLE,
    REFERENCE_VERTEX_1,
    REFERENCE_VERTEX_2,
    AdmissibilityReport,
    FanGeometry,
    ImageDomain,
    PairGeometry,
    ParGeometry,
    check_fan_admissible,
    check_pair_admissible,
    cross2,
    direction,
    intersect,
    lift_angle,
    pair_orientation,
    perp,
    reference_domain,
    reference_pair,
    reference_view_ranges,
    view_range,
)
from .phantom import (
    SUPPORT_HALF_ANGLE,
    Bump,
    Phantom,
    bump_eval,
    inconceivable_g2,
    mollifier_unit_mass,
    phantom_l2_norm,
    phantom_mass,
    random_phantom,
    reference_target,
)
from .projector import continuity_bound_check, project_values, project_view
from .discrete import (
    DetectorGrid,
    ImageGrid,
    PairOperator,
    ProjectionData,
    rasterize,
    read_image,
    read_projection_csv,
    reference_grids,
    reference_operator,
    write_image,
    write_pgm,
    write_projection_csv,
)
from .consistency import (
    KernelPair,
    SeparabilityReport,
    eval_G,
    expo_surface,
    kernel_condition_residual,
    known_kernels,
    pprc_sides,
    predicted_residual_floor,
    separability_test,
)
from .solver import CgneState, cgne_solve
