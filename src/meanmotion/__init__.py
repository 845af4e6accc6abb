"""Mean motions of multivariate exponential polynomials.

Computes the average rotation rates c+(y), c-(y) of arg P along
horizontal lines by two independent routes (expanding-box averages and
the torus-average oracle over a lattice lift of the exponents) and
cross-validates their agreement.
"""

from .core import (
    ExpPolynomial,
    ExpTerm,
    LiftedPolynomial,
    UnivariateExpSum,
    lift,
)
from .errors import (
    DegenerateInputError,
    DimensionError,
    EndpointZeroError,
    InternalConsistencyError,
    MeanMotionError,
    MembershipError,
    PolynomialLoadError,
    SingularContourError,
    TrackingError,
)
from .io import parse_polynomial_file, polynomial_to_dict, write_polynomial_file
from .lattice import (
    LatticeBasis,
    coordinates,
    group_basis,
)
from .motion import (
    BoxSpec,
    MeanMotionEstimate,
    TorusMean,
    WindowSchedule,
    box_mean_motion,
    compare_estimators,
    direct_mean_motion,
    torus_mean,
)
from .tracker import (
    ArgTrace,
    Zero,
    arg_increment_pair,
    count_zeros_rectangle,
    locate_zeros,
    winding_number,
)

__version__ = "0.1.0"
