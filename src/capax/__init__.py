"""Transfinite diameters, directional Chebyshev constants, and resultants
for polynomial self-maps of C^2, along the graph variety {w = f(z)}."""

from types import ModuleType as _ModuleType

from .chebyshev import (
    ChebyshevEstimate,
    chebyshev_transform,
    chebyshev_value,
    evaluate_monomials,
)
from .diameters import (
    DiameterSeries,
    PullbackReport,
    TelescopingReport,
    VandermondeLedger,
    greedy_fekete,
    pullback_check,
    telescoping_check,
    transfinite_diameter,
)
from .errors import (
    CapaxError,
    DegreeOverflowError,
    EstimateError,
    FiberError,
    MapError,
    MeshError,
    ParseError,
    PrecisionError,
    StaircaseError,
    StarSearchError,
)
from .exact import GaussianRational
from .parsing import format_poly, parse_poly
from .polynomials import (
    GREVLEX4,
    GraphWeighted,
    Monomial,
    Polynomial,
)
from .resultant import (
    BlockReport,
    block_factorization,
    is_regular,
    resultant,
    resultant_root_oracle,
    resultant_slog,
    sylvester_matrix,
)
from .sets import (
    FiberResult,
    SampledSet,
    SetSpec,
    build_mesh,
    fiber,
    fiber_average_poly,
    graph_lift,
)
from .variety import (
    BlockShape,
    GraphMap,
    MonomialBasisStream,
    StarCertificate,
    basis_stream,
    block_shape,
    check_star,
    star_certificate,
    StarReport,
    filtration_counts,
    generic_staircase,
    graph_basis,
    is_generic,
    normal_form,
    precondition,
    staircase,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are attributes, not exports
__all__ = [n for n, v in list(globals().items()) if not n.startswith("_") and not isinstance(v, _ModuleType)]
