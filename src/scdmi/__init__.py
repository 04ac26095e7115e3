"""Shape-color differential moment invariants.

Symbolic construction of the 50-instance invariant catalogue, evaluation on
masked raster images, a brute-force verification oracle, coordinate/channel
transform tooling, and a retrieval benchmark.
"""

__version__ = "0.1.0"

from .algebra import (
    CoreSpec,
    InvariantSpec,
    MomentIndex,
    MomentPolynomial,
    MonomialTerm,
    PointVar,
    denominator_polynomial,
    expand_color_primitive,
    expand_core,
    expand_shape_primitive,
    normalization_exponents,
    parse_polynomial,
    serialize_polynomial,
    catalogue_specs,
)
from .engine import (
    FeatureVector,
    RasterImage,
    centred_values,
    evaluate_invariant,
    moment_tables,
    moment_vector,
    scdmi50,
)
from .errors import (
    Degenerate,
    EmptyDomain,
    InternalError,
    InvalidSpec,
    ParseError,
    ScdmiError,
    Singular,
    TooLarge,
    TooSmall,
)
from .oracle import brute_force_core_integral, brute_force_features, brute_force_invariant
from .ppm import read_ppm, write_ppm
from .transforms import (
    ColorAffine,
    InvarianceReport,
    ShapeAffine,
    apply_color_affine,
    apply_shape_affine,
    invariance_report,
    sample_color_affine,
    sample_shape_affine,
    upsample_nearest,
)

__all__ = [name for name in dir() if not name.startswith("_")]
