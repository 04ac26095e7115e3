"""Shape-color differential moment invariants.

Symbolic construction of the 25-instance invariant catalogue, evaluation of
its 50 features on masked raster images, a brute-force verification oracle,
coordinate/channel transform tooling, and a retrieval benchmark.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .algebra import (
    CoreSpec,
    InvariantSpec,
    MomentIndex,
    MomentPolynomial,
    MonomialTerm,
    denominator_polynomial,
    expand_core,
    normalization_exponents,
    serialize_polynomial,
    catalogue_specs,
)
from .engine import (
    FeatureVector,
    RasterImage,
    centred_values,
    moment_tables,
    moment_vector,
    scdmi50,
)
from .errors import (
    EmptyDomain,
    InvalidImage,
    InvalidSpec,
    InvalidTransform,
    ScdmiError,
    Singular,
    TooLarge,
)
from .oracle import brute_force_core_integral, brute_force_features
from .ppm import read_ppm, write_ppm
from .transforms import (
    ColorAffine,
    ShapeAffine,
    apply_color_affine,
    apply_shape_affine,
    sample_color_affine,
    sample_shape_affine,
    upsample_nearest,
)

# the names imported above, without the submodules their imports bind
__all__ = [
    name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
