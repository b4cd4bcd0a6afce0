"""Exact homological computations for graded modules over exterior algebras."""

from .linalg import DEFAULT_PRIME
from .gmod import (
    GradedModule,
    ModuleMap,
    direct_sum,
    dual,
    free_module,
    iso_probable,
    shift,
    simple_module,
    socle,
    square_truncate,
    sub_quotient,
    validate,
    zero_module,
)
from .homology import (
    BettiTable,
    ComplexityEstimate,
    ar_translate,
    complexity,
    cosyzygy,
    is_linear,
    is_relative_sub,
    is_weakly_koszul,
    lowest_step,
    minimal_resolution,
    projective_cover,
    regular_element_test,
    syzygy,
)
from .homalg import (
    FiniteAlgebra,
    HomSpace,
    end_algebra,
    ext1_square_zero,
    ext_dim,
    hom_basis,
    is_indecomposable,
    stable_hom_dim,
    truncated_poly_fingerprint,
)
from .constructions import (
    Extension,
    ExtClass,
    ar_sequence_middle,
    cx1_filtration,
    filtration_projective,
    filtration_projective_explicit,
    kronecker_family,
    point_module,
    realize_ext,
    span_quotient,
    tensor,
    universal_extension,
)
from .modfile import parse as parse_module_file
from .modfile import serialize as serialize_module

__all__ = [name for name in dir() if not name.startswith("_")]
