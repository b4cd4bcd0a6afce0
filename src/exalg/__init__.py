"""Exact homological computations for graded modules over exterior algebras.

Submodules load on first use (PEP 562), so `import exalg` loads no numpy.
"""

import importlib

_EXPORTS = {
    "DEFAULT_PRIME": ("linalg", "DEFAULT_PRIME"),
    **{name: ("gmod", name) for name in (
        "GradedModule", "ModuleMap", "direct_sum", "dual", "free_module", "iso_probable",
        "shift", "simple_module", "socle", "square_truncate", "sub_quotient", "validate",
        "zero_module",
    )},
    **{name: ("homology", name) for name in (
        "BettiTable", "ComplexityEstimate", "ar_translate", "complexity", "cosyzygy",
        "is_relative_sub", "lowest_step", "minimal_resolution",
        "projective_cover", "regular_element_test", "syzygy",
    )},
    **{name: ("homalg", name) for name in (
        "FiniteAlgebra", "HomSpace", "end_algebra", "ext1_square_zero", "ext_dim",
        "hom_basis", "stable_hom_dim", "truncated_poly_fingerprint",
    )},
    **{name: ("constructions", name) for name in (
        "Extension", "ExtClass", "ar_sequence_middle", "cx1_filtration",
        "filtration_projective", "filtration_projective_explicit", "kronecker_family",
        "point_module", "realize_ext", "span_quotient", "tensor", "universal_extension",
    )},
    "parse_module_file": ("modfile", "parse"),
    "serialize_module": ("modfile", "serialize"),
    # the submodules themselves; an attribute of None names the module
    **{name: (name, None) for name in (
        "constructions", "exterior", "gmod", "homalg", "homology", "linalg", "modfile",
    )},
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    mod = importlib.import_module(f".{module}", __name__)
    return mod if attr is None else getattr(mod, attr)
