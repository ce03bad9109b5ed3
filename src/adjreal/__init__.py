"""Exact decision procedures and certified reversers for adjoint reality
in the classical complex Lie algebras, over the Gaussian rationals.

The public names below are resolved on first access: ``adjreal.X`` and
``from adjreal import X`` import only the module that defines X, so a
caller (the CLI above all) loads just the modules it runs.
``from adjreal import *`` still binds every name in ``__all__``.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "certificates": ("ReverserCertificate", "VerificationReport", "verify_certificate"),
    "gaussian": ("GaussRat",),
    "jordan": ("JordanPair", "jordan_chevalley"),
    "liecore": (
        "CanonicalSemisimple",
        "LieContext",
        "algebra_member",
        "build_canonical",
        "centralizer_algebra",
        "group_member",
        "jn_matrix",
        "reverser_linear_space",
    ),
    "matrix": (
        "ExactMatrix",
        "PolyMatrix",
        "char_poly",
        "invariant_factors",
        "is_semisimple",
        "minimal_polynomial",
        "similar_to_negative",
        "solve_linear",
    ),
    "oracle": (
        "rcf_invariant_factors",
        "rcf_similar",
        "search_reverser",
        "sp1_involution_obstruction",
    ),
    "polynomial": ("ExactPoly", "linear_roots", "poly_gcd"),
    "semisimple": (
        "RealityVerdict",
        "decide_semisimple",
        "witness_general_semisimple",
        "witness_semisimple",
    ),
    "symplectic": (
        "Sl2Triple",
        "SymplecticChainData",
        "build_sigma",
        "build_tau",
        "chain_decomposition",
        "restrict_semisimple",
        "reverse_full",
        "sl2_triple",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module defining a public name on its first access and
    keep the name here, so later lookups bypass this hook."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
