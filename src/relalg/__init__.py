"""Workbench for finite symmetric integral relation algebras.

Builds the two-parameter L(p,n) family and its fused subalgebras, checks
the algebra axioms exhaustively, constructs and verifies representations
(affine planes, doubling, coordinatewise powers, seeded random doubled
structures), evaluates the probabilistic sufficiency bounds, and runs
the few-generator embedding and equation-length pipelines.

Every name below is imported from its module on first access (PEP 562),
so ``import relalg`` runs no submodule and each command pays only for
the layers it uses.
"""

import importlib

_EXPORTS = {
    "algebra": (
        "AxiomReport",
        "Element",
        "Embedding",
        "FiniteRelationAlgebra",
        "SubalgebraDescription",
        "check_axioms",
        "check_embedding",
        "generate_subalgebra",
    ),
    "errors": ("ParseError", "ResourceBudgetError"),
    "gf": ("FieldSpec", "field_make", "is_prime_power"),
    "lpn": ("build_fused", "build_lpn", "fusion_embedding"),
    "structures": (
        "AtomLabeling",
        "ImageRelation",
        "Power",
        "VerifyReport",
        "Xi",
        "build_affine",
        "build_doubled",
        "build_power",
        "degree_audit",
        "image",
        "verify_full",
        "verify_weak",
    ),
    "terms": (
        "Equation",
        "equation_length",
        "eval_term",
        "falsify",
        "parse",
        "parse_equation",
        "parse_term",
        "print_equation",
        "print_term",
    ),
    "xi": (
        "BoundReport",
        "PartitionRecipe",
        "XiFastChecker",
        "build_xi",
        "check_xi_fast",
        "eval_bounds",
        "eval_bounds_power",
        "montecarlo",
        "search_weakrep",
        "sufficiency_thresholds",
    ),
    "complexity": (
        "algebra_size",
        "beta_lower_bound",
        "build_gamma_embedding",
        "choose_params",
        "pigeonhole_pair",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as the eager imports bound it
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
