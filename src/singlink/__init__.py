"""Exact-arithmetic toolkit for plane-curve singularity links.

Pipeline: singularity input data (Puiseux pairs, ADE labels, torus
exponents, braid words) -> positive-braid Legendrian presentations and
invariants -> brick and divide intersection quivers -> cluster seed
enumeration -> augmentation-variety and sheaf-moduli equation systems,
with finite-field counting oracles validating each stage.

The names below are imported from their submodule on first access
(PEP 562), so ``import singlink`` loads no submodule.
"""

import importlib

_EXPORTS = {
    "exactmath": (
        "PolyMatrix", "Polynomial", "RingDescriptor", "divide_exact", "parse_polynomial",
    ),
    "links": (
        "BraidWord", "CablePairs", "DynkinType", "LinkInvariants", "PuiseuxPairs", "ade_braid",
        "append_full_twist", "braid_from_text", "braid_invariants", "cable_pairs_from_puiseux",
        "is_algebraic", "parse_ade_label", "parse_dynkin_type", "torus_braid",
    ),
    "divides": (
        "AcampoQuiver", "Divide", "DivideFaces", "Strand", "acampo_quiver", "divide_from_json",
        "milnor_number", "trace_faces",
    ),
    "dividecatalog": ("CATALOG_LABELS", "divide_catalog", "divide_from_polylines"),
    "bricks": ("Brick", "BrickQuiver", "brick_quiver", "to_exchange_matrix"),
    "quivers": (
        "ExchangeMatrix", "expected_seed_count", "initial_matrix", "is_finite_type", "mutate",
    ),
    "cluster": ("Seed", "enumerate_seeds", "initial_seed", "mutate_seed"),
    "augment": (
        "AugmentationSystem", "augmentation_equations", "count_solutions_bruteforce",
        "count_solutions_dp",
    ),
    "sheafmoduli": (
        "ThetaSystem", "count_positroid_points", "theta_equations_recursion",
        "theta_equations_wedge", "theta_system",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
