"""Exact-arithmetic toolkit for plane-curve singularity links.

Pipeline: singularity input data (Puiseux pairs, ADE labels, torus
exponents, braid words) -> positive-braid Legendrian presentations and
invariants -> brick and divide intersection quivers -> cluster seed
enumeration -> augmentation-variety and sheaf-moduli equation systems,
with finite-field counting oracles validating each stage.
"""

from .exactmath import (
    PolyMatrix,
    Polynomial,
    RingDescriptor,
    divide_exact,
    parse_polynomial,
)
from .links import (
    ADELabel,
    BraidWord,
    CablePairs,
    LinkInvariants,
    PuiseuxPairs,
    ade_braid,
    append_full_twist,
    braid_from_text,
    braid_invariants,
    cable_pairs_from_puiseux,
    is_algebraic,
    parse_ade_label,
    torus_braid,
)
from .divides import (
    AcampoQuiver,
    Divide,
    DivideFaces,
    Strand,
    acampo_quiver,
    divide_from_json,
    milnor_number,
    trace_faces,
)
from .dividecatalog import CATALOG_LABELS, divide_catalog, divide_from_polylines
from .bricks import Brick, BrickQuiver, brick_quiver, to_exchange_matrix
from .cluster import (
    DynkinType,
    ExchangeMatrix,
    Seed,
    enumerate_seeds,
    expected_seed_count,
    initial_matrix,
    initial_seed,
    is_finite_type,
    mutate,
    mutate_seed,
    parse_dynkin_type,
)
from .augment import (
    AugmentationSystem,
    augmentation_equations,
    count_solutions_bruteforce,
    count_solutions_dp,
    pk_matrix,
)
from .sheafmoduli import (
    ThetaSystem,
    count_positroid_points,
    theta_equations_recursion,
    theta_equations_wedge,
    theta_system,
)

__version__ = "0.1.0"
