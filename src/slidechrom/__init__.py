"""Exact combinatorics of descent-weighted chromatic polynomials on
Dyck graphs, slide and key bases, and positivity searches."""

from .compositions import (
    WeakComposition,
    Window,
    dominates,
    leq_slide,
    refines,
    slide_set,
)
from .dyck import (
    DyckGraph,
    PartialDyckPath,
    count_paths,
    dyck_graph,
    enumerate_paths,
    restriction_map,
    scan_paths,
)
from .posets import (
    LabeledPoset,
    descent_composition,
    descent_composition_by_labels,
    graph_inversions,
    incomparability_poset,
    omega_labeling,
    orientation_from_perm,
    partition_generating_function,
    tightened_bounds,
    tightened_bounds_by_labels,
)
from .slides import (
    expand_in_slides,
    fundamental_qsym,
    slide_polynomial,
    tail_strong_decomposition,
)
from .chromatic import (
    chromatic_brute,
    chromatic_via_slides,
    compare_chromatic,
    fundamental_expansion,
    slide_expansion,
    verify_backstable,
    verify_fundamental_expansion,
)
from .keys import (
    NegativeRecord,
    divided_difference,
    expand_in_keys,
    is_key_positive,
    key_expansion_of_chromatic,
    key_polynomial,
    load_negative_fixtures,
    negative_records,
    search_negative_records,
)
from .tpoly import TPolynomial

__version__ = "0.1.0"

__all__ = [
    "WeakComposition",
    "Window",
    "dominates",
    "leq_slide",
    "refines",
    "slide_set",
    "DyckGraph",
    "PartialDyckPath",
    "count_paths",
    "dyck_graph",
    "enumerate_paths",
    "restriction_map",
    "scan_paths",
    "LabeledPoset",
    "descent_composition",
    "descent_composition_by_labels",
    "graph_inversions",
    "incomparability_poset",
    "omega_labeling",
    "orientation_from_perm",
    "partition_generating_function",
    "tightened_bounds",
    "tightened_bounds_by_labels",
    "expand_in_slides",
    "fundamental_qsym",
    "slide_polynomial",
    "tail_strong_decomposition",
    "chromatic_brute",
    "chromatic_via_slides",
    "compare_chromatic",
    "fundamental_expansion",
    "slide_expansion",
    "verify_backstable",
    "verify_fundamental_expansion",
    "NegativeRecord",
    "divided_difference",
    "expand_in_keys",
    "is_key_positive",
    "key_expansion_of_chromatic",
    "key_polynomial",
    "load_negative_fixtures",
    "negative_records",
    "search_negative_records",
    "TPolynomial",
]
