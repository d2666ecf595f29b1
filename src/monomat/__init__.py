"""Monotone submatrix toolkit.

Constructive extraction of row-monotone and fully monotone n x n submatrices
from wide matrices, explicit generators for lower-bound witness matrices with
no such submatrix, and budgeted exact searches (the oracles) that check every
guarantee at desk scale.
"""

from .errors import MonomatError
from .extraction import (
    PipelineResult,
    bipartite_split,
    find_monotone,
    find_row_monotone,
    is_binary_tree_like,
    monochromatic_submatrix,
    monotone_subsequence_1d,
    perfect_leafset_extract,
    tree_like_subsequence,
)
from .matrix import (
    DECREASING,
    INCREASING,
    Matrix,
    SubmatrixWitness,
    format_matrix,
    is_monotone,
    is_row_monotone,
    parse_matrix,
    sign_diff,
    submatrix,
)
from .oracle import (
    SearchBudget,
    brute_force_monotone,
    brute_force_row_monotone,
    es_extremal_sequence,
)
from .trees import (
    InducedTree,
    LabeledBinaryTree,
    common_ancestor,
    induced_subtree,
    is_layered,
    is_perfect_leafset,
    leaf_ancestor,
    levels_leafset,
)
from .witness import (
    SignMatrix,
    WitnessCheckReport,
    WitnessMatrix,
    build_witness,
    colex_delta,
    colex_unrank,
    sample_sign_matrix,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "DECREASING",
    "INCREASING",
    "InducedTree",
    "LabeledBinaryTree",
    "Matrix",
    "MonomatError",
    "PipelineResult",
    "SearchBudget",
    "SignMatrix",
    "SubmatrixWitness",
    "WitnessCheckReport",
    "WitnessMatrix",
    "bipartite_split",
    "brute_force_monotone",
    "brute_force_row_monotone",
    "build_witness",
    "colex_delta",
    "colex_unrank",
    "common_ancestor",
    "es_extremal_sequence",
    "find_monotone",
    "find_row_monotone",
    "format_matrix",
    "induced_subtree",
    "is_binary_tree_like",
    "is_layered",
    "is_monotone",
    "is_perfect_leafset",
    "is_row_monotone",
    "leaf_ancestor",
    "levels_leafset",
    "monochromatic_submatrix",
    "monotone_subsequence_1d",
    "parse_matrix",
    "perfect_leafset_extract",
    "sample_sign_matrix",
    "sign_diff",
    "submatrix",
    "tree_like_subsequence",
    "verify_witness",
]
