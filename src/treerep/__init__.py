"""Exact Poisson-representability analysis of tree-indexed Markov chains.

A binary Markov chain indexed by a finite rooted tree is *Poisson
representable* when its law is the zero/one pattern of a union of
independent Poisson-distributed vertex sets.  Such a representation
exists exactly when a signed measure — recovered from the chain's
zero-pattern probabilities by inclusion-exclusion over connected sets —
is nonnegative everywhere.  This package computes that measure in exact
rational arithmetic, decides representability with witnesses, locates
the phase boundaries in the resampling parameter, differentiates the
measure exactly at the degenerate corners from evaluations on a cube of
0/1 parameter corners, and cross-checks everything by simulation.

Modules
-------
``tree_core``
    Rooted trees, vertex bitsets, spanning subtrees.
``chain_model``
    The chain's exact zero-pattern probabilities and two samplers.
``signed_measure``
    The inclusion-exclusion measure, exactly, with sign bookkeeping.
``thresholds``
    Complementary Bell numbers, polylog roots, threshold table.
``param_calculus``
    Exact derivatives of the measure at p=0, p=1, r=1 from 0/1 cube
    evaluations; closed forms they must match.
``representability``
    Verdicts, parameter-grid scans, subdivision consistency.
``mc_verify``
    Poisson-field sampling, chi-square comparisons, closure checks.
``cli``
    The ``treerep`` command-line front end.
"""

from .chain_model import (
    ChainParams,
    make_params,
    params_from_json,
    prob_all_zero,
    sample_percolation_many,
    sample_recursive_many,
    uniform_params,
)
from .mc_verify import (
    ClosureReport,
    ComparisonReport,
    PoissonField,
    compare_laws,
    field_from_chain,
    poisson_closure_report,
    poisson_field,
    sample_poisson_field_many,
)
from .param_calculus import (
    EdgeMultiset,
    boundary_edge_multiset,
    closed_form_p0,
    closed_form_p1,
    d_nu_dp,
    d_nu_dr,
    d_nu_dr_octopus,
    subtree_edge_multiset,
)
from .representability import (
    PhasePoint,
    Verdict,
    is_representable,
    phase_scan,
    scaling_check,
)
from .signed_measure import (
    MeasureValue,
    SignedMeasure,
    connected_log_events,
    nu_connected,
    nu_full,
    restrict_measure,
)
from .thresholds import (
    ThresholdTable,
    complementary_bell,
    f_k,
    f_poly,
    polylog_neg_order,
    r0,
    r1,
    r_star,
    threshold_table,
)
from .tree_core import (
    DomainError,
    RootedTree,
    VertexSet,
    build_tree,
    connected_subsets,
    is_connected,
    octopus,
    path,
    spanning_subtree,
    spider,
    star,
    subdivide,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tree_core
    "DomainError",
    "RootedTree",
    "VertexSet",
    "build_tree",
    "connected_subsets",
    "is_connected",
    "octopus",
    "path",
    "spanning_subtree",
    "spider",
    "star",
    "subdivide",
    "tree_from_json",
    "tree_to_json",
    # chain_model
    "ChainParams",
    "make_params",
    "params_from_json",
    "prob_all_zero",
    "sample_percolation_many",
    "sample_recursive_many",
    "uniform_params",
    # signed_measure
    "MeasureValue",
    "SignedMeasure",
    "connected_log_events",
    "nu_connected",
    "nu_full",
    "restrict_measure",
    # thresholds
    "ThresholdTable",
    "complementary_bell",
    "f_k",
    "f_poly",
    "polylog_neg_order",
    "r0",
    "r1",
    "r_star",
    "threshold_table",
    # param_calculus
    "EdgeMultiset",
    "boundary_edge_multiset",
    "closed_form_p0",
    "closed_form_p1",
    "d_nu_dp",
    "d_nu_dr",
    "d_nu_dr_octopus",
    "subtree_edge_multiset",
    # representability
    "PhasePoint",
    "Verdict",
    "is_representable",
    "phase_scan",
    "scaling_check",
    # mc_verify
    "ClosureReport",
    "ComparisonReport",
    "PoissonField",
    "compare_laws",
    "field_from_chain",
    "poisson_closure_report",
    "poisson_field",
    "sample_poisson_field_many",
]
