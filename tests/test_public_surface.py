"""The package's public names, pinned.

Adding or removing a name from ``treerep.__all__`` is a contract change;
this test makes it a deliberate one.
"""

import treerep

PUBLIC = [
    "ChainParams",
    "ClosureReport",
    "ComparisonReport",
    "DomainError",
    "DualValue",
    "EdgeMultiset",
    "MeasureValue",
    "PhasePoint",
    "PoissonField",
    "RootedTree",
    "SignedMeasure",
    "ThresholdTable",
    "Verdict",
    "VertexSet",
    "__version__",
    "boundary_edge_multiset",
    "build_tree",
    "closed_form_p0",
    "closed_form_p1",
    "compare_laws",
    "complementary_bell",
    "connected_log_events",
    "connected_subsets",
    "d_nu_dp",
    "d_nu_dr",
    "d_nu_dr_octopus",
    "f_k",
    "f_poly",
    "field_from_chain",
    "is_connected",
    "is_representable",
    "make_params",
    "nu_connected",
    "nu_full",
    "octopus",
    "params_from_json",
    "path",
    "phase_scan",
    "poisson_closure_report",
    "poisson_field",
    "polylog_neg_order",
    "prob_all_zero",
    "r0",
    "r1",
    "r_star",
    "restrict_measure",
    "sample_percolation_many",
    "sample_poisson_field_many",
    "sample_recursive_many",
    "scaling_check",
    "spanning_subtree",
    "spider",
    "star",
    "subdivide",
    "subtree_edge_multiset",
    "threshold_table",
    "tree_from_json",
    "tree_to_json",
    "uniform_params",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(treerep.__all__) == PUBLIC
    assert len(set(treerep.__all__)) == len(treerep.__all__)
    for name in PUBLIC:
        assert getattr(treerep, name) is not None
