"""The package's public names and signatures, pinned.

Adding or removing a name from ``treerep.__all__``, or a parameter or
default of a public callable, is a contract change; these tests make it
a deliberate one.
"""

import inspect

import treerep

PUBLIC = [
    "ChainParams",
    "ClosureReport",
    "ComparisonReport",
    "DomainError",
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


# Each public callable's parameters, kinds and defaults, without
# annotations; a class's entry is its constructor's, and its public
# methods are listed as Class.method.  DomainError, an exception class,
# takes any arguments.
SIGNATURES = {
    "ChainParams": "(r, p)",
    "ClosureReport": "(draws, checked, max_sigmas, worst_set, tolerance, passed)",
    "ComparisonReport": "(statistic, dof, p_value, alpha, cells, draws, passed)",
    "EdgeMultiset": "(items)",
    "EdgeMultiset.of": "(*edges)",
    "EdgeMultiset.from_string": "(text)",
    "MeasureValue": "(num, den)",
    "MeasureValue.from_ratio": "(x)",
    "PhasePoint": "(r, p, verdict)",
    "PoissonField": "(atoms)",
    "RootedTree": "(n, root, edges, parent, children, preorder, neighbor_masks, parent_edge)",
    "RootedTree.edge_index": "(self, u, v)",
    "SignedMeasure": "(n, entries)",
    "SignedMeasure.value": "(self, subset)",
    "ThresholdTable": "(n, bell_c, r_star, r0, r1)",
    "Verdict": "(representable, witness, checked_sets)",
    "VertexSet": "(bits=0)",
    "VertexSet.of": "(*vertices)",
    "VertexSet.from_iter": "(vertices)",
    "boundary_edge_multiset": "(tree, subset)",
    "build_tree": "(edges, root=0)",
    "closed_form_p0": "(b, r)",
    "closed_form_p1": "(tree, subset, r)",
    "compare_laws": "(counts_a, counts_b, n, alpha=0.01)",
    "complementary_bell": "(n)",
    "connected_log_events": "(tree, subset)",
    "connected_subsets": "(tree)",
    "d_nu_dp": "(tree, params, subset, edges, at='params')",
    "d_nu_dr": "(tree, params, subset, vertices, at='params')",
    "d_nu_dr_octopus": "(m, p_first, p_second)",
    "f_k": "(k, r)",
    "f_poly": "(j, r)",
    "field_from_chain": "(tree, params)",
    "is_connected": "(tree, subset)",
    "is_representable": "(tree, params, sweep=None)",
    "make_params": "(tree, r_spec, p_spec)",
    "nu_connected": "(tree, params, subset, prob_cache=None)",
    "nu_full": "(tree, params)",
    "octopus": "(m, depth)",
    "params_from_json": "(tree, text)",
    "path": "(n)",
    "phase_scan": "(tree, r_values, p_values)",
    "poisson_closure_report": "(tree, params, counts, tolerance=4.0)",
    "poisson_field": "(measure)",
    "polylog_neg_order": "(n, z)",
    "prob_all_zero": "(tree, params, zero_on)",
    "r0": "(k)",
    "r1": "(m)",
    "r_star": "(n)",
    "restrict_measure": "(measure, keep)",
    "sample_percolation_many": "(tree, params, n_draws, seed)",
    "sample_poisson_field_many": "(field, n_draws, seed)",
    "sample_recursive_many": "(tree, params, n_draws, seed)",
    "scaling_check": "(tree, r, p, k)",
    "spanning_subtree": "(tree, subset)",
    "spider": "(k, leg_len)",
    "star": "(k)",
    "subdivide": "(tree, k)",
    "subtree_edge_multiset": "(tree, subset)",
    "threshold_table": "(ns)",
    "tree_from_json": "(text)",
    "tree_to_json": "(tree)",
    "uniform_params": "(tree, r, p)",
}


def _plain_signature(obj):
    sig = inspect.signature(obj)
    empty = inspect.Signature.empty
    return str(sig.replace(
        parameters=[p.replace(annotation=empty) for p in sig.parameters.values()],
        return_annotation=empty,
    ))


def test_public_signatures_are_pinned():
    got = {}
    for name in PUBLIC:
        obj = getattr(treerep, name)
        if name == "__version__" or obj is treerep.DomainError:
            continue
        got[name] = _plain_signature(obj)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and callable(getattr(value, "__func__", value)):
                    got[name + "." + attr] = _plain_signature(getattr(obj, attr))
    assert got == SIGNATURES
