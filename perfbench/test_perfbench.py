"""Tests of the benchmark's own machinery: inputs, span arithmetic, checks."""

import json
import os
import random
from fractions import Fraction

import pytest

import checks
import inputs
import run
import speed
import tracing


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = inputs.build_deck(workload, 7, "in")
    second = inputs.build_deck(workload, 7, "in")
    assert [op.argv for op in first.ops] == [op.argv for op in second.ops]
    assert first.files == second.files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    one = inputs.build_deck(workload, 7, "in")
    other = inputs.build_deck(workload, 8, "in")
    assert len(one.ops) == len(other.ops)
    assert [op.argv for op in one.ops] != [op.argv for op in other.ops] or one.files != other.files


def test_prufer_trees_are_trees():
    rng = random.Random(1)
    for n in range(2, 15):
        edges = inputs.prufer_edges(n, rng)
        assert len(edges) == n - 1
        assert checks.is_connected(n, edges, range(n))


def test_self_time_subtracts_the_union_of_child_intervals():
    # id, parent, name, start, end, op, thread, info
    spans = [
        (1, 0, "cli", 0.0, 10.0, 1, 1, None),
        (2, 1, "a", 1.0, 4.0, 1, 1, None),  # two children overlapping in time,
        (3, 1, "b", 3.0, 6.0, 1, 2, None),  # as pool threads do
        (4, 2, "c", 2.0, 3.0, 1, 1, None),
        (5, 1, "d", 9.5, 11.0, 1, 2, None),  # sticks out of its parent
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.5))
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.5)


def test_covered_merges_nested_and_disjoint_intervals():
    assert tracing.covered([(1, 3), (2, 2.5), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert tracing.covered([], 0, 1) == 0.0


def test_scale_leaves_times_at_reference_speed_unchanged():
    times = [0.1, 0.2, 0.3]
    assert speed.scale(times, [1.0] * 3) == pytest.approx(times)
    assert speed.scale(times, [2.0] * 3) == pytest.approx([0.05, 0.1, 0.15])


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert run.percentile(values, 90) == pytest.approx(90.1)


def test_complementary_bell_numbers():
    assert [checks.complementary_bell(n) for n in range(9)] == [1, -1, 0, 1, 1, -2, -9, -9, 50]


def test_independent_oracle_matches_the_engine():
    run.import_cli()  # puts this checkout's treerep on sys.path
    from treerep.chain_model import make_params, prob_all_zero
    from treerep.tree_core import VertexSet, build_tree

    edges = ((0, 1), (1, 2), (1, 3), (0, 4))
    r = [Fraction(k, 10) for k in (3, 5, 7, 2, 9)]
    p = [Fraction(k, 10) for k in (1, 4, 6, 8)]
    tree = build_tree(list(edges))
    params = make_params(tree, dict(enumerate(r)), {"%d-%d" % e: x for e, x in zip(edges, p)})
    for mask in range(1, 32):
        zero_on = {v for v in range(5) if mask >> v & 1}
        assert checks.prob_all_zero(5, edges, r, p, zero_on) == prob_all_zero(
            tree, params, VertexSet(mask))


def test_witness_mass_sign_by_full_inclusion_exclusion():
    edges = inputs.spec_edges("octopus:3x2")
    r, p = ["9/20"] * 7, ["19/20"] * 6
    assert checks.mass_is_negative(7, edges, r, p, [0, 1, 3, 5])
    assert not checks.mass_is_negative(7, edges, ["11/20"] * 7, p, [0, 1, 3, 5])


def test_traced_scan_nests_pool_work_under_phase_scan(tmp_path):
    cli, _ = run.import_cli()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        argv = ["scan", "--tree", "octopus:3x2", "--r-grid", "9/20,11/20", "--p-grid", "19/20",
                "--threads", "2", "--out", str(tmp_path / "scan.csv")]
        assert tracer.run_op(1, cli.main, argv) == 0
    finally:
        tracing.uninstall(undo)
    import treerep.representability as representability

    assert representability.is_representable.__module__ == "treerep.representability"
    names = {span[0]: span[2] for span in tracer.spans}
    verdicts = [span for span in tracer.spans if span[2] == "representability.is_representable"]
    assert len(verdicts) == 2
    assert all(names[span[1]] == "representability.phase_scan" for span in verdicts)
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["representability.phase_scan.points"] == 2
    assert metrics["representability.witness_ratio"] == 0.5
    assert 0 < metrics["signed_measure.prob_cache_hit_ratio"] < 1


def test_missing_binding_stops_the_traced_run(monkeypatch):
    run.import_cli()
    import treerep.signed_measure as signed_measure

    original = signed_measure.prob_all_zero
    spans = tracing.SPANS + (("gone", [("signed_measure", "no_such_function")], None),)
    monkeypatch.setattr(tracing, "SPANS", spans)
    with pytest.raises(SystemExit, match="no_such_function"):
        tracing.install(tracing.Tracer())
    assert signed_measure.prob_all_zero is original


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
