"""Verdicts, phase points, and the subdivision consistency check."""

import random
import re
from fractions import Fraction

import pytest

import treerep.representability as representability
import treerep.signed_measure as signed_measure
import treerep.tree_core as tree_core
from treerep.chain_model import ChainParams, float_weights, scaled_params, uniform_params
from treerep.param_calculus import EdgeMultiset, d_nu_dp
from treerep.representability import (
    MAX_VERDICT_ORDER,
    PhasePoint,
    SweepPlan,
    Verdict,
    is_representable,
    phase_scan,
    scaling_check,
)
from treerep.signed_measure import connected_log_events, nu_connected, nu_full, restrict_measure
from treerep.tree_core import (
    DomainError,
    VertexSet,
    build_tree,
    connected_subsets,
    is_connected,
    octopus,
    path,
    spider,
    star,
)

from conftest import random_params, random_tree
from oracles import lattice_scaling_check

F = Fraction


def test_paths_are_representable_on_a_grid():
    for n in (2, 3, 5):
        t = path(n)
        for r in (F(1, 4), F(1, 2), F(3, 4)):
            for p in (F(1, 4), F(1, 2), F(3, 4)):
                v = is_representable(t, uniform_params(t, r, p))
                assert v.representable and v.witness is None
    v = is_representable(path(8), uniform_params(path(8), F(3, 10), F(7, 10)))
    assert v.representable


def test_sets_with_at_most_four_boundary_events_are_never_negative():
    """No connected set S with |lam| <= 2 has nu(S) < 0, so paths are representable.

    nu(S) sums (-1)^|J| log P(X(J + outer) = 0) over the subsets J of
    lam (:func:`~treerep.signed_measure.connected_log_events`), so S has
    2^|lam| boundary events.  |lam| = 1 only for a singleton {v}, whose
    nu is log P(Z) - log P(Z, X_v = 0) >= 0, with Z = {X(outer) = 0}.
    For lam = {a, b}, nu(S) >= 0 says exactly that the events {X_a = 0}
    and {X_b = 0} are positively correlated given Z.  Each edge's
    copy-or-resample kernel K is TP2, K00 K11 - K01 K10 = 1 - p >= 0, so
    the chain's law, vertex factors times TP2 edge factors, satisfies
    the FKG lattice condition, and so does its restriction to Z, a
    sublattice.  Decreasing events are then positively correlated
    (Fortuin, Kasteleyn and Ginibre; the four functions theorem of
    Ahlswede and Daykin allows the zero weights of p = 0).  This is the
    tree case of the result that positively associated Markov chains
    are Poisson representable.  Every connected set of a path is an
    interval, with lam its one or two ends, so every path is
    representable at every parameter point.
    """
    rng = random.Random(20261020)

    def chain(t):
        # laws in [1/100, 99/100], a fifth of the edges at p = 0 or p = 1
        params = random_params(rng, t, denom=100)
        p = tuple(rng.choice((F(0), F(1))) if rng.random() < 0.2 else x for x in params.p)
        return ChainParams(r=params.r, p=p)

    small = negative = 0
    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 10))
        params = chain(t)
        weights = scaled_params(t, params)
        for bits in connected_subsets(t):
            s = VertexSet(bits)
            sign = nu_connected(t, weights, s).sign
            if len(connected_log_events(t, s)) <= 4:
                assert sign >= 0, (t.edges, params, s)
                small += 1
            negative += sign < 0
    # 1,687 sets with |lam| <= 2 checked, and 56 sets with |lam| >= 3 negative
    assert small >= 1500 and negative >= 50
    for n in range(2, 13):
        verdict = is_representable(path(n), chain(path(n)))
        assert verdict.representable and verdict.checked_sets == n * (n + 1) // 2


def test_octopus_flips_across_one_half_at_large_p():
    t = octopus(3, 2)
    p = F(19, 20)
    low = is_representable(t, uniform_params(t, F(9, 20), p))
    assert not low.representable
    assert low.witness == VertexSet.of(0, 1, 3, 5)  # center plus inner ring
    assert low.checked_sets == 23  # stops at the witness, (size, bits) order
    high = is_representable(t, uniform_params(t, F(11, 20), p))
    assert high.representable and high.witness is None
    assert high.checked_sets == 36  # every connected set got checked


def test_octopus_stays_representable_above_threshold_for_all_p():
    t = octopus(3, 2)
    for p in (F(1, 20), F(1, 2), F(19, 20)):
        assert is_representable(t, uniform_params(t, F(11, 20), p)).representable


def test_spider_flips_near_its_degree_threshold_at_large_p():
    # r1(4) is about 0.789, so 0.7 / 0.8 straddle it
    t = spider(4, 2)
    p = F(19, 20)
    low = is_representable(t, uniform_params(t, F(7, 10), p))
    assert not low.representable
    assert low.witness == VertexSet.of(0, 1, 3, 5, 7)
    assert is_representable(t, uniform_params(t, F(4, 5), p)).representable


def test_star4_column_at_three_fifths_is_re_entrant_in_r():
    # representable at r = 1/20, not at 2/20..7/20, and again from 8/20:
    # the phase picture is not one flip in r
    t = star(4)
    grid = [F(k, 20) for k in range(1, 20)]
    pts = phase_scan(t, grid, [F(3, 5)])
    assert [q.r for q in pts] == grid
    assert "".join("R" if q.verdict.representable else "." for q in pts) == "R......RRRRRRRRRRRR"
    for q in pts:
        witness = q.verdict.witness
        if q.verdict.representable:
            assert witness is None
            continue
        assert is_connected(t, witness)
        measure = nu_full(t, uniform_params(t, q.r, q.p))
        assert measure.value(witness.bits).sign < 0


def test_deep_positive_phase():
    rng = random.Random(7)
    for _ in range(5):
        t = random_tree(rng, rng.randint(2, 7))
        assert is_representable(t, uniform_params(t, F(99, 100), F(1, 2))).representable


def test_phase_scan_orders_points_and_matches_single_verdicts():
    t = octopus(3, 2)
    pts = phase_scan(t, [F(11, 20), F(9, 20)], [F(19, 20), F(1, 2)])
    assert [(q.r, q.p) for q in pts] == [
        (F(9, 20), F(1, 2)),
        (F(9, 20), F(19, 20)),
        (F(11, 20), F(1, 2)),
        (F(11, 20), F(19, 20)),
    ]
    flags = {(q.r, q.p): q.verdict.representable for q in pts}
    assert flags[(F(9, 20), F(19, 20))] is False
    assert flags[(F(11, 20), F(19, 20))] is True
    assert phase_scan(t, [F(9, 20), F(11, 20)], [F(1, 2), F(19, 20)]) == pts


def test_rerooting_changes_nothing_with_uniform_vertex_law():
    rng = random.Random(20240821)
    base = random_tree(rng, 6)
    p_values = [F(rng.randint(1, 11), 12) for _ in base.edges]
    reference = None
    for root in range(base.n):
        t = build_tree(base.edges, root=root)
        params = ChainParams(r=(F(5, 12),) * t.n, p=tuple(p_values))
        measure = nu_full(t, params)
        table = {bits: measure.value(bits).ratio for bits in measure}
        verdict = is_representable(t, params)
        if reference is None:
            reference = (table, verdict.representable)
        else:
            assert (table, verdict.representable) == reference


def test_restriction_keeps_nonnegativity():
    rng = random.Random(20240822)
    seen = 0
    while seen < 8:
        t = random_tree(rng, rng.randint(3, 6))
        params = random_params(rng, t)
        if not is_representable(t, params).representable:
            continue
        seen += 1
        keep = VertexSet(rng.randrange(1, 1 << t.n))
        restricted = restrict_measure(nu_full(t, params), keep)
        for bits in restricted:
            assert restricted.value(bits).sign >= 0


def test_scaling_check_fixtures():
    assert scaling_check(path(3), F(1, 2), F(1, 2), 2)   # p' = 3/4
    assert scaling_check(path(3), F(1, 2), F(1, 2), 3)   # p' = 7/8
    assert scaling_check(star(3), F(1, 3), F(1, 4), 2)   # p' = 7/16
    assert scaling_check(path(4), F(2, 7), F(3, 11), 2)
    assert scaling_check(path(3), F(1, 2), F(1, 2), 1)


@pytest.mark.parametrize("tree, k", [(star(7), 2), (star(5), 3), (path(2), 15)])
def test_scaling_check_runs_up_to_the_lattice_cap(tree, k):
    # the largest subdivisions the lattice oracle takes
    assert tree.n + (k - 1) * (tree.n - 1) in (15, 16)
    assert scaling_check(tree, F(1, 2), F(1, 3), k) is True
    assert lattice_scaling_check(tree, F(1, 2), F(1, 3), k) is True


@pytest.mark.parametrize("tree, k", [(path(3), 8), (spider(3, 2), 3), (star(3), 7), (path(2), 23)])
def test_scaling_check_runs_up_to_the_tree_cap(tree, k):
    assert 16 < tree.n + (k - 1) * (tree.n - 1) <= 24  # 17, 19, 22 and 24 vertices
    assert scaling_check(tree, F(1, 2), F(1, 3), k) is True


def test_scaling_check_is_bounded_by_the_tree_cap(monkeypatch):
    def no_tree(edges, root=0):
        raise AssertionError("a subdivided tree was built")

    t = path(3)
    monkeypatch.setattr(tree_core, "build_tree", no_tree)
    for k in (12, 10**9):  # 25 vertices, or 2 * 10^9 + 1
        with pytest.raises(DomainError, match="subdivided order %d exceeds cap 24" % (2 * k + 1)):
            scaling_check(t, F(1, 2), F(1, 3), k)


def test_scaling_check_agrees_with_the_lattice_oracle():
    # random trees subdivided to at most 16 vertices, the oracle's cap, with
    # p = 0, p = 1 and r = 1 among the laws
    rng = random.Random(20261021)
    for _ in range(120):
        t = random_tree(rng, rng.randint(1, 7))
        k = rng.randint(1, 1 + (16 - t.n) // max(t.n - 1, 1))
        r = rng.choice([F(1), F(1, 2), F(rng.randint(1, 11), 12)])
        p = rng.choice([F(0), F(1), F(1, 3), F(rng.randint(0, 12), 12)])
        assert scaling_check(t, r, p, k) == lattice_scaling_check(t, r, p, k)


def test_scaling_check_refutes_a_subdivision_into_k_plus_one_segments(monkeypatch):
    # The mutant splits each edge into k + 1 segments while p' still uses k.
    # Excluded inputs cannot tell k from k + 1: a single vertex has no edge
    # to split, p = 0 and p = 1 give p' = p for every k (edges copy, or
    # resample, all along a split edge), and r = 1 makes every value 0 and
    # every measure zero.
    monkeypatch.setattr(
        representability, "subdivide", lambda tree, k: tree_core.subdivide(tree, k + 1)
    )
    rng = random.Random(37)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 6))
        k = rng.randint(1, max(1, (16 - t.n) // (t.n - 1)))
        r, p = F(rng.randint(1, 11), 12), F(rng.randint(1, 11), 12)
        assert scaling_check(t, r, p, k) is False, (t.edges, r, p, k)


def test_scaling_needs_the_aggregated_parameter():
    # restricting the subdivided measure does not reproduce the raw p
    t = path(3)
    big, originals = __import__("treerep.tree_core", fromlist=["subdivide"]).subdivide(t, 2)
    restricted = restrict_measure(nu_full(big, uniform_params(big, F(1, 2), F(1, 2))), originals)
    raw = nu_full(t, uniform_params(t, F(1, 2), F(1, 2)))
    pair = VertexSet.of(0, 1)
    assert restricted.value(pair).ratio != raw.value(pair).ratio


def test_a_sweep_plan_of_another_tree_is_refused():
    for tree, other in ((star(4), path(5)), (path(6), star(5)), (path(3), path(4))):
        params = uniform_params(tree, F(1, 2), F(9, 10))
        with pytest.raises(DomainError, match="another tree"):
            is_representable(tree, params, (SweepPlan(other), iter(())))
    t = star(4)
    params = uniform_params(t, F(1, 2), F(1, 2))
    plan = SweepPlan(star(4))  # a plan of an equal tree is accepted
    signs = representability.float_signs(plan, float_weights(t, [params]))
    rows = representability._row(signs, 0)
    assert is_representable(t, params, (plan, rows)) == is_representable(t, params)


def test_phase_scan_checks_each_grid_value_as_it_is_read():
    def grid():
        yield F(0)
        raise RuntimeError("the grid was read past its first bad value")

    for r_values, p_values in ((grid(), [F(1, 2)]), ([F(1, 2)], grid())):
        with pytest.raises(DomainError, match=re.escape("scan grids must lie strictly inside (0, 1)")):
            phase_scan(path(2), r_values, p_values)


def test_phase_scan_reads_the_grids_in_turn():
    # a bad p value is refused before a long r grid is read to its end
    def long_r_grid():
        yield F(1, 3)
        yield F(1, 2)
        raise RuntimeError("the r grid was read past its second value")

    with pytest.raises(DomainError, match=re.escape("scan grids must lie strictly inside (0, 1)")):
        phase_scan(path(2), long_r_grid(), [F(0)])


_NO_LOG = "fresh-draw probabilities must be > 0: zero-probability events have no finite log"


def test_a_verdicts_exact_path_shares_one_probability_cache(monkeypatch):
    # A margin of 2^60 sends more sets to the exact path (108 sweeps for
    # 210 events here, against 20 for 32 at the default), so the test does
    # not rest on the margin's value.  Sets with common events must share
    # their sweeps: one cache per set would sweep every event.
    monkeypatch.setattr(representability, "MARGIN", 2.0**60)
    sweeps, events = [], []
    sweep, list_events = signed_measure.prob_all_zero, signed_measure.connected_log_events

    def counted_sweep(*args):
        sweeps.append(args[2])
        return sweep(*args)

    def counted_events(tree, subset):
        found = list_events(tree, subset)
        events.extend(found)
        return found

    monkeypatch.setattr(signed_measure, "prob_all_zero", counted_sweep)
    monkeypatch.setattr(signed_measure, "connected_log_events", counted_events)
    t = octopus(3, 2)
    verdict = is_representable(t, uniform_params(t, F(11, 20), F(19, 20)))
    assert verdict.representable
    assert 0 < len(sweeps) < len(events)


def test_a_vertex_law_of_zero_has_one_refusal():
    t = path(3)
    params = ChainParams(r=(F(1, 2), 0, F(1, 2)), p=(F(1, 2),) * 2)
    calls = [
        lambda: is_representable(t, params),
        lambda: nu_full(t, params),
        lambda: d_nu_dp(t, params, VertexSet.of(0, 1), EdgeMultiset.of((0, 1)), at="p0"),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="^%s$" % re.escape(_NO_LOG)):
            call()


def test_a_vertex_law_of_zero_is_refused_before_the_plan_is_built(monkeypatch):
    def no_plan(tree):
        raise AssertionError("built a sweep plan")

    monkeypatch.setattr(representability, "SweepPlan", no_plan)
    t = star(19)
    with pytest.raises(DomainError, match=re.escape(_NO_LOG)):
        is_representable(t, uniform_params(t, F(0), F(1, 2)))


def test_verdict_input_validation():
    t = path(3)
    with pytest.raises(ValueError):
        is_representable(t, ChainParams(r=(0, F(1, 2), F(1, 2)), p=(F(1, 2),) * 2))
    big = path(MAX_VERDICT_ORDER + 1)
    with pytest.raises(ValueError):
        is_representable(big, uniform_params(big, F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        phase_scan(t, [F(1, 2)], [0])
    with pytest.raises(ValueError):
        phase_scan(t, [1], [F(1, 2)])
    assert scaling_check(path(8), F(1, 2), F(1, 2), 3)  # 22 vertices after splitting
    for k in (4, 10**9):  # 29 vertices after splitting, or 7 * 10^9 + 1
        with pytest.raises(ValueError):
            scaling_check(path(8), F(1, 2), F(1, 2), k)
    with pytest.raises(ValueError):
        scaling_check(t, F(1, 2), F(1, 2), 0)
    for k in (2.5, 2.0, "2", True):  # never rounded or coerced to an int
        with pytest.raises(DomainError, match="subdivision factor must be an integer"):
            scaling_check(t, F(1, 2), F(1, 2), k)
