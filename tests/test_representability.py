"""Verdicts, phase points, and the subdivision consistency check."""

import random
from fractions import Fraction

import pytest

from treerep.chain_model import ChainParams, uniform_params
from treerep.representability import (
    MAX_SCALING_ORDER,
    MAX_VERDICT_ORDER,
    PhasePoint,
    SweepPlan,
    Verdict,
    is_representable,
    phase_scan,
    scaling_check,
)
from treerep.signed_measure import nu_full, restrict_measure
from treerep.tree_core import (
    DomainError,
    VertexSet,
    build_tree,
    is_connected,
    octopus,
    path,
    spider,
    star,
)

from conftest import random_params, random_tree

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
            is_representable(tree, params, SweepPlan(other))
    t = star(4)
    params = uniform_params(t, F(1, 2), F(1, 2))
    assert is_representable(t, params, SweepPlan(star(4))) == is_representable(t, params)


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
    for k in (3, 10**9):  # 22 vertices after splitting, or 2 * 10^9 + 1
        with pytest.raises(ValueError):
            scaling_check(path(8), F(1, 2), F(1, 2), k)
    with pytest.raises(ValueError):
        scaling_check(t, F(1, 2), F(1, 2), 0)
    for k in (2.5, 2.0, "2", True):  # never rounded or coerced to an int
        with pytest.raises(DomainError, match="subdivision factor must be an integer"):
            scaling_check(t, F(1, 2), F(1, 2), k)
