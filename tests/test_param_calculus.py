"""Exact derivatives: the jet reference, closed forms, and the vanishing identities.

Frozen rational values come from an independent symbolic-differentiation
oracle (full Mobius sum over brute-force percolation probabilities),
run once and pinned here.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from treerep.chain_model import ChainParams, make_params, uniform_params
from treerep.param_calculus import (
    DEFAULT_JET_CAP,
    EdgeMultiset,
    boundary_edge_multiset,
    closed_form,
    closed_form_p0,
    closed_form_p1,
    d_nu_dp,
    d_nu_dr,
    d_nu_dr_octopus,
    subtree_edge_multiset,
)
import treerep.param_calculus as param_calculus
from treerep.signed_measure import connected_log_events, nu_connected
from treerep.thresholds import f_k, f_poly
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
from oracles import fraction_jet_partial

F = Fraction


def _mixed_params(rng, tree):
    """Parameters with independent denominators; r inside (0, 1), p in [0, 1]."""
    def value(lo):
        den = rng.choice([2, 3, 5, 7, 9, 11, 12, 16])
        return F(rng.randint(lo, den - lo), den)
    return ChainParams(r=tuple(value(1) for _ in range(tree.n)),
                       p=tuple(value(0) for _ in tree.edges))


def test_jets_match_the_fraction_reference_on_random_trees():
    rng = random.Random(20261018)
    seen = {"params": 0, "p0": 0, "p1": 0, "r1": 0}
    nonzero = 0
    for case in range(72):
        t = random_tree(rng, rng.randint(2, 10))
        params = _mixed_params(rng, t)
        sets = [VertexSet(b) for b in sorted(connected_subsets(t))]
        s = rng.choice(sets) if case % 8 else VertexSet(rng.randrange(1, 1 << t.n))
        at = ("params", "p0", "p1", "r1")[case % 4]
        mults = [rng.randint(1, 3) for _ in range(rng.randint(1, min(4, t.n - 1)))]
        while sum(mults) > DEFAULT_JET_CAP:
            mults.pop()
        seen[at] += 1
        if at != "r1" and case % 8 != 4:
            near = [i for i, (u, v) in enumerate(t.edges) if u in s or v in s]
            slots = rng.sample(near if len(near) >= len(mults) else range(len(t.edges)), len(mults))
            edges = [t.edges[e] for e, m in zip(slots, mults) for _ in range(m)]
            got = d_nu_dp(t, params, s, edges, at=at)
            fixed = {"p0": (F(0),) * len(t.edges), "p1": (F(1),) * len(t.edges)}
            base = ChainParams(r=params.r, p=fixed.get(at, params.p))
            field = "p"
        else:
            near = [v for v in range(t.n) if v in s or t.neighbor_masks[v] & s.bits]
            slots = rng.sample(near if len(near) >= len(mults) else range(t.n), len(mults))
            got = d_nu_dr(t, params, s, dict(zip(slots, mults)), at=at)
            base = params if at != "r1" else ChainParams(r=(F(1),) * t.n, p=params.p)
            field = "r"
        want = fraction_jet_partial(t, base, s, field, slots, mults)
        assert type(got) is Fraction and got == want, (case, at, s, slots, mults)
        nonzero += got != 0
    assert min(seen.values()) >= 10 and nonzero >= 16


def test_every_multiset_up_to_the_cap_matches_the_fraction_reference():
    # repeated slots and the cap boundary on purpose: every edge and
    # vertex multiset of total order 1 to DEFAULT_JET_CAP, then one above
    for t, s in [(star(3), VertexSet.of(0, 1)), (path(4), VertexSet.of(1, 2))]:
        params = _mixed_params(random.Random(t.n), t)
        for order in range(1, DEFAULT_JET_CAP + 1):
            for edges in combinations_with_replacement(t.edges, order):
                multiset = EdgeMultiset.of(*edges)
                slots = [t.edge_index(u, v) for u, v in multiset.support]
                mults = [m for _, m in multiset.items]
                want = fraction_jet_partial(t, params, s, "p", slots, mults)
                assert d_nu_dp(t, params, s, edges) == want, edges
            for vertices in combinations_with_replacement(range(t.n), order):
                slots = sorted(set(vertices))
                mults = [vertices.count(v) for v in slots]
                want = fraction_jet_partial(t, params, s, "r", slots, mults)
                assert d_nu_dr(t, params, s, vertices) == want, vertices
        with pytest.raises(DomainError, match="jet cap exceeded"):
            d_nu_dp(t, params, s, [t.edges[0]] * (DEFAULT_JET_CAP + 1))
        with pytest.raises(DomainError, match="jet cap exceeded"):
            d_nu_dr(t, params, s, {0: 3, 1: DEFAULT_JET_CAP - 2})


def test_jet_sweeps_run_on_ints_once_per_event(monkeypatch):
    sweeps = []
    sweep = param_calculus.prob_all_zero

    def recorded(tree, weights, zero_on):
        value = sweep(tree, weights, zero_on)
        sweeps.append(value.ravel().tolist() if isinstance(value, np.ndarray) else [value])
        return value

    monkeypatch.setattr(param_calculus, "prob_all_zero", recorded)
    spider32 = spider(3, 2)
    path3 = path(3)
    inner = VertexSet.of(0, 1, 3, 5)
    whole = VertexSet.of(0, 1, 2)  # its + events include the empty mask
    for t, s, request in [
        (spider32, inner, lambda p: d_nu_dp(spider32, p, inner, [(1, 2), (3, 4), (5, 6)], at="p0")),
        (spider32, inner, lambda p: d_nu_dp(spider32, p, inner, [(0, 1), (0, 1), (3, 4)], at="p1")),
        (spider32, inner, lambda p: d_nu_dp(spider32, p, inner, [(0, 1), (0, 1), (3, 4)])),
        (spider32, inner, lambda p: d_nu_dr(spider32, p, inner, {0: 2, 4: 1}, at="r1")),
        (spider32, inner, lambda p: d_nu_dr(spider32, p, inner, {0: 2, 4: 1})),
        (path3, whole, lambda p: d_nu_dp(path3, p, whole, [(0, 1), (1, 2)])),
    ]:
        sweeps.clear()
        request(_mixed_params(random.Random(7), t))
        assert len(sweeps) == len(connected_log_events(t, s))
        assert all(type(c) is int for coeffs in sweeps for c in coeffs)


def test_edge_multiset():
    e = EdgeMultiset.of((1, 0), (0, 1), (1, 2))
    assert e.items == (((0, 1), 2), ((1, 2), 1))
    assert e.total == 3
    assert e.support == ((0, 1), (1, 2))
    assert EdgeMultiset.from_string("0-1, 0-1,1-2") == e
    assert str(e) == "0-1,0-1,1-2"
    with pytest.raises(ValueError):
        EdgeMultiset.of((2, 2))
    for bad in [(0, "a"), (0, 1.5), (True, 2)]:
        with pytest.raises(DomainError, match="vertex id must be an integer"):
            EdgeMultiset.of((0, 1), bad)


def test_distinguished_multisets():
    t = spider(3, 2)
    s = VertexSet.of(0, 1, 3, 5)
    assert boundary_edge_multiset(t, s) == EdgeMultiset.of((1, 2), (3, 4), (5, 6))
    assert subtree_edge_multiset(t, s) == EdgeMultiset.of((0, 1), (0, 3), (0, 5))
    p5 = path(5)
    mid = VertexSet.of(1, 2)
    assert boundary_edge_multiset(p5, mid) == EdgeMultiset.of((0, 1), (2, 3))
    assert subtree_edge_multiset(p5, mid) == EdgeMultiset.of((1, 2))
    # spanning closure pulls in the path between the endpoints
    ends = VertexSet.of(0, 4)
    assert subtree_edge_multiset(p5, ends).total == 4


def test_single_edge_at_p1():
    t = path(2)
    s = VertexSet.of(0, 1)
    for r in (F(1, 2), F(2, 5)):
        params = uniform_params(t, r, F(1, 3))
        got = d_nu_dp(t, params, s, [(0, 1)], at="p1")
        assert got == -(1 - r) / r
        assert got == closed_form_p1(t, s, r)
    assert d_nu_dp(t, uniform_params(t, F(1, 2), 0), s, [(0, 1)], at="p1") == -1


def test_boundary_derivative_at_p0():
    t = spider(3, 2)
    s = VertexSet.of(0, 1, 3, 5)
    edges = boundary_edge_multiset(t, s)
    for r in (F(1, 2), F(2, 5)):
        got = d_nu_dp(t, uniform_params(t, r, F(1, 7)), s, edges, at="p0")
        assert got == closed_form_p0(3, r) == (1 - r) * r * r
    t4 = spider(4, 2)
    s4 = VertexSet.of(0, 1, 3, 5, 7)
    got = d_nu_dp(t4, uniform_params(t4, F(1, 2), 0), s4,
                  boundary_edge_multiset(t4, s4), at="p0")
    assert got == closed_form_p0(4, F(1, 2)) == F(1, 16)


def test_closed_form_p0_values():
    assert closed_form_p0(3, F(1, 2)) == F(1, 8)
    assert closed_form_p0(4, F(9, 20)) > 0
    assert closed_form_p0(2, F(3, 7)) == f_k(2, F(3, 7))  # Bell term is 0 at b=2
    assert closed_form_p0(3, F(1, 2)) != f_k(3, F(1, 2))  # and real from b=3 on
    # strictly positive on a grid: no sign change in r anywhere
    for b in range(2, 7):
        for k in range(1, 20):
            assert closed_form_p0(b, F(k, 20)) > 0
    with pytest.raises(ValueError):
        closed_form_p0(1, F(1, 2))
    with pytest.raises(ValueError):
        closed_form_p0(3, 1)
    # an exact Fraction or a refusal, never a float from a fractional power
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(DomainError, match="outer boundary size must be an integer"):
            closed_form_p0(bad, F(1, 2))


def test_lower_order_vanishes_at_p0():
    t = spider(3, 2)
    s = VertexSet.of(0, 1, 3, 5)
    params = uniform_params(t, F(5, 12), F(1, 4))
    outer = [(1, 2), (3, 4), (5, 6)]
    for size in (1, 2):
        for sub in combinations(outer, size):
            assert d_nu_dp(t, params, s, sub, at="p0") == 0


def test_wrong_multiset_vanishes_at_p0():
    t = spider(3, 2)
    s = VertexSet.of(0, 1, 3, 5)
    params = uniform_params(t, F(5, 12), F(1, 4))
    for edges in (
        [(0, 1), (3, 4), (5, 6)],          # swaps one boundary edge for an inner one
        [(1, 2), (1, 2), (3, 4)],          # repeats instead of covering
        [(0, 1), (0, 3), (0, 5)],          # the subtree edges, |E| = b
    ):
        assert d_nu_dp(t, params, s, edges, at="p0") == 0


def test_vanishing_at_p1():
    t = star(3)
    s = VertexSet.of(0, 1, 2, 3)
    params = uniform_params(t, F(1, 3), F(1, 2))
    for sub in combinations([(0, 1), (0, 2), (0, 3)], 2):
        assert d_nu_dp(t, params, s, sub, at="p1") == 0
    assert d_nu_dp(t, params, s, [(0, 1), (0, 1), (0, 2)], at="p1") == 0
    p4 = path(4)
    mid = VertexSet.of(1, 2)
    assert d_nu_dp(p4, uniform_params(p4, F(1, 3), 0), mid, [(0, 1)], at="p1") == 0


def test_p1_distinguished_matches_closed_form():
    t = star(3)
    s = VertexSet.of(0, 1, 2, 3)
    edges = subtree_edge_multiset(t, s)
    got = d_nu_dp(t, uniform_params(t, F(1, 3), 0), s, edges, at="p1")
    assert got == closed_form_p1(t, s, F(1, 3)) == 2
    # the degree-3 polylog factor vanishes exactly at r = 1/2
    assert d_nu_dp(t, uniform_params(t, F(1, 2), 0), s, edges, at="p1") == 0
    assert closed_form_p1(t, s, F(1, 2)) == 0
    with pytest.raises(DomainError, match=r"r must lie strictly inside \(0, 1\)"):
        closed_form_p1(t, s, 1)
    # same spanning shape inside a bigger tree gives the same value
    t2 = spider(3, 2)
    s2 = VertexSet.of(0, 1, 3, 5)
    got2 = d_nu_dp(t2, uniform_params(t2, F(1, 3), 0), s2,
                   subtree_edge_multiset(t2, s2), at="p1")
    assert got2 == closed_form_p1(t2, s2, F(1, 3)) == 2


def test_generic_point_derivatives_frozen():
    # pinned from the symbolic oracle: path(3), r = (1/3, 2/5, 1/2), p = (1/4, 3/7)
    t = path(3)
    params = ChainParams(r=(F(1, 3), F(2, 5), F(1, 2)), p=(F(1, 4), F(3, 7)))
    s_all = VertexSet.of(0, 1, 2)
    s_mid = VertexSet.of(1)
    assert d_nu_dr(t, params, s_all, [1]) == F(-200, 1421)
    assert d_nu_dp(t, params, s_all, [(0, 1)]) == F(-2480, 4263)
    assert d_nu_dr(t, params, s_mid, [1]) == F(-75, 833)
    assert d_nu_dp(t, params, s_mid, [(0, 1)]) == F(180, 833)


def test_closed_forms_on_random_trees():
    rng = random.Random(20240819)
    seen_p0 = seen_p1 = 0
    for _ in range(6):
        t = random_tree(rng, rng.randint(4, 7))
        r = F(rng.randint(2, 9), 11)
        params = uniform_params(t, r, F(1, 2))
        sets = [VertexSet(b) for b in sorted(connected_subsets(t)) if b.bit_count() < t.n]
        rng.shuffle(sets)
        for s in sets[:4]:
            b = len({w for v in s for w in VertexSet(t.neighbor_masks[v]) if w not in s})
            if b >= 2:
                edges = boundary_edge_multiset(t, s)
                got = d_nu_dp(t, params, s, edges, at="p0")
                assert got == closed_form_p0(b, r) == closed_form(t, params, s, "p0", edges)
                seen_p0 += 1
                # dropping any one edge lands below the threshold order
                head = edges.support[0]
                rest = [e for e, m in edges.items for _ in range(m)][1:]
                if rest:
                    assert d_nu_dp(t, params, s, rest, at="p0") == 0
            if len(s) >= 2:
                edges = subtree_edge_multiset(t, s)
                got = d_nu_dp(t, params, s, edges, at="p1")
                assert got == closed_form_p1(t, s, r) == closed_form(t, params, s, "p1", edges)
                seen_p1 += 1
    assert seen_p0 >= 8 and seen_p1 >= 8


def test_octopus_r_calculus():
    t = octopus(3, 2)
    s = VertexSet.of(0, 1, 3, 5)
    p_first = [F(1, 3), F(1, 4), F(2, 7)]
    p_second = [F(2, 5), F(3, 7), F(1, 2)]
    p_spec = {}
    for j in range(3):
        p_spec["0-%d" % (2 * j + 1)] = p_first[j]
        p_spec["%d-%d" % (2 * j + 1, 2 * j + 2)] = p_second[j]
    params = make_params(t, F(1, 2), p_spec)

    # the measure dies as soon as the center's law is frozen at 1
    frozen = make_params(t, {0: 1, 1: F(2, 3), 2: F(2, 3), 3: F(2, 3),
                             4: F(2, 3), 5: F(2, 3), 6: F(2, 3)}, p_spec)
    assert nu_connected(t, frozen, s).ratio == 1
    # first-order derivative in the center's law survives and factors over arms
    got = d_nu_dr(t, params, s, [0], at="r1")
    assert got == d_nu_dr_octopus(3, p_first, p_second) == F(-3, 98)
    # every multiset avoiding the center vanishes (orders 1 and 2)
    for vertices in ([1], [4], [6], [1, 4], [1, 1], [1, 2]):
        assert d_nu_dr(t, params, s, vertices, at="r1") == 0


def test_closed_form_is_chosen_from_the_tree():
    s = VertexSet.of(0, 1, 3, 5)
    p_spec = {"0-1": F(1, 3), "1-2": F(2, 5), "0-3": F(1, 4), "3-4": F(3, 7),
              "0-5": F(2, 7), "5-6": F(1, 2)}
    # one labelled tree, however it was built or its edges listed
    for t in (octopus(3, 2), spider(3, 2), build_tree(octopus(3, 2).edges[::-1])):
        params = make_params(t, F(1, 2), p_spec)
        assert closed_form(t, params, s, "r1", [0]) == F(-3, 98)
        assert d_nu_dr(t, params, s, [0], at="r1") == F(-3, 98)
    t = octopus(4, 2)
    half = uniform_params(t, F(1, 2), F(1, 2))
    assert closed_form(t, half, VertexSet.of(0, 1, 3, 5, 7), "r1", [0]) == F(-1, 256)
    # another set, multiset, tree or base point has none
    for tree, subset, multiset, at in [
        (t, s, [0], "r1"),
        (t, VertexSet.of(0, 1, 3, 5, 7), [0, 0], "r1"),
        (t, VertexSet.of(0, 1, 3, 5, 7), [1], "r1"),
        (octopus(3, 3), VertexSet.of(0, 1, 4, 7), [0], "r1"),
        (spider(2, 2), VertexSet.of(0, 1, 3), [0], "r1"),
        (build_tree([(1, 0), (1, 2), (1, 3), (3, 4), (1, 5), (5, 6)]), s, [0], "r1"),
        (t, VertexSet.of(0, 1), boundary_edge_multiset(t, VertexSet.of(0, 1)), "params"),
        (t, VertexSet.of(1, 3), boundary_edge_multiset(t, VertexSet.of(1, 3)), "p0"),
        (t, VertexSet.of(1), subtree_edge_multiset(t, VertexSet.of(1)), "p1"),
        (path(3), VertexSet.of(1), boundary_edge_multiset(path(3), VertexSet.of(1)), "p1"),
    ]:
        params = uniform_params(tree, F(1, 2), F(1, 2))
        assert closed_form(tree, params, subset, at, multiset) is None
    # a vertex law that is not uniform has no p0 or p1 form
    mixed = make_params(t, {v: F(1, 2 + v % 2) for v in range(t.n)}, F(1, 2))
    edges = boundary_edge_multiset(t, VertexSet.of(0, 1))
    assert closed_form(t, mixed, VertexSet.of(0, 1), "p0", edges) is None
    assert closed_form(t, half, VertexSet.of(0, 1), "p0", edges) == closed_form_p0(4, F(1, 2))
    # nor a uniform vertex law outside (0, 1), where the closed forms refuse
    spanning = subtree_edge_multiset(t, VertexSet.of(0, 1))
    for r in (0, 1):
        at_r = uniform_params(t, r, F(1, 2))
        assert closed_form(t, at_r, VertexSet.of(0, 1), "p0", edges) is None
        assert closed_form(t, at_r, VertexSet.of(0, 1), "p1", spanning) is None


def test_octopus_closed_form_values():
    half = [F(1, 2)] * 3
    assert d_nu_dr_octopus(3, half, half) == F(-1, 64)
    assert d_nu_dr_octopus(3, half, [F(1, 2), 0, F(1, 2)]) == 0
    assert d_nu_dr_octopus(3, [F(1, 2), 1, F(1, 2)], half) == 0
    with pytest.raises(ValueError):
        d_nu_dr_octopus(2, half[:2], half[:2])
    with pytest.raises(ValueError):
        d_nu_dr_octopus(3, half[:2], half)
    with pytest.raises(ValueError):
        d_nu_dr_octopus(3, half, [F(1, 2), F(1, 2), 2])
    # an integer arm count or a refusal, as closed_form_p0 checks b
    for bad in ("3", 3.0):
        with pytest.raises(DomainError, match="octopus arm count must be an integer"):
            d_nu_dr_octopus(bad, half, half)


def test_second_derivative_stays_inside_envelope():
    # |d2 nu / dr_v dr_w| <= C * prod_j (1-p_{j,1}) p_{j,2} / r^3 across a
    # parameter grid; C = 6 gives >2x headroom over the observed maximum.
    t = octopus(3, 2)
    s = VertexSet.of(0, 1, 3, 5)
    grids = [
        ([F(1, 4)] * 3, [F(1, 4)] * 3),
        ([F(1, 2)] * 3, [F(1, 2)] * 3),
        ([F(3, 4)] * 3, [F(3, 4)] * 3),
        ([F(1, 3), F(1, 4), F(2, 7)], [F(2, 5), F(3, 7), F(1, 2)]),
        ([F(1, 8), F(5, 6), F(1, 2)], [F(7, 8), F(1, 6), F(2, 3)]),
    ]
    bound = 6
    for r in (F(3, 5), F(3, 4), F(9, 10), F(1)):
        for p_first, p_second in grids:
            p_spec = {}
            for j in range(3):
                p_spec["0-%d" % (2 * j + 1)] = p_first[j]
                p_spec["%d-%d" % (2 * j + 1, 2 * j + 2)] = p_second[j]
            params = make_params(t, r, p_spec)
            envelope = -d_nu_dr_octopus(3, p_first, p_second) / r**3
            for v, w in combinations_with_replacement(range(7), 2):
                d2 = d_nu_dr(t, params, s, [v, w])
                assert abs(d2) <= bound * envelope


def test_disconnected_sets_have_zero_derivatives():
    t = path(3)
    s = VertexSet.of(0, 2)
    params = uniform_params(t, F(1, 2), F(1, 3))
    assert d_nu_dp(t, params, s, [(0, 1)], at="p0") == 0
    assert d_nu_dp(t, params, s, [(0, 1)], at="p1") == 0
    assert d_nu_dr(t, params, s, [0], at="r1") == 0
    assert d_nu_dr(t, params, s, [0, 2]) == 0


def test_derivative_request_errors():
    t = path(4)
    s = VertexSet.of(1, 2)
    params = uniform_params(t, F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        d_nu_dp(t, params, VertexSet(0), [(0, 1)])
    with pytest.raises(ValueError):
        d_nu_dp(t, params, s, [])
    with pytest.raises(ValueError):
        d_nu_dp(t, params, s, [(0, 1)] * (DEFAULT_JET_CAP + 1))
    with pytest.raises(DomainError, match="no edge 0-2"):
        d_nu_dp(t, params, s, [(0, 2)])  # not an edge
    with pytest.raises(ValueError):
        d_nu_dp(t, params, s, [(0, 1)], at="p2")
    with pytest.raises(ValueError):
        d_nu_dr(t, params, s, [7])
    with pytest.raises(ValueError):
        d_nu_dr(t, params, s, [1], at="r0")
    with pytest.raises(ValueError):
        d_nu_dr(t, ChainParams(r=(0, F(1, 2), F(1, 2), F(1, 2)), p=params.p),
                s, [1], at="params")
    with pytest.raises(ValueError):
        closed_form_p1(t, VertexSet.of(1), F(1, 2))
    with pytest.raises(ValueError):
        closed_form_p1(t, VertexSet.of(0, 2), F(1, 2))
    # a vertex multiset names integer ids with nonnegative multiplicities
    for vertices, message in [
        ([1.5], "vertex must be an integer"),
        (["x"], "vertex must be an integer"),
        ([True], "vertex must be an integer"),
        ({1: 1.0}, "multiplicity must be an integer"),
        ({1: -1}, "negative multiplicity"),
        ({1: 1, 2: -1}, "negative multiplicity"),
    ]:
        for at in ("params", "r1"):
            with pytest.raises(DomainError, match=message):
                d_nu_dr(t, params, s, vertices, at=at)
    # the edge-multiset text refuses anything but integer pairs u-v
    for text in ("a-b", "0-1-2", "0-", "1", "0-1,x-2"):
        with pytest.raises(DomainError, match="not an edge u-v"):
            EdgeMultiset.from_string(text)


def test_single_vertex_jet_has_a_constant_plus_product():
    # events are (+, empty mask) and (-, {0}): the + product holds no jet
    t = path(1)
    params = uniform_params(t, F(1, 3), F(1, 2))
    assert d_nu_dr(t, params, VertexSet.of(0), [0]) == -3


def test_whole_path_jet_includes_the_empty_mask():
    t = path(3)
    params = uniform_params(t, F(1, 3), F(1, 2))
    whole = VertexSet.of(0, 1, 2)
    edges = [(0, 1), (1, 2)]
    assert d_nu_dp(t, params, whole, edges) == F(8, 9)
    assert d_nu_dp(t, params, whole, edges, at="p1") == 2


def test_uneven_event_split_in_a_jet_is_a_kernel_error(monkeypatch):
    import treerep.param_calculus as param_calculus

    events = param_calculus.connected_log_events
    monkeypatch.setattr(
        param_calculus,
        "connected_log_events",
        lambda tree, subset: events(tree, subset) + [(1, 0)],
    )
    t = path(3)
    params = uniform_params(t, F(1, 3), F(1, 2))
    with pytest.raises(AssertionError, match="split evenly"):
        d_nu_dp(t, params, VertexSet.of(0, 1), [(0, 1)])
