"""The certified float pass of verdicts against the exact integer path.

``representability.float_signs`` proves the sign of nu(S) for most
connected sets in float64 and leaves the rest to ``nu_connected`` on
the integer weights of ``scaled_params``.  A proved sign must equal the
exact one on every set, an exact zero must never be proved, and the
vectorised plan must produce exactly the events of
``connected_log_events``.  The adversarial chains push probabilities
into the subnormal range (r or p = 1/10^k for k up to 400), where the
2^-900 guard is what keeps the proof valid.
"""

import random
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

import treerep.representability as representability
from treerep.chain_model import ChainParams, float_weights, scaled_params, uniform_params
from treerep.representability import (
    MARGIN,
    SweepPlan,
    certified_signs,
    float_signs,
    is_representable,
    phase_scan,
)
from treerep.signed_measure import connected_log_events, nu_connected
from treerep.tree_core import VertexSet, build_tree, octopus, spider, star

from conftest import random_tree
from oracles import certified_bound
from test_integer_kernel import _mixed_params


def _tiny(k):
    return Fraction(1, 10**k)


def _adversarial(rng, count):
    """Chains whose parameters are half ordinary, half extreme."""

    def draw(positive):
        if rng.random() < 0.5:
            d = rng.randint(2, 29)
            return Fraction(rng.randint(1, d - 1), d)
        k = rng.randint(1, 400)
        choices = [Fraction(1), _tiny(k), 1 - _tiny(k)] + ([] if positive else [Fraction(0)])
        return rng.choice(choices)

    chains = []
    for _ in range(count):
        tree = random_tree(rng, rng.randint(1, 9))
        params = ChainParams(
            r=tuple(draw(True) for _ in range(tree.n)),
            p=tuple(draw(False) for _ in tree.edges),
        )
        chains.append((tree, params))
    return chains


# Chains on which a pass without the 2^-900 guard proves a wrong sign:
# an exact zero proved negative, and an exact positive proved negative.
_SUBNORMAL = [
    (
        build_tree([(0, 2), (1, 2)], root=2),
        ChainParams(r=(_tiny(285), _tiny(34), Fraction(1, 18)), p=(Fraction(1), Fraction(1))),
    ),
    (
        build_tree([(0, 3), (2, 4), (1, 3), (1, 4)], root=3),
        ChainParams(
            r=(1 - _tiny(199), _tiny(372), Fraction(3, 5), _tiny(312), 1 - _tiny(260)),
            p=(Fraction(1), Fraction(15, 22), 1 - _tiny(158), _tiny(222)),
        ),
    ),
]


def _mixed_chains():
    rng = random.Random(20261017)
    chains = []
    for _ in range(80):
        tree = random_tree(rng, rng.randint(2, 9))
        chains.append((tree, _mixed_params(rng, tree)))
    return chains


def _verdicts(chains):
    return [
        (v.representable, v.witness, v.checked_sets)
        for v in (is_representable(tree, params) for tree, params in chains)
    ]


def _outcomes(chains):
    """Count (exact sign, proved sign or 0) over every connected set."""
    counts = {}
    for tree, params in chains:
        plan = SweepPlan(tree)
        weights = scaled_params(tree, params)
        cache = {}
        for lo, hi, (pos,), (neg,) in float_signs(plan, float_weights(tree, [params])):
            assert not (pos & neg).any()
            for i in range(hi - lo):
                s = VertexSet(int(plan.sets[lo + i]))
                key = (nu_connected(tree, weights, s, cache).sign, int(pos[i]) - int(neg[i]))
                counts[key] = counts.get(key, 0) + 1
    return counts


def test_proved_signs_equal_the_exact_signs():
    mixed = _outcomes(_mixed_chains())
    # ordinary parameters: every nonzero sign is proved, every zero is not
    assert set(mixed) == {(-1, -1), (0, 0), (1, 1)}
    extreme = _outcomes(_SUBNORMAL + _adversarial(random.Random(20261018), 300))
    assert all(proved in (0, exact) for exact, proved in extreme)
    assert extreme[(1, 1)] and extreme[(-1, -1)] and extreme[(0, 0)]


def test_plan_events_are_the_connected_log_events():
    rng = random.Random(20261019)
    for case in range(60):
        tree = random_tree(rng, rng.randint(1, 10))
        plan = SweepPlan(tree)
        total = int(plan.ends[-1])
        chunk = 1 + case % 7 if case % 2 else total  # chunks that split sets, or one
        got = []
        for e0 in range(0, total, chunk):
            ids, sign, masks, inverse = plan.chunk(e0, min(e0 + chunk, total))
            got += zip(ids.tolist(), sign.tolist(), masks[inverse].tolist())
        want = [
            (i, float(sign), bits)
            for i, s in enumerate(plan.sets.tolist())
            for sign, bits in connected_log_events(tree, VertexSet(s))
        ]
        assert got == want
        order = sorted(plan.sets.tolist(), key=lambda b: (b.bit_count(), b))
        assert plan.sets.tolist() == order


def test_small_chunks_give_the_same_verdicts(monkeypatch):
    chains = _mixed_chains()[:40] + _SUBNORMAL + _adversarial(random.Random(20261020), 40)
    expect = _verdicts(chains)
    assert {v[0] for v in expect} == {True, False}
    monkeypatch.setattr(representability, "CHUNK_EVENTS", 8)
    assert _verdicts(chains) == expect


def test_extreme_parameters_raise_no_float_warnings():
    chains = _SUBNORMAL + _adversarial(random.Random(20261021), 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _verdicts(chains)


def test_a_wrong_proved_sign_raises(monkeypatch):
    def flipped(*args):
        for lo, hi, pos, neg in real(*args):
            yield lo, hi, neg, pos

    real = representability.float_signs
    monkeypatch.setattr(representability, "float_signs", flipped)
    tree, params = _mixed_chains()[0]
    with pytest.raises(AssertionError, match="contradicts the float pass"):
        is_representable(tree, params)


def test_scan_points_share_one_plan(monkeypatch):
    # chunks of 16 events, so every point expands each chunk it reaches
    # from the shared plan
    monkeypatch.setattr(representability, "CHUNK_EVENTS", 16)
    tree = octopus(3, 2)
    rs = [Fraction(k, 20) for k in range(7, 14)]
    ps = [Fraction(9, 10), Fraction(19, 20)]
    points = phase_scan(tree, rs, ps)
    assert [(point.r, point.p) for point in points] == [(r, p) for r in rs for p in ps]
    for point in points:
        assert point.verdict == is_representable(tree, uniform_params(tree, point.r, point.p))
    assert {point.verdict.representable for point in points} == {True, False}


# Grids across r = 1/2 at p near 1, where these trees flip: each grid
# holds witness points and full sweeps.
_SCAN_TREES = [octopus(3, 2), spider(3, 2), star(5), random_tree(random.Random(20261022), 8)]
_SCAN_RS = [Fraction(k, 20) for k in range(6, 15)]
_SCAN_PS = [Fraction(1, 2), Fraction(9, 10), Fraction(19, 20)]


@pytest.mark.parametrize("chunk", [4, 64, 1024])
def test_scan_verdicts_equal_single_verdicts_across_chunks(monkeypatch, chunk):
    # chunks of 4 and 64 events hold a part of each stream, so each point
    # runs a pass of its own and the points stop in different chunks;
    # chunks of 1024 hold each stream at least twice, so blocks of 2 or 4
    # points share one chunk, and each grid ends in a partial block
    expect = {
        tree: [is_representable(tree, uniform_params(tree, r, p)) for r in _SCAN_RS for p in _SCAN_PS]
        for tree in _SCAN_TREES
    }
    monkeypatch.setattr(representability, "CHUNK_EVENTS", chunk)
    spread, blocks = [], []
    for tree in _SCAN_TREES:
        points = phase_scan(tree, _SCAN_RS, _SCAN_PS)
        assert [point.verdict for point in points] == expect[tree]
        ends = SweepPlan(tree).ends
        stops = [int(ends[v.checked_sets - 1]) for v in expect[tree] if v.witness]
        spread.append(max(stops) - min(stops))
        blocks.append(chunk // int(ends[-1]))
    assert {v.representable for verdicts in expect.values() for v in verdicts} == {True, False}
    if chunk < 210:
        assert max(spread) >= chunk  # two witnesses this far apart share no chunk
    else:
        grid = len(_SCAN_RS) * len(_SCAN_PS)
        assert min(blocks) >= 2 and all(grid % size for size in blocks)


@pytest.mark.parametrize("chunk", [64, 1024, 4096])
def test_a_sweep_holds_at_most_chunk_events_times_points(monkeypatch, chunk):
    # octopus(3, 2) has 210 events: chunks of 64 sweep one point at a
    # time, each on a pass of its own; a chunk of 1024 holds the stream,
    # and blocks of four points share one; at 4096 every point shares it
    log = []
    sweep = representability.prob_all_zero_many
    expand = SweepPlan.chunk

    def recorded_sweep(tree, weights, masks):
        prob = sweep(tree, weights, masks)
        log[-1][1].append(prob.shape)
        return prob

    def recorded_chunk(plan, e0, e1):
        log.append((e1 - e0, []))
        return expand(plan, e0, e1)

    monkeypatch.setattr(representability, "prob_all_zero_many", recorded_sweep)
    monkeypatch.setattr(SweepPlan, "chunk", recorded_chunk)
    monkeypatch.setattr(representability, "CHUNK_EVENTS", chunk)
    ps = _SCAN_PS[1:]
    grid = len(_SCAN_RS) * len(ps)
    phase_scan(octopus(3, 2), _SCAN_RS, ps)
    swept = []
    for count, sweeps in log:
        ((points, masks),) = sweeps  # one sweep per expanded chunk
        assert masks <= count and points * count <= chunk
        swept.append(points)
    size = max(1, chunk // 210)
    if size > 1:
        assert swept == [min(size, grid - k) for k in range(0, grid, size)]
    else:
        assert set(swept) == {1} and len(swept) > grid


def test_a_large_grid_holds_the_signs_of_one_block(monkeypatch):
    # star(4) has 154 events, so chunks of 1024 events share each block of
    # six points; after every verdict of a 20 x 20 grid, the proved signs
    # still held are those of one block, within CHUNK_EVENTS bytes each
    held, peaks = [], []
    signs = representability.float_signs
    verdict = representability.is_representable

    def recorded_signs(plan, floats):
        for lo, hi, pos, neg in signs(plan, floats):
            held.extend(weakref.ref(x) for x in (pos, neg))
            yield lo, hi, pos, neg

    def recorded_verdict(*args):
        result = verdict(*args)
        peaks.append(sum(x().nbytes for x in held if x() is not None))
        return result

    monkeypatch.setattr(representability, "float_signs", recorded_signs)
    monkeypatch.setattr(representability, "is_representable", recorded_verdict)
    monkeypatch.setattr(representability, "CHUNK_EVENTS", 1024)
    rs = [Fraction(k, 40) for k in range(10, 30)]
    ps = [Fraction(k, 40) for k in range(20, 40)]
    points = phase_scan(star(4), rs, ps)
    assert {point.verdict.representable for point in points} == {True, False}
    assert len(peaks) == 400 and len(held) == 2 * -(-400 // 6)
    assert 0 < max(peaks) <= 2 * 1024


def test_sets_inside_the_margin_go_to_the_exact_path(monkeypatch):
    # at p = 19/20 the large sets of octopus(3, 2) clear the proved bound
    # but not MARGIN times it; the verdicts do not depend on the margin
    tree = octopus(3, 2)
    chains = [(tree, uniform_params(tree, Fraction(k, 20), Fraction(19, 20))) for k in (9, 11)]
    expect = _verdicts(chains)
    assert [v[0] for v in expect] == [False, True]
    near = _outcomes(chains[1:])
    assert set(near) == {(1, 0), (1, 1)} and near[(1, 0)] >= 2
    monkeypatch.setattr(representability, "MARGIN", 1.0)
    assert _outcomes(chains[1:]) == {(1, 1): sum(near.values())}
    assert _verdicts(chains) == expect


@pytest.mark.parametrize("n", [1, 2, 7, 12, 20])
def test_no_sign_is_kept_within_margin_times_the_proved_bound(n):
    # nu is the largest float below MARGIN * B, B computed in Fractions
    for lam_size in (0, 1, 4, 9, 13):
        for mag in (0.0, 1e-300, 1e-9, 0.5, 1.0, 3.0, 700.0, 1e7):
            target = Fraction(MARGIN) * certified_bound(n, lam_size, mag)
            nu = float(target)
            if Fraction(nu) >= target:
                nu = float(np.nextafter(nu, 0.0))
            pos, neg = certified_signs(
                np.array([nu, -nu]), np.array([mag, mag]), np.array([lam_size, lam_size]), n
            )
            assert not pos.any() and not neg.any(), (lam_size, mag)
