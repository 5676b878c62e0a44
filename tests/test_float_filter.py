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
from fractions import Fraction

import pytest

import treerep.representability as representability
from treerep.chain_model import ChainParams, scaled_params, uniform_params
from treerep.representability import SweepPlan, float_signs, is_representable, phase_scan
from treerep.signed_measure import connected_log_events, nu_connected
from treerep.tree_core import VertexSet, build_tree, octopus

from conftest import random_tree
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
        for lo, hi, pos, neg in float_signs(plan, params):
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
    def flipped(plan, params):
        for lo, hi, pos, neg in real(plan, params):
            yield lo, hi, neg, pos

    real = representability.float_signs
    monkeypatch.setattr(representability, "float_signs", flipped)
    tree, params = _mixed_chains()[0]
    with pytest.raises(AssertionError, match="contradicts the float pass"):
        is_representable(tree, params)


def test_scan_points_share_one_plan(monkeypatch):
    # chunks of 16 events, so every point after the first re-expands the
    # chunks past the kept first one from the shared plan
    monkeypatch.setattr(representability, "CHUNK_EVENTS", 16)
    tree = octopus(3, 2)
    rs = [Fraction(k, 20) for k in range(7, 14)]
    ps = [Fraction(9, 10), Fraction(19, 20)]
    points = phase_scan(tree, rs, ps)
    assert [(point.r, point.p) for point in points] == [(r, p) for r in rs for p in ps]
    for point in points:
        assert point.verdict == is_representable(tree, uniform_params(tree, point.r, point.p))
    assert {point.verdict.representable for point in points} == {True, False}


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
