"""The integer-scaled sweep against the Fraction sweep it replaces in verdicts.

``scaled_params`` turns a chain into integer weights under which the
message-passing sweep returns ``den * P(X(A) = 0)``.  Verdicts rest on
that identity, so it is checked mask by mask on random chains whose
parameters have different denominators, and then sign by sign on every
connected set of a seeded matrix.  The shared-fixture matrix of the
acceptance suite draws every parameter over the single denominator 12,
which would hide a denominator mixed up between vertices or edges.
"""

import math
import random
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from treerep.chain_model import ChainParams, prob_all_zero, scaled_params
from treerep.representability import is_representable
from treerep.signed_measure import nu_connected, nu_full
from treerep.tree_core import VertexSet, connected_subsets, star

from conftest import random_tree


def _unit_fractions(max_den=40):
    return st.integers(1, max_den).flatmap(
        lambda d: st.integers(0, d).map(lambda k: Fraction(k, d))
    )


@st.composite
def _chains(draw):
    n = draw(st.integers(1, 9))
    tree = random_tree(random.Random(draw(st.integers(0, 2**32 - 1))), n)
    r = tuple(draw(_unit_fractions()) for _ in range(n))
    p = tuple(draw(_unit_fractions()) for _ in tree.edges)
    return tree, ChainParams(r=r, p=p)


@example(
    case=(
        star(3),
        ChainParams(
            r=(Fraction(1), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)),
            p=(Fraction(0), Fraction(1), Fraction(5, 11)),
        ),
    )
)
@given(case=_chains())
def test_scaled_sweep_is_den_times_the_fraction_sweep(case):
    tree, params = case
    weights = scaled_params(tree, params)
    den = math.prod(x.denominator for x in params.r + params.p)
    assert weights.one == den
    exact = []
    for mask in range(1 << tree.n):
        zero_on = VertexSet(mask)
        scaled = prob_all_zero(tree, weights, zero_on)
        exact.append(prob_all_zero(tree, params, zero_on))
        assert type(scaled) is int
        assert scaled == den * exact[mask]
    if all(x > 0 for x in params.r):
        # nu_full's butterfly inverts back to the Fraction sweep: for every I,
        # P(X(V)=0) * prod over nonempty K inside V\I of ratio(K) = P(X(I)=0)
        measure = nu_full(tree, params)
        full = (1 << tree.n) - 1
        prod = [Fraction(1)] + [measure.value(k).ratio for k in range(1, full + 1)]
        for b in range(tree.n):
            for mask in range(full + 1):
                if mask >> b & 1:
                    prod[mask] *= prod[mask ^ (1 << b)]
        for mask in range(full + 1):
            assert exact[full] * prod[full & ~mask] == exact[mask]


def _mixed_params(rng, tree):
    """r in (0, 1] and p in [0, 1], each over its own denominator in 2..29."""

    def draw(lo):
        d = rng.randint(2, 29)
        return Fraction(rng.randint(lo, d), d)

    return ChainParams(
        r=tuple(draw(1) for _ in range(tree.n)),
        p=tuple(draw(0) for _ in tree.edges),
    )


def test_signs_and_verdicts_match_the_fraction_encoding():
    rng = random.Random(20261017)
    outcomes = set()
    signs = set()
    for _ in range(80):
        tree = random_tree(rng, rng.randint(2, 9))
        params = _mixed_params(rng, tree)
        weights = scaled_params(tree, params)
        fraction_cache, int_cache = {}, {}
        order = sorted(connected_subsets(tree), key=lambda b: (b.bit_count(), b))
        expect = None
        for checked, bits in enumerate(order, start=1):
            s = VertexSet(bits)
            sign = nu_connected(tree, params, s, fraction_cache).sign
            assert nu_connected(tree, weights, s, int_cache).sign == sign
            signs.add(sign)
            if sign < 0 and expect is None:
                expect = (False, s, checked)
        if expect is None:
            expect = (True, None, len(order))
        verdict = is_representable(tree, params)
        assert (verdict.representable, verdict.witness, verdict.checked_sets) == expect
        outcomes.add(verdict.representable)
    assert outcomes == {True, False}
    assert signs == {-1, 0, 1}


def test_nu_connected_on_a_partly_filled_shared_cache():
    rng = random.Random(20261018)
    for _ in range(12):
        tree = random_tree(rng, rng.randint(3, 8))
        params = _mixed_params(rng, tree)
        reference = nu_full(tree, params)
        shared = {}
        for mask in range(1, 1 << tree.n, 3):
            shared[mask] = prob_all_zero(tree, params, VertexSet(mask))
        for bits in connected_subsets(tree):
            got = nu_connected(tree, params, VertexSet(bits), shared)
            assert got.ratio == reference.value(bits).ratio
        assert all(isinstance(x, Fraction) for x in shared.values())
