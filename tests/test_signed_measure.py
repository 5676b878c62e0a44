import math
import random
from fractions import Fraction

import pytest

import treerep.signed_measure as signed_measure
from treerep.chain_model import (
    ChainParams,
    make_params,
    prob_all_zero,
    prob_all_zero_table,
    scaled_params,
    uniform_params,
)
from treerep.signed_measure import (
    MeasureValue,
    SignedMeasure,
    connected_log_events,
    nu_connected,
    nu_full,
    restrict_measure,
)
from treerep.tree_core import (
    DomainError,
    VertexSet,
    build_tree,
    connected_subsets,
    is_connected,
    path,
    spider,
    star,
)

from conftest import mixed_params, random_params, random_tree
from oracles import fraction_nu_full, fraction_restrict_measure

HALF = Fraction(1, 2)


def _slow_log(x: Fraction) -> float:
    """Reference log via exact alternating series (needs |x - 1| <= 0.6)."""
    t = x - 1
    assert abs(t) <= Fraction(3, 5)
    eps = Fraction(1, 10**25)
    total = Fraction(0)
    term = t
    k = 1
    while abs(term) > eps:
        total += term / k if k % 2 else -term / k
        term *= t
        k += 1
    return float(total)


def test_single_vertex_measure():
    t = path(1)
    measure = nu_full(t, uniform_params(t, HALF, HALF))
    mv = measure.value(VertexSet.of(0))
    assert mv.ratio == 2
    assert mv.sign == 1
    assert math.isclose(mv.log_value, math.log(2), rel_tol=1e-15)


def test_path3_frozen_table():
    # worked by hand from the zero-pattern probabilities at r = p = 1/2
    t = path(3)
    measure = nu_full(t, uniform_params(t, HALF, HALF))
    expect = {
        (0,): Fraction(4, 3),
        (1,): Fraction(10, 9),
        (2,): Fraction(4, 3),
        (0, 1): Fraction(6, 5),
        (1, 2): Fraction(6, 5),
        (0, 2): Fraction(1),  # disconnected: zero mass
        (0, 1, 2): Fraction(5, 4),
    }
    for members, ratio in expect.items():
        mv = measure.value(VertexSet.of(*members))
        assert mv.ratio == ratio
        assert mv.sign == (ratio > 1) - (ratio < 1)


def test_independent_limit():
    # p == 1 decouples everything: only singletons carry mass
    t = star(3)
    params = make_params(t, {0: "1/2", 1: "1/3", 2: "2/3", 3: "1/5"}, 1)
    measure = nu_full(t, params)
    for bits in range(1, 1 << t.n):
        mv = measure.value(bits)
        if bits.bit_count() == 1:
            v = bits.bit_length() - 1
            assert mv.ratio == 1 / params.r[v]
        else:
            assert mv.ratio == 1
            assert mv.sign == 0


def test_disconnected_sets_carry_no_mass():
    rng = random.Random(11)
    for _ in range(25):
        t = random_tree(rng, rng.randint(3, 7))
        measure = nu_full(t, random_params(rng, t))
        for bits in range(1, 1 << t.n):
            if not is_connected(t, VertexSet(bits)):
                assert measure.value(bits).sign == 0


def test_mobius_consistency_small():
    # P(X(V)=0) * prod_{nonempty K inside V\I} ratio_K == P(X(I)=0):
    # summing the measure over the sets avoiding I inverts back to the
    # zero-pattern probability of I.
    rng = random.Random(23)
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 6))
        params = random_params(rng, t)
        measure = nu_full(t, params)
        full = (1 << t.n) - 1
        p_full = prob_all_zero(t, params, VertexSet(full))
        for i_bits in range(1, full + 1):
            prod = p_full
            c = full & ~i_bits
            sub = c
            while sub:
                prod *= measure.value(sub).ratio
                sub = (sub - 1) & c
            assert prod == prob_all_zero(t, params, VertexSet(i_bits))


def test_nu_connected_agrees_with_full():
    rng = random.Random(37)
    for _ in range(15):
        t = random_tree(rng, rng.randint(2, 7))
        params = random_params(rng, t)
        measure = nu_full(t, params)
        cache = {}
        for bits in range(1, 1 << t.n):
            s = VertexSet(bits)
            if is_connected(t, s):
                assert nu_connected(t, params, s, cache).ratio == measure.value(bits).ratio


def test_nu_connected_interval_formula():
    # run of j consecutive interior vertices inside a path:
    # nu = log(1 + p^2 (1-p)^(j-1) r(1-r) / (r + (1-p)^j - (1-p)^j r)^2)
    for r, p in [(HALF, HALF), (Fraction(1, 3), Fraction(1, 4)), (Fraction(7, 9), Fraction(2, 7))]:
        for j in (1, 2, 3):
            t = path(j + 2)
            params = uniform_params(t, r, p)
            s = VertexSet.from_iter(range(1, j + 1))
            q = (1 - p) ** j
            expect = 1 + p * p * (1 - p) ** (j - 1) * r * (1 - r) / (r + q - q * r) ** 2
            assert nu_connected(t, params, s).ratio == expect
    # anchor values at r = p = 1/2
    t = path(3)
    params = uniform_params(t, HALF, HALF)
    assert nu_connected(t, params, VertexSet.of(1)).ratio == Fraction(10, 9)
    t = path(4)
    params = uniform_params(t, HALF, HALF)
    assert nu_connected(t, params, VertexSet.of(1, 2)).ratio == Fraction(27, 25)


def test_nu_connected_boundary_only_identity():
    # with only the edges leaving S resampling, S and each subtree hanging
    # off it are constant blocks and the mass has a closed product form:
    # nu(S) = log(1 + (1-r)/r * prod_e p_e r / (1 - p_e (1-r))) > 0
    rng = random.Random(53)
    checked = 0
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 9))
        r = Fraction(rng.randint(1, 11), 12)
        full = (1 << t.n) - 1
        for bits in connected_subsets(t):
            if bits == full:
                continue
            s = VertexSet(bits)
            crossing = [(u in s) != (v in s) for u, v in t.edges]
            p = [Fraction(rng.randint(1, 12), 13) if c else Fraction(0) for c in crossing]
            expect = 1 + (1 - r) / r * math.prod(
                pe * r / (1 - pe * (1 - r)) for pe, c in zip(p, crossing) if c
            )
            got = nu_connected(t, ChainParams(r=(r,) * t.n, p=tuple(p)), s)
            assert got.ratio == expect
            checked += 1
    assert checked > 1000


def test_nu_connected_rejects_disconnected():
    t = path(4)
    params = uniform_params(t, HALF, HALF)
    with pytest.raises(ValueError):
        nu_connected(t, params, VertexSet.of(0, 2))
    with pytest.raises(ValueError):
        nu_connected(t, params, VertexSet())
    with pytest.raises(DomainError, match="subset contains ids outside the tree"):
        connected_log_events(t, VertexSet.of(3, 4))


def test_zero_r_rejected_one_allowed():
    t = path(2)
    with pytest.raises(ValueError):
        nu_full(t, make_params(t, {0: 0, 1: "1/2"}, "1/2"))
    measure = nu_full(t, make_params(t, {0: 1, 1: "1/2"}, "1/2"))
    assert measure.value(VertexSet.of(0, 1)).ratio > 0


def test_log_value_relative_accuracy():
    # a moderate entry and a near-zero one (interior pair at small p);
    # reference by exact series
    t2 = path(2)
    moderate = nu_full(t2, uniform_params(t2, HALF, HALF)).value(VertexSet.of(0, 1))
    assert moderate.ratio == Fraction(3, 2)
    ref = _slow_log(moderate.ratio)
    assert abs(moderate.log_value - ref) <= 1e-12 * abs(ref)

    t4 = path(4)
    params = uniform_params(t4, HALF, Fraction(1, 1000))
    tiny = nu_connected(t4, params, VertexSet.of(1, 2))
    ref = _slow_log(tiny.ratio)
    assert 0 < ref < 1e-6  # the interesting regime: heavy float cancellation
    assert abs(tiny.log_value - ref) <= 1e-12 * abs(ref)


def test_log_value_at_one_and_far_from_one():
    assert MeasureValue(7, 7).log_value == 0.0
    # past float range, and far below 1, where log1p's argument rounds to -1
    for num, den in [(10**400, 3), (3, 10**400), (1, 10**20), (1, 10**10 + 1)]:
        want = math.log(num) - math.log(den)
        assert abs(MeasureValue(num, den).log_value - want) <= 1e-12 * abs(want)


def test_restrict_measure_pair_to_point():
    # collapsing {0,1} onto {0} folds the pair mass into the singleton
    t = path(2)
    measure = nu_full(t, uniform_params(t, HALF, HALF))
    restricted = restrict_measure(measure, VertexSet.of(0))
    expect = measure.value(VertexSet.of(0)).ratio * measure.value(VertexSet.of(0, 1)).ratio
    assert restricted.value(VertexSet.of(0)).ratio == expect


def test_restrict_measure_composes_edges():
    # endpoints of a 4-path behave as a 2-chain with p' = 1 - (1-p)^3
    r, p = Fraction(2, 5), Fraction(1, 3)
    t4 = path(4)
    measure = restrict_measure(nu_full(t4, uniform_params(t4, r, p)), VertexSet.of(0, 3))
    t2 = path(2)
    p_prime = 1 - (1 - p) ** 3
    expect = nu_full(t2, uniform_params(t2, r, p_prime))
    pairs = {1 << 0: 1 << 0, 1 << 3: 1 << 1, (1 << 0) | (1 << 3): 0b11}
    for got_bits, want_bits in pairs.items():
        assert measure.value(got_bits).ratio == expect.value(want_bits).ratio


def test_condition_measure_matches_conditional_chain():
    rng = random.Random(41)
    for _ in range(12):
        t = random_tree(rng, 4)
        params = random_params(rng, t)
        measure = nu_full(t, params)
        full = (1 << t.n) - 1
        keep_bits = rng.randint(1, full - 1)
        # conditioning on zeros outside keep forgets every atom that meets
        # the outside: what is left is nu on the subsets of keep
        conditioned = {a: v for a, v in measure.entries.items() if a & ~keep_bits == 0}
        outside = VertexSet(full & ~keep_bits)
        p_out = prob_all_zero(t, params, outside)
        i_bits = keep_bits
        while i_bits:
            # exp(-nu_cond(sets hitting I)) == P(X(I)=0 | zeros outside)
            prod = Fraction(1)
            k = keep_bits
            while k:
                if k & i_bits:
                    prod *= conditioned[k].ratio
                k = (k - 1) & keep_bits
            lhs = 1 / prod
            rhs = prob_all_zero(t, params, VertexSet(i_bits | outside.bits)) / p_out
            assert lhs == rhs
            i_bits = (i_bits - 1) & keep_bits


def test_lazy_assembly_wide_tree():
    # the full lattice is built eagerly or not at all: 17 vertices are refused
    t = path(17)
    with pytest.raises(ValueError):
        nu_full(t, uniform_params(t, HALF, HALF))


def _pairs(measure):
    return {m: (v.num, v.den) for m, v in measure.entries.items()}


# eleven distinct primes just below 2^31, one denominator per parameter
# of a 6-vertex chain: their product, the common factor of the integer
# encoding, is about 2^341, so any entry squeezed through int64 would wrap
PRIMES_BELOW_2_31 = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423,
)


def test_zero_table_is_the_sweep_at_every_mask():
    rng = random.Random(61)
    trees = [path(1), path(2), star(4)] + [
        random_tree(rng, rng.randint(2, 9)) for _ in range(30)
    ]
    for t in trees:
        weights = scaled_params(t, mixed_params(rng, t))
        table = prob_all_zero_table(t, weights)
        assert len(table) == 1 << t.n
        for mask in range(1 << t.n):
            got = table[mask]
            assert type(got) is int
            assert got == prob_all_zero(t, weights, VertexSet(mask))


def test_nu_full_matches_the_fraction_reference():
    rng = random.Random(67)
    trees = [path(1), path(10), star(9)] + [
        random_tree(rng, n) for n in range(1, 11) for _ in range(4)
    ]
    for t in trees:
        params = mixed_params(rng, t)
        measure = nu_full(t, params)
        expect = fraction_nu_full(t, params)
        assert _pairs(measure) == expect
        assert list(measure.entries) == list(expect)
        assert all(type(v.num) is int and type(v.den) is int for v in measure.entries.values())


def _spy_paths(monkeypatch):
    """Record which path each nu_full call takes, in order."""
    taken = []
    for name in ("_sparse_entries", "_dense_entries"):
        real = getattr(signed_measure, name)

        def spy(*args, real=real, name=name):
            taken.append(name.strip("_").split("_")[0])
            return real(*args)

        monkeypatch.setattr(signed_measure, name, spy)
    return taken


def test_both_paths_match_the_fraction_reference(monkeypatch):
    taken = _spy_paths(monkeypatch)
    rng = random.Random(73)
    trees = [path(1), path(12), star(11), spider(3, 3)] + [
        random_tree(rng, n) for n in range(1, 13) for _ in range(2)
    ]
    for t in trees:
        params = mixed_params(rng, t)
        expect = fraction_nu_full(t, params)
        for sparse in (True, False):
            monkeypatch.setattr(signed_measure, "_sparse_pays", lambda n, events: sparse)
            measure = nu_full(t, params)
            assert _pairs(measure) == expect
            assert list(measure.entries) == list(expect)
            assert all(type(v.num) is int and type(v.den) is int for v in measure.entries.values())
    assert taken == ["sparse", "dense"] * len(trees)


@pytest.mark.parametrize(
    "tree, path_taken",
    [(star(10), "dense"), (star(12), "dense"), (path(16), "sparse"), (spider(5, 3), "sparse")],
    ids=["star(10)", "star(12)", "path(16)", "spider(5,3)"],
)
def test_wide_stars_take_the_dense_path_and_skinny_trees_the_sparse(monkeypatch, tree, path_taken):
    # forced onto the sparse path, star(10) and star(12) ran 6 and 10 times slower
    taken = _spy_paths(monkeypatch)
    measure = nu_full(tree, uniform_params(tree, Fraction(2, 5), Fraction(3, 10)))
    assert taken == [path_taken]
    assert len(measure) == (1 << tree.n) - 1


def test_nu_full_is_exact_past_int64():
    t = build_tree([(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)], root=1)
    nums = (3, 5, 7, 11, 13, 2**30, 17, 2**30, 19, 23, 2**29)
    params = ChainParams(
        r=tuple(Fraction(k, d) for k, d in zip(nums[:6], PRIMES_BELOW_2_31[:6])),
        p=tuple(Fraction(k, d) for k, d in zip(nums[6:], PRIMES_BELOW_2_31[6:])),
    )
    assert scaled_params(t, params).one > 2**340
    measure = nu_full(t, params)
    assert _pairs(measure) == fraction_nu_full(t, params)
    assert max(max(v.num, v.den) for v in measure.entries.values()) > 2**63
    keep = VertexSet.of(0, 2, 5)
    assert _pairs(restrict_measure(measure, keep)) == fraction_restrict_measure(measure, keep)


def test_restrict_measure_matches_the_fraction_products():
    rng = random.Random(71)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 9))
        measure = nu_full(t, mixed_params(rng, t))
        full = (1 << t.n) - 1
        for keep in {0, full, rng.randint(0, full), rng.randint(0, full)}:
            got = restrict_measure(measure, VertexSet(keep))
            expect = fraction_restrict_measure(measure, VertexSet(keep))
            assert _pairs(got) == expect
            assert list(got.entries) == list(expect)


def test_restrict_measure_reduces_its_pairs():
    # entries need not be in lowest terms; the restriction always is,
    # even when nothing is dropped
    measure = SignedMeasure(2, {1: MeasureValue(4, 6), 2: MeasureValue(9, 3), 3: MeasureValue(10, 4)})
    for keep in (VertexSet.of(0), VertexSet.of(0, 1)):
        got = restrict_measure(measure, keep)
        assert _pairs(got) == fraction_restrict_measure(measure, keep)
    assert _pairs(restrict_measure(measure, VertexSet.of(0, 1))) == {1: (2, 3), 2: (3, 1), 3: (5, 2)}
    with pytest.raises(DomainError, match="outside"):
        restrict_measure(measure, VertexSet.of(2))


def test_measure_value_guards():
    with pytest.raises(ValueError):
        MeasureValue.from_ratio(Fraction(0))
    mv = MeasureValue.from_ratio(Fraction(7, 5))
    assert (mv.num, mv.den) == (7, 5)
    measure = SignedMeasure(2, {1: mv})
    with pytest.raises(KeyError, match="measure entries are indexed by nonempty subsets"):
        measure.value(0)
    with pytest.raises(KeyError, match="no entry for subset 3"):
        measure.value(VertexSet.of(0, 1))
