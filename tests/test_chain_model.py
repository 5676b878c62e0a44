import math
import random
from fractions import Fraction

import numpy as np
import pytest

from treerep.chain_model import (
    ChainParams,
    as_fraction,
    float_weights,
    make_params,
    params_from_json,
    prob_all_zero,
    prob_all_zero_many,
    sample_percolation_many,
    sample_recursive_many,
    uniform_params,
)
from treerep.param_calculus import d_nu_dp
from treerep.representability import is_representable, phase_scan
from treerep.signed_measure import nu_connected, nu_full
from treerep.tree_core import DomainError, VertexSet, build_tree, path, star

from conftest import random_params, random_tree
from oracles import brute_force_prob_all_zero, ring_weights, where_prob_all_zero_many

HALF = Fraction(1, 2)


def test_as_fraction_exact_decimals():
    assert as_fraction("9/20") == Fraction(9, 20)
    assert as_fraction("0.45") == Fraction(9, 20)
    assert as_fraction(0.45) == Fraction(9, 20)
    assert as_fraction(1) == 1


def test_booleans_are_not_rationals():
    with pytest.raises(DomainError, match="not an exact rational: True"):
        make_params(path(2), True, False)
    with pytest.raises(DomainError, match="not an exact rational: True"):
        uniform_params(path(2), True, 0)
    with pytest.raises(DomainError, match="not an exact rational: False"):
        as_fraction(False)


def test_make_params_maps():
    t = path(3)
    params = make_params(t, {0: "1/2", 1: "1/3", 2: "1/4"}, {"0-1": "1/5", "1-2": "1/6"})
    assert params.r == (HALF, Fraction(1, 3), Fraction(1, 4))
    assert params.p == (Fraction(1, 5), Fraction(1, 6))
    with pytest.raises(ValueError):
        make_params(t, {0: "1/2"}, "1/2")
    with pytest.raises(ValueError):
        make_params(t, "1/2", "3/2")


@pytest.mark.parametrize("key", [9, -1, "9", "-1", "x", "1-5", 1.5])
def test_make_params_refuses_a_vertex_key_outside_the_tree(key):
    t = path(2)
    with pytest.raises(DomainError, match="no vertex"):
        make_params(t, {0: HALF, 1: HALF, key: HALF}, HALF)


@pytest.mark.parametrize("key", ["1-5", "0-0", "x", "0-1-2", "1", (0, 5), 7])
def test_make_params_refuses_an_edge_key_naming_no_edge(key):
    t = path(3)
    with pytest.raises(DomainError, match="no edge"):
        make_params(t, HALF, {"0-1": HALF, "1-2": HALF, key: HALF})


@pytest.mark.parametrize(
    "r_spec",
    [{"1": HALF, "01": Fraction(1, 3), "0": HALF}, {0: HALF, 1: HALF, "1": HALF}],
)
def test_make_params_refuses_a_vertex_named_twice(r_spec):
    with pytest.raises(DomainError, match="vertex 1 is named twice"):
        make_params(path(2), r_spec, HALF)


@pytest.mark.parametrize(
    "p_spec",
    [
        {"0-1": Fraction(1, 3), "1-0": Fraction(1, 5)},
        {"0-1": Fraction(1, 3), (0, 1): Fraction(1, 5)},
        {(1, 0): Fraction(1, 3), "0-1": Fraction(1, 5)},
    ],
)
def test_make_params_refuses_an_edge_named_twice(p_spec):
    with pytest.raises(DomainError, match="edge 0-1 is named twice"):
        make_params(path(2), HALF, p_spec)


@pytest.mark.parametrize("value", ["x", "1/0", float("nan"), [1], None])
def test_make_params_refuses_a_value_that_is_not_rational(value):
    with pytest.raises(DomainError, match="not an exact rational"):
        make_params(path(2), value, HALF)
    with pytest.raises(DomainError, match="not an exact rational"):
        make_params(path(2), HALF, {"0-1": value})
    with pytest.raises(DomainError, match="not an exact rational"):
        uniform_params(path(2), value, 0)
    with pytest.raises(DomainError, match="not an exact rational"):
        phase_scan(path(3), [value], ["1/2"])


@pytest.mark.parametrize(
    "text", ["", "not json", "[0.5, 0.5]", '"1/2"', '{"p": 0.5}']
)
def test_params_from_json_refuses_malformed_text(text):
    with pytest.raises(DomainError, match="params JSON"):
        params_from_json(path(2), text)


def test_params_from_json():
    t = path(3)
    params = params_from_json(t, '{"r": 0.45, "p": {"0-1": "1/5", "1-2": 0.5}}')
    assert params.r == (Fraction(9, 20),) * 3
    assert params.p == (Fraction(1, 5), HALF)
    with pytest.raises(ValueError):
        params_from_json(t, '{"r": 0.5}')


def test_prob_all_zero_frozen_values():
    # two-vertex chain, A = both: r * ((1-p) + p*r) = 3/8 at r = p = 1/2
    t2 = path(2)
    params = uniform_params(t2, HALF, HALF)
    assert prob_all_zero(t2, params, VertexSet.of(0, 1)) == Fraction(3, 8)

    # three-vertex chain at r = p = 1/2, worked by hand
    t3 = path(3)
    params3 = uniform_params(t3, HALF, HALF)
    assert prob_all_zero(t3, params3, VertexSet.of(0, 1, 2)) == Fraction(9, 32)
    assert prob_all_zero(t3, params3, VertexSet.of(0, 2)) == Fraction(5, 16)
    assert prob_all_zero(t3, params3, VertexSet.of(0, 1)) == Fraction(3, 8)
    assert prob_all_zero(t3, params3, VertexSet.of(1)) == HALF
    assert prob_all_zero(t3, params3, VertexSet()) == 1


def test_prob_all_zero_pair_distance_formula():
    # on a path at r = p = 1/2: P(X(0)=X(d)=0) = ((1-p)^d... = (1/4)((1/2)^d + 1)
    t = path(6)
    params = uniform_params(t, HALF, HALF)
    for d in range(1, 6):
        got = prob_all_zero(t, params, VertexSet.of(0, d))
        assert got == Fraction(1, 4) * (HALF**d + 1)


def test_prob_all_zero_degenerate_p():
    rng = random.Random(7)
    for _ in range(20):
        t = random_tree(rng, rng.randint(2, 7))
        r = tuple(Fraction(rng.randint(1, 9), 10) for _ in range(t.n))
        a = VertexSet(rng.randint(1, (1 << t.n) - 1))
        # p == 0: everything copies the root draw
        frozen = make_params(t, dict(enumerate(r)), 0)
        assert prob_all_zero(t, frozen, a) == r[t.root]
        # p == 1: everything independent
        indep = make_params(t, dict(enumerate(r)), 1)
        expect = math.prod((r[v] for v in a), start=Fraction(1))
        assert prob_all_zero(t, indep, a) == expect


def test_prob_all_zero_matches_brute_force():
    rng = random.Random(20240817)
    for _ in range(200):
        t = random_tree(rng, rng.randint(2, 8))  # at most 7 edges
        params = random_params(rng, t, denom=rng.choice([6, 10, 12]), interior=False)
        a = VertexSet(rng.randint(0, (1 << t.n) - 1))
        assert prob_all_zero(t, params, a) == brute_force_prob_all_zero(t, params, a)


def test_prob_all_zero_monotone_in_constraint():
    rng = random.Random(99)
    for _ in range(50):
        t = random_tree(rng, rng.randint(2, 8))
        params = random_params(rng, t)
        bits_b = rng.randint(1, (1 << t.n) - 1)
        bits_a = bits_b & rng.randint(0, (1 << t.n) - 1)
        pa = prob_all_zero(t, params, VertexSet(bits_a))
        pb = prob_all_zero(t, params, VertexSet(bits_b))
        assert pa >= pb


def test_prob_all_zero_positive_association():
    # with a uniform fresh law, forcing zeros is positively associated:
    # P(everything zero on A) >= r^|A|
    rng = random.Random(5)
    for _ in range(50):
        t = random_tree(rng, rng.randint(2, 8))
        r = Fraction(rng.randint(1, 9), 10)
        params = uniform_params(t, r, Fraction(rng.randint(0, 10), 10))
        a = VertexSet(rng.randint(1, (1 << t.n) - 1))
        assert prob_all_zero(t, params, a) >= r ** len(a)


def test_samplers_deterministic_by_seed():
    t = star(3)
    params = uniform_params(t, HALF, Fraction(1, 3))
    a = sample_recursive_many(t, params, 64, seed=42)
    b = sample_recursive_many(t, params, 64, seed=42)
    assert np.array_equal(a, b)
    c = sample_recursive_many(t, params, 64, seed=43)
    assert not np.array_equal(a, c)
    assert sample_recursive_many(t, params, 1, seed=42)[0] == a[0]
    pa = sample_percolation_many(t, params, 64, seed=42)
    pb = sample_percolation_many(t, params, 64, seed=42)
    assert np.array_equal(pa, pb)
    assert sample_percolation_many(t, params, 1, seed=42)[0] == pa[0]


@pytest.mark.parametrize("maker", [sample_recursive_many, sample_percolation_many])
def test_sampler_matches_exact_law_small_trees(maker):
    # zero-pattern probabilities determine the law; check all of them to 4 sigma
    n_draws = 120_000
    cases = [
        (path(4), uniform_params(path(4), HALF, HALF)),
        (star(3), make_params(star(3), {0: "1/3", 1: "1/2", 2: "2/3", 3: "1/2"}, "2/5")),
    ]
    for t, params in cases:
        draws = maker(t, params, n_draws, seed=2718)
        for bits in range(1, 1 << t.n):
            exact = float(prob_all_zero(t, params, VertexSet(bits)))
            hit = np.count_nonzero(draws & np.uint64(bits) == 0)
            sigma = math.sqrt(exact * (1 - exact) / n_draws)
            assert abs(hit / n_draws - exact) <= 4 * sigma + 1e-12


def test_degenerate_parameter_sampling():
    t = path(3)
    frozen = uniform_params(t, HALF, 0)  # perfect copying: X is constant
    draws = sample_recursive_many(t, frozen, 256, seed=1)
    assert set(np.unique(draws)) <= {0, 7}
    indep = uniform_params(t, 0, 1)  # fresh draws that are never zero
    draws = sample_percolation_many(t, indep, 256, seed=1)
    assert set(np.unique(draws)) == {7}


# parameters at and past the edges of float64: r = 1/10^400 rounds to
# 0.0 and 1 - 1/10^300 to 1.0
EXTREMES = (Fraction(1, 10**400), 1 - Fraction(1, 10**300), Fraction(0), Fraction(1))


def _extreme_params(rng, tree):
    def draw():
        if rng.random() < 0.5:
            return rng.choice(EXTREMES)
        return Fraction(rng.randint(0, 16), 16)

    return ChainParams(r=tuple(draw() for _ in range(tree.n)), p=tuple(draw() for _ in tree.edges))


def test_float_sweep_is_bit_identical_to_the_where_sweep():
    rng = random.Random(89)
    trees = [path(1), path(12), star(11)] + [
        random_tree(rng, rng.randint(1, 12)) for _ in range(120)
    ]
    for t in trees:
        weights = float_weights(t, _extreme_params(rng, t))
        full = (1 << t.n) - 1
        if t.n <= 8:
            masks = np.arange(full + 1, dtype=np.int64)
        else:
            masks = np.array([0, full] + [rng.randint(0, full) for _ in range(200)], dtype=np.int64)
        got = prob_all_zero_many(t, weights, masks)
        expect = where_prob_all_zero_many(t, weights, masks)
        assert got.dtype == expect.dtype == np.float64
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_prob_all_zero_of_chain_params_is_the_fraction_sweep():
    rng = random.Random(97)
    cases = [
        (t, uniform_params(t, r, p))
        for t in (path(4), star(3))
        for r, p in ((1, 0), (1, 1), (HALF, 0), (Fraction(1, 3), 1))
    ]
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 8))
        cases.append((t, random_params(rng, t, denom=rng.randint(1, 9), interior=False)))
    for t, params in cases:
        weights = ring_weights(t, params)
        for bits in range(1 << t.n):
            got = prob_all_zero(t, params, VertexSet(bits))
            assert type(got) is Fraction
            assert got == prob_all_zero(t, weights, VertexSet(bits))
        assert prob_all_zero(t, params, VertexSet()) == 1


def test_hand_built_params_are_checked_before_any_sweep():
    t = path(3)
    floats = ChainParams(r=(0.5,) * 3, p=(0.25,) * 2)
    s = VertexSet.of(0, 1)
    for call in (
        lambda: prob_all_zero(t, floats, VertexSet.of(0)),
        lambda: nu_connected(t, floats, s),
        lambda: is_representable(t, floats),
        lambda: nu_full(t, floats),
        lambda: d_nu_dp(t, floats, s, [(0, 1)]),
    ):
        with pytest.raises(DomainError, match="ints or Fractions in \\[0, 1\\]"):
            call()
    bad = [
        ChainParams(r=(HALF,) * 2, p=(HALF,) * 2),
        ChainParams(r=(HALF,) * 3, p=(HALF,) * 3),
        ChainParams(r=(True, HALF, HALF), p=(HALF,) * 2),
        ChainParams(r=(HALF,) * 3, p=(Fraction(3, 2), HALF)),
        ChainParams(r=(HALF, -1, HALF), p=(HALF,) * 2),
        ChainParams(r=("1/2", HALF, HALF), p=(HALF,) * 2),
    ]
    for params in bad:
        with pytest.raises(DomainError):
            prob_all_zero(t, params, VertexSet.of(0))
        with pytest.raises(DomainError):
            nu_full(t, params)
        with pytest.raises(DomainError):
            nu_connected(t, params, s)
        with pytest.raises(DomainError):
            d_nu_dp(t, params, VertexSet.of(0, 2), [(0, 1)])
    ints = ChainParams(r=(1, HALF, HALF), p=(0, 1))
    assert prob_all_zero(t, ints, VertexSet.of(0, 2)) == HALF
