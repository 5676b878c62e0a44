import math
import random
from fractions import Fraction

import numpy as np
import pytest

from treerep import chain_model
from treerep.chain_model import (
    ChainParams,
    _coins,
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
from oracles import (
    brute_force_prob_all_zero,
    gather_colour,
    pack64,
    percolation_coins,
    philox_coins,
    recursive_coins,
    ring_weights,
    where_prob_all_zero_many,
    where_walk,
)

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
    for r_spec, p_spec, message in [
        ({0: "1/2"}, "1/2", "per-vertex r must cover all 3 vertices"),
        ("1/2", {"0-1": "1/2"}, "per-edge p must cover all 2 edges"),
        ("2", "1/2", r"r values must lie in \[0, 1\]"),
        ("1/2", "3/2", r"p values must lie in \[0, 1\]"),
    ]:
        with pytest.raises(DomainError, match=message):
            make_params(t, r_spec, p_spec)


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
    with pytest.raises(DomainError, match="zero_on contains ids outside the tree"):
        prob_all_zero(t3, params3, VertexSet.of(3))


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
    pa = sample_percolation_many(t, params, 64, seed=42)
    pb = sample_percolation_many(t, params, 64, seed=42)
    assert np.array_equal(pa, pb)


@pytest.mark.parametrize("maker", [sample_recursive_many, sample_percolation_many])
def test_fewer_draws_are_a_prefix_of_more(maker):
    # coin j of every slot reads the same half word whatever n_draws is
    t = star(3)
    params = uniform_params(t, HALF, Fraction(1, 3))
    for seed in range(50):
        full = maker(t, params, 64, seed=seed)
        assert maker(t, params, 1, seed=seed)[0] == full[0]
        for k in (0, 2, 3, 63):
            assert np.array_equal(maker(t, params, k, seed=seed), full[:k])


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


def _slot_coins(seed, slot, q, size):
    """All ``size`` coins of one slot, its blocks joined."""
    return np.concatenate([np.zeros(0, dtype=bool), *_coins(seed, slot, q, size)])


def test_coins_read_each_slots_stream_as_the_oracle_does():
    qs = [Fraction(0), Fraction(1), HALF, Fraction(1, 3),
          Fraction(1, 10 ** 30), 1 - Fraction(1, 10 ** 30)]
    for seed, slot in ((0, 0), (7, 1), (7, 46), (2 ** 64 - 1, 5)):
        for q in qs:
            for size in (0, 1, 12_345, 10 ** 5):
                blocks = [len(b) for b in _coins(seed, slot, q, size)]
                assert blocks == [min(chain_model._BLOCK, size - lo)
                                  for lo in range(0, size, chain_model._BLOCK)]
                got = _slot_coins(seed, slot, q, size)
                assert got.dtype == bool and got.shape == (size,)
                assert np.array_equal(got, philox_coins(seed, slot, q, size))


def test_a_coin_is_true_strictly_below_the_floored_threshold():
    # q puts floor(q * 2^32) exactly on a half the stream will read
    raw = np.random.Philox(key=9, counter=3 << 192).random_raw(2).tolist()
    halves = [raw[0] & 0xFFFFFFFF, raw[0] >> 32, raw[1] & 0xFFFFFFFF, raw[1] >> 32]
    for j, h in enumerate(halves):
        for q, expect in ((Fraction(h, 2**32), False),
                          (Fraction(2 * h + 1, 2**33), False),
                          (Fraction(h + 1, 2**32), True)):
            assert bool(_slot_coins(9, 3, q, 4)[j]) is expect
            assert bool(philox_coins(9, 3, q, 4)[j]) is expect


def test_coins_of_different_slots_differ():
    a, b = (_slot_coins(3, slot, HALF, 1000) for slot in (0, 1))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, _slot_coins(4, 0, HALF, 1000))


def _cap_cases():
    # every tree order up to the cap, with r and p at 0 and 1 among the values
    rng = random.Random(24)
    cases = [
        (path(24), uniform_params(path(24), HALF, 0)),
        (path(24), uniform_params(path(24), Fraction(1, 3), 1)),
        (star(23), uniform_params(star(23), 1, HALF)),
        (star(23), uniform_params(star(23), 0, Fraction(2, 3))),
    ]
    for n in range(1, 25):
        t = random_tree(rng, n)
        cases.append((t, random_params(rng, t, denom=rng.randint(1, 6), interior=False)))
    return cases


def _assert_oracle_words(t, params, n_draws, seed):
    # from the same coins, the recursive walk equals the np.where walk and
    # percolation equals the int64-label gather, word for word in uint64
    rec = sample_recursive_many(t, params, n_draws, seed)
    perc = sample_percolation_many(t, params, n_draws, seed)
    assert rec.dtype == perc.dtype == np.uint32
    expect_rec = pack64(where_walk(t, *recursive_coins(t, params, n_draws, seed)))
    expect_perc = pack64(gather_colour(t, *percolation_coins(t, params, n_draws, seed)))
    assert rec.tolist() == expect_rec.tolist()
    assert perc.tolist() == expect_perc.tolist()
    return rec, perc


def test_samplers_colour_and_pack_their_oracle_coins():
    for seed, (t, params) in enumerate(_cap_cases()):
        _assert_oracle_words(t, params, 33, seed)


def test_small_blocks_give_the_oracle_words(monkeypatch):
    # 33 draws in blocks of 6: five whole blocks and one of 3
    monkeypatch.setattr(chain_model, "_BLOCK", 6)
    for seed, (t, params) in enumerate(_cap_cases()):
        rec, perc = _assert_oracle_words(t, params, 33, seed)
        for k in (5, 6, 7, 13):
            assert np.array_equal(sample_recursive_many(t, params, k, seed), rec[:k])
            assert np.array_equal(sample_percolation_many(t, params, k, seed), perc[:k])


def test_draw_counts_around_the_block_size_give_the_oracle_words():
    block = chain_model._BLOCK
    assert block % 2 == 0
    t = build_tree([(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)])
    params = random_params(random.Random(6), t, denom=7)
    longest = 2 * block + 3
    rec, perc = _assert_oracle_words(t, params, longest, 5)
    for n_draws in (block - 1, block + 1):
        # fewer draws end mid-block where more draws run on
        got = _assert_oracle_words(t, params, n_draws, 5)
        assert np.array_equal(got[0], rec[:n_draws])
        assert np.array_equal(got[1], perc[:n_draws])


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
        weights = float_weights(t, [_extreme_params(rng, t)])
        full = (1 << t.n) - 1
        if t.n <= 8:
            masks = np.arange(full + 1, dtype=np.int64)
        else:
            masks = np.array([0, full] + [rng.randint(0, full) for _ in range(200)], dtype=np.int64)
        got = prob_all_zero_many(t, weights, masks)
        expect = where_prob_all_zero_many(t, weights, masks)
        assert got.dtype == expect.dtype == np.float64
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_float_weights_rows_are_each_points_own_weights():
    # row k of every column holds points[k]'s correctly rounded laws, 1 - x
    # is rounded from the exact value, the root's edge entries are None,
    # and one sweep of all the points gives each point's own sweep bit for bit
    rng = random.Random(101)
    tree = random_tree(rng, 7)
    tiny, near_one = EXTREMES[:2]
    thirds = (Fraction(1, 3),) * (tree.n - 2)
    points = [
        ChainParams(r=(tiny, near_one) + thirds, p=(near_one, tiny) + (Fraction(19, 20),) * 4),
        ChainParams(r=(near_one,) * tree.n, p=(tiny,) * 6),
    ] + [_extreme_params(rng, tree) for _ in range(4)]
    assert len(tree.edges) == 6 and (float(tiny), float(near_one)) == (0.0, 1.0)
    weights = float_weights(tree, points)
    masks = np.arange(1 << tree.n, dtype=np.int64)
    table = prob_all_zero_many(tree, weights, masks)
    assert table.shape == (len(points), len(masks))
    up = tree.parent_edge
    for k, point in enumerate(points):
        expect = (
            [float(x) for x in point.r],
            [float(1 - x) for x in point.r],
            [None if e < 0 else float(point.p[e]) for e in up],
            [None if e < 0 else float(1 - point.p[e]) for e in up],
        )
        alone = float_weights(tree, [point])
        for field, own, want in zip(weights[:4], alone[:4], expect):
            assert [None if y is None else y[k, 0] for y in field] == want
            assert [None if y is None else y[0, 0] for y in own] == want
        assert alone.one == weights.one == 1.0
        sweep = prob_all_zero_many(tree, alone, masks)
        assert sweep.shape == (1, len(masks))
        assert np.array_equal(table[k].view(np.int64), sweep[0].view(np.int64))


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
        lambda: sample_recursive_many(t, floats, 10, seed=0),
        lambda: sample_percolation_many(t, floats, 10, seed=0),
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
        for sampler in (sample_recursive_many, sample_percolation_many):
            with pytest.raises(DomainError):
                sampler(t, params, 10, seed=0)
    ints = ChainParams(r=(1, HALF, HALF), p=(0, 1))
    assert prob_all_zero(t, ints, VertexSet.of(0, 2)) == HALF
