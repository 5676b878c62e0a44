"""Acceptance suite: one test per shipped guarantee, pass/fail per line.

Each test pins one end-to-end guarantee of the package with explicit
tolerances; runtime ceilings are asserted inline where a guarantee
carries one.  Exact statements are checked as Fraction equalities, the
threshold table to 1e-4, and the Monte-Carlo closure to four binomial
standard deviations at a million draws.

The small-p test pins the weak-resampling picture of spiders: there is
no phase flip there.  When only the b edges leaving a connected S
resample, nu(S) = log(1 + (1-r)/r * prod_j p_j r / (1 - p_j (1-r))),
positive for every r in (0, 1); every monomial of nu(S) contains all b
boundary edges, so at uniform small p the mass is
(1-r) r^(b-1) p^b (1 + O(p)) > 0 (``param_calculus.closed_form_p0``).
The reference polynomial ``thresholds.f_k`` (f_4 is negative below
r = 1/2) is not this chain's small-p mass.  The test checks the ring
mass of spider(4, 2) against a transition-product enumeration of all
2^9 configurations that shares no code with the engine.
"""

import functools
import random
import time
from fractions import Fraction

from treerep.chain_model import (
    make_params,
    prob_all_zero,
    sample_percolation_many,
    sample_recursive_many,
    scaled_params,
    uniform_params,
)
from treerep.cli import RunConfig, run
from treerep.mc_verify import field_from_chain, poisson_closure_report, sample_poisson_field_many
from treerep.param_calculus import (
    EdgeMultiset,
    boundary_edge_multiset,
    closed_form_p0,
    closed_form_p1,
    d_nu_dp,
    d_nu_dr,
    d_nu_dr_octopus,
    subtree_edge_multiset,
)
from treerep.representability import is_representable, phase_scan, scaling_check
from treerep.signed_measure import nu_connected, nu_full
from treerep.thresholds import f_k
from treerep.tree_core import (
    VertexSet,
    build_tree,
    connected_subsets,
    is_connected,
    octopus,
    path,
    spider,
    star,
)

from oracles import compare_samplers, drawn_counts, ring_weights

HALF = Fraction(1, 2)


def _random_tree(rng, n):
    return build_tree([(rng.randrange(v), v) for v in range(1, n)], root=0)


def _random_params(rng, tree):
    r = {v: Fraction(rng.randint(1, 10), 11) for v in range(tree.n)}
    p = {"%d-%d" % edge: Fraction(rng.randint(1, 10), 11) for edge in tree.edges}
    return make_params(tree, r, p)


# ---------------------------------------------------------------------------
# criterion 1: threshold table


# Reference digits for the branching-number table: for each n, the exact
# complementary Bell number, the largest negative polylog root, the
# weak-resampling companion level (undefined at n = 3), and the strong-
# resampling sign-change location.
TABLE_DIGITS = {
    3: (1, -1.0, None, 0.5),
    4: (1, -0.26795, 0.5, 0.78868),
    5: (-2, -0.10102, 0.54321, 0.90825),
    6: (-9, -0.04310, 0.54321, 0.95868),
    7: (-9, -0.01952, 0.59054, 0.98085),
    8: (50, -0.00915, 0.63619, 0.99093),
}


def test_criterion_01_threshold_table(tmp_path):
    """`thresholds --n 3..8` reproduces the reference table.

    All r_star and r1 digits to 1e-4, every complementary Bell number
    exactly, r0 to 1e-4 for n = 4..8 and reported "undefined" at n = 3
    together with a note explaining why.  Under one second.
    """
    out = tmp_path / "table.csv"
    started = time.perf_counter()
    code = run(RunConfig(command="thresholds", ns="3..8", out=str(out)))
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 1.0

    lines = out.read_text().splitlines()
    assert lines[0] == "n,bell_c,r_star,r0,r1"
    rows = [line.split(",") for line in lines[1:7]]
    for row in rows:
        n = int(row[0])
        bell_c, r_star, r0, r1 = TABLE_DIGITS[n]
        assert int(row[1]) == bell_c
        assert abs(float(row[2]) - r_star) <= 1e-4
        if r0 is None:
            assert row[3] == "undefined"
        else:
            assert abs(float(row[3]) - r0) <= 1e-4
        assert abs(float(row[4]) - r1) <= 1e-4
    assert any(line.startswith("# r0 undefined at n=3") for line in lines)


# ---------------------------------------------------------------------------
# criteria 2-4: one matrix of 200 random trees with random rational
# parameters, shared across the three formula guarantees


@functools.lru_cache(maxsize=1)
def _consistency_matrix():
    rng = random.Random(20260815)
    matrix = []
    for _ in range(200):
        tree = _random_tree(rng, rng.randint(2, 10))
        params = _random_params(rng, tree)
        measure = nu_full(tree, params)
        weights = ring_weights(tree, params)  # the same Fractions, built once per tree
        probs = {m: prob_all_zero(tree, weights, VertexSet(m)) for m in range(1 << tree.n)}
        matrix.append((tree, params, measure, probs))
    return matrix


def test_criterion_02_mobius_inversion_consistency():
    """exp(-nu(S_I)) recovers P(X(I) = 0) exactly on 200 random trees.

    Summing the measure over the sets meeting I and exponentiating must
    invert the inclusion-exclusion exactly: in ratio form,
    P(all zero) * prod_{nonempty K disjoint from I} ratio(K) equals
    P(X(I) = 0) as a Fraction identity for every nonempty I.  The
    measure comes from the integer butterfly of ``nu_full``; the
    probabilities from an independent Fraction sweep.  The product over
    all K inside each complement comes from one exact subset-product
    transform per tree.  Under two minutes.
    """
    started = time.perf_counter()
    for tree, _, measure, probs in _consistency_matrix():
        full = (1 << tree.n) - 1
        prod = [Fraction(1)] * (full + 1)
        for bits in range(1, full + 1):
            prod[bits] = measure.value(bits).ratio
        for i in range(tree.n):
            bit = 1 << i
            for mask in range(full + 1):
                if mask & bit:
                    prod[mask] *= prod[mask ^ bit]
        p_all = probs[full]
        for i_bits in range(1, full + 1):
            assert p_all * prod[full & ~i_bits] == probs[i_bits]
    assert time.perf_counter() - started < 120


def test_criterion_03_disconnected_sets_carry_no_mass():
    """nu(D) = 0 exactly for every disconnected D in the same matrix."""
    for tree, _, measure, _ in _consistency_matrix():
        for bits in range(1, 1 << tree.n):
            if not is_connected(tree, VertexSet(bits)):
                assert measure.value(bits).ratio == 1


def test_criterion_04_connected_formula_agreement():
    """The boundary-localised formula equals full inclusion-exclusion.

    For every connected S of every matrix tree, the connected-set
    evaluation (a signed sum over boundary events only) must reproduce
    the full-lattice entry as an exact Fraction.
    """
    for tree, params, measure, probs in _consistency_matrix():
        for bits in connected_subsets(tree):
            direct = nu_connected(tree, params, VertexSet(bits), probs)
            assert direct.ratio == measure.value(bits).ratio


# ---------------------------------------------------------------------------
# criterion 5: chains on paths


def test_criterion_05_markov_chains_representable():
    """Paths n = 2..8 are representable across the whole unit grid.

    Every (r, p) in {1/10, ..., 9/10}^2 gives a nonnegative measure,
    decided by exact signs.  Under one minute.
    """
    started = time.perf_counter()
    grid = [Fraction(k, 10) for k in range(1, 10)]
    for n in range(2, 9):
        points = phase_scan(path(n), grid, grid)
        assert len(points) == 81
        assert all(point.verdict.representable for point in points)
    assert time.perf_counter() - started < 60


# ---------------------------------------------------------------------------
# criteria 6 and 7: phase transitions in the resampling parameter


def _transition_product_ratio(tree, r, p, subset):
    """exp(nu(S)) by enumerating every 0/1 configuration of the chain.

    Each configuration x weighs P(fresh draw = x_root) times, for every
    edge, P(x_child | x_parent) = (1-p) [x_child == x_parent] +
    p P(fresh draw = x_child).  Zero-pattern probabilities are sums of
    these weights, and nu(S) is the full inclusion-exclusion
    sum over I inside S of (-1)^(|S|-|I|) log P(X(V minus I) = 0).
    Shares no code with the message-passing sweep or the jets.
    """
    fresh = (r, 1 - r)
    weights = []
    for x in range(1 << tree.n):
        weight = fresh[(x >> tree.root) & 1]
        for v, u in enumerate(tree.parent):
            if u >= 0:
                xu, xv = (x >> u) & 1, (x >> v) & 1
                weight *= p * fresh[xv] + (1 - p if xu == xv else 0)
        weights.append(weight)

    full = (1 << tree.n) - 1
    s = subset.bits
    ratio = Fraction(1)
    sub = s
    while True:
        zero_on = full & ~sub
        prob = sum(w for x, w in enumerate(weights) if x & zero_on == 0)
        ratio = ratio / prob if (s.bit_count() - sub.bit_count()) % 2 else ratio * prob
        if sub == 0:
            break
        sub = (sub - 1) & s
    return ratio


def test_criterion_06_small_p_phase_transition():
    """Weak-resampling phase picture of spider(4, leg 2) at p = 1/100.

    There is no flip around r = 1/2: the chain is representable at
    r = 9/20, at r = 11/20 and at every r = k/100, k = 48..52.  The
    reason is exact.  For a connected S with b outer-boundary vertices,
    let only its b boundary edges resample (every other p_e = 0); then
    S and each subtree hanging off it are constant blocks and

        nu(S) = log(1 + (1-r)/r * prod_j p_j r / (1 - p_j (1-r))) > 0.

    An edge with p_e = 0 makes its outer vertex copy its neighbour in S,
    so every monomial of nu(S) contains all b boundary edges, and at
    uniform small p the leading term is (1-r) r^(b-1) p^b > 0
    (``closed_form_p0``), not ``thresholds.f_k``, which for b = 4 is
    negative below r = 1/2.

    The center-plus-inner-ring mass (b = 4) is pinned to an oracle that
    enumerates all 2^9 configurations as products of transition
    probabilities, in both the Fraction and the integer encoding, and
    to the boundary-only identity above.
    """
    tree = spider(4, 2)
    ring = _ring_set(4)
    p = Fraction(1, 100)
    for r in (Fraction(9, 20), Fraction(11, 20)):
        params = uniform_params(tree, r, p)
        assert is_representable(tree, params).representable

        expected = _transition_product_ratio(tree, r, p, ring)
        assert expected > 1
        assert nu_connected(tree, params, ring).ratio == expected
        assert nu_connected(tree, scaled_params(tree, params), ring).ratio == expected

        boundary_only = make_params(
            tree, r, {e: p if (e[0] in ring) != (e[1] in ring) else 0 for e in tree.edges}
        )
        assert nu_connected(tree, boundary_only, ring).ratio == (
            1 + (1 - r) / r * (p * r / (1 - p * (1 - r))) ** 4
        )

    # no flip on a 1/100-step scan across r = 1/2
    bracket = [Fraction(k, 100) for k in range(48, 53)]
    points = phase_scan(tree, bracket, [p])
    assert [point.r for point in points] == bracket
    assert all(point.verdict.representable for point in points)

    # the chain follows closed_form_p0, not the reference polynomial f_k
    assert f_k(4, Fraction(9, 20)) < 0 < closed_form_p0(4, Fraction(9, 20))


def test_criterion_07_large_p_phase_transition():
    """Strong-resampling phase flip for octopus(3, 2) at p = 19/20.

    Not representable at r = 9/20 (center-plus-inner-ring witness),
    representable at r = 11/20; and at r = 11/20 the verdict stays
    representable across p in {1/20, 1/2, 19/20} on this truncation.
    """
    tree = octopus(3, 2)
    p_hot = Fraction(19, 20)
    low = is_representable(tree, uniform_params(tree, Fraction(9, 20), p_hot))
    assert not low.representable
    assert low.witness == VertexSet.of(0, 1, 3, 5)
    high = is_representable(tree, uniform_params(tree, Fraction(11, 20), p_hot))
    assert high.representable
    for p in (Fraction(1, 20), HALF, Fraction(19, 20)):
        verdict = is_representable(tree, uniform_params(tree, Fraction(11, 20), p))
        assert verdict.representable


# ---------------------------------------------------------------------------
# criterion 8: derivative identities


def _ring_set(arms):
    """Center plus inner ring of a leg-length-2 spider/octopus."""
    return VertexSet.of(0, *[1 + 2 * j for j in range(arms)])


def _check_distinguished(tree, subset, r, seen):
    """Jet derivatives against both closed forms, plus exact zeros."""
    params = uniform_params(tree, r, HALF)
    boundary = boundary_edge_multiset(tree, subset)
    subtree = subtree_edge_multiset(tree, subset)

    if 2 <= boundary.total <= 6:
        jet = d_nu_dp(tree, params, subset, boundary, at="p0")
        assert jet == closed_form_p0(boundary.total, r)
        seen["p0"] += 1
        # same order, wrong support: swap one boundary edge for an
        # edge of the induced subtree (singletons have none to swap in)
        support = list(boundary.support)
        if subtree.support:
            swapped = EdgeMultiset.of(subtree.support[0], *support[1:])
            if swapped != boundary:
                assert d_nu_dp(tree, params, subset, swapped, at="p0") == 0
        # same order, repeated edge
        repeated = EdgeMultiset.of(*([support[0]] * boundary.total))
        if repeated != boundary:
            assert d_nu_dp(tree, params, subset, repeated, at="p0") == 0
        # below the distinguished order
        assert d_nu_dp(tree, params, subset, [support[0]], at="p0") == 0

    if len(subset) >= 2 and subtree.total <= 6:
        jet = d_nu_dp(tree, params, subset, subtree, at="p1")
        assert jet == closed_form_p1(tree, subset, r)
        seen["p1"] += 1
        support = list(subtree.support)
        if boundary.total:
            swapped = EdgeMultiset.of(boundary.support[0], *support[1:])
            if swapped != subtree:
                assert d_nu_dp(tree, params, subset, swapped, at="p1") == 0
        assert d_nu_dp(tree, params, subset, [support[0]], at="p1") == (
            closed_form_p1(tree, subset, r) if subtree.total == 1 else 0
        )


def test_criterion_08_derivative_identities():
    """Jet derivatives equal both closed forms, exactly, fleet-wide.

    Spiders with up to 5 legs, octopus truncations with up to 4 arms,
    and 10 random trees: at p = 0 the boundary-multiset derivative is
    (1-r) r^(b-1); at p = 1 the subtree-multiset derivative matches the
    degree-factorised product form; every lower-order and wrong-support
    derivative vanishes identically.  All Fraction equalities.  Under
    five minutes.
    """
    started = time.perf_counter()
    seen = {"p0": 0, "p1": 0}

    for k in (2, 3, 4, 5):
        tree = spider(k, 2)
        _check_distinguished(tree, _ring_set(k), Fraction(k, k + 3), seen)
        _check_distinguished(tree, VertexSet.of(0, 1, 2), Fraction(2, 5), seen)
    for m in (3, 4):
        tree = octopus(m, 2)
        _check_distinguished(tree, _ring_set(m), Fraction(m, m + 2), seen)
        _check_distinguished(tree, VertexSet.of(1, 0, 3), Fraction(3, 7), seen)

    rng = random.Random(20260816)
    for _ in range(10):
        tree = _random_tree(rng, rng.randint(4, 8))
        r = Fraction(rng.randint(1, 9), 10)
        sets = sorted(connected_subsets(tree), key=lambda b: (b.bit_count(), b))
        for bits in sets[:8]:
            if bits.bit_count() < tree.n:
                _check_distinguished(tree, VertexSet(bits), r, seen)

    assert seen["p0"] >= 12 and seen["p1"] >= 12
    assert time.perf_counter() - started < 300


# ---------------------------------------------------------------------------
# criterion 9: octopus vertex-law calculus


def test_criterion_09_octopus_r_calculus():
    """Vertex-law derivatives on octopus(3, 2) with distinct edge values.

    With S = center plus inner ring: the mass vanishes identically once
    the center's law is 1; every mixed vertex-law derivative avoiding
    the center vanishes at r = 1; and the center derivative at r = 1
    equals -prod_j (1 - p_{j,1}) p_{j,2}.  All exact.
    """
    tree = octopus(3, 2)
    subset = _ring_set(3)
    p_first = [Fraction(1, 3), Fraction(2, 7), Fraction(3, 8)]
    p_second = [Fraction(2, 5), Fraction(5, 9), Fraction(1, 6)]
    p_by_edge = {}
    for j in range(3):
        inner = 1 + 2 * j
        p_by_edge["0-%d" % inner] = p_first[j]
        p_by_edge["%d-%d" % (inner, inner + 1)] = p_second[j]

    # center law pinned at 1 kills the mass regardless of the others
    frozen = make_params(tree, {0: Fraction(1)} | {v: Fraction(5, 7) for v in range(1, 7)}, p_by_edge)
    assert nu_connected(tree, frozen, subset).ratio == 1

    params = make_params(tree, HALF, p_by_edge)
    for avoiding in ([1], [3], [5], [2], [1, 3], [1, 1], [1, 2], [2, 4]):
        assert d_nu_dr(tree, params, subset, avoiding, at="r1") == 0

    expected = d_nu_dr_octopus(3, p_first, p_second)
    assert d_nu_dr(tree, params, subset, [0], at="r1") == expected
    assert expected == -(
        (1 - p_first[0]) * p_second[0]
        * (1 - p_first[1]) * p_second[1]
        * (1 - p_first[2]) * p_second[2]
    )


# ---------------------------------------------------------------------------
# criterion 10: subdivision scaling


def test_criterion_10_subdivision_scaling():
    """Splitting edges into k segments preserves the measure exactly.

    Subdividing with per-segment parameter p and restricting back to
    the original vertices reproduces the original measure with
    aggregated parameter p' = 1 - (1-p)^k, entry by entry.
    """
    assert scaling_check(path(3), Fraction(2, 5), Fraction(3, 7), 2)
    assert scaling_check(path(3), Fraction(2, 5), Fraction(3, 7), 3)
    assert scaling_check(path(3), Fraction(9, 11), Fraction(1, 6), 2)
    assert scaling_check(star(3), Fraction(1, 3), Fraction(1, 4), 2)


# ---------------------------------------------------------------------------
# criterion 11: Monte-Carlo closure


def test_criterion_11_monte_carlo_closure():
    """The sampled Poisson field reproduces the chain's law.

    On path(4) and octopus(3, 1) at r = p = 1/2 (both representable):
    every zero-pattern frequency of a million field draws sits within
    four binomial standard deviations of the exact probability, and the
    two independent chain samplers agree under a chi-square test over
    all patterns at the one percent level.  Under two minutes.
    """
    started = time.perf_counter()
    draws = 1_000_000
    for tree in (path(4), octopus(3, 1)):
        params = uniform_params(tree, HALF, HALF)
        assert is_representable(tree, params).representable

        field = field_from_chain(tree, params)
        sampled = drawn_counts(functools.partial(sample_poisson_field_many, field), tree.n,
                               draws, 2026)
        closure = poisson_closure_report(tree, params, sampled, tolerance=4.0)
        assert closure.checked == (1 << tree.n) - 1
        assert closure.passed, "worst set %r at %.2f sigmas" % (
            closure.worst_set,
            closure.max_sigmas,
        )

        def percolation(n_draws, seed, tree=tree, params=params):
            return sample_percolation_many(tree, params, n_draws, seed)

        def recursive(n_draws, seed, tree=tree, params=params):
            return sample_recursive_many(tree, params, n_draws, seed)

        report = compare_samplers(percolation, recursive, tree.n, draws, seed=2026, alpha=0.01)
        assert report.passed, "chi-square %.2f at p=%.4f" % (report.statistic, report.p_value)
    assert time.perf_counter() - started < 120
