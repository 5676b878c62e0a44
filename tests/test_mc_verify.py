"""Poisson-field sampling and the statistical comparison harness.

Every assertion here is deterministic: the counter-based generator
makes each (tree, params, seed) draw sequence a frozen fixture, so the
chosen tolerances either hold forever or never.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from treerep import chain_model, mc_verify
from treerep.chain_model import sample_percolation_many, sample_recursive_many, uniform_params
from treerep.mc_verify import (
    ComparisonReport,
    PoissonField,
    compare_laws,
    field_from_chain,
    poisson_closure_report,
    poisson_field,
    sample_poisson_field_many,
)
from treerep.signed_measure import MeasureValue, SignedMeasure, nu_full
from treerep.tree_core import DomainError, VertexSet, octopus, path, spider, star

from conftest import mixed_params, random_tree
from oracles import (
    bernoulli_field_sampler,
    compare_samplers,
    counts_closure_report,
    drawn_counts,
    loop_closure_report,
    sorted_list_compare_laws,
)

F = Fraction


def test_field_keeps_only_positive_atoms():
    t = path(3)
    field = field_from_chain(t, uniform_params(t, F(1, 2), F(1, 2)))
    assert len(field.atoms) == 6  # the disconnected pair {0,2} carries no mass
    assert all(intensity > 0 for _, intensity in field.atoms)
    assert [atom.bits for atom, _ in field.atoms] == [1, 2, 3, 4, 6, 7]


def test_field_rejects_negative_mass():
    t = octopus(3, 2)
    with pytest.raises(ValueError):
        field_from_chain(t, uniform_params(t, F(9, 20), F(19, 20)))


def test_single_atom_matches_its_poisson_law():
    measure = SignedMeasure(1, {1: MeasureValue.from_ratio(F(2))})
    field = poisson_field(measure)
    assert len(field.atoms) == 1 and field.atoms[0][1] == pytest.approx(math.log(2))
    n = 100_000
    words = sample_poisson_field_many(field, n, seed=11)
    zero_rate = float(np.mean(words == 0))
    assert abs(zero_rate - 0.5) <= 4 * math.sqrt(0.25 / n)


def test_arrivals_beyond_one_chunk_are_all_placed():
    n = 100_000
    assert 3 * n > chain_model._BLOCK  # about 3 * 10^5 arrivals: several blocks
    field = PoissonField(atoms=((VertexSet.of(0), 3.0),))
    zero_rate = float(np.mean(sample_poisson_field_many(field, n, seed=5) == 0))
    expected = math.exp(-3)
    assert abs(zero_rate - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)
    # every index can take an arrival: at intensity 40 a draw stays empty
    # with probability e^-40
    saturated = PoissonField(atoms=((VertexSet.of(0), 40.0),))
    assert (sample_poisson_field_many(saturated, 3, seed=0) == 1).all()


def test_field_words_do_not_depend_on_the_arrival_chunk(monkeypatch):
    # Generator.integers reads its stream the same way however a count is
    # split, odd splits included, so the scatter may place arrivals in blocks
    t = path(4)
    field = field_from_chain(t, uniform_params(t, F(1, 2), F(1, 2)))
    words = []
    for chunk in (1, 7, 1 << 14, 1 << 18):
        monkeypatch.setattr(chain_model, "_BLOCK", chunk)
        words.append(sample_poisson_field_many(field, 3000, seed=8).tolist())
    assert words[0] == words[1] == words[2] == words[3]


TRACED_SLACK = 32 << 10  # bytes of Python objects, far below one block's arrays


def _traced_peak(call):
    """Peak bytes traced while ``call()`` runs, numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_temporaries_do_not_grow_with_the_draw_count():
    # numpy reports its buffers to tracemalloc: from 10^5 to 4 * 10^5 draws
    # a sampler's traced peak grows by its output's growth and no more
    t = path(8)
    params = uniform_params(t, F(1, 2), F(9, 10))
    samplers = [
        (partial(sample_recursive_many, t, params), 4),
        (partial(sample_percolation_many, t, params), 4),
        (partial(sample_poisson_field_many, field_from_chain(t, params)), 8),
    ]
    for sampler, word_bytes in samplers:
        small, large = (_traced_peak(partial(sampler, n_draws, 1))
                        for n_draws in (10 ** 5, 4 * 10 ** 5))
        assert large - small <= 3 * 10 ** 5 * word_bytes + TRACED_SLACK


def test_pattern_histogram_temporaries_do_not_grow_with_the_draw_count():
    words = np.arange(4 * 10 ** 5, dtype=np.uint64) % 200
    small, large = (_traced_peak(partial(mc_verify._pattern_histogram, words[:n_draws], 8))
                    for n_draws in (10 ** 5, 4 * 10 ** 5))
    assert large - small <= TRACED_SLACK


def test_overlapping_atoms_follow_independent_bernoulli_hits():
    atoms = ((VertexSet.of(0, 1), 0.7), (VertexSet.of(1, 2), 1.2))
    field = PoissonField(atoms=atoms)
    report = compare_samplers(
        partial(sample_poisson_field_many, field),
        bernoulli_field_sampler(atoms),
        3, n_draws=100_000, seed=13,
    )
    assert report.passed, report


def test_empty_measure_samples_all_zero():
    field = poisson_field(SignedMeasure(2, {}))
    assert field.atoms == ()
    assert not sample_poisson_field_many(field, 50, seed=3).any()


def test_field_sampling_is_seed_deterministic():
    t = path(3)
    field = field_from_chain(t, uniform_params(t, F(1, 2), F(1, 2)))
    a = sample_poisson_field_many(field, 500, seed=42)
    b = sample_poisson_field_many(field, 500, seed=42)
    assert (a == b).all()
    assert (a != sample_poisson_field_many(field, 500, seed=43)).any()


def test_samplers_refuse_bad_seeds_and_draw_counts():
    t = path(3)
    params = uniform_params(t, F(1, 2), F(1, 2))
    samplers = [
        partial(sample_recursive_many, t, params),
        partial(sample_percolation_many, t, params),
        partial(sample_poisson_field_many, field_from_chain(t, params)),
    ]
    for sampler in samplers:
        for seed in (-1, 2**64, 2**64 + 3, 1.0, "3", True, None):
            with pytest.raises(DomainError, match="seed"):
                sampler(10, seed)
        for n_draws in (-1, -(2**70), 2.0, "10", True, None):
            with pytest.raises(DomainError, match="n_draws"):
                sampler(n_draws, 0)
        assert sampler(5, 2**64 - 1).shape == (5,)
        assert sampler(5, np.uint64(2**64 - 1)).tolist() == sampler(5, 2**64 - 1).tolist()
        assert sampler(0, 0).shape == (0,)


def test_closure_on_a_small_representable_chain():
    t = path(3)
    params = uniform_params(t, F(1, 2), F(1, 2))
    field = partial(sample_poisson_field_many, field_from_chain(t, params))
    report = poisson_closure_report(t, params, drawn_counts(field, t.n, 120_000, 2024))
    assert report.checked == 7
    assert report.passed, report
    assert report.max_sigmas <= 4.0


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "tree", [path(4), octopus(3, 1), spider(3, 2), path(8)], ids=["path4", "oct3x1", "spi3x2", "path8"]
)
def test_closure_matches_the_per_mask_loop(tree, seed):
    params = uniform_params(tree, F(1, 2), F(1, 2))
    field = field_from_chain(tree, params)
    counts = drawn_counts(partial(sample_poisson_field_many, field), tree.n, 20_000, seed)
    report = poisson_closure_report(tree, params, counts)
    assert report == loop_closure_report(tree, params, field, 20_000, seed)
    assert report.worst_set is not None


def test_closure_matches_the_per_mask_oracle_on_heterogeneous_chains():
    # the exact side is one table sweep, the oracle's one prob_all_zero call
    # per mask; every float must agree. Half the samples come from the chain
    # itself, half from another law, which puts gaps where the exact
    # probability is 0 or 1
    rng = random.Random(11)
    sigmas = []
    for trial in range(40):
        t = random_tree(rng, 1 + trial % 10)
        params = mixed_params(rng, t)
        law = params if trial % 2 else uniform_params(t, F(1, 2), F(1, 2))
        counts = drawn_counts(partial(sample_recursive_many, t, law), t.n, 500, trial)
        report = poisson_closure_report(t, params, counts)
        assert report == counts_closure_report(t, params, counts), trial
        sigmas.append(report.max_sigmas)
    assert math.inf in sigmas and any(0 < s < math.inf for s in sigmas)


def test_closure_at_r_one_has_no_deviation():
    # every vertex is 0 with probability 1 and the field has no atom
    t = path(4)
    params = uniform_params(t, F(1), F(1, 2))
    field = field_from_chain(t, params)
    counts = drawn_counts(partial(sample_poisson_field_many, field), t.n, 1000, 0)
    report = poisson_closure_report(t, params, counts)
    assert report == loop_closure_report(t, params, field, 1000, seed=0)
    assert report.max_sigmas == 0.0 and report.worst_set is None and report.passed


def test_closure_against_another_chains_field_is_infinitely_far():
    # at r = 1 every exact probability is 1 (sigma 0); the r = 1/2 field's
    # draws are not all zero, so the first gap is infinitely many sigmas
    t = path(4)
    params = uniform_params(t, F(1), F(1, 2))
    field = field_from_chain(t, uniform_params(t, F(1, 2), F(1, 2)))
    counts = drawn_counts(partial(sample_poisson_field_many, field), t.n, 1000, 0)
    report = poisson_closure_report(t, params, counts)
    assert report == loop_closure_report(t, params, field, 1000, seed=0)
    assert report.max_sigmas == math.inf and report.passed is False
    assert report.worst_set == VertexSet.of(0)


def test_closure_refuses_fewer_than_one_draw_before_sampling(monkeypatch):
    t = path(3)
    params = uniform_params(t, F(1, 2), F(1, 2))
    monkeypatch.setattr(mc_verify, "prob_all_zero_table", None)  # not to be called
    with pytest.raises(DomainError, match="a sample needs at least one draw, got 0"):
        poisson_closure_report(t, params, np.zeros(8, dtype=np.int64))
    for counts in (np.zeros(4, dtype=np.int64), np.full(8, -1), np.full(8, 0.5), [[1] * 8]):
        with pytest.raises(DomainError, match="pattern counts over 3 vertices"):
            poisson_closure_report(t, params, counts)


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan])
def test_closure_refuses_a_tolerance_below_zero_before_sampling(monkeypatch, tolerance):
    t = path(3)
    params = uniform_params(t, F(1, 2), F(1, 2))
    counts = drawn_counts(partial(sample_poisson_field_many, field_from_chain(t, params)), t.n,
                          1000, 0)
    monkeypatch.setattr(mc_verify, "prob_all_zero_table", None)  # not to be called
    with pytest.raises(DomainError, match="tolerance must be >= 0"):
        poisson_closure_report(t, params, counts, tolerance=tolerance)


def test_comparison_refuses_fewer_than_one_draw_before_sampling():
    empty = np.zeros(8, dtype=np.int64)
    with pytest.raises(DomainError, match="a sample needs at least one draw, got 0"):
        compare_laws(empty, empty, 3)
    one = np.eye(8, dtype=np.int64)[0]
    with pytest.raises(DomainError, match="the samples hold 1 and 2 draws"):
        compare_laws(one, 2 * one, 3)
    for counts in (np.ones(4, dtype=np.int64), np.full(8, -1), np.full(8, 0.5)):
        with pytest.raises(DomainError, match="pattern counts over 3 vertices"):
            compare_laws(counts, counts, 3)


def _pooling_cases():
    """Pattern-count pairs over n vertices that exercise chi-square pooling."""
    rng = np.random.default_rng(2024)
    for n in range(1, 15):
        for draws in (1, 7, 60, 900, 30_000):
            # skewed laws leave many small and empty cells to pool
            law = rng.dirichlet(np.full(1 << n, 0.3))
            yield n, rng.multinomial(draws, law), rng.multinomial(draws, law)
    for n, k in ((3, 1), (6, 2), (9, 4), (12, 1)):  # every pooled count ties
        yield n, np.full(1 << n, k), np.full(1 << n, k)
    sparse = np.zeros(1 << 10, dtype=np.int64)
    sparse[[3, 77, 512, 1000]] = [40, 3, 1, 50]
    yield 10, sparse, sparse[::-1].copy()
    one = np.zeros(1 << 5, dtype=np.int64)
    one[9] = 100
    yield 5, one, one  # a single observed pattern
    yield 4, np.eye(16, dtype=np.int64)[2], np.eye(16, dtype=np.int64)[5]  # too few draws
    yield 4, np.eye(16, dtype=np.int64)[2], 2 * np.eye(16, dtype=np.int64)[5]  # unequal totals
    yield 3, np.zeros(8, dtype=np.int64), np.ones(8, dtype=np.int64)  # no draw


def _outcome(compare, counts_a, counts_b, n):
    try:
        return compare(counts_a, counts_b, n)
    except DomainError as exc:
        return str(exc)


def test_heap_pooling_matches_the_sorted_list_oracle():
    outcomes = set()
    for n, counts_a, counts_b in _pooling_cases():
        got = _outcome(compare_laws, counts_a, counts_b, n)
        want = _outcome(sorted_list_compare_laws, counts_a, counts_b, n)
        # == on the report compares its floats bit for bit
        assert got == want, (n, got, want)
        outcomes.add(type(got).__name__ if isinstance(got, ComparisonReport) else got[:20])
    assert outcomes == {"ComparisonReport", "not enough draws: po", "every draw of both s",
                        "the samples hold 1 a", "a sample needs at le"}


def test_comparison_refuses_an_order_no_array_can_hold():
    counts = np.ones(8, dtype=np.int64)
    for n in (0, -1):
        with pytest.raises(DomainError, match="pattern chi-square needs n >= 1"):
            compare_laws(counts, counts, n)
    with pytest.raises(DomainError, match="pattern counts over 10000000000000 vertices"):
        compare_laws(counts, counts, 10**13)  # refused before 1 << n is built


def test_chain_samplers_agree():
    t = star(3)
    params = uniform_params(t, F(1, 2), F(1, 2))
    report = compare_samplers(
        partial(sample_recursive_many, t, params),
        partial(sample_percolation_many, t, params),
        t.n, n_draws=120_000, seed=99,
    )
    assert report.passed and report.dof >= 1
    assert report.cells == 16  # no pooling needed at this draw count


def test_field_agrees_with_the_chain_sampler():
    t = path(4)
    params = uniform_params(t, F(1, 2), F(1, 2))
    field = field_from_chain(t, params)
    report = compare_samplers(
        partial(sample_poisson_field_many, field),
        partial(sample_recursive_many, t, params),
        t.n, n_draws=120_000, seed=7,
    )
    assert report.passed, report


def test_different_laws_are_detected():
    t = path(3)
    a = uniform_params(t, F(1, 2), F(1, 2))
    b = uniform_params(t, F(3, 5), F(1, 2))
    report = compare_samplers(
        partial(sample_recursive_many, t, a),
        partial(sample_recursive_many, t, b),
        t.n, n_draws=50_000, seed=5,
    )
    assert not report.passed
    assert report.p_value < 1e-6


# 2^12 - 1: the most degrees of freedom a 12-vertex comparison can produce
_TAIL_DOFS = list(range(1, 41)) + [41, 63, 64, 100, 127, 128, 255, 256, 511, 1000, 2047, 3001, 4095]


def test_chi2_tail_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for dof in _TAIL_DOFS:
        xs = np.linspace(0.2 * dof, 3 * dof, 57)
        want = special.chdtrc(dof, xs)
        got = np.array([mc_verify._chi2_tail(dof, float(x)) for x in xs])
        kept = want > 1e-300
        assert kept[0]
        np.testing.assert_allclose(got[kept], want[kept], rtol=1e-11, atol=0, err_msg="dof %d" % dof)


def test_chi2_tail_matches_scipy_up_to_sixteen_vertices():
    # up to 2^16 - 1, the most degrees of freedom a 16-vertex comparison can produce
    special = pytest.importorskip("scipy.special")
    for dof in (4096, 8191, 16383, 32767, 32768, 65535):
        xs = np.concatenate([np.linspace(0.2 * dof, 3 * dof, 57),
                             np.linspace(0.9 * dof, 1.1 * dof, 41)])
        want = special.chdtrc(dof, xs)
        got = np.array([mc_verify._chi2_tail(dof, float(x)) for x in xs])
        kept = want > 1e-300
        np.testing.assert_allclose(got[kept], want[kept], rtol=2e-10, atol=0, err_msg="dof %d" % dof)


def test_chi2_tail_is_a_falling_probability():
    tail = mc_verify._chi2_tail
    for dof in _TAIL_DOFS:
        assert tail(dof, 0.0) == 1.0
        values = [tail(dof, float(x)) for x in np.linspace(0, 3 * dof, 400)]
        assert all(0.0 <= value <= 1.0 for value in values), dof
        assert all(b <= a for a, b in zip(values, values[1:])), dof
    for x in [0.0, 1e-9, 0.3, 1.0, 2.0, 7.5, 40.0, 300.0, 1500.0]:
        assert tail(1, x) == math.erfc(math.sqrt(x / 2))
        assert tail(2, x) == math.exp(-x / 2)


def test_pooling_merges_rare_patterns():
    t = star(3)
    params = uniform_params(t, F(1, 12), F(1, 12))  # rare-corner law
    report = compare_samplers(
        partial(sample_recursive_many, t, params),
        partial(sample_percolation_many, t, params),
        t.n, n_draws=800, seed=31,
    )
    assert report.passed
    assert report.cells < 16


def test_pooling_gives_up_without_enough_draws():
    constant = lambda n_draws, seed: np.zeros(n_draws, dtype=np.uint64)
    with pytest.raises(ValueError):
        compare_samplers(constant, constant, 2, n_draws=1000, seed=1)
    t = path(2)
    params = uniform_params(t, F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        compare_samplers(partial(sample_recursive_many, t, params),
                     partial(sample_recursive_many, t, params),
                     t.n, n_draws=4, seed=1)


def test_one_observed_pattern_is_not_a_shortage_of_draws():
    # no number of draws gives a chi-square a second cell here
    t = path(3)
    certain = partial(sample_recursive_many, t, uniform_params(t, F(1), F(1, 2)))
    with pytest.raises(DomainError, match=r"pattern with ones on VertexSet\(\{\}\): "
                       "a chi-square comparison needs two observed patterns"):
        compare_samplers(certain, certain, t.n, n_draws=200_000, seed=1)
    ones = lambda n_draws, seed: np.full(n_draws, 3, dtype=np.uint64)
    with pytest.raises(DomainError, match=r"ones on VertexSet\(\{0, 1\}\)"):
        compare_samplers(ones, ones, 2, n_draws=1000)
    # a sparse sample that a larger one would mend keeps its own message
    t = path(2)
    params = uniform_params(t, F(1, 2), F(1, 2))
    with pytest.raises(DomainError, match="not enough draws"):
        compare_samplers(partial(sample_recursive_many, t, params),
                     partial(sample_recursive_many, t, params),
                     t.n, n_draws=4, seed=1)


def test_comparison_input_validation():
    t = path(2)
    params = uniform_params(t, F(1, 2), F(1, 2))
    sampler = partial(sample_recursive_many, t, params)
    with pytest.raises(ValueError):
        compare_samplers(sampler, sampler, t.n, n_draws=1000, alpha=0)
    wide = lambda n_draws, seed: np.full(n_draws, 4, dtype=np.uint64)
    with pytest.raises(ValueError):
        compare_samplers(wide, wide, 2, n_draws=1000)


def test_self_comparison_calibrates_at_one_percent():
    t = star(3)
    params = uniform_params(t, F(1, 2), F(1, 2))
    sampler = partial(sample_recursive_many, t, params)
    passes = 0
    for k in range(50):
        report = compare_samplers(sampler, sampler, t.n, n_draws=20_000, seed=11000 + 2 * k)
        passes += report.passed
    assert passes >= 49
