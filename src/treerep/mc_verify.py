"""Monte-Carlo closure: sample the union-of-atoms field, compare laws.

A nonnegative measure turns into a Poisson field: every subset with
positive mass is an atom, atom counts are independent Poisson draws
with the measure's log-values as intensities, and the output indicator
marks vertices covered by at least one atom with a positive count.
The sampler draws each atom's arrivals over all draws at once and
scatters them, so its work follows the field's total intensity, not
its number of atoms.  Sampling that field and comparing zero-pattern
frequencies against the chain's exact probabilities closes the loop
numerically; a two-sample chi-square confirms that two samplers
simulate the same law; its tail is a closed form in the standard
library (:func:`_chi2_tail`), accurate to about 1e-10 relative.
Both checks read samples already reduced to pattern counts
(:func:`_pattern_histogram`), so one sample can serve several checks:
``treerep verify`` draws each of its three samplers once.

Intensities are double-precision floats (the exact engine guarantees
them to ~1e-12 relative); Monte-Carlo tolerances dwarf that.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# prob_all_zero is unused here; perfbench/tracing.py binds it, and stops on a missing binding
from .chain_model import _blocks, _rng, prob_all_zero, prob_all_zero_table, scaled_params
from .signed_measure import SignedMeasure, nu_full
from .tree_core import DomainError, VertexSet, _nonnegative


@dataclass(frozen=True)
class PoissonField:
    """Atoms of a nonnegative measure, ready for Poisson sampling.

    ``atoms`` holds ``(VertexSet, intensity)`` pairs sorted by bitmask;
    zero-mass subsets are dropped at construction.
    """

    atoms: tuple


def poisson_field(measure: SignedMeasure) -> PoissonField:
    """Validate nonnegativity and collect the positive atoms."""
    atoms = []
    for bits in measure:
        value = measure.value(bits)
        if value.sign < 0:
            raise DomainError(
                "negative intensity on %r: not a Poisson field" % VertexSet(bits)
            )
        if value.sign > 0:
            atoms.append((VertexSet(bits), value.log_value))
    return PoissonField(atoms=tuple(atoms))


def field_from_chain(tree, params) -> PoissonField:
    """Poisson field of a representable chain (raises if any mass is negative)."""
    return poisson_field(nu_full(tree, params))


def sample_poisson_field_many(field: PoissonField, n_draws, seed) -> np.ndarray:
    """Packed bitmask words of ``n_draws`` independent field samples.

    A draw switches on the vertices of every atom whose Poisson count
    in that draw is >= 1.  All draws of one atom K are taken at once:
    one count C_K ~ Poisson(lambda_K * n_draws) of arrivals, each placed
    at a uniform draw index.  By Poisson splitting the counts the draws
    receive are i.i.d. Poisson(lambda_K), independent across atoms, so
    this is the field's law, for about n_draws * Lambda integer draws
    in all, where Lambda = sum of lambda_K = -log P(X = 0 everywhere).
    Arrivals are placed a block of :data:`~treerep.chain_model._BLOCK`
    = 2^14 at a time, so only the output grows with ``n_draws``;
    ``Generator.integers`` reads its stream the same way however a count
    is split, so the words do not depend on the block size.  Randomness
    is consumed atom by atom in bitmask order, so output is reproducible
    per seed.  A seed outside [0, 2^64) or a negative draw count is a
    :class:`DomainError`.
    """
    n_draws = _nonnegative(n_draws, "n_draws")
    rng = _rng(seed)
    words = np.zeros(n_draws, dtype=np.uint64)
    for atom, intensity in field.atoms:
        bits = np.uint64(atom.bits)
        arrivals = int(rng.poisson(intensity * n_draws))
        for lo, hi in _blocks(arrivals):
            words[rng.integers(0, n_draws, hi - lo)] |= bits
    return words


def _draws_of(counts, n):
    """Number of draws in a sample's pattern counts over ``n`` vertices.

    The counts are 2^n nonnegative integers, entry x the draws of
    pattern x, as :func:`_pattern_histogram` gives them; anything else,
    or a sample of no draw, is a :class:`DomainError`:
    :func:`compare_laws` and :func:`poisson_closure_report` divide by
    the draw count.
    """
    counts = np.asarray(counts)
    # no array holds 2^63 entries, so a larger n is refused before 1 << n is built
    shape_ok = n < 63 and counts.shape == (1 << n,)
    if not shape_ok or counts.dtype.kind not in "iu" or (counts < 0).any():
        raise DomainError("pattern counts over %d vertices are 2^%d nonnegative integers" % (n, n))
    draws = int(counts.sum())
    if draws < 1:
        raise DomainError("a sample needs at least one draw, got %d" % draws)
    return draws


def _check_alpha(alpha):
    """A chi-square level outside (0, 1) is a :class:`DomainError`."""
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")


def _check_tolerance(tolerance):
    """A closure tolerance that is not >= 0, NaN included, is a :class:`DomainError`."""
    if not tolerance >= 0:
        raise DomainError("tolerance must be >= 0, got %r" % (tolerance,))


def _pattern_histogram(words, n):
    """Draws per pattern of ``n`` vertices, counted a block of draws at a
    time: ``np.bincount`` wants int64, and a block's copy stays small."""
    if len(words) and int(words.max()) >> n:
        raise ValueError("sampler produced a pattern outside %d vertices" % n)
    hist = np.zeros(1 << n, dtype=np.int64)
    for lo, hi in _blocks(len(words)):
        hist += np.bincount(words[lo:hi].astype(np.int64), minlength=1 << n)
    return hist


def _chi2_tail(dof, statistic):
    """P(chi-square with ``dof`` >= 1 integer degrees of freedom >= ``statistic``).

    With y = statistic / 2 and t(b) = y^b e^-y / Gamma(b + 1), the tail
    Q is erfc(sqrt(y)) for odd dof plus t(b) over b = dof/2 - 1,
    dof/2 - 2, ... >= 0, and 1 - Q is t(b) over b = dof/2, dof/2 + 1, ....
    Each sum starts at its largest term, taken through logarithms, and
    steps away from it by the ratio t(b + 1) / t(b) = y / (b + 1).
    Below the mean (y < dof/2, dof >= 3) Q is 1 minus the second sum, so
    a value near 1 carries no rounding of many terms, which could make
    it rise by an ulp as the statistic grows.  Accurate to about 1e-11
    relative at dof <= 4095 and 1e-10 at dof <= 65535, the most that 16
    vertices give: the largest term's exponent carries rounding that
    grows with dof.
    """
    y = statistic / 2
    if y <= 0:
        return 1.0
    lower = dof > 2 and y < dof / 2
    b = dof / 2 if lower else dof / 2 - 1
    term = math.exp(b * math.log(y) - y - math.lgamma(b + 1))
    if lower:
        below = 0.0
        while term > below * 1e-17:
            below += term
            b += 1
            term *= y / b
        return 1.0 - below
    tail = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    while b >= 0:
        tail += term
        term *= b / y
        b -= 1
    return tail


@dataclass(frozen=True)
class ComparisonReport:
    """Two-sample chi-square over (pooled) zero/one pattern cells."""

    statistic: float
    dof: int
    p_value: float
    alpha: float
    cells: int
    draws: int
    passed: bool


def compare_laws(counts_a, counts_b, n, alpha=0.01):
    """Chi-square homogeneity test between two drawn samples.

    ``counts_a`` and ``counts_b`` are the samples' pattern counts over
    the same ``n >= 1`` vertices (see :func:`_pattern_histogram`), with
    equally many draws, at least one, so each sample expects half of a
    cell's pooled count.  Cells start as all 2^n patterns and the two
    smallest cells (ties by pattern id) are merged, through a heap,
    until every expected count reaches 5, the standard validity
    threshold.  The p-value is :func:`_chi2_tail` of the statistic, a
    closed form accurate to about 1e-10 relative.  Fails loudly if
    pooling cannot get there, or if both samples fall on one pattern,
    which no number of draws mends.
    """
    if n < 1:
        raise DomainError("pattern chi-square needs n >= 1")
    _check_alpha(alpha)
    total_a = _draws_of(counts_a, n)
    total_b = _draws_of(counts_b, n)
    if total_a != total_b:
        raise DomainError("the samples hold %d and %d draws: a comparison needs "
                          "equally many" % (total_a, total_b))
    hist_a = np.asarray(counts_a)
    hist_b = np.asarray(counts_b)
    pooled = hist_a + hist_b
    seen = np.flatnonzero(pooled)
    if len(seen) == 1:
        raise DomainError(
            "every draw of both samples is the pattern with ones on %r: "
            "a chi-square comparison needs two observed patterns" % VertexSet(int(seen[0]))
        )

    # each cell: [pooled count, tie-break key, count_a, count_b]; keys stay
    # unique, so the heap pops cells in the order of a sorted list
    cells = [list(c) for c in zip(pooled.tolist(), range(1 << n), hist_a.tolist(), hist_b.tolist())]
    heapq.heapify(cells)
    while len(cells) > 1 and cells[0][0] < 10:  # an expected count pooled / 2 below 5
        lo = heapq.heappop(cells)
        hi = heapq.heappop(cells)
        heapq.heappush(cells, [lo[0] + hi[0], min(lo[1], hi[1]), lo[2] + hi[2], lo[3] + hi[3]])
    if len(cells) < 2 or cells[0][0] < 10:
        raise DomainError("not enough draws: pooling cannot reach expected counts of 5")

    statistic = 0.0
    for size, _, count_a, count_b in sorted(cells):
        expect = size / 2
        statistic += (count_a - expect) ** 2 / expect
        statistic += (count_b - expect) ** 2 / expect
    dof = len(cells) - 1
    p_value = _chi2_tail(dof, statistic)
    return ComparisonReport(
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        alpha=alpha,
        cells=len(cells),
        draws=total_a,
        passed=p_value >= alpha,
    )


@dataclass(frozen=True)
class ClosureReport:
    """Worst deviation between field frequencies and exact probabilities.

    Every nonempty vertex set I is checked: the fraction of field draws
    vanishing on I against the chain's exact P(all zero on I), in units
    of the binomial standard deviation at the given draw count.
    """

    draws: int
    checked: int
    max_sigmas: float
    worst_set: Optional[VertexSet]
    tolerance: float
    passed: bool


def poisson_closure_report(tree, params, counts, tolerance=4.0):
    """Compare a field sample's zero patterns with the chain's exact law.

    ``counts`` are the pattern counts of draws from the chain's Poisson
    field (see :func:`_pattern_histogram`), at least one draw.  Works on
    arrays over the 2^n masks: a copy of the counts is summed over
    submasks one vertex at a time, so entry m counts the draws inside
    m, and the draws all-zero on I are those inside its complement.
    The exact side is one ``prob_all_zero_table`` sweep over all masks.
    A gap where the exact probability is 0 or 1 counts as infinitely
    many sigmas; the worst set is the first mask with the largest
    deviation, and None when every deviation is 0.  ``tolerance``
    bounds the largest of the 2^n - 1 correlated deviations, with no
    allowance for their number: over seeds 0-19 of ``treerep verify``,
    a correct field's worst read 3.43 sigmas at 12 vertices and 3.65 at
    16.  Counts of no draw and a ``tolerance`` that is not >= 0 (NaN
    included) are :class:`DomainError`, raised before any exact
    probability is computed.
    """
    n_draws = _draws_of(counts, tree.n)
    _check_tolerance(tolerance)
    inside = np.array(counts, dtype=np.int64)
    for b in range(tree.n):
        level = inside.reshape(-1, 2, 1 << b)
        level[:, 1] += level[:, 0]
    zeros = inside[::-1][1:]  # entry I - 1 is inside[full ^ I], for I = 1 .. full
    weights = scaled_params(tree, params)
    # int / int is correctly rounded, so each is float() of the exact Fraction
    exact = np.array([z / weights.one for z in prob_all_zero_table(tree, weights)[1:]])
    sigma = np.sqrt(exact * (1.0 - exact) / n_draws)
    gap = np.abs(zeros / n_draws - exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(gap == 0, 0.0, gap / sigma)  # a gap at sigma = 0 is inf
    k = int(np.argmax(sigmas))  # the first of the largest
    worst = float(sigmas[k])
    return ClosureReport(
        draws=n_draws,
        checked=len(sigmas),
        max_sigmas=worst,
        worst_set=VertexSet(k + 1) if worst > 0 else None,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
