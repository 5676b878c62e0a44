"""Independent oracles that the tests check the engine against."""

import bisect
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from treerep.chain_model import (
    Weights,
    as_fraction,
    prob_all_zero,
    scaled_params,
    uniform_params,
)
from treerep.mc_verify import (
    ClosureReport,
    ComparisonReport,
    _chi2_tail,
    _pattern_histogram,
    compare_laws,
    sample_poisson_field_many,
)
from treerep.signed_measure import (
    MeasureValue,
    connected_log_events,
    nu_full,
    restrict_measure,
    signed_products,
)
from treerep.thresholds import f_poly
from treerep.tree_core import DomainError, VertexSet, is_connected, spanning_subtree, subdivide


def neighbors(tree):
    """Each vertex's neighbours in ascending order, read off ``tree.edges``."""
    nbr = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    return [sorted(x) for x in nbr]


def depths(tree):
    """Each vertex's distance from the root, by climbing ``tree.parent``."""
    out = []
    for v in range(tree.n):
        steps = 0
        while tree.parent[v] >= 0:
            v = tree.parent[v]
            steps += 1
        out.append(steps)
    return out


def brute_force_prob_all_zero(tree, params, zero_on, max_edges=20):
    """Independent oracle for ``chain_model.prob_all_zero`` via percolation.

    Enumerates all 2^|E| cut patterns, splits the tree into components,
    and gives each component the fresh draw of its vertex closest to the
    root.  Exponential in the edge count; refuse above ``max_edges``.
    """
    m = len(tree.edges)
    if m > max_edges:
        raise DomainError("brute force capped at %d edges" % max_edges)
    a = zero_on.bits
    if a >> tree.n:
        raise DomainError("zero_on contains ids outside the tree")
    if a == 0:
        return Fraction(1)

    depth = depths(tree)
    total = Fraction(0)
    for config in range(1 << m):
        weight = Fraction(1)
        comp = list(range(tree.n))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for i, (u, v) in enumerate(tree.edges):
            if (config >> i) & 1:
                weight *= params.p[i]
            else:
                weight *= 1 - params.p[i]
                ru, rv = find(u), find(v)
                if ru != rv:
                    comp[ru] = rv
        top = {}
        for v in range(tree.n):
            c = find(v)
            if c not in top or depth[v] < depth[top[c]]:
                top[c] = v
        for c in {find(v) for v in zero_on}:
            weight *= params.r[top[c]]
        total += weight
    return total


def ring_weights(tree, params):
    """Weights that are the probabilities themselves: ``rbar = 1 - r``, ``copy = 1 - p``.

    Entries of ``params`` may be Fractions or jet values; a
    ``prob_all_zero`` sweep on these weights then returns probabilities
    of the same kind, with no common factor to divide out.
    """
    p = tuple(None if e < 0 else params.p[e] for e in tree.parent_edge)
    return Weights(
        r=params.r,
        rbar=tuple(1 - x for x in params.r),
        p=p,
        copy=tuple(None if x is None else 1 - x for x in p),
        one=Fraction(1),
    )


def where_prob_all_zero_many(tree, weights, masks):
    """Reference for ``chain_model.prob_all_zero_many``: the float sweep
    that zeroes each constrained vertex with ``np.where`` rather than a
    0.0/1.0 factor, on the same ``float_weights``.
    """
    r, rbar, p, copy = weights.r, weights.rbar, weights.p, weights.copy
    zero = (masks >> np.arange(tree.n)[:, None]) & 1 == 1
    f0 = [None] * tree.n
    f1 = [None] * tree.n
    for v in reversed(tree.preorder):
        m0 = m1 = 1.0
        for c in tree.children[v]:
            mix = p[c] * (r[c] * f0[c] + rbar[c] * f1[c])
            m0 = m0 * (copy[c] * f0[c] + mix)
            m1 = m1 * (copy[c] * f1[c] + mix)
        f0[v] = m0
        f1[v] = np.where(zero[v], 0.0, m1)
    ro = tree.root
    return r[ro] * f0[ro] + rbar[ro] * f1[ro]


def philox_coins(seed, slot, q, size):
    """Reference for ``chain_model._coins``, in Python ints.

    Reads the raw words of the Philox stream with key ``seed`` and
    counter ``slot * 2^192`` itself, splits each into its low and then
    its high 32 bits, and calls a half h True when h < floor(q * 2^32),
    with the floor taken on the exact Fraction.  It reads the stream for
    q = 0 and q = 1 too.
    """
    raw = np.random.Philox(key=seed, counter=slot << 192).random_raw((size + 1) // 2)
    halves = []
    for word in raw.tolist():
        halves += [word & 0xFFFFFFFF, word >> 32]
    threshold = math.floor(Fraction(q) * 2**32)
    return np.array([h < threshold for h in halves[:size]], dtype=bool)


def recursive_coins(tree, params, n_draws, seed):
    """The coins of ``chain_model.sample_recursive_many``, from :func:`philox_coins`.

    Returns ``(resample, fresh)``, each a list indexed by vertex:
    ``fresh[v]`` is True where v's fresh draw is 1, and ``resample[v]``
    (None at the root) where the edge above v resamples.  Slot 0 is the
    root's fresh draw; the k-th non-root vertex in preorder reads slots
    2k - 1 (resample) and 2k (fresh).
    """
    resample = [None] * tree.n
    fresh = [None] * tree.n
    fresh[tree.root] = ~philox_coins(seed, 0, params.r[tree.root], n_draws)
    for k, v in enumerate(tree.preorder[1:], 1):
        resample[v] = philox_coins(seed, 2 * k - 1, params.p[tree.parent_edge[v]], n_draws)
        fresh[v] = ~philox_coins(seed, 2 * k, params.r[v], n_draws)
    return resample, fresh


def percolation_coins(tree, params, n_draws, seed):
    """The coins of ``chain_model.sample_percolation_many``, from :func:`philox_coins`.

    Returns ``(cut, fresh)`` as :func:`recursive_coins` does: the cut above
    the k-th non-root vertex in preorder reads slot k - 1, and the fresh
    draw of vertex v slot n - 1 + v.
    """
    cut = [None] * tree.n
    for k, v in enumerate(tree.preorder[1:]):
        cut[v] = philox_coins(seed, k, params.p[tree.parent_edge[v]], n_draws)
    fresh = [~philox_coins(seed, tree.n - 1 + v, params.r[v], n_draws) for v in range(tree.n)]
    return cut, fresh


def where_walk(tree, resample, fresh):
    """Reference for the recursive sampler's walk: ``np.where`` per vertex,
    a resampled vertex taking its fresh draw and any other its parent's value.
    """
    x = np.zeros((tree.n, len(fresh[0])), dtype=bool)
    for v in tree.preorder:
        if v == tree.root:
            x[v] = fresh[v]
        else:
            x[v] = np.where(resample[v], fresh[v], x[tree.parent[v]])
    return x


def gather_colour(tree, cut, fresh):
    """Reference for the colouring of ``chain_model.sample_percolation_many``:
    int64 component labels and a 2-D gather ``fresh[top[v], cols]``.
    """
    n_draws = len(fresh[0])
    fresh = np.array(fresh)
    top = np.zeros((tree.n, n_draws), dtype=np.int64)
    top[tree.root] = tree.root
    for v in tree.preorder[1:]:
        top[v] = np.where(cut[v], v, top[tree.parent[v]])
    cols = np.arange(n_draws)
    x = np.zeros((tree.n, n_draws), dtype=bool)
    for v in range(tree.n):
        x[v] = fresh[top[v], cols]
    return x


def pack64(x):
    """Reference for ``chain_model._pack``: the same bits in uint64 words."""
    words = np.zeros(x.shape[1], dtype=np.uint64)
    for v in range(x.shape[0]):
        words |= x[v].astype(np.uint64) << np.uint64(v)
    return words


def bernoulli_field_sampler(atoms):
    """Reference sampler for ``mc_verify.sample_poisson_field_many``.

    ``atoms`` holds ``(VertexSet, intensity)`` pairs.  Each draw switches
    on an atom's vertices with probability ``1 - exp(-intensity)``, the
    chance that its Poisson count is >= 1, independently per atom and
    draw.  Returns a callable ``(n_draws, seed) -> packed uint64 words``.
    """

    def sample(n_draws, seed):
        rng = np.random.default_rng(seed)
        words = np.zeros(n_draws, dtype=np.uint64)
        for atom, intensity in atoms:
            hit = rng.random(n_draws) < -math.expm1(-intensity)
            words[hit] |= np.uint64(atom.bits)
        return words

    return sample


def drawn_counts(sampler, n, n_draws, seed):
    """Pattern counts over ``n`` vertices of ``sampler(n_draws, seed)``."""
    return _pattern_histogram(sampler(n_draws, seed), n)


def compare_samplers(sampler_a, sampler_b, n, n_draws, seed=0, alpha=0.01):
    """``compare_laws`` on ``sampler_a``'s draws at ``seed`` and
    ``sampler_b``'s at ``seed + 1``."""
    return compare_laws(
        drawn_counts(sampler_a, n, n_draws, seed),
        drawn_counts(sampler_b, n, n_draws, seed + 1),
        n,
        alpha=alpha,
    )


def sorted_list_compare_laws(counts_a, counts_b, n, alpha=0.01):
    """Reference for ``mc_verify.compare_laws``: a sorted list of cells.

    Pops the two smallest cells off the front of the list and inserts
    their merge with ``bisect.insort``, and weighs each cell by the
    samples' shares of the grand total, refusing what the engine refuses
    with the same messages.  Quadratic in the 2^n cells.
    """
    if n < 1:
        raise DomainError("pattern chi-square needs n >= 1")
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    hist_a = np.asarray(counts_a)
    hist_b = np.asarray(counts_b)
    for hist in (hist_a, hist_b):
        if hist.shape != (1 << n,) or hist.dtype.kind not in "iu" or (hist < 0).any():
            raise DomainError("pattern counts over %d vertices are 2^%d nonnegative integers"
                              % (n, n))
        if hist.sum() < 1:
            raise DomainError("a sample needs at least one draw, got 0")
    total_a, total_b = int(hist_a.sum()), int(hist_b.sum())
    if total_a != total_b:
        raise DomainError("the samples hold %d and %d draws: a comparison needs "
                          "equally many" % (total_a, total_b))
    share = min(total_a, total_b) / (total_a + total_b)
    seen = np.flatnonzero(hist_a + hist_b)
    if len(seen) == 1:
        raise DomainError(
            "every draw of both samples is the pattern with ones on %r: "
            "a chi-square comparison needs two observed patterns" % VertexSet(int(seen[0]))
        )
    cells = sorted(
        [int(hist_a[i] + hist_b[i]), i, int(hist_a[i]), int(hist_b[i])] for i in range(1 << n)
    )
    while len(cells) > 1 and cells[0][0] * share < 5:
        lo = cells.pop(0)
        hi = cells.pop(0)
        bisect.insort(cells, [lo[0] + hi[0], min(lo[1], hi[1]), lo[2] + hi[2], lo[3] + hi[3]])
    if len(cells) < 2 or cells[0][0] * share < 5:
        raise DomainError("not enough draws: pooling cannot reach expected counts of 5")
    statistic = 0.0
    grand = total_a + total_b
    for pooled, _, count_a, count_b in cells:
        expect_a = total_a * pooled / grand
        expect_b = total_b * pooled / grand
        statistic += (count_a - expect_a) ** 2 / expect_a
        statistic += (count_b - expect_b) ** 2 / expect_b
    p_value = _chi2_tail(len(cells) - 1, statistic)
    return ComparisonReport(
        statistic=statistic,
        dof=len(cells) - 1,
        p_value=p_value,
        alpha=alpha,
        cells=len(cells),
        draws=total_a,
        passed=p_value >= alpha,
    )


def loop_closure_report(tree, params, field, n_draws, seed, tolerance=4.0):
    """Reference for ``mc_verify.poisson_closure_report``: one mask at a time.

    Takes the same field draws and counts the draws all-zero on each
    nonempty set I straight from the words.
    """
    words = sample_poisson_field_many(field, n_draws, seed)
    return _mask_closure_report(
        tree, params, lambda bits: int(np.count_nonzero(words & np.uint64(bits) == 0)),
        n_draws, tolerance,
    )


def counts_closure_report(tree, params, counts, tolerance=4.0):
    """Reference for ``mc_verify.poisson_closure_report`` on pattern counts.

    The draws all-zero on each nonempty set I are the counts of the
    patterns disjoint from I, summed mask by mask.
    """
    counts = np.asarray(counts)
    patterns = np.arange(len(counts))
    return _mask_closure_report(
        tree, params, lambda bits: int(counts[patterns & bits == 0].sum()),
        int(counts.sum()), tolerance,
    )


def _mask_closure_report(tree, params, zeros_on, n_draws, tolerance):
    """One ``prob_all_zero`` call per nonempty mask, with a running maximum
    of the deviations in sigma units, updated only on a strictly larger
    one, so the worst set is the first mask that reaches the maximum."""
    weights = scaled_params(tree, params)
    worst = 0.0
    worst_set = None
    for bits in range(1, 1 << tree.n):
        exact = prob_all_zero(tree, weights, VertexSet(bits)) / weights.one
        sigma = math.sqrt(exact * (1.0 - exact) / n_draws)
        gap = abs(zeros_on(bits) / n_draws - exact)
        sigmas = gap / sigma if sigma > 0 else (0.0 if gap == 0 else math.inf)
        if sigmas > worst:
            worst = sigmas
            worst_set = VertexSet(bits)
    return ClosureReport(
        draws=n_draws,
        checked=(1 << tree.n) - 1,
        max_sigmas=worst,
        worst_set=worst_set,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def certified_bound(n, lam_size, mag):
    """The error bound B of ``representability.certified_signs``, in Fractions.

    B = N (2 g_K + 8u) + (8u + g_N) mag / (1 - g_N), with N = 2^lam_size,
    K = 10 n, u = 2^-53 and g_m = m u / (1 - m u); ``mag``, the computed
    sum of |l_J|, is low by at most the factor 1 - g_N.
    """
    u = Fraction(1, 2**53)

    def gamma(m):
        return m * u / (1 - m * u)

    count = 2**lam_size
    g_n = gamma(count)
    return count * (2 * gamma(10 * n) + 8 * u) + (8 * u + g_n) * Fraction(mag) / (1 - g_n)


def fraction_nu_full(tree, params):
    """Reference for ``signed_measure.nu_full``: one sweep and one Fraction per mask.

    Entry m starts as ``den * P(X(V\\m) = 0)``, one integer
    ``prob_all_zero`` sweep per mask.  Then, bit by bit, every mask
    containing the bit is divided by the mask without it, in reduced
    Fraction arithmetic.  Returns ``{mask: (num, den)}`` over the
    nonempty masks, in increasing mask order.
    """
    full = (1 << tree.n) - 1
    weights = scaled_params(tree, params)
    table = [
        Fraction(prob_all_zero(tree, weights, VertexSet(full & ~m)))
        for m in range(full + 1)
    ]
    for b in range(tree.n):
        bit = 1 << b
        for m in range(full + 1):
            if m & bit:
                table[m] /= table[m ^ bit]
    return {m: _pair(table[m]) for m in range(1, full + 1)}


def fraction_restrict_measure(measure, keep):
    """Reference for ``signed_measure.restrict_measure``: a Fraction product per set.

    Entry A, for nonempty A inside ``keep``, is the product of the ratios
    of every entry whose trace on ``keep`` is A.  Returns
    ``{mask: (num, den)}``.
    """
    kb = keep.bits
    rest = ((1 << measure.n) - 1) & ~kb
    out = {}
    a = kb
    while a:
        product = Fraction(1)
        c = rest
        while True:
            product *= measure.entries[a | c].ratio
            if c == 0:
                break
            c = (c - 1) & rest
        out[a] = _pair(product)
        a = (a - 1) & kb
    return out


def lattice_scaling_check(tree, r, p, k):
    """Reference for ``representability.scaling_check`` on the full lattice.

    Restricts the subdivided tree's full measure to the original vertices
    and compares it, entry by entry, with the original tree's full measure
    at p' = 1 - (1-p)^k.  Both hold lowest-terms pairs, so equal pairs are
    equal ratios.  Bounded by ``MAX_LATTICE_ORDER`` subdivided vertices.
    """
    big, originals = subdivide(tree, k)
    restricted = restrict_measure(nu_full(big, uniform_params(big, r, p)), originals)
    direct = nu_full(tree, uniform_params(tree, r, 1 - (1 - p) ** k))
    return restricted.entries == direct.entries


def _pair(x):
    value = MeasureValue.from_ratio(x)
    return value.num, value.den


class FractionJet:
    """Truncated multivariate polynomials over the Fractions, a dict of terms.

    The ring :func:`fraction_jet_partial` differentiates in; the engine's
    derivative core shares none of it.  ``terms`` maps exponent tuples to
    Fraction coefficients.  Monomials whose exponent exceeds the
    per-direction ``caps`` are dropped when a product makes them.  Mixes
    with ints and Fractions on either side.
    """

    __slots__ = ("caps", "terms")

    def __init__(self, caps, terms):
        self.caps = tuple(caps)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def constant(cls, caps, value):
        zero = (0,) * len(caps)
        return cls(caps, {zero: as_fraction(value)})

    @classmethod
    def variable(cls, caps, slot, base=0):
        unit = tuple(1 if i == slot else 0 for i in range(len(caps)))
        terms = {(0,) * len(caps): as_fraction(base), unit: Fraction(1)}
        return cls(caps, terms)

    @property
    def constant_term(self):
        return self.terms.get((0,) * len(self.caps), Fraction(0))

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), Fraction(0))

    def _lift(self, other):
        if isinstance(other, FractionJet):
            if other.caps != self.caps:
                raise ValueError("jets from different truncated rings")
            return other
        return FractionJet.constant(self.caps, other)

    def __add__(self, other):
        other = self._lift(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return FractionJet(self.caps, terms)

    __radd__ = __add__

    def __neg__(self):
        return FractionJet(self.caps, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(d > cap for d, cap in zip(e, self.caps)):
                    continue
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return FractionJet(self.caps, out)

    __rmul__ = __mul__

    def log_series(self):
        """``log(self) - log(constant term)`` by the terminating series."""
        c = self.constant_term
        if c <= 0:
            raise DomainError("log needs a positive constant term")
        t = self * (Fraction(1) / c) - 1
        out = FractionJet.constant(self.caps, 0)
        power = t
        k = 1
        while power.terms:
            out = out + power * Fraction((-1) ** (k + 1), k)
            power = power * t
            k += 1
        return out


def fraction_jet_partial(tree, base, subset, field, slots, mults):
    """Reference for ``param_calculus._jet_partial``, without its input checks.

    Plants ``base + eps_i`` in entry ``slots[i]`` of ``base``'s ``field``
    (``"p"`` or ``"r"``), sweeps the probability-valued weights of
    ``ring_weights`` on :class:`FractionJet` coefficients, and reads the
    mixed partial off the log series of nu(S)'s two signed products.
    """
    if not is_connected(tree, subset):
        return Fraction(0)
    values = getattr(base, field)
    jet = list(values)
    for pos, slot in enumerate(slots):
        jet[slot] = FractionJet.variable(mults, pos, values[slot])
    weights = ring_weights(tree, replace(base, **{field: tuple(jet)}))
    even, odd = signed_products(
        connected_log_events(tree, subset),
        lambda bits: prob_all_zero(tree, weights, VertexSet(bits)),
    )
    zero = FractionJet.constant(mults, 0)
    series = (zero + even).log_series() - (zero + odd).log_series()
    return series.coefficient(mults) * math.prod(math.factorial(m) for m in mults)


def stirling_complementary_bell(n):
    """Reference for ``thresholds.complementary_bell``: sum_k (-1)^k S(n, k).

    Builds the Stirling numbers of the second kind row by row from
    S(n, k) = k S(n-1, k) + S(n-1, k-1), the definition the recurrence
    replaced.
    """
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
    return sum((-1) ** k * s for k, s in enumerate(row))


def bounds_checked_eulerian_row(m):
    """Reference for ``thresholds.eulerian_coeffs``: the triangle row with
    every coefficient's neighbours bounds-checked, built up from A_0 = 1."""
    row = (1,)
    for i in range(1, m + 1):
        prev, row = row, []
        for k in range(max(i, 1)):
            a = (k + 1) * prev[k] if k < len(prev) else 0
            b = (i - k) * prev[k - 1] if 0 <= k - 1 < len(prev) else 0
            row.append(a + b)
        row = tuple(row)
    return row


def spanning_subtree_closed_form_p1(tree, subset, r):
    """Reference for ``param_calculus.closed_form_p1`` that reads the
    degrees of the spanning subtree of ``subset``, which is ``subset``
    itself when it is connected."""
    closure = spanning_subtree(tree, subset).bits
    value = Fraction(-1) ** (closure.bit_count() - 1) * (1 - r) / r
    for v in VertexSet(closure):
        j = (tree.neighbor_masks[v] & closure).bit_count()
        if j >= 2:
            value *= -f_poly(j, r)
    return value
