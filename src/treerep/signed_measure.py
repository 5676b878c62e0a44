"""The signed set measure whose positivity decides Poisson representability.

For a chain ``X`` on a tree with vertex set V, the measure ``nu`` on
nonempty subsets K of V is pinned down by inclusion-exclusion against the
zero-pattern probabilities:

    nu(K) = sum over I subset of K of (-1)^(|K|-|I|) * log P(X(V\\I) == 0)

Then ``exp(-nu(union of sets hitting I)) = P(X(I) == 0)`` for every I, and
``X`` arises as the complement-indicator of a union of Poisson atoms iff
``nu`` is nonnegative everywhere.

Every value is carried as an exact pair of positive integers
``(num, den)`` with ``nu = log(num/den)``, so signs are decided by integer
comparison; the float ``log_value`` is advisory.  ``nu`` vanishes on
disconnected sets, and for connected sets there is a boundary-indexed
short formula (:func:`nu_connected`) that agrees with the full lattice
but only needs exponentially many terms in the boundary size rather
than in |V|.  :func:`nu_full` builds the integer probability table of
all 2^n masks in one bottom-up pass.  When the connected sets have few
boundary events against the n * 2^(n-1) steps of a transform, it reads
each connected entry off that table by the short formula and gives
every other mask one shared exact zero (path(16): 136 connected sets of
65,535, 241 → 37 ms); otherwise, as on wide stars, it builds every entry
at once as a multiplicative Möbius transform of the table, one level
per vertex on arrays of integer pairs.  :func:`set_boundaries` holds
the boundary rule for many sets at once, for :func:`nu_full` and the
verdict sweep plans alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chain_model import prob_all_zero, prob_all_zero_table, scaled_params
from .tree_core import DomainError, VertexSet, connected_subsets

# Full-lattice measures keep 2^n exact entries; wider trees are refused.
MAX_LATTICE_ORDER = 16

# set_boundaries takes at most this many sets at a time, which bounds its
# (sets x n) arrays.
_SET_BLOCK = 1 << 13


def _log_ratio(num: int, den: int) -> float:
    """log(num/den) of positive ints, relatively accurate near 1 and far from it."""
    if num == den:
        return 0.0
    if 2 * num < den:  # log1p's argument would round toward -1
        return -_log_ratio(den, num)
    try:
        return math.log1p((num - den) / den)
    except OverflowError:
        return (math.log2(num) - math.log2(den)) * math.log(2)


def _product(factors):
    """Balanced product; keeps intermediate integers from going quadratic."""
    items = list(factors)
    if not items:
        return Fraction(1)
    while len(items) > 1:
        nxt = [items[i] * items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


@dataclass(frozen=True)
class MeasureValue:
    """One measure entry: exact positive pair with ``value = log(num/den)``.

    ``num`` and ``den`` are positive ints, not necessarily coprime, so the
    sign of the entry is the three-way comparison of num against den.
    ``ratio`` reduces on demand; ``log_value`` is a float companion
    accurate to ~1 ulp relative, computed on first use.
    """

    num: int
    den: int

    @classmethod
    def from_ratio(cls, x: Fraction):
        if x <= 0:
            raise DomainError("measure entries are logs of positive ratios")
        return cls(num=x.numerator, den=x.denominator)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.num, self.den)

    @cached_property
    def log_value(self) -> float:
        return _log_ratio(self.num, self.den)

    @property
    def sign(self) -> int:
        return (self.num > self.den) - (self.num < self.den)


class SignedMeasure:
    """Measure entries keyed by subset bitmask over a width-``n`` id space.

    ``entries`` maps nonempty bitmasks to :class:`MeasureValue`.  A full
    measure holds every nonempty subset; a restriction holds the nonempty
    subsets of the kept vertices (original ids retained).
    """

    def __init__(self, n, entries):
        self.n = n
        self.entries = entries

    def value(self, subset) -> MeasureValue:
        bits = subset.bits if isinstance(subset, VertexSet) else int(subset)
        if bits <= 0:
            raise KeyError("measure entries are indexed by nonempty subsets")
        got = self.entries.get(bits)
        if got is None:
            raise KeyError("no entry for subset %r" % bits)
        return got

    def __iter__(self):
        return iter(sorted(self.entries))

    def __len__(self):
        return len(self.entries)


def _require_positive_r(params):
    if 0 in params.r:
        raise DomainError(
            "fresh-draw probabilities must be > 0: zero-probability "
            "events have no finite log"
        )


def _reduce(num, den):
    """Divide each pair of the two object arrays by its gcd, in place."""
    g = np.gcd(num, den)
    num //= g
    den //= g


def _dense_entries(n, table):
    """Every entry by the multiplicative Möbius transform of the table."""
    num = table[::-1].copy()
    den = np.ones_like(num)
    for b in range(n):
        num = num.reshape(-1, 2, 1 << b)
        den = den.reshape(-1, 2, 1 << b)
        g_num = np.gcd(num[:, 1], num[:, 0])
        g_den = np.gcd(den[:, 1], den[:, 0])
        hi_num = num[:, 1] // g_num * (den[:, 0] // g_den)
        den[:, 1] = den[:, 1] // g_den * (num[:, 0] // g_num)
        num[:, 1] = hi_num
    pairs = zip(num.ravel().tolist(), den.ravel().tolist())
    next(pairs)  # the empty set carries no entry
    return {m: MeasureValue(a, b) for m, (a, b) in enumerate(pairs, start=1)}


def _sparse_entries(n, table, sets, lam, outer):
    """Connected entries from their boundary events; every other entry is zero."""
    entries = dict.fromkeys(range(1, 1 << n), MeasureValue(1, 1))
    prob = table.tolist().__getitem__
    for s, l, o in zip(sets.tolist(), lam.tolist(), outer.tolist()):
        even, odd = signed_products(_submask_events(l, o), prob)
        g = math.gcd(even, odd)
        entries[s] = MeasureValue(even // g, odd // g)
    return entries


def _sparse_pays(n, events):
    """Whether ``events`` boundary events cost less than the dense transform."""
    return 4 * events <= n << n


def nu_full(tree, params) -> SignedMeasure:
    """Exact measure of the chain on every nonempty subset.

    The table holds ``den * P(X(a) = 0)`` for every mask a, in the
    integer encoding of :func:`~treerep.chain_model.scaled_params`, all
    from one sweep by :func:`~treerep.chain_model.prob_all_zero_table`.
    Trees above ``MAX_LATTICE_ORDER`` vertices are refused, and checked
    parameters with nonzero ``r`` are required, before this sweep and
    before any set is enumerated.  Then one of two paths builds the
    entries, in increasing mask order and each in lowest terms, so both
    give the same pairs:

    * Sparse: ``nu`` vanishes on disconnected sets, so each connected set
      S gets the pair of products of table values over its boundary
      events (those of :func:`connected_log_events`, from the λ and
      outer masks of :func:`set_boundaries`), divided by their gcd, and
      every other mask shares one exact zero, ``MeasureValue(1, 1)``.
    * Dense: bit by bit, every mask containing the bit is divided by the
      mask without it (a multiplicative Möbius transform on the table
      read at complements); afterwards entry K is the alternating
      product over the subsets I of K, that is ``exp(nu(K))``.  Each
      level runs on (num, den) object arrays of Python ints.  As in
      Fraction division, the two numerators and the two denominators are
      divided by their gcds before the cross products, so ``den`` cancels
      at each mask's first division and every entry stays in lowest terms.

    The sparse path is taken when 4 * events <= n * 2^n, where events is
    the sum of 2^|λ(S)| over the connected sets and the dense transform
    takes n * 2^(n-1) level steps; that is, when events are at most half
    the level steps.  In process, best of three, each path forced, dense
    → sparse (2 vCPUs, Python 3.11.7): path(16) 241 → 37 ms and
    spider(5, 3) 259 → 41 ms, but star(10) 18 → 112 ms and star(12)
    247 → 2,392 ms, whose events outnumber their level steps 10 and 20
    times.  Over 71 measures of 9-16 vertices, sparse took 0.08-0.78 of
    dense's time at ratios up to one half, 0.72-1.54 from one half to
    0.9, and 1.14-11.7 above.
    """
    weights = scaled_params(tree, params)
    _require_positive_r(weights)
    n = tree.n
    if n > MAX_LATTICE_ORDER:
        raise DomainError("full measures are capped at %d vertices" % MAX_LATTICE_ORDER)
    table = prob_all_zero_table(tree, weights)
    sets = np.fromiter(connected_subsets(tree), dtype=np.int64)
    _, lam, outer, lam_size = set_boundaries(tree, sets)
    if _sparse_pays(n, int(np.left_shift(1, lam_size).sum())):
        return SignedMeasure(n, _sparse_entries(n, table, sets, lam, outer))
    return SignedMeasure(n, _dense_entries(n, table))


def set_boundaries(tree, sets):
    """The boundary masks of many connected sets: ``(size, lam, outer, lam_size)``.

    ``sets`` is an int64 array of connected masks.  Per set, ``lam``
    holds its vertices with a neighbour outside it or at most one inside
    it (the inner boundary and the leaves of the induced subtree; for a
    singleton, the vertex), ``outer`` the vertices outside it with a
    neighbour inside, and ``size`` and ``lam_size`` count the set and
    ``lam``.  This is the rule of :func:`connected_log_events`, for every
    set at once in numpy; all four are int64 arrays in the order of
    ``sets``.
    """
    bit = np.left_shift(1, np.arange(tree.n, dtype=np.int64))
    masks = np.array(tree.neighbor_masks, dtype=np.int64)
    adjacency = masks[:, None] >> np.arange(tree.n) & 1
    degree = adjacency.sum(axis=0)
    parts = []
    for lo in range(0, len(sets), _SET_BLOCK):
        inside = sets[lo : lo + _SET_BLOCK, None] & bit != 0
        within = inside @ adjacency  # each vertex's neighbours inside the set
        lam = inside & ((within < degree) | (within <= 1))
        outer = ~inside & (within > 0)
        parts.append((inside.sum(axis=1), lam @ bit, outer @ bit, lam.sum(axis=1)))
    return tuple(np.concatenate(col) for col in zip(*parts))


def connected_log_events(tree, subset):
    """Signed zero-pattern events whose log-probabilities sum to nu(S).

    For connected S the sum runs over subsets J of lam, the inner
    boundary together with the leaves of the subtree induced on S, each
    J joined with the full outer boundary:

        nu(S) = sum over J of (-1)^|J| * log P(X(J + outer) == 0)

    Indexing by inner-boundary vertices alone is only sound when every
    induced leaf touches the outside (true in doubly-infinite settings,
    false for e.g. the end pair of a path); adding the leaves fixes the
    finite case and provably agrees with full inclusion-exclusion.  A
    singleton {v} is its own leaf, so lam = {v} and its two events are
    (outer boundary) minus (v plus outer boundary).  One pass over S
    finds lam, the outer boundary and the edges inside S, which tell
    whether S is connected.  Returns a list of ``(sign, bits)`` pairs.
    """
    s = subset.bits
    if s == 0:
        raise DomainError("subset must be nonempty")
    if s >> tree.n:
        raise DomainError("subset contains ids outside the tree")
    masks = tree.neighbor_masks
    lam = outer = ends = 0
    for v in subset:
        nb = masks[v]
        inside = (nb & s).bit_count()
        ends += inside
        if inside <= 1 or nb & ~s:
            lam |= 1 << v
        outer |= nb
    outer &= ~s
    if ends != 2 * (s.bit_count() - 1):
        raise DomainError("subset must induce a connected subgraph")
    return _submask_events(lam, outer)


def _submask_events(lam, outer):
    """``(sign, J | outer)`` with sign (-1)^|J| for every submask J of ``lam``."""
    events = []
    sub = lam
    while True:
        j = lam & ~sub  # iterate J over submasks of lam via complement trick
        events.append((-1 if j.bit_count() % 2 else 1, j | outer))
        if sub == 0:
            break
        sub = (sub - 1) & lam
    return events


def signed_products(events, prob):
    """``(even, odd)``, the products of ``prob(bits)`` over the + and - events.

    ``nu(S) = log(even / odd)`` for the events of :func:`connected_log_events`.
    Only ring operations are used, so ``prob`` may return ints or Fractions.
    """
    evens = []
    odds = []
    for sign, bits in events:
        (evens if sign > 0 else odds).append(prob(bits))
    if len(evens) != len(odds):
        raise AssertionError("boundary events must split evenly between the signs")
    return _product(evens), _product(odds)


def nu_connected(tree, params, subset, prob_cache=None) -> MeasureValue:
    """Measure of a connected set from boundary-indexed inclusion-exclusion.

    Agrees exactly with the corresponding :func:`nu_full` entry but costs
    2^|boundary-with-leaves| probability evaluations instead of 2^|S|
    lattice work, which is what makes verdicts on skinny trees cheap.

    ``params`` is a :class:`~treerep.chain_model.ChainParams` or the
    integer weights of :func:`~treerep.chain_model.scaled_params`.  There
    are as many + events as - events, so the common factor of
    the integer encoding cancels and the entry is the pair of products,
    with no gcd.  ``prob_cache`` must hold values of the same encoding.
    """
    _require_positive_r(params)
    cache = {} if prob_cache is None else prob_cache

    def prob(bits):
        got = cache.get(bits)
        if got is None:
            got = prob_all_zero(tree, params, VertexSet(bits))
            cache[bits] = got
        return got

    even, odd = signed_products(connected_log_events(tree, subset), prob)
    return MeasureValue(
        num=even.numerator * odd.denominator, den=even.denominator * odd.numerator
    )


def restrict_measure(measure: SignedMeasure, keep: VertexSet) -> SignedMeasure:
    """Push the measure onto the sub-id-space ``keep``.

    The restricted chain's measure evaluates each A as the total mass of
    all sets whose trace on ``keep`` is exactly A:
    ``nu_keep(A) = sum over A' with A' & keep == A of nu(A')``.
    In ratios that is a product, taken one dropped bit at a time on
    (num, den) object arrays, each level reduced by its gcd.  The input
    must cover the full lattice, and ``keep`` must lie inside it.
    """
    kb = keep.bits
    if kb >> measure.n:
        raise DomainError("keep contains ids outside the measure")
    entries = measure.entries
    everything = range(1, 1 << measure.n)
    num = np.array([1] + [entries[m].num for m in everything], dtype=object)
    den = np.array([1] + [entries[m].den for m in everything], dtype=object)
    for b in reversed(range(measure.n)):
        if not kb >> b & 1:
            num = num.reshape(-1, 2, 1 << b)
            den = den.reshape(-1, 2, 1 << b)
            num = (num[:, 0] * num[:, 1]).ravel()
            den = (den[:, 0] * den[:, 1]).ravel()
            _reduce(num, den)
    if kb == (1 << measure.n) - 1:
        _reduce(num, den)  # nothing dropped: entries need not be in lowest terms
    masks = [0]
    for v in keep:
        masks += [m | 1 << v for m in masks]
    out = {}
    for m, a, b in zip(reversed(masks), num[::-1].tolist(), den[::-1].tolist()):
        if m:
            out[m] = MeasureValue(a, b)
    return SignedMeasure(measure.n, out)
