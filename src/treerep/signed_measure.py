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
comparison; the float ``log_value`` is advisory.  :func:`nu_full` builds
every entry at once as a multiplicative Möbius transform of the integer
probability table, in n * 2^(n-1) divisions.  ``nu`` vanishes on
disconnected sets, and for connected sets there is a boundary-indexed
short formula (:func:`nu_connected`) that agrees with the full lattice
but only needs exponentially many terms in the boundary size rather
than in |V|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .chain_model import prob_all_zero, scaled_params
from .tree_core import DomainError, VertexSet

# Full-lattice measures keep 2^n exact entries; wider trees are refused.
MAX_LATTICE_ORDER = 16


def _log_ratio(num: int, den: int) -> float:
    """log(num/den) of positive ints, relatively accurate even when num ~ den."""
    if num == den:
        return 0.0
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
    for x in params.r:
        if x <= 0:
            raise DomainError(
                "fresh-draw probabilities must be > 0: zero-probability "
                "events have no finite log"
            )


def nu_full(tree, params) -> SignedMeasure:
    """Exact measure of the chain on every nonempty subset.

    The table starts as ``den * P(X(V\\m) = 0)`` for every mask m, in the
    integer encoding of :func:`~treerep.chain_model.scaled_params`.  Then,
    bit by bit, every mask containing the bit is divided by the mask
    without it (a multiplicative Möbius transform); afterwards entry K
    is the alternating product over the subsets I of K, that is
    ``exp(nu(K))``.  ``den`` cancels at each mask's first division, and
    Fraction division keeps every entry reduced.  Trees above
    ``MAX_LATTICE_ORDER`` vertices are refused.
    """
    _require_positive_r(params)
    n = tree.n
    if n > MAX_LATTICE_ORDER:
        raise DomainError("full measures are capped at %d vertices" % MAX_LATTICE_ORDER)
    full = (1 << n) - 1
    weights = scaled_params(tree, params)
    table = [
        Fraction(prob_all_zero(tree, weights, VertexSet(full & ~m)))
        for m in range(full + 1)
    ]
    for b in range(n):
        bit = 1 << b
        for m in range(full + 1):
            if m & bit:
                table[m] /= table[m ^ bit]
    return SignedMeasure(
        n, {m: MeasureValue.from_ratio(table[m]) for m in range(1, full + 1)}
    )


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
    Only ring operations are used, so ``prob`` may return ints, Fractions or jets.
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
    The input must cover the full lattice.
    """
    kb = keep.bits
    rest = ((1 << measure.n) - 1) & ~kb
    out = {}
    a = kb
    while a:
        factors = []
        c = rest
        while True:
            factors.append(measure.entries[a | c].ratio)
            if c == 0:
                break
            c = (c - 1) & rest
        out[a] = MeasureValue.from_ratio(_product(factors))
        a = (a - 1) & kb
    return SignedMeasure(measure.n, out)
