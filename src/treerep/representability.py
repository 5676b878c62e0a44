"""Representability verdicts, (r, p) phase scans, and scaling checks.

A chain is representable exactly when its signed measure is nonnegative
everywhere.  Disconnected sets carry exactly zero mass on trees, so the
verdict only has to sweep connected sets, whose count stays far below
2^n on sparse trees.  Each connected set's nu(S) is a signed sum of the
log-probabilities of its boundary events.  A float64 pass evaluates the
events of many sets at once in numpy and certifies a sign wherever it
clears a proved forward-error bound by the factor ``MARGIN``
(:func:`certified_signs`).  Every set it does not certify positive gets
its exact sign from the integer encoding of
:func:`~treerep.chain_model.scaled_params`, one comparison of two int
products, so near-ties and witnesses are always decided exactly.  The witness is the first negative set in (size, bit pattern)
order, and ``Verdict.checked_sets`` is its position in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .chain_model import (
    as_fraction,
    float_weights,
    prob_all_zero_many,
    scaled_params,
    uniform_params,
)
from .signed_measure import nu_connected, nu_full, restrict_measure
from .tree_core import DomainError, VertexSet, as_int, connected_subsets, subdivide

MAX_VERDICT_ORDER = 20
MAX_SCALING_ORDER = 14

# The float pass takes consecutive sets in chunks of at most this many
# boundary events (a set with more is split).  A chunk's working arrays
# hold about a dozen numbers per event, so the pass stays within about
# 1 MB on any tree (star(16) has 86M events), and a sweep stops at its
# witness's chunk.
CHUNK_EVENTS = 1 << 13

# A float sign is kept only when it clears its proved error bound by
# this factor (see certified_signs); closer sets go to the exact path.
MARGIN = 2.0**20

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-900  # smaller probabilities are left to the exact path


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact nonnegativity sweep.

    ``witness`` is present exactly when ``representable`` is false and
    is the first negative-mass set in (size, bit pattern) order.
    ``checked_sets`` is the witness's position in that order (1-based),
    or the number of connected sets when there is no witness.
    """

    representable: bool
    witness: Optional[VertexSet]
    checked_sets: int


@dataclass(frozen=True)
class PhasePoint:
    r: Fraction
    p: Fraction
    verdict: Verdict


class SweepPlan:
    """The parameter-free part of a verdict sweep over one tree.

    ``sets`` holds the connected sets in (size, bit pattern) order as
    int64 masks.  Set i has one boundary event ``J | outer[i]`` with
    sign (-1)^|J| for every J inside ``lam[i]`` (the inner boundary plus
    the leaves of the induced subtree; for a singleton, the vertex),
    in the order of :func:`~treerep.signed_measure.connected_log_events`.
    Its ``2^lam_size[i]`` events occupy positions ``starts[i]`` to
    ``ends[i]`` of one stream over all sets.  A plan is read-only once
    built, so the grid points of a scan share one.
    """

    def __init__(self, tree):
        if tree.n > MAX_VERDICT_ORDER:
            raise DomainError(
                "full verdicts are capped at %d vertices" % MAX_VERDICT_ORDER
            )
        self.tree = tree
        self._bit = np.left_shift(1, np.arange(tree.n, dtype=np.int64))
        masks = np.array(tree.neighbor_masks, dtype=np.int64)
        adjacency = masks[:, None] >> np.arange(tree.n) & 1
        degree = adjacency.sum(axis=0)
        sets = np.fromiter(connected_subsets(tree), dtype=np.int64)
        parts = []
        for lo in range(0, len(sets), CHUNK_EVENTS):  # bounds the (sets x n) arrays
            inside = sets[lo : lo + CHUNK_EVENTS, None] & self._bit != 0
            within = inside @ adjacency  # each vertex's neighbours inside the set
            lam = inside & ((within < degree) | (within <= 1))
            outer = ~inside & (within > 0)
            parts.append(
                (inside.sum(axis=1), lam @ self._bit, outer @ self._bit, lam.sum(axis=1))
            )
        size, lam, outer, lam_size = (np.concatenate(col) for col in zip(*parts))
        order = np.lexsort((sets, size))
        self.sets, self.lam, self.outer = sets[order], lam[order], outer[order]
        self.lam_size = lam_size[order]
        self.ends = np.cumsum(np.left_shift(1, self.lam_size))
        self.starts = self.ends - np.left_shift(1, self.lam_size)
        first = (0, min(CHUNK_EVENTS, int(self.ends[-1])))
        self._first = (first, self._expand(*first))

    def chunk(self, e0, e1):
        """Events at stream positions e0..e1: ``(ids, sign, masks, inverse)``.

        ``ids`` and ``sign`` give each event's set index and float sign;
        ``masks`` holds the distinct event masks and ``inverse`` each
        event's index into them.  The first chunk is kept from the start.
        """
        key, events = self._first
        return events if (e0, e1) == key else self._expand(e0, e1)

    def _expand(self, e0, e1):
        lo = int(np.searchsorted(self.ends, e0, side="right"))
        hi = int(np.searchsorted(self.starts, e1))
        counts = np.minimum(self.ends[lo:hi], e1) - np.maximum(self.starts[lo:hi], e0)
        ids = np.repeat(np.arange(lo, hi), counts)
        local = ids - lo
        lam = self.lam[lo:hi].copy()
        index = np.arange(e0, e1) - self.starts[ids]  # J's index among the set's events
        mask = self.outer[ids]
        odd = np.zeros_like(index)
        for k in range(int(self.lam_size[lo:hi].max())):
            low = lam & -lam  # the k-th lowest vertex of each set's lam
            lam ^= low
            bit = index >> k & 1
            mask |= bit * np.take(low, local)
            odd ^= bit
        # masks lie below 2^n, so a table of 2^n flags dedupes them unsorted
        seen = np.zeros(1 << self.tree.n, dtype=bool)
        seen[mask] = True
        masks = np.flatnonzero(seen)
        rank = np.zeros(len(seen), dtype=np.int64)
        rank[masks] = np.arange(len(masks))
        return ids, 1.0 - 2.0 * odd, masks, rank[mask]


def certified_signs(nu, mag, lam_size, n):
    """The signs of nu(S) that the float pass proves: ``(pos, neg)``.

    Per set, ``nu`` is the computed sum of the N = 2^``lam_size`` signed
    terms ``l_J = fl(log P~_J)`` of its boundary events, and ``mag`` the
    computed sum of their absolute values, on an ``n``-vertex tree.
    With u = 2^-53 and g_m = m u / (1 - m u):

    1. The inputs of :func:`~treerep.chain_model.prob_all_zero_many` are
       correctly rounded and every step of its sweep
       (:func:`~treerep.chain_model._sweep`) is a sum or product of
       values in [0, 1], or an exact product with 0.0 or 1.0, with at
       most K = 10n roundings along any input-to-output path (7 per
       edge, 3 at the root).  Without underflow, every term of the
       expanded sweep carries a factor in [(1-u)^K, (1+u)^K] and all
       terms are nonnegative, so
       P~ = P (1 + t) with |t| <= g_K (Higham, *Accuracy and Stability
       of Numerical Algorithms*, Lemma 3.1).
    2. Underflow, in an operation or in an input below 2^-1022 such as
       r = 1/10^400 (rounded to a subnormal or to 0), adds an absolute
       error of at most 2^-1075.  An intermediate enters the result
       with a weight that is a probability, so each such error reaches
       P~ scaled by at most 1 + g_K; a sweep has fewer than 2^9
       operations and inputs (n <= 20), so P~ = P (1 + t) + E with
       |E| < 2^-1065.
    3. The pass keeps only P~ >= 2^-900, where |E| < 2^-165 P~ and
       |log P~ - log P| <= g_K / (1 - g_K) + 2^-164 <= 2 g_K.  A smaller
       P~, or a NaN, makes the set's nu NaN, which proves nothing.
    4. A float64 log is accurate to a few ulps (glibc's to under one);
       allowing 4 ulps, |l_J - log P~_J| <= 8u |log P~_J| <= 8u (1 + |l_J|).
    5. A sum of N terms, in any order, errs by at most g_(N-1) times the
       sum of their absolute values (Higham, chapter 4); chunks add
       their partial sums.

    So |nu - nu(S)| <= B = N (2 g_K + 8u) + (8u + g_N) sum_J |l_J|.
    The bound computed below takes ``mag`` for that sum, which is low by
    at most a factor 1 - g_N, and rounds a few times more; these lose far
    less than the factor 2 it carries, so ``b`` >= B, and |nu| > b proves
    that nu(S) has the sign of nu.  An exact zero has |nu| <= B <= b and
    is never certified.

    A sign is kept only when |nu| > ``MARGIN`` * b.  Steps 1-3 and 5
    follow from IEEE float64 and the code of the sweep, but step 4 rests
    on the platform's ``log``, which the code cannot check; the margin lets that premise fail by a
    factor of ``MARGIN`` before a kept sign could be wrong.  The sets
    inside the margin are those nearest a sign change, such as the large
    sets of octopus(3, 2) at p = 19/20 near r = 1/2, and they go to the
    exact path.
    """
    count = np.ldexp(1.0, lam_size)
    gamma_k = 10 * n * _U / (1 - 10 * n * _U)
    gamma_n = count * _U / (1 - count * _U)
    b = 2 * (count * (2 * gamma_k + 8 * _U) + (8 * _U + gamma_n) * mag)
    return nu > MARGIN * b, nu < -MARGIN * b


def float_signs(plan, params):
    """The float pass: ``(lo, hi, pos, neg)`` for consecutive runs of sets.

    Works through the event stream of ``plan`` in chunks of at most
    ``CHUNK_EVENTS`` events and yields, after each chunk, the proved
    signs (:func:`certified_signs`) of the sets lo..hi that it
    completes.  An event probability below 2^-900 leaves its set
    unproved.
    """
    tree = plan.tree
    floats = float_weights(tree, params)
    nu = np.zeros(len(plan.sets))
    mag = np.zeros(len(plan.sets))
    done = 0
    total = int(plan.ends[-1])
    for e0 in range(0, total, CHUNK_EVENTS):
        e1 = min(e0 + CHUNK_EVENTS, total)
        ids, sign, masks, inverse = plan.chunk(e0, e1)
        lo, hi = ids[0], ids[-1] + 1
        end = int(np.searchsorted(plan.ends, e1, side="right"))
        with np.errstate(all="ignore"):
            prob = prob_all_zero_many(tree, floats, masks)
            ell = np.log(np.where(prob >= _TINY, prob, np.nan))[inverse]
            nu[lo:hi] += np.bincount(ids - lo, weights=sign * ell)
            mag[lo:hi] += np.bincount(ids - lo, weights=np.abs(ell))
            pos, neg = certified_signs(
                nu[done:end], mag[done:end], plan.lam_size[done:end], tree.n
            )
        yield done, end, pos, neg
        done = end


def is_representable(tree, params, sweep=None) -> Verdict:
    """Exact verdict: does every nonempty set carry nonnegative mass?

    Sweeps the connected sets in (size, bit pattern) order and stops at
    the first negative sign.  The float pass (:func:`float_signs`) proves
    most signs; every set it does not prove positive, the witness among
    them, is decided on the exact integer path, and an exact sign that
    contradicts a proved one raises AssertionError.  ``sweep`` is the
    tree's :class:`SweepPlan`, for callers that already have one; a plan
    of another tree is a :class:`DomainError`.
    Vertex laws must lie in (0, 1]; trees are capped at
    ``MAX_VERDICT_ORDER`` vertices since the sweep is exponential in
    the boundary sizes.
    """
    if sweep is not None and sweep.tree != tree:
        raise DomainError("the sweep plan was built for another tree")
    plan = SweepPlan(tree) if sweep is None else sweep
    weights = scaled_params(tree, params)
    if 0 in weights.r:
        raise DomainError("vertex laws must lie in (0, 1] for verdicts")
    cache = {}
    for lo, _, pos, neg in float_signs(plan, params):
        for i in np.flatnonzero(~pos):
            bits = VertexSet(int(plan.sets[lo + i]))
            if nu_connected(tree, weights, bits, prob_cache=cache).sign < 0:
                return Verdict(
                    representable=False, witness=bits, checked_sets=lo + int(i) + 1
                )
            if neg[i]:
                raise AssertionError(
                    "the exact sign of nu at %r contradicts the float pass" % (bits,)
                )
    return Verdict(representable=True, witness=None, checked_sets=len(plan.sets))


def phase_scan(tree, r_values, p_values):
    """Verdict at every grid point; returns PhasePoints sorted by (r, p).

    Grid values must lie strictly inside (0, 1).  The points run one
    after another on one shared :class:`SweepPlan`.
    """
    rs = [as_fraction(r) for r in r_values]
    ps = [as_fraction(p) for p in p_values]
    for x in rs + ps:
        if not 0 < x < 1:
            raise DomainError("scan grids must lie strictly inside (0, 1)")
    plan = SweepPlan(tree)
    return [
        PhasePoint(r, p, is_representable(tree, uniform_params(tree, r, p), plan))
        for r, p in sorted((r, p) for r in set(rs) for p in set(ps))
    ]


def scaling_check(tree, r, p, k) -> bool:
    """Subdivision consistency of the measure, checked entry by entry.

    Splitting every edge into ``k`` equal-parameter segments and then
    restricting the subdivided measure back to the original vertices
    must reproduce the original tree's measure with the aggregated
    parameter p' = 1 - (1-p)^k.  Exact comparison over every nonempty
    subset; any mismatch returns False.  A subdivided tree above
    ``MAX_SCALING_ORDER`` vertices is refused before anything is built.
    """
    if as_int(k, "subdivision factor") < 1:
        raise DomainError("subdivision factor must be >= 1")
    if k == 1:
        return True
    if tree.n + (k - 1) * (tree.n - 1) > MAX_SCALING_ORDER:
        raise DomainError(
            "subdivided tree exceeds %d vertices" % MAX_SCALING_ORDER
        )
    r = as_fraction(r)
    p = as_fraction(p)
    big, originals = subdivide(tree, k)
    restricted = restrict_measure(nu_full(big, uniform_params(big, r, p)), originals)
    p_prime = 1 - (1 - p) ** k
    direct = nu_full(tree, uniform_params(tree, r, p_prime))
    for bits in range(1, 1 << tree.n):
        s = VertexSet(bits)
        if restricted.value(s).ratio != direct.value(s).ratio:
            return False
    return True
