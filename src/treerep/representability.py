"""Representability verdicts, (r, p) phase scans, and scaling checks.

A chain is representable exactly when its signed measure is nonnegative
everywhere.  Disconnected sets carry exactly zero mass on trees, so the
verdict only has to sweep connected sets, whose count stays far below
2^n on sparse trees.  Each connected set's nu(S) is a signed sum of the
log-probabilities of its boundary events.  A float64 pass evaluates the
events of many sets at once in numpy, for a block of grid points of a
scan at once, and certifies a sign wherever it clears a proved
forward-error bound by the factor ``MARGIN`` (:func:`certified_signs`).
Every set it does not certify positive gets its exact sign from the
integer encoding of :func:`~treerep.chain_model.scaled_params`, one
comparison of two int products, so near-ties and witnesses are always
decided exactly.  The witness is the first negative set in (size, bit
pattern) order, and ``Verdict.checked_sets`` is its position in that
order.

Sets with |lam| <= 2 (lam: the inner boundary plus the induced leaves)
are never negative.  With Z = {X(outer) = 0}, a singleton's nu is
log P(Z) - log P(Z, X_v = 0) >= 0, and for lam = {a, b}, nu(S) >= 0
says that {X_a = 0} and {X_b = 0} are positively correlated given Z.
Each edge's copy-or-resample kernel is TP2, K00 K11 - K01 K10 = 1 - p
>= 0, so the chain's law and its restriction to the sublattice Z meet
the FKG lattice condition, under which decreasing events are positively
correlated (Fortuin, Kasteleyn and Ginibre 1971; Ahlswede and Daykin
1978 allow the zero weights of p = 0).  A path's connected sets are
intervals, with lam their ends, so every path is representable.

:func:`scaling_check` works on the same boundary events of connected
sets, with no 2^n table, so only the tree cap bounds it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .chain_model import (
    ChainParams,
    as_fraction,
    float_weights,
    prob_all_zero_many,
    scaled_params,
    uniform_params,
)
# nu_full and restrict_measure are unused here; perfbench/tracing.py binds
# them, and stops on a missing binding
from .signed_measure import (
    _SET_BLOCK,
    _require_positive_r,
    _set_products,
    _submask_events,
    nu_connected,
    nu_full,
    restrict_measure,
    set_boundaries,
)
from .tree_core import DomainError, VertexSet, as_int, connected_subsets, subdivide

MAX_VERDICT_ORDER = 20

# The float pass takes consecutive sets in chunks of at most this many
# boundary events (a set with more is split), and sweeps a chunk for
# several grid points at once only while events times points stay within
# it.  A chunk's working arrays hold about a dozen numbers per event and
# point, about 1 MB, but its masks are deduplicated through a flag and an
# int64 rank per mask of the tree, 9 * 2^n bytes.  So the pass's peak
# grows with n: tracemalloc reads 5.5 MiB above the plan on spider(6,3)
# (n = 19) and 10.0 MiB with a seventh one-vertex leg (n = 20), at
# r = p = 1/2.  A sweep stops at its witness's chunk.
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
    in the order of :func:`~treerep.signed_measure.connected_log_events`;
    :func:`~treerep.signed_measure.set_boundaries` gives the masks.
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
        sets = np.fromiter(connected_subsets(tree), dtype=np.int64)
        size, lam, outer, lam_size = set_boundaries(tree, sets)
        order = np.lexsort((sets, size))
        self.sets, self.lam, self.outer = sets[order], lam[order], outer[order]
        self.lam_size = lam_size[order]
        self.ends = np.cumsum(np.left_shift(1, self.lam_size))
        self.starts = self.ends - np.left_shift(1, self.lam_size)

    def chunk(self, e0, e1):
        """Events at stream positions e0..e1: ``(ids, sign, masks, inverse)``.

        ``ids`` and ``sign`` give each event's set index and float sign;
        ``masks`` holds the distinct event masks and ``inverse`` each
        event's index into them.  Each call expands its chunk afresh;
        the plan keeps no expanded chunk.
        """
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


def float_signs(plan, floats):
    """The float pass: ``(lo, hi, pos, neg)`` for consecutive runs of sets.

    ``floats`` are the ``(P, 1)`` float weight columns of P parameter
    points (:func:`~treerep.chain_model.float_weights`).  Works through
    the event stream of ``plan`` in chunks of at most ``CHUNK_EVENTS``
    events, expands each chunk once for all the points, and yields after
    each chunk the proved signs (:func:`certified_signs`) of the sets
    lo..hi that it completes, as ``(P, hi - lo)`` arrays.  An event
    probability below 2^-900 leaves its set unproved.
    """
    tree = plan.tree
    total = int(plan.ends[-1])
    done = 0
    carry = None  # (nu, mag) of the last set of a chunk, which the next may go on
    for e0 in range(0, total, CHUNK_EVENTS):
        e1 = min(e0 + CHUNK_EVENTS, total)
        ids, sign, masks, inverse = plan.chunk(e0, e1)
        hi = int(ids[-1]) + 1  # the chunk holds sets done..hi-1
        end = int(np.searchsorted(plan.ends, e1, side="right"))
        starts = np.maximum(plan.starts[done:hi] - e0, 0)
        with np.errstate(all="ignore"):
            prob = prob_all_zero_many(tree, floats, masks)
            ell = np.log(np.where(prob >= _TINY, prob, np.nan)).take(inverse, axis=1)
            nu = np.add.reduceat(sign * ell, starts, axis=1)
            mag = np.add.reduceat(np.abs(ell), starts, axis=1)
            if plan.starts[done] < e0:
                nu[:, 0] += carry[0]
                mag[:, 0] += carry[1]
            carry = nu[:, -1], mag[:, -1]
            pos, neg = certified_signs(
                nu[:, : end - done], mag[:, : end - done], plan.lam_size[done:end], tree.n
            )
        yield done, end, pos, neg
        done = end


def _row(signs, k):
    """Row ``k`` of each ``(lo, hi, pos, neg)`` that :func:`float_signs` yields."""
    for lo, hi, pos, neg in signs:
        yield lo, hi, pos[k], neg[k]


def is_representable(tree, params, sweep=None) -> Verdict:
    """Exact verdict: does every nonempty set carry nonnegative mass?

    Sweeps the connected sets in (size, bit pattern) order and stops at
    the first negative sign.  The float pass (:func:`float_signs`) proves
    most signs; every set it does not prove positive, the witness among
    them, is decided on the exact integer path, and an exact sign that
    contradicts a proved one raises AssertionError.  ``sweep`` is None,
    and the point builds the tree's :class:`SweepPlan` and runs a float
    pass of its own on ``float_weights(tree, [params])``, or a ``(plan,
    rows)`` pair, where ``rows`` yields this point's ``(lo, hi, pos,
    neg)`` per chunk of a float pass that :func:`phase_scan` shares
    among a block of grid points; a plan built for another tree is a
    :class:`DomainError`.  A vertex law of 0 is the :class:`DomainError` of
    :func:`~treerep.signed_measure.nu_full`, raised before the plan is
    built; trees are capped at ``MAX_VERDICT_ORDER`` vertices since the
    sweep is exponential in the boundary sizes.
    """
    if sweep is not None and sweep[0].tree != tree:
        raise DomainError("the sweep plan was built for another tree")
    weights = scaled_params(tree, params)
    _require_positive_r(weights)
    if sweep is None:
        plan = SweepPlan(tree)
        rows = _row(float_signs(plan, float_weights(tree, [params])), 0)
    else:
        plan, rows = sweep
    sets = plan.sets
    cache = {}
    for lo, _, pos, neg in rows:
        for i in np.flatnonzero(~pos):
            bits = VertexSet(int(sets[lo + i]))
            if nu_connected(tree, weights, bits, prob_cache=cache).sign < 0:
                return Verdict(
                    representable=False, witness=bits, checked_sets=lo + int(i) + 1
                )
            if neg[i]:
                raise AssertionError(
                    "the exact sign of nu at %r contradicts the float pass" % (bits,)
                )
    return Verdict(representable=True, witness=None, checked_sets=len(sets))


def phase_scan(tree, r_values, p_values):
    """Verdict at every grid point; returns PhasePoints sorted by (r, p).

    Grid values must lie strictly inside (0, 1).  The two grids are read
    in turn, one value of each at a time, and each value is checked as
    it is read, so a bad value is refused however long the other grid
    is.  The points share one :class:`SweepPlan`.  They are taken
    in blocks of ``CHUNK_EVENTS`` // events points, and each block runs
    one float pass on the float weights of its points' ``ChainParams``
    (:func:`~treerep.chain_model.float_weights`), which
    ``itertools.tee`` splits into one lazy row per point: a
    block of two or more points sweeps the one chunk of the whole stream
    once for all of them, and a block of one stops at its witness's
    chunk.  Then each point's exact path runs on its own row of proved
    signs, one point after another.
    """

    def inside(x):
        x = as_fraction(x)
        if not 0 < x < 1:
            raise DomainError("scan grids must lie strictly inside (0, 1)")
        return x

    rs, ps = set(), set()
    missing = object()  # pads the shorter grid
    for r, p in itertools.zip_longest(r_values, p_values, fillvalue=missing):
        if r is not missing:
            rs.add(inside(r))
        if p is not missing:
            ps.add(inside(p))
    rs, ps = sorted(rs), sorted(ps)
    plan = SweepPlan(tree)
    grid = [(r, p) for r in rs for p in ps]
    size = max(1, CHUNK_EVENTS // int(plan.ends[-1]))
    points = []
    for first in range(0, len(grid), size):
        block = grid[first : first + size]
        params = [ChainParams(r=(r,) * tree.n, p=(p,) * len(tree.edges)) for r, p in block]
        signs = float_signs(plan, float_weights(tree, params))
        shared = itertools.tee(signs, len(block))
        for k, ((r, p), point) in enumerate(zip(block, params)):
            verdict = is_representable(tree, point, (plan, _row(shared[k], k)))
            points.append(PhasePoint(r, p, verdict))
    return points


def _connected_products(tree, weights, keep):
    """``(s, even, odd)``, nu(s) = log(even / odd), per connected set s meeting ``keep``.

    Values are in the integer ``weights`` of
    :func:`~treerep.chain_model.scaled_params`.  The sets come
    ``_SET_BLOCK`` at a time, and the distinct event masks of a block
    get their values from one :func:`~treerep.chain_model.prob_all_zero_many`.
    """
    stream = connected_subsets(tree)
    while True:
        sets = np.fromiter(itertools.islice(stream, _SET_BLOCK), dtype=np.int64)
        if not len(sets):
            return
        sets = sets[sets & keep != 0]
        if not len(sets):
            continue
        _, lam, outer, _ = set_boundaries(tree, sets)
        masks = {m for l, o in zip(lam.tolist(), outer.tolist()) for _, m in _submask_events(l, o)}
        masks = np.fromiter(masks, dtype=np.int64, count=len(masks))
        prob = dict(zip(masks.tolist(), prob_all_zero_many(tree, weights, masks).tolist()))
        yield from _set_products(sets, lam, outer, prob.__getitem__)


def scaling_check(tree, r, p, k) -> bool:
    """Subdivision consistency of the measure, checked set by set.

    Splitting every edge into ``k`` equal-parameter segments and then
    restricting the subdivided measure back to the original vertices
    must reproduce the original tree's measure with the aggregated
    parameter p' = 1 - (1-p)^k.  The restriction at A sums the subdivided
    sets whose trace on the original vertices is A.  Disconnected sets
    carry no mass and a connected set's trace is connected or empty, so
    each connected A of the original tree gives one equation: the
    product of the (even, odd) pairs of the subdivided connected sets
    with trace A equals A's pair at p', by one cross-multiplication.
    Empty traces are dropped, as the restriction drops them, and both
    sides must have the same traces; any mismatch returns False.  At
    k = 1 the subdivision is the tree itself, and every check still runs.
    A subdivided tree above ``MAX_TREE_ORDER`` vertices is refused by
    :func:`~treerep.tree_core.subdivide` before it is built.
    """
    if as_int(k, "subdivision factor") < 1:
        raise DomainError("subdivision factor must be >= 1")
    r = as_fraction(r)
    p = as_fraction(p)
    big, originals = subdivide(tree, k)
    fine = scaled_params(big, uniform_params(big, r, p))
    _require_positive_r(fine)
    coarse = scaled_params(tree, uniform_params(tree, r, 1 - (1 - p) ** k))
    traces = {}
    for s, even, odd in _connected_products(big, fine, originals.bits):
        a = s & originals.bits
        e, o = traces.get(a, (1, 1))
        traces[a] = (e * even, o * odd)
    for a, even, odd in _connected_products(tree, coarse, originals.bits):
        got = traces.pop(a, None)
        if got is None or got[0] * odd != got[1] * even:
            return False
    return not traces
