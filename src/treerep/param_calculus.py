"""Exact parameter derivatives of the signed measure from cube evaluations.

Every probability the chain produces is a polynomial in the edge
parameters ``p_e`` and vertex laws ``r_v``, multilinear in each.  So with
``eps_i`` added to each of k differentiated entries, ``P(eps)`` is the
sum over subsets T of the k slots of ``a_T * prod_{i in T} eps_i``, and
its values at the 2^k corners of the 0/1 cube give every ``a_T`` by
finite differences: exact mixed partials, no floats.  nu(S) is the
signed sum of the logs of the probabilities of
:func:`~treerep.signed_measure.connected_log_events`.  One
:func:`~treerep.chain_model.prob_all_zero_many` call on the integer
encoding of :func:`~treerep.chain_model.scaled_params`, with a ``[0, 1]``
array planted on its own axis for each slot and the events' masks on the
last axis, returns ``den * P`` at every corner for every event at once.
Each log's partial follows from its event's ``a_T`` by Faà di Bruno's
formula, where ``den`` cancels.  That formula is the one place that
builds Fractions.
The constant terms ``a_0`` are ``den`` times probabilities of all-zero
events, positive whenever every ``r_v`` is (and ``den`` itself when
``r == 1``), so every log is defined.

The closed forms at the degenerate base points ``p == 0``, ``p == 1``
and ``r == 1`` live here as well, next to the derivative core that
certifies them.  :func:`closed_form` alone decides which one a partial
must match, from the labelled tree and never from how it was spelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# prob_all_zero is unused here; perfbench/tracing.py binds it, and stops on a missing binding
from .chain_model import ChainParams, as_fraction, prob_all_zero, prob_all_zero_many, scaled_params
from .signed_measure import _SET_BLOCK, _require_positive_r, connected_log_events
from .thresholds import f_poly
from .tree_core import DomainError, VertexSet, as_int, is_connected, spanning_subtree

DEFAULT_JET_CAP = 6


@dataclass(frozen=True)
class EdgeMultiset:
    """Multiset of tree edges: the differentiation order per edge.

    ``items`` holds ``((u, v), multiplicity)`` pairs with ``u < v``,
    sorted.  A repeated edge means a repeated partial in that edge's
    parameter.
    """

    items: tuple

    @classmethod
    def of(cls, *edges):
        """Build from edges listed with repetition, e.g. ``of((0,1), (0,1))``.

        Endpoints must be integers; anything else is a :class:`DomainError`.
        """
        counts = {}
        for u, v in edges:
            u, v = as_int(u, "vertex id"), as_int(v, "vertex id")
            if u == v:
                raise DomainError("edge endpoints must differ")
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
        return cls(items=tuple(sorted(counts.items())))

    @classmethod
    def from_string(cls, text):
        """Parse ``"0-1,0-1,1-2"`` (an edge per comma-separated ``u-v``).

        A part that is not two integers joined by one ``-`` (``a-b``,
        ``0-1-2``, ``0-``) is a :class:`DomainError`.
        """
        edges = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                u, v = (int(end) for end in part.split("-"))
            except ValueError:
                raise DomainError("not an edge u-v: %r" % part) from None
            edges.append((u, v))
        return cls.of(*edges)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.items)

    @property
    def support(self):
        return tuple(e for e, _ in self.items)

    def __str__(self):
        return ",".join("%d-%d" % e for e, m in self.items for _ in range(m))


def boundary_edge_multiset(tree, subset) -> EdgeMultiset:
    """The edges joining ``subset`` to the rest of the tree, once each.

    This is the distinguished multiset at ``p == 0``: the lowest-order
    non-vanishing derivative of nu(S) takes one partial per boundary
    edge.  For connected S its size equals the outer boundary's size.
    """
    s = subset.bits
    edges = [e for e in tree.edges if ((s >> e[0]) & 1) != ((s >> e[1]) & 1)]
    return EdgeMultiset.of(*edges)


def subtree_edge_multiset(tree, subset) -> EdgeMultiset:
    """The edges of the minimal subtree spanning ``subset``, once each.

    This is the distinguished multiset at ``p == 1``: the lowest-order
    non-vanishing derivative of nu(S) takes one partial per spanning
    subtree edge.
    """
    closure = spanning_subtree(tree, subset).bits
    edges = [
        e
        for e in tree.edges
        if (closure >> e[0]) & 1 and (closure >> e[1]) & 1
    ]
    return EdgeMultiset.of(*edges)


def _log_partial_terms(mults):
    """Faà di Bruno's formula for a mixed partial of ``log P``, P multilinear.

    The partial takes ``mults[i]`` derivatives in direction i.  It is the
    sum, over the set partitions pi of those derivatives, of
    ``(-1)**(|pi| - 1) * (|pi| - 1)! * prod_B a_B / a_0**|pi|``, where
    ``a_B`` is P's partial in the derivatives of block B.  A block that
    names one direction twice has ``a_B = 0``, as P is multilinear, so it
    is never built.  Returns ``(coefficient, blocks)`` per remaining
    partition, each block the mask of its directions.
    """
    partitions = [()]
    for i, m in enumerate(mults):
        bit = 1 << i
        for _ in range(m):
            grown = []
            for blocks in partitions:
                # the next derivative opens a block or joins one without its direction
                grown.append(blocks + (bit,))
                grown += (
                    blocks[:j] + (b | bit,) + blocks[j + 1 :]
                    for j, b in enumerate(blocks)
                    if not b & bit
                )
            partitions = grown
    return [((-1) ** (len(pi) - 1) * math.factorial(len(pi) - 1), pi) for pi in partitions]


def _jet_partial(tree, base, subset, field, slots, mults):
    """Mixed partial of nu(S) at ``base``, ``mults[i]`` times in entry
    ``slots[i]`` of its ``field`` (``"p"`` or ``"r"``).

    The one derivative core behind :func:`d_nu_dp` and :func:`d_nu_dr`:
    it checks the request (a vertex law of 0, which has no log, is the
    :class:`DomainError` of :func:`~treerep.signed_measure.nu_full`) and
    plants ``eps_i``, an object array ``[0, 1]`` of shape
    ``(2,) + (1,) * (i + 1)``, in slot i of the integer weights of
    :func:`~treerep.chain_model.scaled_params`.  With ``p_e = c/d`` on the
    edge above ``v`` and ``r_v = a/b``, ``p_e + eps`` scales to
    ``p = c + d*eps`` and ``copy = ((d - c) - d*eps) * b_v``, and
    ``r_v + eps`` to ``r = a + b*eps`` and ``rbar = (b - a) - b*eps``.
    The sweep's keep rows put the event masks on the last axis, so one
    :func:`~treerep.chain_model.prob_all_zero_many` call returns a
    ``(2^k, events)`` table of ``den * P``: row T is the corner with
    ``eps_i = 1`` for the slots i in T.  The empty event needs no case of
    its own, as ``copy + p * (r + rbar)`` does not depend on ``eps`` and
    its column is ``den`` throughout.  Differences along each corner
    axis turn the table into the coefficients ``a_T`` of every event,
    which :func:`_log_partial_terms` combines, event by event, over the
    common denominator ``a_0**order``.  Events go ``_SET_BLOCK >> k`` to
    a call, so no call holds more than ``_SET_BLOCK`` values.
    """
    if not subset.bits:
        raise DomainError("subset must be nonempty")
    order = sum(mults)
    if order == 0:
        raise DomainError(
            "derivative needs at least one %s" % ("edge" if field == "p" else "vertex")
        )
    if order > DEFAULT_JET_CAP:
        raise DomainError("jet cap exceeded: order %d > cap %d" % (order, DEFAULT_JET_CAP))
    w = scaled_params(tree, base)
    _require_positive_r(w)
    if not is_connected(tree, subset):
        return Fraction(0)
    r, rbar, p, copy = list(w.r), list(w.rbar), list(w.p), list(w.copy)
    k = len(slots)
    for i, slot in enumerate(slots):
        # slot i's axis has stride 2^i among the corners; the last axis is the masks'
        eps = np.array([0, 1], dtype=object).reshape((2,) + (1,) * (i + 1))
        if field == "p":
            v = tree.parent_edge.index(slot)
            d = base.p[slot].denominator
            p[v] = p[v] + d * eps
            copy[v] = copy[v] - d * base.r[v].denominator * eps
        else:
            b = base.r[slot].denominator
            r[slot] = r[slot] + b * eps
            rbar[slot] = rbar[slot] - b * eps
    weights = w._replace(r=tuple(r), rbar=tuple(rbar), p=tuple(p), copy=tuple(copy))
    events = connected_log_events(tree, subset)
    if sum(sign for sign, _ in events):
        raise AssertionError("boundary events must split evenly between the signs")
    terms = _log_partial_terms(mults)
    total = Fraction(0)
    block = _SET_BLOCK >> k
    for lo in range(0, len(events), block):
        chunk = events[lo : lo + block]
        masks = np.array([bits for _, bits in chunk], dtype=np.int64)
        corners = prob_all_zero_many(tree, weights, masks)
        table = np.ascontiguousarray(corners).reshape(1 << k, len(chunk))
        for b in range(k):
            level = table.reshape(-1, 2, 1 << b, len(chunk))
            level[:, 1] -= level[:, 0]
        for (sign, _), a in zip(chunk, table.T.tolist()):
            powers = [a[0] ** j for j in range(order + 1)]
            num = sum(
                c * powers[order - len(pi)] * math.prod(a[t] for t in pi) for c, pi in terms
            )
            total += sign * Fraction(num, powers[order])
    return total


def d_nu_dp(tree, params, subset, edges, at="params"):
    """Exact mixed partial of nu(S) in edge parameters.

    ``edges`` is an :class:`EdgeMultiset` (or anything ``EdgeMultiset.of``
    accepts, listed with repetition); the derivative is
    ``d^|E| nu(S) / prod_e dp_e^mult(e)`` evaluated at ``at``:
    ``"params"`` (the given edge values), ``"p0"`` (every p_e = 0) or
    ``"p1"`` (every p_e = 1).  Vertex laws always come from ``params``
    and must be positive.  Returns a Fraction; disconnected sets give 0
    since their measure vanishes identically.  An edge that is not in
    the tree is a :class:`DomainError`.
    """
    multiset = edges if isinstance(edges, EdgeMultiset) else EdgeMultiset.of(*edges)
    slots = [tree.edge_index(u, v) for u, v in multiset.support]
    if at == "params":
        base_p = params.p
    elif at == "p0":
        base_p = (Fraction(0),) * len(tree.edges)
    elif at == "p1":
        base_p = (Fraction(1),) * len(tree.edges)
    else:
        raise DomainError('at must be "params", "p0" or "p1"')
    mults = tuple(m for _, m in multiset.items)
    base = ChainParams(r=params.r, p=base_p)
    return _jet_partial(tree, base, subset, "p", slots, mults)


def d_nu_dr(tree, params, subset, vertices, at="params"):
    """Exact mixed partial of nu(S) in vertex laws.

    ``vertices`` is a multiset given as an iterable with repetition
    (``[0, 0, 3]``) or a ``{vertex: multiplicity}`` mapping.  Vertices
    must be integer ids of the tree and multiplicities nonnegative
    integers; anything else, a bool or ``1.5`` included, is a
    :class:`DomainError`.  ``at`` is ``"params"`` (the given vertex
    laws, all positive) or ``"r1"`` (every r_v = 1, where the chain is
    frozen at zero and the constant terms are exactly 1).  Edge
    parameters always come from ``params``.
    """
    pairs = vertices.items() if isinstance(vertices, dict) else ((v, 1) for v in vertices)
    counts = {}
    for v, m in pairs:
        v, m = as_int(v, "vertex"), as_int(m, "multiplicity")
        if not 0 <= v < tree.n:
            raise DomainError("vertex %d outside the tree" % v)
        if m < 0:
            raise DomainError("vertex %d has negative multiplicity %d" % (v, m))
        if m:
            counts[v] = counts.get(v, 0) + m
    if at == "params":
        base = params
    elif at == "r1":
        base = ChainParams(r=(Fraction(1),) * tree.n, p=params.p)
    else:
        raise DomainError('at must be "params" or "r1"')
    support = sorted(counts)
    mults = tuple(counts[v] for v in support)
    return _jet_partial(tree, base, subset, "r", support, mults)


def closed_form_p0(b, r) -> Fraction:
    """Leading boundary-edge derivative of nu(S) at ``p == 0``.

    For connected S with outer boundary of size ``b`` and uniform vertex
    law ``r``, the mixed partial in the ``b`` boundary edges equals

        (1 - r) * r**(b - 1),

    which is positive on all of (0, 1).  It follows from the
    boundary-only identity: when only the b boundary edges resample
    (every other ``p_e == 0``), S and each subtree hanging off it are
    constant blocks and

        nu(S) = log(1 + (1-r)/r * prod_j p_j r / (1 - p_j (1-r))).

    An edge with ``p_e == 0`` makes its outer vertex copy its neighbour
    in S, so every monomial of nu(S) contains all b boundary edges, and
    the coefficient of their product is the one read off above.  The
    reference expression :func:`treerep.thresholds.f_k`, which subtracts
    a complementary-Bell term and is kept for the threshold table, is
    not this coefficient for b >= 3.  A ``b`` that is not an integer
    is a :class:`DomainError`, so the result is always a Fraction.
    """
    if as_int(b, "outer boundary size") < 2:
        raise DomainError("outer boundary must have at least 2 vertices")
    r = as_fraction(r)
    if not 0 < r < 1:
        raise DomainError("r must lie strictly inside (0, 1)")
    return (1 - r) * r ** (b - 1)


def closed_form_p1(tree, subset, r) -> Fraction:
    """Leading subtree-edge derivative of nu(S) at ``p == 1``.

    For connected S with at least two vertices and uniform vertex law
    ``r``, the mixed partial in the edges of the induced subtree T_S is

        (-1)**|E(T_S)| * (1-r)/r * prod_{j >= 2} (-f_poly(j, r))**k_j

    with ``k_j`` the number of degree-j vertices of T_S.  Degree-2
    vertices contribute factor 1 exactly, so subdividing edges never
    changes the value; the sign flips of the degree-j factor are what
    the ``r1(j)`` thresholds track.
    """
    if not is_connected(tree, subset) or len(subset) < 2:
        raise DomainError("subset must be connected with at least 2 vertices")
    r = as_fraction(r)
    if not 0 < r < 1:
        raise DomainError("r must lie strictly inside (0, 1)")
    s = subset.bits  # connected, so its own spanning subtree
    value = Fraction(-1) ** (s.bit_count() - 1) * (1 - r) / r
    for v in subset:
        j = (tree.neighbor_masks[v] & s).bit_count()
        if j >= 2:
            value *= -f_poly(j, r)
    return value


def d_nu_dr_octopus(m, p_first, p_second) -> Fraction:
    """Center-law derivative of nu(center + inner ring) on octopus(m, 2).

    At ``r == 1`` every first-order vertex-law derivative of nu(S)
    vanishes except the center's, which factors over the arms:

        d nu(S) / d r_center |_{r == 1} = -prod_j (1 - p_{j,1}) * p_{j,2}

    where ``p_first[j]`` is the center-to-inner edge of arm j and
    ``p_second[j]`` the inner-to-leaf edge.  :func:`d_nu_dr`'s value for the
    same derivative on the depth-2 truncation must (and does) agree
    exactly; see the companion tests.  An ``m`` that is not an integer
    is a :class:`DomainError`.
    """
    if as_int(m, "octopus arm count") < 3:
        raise DomainError("octopus needs at least 3 arms")
    p_first = [as_fraction(x) for x in p_first]
    p_second = [as_fraction(x) for x in p_second]
    if len(p_first) != m or len(p_second) != m:
        raise DomainError("need one (p_{j,1}, p_{j,2}) pair per arm")
    for x in p_first + p_second:
        if not 0 <= x <= 1:
            raise DomainError("edge parameters must lie in [0, 1]")
    value = Fraction(-1)
    for a, b in zip(p_first, p_second):
        value *= (1 - a) * b
    return value


def closed_form(tree, params, subset, at, multiset):
    """The closed form that the partial of nu(S) at ``at`` must match, or None.

    ``multiset`` is the derivative's: an :class:`EdgeMultiset` at
    ``"p0"`` and ``"p1"``, vertex ids with repetition at ``"r1"``.  With
    a uniform vertex law and S connected, S's boundary edges (two or
    more) at ``"p0"`` give :func:`closed_form_p0`, and the edges of its
    spanning subtree (|S| >= 2) at ``"p1"`` give :func:`closed_form_p1`.
    At ``"r1"``, when the tree's edges are those of ``octopus(m, 2)``,
    m the root's child count, S is the center plus the inner ring and
    the multiset is the center once, :func:`d_nu_dr_octopus` applies.
    Anything else, a vertex law outside (0, 1) at ``"p0"`` and ``"p1"``
    included, gets None, not a guess.
    """
    if at == "r1":
        m = len(tree.children[tree.root])
        inner = range(1, 2 * m, 2)
        arms = {(0, v) for v in inner} | {(v, v + 1) for v in inner}
        if m < 3 or set(tree.edges) != arms or subset != VertexSet.of(0, *inner):
            return None
        if list(multiset) != [0]:
            return None
        p_first = [params.p[tree.edge_index(0, v)] for v in inner]
        p_second = [params.p[tree.edge_index(v, v + 1)] for v in inner]
        return d_nu_dr_octopus(m, p_first, p_second)
    if len(set(params.r)) != 1 or not 0 < params.r[0] < 1 or not is_connected(tree, subset):
        return None
    if at == "p0" and multiset == boundary_edge_multiset(tree, subset) and multiset.total >= 2:
        return closed_form_p0(multiset.total, params.r[0])
    if at == "p1" and multiset == subtree_edge_multiset(tree, subset) and len(subset) >= 2:
        return closed_form_p1(tree, subset, params.r[0])
    return None
