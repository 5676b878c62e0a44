"""Exact parameter derivatives of the signed measure via truncated jets.

Every probability the chain produces is a polynomial in the edge
parameters ``p_e`` and vertex laws ``r_v`` (multilinear in each), so
running the message-passing recursion on truncated-polynomial
coefficients instead of plain rationals yields exact mixed partials —
no finite differences, no floats.  nu(S) comes from the verdicts' own
:func:`~treerep.signed_measure.signed_products` on jet weights, and only
its two products go through a logarithm.  Inside the truncated algebra
``log u = log c + log1p(u/c - 1)``; the second term is a terminating
series, because ``u/c - 1`` is nilpotent, and it turns products into
sums.  The constant terms stay positive at every base point we
differentiate at (products of the ``r_v``, or exactly 1 when ``r == 1``),
so the series is always legal.

The closed forms at the degenerate base points ``p == 0`` and ``p == 1``
live here as well, next to the jet oracle that certifies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .chain_model import ChainParams, as_fraction, prob_all_zero, ring_weights
from .signed_measure import connected_log_events, signed_products
from .thresholds import f_poly
from .tree_core import DomainError, VertexSet, as_int, is_connected, spanning_subtree

DEFAULT_JET_CAP = 6


class DualValue:
    """Polynomial in named infinitesimal directions, truncated by degree.

    ``terms`` maps exponent tuples (one slot per direction) to rational
    coefficients.  Monomials whose exponent exceeds the per-direction
    ``caps`` or whose total degree exceeds ``order`` are dropped, i.e.
    the ring is Q[e_1..e_k] modulo those monomials.  The truncation is
    closed under +, - and *.

    Instances mix freely with ints and Fractions on either side, which
    is what lets :func:`treerep.chain_model.prob_all_zero` run on jets
    unchanged.
    """

    __slots__ = ("caps", "order", "terms")

    def __init__(self, caps, order, terms):
        self.caps = tuple(caps)
        self.order = order
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def constant(cls, caps, order, value):
        zero = (0,) * len(caps)
        return cls(caps, order, {zero: as_fraction(value)})

    @classmethod
    def variable(cls, caps, order, slot, base=0):
        """``base + eps_slot`` as a jet."""
        unit = tuple(1 if i == slot else 0 for i in range(len(caps)))
        terms = {(0,) * len(caps): as_fraction(base), unit: Fraction(1)}
        return cls(caps, order, terms)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.caps), Fraction(0))

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def _lift(self, other):
        if isinstance(other, DualValue):
            if other.caps != self.caps or other.order != self.order:
                raise ValueError("jets from different truncated rings")
            return other
        return DualValue.constant(self.caps, self.order, other)

    def __add__(self, other):
        other = self._lift(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return DualValue(self.caps, self.order, terms)

    __radd__ = __add__

    def __neg__(self):
        return DualValue(
            self.caps, self.order, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        caps, order = self.caps, self.order
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) > order or any(d > cap for d, cap in zip(e, caps)):
                    continue
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return DualValue(caps, order, out)

    __rmul__ = __mul__

    def log_series(self):
        """``log(self) - log(constant term)``, exact in the truncated ring.

        The constant term must be positive.  Only the polynomial part of
        the log is representable over the rationals; the dropped
        ``log c`` is a constant, which no derivative sees.
        """
        c = self.constant_term
        if c <= 0:
            raise DomainError("log needs a positive constant term")
        t = self * (Fraction(1) / c) - 1
        out = DualValue.constant(self.caps, self.order, 0)
        power = t
        k = 1
        while k <= self.order and power.terms:
            out = out + power * Fraction((-1) ** (k + 1), k)
            power = power * t
            k += 1
        return out

    def __eq__(self, other):
        if isinstance(other, DualValue):
            return (
                self.caps == other.caps
                and self.order == other.order
                and self.terms == other.terms
            )
        return self.terms == DualValue.constant(self.caps, self.order, other).terms

    __hash__ = None

    def __repr__(self):
        body = ", ".join(
            "%s: %s" % (e, c) for e, c in sorted(self.terms.items())
        )
        return "DualValue(caps=%s, order=%d, {%s})" % (self.caps, self.order, body)


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


def _jet_partial(tree, base, subset, field, slots, mults, degree_cap):
    """Mixed partial of nu(S) at ``base``, ``mults[i]`` times in entry
    ``slots[i]`` of its ``field`` (``"p"`` or ``"r"``).

    The one derivative core behind :func:`d_nu_dp` and :func:`d_nu_dr`:
    it checks the request, plants a jet variable in each slot and reads
    the coefficient off the log series of nu(S)'s two signed products.
    """
    if not subset.bits:
        raise DomainError("subset must be nonempty")
    order = sum(mults)
    if order == 0:
        raise DomainError(
            "derivative needs at least one %s" % ("edge" if field == "p" else "vertex")
        )
    if order > degree_cap:
        raise DomainError("jet cap exceeded: order %d > cap %d" % (order, degree_cap))
    if any(x <= 0 for x in base.r):
        raise DomainError("vertex laws must be positive for log derivatives")
    if not is_connected(tree, subset):
        return Fraction(0)
    values = getattr(base, field)
    jet = list(values)
    for pos, slot in enumerate(slots):
        jet[slot] = DualValue.variable(mults, order, pos, values[slot])
    weights = ring_weights(tree, replace(base, **{field: tuple(jet)}))
    even, odd = signed_products(
        connected_log_events(tree, subset),
        lambda bits: prob_all_zero(tree, weights, VertexSet(bits)),
    )
    zero = DualValue.constant(mults, order, 0)
    series = (zero + even).log_series() - (zero + odd).log_series()
    return series.coefficient(mults) * math.prod(math.factorial(m) for m in mults)


def d_nu_dp(tree, params, subset, edges, at="params", degree_cap=DEFAULT_JET_CAP):
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
    return _jet_partial(tree, base, subset, "p", slots, mults, degree_cap)


def d_nu_dr(tree, params, subset, vertices, at="params", degree_cap=DEFAULT_JET_CAP):
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
    return _jet_partial(tree, base, subset, "r", support, mults, degree_cap)


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
    closure = spanning_subtree(tree, subset).bits
    value = Fraction(-1) ** (closure.bit_count() - 1) * (1 - r) / r
    for v in VertexSet(closure):
        j = (tree.neighbor_masks[v] & closure).bit_count()
        if j >= 2:
            value *= -f_poly(j, r)
    return value


def d_nu_dr_octopus(m, p_first, p_second) -> Fraction:
    """Center-law derivative of nu(center + inner ring) on octopus(m, 2).

    At ``r == 1`` every first-order vertex-law derivative of nu(S)
    vanishes except the center's, which factors over the arms:

        d nu(S) / d r_center |_{r == 1} = -prod_j (1 - p_{j,1}) * p_{j,2}

    where ``p_first[j]`` is the center-to-inner edge of arm j and
    ``p_second[j]`` the inner-to-leaf edge.  The jet computation of the
    same derivative on the depth-2 truncation must (and does) agree
    exactly; see the companion tests.
    """
    if m < 3:
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
