"""Exact parameter derivatives of the signed measure via truncated jets.

Every probability the chain produces is a polynomial in the edge
parameters ``p_e`` and vertex laws ``r_v`` (multilinear in each), so
running the message-passing recursion on truncated-polynomial
coefficients instead of plain rationals yields exact mixed partials —
no finite differences, no floats.  The sweep runs on the integer
encoding the verdicts use, :func:`~treerep.chain_model.scaled_params`,
with a jet variable planted in each differentiated entry, so it returns
``den * P`` as a :class:`DualValue` with int coefficients, stored
densely.  nu(S) comes from the verdicts' own
:func:`~treerep.signed_measure.signed_products` on those jets, and only
its two products go through a logarithm, where ``den`` cancels.  Inside
the truncated algebra ``log u = log c + log1p(u/c - 1)``; the second
term is a terminating series, because ``u/c - 1`` is nilpotent, and it
turns products into sums.  It is the one place that builds Fractions.
The constant terms are ``den`` times probabilities of all-zero events,
positive whenever every ``r_v`` is (and ``den`` itself when ``r == 1``),
so the series is always legal.

The closed forms at the degenerate base points ``p == 0`` and ``p == 1``
live here as well, next to the jet oracle that certifies them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .chain_model import ChainParams, as_fraction, prob_all_zero, scaled_params
from .signed_measure import _require_positive_r, connected_log_events, signed_products
from .thresholds import f_poly
from .tree_core import DomainError, VertexSet, _nonnegative, as_int, is_connected, spanning_subtree

DEFAULT_JET_CAP = 6


class _Layout:
    """The dense layout of one truncated ring, built once per ``caps``.

    ``exponents[i]`` is the monomial stored at index ``i``, in mixed-radix
    order over ``caps`` (the last direction varies fastest); ``index``
    inverts it.  ``rows[i]`` lists the ``(j, k)`` pairs whose product
    ``exponents[i] * exponents[j]`` is ``exponents[k]`` inside the ring,
    built in time proportional to the pairs listed.
    """

    __slots__ = ("caps", "exponents", "index", "rows")

    def __init__(self, caps):
        self.caps = caps
        self.exponents = list(itertools.product(*(range(cap + 1) for cap in caps)))
        self.index = {e: i for i, e in enumerate(self.exponents)}
        # Exponents inside the caps add digit by digit with no carry, so
        # their positions add too: i * j lands at i + j.
        rows = []
        for i, e1 in enumerate(self.exponents):
            fits = itertools.product(*(range(cap - d + 1) for cap, d in zip(caps, e1)))
            rows.append(tuple((self.index[e2], i + self.index[e2]) for e2 in fits))
        self.rows = tuple(rows)


@functools.lru_cache(maxsize=64)
def _ring_layout(caps):
    return _Layout(caps)


def _scalar(x):
    """An int or Fraction as it is; anything else through :func:`as_fraction`."""
    return x if type(x) in (int, Fraction) else as_fraction(x)


class DualValue:
    """Polynomial in named infinitesimal directions, truncated per direction.

    The ring is Q[e_1..e_k] modulo every monomial whose exponent in some
    direction exceeds its entry of ``caps``; it is closed under +, - and
    *.  Coefficients are stored densely in ``coeffs``, one per exponent
    tuple in mixed-radix order over ``caps`` (the last direction varies
    fastest).  A product runs through the pair table of the ring's
    layout, built once per ``caps``.  Coefficients are ints or
    Fractions, and ints stay ints: a jet over integer weights builds no
    Fraction until :meth:`log_series` divides.

    Instances mix freely with ints and Fractions on either side, which
    is what lets :func:`treerep.chain_model.prob_all_zero` run on jets
    unchanged.  ``terms`` maps each exponent tuple with a nonzero
    coefficient to that coefficient; a term outside the ring, or caps
    that are not nonnegative integers, is a :class:`DomainError`.
    """

    __slots__ = ("_layout", "coeffs")

    def __init__(self, caps, terms):
        caps = tuple(_nonnegative(cap, "jet cap") for cap in caps)
        self._layout = layout = _ring_layout(caps)
        self.coeffs = [0] * len(layout.exponents)
        for e, c in terms.items():
            i = layout.index.get(e)
            if i is None:
                raise DomainError("monomial %r is outside the ring with caps %s" % (e, caps))
            self.coeffs[i] = _scalar(c)

    def _new(self, coeffs):
        out = object.__new__(DualValue)
        out._layout = self._layout
        out.coeffs = coeffs
        return out

    @classmethod
    def constant(cls, caps, value):
        return cls(caps, {(0,) * len(caps): value})

    @classmethod
    def variable(cls, caps, slot, base=0):
        """``base + eps_slot`` as a jet; ``eps_slot`` is 0 when its cap is
        0.  A slot outside ``range(len(caps))`` is a :class:`DomainError`."""
        out = cls.constant(caps, base)
        slot = as_int(slot, "jet slot")
        if not 0 <= slot < len(out.caps):
            raise DomainError("jet slot %d outside the %d directions" % (slot, len(out.caps)))
        unit = out._layout.index.get(tuple(int(i == slot) for i in range(len(out.caps))))
        if unit is not None:
            out.coeffs[unit] = 1
        return out

    @property
    def caps(self):
        return self._layout.caps

    @property
    def terms(self):
        exponents = self._layout.exponents
        return {exponents[i]: c for i, c in enumerate(self.coeffs) if c}

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.coeffs[0])

    def coefficient(self, exponents) -> Fraction:
        i = self._layout.index.get(tuple(exponents))
        return Fraction(0 if i is None else self.coeffs[i])

    def _lift(self, other):
        """``other``'s coefficients in this ring; a scalar is returned as one."""
        if isinstance(other, DualValue):
            if other._layout is not self._layout and other.caps != self.caps:
                raise ValueError("jets from different truncated rings")
            return other.coeffs
        return _scalar(other)

    def _termwise(self, other, op):
        other = self._lift(other)
        if isinstance(other, list):
            return self._new(list(map(op, self.coeffs, other)))
        coeffs = list(self.coeffs)
        coeffs[0] = op(coeffs[0], other)
        return self._new(coeffs)

    def __add__(self, other):
        return self._termwise(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        return self._termwise(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if not isinstance(other, list):
            return self._new([other * c for c in self.coeffs])
        out = [0] * len(other)
        for a, row in zip(self.coeffs, self._layout.rows):
            if a:
                for j, k in row:
                    b = other[j]
                    if b:
                        out[k] += a * b
        return self._new(out)

    __rmul__ = __mul__

    def log_series(self):
        """``log(self) - log(constant term)``, exact in the truncated ring.

        The constant term ``c`` must be positive.  With ``t = self - c``,
        nilpotent and on the coefficients' own type, the series is
        ``sum_k (-1)**(k+1) t**k / (k c**k)``; only that division builds
        Fractions.  Only the polynomial part of the log is representable
        over the rationals; the dropped ``log c`` is a constant, which no
        derivative sees.
        """
        c = self.coeffs[0]
        if c <= 0:
            raise DomainError("log needs a positive constant term")
        t = self - c
        out = self._new([0] * len(self.coeffs))
        power = t
        k = 1
        while any(power.coeffs):
            out = out + power * Fraction((-1) ** (k + 1), k * c**k)
            power = power * t
            k += 1
        return out

    def __eq__(self, other):
        if isinstance(other, DualValue):
            return self.caps == other.caps and self.coeffs == other.coeffs
        try:
            other = _scalar(other)
        except DomainError:
            return NotImplemented
        return self.coeffs[0] == other and not any(self.coeffs[1:])

    __hash__ = None

    def __repr__(self):
        body = ", ".join("%s: %s" % (e, c) for e, c in self.terms.items())
        return "DualValue(caps=%s, {%s})" % (self.caps, body)


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


def _jet_partial(tree, base, subset, field, slots, mults):
    """Mixed partial of nu(S) at ``base``, ``mults[i]`` times in entry
    ``slots[i]`` of its ``field`` (``"p"`` or ``"r"``).

    The one derivative core behind :func:`d_nu_dp` and :func:`d_nu_dr`:
    it checks the request (a vertex law of 0, which has no log, is the
    :class:`DomainError` of :func:`~treerep.signed_measure.nu_full`),
    plants a jet variable in each slot of the integer weights of
    :func:`~treerep.chain_model.scaled_params` and reads the coefficient
    off the log series of nu(S)'s two signed products.  With
    ``p_e = c/d`` on the edge above ``v`` and ``r_v = a/b``,
    ``p_e + eps`` scales to ``p = c + d*eps`` and
    ``copy = ((d - c) - d*eps) * b_v``, and ``r_v + eps`` to
    ``r = a + b*eps`` and ``rbar = (b - a) - b*eps``; every sweep then
    returns ``den * P(eps)`` on int coefficients.  The + and - events are
    equally many, so ``den`` cancels, and the log series drops constants.
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
    for pos, slot in enumerate(slots):
        eps = DualValue.variable(mults, pos)
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
    even, odd = signed_products(
        connected_log_events(tree, subset),
        lambda bits: prob_all_zero(tree, weights, VertexSet(bits)),
    )
    zero = DualValue.constant(mults, 0)
    series = (zero + even).log_series() - (zero + odd).log_series()
    return series.coefficient(mults) * math.prod(math.factorial(m) for m in mults)


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
