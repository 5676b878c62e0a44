"""Independent oracles that the tests check the engine against."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from treerep.chain_model import Weights, as_fraction, prob_all_zero, scaled_params
from treerep.signed_measure import MeasureValue, connected_log_events, signed_products
from treerep.tree_core import DomainError, VertexSet, is_connected


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
            if c not in top or tree.depth[v] < tree.depth[top[c]]:
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


def _pair(x):
    value = MeasureValue.from_ratio(x)
    return value.num, value.den


class FractionJet:
    """Reference for ``param_calculus.DualValue``: a dict of Fraction terms.

    ``terms`` maps exponent tuples to Fraction coefficients.  Monomials
    whose exponent exceeds the per-direction ``caps`` or whose total
    degree exceeds ``order`` are dropped when a product makes them.
    Mixes with ints and Fractions on either side.
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
        unit = tuple(1 if i == slot else 0 for i in range(len(caps)))
        terms = {(0,) * len(caps): as_fraction(base), unit: Fraction(1)}
        return cls(caps, order, terms)

    @property
    def constant_term(self):
        return self.terms.get((0,) * len(self.caps), Fraction(0))

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), Fraction(0))

    def _lift(self, other):
        if isinstance(other, FractionJet):
            if other.caps != self.caps or other.order != self.order:
                raise ValueError("jets from different truncated rings")
            return other
        return FractionJet.constant(self.caps, self.order, other)

    def __add__(self, other):
        other = self._lift(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return FractionJet(self.caps, self.order, terms)

    __radd__ = __add__

    def __neg__(self):
        return FractionJet(self.caps, self.order, {e: -c for e, c in self.terms.items()})

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
        return FractionJet(caps, order, out)

    __rmul__ = __mul__

    def log_series(self):
        """``log(self) - log(constant term)`` by the terminating series."""
        c = self.constant_term
        if c <= 0:
            raise DomainError("log needs a positive constant term")
        t = self * (Fraction(1) / c) - 1
        out = FractionJet.constant(self.caps, self.order, 0)
        power = t
        k = 1
        while k <= self.order and power.terms:
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
    order = sum(mults)
    values = getattr(base, field)
    jet = list(values)
    for pos, slot in enumerate(slots):
        jet[slot] = FractionJet.variable(mults, order, pos, values[slot])
    weights = ring_weights(tree, replace(base, **{field: tuple(jet)}))
    even, odd = signed_products(
        connected_log_events(tree, subset),
        lambda bits: prob_all_zero(tree, weights, VertexSet(bits)),
    )
    zero = FractionJet.constant(mults, order, 0)
    series = (zero + even).log_series() - (zero + odd).log_series()
    return series.coefficient(mults) * math.prod(math.factorial(m) for m in mults)
