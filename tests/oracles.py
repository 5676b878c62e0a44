"""Independent oracles that the tests check the engine against."""

from fractions import Fraction

from treerep.chain_model import prob_all_zero, scaled_params
from treerep.signed_measure import MeasureValue
from treerep.tree_core import DomainError, VertexSet


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
