"""Independent oracles that the tests check the engine against."""

from fractions import Fraction

from treerep.tree_core import DomainError


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
