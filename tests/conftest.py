import random
from fractions import Fraction

from hypothesis import HealthCheck, settings

from treerep.chain_model import ChainParams
from treerep.tree_core import build_tree

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_tree(rng: random.Random, n: int):
    """Uniform random labelled tree on n vertices via a Prüfer sequence."""
    if n == 1:
        return build_tree([], root=0)
    if n == 2:
        return build_tree([(0, 1)], root=rng.randrange(2))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return build_tree(edges, root=rng.randrange(n))


def random_params(rng: random.Random, tree, denom=12, interior=True):
    """Random rational parameters; interior=True keeps them away from 0/1."""
    lo, hi = (1, denom - 1) if interior else (0, denom)
    r = tuple(Fraction(rng.randint(lo, hi), denom) for _ in range(tree.n))
    p = tuple(Fraction(rng.randint(lo, hi), denom) for _ in tree.edges)
    return ChainParams(r=r, p=p)


def mixed_params(rng, tree):
    """Each parameter over its own denominator, with r = 1 and p in {0, 1} mixed in."""

    def draw(lo, ends):
        if rng.random() < 0.15:
            return Fraction(rng.choice(ends))
        d = rng.randint(2, 31)
        return Fraction(rng.randint(lo, d), d)

    return ChainParams(
        r=tuple(draw(1, (1,)) for _ in range(tree.n)),
        p=tuple(draw(0, (0, 1)) for _ in tree.edges),
    )
