"""The one-pass vertex-set routines against oracles written from scratch.

``is_connected``, ``connected_log_events`` and ``spanning_subtree`` read
the neighbour masks that ``build_tree`` stores once.  Each is checked on
every subset of 40 seeded random trees of 1-9 vertices against a
recomputation that walks neighbour lists read off ``edges``, and
``parent``, directly.
"""

import random

import pytest

from treerep.signed_measure import connected_log_events
from treerep.tree_core import DomainError, VertexSet, is_connected, spanning_subtree

from conftest import random_tree
from oracles import depths, neighbors

TREES = [random_tree(random.Random(seed), 1 + seed % 9) for seed in range(40)]
EACH_TREE = pytest.mark.parametrize(
    "tree", TREES, ids=["seed%d-n%d" % (seed, t.n) for seed, t in enumerate(TREES)]
)


def _bfs_connected(nbrs, bits):
    if bits == 0:
        return True
    start = (bits & -bits).bit_length() - 1
    seen = {start}
    queue = [start]
    for v in queue:
        for w in nbrs[v]:
            if bits >> w & 1 and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == bits.bit_count()


def _path(tree, depth, u, w):
    """Vertices on the tree path from u to w, by climbing parents."""
    on_path = {u, w}
    while u != w:
        if depth[u] < depth[w]:
            u, w = w, u
        u = tree.parent[u]
        on_path.add(u)
    return on_path


def _events_from_boundaries(nbrs, bits):
    """(sign, mask) events of nu(S): J over subsets of lam, ascending.

    lam holds the inner boundary (members with a neighbour outside S)
    and the leaves of the subtree induced on S; outer is the set of
    non-members next to S.
    """
    lam = outer = 0
    for v in VertexSet(bits):
        inside = [w for w in nbrs[v] if bits >> w & 1]
        if len(inside) <= 1 or len(inside) < len(nbrs[v]):
            lam |= 1 << v
        outer |= VertexSet.from_iter(w for w in nbrs[v] if not bits >> w & 1).bits
    return [
        (-1 if j.bit_count() % 2 else 1, j | outer)
        for j in range(lam + 1)
        if j & lam == j
    ]


@EACH_TREE
def test_stored_masks_and_parent_edges(tree):
    nbrs = neighbors(tree)
    for v in range(tree.n):
        assert tree.neighbor_masks[v] == VertexSet.from_iter(nbrs[v]).bits
        if v == tree.root:
            assert tree.parent_edge[v] == -1
        else:
            assert tree.parent_edge[v] == tree.edge_index(tree.parent[v], v)


@EACH_TREE
def test_is_connected_matches_bfs(tree):
    nbrs = neighbors(tree)
    for bits in range(1 << tree.n):
        assert is_connected(tree, VertexSet(bits)) == _bfs_connected(nbrs, bits)


@EACH_TREE
def test_connected_log_events_match_boundaries_plus_leaves(tree):
    with pytest.raises(DomainError, match="nonempty"):
        connected_log_events(tree, VertexSet())
    nbrs = neighbors(tree)
    for bits in range(1, 1 << tree.n):
        if _bfs_connected(nbrs, bits):
            expected = _events_from_boundaries(nbrs, bits)
            assert connected_log_events(tree, VertexSet(bits)) == expected
        else:
            with pytest.raises(DomainError, match="connected"):
                connected_log_events(tree, VertexSet(bits))


@EACH_TREE
def test_spanning_subtree_matches_paths_between_members(tree):
    depth = depths(tree)
    for bits in range(1, 1 << tree.n):
        members = tuple(VertexSet(bits))
        closure = set().union(*(_path(tree, depth, u, w) for u in members for w in members))
        assert spanning_subtree(tree, VertexSet(bits)) == VertexSet.from_iter(closure)
