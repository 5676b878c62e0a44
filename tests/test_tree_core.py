import random
import tracemalloc

import pytest

from treerep.tree_core import (
    DomainError,
    VertexSet,
    build_tree,
    connected_subsets,
    is_connected,
    octopus,
    path,
    spanning_subtree,
    spider,
    star,
    subdivide,
    tree_from_json,
    tree_to_json,
)

from conftest import random_tree


def test_vertex_set_basics():
    s = VertexSet.of(0, 2, 5)
    assert 2 in s and 1 not in s
    assert -1 not in s and -1 not in VertexSet(5)
    assert len(s) == 3
    assert tuple(s) == (0, 2, 5)
    assert (s | VertexSet.of(1)).bits == 0b100111
    assert tuple(s - VertexSet.of(2)) == (0, 5)
    assert not VertexSet.of(0, 2) - s
    assert not VertexSet()
    # ids are integers: never rounded, parsed from text or read off a bool
    for bad in (1.5, True, "1"):
        with pytest.raises(DomainError, match="vertex id must be an integer"):
            VertexSet.of(0, bad)
    with pytest.raises(DomainError, match="vertex ids are nonnegative integers"):
        VertexSet.of(-1)


def test_build_tree_validation():
    for edges, root, message in [
        # a cycle, two disjoint edges, a root past every id and sparse ids
        # all miss n - 1 edges, so the edge count refuses them first
        ([(0, 1), (1, 2), (2, 0)], 0, r"edge count 3 != n-1 = 2 \(cycle or missing vertices\)"),
        ([(0, 1), (2, 3)], 0, "edge count 2 != n-1 = 3"),
        ([(0, 1)], 5, "edge count 1 != n-1 = 5"),
        ([(0, 2)], 0, "edge count 1 != n-1 = 2"),
        # n - 1 edges that hold a cycle leave a vertex unreached
        ([(0, 1), (1, 2), (0, 2), (3, 4)], 0, "edge list is disconnected"),
        ([(0, 1)], -1, "root -1 not a vertex"),
        ([(0, 1), (0, 1)], 0, "duplicate edge 0-1"),
        ([(0, 0)], 0, "self-loop at vertex 0"),
        ([(0, -1)], 0, "vertex ids must be nonnegative"),
        ([(i, i + 1) for i in range(24)], 0, "tree order 25 exceeds cap 24"),
    ]:
        with pytest.raises(DomainError, match=message):
            build_tree(edges, root=root)
    # ids and the root are integers, never rounded or parsed from text
    for edges, root in [
        ([(0, 1.5)], 0),
        ([("a", "1")], 0),
        ([("0", "1")], 0),
        ([(0, True)], 0),
        ([(0, 1)], 0.5),
        ([(0, 1)], False),
    ]:
        with pytest.raises(DomainError, match="must be an integer"):
            build_tree(edges, root=root)


def test_build_tree_structure():
    t = build_tree([(0, 1), (1, 2), (1, 3)], root=1)
    assert t.n == 4 and t.root == 1
    assert t.parent[1] == -1
    assert sorted(t.children[1]) == [0, 2, 3]
    assert t.parent == (1, -1, 1, 1)
    assert t.neighbor_masks == (0b0010, 0b1101, 0b0010, 0b0010)
    assert t.preorder[0] == 1


def test_generators():
    assert path(1).n == 1 and path(1).edges == ()
    assert path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert star(4).edges == ((0, 1), (0, 2), (0, 3), (0, 4))
    # spider legs are consecutive id runs walking outward
    assert spider(3, 2).edges == ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))
    assert octopus(3, 2).edges == spider(3, 2).edges
    assert octopus(3, 2).n == 7
    assert spider(4, 1).edges == star(4).edges
    with pytest.raises(ValueError):
        octopus(2, 2)  # needs a branching center
    # sizes are integers: a float, a string or a bool is refused, not
    # rounded or read as 1
    for build, args in [
        (path, (2.5,)),
        (path, ("3",)),
        (star, (True,)),
        (star, (2.0,)),
        (spider, (2, 1.5)),
        (spider, (True, 2)),
        (octopus, (3.0, 2)),
        (octopus, (3, 2.0)),
    ]:
        with pytest.raises(DomainError, match="must be an integer"):
            build(*args)
    for build, args, message in [
        (path, (0,), "path needs at least one vertex"),
        (star, (0,), "star needs at least one leaf"),
        (spider, (0, 1), "spider needs k >= 1 legs of length >= 1"),
        (spider, (1, 0), "spider needs k >= 1 legs of length >= 1"),
    ]:
        with pytest.raises(DomainError, match=message):
            build(*args)


def test_is_connected():
    t = path(5)
    assert is_connected(t, VertexSet.of(1, 2, 3))
    assert not is_connected(t, VertexSet.of(0, 2))
    assert is_connected(t, VertexSet.of(4))
    assert is_connected(t, VertexSet())
    s = spider(3, 2)
    assert is_connected(s, VertexSet.of(0, 1, 3, 5))
    assert not is_connected(s, VertexSet.of(1, 3))
    for routine in (is_connected, spanning_subtree):
        with pytest.raises(DomainError, match="subset contains ids outside the tree"):
            routine(t, VertexSet.of(0, 5))
    with pytest.raises(DomainError, match="subset must be nonempty"):
        spanning_subtree(t, VertexSet())


def test_spanning_subtree_path_endpoints():
    t = path(4)
    assert tuple(spanning_subtree(t, VertexSet.of(0, 3))) == (0, 1, 2, 3)


def test_spanning_subtree_star_pair():
    t = star(3)
    assert tuple(spanning_subtree(t, VertexSet.of(1, 2))) == (0, 1, 2)


def test_spanning_subtree_removable_fixture():
    # 8-vertex tree: path 0-1-2-3 with hairs 1-4-5 and 2-6-7.
    # For S = {1,3,5,7} the spanning subtree covers 1..7 but not 0.
    t = build_tree([(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6), (6, 7)])
    closure = spanning_subtree(t, VertexSet.of(1, 3, 5, 7))
    assert tuple(closure) == (1, 2, 3, 4, 5, 6, 7)


def test_spanning_subtree_singleton():
    t = path(3)
    assert tuple(spanning_subtree(t, VertexSet.of(1))) == (1,)


def test_subdivide_counts_and_contraction():
    t = path(3)
    t2, originals = subdivide(t, 2)
    assert t2.n == (t.n - 1) * 2 + 1
    assert tuple(originals) == (0, 1, 2)
    # walking each stretched edge and contracting recovers the original
    assert _contract(t2, originals) == set(t.edges)

    s = star(3)
    s3, orig = subdivide(s, 3)
    assert s3.n == (s.n - 1) * 3 + 1
    assert _contract(s3, orig) == set(s.edges)

    same, orig1 = subdivide(t, 1)
    assert same.edges == t.edges

    # the order n + (k-1)(n-1) is capped before any vertex is built
    assert subdivide(path(2), 23)[0].n == 24
    for tree, k in [(path(2), 24), (path(3), 10**9)]:
        with pytest.raises(DomainError, match="subdivided order"):
            subdivide(tree, k)
    for k in (2.5, 2.0, "2", True):
        with pytest.raises(DomainError, match="k must be an integer"):
            subdivide(t, k)
    with pytest.raises(DomainError, match="k must be >= 1"):
        subdivide(t, 0)


def _contract(tree, originals):
    """Contract degree-2 subdivision vertices back into original edges."""
    found = set()
    for start in originals:
        for nxt in VertexSet(tree.neighbor_masks[start]):
            prev, cur = start, nxt
            while cur not in originals:
                step = [w for w in VertexSet(tree.neighbor_masks[cur]) if w != prev]
                prev, cur = cur, step[0]
            if start < cur:
                found.add((start, cur))
    return found


def test_connected_subsets_counts():
    # path(n): one interval per (start, end) pair
    for n in (1, 2, 4, 6):
        sets = list(connected_subsets(path(n)))
        assert len(sets) == n * (n + 1) // 2
        assert len(set(sets)) == len(sets)
    # star(k): center with any leaf subset, else single leaves
    for k in (2, 3, 5):
        sets = list(connected_subsets(star(k)))
        assert len(sets) == 2**k + k
    # brute force: every connected mask exactly once, on random trees
    # with random roots, a long path, a wide star, a spider, a broom (a
    # 5-vertex path with 8 leaves on its last vertex) and an irregular tree
    rng = random.Random(20261020)
    broom = build_tree([(i, i + 1) for i in range(4)] + [(4, 5 + j) for j in range(8)])
    trees = [random_tree(rng, n) for n in range(1, 13) for _ in range(3)]
    trees += [path(12), star(10), spider(3, 2), broom]
    trees.append(build_tree([(0, 1), (1, 2), (1, 3), (3, 4)]))
    for t in trees:
        expect = [bits for bits in range(1, 1 << t.n) if is_connected(t, VertexSet(bits))]
        assert sorted(connected_subsets(t)) == expect


def test_connected_subsets_streams():
    # star(16) has 65,552 connected sets, a list of them over 2 MiB; the
    # generator holds one chain of nested frames, about 12 KiB
    t = star(16)
    tracemalloc.start()
    try:
        count = sum(1 for _ in connected_subsets(t))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2**16 + 16 and peak < 64 << 10


def test_json_round_trip():
    t = spider(3, 2)
    text = tree_to_json(t)
    back = tree_from_json(text)
    assert back == t
    with pytest.raises(ValueError):
        tree_from_json('{"n": 9, "root": 0, "edges": [[0,1]]}')


@pytest.mark.parametrize(
    "text",
    [
        "",
        "{edges: []}",
        "[[0, 1]]",
        "{}",
        '{"edges": 3}',
        '{"edges": [0, 1]}',
        '{"edges": [[0, 1, 2]]}',
        '{"edges": [["0", "1"]]}',
        '{"edges": [[0, 1.0]]}',
        '{"edges": [[0, true]]}',
        '{"edges": [[0, 1]], "n": "x"}',
        '{"edges": [[0, 1]], "n": 2.0}',
        '{"edges": [[0, 1]], "root": "x"}',
        '{"edges": [[0, 1]], "root": 0.5}',
    ],
)
def test_tree_from_json_refuses_malformed_text(text):
    with pytest.raises(DomainError, match="tree JSON"):
        tree_from_json(text)
