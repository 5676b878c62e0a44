"""Rooted trees on dense integer ids, bitmask vertex sets, and tree surgery.

Vertices are integers ``0..n-1`` and subsets of vertices are packed into
integer bitmasks, so set algebra stays cheap and hashable.  Everything in
this module is immutable after construction.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

# Subset enumeration downstream is exponential in the tree order; 2**24 is
# the desk-scale ceiling.
MAX_TREE_ORDER = 24


class DomainError(ValueError):
    """An input outside the library's domain (exit 2 on the command line).

    Raised for bad trees, vertex sets and parameters and for exceeded
    size caps, and by the CLI for command-line text it cannot parse; it
    is the one exception the CLI turns into exit 2.  Any other
    exception, a plain ``ValueError`` included, is a bug.
    """


def as_int(x, what):
    """``x`` as an integer; a bool, float, string or other non-integer is a
    :class:`DomainError` naming ``what``."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError("%s must be an integer, got %r" % (what, x))


def _nonnegative(x, what):
    """``x`` as a nonnegative integer, else a :class:`DomainError` naming ``what``."""
    x = as_int(x, what)
    if x < 0:
        raise DomainError("%s must be nonnegative, got %d" % (what, x))
    return x


@dataclass(frozen=True)
class VertexSet:
    """An immutable set of vertex ids packed into an integer bitmask.

    Bit ``v`` is set iff vertex ``v`` is a member.  The width invariant
    (all set bits below the tree order) is enforced by the functions that
    receive a tree for context, not by the container itself.
    """

    bits: int = 0

    @classmethod
    def of(cls, *vertices):
        """Build a set from explicit vertex ids: ``VertexSet.of(0, 2, 5)``.

        An id that is not a nonnegative integer (a bool, float or string
        included) is a :class:`DomainError`.
        """
        return cls.from_iter(vertices)

    @classmethod
    def from_iter(cls, vertices):
        bits = 0
        for v in vertices:
            v = as_int(v, "vertex id")
            if v < 0:
                raise DomainError("vertex ids are nonnegative integers")
            bits |= 1 << v
        return cls(bits)

    def __contains__(self, v):
        return v >= 0 and bool(self.bits >> v & 1)

    def __iter__(self):
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def __or__(self, other):
        return VertexSet(self.bits | other.bits)

    def __and__(self, other):
        return VertexSet(self.bits & other.bits)

    def __sub__(self, other):
        return VertexSet(self.bits & ~other.bits)

    def __repr__(self):
        return "VertexSet({%s})" % ", ".join(str(v) for v in self)


@dataclass(frozen=True)
class RootedTree:
    """A finite tree with a distinguished root and dense ids ``0..n-1``.

    ``edges`` keeps construction order with each pair normalised to
    ``(min, max)``; ``parent[root] == -1``; ``preorder`` lists vertices
    root-first so a reversed scan is a valid post-order.
    ``neighbor_masks[v]`` is the bitmask of ``v``'s neighbours, and
    ``parent_edge[v]`` the index into ``edges`` of ``(parent[v], v)``,
    -1 at the root.
    """

    n: int
    root: int
    edges: tuple
    parent: tuple = field(repr=False)
    children: tuple = field(repr=False)
    preorder: tuple = field(repr=False)
    neighbor_masks: tuple = field(repr=False)
    parent_edge: tuple = field(repr=False)

    def edge_index(self, u, v):
        """Index of edge {u, v} into ``edges`` (and per-edge parameter tuples).

        A pair that is not an edge of the tree is a :class:`DomainError`.
        """
        key = (u, v) if u < v else (v, u)
        try:
            return self.edges.index(key)
        except ValueError:
            raise DomainError("no edge %s-%s in tree" % key) from None


def build_tree(edges, root=0):
    """Validate an edge list and assemble a :class:`RootedTree`.

    Ids must be dense (``0..n-1`` with ``n = max id + 1``) integers; the
    edge list must form a single tree containing ``root``.  Raises
    :class:`DomainError` on non-integer ids, cycles, disconnection,
    duplicate edges, or an absent root.
    """
    norm = []
    index = {}
    max_id = root = as_int(root, "root")
    for e in edges:
        u, v = as_int(e[0], "vertex id"), as_int(e[1], "vertex id")
        if u == v:
            raise DomainError("self-loop at vertex %d" % u)
        if u < 0 or v < 0:
            raise DomainError("vertex ids must be nonnegative")
        key = (u, v) if u < v else (v, u)
        if key in index:
            raise DomainError("duplicate edge %s-%s" % key)
        index[key] = len(norm)
        norm.append(key)
        max_id = max(max_id, u, v)
    n = max_id + 1
    if n > MAX_TREE_ORDER:
        raise DomainError("tree order %d exceeds cap %d" % (n, MAX_TREE_ORDER))
    if not 0 <= root < n:
        raise DomainError("root %d not a vertex" % root)
    if len(norm) != n - 1:
        raise DomainError(
            "edge count %d != n-1 = %d (cycle or missing vertices)" % (len(norm), n - 1)
        )

    nbr = [[] for _ in range(n)]
    masks = [0] * n
    for u, v in norm:
        nbr[u].append(v)
        nbr[v].append(u)
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    parent = [-2] * n
    parent_edge = [-1] * n
    order = [root]
    parent[root] = -1
    for v in order:
        for w in nbr[v]:
            if parent[w] == -2:
                parent[w] = v
                parent_edge[w] = index[(v, w) if v < w else (w, v)]
                order.append(w)
    if len(order) != n:
        raise DomainError("edge list is disconnected")

    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)

    return RootedTree(
        n=n,
        root=root,
        edges=tuple(norm),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        preorder=tuple(order),
        neighbor_masks=tuple(masks),
        parent_edge=tuple(parent_edge),
    )


# ---------------------------------------------------------------------------
# generators


def path(n):
    """Path on ``n`` vertices 0-1-...-(n-1), rooted at 0.  ``path(1)`` is
    the degenerate single vertex."""
    if as_int(n, "path order") < 1:
        raise DomainError("path needs at least one vertex")
    return build_tree([(i, i + 1) for i in range(n - 1)], root=0)


def star(k):
    """Star with center 0 and leaves ``1..k``."""
    if as_int(k, "star leaf count") < 1:
        raise DomainError("star needs at least one leaf")
    return build_tree([(0, i) for i in range(1, k + 1)], root=0)


def spider(k, leg_len):
    """``k`` legs of ``leg_len`` vertices each, glued at center 0.

    Leg ``j`` (0-based) occupies the consecutive ids
    ``1 + j*leg_len .. (j+1)*leg_len`` walking outward, so for example
    ``spider(3, 2)`` has inner ring {1, 3, 5} and outer ring {2, 4, 6}.
    ``spider(k, 1)`` equals ``star(k)``.
    """
    if as_int(k, "spider leg count") < 1 or as_int(leg_len, "spider leg length") < 1:
        raise DomainError("spider needs k >= 1 legs of length >= 1")
    edges = []
    for j in range(k):
        base = 1 + j * leg_len
        edges.append((0, base))
        for i in range(leg_len - 1):
            edges.append((base + i, base + i + 1))
    return build_tree(edges, root=0)


def octopus(m, depth):
    """Center with ``m >= 3`` arms of ``depth`` vertices each.

    Same shape family as :func:`spider`; the separate name matches the
    truncation used by the resampling-derivative results, which need a
    branching center.
    """
    if as_int(m, "octopus arm count") < 3:
        raise DomainError("octopus needs at least 3 arms")
    return spider(m, depth)


# ---------------------------------------------------------------------------
# vertex-set routines


def is_connected(tree, subset):
    """True iff ``subset`` induces a connected subgraph (empty set counts).

    The induced subgraph is a forest, so its k vertices are connected
    exactly when they span k - 1 edges.
    """
    s = subset.bits
    if s >> tree.n:
        raise DomainError("subset contains ids outside the tree")
    masks = tree.neighbor_masks
    ends = sum((masks[v] & s).bit_count() for v in subset)
    return s == 0 or ends == 2 * (s.bit_count() - 1)


def spanning_subtree(tree, subset):
    """Vertex set of the minimal subtree of ``tree`` containing ``subset``.

    This closure is the smallest superset of ``subset`` that induces a
    connected subgraph.  Computed by dropping, round after round, every
    vertex outside ``subset`` with at most one remaining neighbour, until
    none is left.
    """
    s = subset.bits
    if s == 0:
        raise DomainError("subset must be nonempty")
    if s >> tree.n:
        raise DomainError("subset contains ids outside the tree")

    masks = tree.neighbor_masks
    alive = (1 << tree.n) - 1
    while True:
        drop = VertexSet.from_iter(
            v for v in VertexSet(alive & ~s) if (masks[v] & alive).bit_count() <= 1
        )
        if not drop:
            break
        alive &= ~drop.bits
    return VertexSet(alive)


def subdivide(tree, k):
    """Replace every edge by a path of ``k`` edges.

    Original vertices keep their ids; the ``k - 1`` fresh vertices per edge
    are appended after ``n - 1`` in edge order, walking from the lower
    endpoint to the higher.  Returns ``(new_tree, originals)`` where
    ``originals`` is the vertex set of the surviving original ids.  A
    result above ``MAX_TREE_ORDER`` vertices is refused before any of it
    is built.
    """
    if as_int(k, "k") < 1:
        raise DomainError("k must be >= 1")
    order = tree.n + (k - 1) * (tree.n - 1)
    if order > MAX_TREE_ORDER:
        raise DomainError("subdivided order %d exceeds cap %d" % (order, MAX_TREE_ORDER))
    originals = VertexSet((1 << tree.n) - 1)
    if k == 1:
        return tree, originals
    edges = []
    nxt = tree.n
    for u, v in tree.edges:
        prev = u
        for _ in range(k - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return build_tree(edges, root=tree.root), originals


def connected_subsets(tree):
    """Yield the bitmasks of all nonempty connected vertex sets, once each.

    Each connected set has one top vertex, its vertex nearest the root,
    and the sets topped by ``v`` are ``v`` joined, for each child ``c``
    of ``v``, with nothing or with one set topped by ``c``.  The sets
    are streamed, never collected.  Order is by top vertex, not
    canonical; sort the result if a canonical order is needed.  Every
    size is yielded, from the singletons to the whole tree.
    """
    children = tree.children

    def topped(v, rest):
        # the sets topped by v whose other vertices lie below the children in rest
        if not rest:
            yield 1 << v
            return
        for s in topped(v, rest[1:]):
            yield s
            for t in topped(rest[0], children[rest[0]]):
                yield s | t

    for v in range(tree.n):
        yield from topped(v, children[v])


# ---------------------------------------------------------------------------
# JSON round trip


def tree_to_json(tree):
    return json.dumps(
        {"n": tree.n, "root": tree.root, "edges": [list(e) for e in tree.edges]},
        separators=(",", ":"),
    )


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def decode_json_object(text, what, **options):
    """``json.loads`` for an input file whose top level must be an object.

    Text that does not decode, or decodes to anything but an object, is
    a :class:`DomainError` naming ``what``.
    """
    try:
        obj = json.loads(text, **options)
    except ValueError as exc:
        raise DomainError("%s is not valid JSON: %s" % (what, exc)) from None
    if not isinstance(obj, dict):
        raise DomainError("%s must be a JSON object" % what)
    return obj


def tree_from_json(text):
    """Parse ``{"edges": [[u, v], ...], "root": r, "n": n}``; root and n optional.

    Malformed input raises :class:`DomainError`.
    """
    obj = decode_json_object(text, "tree JSON")
    edges = obj.get("edges")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    ):
        raise DomainError('tree JSON needs "edges": a list of [u, v] integer pairs')
    root = as_int(obj.get("root", 0), "tree JSON root")
    if "n" in obj:
        as_int(obj["n"], "tree JSON n")
    t = build_tree(edges, root=root)
    if "n" in obj and obj["n"] != t.n:
        raise DomainError("declared n=%d but edges span %d vertices" % (obj["n"], t.n))
    return t
