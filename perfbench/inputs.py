"""Seeded inputs: Prüfer trees, exact rational parameters, grids and op decks.

Everything here is a pure function of ``(workload, seed)``; the program
under test receives only the generated command lines and files.  Tree
shapes are built here from edge lists rather than through ``treerep``, so
the output checks can use them as an independent description of each
input.

A deck is the fixed list of ops one benchmark pass runs.  Each deck has
the same composition for every seed (the same families, sizes and phase
sides in the same slots); the seed picks the concrete trees and
parameters.  That keeps a run's cost comparable across seeds while the
inputs still differ.
"""

from __future__ import annotations

import heapq
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("analyze", "scan", "identities", "verify")

# A verdict sweep costs roughly in proportion to sweep_events(tree).
# Random trees are redrawn until it lies in a band per size, so a deck
# costs about the same for every seed and a full analyze sweep stays
# under about half a second.  The bands sit between the 10th and 60th
# percentiles of the proxy for uniform random trees of each size.
ANALYZE_EVENTS = {8: (250, 300), 9: (600, 700), 10: (900, 1050), 11: (1550, 1700),
                  12: (2200, 2600), 13: (2800, 3300), 14: (3300, 3900)}
SCAN_EVENTS = {7: (150, 210), 8: (240, 300)}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``treerep <argv> --out FILE``.

    ``edges`` and ``n`` describe the tree the op runs on (empty for
    ``thresholds``); ``meta`` holds what the output checks expect.
    """

    key: str
    argv: tuple
    n: int = 0
    edges: tuple = ()
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def command(self):
        return self.argv[0]


@dataclass(frozen=True)
class Deck:
    """The ops of one pass, and the input files they read."""

    workload: str
    seed: int
    ops: tuple
    files: tuple  # ((relative path, text), ...)

    def write(self):
        """Write the input files; paths are relative to the working directory."""
        for rel, text in self.files:
            os.makedirs(os.path.dirname(rel), exist_ok=True)
            with open(rel, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)


# ---------------------------------------------------------------------------
# trees


def path_edges(n):
    return tuple((i, i + 1) for i in range(n - 1))


def spider_edges(k, leg):
    """Leg ``j`` holds ids ``1 + j*leg .. (j+1)*leg``, walking outward."""
    edges = []
    for j in range(k):
        base = 1 + j * leg
        edges.append((0, base))
        edges.extend((base + i, base + i + 1) for i in range(leg - 1))
    return tuple(edges)


def spec_edges(spec):
    """Edge list of a ``path:N``, ``star:K``, ``spider:KxL`` or ``octopus:MxD`` spec."""
    kind, _, rest = spec.partition(":")
    sizes = [int(part) for part in rest.split("x")]
    if kind == "path":
        return path_edges(sizes[0])
    if kind == "star":
        return spider_edges(sizes[0], 1)
    return spider_edges(sizes[0], sizes[1])


def prufer_edges(n, rng):
    """Uniform random labelled tree on ``n >= 2`` vertices."""
    if n == 2:
        return ((0, 1),)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return tuple(edges)


def adjacency(n, edges):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def sweep_events(n, edges):
    """Events a full verdict sweep evaluates: a cost proxy for a tree.

    Sums 2^|lambda(S)| over the connected sets S, where lambda(S) is the
    inner boundary of S plus the leaves of the subtree S induces (2 for a
    singleton), which is how many zero patterns the boundary-indexed
    formula combines for S.
    """
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    total = 0
    stack = [(1 << v, nbrs[v] & (-1 << (v + 1)), -1 << (v + 1)) for v in range(n)]
    while stack:
        cur, cand, allowed = stack.pop()
        if cur & (cur - 1) == 0:
            total += 2
        else:
            lam = 0
            for v in range(n):
                if cur >> v & 1 and (nbrs[v] & ~cur or (nbrs[v] & cur).bit_count() <= 1):
                    lam |= 1 << v
            total += 1 << lam.bit_count()
        banned = 0
        while cand:
            low = cand & -cand
            cand ^= low
            grown = cur | low
            u = low.bit_length() - 1
            stack.append((grown, (cand | (nbrs[u] & allowed & ~banned)) & ~grown, allowed))
            banned |= low
    return total


def random_tree(rng, n, events=None):
    """A Prüfer tree whose :func:`sweep_events` lies in the ``events`` band."""
    while True:
        edges = prufer_edges(n, rng)
        if events is None or events[0] <= sweep_events(n, edges) <= events[1]:
            return edges


def random_connected_set(rng, n, edges, size):
    """A connected set of ``size`` vertices grown from a random vertex."""
    nbrs = adjacency(n, edges)
    chosen = {rng.randrange(n)}
    while len(chosen) < size:
        frontier = sorted({w for v in chosen for w in nbrs[v]} - chosen)
        chosen.add(rng.choice(frontier))
    return sorted(chosen)


def boundary_edges(edges, subset):
    inside = set(subset)
    return [e for e in edges if (e[0] in inside) != (e[1] in inside)]


def inner_edges(edges, subset):
    inside = set(subset)
    return [e for e in edges if e[0] in inside and e[1] in inside]


def tree_json(edges):
    return json.dumps({"edges": [list(e) for e in edges]}) + "\n"


# ---------------------------------------------------------------------------
# rationals


def grid_value(rng, lo, hi, den):
    """``k/den`` for a uniform integer ``k`` in ``[lo, hi]``, as exact text."""
    return str(Fraction(rng.randint(lo, hi), den))


# (r, p) bands as (low, high, denominator) on either side of the phase
# boundary: strong resampling with a low vertex law gives witnesses, weak
# resampling gives full sweeps.
UNIFORM_SIDES = {
    "witness": ((7, 9, 20), (90, 98, 100)),
    "representable": ((10, 12, 20), (2, 4, 20)),
}
RANDOM_SIDES = {
    "witness": ((30, 45, 100), (88, 99, 100)),
    "representable": ((45, 60, 100), (5, 20, 100)),
}
# Full sweeps on random trees stop at 11 vertices: above that their cost
# varies with the shape more than the proxy bands can hold, and the
# uniform families already carry the expensive full sweeps.
RANDOM_SIZES = {"witness": (8, 9, 10, 11, 12, 13, 14), "representable": (8, 9, 10, 11)}
RANDOM_REPEATS = {"witness": 6, "representable": 10}


# ---------------------------------------------------------------------------
# decks


class _DeckMaker:
    def __init__(self, workload, seed, input_dir):
        self.workload = workload
        self.seed = seed
        self.input_dir = input_dir
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.ops = []
        self.files = []

    def file(self, kind, text):
        rel = "%s/%s%03d.json" % (self.input_dir, kind, len(self.files))
        self.files.append((rel, text))
        return rel

    def add(self, argv, n=0, edges=(), **meta):
        key = "%03d %s" % (len(self.ops), " ".join(argv))
        self.ops.append(Op(key=key, argv=tuple(argv), n=n, edges=tuple(edges), meta=meta))

    def add_all(self, entries):
        for argv, n, edges, meta in entries:
            self.add(argv, n, edges, **meta)

    def deck(self):
        return Deck(self.workload, self.seed, tuple(self.ops), tuple(self.files))


def spread(*families):
    """Merge the families so that each one is spread evenly over the pass."""
    keyed = [
        ((i + 0.5) / len(family), j, i)
        for j, family in enumerate(families)
        for i in range(len(family))
    ]
    return [families[j][i] for _, j, i in sorted(keyed)]


ANALYZE_SPECS = (
    "star:6", "star:7", "star:8", "star:9",
    "spider:3x2", "spider:4x2", "spider:3x3", "spider:5x2",
    "octopus:3x2", "octopus:4x2", "octopus:3x3", "octopus:5x2",
)


def _analyze(b):
    """2 ops per (spec, side), 42 witness-side and 40 full-sweep random trees: 130 ops."""
    rng = b.rng
    uniform = []
    for _ in range(2):
        for spec in ANALYZE_SPECS:
            edges = spec_edges(spec)
            n = len(edges) + 1
            for (rlo, rhi, rden), (plo, phi, pden) in UNIFORM_SIDES.values():
                r = grid_value(rng, rlo, rhi, rden)
                p = grid_value(rng, plo, phi, pden)
                argv = ["analyze", "--tree", spec, "--r", r, "--p", p]
                uniform.append((argv, n, edges, dict(r=[r] * n, p=[p] * (n - 1))))
    randoms = []
    for side, sizes in RANDOM_SIZES.items():
        (rlo, rhi, rden), (plo, phi, pden) = RANDOM_SIDES[side]
        for n in sizes * RANDOM_REPEATS[side]:
            edges = random_tree(rng, n, ANALYZE_EVENTS[n])
            r = [grid_value(rng, rlo, rhi, rden) for _ in range(n)]
            p = [grid_value(rng, plo, phi, pden) for _ in edges]
            params = {"r": {str(v): x for v, x in enumerate(r)},
                      "p": {"%d-%d" % e: x for e, x in zip(edges, p)}}
            argv = ["analyze", "--tree", b.file("tree", tree_json(edges)),
                    "--params", b.file("params", json.dumps(params) + "\n")]
            randoms.append((argv, n, edges, dict(r=r, p=p)))
    b.add_all(spread(uniform, randoms))


SCAN_SPECS = ("octopus:3x2", "spider:2x3", "spider:3x2")
SCAN_SIZES = (7, 8)
SCAN_P = (Fraction(9, 10), Fraction(19, 20), Fraction(49, 50))


def _scan(b):
    """50 generator and 50 random trees, each on a 5 x 2 grid across r = 1/2.

    At p near 1 the phase boundary of these trees lies near r = 1/2, so
    each grid has witness points and full sweeps.
    """
    rng = b.rng
    generated, randoms = [], []
    for i in range(50):
        spec = SCAN_SPECS[i % len(SCAN_SPECS)]
        generated.append((spec, spec_edges(spec)))
        n = SCAN_SIZES[i % len(SCAN_SIZES)]
        edges = random_tree(rng, n, SCAN_EVENTS[n])
        randoms.append((b.file("tree", tree_json(edges)), edges))
    for slot, (tree, edges) in enumerate(spread(generated, randoms)):
        r_values = [Fraction(8 + i, 20) for i in range(5)]
        p_values = [x for i, x in enumerate(SCAN_P) if i != slot % len(SCAN_P)]
        argv = ["scan", "--tree", tree,
                "--r-grid", "%s:%s:1/20" % (r_values[0], r_values[-1]),
                "--p-grid", ",".join(str(x) for x in p_values),
                "--threads", "2"]
        b.add(argv, len(edges) + 1, edges, r_values=r_values, p_values=p_values)


def _deriv_set(rng, n, edges, at, lo, hi):
    """A connected set whose distinguished multiset has lo..hi entries."""
    while True:
        subset = random_connected_set(rng, n, edges, rng.randint(2, max(2, n - 2)))
        multiset = boundary_edges(edges, subset) if at == "p0" else inner_edges(edges, subset)
        if lo <= len(multiset) <= hi:
            return subset, multiset


# (base tree, k): subdivided trees of 7 to 10 vertices; an int is a
# random base tree of that many vertices.
SCALING = (("path:3", 3), ("path:4", 2), ("star:3", 2), (4, 2),
           ("path:5", 2), (5, 2), ("path:4", 3), ("star:3", 3))
DERIV_TREES = ("spider:3x2", "spider:4x2", "octopus:3x3", "octopus:4x2", 9, 10)


def _tree(b, tree, rng=None):
    """(spec or file path, edges) for a generator spec or a random tree size."""
    if isinstance(tree, int):
        edges = random_tree(rng or b.rng, tree)
        return b.file("tree", tree_json(edges)), edges
    return tree, spec_edges(tree)


def _identities(b):
    """32 scaling checks, 72 derivative checks at p0, p1 and r1, one threshold table."""
    rng = b.rng

    def tenth():
        return grid_value(rng, 1, 9, 10)

    scaling = []
    for _ in range(4):
        for base, k in SCALING:
            tree, edges = _tree(b, base)
            p = tenth()
            argv = ["scaling-check", "--tree", tree, "--r", tenth(), "--p", p, "--k", str(k)]
            scaling.append((argv, len(edges) + 1, edges, dict(k=k, p=p)))
    derivs = []
    for cycle in range(4):
        for spec in DERIV_TREES:
            # Trees and sets are the same for every seed and only the
            # parameters vary: jet cost depends steeply on the set, and
            # these ops sit at the workload's median latency.
            shape = random.Random("%s/%d" % (spec, cycle))
            tree, edges = _tree(b, spec, shape)
            n = len(edges) + 1
            for at in ("p0", "p1"):
                subset, multiset = _deriv_set(shape, n, edges, at, 2 if at == "p0" else 1, 4)
                argv = ["deriv-check", "--tree", tree, "--set", ",".join(map(str, subset)),
                        "--at", at, "--r", tenth(),
                        "--multiset", ",".join("%d-%d" % e for e in multiset)]
                derivs.append((argv, n, edges, dict(closed=True)))
            if tree.startswith("octopus:") and tree.endswith("x2"):
                # center plus inner ring, differentiated in the center's law
                arms = int(tree.split(":")[1].split("x")[0])
                subset, multiset, closed = [0] + [1 + 2 * j for j in range(arms)], [0], True
            else:
                subset = random_connected_set(shape, n, edges, shape.randint(2, 4))
                multiset, closed = sorted(shape.sample(subset, 2)), False
            argv = ["deriv-check", "--tree", tree, "--set", ",".join(map(str, subset)),
                    "--at", "r1", "--p", tenth(), "--multiset", ",".join(map(str, multiset))]
            derivs.append((argv, n, edges, dict(closed=closed)))
    table = [(["thresholds", "--n", "3..12"], 0, (), dict(ns=list(range(3, 13))))]
    b.add_all(spread(scaling, derivs, table))


VERIFY_DRAWS = 100_000


# (tree, r, p) of each verify op: the paths cover the 1/10 grid and the
# last two are the chains of acceptance criterion 11.  The cost of an op
# moves with (r, p) by up to a third, so they are fixed and the seed picks
# only the sampler seeds.  Two path:8 ops put the p90 inside the slowest
# group of ops rather than on its edge.
VERIFY_OPS = (
    ("path:4", "3/10", "7/10"), ("path:5", "1/10", "1/2"), ("path:6", "7/10", "3/10"),
    ("path:7", "9/10", "1/10"), ("path:8", "1/2", "9/10"), ("path:8", "3/10", "1/2"),
    ("path:4", "9/10", "1/10"), ("path:5", "1/2", "9/10"), ("path:6", "1/10", "7/10"),
    ("path:4", "1/2", "1/2"), ("octopus:3x1", "1/2", "1/2"),
)


def _verify(b):
    for spec, r, p in VERIFY_OPS:
        edges = spec_edges(spec)
        argv = ["verify", "--tree", spec, "--r", r, "--p", p,
                "--draws", str(VERIFY_DRAWS), "--seed", str(b.rng.randrange(1 << 30)),
                "--alpha", "1/10000", "--tolerance", "6"]
        b.add(argv, len(edges) + 1, edges, draws=VERIFY_DRAWS)


_DECKS = {"analyze": _analyze, "scan": _scan, "identities": _identities, "verify": _verify}


def build_deck(workload, seed, input_dir):
    """The deck of ``workload`` for ``seed``; input files live under ``input_dir``."""
    b = _DeckMaker(workload, seed, input_dir)
    _DECKS[workload](b)
    return b.deck()
