"""Tree-indexed two-state Markov chains: exact probabilities and samplers.

The chain is parametrised by a root law ``P(fresh draw = 0) = r_v`` per
vertex and a resampling probability ``p_e`` per edge: walking away from the
root, a child copies its parent's value with probability ``1 - p_e`` and
otherwise draws fresh from its own ``r``.  Equivalently (divide-and-color):
cut each edge independently with probability ``p_e`` and give every
resulting component the fresh draw of its vertex closest to the root.

One message-passing sweep, :func:`_sweep`, gives every zero-pattern
probability, and its callers differ only in the factors ``keep`` that
mark the vertices that must be zero.  It uses ring operations only, so
it runs on the integers of :func:`scaled_params` (every probability
times one common denominator) for exact values and verdicts, and with
0/1 object arrays in them for derivatives; on rows of masks, float64 for
the certified float filter and exact for the scaling check; and on
object arrays that broadcast over all 2^n masks at once for full measures.

The two samplers draw every coin with :func:`_coins`.  Each coin slot
(a vertex's fresh draws, an edge's resample or cut decisions) reads a
Philox stream of its own, key = seed and counter = slot * 2^192, two
coins to a raw word.  A coin of probability q is True with probability
floor(q * 2^32) / 2^32, within 2^-32 of q.  Draw j reads the same half
word whatever the number of draws, so fewer draws are a prefix of more.
The samplers run on blocks of ``_BLOCK`` draws, each slot's stream read
on from block to block, so their words do not depend on the block size
and only their output grows with the number of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .tree_core import DomainError, VertexSet, _nonnegative, as_int, decode_json_object


def as_fraction(x):
    """Coerce ints, ``"a/b"`` / decimal strings, floats, and Fractions.

    Floats go through their shortest decimal repr, so ``0.45`` means the
    exact rational 9/20, not the nearest binary double.  Anything else,
    such as ``"x"``, ``"1/0"``, NaN or a JSON ``true``, is not a rational:
    :class:`DomainError`.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    try:
        return Fraction(repr(x) if isinstance(x, float) else str(x))
    except (ValueError, ZeroDivisionError):
        raise DomainError("not an exact rational: %r" % (x,)) from None


@dataclass(frozen=True)
class ChainParams:
    """Per-vertex fresh-draw laws ``r`` and per-edge resampling probs ``p``.

    ``r[v]`` is the probability a fresh draw at vertex ``v`` equals 0;
    ``p[i]`` aligns with ``tree.edges[i]``.  All values are Fractions in
    [0, 1].
    """

    r: tuple
    p: tuple


def uniform_params(tree, r, p):
    """Same ``r`` at every vertex and ``p`` on every edge."""
    return make_params(tree, r, p)


def make_params(tree, r_spec, p_spec):
    """Build :class:`ChainParams` from scalars or per-vertex / per-edge maps.

    ``r_spec``: scalar, or mapping ``vertex -> value`` (all vertices
    required, each key an integer in 0..n-1).  ``p_spec``: scalar, or
    mapping ``"u-v"`` or ``(u, v)`` to value, covering every edge.  Values
    may be anything :func:`as_fraction` accepts.
    """
    if isinstance(r_spec, dict):
        r = [None] * tree.n
        for key, val in r_spec.items():
            v = str(key)
            if not (v.isdecimal() and int(v) < tree.n):
                raise DomainError("no vertex %r in a tree of %d vertices" % (key, tree.n))
            if r[int(v)] is not None:
                raise DomainError("vertex %d is named twice in r" % int(v))
            r[int(v)] = as_fraction(val)
        if any(x is None for x in r):
            raise DomainError("per-vertex r must cover all %d vertices" % tree.n)
    else:
        r = [as_fraction(r_spec)] * tree.n

    if isinstance(p_spec, dict):
        p = [None] * len(tree.edges)
        for key, val in p_spec.items():
            try:
                u, v = (int(part) for part in key.split("-")) if isinstance(key, str) else key
                e = tree.edge_index(u, v)
            except (TypeError, ValueError):
                raise DomainError("no edge %r in the tree" % (key,)) from None
            if p[e] is not None:
                raise DomainError("edge %d-%d is named twice in p" % tree.edges[e])
            p[e] = as_fraction(val)
        if any(x is None for x in p):
            raise DomainError("per-edge p must cover all %d edges" % len(tree.edges))
    else:
        p = [as_fraction(p_spec)] * len(tree.edges)

    for x in r:
        if not 0 <= x <= 1:
            raise DomainError("r values must lie in [0, 1]")
    for x in p:
        if not 0 <= x <= 1:
            raise DomainError("p values must lie in [0, 1]")
    return ChainParams(r=tuple(r), p=tuple(p))


def params_from_json(tree, text):
    """Parse ``{"r": ..., "p": ...}`` with decimals kept exact."""
    obj = decode_json_object(text, "params JSON", parse_float=Fraction)
    if "r" not in obj or "p" not in obj:
        raise DomainError('params JSON needs "r" and "p" entries')
    return make_params(tree, obj["r"], obj["p"])


class Weights(NamedTuple):
    """The encoding one message-passing sweep runs on.

    ``r[v]`` and ``rbar[v]`` weigh a fresh draw of 0 and of 1 at ``v``;
    ``p[c]`` and ``copy[c]`` weigh resampling and copying on the edge
    from ``c`` up to its parent (None at the root).  ``one`` is the
    value of the sure event.  :func:`scaled_params` gives integers that
    are all probabilities times one common factor, and
    :func:`float_weights` the probabilities of P points rounded to
    float64, as ``(P, 1)`` columns; the derivative layer plants a
    ``[0, 1]`` object array, on an axis of its own, in each
    differentiated integer.
    """

    r: tuple
    rbar: tuple
    p: tuple
    copy: tuple
    one: object


def _check_params(tree, params):
    """Refuse ``params`` unless they fit ``tree`` and hold exact laws in [0, 1]."""
    if len(params.r) != tree.n or len(params.p) != len(tree.edges):
        raise DomainError(
            "params need %d vertex laws and %d edge probabilities, not %d and %d"
            % (tree.n, len(tree.edges), len(params.r), len(params.p))
        )
    for x in (*params.r, *params.p):
        if type(x) not in (int, Fraction) or not 0 <= x.numerator <= x.denominator:
            raise DomainError("chain parameters must be ints or Fractions in [0, 1]: %r" % (x,))


def scaled_params(tree, params):
    """Integer weights under which the sweep returns ``den * P(X(A) = 0)``.

    With ``r_v = a_v / b_v`` and ``p_e = c_e / d_e`` in lowest terms,
    ``den`` is the product of every ``b_v`` and every ``d_e``.  Each
    probability is multilinear in every parameter, so scaling vertex
    ``v`` by ``b_v`` and the edge above ``c`` by ``d_e * b_c`` clears
    all denominators: the weights are ``r = a``, ``rbar = b - a``,
    ``p = c`` and ``copy = (d - c) * b_c``, and ``one = den``.  Ratios
    of equally many such values equal the ratios of the probabilities,
    with no gcd anywhere.  Every exact computation starts here, so this
    is where ``params`` is checked: ``r`` and ``p`` must match the tree
    in length and hold ints or Fractions in [0, 1], or it is a
    :class:`DomainError`.
    """
    _check_params(tree, params)
    den = math.prod(x.denominator for x in params.r + params.p)
    p = []
    copy = []
    for v, e in enumerate(tree.parent_edge):
        if e < 0:
            p.append(None)
            copy.append(None)
        else:
            pe = params.p[e]
            p.append(pe.numerator)
            copy.append((pe.denominator - pe.numerator) * params.r[v].denominator)
    return Weights(
        r=tuple(x.numerator for x in params.r),
        rbar=tuple(x.denominator - x.numerator for x in params.r),
        p=tuple(p),
        copy=tuple(copy),
        one=den,
    )


def float_weights(tree, points):
    """The float64 weights of P parameter points, as ``(P, 1)`` columns.

    Row k of every column belongs to ``points[k]``, a :class:`ChainParams`
    of ints or Fractions, so :func:`prob_all_zero_many` gives a points x
    masks table.  Each entry of ``r``, ``rbar = 1 - r``, ``p`` and
    ``copy = 1 - p`` is one int/int true division, which rounds correctly:
    ``1 - x`` is ``(b - a) / b``, never ``1.0 - float(x)``.  The root's
    edge entries are None, as in :func:`scaled_params`.
    """

    def columns(laws, complement):
        # laws holds each point's tuple; column i is entry i of every point
        values = [[(x.denominator - x.numerator if complement else x.numerator) / x.denominator
                   for x in column] for column in zip(*laws)]
        return tuple(np.array(values, dtype=np.float64)[..., None])

    r = [params.r for params in points]
    p, copy = (columns([params.p for params in points], c) for c in (False, True))
    return Weights(
        r=columns(r, False),
        rbar=columns(r, True),
        p=tuple(p[e] if e >= 0 else None for e in tree.parent_edge),
        copy=tuple(copy[e] if e >= 0 else None for e in tree.parent_edge),
        one=1.0,
    )


def _sweep(tree, w, keep):
    """The message-passing sweep: ``P(X(A) = 0)`` in the encoding of ``w``.

    ``f_v(x)`` is the weight of the subtree below ``v`` respecting the
    zero constraint given ``X(v) = x``; an edge passes its child's pair
    through the copy/resample kernel, and ``keep[v]`` multiplies
    ``f_v(1)``: 0 where ``v`` must be zero, 1 where it is free.  Only
    ring operations are used, so the weights and ``keep`` may be ints,
    floats, or numpy arrays that broadcast against each other,
    and the result has their kind and shape.
    """
    r, rbar, p, copy = w.r, w.rbar, w.p, w.copy
    children = tree.children
    f0 = [None] * tree.n
    f1 = [None] * tree.n
    for v in reversed(tree.preorder):
        m0 = m1 = 1
        for c in children[v]:
            mix = p[c] * (r[c] * f0[c] + rbar[c] * f1[c])
            m0 = m0 * (copy[c] * f0[c] + mix)
            m1 = m1 * (copy[c] * f1[c] + mix)
            f0[c] = f1[c] = None  # a used child's tables are dropped
        f0[v] = m0
        f1[v] = keep[v] * m1
    ro = tree.root
    return r[ro] * f0[ro] + rbar[ro] * f1[ro]


def prob_all_zero_many(tree, weights, masks):
    """:func:`prob_all_zero` for every mask of an int64 array, in one sweep.

    :func:`_sweep` on the ``(P, 1)`` columns of :func:`float_weights`,
    one numpy operation per step for all points and masks at once, with
    ``keep`` a 0.0/1.0 row per vertex, so the result is a points x masks
    table.  Every value is a sum or product of values in [0, 1], and
    multiplying by 0.0 or 1.0 is exact; along any input-to-output path
    of one mask's sweep there are at most 7 roundings per edge (two
    inputs, five operations) and 3 at the root.  On the integers of
    :func:`scaled_params` the rows are object arrays, and so is the
    result, one exact ``den * P`` per mask.
    """
    keep = 1 - ((masks >> np.arange(tree.n)[:, None]) & 1)
    return _sweep(tree, weights, keep.astype(float if isinstance(weights.one, float) else object))


def prob_all_zero_table(tree, weights):
    """``prob_all_zero(tree, weights, VertexSet(a))`` for every mask ``a`` at once.

    ``weights`` are integer :class:`Weights`, so the result is an object
    array of Python ints indexed by mask.  It is one :func:`_sweep` in
    which ``keep[v]`` is ``[1, 0]`` along axis ``v`` of a 2 x ... x 2
    array, counted from the last: each vertex's tables span the axes of
    its own subtree, its children's tables meet by broadcasting, and the
    root's table, flattened, is already in mask order.
    """
    keep = [np.array([1, 0], dtype=object).reshape((2,) + (1,) * v) for v in range(tree.n)]
    return _sweep(tree, weights, keep).ravel()


def prob_all_zero(tree, params, zero_on):
    """Exact probability that the chain is 0 everywhere on ``zero_on``.

    With a :class:`ChainParams` the result is a Fraction, the sweep on
    :func:`scaled_params` over its ``one``.  With :class:`Weights` it is
    the sweep's value in their ring: ``den * P`` for the integers of
    :func:`scaled_params`, an object array when arrays are planted in them.
    """
    a = zero_on.bits
    if a >> tree.n:
        raise DomainError("zero_on contains ids outside the tree")
    if isinstance(params, ChainParams):
        w = scaled_params(tree, params)
        return Fraction(prob_all_zero(tree, w, zero_on), w.one)
    if a == 0:
        return params.one
    return _sweep(tree, params, [1 - (a >> v & 1) for v in range(tree.n)])


# ---------------------------------------------------------------------------
# samplers


def _key(seed):
    """``seed`` as a Philox key: an integer in [0, 2^64), else :class:`DomainError`."""
    seed = as_int(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise DomainError("seed must lie in [0, 2^64), got %d" % seed)
    return seed


def _rng(seed):
    """A generator on the Philox stream of counter 0 at ``seed``."""
    return np.random.Generator(np.random.Philox(key=_key(seed)))


# The samplers work through their draws this many at a time, so every
# temporary is an (n, _BLOCK) block of tens of KB whatever n_draws is;
# only the packed output grows with it.  It is even, so every block but
# the last reads whole raw words of each slot's stream.  The Poisson
# field places its arrivals in blocks of this size too.
_BLOCK = 1 << 14


def _blocks(n_draws):
    """``(start, stop)`` of each block of :data:`_BLOCK` draws or arrivals, the last shorter."""
    for lo in range(0, n_draws, _BLOCK):
        yield lo, min(lo + _BLOCK, n_draws)


def _coins(key, slot, q, n_draws):
    """The ``n_draws`` coins of slot ``slot``, one bool array per block of :func:`_blocks`.

    Each coin is True with probability ``floor(q * 2^32) / 2^32``.  The
    slot's stream is Philox with key ``key`` and counter ``slot *
    2^192``, kept live from block to block.  Coin j is the 32-bit half
    j mod 2, low half first, of the stream's raw word floor(j / 2), and
    it is True when that half is below ``floor(q * 2^32)``.  A block
    reads the stream's next words, so the coins do not depend on the
    block size.  q = 0 is never True and q = 1 always is; neither reads
    the stream.
    """
    if q == 0 or q == 1:
        for lo, hi in _blocks(n_draws):
            yield np.full(hi - lo, q == 1)
        return
    stream = np.random.Philox(key=key, counter=slot << 192)
    threshold = (q.numerator << 32) // q.denominator
    for lo, hi in _blocks(n_draws):
        # yielded unnamed, so a block's coins are freed once the sampler drops them
        yield _halves(stream, hi - lo) < threshold


def _halves(stream, size):
    """The next ``size`` 32-bit halves of Philox ``stream``, low half of each word first."""
    # little-endian bytes put each word's low half first on any platform
    return stream.random_raw((size + 1) // 2).astype("<u8", copy=False).view("<u4")[:size]


def _sample_in_blocks(n, n_draws, colour):
    """Packed words of ``n_draws`` draws: ``colour(x)`` sets row v of each
    block's (n, size) bool array ``x`` to X(v) in the block's draws."""
    words = np.empty(n_draws, dtype=np.uint32)
    x = np.empty((n, min(_BLOCK, n_draws)), dtype=bool)
    for lo, hi in _blocks(n_draws):
        colour(x[:, : hi - lo])
        _pack(x[:, : hi - lo], words[lo:hi])
    return words


def sample_recursive_many(tree, params, n_draws, seed):
    """Vectorised root-to-leaf sampler; returns packed bitmask per draw.

    Bit ``v`` of word ``i`` is ``X(v)`` in draw ``i``.  The coins come
    from :func:`_coins`: slot 0 is the root's fresh draw, and the k-th
    non-root vertex in preorder (k = 1, 2, ...) reads its resample coin
    from slot 2k - 1 and its fresh draw from slot 2k.  So draws are
    reproducible per (tree, params, seed), and the first k draws of a
    call are those of every call with more draws.  The walk runs on
    blocks of ``_BLOCK`` = 2^14 draws, so its temporaries stay small
    whatever ``n_draws`` is; the words do not depend on the block size.
    ``params`` are checked as :func:`scaled_params` checks them; a seed
    outside [0, 2^64) or a negative draw count is a :class:`DomainError`.
    """
    _check_params(tree, params)
    n_draws, key = _nonnegative(n_draws, "n_draws"), _key(seed)
    root, *rest = tree.preorder
    root_fresh = _coins(key, 0, params.r[root], n_draws)
    steps = [
        (v, tree.parent[v],
         _coins(key, 2 * k - 1, params.p[tree.parent_edge[v]], n_draws),
         _coins(key, 2 * k, params.r[v], n_draws))
        for k, v in enumerate(rest, 1)
    ]

    def walk(x):
        x[root] = ~next(root_fresh)
        for v, parent, resample, fresh in steps:
            up = x[parent]
            # fresh where resampled, else the parent's value: np.where branches per element
            x[v] = up ^ (next(resample) & (~next(fresh) ^ up))

    return _sample_in_blocks(tree.n, n_draws, walk)


def sample_percolation_many(tree, params, n_draws, seed):
    """Vectorised divide-and-color sampler; same output format as
    :func:`sample_recursive_many` but a genuinely different code path:
    cut edges, then color each component by its top vertex's draw.

    The coins come from :func:`_coins`: the cut above the k-th non-root
    vertex in preorder (k = 1, 2, ...) reads slot k - 1, and the fresh
    draw of vertex v reads slot n - 1 + v.  Draws have the same prefix
    property, blocks of ``_BLOCK`` draws and input checks as
    :func:`sample_recursive_many`.
    """
    _check_params(tree, params)
    n_draws, key = _nonnegative(n_draws, "n_draws"), _key(seed)
    fresh_coins = [_coins(key, tree.n - 1 + v, params.r[v], n_draws) for v in range(tree.n)]
    cut_coins = [
        (v, _coins(key, k, params.p[tree.parent_edge[v]], n_draws))
        for k, v in enumerate(tree.preorder[1:])
    ]
    labels = np.empty((tree.n, min(_BLOCK, n_draws)), dtype=np.int8)

    def colour(x):
        fresh = [~next(coins) for coins in fresh_coins]
        # top[v] labels v's component by its top vertex: the nearest vertex at
        # or above v whose edge is cut, or the root; v takes the fresh draw of
        # whichever of its ancestors the label names
        top = labels[:, : x.shape[1]]
        top[tree.root] = tree.root
        x[tree.root] = fresh[tree.root]
        for v, cuts in cut_coins:
            up = top[tree.parent[v]]
            top[v] = up + next(cuts).view(np.int8) * (v - up)  # v if cut, else up
            x[v] = False
            a = v
            while a >= 0:
                x[v] |= (top[v] == a) & fresh[a]
                a = tree.parent[a]

    return _sample_in_blocks(tree.n, n_draws, colour)


def _pack(x, words):
    """Sets bit ``v`` of ``words[i]`` to ``x[v, i]``, in uint32: trees have
    at most ``MAX_TREE_ORDER`` = 24 vertices."""
    words[:] = x[0]
    for v in range(1, x.shape[0]):
        words |= x[v].astype(np.uint32) << v
