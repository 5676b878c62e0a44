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
jets in them for derivatives; on float64 rows of masks for the
certified float filter; and on object arrays that broadcast over all
2^n masks at once for full measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .tree_core import DomainError, VertexSet, decode_json_object


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
    return make_params(tree, as_fraction(r), as_fraction(p))


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
    from ``c`` up to its parent (unused at the root).  ``one`` is the
    value of the sure event.  :func:`scaled_params` gives integers that
    are all probabilities times one common factor, and
    :func:`float_weights` the probabilities rounded to float64; the
    derivative layer plants jet variables in the integers.
    """

    r: tuple
    rbar: tuple
    p: tuple
    copy: tuple
    one: object


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
    if len(params.r) != tree.n or len(params.p) != len(tree.edges):
        raise DomainError(
            "params need %d vertex laws and %d edge probabilities, not %d and %d"
            % (tree.n, len(tree.edges), len(params.r), len(params.p))
        )
    for x in (*params.r, *params.p):
        if type(x) not in (int, Fraction) or not 0 <= x.numerator <= x.denominator:
            raise DomainError("chain parameters must be ints or Fractions in [0, 1]: %r" % (x,))
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


def float_weights(tree, params):
    """The probabilities themselves as float64 weights, each correctly rounded.

    ``r``, ``rbar = 1 - r``, ``p`` and ``copy = 1 - p``, each entry one
    int/int true division, which rounds correctly: ``1 - r`` is
    ``(b - a) / b``, never ``1.0 - float(r)``.  The root's unused edge
    entries are those of p = 0.  ``params`` must hold Fractions.
    """
    p = [params.p[e] if e >= 0 else Fraction(0) for e in tree.parent_edge]
    return Weights(
        r=tuple(x.numerator / x.denominator for x in params.r),
        rbar=tuple((x.denominator - x.numerator) / x.denominator for x in params.r),
        p=tuple(x.numerator / x.denominator for x in p),
        copy=tuple((x.denominator - x.numerator) / x.denominator for x in p),
        one=1.0,
    )


def _sweep(tree, w, keep):
    """The message-passing sweep: ``P(X(A) = 0)`` in the encoding of ``w``.

    ``f_v(x)`` is the weight of the subtree below ``v`` respecting the
    zero constraint given ``X(v) = x``; an edge passes its child's pair
    through the copy/resample kernel, and ``keep[v]`` multiplies
    ``f_v(1)``: 0 where ``v`` must be zero, 1 where it is free.  Only
    ring operations are used, so the weights and ``keep`` may be ints,
    jets, floats, or numpy arrays that broadcast against each other,
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
    """:func:`prob_all_zero` in float64 for every mask of an int64 array.

    :func:`_sweep` on :func:`float_weights`, one numpy operation per step
    for all masks at once, with ``keep`` a 0.0/1.0 row per vertex.  Every
    value is a sum or product of values in [0, 1], and multiplying by
    0.0 or 1.0 is exact; along any input-to-output path of one mask's
    sweep there are at most 7 roundings per edge (two inputs, five
    operations) and 3 at the root.
    """
    return _sweep(tree, weights, 1.0 - ((masks >> np.arange(tree.n)[:, None]) & 1))


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
    :func:`scaled_params`, a jet when jets are planted in them.
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


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _bern(rng, q, size):
    """Boolean draws that are True with exact rational probability ``q``."""
    if q == 0:
        return np.zeros(size, dtype=bool)
    if q == 1:
        return np.ones(size, dtype=bool)
    threshold = (q.numerator << 63) // q.denominator
    return rng.integers(0, 1 << 63, size=size, dtype=np.int64) < threshold


def sample_recursive_many(tree, params, n_draws, seed):
    """Vectorised root-to-leaf sampler; returns packed bitmask per draw.

    Bit ``v`` of word ``i`` is ``X(v)`` in draw ``i``.  Randomness is
    consumed in preorder, so draws are reproducible per (tree, params,
    seed).
    """
    rng = _rng(seed)
    x = np.zeros((tree.n, n_draws), dtype=bool)
    for v in tree.preorder:
        if v == tree.root:
            x[v] = ~_bern(rng, params.r[v], n_draws)
        else:
            resample = _bern(rng, params.p[tree.parent_edge[v]], n_draws)
            fresh = ~_bern(rng, params.r[v], n_draws)
            x[v] = np.where(resample, fresh, x[tree.parent[v]])
    return _pack(x)


def sample_percolation_many(tree, params, n_draws, seed):
    """Vectorised divide-and-color sampler; same output format as
    :func:`sample_recursive_many` but a genuinely different code path:
    cut edges first, then color each component by its top vertex's draw.
    """
    rng = _rng(seed)
    cut = np.zeros((tree.n, n_draws), dtype=bool)
    for v in tree.preorder[1:]:
        cut[v] = _bern(rng, params.p[tree.parent_edge[v]], n_draws)
    fresh = np.zeros((tree.n, n_draws), dtype=bool)
    for v in range(tree.n):
        fresh[v] = ~_bern(rng, params.r[v], n_draws)

    top = np.zeros((tree.n, n_draws), dtype=np.int64)
    top[tree.root] = tree.root
    for v in tree.preorder[1:]:
        top[v] = np.where(cut[v], v, top[tree.parent[v]])
    cols = np.arange(n_draws)
    x = np.zeros((tree.n, n_draws), dtype=bool)
    for v in range(tree.n):
        x[v] = fresh[top[v], cols]
    return _pack(x)


def _pack(x):
    words = np.zeros(x.shape[1], dtype=np.uint64)
    for v in range(x.shape[0]):
        words |= x[v].astype(np.uint64) << np.uint64(v)
    return words
