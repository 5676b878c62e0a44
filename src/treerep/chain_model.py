"""Tree-indexed two-state Markov chains: exact probabilities and samplers.

The chain is parametrised by a root law ``P(fresh draw = 0) = r_v`` per
vertex and a resampling probability ``p_e`` per edge: walking away from the
root, a child copies its parent's value with probability ``1 - p_e`` and
otherwise draws fresh from its own ``r``.  Equivalently (divide-and-color):
cut each edge independently with probability ``p_e`` and give every
resulting component the fresh draw of its vertex closest to the root.

Probabilities are exact ``fractions.Fraction`` values throughout; the
message-passing core only uses ring operations, so it also accepts
truncated-jet coefficients for derivative work and, for verdicts, plain
integers that are every probability times one common denominator.
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
    value of the sure event.  :func:`ring_weights` gives probabilities
    themselves; :func:`scaled_params` gives integers that are all
    probabilities times one common factor.
    """

    r: tuple
    rbar: tuple
    p: tuple
    copy: tuple
    one: object


def ring_weights(tree, params):
    """Weights with ``rbar = 1 - r`` and ``copy = 1 - p``.

    Entries of ``params`` may be Fractions or jet values; the sweep then
    returns probabilities of the same kind.  Callers that sweep many
    masks of one chain build these once and pass them as ``params``.
    """
    p = tuple(None if e < 0 else params.p[e] for e in tree.parent_edge)
    return Weights(
        r=params.r,
        rbar=tuple(1 - x for x in params.r),
        p=p,
        copy=tuple(None if x is None else 1 - x for x in p),
        one=Fraction(1),
    )


def scaled_params(tree, params):
    """Integer weights under which the sweep returns ``den * P(X(A) = 0)``.

    With ``r_v = a_v / b_v`` and ``p_e = c_e / d_e`` in lowest terms,
    ``den`` is the product of every ``b_v`` and every ``d_e``.  Each
    probability is multilinear in every parameter, so scaling vertex
    ``v`` by ``b_v`` and the edge above ``c`` by ``d_e * b_c`` clears
    all denominators: the weights are ``r = a``, ``rbar = b - a``,
    ``p = c`` and ``copy = (d - c) * b_c``, and ``one = den``.  Ratios
    of equally many such values equal the ratios of the probabilities,
    with no gcd anywhere.  ``params`` must hold Fractions.
    """
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
    """:func:`ring_weights` rounded to float64, each entry correctly rounded.

    Each entry is one int/int true division, which rounds correctly:
    ``1 - r`` is ``(b - a) / b``, never ``1.0 - float(r)``.  The root's
    unused edge entries are those of p = 0.  ``params`` must hold
    Fractions.
    """
    p = [params.p[e] if e >= 0 else Fraction(0) for e in tree.parent_edge]
    return Weights(
        r=tuple(x.numerator / x.denominator for x in params.r),
        rbar=tuple((x.denominator - x.numerator) / x.denominator for x in params.r),
        p=tuple(x.numerator / x.denominator for x in p),
        copy=tuple((x.denominator - x.numerator) / x.denominator for x in p),
        one=1.0,
    )


def prob_all_zero_many(tree, weights, masks):
    """:func:`prob_all_zero` in float64 for every mask of an int64 array.

    The sweep of :func:`prob_all_zero` on :func:`float_weights`, one
    numpy operation per step for all masks at once.  Every value is a
    sum or product of values in [0, 1], and the zero constraint is an
    exact ``np.where``; along any input-to-output path of one mask's
    sweep there are at most 7 roundings per edge (two inputs, five
    operations) and 3 at the root.
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


def prob_all_zero(tree, params, zero_on):
    """Exact probability that the chain is 0 everywhere on ``zero_on``.

    One bottom-up sweep: ``f_v(x)`` is the probability that the subtree
    below ``v`` respects the zero constraint given ``X(v) = x``; an edge
    passes its child's table through the copy/resample kernel.  Only ring
    operations are used.  ``params`` is a :class:`ChainParams` of
    Fractions or jet values, or :class:`Weights` from
    :func:`ring_weights` or :func:`scaled_params`; with the latter the
    result is the integer ``den * P``.
    """
    a = zero_on.bits
    if a >> tree.n:
        raise DomainError("zero_on contains ids outside the tree")
    w = ring_weights(tree, params) if isinstance(params, ChainParams) else params
    if a == 0:
        return w.one

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
        f0[v] = m0
        f1[v] = 0 * m1 if (a >> v) & 1 else m1
    ro = tree.root
    return r[ro] * f0[ro] + rbar[ro] * f1[ro]


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
