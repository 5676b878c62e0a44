"""Representability verdicts, (r, p) phase scans, and scaling checks.

A chain is representable exactly when its signed measure is nonnegative
everywhere.  Disconnected sets carry exactly zero mass on trees, so the
verdict only has to sweep connected sets, whose count stays far below
2^n on sparse trees; each connected set gets its exact sign from
boundary-indexed inclusion-exclusion with a probability table shared
across the whole sweep.  The table holds the integer encoding of
:func:`~treerep.chain_model.scaled_params`, so each sign is one
comparison of two int products.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chain_model import as_fraction, scaled_params, uniform_params
from .signed_measure import nu_connected, nu_full, restrict_measure
from .tree_core import VertexSet, connected_subsets, subdivide

MAX_VERDICT_ORDER = 20
MAX_SCALING_ORDER = 14


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact nonnegativity sweep.

    ``witness`` is present exactly when ``representable`` is false and
    is the first negative-mass set in (size, bit pattern) order.
    ``checked_sets`` counts the sets whose sign was actually computed;
    a failed sweep stops at its witness.
    """

    representable: bool
    witness: Optional[VertexSet]
    checked_sets: int
    restricted_to_connected: bool = True


@dataclass(frozen=True)
class PhasePoint:
    r: Fraction
    p: Fraction
    verdict: Verdict


def is_representable(tree, params) -> Verdict:
    """Exact verdict: does every nonempty set carry nonnegative mass?

    Sweeps the connected sets in (size, bit pattern) order and stops at
    the first negative sign.  Vertex laws must lie in (0, 1]; trees are
    capped at ``MAX_VERDICT_ORDER`` vertices since the sweep is
    exponential in the boundary sizes.
    """
    if tree.n > MAX_VERDICT_ORDER:
        raise ValueError(
            "full verdicts are capped at %d vertices" % MAX_VERDICT_ORDER
        )
    for x in params.r:
        if not 0 < x <= 1:
            raise ValueError("vertex laws must lie in (0, 1] for verdicts")

    order = sorted(connected_subsets(tree), key=lambda b: (b.bit_count(), b))
    weights = scaled_params(tree, params)
    cache = {}
    checked = 0
    for bits in order:
        checked += 1
        value = nu_connected(tree, weights, VertexSet(bits), prob_cache=cache)
        if value.sign < 0:
            return Verdict(
                representable=False, witness=VertexSet(bits), checked_sets=checked
            )
    return Verdict(representable=True, witness=None, checked_sets=checked)


def phase_scan(tree, r_values, p_values, threads=1):
    """Verdict at every grid point; returns PhasePoints sorted by (r, p).

    Grid values must lie strictly inside (0, 1).  ``threads`` > 1 farms
    grid points out to a thread pool; the output order is independent
    of scheduling.
    """
    rs = [as_fraction(r) for r in r_values]
    ps = [as_fraction(p) for p in p_values]
    for x in rs + ps:
        if not 0 < x < 1:
            raise ValueError("scan grids must lie strictly inside (0, 1)")
    points = sorted((r, p) for r in set(rs) for p in set(ps))

    def solve(point):
        r, p = point
        return PhasePoint(r, p, is_representable(tree, uniform_params(tree, r, p)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, points))
    return [solve(point) for point in points]


def scaling_check(tree, r, p, k) -> bool:
    """Subdivision consistency of the measure, checked entry by entry.

    Splitting every edge into ``k`` equal-parameter segments and then
    restricting the subdivided measure back to the original vertices
    must reproduce the original tree's measure with the aggregated
    parameter p' = 1 - (1-p)^k.  Exact comparison over every nonempty
    subset; any mismatch returns False.
    """
    k = int(k)
    if k < 1:
        raise ValueError("subdivision factor must be >= 1")
    if k == 1:
        return True
    r = as_fraction(r)
    p = as_fraction(p)
    big, originals = subdivide(tree, k)
    if big.n > MAX_SCALING_ORDER:
        raise ValueError(
            "subdivided tree exceeds %d vertices" % MAX_SCALING_ORDER
        )
    restricted = restrict_measure(nu_full(big, uniform_params(big, r, p)), originals)
    p_prime = 1 - (1 - p) ** k
    direct = nu_full(tree, uniform_params(tree, r, p_prime))
    for bits in range(1, 1 << tree.n):
        s = VertexSet(bits)
        if restricted.value(s).ratio != direct.value(s).ratio:
            return False
    return True
