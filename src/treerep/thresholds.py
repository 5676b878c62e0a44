"""Threshold constants of the representability phase picture.

Exact integer/rational machinery for complementary Bell numbers,
negative-order polylogarithms (via Eulerian polynomials), and the derived
critical resampling levels:

* ``r_star(n)``: largest strictly negative root of ``Li_{1-n}``;
* ``r1(n) = 1/(1 - r_star(n))``: where the strong-resampling boundary
  function ``f_poly(n, .)`` changes sign;
* ``r0(k)``: the weak-resampling companion level derived from
  complementary Bell numbers, kept to reproduce the table's ``r0``
  column.  It comes from the reference expression :func:`f_k`, which is
  not the small-p mass of this module's chain: that mass is positive on
  all of (0, 1) (see ``param_calculus.closed_form_p0``).

Root finding bisects the bracket [-(m-1)/a, -1/a] that Vieta's formulas
give for the largest root of the Eulerian polynomial A_m, a being its
linear coefficient, with exact integer evaluation, until both ends round
to the same ``r_star`` and ``r1``: both are correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chain_model import as_fraction
from .tree_core import DomainError, as_int

MAX_BELL_INDEX = 64


def complementary_bell(n):
    """Alternating sum of Stirling partition counts: sum_k (-1)^k S(n,k).

    The sequence runs 1, -1, 0, 1, 1, -2, -9, -9, 50, ... and measures the
    surplus of even- over odd-block set partitions.  Its exponential
    generating function exp(1 - e^x) has derivative -e^x times itself,
    which gives the recurrence b(m+1) = -sum_k C(m, k) b(k).  The index
    is checked before the cache, which then sees only ints.
    """
    return _complementary_bell(_bell_index(n))


@lru_cache(maxsize=None)
def _complementary_bell(n):
    if n == 0:
        return 1
    return -sum(math.comb(n - 1, k) * _complementary_bell(k) for k in range(n))


def _bell_index(n):
    """``n`` as an int in 0..MAX_BELL_INDEX, else a :class:`DomainError`."""
    n = as_int(n, "complementary Bell index")
    if not 0 <= n <= MAX_BELL_INDEX:
        raise DomainError("complementary Bell index must be in 0..%d" % MAX_BELL_INDEX)
    return n


def eulerian_coeffs(m):
    """Coefficients of the Eulerian polynomial A_m(z), ascending in z.

    A_0 = 1; A_m has degree m - 1 with the triangle recurrence
    <m,k> = (k+1)<m-1,k> + (m-k)<m-1,k-1>.  The index is checked before
    the cache, which then sees only ints.
    """
    m = as_int(m, "m")
    if m < 0:
        raise DomainError("m must be nonnegative")
    return _eulerian_row(m)


@lru_cache(maxsize=None)
def _eulerian_row(m):
    if m == 0:
        return (1,)
    prev = (0,) + _eulerian_row(m - 1) + (0,)
    return tuple((k + 1) * prev[k + 1] + (m - k) * prev[k] for k in range(m))


def _eval_poly(coeffs, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def polylog_neg_order(n, z):
    """Exact ``Li_{1-n}(z)`` for integer ``n >= 2`` and rational ``z != 1``.

    Uses the closed form ``Li_{-m}(z) = z * A_m(z) / (1-z)^(m+1)`` with
    ``m = n - 1`` and the Eulerian polynomial ``A_m``.
    """
    if as_int(n, "n") < 2:
        raise DomainError("order 1-n with n >= 2 required")
    z = as_fraction(z)
    if z == 1:
        raise DomainError("polylogarithm of negative order has a pole at z=1")
    m = n - 1
    return z * _eval_poly(eulerian_coeffs(m), z) / (1 - z) ** (m + 1)


@lru_cache(maxsize=None)
def _largest_negative_eulerian_root(m):
    """Correctly rounded floats of A_m's largest root rho and of 1/(1 - rho), m >= 2.

    A_m is real-rooted with A_m(0) = 1, so its roots rho_i are negative
    and, by Vieta, the 1/|rho_i| sum to its linear coefficient a.  The
    largest of those m - 1 reciprocals, 1/|rho|, is at least their mean
    and at most their sum, so rho lies in [-(m-1)/a, -1/a] and A_m > 0
    on (-1/a, 0].  The bracket is kept as integers, lo/den <= rho <=
    hi/den with A_m(lo/den) <= 0 <= A_m(hi/den), and halved; each
    midpoint's sign is read off one integer Horner pass, with no
    ``Fraction`` to normalise.  Bisection stops once both ends give the
    same float for rho and for 1/(1 - rho): int / int is correctly
    rounded, and rho is -1 (m = 2, where the bracket is one point) or
    irrational (A_m's end coefficients are 1, so -1 is its only
    candidate rational root), so it lies on no rounding boundary and
    the loop ends.  That -(m-1)/a also lies above A_m's second root, so
    that A_m <= 0 there, is tested for every m = 2..63 a table row
    reaches.
    """
    coeffs = eulerian_coeffs(m)
    lo, hi, den = -(m - 1), -1, coeffs[1]
    while lo / den != hi / den or den / (den - lo) != den / (den - hi):
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2  # exact: both ends are even
        value, scale = coeffs[-1], 1  # den^(m-1) * A_m(mid/den), sign and all
        for c in reversed(coeffs[:-1]):
            scale *= den
            value = value * mid + c * scale
        if value < 0:
            lo = mid
        else:
            hi = mid
    return lo / den, den / (den - lo)


def r_star(n) -> float:
    """Largest strictly negative root of ``Li_{1-n}``, correctly rounded, for ``n >= 3``.

    The nonzero roots of ``Li_{1-n}`` are the roots of the Eulerian
    polynomial ``A_{n-1}``; these are simple, real and negative.
    """
    return _largest_negative_eulerian_root(_r_star_index(n) - 1)[0]


def _r_star_index(n):
    """``n`` if it is an integer >= 3, else a :class:`DomainError`."""
    if as_int(n, "n") < 3:
        raise DomainError("r_star needs n >= 3")
    return n


def r1(m) -> float:
    """Sign-change location of ``f_poly(m, .)`` in (0, 1): 1/(1 - r_star).

    Correctly rounded from the exact root, not from the float ``r_star(m)``.
    """
    if as_int(m, "m") < 3:
        raise DomainError("r1 needs m >= 3")
    return _largest_negative_eulerian_root(m - 1)[1]


def r0(k):
    """Weak-resampling companion level of the table, or None when undefined.

    Defined as the maximum over 2 <= j <= k with (-1)^j * bell_c(j) > 0 of
    ``x / (1 + x)`` where ``x = ((-1)^j bell_c(j))^(1/(j-1))``.  For k = 3
    no index qualifies (bell_c(2) = 0, -bell_c(3) < 0), so the value is
    undefined; the reference table prints an anomalous placeholder there.
    Each candidate ``x / (1 + x)`` is the root in (0, 1) of the reference
    expression ``f_k(j, .)``, which is not the small-p mass of this
    chain, so ``r0`` marks no small-p phase flip of the chain; the value
    is kept to reproduce the table's ``r0`` column.
    """
    if as_int(k, "k") < 3:
        raise DomainError("r0 needs k >= 3")
    best = None
    for j in range(2, k + 1):
        v = (-1) ** j * complementary_bell(j)
        if v > 0:
            x = math.exp(math.log(v) / (j - 1))
            cand = x / (1 + x)
            if best is None or cand > best:
                best = cand
    return best


def f_k(k, r):
    """Reference boundary polynomial ``(1-r) r^(k-1) - (-1)^k bell_c(k) (1-r)^k``.

    A reference expression whose roots generate :func:`r0`, kept to
    reproduce the table's ``r0`` column.  It is not the small-p mass of
    this chain.  For a connected set with ``k`` boundary edges the mass
    at uniform small ``p`` is ``(1-r) r^(k-1) p^k (1 + O(p))``, positive
    on all of (0, 1) (see ``param_calculus.closed_form_p0``), while for
    example ``f_k(4, r)`` is negative below r = 1/2.
    """
    r = as_fraction(r)
    bell = complementary_bell(k)
    return (1 - r) * r ** (k - 1) - (-1) ** k * bell * (1 - r) ** k


def f_poly(j, r):
    """Strong-resampling boundary function, exactly.

    ``f_poly(j, r) = Li_{1-j}(-(1-r)/r) / (r^(j-1) (1-r))`` for rational
    ``r`` in (0, 1); changes sign exactly once, at ``r1(j)``.
    """
    r = as_fraction(r)
    if not 0 < r < 1:
        raise DomainError("r must lie strictly between 0 and 1")
    return polylog_neg_order(j, -(1 - r) / r) / (r ** (j - 1) * (1 - r))


@dataclass(frozen=True)
class ThresholdTable:
    """One row of the threshold table for branching number ``n``."""

    n: int
    bell_c: int
    r_star: float
    r0: float | None
    r1: float


def threshold_table(ns):
    """Rows for each n in ``ns`` (each must be in 3..64).

    Every index is checked before any row is built, and the first bad
    one gets the refusal its row would raise.  The good indices before
    it are distinct in 3..64 when ``ns`` is a range, so a range of any
    length is refused after at most 62 checks.
    """
    if not isinstance(ns, range):
        ns = list(ns)
    for n in ns:
        _r_star_index(_bell_index(n))
    return [
        ThresholdTable(n=n, bell_c=complementary_bell(n), r_star=r_star(n), r0=r0(n), r1=r1(n))
        for n in ns
    ]
