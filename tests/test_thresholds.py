import math
from fractions import Fraction

import numpy as np
import pytest

from treerep.tree_core import DomainError
from treerep.thresholds import (
    MAX_BELL_INDEX,
    complementary_bell,
    eulerian_coeffs,
    f_k,
    f_poly,
    polylog_neg_order,
    r0,
    r1,
    r_star,
    threshold_table,
)

from oracles import bounds_checked_eulerian_row, stirling_complementary_bell

# published reference rows: n -> (bell_c, r_star, r0, r1)
REFERENCE = {
    3: (1, -1.0, None, 0.5),
    4: (1, -0.26795, 0.5, 0.78868),
    5: (-2, -0.10102, 0.54321, 0.90825),
    6: (-9, -0.04310, 0.54321, 0.95868),
    7: (-9, -0.01952, 0.59054, 0.98085),
    8: (50, -0.00915, 0.63619, 0.99093),
}


def test_complementary_bell_small_values():
    expect = [1, -1, 0, 1, 1, -2, -9, -9, 50]
    assert [complementary_bell(n) for n in range(9)] == expect
    with pytest.raises(ValueError):
        complementary_bell(65)
    with pytest.raises(ValueError):
        complementary_bell(-1)
    for n in (2.5, 2.0, "3", True):  # refused before any recursion
        with pytest.raises(DomainError, match="must be an integer"):
            complementary_bell(n)


def test_complementary_bell_against_egf():
    # independent oracle: exp(1 - e^x) expanded with exact coefficients
    order = 13
    expm1 = [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, order)]
    series = [Fraction(0)] * order
    series[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for k in range(1, order):
        nxt = [Fraction(0)] * order
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(expm1):
                    if b and i + j < order:
                        nxt[i + j] += a * b
        power = nxt
        coeff = Fraction((-1) ** k, math.factorial(k))
        for i in range(order):
            series[i] += coeff * power[i]
    for n in range(order):
        assert complementary_bell(n) == series[n] * math.factorial(n)


def test_recurrence_rows_match_their_reference_definitions():
    # every index threshold_table can reach: bell_c(n) for n <= 64, A_m for m = n - 1 <= 63
    for n in range(MAX_BELL_INDEX + 1):
        assert complementary_bell(n) == stirling_complementary_bell(n), n
    for m in range(MAX_BELL_INDEX):
        assert eulerian_coeffs(m) == bounds_checked_eulerian_row(m), m


def test_eulerian_rows():
    assert eulerian_coeffs(0) == (1,)
    assert eulerian_coeffs(1) == (1,)
    assert eulerian_coeffs(2) == (1, 1)
    assert eulerian_coeffs(3) == (1, 4, 1)
    assert eulerian_coeffs(4) == (1, 11, 11, 1)
    for m in range(1, 16):
        row = eulerian_coeffs(m)
        assert sum(row) == math.factorial(m)
        assert all(c > 0 for c in row)
        assert row == row[::-1]
    with pytest.raises(DomainError, match="m must be nonnegative"):
        eulerian_coeffs(-1)


def test_polylog_exact_values():
    assert polylog_neg_order(3, -1) == 0
    assert polylog_neg_order(2, Fraction(1, 2)) == 2
    assert polylog_neg_order(2, Fraction(1, 3)) == Fraction(3, 4)
    assert polylog_neg_order(3, Fraction(1, 2)) == 6
    assert polylog_neg_order(5, 0) == 0
    with pytest.raises(ValueError):
        polylog_neg_order(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        polylog_neg_order(3, 1)
    assert polylog_neg_order(3, "-1/2") == polylog_neg_order(3, Fraction(-1, 2))
    with pytest.raises(DomainError, match="not an exact rational"):
        polylog_neg_order(3, "1/0")


def test_r_star_reference_digits():
    assert r_star(3) == -1.0
    assert abs(r_star(4) - (math.sqrt(3) - 2)) < 1e-12
    assert abs(r_star(5) - (math.sqrt(24) - 5)) < 1e-12
    for n, (_, rs, _, _) in REFERENCE.items():
        assert abs(r_star(n) - rs) < 1e-4
    with pytest.raises(ValueError):
        r_star(2)


def _eulerian_value(m, z):
    acc = Fraction(0)
    for c in reversed(eulerian_coeffs(m)):
        acc = acc * z + c
    return acc


def test_r_star_is_a_sign_change_of_the_eulerian_polynomial():
    # every n the CLI takes: A_{n-1} changes sign across the returned root
    # at relative +-2^-50, or vanishes on it; and across the ends of the
    # bisection's bracket [-(m-1)/a, -1/a], a being A_m's linear coefficient
    for n in range(3, MAX_BELL_INDEX + 1):
        a = eulerian_coeffs(n - 1)[1]
        lower, upper = Fraction(2 - n, a), Fraction(-1, a)
        assert _eulerian_value(n - 1, lower) <= 0 <= _eulerian_value(n - 1, upper), n
        root = Fraction(r_star(n))
        step = root / 2**50
        below = _eulerian_value(n - 1, root + step)  # root < 0: the lower point
        above = _eulerian_value(n - 1, root - step)
        assert _eulerian_value(n - 1, root) == 0 or below < 0 < above, n


def _rounding_interval(x):
    """The ends of the reals that round to the float ``x``, as Fractions."""
    x = Fraction(x)
    lower = Fraction(math.nextafter(float(x), -math.inf))
    upper = Fraction(math.nextafter(float(x), math.inf))
    return (x + lower) / 2, (x + upper) / 2


def test_r_star_and_r1_are_correctly_rounded():
    # the exact root lies strictly inside the reals that round to r_star(n),
    # and 1 - 1/r, increasing in r, maps those that round to r1(n) around it
    for n in range(3, MAX_BELL_INDEX + 1):
        lo, hi = _rounding_interval(r_star(n))
        assert _eulerian_value(n - 1, lo) < 0 < _eulerian_value(n - 1, hi), n
        lo, hi = _rounding_interval(r1(n))
        assert _eulerian_value(n - 1, 1 - 1 / lo) < 0 < _eulerian_value(n - 1, 1 - 1 / hi), n


def test_r_star_against_numpy_roots():
    # A_m is palindromic, so its largest root is 1 over its most negative
    # one, which np.roots gives to a few ulps; this shows that the root
    # returned is the largest, not another one, at every n the CLI takes
    for n in range(3, MAX_BELL_INDEX + 1):
        roots = np.roots(list(eulerian_coeffs(n - 1))[::-1])
        most_negative = max(roots, key=abs)
        assert most_negative.imag == 0 and most_negative.real < 0
        assert abs(r_star(n) * most_negative.real - 1) < 1e-12, n


def test_r1_reference_digits():
    assert r1(3) == 0.5
    for n, (_, _, _, want) in REFERENCE.items():
        assert abs(r1(n) - want) < 1e-4
    # strictly increasing toward 1
    vals = [r1(n) for n in range(3, 20)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1
    with pytest.raises(DomainError, match="r1 needs m >= 3"):
        r1(2)


def test_r0_reference_digits():
    assert r0(3) is None  # no qualifying index: the table's placeholder is an anomaly
    assert abs(r0(4) - 0.5) < 1e-12
    for n, (_, _, want, _) in REFERENCE.items():
        if want is None:
            assert r0(n) is None
        else:
            assert abs(r0(n) - want) < 1e-4
    assert r0(5) == r0(6)  # index 6 contributes nothing positive
    with pytest.raises(DomainError, match="r0 needs k >= 3"):
        r0(2)


def test_orders_must_be_integers():
    # every entry point that takes an order refuses a non-integer itself
    calls = [
        complementary_bell,
        lambda n: eulerian_coeffs(n),
        lambda n: polylog_neg_order(n, Fraction(-1, 2)),
        r_star,
        r1,
        r0,
        lambda n: f_k(n, Fraction(1, 2)),
        lambda n: f_poly(n, Fraction(1, 2)),
        lambda n: threshold_table([3, n]),
    ]
    eulerian_coeffs(3)  # a cached integer order must not let 3.0 through
    for call in calls:
        for n in (3.5, 3.0, "4", True, [3]):  # [3] is unhashable: refused before any cache
            with pytest.raises(DomainError, match="must be an integer"):
                call(n)


def test_f_k_values():
    assert f_k(3, Fraction(1, 2)) == Fraction(1, 4)
    assert f_k(4, Fraction(1, 2)) == 0
    assert f_k(4, Fraction(11, 20)) > 0
    assert f_k(4, Fraction(9, 20)) < 0
    assert f_k(4, 0.45) == f_k(4, Fraction(9, 20))  # 0.45 is read as 9/20
    with pytest.raises(DomainError, match="not an exact rational"):
        f_k(4, "x")


def test_f_poly_values_and_sign_change():
    assert f_poly(3, Fraction(1, 2)) == 0
    with pytest.raises(ValueError):
        f_poly(3, Fraction(2))
    assert f_poly(3, 0.45) == f_poly(3, Fraction(9, 20))  # not the binary double
    with pytest.raises(DomainError, match="not an exact rational"):
        f_poly(3, "x")
    # substituting z = -(1-r)/r sweeps all of (-inf, 0), so every negative
    # root of the Eulerian polynomial produces a sign change: m - 2 flips
    # in total, the last of which sits at r1(m) (positive below it,
    # negative between it and 1).
    for m in (3, 4, 5, 6):
        boundary = r1(m)
        grid = [Fraction(k, 256) for k in range(1, 256)]
        signs = [1 if f_poly(m, r) > 0 else (-1 if f_poly(m, r) < 0 else 0) for r in grid]
        flips = [
            i
            for i, (a, b) in enumerate(zip(signs, signs[1:]))
            if (a > 0) != (b > 0) and 0 not in (a, b)
        ]
        zero_hits = [i for i, s in enumerate(signs) if s == 0]
        assert len(flips) + len(zero_hits) == m - 2
        for r, s in zip(grid, signs):
            if boundary + 1e-9 < float(r):
                assert s < 0
        # sign bisection across the last flip re-finds r1 to 1e-10
        lo = Fraction(int(boundary * 256) - 8, 256)
        hi = Fraction(255, 256)
        assert f_poly(m, lo) > 0 > f_poly(m, hi)
        while hi - lo > Fraction(1, 10**11):
            mid = (lo + hi) / 2
            val = f_poly(m, mid)
            if val > 0:
                lo = mid
            elif val < 0:
                hi = mid
            else:
                lo = hi = mid
        assert abs(float((lo + hi) / 2) - boundary) < 1e-10


def test_threshold_table_gives_the_first_bad_rows_refusal():
    for ns, message in [
        ([70, 2], "complementary Bell index must be in 0..64"),
        ([2, 70], "r_star needs n >= 3"),
        (range(3, 10**15), "complementary Bell index must be in 0..64"),
        (range(-1, 10), "complementary Bell index must be in 0..64"),
        (range(10, -5, -1), "r_star needs n >= 3"),
    ]:
        with pytest.raises(DomainError, match=message):
            threshold_table(ns)
    assert [row.n for row in threshold_table(iter([4, 3]))] == [4, 3]


def test_threshold_table_rows():
    rows = threshold_table(range(3, 9))
    for row in rows:
        bell, rs, want_r0, want_r1 = REFERENCE[row.n]
        assert row.bell_c == bell
        assert abs(row.r_star - rs) < 1e-4
        assert (row.r0 is None) == (want_r0 is None)
        if want_r0 is not None:
            assert abs(row.r0 - want_r0) < 1e-4
        assert abs(row.r1 - want_r1) < 1e-4
