import math
import random
from fractions import Fraction

import pytest

from turankit import (
    EpsilonMode,
    binomial,
    decimal_string,
    epsilon_threshold,
    epsilon_value,
    multinomial,
    vertex_threshold,
    x_ratio,
)
from oracles import exp_bounds, exp_places, exp_series


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(4, 0) == 1
    # out-of-range convention: C(k-2, k-1) = 0, which forces x_ratio = 1 at m = k-1
    for k in range(2, 9):
        assert binomial(k - 2, k - 1) == 0
    assert binomial(6, 7) == 0
    assert binomial(6, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal():
    for n in range(1, 65):
        for j in range(1, n):
            assert binomial(n, j) == binomial(n - 1, j - 1) + binomial(n - 1, j)


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(6, (2, 2, 2)) == 90
    assert multinomial(3, (3,)) == 1
    with pytest.raises(ValueError):
        multinomial(4, (2, 3))
    # the factorial quotient against the product of binomials that picks
    # each part from the items left, on random part lists
    rng = random.Random(20260107)
    for _ in range(300):
        parts = [rng.randint(0, 30) for _ in range(rng.randint(1, 8))]
        rest, product = sum(parts), 1
        for c in parts:
            product *= math.comb(rest, c)
            rest -= c
        assert multinomial(sum(parts), parts) == product, parts


def test_x_ratio_values():
    assert x_ratio(3, 5, 5) == 0
    assert x_ratio(3, 2, 5) == 1
    assert x_ratio(3, 4, 5) == Fraction(1, 2)
    assert x_ratio(3, 3, 5) == Fraction(5, 6)


def test_x_ratio_k2_closed_form():
    for r in range(3, 13):
        for m in range(1, r + 1):
            assert x_ratio(2, m, r) == 1 - Fraction(m - 1, r - 1)


def test_x_ratio_monotone_and_bounded():
    for k in range(2, 7):
        for r in range(k + 1, 13):
            values = [x_ratio(k, m, r) for m in range(k - 1, r + 1)]
            assert values[0] == 1 and values[-1] == 0
            assert all(0 <= v <= 1 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))


def test_x_ratio_domain():
    with pytest.raises(ValueError):
        x_ratio(3, 1, 5)  # below k-1
    with pytest.raises(ValueError):
        x_ratio(3, 6, 5)  # above r
    with pytest.raises(ValueError):
        x_ratio(1, 1, 2)


def test_epsilon_values():
    assert epsilon_value(3, 5, 100, EpsilonMode.LITERAL) == Fraction(1, 96)
    assert epsilon_value(3, 5, 100, EpsilonMode.CORRECTED) == Fraction(1, 48)
    for k in range(2, 7):
        n = 50
        assert epsilon_value(k, k + 1, n, EpsilonMode.LITERAL) == Fraction(
            1, (n - k) * (k - 1)
        )
    with pytest.raises(ValueError):
        epsilon_value(3, 5, 5)


def test_corrected_epsilon_is_reciprocal_of_smallest_term():
    # corrected eps equals 1/((n-r+1) x(k, r-1, r)) computed from the definition
    for k, r, n in [(3, 5, 20), (2, 4, 9), (4, 7, 30), (5, 9, 44)]:
        eps = epsilon_value(k, r, n, EpsilonMode.CORRECTED)
        assert eps == 1 / ((n - r + 1) * x_ratio(k, r - 1, r))


def test_thresholds_are_consistent():
    # n exceeds the vertex threshold exactly when eps stays below the
    # positivity threshold
    for k, r in [(2, 3), (3, 5), (4, 6), (5, 11)]:
        for mode in EpsilonMode:
            thr = vertex_threshold(k, r, mode)
            n_lo = math.floor(thr)
            n_hi = math.floor(thr) + 1 if thr != int(thr) else int(thr) + 1
            if n_lo > r:
                assert epsilon_value(k, r, n_lo, mode) >= epsilon_threshold(k, r)
            while n_hi <= thr:
                n_hi += 1
            assert epsilon_value(k, r, n_hi, mode) < epsilon_threshold(k, r)


def test_fraction_string_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        f = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        assert Fraction(str(f)) == f


def test_exp_bounds_bracket():
    lo, hi = exp_bounds(Fraction(-2, 3))
    assert lo < hi and hi - lo < Fraction(1, 10**30)
    # e^(-2/3) = 0.51341711903259...
    assert Fraction("0.513417119032") < lo and hi < Fraction("0.513417119033")
    lo1, hi1 = exp_bounds(Fraction(1))
    # e = 2.718281828459045...
    assert Fraction("2.718281828459") < lo1 and hi1 < Fraction("2.718281828460")


def test_exp_bounds_matches_fraction_series():
    # exp_bounds is the term-by-term Fraction series where its tail bound
    # holds, and those brackets all hold e^x: they meet each other and, for
    # x <= 0, the bracket of exp_places
    for x in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(-7), Fraction(13, 4), Fraction(-39, 2)):
        brackets = [exp_bounds(x, terms) for terms in (41, 42, 64, 128)]
        assert brackets == [exp_series(x, terms) for terms in (41, 42, 64, 128)]
        if x <= 0:
            brackets.append(exp_places(x))
        assert max(lo for lo, _ in brackets) <= min(hi for _, hi in brackets), x
    # the tail bound needs terms >= 2|x| + 2
    with pytest.raises(ValueError, match="too few series terms"):
        exp_bounds(Fraction(-39, 2), 40)


def test_decimal_string():
    assert decimal_string(Fraction(1, 2), 3) == "0.500"
    assert decimal_string(Fraction(-5, 4), 2) == "-1.25"
    assert decimal_string(Fraction(1, 3), 6) == "0.333333"
