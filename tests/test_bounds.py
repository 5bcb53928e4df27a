import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turankit import (
    EpsilonMode,
    TridiagonalSystem,
    asymptotic_product,
    binomial,
    build_system,
    de_caen_bound,
    enumerate_all,
    epsilon_threshold,
    epsilon_value,
    inverse_matrix,
    partite_lower_bound,
    recurrences,
    sandwich_table,
    solve_delta,
    upper_bound,
    vertex_threshold,
    x_ratio,
)

from oracles import (
    clique_density,
    dense,
    edge_count,
    enumerated_inclusion_exclusion,
    is_edge,
    partite_fractions,
    ratio_bound,
    sandwich_fractions,
    upper_bound_fractions,
    vertex_threshold_fractions,
)

# SHA-256 of the `str()` of every inverse_matrix entry (row by row) and of
# every solve_delta entry (g = k..r-1), one per line, over all
# 2 <= k < r <= 16 and eps in {0, epsilon_threshold(k, r)/2}.
BOUNDS_DIGEST = "2b9f11e673f76b53fc09f4a12952fcc632cd5de1db3d34ad4908bce3432e1678"


def matmul(A, B):
    n = len(A)
    return [
        [sum((A[i][l] * B[l][j] for l in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def gauss_jordan_inverse(A):
    """Dense Fraction inverse with row pivoting, independent of the minors."""
    n = len(A)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        p = next(i for i in range(c, n) if M[i][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for i in range(n):
            if i != c and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return [row[n:] for row in M]


def fraction_minors(diag, offs):
    """Leading minors 1, D_1, .., D_d by the plain Fraction recursion."""
    out = [Fraction(0), Fraction(1)]
    for i, a in enumerate(diag):
        out.append(a * out[-1] - (offs[i - 1] * out[-2] if i else 0))
    return out[1:]


def test_build_system_3_5():
    s = build_system(3, 5)
    assert s.diag == (Fraction(6, 5), Fraction(1))
    assert s.upper == (Fraction(-1, 2),)
    assert s.lower == (Fraction(-2, 5),)


def test_build_system_one_dimensional():
    # single index m = k: diagonal entry 2 - (k-1)/(k x(k, k, k+1)) simplifies to 1
    for k in range(2, 8):
        s = build_system(k, k + 1)
        assert s.dim == 1
        assert s.diag == (2 - Fraction(k - 1, 1) / (k * x_ratio(k, k, k + 1)),)
        assert s.diag[0] == 1


def test_build_system_2_4_matches_definition():
    # direct substitution of x(2,2,4) = 2/3 and x(2,3,4) = 1/3
    s = build_system(2, 4)
    assert s.diag == (2 - Fraction(1) / (2 * Fraction(2, 3)), 2 - Fraction(1) / (3 * Fraction(1, 3)))
    assert s.diag == (Fraction(5, 4), Fraction(1))
    assert s.upper == (-Fraction(1, 3),)
    assert s.lower == (-Fraction(1, 2) / Fraction(2, 3),)
    # the trailing-minor identity pins the diagonal: det = 1 and phi = 1
    tab = recurrences(s)
    assert tab.determinant == 1
    assert set(tab.phi[:-1]) == {Fraction(1)}


def test_offdiagonals_strictly_negative():
    for k in range(2, 7):
        for r in range(k + 2, 13):
            s = build_system(k, r)
            assert all(u < 0 for u in s.upper)
            assert all(l < 0 for l in s.lower)


def test_recurrences_at_zero_eps():
    s = build_system(3, 5)
    tab = recurrences(s, Fraction(0))
    assert tab.phi == (Fraction(1), Fraction(1), Fraction(1), Fraction(0))
    assert tab.theta[3 - 2] == Fraction(6, 5)  # theta[j] = theta(k-1+j)
    assert tab.theta[4 - 2] == Fraction(1)
    assert tab.determinant == 1
    assert tab.zeta == (Fraction(0), Fraction(0), Fraction(0))


def test_phi_identity_and_positive_theta_all_kr():
    for k in range(2, 12):
        for r in range(k + 1, 13):
            tab = recurrences(build_system(k, r))
            assert all(p == 1 for p in tab.phi[:-1])
            assert tab.determinant == 1
            assert all(t > 0 for t in tab.theta)


def test_determinant_lower_bound_below_threshold():
    for k, r in [(3, 5), (3, 8), (4, 7), (2, 6)]:
        s = build_system(k, r)
        for num in (1, 3):
            eps = epsilon_threshold(k, r) * Fraction(num, 4)
            tab = recurrences(s, eps)
            assert tab.determinant >= 1 - eps * Fraction((r - 1) * (r - k), k - 1)
            assert tab.determinant <= 1


def test_zeta_and_phi_envelopes():
    # 0 <= zeta_m <= eps (r-1)/(k-1) (1 - (1-(k-1)/(r-1))^(r-m)) and
    # phi_m >= 1 - eps (r-1)(r-m)/(k-1), exact rationals
    for k, r in [(3, 6), (2, 5), (4, 9), (5, 10)]:
        eps = epsilon_threshold(k, r) / 2
        tab = recurrences(build_system(k, r), eps)
        shrink = 1 - Fraction(k - 1, r - 1)
        for m in range(k, r + 1):
            z = tab.zeta[m - k]
            assert z >= 0
            assert z <= eps * Fraction(r - 1, k - 1) * (1 - shrink ** (r - m))
        for m in range(k, r + 1):
            p = tab.phi[m - k]
            assert p <= 1
            assert p >= 1 - eps * Fraction((r - 1) * (r - m), k - 1)


def test_inverse_entry_first_row_products():
    for k in range(2, 8):
        for r in range(k + 1, 12):
            s = build_system(k, r)
            first_row = inverse_matrix(s)[0]
            for g in range(k, r):
                expected = math.prod(
                    (x_ratio(k, m, r) for m in range(k + 1, g + 1)), start=Fraction(1)
                )
                assert first_row[g - k] == expected


def test_inverse_matrix_times_system_is_identity():
    for k, r in [(3, 6), (2, 5), (4, 8), (5, 10)]:
        s = build_system(k, r)
        for eps in (Fraction(0), Fraction(1, 100), epsilon_threshold(k, r) / 2):
            inv = inverse_matrix(s, eps)
            assert matmul(dense(s, eps), inv) == identity(s.dim)
    # theta(3) = 0 while det = -1/5: no entry may divide by a minor
    s = build_system(3, 5)
    tab = recurrences(s, Fraction(6, 5))
    assert tab.theta[1] == 0 and tab.determinant == Fraction(-1, 5)
    assert matmul(dense(s, Fraction(6, 5)), inverse_matrix(s, Fraction(6, 5))) == identity(2)


def test_integer_inverse_matches_gauss_jordan():
    # every 2 <= k < r <= 16 at eps = 0 and eps = threshold j/97, then the
    # zero-minor shift of (3, 5): theta(3) = 0 while det = -1/5
    cases = []
    for r in range(3, 17):
        for k in range(2, r):
            thr = epsilon_threshold(k, r)
            cases += [(k, r, thr * Fraction(j, 97)) for j in (0, 1, 24, 48, 96)]
    cases.append((3, 5, Fraction(6, 5)))
    for k, r, eps in cases:
        s = build_system(k, r)
        oracle = gauss_jordan_inverse(dense(s, eps))
        assert inverse_matrix(s, eps) == oracle
        for g in s.ms:
            assert solve_delta(k, g, r, eps) == [row[g - k] for row in oracle]
    # a hand-built system is solved from its own entries, not from
    # build_system(3, 5), whose indices it shares
    s = TridiagonalSystem(3, 5, (2, 2), (-1,), (-1,))
    for eps in (Fraction(0), Fraction(1, 2)):
        inv = inverse_matrix(s, eps)
        assert inv == gauss_jordan_inverse(dense(s, eps))
        assert matmul(dense(s, eps), inv) == identity(2)
    assert inverse_matrix(s) == [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]]
    assert recurrences(s).determinant == 3


def test_recurrences_match_fraction_recursion():
    for r in range(3, 17):
        for k in range(2, r):
            s = build_system(k, r)
            thr = epsilon_threshold(k, r)
            for eps in (Fraction(0), thr * Fraction(37, 97), thr, Fraction(6, 5), Fraction(2)):
                diag = [a - eps for a in s.diag]
                offs = [u * l for u, l in zip(s.upper, s.lower)]
                theta = fraction_minors(diag, offs)
                phi = fraction_minors(diag[::-1], offs[::-1])[::-1] + [Fraction(0)]
                tab = recurrences(s, eps)
                assert tab.epsilon == eps
                assert tab.theta == tuple(theta)
                assert tab.phi == tuple(phi)
                assert tab.zeta == tuple(phi[j + 1] - phi[j] for j in range(s.dim)) + (0,)
                assert tab.determinant == theta[-1]


@pytest.mark.parametrize(
    "k, g, r, message",
    [
        (1, 2, 3, "build_system: need 2 <= k < r"),
        (3, 4, 3, "build_system: need 2 <= k < r"),
        (3, 2, 5, "need 2 <= k <= g < r"),
        (3, 5, 5, "need 2 <= k <= g < r"),
    ],
)
def test_solve_delta_range_checked_by_system_and_column(k, g, r, message):
    with pytest.raises(ValueError, match=message):
        solve_delta(k, g, r)


def test_solve_delta_matches_inverse_column():
    s = build_system(3, 5)
    assert solve_delta(3, 4, 5) == [Fraction(1, 2), Fraction(6, 5)]
    assert solve_delta(3, 3, 5) == [Fraction(1), Fraction(2, 5)]
    for k, g, r, eps in [(3, 4, 6, Fraction(1, 100)), (2, 3, 5, Fraction(0)), (4, 5, 7, Fraction(1, 50))]:
        sysm = build_system(k, r)
        delta = solve_delta(k, g, r, eps)
        # residual: (system - eps I) delta = e_g
        A = dense(sysm, eps)
        res = [
            sum((A[i][j] * delta[j] for j in range(sysm.dim)), Fraction(0))
            for i in range(sysm.dim)
        ]
        expected = [Fraction(1) if m == g else Fraction(0) for m in sysm.ms]
        assert res == expected


def test_pinned_bounds_digest():
    h = hashlib.sha256()
    for r in range(3, 17):
        for k in range(2, r):
            sysm = build_system(k, r)
            for eps in (Fraction(0), epsilon_threshold(k, r) / 2):
                for row in inverse_matrix(sysm, eps):
                    for v in row:
                        h.update(f"{v}\n".encode("ascii"))
                for g in range(k, r):
                    for v in solve_delta(k, g, r, eps):
                        h.update(f"{v}\n".encode("ascii"))
    assert h.hexdigest() == BOUNDS_DIGEST


@st.composite
def shifted_systems(draw):
    """(k, r, eps) with r <= 12 and eps = epsilon_threshold(k, r) * p/q,
    0 <= p < q, so eps lies in [0, threshold)."""
    r = draw(st.integers(3, 12))
    k = draw(st.integers(2, r - 1))
    q = draw(st.integers(1, 50))
    p = draw(st.integers(0, q - 1))
    return k, r, epsilon_threshold(k, r) * Fraction(p, q)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(shifted_systems(), st.data())
def test_property_solve_delta_is_inverse_column(case, data):
    k, r, eps = case
    g = data.draw(st.integers(k, r - 1))
    s = build_system(k, r)
    inv = inverse_matrix(s, eps)
    assert solve_delta(k, g, r, eps) == [row[g - k] for row in inv]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(shifted_systems())
def test_property_dense_times_inverse_is_identity(case):
    k, r, eps = case
    s = build_system(k, r)
    assert matmul(dense(s, eps), inverse_matrix(s, eps)) == identity(s.dim)


def test_singular_shift_rejected():
    # the 1x1 system for (k, r) = (2, 3) has the single entry 1, so the
    # shift eps = 1 is exactly singular
    s = build_system(2, 3)
    assert s.diag == (Fraction(1),)
    with pytest.raises(ZeroDivisionError):
        solve_delta(2, 2, 3, Fraction(1))
    with pytest.raises(ZeroDivisionError):
        inverse_matrix(s, Fraction(1))


def test_recurrences_flag_nonpositive_tables():
    s = build_system(3, 5)
    assert recurrences(s, Fraction(0)).nonpositive_entries() == []
    big = recurrences(s, Fraction(2))  # far beyond the positivity threshold
    assert big.nonpositive_entries() != []
    with pytest.raises(ValueError):
        recurrences(s, Fraction(-1, 2))


def test_nonpositive_entries_match_the_fraction_tables():
    # the signs of the integer minors against the Fraction tables themselves,
    # at, below and past the threshold
    for k, r in itertools.combinations(range(2, 13), 2):
        s = build_system(k, r)
        thr = epsilon_threshold(k, r)
        for eps in (Fraction(0), thr / 2, thr, thr * 2, Fraction(1), Fraction(3)):
            tables = recurrences(s, eps)
            theta = [("theta", k - 1 + j) for j, v in enumerate(tables.theta) if v <= 0]
            phi = [("phi", k + j) for j, v in enumerate(tables.phi[:-1]) if v <= 0]
            assert tables.nonpositive_entries() == theta + phi, (k, r, eps)


def test_delta_positive_below_threshold():
    for k, r in [(3, 5), (3, 7), (4, 9), (2, 6)]:
        eps = epsilon_threshold(k, r) / 2
        for g in range(k, r):
            assert all(d > 0 for d in solve_delta(k, g, r, eps))


def test_upper_bound_headline_point():
    rep = upper_bound(3, 4, 5, 100)
    assert rep.finite_factor == Fraction(24, 23)
    assert rep.asymptotic == Fraction(5, 12)
    assert rep.finite_bound == Fraction(10, 23)
    assert rep.de_caen is None
    assert rep.lower_bound == Fraction(3, 8)
    # 2k^2 - 2k(r+1) + r^2 + 1 = 8 here, so the factor reads 1 + 4/(n-8)
    assert rep.finite_factor == 1 + Fraction(4, 100 - 8)


def test_upper_bound_threshold_rejects():
    thr = vertex_threshold(3, 5, EpsilonMode.LITERAL)
    assert thr == 4 * (1 + Fraction(4, 4))
    with pytest.raises(ValueError):
        upper_bound(3, 4, 5, 8)
    upper_bound(3, 4, 5, 9)  # first admissible integer
    assert vertex_threshold(3, 5, EpsilonMode.CORRECTED) == 12
    with pytest.raises(ValueError):
        upper_bound(3, 4, 5, 12, EpsilonMode.CORRECTED)
    upper_bound(3, 4, 5, 13, EpsilonMode.CORRECTED)


def test_factor_identity_against_geometric_form():
    count = 0
    for k in range(2, 7):
        for r in range(k + 1, k + 5):
            base = max(vertex_threshold(k, r, EpsilonMode.LITERAL), Fraction(r))
            for extra in (1, 13, 997):
                n = math.floor(base) + extra
                rep = upper_bound(k, k, r, n)
                eps = epsilon_value(k, r, n, EpsilonMode.LITERAL)
                assert rep.finite_factor == 1 / (1 - eps * Fraction((r - 1) * (r - k), k - 1))
                count += 1
    assert count >= 50


def test_asymptotic_k2_is_erdos_product():
    # Zykov's closed form of the K_g-density limit of K_r-free graphs
    for r in range(3, 17):
        for g in range(2, r):
            expected = Fraction(math.factorial(g) * math.comb(r - 1, g), (r - 1) ** g)
            assert asymptotic_product(2, g, r) == expected


def test_asymptotic_at_g_equal_k_matches_de_caen_limit():
    for k in range(2, 16):
        for r in range(k + 1, 17):
            assert asymptotic_product(k, k, r) == 1 - Fraction(1, binomial(r - 1, k - 1))


def test_de_caen_values():
    assert de_caen_bound(3, 4, 10) == Fraction(13, 21)
    for n in (5, 10, 50):
        assert de_caen_bound(2, 3, n) == 1 - (1 + Fraction(1, n - 2)) / 2
    with pytest.raises(ValueError):
        de_caen_bound(3, 5, 4)


def exhaustive_turan_density(n, k, r):
    """Largest edge density of a K_r-free k-graph on n vertices, over all
    isomorphism classes."""
    classes = enumerate_all(n, k)
    return max(
        Fraction(edge_count(G), math.comb(n, k))
        for G in classes
        if not any(
            all(is_edge(G, e) for e in itertools.combinations(S, k))
            for S in itertools.combinations(range(n), r)
        )
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: de_caen_bound inverts de Caen's factor, so it "
    "lies below the exhaustive maximum (1/3 < 3/5 at n, k, r = 5, 2, 3)",
)
def test_de_caen_bound_dominates_exhaustive_turan_density():
    # de Caen (1983) bounds the edge density of every K_r-free k-graph; at
    # k = 2 with (r-1) | n his bound is the Turan graph's density, attained
    cases = [
        (n, k, r)
        for n in range(3, 9)
        for k in range(2, n)
        if math.comb(n, k) <= 20
        for r in range(k + 1, n + 1)
    ]
    assert len(cases) == 22
    for n, k, r in cases:
        best, bound = exhaustive_turan_density(n, k, r), de_caen_bound(k, r, n)
        assert bound >= best, (n, k, r, bound, best)
        if k == 2 and n % (r - 1) == 0:
            assert bound == best == (1 - Fraction(1, r - 1)) * Fraction(n, n - 1), (n, r)


def test_ratio_bound_closed_form_equals_recursion():
    # u_m = x(k, m, r) + C(m-1, k-1) sum_{j=m..r-1} 1 / ((n-j) C(j-1, k-1))
    points = 0
    for k in range(2, 6):
        for r in range(k + 1, 10):
            for n in (r, 2 * r + 1, 100):
                closed = Fraction(1)
                for g in range(k, r):
                    tail = sum(
                        Fraction(1, (n - j) * math.comb(j - 1, k - 1)) for j in range(g, r)
                    )
                    closed *= x_ratio(k, g, r) + math.comb(g - 1, k - 1) * tail
                    assert ratio_bound(k, g, r, n) == closed, (k, g, r, n)
                    points += 1
    assert points == 222


def test_ratio_bound_dominates_exhaustive_clique_density():
    # every cell (n, k, g, r) with C(n, k) <= 20 and k <= g < r <= n
    cells = 0
    for n in range(3, 9):
        for k in range(2, n):
            if math.comb(n, k) > 20:
                continue
            classes = enumerate_all(n, k)
            for r in range(k + 1, n + 1):
                free = [G for G in classes if clique_density(G, r) == 0]
                for g in range(k, r):
                    best = max(clique_density(G, g) for G in free)
                    for seeded in (False, True):
                        bound = ratio_bound(k, g, r, n, seeded)
                        assert bound >= best, (n, k, g, r, seeded, bound, best)
                    cells += 1
    assert cells == 37


def test_ratio_bound_pinned_values():
    assert ratio_bound(3, 4, 5, 100) == Fraction(1159585, 2681856)
    assert ratio_bound(3, 4, 5, 100, seeded=True) == Fraction(41, 96)
    # the first n at which the bound says something
    for (k, g, r), first in {(2, 3, 5): 8, (3, 4, 5): 7, (3, 5, 7): 12, (2, 9, 16): 27}.items():
        n = r
        while ratio_bound(k, g, r, n) >= 1:
            n += 1
        assert n == first, (k, g, r)


def test_partite_lower_bound_small_cases():
    assert partite_lower_bound(3, 3, 2) == (Fraction(3, 4), Fraction(3, 4))
    direct, formula = partite_lower_bound(3, 4, 2)
    assert direct == Fraction(3, 8)
    assert formula == Fraction(-1, 8)  # the printed sum disagrees here


def test_corrected_inclusion_exclusion_equals_direct():
    # with the factor ((l-s)/l)^(g - sum) the printed sum becomes the
    # blowup limit itself, at every point of this grid
    import turankit.bounds as bounds

    points = 0
    for k in range(2, 7):
        for g in range(k, 17):
            for l in range(1, 12):
                _, corrected = bounds._inclusion_exclusion(k, g, l)  # over l^g
                assert Fraction(corrected, l**g) == partite_lower_bound(k, g, l).direct, (k, g, l)
                points += 1
    assert points == 715


def test_partite_formula_matches_tuple_enumeration():
    for k in range(2, 6):
        for g in range(k, 15):
            for l in range(1, 9):
                assert partite_lower_bound(k, g, l).formula == enumerated_inclusion_exclusion(k, g, l)


def test_partite_lower_bound_reports_bad_range():
    for k, g, l in [(1, 3, 2), (3, 2, 2), (3, 4, 0)]:
        with pytest.raises(ValueError, match=rf"got \({k}, {g}, {l}\)$"):
            partite_lower_bound(k, g, l)


def test_partite_direct_k2_falling_factorial():
    for l in range(2, 9):
        for g in range(2, min(l, 6) + 1):
            expected = math.prod(
                (1 - Fraction(m - 1, l) for m in range(2, g + 1)), start=Fraction(1)
            )
            assert partite_lower_bound(2, g, l).direct == expected


def brute_blowup_density(k, g, l, b):
    """Complete-g-set density in the balanced blowup with l parts of size b,
    counted subset by subset (part of v = v % l)."""
    import itertools

    n = l * b
    hits = 0
    for S in itertools.combinations(range(n), g):
        counts = [0] * l
        for v in S:
            counts[v % l] += 1
        if max(counts) <= k - 1:
            hits += 1
    return Fraction(hits, math.comb(n, g))


def test_partite_direct_matches_finite_blowup():
    # the finite-n density exceeds the limit and converges to it from above
    for k, g, l in [(2, 2, 2), (2, 3, 3), (3, 3, 2), (3, 4, 2)]:
        direct = partite_lower_bound(k, g, l).direct
        fin = brute_blowup_density(k, g, l, 12)
        assert fin >= direct
        assert fin - direct <= Fraction(g * g, 12 * l)


def test_sandwich_3_5():
    t = sandwich_table(3, 5)
    assert t.multinomial_lower == Fraction(3, 8)
    assert t.product == Fraction(5, 12)
    assert t.exp_limit_approx.startswith("~0.513417")
    assert t.multinomial_lower <= t.product


def test_sandwich_2_3_equality():
    t = sandwich_table(2, 3)
    assert t.multinomial_lower == Fraction(1, 2)
    assert t.product == Fraction(1, 2)
    assert t.multinomial_lower <= t.product


def test_sandwich_3_7_and_divisibility_guard():
    t = sandwich_table(3, 7)
    assert t.multinomial_lower == Fraction(10, 81)
    assert t.product == Fraction(56, 375)
    assert t.multinomial_lower <= t.product
    with pytest.raises(ValueError):
        sandwich_table(3, 6)


def test_sandwich_bracket_ends_agree_to_twelve_digits(monkeypatch):
    # the reported e^x is the exact midpoint of the last bracket the doubling
    # loop keeps, and both ends of that bracket agree in their first 12
    # significant digits; at (2, 30) and (3, 41) a loop that stopped at a
    # relative width of 10^-8 would keep a bracket whose ends do not
    from turankit import bounds
    from turankit.combinat import _exp_bracket, decimal_string

    brackets, shown = [], []

    def bracket(a, b, terms):
        brackets.append(_exp_bracket(a, b, terms))
        return brackets[-1]

    def show(value, digits=12):
        shown.append(value)
        return decimal_string(value, digits)

    def leading_digits(num, den):
        return decimal_string(Fraction(num, den) * 10 ** (len(str(den // num)) - 1), 12)

    bounds.sandwich_table.cache_clear()  # a kept table would skip the bracket
    monkeypatch.setattr(bounds, "_exp_bracket", bracket)
    monkeypatch.setattr(bounds, "decimal_string", show)
    pairs = [(k, r) for r in range(3, 17) for k in range(2, r) if (r - 1) % (k - 1) == 0]
    for k, r in pairs + [(2, 25), (2, 30), (2, 41), (3, 41)]:
        brackets.clear()
        shown.clear()
        approx = sandwich_table(k, r).exp_limit_approx
        lo, hi, den = brackets[-1]
        assert 0 < lo < hi, (k, r)
        assert shown == [Fraction(lo + hi, 2 * den)], (k, r)
        assert approx == f"~{decimal_string(shown[0], 12)}", (k, r)
        assert leading_digits(lo, den) == leading_digits(hi, den), (k, r)


def test_host_independent_caches_hold_the_uncached_values():
    # every key of the 2 <= k < r <= 16 grid, compared with the function
    # behind the cache; the grid fits, so a sweep over it never evicts
    grid = [(k, r) for r in range(3, 17) for k in range(2, r)]
    partite = {(k, g, (r - 1) // (k - 1)) for k, r in grid for g in range(k, r)}
    pairs = {(k, r) for k, r in grid if (r - 1) % (k - 1) == 0}
    for fn, keys in [(partite_lower_bound, partite), (sandwich_table, pairs)]:
        fn.cache_clear()
        for key in sorted(keys):
            assert fn(*key) == fn.__wrapped__(*key), key
        assert fn.cache_info().currsize == len(keys) <= fn.cache_info().maxsize
        assert fn.cache_info().misses == len(keys)
    assert (len(partite), len(pairs)) == (292, 30)


def test_failed_cross_check_is_not_cached(monkeypatch):
    from turankit import bounds

    inclusion_exclusion = bounds._inclusion_exclusion
    partite_lower_bound.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(
            bounds, "_inclusion_exclusion", lambda k, g, l: (0, inclusion_exclusion(k, g, l)[1] + 1)
        )
        with pytest.raises(ArithmeticError, match="corrected sum disagrees"):
            partite_lower_bound(3, 4, 2)
    assert partite_lower_bound.cache_info().currsize == 0
    assert tuple(partite_lower_bound(3, 4, 2)) == partite_fractions(3, 4, 2)

    sandwich_table.cache_clear()
    with monkeypatch.context() as patch:
        # a narrow bracket around 10^-6, below the product: ordering fails
        patch.setattr(bounds, "_exp_bracket", lambda a, b, terms: (1, 1, 10**6))
        with pytest.raises(ArithmeticError, match="ordering check failed"):
            sandwich_table(3, 5)
    assert sandwich_table.cache_info().currsize == 0
    t = sandwich_table(3, 5)
    assert (t.multinomial_lower, t.product, t.exp_limit_approx) == sandwich_fractions(3, 5)


def test_solve_then_inverse_share_one_shifted_record(monkeypatch):
    # a query's solve_delta and inverse_matrix at one eps run the two minor
    # recursions of one record, and that record cannot be changed in place
    from turankit import bounds

    calls = []
    minors = bounds._minors

    def counted(diag, offs):
        calls.append(len(diag))
        return minors(diag, offs)

    bounds._shifted.cache_clear()
    monkeypatch.setattr(bounds, "_minors", counted)
    eps = epsilon_threshold(4, 9) / 3
    delta = solve_delta(4, 6, 9, eps)
    inverse = inverse_matrix(build_system(4, 9), eps)
    assert calls == [5, 5]
    assert delta == [row[2] for row in inverse]
    mat = recurrences(build_system(4, 9), eps)
    assert len(calls) == 2
    for field in ("scale", "diag", "up", "down", "lead", "trail"):
        assert type(getattr(mat, field)) is tuple, field


def test_solve_and_inverse_agree_in_both_orders():
    # a seeded sample of (k, g, r, eps), each run in both call orders from an
    # empty shift cache: the column of solve_delta is column g of
    # inverse_matrix, and a caller that changes a returned list changes no
    # later result
    from turankit import bounds

    rng = random.Random(39)
    pairs = [(k, r) for r in range(3, 17) for k in range(2, r)]
    cases = []
    for k, r in rng.sample(pairs, 24):
        thr = epsilon_threshold(k, r)
        for eps in (Fraction(0), thr * Fraction(rng.randrange(30, 68), 97), thr * Fraction(96, 97)):
            cases.append((k, rng.randrange(k, r), r, eps))
    for k, g, r, eps in cases:
        s = build_system(k, r)
        for solve_first in (True, False):
            bounds._shifted.cache_clear()
            if solve_first:
                delta, inverse = solve_delta(k, g, r, eps), inverse_matrix(s, eps)
            else:
                inverse, delta = inverse_matrix(s, eps), solve_delta(k, g, r, eps)
            assert delta == [row[g - k] for row in inverse], (k, g, r, eps, solve_first)
            assert bounds._shifted.cache_info().misses == 1
            want_delta, want_inverse = list(delta), [list(row) for row in inverse]
            delta[0] += 1
            delta.append(Fraction(0))
            inverse[0][g - k] = Fraction(-1)
            inverse[-1].clear()
            inverse.append([])
            assert solve_delta(k, g, r, eps) == want_delta
            assert inverse_matrix(s, eps) == want_inverse
            assert solve_delta(k, g, r, eps) == want_delta
    assert len(cases) == 72


def test_eps_forms_share_results_and_negative_eps_is_rejected():
    s = build_system(3, 6)
    for plain, exact in ((0, Fraction(0)), ("1/100", Fraction(1, 100))):
        assert recurrences(s, plain) == recurrences(s, exact)
        assert recurrences(s, plain).epsilon == exact
        assert type(recurrences(s, plain).epsilon) is Fraction
        assert solve_delta(3, 4, 6, plain) == solve_delta(3, 4, 6, exact)
        assert inverse_matrix(s, plain) == inverse_matrix(s, exact)
    assert recurrences(s) == recurrences(s, 0)
    for eps in (-1, "-1/100", Fraction(-1, 100)):
        for call in (
            lambda: recurrences(s, eps),
            lambda: solve_delta(3, 4, 6, eps),
            lambda: inverse_matrix(s, eps),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "recurrences: eps must be nonnegative"


def test_failed_solve_check_leaves_no_wrong_result(monkeypatch):
    # the solve whose column check fails (as in the CLI's exit-5 test) keeps
    # nothing wrong: afterwards the unpatched solve_delta and inverse_matrix
    # at the same eps read the Gauss-Jordan inverse
    from turankit import bounds
    from turankit.cli import main

    column = bounds._inverse_column
    bounds._shifted.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_inverse_column", lambda m, g: [column(m, g)[0] + 1] + column(m, g)[1:])
        assert main(["solve", "--k", "3", "--r", "5", "--g", "4"]) == 5
    s = build_system(3, 5)
    oracle = gauss_jordan_inverse(dense(s, Fraction(0)))
    assert solve_delta(3, 4, 5, Fraction(0)) == [row[1] for row in oracle]
    assert inverse_matrix(s, Fraction(0)) == oracle


def test_upper_bound_threshold_in_integers():
    # every n from r-1 to floor(threshold)+2 is refused exactly when the
    # Fraction test n <= threshold or n <= r refuses it, with its message
    refused = 0
    for r in range(3, 17):
        for k in range(2, r):
            for mode in EpsilonMode:
                thr = vertex_threshold_fractions(k, r, mode)
                assert vertex_threshold(k, r, mode) == thr
                assert epsilon_threshold(k, r) == Fraction(k - 1, (r - 1) * (r - k))
                for n in range(r - 1, math.floor(thr) + 3):
                    if n <= thr or n <= r:
                        with pytest.raises(ValueError) as err:
                            upper_bound(k, k, r, n, mode)
                        assert str(err.value) == (
                            f"upper_bound: need n > {max(thr, Fraction(r))} (threshold "
                            f"for k={k}, r={r}, mode={mode.value}), got n={n}"
                        )
                        refused += 1
                    else:
                        upper_bound(k, k, r, n, mode)
    assert refused > 0
    with pytest.raises(ValueError) as err:
        upper_bound(4, 4, 6, 7)
    assert str(err.value) == (
        "upper_bound: need n > 65/9 (threshold for k=4, r=6, mode=literal), got n=7"
    )


def test_upper_bound_corrected_mode():
    rep = upper_bound(3, 4, 5, 100, EpsilonMode.CORRECTED)
    eps = epsilon_value(3, 5, 100, EpsilonMode.CORRECTED)
    assert rep.finite_factor == 1 / (1 - eps * Fraction(4 * 2, 2))
    assert rep.finite_factor > upper_bound(3, 4, 5, 100).finite_factor
    assert rep.asymptotic == Fraction(5, 12)


def test_integer_reports_match_fraction_oracles():
    # every report value of upper_bound, built from integers, against the
    # same value built from Fraction products, just above each threshold
    # and further out
    checked = 0
    for r in range(3, 17):
        for k in range(2, r):
            for mode in EpsilonMode:
                thr = vertex_threshold(k, r, mode)
                assert thr == vertex_threshold_fractions(k, r, mode)
                for g in range(k, r):
                    for extra in (1, 7, 1000):
                        n = math.floor(max(thr, r)) + extra
                        rep = upper_bound(k, g, r, n, mode)
                        want = upper_bound_fractions(k, g, r, n, mode)
                        assert n > want.threshold
                        assert rep.finite_factor == want.finite_factor, (k, g, r, n, mode)
                        assert rep.asymptotic == want.asymptotic, (k, g, r)
                        assert rep.finite_bound == want.finite_bound, (k, g, r, n, mode)
                        assert rep.de_caen == (want.de_caen if g == k else None)
                        assert asymptotic_product(k, g, r) == want.asymptotic
                        checked += 1
                    with pytest.raises(ValueError):
                        upper_bound(k, g, r, math.floor(max(thr, r)), mode)
    assert checked == 3360
    # (2, r >= 25): |x| = (r-2)/2 is past where 64 series terms suffice, so
    # the bracket is doubled
    pairs = [(k, r) for r in range(3, 17) for k in range(2, r) if (r - 1) % (k - 1) == 0]
    for k, r in pairs + [(2, 25), (2, 33), (2, 41), (3, 41)]:
        t = sandwich_table(k, r)
        assert (t.multinomial_lower, t.product, t.exp_limit_approx) == sandwich_fractions(k, r)
