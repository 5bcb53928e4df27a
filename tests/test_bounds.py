import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turankit import (
    EpsilonMode,
    asymptotic_product,
    binomial,
    build_system,
    de_caen_bound,
    decimal_string,
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
    exp_places,
    inclusion_exclusion,
    inverse_fractions,
    is_edge,
    partite_direct,
    partite_fractions,
    ratio_bound,
    sandwich_fractions,
    system_fractions,
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


def entries(s):
    """(diag, upper, lower) of the unshifted system as `Fraction`s, read off
    the integer rows of its record: row i is scaled by scale[i], and up and
    down hold the off-diagonals negated."""
    return (
        tuple(Fraction(a, c) for a, c in zip(s.diag, s.scale)),
        tuple(-Fraction(u, c) for u, c in zip(s.up, s.scale)),
        tuple(-Fraction(l, c) for l, c in zip(s.down, s.scale[1:])),
    )


def fraction_minors(diag, offs):
    """Leading minors 1, D_1, .., D_d by the plain Fraction recursion."""
    out = [Fraction(0), Fraction(1)]
    for i, a in enumerate(diag):
        out.append(a * out[-1] - (offs[i - 1] * out[-2] if i else 0))
    return out[1:]


def test_build_system_3_5():
    s = build_system(3, 5)
    assert (s.scale, s.diag, s.up, s.down) == ((10, 5), (12, 5), (5,), (2,))
    assert entries(s) == ((Fraction(6, 5), Fraction(1)), (Fraction(-1, 2),), (Fraction(-2, 5),))


def test_build_system_one_dimensional():
    # single index m = k: diagonal entry 2 - (k-1)/(k x(k, k, k+1)) simplifies to 1
    for k in range(2, 8):
        diag = entries(build_system(k, k + 1))[0]
        assert diag == (2 - Fraction(k - 1, 1) / (k * x_ratio(k, k, k + 1)),)
        assert diag == (1,)


def test_build_system_2_4_matches_definition():
    # direct substitution of x(2,2,4) = 2/3 and x(2,3,4) = 1/3
    s = build_system(2, 4)
    diag, upper, lower = entries(s)
    assert diag == (2 - Fraction(1) / (2 * Fraction(2, 3)), 2 - Fraction(1) / (3 * Fraction(1, 3)))
    assert diag == (Fraction(5, 4), Fraction(1))
    assert upper == (-Fraction(1, 3),)
    assert lower == (-Fraction(1, 2) / Fraction(2, 3),)
    # the trailing-minor identity pins the diagonal: det = 1 and phi = 1
    tab = recurrences(s)
    assert tab.determinant == 1
    assert set(tab.phi[:-1]) == {Fraction(1)}


def test_build_system_matches_fraction_rows():
    # the integer rows reproduce the entries from x_ratio products, and each
    # row's scale is the lcm of its entries' reduced denominators; the
    # record is the unshifted one, with the minors of its rows
    for r in range(3, 41):
        for k in range(2, r):
            s = build_system(k, r)
            diag, upper, lower = system_fractions(k, r)
            assert entries(s) == (diag, upper, lower), (k, r)
            rows = zip((0, *lower), diag, (*upper, 0))
            assert s.scale == tuple(math.lcm(*(e.denominator for e in row)) for row in rows)
            assert (s.k, s.r, s.epsilon) == (k, r, 0) and type(s.epsilon) is Fraction
            assert recurrences(s) == s and len(s.lead) == len(s.trail) == r - k + 1


def test_shifts_add():
    # a shifted record shifted again is the record of the summed epsilon,
    # field by field, whichever order the two shifts come in
    thirds = [Fraction(j, 3) for j in range(4)]
    for k, r in ((2, 3), (3, 5), (3, 8), (4, 9), (2, 12)):
        s = build_system(k, r)
        thr = epsilon_threshold(k, r)
        for a, b in itertools.product([Fraction(0), thr / 7, thr / 2, *thirds], repeat=2):
            twice = recurrences(recurrences(s, a), b)
            once = recurrences(s, a + b)
            assert twice._asdict() == once._asdict(), (k, r, a, b)
            assert twice.epsilon == a + b


def test_offdiagonals_strictly_negative():
    for k in range(2, 7):
        for r in range(k + 2, 13):
            s = build_system(k, r)
            # the record holds the off-diagonals negated, over positive scales
            assert all(c > 0 for c in s.scale)
            assert all(u > 0 for u in s.up) and all(l > 0 for l in s.down)


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
            assert matmul(dense(k, r, eps), inv) == identity(r - k)
    # theta(3) = 0 while det = -1/5: no entry may divide by a minor
    s = build_system(3, 5)
    tab = recurrences(s, Fraction(6, 5))
    assert tab.theta[1] == 0 and tab.determinant == Fraction(-1, 5)
    assert matmul(dense(3, 5, Fraction(6, 5)), inverse_matrix(s, Fraction(6, 5))) == identity(2)


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
        oracle = gauss_jordan_inverse(dense(k, r, eps))
        assert inverse_matrix(s, eps) == oracle
        for g in range(k, r):
            assert solve_delta(k, g, r, eps) == [row[g - k] for row in oracle]


def _same_lowest(x, y):
    """x is a `Fraction` in lowest terms with a positive denominator, equal
    to y in numerator, denominator and hash."""
    assert type(x) is Fraction
    assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    assert (x.numerator, x.denominator, hash(x)) == (y.numerator, y.denominator, hash(y))


def test_column_walk_reduction_matches_one_gcd_per_entry():
    # every 2 <= k < r <= 19 at eps = threshold j/97, past the threshold
    # too: each inverse_matrix entry and each solve_delta column is the
    # Fraction(v, det) of the entry's own product of minors, scale and
    # off-diagonals (oracles.inverse_fractions)
    cases = negative = 0
    for r in range(3, 20):
        for k in range(2, r):
            s = build_system(k, r)
            thr = epsilon_threshold(k, r)
            for j in (0, 1, 48, 96, 97, 150):
                eps = thr * Fraction(j, 97)
                cases += 1
                negative += recurrences(s, eps).lead[-1] < 0
                oracle = inverse_fractions(s, eps)
                for got, want in zip(inverse_matrix(s, eps), oracle):
                    for x, y in zip(got, want, strict=True):
                        _same_lowest(x, y)
                for g in range(k, r):
                    for x, row in zip(solve_delta(k, g, r, eps), oracle, strict=True):
                        _same_lowest(x, row[g - k])
    assert cases == 918
    assert negative == 16  # det < 0, so the entries' sign is moved to the numerator


def test_inverse_matrix_makes_2d_full_size_gcds(monkeypatch):
    # every gcd but 2d has an off-diagonal, a row scale or a minor's gcd with
    # det as an argument; one Fraction(v, det) per entry would make d^2 more
    from turankit import bounds

    for k, r, j in ((2, 16, 48), (3, 16, 60), (2, 16, 96), (4, 9, 48)):
        s = build_system(k, r)
        eps = epsilon_threshold(k, r) * Fraction(j, 97)
        mat = recurrences(s, eps)
        det = mat.lead[-1]
        small = {*mat.up, *mat.down, *mat.scale}
        small |= {math.gcd(v, det) for v in mat.lead + mat.trail}
        calls, gcd = [], math.gcd

        def counted(a, b):
            calls.append(abs(a) in small or abs(b) in small)
            return gcd(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(math, "gcd", counted)
            inverse = bounds.inverse_matrix(s, eps)
        assert inverse == inverse_fractions(s, eps)
        assert len(calls) - sum(calls) <= 2 * (r - k) and len(calls) > (r - k) ** 2, (k, r, j)


def test_solve_check_reads_the_returned_fractions(monkeypatch, capsys):
    # the equation check runs on the entries solve_delta returns, after
    # _lowest: one entry one too large fails it, in the API and in the CLI;
    # and a lone solve_delta makes only the d+1 full-size gcds of the minors
    # its column reads
    from turankit import bounds
    from turankit.cli import main

    lowest, built = bounds._lowest, []

    def larger_first(n, d):  # the first entry built comes back one too large
        built.append(n)
        return lowest(n + d if len(built) == 1 else n, d)

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_lowest", larger_first)
        with pytest.raises(ArithmeticError, match="^solve_delta: column does not solve"):
            bounds.solve_delta(3, 4, 5)
        built.clear()
        assert main(["solve", "--k", "3", "--r", "5", "--g", "4"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: internal cross-check failed: solve_delta") and err.count("\n") == 1
    for k, r, j in ((2, 16, 48), (3, 16, 60), (2, 16, 96), (4, 9, 48)):
        s = build_system(k, r)
        eps = epsilon_threshold(k, r) * Fraction(j, 97)
        mat = recurrences(s, eps)
        oracle = inverse_fractions(s, eps)
        small = {*mat.up, *mat.down, *mat.scale}
        small |= {math.gcd(v, mat.lead[-1]) for v in mat.lead + mat.trail}
        for g in range(k, r):
            calls, gcd = [], math.gcd

            def counted(a, b):
                calls.append(abs(a) in small or abs(b) in small)
                return gcd(a, b)

            with monkeypatch.context() as patch:
                patch.setattr(math, "gcd", counted)
                delta = bounds.solve_delta(k, g, r, eps)
            assert delta == [row[g - k] for row in oracle]
            assert len(calls) - sum(calls) <= r - k + 1, (k, r, j, g)


def test_lowest_builds_the_fraction_of_a_coprime_pair():
    # _lowest sets Fraction's two slots; a Python that renames them, or gives
    # Fraction an instance dictionary, fails here by name
    from turankit.bounds import _lowest

    assert Fraction.__slots__ == ("_numerator", "_denominator")
    with pytest.raises(AttributeError):
        object.__new__(Fraction).other = 1
    rng = random.Random(48)
    for i in range(200):
        d = rng.getrandbits(1 + i * 2) | 1  # 1 to 399 bits
        n = rng.getrandbits(rng.randint(1, 400))
        while math.gcd(n, d) != 1:
            n += 1
        if i % 3:
            n = -n
        x, want = _lowest(n, d), Fraction(n, d)
        assert type(x) is Fraction and (x.numerator, x.denominator) == (n, d)
        assert x == want and hash(x) == hash(want) and str(x) == str(want)
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is Fraction and back == want and hash(back) == hash(want)


def test_recurrences_match_fraction_recursion():
    for r in range(3, 17):
        for k in range(2, r):
            s = build_system(k, r)
            thr = epsilon_threshold(k, r)
            diag, upper, lower = system_fractions(k, r)
            for eps in (Fraction(0), thr * Fraction(37, 97), thr, Fraction(6, 5), Fraction(2)):
                shifted = [a - eps for a in diag]
                offs = [u * l for u, l in zip(upper, lower)]
                theta = fraction_minors(shifted, offs)
                phi = fraction_minors(shifted[::-1], offs[::-1])[::-1] + [Fraction(0)]
                tab = recurrences(s, eps)
                assert tab.epsilon == eps
                assert tab.theta == tuple(theta)
                assert tab.phi == tuple(phi)
                assert tab.zeta == tuple(phi[j + 1] - phi[j] for j in range(r - k)) + (0,)
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
    assert solve_delta(3, 4, 5) == [Fraction(1, 2), Fraction(6, 5)]
    assert solve_delta(3, 3, 5) == [Fraction(1), Fraction(2, 5)]
    for k, g, r, eps in [(3, 4, 6, Fraction(1, 100)), (2, 3, 5, Fraction(0)), (4, 5, 7, Fraction(1, 50))]:
        delta = solve_delta(k, g, r, eps)
        # residual: (system - eps I) delta = e_g
        A = dense(k, r, eps)
        res = [sum((A[i][j] * delta[j] for j in range(r - k)), Fraction(0)) for i in range(r - k)]
        expected = [Fraction(1) if m == g else Fraction(0) for m in range(k, r)]
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
    assert matmul(dense(k, r, eps), inverse_matrix(s, eps)) == identity(r - k)


def test_singular_shift_rejected():
    # the 1x1 system for (k, r) = (2, 3) has the single entry 1, so the
    # shift eps = 1 is exactly singular
    s = build_system(2, 3)
    assert entries(s)[0] == (Fraction(1),)
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
    # blowup limit itself, at every point of this grid: the corrected sum
    # over one record's block table equals its placement count, which the
    # sum rebuilt for one g alone equals too
    import turankit.bounds as bounds

    points = 0
    for k in range(2, 7):
        for l in range(1, 12):
            placements, blocks = bounds._partite_record(k, l, 16)
            for g in range(k, 17):
                corrected = sum(
                    (-1) ** s * math.comb(l, s) * math.comb(g, t) * counts[t] * (l - s) ** (g - t)
                    for s, counts in enumerate(blocks[: g // k + 1])
                    for t in range(s * k, g + 1)
                )
                assert corrected == placements[g] == inclusion_exclusion(k, g, l)[1], (k, g, l)
                assert Fraction(placements[g], l**g) == partite_lower_bound(k, g, l).direct
                points += 1
    assert points == 715


def test_partite_record_matches_the_per_g_oracles():
    # one record serves every g up to its size; each g against the DP and
    # the inclusion-exclusion sums rebuilt for that g alone, and every g of
    # `table --k 2 --r 150`, whose records are the largest at l = 149
    points = [(k, g, l) for l in range(1, 16) for k in range(2, 8) for g in range(k, 40)]
    for k, g, l in points + [(2, g, 149) for g in range(2, 150)]:
        printed, _ = inclusion_exclusion(k, g, l)
        want = (partite_direct(k, g, l), Fraction(printed, l**g))
        assert tuple(partite_lower_bound(k, g, l)) == want, (k, g, l)


def test_partite_record_grows_only_to_the_g_asked():
    # a single g builds the record's columns up to g and no further; a later,
    # larger g extends the same record, which then equals one built at once
    from turankit import bounds

    bounds._partite_columns.cache_clear()
    partite_lower_bound.cache_clear()
    partite_lower_bound(2, 40, 1023)
    placements, blocks = bounds._partite_record(2, 1023, 0)
    assert (len(placements), len(blocks)) == (41, 21)
    assert {len(row) for row in blocks} == {41}
    partite_lower_bound(3, 60, 1023)
    partite_lower_bound(3, 40, 1023)
    partite_lower_bound(2, 60, 1023)
    grown = bounds._partite_record(2, 1023, 0)
    assert (len(grown[0]), len(grown[1])) == (61, 31)
    bounds._partite_columns.cache_clear()
    assert grown == bounds._partite_record(2, 1023, 60)
    assert bounds._partite_columns.cache_info().currsize == 1


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


def test_sandwich_bracket_ends_agree_to_twelve_digits():
    # the printed e^x against the tests' own exact bracket: both ends of
    # `exp_places` round to the printed 12 places, from x = -29 on as zeros;
    # at k = 2, r = 58 (x = -28) prints the last nonzero digit and r = 59
    # (x = -28.5) the first zeros
    pairs = [(k, r) for r in range(3, 121) for k in range(2, r) if (r - 1) % (k - 1) == 0]
    zeros = 0
    for k, r in pairs + [(2, 1500), (2, 20000)]:
        lo, hi = exp_places(Fraction(k - r, k))
        printed = sandwich_table(k, r).exp_limit_approx
        assert printed == f"~{decimal_string(lo, 12)}" == f"~{decimal_string(hi, 12)}", (k, r)
        zeros += printed == "~0.000000000000"
    assert [sandwich_table(2, r).exp_limit_approx for r in (58, 59)] == ["~0.000000000001", "~0.000000000000"]
    assert (len(pairs), zeros) == (467, 81)


def test_product_is_at_most_the_am_gm_bound():
    # the sandwich's ordering without e^x: the r-k factors of the g = r-1
    # product have mean 1 - 1/k, so the product is at most (1 - 1/k)^(r-k)
    pairs = [(k, r) for r in range(3, 60) for k in range(2, r)]
    for k, r in pairs:
        assert asymptotic_product(k, r - 1, r) <= Fraction(k - 1, k) ** (r - k), (k, r)
    assert len(pairs) == 1653


def test_sandwich_zeros_match_the_bracket_oracle():
    # from x = -29 on, e^x prints as twelve zeros; the oracle reaches them by
    # its own series bracket.  (2, 59) and (3, 89) sit just short of x = -29,
    # the others past it
    # the zeros' premise: a prefix of the series of e^29 passes 2 10^12,
    # so e^x <= e^{-29} < 5 10^-13, below half a unit in the 12th place
    assert sum(Fraction(29**j, math.factorial(j)) for j in range(60)) > 2 * 10**12
    for k, r in [(2, 59), (2, 61), (3, 89), (3, 91), (2, 121), (5, 201)]:
        sandwich_table.cache_clear()
        t = sandwich_table(k, r)
        assert (t.multinomial_lower, t.product, t.exp_limit_approx) == sandwich_fractions(k, r)
        assert t.exp_limit_approx == "~0.000000000000", (k, r)


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

    record = bounds._partite_record
    partite_lower_bound.cache_clear()
    with monkeypatch.context() as patch:
        # one placement too many at every t: the corrected sum disagrees
        patch.setattr(
            bounds,
            "_partite_record",
            lambda k, l, size: (tuple(a + 1 for a in record(k, l, size)[0]), record(k, l, size)[1]),
        )
        with pytest.raises(ArithmeticError, match="corrected sum disagrees"):
            partite_lower_bound(3, 4, 2)
    assert partite_lower_bound.cache_info().currsize == 0
    assert tuple(partite_lower_bound(3, 4, 2)) == partite_fractions(3, 4, 2)

    sandwich_table.cache_clear()
    with monkeypatch.context() as patch:
        # a product of 1 is above ((k-1)/k)^(r-k): ordering fails
        patch.setattr(bounds, "_product_parts", lambda k, g, r: (1, 1))
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

    s = build_system(4, 9)
    bounds._shifted.cache_clear()
    monkeypatch.setattr(bounds, "_minors", counted)
    eps = epsilon_threshold(4, 9) / 3
    delta = solve_delta(4, 6, 9, eps)
    inverse = inverse_matrix(s, eps)
    assert calls == [5, 5]
    assert delta == [row[2] for row in inverse]
    mat = recurrences(s, eps)
    assert len(calls) == 2
    for field in ("scale", "diag", "up", "down", "lead", "trail"):
        assert type(getattr(mat, field)) is tuple and type(getattr(s, field)) is tuple, field


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

    walk = bounds._inverse_columns

    def perturbed(mat, first, stop):  # entry (3, 4) of the walk one too large
        out = walk(mat, first, stop)
        out[0][1 - first] += 1
        return out

    bounds._shifted.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_inverse_columns", perturbed)
        assert main(["solve", "--k", "3", "--r", "5", "--g", "4"]) == 5
    s = build_system(3, 5)
    oracle = gauss_jordan_inverse(dense(3, 5))
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
    # the sandwich's three values against the `Fraction` oracle, out to
    # x = -39/2 at (2, 41)
    pairs = [(k, r) for r in range(3, 17) for k in range(2, r) if (r - 1) % (k - 1) == 0]
    for k, r in pairs + [(2, 25), (2, 33), (2, 41), (3, 41)]:
        t = sandwich_table(k, r)
        assert (t.multinomial_lower, t.product, t.exp_limit_approx) == sandwich_fractions(k, r)
