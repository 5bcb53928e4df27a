import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from turankit import (
    EpsilonMode,
    Hypergraph,
    check_relaxed_rows,
    check_square_intermediate,
    check_three_term_inequality,
    disjoint_union,
    enumerate_all,
    epsilon_value,
    telescoped_combination,
    x_ratio,
)
from turankit import relations

from oracles import clique_density, is_complete, local_stats, nonedge_core_size


def x_grid():
    xs = {Fraction(j, 8) for j in range(1, 17)}
    for r in range(5, 9):
        for m in (3, 4):
            xs.add(x_ratio(3, m, r))
    return sorted(xs)


def test_three_term_on_complete_host():
    # all densities are 1, so the combination is 2 - x - (1 + 1/(n-m))/x,
    # negative for every x > 0 since 1 + 1/(n-m) > 1
    for n in (5, 6):
        K = Hypergraph.complete(n, 3)
        for m in (3, 4):
            for x in x_grid():
                res = check_three_term_inequality(K, m, x)
                expected = -(2 - x - (1 + Fraction(1, n - m)) / x)
                assert res.slack == expected
                assert res.holds and res.slack > 0


def test_three_term_on_empty_host_at_m_equals_k():
    # only the (m-1)-density survives: the combination is -x
    E = Hypergraph.empty(6, 3)
    for x in (Fraction(1, 8), Fraction(5, 6), Fraction(2)):
        res = check_three_term_inequality(E, 3, x)
        assert res.slack == x


def test_three_term_exhaustive_h4_h5(h4_classes, h5_classes):
    for G in list(h4_classes) + list(h5_classes):
        for m in range(3, G.n):
            for x in x_grid():
                assert check_three_term_inequality(G, m, x).holds


def test_three_term_rejects_nonpositive_x():
    for G in (Hypergraph.complete(5, 3), Hypergraph(6, 2, 0x2B3D)):
        for x in (Fraction(0), Fraction(-1, 2), 0, "-1/3", -0.5):
            with pytest.raises(ValueError):
                check_three_term_inequality(G, G.k, x)
        for m in (G.k - 1, G.n, G.n + 1):  # outside [k, n)
            with pytest.raises(ValueError):
                check_three_term_inequality(G, m, Fraction(1, 2))


def test_square_intermediate_trivial_cases():
    assert check_square_intermediate(Hypergraph.complete(5, 3), 4)
    two = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3))
    assert check_square_intermediate(two, 3)
    assert check_square_intermediate(two, 4)


def test_square_intermediate_exhaustive(h5_classes):
    for G in h5_classes:
        for m in (3, 4):
            assert check_square_intermediate(G, m)


def test_square_intermediate_random_six_vertex():
    rng = random.Random(20240814)
    for _ in range(200):
        G = Hypergraph(6, 3, rng.getrandbits(20))
        for m in (3, 4):
            assert check_square_intermediate(G, m)


def test_extension_tallies_match_local_stats():
    # local_stats restricts the host once per subset and extension: the
    # oracle.  The tallies read the host's complete-set bitmaps, which serve
    # hosts past the 20-bit table guard as well (an 8-vertex 3-graph has 56
    # bits, an 8-vertex 4-graph 70).
    rng = random.Random(61)
    for n in range(4, 9):
        for k in (2, 3, 4):
            bits = math.comb(n, k)
            hosts = [Hypergraph.complete(n, k)]
            # sparse and dense random hosts, so that large complete sets occur
            hosts += [Hypergraph(n, k, rng.getrandbits(bits)) for _ in range(2)]
            dense = (rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(2))
            hosts += [Hypergraph(n, k, edges) for edges in dense]
            for G in hosts:
                for m in range(k, n):
                    o = n - m + 1
                    subsets = itertools.combinations(range(n), m - 1)
                    stats = [s for S in subsets if (s := local_stats(G, S)).q]
                    tallies = relations._extension_tallies(G, m - 1)
                    assert tallies == [s.l for s in stats], (n, k, m, G.edges)
                    assert sum((s.r for s in stats), Fraction(0)) == Fraction(sum(tallies), o)
                    pairs = sum(math.comb(l, 2) for l in tallies)
                    rr_total = sum((s.rr for s in stats), Fraction(0))
                    assert rr_total == Fraction(pairs, math.comb(o, 2))
                    if m <= 4:
                        assert check_square_intermediate(G, m), (n, k, m, G.edges)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("entry", ["class-count", "clique-count"])
def test_square_intermediate_detects_one_count_off(monkeypatch, entry, m):
    rng = random.Random(62)
    hosts = [Hypergraph.complete(6, 3)]
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(10)]
    assert all(check_square_intermediate(G, m) for G in hosts)
    if entry == "class-count":
        real = relations.restriction_class_counts

        def bumped(G, size):
            counts = dict(real(G, size))
            complete = (1 << math.comb(size, G.k)) - 1  # weight C(size, 2) > 0
            counts[complete] = counts.get(complete, 0) + 1
            return counts

        monkeypatch.setattr(relations, "restriction_class_counts", bumped)
    else:
        real = relations.clique_counts

        def bumped(G):
            return tuple(c + (j == m) for j, c in enumerate(real(G)))

        monkeypatch.setattr(relations, "clique_counts", bumped)
    assert not any(check_square_intermediate(G, m) for G in hosts)


def test_core_at_most_k_unless_complete(h5_classes):
    # distinct non-edges intersect in at most k vertices, so in the second
    # moment expansion the complete class has coefficient 1 and every other
    # class is dominated by the (k-1)/m slice of its first-moment weight
    m = 4
    for H in h5_classes:
        core = nonedge_core_size(H)
        weight = Fraction(math.comb(core, 2), math.comb(m + 1, 2))
        if is_complete(H):
            assert core == 5 and weight == 1
        else:
            assert core <= 3
            assert weight <= Fraction(2, m) * Fraction(core, m + 1)


def test_core_pair_weights_match_oracle():
    # the complete (n-1)-sets of a class are its common-nonedge vertices
    for n in range(1, 7):
        for k in range(1, n + 1):
            if math.comb(n, k) <= 20:
                expected = {
                    H.edges: math.comb(nonedge_core_size(H), 2) for H in enumerate_all(n, k)
                }
                assert relations._core_pair_weights(n, k) == expected, (n, k)


def test_relaxed_rows_corrected_nonpositive():
    rng = random.Random(4242)
    hosts = [Hypergraph.complete(6, 3), Hypergraph.empty(6, 3)]
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(120)]
    hosts += [Hypergraph(7, 3, rng.getrandbits(35)) for _ in range(20)]
    for G in hosts:
        rows = check_relaxed_rows(G, 5, EpsilonMode.CORRECTED)
        assert all(row <= 0 for row in rows)


def test_relaxed_rows_literal_reported_not_asserted(capsys):
    # literal-mode rows may go positive; they are diagnostics, not failures
    rng = random.Random(777)
    violations = []
    for _ in range(120):
        G = Hypergraph(6, 3, rng.getrandbits(20))
        rows = check_relaxed_rows(G, 5, EpsilonMode.LITERAL)
        for m, row in zip(range(3, 5), rows):
            if row > 0:
                violations.append((G.edges, m, row))
    print(f"literal-mode positive rows observed: {len(violations)}")
    if violations:
        print("example:", violations[0])


def test_relaxed_rows_on_complete_host_both_modes():
    K = Hypergraph.complete(6, 3)
    for mode in EpsilonMode:
        eps = epsilon_value(3, 5, 6, mode)
        rows = check_relaxed_rows(K, 5, mode)
        for m, row in zip((3, 4), rows):
            xm = x_ratio(3, m, 5)
            expected = (
                -(1 - Fraction(2, m)) / xm
                + (2 - Fraction(2, m) / xm - eps)
                - xm
            )
            assert row == expected


def test_telescoping_identity_exact():
    rng = random.Random(31337)
    hosts = [
        Hypergraph.complete(6, 3),
        Hypergraph.empty(6, 3),
        disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3)),
    ]
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(30)]
    hosts += [Hypergraph(7, 3, rng.getrandbits(35)) for _ in range(10)]
    for G in hosts:
        for g in (3, 4):
            for mode in EpsilonMode:
                lhs, rhs = telescoped_combination(G, g, 5, mode)
                assert lhs == rhs


def test_telescoping_matches_explicit_sum():
    # recompute the combination from scratch for one host
    from turankit import solve_delta

    G = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(4, 3))
    g, r, mode = 4, 5, EpsilonMode.CORRECTED
    eps = epsilon_value(3, r, G.n, mode)
    delta = solve_delta(3, g, r, eps)
    rows = check_relaxed_rows(G, r, mode)
    lhs = sum((d * row for d, row in zip(delta, rows)), Fraction(0))
    rhs = (
        -delta[0] * x_ratio(3, 3, r) * 1
        + clique_density(G, g)
        - delta[-1] * (1 - Fraction(2, 4)) / x_ratio(3, 4, r) * clique_density(G, r)
    )
    assert (lhs, rhs) == telescoped_combination(G, g, r, mode)
    assert lhs == rhs


def _oracle_row(G, m, x, shift):
    """The three-term row of the docstrings, term by term in `Fraction`s."""
    k = G.k
    return (
        -((1 - Fraction(k - 1, m)) / x) * clique_density(G, m + 1)
        + (2 - Fraction(k - 1, m) / x - shift) * clique_density(G, m)
        - x * clique_density(G, m - 1)
    )


def _oracle_hosts():
    rng = random.Random(5050)
    hosts = [Hypergraph.complete(6, 3), Hypergraph.empty(7, 2)]
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(12)]
    hosts += [Hypergraph(7, 3, rng.getrandbits(35)) for _ in range(4)]
    hosts += [Hypergraph(6, 2, rng.getrandbits(15)) for _ in range(12)]
    hosts += [Hypergraph(7, 2, rng.getrandbits(21)) for _ in range(4)]
    return hosts


ORACLE_XS = [Fraction(1, 8), Fraction(3, 7), Fraction(1), Fraction(5, 3), Fraction(2)]


def _assert_matches_fraction_oracle(G, rs=(5,)):
    # the integer numerators against the docstring formulas evaluated on
    # clique densities, with shift 1/((n-m) x), eps, and the telescoping sides
    from turankit import solve_delta

    k, n = G.k, G.n
    for m in range(k, n):
        for x in ORACLE_XS:
            res = check_three_term_inequality(G, m, x)
            assert res.slack == -_oracle_row(G, m, x, 1 / ((n - m) * x))
            assert res.holds == (res.slack >= 0)
    for r, mode in itertools.product(rs, EpsilonMode):
        eps = epsilon_value(k, r, n, mode)
        rows = [_oracle_row(G, m, x_ratio(k, m, r), eps) for m in range(k, r)]
        assert check_relaxed_rows(G, r, mode) == rows
        for g in range(k, r):
            delta = solve_delta(k, g, r, eps)
            lhs = sum((dm * row for dm, row in zip(delta, rows)), Fraction(0))
            rhs = (
                -delta[0] * x_ratio(k, k, r) * clique_density(G, k - 1)
                + clique_density(G, g)
                - delta[-1]
                * (1 - Fraction(k - 1, r - 1))
                / x_ratio(k, r - 1, r)
                * clique_density(G, r)
            )
            assert telescoped_combination(G, g, r, mode) == (lhs, rhs)


def test_relations_match_fraction_oracle():
    for G in _oracle_hosts():
        _assert_matches_fraction_oracle(G)


PROFILE_CACHES = (relations._three_term, relations._relaxed_rows, relations._telescoped)


def _clear_profile_caches():
    for cache in PROFILE_CACHES:
        cache.cache_clear()


def test_profile_records_shared_across_n_k_r_g_and_mode():
    # pairs of hosts with one c_3, c_4, c_5: K_6 as a 2-graph and as a
    # 3-graph (one whole profile), a 2-graph and a 3-graph found by search,
    # and 3-graphs without and with an isolated vertex.  Every record built
    # for one host of a pair is looked up for the other, keyed also on n, k,
    # r, g and mode, and each host still matches the oracle.
    rng = random.Random(5151)
    pairs = [
        (Hypergraph.complete(6, 2), Hypergraph.complete(6, 3)),
        (Hypergraph(6, 2, 8187), Hypergraph(6, 3, 889508)),
    ]
    for _ in range(4):
        G = Hypergraph(6, 3, rng.getrandbits(20))
        pairs.append((G, Hypergraph(7, 3, G.edges)))  # colex: vertex 6 isolated
    _clear_profile_caches()
    for first, second in pairs:
        assert relations.clique_counts(first)[3:6] == relations.clique_counts(second)[3:6]
        for G in (first, second):
            _assert_matches_fraction_oracle(G, rs=range(G.k + 1, G.n))
    assert all(cache.cache_info().hits for cache in PROFILE_CACHES)


@pytest.mark.parametrize("m", [3, 4])
def test_profile_caches_see_one_count_off(monkeypatch, m):
    # warm records must not answer for a host whose counts differ: c_m moves
    # the three-term slack at m, relaxed row m and the left side at g = m
    # (on 6 vertices the corrected eps is 1, which zeroes c_4 in row 4)
    G = Hypergraph(6, 3, 0x5A5A5)
    x, r, mode = Fraction(3, 8), 5, EpsilonMode.LITERAL
    warm = (
        check_three_term_inequality(G, m, x).slack,
        check_relaxed_rows(G, r, mode)[m - 3],
        telescoped_combination(G, m, r, mode),
    )
    real = relations.clique_counts

    def bumped(G):
        return tuple(c + (j == m) for j, c in enumerate(real(G)))

    monkeypatch.setattr(relations, "clique_counts", bumped)
    lhs, rhs = telescoped_combination(G, m, r, mode)
    assert check_three_term_inequality(G, m, x).slack != warm[0]
    assert check_relaxed_rows(G, r, mode)[m - 3] != warm[1]
    assert lhs != warm[2][0] and rhs != warm[2][1]
    assert lhs == rhs  # the identity holds for any counts


def test_telescoping_left_side_reads_the_relaxed_rows(monkeypatch):
    # one route for the rows: moving every relaxed row by 1 moves the left
    # side by the sum of the multipliers, and leaves the right side alone
    from turankit import solve_delta

    G = Hypergraph(6, 3, 0x5A5A5)
    g, r, mode = 4, 5, EpsilonMode.LITERAL
    lhs, rhs = telescoped_combination(G, g, r, mode)
    real = relations._relaxed_rows
    for cache in (relations._relaxed_rows, relations._telescoped):
        cache.cache_clear()
    monkeypatch.setattr(
        relations, "_relaxed_rows", lambda *key: tuple(row + 1 for row in real(*key))
    )
    try:
        moved, same = telescoped_combination(G, g, r, mode)
    finally:
        relations._telescoped.cache_clear()  # drop the record built from moved rows
    assert moved == lhs + sum(solve_delta(3, g, r, epsilon_value(3, r, G.n, mode)))
    assert moved != lhs and same == rhs


def test_profile_caches_are_bounded():
    rng = random.Random(300)
    for _ in range(300):
        G = Hypergraph(6, 3, rng.getrandbits(20))
        check_three_term_inequality(G, 4, Fraction(3, 8))
        check_relaxed_rows(G, 5)
        telescoped_combination(G, 4, 5)
    for cache in PROFILE_CACHES:
        info = cache.cache_info()
        assert info.maxsize == relations._PROFILE_CACHE_SIZE
        assert info.currsize <= info.maxsize


def test_relaxed_rows_returns_a_fresh_list():
    G = Hypergraph(6, 3, 0x5A5A5)
    rows = check_relaxed_rows(G, 5)
    expected = list(rows)
    rows[0] = Fraction(99)
    rows.append(Fraction(0))
    assert check_relaxed_rows(G, 5) == expected


def test_three_term_accepts_any_rational_x():
    G = Hypergraph(6, 3, 0x5A5A5)
    for m in (3, 4, 5):
        for given, exact in ((1, Fraction(1)), ("3/8", Fraction(3, 8)), (0.5, Fraction(1, 2))):
            res = check_three_term_inequality(G, m, given)
            assert res == check_three_term_inequality(G, m, exact)
            assert type(res.x) is Fraction and res.x == exact


def test_inequality_check_is_an_immutable_hashable_record():
    G = Hypergraph(6, 3, 0x5A5A5)
    res = check_three_term_inequality(G, 4, Fraction(3, 8))
    assert res._fields == ("m", "x", "slack", "holds")
    for field in res._fields:
        with pytest.raises(AttributeError):
            setattr(res, field, 0)
    again = check_three_term_inequality(G, 4, Fraction(3, 8))
    assert hash(res) == hash(again) and len({res, again}) == 1
    # results build positionally, as callers that stand in for the check do
    built = relations.InequalityCheck(res.m, res.x, res.slack, res.holds)
    assert built == res and built.holds is res.holds


def test_relaxed_rows_requires_larger_host():
    with pytest.raises(ValueError):
        check_relaxed_rows(Hypergraph.complete(5, 3), 5)


# SHA-256 of every relation value below, `str()` of each Fraction one per line:
# the three-term slacks for every m on the grid x = j/8 (j = 1..16), then on
# 6-vertex hosts the relaxed rows at r = 5 and both telescoping sides for each
# g < 5, both in both modes.  Hosts: all 5-vertex 3-graph classes, 40 seeded
# 6-vertex 3-graphs and 20 seeded 6-vertex 2-graphs.
RELATION_VALUES_SHA256 = "686dc9e168d3c6676911f1af80c98771114a10b888cf5b3b61a05e65a4e9aaa3"


def _relation_value_digest(hosts, xs):
    """SHA-256 of `str()` of each relation value, one per line, host by host:
    the three-term slacks for every m and x, then on hosts with more than 5
    vertices, in each mode, the relaxed rows at r = 5 and both telescoping
    sides for each g < 5."""
    values = []
    for G in hosts:
        for m in range(G.k, G.n):
            values += [check_three_term_inequality(G, m, x).slack for x in xs]
        if G.n > 5:
            for mode in EpsilonMode:
                values += check_relaxed_rows(G, 5, mode)
                for g in range(G.k, 5):
                    values += telescoped_combination(G, g, 5, mode)
    lines = "".join(f"{v}\n" for v in values)
    return hashlib.sha256(lines.encode("ascii")).hexdigest()


# The same values on the lemma suite's x grid (j/8 plus the x(m) of r = 5..8),
# over all 4- and 5-vertex 3-graph classes, 60 seeded 6-vertex 3-graphs and 30
# seeded 6-vertex 2-graphs.
LEMMA_GRID_VALUES_SHA256 = "bf2d16cb78b579a306d6d2731e1a79b9b6d1ea6407f24974bf7f095a607c319a"


def test_pinned_relation_values_digest(h4_classes, h5_classes):
    rng = random.Random(8128)
    hosts = list(h5_classes)
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(40)]
    hosts += [Hypergraph(6, 2, rng.getrandbits(15)) for _ in range(20)]
    xs = [Fraction(j, 8) for j in range(1, 17)]
    assert _relation_value_digest(hosts, xs) == RELATION_VALUES_SHA256
    rng = random.Random(1729)
    hosts = list(h4_classes) + list(h5_classes)
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(60)]
    hosts += [Hypergraph(6, 2, rng.getrandbits(15)) for _ in range(30)]
    assert _relation_value_digest(hosts, x_grid()) == LEMMA_GRID_VALUES_SHA256


def test_relation_values_digest_independent_of_call_order(h5_classes):
    # shared records must not depend on which host built them: the pinned
    # values come out with the caches cleared, warm, and filled in reverse
    rng = random.Random(8128)
    hosts = list(h5_classes)
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(40)]
    hosts += [Hypergraph(6, 2, rng.getrandbits(15)) for _ in range(20)]
    xs = [Fraction(j, 8) for j in range(1, 17)]
    _clear_profile_caches()
    assert _relation_value_digest(hosts, xs) == RELATION_VALUES_SHA256
    assert _relation_value_digest(hosts, xs) == RELATION_VALUES_SHA256
    _clear_profile_caches()
    _relation_value_digest(hosts[::-1], xs)
    assert _relation_value_digest(hosts, xs) == RELATION_VALUES_SHA256
