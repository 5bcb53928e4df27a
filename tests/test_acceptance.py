"""Acceptance suite: one test per release criterion, exact values only.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Criteria 4 and 5 carry wall-clock budgets; they are measured on
cold in-process caches when this file runs first (its default position).
"""

import itertools
import math
import random
import time
from fractions import Fraction

from turankit import (
    EpsilonMode,
    Hypergraph,
    asymptotic_product,
    binomial,
    build_system,
    canonical_mask,
    check_relaxed_rows,
    check_square_intermediate,
    check_three_term_inequality,
    colex_subsets,
    enumerate_all,
    epsilon_threshold,
    epsilon_value,
    has_no_empty_set,
    inverse_matrix,
    partite_lower_bound,
    recurrences,
    subset_rank,
    telescoped_combination,
    two_clique_density,
    upper_bound,
    vertex_threshold,
    x_ratio,
)

from oracles import burnside_count, dense


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_exact_identity_suite():
    t0 = time.monotonic()
    pairs = 0
    for k in range(2, 12):
        for r in range(k + 1, 13):
            pairs += 1
            sysm = build_system(k, r)
            tab = recurrences(sysm)
            assert all(p == 1 for p in tab.phi[:-1])
            assert tab.determinant == 1
            assert all(t > 0 for t in tab.theta)
            first_row = inverse_matrix(sysm)[0]
            for g in range(k, r):
                expected = math.prod(
                    (x_ratio(k, m, r) for m in range(k + 1, g + 1)), start=Fraction(1)
                )
                assert first_row[g - k] == expected
            for eps in (Fraction(0), epsilon_threshold(k, r) / 2):
                inv = inverse_matrix(sysm, eps)
                A = dense(sysm, eps)
                dim = sysm.dim
                for i in range(dim):
                    for j in range(dim):
                        acc = sum(
                            (A[i][l] * inv[l][j] for l in range(dim)), Fraction(0)
                        )
                        assert acc == (1 if i == j else 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"identity suite took {elapsed:.1f}s"
    _report(1, f"phi=1/det=1/product/inverse identities on {pairs} (k,r) pairs in {elapsed:.1f}s")


def test_criterion_2_bound_reproduction():
    rep = upper_bound(3, 4, 5, 100)
    assert rep.finite_bound == Fraction(10, 23)
    assert rep.asymptotic == Fraction(5, 12)
    points = 0
    for k in range(2, 7):
        for r in range(k + 1, k + 5):
            base = max(vertex_threshold(k, r, EpsilonMode.LITERAL), Fraction(r))
            for extra in (1, 13, 997):
                n = math.floor(base) + extra
                factor = upper_bound(k, k, r, n).finite_factor
                eps = epsilon_value(k, r, n, EpsilonMode.LITERAL)
                geometric = 1 / (1 - eps * Fraction((r - 1) * (r - k), k - 1))
                assert factor == geometric
                points += 1
    assert points >= 50
    _report(2, f"(3,4,5,100) -> 10/23 exactly; factor identity on {points}-point grid")


def test_criterion_3_k2_and_de_caen_cross_checks():
    for r in range(3, 13):
        for g in range(2, r):
            for m in range(2, g + 1):
                assert x_ratio(2, m, r) == 1 - Fraction(m - 1, r - 1)
            assert asymptotic_product(2, g, r) == math.prod(
                (1 - Fraction(m - 1, r - 1) for m in range(2, g + 1)), start=Fraction(1)
            )
    for k in range(2, 12):
        for r in range(k + 1, 13):
            assert asymptotic_product(k, k, r) == 1 - Fraction(1, binomial(r - 1, k - 1))
    _report(3, "k=2 product matches termwise; g=k limit matches the classical bound")


def test_criterion_4_enumeration_counts():
    t0 = time.monotonic()
    h4 = enumerate_all(4, 3)
    # independent oracle: canonicalize all 16 labeled masks by explicit loops
    brute = set()
    subs = colex_subsets(4, 3)
    for mask in range(16):
        best = mask
        for p in itertools.permutations(range(4)):
            m = 0
            for i, s in enumerate(subs):
                if (mask >> i) & 1:
                    m |= 1 << subset_rank(tuple(p[v] for v in s))
            best = min(best, m)
        brute.add(best)
    assert len(h4) == len(brute) == 5
    assert len(enumerate_all(5, 3)) == burnside_count(5, 3)
    e5free = [G for G in enumerate_all(6, 3) if has_no_empty_set(G, 5)]
    assert len(e5free) == 2102
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"enumeration took {elapsed:.1f}s"
    _report(4, f"|H(4)|=5, |H(5)|=Burnside={burnside_count(5, 3)}, admissible |H(6)|=2102 in {elapsed:.1f}s")


def test_criterion_5_certificate(certificate_run):
    report, elapsed = certificate_run
    assert report.graph_count == 2102
    assert report.verdict == "pass"
    assert all(s >= 0 for s in report.slacks.values())
    assert report.min_slack == 0
    assert canonical_mask(Hypergraph.complete(6, 3)) in report.tight_graphs
    assert elapsed < 300, f"certificate took {elapsed:.1f}s"
    assert two_clique_density(6) == Fraction(3, 5)
    assert two_clique_density(8) == Fraction(18, 35)
    values = [two_clique_density(n) for n in (6, 8, 10, 12, 14, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > Fraction(3, 8) for v in values)
    _report(
        5,
        f"2102 slacks >= 0, min 0, complete graph tight, {elapsed:.0f}s; "
        "construction densities 3/5, 18/35 decreasing toward 3/8",
    )


def test_criterion_6_relation_suite(h4_classes, h5_classes):
    xs = {Fraction(j, 8) for j in range(1, 17)}
    for r in range(5, 9):
        for m in (3, 4):
            xs.add(x_ratio(3, m, r))
    checks = 0
    for G in list(h4_classes) + list(h5_classes):
        for m in range(3, G.n):
            for x in sorted(xs):
                assert check_three_term_inequality(G, m, x).holds
                checks += 1
    rng = random.Random(20240814)
    randoms = [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(200)]
    for G in list(h5_classes) + randoms:
        for m in (3, 4):
            if m < G.n:
                assert check_square_intermediate(G, m)
    literal_violations = []
    for G in randoms[:60] + [Hypergraph.complete(6, 3), Hypergraph.empty(6, 3)]:
        rows = check_relaxed_rows(G, 5, EpsilonMode.CORRECTED)
        assert all(row <= 0 for row in rows)
        for m, row in zip((3, 4), check_relaxed_rows(G, 5, EpsilonMode.LITERAL)):
            if row > 0:
                literal_violations.append((f"{G.edges:x}", m, str(row)))
        for g in (3, 4):
            for mode in EpsilonMode:
                lhs, rhs = telescoped_combination(G, g, 5, mode)
                assert lhs == rhs
    note = (
        f"{len(literal_violations)} literal-mode row positives (diagnostic only)"
        if literal_violations
        else "no literal-mode row positives in this sample"
    )
    if literal_violations:
        print(f"  literal-mode erratum diagnostics (first 3): {literal_violations[:3]}")
    _report(6, f"{checks} three-term checks, moments on 234 hosts, telescoping exact; {note}")


def test_criterion_7_lower_bound_diagnostics():
    direct33, formula33 = partite_lower_bound(3, 3, 2)
    assert direct33 == Fraction(3, 4) == formula33
    direct34, formula34 = partite_lower_bound(3, 4, 2)
    assert direct34 == Fraction(3, 8)
    assert formula34 == Fraction(-1, 8)
    assert formula34 != direct34  # the printed sum disagrees and is reported
    grid = 0
    for k in (2, 3, 4, 5):
        for r in range(k + 1, 13):
            if (r - 1) % (k - 1):
                continue
            l = (r - 1) // (k - 1)
            for g in range(k, r):
                assert partite_lower_bound(k, g, l).direct <= asymptotic_product(k, g, r)
                grid += 1
    _report(7, f"direct 3/4 and 3/8 reproduced, formula mismatch reported, {grid} grid points bounded")
