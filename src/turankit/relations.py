"""Brute-force checks of the density relations behind the bounds.

Each operation here evaluates one of the package's supporting inequalities
or identities on explicit hosts with exact arithmetic: the three-term
clique-density inequality, the local statistics it is averaged from, the
relaxed rows obtained by substituting a uniform slack constant, and the
telescoping identity that ties the multiplier vector to the final bound.

`SUITES` holds the batteries behind `turankit verify`: each entry runs its
checks over a fixed host set and returns (checks, failures, warnings), the
last two as lists of JSON-ready records.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import solve_delta
from .combinat import EpsilonMode, binomial, epsilon_value, x_ratio
from .hypergraph import (
    Hypergraph,
    clique_density,
    enumerate_all,
    induced_density,
    local_stats,
    nonedge_core_size,
)

__all__ = [
    "SUITES",
    "InequalityCheck",
    "check_relaxed_rows",
    "check_square_intermediate",
    "check_three_term_inequality",
    "telescoped_combination",
]


@dataclass(frozen=True)
class InequalityCheck:
    """Result of one three-term inequality evaluation.

    slack is the negated combination, so holds is slack >= 0.
    """

    m: int
    x: Fraction
    slack: Fraction
    holds: bool


def _row(G: Hypergraph, m: int, x: Fraction, shift: Fraction) -> Fraction:
    """The three-term row at m and parameter x with diagonal shift `shift`:

        -((1 - (k-1)/m)/x) d(K_{m+1}, G) + (2 - (k-1)/(m x) - shift) d(K_m, G)
        - x d(K_{m-1}, G)
    """
    a = Fraction(G.k - 1, m)
    return (
        -(1 - a) / x * clique_density(G, m + 1)
        + (2 - a / x - shift) * clique_density(G, m)
        - x * clique_density(G, m - 1)
    )


def check_three_term_inequality(G: Hypergraph, m: int, x: Fraction) -> InequalityCheck:
    """Evaluate, at parameter x > 0, the inequality

        0 >= -((1 - (k-1)/m)/x) d(K_{m+1}, G)
             + (2 - (k-1)/(m x) - 1/((n-m) x)) d(K_m, G)
             - x d(K_{m-1}, G)

    exactly on G.  Requires k <= m < n; x <= 0 is rejected since the
    combination above is a -1/x scaling of a sum of squares.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("check_three_term_inequality: need x > 0")
    if not G.k <= m < G.n:
        raise ValueError(f"check_three_term_inequality: need k <= m < n, got m={m}")
    slack = -_row(G, m, x, Fraction(1, G.n - m) / x)
    return InequalityCheck(m, x, slack, slack >= 0)


def check_square_intermediate(G: Hypergraph, m: int) -> bool:
    """Verify, by full enumeration over the (m-1)-subsets of G:

    (a) pointwise: r(S)^2 <= rr(S) + r(S)/(n-m) for every (m-1)-subset S,
    (b) the first moment: E[q r] equals d(K_m, G),
    (c) the second moment: E[q rr] equals the weighted sum of densities
        of (m+1)-vertex classes, weighted by C(core, 2)/C(m+1, 2) where
        core is the class's common-nonedge-vertex count.
    """
    k, n = G.k, G.n
    if not k <= m < n:
        raise ValueError(f"check_square_intermediate: need k <= m < n, got m={m}")
    total_qr = Fraction(0)
    total_qrr = Fraction(0)
    count = 0
    for S in itertools.combinations(range(n), m - 1):
        st = local_stats(G, S)
        count += 1
        if st.q:
            total_qr += st.r
            total_qrr += st.rr
            if st.r * st.r > st.rr + st.r * Fraction(1, n - m):
                return False
    if total_qr / count != clique_density(G, m):
        return False
    expected = Fraction(0)
    for H in enumerate_all(m + 1, k):
        core = nonedge_core_size(H)
        expected += Fraction(binomial(core, 2), binomial(m + 1, 2)) * induced_density(H, G)
    return total_qrr / count == expected


def check_relaxed_rows(
    G: Hypergraph, r: int, mode: EpsilonMode = EpsilonMode.CORRECTED
) -> list[Fraction]:
    """Evaluate the relaxed three-term rows for m = k..r-1 on G, where the
    host-size-dependent term 1/((n-m) x(m)) is replaced by the mode's
    uniform constant.

    In CORRECTED mode the constant dominates every replaced term, so all
    rows must come out <= 0 on any host; LITERAL-mode rows may go positive
    and are reported as values for the caller to log.
    """
    k, n = G.k, G.n
    if n <= r:
        raise ValueError(f"check_relaxed_rows: need |G| > r, got |G|={n}, r={r}")
    eps = epsilon_value(k, r, n, mode)
    return [_row(G, m, x_ratio(k, m, r), eps) for m in range(k, r)]


def telescoped_combination(
    G: Hypergraph, g: int, r: int, mode: EpsilonMode = EpsilonMode.CORRECTED
) -> tuple[Fraction, Fraction]:
    """Both sides of the telescoping identity

        sum_m delta_m row_m  =  -delta_k x(k) d(K_{k-1}, G) + d(K_g, G)
                                - delta_{r-1} ((1-(k-1)/(r-1))/x(r-1)) d(K_r, G)

    where delta is the multiplier vector at the mode's slack constant.  The
    two returned values must agree exactly for every host; callers assert
    equality.
    """
    k, n = G.k, G.n
    if not (2 <= k <= g < r < n):
        raise ValueError("telescoped_combination: need 2 <= k <= g < r < |G|")
    eps = epsilon_value(k, r, n, mode)
    delta = solve_delta(k, g, r, eps)
    rows = check_relaxed_rows(G, r, mode)
    lhs = sum((d * row for d, row in zip(delta, rows)), Fraction(0))
    rhs = (
        -delta[0] * x_ratio(k, k, r) * clique_density(G, k - 1)
        + clique_density(G, g)
        - delta[-1]
        * (1 - Fraction(k - 1, r - 1))
        / x_ratio(k, r - 1, r)
        * clique_density(G, r)
    )
    return lhs, rhs


def _lemma_suite() -> tuple[int, list, list]:
    """Three-term inequality over all 3-graph classes on 4 and 5 vertices,
    on a dyadic x grid plus the bound-relevant x values."""
    xs = {Fraction(j, 8) for j in range(1, 17)}
    for r in range(5, 9):
        for m in (3, 4):
            xs.add(x_ratio(3, m, r))
    checks = 0
    failures = []
    for n in (4, 5):
        for G in enumerate_all(n, 3):
            for m in range(3, n):
                for x in sorted(xs):
                    res = check_three_term_inequality(G, m, x)
                    checks += 1
                    if not res.holds:
                        failures.append({"graph": f"{G.edges:x}", "n": n, "m": m, "x": str(x)})
    return checks, failures, []


def _claims_suite() -> tuple[int, list, list]:
    """Local-statistics moment identities on all 5-vertex classes plus a
    fixed sample of random 6-vertex hosts."""
    checks = 0
    failures = []
    hosts = list(enumerate_all(5, 3))
    rng = random.Random(271828)
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(100)]
    for G in hosts:
        for m in (3, 4):
            if m >= G.n:
                continue
            checks += 1
            if not check_square_intermediate(G, m):
                failures.append({"graph": f"{G.edges:x}", "n": G.n, "m": m})
    return checks, failures, []


def _rows_suite() -> tuple[int, list, list]:
    """Relaxed rows and the telescoping identity on fixed 6-vertex hosts."""
    checks = 0
    failures = []
    warnings = []
    rng = random.Random(314159)
    hosts = [
        Hypergraph.complete(6, 3),
        Hypergraph.empty(6, 3),
    ] + [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(60)]
    r = 5
    for G in hosts:
        rows = check_relaxed_rows(G, r, EpsilonMode.CORRECTED)
        checks += 1
        if any(row > 0 for row in rows):
            failures.append({"graph": f"{G.edges:x}", "kind": "corrected-row-positive"})
        literal_rows = check_relaxed_rows(G, r, EpsilonMode.LITERAL)
        for m, row in zip(range(3, r), literal_rows):
            if row > 0:
                warnings.append(
                    {
                        "graph": f"{G.edges:x}",
                        "m": m,
                        "row": str(row),
                        "kind": "literal-row-positive",
                    }
                )
        for g in (3, 4):
            for mode in (EpsilonMode.CORRECTED, EpsilonMode.LITERAL):
                lhs, rhs = telescoped_combination(G, g, r, mode)
                checks += 1
                if lhs != rhs:
                    failures.append(
                        {"graph": f"{G.edges:x}", "g": g, "kind": "telescoping-mismatch"}
                    )
    return checks, failures, warnings


SUITES = {"lemma": _lemma_suite, "claims": _claims_suite, "rows": _rows_suite}
