"""Brute-force checks of the density relations behind the bounds.

Each operation here evaluates one of the package's supporting inequalities
or identities on explicit hosts with exact arithmetic: the three-term
clique-density inequality, the local statistics it is averaged from, the
relaxed rows obtained by substituting a uniform slack constant, and the
telescoping identity that ties the multiplier vector to the final bound.

Every relation is integer arithmetic on the host's clique counts plus one
`Fraction` at the end.  A host's complete m-sets are found once, for every m,
in the per-host record `hypergraph._complete_sets` (one table lookup per byte
of the edge mask, for all m at once), and every check reads its clique
counts and bitmaps there.  A three-term row at x = p/q with shift s/t is one integer numerator
over m p q t (n-m) C(n, m); x and the shift enter as integer pairs, so each
three-term check and each relaxed row builds one `Fraction`, and a check
reads its sign off the numerator and returns an `InequalityCheck` tuple
record.  The three-term check, the relaxed rows and the telescoping sides
read a host only through n, k and its clique counts (a three-term check
only c_{m-1..m+1}), so each is built once per such profile, in a bounded
cache, and shared by every host with it.  The square moments
read restriction classes and are computed per host: they tally, for each
complete (m-1)-set, the number l of vertices extending it (one popcount of
the host's complete m-set bitmap from `hypergraph._complete_sets` masked to
the set's one-vertex supersets from `hypergraph._subset_masks`), weigh the
classes of the (m+1)-vertex restrictions
(`hypergraph.restriction_class_counts`: a table read up to 10 edge slots,
orbit minima up to 20, a scan past them), and compare both moments with
their expected values by integer cross-multiplication.
The multiplier vector and the right side's coefficients of the telescoping
identity are solved once per (k, g, r, n, mode).  The left side sums delta_m
times the host's relaxed rows, the record `check_relaxed_rows` reads, over
one integer denominator; the right side is one integer combination of its
clique counts, so the two sides stay independent.

`SUITES` holds the batteries behind `turankit verify`.  Each suite runs its
checks over a fixed host set and yields one (holds, record) per check and
one (None, record) per warning; one loop, `_tally`, counts them, so each
entry returns (checks, failures, warnings), the last two as lists of the
JSON-ready records of the failed checks and of the warnings.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Optional

from . import _NAMES
from .bounds import solve_delta
from .combinat import EpsilonMode, _x_parts, binomial, epsilon_value, x_ratio
from .hypergraph import (
    Hypergraph,
    _complete_sets,
    _subset_masks,
    enumerate_all,
    restriction_class_counts,
)

__all__ = _NAMES["relations"].split()


class InequalityCheck(NamedTuple):
    """Result of one three-term inequality evaluation, an immutable record.

    slack is the negated combination, so holds is slack >= 0.
    """

    m: int
    x: Fraction
    slack: Fraction
    holds: bool


# Entries per profile cache; a 1000-host verify batch reads 3,600-4,400 three-term keys.
_PROFILE_CACHE_SIZE = 8192


def _row(
    n: int, k: int, m: int, low: int, mid: int, up: int, p: int, q: int, s: int, t: int
) -> tuple[int, int]:
    """The three-term row at m and x = p/q with diagonal shift s/t on an
    n-vertex k-graph with clique counts c_{m-1}, c_m, c_{m+1} = low, mid, up,
    as (numerator, denominator) in integers:

        -((1 - (k-1)/m)/x) d(K_{m+1}, G) + (2 - (k-1)/(m x) - s/t) d(K_m, G)
        - x d(K_{m-1}, G)

    With d(K_j, G) = c_j / C(n, j), C(n, m+1) = C(n, m) (n-m)/(m+1) and
    C(n, m-1) = C(n, m) m/(n-m+1), the row times the denominator
    m p q t (n-m) C(n, m) is an integer, also for unreduced p/q and s/t.
    The denominator is positive when p, q and t are and m < n.
    """
    up = (m - k + 1) * (m + 1) * q * q * t * up
    mid = (2 * m * p * t - (k - 1) * q * t - m * p * s) * q * (n - m) * mid
    low = (n - m + 1) * (n - m) * p * p * t * low
    return mid - up - low, m * p * q * t * (n - m) * math.comb(n, m)


def check_three_term_inequality(G: Hypergraph, m: int, x: Fraction) -> InequalityCheck:
    """Evaluate, at parameter x > 0, the inequality

        0 >= -((1 - (k-1)/m)/x) d(K_{m+1}, G)
             + (2 - (k-1)/(m x) - 1/((n-m) x)) d(K_m, G)
             - x d(K_{m-1}, G)

    exactly on G.  Requires k <= m < n; x <= 0 is rejected since the
    combination above is a -1/x scaling of a sum of squares.  x may be
    anything `Fraction` accepts.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    p, q = x.as_integer_ratio()
    if p <= 0:
        raise ValueError("check_three_term_inequality: need x > 0")
    n, k = G.n, G.k
    if not k <= m < n:
        raise ValueError(f"check_three_term_inequality: need k <= m < n, got m={m}")
    c = _complete_sets(n, k, G.edges)[0]
    return _three_term(n, k, m, c[m - 1], c[m], c[m + 1], p, q)


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _three_term(
    n: int, k: int, m: int, low: int, mid: int, up: int, p: int, q: int
) -> InequalityCheck:
    # shift 1/((n-m) x) = q/((n-m) p); den > 0, so slack >= 0 iff num <= 0
    num, den = _row(n, k, m, low, mid, up, p, q, q, (n - m) * p)
    return InequalityCheck(m, Fraction(p, q), Fraction(-num, den), num <= 0)


@lru_cache(maxsize=None)
def _core_pair_weights(size: int, k: int) -> dict[int, int]:
    """C(core, 2) for every size-vertex class, keyed by canonical mask, where
    core is the class's common-nonedge-vertex count, which is also its
    number of complete (size-1)-sets.  Read-only."""
    return {
        H.edges: binomial(_complete_sets(size, k, H.edges)[0][size - 1], 2)
        for H in enumerate_all(size, k)
    }


def _extension_tallies(G: Hypergraph, size: int) -> list[int]:
    """For each complete size-subset S of G, in `itertools.combinations`
    order: l, the number of vertices v outside S with S + v complete, one
    popcount of the complete (size+1)-sets among S's one-vertex supersets."""
    sets = _complete_sets(G.n, G.k, G.edges)[1]
    inside, up = sets[size], sets[size + 1]
    exts = enumerate(_subset_masks(G.n, size, G.k)[1])
    return [(up & ext).bit_count() for i, ext in exts if inside >> i & 1]


def check_square_intermediate(G: Hypergraph, m: int) -> bool:
    """Verify, by full enumeration over the (m-1)-subsets S of G, with q(S)
    = 1 when S is complete, r(S) the share of outside vertices v with S + v
    complete, and rr(S) the probability that two distinct outside vertices
    both are such v:

    (a) the first moment: E[q r] equals d(K_m, G),
    (b) the second moment: E[q rr] equals the weighted sum of densities
        of (m+1)-vertex classes, weighted by C(core, 2)/C(m+1, 2) where
        core is the class's common-nonedge-vertex count.

    Each complete S contributes the integer l of vertices extending it, so
    with o = n-m+1 outside vertices r = l/o and rr = l(l-1)/(o(o-1)); both
    comparisons are integer cross-multiplications.  The pointwise bound
    r^2 <= rr + r/(n-m) needs no check: rr + r/(o-1) = l^2/(o(o-1)) >= r^2.
    """
    k, n = G.k, G.n
    if not k <= m < n:
        raise ValueError(f"check_square_intermediate: need k <= m < n, got m={m}")
    o = n - m + 1
    tallies = _extension_tallies(G, m - 1)
    count = math.comb(n, m - 1)
    if sum(tallies) * math.comb(n, m) != _complete_sets(n, k, G.edges)[0][m] * o * count:
        return False
    weights = _core_pair_weights(m + 1, k)
    weighted_hits = sum(
        weights[code] * hits for code, hits in restriction_class_counts(G, m + 1).items()
    )
    pairs = sum(l * (l - 1) // 2 for l in tallies)
    return (
        pairs * math.comb(m + 1, 2) * math.comb(n, m + 1)
        == weighted_hits * math.comb(o, 2) * count
    )


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
    if G.n <= r:
        raise ValueError(f"check_relaxed_rows: need |G| > r, got |G|={G.n}, r={r}")
    return list(_relaxed_rows(G.n, G.k, r, mode, _complete_sets(G.n, G.k, G.edges)[0]))


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _relaxed_rows(
    n: int, k: int, r: int, mode: EpsilonMode, c: tuple[int, ...]
) -> tuple[Fraction, ...]:
    eps = epsilon_value(k, r, n, mode)
    s, t = eps.numerator, eps.denominator
    rows = (_row(n, k, m, *c[m - 1 : m + 2], *_x_parts(k, m, r), s, t) for m in range(k, r))
    return tuple(Fraction(*row) for row in rows)


@lru_cache(maxsize=256)
def _telescoping(
    k: int, g: int, r: int, n: int, mode: EpsilonMode
) -> tuple[tuple[tuple[int, int], ...], int, int, int, int]:
    """Solved once per (k, g, r, n, mode): the multiplier vector delta at the
    mode's slack constant, as integer pairs for m = k..r-1, and the right
    side's coefficients -delta_k x(k)/C(n,k-1), 1/C(n,g) and
    -delta_{r-1} (1-(k-1)/(r-1))/x(r-1)/C(n,r) as integers low, mid and
    high over one denominator."""
    delta = solve_delta(k, g, r, epsilon_value(k, r, n, mode))
    (p_low, q_low), (p_high, q_high) = _x_parts(k, k, r), _x_parts(k, r - 1, r)
    coeffs = (
        -delta[0] * Fraction(p_low, q_low * math.comb(n, k - 1)),
        Fraction(1, math.comb(n, g)),
        -delta[-1] * Fraction((r - k) * q_high, (r - 1) * p_high * math.comb(n, r)),
    )
    den = math.lcm(*(c.denominator for c in coeffs))
    low, mid, high = (c.numerator * (den // c.denominator) for c in coeffs)
    return tuple(d.as_integer_ratio() for d in delta), low, mid, high, den


def telescoped_combination(
    G: Hypergraph, g: int, r: int, mode: EpsilonMode = EpsilonMode.CORRECTED
) -> tuple[Fraction, Fraction]:
    """Both sides of the telescoping identity

        sum_m delta_m row_m  =  -delta_k x(k) d(K_{k-1}, G) + d(K_g, G)
                                - delta_{r-1} ((1-(k-1)/(r-1))/x(r-1)) d(K_r, G)

    where delta is the multiplier vector at the mode's slack constant.  The
    left side is summed from G's own relaxed rows and the right side is read
    from G's clique counts; the two must agree exactly for every host, and
    callers assert equality.
    """
    k, n = G.k, G.n
    if not (2 <= k <= g < r < n):
        raise ValueError("telescoped_combination: need 2 <= k <= g < r < |G|")
    return _telescoped(n, k, g, r, mode, _complete_sets(n, k, G.edges)[0])


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _telescoped(
    n: int, k: int, g: int, r: int, mode: EpsilonMode, c: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    delta, low, mid, high, den = _telescoping(k, g, r, n, mode)
    num, lhs_den = 0, 1
    for (dn, dd), row in zip(delta, _relaxed_rows(n, k, r, mode, c)):
        row_num, row_den = row.as_integer_ratio()
        num = num * dd * row_den + dn * row_num * lhs_den
        lhs_den *= dd * row_den
    return Fraction(num, lhs_den), Fraction(low * c[k - 1] + mid * c[g] + high * c[r], den)


def _lemma_suite() -> Iterator[tuple[Optional[bool], dict]]:
    """Three-term inequality over all 3-graph classes on 4 and 5 vertices,
    on a dyadic x grid plus the bound-relevant x values."""
    xs = {Fraction(j, 8) for j in range(1, 17)}
    for r in range(5, 9):
        for m in (3, 4):
            xs.add(x_ratio(3, m, r))
    for n in (4, 5):
        for G in enumerate_all(n, 3):
            for m in range(3, n):
                for x in sorted(xs):
                    record = {"graph": f"{G.edges:x}", "n": n, "m": m, "x": str(x)}
                    yield check_three_term_inequality(G, m, x).holds, record


def _claims_suite() -> Iterator[tuple[Optional[bool], dict]]:
    """Local-statistics moment identities on all 5-vertex classes plus a
    fixed sample of random 6-vertex hosts."""
    hosts = list(enumerate_all(5, 3))
    rng = random.Random(271828)
    hosts += [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(100)]
    for G in hosts:
        for m in (3, 4):
            yield check_square_intermediate(G, m), {"graph": f"{G.edges:x}", "n": G.n, "m": m}


def _rows_suite() -> Iterator[tuple[Optional[bool], dict]]:
    """Relaxed rows and the telescoping identity on fixed 6-vertex hosts;
    a positive LITERAL row is a warning."""
    rng = random.Random(314159)
    hosts = [
        Hypergraph.complete(6, 3),
        Hypergraph.empty(6, 3),
    ] + [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(60)]
    r = 5
    for G in hosts:
        graph = f"{G.edges:x}"
        rows = check_relaxed_rows(G, r, EpsilonMode.CORRECTED)
        yield all(row <= 0 for row in rows), {"graph": graph, "kind": "corrected-row-positive"}
        literal_rows = check_relaxed_rows(G, r, EpsilonMode.LITERAL)
        for m, row in zip(range(3, r), literal_rows):
            if row > 0:
                warning = {"graph": graph, "m": m, "row": str(row), "kind": "literal-row-positive"}
                yield None, warning
        for g in (3, 4):
            for mode in (EpsilonMode.CORRECTED, EpsilonMode.LITERAL):
                lhs, rhs = telescoped_combination(G, g, r, mode)
                yield lhs == rhs, {"graph": graph, "g": g, "kind": "telescoping-mismatch"}


def _tally(suite: Callable[[], Iterator[tuple[Optional[bool], dict]]]) -> tuple[int, list, list]:
    """The one loop over a suite's yields: (checks, failures, warnings),
    counting each (holds, record) as a check and keeping the records of
    those that fail, and of each (None, record), a warning."""
    checks, failures, warnings = 0, [], []
    for holds, record in suite():
        if holds is None:
            warnings.append(record)
        else:
            checks += 1
            if not holds:
                failures.append(record)
    return checks, failures, warnings


SUITES = {
    name: partial(_tally, suite)
    for name, suite in (("lemma", _lemma_suite), ("claims", _claims_suite), ("rows", _rows_suite))
}
