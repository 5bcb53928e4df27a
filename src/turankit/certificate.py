"""Exhaustive verification of the 3/8 empty-quadruple certificate.

Complement form of the smallest open clique-density question this package
bounds: among 3-graphs in which every 5 vertices span at least one edge,
the limiting maximum density of empty 4-sets is 3/8.  The upper bound is a
weighted sum of six averaged squares of typed flag expressions which, when
expanded over the isomorphism classes of admissible 6-vertex hosts, must
not exceed 3/8 minus the empty-4-set coefficient on any single class.

This module pins the six squares and their weights as exact rationals,
expands them at size 6 as integer numerators over one denominator each,
lifts the empty-4-set density to size 6 the same way, and checks the slack
of all 2102 admissible classes in integers, with one `Fraction` per class.
The matching construction (two disjoint complete halves) is evaluated for
the lower bound, and its limit profile is checked to be an optimality
witness: over it d(E4) averages 3/8 and every square averages 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .flags import ExpansionVector, Flag, chain_lift, square_expansion
from .hypergraph import (
    Hypergraph,
    disjoint_union,
    enumerate_all,
    has_no_empty_set,
    induced_density,
)

__all__ = [
    "CertificateReport",
    "CertificateTerm",
    "FlagCatalog",
    "catalog_flags",
    "certificate_terms",
    "e5free_six_classes",
    "two_clique_density",
    "verify_certificate",
]

TARGET = Fraction(3, 8)
# Six random vertices of two disjoint complete halves split 6+0, 5+1, 4+2 and
# 3+3 with probabilities (1, 6, 15, 10)/32; the 6-vertex classes they span,
# by canonical mask, with those weights.
TWO_CLIQUES_PROFILE = {0xFFFFF: 1, 0x3FF: 6, 0xF: 15, 0x600: 10}


@dataclass(frozen=True)
class FlagCatalog:
    """The types and typed flags used by the certificate.

    Types (labels significant): p1/p2/p3/p4 are edgeless on 1..4 vertices
    and q4 has the single edge (0,1,2).  Each flag comment lists the host's
    full edge set.
    """

    p1: Hypergraph
    p2: Hypergraph
    p3: Hypergraph
    p4: Hypergraph
    q4: Hypergraph
    e3_p1: Flag  # empty 3-set over a single typed vertex
    l_a: Flag  # 4 vertices, edge (0,2,3), type (0,1)
    l_b: Flag  # 4 vertices, edge (1,2,3), type (0,1)
    m_a: Flag  # 4 vertices, edge (1,2,3), type (0,1,2)
    m_b: Flag  # 4 vertices, edge (0,2,3), type (0,1,2)
    m_c: Flag  # 4 vertices, edge (0,1,3), type (0,1,2)
    e4_p3: Flag  # empty 4-set over an edgeless typed triple
    n_q4: Flag  # 5 vertices, edge (0,1,2) only, type (0,1,2,3)
    o_a: Flag  # 5 vertices, edge (0,1,4) only, edgeless type (0,1,2,3)
    o_b: Flag  # 5 vertices, edge (2,3,4) only, edgeless type (0,1,2,3)


def catalog_flags() -> FlagCatalog:
    """Build and validate the certificate's flag catalog.

    Every Flag constructor re-checks that the host restricted to the typed
    vertices equals the type, so an inconsistent catalog cannot load.
    """
    p1 = Hypergraph.empty(1, 3)
    p2 = Hypergraph.empty(2, 3)
    p3 = Hypergraph.empty(3, 3)
    p4 = Hypergraph.empty(4, 3)
    q4 = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
    return FlagCatalog(
        p1=p1,
        p2=p2,
        p3=p3,
        p4=p4,
        q4=q4,
        e3_p1=Flag(Hypergraph.empty(3, 3), (0,), p1),
        l_a=Flag(Hypergraph.from_edges(4, 3, [(0, 2, 3)]), (0, 1), p2),
        l_b=Flag(Hypergraph.from_edges(4, 3, [(1, 2, 3)]), (0, 1), p2),
        m_a=Flag(Hypergraph.from_edges(4, 3, [(1, 2, 3)]), (0, 1, 2), p3),
        m_b=Flag(Hypergraph.from_edges(4, 3, [(0, 2, 3)]), (0, 1, 2), p3),
        m_c=Flag(Hypergraph.from_edges(4, 3, [(0, 1, 3)]), (0, 1, 2), p3),
        e4_p3=Flag(Hypergraph.empty(4, 3), (0, 1, 2), p3),
        n_q4=Flag(Hypergraph.from_edges(5, 3, [(0, 1, 2)]), (0, 1, 2, 3), q4),
        o_a=Flag(Hypergraph.from_edges(5, 3, [(0, 1, 4)]), (0, 1, 2, 3), p4),
        o_b=Flag(Hypergraph.from_edges(5, 3, [(2, 3, 4)]), (0, 1, 2, 3), p4),
    )


@dataclass(frozen=True)
class CertificateTerm:
    """One weighted square: weight * avg((sum a_i F_i - constant * sigma)^2)."""

    label: str
    weight: Fraction
    sigma: Hypergraph
    terms: tuple[tuple[Fraction, Flag], ...]
    constant: Fraction


def certificate_terms() -> tuple[CertificateTerm, ...]:
    """The six weighted squares, weights {2/3, 1/6, 13/12, 11/12, 2, 1/2}.

    The O-square is averaged over the edgeless quadruple type: o_a/o_b keep
    exactly one edge meeting the typed vertices in a pair, and placing the
    type on independent quadruples is what makes the two-disjoint-halves
    construction tight.
    """
    c = catalog_flags()
    one = Fraction(1)
    return (
        CertificateTerm(
            "empty-triple", Fraction(2, 3), c.p1, ((one, c.e3_p1),), Fraction(3, 4)
        ),
        CertificateTerm(
            "l-asymmetry", Fraction(1, 6), c.p2, ((one, c.l_a), (-one, c.l_b)), Fraction(0)
        ),
        CertificateTerm(
            "m-sum",
            Fraction(13, 12),
            c.p3,
            ((one, c.m_a), (one, c.m_b), (one, c.m_c)),
            Fraction(1, 2),
        ),
        CertificateTerm(
            "empty-quadruple", Fraction(11, 12), c.p3, ((one, c.e4_p3),), Fraction(1, 2)
        ),
        CertificateTerm(
            "single-edge-type", Fraction(2), c.q4, ((one, c.n_q4),), Fraction(1, 2)
        ),
        CertificateTerm(
            "o-asymmetry", Fraction(1, 2), c.p4, ((one, c.o_a), (-one, c.o_b)), Fraction(0)
        ),
    )


@lru_cache(maxsize=1)
def e5free_six_classes() -> tuple[Hypergraph, ...]:
    """Isomorphism classes of 3-graphs on 6 vertices in which every 5-subset
    spans an edge, canonically ordered (2102 classes)."""
    return enumerate_all(6, 3, lambda G: has_no_empty_set(G, 5))


@lru_cache(maxsize=1)
def _term_vectors() -> tuple[ExpansionVector, ...]:
    return tuple(
        square_expansion(t.sigma, t.terms, t.constant, 6) for t in certificate_terms()
    )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the per-class slack check.

    slack(H) = 3/8 - d(empty 4-set, H) - sum_i weight_i * coeff_i(H); the
    certificate holds exactly when every slack is nonnegative.
    """

    k: int
    n: int
    graph_count: int
    slacks: dict[int, Fraction]
    min_slack: Fraction
    tight_graphs: tuple[int, ...]
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def verify_certificate() -> CertificateReport:
    """Check the certificate slack on every admissible 6-vertex class, as
    enumerated by `e5free_six_classes`: integer slack numerators over the
    common denominator D of 3/8 and seven weighted vectors, d(E4) (the
    empty 4-set lifted to size 6, weight 1) and the six term vectors.

    The two-cliques profile must be an optimality witness: d(E4) averages
    3/8 over it and each term vector 0, so the squares are tight on the
    construction and no weighting of them proves less than 3/8
    (ArithmeticError otherwise).  The least slack and the tight classes are
    read off the numerators."""
    classes = e5free_six_classes()
    empty4 = chain_lift(ExpansionVector(3, 4, {0: 1}, 1), 6)  # d(E4) per class
    terms = certificate_terms()
    weights = [Fraction(1)] + [t.weight for t in terms]
    vecs = (empty4,) + _term_vectors()
    labels = ["d(E4)"] + [t.label for t in terms]
    averages = [TARGET] + [Fraction(0)] * len(terms)
    total = sum(TWO_CLIQUES_PROFILE.values())
    for label, want, v in zip(labels, averages, vecs):
        # the profile average is num / (total v.den)
        num = sum(w * v.nums.get(code, 0) for code, w in TWO_CLIQUES_PROFILE.items())
        if num * want.denominator != want.numerator * total * v.den:
            raise ArithmeticError(
                f"verify_certificate: {label} does not average to {want} "
                "over the two-cliques profile"
            )
    dens = [w.denominator * v.den for w, v in zip(weights, vecs)]
    D = math.lcm(TARGET.denominator, *dens)
    scales = [w.numerator * (D // d) for w, d in zip(weights, dens)]
    target = TARGET.numerator * (D // TARGET.denominator)
    nums: dict[int, int] = {}  # slack numerators over D
    for H in classes:
        nums[H.edges] = target - sum(s * v.nums.get(H.edges, 0) for s, v in zip(scales, vecs))
    slacks = {code: Fraction(num, D) for code, num in nums.items()}
    min_slack = Fraction(min(nums.values()), D)
    tight = tuple(code for code, num in nums.items() if num == 0)
    return CertificateReport(
        k=3,
        n=6,
        graph_count=len(classes),
        slacks=slacks,
        min_slack=min_slack,
        tight_graphs=tight,
        verdict="pass" if min_slack >= 0 else "fail",
    )


def two_clique_density(n: int) -> Fraction:
    """Empty-4-set density of two disjoint complete halves on n vertices.

    The only empty 4-sets are the 2+2 splits, so the density is
    C(a,2) C(b,2) / C(n,4) with a = floor(n/2), b = n - a.  It decreases
    toward 3/8 as n grows (1225/3201 at n = 100).  For n <= 8 the value
    and the every-5-subset-spans-an-edge property are re-checked on the
    explicit graph; beyond that the property is a pigeonhole fact (any 5 vertices
    put 3 in one complete half).
    """
    if n < 6:
        raise ValueError(f"two_clique_density: need n >= 6, got n={n}")
    a, b = n // 2, n - n // 2
    value = Fraction(math.comb(a, 2) * math.comb(b, 2), math.comb(n, 4))
    if n <= 8:
        G = disjoint_union(Hypergraph.complete(a, 3), Hypergraph.complete(b, 3))
        if induced_density(Hypergraph.empty(4, 3), G) != value:
            raise ArithmeticError("two_clique_density: split count disagrees")
        if not has_no_empty_set(G, 5):
            raise ArithmeticError("two_clique_density: construction has an empty 5-set")
    return value
