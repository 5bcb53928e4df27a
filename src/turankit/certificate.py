"""Exhaustive verification of the 3/8 empty-quadruple certificate.

Complement form of the smallest open clique-density question this package
bounds: among 3-graphs in which every 5 vertices span at least one edge,
the limiting maximum density of empty 4-sets is 3/8.  The upper bound is a
weighted sum of six averaged squares of typed flag expressions which, when
expanded over the isomorphism classes of admissible 6-vertex hosts, must
not exceed 3/8 minus the empty-4-set coefficient on any single class.

This module pins the six squares and their weights as exact rationals,
each flag as an edge list on t vertices whose first s carry the type (see
`turankit.flags`).  It expands them at size 6 as integer numerators over
one denominator each, lifts the empty-4-set density to size 6 the same way,
and checks the slack of all 2102 admissible classes as one integer product
of the scaled weights with a 7 x 2102 numerator matrix (int64 where that
cannot overflow), with one `Fraction` per distinct slack.
The matching construction (two disjoint complete halves) is evaluated for
the lower bound, and its limit profile is checked to be an optimality
witness: over it d(E4) averages 3/8 and every square averages 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _NAMES
from .flags import ExpansionVector, chain_lift, square_expansion
from .hypergraph import (
    Hypergraph,
    disjoint_union,
    enumerate_all,
    has_no_empty_set,
    induced_density,
)

__all__ = _NAMES["certificate"].split()

TARGET = Fraction(3, 8)
# Six random vertices of two disjoint complete halves split 6+0, 5+1, 4+2 and
# 3+3 with probabilities (1, 6, 15, 10)/32; the 6-vertex classes they span,
# by canonical mask, with those weights.
TWO_CLIQUES_PROFILE = {0xFFFFF: 1, 0x3FF: 6, 0xF: 15, 0x600: 10}


@dataclass(frozen=True)
class CertificateTerm:
    """One weighted square: weight * avg((sum a_i F_i - constant * sigma)^2),
    with terms (a_i, F_i) and each flag F_i typed on its first sigma.n vertices."""

    label: str
    weight: Fraction
    sigma: Hypergraph
    terms: tuple[tuple[Fraction, Hypergraph], ...]
    constant: Fraction


# label, weight, type size s and edges, flag size t, (coefficient, flag
# edges) per flag, constant.  Every type is edgeless but the single-edge one.
_SQUARES = (
    ("empty-triple", Fraction(2, 3), 1, [], 3, [(1, [])], Fraction(3, 4)),
    ("l-asymmetry", Fraction(1, 6), 2, [], 4, [(1, [(0, 2, 3)]), (-1, [(1, 2, 3)])], 0),
    (
        "m-sum",
        Fraction(13, 12),
        3,
        [],
        4,
        [(1, [(1, 2, 3)]), (1, [(0, 2, 3)]), (1, [(0, 1, 3)])],
        Fraction(1, 2),
    ),
    ("empty-quadruple", Fraction(11, 12), 3, [], 4, [(1, [])], Fraction(1, 2)),
    ("single-edge-type", 2, 4, [(0, 1, 2)], 5, [(1, [(0, 1, 2)])], Fraction(1, 2)),
    ("o-asymmetry", Fraction(1, 2), 4, [], 5, [(1, [(0, 1, 4)]), (-1, [(2, 3, 4)])], 0),
)


def certificate_terms() -> tuple[CertificateTerm, ...]:
    """The six weighted squares, weights {2/3, 1/6, 13/12, 11/12, 2, 1/2}.

    The O-square is averaged over the edgeless quadruple type: its two
    flags keep exactly one edge meeting the typed vertices in a pair, and
    placing the type on independent quadruples is what makes the
    two-disjoint-halves construction tight.
    """
    return tuple(
        CertificateTerm(
            label,
            Fraction(weight),
            Hypergraph.from_edges(s, 3, type_edges),
            tuple((Fraction(a), Hypergraph.from_edges(t, 3, edges)) for a, edges in flags),
            Fraction(constant),
        )
        for label, weight, s, type_edges, t, flags, constant in _SQUARES
    )


@lru_cache(maxsize=1)
def e5free_six_classes() -> tuple[Hypergraph, ...]:
    """Isomorphism classes of 3-graphs on 6 vertices in which every 5-subset
    spans an edge, canonically ordered (2102 classes)."""
    return enumerate_all(6, 3, lambda G: has_no_empty_set(G, 5))


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
    codes = [H.edges for H in classes]  # slack numerators over D: target - scales @ rows
    rows = [list(map(v.nums.get, codes, itertools.repeat(0))) for v in vecs]
    top = max(max(max(row), -min(row)) for row in rows)
    dtype = np.int64 if target + top * sum(map(abs, scales)) < 1 << 63 else object
    nums = dict(zip(codes, (target - np.array(scales, dtype) @ np.array(rows, dtype)).tolist()))
    fracs = {num: Fraction(num, D) for num in set(nums.values())}  # 399 distinct of 2102
    slacks = {code: fracs[num] for code, num in nums.items()}
    min_slack = fracs[min(nums.values())]
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
