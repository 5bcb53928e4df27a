"""Typed flags and exact finite-size density expansions.

A flag is a host hypergraph with an ordered tuple of distinguished (typed)
vertices; the induced subgraph on the typed vertices must equal the type
exactly, labels included.  Flag isomorphism fixes typed vertices pointwise
and only permutes the untyped ones.

Products of flags sharing a type placement are evaluated over ordered pairs
of disjoint extension sets, so every expansion computed here is an exact
identity at its finite size, not an asymptotic one: averaging a square
expansion over a larger host through the chain rule reproduces the direct
evaluation on that host coefficient for coefficient.

Classification is table-driven.  The typed mask of an ordered vertex tuple
is gathered through `hypergraph.tuple_bits`, and `_typed_canon(t, s, k)`
maps every ordered t-vertex mask to its minimum over the permutations of
the untyped positions s..t-1 (at most 2^10 entries at t = 5), so
`typed_code` is a single lookup.  Expansions keep integer counts per host
(type placements, extension sets per code, ordered disjoint pairs per code
pair) and apply the rational coefficients once per host.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hypergraph import (
    Hypergraph,
    _check_bits,
    _gather,
    _orbit_minima,
    enumerate_all,
    restriction_class_counts,
    tuple_bits,
)

__all__ = [
    "ExpansionVector",
    "Flag",
    "chain_lift",
    "extension_density",
    "flag_code",
    "pair_density",
    "square_expansion",
    "type_embeddings",
    "typed_code",
]

# A type is a plain Hypergraph whose vertex labels are significant: two
# types are interchangeable only when their masks are literally equal.

_LIFT_LIMIT = 6


@dataclass(frozen=True)
class Flag:
    """Host graph with typed vertices type_map[i] carrying type label i."""

    host: Hypergraph
    type_map: tuple[int, ...]
    sigma: Hypergraph

    def __post_init__(self) -> None:
        if self.sigma.k != self.host.k:
            raise ValueError("Flag: type and host uniformities differ")
        if len(self.type_map) != self.sigma.n:
            raise ValueError("Flag: type_map length must match the type size")
        if len(set(self.type_map)) != len(self.type_map) or not all(
            0 <= v < self.host.n for v in self.type_map
        ):
            raise ValueError("Flag: type_map must be an injection into the host")
        if _typed_mask(self.host, self.type_map) != self.sigma.edges:
            raise ValueError(
                "Flag: host restricted to the typed vertices does not equal the type"
            )

    @property
    def size(self) -> int:
        return self.host.n

    @property
    def type_size(self) -> int:
        return self.sigma.n

    def untyped(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.host.n) if v not in self.type_map)


def _typed_mask(H: Hypergraph, vertices: tuple[int, ...]) -> int:
    """Edge mask of H on `vertices` relabeled so vertices[i] becomes i."""
    return _gather(H.edges, tuple_bits(H.k, vertices))


@lru_cache(maxsize=None)
def _typed_canon(t: int, s: int, k: int) -> tuple[int, ...]:
    """Canonical typed code of every ordered t-vertex mask: the minimum of
    its relabelings that fix positions 0..s-1 and permute s..t-1."""
    _check_bits("typed_code", t, k)
    masks = np.arange(1 << math.comb(t, k), dtype=np.int64)
    return tuple(_orbit_minima(masks, t, k, s).tolist())


def typed_code(H: Hypergraph, theta: tuple[int, ...], extras) -> int:
    """Canonical mask of the flag induced by typed vertices theta and
    extension set extras: typed labels are pinned, untyped labels are
    minimized over their permutations."""
    ordered = tuple(theta) + tuple(sorted(extras))
    return _typed_canon(len(ordered), len(theta), H.k)[_typed_mask(H, ordered)]


@lru_cache(maxsize=None)
def flag_code(F: Flag) -> int:
    """Canonical mask of a flag under untyped-vertex relabeling."""
    return typed_code(F.host, F.type_map, F.untyped())


def type_embeddings(sigma: Hypergraph, H: Hypergraph) -> list[tuple[int, ...]]:
    """All ordered injections of the type's labels into H whose induced,
    relabeled subgraph equals the type exactly (non-edges included)."""
    if sigma.n > H.n:
        raise ValueError("type_embeddings: type larger than host")
    if sigma.k != H.k:
        raise ValueError("type_embeddings: uniformities differ")
    return sorted(_placements(sigma, H))


@lru_cache(maxsize=None)
def _orderings(sigma: Hypergraph, mask: int) -> tuple[tuple[int, ...], ...]:
    """Orderings p of an s-vertex set with sorted-order mask `mask` under
    which the placement (set[p[0]], ..., set[p[s-1]]) carries the type."""
    if mask.bit_count() != sigma.edges.bit_count():
        return ()
    return tuple(
        p
        for p in itertools.permutations(range(sigma.n))
        if _gather(mask, tuple_bits(sigma.k, p)) == sigma.edges
    )


def _placements(sigma: Hypergraph, H: Hypergraph):
    """Every embedding placement of the type in H, grouped by vertex set."""
    for vs in itertools.combinations(range(H.n), sigma.n):
        for p in _orderings(sigma, _typed_mask(H, vs)):
            yield tuple(vs[i] for i in p)


def extension_density(F: Flag, H: Hypergraph, theta: tuple[int, ...]) -> Fraction:
    """Probability that a uniform (|F|-s)-subset of the free vertices,
    together with the placement theta, induces a flag isomorphic to F."""
    _require_embedding(F.sigma, H, theta)
    e = F.size - F.type_size
    free = [v for v in range(H.n) if v not in theta]
    if len(free) < e:
        raise ValueError("extension_density: not enough free vertices")
    target = flag_code(F)
    hits = sum(
        1 for S in itertools.combinations(free, e) if typed_code(H, theta, S) == target
    )
    return Fraction(hits, math.comb(len(free), e))


def pair_density(
    Fa: Flag, Fb: Flag, H: Hypergraph, theta: tuple[int, ...]
) -> Fraction:
    """Probability that an ordered pair of disjoint extension sets realizes
    (Fa, Fb) simultaneously at the placement theta.

    The pair (Sa, Sb) is uniform over disjoint subsets of the free vertices
    with |Sa| = |Fa|-s and |Sb| = |Fb|-s.  This is the exact finite-size
    product of the two flags.
    """
    if Fa.sigma != Fb.sigma:
        raise ValueError("pair_density: flags carry different types")
    _require_embedding(Fa.sigma, H, theta)
    ea = Fa.size - Fa.type_size
    eb = Fb.size - Fb.type_size
    free = [v for v in range(H.n) if v not in theta]
    f = len(free)
    if f < ea + eb:
        raise ValueError("pair_density: not enough free vertices")
    ca, cb = flag_code(Fa), flag_code(Fb)
    hits = 0
    for Sa in itertools.combinations(free, ea):
        if typed_code(H, theta, Sa) != ca:
            continue
        rest = [v for v in free if v not in Sa]
        hits += sum(
            1 for Sb in itertools.combinations(rest, eb) if typed_code(H, theta, Sb) == cb
        )
    return Fraction(hits, math.comb(f, ea) * math.comb(f - ea, eb))


def _require_embedding(sigma: Hypergraph, H: Hypergraph, theta: tuple[int, ...]) -> None:
    if len(theta) != sigma.n or len(set(theta)) != sigma.n:
        raise ValueError("theta must be an injective placement of the type")
    if _typed_mask(H, theta) != sigma.edges:
        raise ValueError("theta does not embed the type")


@dataclass(frozen=True)
class ExpansionVector:
    """Coefficients of an averaged flag expression over the isomorphism
    classes of n-vertex hosts, keyed by canonical mask (missing key = 0)."""

    k: int
    n: int
    coeffs: dict[int, Fraction]

    def coefficient(self, code: int) -> Fraction:
        return self.coeffs.get(code, Fraction(0))

    def value_at(self, G: Hypergraph) -> Fraction:
        """Average of the expression over G: sum of coefficient(H) d(H, G)."""
        if G.k != self.k or G.n < self.n:
            raise ValueError("value_at: incompatible host")
        counts = restriction_class_counts(G, self.n)
        num = sum(
            (self.coeffs[code] * cnt for code, cnt in counts.items() if code in self.coeffs),
            Fraction(0),
        )
        return num / math.comb(G.n, self.n)


def _term_layout(
    sigma: Hypergraph, terms: Sequence[tuple[Fraction, Flag]]
) -> tuple[int, list[tuple[Fraction, int]]]:
    """Validate a term list and return (flag size t, [(coeff, code)])."""
    if not terms:
        return sigma.n, []
    sizes = {f.size for _, f in terms}
    if len(sizes) != 1:
        raise ValueError("terms must all have the same flag size")
    for _, f in terms:
        if f.sigma != sigma:
            raise ValueError("terms must all carry the given type")
    return sizes.pop(), [(Fraction(a), flag_code(f)) for a, f in terms]


def square_expansion(
    sigma: Hypergraph,
    terms: Sequence[tuple[Fraction, Flag]],
    constant: Fraction,
    size: int,
) -> ExpansionVector:
    """Coefficients of the averaged square (sum a_i F_i - c sigma)^2 over
    the classes of size-vertex hosts.

    Per host the value is the average, over all injective type placements
    (non-embedding placements contribute 0), of the exact pair-density
    square at that placement.  Integer counts are summed over the embedding
    placements: the placements themselves, the extension sets of each code,
    and the ordered disjoint pairs of extension sets per code pair.  The
    free vertex count is the same at every placement, so the rational
    coefficients apply once per host.  The square is expanded on hosts of
    2t - s vertices (flag size t, type size s); larger targets are lifted
    through the chain rule, which is loss-free here.
    """
    constant = Fraction(constant)
    t, coded = _term_layout(sigma, terms)
    s = sigma.n
    base = 2 * t - s
    if base > size:
        raise ValueError(
            f"expansion needs hosts of at least {base} vertices, target is {size}"
        )
    k = sigma.k
    e = t - s
    weight: dict[int, Fraction] = {}
    for a, code in coded:
        weight[code] = weight.get(code, Fraction(0)) + a
    f = base - s
    singles_total = math.comb(f, e)
    pairs_total = singles_total * math.comb(f - e, e)
    coeffs: dict[int, Fraction] = {}
    for rep in enumerate_all(base, k):
        placements = 0
        hits: Counter[int] = Counter()
        pairs: Counter[tuple[int, int]] = Counter()
        for theta in _placements(sigma, rep):
            placements += 1
            free = [v for v in range(base) if v not in theta]
            found = []
            for S in itertools.combinations(free, e):
                code = typed_code(rep, theta, S)
                if code in weight:
                    hits[code] += 1
                    found.append((sum(1 << v for v in S), code))
            for sa, ca in found:
                for sb, cb in found:
                    if not sa & sb:
                        pairs[ca, cb] += 1
        single = sum((weight[c] * n for c, n in hits.items()), Fraction(0))
        pair_sum = sum(
            (weight[a] * weight[b] * n for (a, b), n in pairs.items()), Fraction(0)
        )
        total = (
            pair_sum / pairs_total
            - 2 * constant * single / singles_total
            + placements * constant * constant
        )
        coeffs[rep.edges] = total / math.perm(base, s)
    vec = ExpansionVector(k, base, coeffs)
    return chain_lift(vec, size) if size > base else vec


def chain_lift(vec: ExpansionVector, size: int) -> ExpansionVector:
    """Re-express a coefficient vector over larger hosts: the new coefficient
    of H is the density-weighted sum of the old coefficients over the
    induced restrictions of H."""
    if not vec.n <= size <= _LIFT_LIMIT:
        raise ValueError(f"chain_lift: need {vec.n} <= size <= {_LIFT_LIMIT}")
    if size == vec.n:
        return ExpansionVector(vec.k, vec.n, dict(vec.coeffs))
    coeffs = {rep.edges: vec.value_at(rep) for rep in enumerate_all(size, vec.k)}
    return ExpansionVector(vec.k, size, coeffs)
