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

Every sub-mask is classified through one table, `_typed_canon(t, s, k)` of
`turankit.hypergraph`: an int64 array of every ordered t-vertex mask's
minimum over the permutations of the untyped positions s..t-1; at s = 0
that is the untyped canonical code, which `hypergraph._canonical_codes`
also reads up to 5 vertices.  The per-host `typed_code` (and so `flag_code`) reads one
entry of it, `square_expansion` maps every ordering of every t-vertex mask
through it into a weight table, and `chain_lift` maps the untyped
sub-masks of all classes of a larger size, up to 6 vertices, through it.
A flag's weight at a placement depends only on the t vertices it spans, so
both read the sub-masks of all classes on vertex subsets off
`hypergraph._ordered_masks`, two reads per class and subset in tables built
from `tuple_bits`: the flag-size restrictions and the lifted sub-masks.
Counts per class are int64, and numerators integers over one denominator,
which the lift keeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .hypergraph import (
    Hypergraph,
    _gather,
    _ordered_masks,
    _perm_tables,
    _typed_canon,
    enumerate_all,
    restriction_class_counts,
    tuple_bits,
)

__all__ = [
    "ExpansionVector",
    "Flag",
    "chain_lift",
    "flag_code",
    "square_expansion",
    "typed_code",
]

# A type is a plain Hypergraph whose vertex labels are significant: two
# types are interchangeable only when their masks are literally equal.

_LIFT_LIMIT = 6
# `square_expansion` reads its placement weights in batches of this many entries
_GATHER_ENTRIES = 1 << 16


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


def typed_code(H: Hypergraph, theta: tuple[int, ...], extras) -> int:
    """Canonical mask of the flag induced by typed vertices theta and
    extension set extras: typed labels are pinned, untyped labels are
    minimized over their permutations."""
    ordered = tuple(theta) + tuple(sorted(extras))
    return int(_typed_canon(len(ordered), len(theta), H.k)[_typed_mask(H, ordered)])


def flag_code(F: Flag) -> int:
    """Canonical mask of a flag under untyped-vertex relabeling."""
    return typed_code(F.host, F.type_map, F.untyped())


@dataclass(frozen=True)
class ExpansionVector:
    """Coefficients of an averaged flag expression over the isomorphism
    classes of n-vertex hosts: nums[code] / den per canonical mask, with
    integer numerators over one positive denominator (missing key = 0)."""

    k: int
    n: int
    nums: dict[int, int]
    den: int

    def __post_init__(self) -> None:
        if type(self.den) is not int or self.den <= 0:
            raise ValueError("ExpansionVector: den must be a positive int")
        if not all(type(v) is int for v in self.nums.values()):
            raise ValueError("ExpansionVector: numerators must be ints")

    def coefficient(self, code: int) -> Fraction:
        return Fraction(self.nums.get(code, 0), self.den)

    def value_at(self, G: Hypergraph) -> Fraction:
        """Average of the expression over G: sum of coefficient(H) d(H, G)."""
        if G.k != self.k or G.n < self.n:
            raise ValueError("value_at: incompatible host")
        counts = restriction_class_counts(G, self.n)
        num = sum(self.nums.get(code, 0) * cnt for code, cnt in counts.items())
        return Fraction(num, self.den * math.comb(G.n, self.n))


def _term_layout(
    sigma: Hypergraph, terms: Sequence[tuple[Fraction, Flag]]
) -> tuple[int, dict[int, Fraction]]:
    """Validate a term list and return (flag size t, summed coeff per code)."""
    sizes = {f.size for _, f in terms} or {sigma.n}
    if len(sizes) != 1:
        raise ValueError("terms must all have the same flag size")
    if any(f.sigma != sigma for _, f in terms):
        raise ValueError("terms must all carry the given type")
    weight: dict[int, Fraction] = {}
    for a, f in terms:
        code = flag_code(f)
        weight[code] = weight.get(code, Fraction(0)) + Fraction(a)
    return sizes.pop(), weight


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
    square at that placement.  The square is expanded on all classes of
    2t - s vertices at once (flag size t, type size s).  The weight of a
    placement theta and an extension set a depends only on the t vertices
    U = theta + a, so it is one lookup of the class's restriction to U in a
    table over (ordering of U, t-vertex mask): the weight a_i that
    `_typed_canon` gives the mask ordered as theta then a, scaled to an
    integer by the lcm of the denominators, and 0 where the type does not
    embed.  Per class, int64 sums (or Python ints, where int64 could
    overflow) collect the placements, the extension-set weights and, a
    batch of placements at a time, the weight products over ordered
    disjoint pairs of extension sets; each class gets one numerator over a
    common denominator.
    Larger targets are lifted through the chain rule, which is loss-free.
    """
    constant = Fraction(constant)
    t, weight = _term_layout(sigma, terms)
    s = sigma.n
    base = 2 * t - s
    if base > size:
        raise ValueError(
            f"expansion needs hosts of at least {base} vertices, target is {size}"
        )
    k = sigma.k
    scale = math.lcm(*(w.denominator for w in weight.values()))
    n1 = math.comb(base - s, t - s)  # extension sets per placement
    ints = {code: w.numerator * (scale // w.denominator) for code, w in weight.items()}
    top = max(map(abs, ints.values()), default=0) ** 2
    fits = top * n1 * math.perm(base, s) < 1 << 63  # else exact Python ints
    canon = _typed_canon(t, s, k)
    by_code = np.zeros(len(canon), dtype=np.int64 if fits else object)
    by_code[list(ints)] = list(ints.values())
    # the weight of every t-vertex mask under every relabeling; a flag code
    # keeps its type bits, so the weight is 0 where the type does not embed
    _, lo_tab, hi_tab = _perm_tables(t, k, 0)
    table = by_code[canon][hi_tab[:, :, None] | lo_tab[:, None, :]]  # (relabelings, masks)
    classes = enumerate_all(base, k)
    masks = np.array([g.edges for g in classes], dtype=np.int64)
    # placements: an s-subset isomorphic to the type gives it in |Aut| = s!/|orbit| orderings
    on_s = _ordered_masks(masks, base, k, itertools.combinations(range(base), s))
    iso = _typed_canon(s, 0, k) == _typed_canon(s, 0, k)[sigma.edges]
    placed = iso[on_s].sum(axis=1) * (math.factorial(s) // int(iso.sum()))
    subsets = list(itertools.combinations(range(base), t))
    rows = np.ascontiguousarray(_ordered_masks(masks, base, k, subsets).T)  # (subsets, classes)
    subset_of = {U: i for i, U in enumerate(subsets)}
    row_of = {q: i * len(canon) for i, q in enumerate(itertools.permutations(range(t)))}
    cols, offsets = [], []  # each placement theta = o[:s], then each extension set o[s:]
    for o in itertools.permutations(range(base), t):
        if list(o[s:]) == sorted(o[s:]):
            U = tuple(sorted(o))
            cols.append(subset_of[U])
            offsets.append(row_of[tuple(map(o.index, U))])  # relabels o[j] as j
    cols, offsets = np.array(cols), np.array(offsets)[:, None]
    single, pair = np.zeros((2, len(classes)), dtype=by_code.dtype)
    step = max(1, _GATHER_ENTRIES // (len(classes) * n1)) * n1
    for i in range(0, len(cols), step):
        w = np.take(table, rows[cols[i : i + step]] + offsets[i : i + step])
        w = w.reshape(-1, n1, len(classes))  # (placements, extension sets, classes)
        single += w.sum(axis=(0, 1))
        # a placement's extension sets run in lex order over its 2(t-s) free
        # vertices, so the one disjoint from the j-th is its complement, the (n1-1-j)-th
        pair += (w * w[:, ::-1]).sum(axis=(0, 1))
    # common denominator of pairs / (scale^2 n1), singles / (scale n1), c = cs/(cd scale)
    cs, cd = constant.numerator * scale, constant.denominator
    denom = scale * scale * n1 * n1 * cd * cd * math.perm(base, s)
    nums: dict[int, int] = {}
    for rep, p, one, two in zip(classes, placed.tolist(), single.tolist(), pair.tolist()):
        nums[rep.edges] = (two * n1 * cd - 2 * cs * one * n1) * cd + p * cs * cs * n1 * n1
    vec = ExpansionVector(k, base, nums, denom)
    return chain_lift(vec, size) if size > base else vec


def chain_lift(vec: ExpansionVector, size: int) -> ExpansionVector:
    """Re-express a coefficient vector over larger hosts: the new coefficient
    of H is the density-weighted sum of the old coefficients over the
    induced restrictions of H.  The vec.n-subset sub-masks of all classes
    are read off `_ordered_masks` and mapped through the untyped `_typed_canon` table,
    and the numerators are summed per class as Python ints over
    vec.den * C(size, vec.n)."""
    if not vec.n < size <= _LIFT_LIMIT:
        raise ValueError(f"chain_lift: need {vec.n} < size <= {_LIFT_LIMIT}")
    b, k = vec.n, vec.k
    classes = enumerate_all(size, k)
    masks = np.array([g.edges for g in classes], dtype=np.int64)
    sub_masks = _ordered_masks(masks, size, k, itertools.combinations(range(size), b))
    by_code = np.zeros(1 << math.comb(b, k), dtype=object)
    by_code[list(vec.nums)] = list(vec.nums.values())
    sums = by_code[_typed_canon(b, 0, k)][sub_masks].sum(axis=1)
    nums = dict(zip((rep.edges for rep in classes), sums.tolist()))
    return ExpansionVector(k, size, nums, vec.den * math.comb(size, b))
