"""Typed flags and exact finite-size density expansions.

A type sigma is a k-graph on s labelled vertices, and a flag of type sigma
is a k-graph on t >= s vertices whose first s vertices carry sigma: colex
order puts the k-subsets of {0..s-1} first, so the flag's low C(s, k) mask
bits equal sigma's mask.  An isomorphism of flags fixes the typed vertices
pointwise and only permutes the untyped ones s..t-1, so a flag's code is its
entry in `_typed_canon(t, s, k)` of `turankit.hypergraph`: an int64 array of
every t-vertex mask's minimum over those permutations.  At s = 0 that is the
untyped canonical code, which `hypergraph._canonical_codes` also reads up
to 5 vertices.

Products of flags sharing a type placement are evaluated over ordered pairs
of disjoint extension sets, so every expansion computed here is an exact
identity at its finite size, not an asymptotic one: averaging a square
expansion over a larger host through the chain rule reproduces the direct
evaluation on that host coefficient for coefficient.

`square_expansion` maps every ordering of every t-vertex mask through the
`_typed_canon` table into a weight table, and `chain_lift` maps the untyped
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
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hypergraph import (
    Hypergraph,
    _ordered_masks,
    _perm_tables,
    _typed_canon,
    enumerate_all,
    restriction_class_counts,
)

__all__ = [
    "ExpansionVector",
    "chain_lift",
    "square_expansion",
]

_LIFT_LIMIT = 6
# `square_expansion` reads its placement weights in batches of this many entries
_GATHER_ENTRIES = 1 << 16


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


def square_expansion(
    sigma: Hypergraph,
    terms: Sequence[tuple[Fraction, Hypergraph]],
    constant: Fraction,
    size: int,
) -> ExpansionVector:
    """Coefficients of the averaged square (sum a_i F_i - c sigma)^2 over
    the classes of size-vertex hosts, for terms (a_i, F_i) whose flags F_i
    all have t vertices and carry sigma on their first s.

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
    s, k = sigma.n, sigma.k
    sizes = {F.n for _, F in terms} or {s}
    if len(sizes) != 1:
        raise ValueError("square_expansion: flags must all have the same size")
    t = sizes.pop()
    if t < s:
        raise ValueError("square_expansion: a flag is smaller than its type")
    if any(F.k != k for _, F in terms):
        raise ValueError("square_expansion: flag and type uniformities differ")
    type_bits = (1 << math.comb(s, k)) - 1
    if any(F.edges & type_bits != sigma.edges for _, F in terms):
        raise ValueError("square_expansion: a flag does not carry the type on its first vertices")
    canon = _typed_canon(t, s, k)
    weight: dict[int, Fraction] = {}  # summed coefficient per flag code
    for a, F in terms:
        code = int(canon[F.edges])
        weight[code] = weight.get(code, Fraction(0)) + Fraction(a)
    base = 2 * t - s
    if base > size:
        raise ValueError(
            f"expansion needs hosts of at least {base} vertices, target is {size}"
        )
    scale = math.lcm(*(w.denominator for w in weight.values()))
    n1 = math.comb(base - s, t - s)  # extension sets per placement
    ints = {code: w.numerator * (scale // w.denominator) for code, w in weight.items()}
    top = max(map(abs, ints.values()), default=0) ** 2
    fits = top * n1 * math.perm(base, s) < 1 << 63  # else exact Python ints
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
    subsets, cols, perms = _placements(base, t, s)
    rows = np.ascontiguousarray(_ordered_masks(masks, base, k, subsets).T)  # (subsets, classes)
    offsets = (perms * len(canon))[:, None]
    single, pair = np.zeros((2, len(classes)), dtype=by_code.dtype)
    step = max(1, _GATHER_ENTRIES // (len(classes) * n1)) * n1
    # a placement's extension sets run in lex order over its 2(t-s) free vertices, so the one
    # disjoint from the j-th is the (n1-1-j)-th; n1 = C(2(t-s), t-s) is even past n1 = 1, so
    # each pair is summed once and doubled, but the one set of n1 = 1 pairs with itself
    half, twice = (n1 // 2, 2) if n1 > 1 else (1, 1)
    for i in range(0, len(cols), step):
        w = np.take(table, rows[cols[i : i + step]] + offsets[i : i + step])
        w = w.reshape(-1, n1, len(classes))  # (placements, extension sets, classes)
        single += w.sum(axis=(0, 1))
        pair += twice * (w[:, :half] * w[:, ::-1][:, :half]).sum(axis=(0, 1))
    # common denominator of pairs / (scale^2 n1), singles / (scale n1), c = cs/(cd scale)
    cs, cd = constant.numerator * scale, constant.denominator
    denom = scale * scale * n1 * n1 * cd * cd * math.perm(base, s)
    nums: dict[int, int] = {}
    for rep, p, one, two in zip(classes, placed.tolist(), single.tolist(), pair.tolist()):
        nums[rep.edges] = (two * n1 * cd - 2 * cs * one * n1) * cd + p * cs * cs * n1 * n1
    vec = ExpansionVector(k, base, nums, denom)
    return chain_lift(vec, size) if size > base else vec


@lru_cache(maxsize=None)
def _placements(base: int, t: int, s: int):
    """The t-subsets of {0..base-1}; per ordered t-tuple o (a type on o[:s], then an
    extension set o[s:], increasing) the index of its subset and of the relabeling o[j] -> j."""
    subsets = tuple(itertools.combinations(range(base), t))
    subset_of = {U: i for i, U in enumerate(subsets)}
    perm_of = {q: i for i, q in enumerate(itertools.permutations(range(t)))}
    placed = [o for o in itertools.permutations(range(base), t) if list(o[s:]) == sorted(o[s:])]
    cols = np.array([subset_of[tuple(sorted(o))] for o in placed])
    return subsets, cols, np.array([perm_of[tuple(map(o.index, sorted(o)))] for o in placed])


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
