"""Typed flags and exact finite-size density expansions.

A type sigma is a k-graph on s labelled vertices, and a flag of type sigma
is a k-graph on t >= s vertices whose first s vertices carry sigma: colex
order puts the k-subsets of {0..s-1} first, so the flag's low C(s, k) mask
bits equal sigma's mask.  An isomorphism of flags fixes the typed vertices
pointwise and only permutes the untyped ones s..t-1, so a flag's code is its
entry in `_typed_canon(t, s, k)` of `turankit.hypergraph`: an int64 array of
every t-vertex mask's minimum over those permutations.  At s = 0 that is the
untyped canonical code, which `hypergraph._canonical_codes` also reads for
masks of up to 10 bits.

Products of flags sharing a type placement are evaluated over ordered pairs
of disjoint extension sets, so every expansion computed here is an exact
identity at its finite size, not an asymptotic one: averaging a square
expansion over a larger host through the chain rule reproduces the direct
evaluation on that host coefficient for coefficient.  The sigma-flags of
one size t sum to sigma, since each extension set of a placement spans
exactly one of them, so a constant c sigma in a square is the weight c on
every sigma-flag.

`square_expansion` sums each square's pair term over the s! orders of a
type subset in one read of a Gram table, the inner products of the rows of
a weight table over (t-vertex mask, order of its first s vertices): the
moment-matrix entry of two extension sets.  `chain_lift` maps the untyped
sub-masks of all classes of any larger size through the `_typed_canon`
table.  Both read the sub-masks of the class-code record's array
(`hypergraph._class_codes`) off `hypergraph._ordered_masks` and key the
numerators on its list of ints.  Counts per class are int64 where no sum
can overflow it, and numerators integers over one denominator, which the
lift keeps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import _NAMES
from .hypergraph import (
    Hypergraph,
    _class_codes,
    _ordered_masks,
    _typed_canon,
    restriction_class_counts,
)

__all__ = _NAMES["flags"].split()


class ExpansionVector(
    NamedTuple("ExpansionVector", [("k", int), ("n", int), ("nums", dict), ("den", int)])
):
    """Coefficients of an averaged flag expression over the isomorphism
    classes of n-vertex hosts: nums[code] / den per canonical mask, with
    integer numerators over one positive denominator (missing key = 0)."""

    __slots__ = ()

    def __new__(cls, k: int, n: int, nums: dict[int, int], den: int):
        if type(den) is not int or den <= 0:
            raise ValueError("ExpansionVector: den must be a positive int")
        if not set(map(type, nums.values())) <= {int}:
            raise ValueError("ExpansionVector: numerators must be ints")
        return super().__new__(cls, k, n, nums, den)

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
    2t - s vertices at once (flag size t, type size s).  The constant is
    folded into the flags: c sigma is -c on every sigma-flag, so the weight
    of a placement theta and an extension set a is a_i - c for the flag
    F_i that `_typed_canon` gives the t-vertex sub-mask ordered as theta
    then a (-c for a sigma-flag in no term), scaled to an integer by the
    lcm of the denominators, and 0 where the type does not embed.  The
    square is then its pair term alone.  The Gram table gram[b, a, tau]
    sums over the s! orders of the type bits tau the weight products of
    tau | a << C(s,k) and tau | b << C(s,k), so per class the pair term
    over ordered disjoint extension sets is one Gram entry per type subset
    T and split {A, B} of the other vertices (`_extension_pairs`), keyed by
    the sub-masks on T + A and T + B.  Sums are int64, or Python ints where
    int64 could overflow, and each class gets one numerator over
    scale^2 n1 P(2t - s, s), for n1 extension sets per placement.
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
    base = 2 * t - s
    if base > size:
        raise ValueError(
            f"expansion needs hosts of at least {base} vertices, target is {size}"
        )
    masks, codes = _class_codes(base, k)  # within its guards before any table is built
    canon = _typed_canon(t, s, k)
    # -c on every sigma-flag: the codes of the masks whose low C(s,k) bits are sigma's
    weight = dict.fromkeys(set(canon[sigma.edges :: type_bits + 1].tolist()), -constant)
    for a, F in terms:
        weight[int(canon[F.edges])] += Fraction(a)
    scale = math.lcm(*(w.denominator for w in weight.values()))
    n1 = math.comb(base - s, t - s)  # extension sets per placement
    ints = {code: w.numerator * (scale // w.denominator) for code, w in weight.items()}
    top = max(map(abs, ints.values())) ** 2
    fits = top * n1 * math.perm(base, s) < 1 << 63  # else exact Python ints
    by_code = np.zeros(len(canon), dtype=np.int64 if fits else object)
    by_code[list(ints)] = list(ints.values())
    # the weight of every t-vertex mask with its first s vertices in each of their s! orders;
    # a flag code keeps its type bits, so it is 0 where the type does not embed
    orders = [(*p, *range(s, t)) for p in itertools.permutations(range(s))]
    table = by_code[canon[_ordered_masks(np.arange(len(canon)), t, k, orders)]]
    # gram[b, a, tau], in integer matmuls over the type bits tau, read flat at
    # b << C(t,k) | a << C(s,k) | tau; only the tau that sigma's relabelings reach are nonzero
    low, high = math.comb(s, k), math.comb(t, k)
    iso = _typed_canon(s, 0, k) == _typed_canon(s, 0, k)[sigma.edges]
    rows = table.reshape(1 << (high - low), 1 << low, len(orders)).transpose(1, 0, 2)[iso]
    gram = np.zeros((1 << (high - low), 1 << (high - low), 1 << low), dtype=by_code.dtype)
    gram[..., iso] = np.matmul(rows, rows.transpose(0, 2, 1)).transpose(1, 2, 0)
    # each t-subset's sub-mask per class, and the relabelings of a t-vertex mask that put
    # an s-subset P first: a placement in a t-set is one of them, then an order of P
    on_t = _ordered_masks(masks, base, k, itertools.combinations(range(base), t))
    firsts = [(*P, *sorted({*range(t)} - {*P})) for P in itertools.combinations(range(t), s)]
    relabel = _ordered_masks(np.arange(len(canon)), t, k, firsts)
    on_t, relabel = (np.ascontiguousarray(a.T, dtype=np.intp) for a in (on_t, relabel))
    # the Gram key of T + A and T + B from their t-subsets' sub-masks, T put first, one
    # pass per split (arrays of one entry per class); ordered pairs of extension sets
    # count each split twice, but the one set of n1 = 1 pairs with itself
    shifted = (relabel >> low) << high
    pair = np.zeros(len(codes), dtype=gram.dtype)
    for (u, p), (v, q) in _extension_pairs(base, t, s):
        pair += gram.take(relabel[p].take(on_t[u]) | shifted[q].take(on_t[v]))
    pair *= 2 if n1 > 1 else 1
    nums = dict(zip(codes, pair.tolist()))
    vec = ExpansionVector(k, base, nums, scale * scale * n1 * math.perm(base, s))
    return chain_lift(vec, size) if size > base else vec


@lru_cache(maxsize=None)
def _extension_pairs(base: int, t: int, s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per sorted s-subset T of {0..base-1}, base = 2t - s, and split of the other
    vertices into A, holding the least of them, and B: for T + A and for T + B, the
    index of the vertex set among the t-subsets and that of T's positions in it among
    the s-subsets of range(t).  C(base, s) * max(1, C(2(t-s), t-s) / 2) pairs."""
    subset_of = {U: i for i, U in enumerate(itertools.combinations(range(base), t))}
    first_of = {P: i for i, P in enumerate(itertools.combinations(range(t), s))}
    pairs = []
    for T in itertools.combinations(range(base), s):
        free = [v for v in range(base) if v not in T]
        for rest in itertools.combinations(free[1:], max(0, t - s - 1)):
            A = {*free[:1], *rest}  # empty at t = s, where the one split is ({}, {})
            sets = (sorted({*T, *A}), sorted(set(range(base)) - A))  # T + A, T + B
            pairs.append(tuple((subset_of[(*U,)], first_of[(*map(U.index, T),)]) for U in sets))
    return tuple(pairs)


def chain_lift(vec: ExpansionVector, size: int) -> ExpansionVector:
    """Re-express a coefficient vector over larger hosts: the new coefficient
    of H is the density-weighted sum of the old coefficients over the
    induced restrictions of H.  The vec.n-subset sub-masks of all classes
    are read off `_ordered_masks` and mapped through the untyped `_typed_canon` table,
    and the numerators are summed per class over vec.den * C(size, vec.n), in int64
    where no sum can overflow it and as Python ints otherwise.  The lift must
    grow the vector, and sizes past the enumeration guards are refused."""
    if size <= vec.n:
        raise ValueError(f"chain_lift: need size > {vec.n}, got {size}")
    b, k = vec.n, vec.k
    masks, codes = _class_codes(size, k)
    sub_masks = _ordered_masks(masks, size, k, itertools.combinations(range(size), b))
    fits = max(map(abs, vec.nums.values()), default=0) * math.comb(size, b) < 1 << 63
    by_code = np.zeros(1 << math.comb(b, k), dtype=np.int64 if fits else object)
    by_code[list(vec.nums)] = list(vec.nums.values())
    sums = by_code[_typed_canon(b, 0, k)][sub_masks].sum(axis=1)
    nums = dict(zip(codes, sums.tolist()))
    return ExpansionVector(k, size, nums, vec.den * math.comb(size, b))
