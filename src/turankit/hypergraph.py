"""Small k-uniform hypergraphs as colex-ordered edge bitmasks.

A k-graph on n <= 8 labeled vertices is stored as a single integer: bit i is
set exactly when the i-th k-subset of {0, ..., n-1} in colexicographic order
is an edge.  The canonical form of a graph is the integer-minimal mask over
all vertex relabelings, so isomorphism classes, cache files and report
orderings all share one stable total order.

Enumeration extends classes one vertex at a time.  Every n-vertex class has
a member whose restriction to {0..n-2} is a canonical (n-1)-vertex
representative, and the k-subsets containing vertex n-1 follow all others
in colex order, so the candidates are each representative OR'd with a link
of vertex n-1 shifted above it, one link per orbit of the representative's
automorphisms (McKay, 1998): at (6,3) 10,688 candidates, not 34 x 1024 or
the 2^20 labeled masks.  Only those in which vertex n-1 has a least link
code are canonicalized, 2,352 of them at (6,3): link codes do not change
under relabeling, and a class relabeled so that a vertex of least link
code comes last and the rest is its canonical parent is one of the kept
candidates.  `_orbit_minima` splits every relabeling into the vertex v it
places last and a relabeling of the other n-1, reading (n-1)-vertex tables
only.  v's link lands above all other edges, so only the vertices whose
link has the least code, through the relabelings that carry it to that
code, can reach the minimum: a (6,3) mask reads about 6 images instead of
720.  `_vertex_last(n, k, fixed)` is the one record that it and the
enumeration `_all_classes` read: the vertex-last orders, the relabeling
tables of the rest, every link's image under each relabeling, and each
link's least image and the coset carrying it there.
`_typed_canon(t, s, k)` builds the classification table with it, each
ordered t-vertex mask's minimum over the relabelings that fix the first s
vertices, which `turankit.flags` reads for typed flags.

`_all_classes(n, k)`, the class-code record, holds every class's code as a
read-only int64 array and as one list of Python ints, which every per-class
dict keys on; only `enumerate_all` builds `Hypergraph`s from it.
`_canonical_codes` canonicalizes a batch of masks for `canonical_mask`,
`restriction_class_counts` and `read_hgr` in three tiers by bit count, the
one rule every route here follows: up to C(n,k) = 10 it reads a list copy
of the untyped table `_typed_canon(n, 0, k)`; within the 20-bit guard of
`_check_bits` it takes `_orbit_minima` of the batch, at any n up to 8; past
the guard it scans every relabeling and ranks each image edge through a
colex index.

`tuple_bits` gives, for an ordered vertex tuple, the host bit position of
each of its colex k-subsets, uncached.  `_order_tables(n, k, orders)` builds
the bulk mask tables in numpy: for vertex tuples of one length, the half
tables that map the low and the high half of a mask to its sub-mask on each
tuple, so one builder serves relabelings (orders of all n vertices),
restrictions and lifts.  `_ordered_masks` reads the sub-mask of every mask
of an array on every tuple from them, for `turankit.flags`, which works on
all classes or all masks, and for the vertex-last masks of `_orbit_minima`.

One host is read through Python ints at every n <= 8: a per-host record is
`_row_tables` of one row per host bit, what that bit adds to every field of
the answer side by side, so a read is one lookup per byte of the mask, 9 at
(8,4).  `_restriction_record(n, k, size)` lays out the sub-masks of the
size-subsets for `restriction_class_counts`.  Complete sets are found
without canonical forms: a subset is complete exactly when no non-edge of
the host meets its k-subset mask.  `_meet_record(n, k)` lays out the bitmap
of the m-subsets a mask meets for every m: the complete m-sets are the
m-field that one read of the non-edges leaves unset, and `has_no_empty_set`
asks whether the complement has no complete size-set.
`_subset_masks(n, m, k)` is the one record of the m-subsets: each one's
k-subset mask and the bitmap of its one-vertex supersets.  Each entry point
range-checks its own subset size under its own name.  `_complete_sets`
keeps, for the last few hosts, the bitmap of complete m-sets for every m;
`clique_counts` returns their popcounts, and with the superset bitmaps the
complete one-vertex extensions of a set are one AND and one popcount.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _NAMES

__all__ = _NAMES["hypergraph"].split()

MAX_VERTICES = 8
# canonical codes of masks of at most this many bits are one read of a 2^bits table
_CANON_TABLE_BITS = 10
_MAX_ENUM_BITS = 20
# `_orbit_minima` reads at most this many images at a time (or one mask's
# images, if more), bounding its transients
_ORBIT_READS = 1 << 14
# clique_counts remembers this many hosts: the relation checks on one host
# reuse its counts, and a long run over many hosts does not grow.
_CLIQUE_CACHE_HOSTS = 8

HGR_MAGIC = "HGR1"


@lru_cache(maxsize=None)
def colex_subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {0..n-1} in colexicographic order (largest element
    decides first)."""
    if n < 0 or k < 0:
        raise ValueError("colex_subsets: need n, k >= 0")
    return tuple(sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1]))


def subset_rank(subset: Iterable[int]) -> int:
    """Colex rank of a subset: sum of C(v_i, i+1) over the sorted elements."""
    return sum(math.comb(v, i + 1) for i, v in enumerate(sorted(subset)))


def tuple_bits(k: int, vertices: tuple[int, ...]) -> tuple[int, ...]:
    """Host bit position of each colex k-subset of the ordered tuple
    `vertices`: entry i is the rank of {vertices[j] : j in the i-th k-subset
    of range(len(vertices))}."""
    return tuple(
        subset_rank(vertices[j] for j in sub) for sub in colex_subsets(len(vertices), k)
    )


def _gather(edges: int, bits: tuple[int, ...]) -> int:
    """Mask whose bit i is bit bits[i] of edges."""
    mask = 0
    for b in reversed(bits):
        mask = (mask << 1) | ((edges >> b) & 1)
    return mask


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-graph on labeled vertices {0..n-1}; edges is the colex
    bitmask."""

    n: int
    k: int
    edges: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"Hypergraph: need 0 <= n <= {MAX_VERTICES}, got n={self.n}")
        if self.k < 1:
            raise ValueError(f"Hypergraph: need k >= 1, got k={self.k}")
        if not 0 <= self.edges < (1 << self.nbits):
            raise ValueError("Hypergraph: edge mask out of range for (n, k)")

    @property
    def nbits(self) -> int:
        return math.comb(self.n, self.k)

    @classmethod
    def empty(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, 0)

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, (1 << math.comb(n, k)) - 1)

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        mask = 0
        for e in edges:
            e = tuple(sorted(e))
            if len(e) != k or len(set(e)) != k or not all(0 <= v < n for v in e):
                raise ValueError(f"from_edges: {e} is not a k-subset of the vertex set")
            mask |= 1 << subset_rank(e)
        return cls(n, k, mask)

    def edge_list(self) -> tuple[tuple[int, ...], ...]:
        subs = colex_subsets(self.n, self.k)
        return tuple(subs[i] for i in range(self.nbits) if (self.edges >> i) & 1)

    def restrict(self, verts: Iterable[int]) -> "Hypergraph":
        """Induced subgraph on the distinct vertices `verts`, relabeled to
        0..len-1 in sorted order."""
        verts = tuple(sorted(verts))
        if len({*verts}) < len(verts) or (verts and not 0 <= verts[0] <= verts[-1] < self.n):
            raise ValueError(f"restrict: {verts} is not a vertex set of a {self.n}-vertex graph")
        return Hypergraph(len(verts), self.k, _gather(self.edges, tuple_bits(self.k, verts)))


def disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """Disjoint union with b's vertices shifted above a's.  Colex ranks do
    not depend on n, so a's mask carries over and only b's edges are ranked."""
    if a.k != b.k:
        raise ValueError("disjoint_union: uniformities differ")
    mask = a.edges
    for e in b.edge_list():
        mask |= 1 << subset_rank(v + a.n for v in e)
    return Hypergraph(a.n + b.n, a.k, mask)


@lru_cache(maxsize=None)
def _order_tables(n: int, k: int, orders: tuple[tuple[int, ...], ...]):
    """Lookup tables of the sub-mask of each ordered tuple o in orders, all
    of one length, for masks on n vertices: host bit `tuple_bits(k, o)[i]`
    goes to bit i, read off one colex rank table of vertex bitmaps, and
    every other bit is dropped.  Returns split = ceil(C(n,k) / 2) and, per
    order, the table of the low split bits and of the high bits of a mask,
    each built by doubling: the entries with bit b set are those below 2^b
    OR'd with b's image.  int16 when the sub-masks have at most 15 bits, as
    on 5 or fewer vertices, and int32 otherwise (20 bits within the guard)."""
    nbits = math.comb(n, k)
    subsets = np.array(colex_subsets(n, k), dtype=np.int64).reshape(nbits, k)
    rank = np.zeros(1 << n, dtype=np.int64)
    rank[(1 << subsets).sum(axis=1)] = np.arange(nbits)
    o = np.array(orders, dtype=np.int64).reshape(len(orders), -1)
    width = math.comb(o.shape[1], k)
    img = np.zeros((len(o), nbits), dtype=np.int16 if width <= 15 else np.int32)
    # the first `width` colex k-subsets are those of a tuple's positions
    bits = rank[(1 << o[:, subsets[:width]]).sum(axis=2)]
    img[np.arange(len(o))[:, None], bits] = 1 << np.arange(width)
    split, tabs = (nbits + 1) // 2, []
    for half in (img[:, :split], img[:, split:]):
        tab = np.zeros((len(o), 1 << half.shape[1]), dtype=img.dtype)
        for b in range(half.shape[1]):
            np.bitwise_or(tab[:, : 1 << b], half[:, b, None], out=tab[:, 1 << b : 2 << b])
        tabs.append(tab)
    return split, *tabs


def _ordered_masks(masks: np.ndarray, n: int, k: int, orders) -> np.ndarray:
    """Sub-mask of each mask on n vertices on each ordered tuple o in
    orders, all of one length, as `_gather` with `tuple_bits(k, o)` reads
    it, with shape masks.shape + (len(orders),): two lookups into the
    `_order_tables` row of o."""
    orders = tuple(orders)
    split, lo_tab, hi_tab = _order_tables(n, k, orders)
    rows = np.arange(len(orders))
    lo = rows * lo_tab.shape[1] + (masks[..., None] & ((1 << split) - 1))
    hi = rows * hi_tab.shape[1] + (masks[..., None] >> split)
    return np.take(lo_tab, lo) | np.take(hi_tab, hi)  # flat reads beat two-axis indexing


@lru_cache(maxsize=None)
def _vertex_last(n: int, k: int, fixed: int):
    """What `_orbit_minima` and `_all_classes` read on n vertices, fixing
    0..fixed-1 (fixed < n): one order per vertex v >= fixed, v placed last
    after the others in order; the `_order_tables` (split, lo, hi) of the
    relabelings of the other n-1 vertices that fix 0..fixed-1, on the rest,
    a k-graph; every link L's image under each relabeling, images[row, L],
    the links being (n-1)-vertex (k-1)-graphs; and per link its least image
    code[L] and the rows carrying L there, rows[start[L] : start[L] +
    count[L]], a coset of the stabilizer of code[L]."""
    orders = tuple((*range(v), *range(v + 1, n), v) for v in range(fixed, n))
    perms = tuple((*range(fixed), *p) for p in itertools.permutations(range(fixed, n - 1)))
    rest = _order_tables(n - 1, k, perms)
    _, link_lo, link_hi = _order_tables(n - 1, k - 1, perms)
    # every link's image under every row, built as one array: L = hi << split | lo
    images = (link_hi[:, :, None] | link_lo[:, None, :]).reshape(len(perms), -1)
    code = images.min(axis=0).astype(np.int64)  # int64: `_orbit_minima` shifts it up
    owner, rows = np.nonzero((images == code).T)
    count = np.bincount(owner, minlength=images.shape[1])
    return orders, rest, images, code, rows, np.cumsum(count) - count, count


def _orbit_minima(
    masks: np.ndarray, n: int, k: int, fixed: int = 0, stabilizers: bool = False
):
    """Minimum of each mask in a 1-d array over the relabelings that fix
    0..fixed-1.  Each of them places some vertex v >= fixed last and then
    relabels the other n-1 vertices, fixing 0..fixed-1.  With v moved last
    and the others kept in order (`_ordered_masks`), the low C(n-1,k) bits of
    a mask, the rest, are an (n-1)-vertex k-graph and the bits above are v's
    link, an (n-1)-vertex (k-1)-graph, and one relabeling of the other n-1
    moves both (`_vertex_last`).  The link bits dominate, so only the
    vertices whose link has the least code C, and only the rows that carry
    that link to C, can reach the minimum: the rests are read there alone.
    With stabilizers, also the count of relabelings reaching each minimum."""
    if fixed >= n:
        return (masks.copy(), np.ones_like(masks)) if stabilizers else masks.copy()
    low = math.comb(n - 1, k)
    orders, (split, lo_tab, hi_tab), _, code, rows, start, count = _vertex_last(n, k, fixed)
    out = np.empty(len(masks), dtype=np.int64)
    stab = np.empty(len(masks), dtype=np.int64)
    for at in range(0, len(masks), _ORBIT_READS):  # a mask reads at least one image
        last = _ordered_masks(masks[at : at + _ORBIT_READS], n, k, orders)
        link_code = code[last >> low]
        best = link_code.min(axis=1)
        hit = link_code == best[:, None]
        # chunks of whole masks, cut as the images read pass multiples of the budget
        through = np.cumsum((count[last >> low] * hit).sum(axis=1))
        steps = range(_ORBIT_READS, through[-1], _ORBIT_READS)
        cuts = sorted({0, len(last), *np.searchsorted(through, steps, side="right").tolist()})
        for lo, hi in zip(cuts, cuts[1:]):
            picked = last[lo:hi][hit[lo:hi]]  # row-major: each mask's picks are contiguous
            link = picked >> low
            reads = count[link]
            ends = np.cumsum(reads)
            firsts = ends - reads  # where each pick's images start
            row = rows[np.repeat(start[link] - firsts, reads) + np.arange(ends[-1])]
            rest = np.repeat(picked & ((1 << low) - 1), reads)
            image = lo_tab[row, rest & ((1 << split) - 1)] | hi_tab[row, rest >> split]
            picks = hit[lo:hi].sum(axis=1)
            heads = firsts[np.cumsum(picks) - picks]  # where each mask's images start
            least = np.minimum.reduceat(image, heads)
            out[at + lo : at + hi] = least | best[lo:hi] << low
            if stabilizers:
                ties = image == np.repeat(least, np.diff(heads, append=len(image)))
                stab[at + lo : at + hi] = np.add.reduceat(ties, heads, dtype=np.int64)
    return (out, stab) if stabilizers else out


def _check_bits(caller: str, n: int, k: int, where: str = "") -> None:
    """Refuse k < 1, n < 0, mask tables over more than 2^_MAX_ENUM_BITS
    entries, or over more than MAX_VERTICES vertices (n! relabelings), before
    any of them is allocated; `where` ends each message (" in PATH")."""
    if k < 1 or n < 0:
        raise ValueError(f"{caller}: need k >= 1 and n >= 0, got k={k}, n={n}{where}")
    if n > MAX_VERTICES:  # first: C(n, k) of a huge n is slow to compute and to print
        raise ValueError(f"{caller}: n = {n} exceeds the {MAX_VERTICES}-vertex guard{where}")
    nbits = math.comb(n, k)
    if nbits > _MAX_ENUM_BITS:
        raise ValueError(
            f"{caller}: C({n},{k}) = {nbits} exceeds the {_MAX_ENUM_BITS}-bit guard{where}"
        )


@lru_cache(maxsize=None)
def _typed_canon(t: int, s: int, k: int) -> np.ndarray:
    """Canonical typed code of every ordered t-vertex mask, as an int64 array:
    the minimum of its relabelings that fix positions 0..s-1 and permute
    s..t-1.  At s = 0 the entry is the mask's untyped canonical code."""
    _check_bits("_typed_canon", t, k)
    return _orbit_minima(np.arange(1 << math.comb(t, k), dtype=np.int64), t, k, s)


@lru_cache(maxsize=None)
def _canon_list(n: int, k: int) -> list[int]:
    """`_typed_canon(n, 0, k)` as a Python list.  Read-only."""
    return _typed_canon(n, 0, k).tolist()


def _canonical_codes(masks: list[int], n: int, k: int) -> list[int]:
    """Canonical mask of each k-graph edge mask on n vertices, as Python
    ints, in three tiers by C(n, k): up to _CANON_TABLE_BITS bits a read of a
    list copy of the untyped `_typed_canon` table that `turankit.flags`
    classifies with, within the 20-bit guard `_orbit_minima` of the batch,
    past it a direct scan over all relabelings (an 8-vertex 4-graph mask has
    70 bits, past int64).  The scan is the only route for `canonical_mask` on
    hosts past the guard and for `restriction_class_counts` at such sizes."""
    nbits = math.comb(n, k)
    if nbits <= _CANON_TABLE_BITS:
        codes = _canon_list(n, k)
        return [codes[m] for m in masks]
    if nbits <= _MAX_ENUM_BITS:
        return _orbit_minima(np.array(masks, dtype=np.int64), n, k).tolist()
    index = {sum(1 << v for v in e): rank for rank, e in enumerate(colex_subsets(n, k))}
    codes = []
    for m in masks:
        edges, perms = Hypergraph(n, k, int(m)).edge_list(), itertools.permutations(range(n))
        codes.append(min(sum(1 << index[sum(1 << p[v] for v in e)] for e in edges) for p in perms))
    return codes


def canonical_mask(G: Hypergraph) -> int:
    """Minimum edge mask over all vertex relabelings of G."""
    if G.edges in (0, (1 << G.nbits) - 1):
        return G.edges
    return _canonical_codes([G.edges], G.n, G.k)[0]


@lru_cache(maxsize=None)
def _all_classes(n: int, k: int) -> tuple[np.ndarray, list[int]]:
    """The class-code record: one canonical code per isomorphism class,
    ascending, as a read-only int64 array and a (read-only) list of the same
    Python ints.  Extends each (n-1)-vertex representative by one link of
    vertex n-1 per orbit of its automorphism group, the relabelings of
    {0..n-2} that fix it, keeps the candidates in which no vertex has a
    smaller link code than n-1, and takes the orbit minima of those at
    once.  Every class survives: a relabeling of it that puts a vertex of
    least link code last and its canonical parent on {0..n-2} is a kept
    candidate, as link codes do not change under relabeling.  At (6,3),
    2,352 of the 10,688 candidates are canonicalized.  The relabelings, link
    images and link codes are those of `_vertex_last(n, k, 0)`."""
    if math.comb(n, k) == 0:
        codes = np.zeros(1, dtype=np.int64)
    else:
        low = math.comb(n - 1, k)
        orders, (split, lo_tab, hi_tab), images, code, *_ = _vertex_last(n, k, 0)
        links = np.arange(images.shape[1], dtype=np.int64)
        cands = []
        for m in _all_classes(n - 1, k)[1]:
            aut = (lo_tab[:, m & ((1 << split) - 1)] | hi_tab[:, m >> split]) == m
            kept = links[images[aut].min(axis=0) == links]
            cands.append(m | kept << low)
        cands = np.concatenate(cands)
        link_code = code[_ordered_masks(cands, n, k, orders) >> low]
        cands = cands[link_code[:, -1] == link_code.min(axis=1)]
        codes = np.sort(_orbit_minima(cands, n, k))
        # np.unique would import numpy.ma on its first call
        codes = codes[np.diff(codes, prepend=-1) != 0]
    codes.flags.writeable = False
    return codes, codes.tolist()


def _class_codes(n: int, k: int, no_empty: Optional[int] = None) -> tuple[np.ndarray, list[int]]:
    """The `_all_classes` record within the guards of `enumerate_all`; with
    no_empty = s, its classes in which every s-subset spans an edge."""
    _check_bits("enumerate_all", n, k)
    if no_empty is not None and not 0 <= no_empty <= n:
        raise ValueError(f"enumerate_all: need 0 <= size <= n, got size={no_empty}, n={n}")
    codes, ints = _all_classes(n, k)
    if no_empty is None:
        return codes, ints
    keep = _spans_every(codes, n, k, no_empty)
    return codes[keep], list(itertools.compress(ints, keep.tolist()))


def enumerate_all(n: int, k: int) -> tuple[Hypergraph, ...]:
    """All isomorphism classes of k-graphs on n vertices, canonically ordered.

    Each representative's own edge mask is its canonical code.  Guarded to
    C(n,k) <= 20 and n <= MAX_VERTICES.
    """
    return tuple(Hypergraph(n, k, m) for m in _class_codes(n, k)[1])


def restriction_class_counts(G: Hypergraph, size: int) -> dict[int, int]:
    """Counts of canonical masks over all induced size-subsets of G: every
    subset's sub-mask is a field of one `_restriction_record` read, then all
    are canonicalized."""
    if not 0 <= size <= G.n:
        raise ValueError(
            f"restriction_class_counts: need 0 <= size <= n, got size={size}, n={G.n}"
        )
    tables, shifts, field = _restriction_record(G.n, G.k, size)
    packed = _read_rows(tables, G.edges)
    sub_masks = [packed >> at & field for at in shifts]
    return dict(Counter(_canonical_codes(sub_masks, size, G.k)))


@lru_cache(maxsize=None)
def _restriction_record(n: int, k: int, size: int):
    """`_row_tables` of the sub-masks of a host on n vertices on its
    size-subsets, in combinations order, side by side; with each field's
    shift and the all-ones field."""
    width = math.comb(size, k)
    subsets = enumerate(itertools.combinations(range(n), size))
    pairs = ((b, j * width + i) for j, S in subsets for i, b in enumerate(tuple_bits(k, S)))
    shifts = tuple(j * width for j in range(math.comb(n, size)))
    return _row_tables(n, k, pairs), shifts, (1 << width) - 1


def induced_density(F: Hypergraph, G: Hypergraph) -> Fraction:
    """Density of F among the |F|-subsets of G: the share of subsets whose
    induced subgraph is isomorphic to F."""
    if F.k != G.k:
        raise ValueError("induced_density: uniformities differ")
    if F.n > G.n:
        raise ValueError("induced_density: F has more vertices than G")
    hits = restriction_class_counts(G, F.n).get(canonical_mask(F), 0)
    return Fraction(hits, math.comb(G.n, F.n))


def clique_counts(G: Hypergraph) -> tuple[int, ...]:
    """Entry m (m = 0..n) is the number of complete m-sets of G: the
    m-subsets S whose k-subset mask M_S satisfies edges & M_S == M_S.  For
    m < k every mask is empty, so the entry is C(n, m)."""
    return _complete_sets(G.n, G.k, G.edges)[0]


@lru_cache(maxsize=_CLIQUE_CACHE_HOSTS)  # keyed on ints: a Hypergraph hashes slowly
def _complete_sets(n: int, k: int, edges: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A host's clique counts and, for every m, the bitmap of its complete
    m-sets: bit i for the i-th m-subset in `itertools.combinations` order.
    An m-set is complete when its k-subset mask meets none of the non-edges,
    so the bitmap is the m-field of what one `_meet_record` read of the
    non-edges leaves unset."""
    tables, fields = _meet_record(n, k)
    free = ~_read_rows(tables, edges ^ ((1 << math.comb(n, k)) - 1))
    sets = tuple(free >> at & full for at, full in fields)
    return tuple(map(int.bit_count, sets)), sets


@lru_cache(maxsize=None)
def _subset_masks(n: int, size: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For the size-subsets S of {0..n-1}, in combinations order: the mask of
    the k-subset bits inside S, and the bitmap of S's one-vertex supersets,
    bit j for the j-th (size+1)-subset."""
    subsets = tuple(itertools.combinations(range(n), size))
    index = {T: j for j, T in enumerate(itertools.combinations(range(n), size + 1))}
    masks = tuple(sum(1 << b for b in tuple_bits(k, S)) for S in subsets)
    ups = tuple(
        sum(1 << index[tuple(sorted((*S, v)))] for v in range(n) if v not in S) for S in subsets
    )
    return masks, ups


@lru_cache(maxsize=None)
def _meet_record(n: int, k: int):
    """`_row_tables` of the bitmap of the subsets of {0..n-1} a mask on n
    vertices meets, the m-subsets in combinations order for each m = 0..n
    side by side; with each m-field's shift and its all-ones mask."""
    subsets = itertools.chain(*(itertools.combinations(range(n), m) for m in range(n + 1)))
    tables = _row_tables(n, k, ((b, j) for j, S in enumerate(subsets) for b in tuple_bits(k, S)))
    starts = itertools.accumulate((math.comb(n, m) for m in range(n)), initial=0)
    return tables, tuple((at, (1 << math.comb(n, m)) - 1) for m, at in enumerate(starts))


def _row_tables(n: int, k: int, pairs) -> tuple[list[int], ...]:
    """Per byte of a mask on n vertices, the OR of the rows of its set bits
    for each of the byte's values (2^8, or fewer for a short last byte), as
    one Python list per byte; row b sets bit j for each (b, j) in pairs.
    Each table doubles: the entries with bit b set are those below 2^b OR'd
    with row b."""
    rows = [0] * math.comb(n, k)
    for b, j in pairs:
        rows[b] |= 1 << j
    tables = []
    for at in range(0, len(rows), 8):
        tab = [0]
        for row in rows[at : at + 8]:
            tab += [t | row for t in tab]
        tables.append(tab)
    return tuple(tables)


def _read_rows(tables, mask: int) -> int:
    """OR of the rows of mask's set bits: one `_row_tables` lookup per byte."""
    out = 0
    for tab in tables:
        out |= tab[mask & 255]
        mask >>= 8
    return out


def has_no_empty_set(G: Hypergraph, size: int) -> bool:
    """True when every size-subset of the vertices induces at least one edge,
    that is when the complement has no complete size-set; False for size <
    k, as such a subset's k-subset mask is 0."""
    if not 0 <= size <= G.n:
        raise ValueError(f"has_no_empty_set: need 0 <= size <= n, got size={size}, n={G.n}")
    return _complete_sets(G.n, G.k, G.edges ^ ((1 << G.nbits) - 1))[0][size] == 0


def _spans_every(codes: np.ndarray, n: int, k: int, size: int) -> np.ndarray:
    """`has_no_empty_set` of each code of an int64 array, in one array test."""
    return (codes[:, None] & np.array(_subset_masks(n, size, k)[0])).all(axis=1)


def write_hgr(path: str, k: int, n: int, codes: Sequence[int], tag: str) -> None:
    """Write an HGR1 class file: header `HGR1 k n count tag`, then one
    lowercase-hex canonical mask per line, ascending (colex bit order, bit 0
    least significant), with tag one ASCII word so that `read_hgr` reads it
    back.  Writes are exclusive-create-then-rename."""
    if not tag.isascii() or tag.split() != [tag]:
        raise ValueError(f"write_hgr: tag must be one nonempty ASCII word, got {tag!r}")
    if any(a >= b for a, b in zip(codes, codes[1:])):
        raise ValueError("write_hgr: codes must be strictly ascending")
    if codes and not 0 <= codes[0] <= codes[-1] < 1 << math.comb(n, k):
        raise ValueError(f"write_hgr: a code is out of range for (n, k) = ({n}, {k})")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "x", encoding="ascii") as fh:
        fh.write(f"{HGR_MAGIC} {k} {n} {len(codes)} {tag}\n" + "".join(f"{c:x}\n" for c in codes))
    try:
        os.replace(tmp, path)
    except OSError:
        os.remove(tmp)
        raise


def read_hgr(path: str) -> tuple[int, int, str, tuple[Hypergraph, ...]]:
    """Read an HGR1 class file; returns (k, n, tag, graphs).  Codes must be
    nonnegative hex, strictly ascending and each the canonical mask of its
    graph; (n, k) must pass the enumeration guard `_check_bits`, checked
    before any code is canonicalized.  A malformed file raises one
    `read_hgr:` ValueError naming the path."""
    try:
        with open(path, encoding="ascii") as fh:
            header, lines = fh.readline().split(), [x.strip() for x in fh if x.strip()]
    except UnicodeDecodeError:
        raise ValueError(f"read_hgr: {path} is not ASCII") from None
    if len(header) != 5 or header[0] != HGR_MAGIC or not all(f.isdigit() for f in header[1:4]):
        raise ValueError(f"read_hgr: bad header in {path}")
    (k, n, count), tag = map(int, header[1:4]), header[4]
    for line in lines:  # int(x, 16) also takes a sign, "0x" and underscores
        if line.strip("0123456789abcdefABCDEF"):
            raise ValueError(f"read_hgr: {line!r} in {path} is not a hex code")
    codes = [int(line, 16) for line in lines]
    if len(codes) != count:
        raise ValueError(f"read_hgr: expected {count} lines, found {len(codes)} in {path}")
    if any(a >= b for a, b in zip(codes, codes[1:])):
        raise ValueError(f"read_hgr: codes are not strictly ascending in {path}")
    _check_bits("read_hgr", n, k, f" in {path}")
    graphs = tuple(Hypergraph(n, k, c) for c in codes)
    for code, canon in zip(codes, _canonical_codes(codes, n, k)):
        if canon != code:
            raise ValueError(f"read_hgr: code {code:x} in {path} is not canonical")
    return k, n, tag, graphs
