import hashlib
import itertools
import json
import math
import os
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turankit import (
    Hypergraph,
    canonical_mask,
    clique_counts,
    colex_subsets,
    disjoint_union,
    enumerate_all,
    has_no_empty_set,
    induced_density,
    read_hgr,
    subset_rank,
    write_hgr,
)
from turankit import hypergraph
from turankit.hypergraph import (
    _ORBIT_READS,
    MAX_VERTICES,
    _all_classes,
    _check_bits,
    _gather,
    _orbit_minima,
    _order_tables,
    _ordered_masks,
    _vertex_last,
    restriction_class_counts,
    tuple_bits,
)

from oracles import (
    burnside_count,
    clique_density,
    edge_count,
    is_complete,
    is_edge,
    k4_free_extremal,
    local_stats,
    nonedge_core_size,
    perm_tables,
    permuted,
)


def test_colex_order_and_rank_agree():
    for n, k in [(4, 3), (6, 3), (8, 3), (6, 2), (7, 4)]:
        subs = colex_subsets(n, k)
        assert [subset_rank(s) for s in subs] == list(range(len(subs)))
    assert colex_subsets(6, 3)[0] == (0, 1, 2)
    assert colex_subsets(6, 3)[1] == (0, 1, 3)
    assert subset_rank((3, 4, 5)) == 19
    # tuple_bits looks ranks up; subset_rank is the definition
    for k in range(5):
        subs = colex_subsets(5, k)
        for verts in itertools.permutations(range(MAX_VERTICES), 5):
            assert tuple_bits(k, verts) == tuple(subset_rank(verts[j] for j in s) for s in subs)


def test_constructors_and_edges():
    G = Hypergraph.from_edges(4, 3, [(0, 1, 2), (1, 2, 3)])
    assert edge_count(G) == 2
    assert is_edge(G, (2, 1, 0)) and not is_edge(G, (0, 1, 3))
    assert Hypergraph.complete(4, 3).edges == 0b1111
    assert is_complete(Hypergraph.complete(2, 3))  # vacuous below k vertices
    with pytest.raises(ValueError):
        Hypergraph(9, 3, 0)
    with pytest.raises(ValueError):
        Hypergraph(4, 3, 1 << 4)


def test_restrict_and_permute():
    G = Hypergraph.from_edges(5, 3, [(0, 1, 4), (1, 2, 3)])
    R = G.restrict((0, 1, 4))
    assert R.n == 3 and edge_count(R) == 1 and is_edge(R, (0, 1, 2))
    P = permuted(G, (4, 3, 2, 1, 0))
    assert edge_count(P) == 2
    assert is_edge(P, (4, 3, 0)) and is_edge(P, (3, 2, 1))


def test_restrict_rejects_vertices_outside_the_graph():
    K = Hypergraph.complete(5, 3)
    for verts in ((0, 1, 6), (0, 0, 1), (0, 1, 9), (-1, 1, 2)):
        with pytest.raises(ValueError, match=re.escape(str(verts))):
            K.restrict(verts)


def test_canonical_complete_fixed_point():
    K = Hypergraph.complete(6, 3)
    assert canonical_mask(K) == (1 << 20) - 1


def test_single_edge_graphs_share_code():
    codes = {
        canonical_mask(Hypergraph.from_edges(4, 3, [e]))
        for e in itertools.combinations(range(4), 3)
    }
    assert len(codes) == 1


def test_canonical_relabeling_invariance():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.choice((4, 5, 6))
        G = Hypergraph(n, 3, rng.getrandbits(math.comb(n, 3)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_mask(G) == canonical_mask(permuted(G, perm))
    # the direct-scan path for 7 and 8 vertices
    for n in (7, 8):
        G = Hypergraph(n, 3, rng.getrandbits(math.comb(n, 3)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_mask(G) == canonical_mask(permuted(G, perm))


# canonical codes of seeded 7- and 8-vertex masks, as the direct scan gave
# them when it ranked every relabeled edge with `subset_rank`
DIRECT_SCAN_CODES = {
    (7, 2, 0x1A1034): 0x4F5,
    (7, 3, 0x300A65CC): 0x3855F2,
    (7, 4, 0x74CDAC1B3): 0x16BBBAF8,
    (8, 2, 0xAA30B2D): 0x23AFA6,
    (8, 3, 0xDF21D0BAFCF1AA): 0xC67F16ADF35E5,
}


def test_direct_scan_codes_pinned():
    for (n, k, mask), code in DIRECT_SCAN_CODES.items():
        assert canonical_mask(Hypergraph(n, k, mask)) == code, (n, k)


def brute_force_classes(n, k):
    """Independent enumeration oracle: canonicalize every labeled mask with
    explicit permutation loops."""
    subs = colex_subsets(n, k)
    perms = list(itertools.permutations(range(n)))
    reps = set()
    for mask in range(1 << len(subs)):
        best = mask
        for p in perms:
            m = 0
            for i, s in enumerate(subs):
                if (mask >> i) & 1:
                    m |= 1 << subset_rank(tuple(p[v] for v in s))
            best = min(best, m)
        reps.add(best)
    return sorted(reps)


def relabelings(n, fixed):
    """The orders of {0..n-1} that keep 0..fixed-1 in place, the identity first."""
    return tuple((*range(fixed), *p) for p in itertools.permutations(range(fixed, n)))


def full_space_classes(n, k):
    """Reference enumeration: canonicalize all 2^C(n,k) labeled masks with a
    running numpy minimum over every relabeling, then deduplicate."""
    nbits = math.comb(n, k)
    split, lo_tab, hi_tab = _order_tables(n, k, relabelings(n, 0))
    lo_arr = np.asarray(lo_tab, dtype=np.int64)
    hi_arr = np.asarray(hi_tab, dtype=np.int64)
    masks = np.arange(1 << nbits, dtype=np.int64)
    mlo = masks & ((1 << split) - 1)
    mhi = masks >> split
    canon = masks.copy()
    for pi in range(1, len(lo_arr)):  # permutation 0 is the identity
        np.minimum(canon, lo_arr[pi][mlo] | hi_arr[pi][mhi], out=canon)
    return np.unique(canon).tolist()


def test_perm_tables_match_tuple_bits_oracle():
    # the relabeling tables of every (n, k, fixed) the guards admit up to 6
    # vertices; (0, 0) and (2, 3) are the link tables of _all_classes(1, 1)
    # and _all_classes(3, 3).  dtype and C order are checked too:
    # `_ordered_masks` reads its tables flat
    cases = [
        (n, k, fixed)
        for n in range(7)
        for k in range(n + 2)
        if math.comb(n, k) <= 20
        for fixed in range(n + 1)
    ]
    assert (0, 0, 0) in cases and (2, 3, 0) in cases and len(cases) == 168
    for n, k, fixed in cases:
        split, *tables = _order_tables.__wrapped__(n, k, relabelings(n, fixed))  # uncached
        want_split, *want = perm_tables(n, k, fixed)
        dtype = np.int16 if math.comb(n, k) <= 15 else np.int32
        assert split == want_split, (n, k, fixed)
        for got, ref in zip(tables, want):
            assert got.dtype == dtype and got.flags["C_CONTIGUOUS"], (n, k, fixed)
            assert np.array_equal(got, ref), (n, k, fixed)


def test_extension_enumeration_matches_full_space():
    sizes = [
        (n, k)
        for n in range(1, MAX_VERTICES + 1)
        for k in range(1, n + 1)
        if math.comb(n, k) <= 16
    ]
    assert len(sizes) == 26
    for n, k in sizes:
        assert [g.edges for g in enumerate_all(n, k)] == full_space_classes(n, k), (n, k)


def test_enumerate_4_3_against_brute_force(h4_classes):
    assert [g.edges for g in h4_classes] == brute_force_classes(4, 3)
    assert len(h4_classes) == 5


def test_enumerate_matches_burnside(h4_classes, h5_classes):
    assert len(h4_classes) == burnside_count(4, 3)
    assert len(h5_classes) == burnside_count(5, 3)
    assert len(enumerate_all(6, 3)) == burnside_count(6, 3) == 2136


def link_orbit_minima(rep, m, k):
    """Oracle: the links of a new vertex m over the m-vertex k-graph rep that
    are the minimum of their orbit under Aut(rep), by explicit permutation
    loops over edges and link subsets."""
    edges, subs = Hypergraph(m, k, rep).edge_list(), colex_subsets(m, k - 1)
    aut = [
        p for p in itertools.permutations(range(m))
        if sum(1 << subset_rank(p[v] for v in e) for e in edges) == rep
    ]
    moves = [[subset_rank(p[v] for v in S) for S in subs] for p in aut]
    seen, minima = set(), set()
    for link in range(1 << len(subs)):
        if link in seen:
            continue
        members = [i for i in range(len(subs)) if (link >> i) & 1]
        orbit = {sum(1 << move[i] for i in members) for move in moves}
        seen |= orbit
        minima.add(min(orbit))
    return sorted(minima)


def least_link_last(c, n, k, codes):
    """Oracle: whether vertex n-1 of the n-vertex k-graph mask c has a least
    link code, each vertex's link read edge by edge with the other vertices
    kept in order, and its code looked up in codes."""
    edges = Hypergraph(n, k, c).edge_list()
    link_codes = []
    for v in range(n):
        pos = {u: i for i, u in enumerate(u for u in range(n) if u != v)}
        link = sum(1 << subset_rank(pos[u] for u in e if u != v) for e in edges if v in e)
        link_codes.append(codes[link])
    return link_codes[-1] == min(link_codes)


def test_enumeration_keeps_one_link_per_orbit(monkeypatch):
    sizes = []
    for m in range(1, MAX_VERTICES):
        for k in range(1, m + 1):
            try:
                _check_bits("test", m + 1, k)
            except ValueError:
                continue
            if math.comb(m, k) <= 10:
                sizes.append((m, k))
    assert len(sizes) == 19
    calls = {}
    orbit_minima = hypergraph._orbit_minima

    def spy(masks, n, k, fixed=0):
        calls[n, k] = masks.tolist()
        return orbit_minima(masks, n, k, fixed)

    monkeypatch.setattr(hypergraph, "_orbit_minima", spy)
    link_codes = {}  # the canonical code of every link, per (m, k - 1)
    for m, k in sizes:
        if (m, k - 1) not in link_codes:
            links = range(1 << math.comb(m, k - 1))
            link_codes[m, k - 1] = oracle_canonical_masks(m, k - 1, links)
        _all_classes.__wrapped__(m + 1, k)
        shift = math.comb(m, k)
        orbits = [
            rep | link << shift
            for rep in _all_classes(m, k)[1]
            for link in link_orbit_minima(rep, m, k)
        ]
        kept = [c for c in orbits if least_link_last(c, m + 1, k, link_codes[m, k - 1])]
        assert calls[m + 1, k] == kept, (m, k)
        if (m, k) == (5, 3):
            # link orbits over the (5,3) classes, and those with a least link last
            assert (len(orbits), len(kept)) == (10688, 2352)


def test_enumerate_5_3_against_brute_force(h5_classes):
    assert [g.edges for g in h5_classes] == brute_force_classes(5, 3)


def test_enumerate_k_equals_n():
    for n in (3, 5, 8):
        assert len(enumerate_all(n, n)) == 2


def test_enumerate_sorted_and_guarded():
    classes = enumerate_all(5, 3)
    codes = [g.edges for g in classes]
    assert codes == sorted(codes)
    assert all(g.edges == canonical_mask(g) for g in classes)
    with pytest.raises(ValueError):
        enumerate_all(7, 3)  # C(7,3) = 35 > 20


def test_density_complete_in_complete():
    for m, n in [(2, 5), (3, 6), (4, 6)]:
        assert induced_density(Hypergraph.complete(m, 3), Hypergraph.complete(n, 3)) == 1


def test_density_empty4_in_two_triangles():
    two = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3))
    assert induced_density(Hypergraph.empty(4, 3), two) == Fraction(3, 5)


def test_clique_density_matches_brute_force():
    rng = random.Random(5)
    for _ in range(20):
        G = Hypergraph(6, 3, rng.getrandbits(20))
        for m in range(7):
            subsets = list(itertools.combinations(range(6), m))
            hits = sum(
                all(is_edge(G, e) for e in itertools.combinations(S, 3)) for S in subsets
            )
            assert clique_density(G, m) == Fraction(hits, len(subsets))
            if m < 3:
                assert clique_density(G, m) == 1


def test_clique_counts_cache_is_bounded():
    # a run over many hosts keeps the counts and complete-set bitmaps of the
    # last few only, keyed on (n, k, edges); the extension tallies of the
    # square moments read the same per-host record
    from turankit.relations import _extension_tallies

    hypergraph._complete_sets.cache_clear()
    for mask in range(300):
        G = Hypergraph(6, 3, mask)
        clique_counts(G)
        _extension_tallies(G, 3)
    info = hypergraph._complete_sets.cache_info()
    assert info.maxsize is not None and info.maxsize < 300
    assert info.currsize <= info.maxsize
    assert (info.misses, info.hits) == (300, 300)


@st.composite
def small_hosts(draw):
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(0, MAX_VERTICES))
    return Hypergraph(n, k, draw(st.integers(0, (1 << math.comb(n, k)) - 1)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_hosts())
@example(Hypergraph(8, 1, 0b10110101))  # 4-set bitmaps of 70 bits, past int64
@example(Hypergraph(8, 7, 0b01101111))
def test_clique_counts_match_brute_force(G):
    # The route through canonical forms scans 5040 or 40320 relabelings per
    # 7- or 8-vertex subset, so it is compared for m <= 6 only.  The
    # complete-set bitmaps behind the counts (table reads within the 20-bit
    # guard, a scan past it) are compared bit by bit.
    counts, sets = hypergraph._complete_sets(G.n, G.k, G.edges)
    assert counts == clique_counts(G)
    assert len(counts) == len(sets) == G.n + 1
    for m in range(G.n + 1):
        subsets = itertools.combinations(range(G.n), m)
        complete = [i for i, S in enumerate(subsets) if is_complete(G.restrict(S))]
        assert counts[m] == len(complete)
        assert sets[m] == sum(1 << i for i in complete)
        if m <= 6:
            assert clique_density(G, m) == induced_density(Hypergraph.complete(m, G.k), G)


def guard_pairs():
    """Every (n, k) within the 20-bit guard, k = n + 1 (no k-subsets) included."""
    return [
        (n, k) for n in range(MAX_VERTICES + 1) for k in range(1, n + 2) if math.comb(n, k) <= 20
    ]


def guard_masks(n, k):
    """Every edge mask on (n, k) where C(n, k) <= 10, else 200 seeded ones."""
    nbits = math.comb(n, k)
    if nbits <= 10:
        return range(1 << nbits)
    rng = random.Random(f"guard-masks:{n}:{k}")
    return [rng.getrandbits(nbits) for _ in range(200)]


def table_mismatches(n, k, split, tables, masks):
    """The (mask, m) at which two reads of the m-row of `_meet_tables`-shaped
    tables differ from the per-subset scan that serves hosts past the guard."""
    return [
        (x, m)
        for x in masks
        for m, (_, lo, hi) in enumerate(tables)
        if lo[x & ((1 << split) - 1)] | hi[x >> split] != hypergraph._scanned_meets(n, k, x, m)
    ]


def half_lists(values):
    """`_half_tables` of one row of Python ints, read back as split and two
    Python lists, the form each m-row of `_meet_tables` keeps."""
    split, lo, hi = hypergraph._half_tables(np.array([values], dtype=object))
    return split, lo[0].tolist(), hi[0].tolist()


def test_table_reads_match_the_scan():
    # (8,1) and (8,7) are in the guard, and their 4-set bitmaps have 70 bits
    assert {(8, 1), (8, 7)} <= set(guard_pairs())
    for n, k in guard_pairs():
        # the subset record both routes read: each m-subset's k-subset mask
        # and the bitmap of the (m+1)-subsets that hold it
        for m in range(n + 1):
            subsets = list(itertools.combinations(range(n), m))
            bigger = list(itertools.combinations(range(n), m + 1))
            inside = (Hypergraph.from_edges(n, k, itertools.combinations(S, k)) for S in subsets)
            assert hypergraph._subset_masks(n, m, k) == (
                tuple(G.edges for G in inside),
                tuple(sum(1 << j for j, T in enumerate(bigger) if {*S} <= {*T}) for S in subsets),
            )
        split, tables = hypergraph._meet_tables(n, k)
        masks = guard_masks(n, k)
        assert table_mismatches(n, k, split, tables, masks) == []
        everything = (1 << math.comb(n, k)) - 1
        for x in masks:
            sets = tuple(
                full ^ hypergraph._scanned_meets(n, k, x ^ everything, m)
                for m, (full, _, _) in enumerate(tables)
            )
            assert hypergraph._complete_sets(n, k, x) == (tuple(s.bit_count() for s in sets), sets)


@pytest.mark.parametrize("n, k", [(5, 3), (8, 1)])
def test_table_with_a_dropped_meets_bit_fails(n, k):
    # meets lists rebuilt from the subset masks give back the cached half
    # lists; with one m-subset dropped from host bit 0's entry, the comparison
    # with the scan finds the masks on which the reads go wrong
    split, tables = hypergraph._meet_tables(n, k)
    masks = guard_masks(n, k)
    for m in range(k, n + 1):
        meets = [0] * math.comb(n, k)
        for i, M in enumerate(hypergraph._subset_masks(n, m, k)[0]):
            for b in range(len(meets)):
                if M >> b & 1:
                    meets[b] |= 1 << i
        assert half_lists(meets) == (split, *tables[m][1:])
        meets[0] &= meets[0] - 1
        _, lo, hi = half_lists(meets)
        broken = tables[:m] + ((tables[m][0], lo, hi),) + tables[m + 1 :]
        assert 1 in {x for x, _ in table_mismatches(n, k, split, broken, masks)}


def test_k4_free_extremal_numbers():
    # ground truth past the 20-bit guard: the branch and bound agrees with
    # enumeration at n = 5, 6 and gives ex(n, K_4^(3)) = 7, 14, 23 at
    # n = 5, 6, 7 (Sidorenko 1995); the n = 7 witness, 35 bits, is counted
    # by the per-subset scan
    for n in (5, 6):
        free = [G for G in enumerate_all(n, 3) if clique_counts(G)[4] == 0]
        assert k4_free_extremal(n)[0] == max(edge_count(G) for G in free)
    assert [k4_free_extremal(n)[0] for n in (5, 6, 7)] == [7, 14, 23]
    G = Hypergraph(7, 3, k4_free_extremal(7)[1])
    assert G.nbits > hypergraph._MAX_ENUM_BITS
    assert edge_count(G) == 23 and clique_counts(G)[4] == 0


def test_densities_partition_probability(h5_classes):
    rng = random.Random(11)
    for _ in range(10):
        G = Hypergraph(6, 3, rng.getrandbits(20))
        total = sum((induced_density(H, G) for H in h5_classes), Fraction(0))
        assert total == 1


def test_chain_rule_through_intermediate_size(h5_classes, h4_classes):
    h3 = enumerate_all(3, 3)
    for F in h3:
        for G in h5_classes:
            direct = induced_density(F, G)
            chained = sum(
                (induced_density(F, H) * induced_density(H, G) for H in h4_classes),
                Fraction(0),
            )
            assert direct == chained


def test_clique_density_special_case():
    # d(K_m, H) = core(H)/(m+1) on (m+1)-vertex hosts
    for k, m in [(3, 3), (3, 4), (2, 2), (2, 3)]:
        for H in enumerate_all(m + 1, k):
            assert clique_density(H, m) == Fraction(nonedge_core_size(H), m + 1)


def test_clique_density_vacuous_below_k():
    G = Hypergraph(6, 3, 12345)
    assert clique_density(G, 2) == 1
    assert clique_density(G, 0) == 1
    for m in (-1, 7, 9):
        with pytest.raises(ValueError):
            clique_density(G, m)


def test_local_stats_complete_host():
    st = local_stats(Hypergraph.complete(5, 3), (0, 1))
    assert st == (1, 3, Fraction(1), Fraction(1))


def test_local_stats_empty_host():
    st = local_stats(Hypergraph.empty(5, 3), (0, 1))
    assert st.q == 1  # no triples fit inside two vertices
    assert st.l == 0 and st.r == 0 and st.rr == 0


def test_local_stats_square_bound(h5_classes):
    # r(S)^2 <= rr(S) + r(S)/(n - |S| - 1) on every subset of every class
    rng = random.Random(13)
    hosts = list(h5_classes) + [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(40)]
    for G in hosts:
        for m in range(3, G.n):
            for S in itertools.combinations(range(G.n), m - 1):
                st = local_stats(G, S)
                if st.q:
                    assert st.r**2 <= st.rr + st.r * Fraction(1, G.n - m)


def test_nonedge_core_values():
    for n in (4, 5, 6):
        assert nonedge_core_size(Hypergraph.complete(n, 3)) == n
        almost = Hypergraph(n, 3, Hypergraph.complete(n, 3).edges & ~1)
        assert nonedge_core_size(almost) == 3
    assert nonedge_core_size(Hypergraph.empty(4, 3)) == 0


def test_class_codes_filter_is_has_no_empty_set():
    # the one admissibility filter, an array test over all classes at once,
    # keeps exactly the classes `has_no_empty_set` keeps, at every size
    for n, k in guard_pairs():
        codes, ints = hypergraph._class_codes(n, k)
        assert codes.dtype == np.int64 and not codes.flags.writeable
        assert codes.tolist() == ints == [g.edges for g in enumerate_all(n, k)]
        for size in range(n + 1):
            kept, kept_ints = hypergraph._class_codes(n, k, size)
            want = [g.edges for g in enumerate_all(n, k) if has_no_empty_set(g, size)]
            assert kept.tolist() == kept_ints == want, (n, k, size)
            # the kept ints are the record's own objects
            assert all(any(c is d for d in ints) for c in kept_ints[-3:]), (n, k, size)
        for size, message in ((n + 1, "exceeds the vertex count"), (-1, "must be nonnegative")):
            with pytest.raises(ValueError, match=message):
                hypergraph._class_codes(n, k, size)


def test_has_no_empty_set():
    assert has_no_empty_set(Hypergraph.complete(6, 3), 5)
    assert not has_no_empty_set(Hypergraph.empty(6, 3), 5)
    two = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3))
    assert has_no_empty_set(two, 5)
    assert not has_no_empty_set(two, 4)
    # a set smaller than k spans no edge, even in the complete graph
    assert not has_no_empty_set(Hypergraph.complete(6, 3), 2)
    with pytest.raises(ValueError, match="exceeds the vertex count"):
        has_no_empty_set(two, 7)
    with pytest.raises(ValueError, match="must be nonnegative"):
        has_no_empty_set(two, -1)
    # 8 vertices (56 edge slots): every 5-set of two disjoint K_4s holds 3
    # vertices of one, and {0, 1, 4, 5} holds no edge
    four = disjoint_union(Hypergraph.complete(4, 3), Hypergraph.complete(4, 3))
    assert has_no_empty_set(four, 5) and not has_no_empty_set(four, 4)
    # the subset scan agrees at every size with two reads of the meet tables
    # of `_complete_sets`: the edges meet every size-subset
    for n, k in guard_pairs():
        split, tables = hypergraph._meet_tables(n, k)
        for x in guard_masks(n, k):
            G = Hypergraph(n, k, x)
            for size, (full, lo, hi) in enumerate(tables):
                covered = lo[x & ((1 << split) - 1)] | hi[x >> split] == full
                assert has_no_empty_set(G, size) == (size >= k and covered)


def test_hgr_round_trip(tmp_path, h4_classes):
    path = str(tmp_path / "k3-n4-none.hgr")
    write_hgr(path, 3, 4, [g.edges for g in h4_classes], "none")
    k, n, tag, classes = read_hgr(path)
    assert (k, n, tag) == (3, 4, "none")
    assert classes == h4_classes
    with open(path, encoding="ascii") as fh:
        first = fh.readline()
    assert first == "HGR1 3 4 5 none\n"


def test_hgr_rejects_duplicate_codes(tmp_path):
    path = tmp_path / "k3-n4-none.hgr"
    path.write_text("HGR1 3 4 2 none\n1\n1\n")
    with pytest.raises(ValueError, match="not strictly ascending"):
        read_hgr(str(path))
    with pytest.raises(ValueError, match="strictly ascending"):
        write_hgr(str(path), 3, 4, [1, 1], "none")


@pytest.mark.parametrize("codes", [[-1, 3], [3, 16], [1 << 20]], ids=["negative", "past", "wide"])
def test_write_hgr_rejects_codes_out_of_range(tmp_path, codes):
    # a (4,3) mask has C(4,3) = 4 bits; no file is left behind
    with pytest.raises(ValueError, match=r"out of range for \(n, k\) = \(4, 3\)"):
        write_hgr(str(tmp_path / "classes.hgr"), 3, 4, codes, "none")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tag", ["", "a b", "x\ny", "caf\u00e9"])
def test_write_hgr_rejects_unreadable_tag(tmp_path, tag):
    # read_hgr splits its ASCII header on whitespace, so such a tag would
    # be written and then fail to read back
    with pytest.raises(ValueError, match="tag must be one nonempty ASCII word"):
        write_hgr(str(tmp_path / "classes.hgr"), 3, 4, [1], tag)
    assert list(tmp_path.iterdir()) == []


def test_read_hgr_rejects_noncanonical_code(tmp_path):
    # ascending, but 2 is the single edge {0,1,3}, whose canonical mask is 1
    path = tmp_path / "k3-n6-none.hgr"
    path.write_text("HGR1 3 6 2 none\n0\n2\n")
    assert canonical_mask(Hypergraph(6, 3, 2)) == 1
    with pytest.raises(ValueError, match="not canonical"):
        read_hgr(str(path))


_DENSE_84 = (1 << 70) - 3  # two dense (8,4) codes take seconds to canonicalize


@pytest.mark.parametrize(
    "text, message",
    [
        ("HGR1 3 6 1 none\nzz\n", "invalid literal"),
        (
            f"HGR1 4 8 2 none\n{_DENSE_84:x}\n{_DENSE_84 + 1:x}\n",
            r"read_hgr: C\(8,4\) = 70 exceeds the 20-bit guard",
        ),
        ("HGR1 3 4 3 none\n0\n1\n", "expected 3 lines, found 2"),
        # C(100000, 50000) is never computed: the vertex guard comes first
        ("HGR1 50000 100000 0 none\n", "read_hgr: n = 100000 exceeds the 8-vertex guard"),
    ],
    ids=["non-hex", "oversized-header", "count-mismatch", "huge-n-header"],
)
def test_read_hgr_rejects_malformed_file(tmp_path, monkeypatch, text, message):
    from turankit import hypergraph

    calls = []
    monkeypatch.setattr(hypergraph, "canonical_mask", calls.append)
    monkeypatch.setattr(hypergraph, "_canonical_codes", lambda *args: calls.append(args))
    path = tmp_path / "classes.hgr"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_hgr(str(path))
    assert calls == []


def oracle_canonical_masks(n, k, masks):
    """Independent canonical forms: the minimum relabeled mask of each mask,
    with an explicit loop over permutations; a permutation's image of a mask
    is the sum of its edge bits' images, one matrix product for all masks."""
    subs = colex_subsets(n, k)
    dtype = np.int64 if len(subs) < 63 else object  # exact Python ints past int64
    masks = list(masks)
    bits = np.array([[(m >> i) & 1 for i in range(len(subs))] for m in masks], dtype=dtype)
    bits = bits.reshape(len(masks), len(subs))
    best = np.array(masks, dtype=dtype)
    for p in itertools.permutations(range(n)):
        image = np.array([1 << subset_rank(tuple(p[v] for v in s)) for s in subs], dtype=dtype)
        best = np.minimum(best, bits @ image)
    return [int(m) for m in best]


def test_canonical_mask_matches_oracle():
    sizes = [
        (n, k)
        for n in range(1, 7)
        for k in range(1, n + 1)
        if math.comb(n, k) <= 10
    ]
    for n, k in sizes:
        masks = range(1 << math.comb(n, k))
        got = [canonical_mask(Hypergraph(n, k, m)) for m in masks]
        assert got == oracle_canonical_masks(n, k, masks), (n, k)
    rng = random.Random(4242)
    for n, k in [(6, 2), (6, 3)]:
        masks = [rng.getrandbits(math.comb(n, k)) for _ in range(500)]
        got = [canonical_mask(Hypergraph(n, k, m)) for m in masks]
        assert got == oracle_canonical_masks(n, k, masks), (n, k)


def test_canonical_codes_table_tier_matches_oracle():
    # up to 5 vertices a code is one read of the untyped classifier table;
    # it must agree with the explicit oracle and with the orbit minima
    for n in range(6):
        for k in range(1, n + 2):
            masks = list(range(1 << math.comb(n, k)))
            got = hypergraph._canonical_codes(masks, n, k)
            assert all(type(c) is int for c in got)
            assert got == oracle_canonical_masks(n, k, masks), (n, k)
            assert got == _orbit_minima(np.array(masks, dtype=np.int64), n, k).tolist(), (n, k)


def test_in_guard_codes_past_six_vertices_skip_the_scan(monkeypatch, tmp_path):
    # within the 20-bit guard, 7- and 8-vertex masks are canonicalized through
    # the tables, as are the class files of such graphs when read back; the
    # relabeling scan, which lists each mask's edges, never runs
    def refuse(self):
        raise AssertionError("the relabeling scan ran inside the guard")

    for n, k in [(7, 1), (7, 6), (8, 1), (8, 7)]:
        masks = list(range(1 << math.comb(n, k)))
        path = str(tmp_path / f"k{k}-n{n}-none.hgr")
        write_hgr(path, k, n, [g.edges for g in enumerate_all(n, k)], "none")
        with monkeypatch.context() as patched:
            patched.setattr(Hypergraph, "edge_list", refuse)
            got = hypergraph._canonical_codes(masks, n, k)
            assert read_hgr(path)[3] == enumerate_all(n, k)
        assert got == oracle_canonical_masks(n, k, masks), (n, k)


def test_small_restrictions_read_tables_only(monkeypatch):
    from turankit.relations import check_square_intermediate

    rng = random.Random(2718)
    hosts = [Hypergraph(6, 3, rng.getrandbits(20)), Hypergraph(6, 2, rng.getrandbits(15))]
    counts = [[restriction_class_counts(G, size) for size in range(6)] for G in hosts]
    squares = [[check_square_intermediate(G, m) for m in range(G.k, 5)] for G in hosts]

    def refuse(*args, **kwargs):
        raise RuntimeError("_orbit_minima called on a warm table tier")

    monkeypatch.setattr(hypergraph, "_orbit_minima", refuse)
    for G, sizes, moments in zip(hosts, counts, squares):
        assert [restriction_class_counts(G, size) for size in range(6)] == sizes
        assert [check_square_intermediate(G, m) for m in range(G.k, 5)] == moments
        assert all(moments)
    with pytest.raises(RuntimeError, match="warm table tier"):
        restriction_class_counts(hosts[0], 6)


def oracle_restriction_counts(G, size):
    """Per-subset reference: restrict to each size-subset, then the oracle's
    canonical form of the induced graph."""
    subs = [G.restrict(S).edges for S in itertools.combinations(range(G.n), size)]
    counts = {}
    for code in oracle_canonical_masks(size, G.k, subs):
        counts[code] = counts.get(code, 0) + 1
    return counts


def test_restriction_class_counts_match_per_subset_oracle():
    rng = random.Random(1907)
    for n, k in [(6, 3), (6, 2)]:
        for _ in range(2):
            G = Hypergraph(n, k, rng.getrandbits(math.comb(n, k)))
            for size in range(n + 1):
                assert restriction_class_counts(G, size) == oracle_restriction_counts(G, size)
    # a 70-bit host gathers its sub-masks as Python ints
    G = Hypergraph(8, 4, rng.getrandbits(70))
    for size in range(7):
        assert restriction_class_counts(G, size) == oracle_restriction_counts(G, size)
    # a whole 7-vertex host is canonicalized by the direct scan
    G = Hypergraph(7, 2, rng.getrandbits(21))
    assert restriction_class_counts(G, 7) == oracle_restriction_counts(G, 7)


def test_restriction_class_counts_below_k():
    G = Hypergraph(6, 3, 0b1011_0110_1110_0101_1001)
    for size in range(3):
        assert restriction_class_counts(G, size) == {0: math.comb(6, size)}
    assert restriction_class_counts(Hypergraph(0, 2), 0) == {0: 1}
    with pytest.raises(ValueError, match="size out of range"):
        restriction_class_counts(G, 7)


def images_read(masks, n, k, fixed=0):
    """Images `_orbit_minima` reads for each mask: over the vertices placed
    last whose link has the least code, the rows carrying that link there."""
    orders, _, _, code, _, _, count = _vertex_last(n, k, fixed)
    links = _ordered_masks(masks, n, k, orders) >> math.comb(n - 1, k)
    least = code[links] == code[links].min(axis=1)[:, None]
    return (count[links] * least).sum(axis=1)


def test_orbit_minima_agree_across_chunk_boundaries():
    # every (5,3) mask five times over reads more than two budgets of
    # _ORBIT_READS images, so it runs in several chunks, cut after the last
    # mask whose images fit a multiple of the budget; slices cut next to
    # those boundaries agree with the whole
    masks = np.tile(np.arange(1 << 10, dtype=np.int64), 5)
    through = np.cumsum(images_read(masks, 5, 3))
    assert through[-1] > 2 * _ORBIT_READS
    first, second = np.searchsorted(through, [_ORBIT_READS, 2 * _ORBIT_READS], side="right")
    assert 0 < first < second < len(masks)
    whole = _orbit_minima(masks, 5, 3)
    cuts = [0, 1, first - 1, first + 1, second, len(masks)]
    pieces = [_orbit_minima(masks[a:b], 5, 3) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(pieces).tolist() == whole.tolist()
    assert whole.tolist() == oracle_canonical_masks(5, 3, range(1 << 10)) * 5


def test_orbit_minima_memory_is_bounded_by_images_read():
    # every relabeling fixes the empty 6-vertex mask, so each of 512 reads
    # all 720 images: 368,640 in all, about 12 MB of transients read at once
    masks = np.zeros(512, dtype=np.int64)
    assert images_read(masks, 6, 3).tolist() == [720] * 512
    _orbit_minima(masks[:1], 6, 3)  # the tables and cosets are cached
    tracemalloc.start()
    try:
        got = _orbit_minima(masks, 6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [0] * 512
    assert peak < 3 << 20


@pytest.mark.parametrize(
    "k, digest",
    [
        (2, "7cba3c71f5bb57e8a025767e7c657de0b4d1d9d3bf29c21a74ec4100f4ed2813"),
        (3, "83e27e881d6ce60509026fb7be6c647976d426a1390717604ffc8dd576e79b95"),
        (4, "1ecf2f0b47bbfddff13f6a40809aa2d8f85d8f914d4361733094473f233057a7"),
    ],
)
def test_orbit_minima_full_tables_pinned(k, digest):
    # the minimum of every 6-vertex k-graph mask, as computed by a fold
    # over all 720 relabelings, split at the vertex placed last
    masks = np.arange(1 << math.comb(6, k), dtype=np.int64)
    got = _orbit_minima(masks, 6, k)
    assert hashlib.sha256(got.astype("<i8").tobytes()).hexdigest() == digest
    # the enumeration keeps exactly the distinct minima of the full table
    assert _all_classes(6, k)[1] == sorted(set(got.tolist()))


def test_link_cosets_carry_each_link_to_its_code():
    # every (n, k, fixed) whose `_vertex_last` record `_orbit_minima` reads
    # within the guards: its links are (k-1)-graphs on m = n-1 vertices
    cases = [
        (n, k, fixed)
        for n in range(1, MAX_VERTICES + 1)
        for k in range(1, n + 2)
        if math.comb(n, k) <= 20
        for fixed in range(n)
    ]
    assert (1, 1, 0) in cases and (8, 7, 0) in cases and len(cases) == 172
    for n, k, fixed in cases:
        _, _, got, code, rows, start, count = _vertex_last(n, k, fixed)
        m, k = n - 1, k - 1
        split, lo, hi = perm_tables(m, k, fixed)  # one row per relabeling
        links = np.arange(1 << math.comb(m, k))
        images = lo[:, links & ((1 << split) - 1)] | hi[:, links >> split]
        assert got.flags["C_CONTIGUOUS"] and np.array_equal(got, images), (m, k, fixed)
        assert code.dtype == np.int64, (m, k, fixed)
        assert code.tolist() == images.min(axis=0).tolist(), (m, k, fixed)
        assert start.tolist() == (np.cumsum(count) - count).tolist(), (m, k, fixed)
        assert count.sum() == len(rows), (m, k, fixed)
        for L in links:
            listed = rows[start[L] : start[L] + count[L]].tolist()
            assert listed == np.flatnonzero(images[:, L] == code[L]).tolist(), (m, k, fixed, L)
            # orbit-stabilizer: the rows carrying L to its code are a coset
            assert count[L] * len(set(images[:, L].tolist())) == len(images), (m, k, fixed, L)


def typed_minima(n, k, fixed, masks, stabilizers=False):
    """Brute-force typed minimum of each mask: its least image under the
    relabelings of {0..n-1} that fix 0..fixed-1, edge bit by edge bit
    through subset_rank; with stabilizers, also how many of them reach it."""
    subs = colex_subsets(n, k)
    perms = (tuple(range(fixed)) + q for q in itertools.permutations(range(fixed, n)))
    images = [[1 << subset_rank(p[v] for v in s) for s in subs] for p in perms]
    bits = [[i for i in range(len(subs)) if (mask >> i) & 1] for mask in masks]
    seen = [[sum(image[i] for i in on) for image in images] for on in bits]
    least = [min(row) for row in seen]
    return (least, [row.count(m) for row, m in zip(seen, least)]) if stabilizers else least


@pytest.mark.parametrize("n, k", [(5, 3), (6, 2)])
def test_orbit_minima_match_brute_force_at_every_fixed(n, k):
    # each relabeling places one movable vertex last and relabels the other
    # n-1, so only (n-1)-vertex tables are read; fixed = n-1 leaves the
    # identity alone and fixed = n has no movable vertex.  The masks repeated
    # are more than _ORBIT_READS, so they span two windows of masks and, as a
    # mask reads at least one image, more than one budget of images; slices
    # of 8 lie within one
    if k == 3:
        masks = list(range(1 << math.comb(n, k)))
    else:
        rng = random.Random(6202)
        masks = [rng.getrandbits(math.comb(n, k)) for _ in range(200)]
    arr = np.array(masks, dtype=np.int64)
    reps = _ORBIT_READS // len(masks) + 1
    assert len(masks) * reps > _ORBIT_READS
    for fixed in range(n + 1):
        want, stab = typed_minima(n, k, fixed, masks, stabilizers=True)
        got = _orbit_minima(np.tile(arr, reps), n, k, fixed).tolist()
        assert got == want * reps, (n, k, fixed)
        # the relabelings reaching each minimum, counted in the same reads
        got, got_stab = _orbit_minima(np.tile(arr, reps), n, k, fixed, stabilizers=True)
        assert (got.tolist(), got_stab.tolist()) == (want * reps, stab * reps), (n, k, fixed)
        sliced = [_orbit_minima(arr[i : i + 8], n, k, fixed) for i in range(0, len(arr), 8)]
        assert np.concatenate(sliced).tolist() == want, (n, k, fixed)
    assert typed_minima(n, k, 0, masks[:64]) == oracle_canonical_masks(n, k, masks[:64])


def test_restriction_class_counts_keep_first_seen_order():
    # the table reads give every subset the sub-mask the per-bit gather
    # gives it, so the counts come out in the same order
    rng = random.Random(3003)
    for n, k in [(6, 3), (6, 2)]:
        for _ in range(50):
            G = Hypergraph(n, k, rng.getrandbits(math.comb(n, k)))
            for size in range(n + 1):
                subsets = itertools.combinations(range(n), size)
                subs = [_gather(G.edges, tuple_bits(k, S)) for S in subsets]
                codes = hypergraph._canonical_codes(subs, size, k)
                got = restriction_class_counts(G, size)
                assert list(got.items()) == list(Counter(codes).items()), (G, size)


def test_typed_canon_tables_pinned():
    # every classification table with C(t,k) <= 15, in (t, k, s) order, as
    # computed by the n-vertex relabeling fold that preceded the fold over
    # the vertex placed last
    digest = hashlib.sha256()
    for t in range(9):
        for k in range(1, t + 2):
            if math.comb(t, k) <= 15:
                for s in range(t + 1):
                    digest.update(hypergraph._typed_canon(t, s, k).tobytes())
    assert digest.hexdigest() == (
        "3318a0dd866ce612ad746a0a9b5909cb26d87180141bcb52bd667225e576fda4"
    )


@pytest.mark.parametrize("n, k", [(4, 2), (5, 3), (6, 2), (6, 3), (7, 2)])
def test_ordered_masks_match_gather(n, k):
    rng = random.Random(n * 10 + k)
    masks = [rng.getrandbits(math.comb(n, k)) for _ in range(40)]
    for m in range(n + 1):  # one call per order length
        orders = [tuple(rng.sample(range(n), m)) for _ in range(8)]
        images = _ordered_masks(np.array(masks, dtype=np.int64), n, k, orders)
        assert images.shape == (len(masks), len(orders))
        for mask, row in zip(masks, images.tolist()):
            for o, image in zip(orders, row):
                assert image == _gather(mask, tuple_bits(k, o)), (n, k, mask, o)


def test_canonical_mask_returns_python_int():
    rng = random.Random(7)
    graphs = [
        Hypergraph(6, 3, rng.getrandbits(20)),
        Hypergraph(6, 2, rng.getrandbits(15)),
        Hypergraph(7, 2, rng.getrandbits(21)),
        Hypergraph.empty(6, 3),
        Hypergraph.complete(6, 3),
    ]
    for G in graphs:
        code = canonical_mask(G)
        assert type(code) is int
        assert json.loads(json.dumps(code)) == code


def _codes_digest(codes):
    return hashlib.sha256(" ".join(f"{c:x}" for c in codes).encode("ascii")).hexdigest()


def test_pinned_canonical_mask_digests():
    # computed with the per-permutation Python minimum that preceded the
    # numpy gather; every canonical code must stay the same
    assert _codes_digest(
        canonical_mask(Hypergraph(6, 2, m)) for m in range(1 << 15)
    ) == "a83ebfbdd16392bbadf2ac734df3a3312adad1664337509869985fa839ba640b"
    rng = random.Random(20000)
    assert _codes_digest(
        canonical_mask(Hypergraph(6, 3, rng.getrandbits(20))) for _ in range(20000)
    ) == "3fc8948e368d9ca1b9913cb899e6e1bd17a163c792fc003e4c0b49e9c88ed8bb"


@st.composite
def relabeled_graphs(draw, n_values):
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.sampled_from(n_values))
    G = Hypergraph(n, k, draw(st.integers(0, (1 << math.comb(n, k)) - 1)))
    return G, draw(st.permutations(range(n)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(relabeled_graphs(range(1, 7)))
def test_property_canonical_mask_relabeling_invariant(case):
    G, perm = case
    code = canonical_mask(G)
    assert canonical_mask(permuted(G, perm)) == code
    assert code <= G.edges
    assert canonical_mask(Hypergraph(G.n, G.k, code)) == code


@settings(derandomize=True, deadline=None, max_examples=3)
@given(relabeled_graphs((7,)))
def test_property_canonical_mask_relabeling_invariant_direct_scan(case):
    G, perm = case
    assert canonical_mask(permuted(G, perm)) == canonical_mask(G)


@st.composite
def class_lists(draw):
    n, k = draw(st.sampled_from([(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)]))
    classes = enumerate_all(n, k)
    picked = draw(st.sets(st.integers(0, len(classes) - 1), max_size=40))
    tag = draw(st.from_regex(r"[a-z0-9-]{1,12}", fullmatch=True))
    return k, n, tag, tuple(classes[i] for i in sorted(picked))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(class_lists())
def test_property_hgr_round_trip(case):
    k, n, tag, graphs = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "classes.hgr")
        write_hgr(path, k, n, [g.edges for g in graphs], tag)
        assert read_hgr(path) == (k, n, tag, graphs)
