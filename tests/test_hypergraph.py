import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from turankit import (
    Hypergraph,
    canonical_mask,
    canonicalize,
    clique_density,
    colex_subsets,
    disjoint_union,
    enumerate_all,
    has_no_empty_set,
    induced_density,
    local_stats,
    nonedge_core_size,
    read_hgr,
    subset_rank,
    write_hgr,
)
from turankit.hypergraph import MAX_VERTICES, _perm_tables


def test_colex_order_and_rank_agree():
    for n, k in [(4, 3), (6, 3), (8, 3), (6, 2), (7, 4)]:
        subs = colex_subsets(n, k)
        assert [subset_rank(s) for s in subs] == list(range(len(subs)))
    assert colex_subsets(6, 3)[0] == (0, 1, 2)
    assert colex_subsets(6, 3)[1] == (0, 1, 3)
    assert subset_rank((3, 4, 5)) == 19


def test_constructors_and_edges():
    G = Hypergraph.from_edges(4, 3, [(0, 1, 2), (1, 2, 3)])
    assert G.edge_count() == 2
    assert G.is_edge((2, 1, 0)) and not G.is_edge((0, 1, 3))
    assert Hypergraph.complete(4, 3).edges == 0b1111
    assert Hypergraph.complete(2, 3).is_complete()  # vacuous below k vertices
    with pytest.raises(ValueError):
        Hypergraph(9, 3, 0)
    with pytest.raises(ValueError):
        Hypergraph(4, 3, 1 << 4)


def test_restrict_and_permute():
    G = Hypergraph.from_edges(5, 3, [(0, 1, 4), (1, 2, 3)])
    R = G.restrict((0, 1, 4))
    assert R.n == 3 and R.edge_count() == 1 and R.is_edge((0, 1, 2))
    P = G.permuted((4, 3, 2, 1, 0))
    assert P.edge_count() == 2
    assert P.is_edge((4, 3, 0)) and P.is_edge((3, 2, 1))


def test_canonical_complete_fixed_point():
    K = Hypergraph.complete(6, 3)
    assert canonical_mask(K) == (1 << 20) - 1
    assert canonicalize(K) == (3, 6, (1 << 20) - 1)


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
        assert canonical_mask(G) == canonical_mask(G.permuted(perm))
    # the direct-scan path for 7 and 8 vertices
    for n in (7, 8):
        G = Hypergraph(n, 3, rng.getrandbits(math.comb(n, 3)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_mask(G) == canonical_mask(G.permuted(perm))


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


def burnside_count(n, k):
    """Orbit count of edge subsets under the vertex symmetric group."""
    total = 0
    for p in itertools.permutations(range(n)):
        seen = set()
        cycles = 0
        for s in itertools.combinations(range(n), k):
            if s in seen:
                continue
            cycles += 1
            cur = s
            while True:
                cur = tuple(sorted(p[v] for v in cur))
                seen.add(cur)
                if cur == s:
                    break
        total += 2**cycles
    assert total % math.factorial(n) == 0
    return total // math.factorial(n)


def full_space_classes(n, k):
    """Reference enumeration: canonicalize all 2^C(n,k) labeled masks with a
    running numpy minimum over every relabeling, then deduplicate."""
    nbits = math.comb(n, k)
    split, lo_tab, hi_tab = _perm_tables(n, k)
    lo_arr = np.asarray(lo_tab, dtype=np.int64)
    hi_arr = np.asarray(hi_tab, dtype=np.int64)
    masks = np.arange(1 << nbits, dtype=np.int64)
    mlo = masks & ((1 << split) - 1)
    mhi = masks >> split
    canon = masks.copy()
    for pi in range(1, len(lo_arr)):  # permutation 0 is the identity
        np.minimum(canon, lo_arr[pi][mlo] | hi_arr[pi][mhi], out=canon)
    return np.unique(canon).tolist()


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


def test_density_induced_vs_containment():
    rng = random.Random(5)
    K4 = Hypergraph.complete(4, 3)
    for _ in range(20):
        G = Hypergraph(6, 3, rng.getrandbits(20))
        assert induced_density(K4, G) == induced_density(K4, G, induced=False)
    # containment counts supergraphs as well
    one_edge = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
    K6 = Hypergraph.complete(6, 3)
    assert induced_density(one_edge, K6) == 0
    assert induced_density(one_edge, K6, induced=False) == 1


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


def test_has_no_empty_set():
    assert has_no_empty_set(Hypergraph.complete(6, 3), 5)
    assert not has_no_empty_set(Hypergraph.empty(6, 3), 5)
    two = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3))
    assert has_no_empty_set(two, 5)
    assert not has_no_empty_set(two, 4)


def test_hgr_round_trip(tmp_path, h4_classes):
    path = str(tmp_path / "k3-n4-none.hgr")
    write_hgr(path, 3, 4, h4_classes, "none")
    k, n, tag, classes = read_hgr(path)
    assert (k, n, tag) == (3, 4, "none")
    assert classes == h4_classes
    with open(path, encoding="ascii") as fh:
        first = fh.readline()
    assert first == "HGR1 3 4 5 none\n"


def test_read_hgr_rejects_noncanonical_code(tmp_path):
    # ascending, but 2 is the single edge {0,1,3}, whose canonical mask is 1
    path = tmp_path / "k3-n6-none.hgr"
    path.write_text("HGR1 3 6 2 none\n0\n2\n")
    assert canonical_mask(Hypergraph(6, 3, 2)) == 1
    with pytest.raises(ValueError, match="not canonical"):
        read_hgr(str(path))
