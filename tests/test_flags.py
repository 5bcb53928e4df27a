import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turankit import (
    ExpansionVector,
    Hypergraph,
    binomial,
    chain_lift,
    disjoint_union,
    enumerate_all,
    induced_density,
    square_expansion,
)
from turankit.hypergraph import _gather, _typed_canon, tuple_bits

from oracles import (
    brute_typed_code,
    extension_density,
    is_complete,
    is_edge,
    nonedge_core_size,
    pair_density,
    permuted,
    type_embeddings,
)

# The certificate's types and flags.  A flag is a 3-graph whose first s
# vertices carry its type; P1..P4 are edgeless on 1..4 vertices, Q4 has the
# single edge (0,1,2).
P1, P2, P3, P4 = (Hypergraph.empty(s, 3) for s in (1, 2, 3, 4))
Q4 = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
E3 = Hypergraph.empty(3, 3)  # empty 3-set over one typed vertex
L_A = Hypergraph.from_edges(4, 3, [(0, 2, 3)])
L_B = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
M_FLAGS = tuple(Hypergraph.from_edges(4, 3, [e]) for e in ((1, 2, 3), (0, 2, 3), (0, 1, 3)))
ONE = Fraction(1)


def complete_flag(m, k):
    """(type, flag): the complete m-vertex flag typed on its first m-1 vertices."""
    return Hypergraph.complete(m - 1, k), Hypergraph.complete(m, k)


@pytest.mark.parametrize(
    "sigma, terms, match",
    [
        # the flag's typed triple spans an edge, the type is edgeless
        (P3, ((ONE, Hypergraph.from_edges(4, 3, [(0, 1, 2)])),), "carry the type"),
        # the flag lacks the type's edge on its first four vertices
        (Q4, ((ONE, Hypergraph.empty(5, 3)),), "carry the type"),
        (P3, ((ONE, Hypergraph.empty(2, 3)),), "smaller than its type"),
        (P2, ((ONE, L_A), (ONE, E3)), "same size"),
        (P2, ((ONE, L_A), (ONE, Hypergraph.empty(4, 2))), "uniformities"),
        (Hypergraph.empty(1, 2), ((ONE, E3),), "uniformities"),
    ],
    ids=["type-bits", "missing-type-edge", "t-below-s", "mixed-sizes", "mixed-k", "type-k"],
)
def test_square_expansion_rejects_bad_flags(sigma, terms, match):
    with pytest.raises(ValueError, match=match):
        square_expansion(sigma, terms, Fraction(0), 6)


def test_type_embeddings_counts():
    rng = random.Random(3)
    for _ in range(5):
        H = Hypergraph(6, 3, rng.getrandbits(20))
        assert len(type_embeddings(P1, H)) == 6
    assert type_embeddings(P3, Hypergraph.complete(6, 3)) == []


def test_type_embeddings_q4_brute_force():
    two = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3))
    fast = type_embeddings(Q4, two)
    slow = []
    for theta in itertools.permutations(range(6), 4):
        ok = True
        for sub in itertools.combinations(range(4), 3):
            want = is_edge(Q4, sub)
            have = is_edge(two, tuple(theta[i] for i in sub))
            if want != have:
                ok = False
                break
        if ok:
            slow.append(theta)
    assert fast == slow
    assert len(fast) == 36


def test_pair_density_trivial_hosts():
    e6 = Hypergraph.empty(6, 3)
    k6 = Hypergraph.complete(6, 3)
    theta = (0,)
    assert pair_density(P1, E3, E3, e6, theta) == 1
    assert pair_density(P1, E3, E3, k6, theta) == 0
    with pytest.raises(ValueError):
        pair_density(P1, E3, E3, Hypergraph.empty(4, 3), (0,))


def test_averaged_pair_density_matches_core_formula(h5_classes):
    # averaging the squared complete flag recovers the weighted class sum
    # with weights C(core, 2)/C(m+1, 2), here for m = 4
    sigma, F = complete_flag(4, 3)
    for H in h5_classes:
        total = Fraction(0)
        hits = 0
        for theta in itertools.permutations(range(5), 3):
            if is_complete(H.restrict(theta)):
                total += pair_density(sigma, F, F, H, theta)
                hits += 1
        avg = total / math.perm(5, 3)
        assert avg == Fraction(binomial(nonedge_core_size(H), 2), binomial(5, 2))


def test_square_expansion_spot_values():
    k6 = Hypergraph.complete(6, 3)
    e6 = Hypergraph.empty(6, 3)
    term1 = square_expansion(P1, ((ONE, E3),), Fraction(3, 4), 6)
    assert term1.coefficient(k6.edges) == Fraction(9, 16)
    assert term1.coefficient(e6.edges) == Fraction(1, 16)
    m_square = square_expansion(P3, tuple((ONE, F) for F in M_FLAGS), Fraction(1, 2), 6)
    assert m_square.coefficient(k6.edges) == 0  # no edgeless typed triple exists


def test_square_expansion_unit_law():
    # no flags: the square is the constant-squared indicator average
    vec = square_expansion(P1, (), Fraction(2, 5), 6)
    for rep in enumerate_all(6, 3):
        assert vec.coefficient(rep.edges) == Fraction(4, 25)


def test_square_expansion_on_the_empty_type():
    # the empty type on 0 vertices: the one 0-vertex class carries c^2 = 1/4,
    # and the placement's Lehmer rank must stay an int64 index
    for k in (2, 3):
        vec = square_expansion(Hypergraph(0, k), (), Fraction(1, 2), 0)
        assert vec == ExpansionVector(k, 0, {0: 1}, 4)


def test_squared_complete_flag_coefficients(h4_classes, h5_classes):
    # coefficients of the squared complete flag equal C(core,2)/C(m+1,2)
    for m, classes in ((3, h4_classes), (4, h5_classes)):
        sigma, F = complete_flag(m, 3)
        vec = square_expansion(sigma, ((ONE, F),), Fraction(0), m + 1)
        for H in classes:
            expected = Fraction(binomial(nonedge_core_size(H), 2), binomial(m + 1, 2))
            assert vec.coefficient(H.edges) == expected


@pytest.mark.parametrize("den", [0, -3, Fraction(2), 2.0, True])
def test_expansion_vector_rejects_bad_denominator(den):
    with pytest.raises(ValueError, match="den"):
        ExpansionVector(3, 4, {0: 1}, den)


@pytest.mark.parametrize("num", [Fraction(1, 2), Fraction(1), 0.5, np.int64(1)])
def test_expansion_vector_rejects_non_int_numerator(num):
    # a Fraction numerator would otherwise be truncated by chain_lift's sums
    with pytest.raises(ValueError, match="numerators"):
        ExpansionVector(3, 4, {0: 1, 1: num}, 2)


def test_expansion_vector_reads_numerators_over_den():
    vec = ExpansionVector(3, 4, {0: 3, 1: -4}, 6)
    assert vec.coefficient(0) == Fraction(1, 2)
    assert vec.coefficient(1) == Fraction(-2, 3)
    assert vec.coefficient(2) == 0


def test_chain_lift_singleton_is_density():
    e4 = Hypergraph.empty(4, 3)
    vec = ExpansionVector(3, 4, {e4.edges: 1}, 1)
    lifted = chain_lift(vec, 6)
    for rep in enumerate_all(6, 3)[:300]:
        assert lifted.coefficient(rep.edges) == induced_density(e4, rep)


def test_chain_lift_preserves_all_ones():
    ones = ExpansionVector(3, 4, {rep.edges: 3 for rep in enumerate_all(4, 3)}, 3)
    lifted = chain_lift(ones, 6)
    assert all(lifted.coefficient(code) == 1 for code in lifted.nums)


@pytest.mark.parametrize("size", [4, 7])
def test_chain_lift_rejects_sizes_outside_its_range(size):
    # a lift must grow the vector and stay within the 6-vertex tables
    vec = ExpansionVector(3, 4, {0: 1}, 1)
    with pytest.raises(ValueError, match="chain_lift: need 4 < size <= 6"):
        chain_lift(vec, size)


def test_lift_then_evaluate_agrees_on_larger_hosts():
    base = square_expansion(P1, ((ONE, E3),), Fraction(3, 4), 5)
    lifted = chain_lift(base, 6)
    rng = random.Random(17)
    for _ in range(20):
        G = Hypergraph(8, 3, rng.getrandbits(56))
        assert base.value_at(G) == lifted.value_at(G)


@st.composite
def lift_cases(draw):
    size = draw(st.sampled_from([4, 5]))
    classes = enumerate_all(size, 3)
    coeffs = draw(
        st.lists(st.integers(-5, 5), min_size=len(classes), max_size=len(classes))
    )
    vec = ExpansionVector(3, size, {rep.edges: c for rep, c in zip(classes, coeffs) if c}, 1)
    n = draw(st.sampled_from([6, 7]))
    host = Hypergraph(n, 3, draw(st.integers(0, (1 << binomial(n, 3)) - 1)))
    return vec, host


@settings(derandomize=True, deadline=None, max_examples=40)
@given(lift_cases())
def test_property_chain_lift_then_evaluate_matches_direct(case):
    vec, G = case
    assert chain_lift(vec, 6).value_at(G) == vec.value_at(G)


def test_chain_lift_matches_value_at_on_every_class():
    # the whole-class lift, which reads the untyped `_typed_canon` table,
    # against the per-class route: each size-6 coefficient is the vector's
    # average over that class, via value_at and canonical_mask
    rng = random.Random(4136)
    for k, classes in ((3, 2136), (2, 156)):
        for size in (4, 5):
            vec = ExpansionVector(
                k,
                size,
                {rep.edges: rng.randint(-9, 9) * (14 // rng.choice((1, 2, 7)))
                 for rep in enumerate_all(size, k)},
                14,
            )
            lifted = chain_lift(vec, 6)
            assert len(lifted.nums) == classes
            for rep in enumerate_all(6, k):
                assert lifted.coefficient(rep.edges) == vec.value_at(rep)


def test_square_expansion_exact_beyond_int64():
    # weights whose squared sums overflow int64 are summed as Python ints
    big = 10**12
    huge = square_expansion(P1, ((Fraction(big), E3),), Fraction(0), 6)
    unit = square_expansion(P1, ((ONE, E3),), Fraction(0), 6)
    assert big * big > 1 << 63  # a single pair product already overflows int64
    assert huge.den == unit.den
    assert huge.nums == {code: big * big * c for code, c in unit.nums.items()}


def test_evaluation_consistency_lift_vs_direct():
    # size-5 expansion lifted to 6 equals the direct size-6 expansion
    args = (P1, ((ONE, E3),), Fraction(3, 4))
    lifted = chain_lift(square_expansion(*args, 5), 6)
    direct = square_expansion(*args, 6)
    for rep in enumerate_all(6, 3):
        assert lifted.coefficient(rep.edges) == direct.coefficient(rep.edges)


def test_type_label_swap_mirrors_l_flags():
    # swapping the two typed vertices turns each L flag into the other
    canon = _typed_canon(4, 2, 3)
    swap = (1, 0, 2, 3)
    l_a_swapped, l_b_swapped = permuted(L_A, swap), permuted(L_B, swap)
    assert canon[l_a_swapped.edges] == canon[L_B.edges]
    assert canon[l_b_swapped.edges] == canon[L_A.edges]
    # hence the antisymmetric square is invariant under the swap
    orig = square_expansion(P2, ((ONE, L_A), (-ONE, L_B)), Fraction(0), 6)
    swapped = square_expansion(P2, ((ONE, l_a_swapped), (-ONE, l_b_swapped)), Fraction(0), 6)
    assert orig == swapped


def test_extension_density_and_typed_code():
    two = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3))
    theta = (0, 1)  # same part
    assert extension_density(P2, L_A, two, theta) == 0
    theta = (0, 3)  # across parts: exactly one of six pairs completes each part
    assert extension_density(P2, L_A, two, theta) == Fraction(1, 6)
    assert extension_density(P2, L_B, two, theta) == Fraction(1, 6)
    canon = _typed_canon(4, 2, 3)
    assert canon[_gather(two.edges, tuple_bits(3, (0, 3, 1, 2)))] == canon[L_A.edges]


def test_square_expansion_rejects_size_mismatch():
    with pytest.raises(ValueError, match="at least 5 vertices"):
        square_expansion(P1, ((ONE, E3),), Fraction(0), 4)  # needs 2t-s = 5


def test_typed_code_matches_brute_force():
    # the code of the t vertices verts, typed on the first s, is one entry of
    # the `_typed_canon` table at the host's sub-mask on verts in that order
    rng = random.Random(20070419)
    shapes = [(t, s) for t in (3, 4, 5) for s in range(1, min(t, 4) + 1)]
    triples = 0
    for t, s in shapes:
        for _ in range(200):
            k = rng.choice((2, 3))
            n = rng.randint(t, 8)
            H = Hypergraph(n, k, rng.getrandbits(math.comb(n, k)))
            verts = tuple(rng.sample(range(n), t))
            code = _typed_canon(t, s, k)[_gather(H.edges, tuple_bits(k, verts))]
            assert code == brute_typed_code(H, verts[:s], verts[s:])
            triples += 1
    assert triples >= 2000
    # the code table covers C(t,k) <= 20 bits; a 7-vertex 3-flag is refused
    with pytest.raises(ValueError, match="guard"):
        _typed_canon(7, 1, 3)
    with pytest.raises(ValueError, match="guard"):
        square_expansion(P1, ((ONE, Hypergraph.empty(7, 3)),), Fraction(0), 13)


@st.composite
def square_cases(draw):
    """A random term list over one certificate type: flags of one size t
    typed on their first s vertices, weights with small denominators, and a
    rational constant.  Shapes run to base size 2t - s <= 5; the size-6
    shapes of the six certificate squares are checked class by class in
    test_certificate."""
    sigma, t = draw(
        st.sampled_from(
            [(P1, 2), (P1, 3), (P2, 2), (P2, 3), (P3, 3), (P3, 4), (P4, 4), (Q4, 4)]
        )
    )
    free_bits = binomial(t, 3) - binomial(sigma.n, 3)
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        high = draw(st.integers(0, (1 << free_bits) - 1))
        host = Hypergraph(t, 3, (high << binomial(sigma.n, 3)) | sigma.edges)
        weight = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 1, 2, 3])))
        terms.append((weight, host))
    constant = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return sigma, tuple(terms), constant


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=square_cases())
def test_property_square_expansion_matches_placement_oracle(case, square_oracle):
    sigma, terms, constant = case
    t = terms[0][1].n if terms else sigma.n
    base = 2 * t - sigma.n
    vec = square_expansion(sigma, terms, constant, base)
    assert vec.n == base and len(vec.nums) == len(enumerate_all(base, 3))
    for rep in enumerate_all(base, 3):
        assert vec.coefficient(rep.edges) == square_oracle(sigma, terms, constant, rep)


@pytest.mark.parametrize(
    "sigma, t, edge_sets, sizes",
    [
        # one typed vertex and two free ones per flag: t - s = 2, base 5
        (Hypergraph.empty(1, 2), 3, ([(0, 1), (0, 2)], [(1, 2)]), (5, 6)),
        # flags that swapping the two free vertices changes: each extension
        # set is counted under either order of its vertices
        (Hypergraph.empty(1, 2), 3, ([(0, 1)], [(0, 1), (1, 2)]), (5,)),
        # a typed edge and one free vertex per flag: base 4
        (Hypergraph.complete(2, 2), 3, ([(0, 1), (0, 2)], [(0, 1), (0, 2), (1, 2)]), (4, 6)),
        # the empty type: every class has the one placement ()
        (Hypergraph.empty(0, 2), 2, ([(0, 1)], []), (4, 5)),
    ],
    ids=["vertex-type", "vertex-type-asymmetric", "edge-type", "empty-type"],
)
def test_square_expansion_on_graphs_matches_placement_oracle(
    sigma, t, edge_sets, sizes, square_oracle
):
    # the certificate pins cover k = 3 only; 2-graphs take other shapes
    # through the flag-size restriction table
    flags = [Hypergraph.from_edges(t, 2, e) for e in edge_sets]
    terms = tuple(zip((Fraction(1), Fraction(-2, 3)), flags))
    constant = Fraction(1, 2)
    for size in sizes:
        vec = square_expansion(sigma, terms, constant, size)
        classes = enumerate_all(size, 2)
        assert len(vec.nums) == len(classes)
        for rep in classes:
            assert vec.coefficient(rep.edges) == square_oracle(sigma, terms, constant, rep)
