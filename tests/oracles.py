"""Reference implementations that only the tests call.

Each computes its quantity the direct way, one host, subset or placement at
a time, so the table-driven and integer routes of the package can be checked
against it.  None of them is on a command's path.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from turankit import (
    EpsilonMode,
    Hypergraph,
    TridiagonalSystem,
    binomial,
    clique_counts,
    colex_subsets,
    decimal_string,
    epsilon_value,
    exp_bounds,
    multinomial,
    subset_rank,
    x_ratio,
)
from turankit.certificate import _term_vectors, certificate_terms
from turankit.flags import ExpansionVector
from turankit.hypergraph import tuple_bits


def edge_count(G: Hypergraph) -> int:
    return G.edges.bit_count()


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


def is_edge(G: Hypergraph, verts: Iterable[int]) -> bool:
    verts = tuple(sorted(verts))
    if len(verts) != G.k:
        raise ValueError("is_edge: wrong subset size")
    return bool((G.edges >> subset_rank(verts)) & 1)


def is_complete(G: Hypergraph) -> bool:
    """True when every k-subset is an edge (vacuously true for n < k)."""
    return G.edges == (1 << G.nbits) - 1


def permuted(G: Hypergraph, perm: Sequence[int]) -> Hypergraph:
    """Relabel vertices: old vertex v becomes perm[v]."""
    if sorted(perm) != list(range(G.n)):
        raise ValueError("permuted: not a permutation of the vertex set")
    mask = 0
    for e in G.edge_list():
        mask |= 1 << subset_rank(perm[v] for v in e)
    return Hypergraph(G.n, G.k, mask)


def perm_tables(n: int, k: int, fixed: int):
    """`hypergraph._order_tables` of the relabelings of {0..n-1} that fix
    0..fixed-1, one order o at a time: row o sends host bit
    `tuple_bits(k, o)[i]` to bit i, and each half-table is the int64 product
    of those bits with the bit vector of every half-mask."""
    nbits = math.comb(n, k)
    perms = [tuple(range(fixed)) + p for p in itertools.permutations(range(fixed, n))]
    img = np.zeros((len(perms), nbits), dtype=np.int64)
    for row, p in zip(img, perms):
        for i, b in enumerate(tuple_bits(k, p)):
            row[b] = 1 << i
    split = (nbits + 1) // 2
    lo_bitmat = (np.arange(1 << split, dtype=np.int64)[:, None] >> np.arange(split)) & 1
    hi_width = nbits - split
    hi_bitmat = (np.arange(1 << hi_width, dtype=np.int64)[:, None] >> np.arange(hi_width)) & 1
    return split, img[:, :split] @ lo_bitmat.T, img[:, split:] @ hi_bitmat.T


def nonedge_core_size(H: Hypergraph) -> int:
    """Number of vertices common to every non-edge of H.

    Empty-family convention: a complete graph (no non-edges) returns n.
    Equivalently this counts the vertices whose removal leaves a complete
    graph, which is why the density of complete (n-1)-sets in H is this
    value divided by n.
    """
    core = set(range(H.n))
    found = False
    for i, sub in enumerate(colex_subsets(H.n, H.k)):
        if not (H.edges >> i) & 1:
            found = True
            core &= set(sub)
            if not core:
                return 0
    return H.n if not found else len(core)


def clique_density(G: Hypergraph, m: int) -> Fraction:
    """Density of complete m-sets in G; equals 1 for m < k (vacuous)."""
    if not 0 <= m <= G.n:
        raise ValueError(f"clique_density: need 0 <= m <= n, got m={m}, n={G.n}")
    return Fraction(clique_counts(G)[m], math.comb(G.n, m))


class LocalStats(NamedTuple):
    """Completeness statistics of one vertex subset S inside a host.

    q:  1 when S induces a complete subgraph (vacuously for |S| < k).
    l:  number of outside vertices v with S+v still complete.
    r:  l normalized by the number of outside vertices.
    rr: probability two distinct outside vertices both extend S completely.
    """

    q: int
    l: int
    r: Fraction
    rr: Fraction


def local_stats(G: Hypergraph, S: Iterable[int]) -> LocalStats:
    S = tuple(sorted(set(S)))
    if any(not 0 <= v < G.n for v in S):
        raise ValueError("local_stats: S is not a vertex subset")
    q = 1 if is_complete(G.restrict(S)) else 0
    l = sum(1 for v in range(G.n) if v not in S and is_complete(G.restrict(S + (v,))))
    out = G.n - len(S)
    r = Fraction(l, out) if out >= 1 else Fraction(0)
    rr = Fraction(math.comb(l, 2), math.comb(out, 2)) if out >= 2 else Fraction(0)
    return LocalStats(q, l, r, rr)


def dense(system: TridiagonalSystem, eps: Fraction = Fraction(0)) -> list[list[Fraction]]:
    """The shifted matrix (system minus eps on the diagonal) as rows."""
    d = system.dim
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        out[i][i] = system.diag[i] - eps
        if i + 1 < d:
            out[i][i + 1] = system.upper[i]
            out[i + 1][i] = system.lower[i]
    return out


def typed_mask(H: Hypergraph, verts: Sequence[int]) -> int:
    """Edge mask of H on the ordered tuple verts, relabeled so verts[i]
    becomes i, rebuilt bit by bit through subset_rank."""
    mask = 0
    for i, sub in enumerate(colex_subsets(len(verts), H.k)):
        if (H.edges >> subset_rank(verts[j] for j in sub)) & 1:
            mask |= 1 << i
    return mask


def brute_typed_code(H: Hypergraph, theta: Sequence[int], extras: Sequence[int]) -> int:
    """Reference classifier: the least typed mask over every ordering of the
    extension vertices, with the placement theta first and fixed."""
    return min(typed_mask(H, tuple(theta) + p) for p in itertools.permutations(extras))


def flag_class(sigma: Hypergraph, F: Hypergraph) -> int:
    """The brute-force code of a flag typed on its first sigma.n vertices."""
    if F.k != sigma.k or F.n < sigma.n or typed_mask(F, range(sigma.n)) != sigma.edges:
        raise ValueError("flag_class: the flag does not carry the type on its first vertices")
    return brute_typed_code(F, range(sigma.n), range(sigma.n, F.n))


def type_embeddings(sigma: Hypergraph, H: Hypergraph) -> list[tuple[int, ...]]:
    """All ordered injections of the type's labels into H whose induced,
    relabeled subgraph equals the type exactly (non-edges included)."""
    if sigma.n > H.n:
        raise ValueError("type_embeddings: type larger than host")
    if sigma.k != H.k:
        raise ValueError("type_embeddings: uniformities differ")
    return [
        theta
        for theta in itertools.permutations(range(H.n), sigma.n)
        if typed_mask(H, theta) == sigma.edges
    ]


def _require_embedding(sigma: Hypergraph, H: Hypergraph, theta: tuple[int, ...]) -> None:
    if len(theta) != sigma.n or len(set(theta)) != sigma.n:
        raise ValueError("theta must be an injective placement of the type")
    if typed_mask(H, theta) != sigma.edges:
        raise ValueError("theta does not embed the type")


def extension_density(
    sigma: Hypergraph, F: Hypergraph, H: Hypergraph, theta: tuple[int, ...]
) -> Fraction:
    """Probability that a uniform (|F|-s)-subset of the free vertices,
    together with the placement theta, induces a flag isomorphic to F."""
    _require_embedding(sigma, H, theta)
    e = F.n - sigma.n
    free = [v for v in range(H.n) if v not in theta]
    if len(free) < e:
        raise ValueError("extension_density: not enough free vertices")
    target = flag_class(sigma, F)
    hits = sum(
        1 for S in itertools.combinations(free, e) if brute_typed_code(H, theta, S) == target
    )
    return Fraction(hits, math.comb(len(free), e))


def pair_density(
    sigma: Hypergraph, Fa: Hypergraph, Fb: Hypergraph, H: Hypergraph, theta: tuple[int, ...]
) -> Fraction:
    """Probability that an ordered pair of disjoint extension sets realizes
    (Fa, Fb) simultaneously at the placement theta.

    The pair (Sa, Sb) is uniform over disjoint subsets of the free vertices
    with |Sa| = |Fa|-s and |Sb| = |Fb|-s.  This is the exact finite-size
    product of the two flags.
    """
    _require_embedding(sigma, H, theta)
    ea, eb = Fa.n - sigma.n, Fb.n - sigma.n
    free = [v for v in range(H.n) if v not in theta]
    f = len(free)
    if f < ea + eb:
        raise ValueError("pair_density: not enough free vertices")
    ca, cb = flag_class(sigma, Fa), flag_class(sigma, Fb)
    hits = 0
    for Sa in itertools.combinations(free, ea):
        if brute_typed_code(H, theta, Sa) != ca:
            continue
        rest = [v for v in free if v not in Sa]
        hits += sum(
            1
            for Sb in itertools.combinations(rest, eb)
            if brute_typed_code(H, theta, Sb) == cb
        )
    return Fraction(hits, math.comb(f, ea) * math.comb(f - ea, eb))


def square_oracle(sigma, terms, constant, H):
    """Average over every injective type placement in H of the square
    (sum a_i F_i - c sigma)^2, one placement at a time through
    type_embeddings / pair_density / extension_density: no class tables,
    no whole-class arrays and no chain lift, and every extension set is
    classified by brute_typed_code, not by the package's code table."""
    total = Fraction(0)
    for theta in type_embeddings(sigma, H):
        pair_part = sum(
            (
                a * b * pair_density(sigma, Fa, Fb, H, theta)
                for a, Fa in terms
                for b, Fb in terms
            ),
            Fraction(0),
        )
        single_part = sum(
            (a * extension_density(sigma, F, H, theta) for a, F in terms), Fraction(0)
        )
        total += pair_part - 2 * constant * single_part + constant * constant
    return total / math.perm(H.n, sigma.n)


def combined_square_vector() -> ExpansionVector:
    """Weight-combined size-6 coefficients of all six certificate squares.

    Evaluating this vector against any admissible host G (via value_at)
    gives the exact average of the six squares over G, which is the
    quantity the certificate bounds by 3/8 minus the empty-4-set density.
    """
    terms, vecs = certificate_terms(), _term_vectors()
    den = math.lcm(*(t.weight.denominator * v.den for t, v in zip(terms, vecs)))
    nums: dict[int, int] = {}
    for t, v in zip(terms, vecs):
        scale = t.weight.numerator * (den // (t.weight.denominator * v.den))
        for code, num in v.nums.items():
            nums[code] = nums.get(code, 0) + scale * num
    return ExpansionVector(vecs[0].k, vecs[0].n, nums, den)


def vertex_threshold_fractions(k: int, r: int, mode: EpsilonMode) -> Fraction:
    """`vertex_threshold` as (r-1)(1 + a/b), three `Fraction`s."""
    if mode is EpsilonMode.LITERAL:
        return (r - 1) * (1 + Fraction((r - k) ** 2, (k - 1) ** 2))
    return (r - 1) * (1 + Fraction((r - 1) * (r - k), (k - 1) ** 2))


def product_fractions(k: int, g: int, r: int) -> Fraction:
    """`asymptotic_product` as the running product of `x_ratio` factors."""
    return math.prod((x_ratio(k, m, r) for m in range(k, g + 1)), start=Fraction(1))


class BoundFractions(NamedTuple):
    threshold: Fraction
    finite_factor: Fraction
    asymptotic: Fraction
    finite_bound: Fraction
    de_caen: Fraction


def upper_bound_fractions(k: int, g: int, r: int, n: int, mode: EpsilonMode) -> BoundFractions:
    """The values of `upper_bound` in `Fraction` arithmetic: the threshold
    from `vertex_threshold_fractions`, the geometric factor
    1/(1 - eps (r-1)(r-k)/(k-1)) from `epsilon_value`, the finite bound as
    factor times limit, and de Caen's expression term by term.  No range
    check: the caller passes n above the threshold."""
    threshold = max(vertex_threshold_fractions(k, r, mode), Fraction(r))
    eps = epsilon_value(k, r, n, mode)
    factor = 1 / (1 - eps * Fraction((r - 1) * (r - k), k - 1))
    asym = product_fractions(k, g, r)
    de_caen = 1 - (1 + Fraction(r - k, n - r + 1)) * Fraction(1, binomial(r - 1, k - 1))
    return BoundFractions(threshold, factor, asym, factor * asym, de_caen)


def sandwich_fractions(k: int, r: int) -> tuple[Fraction, Fraction, str]:
    """(multinomial lower, product, approximation) of `sandwich_table`, with
    the series length doubled, the values ordered and the midpoint taken on
    the `Fraction` brackets of `exp_bounds`."""
    l = (r - 1) // (k - 1)
    lower = Fraction(multinomial(r - 1, (k - 1,) * l), l ** (r - 1))
    product = product_fractions(k, r - 1, r)
    x, terms = Fraction(k - r, k), max(64, r)
    exp_lo, exp_hi = exp_bounds(x, terms)
    while exp_hi - exp_lo >= exp_lo / 10**20:
        terms *= 2
        exp_lo, exp_hi = exp_bounds(x, terms)
    if not lower <= product <= exp_lo:
        raise ArithmeticError("sandwich_fractions: ordering check failed")
    return lower, product, f"~{decimal_string((exp_lo + exp_hi) / 2, 12)}"


def tuples_at_least(k: int, s: int, g: int) -> Iterable[tuple[int, ...]]:
    """Ordered s-tuples with every entry >= k and sum <= g."""
    if s == 0:
        yield ()
        return
    for first in range(k, g - k * (s - 1) + 1):
        for rest in tuples_at_least(k, s - 1, g - first):
            yield (first,) + rest


def enumerated_inclusion_exclusion(k: int, g: int, l: int) -> Fraction:
    """`partite_lower_bound(k, g, l).formula`, the printed sum, term by term
    over the tuples."""
    total = Fraction(0)
    for s in range(g // k + 1):
        inner = sum(
            (
                Fraction(multinomial(g, parts + (g - sum(parts),)), l ** sum(parts))
                for parts in tuples_at_least(k, s, g)
            ),
            Fraction(0),
        )
        total += (-1) ** s * binomial(l, s) * inner
    return total


def partite_fractions(k: int, g: int, l: int) -> tuple[Fraction, Fraction]:
    """(direct, formula) of `partite_lower_bound`: direct sums the
    multinomials of the group sizes (c_1, .., c_l), each at most k-1 and
    adding up to g, over l^g, one size vector at a time."""
    hits = sum(
        multinomial(g, sizes)
        for sizes in itertools.product(range(min(k - 1, g) + 1), repeat=l)
        if sum(sizes) == g
    )
    return Fraction(hits, l**g), enumerated_inclusion_exclusion(k, g, l)


def ratio_bound(k: int, g: int, r: int, n: int, seeded: bool = False) -> Fraction:
    """The ratio bound U on d(K_g, G) over K_r-free n-vertex k-graphs G: the
    three-term row at m, read at x = d_m / d_(m-1), gives rho_m <= u_m for
    the clique ratios rho_m = d_m / d_(m-1), where u_r = 0 and
    u_m = (1 - (k-1)/m) u_(m+1) + (k-1)/m + 1/(n-m), one m at a time down
    from r - 1; U is the product of u_k..u_g.  Seeded, u_k (the edge
    density bound) is also capped by de Caen's
    1 - (n-r+1) / ((n-k+1) C(r-1, k-1))."""
    u, terms = Fraction(0), {}
    for m in range(r - 1, k - 1, -1):
        a = Fraction(k - 1, m)
        u = terms[m] = (1 - a) * u + a + Fraction(1, n - m)
    if seeded:
        terms[k] = min(terms[k], 1 - Fraction(n - r + 1, (n - k + 1) * math.comb(r - 1, k - 1)))
    return math.prod((terms[m] for m in range(k, g + 1)), start=Fraction(1))


def exp_series(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """The Taylor bracket of `exp_bounds` summed term by term: the first
    `terms` terms of the series, minus and plus 2 |x|^terms / terms!."""
    total, term = Fraction(0), Fraction(1)
    for j in range(terms):
        total += term
        term = term * x / (j + 1)
    tail = 2 * abs(x) ** terms / Fraction(math.factorial(terms))
    return total - tail, total + tail


# Orbit counting for the admissible 6-vertex classes.  These helpers build
# their own colex order and relabelings and call no package code, so a check
# built on them is independent of enumeration and canonical forms.


def _colex_order(n: int, k: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def spanned_masks(n: int, k: int, size: int) -> list[int]:
    """For each size-subset of range(n): the mask, over the colex k-subsets,
    of the k-subsets inside it.  A k-graph mask has an empty size-set
    exactly when it misses one of these masks."""
    order = _colex_order(n, k)
    return [
        sum(1 << i for i, e in enumerate(order) if set(e) <= set(S))
        for S in itertools.combinations(range(n), size)
    ]


def count_without_empty_set(n: int, k: int, size: int) -> int:
    """Number of labelled k-graphs on range(n) in which every size-subset
    spans an edge, scanned over all 2^C(n,k) masks as pairs of a low and a
    high half.  For each half value, the set of size-subsets whose masks it
    misses is a bitmask; a whole mask has an empty size-set exactly when
    both of its halves miss a common one."""
    bits = math.comb(n, k)
    split = bits // 2
    masks = spanned_masks(n, k, size)

    def missed(shift: int, width: int) -> list[int]:
        return [
            sum(1 << j for j, M in enumerate(masks) if not (v << shift) & M)
            for v in range(1 << width)
        ]

    low, high = missed(0, split), missed(split, bits - split)
    return sum(not a & b for a in low for b in high)


def automorphism_counts(n: int, k: int, masks: Iterable[int]) -> list[tuple[int, bool]]:
    """For each k-graph mask on range(n): the number of the n! relabelings
    that fix it, and whether no relabeling gives a smaller mask."""
    order = _colex_order(n, k)
    rank = {e: i for i, e in enumerate(order)}
    moved = [
        [1 << rank[tuple(sorted(p[v] for v in e))] for e in order]
        for p in itertools.permutations(range(n))
    ]
    out = []
    for mask in masks:
        bits = [i for i in range(len(order)) if mask >> i & 1]
        images = [sum(map(row.__getitem__, bits)) for row in moved]
        out.append((images.count(mask), min(images) == mask))
    return out


def k4_free_extremal(n: int) -> tuple[int, int]:
    """ex(n, K_4^(3)), the most edges of an n-vertex 3-graph with no complete
    4-set, and the colex edge mask of one such graph, by integer search.

    The non-edges of a K_4-free graph form a set of triples meeting every
    4-set, so ex is C(n, 3) less the least such set.  A depth-first branch
    and bound finds it: branch on the allowed triples of the uncovered 4-set
    with the fewest, banning each in the later sibling branches; bound by
    ceil(uncovered / (n - 3)), since a triple lies in n - 3 4-sets.  All
    triples are alike, so the first 4-set is covered by {0, 1, 2}."""
    rank = {t: i for i, t in enumerate(_colex_order(n, 3))}
    quads = [[rank[t] for t in itertools.combinations(q, 3)] for q in _colex_order(n, 4)]
    meets = [0] * len(rank)  # triple t: the 4-sets holding it
    for j, triples in enumerate(quads):
        for t in triples:
            meets[t] |= 1 << j
    best = [len(meets) + 1, 0]  # size and mask of the least cover found

    def search(uncovered: int, cover: int, size: int, banned: int) -> None:
        if not uncovered:
            best[:] = [size, cover]  # the bound below admits only smaller covers
            return
        if size + -(-uncovered.bit_count() // (n - 3)) >= best[0]:
            return
        left = [j for j in range(len(quads)) if uncovered >> j & 1]
        allowed = min(([t for t in quads[j] if not banned >> t & 1] for j in left), key=len)
        for t in allowed:
            search(uncovered & ~meets[t], cover | 1 << t, size + 1, banned)
            banned |= 1 << t

    everything = (1 << len(meets)) - 1
    if not quads:
        return len(meets), everything
    search(((1 << len(quads)) - 1) & ~meets[0], 1, 1, 0)
    return len(meets) - best[0], everything ^ best[1]
