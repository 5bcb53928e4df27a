import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from turankit import (
    Hypergraph,
    canonical_mask,
    certificate,
    certificate_terms,
    disjoint_union,
    has_no_empty_set,
    induced_density,
    square_expansion,
    two_clique_density,
    verify_certificate,
)
from turankit.certificate import _term_vectors
from turankit.hypergraph import _typed_canon

from oracles import combined_square_vector

# SHA-256 of `<hex code> <p/q>` lines sorted by code: the slack of every
# admissible class, then the size-6 coefficients of each of the six squares
# in certificate order (all 2136 classes).
SLACK_DIGEST = "89b1fe66fc6140fddb9e310886d53ad10d8b3df377e49f2dd5111d52d763680b"
TERM_DIGESTS = [
    "fb252561c06c295af56267015320a58643c2d14b686ce831443d94607233e37a",
    "8d2a75db3c4822aa488e78d057aeb06ae1bbea723193f4b4f5ae08d98fcc6b42",
    "37b3e659a8a4e763efa2527e0a8eac144b9aad0492090a2bce48034fe4309a76",
    "eb25563e94cc031eb223b7b48d8ef128b026b9f87a96c0a05ccf4884dfb521d8",
    "9a117cc70a3b684a04f922a614404d174b8d2cb20c46fbbb51a299d787b87783",
    "8db802e194b7781848b12bd795eff19e157a8105695a21c648ee2d56a2a62050",
]


def weighted_squares(code):
    """The six weighted square coefficients weight_i * coeff_i of one class."""
    pairs = zip(certificate_terms(), _term_vectors())
    return tuple(t.weight * v.coefficient(code) for t, v in pairs)


def table_digest(table):
    lines = "".join(f"{code:x} {value}\n" for code, value in sorted(table.items()))
    return hashlib.sha256(lines.encode("ascii")).hexdigest()


def test_term_hosts_and_types():
    terms = {t.label: t for t in certificate_terms()}
    flag_edges = {
        label: [F.edge_list() for _, F in t.terms] for label, t in terms.items()
    }
    assert flag_edges == {
        "empty-triple": [()],
        "l-asymmetry": [((0, 2, 3),), ((1, 2, 3),)],
        "m-sum": [((1, 2, 3),), ((0, 2, 3),), ((0, 1, 3),)],
        "empty-quadruple": [()],
        "single-edge-type": [((0, 1, 2),)],
        "o-asymmetry": [((0, 1, 4),), ((2, 3, 4),)],
    }
    assert [(t.sigma.n, t.sigma.edge_list()) for t in terms.values()] == [
        (1, ()), (2, ()), (3, ()), (3, ()), (4, ((0, 1, 2),)), (4, ()),
    ]
    for t in terms.values():
        s = t.sigma.n
        for _, F in t.terms:
            # each flag carries its type on its first s vertices
            assert F.restrict(range(s)) == t.sigma, (t.label, F)
            # and is written as its own typed code
            assert _typed_canon(F.n, s, 3)[F.edges] == F.edges, (t.label, F)
    # the two O flags are genuinely different typed flags
    (_, o_a), (_, o_b) = terms["o-asymmetry"].terms
    canon = _typed_canon(5, 4, 3)
    assert canon[o_a.edges] != canon[o_b.edges]


def test_term_vectors_match_the_span_labels(monkeypatch):
    # a benchmark trace names each square expansion after the certificate
    # term whose (sigma, terms, constant) equal its first three arguments
    calls = []

    def recording(*args):
        calls.append(args)
        return square_expansion(*args)

    monkeypatch.setattr(certificate, "square_expansion", recording)
    certificate._term_vectors.__wrapped__()
    keys = {(t.sigma, t.terms, t.constant): t.label for t in certificate_terms()}
    labels = [keys.get((sigma, tuple(terms), constant)) for sigma, terms, constant, _ in calls]
    assert len(calls) == 6 and None not in labels
    assert len(set(labels)) == 6


def test_pinned_result_digests(certificate_run):
    report, _ = certificate_run
    assert len(report.slacks) == 2102
    assert table_digest(report.slacks) == SLACK_DIGEST
    vecs = _term_vectors()
    assert all(len(v.nums) == 2136 for v in vecs)
    assert [table_digest({c: v.coefficient(c) for c in v.nums}) for v in vecs] == TERM_DIGESTS


def test_certificate_weights():
    weights = [t.weight for t in certificate_terms()]
    assert weights == [
        Fraction(2, 3),
        Fraction(1, 6),
        Fraction(13, 12),
        Fraction(11, 12),
        Fraction(2),
        Fraction(1, 2),
    ]


def test_e5free_count(e5free_classes):
    assert len(e5free_classes) == 2102
    codes = [g.edges for g in e5free_classes]
    assert codes == sorted(codes)
    assert all(has_no_empty_set(g, 5) for g in e5free_classes)


def test_cold_certificate_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, a cost every cold run paid
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = (
        "import sys\n"
        "from turankit import verify_certificate\n"
        "assert verify_certificate().passed\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_certificate_passes(certificate_run):
    report, _ = certificate_run
    assert report.graph_count == 2102
    assert report.verdict == "pass" and report.passed
    assert report.min_slack == 0
    assert all(s >= 0 for s in report.slacks.values())


def test_complete_graph_tight(certificate_run):
    report, _ = certificate_run
    k6 = Hypergraph.complete(6, 3)
    assert k6.edges in report.tight_graphs
    assert report.slacks[k6.edges] == 0
    # at the complete host only the first square survives, through its
    # constant: weight 2/3 times (3/4)^2 equals the full 3/8 budget
    contribs = weighted_squares(k6.edges)
    assert contribs[0] == Fraction(2, 3) * Fraction(9, 16) == Fraction(3, 8)
    assert all(c == 0 for c in contribs[1:])


def test_two_clique_split_tight(certificate_run):
    report, _ = certificate_run
    two = disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3))
    assert report.slacks[canonical_mask(two)] == 0


def test_per_graph_squares_can_be_negative(certificate_run):
    # finite-size square coefficients need not be nonnegative per class;
    # the verdict gates on the combined slack only
    report, _ = certificate_run
    assert any(min(weighted_squares(code)) < 0 for code in report.slacks)


def test_combined_vector_nonnegative_on_sampled_hosts():
    vec = combined_square_vector()
    rng = random.Random(60309)
    samples = 0
    while samples < 12:
        G = Hypergraph(8, 3, rng.getrandbits(56))
        if not has_no_empty_set(G, 5):
            continue
        samples += 1
        assert vec.value_at(G) >= 0


def test_combined_vector_tight_on_two_clique_family():
    # on split-into-two-cliques hosts the lifted inequality is tight at
    # size 8 as well: the square average equals 3/8 minus the empty-4-set
    # density exactly (and is therefore negative once that density exceeds
    # 3/8 -- finite-size square averages are not pointwise nonnegative)
    vec = combined_square_vector()
    e4 = Hypergraph.empty(4, 3)
    for a in (4, 5, 6, 7, 8):
        parts = [Hypergraph.complete(a, 3)]
        if a < 8:
            parts.append(Hypergraph.complete(8 - a, 3))
        G = parts[0] if len(parts) == 1 else disjoint_union(*parts)
        assert vec.value_at(G) == Fraction(3, 8) - induced_density(e4, G)
    two44 = disjoint_union(Hypergraph.complete(4, 3), Hypergraph.complete(4, 3))
    assert vec.value_at(two44) == Fraction(-39, 280)


def test_two_clique_density_values():
    assert two_clique_density(6) == Fraction(3, 5)
    assert two_clique_density(8) == Fraction(18, 35)
    values = [two_clique_density(n) for n in range(6, 17, 2)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > Fraction(3, 8) for v in values)
    assert two_clique_density(7) == Fraction(
        math.comb(3, 2) * math.comb(4, 2), math.comb(7, 4)
    )
    with pytest.raises(ValueError):
        two_clique_density(4)
    with pytest.raises(ValueError):
        two_clique_density(5)


def test_two_clique_density_beyond_sixteen():
    # a closed form with no cap on n: admissibility past n = 8 is the
    # pigeonhole fact that any 5 vertices put 3 in one complete half
    assert two_clique_density(17) == Fraction(36, 85)
    assert two_clique_density(100) == Fraction(1225, 3201)
    assert Fraction(3, 8) < two_clique_density(100) < two_clique_density(17)


def test_certificate_fails_outside_admissible_family(monkeypatch):
    # the bound genuinely fails on hosts with empty 5-sets (the empty graph
    # has empty-4-set density 1 > 3/8), so checking them flips the verdict
    monkeypatch.setattr(
        certificate,
        "e5free_six_classes",
        lambda: (Hypergraph.empty(6, 3), Hypergraph.complete(6, 3)),
    )
    report = verify_certificate()
    assert report.verdict == "fail"
    assert report.min_slack < 0
    assert report.slacks[Hypergraph.empty(6, 3).edges] < Fraction(3, 8) - 1


def test_slack_oracle_from_public_flag_ops(certificate_run, square_oracle):
    # independent recomputation of every term coefficient and of the slack
    # through type_embeddings / pair_density / extension_density on labeled
    # admissible hosts, bypassing the expansion engine's whole-class arrays,
    # its lifting and the class enumeration
    report, _ = certificate_run
    vecs = _term_vectors()
    e4 = Hypergraph.empty(4, 3)
    rng = random.Random(2102)
    hosts = [
        Hypergraph.complete(6, 3),
        disjoint_union(Hypergraph.complete(3, 3), Hypergraph.complete(3, 3)),
        Hypergraph(6, 3, 0b1010110010011001011),
    ] + [Hypergraph(6, 3, rng.getrandbits(20)) for _ in range(9)]
    for H in hosts:
        assert has_no_empty_set(H, 5), H
        code = canonical_mask(H)
        assert code in report.slacks
        contribs = []
        for i, t in enumerate(certificate_terms()):
            coeff = square_oracle(t.sigma, t.terms, t.constant, H)
            assert coeff == vecs[i].coefficient(code), (t.label, H)
            contribs.append(t.weight * coeff)
        assert tuple(contribs) == weighted_squares(code)
        oracle_slack = Fraction(3, 8) - induced_density(e4, H) - sum(contribs, Fraction(0))
        assert oracle_slack == report.slacks[code]


def test_empty_density_column(certificate_run, e5free_classes):
    # slack + squares + d(E4) reassemble to exactly 3/8 on every class
    report, _ = certificate_run
    e4 = Hypergraph.empty(4, 3)
    for H in e5free_classes:
        total = (
            report.slacks[H.edges]
            + sum(weighted_squares(H.edges), Fraction(0))
            + induced_density(e4, H)
        )
        assert total == Fraction(3, 8)
