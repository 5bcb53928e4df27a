import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import pins
from turankit.cli import main
from turankit.hypergraph import Hypergraph, read_hgr, write_hgr
from turankit.relations import InequalityCheck


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bound_json(capsys):
    code, out = run_cli(
        capsys, "bound", "--k", "3", "--g", "4", "--r", "5", "--n", "100"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["finiteBound"] == "10/23"
    assert payload["asymptotic"] == "5/12"
    assert payload["finiteFactor"] == "24/23"
    assert payload["deCaen"] is None
    assert payload["lowerBound"] == "3/8"
    assert payload["mode"] == "literal"
    assert payload["finiteBoundApprox"].startswith("~0.43478260")


def test_bound_includes_de_caen_at_g_equals_k(capsys):
    code, out = run_cli(capsys, "bound", "--k", "3", "--g", "3", "--r", "5", "--n", "100")
    assert code == 0
    assert json.loads(out)["deCaen"] is not None


def test_bound_usage_error_exit_2(capsys):
    code = main(["bound", "--k", "3", "--g", "4", "--r", "5", "--n", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "threshold" in err


def test_bound_deterministic_output(capsys):
    _, first = run_cli(capsys, "bound", "--k", "3", "--g", "4", "--r", "5", "--n", "100")
    _, second = run_cli(capsys, "bound", "--k", "3", "--g", "4", "--r", "5", "--n", "100")
    assert first == second


def test_enumerate_writes_cache(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    code, out = run_cli(
        capsys, "enumerate", "--k", "3", "--n", "4", "--cache-dir", cache
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    k, n, tag, classes = read_hgr(payload["cache"])
    assert (k, n, tag, len(classes)) == (3, 4, "none", 5)
    # environment variable steers the default cache directory
    env_cache = str(tmp_path / "env-cache")
    monkeypatch.setenv("TURANKIT_CACHE", env_cache)
    code, out = run_cli(capsys, "enumerate", "--k", "3", "--n", "4")
    assert code == 0
    assert json.loads(out)["cache"].startswith(env_cache)


def test_enumerate_filter_tag(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, out = run_cli(
        capsys,
        "enumerate",
        "--k", "3", "--n", "5",
        "--filter", "no-empty-4",
        "--cache-dir", cache,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["filter"] == "no-empty-4"
    assert 0 < payload["count"] < 34


def test_enumerate_filter_below_k_keeps_nothing(capsys, tmp_path):
    # a 2-set never spans a 3-edge, so no class passes no-empty-2
    cache = str(tmp_path / "cache")
    code, out = run_cli(
        capsys, "enumerate", "--k", "3", "--n", "5", "--filter", "no-empty-2",
        "--cache-dir", cache,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 0
    assert read_hgr(payload["cache"]) == (3, 5, "no-empty-2", ())


def test_enumerate_bad_filter(capsys):
    code = main(["enumerate", "--k", "3", "--n", "4", "--filter", "weird"])
    assert code == 2


def test_enumerate_filter_size_takes_ascii_digits_only(capsys, tmp_path):
    # str.isdigit accepts an Arabic-Indic three and a superscript two; both
    # are refused up front, before the cache directory is made
    cache = tmp_path / "cache"
    for value in ("no-empty-\u0663", "no-empty-\u00b2"):
        argv = ["enumerate", "--k", "3", "--n", "5", "--filter", value, "--cache-dir", str(cache)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: unknown filter {value!r}; expected no-empty-<size>\n"
    assert not cache.exists()


def test_solve_output(capsys):
    code, out = run_cli(capsys, "solve", "--k", "3", "--r", "5", "--g", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == ["1/2", "6/5"]
    assert payload["determinant"] == "1"
    assert payload["phi"] == ["1", "1", "1", "0"]
    code, out = run_cli(
        capsys, "solve", "--k", "3", "--r", "6", "--g", "3", "--eps", "1/100"
    )
    assert code == 0
    assert json.loads(out)["eps"] == "1/100"


def test_solve_reports_threshold_and_nonpositive_entries(capsys):
    # the new keys come after every existing one
    _, out = run_cli(capsys, "solve", "--k", "3", "--r", "5", "--g", "4")
    payload = json.loads(out)
    assert list(payload)[-2:] == ["nonpositiveEntries", "belowThreshold"]
    assert payload["nonpositiveEntries"] == [] and payload["belowThreshold"] is True
    # threshold 1/4: every table entry is still positive at eps = 1/2
    _, out = run_cli(capsys, "solve", "--k", "3", "--r", "5", "--g", "4", "--eps", "1/2")
    payload = json.loads(out)
    assert payload["nonpositiveEntries"] == [] and payload["belowThreshold"] is False
    _, out = run_cli(capsys, "solve", "--k", "3", "--r", "5", "--g", "4", "--eps", "1/4")
    assert json.loads(out)["belowThreshold"] is False  # strict inequality
    code, out = run_cli(capsys, "solve", "--k", "3", "--r", "6", "--g", "3", "--eps", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["nonpositiveEntries"] == [
        {"table": "theta", "m": 5},
        {"table": "phi", "m": 3},
    ]
    assert payload["belowThreshold"] is False


def test_bound_flags_vacuous(capsys):
    _, out = run_cli(capsys, "bound", "--k", "3", "--g", "4", "--r", "5", "--n", "100")
    payload = json.loads(out)
    assert list(payload)[-1] == "vacuous" and payload["vacuous"] is False
    code, out = run_cli(
        capsys, "bound", "--k", "40", "--g", "41", "--r", "80", "--n", "100000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vacuous"] is True
    assert payload["finiteBoundApprox"].startswith("~1.0008")


def test_lower_output(capsys):
    code, out = run_cli(capsys, "lower", "--k", "3", "--g", "4", "--r", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["direct"] == "3/8"
    assert payload["inclusionExclusion"] == "-1/8"
    assert payload["formulaAgrees"] is False
    assert payload["sandwich"]["product"] == "5/12"
    assert payload["sandwich"]["multinomialLower"] == "3/8"


def test_lower_without_divisibility_has_no_sandwich(capsys):
    code, out = run_cli(capsys, "lower", "--k", "3", "--g", "4", "--r", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["groups"] == 2
    assert payload["sandwich"] is None


def test_lower_large_g(capsys):
    # the inclusion-exclusion sum is polynomial in g, and at x = -39/2 the
    # sandwich needs more than the default 64 series terms around e^x
    code, out = run_cli(capsys, "lower", "--k", "2", "--g", "40", "--r", "41")
    assert code == 0
    payload = json.loads(out)
    assert payload["direct"] == str(Fraction(math.factorial(40), 40**40))
    assert payload["formulaAgrees"] is False
    assert payload["sandwich"]["product"] == payload["sandwich"]["multinomialLower"]
    assert payload["sandwich"]["expLimitApprox"] == "~0.000000003398"


def test_enumerate_guard_exit_2(capsys):
    code = main(["enumerate", "--k", "3", "--n", "7"])
    err = capsys.readouterr().err
    assert code == 2
    assert "guard" in err


def spy_order_tables(monkeypatch):
    """Replace `hypergraph._order_tables` by a pass-through that records the
    orders of every table built; returns the list of them."""
    from turankit import hypergraph

    built, tables = [], hypergraph._order_tables

    def spy(n, k, orders):
        built.append(orders)
        return tables(n, k, orders)

    monkeypatch.setattr(hypergraph, "_order_tables", spy)
    return built


def test_enumerate_vertex_guard_builds_no_tables(capsys, monkeypatch):
    # C(100000, 50000) has over 30,000 digits: the vertex guard is tested first
    built = spy_order_tables(monkeypatch)
    for k, n in [("1", "12"), ("50000", "100000")]:
        code = main(["enumerate", "--k", k, "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: enumerate_all: n = {n} exceeds the 8-vertex guard\n"
    assert built == []


@pytest.mark.parametrize("k, n", [("0", "3"), ("3", "-1")])
def test_enumerate_rejects_bad_k_and_n(capsys, k, n):
    code = main(["enumerate", "--k", k, "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: enumerate_all: need k >= 1 and n >= 0, got k={k}, n={n}\n"


def test_table_csv(capsys):
    code, out = run_cli(capsys, "table", "--k", "3", "--r", "5", "--n", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,finiteBound,asymptotic,deCaen,lowerBound"
    assert len(lines) == 3  # g = 3, 4
    first = lines[1].split(",")
    assert first[0] == "3" and first[3] != ""
    second = lines[2].split(",")
    assert second[0] == "4" and second[1] == "10/23" and second[3] == ""


@pytest.mark.parametrize("k, r", [(5, 4), (3, 3)])
def test_table_k_at_least_r_exit_2(capsys, k, r):
    # as `bound` refuses the same (k, r), not a bare CSV header
    code = main(["table", "--k", str(k), "--r", str(r), "--n", "100"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: table: need 2 <= k < r, got k={k}, r={r}\n"


def _stdout_digest(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", list({**pins.STDOUT_SHA256, **pins.CLASS_FILE_SHA256}))
def test_pinned_output(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setenv("TURANKIT_CACHE", str(tmp_path))
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    if command in pins.STDOUT_SHA256:
        assert _stdout_digest(out) == pins.STDOUT_SHA256[command]
    if command in pins.CLASS_FILE_SHA256:
        (path,) = tmp_path.iterdir()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pins.CLASS_FILE_SHA256[command]


def test_benchmark_gates_pin_the_table_certificate(monkeypatch):
    # the certificate gate keeps its own copy of the certificate's two pins
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))
    import gates

    assert gates.CERT_STDOUT_SHA256 == pins.STDOUT_SHA256["certificate"]
    assert gates.CERT_HGR_SHA256 == pins.CLASS_FILE_SHA256["certificate"]


def test_verify_lemma_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "lemma")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["failures"] == 0
    assert payload["checks"] == 1679


def test_verify_claims_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "claims")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == 268
    assert payload["failures"] == 0
    assert payload["verdict"] == "pass"


def test_verify_rows_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "rows")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["checks"] == 310
    assert payload["failures"] == 0
    # literal-mode positives are warnings, never failures
    assert all(w["kind"] == "literal-row-positive" for w in payload["warnings"])


# replacements for relation checks under which every check fails
FAILING_CHECKS = {
    "check_three_term_inequality": lambda G, m, x: InequalityCheck(
        m, Fraction(x), Fraction(-1), False
    ),
    "check_square_intermediate": lambda G, m: False,
    # every row positive: a corrected-mode failure, a literal-mode warning
    "check_relaxed_rows": lambda G, r, mode: [Fraction(1, 7)] * (r - G.k),
    "telescoped_combination": lambda G, g, r, mode: (Fraction(0), Fraction(1)),
}


@pytest.mark.parametrize(
    "suite, check, failures, keys",
    [
        ("lemma", "check_three_term_inequality", 1679, {"graph", "n", "m", "x"}),
        ("claims", "check_square_intermediate", 268, {"graph", "n", "m"}),
        ("rows", "check_relaxed_rows", 62, {"graph", "kind"}),
        ("rows", "telescoped_combination", 248, {"graph", "g", "kind"}),
    ],
)
def test_verify_reports_failing_checks_exit_1(capsys, monkeypatch, suite, check, failures, keys):
    from turankit import relations

    monkeypatch.setattr(relations, check, FAILING_CHECKS[check])
    code, out = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["failures"] == failures
    assert len(payload["counterexamples"]) == 10
    assert all(set(c) == keys for c in payload["counterexamples"])
    if check == "check_relaxed_rows":
        assert {c["kind"] for c in payload["counterexamples"]} == {"corrected-row-positive"}
        assert len(payload["warnings"]) == 10
        assert payload["warnings"][:2] == [
            {"graph": "fffff", "m": 3, "row": "1/7", "kind": "literal-row-positive"},
            {"graph": "fffff", "m": 4, "row": "1/7", "kind": "literal-row-positive"},
        ]
    elif check == "telescoped_combination":
        assert {c["kind"] for c in payload["counterexamples"]} == {"telescoping-mismatch"}


def test_certificate_cli(capsys, tmp_path, certificate_run):
    cache = str(tmp_path / "cache")
    code, out = run_cli(capsys, "certificate", "--cache-dir", cache)
    assert code == 0
    payload = json.loads(out)
    assert payload["graphCount"] == 2102
    assert payload["minSlack"] == "0"
    assert payload["verdict"] == "pass"
    assert f"{(1 << 20) - 1:x}" in payload["tightGraphs"]
    # a rerun replaces the class file and emits identical bytes
    code2, out2 = run_cli(capsys, "certificate", "--cache-dir", cache)
    assert code2 == 0 and out2 == out


def test_cold_certificate_builds_no_six_vertex_relabeling_table(capsys, tmp_path, monkeypatch):
    # orbit minima at 6 vertices read the 5-vertex relabelings of the
    # vertex-last record, and the flag weights, restrictions and lifts read
    # tables of vertex tuples of at most 5 vertices, so a cold run never
    # builds a 720-row table of 6-vertex relabelings: the only 6-vertex
    # orders are those placing one vertex last after the others in order.
    # The classes stay codes of one record: the only Hypergraphs built are
    # the types and flags of the six squares, none per class
    from turankit import certificate, hypergraph

    cached = (
        hypergraph._order_tables,
        hypergraph._vertex_last,
        hypergraph._typed_canon,
        hypergraph._all_classes,
    )
    for fn in cached:
        fn.cache_clear()
    built = spy_order_tables(monkeypatch)
    squares = certificate.certificate_terms()
    flags = {t.sigma for t in squares} | {F for t in squares for _, F in t.terms}
    graphs = []
    check = hypergraph.Hypergraph.__post_init__
    monkeypatch.setattr(
        hypergraph.Hypergraph, "__post_init__", lambda G: graphs.append(G) or check(G)
    )
    code, out = run_cli(capsys, "certificate", "--cache-dir", str(tmp_path))
    assert code == 0
    vertex_last = {(*range(v), *range(v + 1, 6), v) for v in range(6)}
    six = {o for orders in built for o in orders if len(o) >= 6}
    assert built and six <= vertex_last
    assert graphs and set(graphs) <= flags
    assert _stdout_digest(out) == pins.STDOUT_SHA256["certificate"]
    with open(tmp_path / "k3-n6-no-empty-5.hgr", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == pins.CLASS_FILE_SHA256["certificate"]


@pytest.mark.parametrize(
    "content",
    [
        None,  # a forged file: the complete graph alone, validly written
        "HGR1 3 6 1 no-empty-5\nzz\n",
        "HGR1 3 6 2 no-empty-5\n0\n2\n",  # stale and not canonical
    ],
    ids=["forged", "garbage", "stale"],
)
def test_certificate_overwrites_existing_class_file(
    capsys, tmp_path, monkeypatch, certificate_run, content
):
    from turankit import cli, hypergraph

    fresh = tmp_path / "fresh"
    code, out = run_cli(capsys, "certificate", "--cache-dir", str(fresh))
    assert code == 0
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "k3-n6-no-empty-5.hgr"
    if content is None:
        write_hgr(str(path), 3, 6, [(1 << 20) - 1], "no-empty-5")
    else:
        path.write_text(content)

    def unexpected(*args):
        raise AssertionError("certificate read its class file")

    monkeypatch.setattr(hypergraph, "read_hgr", unexpected)
    monkeypatch.setattr(cli, "read_hgr", unexpected, raising=False)
    assert run_cli(capsys, "certificate", "--cache-dir", str(cache)) == (0, out)
    assert path.read_bytes() == (fresh / "k3-n6-no-empty-5.hgr").read_bytes()


def test_text_format(capsys):
    code, out = run_cli(
        capsys,
        "bound", "--k", "3", "--g", "4", "--r", "5", "--n", "100",
        "--format", "text",
    )
    assert code == 0
    assert "finiteBound = 10/23" in out


def test_os_error_exit_4(capsys, tmp_path):
    # --cache-dir naming a regular file cannot hold a cache
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    code = main(["enumerate", "--k", "3", "--n", "4", "--cache-dir", str(not_a_dir)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_empty_cache_dir_is_used(capsys, tmp_path, monkeypatch):
    # an empty --cache-dir names no directory, as an empty TURANKIT_CACHE
    # does: it is not replaced by the default
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TURANKIT_CACHE", raising=False)
    code = main(["enumerate", "--k", "2", "--n", "3", "--cache-dir", ""])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_cross_check_exit_5(capsys, monkeypatch):
    from turankit import bounds

    column = bounds._inverse_column

    def perturbed(m, g):
        col = column(m, g)
        return [col[0] + 1] + col[1:]

    monkeypatch.setattr(bounds, "_inverse_column", perturbed)
    code = main(["solve", "--k", "3", "--r", "5", "--g", "4"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: internal cross-check failed: ")
    assert captured.err.count("\n") == 1


def test_certificate_optimality_witness_exit_5(capsys, monkeypatch, tmp_path):
    from turankit import certificate
    from turankit.flags import ExpansionVector

    vecs = certificate._term_vectors()
    v = vecs[2]  # the m-sum square; one more on the 3+3 class moves its profile average
    nums = dict(v.nums)
    nums[0x600] = nums.get(0x600, 0) + 1
    broken = vecs[:2] + (ExpansionVector(v.k, v.n, nums, v.den),) + vecs[3:]
    monkeypatch.setattr(certificate, "_term_vectors", lambda: broken)
    code = main(["certificate", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == (
        "error: internal cross-check failed: verify_certificate: "
        "m-sum does not average to 0 over the two-cliques profile\n"
    )


@pytest.mark.parametrize("change", ["drop", "repeat", "aut"])
def test_certificate_unproved_class_set_exit_5(capsys, monkeypatch, tmp_path, change):
    # verdict: pass needs the class set proved complete: a dropped class
    # leaves the orbit sizes short of the labelled count, a repeated one is
    # not above the one before it, and an |Aut| must divide 720
    from turankit import certificate

    codes = certificate.e5free_six_classes()
    message = {
        "drop": "the classes' orbits hold ",
        "repeat": f"class code {codes[700]:x} is not above the one before it\n",
        "aut": f"class code {codes[0]:x} has an |Aut| that does not divide 720\n",
    }[change]
    if change == "aut":
        orbit_minima = certificate._orbit_minima

        def times_seven(*args, **kwargs):
            least, aut = orbit_minima(*args, **kwargs)
            return least, aut * 7

        monkeypatch.setattr(certificate, "_orbit_minima", times_seven)
    else:
        broken = codes[:700] + codes[701:] if change == "drop" else codes[:701] + codes[700:]
        monkeypatch.setattr(certificate, "e5free_six_classes", lambda: broken)
    code = main(["certificate", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    prefix = "error: internal cross-check failed: verify_certificate: "
    assert captured.err.startswith(prefix + message)
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # an unproved class set is not written


def test_lower_cross_check_exit_5(capsys, monkeypatch):
    from turankit import bounds

    bounds.partite_lower_bound.cache_clear()  # a kept bound would skip the check
    monkeypatch.setattr(bounds, "_partite_direct", lambda k, g, l: Fraction(1, 2))
    code = main(["lower", "--k", "3", "--g", "4", "--r", "5"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == (
        "error: internal cross-check failed: "
        "partite_lower_bound: corrected sum disagrees with direct\n"
    )


def test_bound_runs_the_partite_cross_check_exit_5(capsys, monkeypatch):
    # `bound` reads its lower bound from `partite_lower_bound`'s record, so a
    # wrong direct value fails the cross-check there as it does for `lower`
    from turankit import bounds

    bounds.partite_lower_bound.cache_clear()  # a kept bound would skip the check
    monkeypatch.setattr(bounds, "_partite_direct", lambda k, g, l: Fraction(1, 2))
    code = main(["bound", "--k", "3", "--g", "4", "--r", "5", "--n", "100"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == (
        "error: internal cross-check failed: "
        "partite_lower_bound: corrected sum disagrees with direct\n"
    )


def test_solve_g_out_of_range_exit_2(capsys):
    code = main(["solve", "--k", "3", "--r", "5", "--g", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_solve_zero_leading_minor_nonsingular(capsys):
    # theta(3) = 0 but the determinant is -1/5: solvable only with pivoting
    code, out = run_cli(
        capsys, "solve", "--k", "3", "--r", "5", "--g", "4", "--eps", "6/5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == ["-5/2", "0"]
    assert payload["determinant"] == "-1/5"


def test_solve_runs_the_minor_recursions_once(capsys, monkeypatch):
    # the tables and the column come from one `recurrences` record, so one
    # solve runs the minor recursion once forward and once reversed
    from turankit import bounds

    calls = []
    minors = bounds._minors

    def counted(diag, offs):
        calls.append(diag)
        return minors(diag, offs)

    bounds._shifted.cache_clear()
    monkeypatch.setattr(bounds, "_minors", counted)
    code, out = run_cli(capsys, "solve", "--k", "3", "--r", "6", "--g", "4", "--eps", "1/100")
    assert code == 0
    assert len(calls) == 2 and calls[1] == calls[0][::-1]
    expected = bounds.solve_delta(3, 4, 6, Fraction(1, 100))
    assert json.loads(out)["delta"] == [str(d) for d in expected]


@pytest.mark.parametrize("eps", ["1/0", "abc"])
def test_solve_names_a_bad_eps(capsys, eps):
    code = main(["solve", "--k", "3", "--r", "5", "--g", "4", "--eps", eps])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --eps: {eps!r} is not a rational number\n"


def test_singular_system_keeps_exit_2(capsys):
    # ZeroDivisionError is an ArithmeticError but stays a parameter error
    code = main(["solve", "--k", "2", "--r", "3", "--g", "2", "--eps", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (["enumerate", "--k", "3", "--n", "4"], "k3-n4-none.hgr"),
        (["certificate"], "k3-n6-no-empty-5.hgr"),
    ],
    ids=["enumerate", "certificate"],
)
def test_class_file_path_is_directory_exit_4(capsys, tmp_path, argv, name):
    cache = tmp_path / "cache"
    (cache / name).mkdir(parents=True)
    assert main(argv + ["--cache-dir", str(cache)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not list(cache.glob("*.tmp.*"))


def test_bounds_commands_start_without_numpy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = (
        "import sys, types\n"
        "def unrun(where):\n"
        "    assert 'numpy' not in sys.modules, where\n"
        "    assert 'dataclasses' not in sys.modules, where\n"
        "    # LazyLoader sets the class back to ModuleType once the module runs\n"
        "    assert type(sys.modules['turankit.bounds']) is not types.ModuleType, where\n"
        "import turankit\n"
        "unrun('import turankit')\n"
        "from turankit import cli\n"
        "unrun('import turankit.cli')\n"
        "for argv in (\n"
        "    ['bound', '--k', '3', '--g', '4', '--r', '5', '--n', '100'],\n"
        "    ['table', '--k', '3', '--r', '9', '--n', '500'],\n"
        "    ['lower', '--k', '3', '--g', '7', '--r', '9'],\n"
        "    ['solve', '--k', '3', '--r', '5', '--g', '4', '--eps', '1/100'],\n"
        "):\n"
        "    assert cli.main(argv) == 0\n"
        "    assert 'numpy' not in sys.modules, argv[0]\n"
        "    assert 'dataclasses' not in sys.modules, argv[0]\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_certificate_leaves_bounds_and_relations_unrun(tmp_path):
    # their compile would land in the cold op the certificate benchmark times
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = (
        "import sys, types\n"
        "from turankit import cli\n"
        f"assert cli.main(['certificate', '--cache-dir', {str(tmp_path)!r}]) == 0\n"
        "for name in ('bounds', 'relations'):\n"
        "    # LazyLoader sets the class back to ModuleType once the module runs\n"
        "    assert type(sys.modules['turankit.' + name]) is not types.ModuleType, name\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


# the public names of the package namespace, each with the submodule that defines it
PUBLIC_NAMES = {
    "bounds": "BoundReport PartiteBound RecurrenceTables SandwichTable TridiagonalSystem "
    "asymptotic_product build_system de_caen_bound inverse_matrix partite_lower_bound "
    "recurrences sandwich_table solve_delta upper_bound",
    "certificate": "CertificateReport CertificateTerm certificate_terms e5free_six_classes "
    "two_clique_density verify_certificate",
    "combinat": "EpsilonMode binomial decimal_string epsilon_threshold epsilon_value "
    "exp_bounds multinomial vertex_threshold x_ratio",
    "flags": "ExpansionVector chain_lift square_expansion",
    "hypergraph": "MAX_VERTICES Hypergraph canonical_mask clique_counts colex_subsets "
    "disjoint_union enumerate_all has_no_empty_set induced_density read_hgr "
    "restriction_class_counts subset_rank tuple_bits write_hgr",
    "relations": "SUITES InequalityCheck check_relaxed_rows check_square_intermediate "
    "check_three_term_inequality telescoped_combination",
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_package_names_resolve_to_their_submodule(module):
    import importlib

    import turankit

    sub = importlib.import_module(f"turankit.{module}")
    assert getattr(turankit, module) is sub
    for name in PUBLIC_NAMES[module].split():
        assert getattr(turankit, name) is getattr(sub, name), name
    with pytest.raises(AttributeError):
        turankit.no_such_name


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_lazy_names_are_each_module_all(module):
    import importlib

    sub = importlib.import_module(f"turankit.{module}")
    assert sorted(sub.__all__) == sorted(PUBLIC_NAMES[module].split())
    assert star_import_names(f"turankit.{module}") == sorted(PUBLIC_NAMES[module].split())


def test_package_star_import_binds_every_public_name():
    # and no helper module the package imports, such as importlib or sys
    names = sorted(name for names in PUBLIC_NAMES.values() for name in names.split())
    assert len(names) == 52
    assert star_import_names("turankit") == names


def star_import_names(module):
    """The names `from <module> import *` binds, sorted, in a fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = (
        "before = set(dir()) | {'before'}\n"
        f"from {module} import *\n"
        "print(*sorted(set(dir()) - before))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_verify_suite_choices_are_the_relation_suites():
    from turankit import cli, relations

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == tuple(relations.SUITES)


# each command's help line, handler and options in --help order, as
# (option strings, dest, type, required, choices, default, help)
_FORMAT = (("--format",), "format", None, False, ("json", "text"), "json", None)
_MODE = (("--mode",), "mode", None, False, ("literal", "corrected"), "literal", None)
_CACHE_DIR = (("--cache-dir",), "cache_dir", None, False, None, None, None)
PARSER_STRUCTURE = {
    "bound": ("finite-n upper bound report", "_cmd_bound", "kgrn", [_MODE, _FORMAT]),
    "table": ("CSV of bounds over g for fixed (k, r, n)", "_cmd_table", "krn", [_MODE]),
    "lower": ("partite lower bound and sandwich values", "_cmd_lower", "kgr", [_FORMAT]),
    "enumerate": (
        "enumerate classes and write an HGR1 cache",
        "_cmd_enumerate",
        "kn",
        [
            (("--filter",), "filter", None, False, None, None, "no-empty-<size>"),
            _CACHE_DIR,
            _FORMAT,
        ],
    ),
    "certificate": (
        "run the 3/8 certificate check",
        "_cmd_certificate",
        "",
        [_CACHE_DIR, _FORMAT],
    ),
    "verify": (
        "run a relation-verification suite",
        "_cmd_verify",
        "",
        [(("--suite",), "suite", None, True, ("lemma", "claims", "rows"), None, None), _FORMAT],
    ),
    "solve": (
        "multiplier vector and recurrence tables",
        "_cmd_solve",
        "krg",
        [(("--eps",), "eps", None, False, None, "0", "rational, e.g. 1/100"), _FORMAT],
    ),
}


def test_parser_structure_is_pinned():
    # the required integer parameters come first, each (("--x",), "x", int, True, ...)
    from turankit import cli

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(PARSER_STRUCTURE)
    helps = {a.dest: a.help for a in commands._choices_actions}
    for name, (help_line, handler, ints, options) in PARSER_STRUCTURE.items():
        sub = commands.choices[name]
        want = [((f"--{x}",), x, int, True, None, None, None) for x in ints] + options
        got = [
            (
                tuple(a.option_strings),
                a.dest,
                a.type,
                a.required,
                None if a.choices is None else tuple(a.choices),
                a.default,
                a.help,
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert (helps[name], sub.get_default("func").__name__, got) == (
            help_line,
            handler,
            want,
        ), name


@pytest.mark.parametrize("command", list(PARSER_STRUCTURE))
def test_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: turankit {command} ")


# each command with its required options: an unknown option after them
# reaches the top-level parser, whose usage lists every command
_VALID_ARGS = {
    "bound": "--k 3 --g 4 --r 5 --n 100",
    "table": "--k 3 --r 5 --n 100",
    "lower": "--k 3 --g 4 --r 5",
    "enumerate": "--k 3 --n 4",
    "certificate": "",
    "verify": "--suite lemma",
    "solve": "--k 3 --r 5 --g 4",
}


def _parse_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    return exit_info.value.code, capsys.readouterr()


@pytest.mark.parametrize("command", list(_VALID_ARGS))
def test_one_command_parser_prints_the_full_parsers_bytes(command, capsys):
    # `main` builds the parser of the named command alone
    from turankit import cli

    assert list(_VALID_ARGS) == [name for name, *_ in cli._COMMANDS]
    for argv in (
        [command, "--help"],
        [command, *_VALID_ARGS[command].split(), "--no-such-option"],
        [command, "--format", "yaml"] if command != "table" else [command, "--mode", "x"],
    ):
        full = _parse_exit(cli.build_parser().parse_args, argv, capsys)
        assert _parse_exit(main, argv, capsys) == full, argv
        assert full[0] in (0, 2)


def test_top_level_help_and_unknown_command_list_every_command(capsys):
    from turankit import cli

    code, captured = _parse_exit(main, ["--help"], capsys)
    assert code == 0
    for name, _, help_line, _ in cli._COMMANDS:
        assert f"    {name:<20}{help_line}\n" in captured.out
    code, captured = _parse_exit(main, ["no-such-command"], capsys)
    names = ", ".join(repr(name) for name, *_ in cli._COMMANDS)
    assert code == 2
    assert captured.err.endswith(f"invalid choice: 'no-such-command' (choose from {names})\n")
