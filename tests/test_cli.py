import json
import os
from fractions import Fraction

import pytest

from turankit.cli import main
from turankit.hypergraph import Hypergraph, read_hgr, write_hgr


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


def test_enumerate_bad_filter(capsys):
    code = main(["enumerate", "--k", "3", "--n", "4", "--filter", "weird"])
    assert code == 2


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


def test_enumerate_guard_exit_2(capsys):
    code = main(["enumerate", "--k", "3", "--n", "7"])
    err = capsys.readouterr().err
    assert code == 2
    assert "guard" in err


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


def test_certificate_cli(capsys, tmp_path, certificate_run):
    cache = str(tmp_path / "cache")
    code, out = run_cli(capsys, "certificate", "--cache-dir", cache)
    assert code == 0
    payload = json.loads(out)
    assert payload["graphCount"] == 2102
    assert payload["minSlack"] == "0"
    assert payload["verdict"] == "pass"
    assert f"{(1 << 20) - 1:x}" in payload["tightGraphs"]
    # the cache was auto-built; a rerun loads it and emits identical bytes
    assert os.path.exists(os.path.join(cache, "k3-n6-no-empty-5.hgr"))
    code2, out2 = run_cli(capsys, "certificate", "--cache-dir", cache)
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize(
    "code", [(1 << 20) - 1, 0], ids=["complete-graph-only", "empty-graph-only"]
)
def test_certificate_rejects_forged_cache(capsys, tmp_path, code):
    # a one-class cache, whether the complete graph (admissible, tight) or
    # the empty graph (not admissible), must not stand in for the 2102
    # enumerated classes
    cache = tmp_path / "cache"
    cache.mkdir()
    path = str(cache / "k3-n6-no-empty-5.hgr")
    write_hgr(path, 3, 6, [Hypergraph(6, 3, code)], "no-empty-5")
    assert main(["certificate", "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "differ from the enumeration (1 cached, 2102 enumerated)" in captured.err


def test_certificate_rejects_unreadable_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "k3-n6-no-empty-5.hgr").write_text("HGR1 3 6 1 no-empty-5\nzz\n")
    assert main(["certificate", "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


def test_failed_cross_check_exit_5(capsys, monkeypatch):
    from turankit import bounds

    entry = bounds._entry_from_tables

    def perturbed(sys, tab, m, g):
        value = entry(sys, tab, m, g)
        return value + Fraction(1, 10**9) if m == sys.k else value

    monkeypatch.setattr(bounds, "_entry_from_tables", perturbed)
    code = main(["solve", "--k", "3", "--r", "5", "--g", "4"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: internal cross-check failed: ")
    assert captured.err.count("\n") == 1


def test_solve_zero_leading_minor_nonsingular(capsys):
    # theta(3) = 0 but the determinant is -1/5: solvable only with pivoting
    code, out = run_cli(
        capsys, "solve", "--k", "3", "--r", "5", "--g", "4", "--eps", "6/5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == ["-5/2", "0"]
    assert payload["determinant"] == "-1/5"


def test_singular_system_keeps_exit_2(capsys):
    # ZeroDivisionError is an ArithmeticError but stays a parameter error
    code = main(["solve", "--k", "2", "--r", "3", "--g", "2", "--eps", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_certificate_rejects_noncanonical_cache(capsys, tmp_path):
    # ascending codes, but 2 (the single edge {0,1,3}) is not canonical
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "k3-n6-no-empty-5.hgr").write_text("HGR1 3 6 2 no-empty-5\n0\n2\n")
    assert main(["certificate", "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "code 2 is not canonical" in captured.err
    assert captured.err.count("\n") == 1


def test_certificate_cache_path_is_directory_exit_3(capsys, tmp_path):
    cache = tmp_path / "cache"
    (cache / "k3-n6-no-empty-5.hgr").mkdir(parents=True)
    assert main(["certificate", "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_certificate_rejects_duplicate_code_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "k3-n6-no-empty-5.hgr").write_text("HGR1 3 6 2 no-empty-5\n0\n0\n")
    assert main(["certificate", "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not strictly ascending" in captured.err
    assert captured.err.count("\n") == 1


def test_certificate_rejects_oversized_header_before_canonicalizing(
    capsys, tmp_path, monkeypatch
):
    from turankit import hypergraph

    calls = []
    monkeypatch.setattr(hypergraph, "canonical_mask", calls.append)
    cache = tmp_path / "cache"
    cache.mkdir()
    dense = (1 << 70) - 3  # two dense (8,4) codes take seconds to canonicalize
    (cache / "k3-n6-no-empty-5.hgr").write_text(
        f"HGR1 4 8 2 no-empty-5\n{dense:x}\n{dense + 1:x}\n"
    )
    assert main(["certificate", "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "C(8,4) exceeds the 20-bit guard" in captured.err
    assert captured.err.count("\n") == 1
    assert calls == []
