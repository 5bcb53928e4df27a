"""Correctness gates for the three workloads, and tampered copies they must reject.

Each gate takes what the program produced and returns a list of problems; an
empty list means the result is correct.  `tamper_*` returns altered copies of
a correct result, each of which its gate has to reject; a run whose gate
accepts a tampered copy is not trusted.
"""

from __future__ import annotations

import copy
import hashlib
import json
from fractions import Fraction

CERT_GRAPH_COUNT = 2102
CERT_TIGHT = ["f", "1c", "3ff", "600", "fffff"]
# `turankit certificate` stdout (default JSON format) and the HGR1 class file it
# writes into an empty cache directory.
CERT_STDOUT_SHA256 = "0db83a97a49858eb2a0aaa202ddddf3b53e8428b862b679f979f3db5b7c89f48"
CERT_HGR_SHA256 = "dbfd8a9e29df35d774d0f6d2916a963ca91c241d368baec01806641734398624"

# Digest of every bounds-sweep output of batch 0 at this seed.
BOUNDS_PINNED_SEED = 1
BOUNDS_SHA256 = "64d144f38fbb596c4da37d89c8c8ac3bb41946cfaf0d05f31b1590b3cebdbdf5"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def certificate_gate(result: dict) -> list[str]:
    """result: exit code, stdout text, the bytes of the one HGR file written
    and, on the traced run, the class count read back from that file."""
    problems = []
    if result["exit"] != 0:
        problems.append(f"exit code {result['exit']}")
    try:
        payload = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return problems + ["stdout is not JSON"]
    expected = {
        "graphCount": CERT_GRAPH_COUNT,
        "minSlack": "0",
        "verdict": "pass",
        "tightGraphs": CERT_TIGHT,
    }
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{key} = {payload.get(key)!r}, expected {value!r}")
    if sha256(result["stdout"].encode()) != CERT_STDOUT_SHA256:
        problems.append("stdout digest differs from the pinned one")
    if result["hgr"] is None:
        problems.append("no single HGR file was written")
    elif sha256(result["hgr"]) != CERT_HGR_SHA256:
        problems.append("HGR file digest differs from the pinned one")
    if result.get("reread_classes") not in (None, CERT_GRAPH_COUNT):
        problems.append(f"re-read class file holds {result['reread_classes']} classes")
    return problems


def tamper_certificate(result: dict) -> dict[str, dict]:
    out = {}
    payload = json.loads(result["stdout"])
    for name, key, value in (
        ("minSlack", "minSlack", "-1/24"),
        ("graphCount", "graphCount", CERT_GRAPH_COUNT - 1),
        ("tightGraphs", "tightGraphs", CERT_TIGHT[:-1]),
    ):
        bad = dict(payload, **{key: value})
        out[name] = dict(result, stdout=json.dumps(bad, indent=2) + "\n")
    out["exit"] = dict(result, exit=1)
    hgr = bytearray(result["hgr"] or b"\n")
    hgr[-2:-1] = b"0" if hgr[-2:-1] != b"0" else b"1"
    out["hgr"] = dict(result, hgr=bytes(hgr))
    return out


def bounds_gate(record: dict) -> list[str]:
    """Per query: the g-column of the inverse equals the solved multiplier
    vector, and the finite bound is the finite factor times the limit."""
    if "error" in record:
        return [record["error"]]
    problems = []
    col = record["g"] - record["k"]
    column = [row[col] for row in record["inverse"]]
    if [Fraction(x) for x in column] != [Fraction(x) for x in record["delta"]]:
        problems.append("inverse column g differs from solve_delta")
    factor, limit = Fraction(record["finiteFactor"]), Fraction(record["asymptotic"])
    if Fraction(record["finiteBound"]) != factor * limit:
        problems.append("finiteBound != finiteFactor * asymptotic")
    return problems


def bounds_digest(records: list[dict]) -> str:
    return sha256(json.dumps(records, sort_keys=True, separators=(",", ":")).encode())


def tamper_bounds(record: dict) -> dict[str, dict]:
    flipped = copy.deepcopy(record)
    flipped["finiteBound"] = str(-Fraction(record["finiteBound"]))
    moved = copy.deepcopy(record)
    moved["delta"][-1] = str(Fraction(record["delta"][-1]) + Fraction(1, 10**9))
    return {"finiteBound": flipped, "delta": moved}


def verify_gate(record: dict) -> list[str]:
    """Per host: every check holds and every telescoping identity is exact."""
    if "error" in record:
        return [record["error"]]
    problems = []
    if not record["three_term_holds"] or Fraction(record["three_term_min_slack"]) < 0:
        problems.append("a three-term inequality fails")
    if not all(record["square"]):
        problems.append("a square-moment identity fails")
    if any(Fraction(row) > 0 for row in record["rows_corrected"]):
        problems.append("a corrected relaxed row is positive")
    for g, mode, lhs, rhs in record["telescoping"]:
        if Fraction(lhs) != Fraction(rhs):
            problems.append(f"telescoping g={g} {mode} is not exact")
    return problems


def tamper_verify(record: dict) -> dict[str, dict]:
    slack = copy.deepcopy(record)
    slack["three_term_min_slack"] = "-1/2"
    square = copy.deepcopy(record)
    square["square"][0] = False
    row = copy.deepcopy(record)
    row["rows_corrected"][0] = "1/7"
    tele = copy.deepcopy(record)
    tele["telescoping"][0][3] = str(Fraction(tele["telescoping"][0][3]) + Fraction(1, 1000))
    return {"three_term": slack, "square": square, "row": row, "telescoping": tele}


def rejected(gate, tampered: dict[str, dict]) -> dict[str, bool]:
    """For each tampered copy, whether the gate rejected it."""
    return {name: bool(gate(bad)) for name, bad in tampered.items()}
