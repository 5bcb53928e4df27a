"""Command-line front end: bound reports, enumerations, certificate runs.

Exit codes: 0 success, 1 a checked mathematical statement failed (negative
certificate slack, refuted inequality), 2 usage or parameter-range error
(including a singular shifted system), 4 an operating-system error (e.g.
`--cache-dir` naming a regular file), 5 an internal cross-check failed (a
result disagrees with an independent route or check).  Code 3 is unused:
no command reads a file.  A command that fails prints one `error:` line to
stderr.  All rationals are serialized as exact "p/q" strings; decimal
renderings are always marked as approximations.  Output for identical
inputs is byte-identical.

`enumerate` and `certificate` write the classes they enumerated to an HGR1
class file, an output only: a file already at that path is replaced
atomically (exclusive-create, then rename), never read.  `certificate`
writes it once its check has proved the class set complete.

Importing this module runs only `combinat`; every other submodule loads as
a command first uses it.  `bound`, `table`, `lower` and `solve` load
`bounds`, which needs neither numpy nor `dataclasses`; `enumerate` loads
`hypergraph`, `certificate` also `flags` and `certificate`, and `verify`
`relations` (and through it `bounds`), all with numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from . import bounds, certificate, hypergraph, relations
from .combinat import EpsilonMode, decimal_string, epsilon_threshold

CACHE_ENV = "TURANKIT_CACHE"
DEFAULT_CACHE_DIR = ".hgr-cache"


def _frac(value) -> str:
    return str(Fraction(value))


def _approx(value) -> str:
    return f"~{decimal_string(Fraction(value))}"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")


def _mode(args) -> EpsilonMode:
    return EpsilonMode(args.mode)


def _write_classes(args, k: int, n: int, tag: str, codes) -> str:
    """Write the class codes to `k{k}-n{n}-{tag}.hgr` in the cache directory,
    replacing any file there; returns the path."""
    directory = args.cache_dir
    if directory is None:  # an empty --cache-dir is used, as an empty TURANKIT_CACHE is
        directory = os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"k{k}-n{n}-{tag}.hgr")
    hypergraph.write_hgr(path, k, n, codes, tag)
    return path


def _bound_payload(report: bounds.BoundReport) -> dict:
    return {
        "k": report.k,
        "g": report.g,
        "r": report.r,
        "n": report.n,
        "mode": report.mode.value,
        "finiteFactor": _frac(report.finite_factor),
        "asymptotic": _frac(report.asymptotic),
        "finiteBound": _frac(report.finite_bound),
        "finiteBoundApprox": _approx(report.finite_bound),
        "deCaen": _frac(report.de_caen) if report.de_caen is not None else None,
        "lowerBound": _frac(report.lower_bound),
        "vacuous": report.finite_bound >= 1,
    }


def _cmd_bound(args) -> int:
    report = bounds.upper_bound(args.k, args.g, args.r, args.n, _mode(args))
    _emit(_bound_payload(report), args.format)
    return 0


def _cmd_table(args) -> int:
    import csv
    if not 2 <= args.k < args.r:  # else the g range is empty
        raise ValueError(f"table: need 2 <= k < r, got k={args.k}, r={args.r}")
    mode = _mode(args)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=["g", "finiteBound", "asymptotic", "deCaen", "lowerBound"],
        extrasaction="ignore",
    )
    writer.writeheader()
    for g in range(args.k, args.r):
        writer.writerow(_bound_payload(bounds.upper_bound(args.k, g, args.r, args.n, mode)))
    sys.stdout.write(buffer.getvalue())
    return 0


def _cmd_lower(args) -> int:
    k, g, r = args.k, args.g, args.r
    if not (2 <= k <= g < r):
        raise ValueError(f"lower: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    l = (r - 1) // (k - 1)
    part = bounds.partite_lower_bound(k, g, l)
    payload = {
        "k": k,
        "g": g,
        "r": r,
        "groups": l,
        "direct": _frac(part.direct),
        "directApprox": _approx(part.direct),
        "inclusionExclusion": _frac(part.formula),
        "formulaAgrees": part.direct == part.formula,
        "sandwich": None,
    }
    if (r - 1) % (k - 1) == 0:
        sand = bounds.sandwich_table(k, r)
        payload["sandwich"] = {
            "multinomialLower": _frac(sand.multinomial_lower),
            "product": _frac(sand.product),
            "expLimitApprox": sand.exp_limit_approx,
        }
    _emit(payload, args.format)
    return 0


def _parse_filter(value: Optional[str]):
    """Filter string `no-empty-M`, M in ASCII digits: keep classes where
    every M-subset spans an edge.  Returns (tag, M or None)."""
    if value is None:
        return "none", None
    # [0-9], not str.isdigit, which also takes other scripts' digits and superscripts
    match = re.fullmatch(r"no-empty-([0-9]+)", value)
    if match:
        return value, int(match[1])
    raise ValueError(f"unknown filter {value!r}; expected no-empty-<size>")


def _cmd_enumerate(args) -> int:
    tag, size = _parse_filter(args.filter)
    codes = hypergraph._class_codes(args.n, args.k, size)[1]
    path = _write_classes(args, args.k, args.n, tag, codes)
    _emit(
        {
            "k": args.k,
            "n": args.n,
            "filter": tag,
            "count": len(codes),
            "cache": path,
        },
        args.format,
    )
    return 0


def _cmd_certificate(args) -> int:
    report = certificate.verify_certificate()  # proves the class set complete first
    _write_classes(args, 3, 6, "no-empty-5", tuple(report.slacks))  # the checked codes, ascending
    payload = {
        "k": report.k,
        "n": report.n,
        "graphCount": report.graph_count,
        "minSlack": _frac(report.min_slack),
        "tightGraphs": [f"{code:x}" for code in report.tight_graphs],
        "verdict": report.verdict,
    }
    _emit(payload, args.format)
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):  # "abc", "1/0"
        raise ValueError(f"--eps: {args.eps!r} is not a rational number") from None
    tables = bounds.recurrences(bounds.build_system(args.k, args.r), eps)
    delta = bounds.solve_delta(args.k, args.g, args.r, eps)
    payload = {
        "k": args.k,
        "r": args.r,
        "g": args.g,
        "eps": _frac(eps),
        "delta": [_frac(d) for d in delta],
        "theta": [_frac(t) for t in tables.theta],
        "phi": [_frac(p) for p in tables.phi],
        "zeta": [_frac(z) for z in tables.zeta],
        "determinant": _frac(tables.determinant),
        "nonpositiveEntries": [
            {"table": table, "m": m} for table, m in tables.nonpositive_entries()
        ],
        "belowThreshold": eps < epsilon_threshold(args.k, args.r),
    }
    _emit(payload, args.format)
    return 0


def _cmd_verify(args) -> int:
    checks, failures, warnings = relations.SUITES[args.suite]()
    payload = {
        "suite": args.suite,
        "checks": checks,
        "failures": len(failures),
        "counterexamples": failures[:10],
        "warnings": warnings[:10],
        "verdict": "pass" if not failures else "fail",
    }
    _emit(payload, args.format)
    return 0 if not failures else 1


# the options of every command by flag, one spec each: a flag means the same on every command
_OPTIONS = {
    **dict.fromkeys(("--k", "--g", "--r", "--n"), {"type": int, "required": True}),
    "--mode": {"choices": [m.value for m in EpsilonMode], "default": "literal"},
    "--format": {"choices": ("json", "text"), "default": "json"},
    "--cache-dir": {"default": None},
    "--filter": {"default": None, "help": "no-empty-<size>"},
    # relations.SUITES, spelled out: building the parser does not load relations
    "--suite": {"choices": ("lemma", "claims", "rows"), "required": True},
    "--eps": {"default": "0", "help": "rational, e.g. 1/100"},
}

# (command, handler, help line, options in --help order)
_COMMANDS = (
    ("bound", _cmd_bound, "finite-n upper bound report", "--k --g --r --n --mode --format"),
    ("table", _cmd_table, "CSV of bounds over g for fixed (k, r, n)", "--k --r --n --mode"),
    ("lower", _cmd_lower, "partite lower bound and sandwich values", "--k --g --r --format"),
    (
        "enumerate",
        _cmd_enumerate,
        "enumerate classes and write an HGR1 cache",
        "--k --n --filter --cache-dir --format",
    ),
    ("certificate", _cmd_certificate, "run the 3/8 certificate check", "--cache-dir --format"),
    ("verify", _cmd_verify, "run a relation-verification suite", "--suite --format"),
    ("solve", _cmd_solve, "multiplier vector and recurrence tables", "--k --r --g --eps --format"),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone when it names one
    (argparse takes milliseconds to set up all seven).  Its usage still
    lists every command, so both print the same bytes after the command."""
    parser = argparse.ArgumentParser(
        prog="turankit",
        description="Exact clique-density bounds and certificates for uniform hypergraphs",
    )
    names = [name for name, *_ in _COMMANDS]
    one = {"metavar": "{" + ",".join(names) + "}"} if command in names else {}
    sub = parser.add_subparsers(dest="command", required=True, **one)
    for name, func, help_line, flags in _COMMANDS:
        if one and name != command:
            continue
        p = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(*argv[:1]).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:  # after ZeroDivisionError, its subclass
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
