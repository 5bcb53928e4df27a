"""Span recorder that times calls into turankit's public functions from outside.

`install` replaces each target function, in every turankit module that holds
it, with a wrapper that records one span per call: name, start, end, parent
span and the operation id the worker set.  Spans sit in flat arrays in memory
and are written out once, when the worker ends.  Self time is derived
afterwards.

The package's lru_caches are shared between public calls, so a tracked span
is charged with the cache fills (misses) that happened inside it and not
inside a tracked descendant.  The two hottest leaves, `canonical_mask` and
`restriction_class_counts`, are not tracked: snapshotting every cache around
each of their calls would cost more than the calls, and their fills land on
the nearest tracked ancestor, which is the span that paid for them.

No wrapped function calls itself, so a name's total time is the plain sum of
its spans.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

LEAF = {"track": False}


def _unfiltered_classes(args, kwargs, result):
    """Class count of an enumeration without a predicate (2136 at (6,3))."""
    predicate = args[2] if len(args) > 2 else kwargs.get("predicate")
    return len(result) if predicate is None else None


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _square_label(args, kwargs, parent):
    """Name a square expansion after the certificate term it expands."""
    from turankit.certificate import certificate_terms

    sigma, terms, constant = args[0], tuple(args[1]), args[2]
    for term in certificate_terms():
        if (term.sigma, term.terms, term.constant) == (sigma, terms, constant):
            return f"flags.square_expansion.{term.label}"
    return "flags.square_expansion.other"


def _lift_label(args, kwargs, parent):
    """A chain lift inherits the label of the square expansion that ran it."""
    prefix = "flags.square_expansion."
    label = parent[len(prefix):] if parent.startswith(prefix) else "direct"
    return f"flags.chain_lift.{label}"


# (module, function, options).  `count` keeps one number per call, `name`
# derives the span name from the arguments and the parent span's name.
TARGETS = (
    ("cli", "main", {}),
    ("hypergraph", "enumerate_all", {"count": _unfiltered_classes}),
    ("hypergraph", "write_hgr", {"count": _file_bytes}),
    ("hypergraph", "read_hgr", {}),
    ("hypergraph", "canonical_mask", LEAF),
    ("hypergraph", "restriction_class_counts", LEAF),
    ("certificate", "e5free_six_classes", {"count": lambda a, k, res: len(res)}),
    ("certificate", "verify_certificate", {"count": lambda a, k, res: len(res.tight_graphs)}),
    ("flags", "square_expansion", {"name": _square_label}),
    ("flags", "chain_lift", {"name": _lift_label}),
    ("relations", "check_three_term_inequality", {}),
    ("relations", "check_square_intermediate", {}),
    ("relations", "check_relaxed_rows", {}),
    ("relations", "telescoped_combination", {}),
    ("bounds", "upper_bound", {}),
    ("bounds", "build_system", {}),
    ("bounds", "solve_delta", {}),
    ("bounds", "inverse_matrix", {}),
    ("bounds", "sandwich_table", {}),
    ("bounds", "partite_lower_bound", {}),
)


class Tracer:
    """Flat in-memory span store; `op` is the operation id stamped on new spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, float] = {}
        self.fills: dict[int, tuple[int, ...]] = {}
        self.stack = [-1]
        self.op = -1
        self.cache_names: list[str] = []
        self._caches: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _misses(self) -> list[int]:
        return [c.cache_info().misses for c in self._caches]

    def wrap(self, fn, name: str, track: bool = True, count=None, name_fn=None):
        fixed = self._id(name) if name_fn is None else -1
        names, name_id, parent, op_id = self.names, self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            if name_fn is None:
                nid = fixed
            else:
                nid = self._id(name_fn(args, kwargs, names[name_id[up]] if up >= 0 else ""))
            name_id.append(nid)
            parent.append(up)
            op_id.append(self.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            before = self._misses() if track else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if track:
                    self.fills[idx] = tuple(a - b for a, b in zip(self._misses(), before))
            if count is not None:
                value = count(args, kwargs, result)
                if value is not None:
                    self.counts[idx] = value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in each loaded turankit module that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "turankit"]
        seen = set()
        for mod in modules:
            for attr, value in vars(mod).items():
                if hasattr(value, "cache_info") and id(value) not in seen:
                    seen.add(id(value))
                    owner = value.__module__.split(".")[-1]
                    self.cache_names.append(f"{owner}.{value.__qualname__}")
                    self._caches.append(value)
        for short, fname, opts in TARGETS:
            orig = getattr(sys.modules[f"turankit.{short}"], fname)
            wrapped = self.wrap(
                orig,
                f"{short}.{fname}",
                track=opts.get("track", True),
                count=opts.get("count"),
                name_fn=opts.get("name"),
            )
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def _timing(self) -> tuple[list[float], list[float]]:
        """Duration of each span and the part of it its children cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, child

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, counts, and cache fills
        charged to the span that paid for them."""
        n = len(self.start)
        dur, child = self._timing()
        by_name: dict[str, dict] = {}
        for i in range(n):
            row = by_name.setdefault(
                self.names[self.name_id[i]], {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for i, value in self.counts.items():
            row = by_name[self.names[self.name_id[i]]]
            row["count_max"] = max(row.get("count_max", value), value)
        paid = {i: list(delta) for i, delta in self.fills.items()}
        for i, delta in self.fills.items():
            p = self.parent[i]
            while p >= 0 and p not in self.fills:
                p = self.parent[p]
            if p >= 0:
                paid[p] = [a - b for a, b in zip(paid[p], delta)]
        fills: dict[str, dict[str, int]] = {}
        paying = []
        for i, delta in sorted(paid.items()):
            charged = {c: d for c, d in zip(self.cache_names, delta) if d}
            if not charged:
                continue
            name = self.names[self.name_id[i]]
            per = fills.setdefault(name, {})
            for c, d in charged.items():
                per[c] = per.get(c, 0) + d
            if len(paying) < 200:
                paying.append({"span": name, "op": self.op_id[i], "s": dur[i], "fills": charged})
        return {"by_name": by_name, "fills_by_span": fills, "paying_spans": paying}

    def time_outside(self, parent_prefix: str, child_prefix: str) -> dict[str, float]:
        """Seconds of `parent_prefix*` spans spent outside their `child_prefix*`
        children, keyed by parent name."""
        dur, _ = self._timing()
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            if name.startswith(parent_prefix):
                out[name] = out.get(name, 0.0) + dur[i]
        for i in range(len(self.start)):
            p = self.parent[i]
            if p < 0 or not self.names[self.name_id[i]].startswith(child_prefix):
                continue
            pname = self.names[self.name_id[p]]
            if pname.startswith(parent_prefix):
                out[pname] -= dur[i]
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write every span (microseconds from the first span) plus `extra`."""
        t0 = self.start[0] if len(self.start) else 0.0
        n = len(self.start)
        dur, child = self._timing()
        doc = dict(extra)
        doc["names"] = self.names
        doc["caches"] = self.cache_names
        doc["spans"] = {
            "name": list(self.name_id),
            "parent": list(self.parent),
            "op": list(self.op_id),
            "start_us": [round((self.start[i] - t0) * 1e6) for i in range(n)],
            "end_us": [round((self.end[i] - t0) * 1e6) for i in range(n)],
            "self_us": [round((dur[i] - child[i]) * 1e6) for i in range(n)],
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
