"""One worker process of the benchmark; run.py starts it, one at a time.

    python3 worker.py setup
    python3 worker.py bounds-sweep|verify INPUTS OUT TRACE|-
    python3 worker.py certificate CACHE_DIR OUT TRACE|-

The worker imports turankit.cli first and then writes "ready" on stdout, so
the parent can time set-up from spawn to that line.  It then runs its
operations one after another (closed loop), times each, and writes timings and
outputs as JSON for the parent to check.  The certificate worker's one
operation is `turankit certificate --cache-dir CACHE_DIR`, run through the
CLI's own entry point.  Given a trace file the worker first wraps turankit's
public functions (spans.py) and writes the spans when done; otherwise it
samples its own speed (Speedometer) while it works.
"""

import os
import signal
import sys
import time
from fractions import Fraction

# Speed samples taken just before and just after the import that set-up times.
SETUP_SPEED_SAMPLES = 5


def _ready() -> None:
    """Import turankit.cli and say so on stdout, with the speed kernel's time
    around the import: "ready <kernel seconds> <mean kernel rate>"."""
    durations = [_timed_kernel() for _ in range(SETUP_SPEED_SAMPLES)]
    import turankit.cli  # noqa: F401  -- set-up ends when this import returns

    durations += [_timed_kernel() for _ in range(SETUP_SPEED_SAMPLES)]
    src = os.path.join(os.getcwd(), "src", "turankit")
    if os.path.dirname(os.path.abspath(turankit.cli.__file__)) != src:
        sys.stderr.write(f"worker: turankit imported from outside {src}\n")
        sys.exit(3)
    rate = sum(1 / d for d in durations) / len(durations)
    sys.stdout.write(f"ready {sum(durations)!r} {rate!r}\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    _ready()
    mode = argv[1]
    if mode == "setup":
        return 0

    import json

    from spans import Tracer

    tracer = speed = None
    if argv[4] != "-":
        tracer = Tracer()
        tracer.install()
    if mode == "certificate":
        items = [argv[2]]
        run_op, record = _certificate_ops(tracer)
    else:
        with open(argv[2], encoding="ascii") as fh:
            items = json.load(fh)
        run_op, record = OPS[mode]()
    if tracer is None:
        speed = Speedometer()
        speed.start()
    result = _batch(items, run_op, record, tracer, speed)
    if speed is not None:
        speed.stop()
        result["speed"] = speed.samples
    if tracer is not None:
        result["layers"] = _layer_values(tracer)
        tracer.write(argv[4], {"workload": mode, "summary": result["layers"]["summary"]})
    with open(argv[3], "w", encoding="ascii") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


class Speedometer:
    """Tracks how fast this process runs while the machine's speed swings.

    A timer signal runs a fixed pure-Python kernel every INTERVAL_S seconds, in
    this process and so on the CPU doing the work, and records when it started
    and how long it took.  `spent` is the kernel time so far, which op timings
    leave out.
    """

    INTERVAL_S = 0.01

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        took = _timed_kernel()
        self.samples.append((t0, took))
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def _kernel() -> None:
    """About a quarter of a millisecond of the interpreter work turankit does:
    rational arithmetic, tuple keys and dict updates."""
    acc = Fraction(0)
    for i in range(1, 20):
        acc += Fraction(i % 89 + 1, i + 5) * Fraction(5, i % 11 + 2)
    table = {}
    for i in range(200):
        table[(i * 104729) % 4099] = (i, i >> 1)


def _batch(items, run_op, record, tracer, speed) -> dict:
    """Closed loop over the inputs; each op starts after the previous returns.

    Each op is kept as (start, end, kernel seconds inside it)."""
    clock = time.perf_counter
    ops, raw = [], []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
        spent = speed.spent if speed is not None else 0.0
        t0 = clock()
        try:
            out = run_op(item)
        except Exception as exc:  # a failing op is counted, the batch goes on
            out = exc
        t1 = clock()
        ops.append((t0, t1, (speed.spent if speed is not None else 0.0) - spent))
        raw.append(out)
    records = [
        {"error": repr(out)} if isinstance(out, Exception) else record(item, out)
        for item, out in zip(items, raw)
    ]
    return {"ops": ops, "records": records}


def _bounds_ops():
    """One query: the bound report, the multiplier vector, the full inverse,
    the partite lower bound and, where (k-1) divides (r-1), the sandwich."""
    from math import floor

    from turankit import bounds
    from turankit.combinat import EpsilonMode, epsilon_threshold, vertex_threshold

    def run(q):
        k, g, r = q["k"], q["g"], q["r"]
        mode = EpsilonMode(q["mode"])
        n = floor(max(vertex_threshold(k, r, mode), r)) + q["n_extra"]
        eps = epsilon_threshold(k, r) * Fraction(q["eps_step"], q["eps_steps"])
        report = bounds.upper_bound(k, g, r, n, mode)
        delta = bounds.solve_delta(k, g, r, eps)
        inverse = bounds.inverse_matrix(bounds.build_system(k, r), eps)
        partite = bounds.partite_lower_bound(k, g, (r - 1) // (k - 1))
        sandwich = bounds.sandwich_table(k, r) if (r - 1) % (k - 1) == 0 else None
        return n, eps, report, delta, inverse, partite, sandwich

    def record(q, out) -> dict:
        n, eps, report, delta, inverse, partite, sandwich = out
        return {
            "k": q["k"],
            "g": q["g"],
            "r": q["r"],
            "mode": q["mode"],
            "n": n,
            "eps": str(eps),
            "finiteFactor": str(report.finite_factor),
            "asymptotic": str(report.asymptotic),
            "finiteBound": str(report.finite_bound),
            "deCaen": None if report.de_caen is None else str(report.de_caen),
            "lowerBound": None if report.lower_bound is None else str(report.lower_bound),
            "delta": [str(d) for d in delta],
            "inverse": [[str(x) for x in row] for row in inverse],
            "partite": [str(partite.direct), str(partite.formula)],
            "sandwich": None
            if sandwich is None
            else [str(sandwich.multinomial_lower), str(sandwich.product), sandwich.exp_limit_approx],
        }

    return run, record


# r of `turankit verify --suite rows`; square moments are checked for m <= SQUARE_MAX.
VERIFY_R = 5
SQUARE_MAX = 4


def _verify_ops():
    """One host: the relation battery of `turankit verify` -- three-term checks
    on the lemma suite's x grid, square moments, relaxed rows in both modes and
    telescoping for each g in both modes."""
    from turankit import relations
    from turankit.combinat import EpsilonMode, x_ratio
    from turankit.hypergraph import Hypergraph

    xs = {Fraction(j, 8) for j in range(1, 17)}
    xs.update(x_ratio(3, m, r) for r in range(5, 9) for m in (3, 4))
    x_grid = sorted(xs)

    def run(h):
        G = Hypergraph(h["n"], h["k"], h["mask"])
        k, n, r = G.k, G.n, VERIFY_R
        three = [
            relations.check_three_term_inequality(G, m, x) for m in range(k, n) for x in x_grid
        ]
        square = [
            relations.check_square_intermediate(G, m)
            for m in range(k, min(SQUARE_MAX, n - 1) + 1)
        ]
        rows = {mode: relations.check_relaxed_rows(G, r, mode) for mode in EpsilonMode}
        tele = [
            (g, mode.value, *relations.telescoped_combination(G, g, r, mode))
            for g in range(k, r)
            for mode in EpsilonMode
        ]
        return three, square, rows, tele

    def record(h, out) -> dict:
        three, square, rows, tele = out
        return {
            "three_term_checks": len(three),
            "three_term_holds": all(c.holds for c in three),
            "three_term_min_slack": str(min(c.slack for c in three)),
            "square": square,
            "rows_corrected": [str(v) for v in rows[EpsilonMode.CORRECTED]],
            "rows_literal_positive": sum(v > 0 for v in rows[EpsilonMode.LITERAL]),
            "telescoping": [[g, mode, str(lhs), str(rhs)] for g, mode, lhs, rhs in tele],
        }

    return run, record


OPS = {"bounds-sweep": _bounds_ops, "verify": _verify_ops}


def _certificate_ops(tracer):
    """The op runs the CLI entry point in this process; the traced run then
    re-reads the class file it wrote."""
    import contextlib
    import io

    import turankit.cli
    import turankit.hypergraph

    def run(cache_dir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = turankit.cli.main(["certificate", "--cache-dir", cache_dir])
        return code, buf.getvalue()

    def record(cache_dir, out) -> dict:
        code, stdout = out
        reread = None
        files = [f for f in os.listdir(cache_dir) if f.endswith(".hgr")]
        if tracer is not None and len(files) == 1:
            tracer.op = 1
            reread = len(turankit.hypergraph.read_hgr(os.path.join(cache_dir, files[0]))[3])
        return {"exit": code, "stdout": stdout, "reread_classes": reread}

    return run, record


def _layer_values(tracer) -> dict:
    """Per-layer numbers derived from the spans, keyed by metric name."""
    summary = tracer.summary()
    values: dict[str, float] = {}
    for name, row in summary["by_name"].items():
        values[f"{name}.s"] = row["s"]
        values[f"{name}.calls"] = row["calls"]
    counts = {
        "hypergraph.enumerate_all.classes": "hypergraph.enumerate_all",
        "certificate.e5free_six_classes.classes": "certificate.e5free_six_classes",
        "certificate.verify_certificate.tight": "certificate.verify_certificate",
        "hgr.bytes": "hypergraph.write_hgr",
    }
    for metric, name in counts.items():
        row = summary["by_name"].get(name)
        if row and "count_max" in row:
            values[metric] = row["count_max"]
    # A square expansion at its base size excludes the chain lift it ends with;
    # the certificate check with warm vectors excludes the six expansions.
    for name, s in tracer.time_outside("flags.square_expansion.", "flags.chain_lift.").items():
        values[f"{name}.s"] = s
    outside = tracer.time_outside("certificate.verify_certificate", "flags.square_expansion.")
    if outside:
        values["certificate.verify_certificate.s"] = sum(outside.values())
    values["hypergraph.restriction_class_counts.fills"] = sum(
        per.get("hypergraph.restriction_class_counts", 0)
        for per in summary["fills_by_span"].values()
    )
    values["summary"] = summary
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv))
