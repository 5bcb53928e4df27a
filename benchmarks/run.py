"""Benchmark of turankit's proof path: a cold certificate, a bounds sweep, relation checks.

Run from the repository root:

    python3 benchmarks/run.py --workload certificate|bounds-sweep|verify \\
        --seed N --seconds S --trace 0|1

Workloads (closed loop: one caller, each operation starts after the previous
one returns; one worker process at a time, no threads):

* certificate  -- one cold `turankit certificate --cache-dir <empty dir>`, run
  through the CLI entry point in a fresh worker process: enumeration, the class
  file, the six square expansions and 2102 slacks.  The input is fixed; the
  seed is unused.
* bounds-sweep -- 1050 seeded queries (10 per (k, r), 2 <= k < r <= 16) in one
  worker: upper_bound, solve_delta, inverse_matrix, partite_lower_bound and,
  where defined, sandwich_table.  Touches only `bounds` and `combinat`.
* verify       -- 1000 seeded 6-vertex hosts (850 3-graphs, 150 2-graphs) in one
  worker, each put through the relation battery of `turankit verify`.

One unit is one certificate run or one worker batch.  Units are repeated, each
with the next seeded batch, until --seconds have passed (at least one).
wall_s is the median over units of set-up plus all of a unit's ops; the op
percentiles pool the ops of all units (nearest rank; the certificate's one op
is the whole run).  A batch worker first runs fixed warm-up inputs
(inputs.WARMUP) that build the one-time tables: they count in wall_s, not in
the percentiles.  Set-up (setup_s) is timed on separate worker spawns, from
spawn until `import turankit.cli` returns, after one unmeasured warm-up spawn
that leaves the byte-code compiled.

Times are given at reference speed.  On a shared machine the CPU's speed
swings by tens of percent within a second, so an untraced worker also runs a
0.3 ms pure-Python kernel from a timer signal every 10 ms and records how long
it took; each op's time, less the kernel's, is scaled by how much slower than
REF_KERNEL_S the kernel ran around it, and set-up by kernel runs just before
and after the import.  The raw times are in the metadata line.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json.  With --trace 1 the run makes one untraced and one traced unit
on batch 0 and reports the per-layer metrics, read from spans recorded around
turankit's public functions (spans.py), plus the tracing overhead from the raw
times of the two units; the spans are written to .bench_out/.  Every unit's
output goes through the workload's correctness gate (gates.py), and tampered
copies of a correct output must be rejected by it, or the run is reported
incorrect.  The line before the result holds run metadata: versions, nproc,
the git SHA and source digest, and the load average at the start and the end.

Without src/turankit in the checkout the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gates
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SPAWNS = 7
# Speed kernel duration (worker.Speedometer) that defines reference speed, and
# how far around an op its speed samples are taken from.
REF_KERNEL_S = 0.00028
SPEED_WINDOW_S = 0.01
# Workers still running this many seconds after the start are killed, so the
# whole run ends within three minutes.
RUN_DEADLINE_S = 170
# Stop starting units once another one of the last one's length would end
# the run past this many seconds.
RUN_BUDGET_S = 150


class _Deadline(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds: float):
    def fire(signum, frame):
        raise _Deadline

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, and time it.

    Returns its exit code, spawn-to-exit seconds, the peak RSS from its own
    rusage, and the set-up time from spawn to "ready" without the speed
    kernel's time, raw and at reference speed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT, env=_env(), stdout=subprocess.PIPE)
    ready = ready_ref = None
    try:
        with _alarm(max(deadline - t0, 1.0)):
            line = proc.stdout.readline().split()
            if len(line) == 3 and line[0] == b"ready":
                ready = time.perf_counter() - t0 - float(line[1])
                ready_ref = ready * REF_KERNEL_S * float(line[2])
            proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
    except _Deadline:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "ready_s": ready,
        "ready_ref_s": ready_ref,
        "exit_s": time.perf_counter() - t0,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def _setup_samples(count: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(count + 1):
        res = _worker(["setup"], deadline)
        if res["exit"] != 0 or res["ready_s"] is None:
            raise RuntimeError("set-up worker failed")
        samples.append(res["ready_ref_s"])
    return samples[1:]  # the first spawn warms the byte-code cache


def _read_json(path: str):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


class Run:
    """State of one benchmark invocation: temporary directory and counters."""

    def __init__(self, workload: str, seed: int, tmp: str, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.self_check: dict[str, bool] = {}
        self.extra: dict = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def _inputs(self, batch: int) -> list[dict]:
        if self.workload == "bounds-sweep":
            return inputs.bounds_queries(self.seed, batch)
        hosts = inputs.verify_hosts(self.seed, batch)
        self.extra.setdefault("host_mix", inputs.mix(hosts))
        return hosts

    def unit(self, index: int, trace_path: str = "-") -> dict:
        """One worker run: a certificate, or a batch (batch 0 when traced)."""
        traced = trace_path != "-"
        tag = f"{index}-{'traced' if traced else 'plain'}"
        out_path = self._path(f"out-{tag}.json")
        if self.workload == "certificate":
            arg = self._path(f"cache-{tag}")
            os.mkdir(arg)
            count = 1
        else:
            items = inputs.WARMUP[self.workload] + self._inputs(0 if traced else index)
            arg = self._path(f"in-{tag}.json")
            with open(arg, "w", encoding="ascii") as fh:
                json.dump(items, fh)
            count = len(items)
        res = _worker([self.workload, arg, out_path, trace_path], self.deadline)
        if res["exit"] != 0 or res["ready_s"] is None or not os.path.exists(out_path):
            self.attempted += count
            self.failed += count
            self.problems.append(f"{self.workload} worker exited with {res['exit']}")
            took = res["exit_s"]
            return {"wall_s": took, "raw_wall_s": took, "ops_ms": [took * 1e3], "rss_mb": res["rss_mb"]}
        doc = _read_json(out_path)
        records = doc["records"]
        if self.workload == "certificate":
            records = [dict(r, hgr=_single_hgr(arg)) for r in records]
        warm = len(inputs.WARMUP.get(self.workload, ()))
        self._check(records, warm, first_batch=traced or index == 0)
        raw = [t1 - t0 - kernel for t0, t1, kernel in doc["ops"]]
        ops = _at_reference(doc["ops"], doc["speed"]) if "speed" in doc else raw
        return {
            "wall_s": res["ready_ref_s"] + sum(ops),
            "raw_wall_s": res["ready_s"] + sum(raw),
            "ops_ms": [x * 1e3 for x in ops[warm:]],
            "rss_mb": res["rss_mb"],
            "layers": doc.get("layers", {}),
        }

    def _check(self, records: list[dict], warm: int, first_batch: bool) -> None:
        """Gate every output, warm-up ones included; tamper with the first
        correct one.  The pinned digest covers the seeded outputs only."""
        gate, tamper = GATES[self.workload]
        good = None
        for record in records:
            self.attempted += 1
            problems = gate(record)
            if problems:
                self.failed += 1
                self.problems.extend(problems[:1])
            elif good is None:
                good = record
        if good is not None and not self.self_check:
            self.self_check = gates.rejected(gate, tamper(good))
        if self.workload == "bounds-sweep" and first_batch and self.seed == gates.BOUNDS_PINNED_SEED:
            self._bounds_digest(records[warm:])
        if self.workload == "verify":
            positive = sum(r.get("rows_literal_positive", 0) for r in records)
            self.extra["literal_rows_positive"] = positive

    def _bounds_digest(self, records: list[dict]) -> None:
        digest = gates.bounds_digest(records)
        self.extra["bounds_sha256"] = digest
        if digest != gates.BOUNDS_SHA256:
            self.failed += 1
            self.problems.append("bounds outputs differ from the pinned digest")
        tampered = [gates.tamper_bounds(records[0])["finiteBound"]] + records[1:]
        self.self_check["digest"] = gates.bounds_digest(tampered) != gates.BOUNDS_SHA256


GATES = {
    "certificate": (gates.certificate_gate, gates.tamper_certificate),
    "bounds-sweep": (gates.bounds_gate, gates.tamper_bounds),
    "verify": (gates.verify_gate, gates.tamper_verify),
}


def _single_hgr(cache: str) -> bytes | None:
    """Bytes of the one class file the certificate run wrote, if it wrote one."""
    files = [f for f in os.listdir(cache) if f.endswith(".hgr")]
    if len(files) != 1:
        return None
    with open(os.path.join(cache, files[0]), "rb") as fh:
        return fh.read()


def _at_reference(ops: list, samples: list) -> list[float]:
    """Op durations, without the speed kernel's own time, at reference speed.

    The shared machine's speed swings by tens of percent within a second, so
    each op is scaled by REF_KERNEL_S times the mean rate (1 / kernel time) of
    the speed samples taken during it, widened by SPEED_WINDOW_S on each side.
    """
    if not samples:
        return [t1 - t0 - kernel for t0, t1, kernel in ops]
    times = [t for t, _ in samples]
    prefix = [0.0]
    for _, k in samples:
        prefix.append(prefix[-1] + 1 / k)
    out = []
    for t0, t1, kernel in ops:
        lo = bisect.bisect_left(times, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(times, t1 + SPEED_WINDOW_S)
        if hi == lo:  # no sample near: take the closest one
            lo = min(max(lo, 1), len(times)) - 1
            hi = lo + 1
        rate = (prefix[hi] - prefix[lo]) / (hi - lo)
        out.append((t1 - t0 - kernel) * REF_KERNEL_S * rate)
    return out


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _untraced(run: Run, seconds: float, spec: dict) -> dict:
    setup = _setup_samples(SETUP_SPAWNS, run.deadline)
    units = []
    t0 = time.perf_counter()
    while True:
        t_unit = time.perf_counter()
        units.append(run.unit(len(units)))
        now = time.perf_counter()
        if now - t0 >= seconds or now - t0 + (now - t_unit) > RUN_BUDGET_S:
            break
    ops = [x for u in units for x in u["ops_ms"]]
    run.extra["setup_samples_s"] = setup
    run.extra["unit_wall_s"] = [u["wall_s"] for u in units]
    run.extra["unit_raw_wall_s"] = [u["raw_wall_s"] for u in units]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "op_p50_ms": statistics.median(ops),
        "op_p99_ms": _nearest_rank(ops, 0.99),
        "peak_rss_mb": max(u["rss_mb"] for u in units),
    }
    return {name: values[name] for name in spec}


def _traced(run: Run, spec: dict, trace_path: str) -> dict:
    _setup_samples(0, run.deadline)
    plain = run.unit(0)
    traced = run.unit(0, trace_path)
    layers = dict(traced.get("layers", {}))
    summary = layers.pop("summary", {})
    run.extra["cache_fills_by_span"] = summary.get("fills_by_span")
    # Traced spans are not scaled to reference speed, so compare raw times.
    layers["trace.untraced_wall_s"] = plain["raw_wall_s"]
    layers["trace.wall_s"] = traced["raw_wall_s"]
    layers["trace.overhead_s"] = traced["raw_wall_s"] - plain["raw_wall_s"]
    run.extra["trace_file"] = os.path.relpath(trace_path, ROOT)
    return {name: layers.get(name, 0) for name in spec}


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _src_sha256() -> str:
    """Digest of the package sources, which names the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "turankit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _meta() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["certificate", "bounds-sweep", "verify"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "turankit", "cli.py")):
        print(f"benchmark: no turankit sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    meta.update(_meta())
    meta["loadavg_start"] = os.getloadavg()
    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    run = Run(args.workload, args.seed, tmp, time.perf_counter() + RUN_DEADLINE_S)
    try:
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"trace-{args.workload}.json")
            values = _traced(run, units, trace_path)
        else:
            values = _untraced(run, args.seconds, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))
    meta["loadavg_end"] = os.getloadavg()
    meta["failed_frac"] = run.failed / run.attempted if run.attempted else 1.0
    meta["self_check_rejected"] = run.self_check
    meta["problems"] = run.problems[:10]
    meta.update(run.extra)
    correct = (
        run.attempted > 0
        and run.failed == 0
        and bool(run.self_check)
        and all(run.self_check.values())
    )
    print(json.dumps({"meta": meta}))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
