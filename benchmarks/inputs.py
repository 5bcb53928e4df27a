"""Seeded inputs for the batch workloads.

The same (workload, seed, batch) always gives the same inputs.  Each batch has
a fixed composition, so that batches drawn from different seeds cost about the
same and the spread between runs reflects the machine, not the draw:

* bounds-sweep: every (k, r) with 2 <= k < r <= R_MAX gets exactly
  QUERIES_PER_PAIR queries (105 pairs, 1050 queries), whose g runs through
  [k, r-1] in turn and whose eps falls in a different tenth of
  [0, epsilon_threshold) each.  The inverse matrix costs O((r-k)^3) and the
  partite bound grows with g, so free draws would make the batch time and its
  percentiles swing with the draw.  Mode, n and the eps within its tenth are
  drawn freely.
* verify: exactly HOSTS_3 random 3-graphs and HOSTS_2 random 2-graphs on 6
  vertices, in shuffled order.
"""

from __future__ import annotations

import random

R_MAX = 16
QUERIES_PER_PAIR = 10
# eps is drawn as epsilon_threshold(k, r) * j / EPS_STEPS with 0 <= j < EPS_STEPS;
# a prime step count keeps every nonzero eps at the same denominator size.
EPS_STEPS = 97
# n is drawn as floor(the mode's vertex threshold) + N_EXTRA_MIN..N_EXTRA_MAX.
N_EXTRA_MIN, N_EXTRA_MAX = 1, 1000
MODES = ("literal", "corrected")

HOST_VERTICES = 6
HOSTS_3 = 850
HOSTS_2 = 150

# Fixed inputs a batch worker runs before its seeded ones.  They build the
# one-time tables (permutation tables, small class lists), so that cost counts
# in wall_s but not in the op percentiles.
WARMUP = {
    "bounds-sweep": [
        {"k": 3, "r": 8, "g": 5, "mode": "literal", "n_extra": 1, "eps_step": 48, "eps_steps": EPS_STEPS}
    ],
    "verify": [
        {"n": HOST_VERTICES, "k": 3, "mask": 0xA5A5A},
        {"n": HOST_VERTICES, "k": 2, "mask": 0x2B3D},
    ],
}


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def bounds_queries(seed: int, batch: int) -> list[dict]:
    rng = _rng("bounds-sweep", seed, batch)
    queries = []
    for r in range(3, R_MAX + 1):
        for k in range(2, r):
            for i in range(QUERIES_PER_PAIR):
                lo = i * EPS_STEPS // QUERIES_PER_PAIR
                hi = (i + 1) * EPS_STEPS // QUERIES_PER_PAIR
                queries.append(
                    {
                        "k": k,
                        "r": r,
                        "g": k + i % (r - k),
                        "mode": rng.choice(MODES),
                        "n_extra": rng.randint(N_EXTRA_MIN, N_EXTRA_MAX),
                        "eps_step": rng.randrange(lo, hi),
                        "eps_steps": EPS_STEPS,
                    }
                )
    rng.shuffle(queries)
    return queries


def verify_hosts(seed: int, batch: int) -> list[dict]:
    """Edge masks in colex order: C(6,3) = 20 bits, C(6,2) = 15 bits."""
    rng = _rng("verify", seed, batch)
    hosts = [{"n": HOST_VERTICES, "k": 3, "mask": rng.getrandbits(20)} for _ in range(HOSTS_3)]
    hosts += [{"n": HOST_VERTICES, "k": 2, "mask": rng.getrandbits(15)} for _ in range(HOSTS_2)]
    rng.shuffle(hosts)
    return hosts


def mix(hosts: list[dict]) -> dict[str, int]:
    """Host count per uniformity, as recorded in the run metadata."""
    out: dict[str, int] = {}
    for h in hosts:
        key = f"{h['k']}-graphs"
        out[key] = out.get(key, 0) + 1
    return out
