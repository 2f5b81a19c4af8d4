"""Regenerate references.json, the benchmark's stored exact outputs.

usage: python3 perfbench/make_references.py   (from the repository root)

Deterministic: the phi_corpus pool is drawn with fixed generator seeds.
The references come from the library's primary routes (the 2^c
enumeration for profiles and the K8 values, the job itself for search_n7
and verify_cli) or, for mantel+1:40, from the product formula written
out here.  check_references.py re-derives them by second routes.  Takes
a few minutes, most of it in the two K8 enumerations.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import workloads
from workloads import REFERENCES, covered_edges, dumps, tf

CANDIDATES = 6  # pool size of each random phi_corpus slot

# name, clique order, and either a fixed graph or (n, p, covered edges, copies)
# of the G(n, p) graphs drawn for the slot.  Covered-edge counts run from 8
# to 24, so the 2^c enumeration dominates while every call stays under 1 s.
PHI_SLOTS = [
    ("mantel+1:8", 3, "mantel+1:8"),
    ("mantel+1:12", 3, "mantel+1:12"),
    ("mantel+1:16", 3, "mantel+1:16"),
    ("mantel+1:20", 3, "mantel+1:20"),
    ("mantel+1:22", 3, "mantel+1:22"),
    ("sparse c=8", 3, (14, 0.20, 8, 3)),
    ("sparse c=10", 3, (14, 0.25, 10, 4)),
    ("sparse c=12", 3, (14, 0.25, 12, 5)),
    ("sparse c=14", 3, (14, 0.25, 14, 6)),
    ("sparse c=17", 3, (14, 0.30, 17, 7)),
    ("sparse c=19", 3, (14, 0.30, 19, 8)),
    ("sparse c=22", 3, (14, 0.35, 22, 9)),
    ("sparse c=24", 3, (14, 0.35, 24, 10)),
    ("K7", 3, "complete:7"),
    ("K3,3,2", 3, "multipartite:3,3,2"),
    ("G(9,0.6)", 3, (9, 0.6, 22, 18)),
    ("K7/k4", 4, "complete:7"),
    ("K2,2,2,2/k4", 4, "multipartite:2,2,2,2"),
    ("G(9,0.7)/k4", 4, (9, 0.7, 20, 9)),
]

MC_CASES = [
    ("mantel+1:40", "mantel+1:40", Fraction(3, 10), 3),
    ("K8", "complete:8", Fraction(1, 2), 3),
    ("K8/k4", "complete:8", Fraction(1, 2), 4),
]


def named_graph(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "mantel+1":
        return tf.mantel_plus_one(int(arg))
    if kind == "complete":
        return tf.complete_graph(int(arg))
    parts = [int(x) for x in arg.split(",")]
    part_of = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part_of)
    return tf.build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if part_of[u] != part_of[v]]
    )


def draw_pool(slot_index: int, spec, k: int) -> list:
    n, p, c, t = spec
    rng = random.Random(1000 + slot_index)
    pool, seen = [], set()
    for _ in range(200_000):
        g = tf.build_graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        edges, copies = covered_edges(g, k)
        g6 = tf.write_graph6(g)
        if (len(edges), copies) == (c, t) and g6 not in seen:
            seen.add(g6)
            pool.append(g)
            if len(pool) == CANDIDATES:
                return pool
    raise SystemExit(f"slot {slot_index}: found only {len(pool)} graphs with c={c}, t={t}")


def phi_references() -> dict:
    slots = []
    for index, (name, k, spec) in enumerate(PHI_SLOTS):
        pool = [named_graph(spec)] if isinstance(spec, str) else draw_pool(index, spec, k)
        edges, copies = covered_edges(pool[0], k)
        slots.append(
            {
                "name": name,
                "k": k,
                "covered": len(edges),
                "copies": copies,
                "candidates": [
                    {"graph6": tf.write_graph6(g),
                     "counts": [str(x) for x in tf.tf_profile(g, k).counts]}
                    for g in pool
                ],
            }
        )
        print(f"phi slot {name}: c={len(edges)} copies={copies}", file=sys.stderr)
    return {"slots": slots}


def mc_references() -> list:
    out = []
    for name, spec, p, k in MC_CASES:
        g = named_graph(spec)
        if name.startswith("mantel+1:"):
            r = g.n // 2  # the extra edge lies in r triangles with disjoint other edges
            exact = 1 - p + p * (1 - p * p) ** r
        else:
            exact = tf.tf_poly(g, k).eval(p)
        out.append({"name": name, "graph6": tf.write_graph6(g), "p": str(p), "k": k,
                    "exact": str(exact)})
        print(f"mc case {name}: {exact}", file=sys.stderr)
    return out


def search_n7_outputs() -> dict:
    job = workloads.search_n7(0, {"search_n7": {}})
    return {name: dumps(thunk()) for name, thunk in job.ops}


def verify_cli_output() -> str:
    """stdout of `trifree verify --all` run as its own process; the
    benchmark's in-process call must print the same bytes."""
    proc = subprocess.run(
        [sys.executable, "-m", "trifree.cli", *workloads.CLI_ARGS], cwd=workloads.ROOT,
        env=dict(os.environ, PYTHONPATH=str(workloads.SRC)), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"verify --all exited with {proc.returncode}")
    return proc.stdout


def main() -> int:
    refs = {
        "search_n7": search_n7_outputs(),
        "verify_cli": verify_cli_output(),
        "n7_level_sizes": [len(tf.enumerate_graphs(7, m)) for m in range(22)],
        # canonical_form calls of the seed's ladder inside enumerate_graphs(7, 13):
        # 1 for the edgeless graph plus one per augmentation, 9,320 in all
        "canonical_calls_enumerate_7_13": 9321,
        "phi_corpus": phi_references(),
        "mc_mix": mc_references(),
    }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
