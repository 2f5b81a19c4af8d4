"""Inputs, jobs and output checks of the trifree benchmark workloads.

A job is a list of operations.  Each operation is one call into the public
``trifree`` API (or the ``trifree`` CLI's entry point) whose output is checked against an exact reference stored in
``references.json``.  Inputs come only from the workload seed, and the
program sees only the inputs.

Importing this module imports ``trifree`` from the checkout's ``src``
directory and nothing else: a checkout without sources is an error.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from calibration import ENUMERATION, INTERPRETER, SAMPLING, Kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"

if not (SRC / "trifree" / "__init__.py").is_file():
    raise SystemExit(f"no trifree sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import trifree as tf  # noqa: E402

if Path(tf.__file__).resolve().parent != (SRC / "trifree").resolve():
    raise SystemExit(f"trifree imported from {tf.__file__}, not from {SRC}")

WORKLOADS = ("search_n7", "phi_corpus", "mc_mix", "verify_cli")

MC_SAMPLES = 1 << 21
LANE_SIZE = 1 << 14  # the lane size montecarlo documents; checked in the trace


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def dumps(obj) -> str:
    """Canonical JSON text of one operation's output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def covered_edges(g, k: int) -> tuple[set[tuple[int, int]], int]:
    """Edges lying in some K_k copy of g, and the number of copies.

    Found from the adjacency bitmasks alone, independently of
    ``trifree.graphs.cliques``; the benchmark uses it to stratify inputs
    and to compute the 2^c subset counts of the exact engine.
    """
    adj = g.adj
    found: set[tuple[int, int]] = set()
    copies = 0

    def grow(members: list[int], cand: int):
        nonlocal copies
        if len(members) == k:
            copies += 1
            found.update((b, a) for i, a in enumerate(members) for b in members[i + 1 :])
            return
        while cand:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(members + [v], cand & adj[v])

    grow([], (1 << g.n) - 1)
    return found, copies


def poly_from_profile(counts, m: int) -> tuple[int, ...]:
    """Coefficients of sum_s counts[s] p^s (1-p)^(m-s), trailing zeros cut."""
    out = [0] * (m + 1)
    for s, x in enumerate(counts):
        if x:
            for j in range(m - s + 1):
                out[s + j] += x * (-1) ** j * comb(m - s, j)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def eval_coeffs(coeffs, p: Fraction) -> Fraction:
    return sum((Fraction(c) * p**j for j, c in enumerate(coeffs)), Fraction(0))


@dataclass
class Job:
    """ops: (name, thunk) pairs run one after another in the timed region.
    check: maps the list of (name, output text or None, error or None)
    to one failure reason (or None) per operation.
    calibration: the kernel timed around each operation to give the
    job's times on the reference scale (calibration.py), or None.  Each
    declared workload has the kernel that was measured to follow the
    host's drift for its work; search_n7, whose 4 s first operation
    drifts within itself, reports plain seconds."""

    ops: list[tuple[str, Callable[[], object]]]
    check: Callable[[list], list[str | None]]
    calibration: Kernel | None = None


# ---------------------------------------------------------------------------
# search_n7: the paper's exhaustive claim at the largest tier-1 size
# ---------------------------------------------------------------------------


def search_n7(seed: int, refs: dict) -> Job:
    del seed  # fixed inputs: the paper's claims at n = 7
    half, third = Fraction(1, 2), Fraction(1, 3)
    ops = [
        ("verify_one_extra_optimum(7)", lambda: tf.verify_one_extra_optimum(7).to_json()),
        ("maximize_tf(7,1,1/2)",
         lambda: tf.maximize_tf(7, 1, half).to_json(include_runtime=False)),
        ("maximize_tf(7,2,1/3,prune)",
         lambda: tf.maximize_tf(7, 2, third, prune=True).to_json(include_runtime=False)),
        ("envelope(7,2)", lambda: tf.envelope(7, 2).to_json()),
        ("envelope(7,4)", lambda: tf.envelope(7, 4).to_json()),
    ]
    expected = refs["search_n7"]

    def check(results):
        return [
            None if text == expected.get(name) else "output differs from reference"
            for name, text, _ in results
        ]

    return Job(ops, check)


# ---------------------------------------------------------------------------
# phi_corpus: the `phi` workflow on a seeded, stratified corpus
# ---------------------------------------------------------------------------


def phi_inputs(seed: int, refs: dict) -> list[dict]:
    """One graph per slot of the stored pool, drawn and relabeled by seed.

    Every candidate of a slot has the slot's clique order, covered-edge
    count and copy count, so the histogram (and the cost) of the corpus
    is the same for every seed.
    """
    rng = random.Random(seed)
    items = []
    for slot in refs["phi_corpus"]["slots"]:
        cand = rng.choice(slot["candidates"])
        base = tf.parse_graph6(cand["graph6"])
        perm = list(range(base.n))
        rng.shuffle(perm)
        den = rng.choice((7, 10, 13, 20))
        nums = rng.sample(range(1, den), 2)
        items.append(
            {
                "slot": slot["name"],
                "graph": base.permuted(perm),
                "k": slot["k"],
                "ps": tuple(Fraction(x, den) for x in sorted(nums)),
                "counts": tuple(int(x) for x in cand["counts"]),
            }
        )
    return items


def _phi_op(item: dict) -> dict:
    g, k = item["graph"], item["k"]
    prof = tf.tf_profile(g, k)
    poly = tf.tf_poly(g, k)
    values = [tf.poly_eval(poly, p) for p in item["ps"]]
    hyper = tf.independence_profile(tf.from_graph(g, k))
    return {
        "profile": [str(c) for c in prof.counts],
        "polynomial": list(poly.to_json_dict()["coeffs"]),
        "values": [str(v) for v in values],
        "independence_profile": [str(c) for c in hyper.counts],
    }


def phi_corpus(seed: int, refs: dict) -> Job:
    items = phi_inputs(seed, refs)
    ops = [
        (f"phi[{i}] {item['slot']}", (lambda item=item: _phi_op(item)))
        for i, item in enumerate(items)
    ]

    def check(results):
        out = []
        for item, (_, text, _) in zip(items, results):
            if text is None:
                out.append("no output")
                continue
            got = json.loads(text)
            counts = item["counts"]
            coeffs = poly_from_profile(counts, item["graph"].m)
            want = {
                "profile": [str(c) for c in counts],
                "polynomial": [str(c) for c in coeffs],
                "values": [str(eval_coeffs(coeffs, p)) for p in item["ps"]],
                "independence_profile": [str(c) for c in counts],
            }
            bad = [key for key in want if got.get(key) != want[key]]
            out.append(f"differs in {', '.join(bad)}" if bad else None)
        return out

    return Job(ops, check, calibration=ENUMERATION)


# ---------------------------------------------------------------------------
# mc_mix: Monte Carlo at one and two lanes of dispatch
# ---------------------------------------------------------------------------


def mc_inputs(seed: int, refs: dict) -> list[dict]:
    items = []
    for case in refs["mc_mix"]:
        for jobs in (1, 2):
            items.append(
                {
                    "case": case["name"],
                    "graph": tf.parse_graph6(case["graph6"]),
                    "p": Fraction(case["p"]),
                    "k": case["k"],
                    "exact": Fraction(case["exact"]),
                    "samples": MC_SAMPLES,
                    "seed": seed,
                    "jobs": jobs,
                }
            )
    return items


def _mc_op(item: dict) -> dict:
    est = tf.estimate_tf(
        item["graph"], item["p"], item["samples"], item["seed"],
        clique_order=item["k"], jobs=item["jobs"],
    )
    return {**est.to_json(), "successes": est.successes}


def mc_mix(seed: int, refs: dict) -> Job:
    items = mc_inputs(seed, refs)
    ops = [
        (f"estimate_tf({item['case']}, jobs={item['jobs']})", (lambda item=item: _mc_op(item)))
        for item in items
    ]

    def check(results):
        got = [json.loads(text) if text else None for _, text, _ in results]
        successes: dict[str, set] = {}
        for item, est in zip(items, got):
            if est is not None:
                successes.setdefault(item["case"], set()).add(est["successes"])
        out = []
        for item, est in zip(items, got):
            if est is None:
                out.append("no output")
            elif len(successes[item["case"]]) != 1:
                out.append("jobs=1 and jobs=2 success counts differ")
            elif abs(est["mean"] - float(item["exact"])) > 2 * (est["ci_high"] - est["ci_low"]):
                out.append("mean lies more than 4 Wilson half-widths from the exact value")
            else:
                out.append(None)
        return out

    return Job(ops, check, calibration=SAMPLING)


# ---------------------------------------------------------------------------
# verify_cli: `trifree verify --all` in a fresh process
# ---------------------------------------------------------------------------

CLI_ARGS = ("verify", "--all")


def verify_cli(seed: int, refs: dict) -> Job:
    """The CLI's entry point, called in the worker, which is a fresh
    process: the import of trifree.cli is part of set-up, the command's
    work from parsing its arguments to its last line of output is the job.
    stdout is captured, stderr (progress lines) discarded."""
    del seed  # fixed input: the user's main command
    import trifree.cli

    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = trifree.cli.main(list(CLI_ARGS))
        return {"exit": code, "stdout": out.getvalue()}

    expected = refs["verify_cli"]

    def check(results):
        out = []
        for _, text, _ in results:
            got = json.loads(text) if text else None
            if got is None:
                out.append("no output")
            elif got["exit"] != 0:
                out.append(f"exit code {got['exit']}")
            elif got["stdout"] != expected:
                out.append("stdout differs from reference")
            else:
                out.append(None)
        return out

    return Job([("trifree verify --all", op)], check, calibration=INTERPRETER)


JOBS = {
    "search_n7": search_n7,
    "phi_corpus": phi_corpus,
    "mc_mix": mc_mix,
    "verify_cli": verify_cli,
}
