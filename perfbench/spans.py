"""Layer tracing for the benchmark's traced run.

A Tracer replaces each layer function below, at every module-level
binding inside the ``trifree`` package (``search.canonical_form``,
``verify.tf_poly``, ``trifree.envelope``, ...) and on the class for
``Poly.eval``, with a wrapper that records one span per call: id, name,
start, end, parent id and an optional note.  Spans stay in memory and are
written out when the traced process ends.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from math import ceil

from workloads import LANE_SIZE, covered_edges

# module.function (or module.Class.method) of every wrapped layer function
LAYER_FUNCTIONS = (
    "graphs.canonical_form",
    "graphs.cliques",
    "search.enumerate_graphs",
    "search.maximize_tf",
    "search.verify_one_extra_optimum",
    "search.envelope",
    "search.isolate_roots",
    "search.crossover_root",
    "exact.tf_profile",
    "exact.tf_poly",
    "hypergraph.from_graph",
    "hypergraph.independence_profile",
    "hypergraph.independence_probability",
    "polynomial.Poly.eval",
    "bounds.linear_triple_bound",
    "montecarlo.estimate_tf",
    "montecarlo.lane_generator",
    "verify.check_one_extra",
    "verify.check_ls",
    "verify.check_linear_bound",
    "verify.check_two_extra",
    "cli.main",
)


def _covered_count(args) -> int:
    return len(covered_edges(args["g"], args["clique_order"])[0])


# name -> note(arguments, result): the facts the derived metrics need
NOTES = {
    "graphs.canonical_form": lambda a, r: r.decode("ascii"),
    "search.enumerate_graphs": lambda a, r: {"n": a["n"], "m": a["m"]},
    "search.maximize_tf": lambda a, r: {
        "prune": a["prune"], "pruned": r.pruned, "enumerated": r.enumerated,
    },
    "exact.tf_profile": lambda a, r: {"covered": _covered_count(a)},
    "exact.tf_poly": lambda a, r: {"covered": _covered_count(a)},
    "montecarlo.estimate_tf": lambda a, r: {"samples": a["samples"], "jobs": a["jobs"]},
}


class Tracer:
    """Records spans of the layer functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, note)
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = None
            if note:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = note(bound.arguments, result)
            spans.append((sid, name, start, end, parent, info))
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "trifree" or key.startswith("trifree.")]
        for name in LAYER_FUNCTIONS:
            mod_name, _, attr = name.partition(".")
            home = sys.modules.get(f"trifree.{mod_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._set(owner, method, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapped)

    def _set(self, owner, key: str, original, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def dump(self, path, **extra):
        data = {**extra, "spans": sorted(self.spans)}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def _under(spans, ancestor_name: str) -> set[int]:
    """Ids of spans that have a span called ancestor_name above them."""
    by_id = {s[0]: s for s in spans}
    out = set()
    for sid, _, _, _, parent, _ in spans:
        while parent is not None:
            if by_id[parent][1] == ancestor_name:
                out.add(sid)
                break
            parent = by_id[parent][4]
    return out


def _edgeless(g6: str) -> bool:
    return all(ch == "?" for ch in g6[1:])


def ladder_counts(spans, first_only_nm: tuple[int, int] | None = None) -> tuple[int, int]:
    """(canonical_form calls, distinct non-edgeless classes) made inside
    enumerate_graphs spans, or inside the first enumerate_graphs(n, m)
    span when first_only_nm is given."""
    canon = [s for s in spans if s[1] == "graphs.canonical_form"]
    if first_only_nm is None:
        inside = _under(spans, "search.enumerate_graphs")
        chosen = [s for s in canon if s[0] in inside]
    else:
        n, m = first_only_nm
        first = min(
            (s for s in spans
             if s[1] == "search.enumerate_graphs" and s[5] == {"n": n, "m": m}),
            default=None,
        )
        if first is None:
            return 0, 0
        chosen = [s for s in canon if first[2] <= s[2] and s[3] <= first[3]]
    classes = {s[5] for s in chosen if not _edgeless(s[5])}
    return len(chosen), len(classes)


def lanes_per_estimate(spans) -> list[tuple[int, int]]:
    """(lanes drawn, ceil(samples / 2^14)) for every estimate_tf span.

    Lane spans run on pool threads and have no parent, so a lane belongs
    to the estimate whose interval contains it."""
    lanes = [s for s in spans if s[1] == "montecarlo.lane_generator"]
    out = []
    for s in spans:
        if s[1] == "montecarlo.estimate_tf":
            drawn = sum(1 for x in lanes if s[2] <= x[2] and x[3] <= s[3])
            out.append((drawn, ceil(s[5]["samples"] / LANE_SIZE)))
    return out


def layer_metrics(spans, import_s: float = 0.0) -> dict[str, float]:
    """Every per-layer metric except process.cpu_s and trace_overhead_ratio.
    A layer the workload does not call reports 0."""
    selfs = _self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    excl = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        incl[name] += end - start
        excl[name] += selfs[sid]
    out: dict[str, float] = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = excl[name]

    canon_calls, classes = ladder_counts(spans)
    out["search.classes"] = classes
    out["search.canon_calls_per_class"] = canon_calls / classes if classes else 0.0

    searched = [s[5] for s in spans if s[1] == "search.maximize_tf" and s[5]["prune"]]
    enumerated = sum(x["enumerated"] for x in searched)
    out["search.pruned_ratio"] = (
        sum(x["pruned"] for x in searched) / enumerated if enumerated else 0.0
    )

    exact = [s for s in spans if s[1] in ("exact.tf_profile", "exact.tf_poly")]
    subsets = sum(1 << s[5]["covered"] for s in exact)
    exact_s = sum(s[3] - s[2] for s in exact)
    out["exact.covered_subsets"] = subsets
    out["exact.subsets_per_s"] = subsets / exact_s if exact_s else 0.0

    lanes = lanes_per_estimate(spans)
    out["montecarlo.lanes"] = sum(d for d, _ in lanes) / len(lanes) if lanes else 0.0
    rates = {}
    for jobs in (1, 2):
        chosen = [s for s in spans
                  if s[1] == "montecarlo.estimate_tf" and s[5]["jobs"] == jobs]
        busy = sum(s[3] - s[2] for s in chosen)
        rates[jobs] = sum(s[5]["samples"] for s in chosen) / busy if busy else 0.0
        out[f"montecarlo.jobs{jobs}.samples_per_s"] = rates[jobs]
    out["montecarlo.parallel_efficiency"] = (
        rates[2] / (2 * rates[1]) if rates[1] else 0.0
    )
    out["cli.import_s"] = import_s
    return out
