"""Run one job of a workload in a fresh process; print its result as JSON.

usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_FILE

Set-up (importing trifree and generating the inputs) is timed from the
start of this script.  The job's operations then run one after another
(closed loop, one caller) and are timed one by one; their outputs are
checked after the timed region.  Set-up time is also given on the
reference scale of the interpreter kernel, and on a calibrated job
(Job.calibration set) the job's kernel is timed before the first
operation and after each one to give the job's time on its reference
scale (see calibration.py).  With TRACE=1 the layer functions are wrapped while the job
runs, the spans are written to SPANS_FILE, and the per-layer metrics are
computed from them.
"""

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from calibration import INTERPRETER, calibrate, scaled  # noqa: E402

def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    workload, seed, trace, spans_file = sys.argv[1:5]
    seed, trace = int(seed), trace == "1"

    import workloads

    if workload == "verify_cli":
        import trifree.cli  # noqa: F401  (what a CLI process imports)
    import_s = time.perf_counter() - STARTED
    refs = workloads.load_references()
    job = workloads.JOBS[workload](seed, refs)
    setup_s = time.perf_counter() - STARTED
    # set-up is imports and Python input generation: interpreter work
    setup_calibration = calibrate(INTERPRETER)
    scaled_setup_s = scaled(INTERPRETER, setup_s, setup_calibration, setup_calibration)

    tracer = None
    if trace:
        Path(spans_file).unlink(missing_ok=True)  # never read a previous job's spans
        import spans

        tracer = spans.Tracer()
        tracer.install()
    kernel = job.calibration
    calibration = [calibrate(kernel)] if kernel else []
    results, op_s, cpu_s = [], [], 0.0
    for name, thunk in job.ops:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            results.append((name, workloads.dumps(thunk()), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((name, None, "".join(traceback.format_exception_only(exc)).strip()))
        op_s.append(time.perf_counter() - t0)
        cpu_s += cpu_seconds() - cpu0
        if kernel:
            calibration.append(calibrate(kernel))
    if tracer is not None:
        tracer.uninstall()
    wall_s = sum(op_s)
    scaled_wall_s = wall_s
    if kernel:
        scaled_wall_s = sum(map(partial(scaled, kernel), op_s, calibration, calibration[1:]))

    reasons = [err or why for (_, _, err), why in zip(results, job.check(results))]
    failures = [f"{name}: {why}" for (name, _, _), why in zip(results, reasons) if why]
    digest = hashlib.sha256()
    for name, text, _ in results:
        digest.update(f"{name}\n{text}\n".encode())
    out = {
        "setup_s": scaled_setup_s,
        "wall_s": scaled_wall_s,
        "setup_unscaled_s": setup_s,
        "wall_unscaled_s": wall_s,
        "calibration_s": median(calibration) if calibration else 0.0,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(results),
        "failures": failures,
        "digest": digest.hexdigest(),
    }
    if trace:
        out.update(traced_facts(workload, tracer, spans_file,
                                import_s if workload == "verify_cli" else 0.0))
    print(json.dumps(out))
    return 0


def traced_facts(workload, tracer, spans_file, import_s) -> dict:
    """Per-layer metrics plus the anchor counts checked by the caller.
    import_s: seconds from the worker's start until trifree.cli was
    imported, reported as cli.import_s (0 where the CLI is not used)."""
    import spans
    import workloads

    tracer.dump(spans_file, import_s=import_s)
    with open(spans_file) as fh:
        data = json.load(fh)
    recorded = data["spans"]
    facts = {"layers": spans.layer_metrics(recorded, data["import_s"])}
    if workload == "search_n7":
        calls, classes = spans.ladder_counts(recorded, first_only_nm=(7, 13))
        facts["anchors"] = {
            "canonical_form calls inside enumerate_graphs(7, 13)": calls,
            "classes on levels 1..13 (traced)": classes,
            "classes on levels 1..13 (enumerate_graphs)": sum(
                len(workloads.tf.enumerate_graphs(7, m)) for m in range(1, 14)
            ),
        }
    if workload == "mc_mix":
        facts["lanes"] = spans.lanes_per_estimate(recorded)
    return facts


if __name__ == "__main__":
    sys.exit(main())
