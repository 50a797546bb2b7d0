"""One sweep of one workload, in a fresh interpreter with cold memo tables.

    python3 perfbench/worker.py WORKLOAD SEED [--trace SPANS] [--plant-fault P]

charvar must be importable from ``src`` of the checkout (run.py sets
PYTHONPATH).  Prints one JSON object: per-point wall times, the reference
kernel samples taken between the points, points attempted and failed,
peak resident memory, garbage-collector time and, with --trace, the
per-layer summary; the spans go to SPANS.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import charvar
import tracer as tracing
from calibrate import reference_time
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def _gc_timer():
    stats = {"gc_s": 0.0, "gc_collections": 0}
    started = [0.0]

    def callback(phase, _info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            stats["gc_s"] += time.perf_counter() - started[0]
            stats["gc_collections"] += 1

    gc.callbacks.append(callback)
    return stats


def _run_point(workload, call, point, times):
    """Time one call and check it; returns an error line or None."""
    t0 = time.perf_counter()
    try:
        result = call(point)
    except Exception as exc:  # a failing point must not end the sweep
        times.append(time.perf_counter() - t0)
        return "%r raised %r" % (point, exc)
    times.append(time.perf_counter() - t0)
    try:
        ok = workload.check(point, result)
    except Exception as exc:
        return "%r: check raised %r" % (point, exc)
    return None if ok else "%r: check failed" % (point,)


def sweep(workload, call):
    """Run and check every point; an exception fails its point only.

    The reference kernel runs once before the first point and once after
    each point, outside the timed calls, so its samples cover the sweep.
    """
    times = []
    errors = []
    reference = [reference_time()]
    for point in workload.points:
        error = _run_point(workload, call, point, times)
        if error is not None:
            errors.append(error)
        reference.append(reference_time())
    return times, errors, reference


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", metavar="SPANS", default=None)
    parser.add_argument("--plant-fault", type=int, default=None, metavar="P")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(charvar.__file__).startswith(src):
        print("charvar was not imported from %s" % src, file=sys.stderr)
        return 2

    extra = {}
    if args.plant_fault is not None:
        extra["plant_fault_at"] = args.plant_fault
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_DIR, prefix=args.workload + "-")
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir, **extra)
        call = workload.call
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            call = tracer.point(call)
        gc_stats = _gc_timer()
        times, errors, reference = sweep(workload, call)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out = {
        "attempted": len(times),
        "failed": len(errors),
        "errors": errors,
        "times": times,
        "sweep_s": sum(times),
        "reference": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **gc_stats,
    }
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
