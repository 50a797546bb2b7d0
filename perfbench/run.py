"""charvar benchmark: verify-style sweeps in fresh interpreters, every point checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and charvar
is imported from its ``src``.  Workloads and metrics are declared in the
checkout's BENCHMARK.json; the layer map and the sizes at the seed are in
``perfbench/record.json``.

--trace 0 (end-to-end).  ``setup_s`` is the median over several fresh
interpreters of the time from starting the interpreter until
``import charvar`` returns.  The workload's whole input set is swept in a
fresh interpreter, again and again until --seconds is used up (at least
three times), and each metric is the median over these sweeps:
``sweep_s`` (sum of per-point wall times), ``point_p50_s``,
``point_tail_s`` (the highest percentile with at least ten points beyond
it) and ``peak_rss_mb``.

Every time measured inside a sweep, end-to-end and per layer, is scaled
to the nominal machine speed by the reference kernel in calibrate.py, run
in the same interpreter between the points; the text lines before the
result also give the unscaled medians.  Set-up times are not scaled: an
import is too short for the kernel to follow the drift, and unscaled
medians of eight probes were the steadier (spread 0.07 against 0.26).

--trace 1 (per layer).  Untraced and traced sweeps alternate, three of
each, in fresh interpreters.  The per-layer metrics come from the spans of
the traced sweep with the median time, the garbage-collector figures from
the median untraced sweep, the tracing overhead from the two medians, and
the import split from ``python3 -X importtime``.

All load comes from one process; charvar's --jobs is not exercised.
The last line of standard output is the JSON result.  Any failed or
raising point is counted in ``failed``; a sweep that cannot run at all
ends the benchmark with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench_work", "spans")

MIN_SWEEPS = 3
SETUP_PROBES = 7
IMPORTTIME_PROBES = 3
TRACE_PAIRS = 3  # untraced and traced sweeps, alternating; the medians are used
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
STOP_STARTING_AFTER_S = 120  # keeps a run inside 180 s even when sweeps slow down
PROBE = "import time, charvar; print(time.perf_counter()); print(charvar.__file__)"


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(
            "%s exited with %d:\n%s" % (" ".join(cmd[1:3]), proc.returncode, proc.stderr[-2000:])
        )
    return proc


def setup_probe(importtime=False):
    """(seconds from starting a fresh interpreter until import charvar
    returns, the -X importtime table or "")."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.perf_counter()
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child
    proc = _run([sys.executable] + flags + ["-c", PROBE], timeout=60)
    stamp, path = proc.stdout.split("\n")[:2]
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise BenchError("charvar was imported from %s, not %s" % (path, SRC))
    return float(stamp) - t0, proc.stderr


def import_split():
    """(numpy, charvar) cumulative import seconds from -X importtime."""
    cumulative = {}
    for line in setup_probe(importtime=True)[1].splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative["numpy"], cumulative["charvar"]


def run_sweep(workload, seed, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed)]
    if spans:
        cmd += ["--trace", spans]
    return json.loads(_run(cmd).stdout.splitlines()[-1])


def tail(times):
    """The highest order statistic with TAIL_BEYOND points above it."""
    if len(times) <= TAIL_BEYOND:
        raise BenchError("%d points give no tail with %d beyond" % (len(times), TAIL_BEYOND))
    return sorted(times)[-TAIL_BEYOND - 1]


def _summarize(times_per_sweep):
    """Per-sweep total, median and tail of the point times, each a median over sweeps."""
    return {
        "sweep_s": statistics.median(sum(t) for t in times_per_sweep),
        "point_p50_s": statistics.median(statistics.median(t) for t in times_per_sweep),
        "point_tail_s": statistics.median(tail(t) for t in times_per_sweep),
    }


def end_to_end(workload, seed, seconds):
    t_start = time.perf_counter()
    setup_probe()  # unmeasured: lets the interpreter write its bytecode caches
    setups = [setup_probe() for _ in range(SETUP_PROBES - MIN_SWEEPS)]
    sweeps = []
    while True:
        t = time.perf_counter()
        # one probe per sweep spreads the set-up samples over the run
        setups.append(setup_probe())
        sweeps.append(run_sweep(workload, seed))
        last = time.perf_counter() - t
        finish = time.perf_counter() - t_start + last
        if finish > STOP_STARTING_AFTER_S or (len(sweeps) >= MIN_SWEEPS and finish > seconds):
            break
    scaled = _summarize([calibrate.scaled_times(s["times"], s["reference"]) for s in sweeps])
    raw = _summarize([s["times"] for s in sweeps])
    scaled["setup_s"] = statistics.median(secs for secs, _ in setups)
    scaled["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in sweeps)
    n = sweeps[0]["attempted"]
    notes = [
        "%d sweeps of %d points in fresh interpreters; %d set-up probes"
        % (len(sweeps), n, len(setups)),
        "point_tail_s is the p%.1f point (%d points, %d beyond it)"
        % (100.0 * (n - TAIL_BEYOND) / n, n, TAIL_BEYOND),
        "unscaled (s): " + ", ".join("%s %.6f" % item for item in raw.items()),
    ]
    return scaled, sweeps, notes


def _ratio(num, den):
    return num / den if den else 0.0


def _median_sweep(sweeps):
    """(scaled total, sweep) of the sweep with the median scaled total."""
    totals = sorted(
        (sum(calibrate.scaled_times(s["times"], s["reference"])), i) for i, s in enumerate(sweeps)
    )
    total, i = totals[len(totals) // 2]
    return total, sweeps[i]


def per_layer(workload, seed):
    splits = [import_split() for _ in range(IMPORTTIME_PROBES)]
    plains, traceds, paths = [], [], []
    for i in range(TRACE_PAIRS):
        paths.append(os.path.join(SPANS_DIR, "%s-%d.tsv" % (workload, i)))
        plains.append(run_sweep(workload, seed))
        traceds.append(run_sweep(workload, seed, spans=paths[i]))
    plain_s, plain = _median_sweep(plains)
    traced_s, traced = _median_sweep(traceds)
    # keep only the spans the metrics come from, one file per workload
    spans_path = os.path.join(SPANS_DIR, "%s.tsv" % workload)
    os.replace(paths.pop(traceds.index(traced)), spans_path)
    for path in paths:
        os.remove(path)
    c = traced["counters"]
    f = traced_s / traced["sweep_s"]
    s = {
        name: {"calls": row["calls"], "incl_s": f * row["incl_s"], "self_s": f * row["self_s"]}
        for name, row in traced["spans"].items()
    }

    def count(key):
        return int(c.get(key, 0))

    gcd_calls = s["polynomials.poly_gcd"]["calls"]
    div_calls = s["polynomials.div_exact"]["calls"]
    trace_calls = s["traces.trace_poly"]["calls"]
    cache_calls = count("cache.hits") + count("cache.misses")
    metrics = {
        "polynomials.mul.calls": s["polynomials.mul"]["calls"],
        "polynomials.mul.self_s": s["polynomials.mul"]["self_s"],
        "polynomials.mul.term_pairs": count("mul.term_pairs"),
        "polynomials.mul.out_terms_max": count("mul.out_terms_max"),
        "polynomials.mul.out_coeff_bits_max": count("mul.out_coeff_bits_max"),
        "polynomials.poly_gcd.calls": gcd_calls,
        "polynomials.poly_gcd.s": s["polynomials.poly_gcd"]["incl_s"],
        "polynomials.poly_gcd.unit_ratio": _ratio(count("poly_gcd.units"), gcd_calls),
        "polynomials.div_exact.calls": div_calls,
        "polynomials.div_exact.self_s": s["polynomials.div_exact"]["self_s"],
        "polynomials.div_exact.none_ratio": _ratio(count("div_exact.none"), div_calls),
        "polynomials.is_perfect_square.s": s["polynomials.is_perfect_square"]["incl_s"],
        "chebyshev.cheb_at.calls": s["chebyshev.cheb_at"]["calls"],
        "chebyshev.cheb_at.s": s["chebyshev.cheb_at"]["incl_s"],
        "chebyshev.cheb_at.steps": count("cheb_at.steps"),
        "chebyshev.distinct_root_count.s": s["chebyshev.distinct_root_count"]["incl_s"],
        "traces.trace_poly.calls": trace_calls,
        "traces.trace_poly.self_s": s["traces.trace_poly"]["self_s"],
        "traces.trace_poly.memo_hit_ratio": _ratio(count("trace_poly.hits"), trace_calls),
        "traces.trace_poly.top_syllables": count("trace_poly.top_syllables"),
        "traces.trace_poly_oracle.calls": s["traces.trace_poly_oracle"]["calls"],
        "traces.trace_poly_oracle.self_s": s["traces.trace_poly_oracle"]["self_s"],
        "links.char_poly_twobridge.s": s["links.char_poly_twobridge"]["incl_s"],
        "links.char_poly_variants.s": s["links.char_poly_variants"]["incl_s"],
        "links.closed_form.s": s["links.closed_form"]["incl_s"],
        "varieties.certify_pretzel_generic.s": s["varieties.certify_pretzel_generic"]["incl_s"],
        "varieties.certify_pretzel_extra_twist.s":
            s["varieties.certify_pretzel_extra_twist"]["incl_s"],
        "varieties.certify_rotated_even.s": s["varieties.certify_rotated_even"]["incl_s"],
        "varieties.verify_self.s": s["varieties.verify"]["self_s"],
        "numeric.relator_residual.s": s["numeric.relator_residual"]["incl_s"],
        "cli.cached_char_poly.miss_s": f * c.get("cache.miss_s", 0.0),
        "cli.cached_char_poly.hit_s": f * c.get("cache.hit_s", 0.0),
        "cli.cached_char_poly.hit_ratio": _ratio(count("cache.hits"), cache_calls),
        "cli.cached_char_poly.bytes": count("cache.bytes"),
        "setup.numpy_import_s": statistics.median(n for n, _ in splits),
        "setup.charvar_import_s": statistics.median(cv for _, cv in splits),
        "runtime.gc_s": plain_s / plain["sweep_s"] * plain["gc_s"],
        "runtime.gc_collections": plain["gc_collections"],
        "bench.trace_overhead_frac": traced_s / plain_s - 1.0,
        "bench.layer_frac": 1.0 - s["bench.point"]["self_s"] / traced_s,
    }
    self_times = sorted(
        ((row["self_s"], name) for name, row in s.items() if row["calls"]), reverse=True
    )
    notes = ["self time by span (s): " + ", ".join("%s %.4f" % (n, t) for t, n in self_times)]
    notes.append(
        "self times sum to %.4f s = traced sweep %.4f s; untraced sweep %.4f s; spans in %s"
        % (sum(t for t, _ in self_times), traced_s, plain_s, spans_path)
    )
    return metrics, plains + traceds, notes


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if not os.path.isfile(os.path.join(SRC, "charvar", "__init__.py")):
            raise BenchError("no charvar sources under %s" % SRC)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError("unknown workload %r" % args.workload)
        if args.trace:
            metrics, sweeps, notes = per_layer(args.workload, args.seed)
            declared = spec["per_layer"]
        else:
            metrics, sweeps, notes = end_to_end(args.workload, args.seed, args.seconds)
            declared = spec["end_to_end"]
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    if set(metrics) != {m["name"] for m in declared}:
        print("metrics differ from BENCHMARK.json: %s"
              % sorted(set(metrics) ^ {m["name"] for m in declared}), file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    for line in notes:
        print(line)
    for error in sorted({e for s in sweeps for e in s["errors"]}):
        print("FAILED %s" % error)
    for m in declared:
        print("%-42s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
