"""Record a BENCH_*.json snapshot of one or more checkouts, measured side by side.

    python3 tools/bench_snapshot.py --out BENCH_22.json parent=PATH change=PATH

Each NAME=PATH is a checkout with ``src/charvar`` and ``perfbench/``.  For
every side the snapshot records:

  * ``perfbench/run.py --workload W --seed S --seconds 25 --trace 0``,
    run unchanged for each workload of the first checkout's BENCHMARK.json
    and each seed 101-105: every run's end-to-end metrics, with their median
    and quartiles, the unscaled sweep times that run.py prints next to the
    scaled ones, and the points attempted and failed;
  * fresh-process wall times of ``charvar verify 1``, ``verify 2`` and
    ``verify 3`` at their default ranges, of ``verify 3 --k 0..24`` and
    ``verify 1 --m=-5..5 --n=-5..5`` at the CLI limits and of the
    ``trace abAB`` cold start over 20 turns, with their medians and the
    turns each side was the fastest in;
  * the wall time of the checkout's Tier-1 suite and its summary line;

and, once, nproc and the Python version.  The sides take turns on every
measurement, the first side first on even turns and last on odd ones, so
a drift in the machine's speed reaches each side alike.  Nothing runs in
parallel.  The exit code is 1 if a benchmark run fails to produce its
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEEDS = (101, 102, 103, 104, 105)
SECONDS = 25
REPEATS = 20  # turns of fresh processes per CLI command
TIER1_RUNS = 3
COMMANDS = {
    "verify 1": ["verify", "1"],
    "verify 2": ["verify", "2"],
    "verify 3": ["verify", "3"],
    "verify 3 --k 0..24": ["verify", "3", "--k", "0..24"],
    "verify 1 --m=-5..5 --n=-5..5": ["verify", "1", "--m=-5..5", "--n=-5..5"],
    "trace abAB": ["trace", "abAB"],
}
UNSCALED = "unscaled (s): "  # run.py's line of unscaled medians
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _env(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(path, "src")
    return env


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def _turns(sides, i):
    return sides if i % 2 == 0 else sides[::-1]


def _commit(path):
    def git(*args):
        proc = subprocess.run(["git", "-C", path, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain")
    return {"commit": head, "uncommitted_changes": bool(dirty) if head else None}


def bench_run(path, workload, seed):
    cmd = [sys.executable, os.path.join(path, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s failed (exit %d): %s" % (" ".join(cmd), proc.returncode,
                                                        proc.stderr.strip()[-500:]))
    result = json.loads(lines[-1])
    unscaled = next(line for line in lines if line.startswith(UNSCALED))
    pairs = (item.split() for item in unscaled[len(UNSCALED):].split(", "))
    result["unscaled_s"] = {m: float(v) for m, v in pairs}
    return result


def wall(cmd, path):
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=path, env=_env(path), capture_output=True, text=True)
    return time.perf_counter() - start, proc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("sides", nargs="+", metavar="NAME=PATH")
    args = parser.parse_args(argv)
    paths = {}
    for item in args.sides:
        name, sep, path = item.partition("=")
        if not sep or not name or not os.path.isdir(os.path.join(path, "src", "charvar")):
            parser.error("%r is not NAME=PATH of a checkout with src/charvar" % item)
        paths[name] = os.path.abspath(path)
    names = list(paths)
    with open(os.path.join(paths[names[0]], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    raw = {name: {w: [] for w in workloads} for name in names}
    turn = 0
    for w in workloads:
        for seed in SEEDS:
            for name in _turns(names, turn):
                result = bench_run(paths[name], w, seed)
                raw[name][w].append(result)
                print("%-8s %-18s seed %d sweep_s %.4f failed %d" % (
                    name, w, seed, result["metrics"]["sweep_s"]["value"], result["failed"]),
                    flush=True)
            turn += 1

    times = {name: {c: [] for c in COMMANDS} for name in names}
    wins = {name: dict.fromkeys(COMMANDS, 0) for name in names}
    for c, argv_c in COMMANDS.items():
        for _ in range(REPEATS):
            for name in _turns(names, turn):
                seconds, proc = wall([sys.executable, "-m", "charvar", *argv_c], paths[name])
                if proc.returncode != 0:
                    raise RuntimeError("%s: charvar %s exited %d" % (name, c, proc.returncode))
                times[name][c].append(seconds)
            wins[min(names, key=lambda n: times[n][c][-1])][c] += 1
            turn += 1
        print("%-12s %s" % (c, "  ".join("%s %.3f s (fastest in %d)"
                                          % (n, statistics.median(times[n][c]), wins[n][c])
                                          for n in names)), flush=True)

    tier1 = {name: {"runs": [], "summary": None, "exit_code": None} for name in names}
    for _ in range(TIER1_RUNS):
        for name in _turns(names, turn):
            seconds, proc = wall([sys.executable, *TIER1], paths[name])
            tier1[name]["runs"].append(seconds)
            tier1[name]["summary"] = (proc.stdout.strip().splitlines() or [""])[-1]
            tier1[name]["exit_code"] = proc.returncode
        turn += 1
    for name in names:
        tier1[name]["median"] = statistics.median(tier1[name]["runs"])
        print("tier-1 %-8s %.1f s  %s" % (name, tier1[name]["median"], tier1[name]["summary"]))

    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "settings": {
            "bench": "perfbench/run.py --workload W --seed S --seconds %d --trace 0" % SECONDS,
            "seeds": list(SEEDS),
            "fresh_process_turns": REPEATS,
            "tier1": "python3 " + " ".join(TIER1),
            "tier1_runs": TIER1_RUNS,
            "order": "sides alternate on every measurement",
        },
    }
    for name in names:
        side = dict(_commit(paths[name]))
        side["workloads"] = {}
        for w in workloads:
            runs = raw[name][w]
            side["workloads"][w] = {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {
                    m: dict(unit=runs[0]["metrics"][m]["unit"],
                            **_summary([r["metrics"][m]["value"] for r in runs]))
                    for m in metrics
                },
                "unscaled_s": {
                    m: _summary([r["unscaled_s"][m] for r in runs]) for m in runs[0]["unscaled_s"]
                },
            }
        side["fresh_process_s"] = {c: dict(_summary(times[name][c]), fastest_turns=wins[name][c])
                                   for c in COMMANDS}
        side["tier1_s"] = tier1[name]
        out[name] = side
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
