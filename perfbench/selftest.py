"""Planted-fault self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py [--seed N]

Runs one twobridge3_sweep sweep in which the cache entry for p = 10 gets
one coefficient changed between the write and the read back.
``cli.cached_char_poly`` returns such an entry without complaint, so only
the benchmark's own check of the cache hit against the closed form can
catch it.  The test passes when exactly that point is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import HERE, _run

FAULT_P = 10


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    worker = os.path.join(HERE, "worker.py")
    cmd = [sys.executable, worker, "twobridge3_sweep", str(args.seed),
           "--plant-fault", str(FAULT_P)]
    out = json.loads(_run(cmd).stdout.splitlines()[-1])
    fail_frac = out["failed"] / out["attempted"]
    print("planted fault at p = %d: failed %d of %d (fail_frac %.4f)"
          % (FAULT_P, out["failed"], out["attempted"], fail_frac))
    for error in out["errors"]:
        print("  " + error)
    ok = out["failed"] == 1 and out["errors"][0].startswith("%d:" % FAULT_P)
    print("selftest %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
