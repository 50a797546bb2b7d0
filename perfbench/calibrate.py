"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's machine is a small shared VM whose speed drifts: a fixed
pure-Python loop took from 0.135 s to 0.195 s within one minute, and the
same trace_oracle sweep from 1.5 s to 3.0 s within a few minutes.  The
drift is host contention, not steal time, so CPU time drifts with wall
time.

Every time measured inside a sweep is therefore scaled by NOMINAL_S over
the reference time measured in the same interpreter around it.  The
kernel is the sparse integer polynomial product of the charvar seed,
frozen here so that no change to charvar can alter it; the reported
figures are seconds at the speed where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import random
import time

# the kernel's typical time on the 2-vCPU machine the bounds were set on
NOMINAL_S = 0.0045


def _poly(rng, terms):
    return {
        (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)): rng.choice((-1, 1))
        * rng.randint(1, 99)
        for _ in range(terms)
    }


_rng = random.Random(0)
_A = _poly(_rng, 60)
_B = _poly(_rng, 60)


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(i + j for i, j in zip(ea, eb))
            s = out.get(exp, 0) + ca * cb
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def reference_time():
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    _mul(_A, _B)
    return time.perf_counter() - t0


def scaled_times(times, reference):
    """Point times at nominal speed.

    reference holds one sample before the first point and one after each
    point; each point is scaled by the mean of the two samples around it,
    which follows the drift far better than one factor for the sweep.
    """
    return [
        t * 2 * NOMINAL_S / (reference[i] + reference[i + 1]) for i, t in enumerate(times)
    ]
