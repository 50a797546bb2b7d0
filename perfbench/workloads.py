"""The four workloads: seeded inputs, one verify call per point, and
an independent check of every point.

A point is one call the ``charvar verify`` command makes: one (m, n), one
k, one p, or one word.  Calls look the entry points up on their modules at
call time, so the tracer's rebinding is seen.

Input sizes are fixed so that one sweep takes about 2 s on a 2-CPU
machine, and a run repeats the sweep several times and reports medians:

* pretzel_grid covers [-3, 3]^2 (49 points).  The full [-4, 4]^2 table
  takes about 35 s, 14 s of it at (-4, -4), more than one run may take.
* whitehead_sweep covers k = 0..12; k <= 20 takes about 30 s.
* twobridge3_sweep covers p = 4..35 with 3 not dividing p (22 points).
* trace_oracle takes the first 30 words criterion 2 draws.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple

from charvar import cli, links, numeric, traces, varieties
from charvar.traces import RING

PRETZEL_RANGE = range(-3, 4)
WHITEHEAD_KS = range(0, 13)
TWOBRIDGE3_PS = tuple(p for p in range(4, 36) if p % 3)
RESIDUAL_P_MAX = 9  # the CLI's numeric spot check runs at p <= 9
RESIDUAL_TOL = 1e-6
ORACLE_WORDS = 30
CRITERION_2_SEED = 901
ORACLE_MAX_SYLLABLES = 12
ORACLE_MAX_EXP = 4

Workload = namedtuple("Workload", "points call check")


def _sign_of(full, factors):
    """+1 or -1 when full = +-(product of the factor polynomials), else 0."""
    prod = RING.one()
    for f in factors:
        prod = prod * f.poly
    if full == prod:
        return 1
    if full == -prod:
        return -1
    return 0


def _report_ok(rep, full, expected_count):
    sign = _sign_of(full, rep.factors)
    return (
        sign != 0
        and rep.product_check
        and rep.sign == sign
        and rep.certificates_ok()
        and rep.component_count == expected_count
    )


# -- pretzel_grid ------------------------------------------------------------------


def pretzel_grid(seed, work_dir):
    points = [(m, n) for m in PRETZEL_RANGE for n in PRETZEL_RANGE]
    random.Random(seed).shuffle(points)

    def call(point):
        return varieties.count_components_pretzel(*point)

    def check(point, rep):
        expected = varieties.pretzel_table_count(*point)
        full = links.pretzel_char_poly(*point).full
        if point == (0, -1):
            return rep.unlink and full.is_zero() and rep.component_count == expected
        return not rep.unlink and _report_ok(rep, full, expected)

    return Workload(points, call, check)


# -- whitehead_sweep ---------------------------------------------------------------


def whitehead_expected(k):
    """n + 1 components for k = 2n - 1, n + 2 for k = 2n."""
    return (k + 1) // 2 + 1 if k % 2 else k // 2 + 2


def whitehead_sweep(seed, work_dir):
    # the charvar verify 3 order: ascending k, one process, so the trace
    # memo is shared across k; the inputs do not depend on the seed
    def call(k):
        return varieties.verify_twisted_whitehead(k)

    def check(k, rep):
        full = links.char_poly_twobridge(2 * k + 2, 2 * k + 1).full
        return _report_ok(rep, full, whitehead_expected(k))

    return Workload(list(WHITEHEAD_KS), call, check)


# -- twobridge3_sweep --------------------------------------------------------------


def corrupt_cache_entry(path):
    """Add 1 to the first coefficient of a cache entry, keeping it valid JSON."""
    with open(path) as fh:
        data = json.load(fh)
    term = data["full"]["terms"][0]
    term["coeff"] = str(int(term["coeff"]) + 1)
    with open(path, "w") as fh:
        json.dump(data, fh)


def twobridge3_sweep(seed, work_dir, plant_fault_at=None):
    """The charvar verify 2 --seed --cache-dir path, in a fresh cache directory.

    plant_fault_at names a p whose cache entry is corrupted between the
    write and the read back; the benchmark must then count that point as
    failed.
    """
    cache_dir = work_dir
    pair = numeric.random_rep(seed)

    def call(p):
        rep = varieties.verify_twobridge3(p)
        cli.cached_char_poly(p, 3, cache_dir)  # miss: compute and write
        if p == plant_fault_at:
            corrupt_cache_entry(cli._cache_path(cache_dir, p, 3))
        hit = cli.cached_char_poly(p, 3, cache_dir)  # hit: read back
        resid = None
        if p <= RESIDUAL_P_MAX:
            resid = numeric.relator_residual(links.TwoBridge(p, 3), pair)
        return rep, hit, resid

    def check(p, result):
        rep, hit, resid = result
        full = links.char_poly_twobridge(p, 3).full
        closed = links.REDUCIBLE_SURFACE * links.twobridge3_nonabelian(p)
        return (
            _report_ok(rep, full, 2)
            and (hit == closed or hit == -closed)
            and (resid is None or resid < RESIDUAL_TOL)
        )

    return Workload(list(TWOBRIDGE3_PS), call, check)


# -- trace_oracle ------------------------------------------------------------------


def random_word(rng, max_syllables=ORACLE_MAX_SYLLABLES, max_exp=ORACLE_MAX_EXP):
    """The acceptance suite's criterion-2 word generator."""
    out = []
    gen = rng.choice("ab")
    for _ in range(rng.randint(0, max_syllables)):
        e = 0
        while e == 0:
            e = rng.randint(-max_exp, max_exp)
        out.append((gen, e))
        gen = "b" if gen == "a" else "a"
    return traces.free_reduce(tuple(out))


def oracle_words(seed, count=ORACLE_WORDS):
    # The words are the first ones criterion 2 draws (its generator and
    # seed); the benchmark seed sets only the visit order.  The oracle's
    # cost per word depends on the exponent signs by large factors: with
    # seeded signs, 80 words took 5.8 s to 7.7 s across five seeds.
    pool = random.Random(CRITERION_2_SEED)
    words = [random_word(pool) for _ in range(count)]
    random.Random(seed).shuffle(words)
    return words


def trace_oracle(seed, work_dir):
    def call(word):
        return traces.trace_poly(word), traces.trace_poly_oracle(word)

    def check(word, result):
        engine, oracle = result
        return engine == oracle

    return Workload(oracle_words(seed), call, check)


WORKLOADS = {
    "pretzel_grid": pretzel_grid,
    "whitehead_sweep": whitehead_sweep,
    "twobridge3_sweep": twobridge3_sweep,
    "trace_oracle": trace_oracle,
}
