"""Command-line front end: trace, charpoly, components, verify.

`components` and `verify` check a link through `_checked`; `verify` builds
each row as the text it prints, a line or a JSON object, in its worker
processes too, so only strings are pickled and no run holds every row's
objects.

Exit codes: 0 when every requested check passes, 1 on any verification
mismatch (a corrupt cache entry, a polynomial failing its fingerprint or
a count other than the paper's included), 2 on invalid input (including
an unusable cache directory and a word nested too deeply).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import partial

from . import links, varieties
from .polynomials import from_json
from .traces import RING, parse_word, trace_poly

ENGINE_VERSION = "charvar-0.1.0"

# `trace` refuses a word whose weight (sum of |exponent|), or that of any
# parenthesized power in it, is above this.
# At the limit a^200, (ab)^100, (ab^2)^66 and (aB)^100 take 0.2 s on a
# 2-CPU VM, (abAB)^50 2.0-2.3 s (66 351 terms; medians of six fresh
# processes, single runs 1.8-3.4 s), and seeded random words 6-8 s, nearly
# all of it in the walk (53k-70k terms; ten words, exponents +-1..+-3 and
# +-1).  Seeded random words of weight 100 take 0.3-0.5 s.
MAX_TRACE_WEIGHT = 200

# `charpoly`, `components` and `verify` refuse a link above its family's
# limit, checking every point of a range, before any polynomial is built.
# The slowest input at each limit on a 2-CPU VM: components pretzel:-5,-5
# 0.34 s (pretzel:-6,-6 1.0 s, pretzel:-7,-7 3.0 s); charpoly twobridge:37,31
# 0.35 s (the polynomials of twobridge:38,21, 44,19 and 50,27 0.1-0.35 s);
# components whitehead:24 0.21 s.  A `verify` range takes at most the sum of
# its points: verify 1 --m=-5..5 --n=-5..5 takes 0.73 s (peak RSS 39.4 MB;
# 0.94 s and 54.7 MB as JSON), as its points share the rows of pretzel Q,
# and verify 3 --k 0..24 0.55 s (47.6 MB; 0.58 s and 51.4 MB as JSON)
# (fresh-process medians of 11).
# MAX_TWOBRIDGE_P stays at 37 until every odd m for larger p has been timed.
MAX_PRETZEL = 5  # max(|m|, |n|) of pretzel:m,n
MAX_TWOBRIDGE_P = 37  # p of twobridge:p,m and of verify 2's b(2p, 3)
MAX_WHITEHEAD_K = 24  # k of whitehead:k


class CheckError(Exception):
    """A check failed: a bad cache entry, or a polynomial that fails its fingerprint."""


# -- cache ------------------------------------------------------------------


def _cache_path(cache_dir, p, m):
    return os.path.join(cache_dir, "twobridge_%d_%d.json" % (p, m))


def cached_char_poly(p, m, cache_dir=None):
    """Word-derived defining polynomial, optionally through an on-disk cache.

    An entry from another engine version is recomputed; one that cannot
    be parsed, whose recorded (p, m) is not its key, whose polynomial is
    not in the variables (x, y, z), or that has an exponent above the
    weight of the left relator word, raises CheckError.  Nothing else
    about a hit is checked here: `charpoly` checks it, up to sign, by the
    relator's mod-P fingerprint, and `verify` compares it, up to sign,
    with the word polynomial its report has matched to the certified
    factors.  Entries are written to a temporary file and renamed into
    place, never left half-written.
    """
    if cache_dir is None:
        return links.char_poly_twobridge(p, m).full
    path = _cache_path(cache_dir, p, m)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (ValueError, OSError) as exc:
            raise CheckError("corrupt cache entry %s: %s" % (path, exc)) from None
        if not isinstance(data, dict):
            raise CheckError("malformed cache entry %s: not an object" % path)
        if data.get("engine") == ENGINE_VERSION:
            if (data.get("p"), data.get("m")) != (p, m):
                raise CheckError("cache entry %s is for (p, m) = (%r, %r), not (%d, %d)"
                                 % (path, data.get("p"), data.get("m"), p, m))
            try:
                full = from_json(data["full"], RING)
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckError("malformed cache entry %s: %s" % (path, exc)) from None
            # no exponent of a trace polynomial is above its word's weight,
            # and a checker's power tables grow with the largest exponent
            weight = sum(abs(e) for _, e in links.relator_words(links.riley_word(p, m))[0])
            if full._top > weight:
                raise CheckError("cache entry %s has exponent %d, above %d, the weight of"
                                 " its relator word" % (path, full._top, weight))
            return full
        # stale engine version: recompute and overwrite below
    full = links.char_poly_twobridge(p, m).full
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # json.dumps runs the C encoder; json.dump streams through the
            # pure-Python one.  The bytes are the same.
            fh.write(json.dumps({"engine": ENGINE_VERSION, "p": p, "m": m, "full": full.to_json()}))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return full


# -- rendering ----------------------------------------------------------------


def _emit_poly(poly, fmt):
    if fmt == "json":
        print(json.dumps(poly.to_json()))
    else:
        print(poly)


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        value = int(text)
        return value, value
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise ValueError("empty range %s" % text)
    return lo, hi


def _check_limits(link):
    """Return link, or raise ValueError if it is above its family's limit."""
    if isinstance(link, links.Pretzel):
        what, size, limit = "max(|m|, |n|)", max(abs(link.m), abs(link.n)), MAX_PRETZEL
    elif isinstance(link, links.TwistedWhitehead):
        what, size, limit = "k", link.k, MAX_WHITEHEAD_K
    else:
        what, size, limit = "p", link.p, MAX_TWOBRIDGE_P
    if size > limit:
        raise ValueError("%s: %s = %d is above the limit of %d" % (link, what, size, limit))
    return link


# -- verify drivers ---------------------------------------------------------------


def _checked(link, seed=None, cache_dir=None):
    """(component report, the paper's count, passed) for a link of a counted family.

    With cache_dir a two-bridge link's cached polynomial must equal the
    report's up to sign, and with seed the report's polynomial must pass
    its relator's fingerprint at the pair the seed draws; a failure is a note.
    """
    tb = None if isinstance(link, links.Pretzel) else links.as_two_bridge(link)
    if tb is None:
        rep = varieties.count_components_pretzel(link.m, link.n)
        expected = varieties.pretzel_table_count(link.m, link.n)
    elif tb.m == 3 and not isinstance(link, links.TwistedWhitehead):  # W_1 = b(8, 3)
        rep, expected = varieties.verify_twobridge3(tb.p), 2
    elif tb.p % 2 or tb.m != tb.p - 1:
        raise ValueError("component counting covers b(2p,3), twisted Whitehead"
                         " and pretzel links")
    else:
        # W_k = b(4k + 4, 2k + 1): n + 1 components for W_(2n-1), n + 2 for W_(2n)
        k = tb.p // 2 - 1
        rep, expected = varieties.verify_twisted_whitehead(k), k // 2 + 2
    passed = rep.ok() and rep.component_count == expected
    if cache_dir is not None and tb is not None:
        cached = cached_char_poly(tb.p, tb.m, cache_dir)
        if cached != rep.full and cached != -rep.full:
            rep.notes.append("cached polynomial mismatch")
            passed = False
    if seed is not None and not varieties.relator_fingerprint(links.relator_word(link),
                                                              rep.full, seed):
        rep.notes.append("defining polynomial fails its mod-P fingerprint at --seed %d" % seed)
        passed = False
    return rep, expected, passed


def _cache_dir(args):
    """The cache directory a command uses, or None; an empty --cache-dir is invalid."""
    if args.cache_dir == "":
        raise ValueError("--cache-dir must not be empty")
    return args.cache_dir


def _verify_row(fmt, seed, cache_dir, link):
    """(verify row as printed, passed): a JSON object's text, or one line of text."""
    rep, expected, passed = _checked(link, seed, cache_dir)
    if fmt == "json":
        return json.dumps({**rep.to_json(), "expected_count": expected, "pass": passed}), passed
    line = ("%-18s count=%d expected=%d sign=%+d product=%s certificates=%s %s"
            % (rep.link, rep.component_count, expected, rep.sign, rep.product_check,
               rep.certificates_ok(), "pass" if passed else "FAIL"))
    return line, passed


def _run_points(fn, points, jobs):
    # a fork-started pool launches all of its workers at once, so never
    # ask for more than there are points or CPUs
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        # only here: the pool pulls in multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, points))
    return [fn(point) for point in points]


# -- commands ----------------------------------------------------------------------


def cmd_trace(args):
    _emit_poly(trace_poly(parse_word(args.word, MAX_TRACE_WEIGHT)), args.format)
    return 0


def cmd_charpoly(args):
    cache_dir = _cache_dir(args)
    spec = _check_limits(links.parse_link(args.link))
    if isinstance(spec, links.Pretzel):
        poly = links.pretzel_char_poly(spec.m, spec.n).full
    else:
        tb = links.as_two_bridge(spec)
        poly = cached_char_poly(tb.p, tb.m, cache_dir)
    if not varieties.relator_fingerprint(links.relator_word(spec), poly):
        raise CheckError("the polynomial of %s fails its mod-P fingerprint" % spec)
    _emit_poly(poly, args.format)
    return 0


def cmd_components(args):
    rep, expected, passed = _checked(_check_limits(links.parse_link(args.link)))
    if args.format == "json":
        print(json.dumps(rep.to_json()))
    else:
        print("%s: %d components" % (rep.link, rep.component_count))
        if rep.unlink:
            print("  " + "; ".join(rep.notes))
        for f in rep.factors:
            print(
                "  %-22s components=%d certificate=%s"
                % (f.kind, f.components, "ok" if f.cert_ok else "FAILED")
            )
        print(
            "  product_check=%s sign=%+d certificates_ok=%s"
            % (rep.product_check, rep.sign, rep.certificates_ok())
        )
    if rep.component_count != expected:
        print("error: %s: %d components, the paper's count is %d"
              % (rep.link, rep.component_count, expected), file=sys.stderr)
    return 0 if passed else 1


def cmd_verify(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % args.jobs)
    if args.seed is not None and args.seed < 0:
        raise ValueError("--seed must not be negative, got %d" % args.seed)
    cache_dir = _cache_dir(args)
    if args.family == "1":
        lo_m, hi_m = _parse_range(args.m)
        lo_n, hi_n = _parse_range(args.n)
        points = (links.Pretzel(m, n) for m in range(lo_m, hi_m + 1)
                  for n in range(lo_n, hi_n + 1))
    elif args.family == "2":
        lo, hi = _parse_range(args.p)
        # b(2p, 3) needs p > 3 and 3 not dividing p
        points = (links.TwoBridge(p, 3) for p in range(max(lo, 4), hi + 1) if p % 3)
    else:
        lo, hi = _parse_range(args.k)
        if lo < 0:
            raise ValueError("twist counts start at 0")
        points = (links.TwistedWhitehead(k) for k in range(lo, hi + 1))
    # listing stops at the first link above its family's limit, however
    # large the range, and builds no polynomial
    points = [_check_limits(link) for link in points]
    if not points:
        # a run that checks nothing must not report success
        raise ValueError("the given ranges contain no point of family %s" % args.family)
    results = _run_points(partial(_verify_row, args.format, args.seed, cache_dir), points,
                          args.jobs)
    rows = [row for row, _ in results]
    # the bytes of json.dumps(rows), compact, without holding every row's objects
    print("[" + ", ".join(rows) + "]" if args.format == "json" else "\n".join(rows))
    return 0 if all(passed for _, passed in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Exact SL2(C) character variety polynomials for link families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_trace = sub.add_parser("trace", help="trace polynomial of a word in a, b")
    p_trace.add_argument("word", help='e.g. "abAB", "a^3 b^-2", "(ba)^2"')
    add_common(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_char = sub.add_parser("charpoly", help="defining polynomial of a link")
    p_char.add_argument("link", help="twobridge:p,m | pretzel:m,n | whitehead:k")
    add_common(p_char)
    p_char.add_argument("--cache-dir", default=None)
    p_char.set_defaults(fn=cmd_charpoly)

    p_comp = sub.add_parser("components", help="component count with certificates")
    p_comp.add_argument("link")
    add_common(p_comp)
    p_comp.set_defaults(fn=cmd_components)

    p_ver = sub.add_parser("verify", help="batch verification over a parameter range")
    p_ver.add_argument("family", choices=("1", "2", "3"),
                       help="1: pretzel table, 2: b(2p,3) family, 3: twisted Whitehead")
    p_ver.add_argument("--m", default="-4..4", help="pretzel m range, e.g. -4..4")
    p_ver.add_argument("--n", default="-4..4", help="pretzel n range")
    p_ver.add_argument("--p", default="4..22", help="two-bridge p range")
    p_ver.add_argument("--k", default="0..10", help="twist count range")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="re-runs each row's mod-P relator fingerprint at a pair"
                            " drawn from this seed")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per point and per CPU")
    p_ver.add_argument("--cache-dir", default=None)
    add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CheckError, ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1 if isinstance(exc, CheckError) else 2


if __name__ == "__main__":
    sys.exit(main())
