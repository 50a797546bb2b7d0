"""Span recording around charvar's layer boundaries, from outside the package.

The tracer rebinds every name under which a layer entry point is reachable
(the defining module, re-imports such as ``varieties.poly_gcd`` or
``links.cheb_at``, and the package root) to one recording wrapper, and
wraps ``Polynomial.__mul__``/``__rmul__``/``div_exact`` on the class.
Recursive calls that go through the module global, such as
``traces.trace_poly`` inside ``traces._compute``, are recorded as nested
spans.

Spans are kept in flat arrays while the run lasts and written out at the
end.  Only work inside a benchmark point is recorded: the benchmark's own
correctness checks run with recording switched off.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

ROOT_SPAN = "bench.point"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self._stack = []
        self._depth = []
        self.active = False
        self.counters = defaultdict(float)

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return i

    def wrap(self, fn, name, pre=None, post=None):
        """A recording stand-in for fn.

        pre(args) runs before the call and its value is passed to
        post(args, result, pre_value, seconds) after a call that returned.
        """
        kid = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            idx = len(self.kind)
            self.kind.append(kid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outermost.append(self._depth[kid] == 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._depth[kid] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._depth[kid] -= 1
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if post is not None:
                post(args, result, token, t1 - t0)
            return result

        return traced

    def point(self, fn):
        """Wrap a benchmark point: recording is on only while it runs."""
        inner = self.wrap(fn, ROOT_SPAN)

        def run(*args):
            self.active = True
            try:
                return inner(*args)
            finally:
                self.active = False

        return run

    def summary(self):
        """{span name: {"calls", "incl_s", "self_s"}} from the recorded spans.

        incl_s sums only outermost spans of a name, so recursion is not
        counted twice; self_s is a span's duration minus the durations of
        its direct children.
        """
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.kind[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outermost[i]:
                row["incl_s"] += dur
        return out

    def dump(self, path):
        """Write every span as a tab-separated line: id, parent, name, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.kind)):
                fh.write(
                    "%d\t%d\t%s\t%.9f\t%.9f\n"
                    % (i, self.parent[i], self.names[self.kind[i]], self.start[i], self.end[i])
                )


# -- the layer map ---------------------------------------------------------------


def _max(key, value, counters):
    if value > counters[key]:
        counters[key] = value


def install(tracer):
    """Rebind every charvar layer entry point to a recording wrapper."""
    from charvar import chebyshev, cli, links, numeric, polynomials, traces, varieties

    c = tracer.counters
    Poly = polynomials.Polynomial

    def mul_post(args, result, _token, _dt):
        if result is NotImplemented:
            return
        a, b = args
        nb = len(b.terms) if isinstance(b, Poly) else int(b != 0)
        c["mul.term_pairs"] += len(a.terms) * nb
        _max("mul.out_terms_max", len(result.terms), c)
        if result.terms:
            bits = max(abs(v).bit_length() for v in result.terms.values())
            _max("mul.out_coeff_bits_max", bits, c)

    def gcd_post(_args, result, _token, _dt):
        c["poly_gcd.units"] += result.is_one()

    def div_post(_args, result, _token, _dt):
        c["div_exact.none"] += result is None

    def cheb_post(args, _result, _token, _dt):
        k = args[0]
        c["cheb_at.steps"] += k - 1 if k >= 2 else 0

    def trace_pre(_args):
        return len(traces._memo)

    def trace_post(args, _result, memo_before, _dt):
        # a miss always stores at least its own entry
        c["trace_poly.hits"] += len(traces._memo) == memo_before
        _max("trace_poly.top_syllables", len(args[0]), c)

    def cache_pre(args):
        path = cli._cache_path(args[2], args[0], args[1])
        return path, os.path.exists(path)

    def cache_post(_args, _result, token, dt):
        path, hit = token
        if hit:
            c["cache.hits"] += 1
            c["cache.hit_s"] += dt
        else:
            c["cache.misses"] += 1
            c["cache.miss_s"] += dt
            c["cache.bytes"] += os.path.getsize(path)

    functions = [
        (polynomials.poly_gcd, "polynomials.poly_gcd", None, gcd_post),
        (polynomials.is_perfect_square, "polynomials.is_perfect_square", None, None),
        (chebyshev.cheb_at, "chebyshev.cheb_at", None, cheb_post),
        (chebyshev.distinct_root_count, "chebyshev.distinct_root_count", None, None),
        (traces.trace_poly, "traces.trace_poly", trace_pre, trace_post),
        (traces.trace_poly_oracle, "traces.trace_poly_oracle", None, None),
        (links.char_poly_twobridge, "links.char_poly_twobridge", None, None),
        (links.char_poly_variants, "links.char_poly_variants", None, None),
        (links.pretzel_char_poly, "links.closed_form", None, None),
        (links.pretzel_nonabelian, "links.closed_form", None, None),
        (links.twobridge3_nonabelian, "links.closed_form", None, None),
        (links.twisted_whitehead_factors, "links.closed_form", None, None),
        (varieties.certify_pretzel_generic, "varieties.certify_pretzel_generic", None, None),
        (varieties.certify_pretzel_extra_twist, "varieties.certify_pretzel_extra_twist", None, None),
        (varieties.certify_rotated_even, "varieties.certify_rotated_even", None, None),
        (varieties.count_components_pretzel, "varieties.verify", None, None),
        (varieties.verify_twobridge3, "varieties.verify", None, None),
        (varieties.verify_twisted_whitehead, "varieties.verify", None, None),
        (numeric.relator_residual, "numeric.relator_residual", None, None),
        (cli.cached_char_poly, "cli.cached_char_poly", cache_pre, cache_post),
    ]
    # keyed by id: module attributes need not be hashable; the functions
    # stay alive in the list above, so no id is reused
    wrappers = {id(fn): tracer.wrap(fn, name, pre, post) for fn, name, pre, post in functions}
    for modname, module in list(sys.modules.items()):
        if modname != "charvar" and not modname.startswith("charvar."):
            continue
        for attr, value in list(vars(module).items()):
            w = wrappers.get(id(value))
            if w is not None:
                setattr(module, attr, w)

    mul = tracer.wrap(Poly.__mul__, "polynomials.mul", None, mul_post)
    Poly.__mul__ = mul
    Poly.__rmul__ = mul
    Poly.div_exact = tracer.wrap(Poly.div_exact, "polynomials.div_exact", None, div_post)
