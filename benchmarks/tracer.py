"""Per-layer tracing from outside the library.

``Tracer`` is a context manager that wraps library callables while it is
open and restores them on exit.  Each call becomes a span (name, start,
end, parent) kept in flat arrays; nothing is computed on the hot path
beyond a few counters.  Self time is a span's duration minus the time its
direct child spans cover.

A layer is a module.  In ``skewpoly``, ``oddops``, ``onh``, ``oddsym`` and
``cyclotomic`` only the callables behind a named metric are wrapped; the
time of their other functions counts toward the caller.  In ``evenoracle``,
``qgrade``, ``combinat`` and ``verify`` every public function and method is
wrapped and the layer is reported as a whole.

Module functions are replaced under every name any ``oddnil`` module binds
them to (``oddops`` imports ``apply_simple_transposition`` by name, ``cli``
imports ``format_qlaurent``), so no call path slips past the patch.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

from oddnil import oddops, oddsym, skewpoly, verify

# span name -> callables, named by "<module>.<qualname>"
_NAMED = {
    "skewpoly.mul": ["skewpoly.SkewPolynomial.__mul__"],
    "skewpoly.add": ["skewpoly.SkewPolynomial.__add__"],
    "skewpoly.transposition": ["skewpoly.apply_simple_transposition"],
    "oddops.dd": ["oddops.divided_difference"],
    "onh.evaluate": ["onh.OnhElement.evaluate"],
    "onh.apply_word": ["onh.apply_word"],
    "onh.element_mul": ["onh.OnhElement.__mul__"],
    "oddsym.expand": ["oddsym.expand_in_elementary"],
    "cyclotomic.slice": ["cyclotomic.ideal_degree_slice", "cyclotomic.first_column_degree_slice"],
    "cyclotomic.hnf": ["cyclotomic.hermite_normal_form"],
    "cyclotomic.smith": ["cyclotomic.smith_invariant_factors"],
}
WHOLE_MODULES = ("evenoracle", "qgrade", "combinat", "verify")


def _resolve(dotted):
    modname, _, qual = dotted.partition(".")
    owner = sys.modules["oddnil." + modname]
    parts = qual.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _public_callables(modname):
    """(owner, attribute, qualified name) for every public function or
    method defined in an ``oddnil`` module."""
    mod = sys.modules["oddnil." + modname]
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if attr.startswith("_") and not attr.startswith("__"):
                    continue
                if inspect.isfunction(val) or isinstance(val, (classmethod, staticmethod)):
                    out.append((obj, attr, "%s.%s.%s" % (modname, name, attr)))
        elif callable(obj):
            out.append((mod, name, "%s.%s" % (modname, name)))
    return out


class Tracer:
    """Collects spans for the library calls made while it is open."""

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.check_s = defaultdict(float)
        self.slice_keys = set()
        self._stack = [-1]
        self._patches = []
        self._cache_before = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, post=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, stack = self.span_name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result, ends[idx] - starts[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(owner, attribute, span name, post hook) for every patch."""
        out = []
        for span, dotted_list in _NAMED.items():
            for dotted in dotted_list:
                owner, attr = _resolve(dotted)
                post = functools.partial(self._post_slice, attr) if span == "cyclotomic.slice" else None
                out.append((owner, attr, span, post))
        for modname in WHOLE_MODULES:
            for owner, attr, span in _public_callables(modname):
                post = self._post_run_check if span == "verify.run_check" else None
                out.append((owner, attr, span, post))
        return out

    def _install(self):
        lib_modules = [m for n, m in sys.modules.items() if n == "oddnil" or n.startswith("oddnil.")]
        for owner, attr, span, post in self._targets():
            raw = vars(owner)[attr]
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if span == "skewpoly.mul":
                fn = self._count_mul(fn)
            elif span == "oddops.dd":
                fn = self._count_dd(fn)
            wrapped = self._wrap(fn, span, post)
            replacement = kind(wrapped) if kind else wrapped
            if inspect.isclass(owner):
                # every alias in the class body (__radd__ = __add__)
                for name, val in list(vars(owner).items()):
                    if val is raw:
                        self._patch(owner, name, replacement)
            else:
                for mod in lib_modules:
                    for name, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, name, replacement)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _count_mul(self, fn):
        counters = self.counters
        poly = skewpoly.SkewPolynomial

        def mul(f, g):
            if isinstance(g, poly):
                counters["skewpoly.mul.term_pairs"] += len(f.terms) * len(g.terms)
            return fn(f, g)

        return mul

    def _count_dd(self, fn):
        counters = self.counters

        def dd(i, p):
            counters["oddops.dd.terms_in"] += len(p.terms)
            return fn(i, p)

        return dd

    def _post_slice(self, function, args, kwargs, result, dur):
        self.counters["cyclotomic.slice.generator_rows"] += len(result.generators)
        self.counters["cyclotomic.slice.rank_sum"] += result.rank
        self.slice_keys.add((function, args, tuple(sorted(kwargs.items()))))

    def _post_run_check(self, args, kwargs, result, dur):
        self.check_s[result.check_id] += dur
        self.counters["verify.instances"] += result.instances

    def __enter__(self):
        self._cache_before = _oddsym_cache_stats()
        self._install()
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)
        return False

    # -- results --------------------------------------------------------------

    def self_times(self):
        """{span name: (calls, self seconds)} from the recorded spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = Counter()
        own = defaultdict(float)
        names = self.names
        for i, nid in enumerate(self.span_name):
            calls[names[nid]] += 1
            own[names[nid]] += dur[i] - covered[i]
        return {n: (calls[n], own[n]) for n in calls}

    def metrics(self):
        """Every per-layer metric this tracer can report, by name."""
        spans = self.self_times()
        out = {}

        def put(metric, span_names):
            out[metric + ".calls"] = sum(spans.get(n, (0, 0.0))[0] for n in span_names)
            out[metric + ".self_s"] = sum(spans.get(n, (0, 0.0))[1] for n in span_names)

        for span in _NAMED:
            put(span, [span])
        for modname in WHOLE_MODULES:
            put(modname, [n for n in spans if n.split(".", 1)[0] == modname])
        c = self.counters
        out["skewpoly.mul.term_pairs"] = c["skewpoly.mul.term_pairs"]
        out["oddops.dd.terms_in"] = c["oddops.dd.terms_in"]
        out["oddops.dd.memo_entries"] = len(oddops._dd_cache)
        instances = c["verify.instances"]
        out["verify.instances"] = instances
        out["onh.evaluate.per_instance"] = out["onh.evaluate.calls"] / instances if instances else 0.0
        before, after = self._cache_before, _oddsym_cache_stats()
        hits, misses = after[0] - before[0], after[1] - before[1]
        out["oddsym.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["oddsym.cache.entries"] = after[2]
        rows = c["cyclotomic.slice.generator_rows"]
        out["cyclotomic.slice.generator_rows"] = rows
        out["cyclotomic.slice.useful_ratio"] = c["cyclotomic.slice.rank_sum"] / rows if rows else 0.0
        out["cyclotomic.slice.rebuilds"] = out["cyclotomic.slice.calls"] - len(self.slice_keys)
        for cid in verify.REGISTRY:
            out["verify.check_s." + cid] = self.check_s.get(cid, 0.0)
        out["trace.spans"] = len(self.start)
        return out

    def write_spans(self, path):
        """Write every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["span_name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read_spans(path):
    """Inverse of ``Tracer.write_spans``: (names, {array name: array})."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            arrays[name] = arr
    return header["names"], arrays


def _oddsym_cache_stats():
    """(hits, misses, entries) summed over the lru caches in oddsym."""
    hits = misses = entries = 0
    for obj in vars(oddsym).values():
        info = getattr(obj, "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
            entries += ci.currsize
    return hits, misses, entries
