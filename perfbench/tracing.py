"""Call tracing for the benchmark's traced run.

The tracer wraps library functions from outside: each wrapped name is
rebound in every ``raagtk`` module namespace that binds it, because the
modules import the word kernels by name.  For every wrapped function it
aggregates calls, inclusive time and self time (inclusive time minus the
time of wrapped calls made inside it), split by input-length bucket.  It
keeps spans in memory for top-level benchmark ops and for wrapped calls over
1 ms, and `save_spans` writes them out at the end of the run.

Work done in pool worker processes is invisible here: a forked worker
inherits the wrappers, so they turn themselves off in the child.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from array import array

SHORT_MAX = 12     # letters: "short" input bucket (inclusive)
LONG_MIN = 100     # letters: "long" input bucket (inclusive)
SPAN_MIN_S = 1e-3  # wrapped calls shorter than this leave no span

# (module, function, input-length rule, reported metrics) for every traced
# library function.  The rule maps the call's arguments to its input length
# in letters; None means the function has no word-length input.
_BASE = ("calls", "self_s")
TRACED = [
    ("words", "normal_codes", lambda a: len(a[1]), _BASE + ("us_short", "us_long")),
    ("words", "reduce_codes", lambda a: len(a[1]), _BASE),
    ("words", "median_codes", lambda a: len(a[1]) + len(a[2]) + len(a[3]),
     _BASE + ("us_short", "us_long")),
    ("words", "cyclic_reduce_codes", lambda a: len(a[1]), _BASE + ("us_long",)),
    ("words", "ball_codes", None, _BASE + ("elements",)),
    ("elements", "centralizer", None, _BASE),
    ("elements", "membership_centralizer", None, _BASE),
    ("elements", "primitive_root", None, _BASE),
    ("elements", "li_components", None, _BASE),
    ("trees", "tv_translation_length", None, _BASE),
    ("trees", "tv_distance", None, _BASE),
    ("subgroups", "member", None, _BASE),
    ("dls", "apply_images", None, _BASE),
    ("cmp", "cmp_defect", None, _BASE + ("wait_s",)),
]

# functions whose calls also record parent and child CPU time
CPU_TIMED = {"cmp.cmp_defect"}
# functions whose returned list length is counted as work done
COUNT_ITEMS = {"words.ball_codes"}


def _cpu(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "short_calls", "short_s",
                 "long_calls", "long_s", "items", "self_cpu_s", "child_cpu_s")

    def __init__(self):
        for k in self.__slots__:
            setattr(self, k, 0)


class Tracer:
    """Aggregates wrapped calls and spans.  Use as a context manager: the
    wrappers are installed on entry and the original bindings restored on
    exit."""

    def __init__(self, package, traced=TRACED):
        self.package = package
        self.traced = traced
        self.stats = {}
        self.absent = []
        self.active = False
        self._bindings = []      # (module, attribute, original)
        self._stack = []         # [span id, start, child time]
        self._next_id = 0
        self.span_names = []
        self._name_idx = {}
        self.sp_id = array("q")
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("q")

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == self.package.__name__
                                         or k.startswith(self.package.__name__ + "."))]
        for modname, fname, size_of, _ in self.traced:
            key = "%s.%s" % (modname, fname)
            mod = sys.modules.get("%s.%s" % (self.package.__name__, modname))
            orig = getattr(mod, fname, None) if mod is not None else None
            if not callable(orig):
                self.absent.append(key)
                continue
            self.stats[key] = Stat()
            wrapper = self._wrap(key, orig, size_of)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._bindings.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        self.active = True
        os.register_at_fork(after_in_child=self._deactivate)
        return self

    def __exit__(self, *exc):
        self.active = False
        for m, attr, orig in reversed(self._bindings):
            setattr(m, attr, orig)
        self._bindings.clear()
        return False

    def _deactivate(self):
        self.active = False

    # -- spans -------------------------------------------------------------

    def _name_index(self, name):
        k = self._name_idx.get(name)
        if k is None:
            k = self._name_idx[name] = len(self.span_names)
            self.span_names.append(name)
        return k

    def _push(self, t0):
        self._stack.append([self._next_id, t0, 0.0])
        self._next_id += 1

    def _pop(self, name, t1, keep):
        sid, t0, child = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        else:
            parent = -1
        if keep or dur >= SPAN_MIN_S:
            self.sp_id.append(sid)
            self.sp_name.append(self._name_index(name))
            self.sp_start.append(t0)
            self.sp_end.append(t1)
            self.sp_parent.append(parent)
        return dur, dur - child

    def op(self, name, fn, args):
        """Run one top-level benchmark op under a span of its own."""
        self._push(time.perf_counter())
        try:
            return fn(*args)
        finally:
            self._pop("op." + name, time.perf_counter(), True)

    def _wrap(self, key, fn, size_of):
        st = self.stats[key]
        cpu = key in CPU_TIMED
        count_items = key in COUNT_ITEMS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            size = size_of(args) if size_of is not None else None
            if cpu:
                c_self, c_child = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            self._push(clock())
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dur, self_dur = self._pop(key, clock(), False)
                st.calls += 1
                st.total_s += dur
                st.self_s += self_dur
                if size is not None:
                    if size <= SHORT_MAX:
                        st.short_calls += 1
                        st.short_s += dur
                    elif size >= LONG_MIN:
                        st.long_calls += 1
                        st.long_s += dur
                if count_items and out is not None:
                    st.items += len(out)
                if cpu:
                    st.self_cpu_s += _cpu(resource.RUSAGE_SELF) - c_self
                    st.child_cpu_s += _cpu(resource.RUSAGE_CHILDREN) - c_child

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ---------------------------------------------------------

    def top_level_s(self, prefix="op."):
        """Summed duration of top-level spans whose name starts with prefix."""
        total = 0.0
        for k in range(len(self.sp_id)):
            if self.sp_parent[k] == -1 and self.span_names[self.sp_name[k]].startswith(prefix):
                total += self.sp_end[k] - self.sp_start[k]
        return total

    def span_s(self, name):
        """Summed duration of the outermost spans with this exact name."""
        idx = self._name_idx.get(name)
        if idx is None:
            return 0.0
        starts = {self.sp_id[k]: k for k in range(len(self.sp_id))}
        total = 0.0
        for k in range(len(self.sp_id)):
            if self.sp_name[k] != idx:
                continue
            p = self.sp_parent[k]
            nested = False
            while p != -1 and p in starts:
                if self.sp_name[starts[p]] == idx:
                    nested = True
                    break
                p = self.sp_parent[starts[p]]
            if not nested:
                total += self.sp_end[k] - self.sp_start[k]
        return total

    def save_spans(self, path):
        doc = {
            "names": self.span_names,
            "columns": ["id", "name", "start", "end", "parent"],
            "spans": [
                [self.sp_id[k], self.sp_name[k], round(self.sp_start[k], 7),
                 round(self.sp_end[k], 7), self.sp_parent[k]]
                for k in range(len(self.sp_id))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
