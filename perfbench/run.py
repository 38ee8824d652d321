#!/usr/bin/env python3
"""Benchmark for the raagtk library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the same checkout and measured
from outside; nothing in the library is changed.  One pass of a workload is
a fixed list of ops generated from the seed (see workloads.py).  The timed
phase repeats the pass until ``--seconds`` have elapsed (at least three
times) and takes each op at its fastest over the passes; the answers of
every pass are checked afterwards, outside the timed window.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run adds one traced pass,
whose per-layer metrics replace them, and then runs this workload's share of
the acceptance self-test untraced in a child process; those timings, the
machine and the source digest are printed on a ``record`` line just before
the last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# library knobs the benchmark never passes on, so that library defaults apply
SCRUBBED_ENV = ("RAAGTK_JOBS", "RAAGTK_BALL_CAP")

# setup_s is the median of the run's own set-up and repeats in fresh
# interpreters: at least SETUP_MIN in all, more while they total under
# SETUP_MIN_S, at most SETUP_MAX
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 3, 2.0, 15
RUN_BUDGET_S = 170.0     # a run must end within 180 s
MIN_PASSES = 3           # timed passes per run, however long they take
BETWEEN_SAMPLES = 30000  # sampled triples for cmp.between_frac, per traced pass

# The self-test takes about 205 s on two cores, more than one run may take,
# so each workload's traced run runs a share of it.  Criteria 1 and 2 carry
# the 60 s and 120 s wall-clock gates.
SELFTEST_SHARE = {
    "defect_sparse": (7,),
    "defect_flat": (6, 8, 9, 10, 11),
    "elements_long": (1, 3),
    "words_short": (2, 4, 5),
}
SELFTEST_GATES = {1: 60.0, 2: 120.0}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB",
}


# Other tenants of a shared host slow this one by up to 2x, in stretches from
# milliseconds to minutes, so raw times mostly measure how busy the host was.
# Every time the benchmark reports is therefore scaled to a reference speed:
# a fixed pure-Python kernel (free reduction of a 1000-letter word on a
# stack, then letter counts), which no library change can touch, is timed
# between ops for CAL_SHARE of the op time, and a pass's `speed` is its mean
# kernel time over CAL_REF_S, the kernel's time on an idle core of the host
# this was tuned on (a 2-vCPU Xeon VM, Python 3.11).  Raw times and speeds
# are on the record line.
CAL_CODES = tuple(random.Random("calibration").randrange(8) for _ in range(1000))
CAL_REF_S = 120e-6
CAL_SHARE = 0.1   # calibration seconds per op second
SETUP_CAL_S = 0.1   # calibration after each set-up
KEPT_PASSES = 16  # passes whose per-op timings give the latency percentiles


def calibration_kernel(codes=CAL_CODES):
    stack = []
    for c in codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    counts = {}
    for c in stack:
        counts[c >> 1] = counts.get(c >> 1, 0) + 1
    return tuple(stack), counts


def calibrate(seconds, out):
    """Time the calibration kernel until `seconds` have passed (at least
    once), appending each timing to `out`; returns the seconds spent."""
    clock = time.perf_counter
    t0 = clock()
    end = t0 + seconds
    while True:
        s = clock()
        calibration_kernel()
        t = clock()
        out.append(t - s)
        if t >= end:
            return t - t0


def speed(cal):
    """How much slower than the reference the host ran the kernel."""
    return statistics.fmean(cal) / CAL_REF_S


class Failure:
    """Stands in for the result of an op that raised."""

    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error


class DependencyFailed(Exception):
    pass


def cpu_now():
    """User+sys CPU of this process (ns resolution) and its reaped children
    (pool workers)."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed):
    """Import the library and build one pass; returns (rk, ops, seconds,
    seconds at reference speed).  Only the build is scaled: the import is
    mostly loading files and extension modules, which a busy host slows far
    less than it slows the calibration kernel (scaled, the import of a busy
    host read about 30% faster than that of an idle one)."""
    t0 = time.perf_counter()
    # the inputs are up to a hundred thousand objects that live for the whole
    # run: collections during set-up would only rescan them, and freezing
    # them keeps later collections from doing so inside the timed passes
    gc.disable()
    try:
        import raagtk as rk
        import workloads as W

        t1 = time.perf_counter()
        ops = W.build(rk, workload, seed)
    finally:
        gc.enable()
    t2 = time.perf_counter()
    cal = []
    calibrate(SETUP_CAL_S, cal)
    gc.freeze()
    return rk, ops, t2 - t0, (t1 - t0) + (t2 - t1) / speed(cal)


def child_cmd(*extra):
    return [sys.executable, str(Path(__file__).resolve()), *extra]


def run_child(cmd, timeout):
    """Run a child in its own session; on timeout kill the whole group (the
    self-test starts pool workers) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %.0f s" % timeout
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, err.strip()[-500:])
    return json.loads(out.strip().splitlines()[-1]), ""


def setup_samples(workload, seed, own):
    """(raw, scaled) set-up seconds of this run and of fresh interpreters."""
    samples = [own]
    while len(samples) < SETUP_MIN or (sum(r for r, _ in samples) < SETUP_MIN_S
                                       and len(samples) < SETUP_MAX):
        doc, err = run_child(child_cmd("--setup-only", "--workload", workload,
                                       "--seed", str(seed)), 120)
        if doc is None:
            raise RuntimeError("set-up child failed: " + err)
        samples.append((doc["raw_s"], doc["setup_s"]))
    return samples


# ---------------------------------------------------------------------------
# timed passes and checks
# ---------------------------------------------------------------------------

def run_pass(rk, ops, tracer=None, cal=None):
    """One closed-loop pass over the ops.  Returns results, each op's wall
    and CPU seconds, and the pass's wall seconds.  An op that raises is
    recorded, never fatal.  Given a list `cal`, the calibration kernel runs
    between ops and its timings go there; the pass wall leaves them out."""
    n = len(ops)
    results = [None] * n
    lat = array("d", bytes(8 * n))
    cpu = array("d", bytes(8 * n))
    clock = time.perf_counter
    owed = cal_s = 0.0
    t0 = clock()
    for i, op in enumerate(ops):
        fn = getattr(rk, op.fn, None)
        args = op.args
        c = cpu_now()
        s = clock()
        try:
            if fn is None:
                raise AttributeError("raagtk exports no %r" % op.fn)
            if op.dep >= 0:
                dep = results[op.dep]
                if isinstance(dep, Failure):
                    raise DependencyFailed("op %d failed" % op.dep)
                args = (dep,) + args
            if tracer is None:
                res = fn(*args)
            else:
                res = tracer.op(op.kind, fn, args)
        except Exception as e:  # recorded and counted; the run goes on
            res = Failure(type(e).__name__)
        lat[i] = clock() - s
        cpu[i] = cpu_now() - c
        results[i] = res
        if cal is not None:
            owed += CAL_SHARE * lat[i]
            if owed > 0:
                spent = calibrate(owed, cal)
                owed -= spent
                cal_s += spent
    return results, lat, cpu, clock() - t0 - cal_s


def summary(r):
    """Comparable form of a result, for matching later passes to the first."""
    if hasattr(r, "codes"):
        return r.codes
    if hasattr(r, "mask"):
        return r.mask
    if isinstance(r, (tuple, list)):
        return tuple(summary(x) for x in r)
    return r


class Checker:
    """Checks every answer.  The first pass is checked by the oracles; a
    later pass of the same ops is compared with the first pass's verified
    answers, and rechecked by the oracles where it differs."""

    def __init__(self, rk, W):
        self.oracle = W.Oracle(rk)
        self.checks = W.CHECKS
        self.ref = None
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def _fail(self, why):
        self.failed += 1
        self.errors[why] = self.errors.get(why, 0) + 1

    def _check(self, op, r):
        try:
            return bool(self.checks[op.kind](self.oracle, op, r))
        except Exception:  # a malformed answer is a wrong answer
            return False

    def check_pass(self, ops, results):
        if self.ref is None:
            self.ref = [None] * len(ops)
        for i, (op, r) in enumerate(zip(ops, results)):
            self.attempted += 1
            if isinstance(r, Failure):
                self._fail(r.error)
                continue
            key = summary(r)
            ref = self.ref[i]
            if ref is not None and key == ref[0]:
                ok = ref[1]
            else:
                ok = self._check(op, r)
                if ref is None:
                    self.ref[i] = (key, ok)
            if not ok:
                self._fail("wrong_answer")


def percentile(sorted_vals, q):
    """Nearest-rank percentile of a sorted sequence."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def timed_phase(rk, ops, checker, seconds):
    """Passes until `seconds` have elapsed, at least MIN_PASSES.  Per pass it
    keeps the raw wall, the speed, and the sums of op wall and op CPU time
    at reference speed; returns those lists and, sorted, each op's median
    wall time at reference speed over the first KEPT_PASSES passes."""
    n = len(ops)
    # allocated up front, so that peak memory does not depend on the number
    # of passes a busy or idle host allows
    kept = [array("d", bytes(8 * n)) for _ in range(KEPT_PASSES)]
    walls, speeds, op_s, cpu_s = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        cal = []
        results, lat, cpu, wall = run_pass(rk, ops, cal=cal)
        f = speed(cal)
        if len(walls) < KEPT_PASSES:
            kept[len(walls)][:] = array("d", (x / f for x in lat))
        walls.append(wall)
        speeds.append(f)
        op_s.append(math.fsum(lat) / f)
        cpu_s.append(math.fsum(cpu) / f)
        checker.check_pass(ops, results)
        del results
        if len(walls) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    per_op = sorted(map(statistics.median, zip(*kept[:len(walls)])))
    return walls, speeds, op_s, cpu_s, per_op


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def traced_pass(rk, ops, checker, traced=None):
    """One traced pass; returns the tracer, results, pass wall and speed."""
    from tracing import TRACED, Tracer

    cal = []
    with Tracer(rk, traced or TRACED) as tracer:
        results, _, _, wall = run_pass(rk, ops, tracer, cal)
    checker.check_pass(ops, results)
    return tracer, results, wall, speed(cal)


def between_fraction(rk, ops, results, seed):
    """Share of the scanned triples (x, y >= x, p) with p between x and y,
    estimated from a seeded sample spread over the calls in proportion to
    their triples.  Computed here, outside the library: the library keeps no
    such counter."""
    rng = random.Random("between/%d" % seed)
    calls = [(op, r) for op, r in zip(ops, results)
             if op.kind == "cmp_defect" and not isinstance(r, Failure)]
    triples = [r.ball_size ** 2 * (r.ball_size + 1) // 2 for _, r in calls]
    total = sum(triples)
    est = 0.0
    for (op, r), t in zip(calls, triples):
        phi, radius = op.args
        pts = rk.ball(phi.graph, radius)
        n = len(pts)
        k = max(100, BETWEEN_SAMPLES * t // total)
        hits = 0
        for _ in range(k):
            i, j = sorted((rng.randrange(n), rng.randrange(n)))
            x, y, p = pts[i], pts[j], pts[rng.randrange(n)]
            hits += rk.dist(x, p) + rk.dist(p, y) == rk.dist(x, y)
        est += t * hits / k
    return est / total if total else 0.0


def per_layer_metrics(rk, workload, ops, results, tracer, traced_wall, overhead,
                      checker, seed):
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    units = {"calls": "count", "self_s": "s", "us_short": "us", "us_long": "us",
             "elements": "count", "wait_s": "s"}
    for modname, fname, _, suffixes in tracer.traced:
        key = "%s.%s" % (modname, fname)
        st = tracer.stats.get(key)
        for suffix in suffixes:
            name = "%s.%s" % (key, suffix)
            if st is None:
                m[name] = {"value": 0, "unit": units[suffix], "absent": True}
                continue
            if suffix == "us_short":
                value = 1e6 * st.short_s / st.short_calls if st.short_calls else 0.0
            elif suffix == "us_long":
                value = 1e6 * st.long_s / st.long_calls if st.long_calls else 0.0
            elif suffix == "elements":
                value = st.items
            elif suffix == "wait_s":
                value = st.total_s - st.self_cpu_s
            else:
                value = getattr(st, suffix)
            put(name, value, units[suffix])

    # cmp work counters, computed from the reports (labelled "computed")
    sizes = [r.ball_size for op, r in zip(ops, results)
             if op.kind == "cmp_defect" and not isinstance(r, Failure)]
    st = tracer.stats.get("cmp.cmp_defect")
    put("cmp.worker_cpu_s", st.child_cpu_s if st else 0.0, "s")
    put("cmp.ball_size", max(sizes, default=0), "count")
    put("cmp.pairs_reduced", sum(n * (n - 1) for n in sizes), "count")
    put("cmp.triples_scanned", sum(n * n * (n + 1) // 2 for n in sizes), "count")
    put("cmp.between_frac", between_fraction(rk, ops, results, seed) if sizes else 0.0, "ratio")

    put("trace.overhead_frac", overhead, "ratio")
    covered = tracer.span_s("cmp.cmp_defect") if workload.startswith("defect") \
        else tracer.top_level_s()
    put("trace.span_coverage", covered / traced_wall, "ratio")
    put("error_rate", checker.failed / checker.attempted, "ratio")
    return m


def run_selftest_share(workload, deadline):
    share = SELFTEST_SHARE[workload]
    doc, err = run_child(child_cmd("--selftest", ",".join(map(str, share))),
                         deadline - time.perf_counter())
    if doc is None:
        return {"criteria": list(share), "error": err}
    out = {"criteria": list(share)}
    for c in doc["results"]:
        k = c["number"]
        out["selftest.c%d_s" % k] = c["seconds"]
        out["selftest.c%d_passed" % k] = c["passed"]
        if k in SELFTEST_GATES:
            out["selftest.c%d_headroom_s" % k] = SELFTEST_GATES[k] - c["seconds"]
    return out


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def machine_record():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def source_record():
    digest = hashlib.sha256()
    for p in sorted((SRC / "raagtk").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def parse_args(argv):
    import workloads as W

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--selftest", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and args.selftest is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    for k in SCRUBBED_ENV:
        os.environ.pop(k, None)
    if not (SRC / "raagtk" / "__init__.py").is_file():
        print("perfbench: no library source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.selftest is not None:
        import raagtk.selftest as ST

        only = {int(c) for c in args.selftest.split(",")}
        res = ST.run_all(only=only, out=lambda *a: None)
        print(json.dumps({"results": [r._asdict() for r in res]}))
        return 0

    rk, ops, raw_setup_s, own_setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"raw_s": raw_setup_s, "setup_s": own_setup_s}))
        return 0
    import workloads as W

    samples = setup_samples(args.workload, args.seed, (raw_setup_s, own_setup_s))
    checker = Checker(rk, W)
    walls, speeds, op_s, cpu_s, lats = timed_phase(rk, ops, checker, args.seconds)
    wall_s = statistics.median(op_s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_pass": len(ops), "passes": len(walls),
        "pass_walls_s": walls, "pass_speeds": speeds, "op_samples": len(lats),
        "setup_samples_s": [r for r, _ in samples],
        "setup_scaled_s": [s for _, s in samples],
        "machine": machine_record(), **source_record(),
    }
    metrics = {
        "setup_s": statistics.median(s for _, s in samples),
        "wall_s": wall_s,
        "cpu_s": statistics.median(cpu_s),
        "ops_per_s": len(ops) / wall_s,
        "op_p50_ms": 1e3 * percentile(lats, 0.50),
        "op_p99_ms": 1e3 * percentile(lats, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    if args.trace:
        tracer, results, traced_wall, traced_speed = traced_pass(rk, ops, checker)
        untraced = statistics.median(w / f for w, f in zip(walls, speeds))
        metrics = per_layer_metrics(rk, args.workload, ops, results, tracer, traced_wall,
                                    traced_wall / traced_speed / untraced - 1.0, checker,
                                    args.seed)
        del results
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("spans-%s.json" % args.workload)
        tracer.save_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["absent"] = tracer.absent
        record["computed"] = ["cmp.worker_cpu_s", "cmp.ball_size", "cmp.pairs_reduced",
                              "cmp.triples_scanned", "cmp.between_frac (sampled)"]
        record["selftest"] = run_selftest_share(args.workload, started + RUN_BUDGET_S)

    record["errors"] = checker.errors
    record["error_rate"] = checker.failed / checker.attempted
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
