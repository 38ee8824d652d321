"""Tests of the benchmark itself: answer checks, failure accounting and
tracing.  Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import raagtk as rk  # noqa: E402
import run as R  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

PER_KIND = 3


def sample_ops(name):
    """A few ops of each kind from the workload's seed-0 pass, with small
    defect radii, dependencies kept."""
    keep, index, seen = [], {}, {}
    for i, op in enumerate(W.build(rk, name, 0)):
        if op.kind == "cmp_defect" and op.args[1] > 4:
            continue
        if seen.get(op.kind, 0) >= PER_KIND or (op.dep >= 0 and op.dep not in index):
            continue
        seen[op.kind] = seen.get(op.kind, 0) + 1
        index[i] = len(keep)
        keep.append(op if op.dep < 0 else op._replace(dep=index[op.dep]))
    return keep


def wrong(r):
    """A different answer of the same type."""
    if isinstance(r, bool):
        return not r
    if isinstance(r, int):
        return r + 1
    if isinstance(r, rk.NormalForm):
        return rk.multiply(r, rk.normalize(r.graph, r.graph.vertices[0]))
    if isinstance(r, list):
        return r[:-1]
    if isinstance(r, rk.DefectReport):
        return r._replace(defect=r.defect + 1)
    if isinstance(r, rk.CyclicDecomposition):
        return r._replace(core=wrong(r.core))
    if isinstance(r, rk.CentralizerForm):
        return r._replace(cyclic_roots=tuple(wrong(h) for h in r.cyclic_roots))
    root, n = r  # primitive_root
    return root, n + 1


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def workload_pass(request):
    ops = sample_ops(request.param)
    results, _, _, _ = R.run_pass(rk, ops)
    return ops, results


def test_unplanted_pass_is_correct(workload_pass):
    ops, results = workload_pass
    checker = R.Checker(rk, W)
    checker.check_pass(ops, results)
    assert checker.attempted == len(ops)
    assert checker.failed == 0, checker.errors


def test_planted_wrong_answer_counts_as_failed(workload_pass):
    ops, results = workload_pass
    kinds = sorted({op.kind for op in ops})
    for kind in kinds:
        i = next(k for k, op in enumerate(ops) if op.kind == kind)
        planted = list(results)
        planted[i] = wrong(planted[i])
        checker = R.Checker(rk, W)
        checker.check_pass(ops, planted)
        assert (checker.failed, checker.errors) == (1, {"wrong_answer": 1}), kind


def test_wrong_answer_in_a_later_pass_counts(workload_pass):
    ops, results = workload_pass
    checker = R.Checker(rk, W)
    checker.check_pass(ops, results)
    planted = list(results)
    planted[0] = wrong(planted[0])
    checker.check_pass(ops, planted)
    assert checker.attempted == 2 * len(ops)
    assert checker.errors == {"wrong_answer": 1}


def test_exception_is_recorded_and_run_goes_on():
    plane = rk.DefGraph(["a", "b"], [("a", "b")])
    one, a = rk.identity(plane), rk.normalize(plane, "a")
    ops = [
        W.Op("centralizer", "centralizer", (one,)),          # raises
        W.Op("membership_in", "membership_centralizer", (a,), 0, one),
        W.Op("centralizer", "no_such_function", (a,)),       # a removed name
        W.Op("centralizer", "centralizer", (a,)),
    ]
    results, lat, _, _ = R.run_pass(rk, ops)
    assert len(lat) == 4 and isinstance(results[3], rk.CentralizerForm)
    checker = R.Checker(rk, W)
    checker.check_pass(ops, results)
    assert checker.errors == {"IdentityElementError": 1, "DependencyFailed": 1,
                              "AttributeError": 1}


def test_ball_count_matches_growth_series():
    for spec, sizes in ((W.P4, (9, 53, 277)), (W.C4, (9, 49, 217)),
                        ((["a", "c"], []), (5, 17, 53))):
        graph = rk.DefGraph(*spec)
        assert tuple(W.ball_count(graph, r) for r in (1, 2, 3)) == sizes


def test_tracer_rebinds_imported_names_and_restores_them():
    orig = rk.words.normal_codes
    traced = [("words", "normal_codes", lambda a: len(a[1]), ("calls", "self_s", "us_short"))]
    g = rk.normalize(rk.DefGraph(*W.P4), "a b c")
    with T.Tracer(rk, traced) as tracer:
        assert rk.elements.normal_codes is not orig
        assert rk.elements.normal_codes.__wrapped__ is orig
        tracer.op("centralizer", rk.centralizer, (g,))
    assert rk.words.normal_codes is orig and rk.elements.normal_codes is orig
    st = tracer.stats["words.normal_codes"]
    assert st.calls > 0 and st.short_calls == st.calls
    assert 0 <= st.self_s <= st.total_s
    assert tracer.top_level_s() > 0


def test_absent_traced_name_is_reported_not_fatal():
    traced = [("words", "no_such_kernel", None, ("calls", "self_s")),
              ("cmp", "cmp_defect", None, ("calls", "self_s", "wait_s"))]
    p4 = rk.DefGraph(*W.P4)
    ops = [W.Op("normalize", "normalize", (p4, rk.parse_word(p4, "a")))]
    checker = R.Checker(rk, W)
    tracer, results, wall, _ = R.traced_pass(rk, ops, checker, traced)
    assert tracer.absent == ["words.no_such_kernel"]
    m = R.per_layer_metrics(rk, "words_short", ops, results, tracer, wall, 0.0, checker, 0)
    assert m["words.no_such_kernel.calls"] == {"value": 0, "unit": "count", "absent": True}
    assert m["cmp.cmp_defect.calls"]["value"] == 0
    assert m["error_rate"]["value"] == 0


def test_timed_phase_scales_every_pass():
    p4 = rk.DefGraph(*W.P4)
    ops = [W.Op("normalize", "normalize", (p4, rk.parse_word(p4, w)))
           for w in ("a b a^-1", "c d c^-1 b", "a a a")]
    checker = R.Checker(rk, W)
    walls, speeds, op_s, cpu_s, per_op = R.timed_phase(rk, ops, checker, 0.0)
    assert len(walls) == len(speeds) == len(op_s) == R.MIN_PASSES
    assert all(f > 0 for f in speeds) and all(t > 0 for t in op_s)
    assert len(per_op) == len(ops) and per_op == sorted(per_op)
    assert checker.attempted == R.MIN_PASSES * len(ops) and checker.failed == 0
