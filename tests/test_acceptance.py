"""Acceptance gate: runs every criterion of the oracle-backed suite at its
stated scale and prints one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` or `raagtk selftest` for the
full suite.  Each criterion goes through `selftest.run_criterion`, so the
wall-clock gates of criteria 1 (60 s) and 2 (120 s) apply here too.
Criteria 1 and 2 run on a pool of `selftest.default_jobs()` workers (2,
clamped to the cpu count); every other criterion, the defect scans of
criteria 6 and 7 included, runs in one process.
"""

import itertools

import pytest

from raagtk import selftest as ST


@pytest.mark.parametrize(
    "number", range(1, len(ST.CRITERIA) + 1),
    ids=["criterion_%02d" % k for k in range(1, len(ST.CRITERIA) + 1)]
)
def test_criterion(number):
    res = ST.run_criterion(number, seed=0)
    print("%s %2d %s: %s" % ("PASS" if res.passed else "FAIL",
                             res.number, res.name, res.detail))
    assert res.passed, "%s: %s" % (res.name, res.detail)


@pytest.mark.parametrize("name, n", [("E2", 53), ("K2", 25)])
def test_c2_graph_checks_each_triple_once(name, n):
    # every i <= j <= k of the radius-3 ball, once: n(n+1)(n+2)/6
    assert ST._c2_graph(ST.CATALOG_INDEX[name]) == (n * (n + 1) * (n + 2) // 6, 0)


def test_criterion_2_submits_largest_ball_first(monkeypatch):
    submitted = []

    def fake_map(fn, tasks, jobs):
        submitted.extend(tasks)
        return [(0, 0)] * len(tasks)

    monkeypatch.setattr(ST, "_map", fake_map)
    res = ST.run_criterion(2)
    order = ["P4", "C4", "E3", "P3", "K3", "E2", "K2"]
    assert submitted == [ST.CATALOG_INDEX[name] for name in order]
    assert "over E2/K2/E3/P3/K3/C4/P4," in res.detail


def test_gate_is_strict(monkeypatch):
    # a fake clock: the check starts at 0 s and ends at `end`, where the
    # clock then stays
    monkeypatch.setattr(ST, "CRITERIA", [(lambda seed, jobs: (True, "ok"), "fake", 60.0)])
    for end, passed in ((60.0, False), (59.9, True)):
        ticks = itertools.chain([0.0], itertools.repeat(end))
        monkeypatch.setattr(ST.time, "time", lambda: next(ticks))
        res = ST.run_criterion(1)
        assert res == ST.CriterionResult(1, "fake", passed, "ok, %.1fs" % end, end)
