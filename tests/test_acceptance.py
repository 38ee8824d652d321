"""Acceptance gate: runs every criterion of the oracle-backed suite at its
stated scale and prints one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` or `raagtk selftest` for the
full suite.  Criteria 1 and 2 run on a process pool sized by RAAGTK_JOBS
(see `selftest.default_jobs`); every other criterion, the defect scans of
criteria 6 and 7 included, runs in one process.
"""

import pytest

from raagtk import selftest as ST


@pytest.mark.parametrize(
    "fn", ST.CRITERIA, ids=["criterion_%02d" % (k + 1) for k in range(len(ST.CRITERIA))]
)
def test_criterion(fn):
    res = fn(seed=0)
    print("%s %2d %s: %s" % ("PASS" if res.passed else "FAIL",
                             res.number, res.name, res.detail))
    assert res.passed, "%s: %s" % (res.name, res.detail)


def _catalog_index(name):
    return [entry[0] for entry in ST.CATALOG].index(name)


@pytest.mark.parametrize("name, n", [("E2", 53), ("K2", 25)])
def test_c2_graph_checks_each_triple_once(name, n):
    # every i <= j <= k of the radius-3 ball, once: n(n+1)(n+2)/6
    assert ST._c2_graph(_catalog_index(name)) == (n * (n + 1) * (n + 2) // 6, 0)


def test_criterion_2_submits_largest_ball_first(monkeypatch):
    submitted = []

    def fake_map(fn, tasks, jobs):
        submitted.extend(tasks)
        return [(0, 0)] * len(tasks)

    monkeypatch.setattr(ST, "_map", fake_map)
    res = ST.criterion_2()
    order = ["P4", "C4", "E3", "P3", "K3", "E2", "K2"]
    assert submitted == [_catalog_index(name) for name in order]
    assert "over E2/K2/E3/P3/K3/C4/P4," in res.detail
