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
