"""The report contract of the traced benchmark run.

`perfbench/run.py --trace 1` prints a `record` line and then a result line,
and the benchmark reads only those two: a change that keeps every answer
right can still break the report, by printing from the library, by a
non-finite metric, or by renaming a traced function.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import raagtk

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench" / "run.py"


def _strict_json(line):
    def refuse(name):
        raise ValueError("non-finite number %s" % name)

    return json.loads(line, parse_constant=refuse)


@pytest.mark.skipif(not BENCH.is_file(), reason="no perfbench/ in this checkout")
def test_traced_run_ends_with_a_strict_json_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "defect_sparse",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    record = _strict_json(lines[-2])["record"]
    result = _strict_json(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert record["absent"] == []


def test_library_keeps_stdout_to_the_cli():
    # only cli.py and the `out` callback of selftest.run_all may print, and
    # no module may log to stdout or register exit hooks
    banned = {"stdout", "register_at_fork", "basicConfig", "StreamHandler", "atexit"}
    for path in sorted(Path(raagtk.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "print", where
            elif isinstance(node, ast.Attribute):
                assert node.attr not in banned, where
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names} | {getattr(node, "module", None)}
                assert not names & banned, where
