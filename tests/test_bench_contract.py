"""The report contract of the traced benchmark run.

`perfbench/run.py --trace 1` prints a `record` line and then a result line,
and the benchmark reads only those two: a change that keeps every answer
right can still break the report, by printing from the library, by a
non-finite metric, or by renaming a traced function.
"""

import ast
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import raagtk
from raagtk import dls, elements, trees, words
from raagtk.cmp import cmp_defect
from raagtk.graph import DefGraph
from raagtk.selftest import random_dls

from conftest import rand_nf

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


@pytest.mark.skipif(not BENCH.is_file(), reason="no perfbench/ in this checkout")
def test_traced_kernels_take_each_library_call():
    # the tracer measures a kernel's word argument with len(), so a library
    # path that hands a traced kernel a bare iterator fails only when traced
    spec = importlib.util.spec_from_file_location("tracing", BENCH.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rng = random.Random(3)
    graph = DefGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    with tracing.Tracer(raagtk) as tracer:
        for _ in range(4):
            phi = random_dls(rng, graph)
            g = rand_nf(rng, graph, 12)
            dls.apply(phi, g)
            dls.compose(phi, phi)
            assert dls.verify_automorphism(phi)
            cmp_defect(phi, 2)
            elements.li_components(g)
            elements.primitive_root(g)
            elements.membership_centralizer(elements.centralizer(g), g)
            trees.tv_translation_length(graph, "a", g)
            words.median(g, words.identity(graph), rand_nf(rng, graph, 6))
    assert tracer.absent == []
    assert tracer.stats["dls.apply_images"].calls > 0


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
