"""Huge radii, exponents and powers: the CLI refuses each with a typed error
before it starts the work.  The bounds that fire are the ball cap
(`words.BALL_CAP`), the word-size check (`words.LETTER_BYTES`) and the
certificate work bound (`dls.CERTIFY_WORK`).

Each example runs in its own child process, one at a time, with its address
space capped well below physical memory, so a check that failed to fire
ends that child and not the host."""

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_child

GRAPHS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "graphs")
# free2 and path balls grow exponentially, so every radius >= 20 passes the cap
SPLITTINGS = {"free2": "fold v=a z=c", "path": "pconj A=a,b B=b,c C=b z=a"}
ERRORS = {"ball_cap_exceeded", "memory_limit", "out_of_range"}

# The child caps its address space once raagtk is imported, at what it then
# uses plus 512 MiB.  numpy is no longer loaded before the cap, only by a
# `cmp defect` that gets past the ball cap; the headroom still covers loading
# it (an interpreter with numpy imported maps about 150 MB on a 2-core x86-64
# Linux host), and a ball at the cap peaks under 70 MB resident.
CHILD = """
import resource, sys
from raagtk.cli import main
with open("/proc/self/statm") as f:
    used = int(f.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = used + 512 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))
sys.exit(main(sys.argv[1:]))
"""


@st.composite
def huge_argvs(draw):
    graph = draw(st.sampled_from(sorted(SPLITTINGS)))
    split = SPLITTINGS[graph]
    kind = draw(st.sampled_from(["radius", "word", "power"]))
    if kind == "radius":
        r = str(draw(st.integers(20, 10 ** 9)))
        argv = draw(st.sampled_from([
            ["cmp", "defect", "--dls", split, "--radius", r],
            ["tree", "almost-stab", "--vertex", "a", "--end", "a", "--radius", r],
            ["subgroup", "intersect", "--subgroup", "support=a", "--subgroup2", "support=c",
             "--radius", r],
        ]))
    elif kind == "word":
        word = "%s^%d" % (draw(st.sampled_from("ac")),
                          draw(st.sampled_from([1, -1])) * draw(st.integers(10 ** 13, 10 ** 18)))
        argv = draw(st.sampled_from([
            ["normalize"], ["multiply", "--word", "a"], ["element", "root"],
            ["element", "centralizer"], ["tree", "length", "--vertex", "a"],
            ["subgroup", "member", "--subgroup", "support=a"], ["dls", "apply", "--dls", split],
            ["decomp", "good"],
        ])) + ["--word", word]
    else:
        argv = ["dls", "certify", "--dls", split,
                "--max-power", str(draw(st.integers(10 ** 7, 10 ** 12)))]
    return argv + ["--graph", os.path.join(GRAPHS, graph + ".graph"), "--json"]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@settings(max_examples=16, deadline=None)
@given(argv=huge_argvs())
def test_huge_inputs_are_refused_fast(argv):
    t0 = time.time()
    proc = run_child(["-c", CHILD, *argv], capture_output=True)
    dt = time.time() - t0
    assert proc.returncode == 1, (argv, proc.stderr)
    assert json.loads(proc.stdout)["error"] in ERRORS, argv
    assert dt < 5.0, (argv, dt)
