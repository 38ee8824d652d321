import json
import os
import random
import subprocess
import time

import pytest

from raagtk import dls, selftest
from raagtk.cli import main
from raagtk.words import CLOSURE_WORK, ball_codes

from conftest import run_child


@pytest.fixture
def graph_files(tmp_path):
    z2 = tmp_path / "z2.graph"
    z2.write_text("vertices: a b\nedge: a b\n")
    path = tmp_path / "path.graph"
    path.write_text("vertices: a b c\nedge: a b\nedge: b c\n")
    free = tmp_path / "free2.graph"
    free.write_text("vertices: a c\n")
    return {"z2": str(z2), "path": str(path), "free": str(free)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    docs = [json.loads(line) for line in out.strip().splitlines() if line]
    assert len(docs) == 1
    assert docs[0].get("schema") == 1
    return code, docs[0]


def test_normalize_identity(graph_files, capsys):
    code, out = run(capsys, "normalize", "--graph", graph_files["path"],
                    "--word", "a a^-1")
    assert code == 0 and out.strip() == "1"


def test_normalize_json_schema(graph_files, capsys):
    code, doc = run_json(capsys, "normalize", "--graph", graph_files["z2"],
                         "--word", "b a")
    assert code == 0
    assert doc["normal_form"] == "a b" and doc["length"] == 2


def test_multiply_median(graph_files, capsys):
    code, out = run(capsys, "multiply", "--graph", graph_files["z2"],
                    "--word", "a", "--word", "a^-1")
    assert code == 0 and out.strip() == "1"
    code, out = run(capsys, "median", "--graph", graph_files["z2"],
                    "--word", "1", "--word", "a b", "--word", "a b^-1")
    assert code == 0 and out.strip() == "a"


def test_unknown_vertex_error_json(graph_files, capsys):
    code, out = run(capsys, "normalize", "--graph", graph_files["path"],
                    "--word", "z", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "unknown_vertex" and doc["schema"] == 1


def test_usage_error_exit_2(graph_files, capsys):
    assert main(["normalize", "--graph", graph_files["z2"]]) == 2


def test_graph_dump_round_trip(graph_files, capsys, tmp_path):
    code, out = run(capsys, "graph", "dump", "--graph", graph_files["path"])
    assert code == 0
    f2 = tmp_path / "copy.graph"
    f2.write_text(out)
    code2, out2 = run(capsys, "graph", "dump", "--graph", str(f2))
    assert out2 == out


def test_cmp_defect_cli(graph_files, capsys):
    code, doc = run_json(capsys, "cmp", "defect", "--graph", graph_files["z2"],
                         "--dls", "twist v=b z=a", "--radius", "4")
    assert code == 0
    assert doc["radius"] == 4 and doc["defect"] == 4
    assert set(doc["witness"]) == {"x", "y", "p"}


def test_cmp_certify_cli(graph_files, capsys):
    code, doc = run_json(capsys, "cmp", "certify", "--graph", graph_files["free"],
                         "--dls", "fold v=a z=c")
    assert code == 0 and doc["verdict"] == "CMP_by_Thm" and doc["family"] is None


def test_cmp_certify_plane_twist_json(graph_files, capsys):
    code, doc = run_json(capsys, "cmp", "certify", "--graph", graph_files["z2"],
                         "--dls", "twist v=b z=a")
    assert code == 0 and doc["verdict"] == "NOT_CMP_by_family"
    assert doc["family"] == {"vertex": "b", "z_c": "a", "z_c_length": 1}
    assert set(doc) == {"schema", "verdict", "trace", "family"}


def test_dls_build_apply_certify(graph_files, capsys):
    code, doc = run_json(capsys, "dls", "build", "--graph", graph_files["z2"],
                         "--dls", "twist v=b z=a")
    assert code == 0 and doc["kind"] == "twist" and doc["verified"]
    code, out = run(capsys, "dls", "apply", "--graph", graph_files["z2"],
                    "--dls", "twist v=b z=a", "--word", "b")
    assert out.strip() == "a b"
    code, doc = run_json(capsys, "dls", "certify", "--graph", graph_files["z2"],
                         "--dls", "twist v=b z=a", "--max-power", "6",
                         "--probes", "b")
    assert doc["certificate"] == "NOT_INNER_UP_TO(6)"


def test_certify_refuses_a_huge_max_power_before_iterating(graph_files, capsys,
                                                          monkeypatch):
    def no_power(*args):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(dls, "apply", no_power)
    monkeypatch.setattr(dls, "cyclic_reduce_codes", no_power)
    t0 = time.perf_counter()
    code, doc = run_json(capsys, "dls", "certify", "--graph", graph_files["z2"],
                         "--dls", "twist v=b z=a", "--probes", "a",
                         "--max-power", "100000000")
    assert time.perf_counter() - t0 < 2
    assert code == 1 and doc["error"] == "out_of_range"


def test_element_subcommands(graph_files, capsys):
    code, doc = run_json(capsys, "element", "gamma", "--graph",
                         graph_files["path"], "--word", "c a c^-1")
    assert doc["gamma"] == ["a"]
    code, doc = run_json(capsys, "element", "li", "--graph",
                         graph_files["z2"], "--word", "a b")
    assert doc["components"] == ["a", "b"]
    code, doc = run_json(capsys, "element", "root", "--graph",
                         graph_files["z2"], "--word", "a b a b")
    assert doc["root"] == "a b" and doc["exponent"] == 2
    code, doc = run_json(capsys, "element", "centralizer", "--graph",
                         graph_files["path"], "--word", "1")
    assert doc["whole_group"] is True


def test_tree_subcommands(graph_files, capsys):
    code, out = run(capsys, "tree", "dist", "--graph", graph_files["path"],
                    "--vertex", "b", "--word", "1", "--word", "a b c b")
    assert out.strip() == "2"
    code, out = run(capsys, "tree", "length", "--graph", graph_files["path"],
                    "--vertex", "b", "--word", "a b")
    assert out.strip() == "1"
    code, doc = run_json(capsys, "tree", "stab", "--graph", graph_files["path"],
                         "--vertex", "b", "--start", "1", "--end", "b")
    assert doc["support"] == ["a", "c"]
    code, doc = run_json(capsys, "tree", "almost-stab", "--graph",
                         graph_files["z2"], "--vertex", "a",
                         "--start", "1", "--end", "a a a", "--s", "1",
                         "--radius", "2")
    assert "a" in doc["elements"]


def test_subgroup_subcommands(graph_files, capsys):
    code, doc = run_json(capsys, "subgroup", "validate", "--graph",
                         graph_files["z2"], "--subgroup", "roots=a support=b")
    assert doc["valid"] is True
    code, out = run(capsys, "subgroup", "member", "--graph", graph_files["path"],
                    "--subgroup", "support=a,b", "--word", "a b")
    assert out.strip() == "yes"
    code, doc = run_json(capsys, "subgroup", "intersect", "--graph",
                         graph_files["path"], "--subgroup", "support=a,b",
                         "--subgroup2", "support=b,c", "--radius", "4")
    assert code == 0 and doc["roots"] == ["b"] and doc["support"] == []


def test_decomp_subcommands(graph_files, capsys):
    code, doc = run_json(capsys, "decomp", "good", "--graph",
                         graph_files["path"], "--word", "c c c")
    assert doc["count"] == 1 and doc["bound_ok"]
    code, doc = run_json(capsys, "decomp", "chain", "--graph",
                         graph_files["path"], "--word", "b b b",
                         "--tree-vertex", "b")
    assert doc["s"] == 1 and doc["bounds_ok"]
    code, doc = run_json(capsys, "decomp", "classify", "--graph",
                         graph_files["z2"], "--word", "a a", "--label", "a")
    assert doc["case"] == "cyclic_case" and doc["element"] == "a"


@pytest.mark.parametrize("action, flag", [("chain", "--tree-vertex"), ("classify", "--label")])
def test_decomp_missing_flag_is_named(graph_files, capsys, action, flag):
    code, doc = run_json(capsys, "decomp", action, "--graph", graph_files["path"],
                         "--word", "b a b")
    assert code == 1 and doc["error"] == "word_syntax"
    assert doc["message"] == "decomp %s needs a %s argument" % (action, flag)


def test_subgroup_conj_reads_dots_as_spaces(graph_files, capsys, tmp_path):
    for action, extra in (("member", ["--word", "a b a b^-1 a^-1"]),
                          ("member", ["--word", "b"]),
                          ("validate", [])):
        docs = [run_json(capsys, "subgroup", action, "--graph", graph_files["path"],
                         "--subgroup", "conj=%s support=a" % conj, *extra)
                for conj in ("a.b", "a,b")]
        assert docs[0] == docs[1]
        assert docs[0][0] == 0
    # where a vertex name holds a dot, conj= reads it as part of the name
    dotted = tmp_path / "dotted.graph"
    dotted.write_text("vertices: a.b c\n")
    code, doc = run_json(capsys, "subgroup", "member", "--graph", str(dotted),
                         "--subgroup", "conj=a.b support=c", "--word", "a.b c a.b^-1")
    assert code == 0 and doc["member"] is True
    # and so does roots=
    code, doc = run_json(capsys, "subgroup", "validate", "--graph", str(dotted),
                         "--subgroup", "roots=a.b")
    assert code == 0 and doc["valid"] is True
    code, doc = run_json(capsys, "subgroup", "member", "--graph", str(dotted),
                         "--subgroup", "roots=a.b", "--word", "a.b^-2")
    assert code == 0 and doc["member"] is True


def test_closure_cli(graph_files, capsys):
    code, doc = run_json(capsys, "closure", "--graph", graph_files["z2"],
                         "--tuple", "1", "--tuple", "a a", "--tuple", "a b")
    assert code == 0 and doc["size"] > 3 and doc["truncated"] is False


def test_closure_refuses_too_much_work_before_the_round(graph_files, capsys):
    # 20 points a^i b^s(i) of Z^2 close to 291 points after one round; the
    # next round would take C(291, 3) = 4,063,645 more medians
    rng = random.Random(1)
    s = list(range(20))
    rng.shuffle(s)
    tuples = [arg for i in range(20) for arg in ("--tuple", "a^%d b^%d" % (i, s[i]))]
    start = time.perf_counter()
    code, doc = run_json(capsys, "closure", "--graph", graph_files["z2"], *tuples)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and doc["error"] == "out_of_range"
    assert "4064785 coordinate medians" in doc["message"]
    assert "more than %d" % CLOSURE_WORK in doc["message"]


def test_deterministic_output(graph_files, capsys):
    args = ["cmp", "defect", "--graph", graph_files["z2"],
            "--dls", "twist v=b z=a", "--radius", "3", "--json"]
    _, out1 = run(capsys, *args[:-1])
    _, out2 = run(capsys, *args[:-1])
    assert out1 == out2


def test_cmp_has_no_jobs_option(graph_files):
    assert main(["cmp", "defect", "--graph", graph_files["z2"],
                 "--dls", "twist v=b z=a", "--jobs", "1"]) == 2


def test_missing_graph_file_is_domain_error(graph_files, capsys, tmp_path):
    for path in (str(tmp_path / "absent.graph"), str(tmp_path)):
        code, doc = run_json(capsys, "normalize", "--graph", path, "--word", "a")
        assert code == 1 and doc["error"] == "error"
        assert "cannot read graph file" in doc["message"]


@pytest.mark.parametrize("argv", [
    ["dist", "--word", "a"],
    ["dist"],
    ["length"],
])
def test_tree_word_count_is_syntax_error(graph_files, capsys, argv):
    code, doc = run_json(capsys, "tree", argv[0], "--graph", graph_files["path"],
                         "--vertex", "b", *argv[1:])
    assert code == 1 and doc["error"] == "word_syntax"


@pytest.mark.parametrize("command, words, message", [
    (["normalize"], 2, "normalize needs exactly one --word argument"),
    (["multiply"], 3, "multiply needs exactly two --word arguments"),
    (["median"], 4, "median needs exactly three --word arguments"),
    (["tree", "dist", "--vertex", "b"], 3, "tree dist needs exactly two --word arguments"),
    (["tree", "length", "--vertex", "b"], 2,
     "tree length needs exactly one --word argument"),
])
def test_extra_words_are_syntax_errors(graph_files, capsys, command, words, message):
    code, doc = run_json(capsys, *command, "--graph", graph_files["path"],
                         *["--word", "a"] * words)
    assert code == 1 and doc["error"] == "word_syntax" and doc["message"] == message


@pytest.mark.parametrize("word", ["a^", "a b^"])
def test_caret_without_exponent_is_syntax_error(graph_files, capsys, word):
    code, doc = run_json(capsys, "normalize", "--graph", graph_files["path"], "--word", word)
    assert code == 1 and doc["error"] == "word_syntax"


def test_selftest_jobs_below_one_is_usage_error(monkeypatch):
    def no_criteria(**kw):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(selftest, "run_all", no_criteria)
    assert main(["selftest", "--jobs", "0"]) == 2
    assert main(["selftest", "--jobs", "-3"]) == 2


def test_default_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(selftest.os, "cpu_count", lambda: 2)
    for jobs, want in ((0, 1), (1, 1), (2, 2), (3, 2), (64, 2), (None, 2)):
        assert selftest.default_jobs(jobs) == want
    assert selftest.default_jobs() == 2


def test_removed_environment_variables_are_inert(free2, monkeypatch, capsys):
    # the ball cap is a constant and the pool size comes from --jobs alone
    monkeypatch.setenv("RAAGTK_BALL_CAP", "5")
    monkeypatch.setenv("RAAGTK_JOBS", "many")
    assert len(ball_codes(free2, 3)) == 53
    code, doc = run_json(capsys, "selftest", "--criteria", "6")
    assert code == 0 and doc["passed"]


@pytest.mark.parametrize("argv", [
    ["dls", "build", "--vertex", "b", "--z", "a"],
    ["dls", "build", "--dls", "twist v=b z=a", "--vertex", "b"],
    ["dls", "apply", "--word", "b"],
    ["cmp", "defect", "--vertex", "b", "--z", "a"],
    ["cmp", "defect", "--amalgam", "A=a B=b C="],
    ["cmp", "certify"],
])
def test_dls_literal_is_the_only_automorphism_syntax(graph_files, argv):
    assert main([*argv, "--graph", graph_files["z2"]]) == 2


def test_top_level_seed_is_usage_error(monkeypatch):
    def no_criteria(**kw):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(selftest, "run_all", no_criteria)
    assert main(["--seed", "1", "selftest", "--criteria", "6"]) == 2


@pytest.mark.parametrize("argv", [
    ["cmp", "defect", "--radius", "0"],
])
def test_cmp_radius_below_one_is_usage_error(graph_files, argv):
    assert main([*argv, "--graph", graph_files["z2"], "--dls", "twist v=b z=a"]) == 2


@pytest.mark.parametrize("argv", [
    ["dls", "certify", "--dls", "twist v=b z=a", "--max-power", "0"],
    ["dls", "certify", "--dls", "twist v=b z=a", "--max-power", "-1"],
    ["subgroup", "intersect", "--subgroup", "support=a", "--subgroup2", "support=a",
     "--radius", "0"],
    ["subgroup", "intersect", "--subgroup", "support=a", "--subgroup2", "support=a",
     "--radius", "-2"],
    ["tree", "almost-stab", "--vertex", "a", "--end", "a a a", "--s", "1", "--radius", "0"],
    ["tree", "almost-stab", "--vertex", "a", "--end", "a a a", "--s", "1", "--radius", "-3"],
    ["closure", "--tuple", "a", "--cap", "0"],
    ["closure", "--tuple", "a", "--cap", "-1"],
])
def test_vacuous_range_is_out_of_range(graph_files, capsys, argv):
    code, doc = run_json(capsys, *argv, "--graph", graph_files["z2"])
    assert code == 1 and doc["error"] == "out_of_range"


@pytest.mark.parametrize("criteria", ["0", "12", "x", "6,", ""])
def test_selftest_bad_criteria_is_usage_error(monkeypatch, criteria):
    def no_criteria(**kw):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(selftest, "run_all", no_criteria)
    assert main(["selftest", "--criteria", criteria]) == 2


def test_json_mode_prints_one_document(graph_files, capsys):
    code, doc = run_json(capsys, "graph", "dump", "--graph", graph_files["path"])
    assert code == 0 and doc["graph"] == "vertices: a b c\nedge: a b\nedge: b c\n"
    code, doc = run_json(capsys, "selftest", "--criteria", "6")
    assert code == 0 and doc["passed"]
    assert [c["number"] for c in doc["criteria"]] == [6]
    assert all(set(c) == {"number", "name", "passed", "detail", "seconds"}
               for c in doc["criteria"])
    code, doc = run_json(capsys, "subgroup", "intersect", "--graph", graph_files["z2"],
                         "--subgroup", "support=a")
    assert code == 1 and doc["error"] == "word_syntax"


def test_huge_exponent_is_memory_limit(graph_files, capsys):
    # refused before the word is expanded
    code, doc = run_json(capsys, "normalize", "--graph", graph_files["z2"],
                         "--word", "a^%d" % 10 ** 30)
    assert code == 1 and doc["error"] == "memory_limit"


def test_closed_stdout_is_quiet_exit(graph_files):
    r, w = os.pipe()
    os.close(r)         # no reader: every write to the pipe fails
    try:
        proc = run_child(["-m", "raagtk.cli", "normalize", "--graph", graph_files["z2"],
                          "--word", " ".join(["a b"] * 9), "--json"],
                         stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_memory_error_is_memory_limit(graph_files):
    # the child caps its address space at what it uses plus 64 MiB, turns the
    # word-size check off, and asks for a 20M-letter word (160 MB per list):
    # the first large allocation fails, and nothing large is ever held
    script = """
import resource, sys
from raagtk import words
from raagtk.cli import main
words._physical_memory = lambda: 0
with open("/proc/self/statm") as f:
    used = int(f.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = used + 64 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))
sys.exit(main(["normalize", "--graph", sys.argv[1], "--word", "a^20000000", "--json"]))
"""
    proc = run_child(["-c", script, graph_files["z2"]], capture_output=True)
    assert proc.returncode == 1, proc.stderr
    assert b"Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc == {"error": "memory_limit", "message": "out of memory", "schema": 1}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_letter_bytes_covers_the_worst_word_command(graph_files):
    # element centralizer on a^k c^k is the costliest command per letter; its
    # peak RSS above the same command's on the empty word is what
    # words.LETTER_BYTES predicts for each letter.  VmHWM starts afresh at
    # exec, unlike ru_maxrss, which keeps the forking test process's peak.
    script = """
import sys
from raagtk.cli import main
main(["element", "centralizer", "--graph", sys.argv[1], "--word", sys.argv[2], "--json"])
with open("/proc/self/status") as f:
    print([line.split()[1] for line in f if line.startswith("VmHWM:")][0], file=sys.stderr)
"""
    from raagtk.words import LETTER_BYTES

    def peak(word):
        proc = run_child(["-c", script, graph_files["free"], word], capture_output=True)
        return int(proc.stderr) * 1024

    k = 40_000
    assert peak("a^%d c^%d" % (k, k)) - peak("1") <= LETTER_BYTES * 2 * k


STARTUP_CHILD = """
import json, sys
import raagtk, raagtk.cli
HEAVY = ("numpy", "concurrent.futures.process", "raagtk.selftest", "raagtk.oracles")
print(json.dumps([m for m in HEAVY if m in sys.modules]))
for argv in map(json.loads, sys.argv[1:]):
    raagtk.cli.main(argv)
    print(json.dumps([m for m in HEAVY if m in sys.modules]))
"""


def test_startup_loads_numpy_only_for_defect_tables(graph_files):
    # numpy, the self-test's process pool and its oracles are most of a
    # command's start-up: only cmp defect tables and selftest load them
    z2, free = graph_files["z2"], graph_files["free"]
    light = [
        ["normalize", "--graph", z2, "--word", "b a"],
        ["element", "root", "--graph", z2, "--word", "a b a b"],
        ["tree", "almost-stab", "--graph", z2, "--vertex", "a", "--end", "a a a",
         "--s", "1", "--radius", "2"],
        ["dls", "certify", "--graph", free, "--dls", "fold v=a z=c"],
        ["cmp", "certify", "--graph", z2, "--dls", "twist v=b z=a"],
        ["cmp", "defect", "--graph", free, "--dls", "fold v=a z=c", "--radius", "30"],
    ]
    defect = ["cmp", "defect", "--graph", z2, "--dls", "twist v=b z=a", "--radius", "4"]
    argvs = [argv + ["--json"] for argv in light + [defect]]
    proc = run_child(["-c", STARTUP_CHILD, *map(json.dumps, argvs)], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert len(lines) == 1 + 2 * len(argvs)
    loaded, outputs = lines[0::2], lines[1::2]
    assert loaded[:-1] == [[]] * (1 + len(light))
    assert loaded[-1] == ["numpy"]
    assert outputs[-2]["error"] == "ball_cap_exceeded"
    assert all("error" not in doc for doc in outputs[:-2])
    assert outputs[-1] == {
        "ball_size": 41, "defect": 4, "radius": 4, "schema": 1,
        "witness": {"p": "1", "x": "a^-1 a^-1 a^-1 a^-1", "y": "b^-1 b^-1 b^-1 b^-1"}}


GRAPHS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "graphs")


def test_row_zero_defect_loads_no_numpy():
    # the fold reaches its ceiling in row 0 of the scan and builds no table,
    # so numpy stays out; the plane twist has no ceiling and still loads it
    fold = ["cmp", "defect", "--graph", os.path.join(GRAPHS, "free2.graph"),
            "--dls", "fold v=a z=c", "--radius", "4", "--json"]
    twist = ["cmp", "defect", "--graph", os.path.join(GRAPHS, "z2.graph"),
             "--dls", "twist v=b z=a", "--radius", "4", "--json"]
    proc = run_child(["-c", STARTUP_CHILD, json.dumps(fold), json.dumps(twist)],
                     capture_output=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert lines[0::2] == [[], [], ["numpy"]]
    assert lines[1] == {
        "ball_size": 161, "defect": 1, "radius": 4, "schema": 1,
        "witness": {"p": "a^-1", "x": "1", "y": "a^-1 c"}}
    assert lines[3]["defect"] == 4
