"""Random argv for every subcommand: the CLI keeps its contract (exit 0, 1 or
2; with --json exactly one JSON document on stdout; no exception escapes).
Radii, powers and caps stay small so that every example is fast."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raagtk.cli import main

GRAPHS = {
    "z2": "vertices: a b\nedge: a b\n",
    "path": "vertices: a b c\nedge: a b\nedge: b c\n",
    "free": "vertices: a c\n",
    "bad": "vertices: a\nedge: a\n",
}


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    paths = {}
    for name, text in GRAPHS.items():
        paths[name] = str(root / (name + ".graph"))
        with open(paths[name], "w") as fh:
            fh.write(text)
    paths["missing"] = str(root / "missing.graph")
    paths["directory"] = str(root)
    return paths


LETTERS = {"z2": "ab", "path": "abc", "free": "ac"}
SPLITTINGS = {"z2": "twist v=b z=a", "path": "pconj A=a,b B=b,c C=b z=a",
              "free": "fold v=a z=c^-1"}
JUNK = ["z", "^", "a^", "a^x", "b^-", "1 1", ""]


def rarely(draw, valid, junk):
    """Mostly a draw from `valid`, one time in sixteen from `junk`."""
    return draw(junk if draw(st.integers(0, 15)) == 0 else valid)


@st.composite
def argvs(draw):
    graph = rarely(draw, st.sampled_from(sorted(LETTERS)),
                   st.sampled_from(["bad", "missing", "directory"]))
    letters = LETTERS.get(graph, "a")
    token = st.sampled_from([v + e for v in letters for e in ("", "^-1", "^2", "^-2")] + ["1"])
    word = st.lists(token, max_size=4).map(" ".join)

    def w():
        return rarely(draw, word, st.sampled_from(JUNK))

    def radius():
        return str(rarely(draw, st.integers(1, 3), st.integers(-1, 0)))

    def vertex():
        return rarely(draw, st.sampled_from(letters), st.sampled_from(["z", ""]))

    def choice(*options):
        return rarely(draw, st.sampled_from(options), st.just("nope"))

    def dls():
        v, u = vertex(), vertex()
        return rarely(draw, st.sampled_from([
            SPLITTINGS.get(graph, "twist v=a"), SPLITTINGS.get(graph, "twist v=a"),
            "twist v=%s z=%s" % (v, u), "fold v=%s z=%s" % (v, u.replace(" ", ",")),
            "twist v=%s" % v,
            "pconj A=%s,%s B=%s C=%s z=%s" % (v, u, u, u, v),
            "pconj A=%s B=%s C= z=%s" % (v, u, u),
        ]), st.sampled_from(["", "pconj A=a", "bogus v=a", "twist z=a", "v="]))

    cmd = draw(st.sampled_from(["graph", "normalize", "multiply", "median", "closure",
                                "element", "tree", "subgroup", "dls", "cmp", "decomp",
                                "selftest"]))
    argv = [cmd]
    if cmd == "selftest":
        # criterion 6 takes milliseconds; the others are not run here
        argv += ["--criteria", rarely(draw, st.just("6"),
                                      st.sampled_from(["0", "12", "x", "6,", ""]))]
        if draw(st.booleans()):
            argv += ["--jobs", rarely(draw, st.sampled_from(["1", "2"]),
                                      st.sampled_from(["0", "-1", "x"]))]
    else:
        argv += ["--graph", graph]
    if cmd == "graph":
        argv.insert(1, choice("dump"))
    elif cmd in ("normalize", "multiply", "median"):
        for _ in range(draw(st.integers(0, 4))):
            argv += ["--word", w()]
    elif cmd == "closure":
        for _ in range(draw(st.integers(0, 3))):
            argv += ["--tuple", ",".join(w() for _ in range(draw(st.integers(1, 3))))]
        if draw(st.booleans()):
            argv += ["--cap", str(draw(st.integers(-1, 40)))]
    elif cmd == "element":
        argv[1:1] = [choice("gamma", "li", "root", "centralizer")]
        argv += ["--word", w()]
    elif cmd == "tree":
        argv[1:1] = [choice("dist", "length", "stab", "almost-stab")]
        argv += ["--vertex", vertex(), "--start", w(), "--end", w(),
                 "--s", str(draw(st.integers(-1, 2))), "--radius", radius()]
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--word", w()]
    elif cmd == "subgroup":
        argv[1:1] = [choice("validate", "member", "intersect")]

        def subgroup():
            x, y = vertex(), vertex()
            return rarely(draw, st.sampled_from([
                "support=%s" % x, "support=%s,%s" % (x, y), "conj=%s roots=%s" % (y, x),
                "roots=%s.%s" % (x, y), "conj=%s support=%s" % (x, y)]),
                st.sampled_from(["", "bad=1", "kind=x support=a", "roots=,"]))
        argv += ["--subgroup", subgroup(), "--word", w(), "--radius", radius()]
        if draw(st.booleans()):
            argv += ["--subgroup2", subgroup()]
    elif cmd == "dls":
        argv[1:1] = [choice("build", "apply", "certify")]
        argv += ["--dls", dls(), "--word", w(),
                 "--max-power", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            argv += ["--probes", ";".join(w() for _ in range(draw(st.integers(1, 2))))]
    elif cmd == "cmp":
        argv[1:1] = [choice("defect", "certify")]
        if draw(st.integers(0, 3)):
            argv += ["--dls", dls()]
        argv += ["--radius", radius()]
    elif cmd == "decomp":
        argv[1:1] = [choice("good", "chain", "classify")]
        argv += ["--word", w(), "--tree-vertex", vertex(), "--label", vertex()]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--radius"])))
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=argvs())
def test_cli_contract_on_random_argv(graph_paths, capsys, argv):
    if "--graph" in argv:
        at = argv.index("--graph") + 1
        argv = argv[:at] + [graph_paths[argv[at]]] + argv[at + 1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if "--json" in argv and code in (0, 1):
        lines = out.splitlines()
        assert len(lines) == 1, (argv, out)
        assert json.loads(lines[0])["schema"] == 1, argv
