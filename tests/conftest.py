import os
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import raagtk
from raagtk.graph import DefGraph
from raagtk.selftest import CATALOG, catalog_graph
from raagtk.words import NormalForm, _nf, normal_codes


@pytest.fixture
def z2():
    return DefGraph(["a", "b"], [("a", "b")])


@pytest.fixture
def path3():
    return DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture
def free2():
    return DefGraph(["a", "b"])


@pytest.fixture
def path4():
    return DefGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


def nf(graph, text):
    from raagtk.words import normalize
    return normalize(graph, text)


def run_child(args, **kw):
    """Run a Python child that imports this checkout's raagtk."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(raagtk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kw)


def rand_nf(rng, graph, length) -> NormalForm:
    codes = tuple(rng.randrange(2 * len(graph)) for _ in range(length))
    return _nf(graph, normal_codes(graph, codes))


def first_code_set(block, codes):
    """The letters that can come first in the trace of `codes`."""
    blocked = 0
    out = set()
    for c in codes:
        v = c >> 1
        if not (blocked >> v) & 1:
            out.add(c)
        blocked |= block[v]
    return out


# hypothesis strategies ------------------------------------------------------

graph_indices = st.integers(min_value=0, max_value=len(CATALOG) - 1)


@st.composite
def graph_and_word(draw, min_len=0, max_len=8, min_vertices=1):
    gi = draw(graph_indices)
    graph = catalog_graph(gi)
    if len(graph) < min_vertices:
        gi = draw(st.integers(min_value=7, max_value=len(CATALOG) - 1))
        graph = catalog_graph(gi)
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    codes = draw(
        st.lists(st.integers(min_value=0, max_value=2 * len(graph) - 1),
                 min_size=n, max_size=n)
    )
    return graph, tuple(codes)


@st.composite
def graph_and_words(draw, count, max_len=6):
    gi = draw(graph_indices)
    graph = catalog_graph(gi)
    words = []
    for _ in range(count):
        n = draw(st.integers(min_value=0, max_value=max_len))
        words.append(tuple(
            draw(st.lists(st.integers(min_value=0, max_value=2 * len(graph) - 1),
                          min_size=n, max_size=n))
        ))
    return graph, words
