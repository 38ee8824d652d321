import random

import pytest

from raagtk import elements as E
from raagtk import subgroups as S
from raagtk import trees as T
from raagtk import words as W
from raagtk.errors import (
    DegenerateArcError,
    OutOfRangeError,
    PreconditionError,
    UnknownVertexError,
)
from raagtk.graph import DefGraph
from raagtk.subgroups import member
from raagtk.trees import (
    almost_stabilizer,
    arc,
    arc_stabilizer,
    arc_vertex,
    classify_almost_stabilizer,
    translate_vertex,
    tree_vertex,
    tv_distance,
    tv_translation_length,
)
from raagtk.selftest import CATALOG, catalog_graph
from raagtk.oracles import oracle_reduce
from raagtk.words import (
    _nf,
    ball_codes,
    count_vertex,
    dist,
    identity,
    inv_codes,
    multiply,
    normal_codes,
    normalize,
)

from conftest import rand_nf


def test_tv_distance_basic(path3):
    one = identity(path3)
    assert tv_distance(path3, "b", one, one) == 0
    assert tv_distance(path3, "b", one, normalize(path3, "a b c b")) == 2
    with pytest.raises(UnknownVertexError):
        tv_distance(path3, "z", one, one)


def test_tv_distance_rep_independent(path3):
    # multiplying either argument on the right by the elliptic part does not
    # move the coset
    g = normalize(path3, "b a")
    h = multiply(g, normalize(path3, "a c a"))
    assert tv_distance(path3, "b", g, h) == 0


def test_tv_distance_agrees_with_coset_graph_bfs():
    # independent oracle: build the tree ball explicitly as a graph on
    # cosets, edges witnessed by single v-steps inside a large group ball,
    # and BFS it; geodesics between radius-2 points stay inside the
    # radius-6 witness ball, so the BFS distance is exact there
    from collections import deque

    from raagtk.selftest import catalog_graph
    from raagtk.words import _nf, ball_codes, normal_codes

    for gi in (2, 5):
        graph = catalog_graph(gi)
        for v in graph.vertices:
            iv = graph.index(v)
            nodes = {}
            edges = {}
            for codes in ball_codes(graph, 6):
                g = _nf(graph, codes)
                c = tree_vertex(graph, v, g).rep
                edges.setdefault(c, set())
                for sign in (0, 1):
                    g2 = _nf(graph, normal_codes(graph, codes + (2 * iv + sign,)))
                    c2 = tree_vertex(graph, v, g2).rep
                    edges.setdefault(c2, set())
                    edges[c].add(c2)
                    edges[c2].add(c)
            small = [_nf(graph, w) for w in ball_codes(graph, 2)]
            for x in small[::3]:
                cx = tree_vertex(graph, v, x).rep
                dist = {cx: 0}
                queue = deque([cx])
                while queue:
                    c = queue.popleft()
                    for c2 in edges[c]:
                        if c2 not in dist:
                            dist[c2] = dist[c] + 1
                            queue.append(c2)
                for y in small[::2]:
                    cy = tree_vertex(graph, v, y).rep
                    assert dist[cy] == tv_distance(graph, v, x, y)


def _check_distances(graph, g, h):
    """dist and tv_distance, on elements and on tree vertices, against the
    oracle reduction of g^-1 h."""
    diff = oracle_reduce(graph.adj, inv_codes(g.codes) + h.codes)
    assert dist(g, h) == len(diff)
    for v in graph.vertices:
        expect = count_vertex(diff, graph.index(v))
        p, q = tree_vertex(graph, v, g), tree_vertex(graph, v, h)
        assert tv_distance(graph, v, g, h) == expect
        assert tv_distance(graph, v, p, q) == expect
        assert tv_distance(graph, v, p, h) == expect


def test_distances_match_the_oracle_on_catalog_balls():
    rng = random.Random(71)
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        pts = [_nf(graph, w) for w in ball_codes(graph, 3)]
        pairs = [(g, h) for g in pts for h in pts]
        for g, h in rng.sample(pairs, min(len(pairs), 150)):
            _check_distances(graph, g, h)


def test_distances_match_the_oracle_on_long_words_with_shared_prefixes():
    # 30-240 letters, most of them on a common prefix, so that the meet is
    # long and g^-1 h cancels deep
    rng = random.Random(73)
    graphs = [catalog_graph(gi) for gi in range(1, len(CATALOG))]
    for _ in range(60):
        graph = rng.choice(graphs)
        n = rng.choice((30, 60, 120, 240))
        p = rand_nf(rng, graph, rng.randrange(n // 2, n))
        g, h = (_nf(graph, normal_codes(graph, rand_nf(rng, graph, n - len(p)).codes, p.codes))
                for _ in range(2))
        _check_distances(graph, g, h)


def test_distances_normalize_nothing(monkeypatch, path4):
    rng = random.Random(79)
    g, h = rand_nf(rng, path4, 60), rand_nf(rng, path4, 60)
    p, q = tree_vertex(path4, "b", g), tree_vertex(path4, "b", h)
    calls, real = [], W.normal_codes
    for mod in (W, T):
        monkeypatch.setattr(mod, "normal_codes", lambda *a: calls.append(a) or real(*a))
    dist(g, h)
    tv_distance(path4, "b", g, h)
    tv_distance(path4, "b", p, q)
    assert calls == []


def test_tv_distance_refuses_a_vertex_of_another_tree():
    path3 = catalog_graph(5)
    a = normalize(path3, "a")
    assert tv_distance(path3, "a", a, identity(path3)) == 1
    with pytest.raises(PreconditionError):
        tv_distance(path3, "a", tree_vertex(path3, "b", a), identity(path3))
    with pytest.raises(PreconditionError):
        tv_distance(path3, "a", a, tree_vertex(path3, "b", a))


def _other_graph_calls():
    c4, p4 = catalog_graph(14), catalog_graph(11)
    g = normalize(c4, "a d a^-1")
    h = normalize(p4, "a")
    return [
        ("commutes", lambda: E.commutes(g, h)),
        ("dist", lambda: dist(g, h)),
        ("tv_distance", lambda: tv_distance(p4, "a", h, g)),
        ("tv_distance_vertex", lambda: tv_distance(p4, "a", h, tree_vertex(c4, "a", g))),
        ("tv_translation_length", lambda: tv_translation_length(p4, "a", g)),
        ("tree_vertex", lambda: tree_vertex(p4, "a", g)),
        ("translate_vertex", lambda: translate_vertex(g, tree_vertex(p4, "a", h))),
        ("member", lambda: member(S.parabolic(p4, ["a", "b"]), g)),
        ("membership_centralizer",
         lambda: E.membership_centralizer(E.centralizer(h), g)),
    ]


@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in _other_graph_calls()])
def test_elements_of_another_graph_are_refused(call):
    with pytest.raises(W.GraphMismatchError):
        call()


def test_equal_graphs_built_twice_mix():
    one, two = (DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")]) for _ in range(2))
    g, h = normalize(one, "a b c"), normalize(two, "c^-1 a")
    assert dist(g, h) == 5                  # c^-1 a^-1 c^-1 a b^-1
    assert tv_distance(one, "c", g, tree_vertex(two, "c", h)) == 2
    assert E.commutes(g, g * g)


def test_tv_distance_is_metric(path4):
    rng = random.Random(31)
    pts = [rand_nf(rng, path4, rng.randrange(0, 5)) for _ in range(12)]
    v = "b"
    for x in pts:
        for y in pts:
            dxy = tv_distance(path4, v, x, y)
            assert dxy == tv_distance(path4, v, y, x)
            assert (dxy == 0) == (
                tree_vertex(path4, v, x) == tree_vertex(path4, v, y)
            )
            for z in pts:
                assert dxy <= tv_distance(path4, v, x, z) + tv_distance(path4, v, z, y)


def test_translation_length(path3):
    assert tv_translation_length(path3, "b", normalize(path3, "a b")) == 1
    assert tv_translation_length(path3, "c", normalize(path3, "a b")) == 0
    g = normalize(path3, "b a b c")
    for n in range(1, 5):
        assert tv_translation_length(path3, "b", g ** n) == n * tv_translation_length(
            path3, "b", g
        )


def test_elliptic_iff_zero_translation(path3):
    # zero translation length exactly when some conjugate misses the letter;
    # the cyclic conjugator is an explicit short witness
    rng = random.Random(37)
    from raagtk.elements import gamma
    from raagtk.words import cyclic_reduce, invert

    for _ in range(80):
        g = rand_nf(rng, path3, rng.randrange(1, 6))
        if not g:
            continue
        v = rng.choice(path3.vertices)
        elliptic = tv_translation_length(path3, v, g) == 0
        assert elliptic == (v not in gamma(g))
        if elliptic:
            x, core = cyclic_reduce(g)
            assert len(x) <= len(g)
            conj = multiply(multiply(invert(x), g), x)
            assert all(c >> 1 != path3.index(v) for c in conj.codes)


def test_arc_stabilizer_single_edge(path3):
    beta = arc(path3, "b", identity(path3), normalize(path3, "b"))
    sf = arc_stabilizer(beta)
    assert sf.kind == "parabolic"
    assert str(sf.conjugator) == "1"
    assert sf.support == {"a", "c"}


def test_arc_stabilizer_perp_arithmetic(z2):
    # span of labels {a, b} would give the empty common link, hence the
    # trivial stabilizer
    assert z2.perp(["a", "b"]) == set()


def test_arc_stabilizer_matches_fix_endpoints_oracle():
    rng = random.Random(41)
    from raagtk.selftest import catalog_graph

    done = 0
    while done < 30:
        graph = catalog_graph(rng.choice([2, 5, 6, 12, 14]))
        v = rng.choice(graph.vertices)
        w = rand_nf(rng, graph, rng.randrange(1, 7))
        start = rand_nf(rng, graph, rng.randrange(0, 3))
        try:
            beta = arc(graph, v, start, multiply(start, w))
        except DegenerateArcError:
            continue
        done += 1
        sf = arc_stabilizer(beta)
        for codes in ball_codes(graph, 3):
            g = _nf(graph, codes)
            fixes = (
                translate_vertex(g, beta.start) == beta.start
                and translate_vertex(g, beta.end) == beta.end
            )
            assert member(sf, g) == fixes


def test_arc_stabilizer_elements_fix_interior():
    rng = random.Random(43)
    path4 = DefGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    for _ in range(20):
        w = rand_nf(rng, path4, rng.randrange(2, 8))
        v = rng.choice(path4.vertices)
        try:
            beta = arc(path4, v, identity(path4), w)
        except DegenerateArcError:
            continue
        sf = arc_stabilizer(beta)
        interior = [arc_vertex(beta, k) for k in range(beta.length + 1)]
        for codes in ball_codes(path4, 2):
            g = _nf(path4, codes)
            if member(sf, g):
                for p in interior:
                    assert translate_vertex(g, p) == p


def walked_arc_vertices(beta):
    """Reference: the tree vertices along the arc, continuing the rep
    through the word one crossing at a time."""
    graph = beta.graph
    iv = graph.index(beta.label)
    word = beta.word()
    rep, last = beta.start.rep, 0
    out = [beta.start]
    for k, c in enumerate(word, 1):
        if c >> 1 == iv:
            rep, last = normal_codes(graph, word[last:k], rep), k
            out.append(tree_vertex(graph, beta.label, _nf(graph, rep)))
    return out


def test_arc_vertex_matches_walk_on_every_catalog_graph():
    rng = random.Random(47)
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        done = 0
        while done < 12:
            v = rng.choice(graph.vertices)
            start = rand_nf(rng, graph, rng.randrange(0, 4))
            w = rand_nf(rng, graph, rng.randrange(1, 10))
            try:
                beta = arc(graph, v, start, multiply(start, w))
            except DegenerateArcError:
                continue
            done += 1
            walk = walked_arc_vertices(beta)
            assert [arc_vertex(beta, k) for k in range(beta.length + 1)] == walk
        with pytest.raises(OutOfRangeError):
            arc_vertex(beta, beta.length + 1)
        with pytest.raises(OutOfRangeError):
            arc_vertex(beta, -1)


def test_almost_stabilizer_contains_stabilizer(z2):
    beta = arc(z2, "a", identity(z2), normalize(z2, "a a a"))
    res0 = almost_stabilizer(beta, 0, 3)
    res1 = almost_stabilizer(beta, 1, 3)
    assert set(res0.elements) <= set(res1.elements)
    assert normalize(z2, "a") in res1.elements  # unit translation along the axis
    sf = arc_stabilizer(beta)
    for g in res0.elements:
        assert member(sf, g)


def test_almost_stabilizer_range_validation(z2):
    beta = arc(z2, "a", identity(z2), normalize(z2, "a a"))
    with pytest.raises(OutOfRangeError):
        almost_stabilizer(beta, 1, 2)


def test_almost_stabilizer_dichotomy_axis_case(z2):
    beta = arc(z2, "a", identity(z2), normalize(z2, "a a a a a"))
    res = almost_stabilizer(beta, 2, 3)
    rep = classify_almost_stabilizer(beta, res)
    assert rep.ok
    assert rep.loxodromics
    assert rep.shared_root is not None
    assert str(rep.shared_root) in ("a", "a^-1")


def test_almost_stabilizer_dichotomy_root_with_commuting_letters(path4):
    # the reversed letters of (a b d)^-1 are d^-1 b^-1 a^-1, but its normal
    # form is d^-1 a^-1 b^-1; the two loxodromic roots agree up to inversion
    r = normalize(path4, "a b d")
    beta = arc(path4, "d", identity(path4), r ** 4)
    rep = classify_almost_stabilizer(beta, almost_stabilizer(beta, 1, 3))
    assert len(rep.loxodromics) == 2
    assert rep.ok
    assert rep.shared_root == r


def test_classify_normalizes_the_arc_word_once(monkeypatch, path4):
    # both trimmed endpoints are read from one crossings() call
    beta = arc(path4, "d", normalize(path4, "c"), normalize(path4, "a b d") ** 6)
    res = almost_stabilizer(beta, 2, 2)
    arc_input = inv_codes(beta.start.rep) + beta.end.rep
    calls, real = [], T.normal_codes
    monkeypatch.setattr(T, "normal_codes", lambda *a: calls.append(a) or real(*a))
    rep = classify_almost_stabilizer(beta, res)
    assert calls.count((path4, arc_input)) == 1
    assert rep.trimmed_endpoints == (arc_vertex(beta, 1), arc_vertex(beta, beta.length - 1))


def test_classify_reduces_each_element_once(monkeypatch, path4):
    # one cyclic reduction per element gives its translation length, its
    # loxodromic part and that part's root
    beta = arc(path4, "d", identity(path4), normalize(path4, "a b d") ** 4)
    res = almost_stabilizer(beta, 1, 3)
    assert len(res.elements) == 3
    calls, real = [], W.cyclic_reduce_codes
    for module in (T, E):
        monkeypatch.setattr(module, "cyclic_reduce_codes",
                            lambda graph, codes: calls.append(codes) or real(graph, codes))
    rep = classify_almost_stabilizer(beta, res)
    assert len(calls) == 3
    assert (len(rep.fixers), len(rep.loxodromics)) == (1, 2)
    assert rep.shared_root == normalize(path4, "a b d")


def _reference_classify(beta, result):
    """classify_almost_stabilizer's verdicts from the public element
    functions: translation lengths, li_components and primitive_root."""
    graph, v = beta.graph, beta.label
    p1, q1 = T.classify_almost_stabilizer(beta, result).trimmed_endpoints
    fixers, loxo, roots, ok = [], [], set(), True
    for g in result.elements:
        ell = tv_translation_length(graph, v, g)
        if ell == 0:
            if translate_vertex(g, p1) == p1 and translate_vertex(g, q1) == q1:
                fixers.append(g)
            else:
                ok = False
            continue
        ok &= (tv_distance(graph, v, p1, translate_vertex(g, p1)) == ell
               and tv_distance(graph, v, q1, translate_vertex(g, q1)) == ell)
        parts = [c for c in E.li_components(g).components if tv_translation_length(graph, v, c)]
        if len(parts) != 1:
            ok = False
        else:
            r, _ = E.primitive_root(parts[0])
            roots.add(min(r, r.inv(), key=lambda x: x.codes))
        loxo.append(g)
    shared = min(roots, key=lambda x: x.codes) if roots else None
    return tuple(fixers), tuple(loxo), shared, ok and len(roots) <= 1


def test_classify_matches_the_element_functions_on_catalog_arcs():
    rng = random.Random(2817)
    checked = 0
    for gi in range(1, len(CATALOG)):
        graph = catalog_graph(gi)
        for _ in range(3):
            v = rng.choice(graph.vertices)
            end = multiply(rand_nf(rng, graph, rng.randrange(0, 3)),
                           normalize(graph, v) ** rng.randrange(3, 6))
            beta = arc(graph, v, identity(graph), end)
            if beta.length < 3:
                continue
            res = almost_stabilizer(beta, 1, 2)
            rep = classify_almost_stabilizer(beta, res)
            assert (rep.fixers, rep.loxodromics, rep.shared_root, rep.ok) \
                == _reference_classify(beta, res), (CATALOG[gi][0], v, str(end))
            checked += len(res.elements)
    assert checked > 100
