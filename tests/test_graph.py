import itertools

import pytest

from raagtk.errors import EmptySetError, GraphFormatError, UnknownVertexError
from raagtk.graph import DefGraph, components
from raagtk.selftest import CATALOG, catalog_graph


def test_link_path(path3):
    assert path3.link("b") == {"a", "c"}
    assert path3.link("a") == {"b"}


def test_link_edgeless(free2):
    assert free2.link("a") == set()


def test_link_unknown_vertex(path3):
    with pytest.raises(UnknownVertexError):
        path3.link("z")


def test_perp_path(path3):
    assert path3.perp(["a", "c"]) == {"b"}


def test_perp_square():
    sq = DefGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert sq.perp(["a", "c"]) == {"b", "d"}


def test_perp_empty_set_is_everything(path3):
    assert path3.perp([]) == {"a", "b", "c"}


def test_perp_closed_decomposition(path3):
    # the common star splits as common link plus the vertices whose star
    # contains the whole subset
    for r in range(0, 4):
        for sub in itertools.combinations(path3.vertices, r):
            closed = path3.perp_closed(sub)
            perp = path3.perp(sub)
            extra = {c for c in sub if all(u in path3.star(c) for u in sub)}
            assert set(closed.names()) == set(perp.names()) | extra


def test_join_decomposition_edge(z2):
    assert [f.names() for f in z2.join_decomposition(["a", "b"])] == [("a",), ("b",)]


def test_join_decomposition_path_ends(path3):
    assert [f.names() for f in path3.join_decomposition(["a", "c"])] == [("a", "c")]


def test_join_decomposition_square():
    sq = DefGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert [f.names() for f in sq.join_decomposition("abcd")] == [("a", "c"), ("b", "d")]


def test_join_decomposition_empty_error(path3):
    with pytest.raises(EmptySetError):
        path3.join_decomposition([])


def _bfs_components(mask, nbrs):
    """Reference: connected components by a plain breadth-first search over
    vertex indices, sorted by least vertex."""
    left = [i for i in range(mask.bit_length()) if mask >> i & 1]
    out = []
    while left:
        comp = {left[0]}
        queue = [left[0]]
        while queue:
            i = queue.pop(0)
            for j in left:
                if j not in comp and j != i and nbrs[i] >> j & 1:
                    comp.add(j)
                    queue.append(j)
        left = [i for i in left if i not in comp]
        out.append(sum(1 << i for i in comp))
    return out


def test_components_match_bfs_on_every_subset():
    for gi in range(len(CATALOG)):
        g = catalog_graph(gi)
        for mask in range(g.full + 1):
            for nbrs in (g.adj, g.block):
                assert components(mask, nbrs) == _bfs_components(mask, nbrs), (gi, mask)


def test_join_factors_pairwise_joined_and_irreducible():
    for gi in range(len(CATALOG)):
        g = catalog_graph(gi)
        for r in range(1, len(g) + 1):
            for sub in itertools.combinations(g.vertices, r):
                factors = g.join_decomposition(sub)
                assert set().union(*[set(f.names()) for f in factors]) == set(sub)
                for f1, f2 in itertools.combinations(factors, 2):
                    for u in f1:
                        for w in f2:
                            assert g.has_edge(u, w)
                for f in factors:
                    assert len(g.join_decomposition(f)) == 1


def test_perp_antitone_and_triple_identity():
    # on graphs up to 6 vertices: perp antitone, perp of perp of perp = perp
    graphs = [
        DefGraph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                            ("e", "f")]),
        DefGraph("abcde", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),
                           ("d", "e")]),
        DefGraph("abcdef", []),
    ]
    for g in graphs:
        subs = []
        for r in range(len(g) + 1):
            subs.extend(itertools.combinations(g.vertices, r))
        for sub in subs:
            p = g.perp(sub)
            assert g.perp(g.perp(p)) == p
        for s1 in subs:
            for s2 in subs:
                if set(s1) <= set(s2):
                    assert g.vset(s2).issubset(g.vset(s2) | g.vset(s1))
                    assert g.perp(s2).issubset(g.perp(s1))


def test_simplicial_validation():
    with pytest.raises(GraphFormatError):
        DefGraph(["a", "a"], [])
    with pytest.raises(GraphFormatError):
        DefGraph(["a", "b"], [("a", "a")])


def test_parse_dump_round_trip(path3):
    text = path3.dump()
    again = DefGraph.parse(text)
    assert again == path3
    assert again.dump() == text


def test_parse_comments_and_errors():
    g = DefGraph.parse("# hi\nvertices: a b\n# mid\nedge: a b\n")
    assert g.has_edge("a", "b")
    with pytest.raises(GraphFormatError):
        DefGraph.parse("edge: a b\n")
    with pytest.raises(GraphFormatError):
        DefGraph.parse("vertices: a b\nbogus line\n")


def test_code_block_expands_block_over_letter_codes():
    # code d is in code_block[c] iff vertex d >> 1 is in block[c >> 1]
    for gi in range(len(CATALOG)):
        g = catalog_graph(gi)
        assert len(g.code_block) == 2 * len(g)
        for c, bm in enumerate(g.code_block):
            assert bm == sum(1 << d for d in range(2 * len(g))
                             if (g.block[c >> 1] >> (d >> 1)) & 1), (gi, c)
