import random

import pytest

from raagtk.decomp import (
    CENTRALIZER_CASE,
    CYCLIC_CASE,
    EDGE,
    GOOD,
    ChainPiece,
    ChainReport,
    DecencyReport,
    chain_constant,
    classify_decent_pair,
    decompose_chain,
    decompose_good,
    delta_invariants,
    is_decent,
    pair_from_word,
    pair_is_decent,
    pieces_bound,
)
from raagtk.errors import TransverseHyperplanesError, UnreducedWordError, WordSyntaxError
from raagtk.graph import DefGraph
from raagtk.trees import arc
from raagtk.words import (
    _nf,
    cyclic_reduce_codes,
    identity,
    multiply,
    normal_codes,
    normalize,
    vertex_mask,
)

from conftest import rand_nf


def test_constants_at_single_orbit():
    assert pieces_bound(1, 3) == 7 ** 3
    assert pieces_bound(2, 2) == 4 * 7 ** 8
    assert chain_constant(1, 2) == max(4 * 49 * 2 // 4, 49 ** 2)


def test_pair_adjacent_parallel_walls(z2):
    p = pair_from_word(z2, normalize(z2, "a a").codes, 0, 1)
    inv = delta_invariants(p)
    assert inv.delta == {"a"} and inv.delta_size == 1
    assert inv.counts["a"] == 0


def test_pair_with_separator(free2):
    p = pair_from_word(free2, normalize(free2, "b a b").codes, 0, 2)
    inv = delta_invariants(p)
    assert inv.delta == {"a", "b"}
    assert inv.counts["a"] == 1 and inv.counts["b"] == 0
    assert str(p.between_nf()) == "b a b"


def test_pair_transverse_rejected(z2):
    w = normalize(z2, "a b")
    with pytest.raises(TransverseHyperplanesError):
        pair_from_word(z2, w.codes, 0, 1)


def test_pair_commuting_noise_is_excluded(z2):
    # between the two a-walls of the plane nothing separates, even when the
    # word carries a commuting letter in the middle
    w = normalize(z2, "a b a")  # canonical form reorders to a a b
    pos = [k for k, c in enumerate(w.codes) if c >> 1 == 0]
    p = pair_from_word(z2, w.codes, pos[0], pos[-1])
    assert delta_invariants(p).delta == {"a"}
    assert str(p.between_nf()) == "a a"


def test_pair_delta_join_irreducible():
    rng = random.Random(89)
    from raagtk.selftest import CATALOG, catalog_graph

    done = 0
    while done < 80:
        graph = catalog_graph(rng.randrange(1, len(CATALOG)))
        w = rand_nf(rng, graph, rng.randrange(2, 9))
        counts = {}
        for k, c in enumerate(w.codes):
            counts.setdefault(c >> 1, []).append(k)
        pools = [p for p in counts.values() if len(p) >= 2]
        if not pools:
            continue
        pos = rng.choice(pools)
        pair = pair_from_word(graph, w.codes, pos[0], pos[-1])
        done += 1
        inv = delta_invariants(pair)
        assert len(graph.join_decomposition(inv.delta)) == 1


def test_is_decent_examples(z2, path3):
    assert is_decent(z2, normalize(z2, "a a")).decent
    assert is_decent(path3, normalize(path3, "b")).decent
    rep = is_decent(path3, normalize(path3, "a b c"))
    assert rep.decent and set(rep.witnesses) == {"a", "b", "c"}


def test_is_decent_rejects_unreduced(path3):
    with pytest.raises(UnreducedWordError):
        is_decent(path3, (1, 0))  # a a^-1


def test_pair_from_word_and_decompose_good_reject_unreduced(path3):
    with pytest.raises(UnreducedWordError):
        pair_from_word(path3, (1, 2, 0), 0, 2)  # a b^-1 a^-1, a and b commute
    with pytest.raises(UnreducedWordError):
        decompose_good(path3, (1, 2, 0))


@pytest.mark.parametrize("codes", [(-1,), (-2, 3), (4,), (0, 2, 5)])
def test_raw_codes_outside_the_graph_are_refused(codes):
    # DefGraph(["a", "b"]) has the codes 0-3; a code past either end names
    # no letter, and is refused before the word is read
    free = DefGraph(["a", "b"])
    bad = next(c for c in codes if not 0 <= c < 4)
    for call in (lambda: is_decent(free, codes), lambda: decompose_good(free, codes),
                 lambda: pair_from_word(free, codes + (0,), 0, len(codes))):
        with pytest.raises(WordSyntaxError, match="code %d names no letter" % bad):
            call()


def test_decompose_good_single_good_piece(path3):
    d = decompose_good(path3, normalize(path3, "c c c"))
    assert len(d.pieces) == 1 and d.pieces[0].tag == GOOD


def test_decompose_good_single_edge(path3):
    d = decompose_good(path3, normalize(path3, "a"))
    assert len(d.pieces) == 1 and d.pieces[0].tag == EDGE


def test_decompose_good_splits_on_lonely_letter(free2):
    d = decompose_good(free2, normalize(free2, "a a b a^-1 a^-1"))
    tags = [p.tag for p in d.pieces]
    assert tags == [GOOD, EDGE, GOOD]


def test_decompose_good_bound_and_decency_fuzz():
    rng = random.Random(97)
    from raagtk.selftest import CATALOG, catalog_graph

    for _ in range(200):
        graph = catalog_graph(rng.randrange(1, len(CATALOG)))
        w = rand_nf(rng, graph, rng.randrange(1, 13))
        d = decompose_good(graph, w)
        assert len(d.pieces) <= d.bound == pieces_bound(1, len(graph))
        pos = 0
        whole = identity(graph)
        for p in d.pieces:
            assert p.start == pos
            pos = p.end
            piece_nf = normalize(graph, "1")
            from raagtk.words import _nf, normal_codes

            piece_nf = _nf(graph, normal_codes(graph, p.word))
            whole = multiply(whole, piece_nf)
            if p.tag != EDGE:
                assert is_decent(graph, p.word).decent
                # good pieces use every letter at least twice
                seen = {}
                for c in p.word:
                    seen[c >> 1] = seen.get(c >> 1, 0) + 1
                assert all(k >= 2 for k in seen.values())
        assert pos == len(w.codes)
        assert whole == w


def test_chain_whole_arc_decent(path3):
    beta = arc(path3, "b", identity(path3), normalize(path3, "b b b"))
    rep = decompose_chain(beta)
    assert rep.s == 1
    assert [p.kind for p in rep.pieces] == ["mu", "nu", "mu"]
    assert rep.pieces[0].length == 0 and rep.pieces[2].length == 0
    assert rep.bounds_ok


def test_chain_short_arc_single_mu(path3):
    beta = arc(path3, "b", identity(path3), normalize(path3, "b a b"))
    rep = decompose_chain(beta)
    assert rep.s == 0
    assert len(rep.pieces) == 1 and rep.pieces[0].kind == "mu"
    assert rep.bounds_ok


def test_chain_bounds_fuzz(path3):
    rng = random.Random(101)
    made = 0
    while made < 60:
        w = rand_nf(rng, path3, rng.randrange(2, 12))
        v = rng.choice(path3.vertices)
        if not any(c >> 1 == path3.index(v) for c in w.codes):
            continue
        beta = arc(path3, v, identity(path3), w)
        made += 1
        rep = decompose_chain(beta)
        assert rep.bounds_ok
        assert sum(p.length for p in rep.pieces) == rep.arc_length
        for p in rep.pieces:
            if p.kind == "nu":
                assert p.length > 2
                assert p.decency.decent


def test_classify_plane_pair_cyclic(z2):
    pair = pair_from_word(z2, normalize(z2, "a a").codes, 0, 1)
    cls = classify_decent_pair(pair)
    assert cls.case == CYCLIC_CASE
    assert str(cls.element) == "a"
    assert cls.axis_stats["exceptions"] <= cls.axis_stats["exception_bound"]


def test_classify_free_pair_centralizer(free2):
    pair = pair_from_word(free2, normalize(free2, "a a").codes, 0, 1)
    cls = classify_decent_pair(pair)
    assert cls.case == CENTRALIZER_CASE
    assert cls.stabilizer.support == set()


def test_classify_constructed_centralizer_case():
    # a five-vertex graph where the double-perp closure of the common link
    # is the common link itself
    g5 = DefGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    w = normalize(g5, "c a c")
    pos = [k for k, c in enumerate(w.codes) if c >> 1 == g5.index("c")]
    pair = pair_from_word(g5, w.codes, pos[0], pos[-1])
    cls = classify_decent_pair(pair)
    assert cls.case == CENTRALIZER_CASE


def test_classify_element_commutes_with_stabilizer_ball(z2):
    # the cyclic-case element commutes with everything fixing both walls
    from raagtk.subgroups import member
    from raagtk.words import _nf, ball_codes
    from raagtk.elements import commutes

    pair = pair_from_word(z2, normalize(z2, "a a").codes, 0, 1)
    cls = classify_decent_pair(pair)
    for codes in ball_codes(z2, 3):
        h = _nf(z2, codes)
        if member(cls.stabilizer, h):
            assert commutes(cls.element, h)


def test_classify_requires_decent(free2):
    pair = pair_from_word(free2, normalize(free2, "a a").codes, 0, 1)
    # artificially break decency by handing a non-realizing pair is not
    # possible through the public constructor; instead check the error path
    # via a pair whose between word fails the witness scan: none exist for
    # the vertex-transitive action, so assert the report is decent
    assert pair_is_decent(pair).decent


def _scanned_decency(graph, codes):
    """Reference for is_decent: for each label, the first prefix positions
    (i, j), in the order (i, then j), with the label in the axis support of
    the subword."""
    labels = [graph.vertices[i] for i in graph.vset_mask(vertex_mask(codes)).indices()]
    witnesses = {}
    missing = []
    for v in labels:
        iv = graph.index(v)
        found = None
        for i in range(len(codes)):
            for j in range(i + 1, len(codes) + 1):
                sub = normal_codes(graph, codes[i:j])
                if sub and any(k >> 1 == iv for k in cyclic_reduce_codes(graph, sub)[1]):
                    found = (i, j)
                    break
            if found:
                break
        if found:
            witnesses[v] = found
        else:
            missing.append(v)
    return DecencyReport(not missing, witnesses, tuple(missing))


def _greedy_chain(beta):
    """Reference for decompose_chain: candidate nu spans of at least three
    edges, longest first, accepted when disjoint from those taken and
    decent by _scanned_decency."""
    graph = beta.graph
    iv = graph.index(beta.label)
    word = beta.word()
    vpos = [k for k, c in enumerate(word) if c >> 1 == iv]
    m = len(vpos)
    start = beta.start.rep_nf()
    candidates = sorted(
        ((j - i, i, j) for i in range(m) for j in range(i + 2, m)),
        key=lambda t: (-t[0], t[1]),
    )
    taken = []
    used = [False] * m
    for _, i, j in candidates:
        if any(used[i:j + 1]):
            continue
        pair = pair_from_word(graph, word, vpos[i], vpos[j], base=start)
        rep = _scanned_decency(graph, pair.between)
        if rep.decent:
            taken.append((i, j, pair, rep))
            used[i:j + 1] = [True] * (j + 1 - i)
    taken.sort()
    pieces = []
    cursor = 0
    for i, j, pair, rep in taken:
        pieces.append(ChainPiece("mu", (cursor, i - 1) if i > cursor else (), i - cursor, None, None))
        pieces.append(ChainPiece("nu", (i, j), j - i + 1, pair, rep))
        cursor = j + 1
    pieces.append(ChainPiece("mu", (cursor, m - 1) if cursor < m else (), m - cursor, None, None))
    const = chain_constant(1, len(graph))
    bounds_ok = (
        len(taken) <= const
        and all(p.length <= const for p in pieces if p.kind == "mu")
        and all(p.length > 2 for p in pieces if p.kind == "nu")
    )
    return ChainReport(tuple(pieces), len(taken), const, bounds_ok, m)


def _reference_graphs(rng):
    from raagtk.selftest import CATALOG, _random_graph5, catalog_graph

    return [catalog_graph(gi) for gi in range(len(CATALOG))] + [
        _random_graph5(rng) for _ in range(8)
    ]


def test_decency_matches_scan():
    rng = random.Random(61)
    for graph in _reference_graphs(rng):
        for _ in range(60):
            w = rand_nf(rng, graph, rng.randrange(0, 10))
            assert is_decent(graph, w) == _scanned_decency(graph, w.codes)


def test_chain_matches_greedy_loop():
    rng = random.Random(67)
    for graph in _reference_graphs(rng):
        made = 0
        while made < 30:
            iv = rng.randrange(len(graph))
            # every other letter is more likely the label's, so most arcs
            # have three edges or more
            vc = 2 * iv + rng.randrange(2)
            codes = [vc if rng.random() < 0.4 else rng.randrange(2 * len(graph))
                     for _ in range(rng.randrange(1, 12))]
            w = _nf(graph, normal_codes(graph, codes))
            if not any(c >> 1 == iv for c in w.codes):
                continue
            made += 1
            start = rand_nf(rng, graph, rng.randrange(0, 4))
            beta = arc(graph, graph.vertices[iv], start, multiply(start, w))
            assert decompose_chain(beta) == _greedy_chain(beta)
