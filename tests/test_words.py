import random
from math import comb

import pytest
from hypothesis import given, settings

from raagtk import decomp as DC
from raagtk import dls as D
from raagtk import oracles as O
from raagtk import subgroups as S
from raagtk import words as W
from raagtk.cmp import cmp_defect
from raagtk.errors import GraphMismatchError, OutOfRangeError, WordSyntaxError
from raagtk.graph import DefGraph
from raagtk.selftest import CATALOG, catalog_graph
from raagtk.words import (
    DEFAULT_CLOSURE_CAP,
    ClosureResult,
    _nf,
    ball_codes,
    cyclic_reduce,
    dist,
    format_codes,
    hyperplane_at,
    identity,
    inv_codes,
    invert,
    median,
    multiply,
    normal_codes,
    normalize,
    parse_word,
    subalgebra_closure,
)

from conftest import first_code_set, graph_and_word, graph_and_words, rand_nf


def oracle_min_conjugate_length(graph, g_nf, ball_elements):
    """Shortest reduced length among conjugates h g h^-1 over the supplied
    ball of conjugators."""
    best = len(g_nf.codes)
    for h in ball_elements:
        w = normal_codes(graph, h.codes + g_nf.codes + inv_codes(h.codes))
        if len(w) < best:
            best = len(w)
    return best


def closure_fixpoint(points, median_fn, cap=100_000):
    """Naive fixpoint iteration: rescan every triple until nothing new."""
    pts = []
    seen = set()
    for t in points:
        t = tuple(t)
        if t not in seen:
            seen.add(t)
            pts.append(t)
    while True:
        added = False
        n = len(pts)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    m = median_fn(pts[i], pts[j], pts[k])
                    if m not in seen:
                        seen.add(m)
                        pts.append(m)
                        added = True
                        if len(pts) > cap:
                            return pts, True
        if not added:
            return pts, False


# -- parsing / formatting -----------------------------------------------------

def test_parse_word_round_trip(path3):
    w = parse_word(path3, "a b^-1 c a^2")
    assert format_codes(path3, w.codes) == "a b^-1 c a a"
    assert str(normalize(path3, "1")) == "1"


@pytest.mark.parametrize("token", ["a^", "a^x", "b^-", "^", "^2"])
def test_parse_word_refuses_a_bad_exponent(path3, token):
    # a caret needs an integer after it: "a^" is not "a"
    with pytest.raises(WordSyntaxError):
        parse_word(path3, "b " + token)


# -- normalize ----------------------------------------------------------------

def test_normalize_commuting_cancellation(z2):
    assert str(normalize(z2, "b a b^-1 a^-1")) == "1"


def test_normalize_trivial_cancellation(path3):
    assert str(normalize(path3, "a a^-1")) == "1"


def test_normalize_noncommuting_stays(path3):
    # a and c do not commute across the middle vertex, so "c a" cannot
    # be reordered; oracle-verified expected value
    assert str(normalize(path3, "c a")) == "c a"
    assert str(normalize(path3, "b a")) == "a b"


@settings(max_examples=150, deadline=None)
@given(graph_and_word())
def test_normalize_agrees_with_oracle(gw):
    graph, codes = gw
    nf = normal_codes(graph, codes)
    r = O.oracle_reduce(graph.adj, codes)
    assert len(r) == len(nf)
    assert O._projections(graph.adj, r, len(graph)) == O._projections(
        graph.adj, nf, len(graph)
    )


@settings(max_examples=100, deadline=None)
@given(graph_and_word())
def test_normalize_idempotent(gw):
    graph, codes = gw
    nf = normal_codes(graph, codes)
    assert normal_codes(graph, nf) == nf


def test_canonical_is_lex_least_of_shuffle_class():
    # enumerate the full swap orbit of a reduced word and check the canonical
    # form is its lexicographic minimum
    from collections import deque

    from raagtk.selftest import catalog_graph

    rng = random.Random(29)
    for _ in range(120):
        graph = catalog_graph(rng.randrange(1, 18))
        w = normal_codes(graph, tuple(rng.randrange(2 * len(graph))
                                      for _ in range(rng.randrange(0, 7))))
        seen = {w}
        queue = deque([w])
        while queue:
            u = queue.popleft()
            for i in range(len(u) - 1):
                a, b = u[i], u[i + 1]
                if a >> 1 != b >> 1 and (graph.adj[a >> 1] >> (b >> 1)) & 1:
                    nxt = u[:i] + (b, a) + u[i + 2:]
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
        assert w == min(seen)


def test_prefixes_of_canonical_are_canonical():
    # geodesic bookkeeping walks prefixes of the canonical word directly
    from raagtk.selftest import catalog_graph

    rng = random.Random(31)
    for _ in range(200):
        graph = catalog_graph(rng.randrange(1, 18))
        w = normal_codes(graph, tuple(rng.randrange(2 * len(graph))
                                      for _ in range(rng.randrange(0, 9))))
        for k in range(len(w) + 1):
            assert normal_codes(graph, w[:k]) == w[:k]


@settings(max_examples=100, deadline=None)
@given(graph_and_words(2))
def test_multiply_lengths_and_inverse(gw):
    graph, (w1, w2) = gw
    g = _nf(graph, normal_codes(graph, w1))
    h = _nf(graph, normal_codes(graph, w2))
    assert len(multiply(g, h)) <= len(g) + len(h)
    assert len(invert(g)) == len(g)
    assert multiply(g, invert(g)) == identity(graph)
    assert invert(g).codes == normal_codes(graph, inv_codes(g.codes))
    gh = multiply(invert(g), h)
    assert gh.codes == normal_codes(graph, gh.codes)
    assert gh.codes == normal_codes(graph, inv_codes(g.codes) + h.codes)


def test_power_is_repeated_multiply():
    # the bases include conjugates x g x^-1, which are not cyclically reduced
    rng = random.Random(53)
    unreduced = 0
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        for _ in range(6):
            g = rand_nf(rng, graph, rng.randrange(0, 6))
            x = rand_nf(rng, graph, rng.randrange(1, 4))
            for base in (g, multiply(multiply(x, g), invert(x))):
                unreduced += bool(cyclic_reduce(base).conjugator)
                assert base ** 0 == identity(graph)
                for step, sign in ((base, 1), (invert(base), -1)):
                    power = identity(graph)
                    for n in range(1, 7):
                        power = multiply(power, step)
                        assert base ** (sign * n) == power
    assert unreduced > 40


def test_public_outputs_are_canonical():
    # NormalForm promises canonical codes; every operation that returns one
    # must keep that promise, or equality and continuation from it break
    from raagtk import dls as D
    from raagtk.elements import centralizer, li_components, primitive_root
    from raagtk.selftest import random_dls

    rng = random.Random(59)
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        maps = [phi for phi in (random_dls(rng, graph) for _ in range(3)) if phi]
        inverses = [D.inverse(phi) for phi in maps]
        out = [phi.twist_element for phi in inverses]
        out += [img for phi in inverses for img in phi.generator_images.values()]
        for _ in range(12):
            g = rand_nf(rng, graph, rng.randrange(0, 8))
            h = rand_nf(rng, graph, rng.randrange(0, 8))
            out += [g.inv(), invert(g), multiply(g, h), multiply(invert(g), h)]
            out += [g ** n for n in range(-4, 5)]
            out += list(cyclic_reduce(g))
            if g:
                dec = li_components(g)
                out += [*dec.components, dec.conjugator, primitive_root(g)[0]]
                cf = centralizer(g)
                out += [cf.conjugator, *cf.cyclic_roots]
            out += [D.apply(phi, g) for phi in maps]
        for x in out:
            assert x.codes == normal_codes(graph, x.codes), (CATALOG[gi][0], x)


def test_multiply_commuting(z2):
    assert multiply(normalize(z2, "a"), normalize(z2, "b")) == multiply(
        normalize(z2, "b"), normalize(z2, "a")
    )


def test_multiply_graph_mismatch(z2, path3):
    with pytest.raises(GraphMismatchError):
        multiply(normalize(z2, "a"), normalize(path3, "a"))


_P4 = DefGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
_C4 = DefGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
_C4_IDENTITY = {v: normalize(_C4, v) for v in _C4.vertices}

# one call per entry point that takes a value of another graph: P4 values
# with C4 ones, or P4 words on the one-vertex graph
_MIXED_GRAPH_CALLS = {
    "translate_hyperplane": lambda: W.translate_hyperplane(
        normalize(_C4, "a"), hyperplane_at(_P4, (), 1)),
    "is_decent": lambda: DC.is_decent(DefGraph("a"), normalize(_P4, "a b c d")),
    "decompose_good": lambda: DC.decompose_good(DefGraph("a"), normalize(_P4, "a b c d")),
    "pair_from_word": lambda: DC.pair_from_word(
        _P4, normalize(_P4, "a c a").codes, 0, 2, base=normalize(_C4, "a")),
    "parabolic": lambda: S.parabolic(_P4, "a", normalize(_C4, "b")),
    "semi_parabolic": lambda: S.semi_parabolic(_P4, [normalize(_C4, "a")], ()),
    "cmp_defect": lambda: cmp_defect((_P4, _C4_IDENTITY), 2),
    "verify_automorphism": lambda: D.verify_automorphism(_C4_IDENTITY, graph=_P4),
    "intersect": lambda: S.intersect(S.parabolic(_P4, "a"), S.parabolic(_C4, "a"), 2),
}


@pytest.mark.parametrize("call", _MIXED_GRAPH_CALLS.values(), ids=_MIXED_GRAPH_CALLS)
def test_entry_points_refuse_another_graphs_values(call):
    with pytest.raises(GraphMismatchError):
        call()


def test_hyperplane_compares_as_its_fields():
    # a Hyperplane is a plain NamedTuple: the wall dual to the a-edge at 1
    # equals the a-tree's vertex A_{V-a}, a different coset with the same fields
    from raagtk.trees import tree_vertex
    assert hyperplane_at(_P4, (), 1) == tree_vertex(_P4, "a", W.identity(_P4))


@settings(max_examples=80, deadline=None)
@given(graph_and_words(2))
def test_multiply_agrees_with_oracle(gw):
    graph, (w1, w2) = gw
    prod = normal_codes(graph, tuple(w1) + tuple(w2))
    assert O.oracle_equal_words(graph.adj, len(graph), tuple(w1) + tuple(w2), prod)


# -- cyclic reduction ----------------------------------------------------------

def test_cyclic_reduce_single_letter(path3):
    d = cyclic_reduce(normalize(path3, "a"))
    assert str(d.conjugator) == "1" and str(d.core) == "a"


def test_cyclic_reduce_visible_conjugation(path3):
    d = cyclic_reduce(normalize(path3, "c a c^-1"))
    assert str(d.conjugator) == "c" and str(d.core) == "a"


@settings(max_examples=60, deadline=None)
@given(graph_and_word(max_len=6))
def test_cyclic_reduce_reaches_conjugacy_minimum(gw):
    graph, codes = gw
    g = _nf(graph, normal_codes(graph, codes))
    x, core = cyclic_reduce(g)
    # product recomposes and the concatenation is reduced
    recomposed = multiply(multiply(x, core), invert(x))
    assert recomposed == g
    assert 2 * len(x) + len(core) == len(g)
    # bounded conjugacy search cannot find anything shorter
    ball = [_nf(graph, w) for w in ball_codes(graph, min(len(g), 4))]
    assert oracle_min_conjugate_length(graph, g, ball) == len(core)


# -- geodesics and hyperplanes --------------------------------------------------

def crossed_hyperplanes(g):
    """Hyperplanes crossed by the canonical geodesic from 1 to g, in order:
    hyperplane_at on each prefix and the letter that follows it."""
    return [hyperplane_at(g.graph, g.codes[:k], c) for k, c in enumerate(g.codes)]


def test_geodesic_hyperplanes_basic(z2):
    hs = crossed_hyperplanes(normalize(z2, "a b"))
    assert [h.label for h in hs] == ["a", "b"]
    assert crossed_hyperplanes(identity(z2)) == []


def test_geodesic_hyperplanes_distinct_exhaustive():
    # no geodesic crosses the same wall twice
    rng = random.Random(5)
    for gi in (2, 5, 6, 12):
        from raagtk.selftest import catalog_graph

        graph = catalog_graph(gi)
        for _ in range(200):
            g = rand_nf(rng, graph, rng.randrange(0, 9))
            hs = crossed_hyperplanes(g)
            assert len(set(hs)) == len(hs) == len(g)


def test_parallel_edges_same_hyperplane(z2):
    # edges (1, a) and (b, ba) are dual to the same wall
    h1 = crossed_hyperplanes(normalize(z2, "a"))[0]
    h2 = [h for h in crossed_hyperplanes(normalize(z2, "b a")) if h.label == "a"][0]
    assert h1 == h2
    # but (a, aa) is a different parallel wall
    h3 = [h for h in crossed_hyperplanes(normalize(z2, "a a")) if h.label == "a"][1]
    assert h1 != h3


def test_hyperplane_rep_is_complete_coset_invariant():
    # two positively oriented v-edges are dual to the same wall iff their
    # bases differ by an element supported in lk v; the canonical stripped
    # representative must separate cosets exactly
    from raagtk.selftest import catalog_graph
    from raagtk.words import vertex_mask

    for gi in (2, 5, 6, 12, 14):
        graph = catalog_graph(gi)
        bases = ball_codes(graph, 3)
        for v in graph.vertices:
            iv = graph.index(v)
            lk = graph.link_mask(iv)
            reps = [hyperplane_at(graph, b, 2 * iv + 1) for b in bases]
            for i in range(0, len(bases), 7):
                for j in range(i, len(bases), 5):
                    diff = normal_codes(graph, inv_codes(bases[i]) + bases[j])
                    same_coset = not (vertex_mask(diff) & ~lk)
                    assert (reps[i] == reps[j]) == same_coset


def test_wall_counts_match_tree_distances():
    # the v-labelled walls crossed by the geodesic 1 -> g count the tree
    # distance moved in the v-tree
    from raagtk.selftest import catalog_graph
    from raagtk.trees import tv_distance

    rng = random.Random(7)
    for _ in range(100):
        graph = catalog_graph(rng.randrange(1, 18))
        g = rand_nf(rng, graph, rng.randrange(0, 8))
        hs = crossed_hyperplanes(g)
        for v in graph.vertices:
            assert sum(1 for h in hs if h.label == v) == tv_distance(
                graph, v, identity(graph), g
            )


# -- median ---------------------------------------------------------------------

def test_median_axiom_absorption(z2):
    x = normalize(z2, "a b")
    y = normalize(z2, "b^-1")
    assert median(x, x, y) == x


def test_median_plane_example(z2):
    m = median(identity(z2), normalize(z2, "a b"), normalize(z2, "a b^-1"))
    assert str(m) == "a"


@settings(max_examples=60, deadline=None)
@given(graph_and_words(3, max_len=4))
def test_median_permutation_invariant(gw):
    graph, ws = gw
    x, y, z = [_nf(graph, normal_codes(graph, w)) for w in ws]
    m = median(x, y, z)
    assert m == median(y, x, z) == median(z, y, x) == median(x, z, y)
    assert m == median(y, z, x) == median(z, x, y)


@settings(max_examples=60, deadline=None)
@given(graph_and_words(4, max_len=3))
def test_median_second_axiom(gw):
    # m(m(a,x,b), x, c) == m(a, x, m(b,x,c))
    graph, ws = gw
    a, x, b, c = [_nf(graph, normal_codes(graph, w)) for w in ws]
    assert median(median(a, x, b), x, c) == median(a, x, median(b, x, c))


@settings(max_examples=60, deadline=None)
@given(graph_and_words(4, max_len=3))
def test_median_left_equivariant(gw):
    graph, ws = gw
    k, x, y, z = [_nf(graph, normal_codes(graph, w)) for w in ws]
    assert multiply(k, median(x, y, z)) == median(
        multiply(k, x), multiply(k, y), multiply(k, z)
    )


def test_median_is_between_all_pairs(path4):
    rng = random.Random(9)
    for _ in range(120):
        x, y, z = (rand_nf(rng, path4, rng.randrange(0, 5)) for _ in range(3))
        m = median(x, y, z)
        assert dist(x, m) + dist(m, y) == dist(x, y)
        assert dist(y, m) + dist(m, z) == dist(y, z)
        assert dist(x, m) + dist(m, z) == dist(x, z)


# -- subalgebra closure -----------------------------------------------------------

def test_closure_singleton(z2):
    res = subalgebra_closure([(normalize(z2, "a"),)])
    assert len(res.elements) == 1 and not res.truncated


def test_closure_collinear_chain(z2):
    pts = [(normalize(z2, w),) for w in ("1", "a", "a a")]
    res = subalgebra_closure(pts)
    assert len(res.elements) == 3


def test_closure_is_median_closed_and_minimal(z2, free2):
    # fixpoint oracle agreement on seeded point sets
    rng = random.Random(3)
    for graph in (z2, free2):
        for _ in range(10):
            pts = [
                (rand_nf(rng, graph, rng.randrange(0, 4)),)
                for _ in range(rng.randrange(1, 4))
            ]
            res = subalgebra_closure(pts)
            got = {t for t in res.elements}
            oracle, trunc = closure_fixpoint(
                pts, lambda a, b, c: (median(a[0], b[0], c[0]),)
            )
            assert not trunc and not res.truncated
            assert got == set(oracle)


def test_closure_square_corners_already_closed(z2):
    # the four corners of a square are median-closed: coordinatewise medians
    # of corner triples are corners (fixpoint oracle confirms)
    corners = [(normalize(z2, w),) for w in ("1", "a a", "b b", "a a b b")]
    res = subalgebra_closure(corners)
    oracle, _ = closure_fixpoint(
        corners, lambda a, b, c: (median(a[0], b[0], c[0]),)
    )
    assert len(res.elements) == len(oracle) == 4


def test_closure_generates_new_points(z2):
    pts = [(normalize(z2, w),) for w in ("1", "a a", "a b")]
    res = subalgebra_closure(pts)
    assert len(res.elements) > 3
    oracle, _ = closure_fixpoint(pts, lambda a, b, c: (median(a[0], b[0], c[0]),))
    assert set(res.elements) == set(oracle)


def test_closure_truncation_flag(free2):
    # free-group points can generate large subalgebras; a tiny cap must
    # truncate rather than run away
    pts = [(normalize(free2, w),) for w in ("1", "a b a b", "b a b a")]
    res = subalgebra_closure(pts, cap=2)
    assert res.truncated and len(res.elements) >= 2


def test_closure_pairs_arity(z2):
    one = identity(z2)
    a = normalize(z2, "a")
    res = subalgebra_closure([(one, a), (a, one)])
    assert all(len(t) == 2 for t in res.elements)
    from raagtk.errors import ArityMismatchError

    with pytest.raises(ArityMismatchError):
        subalgebra_closure([(one,), (one, a)])


def reference_closure(points, cap=DEFAULT_CLOSURE_CAP):
    """The round loop that `subalgebra_closure` replaced, kept as the order
    reference: each new point a meets every pair (pts[i], pts[j]), i <= j,
    of the points the round starts with."""
    pts = []
    seen = set()
    arity = None
    for t in points:
        t = tuple(t)
        if arity is None:
            arity = len(t)
        if t not in seen:
            seen.add(t)
            pts.append(t)
    if arity is None:
        return ClosureResult([], False, cap)
    fresh = list(pts)
    while fresh:
        if len(pts) > cap:
            return ClosureResult(pts, True, cap)
        new = []
        n = len(pts)
        for a in fresh:
            for i in range(n):
                b = pts[i]
                for j in range(i, n):
                    c = pts[j]
                    m = tuple(median(a[k], b[k], c[k]) for k in range(arity))
                    if m not in seen:
                        seen.add(m)
                        new.append(m)
                        if len(pts) + len(new) > cap:
                            pts.extend(new)
                            return ClosureResult(pts, True, cap)
        pts.extend(new)
        fresh = new
    return ClosureResult(pts, False, cap)


def z2_permutation_points(graph, n, seed):
    """The n points a^i b^s(i) of Z^2, s a permutation shuffled by `seed`."""
    s = list(range(n))
    random.Random(seed).shuffle(s)
    return [(normalize(graph, "a^%d b^%d" % (i, s[i])),) for i in range(n)]


def test_closure_matches_the_reference_loop(z2):
    for cap in (10, 30, DEFAULT_CLOSURE_CAP):
        pts = z2_permutation_points(z2, 8, 5)
        assert subalgebra_closure(pts, cap) == reference_closure(pts, cap)
    rng = random.Random(19)
    over_at_start = over_in_round = 0
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        for _ in range(20):
            arity = rng.choice((1, 2))
            pts = [tuple(rand_nf(rng, graph, rng.randrange(0, 8)) for _ in range(arity))
                   for _ in range(rng.randrange(1, 8))]
            pts += rng.sample(pts, rng.randrange(0, 2))
            cap = rng.choice((1, 3, 10, DEFAULT_CLOSURE_CAP))
            res = subalgebra_closure(pts, cap)
            assert res == reference_closure(pts, cap), (gi, pts, cap)
            if res.truncated:
                if len(set(pts)) > cap:
                    over_at_start += 1
                else:
                    over_in_round += 1
                    assert len(res.elements) == cap + 1
    assert over_at_start and over_in_round


def test_closure_evaluates_each_unordered_triple_once(z2, monkeypatch):
    triples = []

    def counted(x, y, z):
        triples.append(tuple(sorted((x.codes, y.codes, z.codes))))
        return median(x, y, z)

    monkeypatch.setattr(W, "median", counted)
    res = subalgebra_closure(z2_permutation_points(z2, 8, 5))
    assert len(res.elements) == 31 and not res.truncated
    assert len(triples) == len(set(triples)) == comb(31, 3)
    assert all(len(set(t)) == 3 for t in triples)


def test_closure_refuses_a_round_past_the_work_limit(z2, monkeypatch):
    pts = z2_permutation_points(z2, 8, 5)
    # C(31, 3) = 4495 medians close these points
    monkeypatch.setattr(W, "CLOSURE_WORK", comb(31, 3))
    assert len(subalgebra_closure(pts).elements) == 31
    monkeypatch.setattr(W, "CLOSURE_WORK", comb(31, 3) - 1)
    with pytest.raises(OutOfRangeError, match="4495 coordinate medians, more than 4494"):
        subalgebra_closure(pts)
    # a truncated closure stops before the round that would pass the limit
    assert subalgebra_closure(pts, cap=30).truncated


def test_parse_word_refuses_words_past_physical_memory(z2, monkeypatch):
    from raagtk import words as W
    from raagtk.errors import MemoryLimitError

    # checked before expansion: no machine holds 10^30 letters
    with pytest.raises(MemoryLimitError, match="physical memory"):
        parse_word(z2, "a^%d" % 10 ** 30)
    # the exponents of all tokens count together
    limit = 40_000 * W.LETTER_BYTES - 1
    monkeypatch.setattr(W, "_physical_memory", lambda: limit)
    assert len(parse_word(z2, "a^20000")) == 20_000
    with pytest.raises(MemoryLimitError):
        parse_word(z2, "a^20000 b^-20000")
    monkeypatch.setattr(W, "_physical_memory", lambda: 0)     # unknown: no check
    assert len(parse_word(z2, "a^20000 b^-20000")) == 40_000


# -- balls -------------------------------------------------------------------------

def test_ball_sizes_plane(z2):
    assert len(ball_codes(z2, 1)) == 5
    assert len(ball_codes(z2, 2)) == 13


def test_ball_cap(free2):
    from raagtk.errors import BallCapExceededError

    with pytest.raises(BallCapExceededError):
        ball_codes(free2, 8, cap=100)


def test_ball_cap_is_counted_before_listing(free2, z2):
    import tracemalloc

    from raagtk.errors import BallCapExceededError
    from raagtk.graph import DefGraph

    # Z grows by 2 a level, Z^2 by 4R, F2 by 3^R: the sizes are counted per
    # allowed-letter mask, so no word is listed, even at radius 10^20
    for graph in (DefGraph(["a"]), z2, free2):
        tracemalloc.start()
        try:
            with pytest.raises(BallCapExceededError) as refused:
                ball_codes(graph, 10 ** 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "ball of radius %d exceeds cap 200000" % 10 ** 20
        assert peak < 10 ** 6, (graph, peak)


def test_ball_letters_are_counted_before_listing(monkeypatch, z2):
    from raagtk.errors import MemoryLimitError
    from raagtk.graph import DefGraph

    # Z at radius 99999 has 199999 words, under the cap, but 10^10 letters;
    # Z^2 at radius 300 (180601 words, sized by its count, not by the free
    # group's ball) has about 3.6*10^7
    monkeypatch.setattr(W, "_physical_memory", lambda: 10 ** 8)
    for graph, radius in ((DefGraph(["a"]), 99_999), (z2, 300)):
        for size in (ball_codes, W.ball_count):
            with pytest.raises(MemoryLimitError):
                size(graph, radius)
    assert len(ball_codes(DefGraph(["a"]), 3000)) == 6001


def test_ball_count_and_lazy_listing_match_ball_codes(free2):
    # the count and the lazy listing against the listed ball, on every
    # catalog graph at R <= 4 and on F2 at R <= 7
    from raagtk.words import ball_count, iter_ball_codes

    cases = [(catalog_graph(gi), r) for gi in range(len(CATALOG)) for r in range(5)]
    for graph, radius in cases + [(free2, r) for r in range(8)]:
        ball = ball_codes(graph, radius)
        assert list(iter_ball_codes(graph, radius)) == ball
        assert ball_count(graph, radius) == (len(ball), sum(map(len, ball)))


def test_ball_count_refuses_past_the_cap(free2):
    from raagtk.errors import BallCapExceededError
    from raagtk.words import ball_count

    # F2 at R = 10 holds 118097 words, at R = 11 354293
    assert ball_count(free2, 10)[0] == 118_097
    for refuse in (ball_count, ball_codes):
        with pytest.raises(BallCapExceededError) as refused:
            refuse(free2, 11)
        assert refused.value.code == "ball_cap_exceeded"
        assert str(refused.value) == "ball of radius 11 exceeds cap 200000"


# -- word kernels against their definitions -------------------------------------

def greedy_codes(block, reduced):
    """The definition of the canonical form: repeatedly emit the least letter
    that shuffles to the front of the remaining reduced word."""
    rem = list(reduced)
    out = []
    while rem:
        blocked = 0
        best = -1
        bi = -1
        for i, c in enumerate(rem):
            if not (blocked >> (c >> 1)) & 1 and (best < 0 or c < best):
                best = c
                bi = i
            blocked |= block[c >> 1]
        out.append(best)
        del rem[bi]
    return tuple(out)


def _kernel_graphs():
    from raagtk.graph import DefGraph
    from raagtk.selftest import catalog_graph

    rng = random.Random(8)
    verts = ["v%d" % i for i in range(8)]
    edges = [(verts[i], verts[j]) for i in range(8) for j in range(i + 1, 8)
             if rng.random() < 0.4]
    # listed six times, so that about a quarter of the drawn words use it
    return [catalog_graph(gi) for gi in range(1, 18)] + [DefGraph(verts, edges)] * 6


def _long_words(seed, count):
    """(graph, canonical word of 100-300 letters); every other word is a
    conjugate x k x^-1, so cyclic reduction and meets have work to do."""
    graphs = _kernel_graphs()
    rng = random.Random(seed)
    for t in range(count):
        graph = rng.choice(graphs)
        w = rand_nf(rng, graph, rng.randrange(100, 301)).codes
        if t % 2:
            x = w[: rng.randrange(len(w) // 2)]
            w = normal_codes(graph, x + w[len(x):] + inv_codes(x))
        yield graph, w


def test_normal_codes_is_greedy_form_short_exhaustive():
    import itertools

    from raagtk.selftest import catalog_graph
    from raagtk.words import reduce_codes

    for gi in range(18):
        graph = catalog_graph(gi)
        for n in range(5):
            for w in itertools.product(range(2 * len(graph)), repeat=n):
                assert normal_codes(graph, w) == greedy_codes(
                    graph.block, reduce_codes(graph.adj, w))


def test_normal_codes_is_greedy_form_long():
    from raagtk.words import reduce_codes

    graphs = _kernel_graphs()
    rng = random.Random(41)
    for _ in range(300):
        graph = rng.choice(graphs)
        w = tuple(rng.randrange(2 * len(graph)) for _ in range(rng.randrange(100, 301)))
        assert normal_codes(graph, w) == greedy_codes(
            graph.block, reduce_codes(graph.adj, w))


def test_meet_codes_is_greatest_common_prefix():
    from raagtk.words import meet_codes

    rng = random.Random(43)
    for graph, w in _long_words(43, 120):
        p = w[: rng.randrange(len(w))]
        u = normal_codes(graph, p + rand_nf(rng, graph, rng.randrange(0, 40)).codes)
        v = normal_codes(graph, p + rand_nf(rng, graph, rng.randrange(0, 40)).codes)
        m = meet_codes(graph.block, u, v)
        assert normal_codes(graph, m) == m
        ru = normal_codes(graph, inv_codes(m) + u)
        rv = normal_codes(graph, inv_codes(m) + v)
        assert len(ru) == len(u) - len(m) and len(rv) == len(v) - len(m)
        assert not first_code_set(graph.block, ru) & first_code_set(graph.block, rv)


def test_strip_suffix_in_is_coset_gate():
    from raagtk.words import strip_suffix_in, vertex_mask

    for graph, w in _long_words(47, 60):
        for iv in range(len(graph)):
            for mask in (graph.link_mask(iv), graph.full & ~(1 << iv)):
                gate = strip_suffix_in(graph, w, mask)
                assert normal_codes(graph, gate) == gate
                assert not vertex_mask(normal_codes(graph, inv_codes(gate) + w)) & ~mask
                lasts = first_code_set(graph.block, inv_codes(gate))
                assert not vertex_mask(lasts) & mask


def test_cyclic_reduce_codes_long():
    from raagtk.words import cyclic_reduce_codes

    for graph, g in _long_words(53, 80):
        x, core = cyclic_reduce_codes(graph, g)
        assert normal_codes(graph, x) == x
        assert len(g) == 2 * len(x) + len(core)
        assert len(normal_codes(graph, core + core)) == 2 * len(core)
        assert normal_codes(graph, x + core + inv_codes(x)) == g


def test_conjugate_codes_matches_normal_codes():
    from raagtk.words import conjugate_codes

    rng = random.Random(59)
    for graph, w in _long_words(59, 60):
        x = rand_nf(rng, graph, rng.randrange(0, 80)).codes
        assert conjugate_codes(graph, x, w) == normal_codes(graph, inv_codes(x) + w + x)
        assert conjugate_codes(graph, inv_codes(x), w) == normal_codes(graph, x + w + inv_codes(x))
        # an empty conjugator hands the canonical word back as it is
        assert conjugate_codes(graph, (), w) is w


def test_common_conjugator_recomposes_generators():
    from raagtk.subgroups import _common_conjugator

    graphs = _kernel_graphs()
    rng = random.Random(59)
    for _ in range(300):
        graph = rng.choice(graphs)
        x = rand_nf(rng, graph, rng.randrange(0, 12)).codes
        ks = [rand_nf(rng, graph, rng.randrange(1, 8)).codes for _ in range(rng.randrange(1, 4))]
        gens = [normal_codes(graph, x + k + inv_codes(x)) for k in ks if k]
        if not gens:
            continue
        x2, stripped = _common_conjugator(graph, gens)
        assert len(stripped) == len(gens)
        for g, k in zip(gens, stripped):
            assert normal_codes(graph, x2 + k + inv_codes(x2)) == g
            assert len(g) == 2 * len(x2) + len(k)


# -- kernels pinned to their earlier definitions ----------------------------------

def peel_meet_codes(block, u, v):
    """The earlier meet: peel the least common first letter of u and v until
    there is none; that letter is the least first letter of the meet."""
    u, v = list(u), list(v)
    out = []
    while True:
        firsts = {}
        blocked = 0
        for i, c in enumerate(u):
            if not (blocked >> (c >> 1)) & 1:
                firsts.setdefault(c, i)
            blocked |= block[c >> 1]
        best = bj = -1
        blocked = 0
        for j, c in enumerate(v):
            if not (blocked >> (c >> 1)) & 1 and c in firsts and (best < 0 or c < best):
                best, bj = c, j
            blocked |= block[c >> 1]
        if best < 0:
            return tuple(out)
        out.append(best)
        del u[firsts[best]]
        del v[bj]


def walk_median_codes(graph, x, y, z):
    """The earlier median: x times the meet of the reduced words x^-1 y and
    x^-1 z."""
    from raagtk.words import reduce_codes

    xi = inv_codes(x)
    m = peel_meet_codes(graph.block, reduce_codes(graph.adj, xi + tuple(y)),
                        reduce_codes(graph.adj, xi + tuple(z)))
    return normal_codes(graph, tuple(x) + m)


def enumerated_ball_codes(graph, radius, cap):
    """The earlier ball: normalize every one-letter extension, drop repeats
    and sort each level."""
    from raagtk.errors import BallCapExceededError

    seen = {()}
    levels = [[()]]
    for r in range(radius):
        nxt = set()
        for w in levels[r]:
            for c in range(2 * len(graph)):
                nf = normal_codes(graph, w + (c,))
                if len(nf) == r + 1 and nf not in seen:
                    nxt.add(nf)
        if len(seen) + len(nxt) > cap:
            raise BallCapExceededError("ball of radius %d exceeds cap %d" % (radius, cap))
        seen.update(nxt)
        levels.append(sorted(nxt))
    return [w for lv in levels for w in lv]


def test_median_matches_walk_on_ball_triples():
    from raagtk.selftest import CATALOG, catalog_graph
    from raagtk.words import median_codes

    rng = random.Random(61)
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        pts = ball_codes(graph, 3)
        for _ in range(2000):
            x, y, z = (rng.choice(pts) for _ in range(3))
            assert median_codes(graph, x, y, z) == walk_median_codes(graph, x, y, z)


def test_median_matches_walk_on_long_triples():
    from raagtk.graph import DefGraph
    from raagtk.words import median_codes

    rng = random.Random(67)
    graphs = [DefGraph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")]),
              DefGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                                       ("e", "a")])]
    for _ in range(4):
        verts = ["v%d" % i for i in range(8)]
        graphs.append(DefGraph(verts, rng.sample(
            [(verts[i], verts[j]) for i in range(8) for j in range(i + 1, 8)], 9)))
    for t in range(300):
        graph = rng.choice(graphs)

        def word(lo, hi):
            return rand_nf(rng, graph, rng.randrange(lo, hi)).codes

        if t % 3 == 0:
            x, y, z = word(30, 241), word(30, 241), word(30, 241)
        else:
            # shared prefixes, so that all three meets are long
            p, q = word(0, 120), word(0, 60)
            x = normal_codes(graph, p + word(15, 121))
            y = normal_codes(graph, p + q + word(15, 121))
            z = normal_codes(graph, (p + q if t % 2 else p) + word(15, 121))
        assert median_codes(graph, x, y, z) == walk_median_codes(graph, x, y, z)


def test_ball_matches_enumeration():
    from raagtk.errors import BallCapExceededError
    from raagtk.selftest import CATALOG, catalog_graph

    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        for radius in range(5):
            expected = enumerated_ball_codes(graph, radius, 200_000)
            assert ball_codes(graph, radius) == expected
            if radius:
                cap = len(expected) - 1
                with pytest.raises(BallCapExceededError) as new:
                    ball_codes(graph, radius, cap)
                with pytest.raises(BallCapExceededError) as old:
                    enumerated_ball_codes(graph, radius, cap)
                assert str(new.value) == str(old.value)


def test_meet_codes_matches_peel_meet():
    from raagtk.words import meet_codes

    rng = random.Random(43)
    for graph, w in _long_words(43, 120):
        p = w[: rng.randrange(len(w))]
        u = normal_codes(graph, p + rand_nf(rng, graph, rng.randrange(0, 40)).codes)
        v = normal_codes(graph, p + rand_nf(rng, graph, rng.randrange(0, 40)).codes)
        for a, b in ((u, v), (v, u), (w, inv_codes(w)), (u, inv_codes(u))):
            assert meet_codes(graph.block, a, b) == peel_meet_codes(graph.block, a, b)


def test_normal_codes_continues_from_canonical_prefix():
    # normal_codes(graph, h, g) == normal_codes(graph, g + h) for
    # canonical g; h ends with letters that cancel into g, shuffled with
    # random ones
    from raagtk.selftest import CATALOG, catalog_graph

    rng = random.Random(53)
    cancelled = 0
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        for _ in range(150):
            g = rand_nf(rng, graph, rng.randrange(0, 25)).codes
            h = [rng.randrange(2 * len(graph)) for _ in range(rng.randrange(0, 8))]
            h += inv_codes(g[len(g) - rng.randrange(len(g) + 1):])
            if rng.random() < 0.5:
                rng.shuffle(h)
            out = normal_codes(graph, h, g)
            assert out == normal_codes(graph, g + tuple(h))
            cancelled += len(out) < len(g)
    assert cancelled > 500


def _insertion_reference(graph, codes, prefix=()):
    """The insertion loop of normal_codes before the per-code table and the
    last-letter test, kept verbatim as a reference."""
    block = graph.block
    out = list(prefix)
    for c in codes:
        bm = block[c >> 1]
        k = len(out) - 1
        while k >= 0 and not (bm >> (out[k] >> 1)) & 1:
            k -= 1
        if k >= 0 and out[k] == c ^ 1:
            del out[k]
            continue
        k += 1
        while k < len(out) and out[k] < c:
            k += 1
        out.insert(k, c)
    return tuple(out)


def _insertion_graphs():
    """The catalog graphs, the 5-cycle, K5 and the edgeless graph on 5
    vertices."""
    from raagtk.graph import DefGraph

    five = ["a", "b", "c", "d", "e"]
    pairs = [(u, v) for i, u in enumerate(five) for v in five[i + 1:]]
    return [catalog_graph(gi) for gi in range(len(CATALOG))] + [
        DefGraph(five, [(five[i], five[(i + 1) % 5]) for i in range(5)]),
        DefGraph(five, pairs),
        DefGraph(five),
    ]


def test_normal_codes_matches_reference_insertion_and_oracle():
    # raw words with and without a canonical prefix; half of them end in the
    # shuffled inverse of a suffix, so letters cancel deep in the stack
    rng = random.Random(71)
    graphs = _insertion_graphs()
    cancelling = 0
    for t in range(21_000):
        graph = graphs[t % len(graphs)]
        ncodes = 2 * len(graph)
        codes = [rng.randrange(ncodes) for _ in range(rng.randrange(0, 17))]
        if t % 2:
            tail = inv_codes(codes[len(codes) - rng.randrange(len(codes) + 1):])
            codes += rng.sample(tail, len(tail))
        prefix = rand_nf(rng, graph, rng.randrange(0, 13)).codes if t % 3 else ()
        out = normal_codes(graph, codes, prefix)
        assert out == _insertion_reference(graph, codes, prefix)
        assert len(out) == len(O.oracle_reduce(graph.adj, prefix + tuple(codes)))
        cancelling += len(out) <= len(prefix) + len(codes) - 4
    assert cancelling > 5000


def test_normal_codes_edge_cases(path3, z2):
    # path3 is a - b - c: b commutes with a and c, a and c do not commute
    a, A, b, B, c, C = range(6)
    g = normal_codes(path3, (c, a, b))
    assert g == (b, c, a)
    # empty codes, empty prefix, both
    assert normal_codes(path3, ()) == ()
    assert normal_codes(path3, (), g) == g
    assert normal_codes(path3, (c, a, b), ()) == g
    # the last letter cancels
    assert normal_codes(path3, (A,), g) == (b, c)
    # B passes a and c and cancels b at the bottom of the stack
    assert normal_codes(path3, (B,), g) == (c, a)
    assert normal_codes(path3, (c, a, b, a, A, B, A, C)) == ()
    # inserted at position 0
    assert normal_codes(path3, (b,), (c,)) == (b, c)
    assert normal_codes(z2, (A, A), (b, b)) == (A, A, b, b)
    # appended after the last letter, which it cannot pass
    assert normal_codes(path3, (c,), (a,)) == (a, c)
    assert normal_codes(path3, (C,), g) == (b, c, a, C)
    # B goes in after a, before c
    assert normal_codes(path3, (B, a, c, A, C)) == (a, B, c, A, C)


def _chain_closure(graph, codes, i):
    """Positions of `codes` that depend on position i, by a search over the
    definition: the positions reached from i by steps p -> q, p < q, whose
    letters do not commute."""
    adj = graph.adj
    reached, todo = {i}, [i]
    while todo:
        p = todo.pop()
        vp = codes[p] >> 1
        for q in range(p + 1, len(codes)):
            vq = codes[q] >> 1
            if q not in reached and (vp == vq or not (adj[vp] >> vq) & 1):
                reached.add(q)
                todo.append(q)
    return reached


def test_realize_pair_span_matches_chain_closure():
    from raagtk.errors import TransverseHyperplanesError
    from raagtk.graph import DefGraph
    from raagtk.selftest import CATALOG, catalog_graph
    from raagtk.words import realize_pair_span

    rng = random.Random(59)
    verts = ["a", "b", "c", "d", "e"]
    graphs = [catalog_graph(gi) for gi in range(len(CATALOG))]
    graphs += [DefGraph(verts, [(u, w) for k, u in enumerate(verts) for w in verts[k + 1:]
                                if rng.random() < 0.5]) for _ in range(12)]
    cases = transverse = 0
    for graph in graphs:
        for _ in range(120):
            codes = rand_nf(rng, graph, rng.randrange(1, 16)).codes
            if not codes:
                continue
            for _ in range(4):
                i, j = sorted(rng.randrange(len(codes)) for _ in range(2))
                after_i = _chain_closure(graph, codes, i)
                cases += 1
                if j not in after_i:
                    transverse += 1
                    with pytest.raises(TransverseHyperplanesError):
                        realize_pair_span(graph, codes, i, j)
                    continue
                before_j = {k for k in after_i if j in _chain_closure(graph, codes, k)}
                b, a = realize_pair_span(graph, codes, i, j)
                assert b == tuple(c for k, c in enumerate(codes) if k not in after_i)
                assert a == tuple(codes[k] for k in sorted(before_j))
                rest = tuple(codes[k] for k in sorted(after_i - before_j))
                assert normal_codes(graph, b + a + rest) == codes
    assert cases >= 10_000 and transverse >= 1000
