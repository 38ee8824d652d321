import math
import random

import pytest
from hypothesis import given, settings

from raagtk.elements import (
    CentralizerForm,
    LIDecomposition,
    centralizer,
    commutes,
    gamma,
    is_label_irreducible,
    li_components,
    membership_centralizer,
    primitive_root,
)
from raagtk.errors import IdentityElementError
from raagtk.graph import DefGraph
from raagtk.words import (
    _nf,
    ball_codes,
    conjugate_back_codes,
    cyclic_reduce,
    cyclic_reduce_codes,
    identity,
    inv_codes,
    invert,
    multiply,
    normal_codes,
    normalize,
    vertex_mask,
)

from conftest import first_code_set, graph_and_word, rand_nf


# -- gamma ---------------------------------------------------------------------

def test_gamma_conjugate(path3):
    assert gamma(normalize(path3, "c a c^-1")) == {"a"}


def test_gamma_plane(z2):
    assert gamma(normalize(z2, "a b")) == {"a", "b"}


@settings(max_examples=80, deadline=None)
@given(graph_and_word(min_len=1, max_len=6))
def test_gamma_invariant_under_conjugation_and_powers(gw):
    graph, codes = gw
    g = _nf(graph, normal_codes(graph, codes))
    rng = random.Random(len(codes))
    h = rand_nf(rng, graph, 3)
    conj = multiply(multiply(h, g), invert(h))
    assert gamma(conj) == gamma(g)
    for n in (2, 3):
        assert gamma(g ** n) == gamma(g) or not g


# -- label-irreducible decomposition ---------------------------------------------

def test_li_plane(z2):
    dec = li_components(normalize(z2, "a b"))
    assert [str(c) for c in dec.components] == ["a", "b"]


def test_li_path_single(path3):
    dec = li_components(normalize(path3, "a c"))
    assert [str(c) for c in dec.components] == ["a c"]


def test_li_identity_rejected(z2):
    with pytest.raises(IdentityElementError):
        li_components(identity(z2))


def test_li_product_and_structure_fuzz():
    rng = random.Random(11)
    from raagtk.selftest import CATALOG, catalog_graph

    count = 0
    while count < 500:
        graph = catalog_graph(rng.randrange(1, len(CATALOG)))
        g = rand_nf(rng, graph, rng.randrange(1, 8))
        if not g:
            continue
        count += 1
        dec = li_components(g)
        prod = identity(graph)
        for c in dec.components:
            prod = multiply(prod, c)
        assert prod == g
        for i, ci in enumerate(dec.components):
            assert is_label_irreducible(ci)
            for j in range(i + 1, len(dec.components)):
                cj = dec.components[j]
                assert commutes(ci, cj)
                # supports pairwise orthogonal
                assert all(
                    graph.has_edge(u, w)
                    for u in dec.supports[i]
                    for w in dec.supports[j]
                )
                # no shared powers up to exponent 4
                for m in range(1, 5):
                    for n in range(1, 5):
                        assert ci ** m != cj ** n
                        assert ci ** m != cj ** (-n)


def test_join_factor_restrictions_are_canonical():
    # the core read on one join factor's letters is already canonical, and
    # each component is its conjugate by x
    from raagtk.selftest import CATALOG, catalog_graph
    from raagtk.words import cyclic_reduce_codes, vertex_mask

    rng = random.Random(17)
    graphs = [catalog_graph(gi) for gi in range(1, len(CATALOG))]
    graphs.append(DefGraph(["a", "b", "c", "d", "e"],
                           [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e"),
                            ("a", "e")]))
    seen_split = 0
    for t in range(400):
        graph = rng.choice(graphs)
        g = rand_nf(rng, graph, rng.choice((5, 30, 120)))
        if t % 2:
            x = rand_nf(rng, graph, rng.randrange(1, 20))
            g = x * g * x.inv()
        if not g:
            continue
        xc, core = cyclic_reduce_codes(graph, g.codes)
        factors = graph.join_decomposition(graph.vset_mask(vertex_mask(core)))
        seen_split += len(factors) > 1
        dec = li_components(g)
        for fac, comp in zip(factors, dec.components):
            sub = tuple(c for c in core if fac.mask >> (c >> 1) & 1)
            assert normal_codes(graph, sub) == sub
            assert comp.codes == normal_codes(graph, xc + sub + inv_codes(xc))
    assert seen_split > 50


def test_empty_conjugator_membership_reads_h_as_it_is(monkeypatch, path4):
    from raagtk import elements as E
    from raagtk import subgroups as S
    from raagtk import words as W

    g = normalize(path4, "b c")              # cyclically reduced: x = 1
    cf = centralizer(g)
    assert not cf.conjugator
    sf = S.parabolic(path4, ["a", "b"])
    hs = [normalize(path4, w) for w in ("b c b c", "b^2 c^-3", "a b^-1 a", "c d")]
    inputs = []
    real = W.normal_codes

    def recorder(graph, codes, prefix=()):
        inputs.append(tuple(codes))
        return real(graph, codes, prefix)

    for mod in (W, E, S):
        monkeypatch.setattr(mod, "normal_codes", recorder)
    for h in hs:
        inputs.clear()
        membership_centralizer(cf, h)
        # root powers are normalized, h and its components are not
        assert h.codes not in inputs
        inputs.clear()
        S.member(sf, h)
        assert inputs == []


def test_commutes_iff_componentwise():
    rng = random.Random(13)
    from raagtk.selftest import CATALOG, catalog_graph

    for _ in range(200):
        graph = catalog_graph(rng.randrange(1, len(CATALOG)))
        g = rand_nf(rng, graph, rng.randrange(1, 6))
        h = rand_nf(rng, graph, rng.randrange(1, 6))
        if not g or not h:
            continue
        expect = all(
            commutes(ci, cj)
            for ci in li_components(g).components
            for cj in li_components(h).components
        )
        assert commutes(g, h) == expect


# -- primitive roots ----------------------------------------------------------------

def test_root_square(z2):
    root, n = primitive_root(normalize(z2, "a a"))
    assert str(root) == "a" and n == 2


def test_root_abab(z2):
    root, n = primitive_root(normalize(z2, "a b a b"))
    assert root == normalize(z2, "a b") and n == 2


def test_root_free_not_power(free2):
    root, n = primitive_root(normalize(free2, "a b"))
    assert n == 1 and root == normalize(free2, "a b")


def test_root_conjugated_power(path3):
    g = normalize(path3, "c a a c^-1")
    root, n = primitive_root(g)
    assert n == 2 and root == normalize(path3, "c a c^-1")


def test_root_against_bounded_search():
    # when the root extractor says "not a proper power", no ball element of
    # length <= |g|/2 has a power equal to g
    rng = random.Random(17)
    from raagtk.selftest import catalog_graph

    checked = 0
    while checked < 40:
        graph = catalog_graph(rng.randrange(1, 7))
        g = rand_nf(rng, graph, rng.randrange(1, 7))
        if not g:
            continue
        root, n = primitive_root(g)
        assert root ** n == g
        checked += 1
        if n == 1:
            for codes in ball_codes(graph, len(g) // 2):
                h = _nf(graph, codes)
                if not h:
                    continue
                for k in range(2, len(g) + 1):
                    if len(h) * k > len(g):
                        break
                    assert h ** k != g
        else:
            _, m = primitive_root(root)
            assert m == 1


def _enumerated_root(g):
    """Reference for primitive_root: every trace prefix of the core of
    length |core|/n, tried in turn, for n from the gcd of the per-vertex
    letter counts down to 2."""
    graph = g.graph
    block = graph.block
    xc, core = cyclic_reduce(g)
    core = core.codes
    m = len(core)
    counts = {}
    for c in core:
        counts[c >> 1] = counts.get(c >> 1, 0) + 1
    gcd = 0
    for k in counts.values():
        while k:
            gcd, k = k, gcd % k
    core_nf = _nf(graph, core)
    for n in range(gcd, 1, -1):
        if m % n or any(k % n for k in counts.values()):
            continue
        frontier = {(): core}
        for _ in range(m // n):
            nxt = {}
            for q, rem in frontier.items():
                for c in first_code_set(block, rem):
                    q2 = normal_codes(graph, q + (c,))
                    if q2 not in nxt:
                        blocked = 0
                        for i, d in enumerate(rem):
                            if d == c and not (blocked >> (d >> 1)) & 1:
                                nxt[q2] = rem[:i] + rem[i + 1:]
                                break
                            blocked |= block[d >> 1]
            frontier = nxt
        for pref in frontier:
            cand = _nf(graph, pref)
            if cand ** n == core_nf:
                return _nf(graph, normal_codes(graph, xc.codes + pref + inv_codes(xc.codes))), n
    return g, 1


def _seeded_graph(rng, size):
    verts = ["v%d" % i for i in range(size)]
    edges = [(verts[i], verts[j]) for i in range(size) for j in range(i + 1, size)
             if rng.random() < 0.5]
    return DefGraph(verts, edges)


def test_root_matches_prefix_enumeration():
    from raagtk.selftest import CATALOG, catalog_graph

    rng = random.Random(29)
    graphs = [catalog_graph(gi) for gi in range(len(CATALOG))]
    graphs += [_seeded_graph(rng, 5) for _ in range(3)]
    graphs += [_seeded_graph(rng, 8) for _ in range(3)]
    for graph in graphs:
        done = 0
        while done < 30:
            b = rand_nf(rng, graph, rng.randrange(1, 5))
            if not b:
                continue
            done += 1
            x = rand_nf(rng, graph, rng.randrange(0, 4))
            g = multiply(multiply(x, b ** rng.choice((1, 2, 3, 4, 6))), invert(x))
            assert primitive_root(g) == _enumerated_root(g)


def test_root_of_long_power_in_complete_graph():
    k8 = DefGraph("abcdefgh", [(u, v) for u in "abcdefgh" for v in "abcdefgh" if u < v])
    root, n = primitive_root(normalize(k8, "a b c d e f g h") ** 4)
    assert root == normalize(k8, "a b c d e f g h") and n == 4


# -- commutation ----------------------------------------------------------------------

def test_commutes_basics(z2, path3):
    g = normalize(path3, "a b")
    assert commutes(g, g ** 2)
    assert commutes(normalize(z2, "a"), normalize(z2, "b"))
    assert not commutes(normalize(path3, "a"), normalize(path3, "c"))


# -- centralizers -----------------------------------------------------------------------

def test_centralizer_path_middle(path3):
    cf = centralizer(normalize(path3, "b"))
    assert [str(r) for r in cf.cyclic_roots] == ["b"]
    assert cf.parabolic_support == {"a", "c"}
    assert membership_centralizer(cf, normalize(path3, "a c a^-1"))


def test_centralizer_plane(z2):
    cf = centralizer(normalize(z2, "a"))
    assert [str(r) for r in cf.cyclic_roots] == ["a"]
    assert cf.parabolic_support == {"b"}
    # everything commutes in the plane
    for w in ("a", "b", "a b", "b^-1 a"):
        assert membership_centralizer(cf, normalize(z2, w))


def test_centralizer_free_product_element(free2):
    cf = centralizer(normalize(free2, "a b"))
    assert [str(r) for r in cf.cyclic_roots] == ["a b"]
    assert cf.parabolic_support == set()
    ball = [_nf(free2, w) for w in ball_codes(free2, 4)]
    g = normalize(free2, "a b")
    for h in ball:
        assert membership_centralizer(cf, h) == commutes(g, h)


def test_centralizer_identity_rejected(z2):
    with pytest.raises(IdentityElementError):
        centralizer(identity(z2))


def test_centralizer_membership_matches_commutation_radius4(path3):
    g = normalize(path3, "b")
    cf = centralizer(g)
    for codes in ball_codes(path3, 4):
        h = _nf(path3, codes)
        assert membership_centralizer(cf, h) == commutes(g, h)


# -- one cyclic reduction per query ---------------------------------------------

def test_centralizer_reduces_the_core_once(monkeypatch):
    # the core's parts are cyclically reduced, so neither the components nor
    # their roots are reduced again
    from raagtk import elements as E
    from raagtk.selftest import catalog_graph

    calls = []
    reduce = E.cyclic_reduce_codes
    monkeypatch.setattr(E, "cyclic_reduce_codes",
                        lambda graph, codes: calls.append(codes) or reduce(graph, codes))
    p4, e4 = catalog_graph(11), catalog_graph(7)
    for graph, text in ((p4, "a c a^-1"), (p4, "d a c a c d^-1"),
                        (p4, "b a b a d c d c b^-1 a^-1"), (e4, "a b a b"), (e4, "c")):
        calls.clear()
        cf = centralizer(normalize(graph, text))
        assert len(calls) == 1, text
        assert cf.cyclic_roots


def _reference_li_components(g):
    """li_components as it stood with three reductions per centralizer."""
    graph = g.graph
    xc, core = cyclic_reduce_codes(graph, g.codes)
    factors = graph.join_decomposition(graph.vset_mask(vertex_mask(core)))
    comps = []
    for fac in factors:
        sub = tuple(c for c in core if fac.mask >> (c >> 1) & 1)
        comps.append(_nf(graph, conjugate_back_codes(graph, xc, sub)))
    return LIDecomposition(tuple(comps), tuple(factors), _nf(graph, xc))


def _reference_is_label_irreducible(g):
    if not g:
        return False
    graph = g.graph
    _, core = cyclic_reduce_codes(graph, g.codes)
    return len(graph.join_decomposition(graph.vset_mask(vertex_mask(core)))) == 1


def _reference_primitive_root(g):
    graph = g.graph
    xc, core = cyclic_reduce_codes(graph, g.codes)
    counts = {}
    for c in core:
        counts[c >> 1] = counts.get(c >> 1, 0) + 1
    core_nf = _nf(graph, core)
    gcd = math.gcd(*counts.values())
    for n in range(gcd, 1, -1):
        if gcd % n:
            continue
        left = {v: k // n for v, k in counts.items()}
        pref = []
        for c in core:
            if left[c >> 1]:
                left[c >> 1] -= 1
                pref.append(c)
        cand = _nf(graph, normal_codes(graph, pref))
        if cand ** n == core_nf:
            root = _nf(graph, conjugate_back_codes(graph, xc, cand.codes))
            return root, n
    return g, 1


def _reference_centralizer(g):
    graph = g.graph
    xc, core = cyclic_reduce_codes(graph, g.codes)
    core_nf = _nf(graph, core)
    dec = _reference_li_components(core_nf)
    roots = []
    for comp in dec.components:
        r, _ = _reference_primitive_root(comp)
        roots.append(r)
    support = graph.perp(graph.vset_mask(vertex_mask(core)))
    return CentralizerForm(_nf(graph, xc), tuple(roots), support)


def test_element_queries_match_the_reference_copies():
    from raagtk.selftest import CATALOG, catalog_graph

    rng = random.Random(2027)
    graphs = [catalog_graph(gi) for gi in range(len(CATALOG))]
    graphs.append(DefGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                                     ("e", "a")]))
    done = powers = 0
    while done < 20_000:
        graph = graphs[done % len(graphs)]
        if done % 3:
            b = rand_nf(rng, graph, rng.randrange(1, 7))
            x = rand_nf(rng, graph, rng.randrange(0, 5))
            k = rng.choice((1, 2, 3, 4, 6))
            g = x * b ** k * x.inv()
            powers += k > 1
        else:
            g = rand_nf(rng, graph, rng.randrange(1, 24))
        if not g:
            continue
        done += 1
        assert centralizer(g) == _reference_centralizer(g)
        assert li_components(g) == _reference_li_components(g)
        assert primitive_root(g) == _reference_primitive_root(g)
        assert is_label_irreducible(g) == _reference_is_label_irreducible(g)
    assert powers > 5000
