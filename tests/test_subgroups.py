import random

import pytest

from raagtk import subgroups as S
from raagtk.errors import OutOfRangeError, RadiusTooSmallError
from raagtk.subgroups import (
    intersect,
    member,
    parabolic,
    semi_parabolic,
    validate,
)
from raagtk.words import (
    _nf,
    ball_codes,
    identity,
    invert,
    multiply,
    normalize,
)

from conftest import rand_nf


def generated_subgroup_ball(graph, generators, length_cap, size_cap=200_000):
    """All elements expressible with reduced length <= length_cap as products
    of the generators and their inverses (closure by right multiplication)."""
    gens = []
    for g in generators:
        gens.append(g)
        gens.append(g.inv())
    seen = {identity(graph)}
    frontier = [identity(graph)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                t = multiply(w, s)
                if len(t.codes) <= length_cap and t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    if len(seen) > size_cap:
                        raise MemoryError("generated ball too large")
        frontier = nxt
    return seen


def subgroup_equal_on_ball(sf1, sf2, radius):
    graph = sf1.graph
    for codes in ball_codes(graph, radius):
        h = _nf(graph, codes)
        if member(sf1, h) != member(sf2, h):
            return False
    return True


def test_validate_parabolic(path3):
    assert validate(parabolic(path3, ["a"])).ok


def test_validate_semi_parabolic_plane(z2):
    sf = semi_parabolic(z2, [normalize(z2, "a")], ["b"])
    assert validate(sf).ok


def test_validate_proper_power_rejected(z2):
    sf = semi_parabolic(z2, [normalize(z2, "a a")], [])
    rep = validate(sf)
    assert not rep.ok and "proper_power" in rep.failures[0]


def test_validate_not_cyclically_reduced(free2):
    sf = semi_parabolic(free2, [normalize(free2, "a b a^-1")], [])
    rep = validate(sf)
    assert not rep.ok and "not_cyclically_reduced" in rep.failures[0]


def test_validate_support_orthogonality(path3):
    # root must commute with the support
    sf = semi_parabolic(path3, [normalize(path3, "a")], ["c"])
    rep = validate(sf)
    assert not rep.ok


def test_member_powers_and_support(path3):
    sf = semi_parabolic(path3, [normalize(path3, "b")], ["a", "c"])
    assert validate(sf).ok
    assert member(sf, normalize(path3, "b b"))
    assert member(sf, normalize(path3, "a c a^-1 b"))
    g = normalize(path3, "a b")  # support exceeds the form only via the root
    assert member(sf, g)


def test_member_support_obstruction(z2):
    sf = semi_parabolic(z2, [normalize(z2, "a")], [])
    assert not member(sf, normalize(z2, "b"))


def test_member_agrees_with_generator_closure():
    rng = random.Random(47)
    from raagtk.selftest import catalog_graph

    done = 0
    while done < 12:
        graph = catalog_graph(rng.choice([2, 5, 6, 12]))
        # build a random valid semi-parabolic form: one root + orthogonal support
        g = rand_nf(rng, graph, rng.randrange(1, 4))
        if not g:
            continue
        from raagtk.elements import primitive_root
        from raagtk.words import cyclic_reduce

        _, core = cyclic_reduce(g)
        if not core:
            continue
        root, _ = primitive_root(core)
        from raagtk.elements import gamma

        supp = graph.perp(gamma(root))
        sf = semi_parabolic(graph, [root], supp)
        if not validate(sf).ok:
            continue
        done += 1
        gens = [root] + [normalize(graph, v) for v in supp]
        closure = generated_subgroup_ball(graph, gens, 6)
        for codes in ball_codes(graph, 3):
            h = _nf(graph, codes)
            got = member(sf, h)
            if h in closure:
                assert got
            elif got:
                # members outside the closure must only be gen-products
                # longer than the closure bound; verify by support/power shape
                hc = multiply(multiply(invert(sf.conjugator), h), sf.conjugator)
                assert len(hc) > 0


def test_member_of_centralizer_form_matches_membership_centralizer():
    from raagtk.elements import centralizer, membership_centralizer
    from raagtk.selftest import CATALOG, catalog_graph

    rng = random.Random(53)
    for gi in range(1, len(CATALOG)):
        graph = catalog_graph(gi)
        ball = [_nf(graph, codes) for codes in ball_codes(graph, 3)]
        for _ in range(3):
            g = rand_nf(rng, graph, rng.randrange(1, 6))
            if not g:
                continue
            x = rand_nf(rng, graph, 2)
            cf = centralizer(multiply(multiply(x, g), invert(x)))
            sf = semi_parabolic(graph, cf.cyclic_roots, cf.parabolic_support,
                                cf.conjugator)
            assert validate(sf).ok
            for h in ball:
                assert membership_centralizer(cf, h) == member(sf, h), (gi, cf, h)


def test_intersect_idempotent(path3):
    sf = parabolic(path3, ["a", "b"])
    r = intersect(sf, sf, 4)
    assert subgroup_equal_on_ball(r, sf, 3)


def test_intersect_cyclics_trivial(z2):
    za = semi_parabolic(z2, [normalize(z2, "a")], [])
    zb = semi_parabolic(z2, [normalize(z2, "b")], [])
    r = intersect(za, zb, 4)
    for codes in ball_codes(z2, 3):
        assert member(r, _nf(z2, codes)) == (not codes)


@pytest.mark.parametrize("radius", [0, -2])
def test_intersect_radius_below_one_is_out_of_range(z2, radius):
    # a ball of radius 0 holds only the identity, so nothing would be checked
    sf = parabolic(z2, ["a"])
    with pytest.raises(OutOfRangeError):
        intersect(sf, sf, radius)


def test_intersect_visual_parabolics(path3):
    r = intersect(parabolic(path3, ["a", "b"]), parabolic(path3, ["b", "c"]), 4)
    assert subgroup_equal_on_ball(r, parabolic(path3, ["b"]), 3)


def test_intersect_validates_each_form_once(z2, path3, monkeypatch):
    # sf1, sf2 and the rebuilt form, whatever the ball size; the reports are
    # those of the implementation that validated per ball element
    calls = []
    monkeypatch.setattr(S, "validate", lambda sf: calls.append(sf) or validate(sf))
    cases = [
        (parabolic(path3, ["a", "b"]), parabolic(path3, ["b", "c"]),
         "semi_parabolic conj=1 roots=[b] support={}"),
        (semi_parabolic(z2, [normalize(z2, "a")], []), semi_parabolic(z2, [normalize(z2, "b")], []),
         "parabolic conj=1 roots=[] support={}"),
        (parabolic(path3, ["a", "c"], normalize(path3, "b")), parabolic(path3, ["a", "b"]),
         "semi_parabolic conj=1 roots=[a] support={}"),
        (semi_parabolic(path3, [normalize(path3, "a c")], ["b"]),
         parabolic(path3, ["a", "b", "c"], normalize(path3, "a")),
         "semi_parabolic conj=1 roots=[b, a c] support={}"),
    ]
    for sf1, sf2, want in cases:
        calls.clear()
        result = intersect(sf1, sf2, 4)
        assert result.describe() == want
        assert calls == [sf1, sf2, result]


def test_intersect_commutative_and_validated():
    rng = random.Random(53)
    from raagtk.selftest import catalog_graph

    done = 0
    while done < 10:
        graph = catalog_graph(rng.choice([2, 5, 6, 12, 14]))
        names = list(graph.vertices)
        rng.shuffle(names)
        s1 = parabolic(graph, names[: rng.randrange(1, len(names) + 1)])
        rng.shuffle(names)
        s2 = parabolic(graph, names[: rng.randrange(1, len(names) + 1)])
        try:
            r12 = intersect(s1, s2, 4)
            r21 = intersect(s2, s1, 4)
        except RadiusTooSmallError:
            continue
        done += 1
        assert validate(r12).ok and validate(r21).ok
        assert subgroup_equal_on_ball(r12, r21, 3)
        for codes in ball_codes(graph, 3):
            h = _nf(graph, codes)
            assert member(r12, h) == (member(s1, h) and member(s2, h))


def test_chain_length_bound():
    # strictly ascending chains of valid semi-parabolic forms are short
    rng = random.Random(59)
    from raagtk.selftest import CATALOG, catalog_graph

    for _ in range(40):
        graph = catalog_graph(rng.randrange(1, len(CATALOG)))
        bound = 2 * len(graph)  # vertices + abelian rank bound
        chain = []
        support = []
        # grow a parabolic chain by adding vertices one at a time
        for v in graph.vertices:
            support.append(v)
            chain.append(parabolic(graph, list(support)))
        assert len(chain) <= bound
        for k in range(len(chain) - 1):
            sub = chain[k]
            sup = chain[k + 1]
            for codes in ball_codes(graph, 2):
                h = _nf(graph, codes)
                if member(sub, h):
                    assert member(sup, h)
