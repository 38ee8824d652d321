import json
import random

import pytest

from raagtk import words as W
from raagtk.cli import main
from raagtk.dls import (
    FOLD,
    MIXED,
    CERTIFY_WORK,
    PARTIAL_CONJUGATION,
    TWIST,
    apply,
    apply_images,
    build_partial_conjugation,
    build_transvection,
    certificate_work,
    compose,
    inverse,
    letter_images,
    outer_order_certificate,
    verify_automorphism,
)
from raagtk.cmp import cmp_defect
from raagtk.errors import (
    InvalidSplittingError,
    MemoryLimitError,
    NotInCentralizerError,
    OutOfRangeError,
    PreconditionError,
)
from raagtk.graph import DefGraph
from raagtk.oracles import oracle_equal_words
from raagtk.selftest import CATALOG, catalog_graph, random_dls
from raagtk.words import identity, multiply, normalize

from conftest import rand_nf


def test_free_transvection_is_fold():
    free = DefGraph(["a", "c"])
    phi = build_transvection(free, "a", normalize(free, "c"))
    assert phi.kind == FOLD
    assert str(phi.image("a")) == "c a"


def test_path_twist(path3):
    phi = build_transvection(path3, "a", normalize(path3, "b"))
    assert phi.kind == TWIST
    assert phi.image("a") == normalize(path3, "b a")
    # twists fix every generator of the edge group
    for u in path3.link("a"):
        assert apply(phi, normalize(path3, u)) == normalize(path3, u)


def test_path_far_end_is_fold(path3):
    # on a-b-c the far generator commutes with the whole link of a, so it is
    # an admissible twist element whose core avoids the link: a fold
    phi = build_transvection(path3, "a", normalize(path3, "c"))
    assert phi.kind == FOLD
    assert verify_automorphism(phi)


def test_middle_vertex_rejects_noncommuting():
    mid = DefGraph(["a", "b", "c"], [("b", "a"), ("a", "c")])
    with pytest.raises(NotInCentralizerError):
        build_transvection(mid, "a", normalize(mid, "c"))


def test_mixed_transvection():
    # star with centre a: z = b * (a-free part)...  on P3+1 the vertex d is
    # isolated, lk d = {} so everything is admissible; z touching both the
    # centre part and beyond gives mixed on a suitable graph
    star = DefGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    # v = b: lk b = {a}; admissible support = st(a) - b = {a, c, d}
    z = normalize(star, "a c")
    phi = build_transvection(star, "b", z)
    assert phi.kind == MIXED
    assert verify_automorphism(phi)


def test_partial_conjugation_build(path3):
    phi = build_partial_conjugation(path3, ["a", "b"], ["b", "c"], ["b"],
                                    normalize(path3, "a"))
    assert phi.kind == PARTIAL_CONJUGATION
    assert str(phi.image("c")) == "a c a^-1"
    assert str(phi.image("a")) == "a" and str(phi.image("b")) == "b"
    assert verify_automorphism(phi)


def test_partial_conjugation_identity_z(path3):
    phi = build_partial_conjugation(path3, ["a", "b"], ["b", "c"], ["b"],
                                    identity(path3))
    assert all(
        apply(phi, normalize(path3, v)) == normalize(path3, v)
        for v in path3.vertices
    )


def test_partial_conjugation_degenerate_side(path3):
    with pytest.raises(InvalidSplittingError):
        build_partial_conjugation(path3, ["a", "b"], ["a", "b", "c"],
                                  ["a", "b"], identity(path3))


def test_partial_conjugation_crossing_edge(path3):
    with pytest.raises(InvalidSplittingError):
        build_partial_conjugation(path3, ["a"], ["b", "c"], [], identity(path3))


def test_apply_compose_inverse(z2):
    phi = build_transvection(z2, "b", normalize(z2, "a"))
    assert apply(phi, identity(z2)) == identity(z2)
    assert str(apply(phi, normalize(z2, "a a"))) == "a a"
    comp = compose(phi, inverse(phi))
    for v in z2.vertices:
        assert comp[v] == normalize(z2, v)


def test_apply_twist_substitution(z2):
    phi = build_transvection(z2, "a", normalize(z2, "b"))
    assert apply(phi, normalize(z2, "a a")) == normalize(z2, "b a b a")


@pytest.mark.parametrize("gi", range(len(CATALOG)), ids=[c[0] for c in CATALOG])
def test_apply_images_substitutes_each_letter(gi):
    # raw maps, the first generator sent to 1: the image read from the
    # letter table is the word with each letter replaced by its image, an
    # inverse letter by the inverse image
    graph = catalog_graph(gi)
    rng = random.Random(4400 + gi)
    inverse_letters = 0
    for _ in range(6):
        images = {v: rand_nf(rng, graph, rng.randrange(0, 5)) for v in graph.vertices}
        images[graph.vertices[0]] = identity(graph)
        for _ in range(8):
            g = rand_nf(rng, graph, rng.randrange(0, 9))
            spelled = []
            for c in g.codes:
                img = images[graph.vertices[c >> 1]].codes
                spelled += img if c & 1 else [d ^ 1 for d in reversed(img)]
                inverse_letters += not c & 1
            got = apply_images(graph, images, g).codes
            assert oracle_equal_words(graph.adj, len(graph), got, spelled), (images, g)
    assert inverse_letters


def test_verify_bad_map(free2):
    images = {"a": normalize(free2, "b"), "b": normalize(free2, "b")}
    fake_inverse = {"a": normalize(free2, "a"), "b": normalize(free2, "b")}
    assert not verify_automorphism(images, fake_inverse, graph=free2)


def test_raw_maps_without_an_image_raise_precondition_errors(z2):
    # a missing vertex and an image that is no NormalForm, among them an
    # unreduced Word with the same fields, for every entry point that reads
    # a raw map's images
    a, b = normalize(z2, "a"), normalize(z2, "b")
    word = W.Word(z2, b.codes * 2 + (b.codes[0] ^ 1,))
    for images in ({"a": a}, {"a": a, "b": "b"}, {"a": a, "b": None}, {"a": a, "b": word}):
        calls = (lambda: letter_images(z2, images), lambda: apply_images(z2, images, a),
                 lambda: cmp_defect((z2, images), 2),
                 lambda: verify_automorphism(images, graph=z2),
                 lambda: verify_automorphism({"a": a, "b": b}, images, graph=z2),
                 lambda: verify_automorphism(build_transvection(z2, "b", a), images))
        for call in calls:
            with pytest.raises(PreconditionError, match="vertex b "):
                call()
    assert verify_automorphism({"a": a, "b": b}, {"a": a, "b": b}, graph=z2)


def test_verify_fuzz_and_homomorphism():
    rng = random.Random(71)
    from raagtk.selftest import CATALOG, catalog_graph

    built = 0
    while built < 60:
        graph = catalog_graph(rng.randrange(1, len(CATALOG)))
        phi = random_dls(rng, graph)
        if phi is None:
            continue
        built += 1
        assert verify_automorphism(phi)
        for _ in range(5):
            g = rand_nf(rng, graph, rng.randrange(0, 5))
            h = rand_nf(rng, graph, rng.randrange(0, 5))
            assert apply(phi, multiply(g, h)) == multiply(
                apply(phi, g), apply(phi, h)
            )


def test_trichotomy_exclusive():
    rng = random.Random(73)
    from raagtk.selftest import CATALOG, catalog_graph

    built = 0
    while built < 60:
        graph = catalog_graph(rng.randrange(1, len(CATALOG)))
        phi = random_dls(rng, graph)
        if phi is None or phi.kind == PARTIAL_CONJUGATION:
            continue
        built += 1
        z = phi.twist_element
        assert z
        graphv = phi.splitting.vertex
        lk = graph.link_mask(graph.index(graphv))
        centre = lk & graph.perp_closed(graph.link(graphv)).mask
        from raagtk.elements import gamma
        from raagtk.words import vertex_mask

        is_twist = not (vertex_mask(z.codes) & ~centre)
        is_fold = not (gamma(z).mask & lk)
        assert phi.kind == (TWIST if is_twist else FOLD if is_fold else MIXED)
        assert not (is_twist and is_fold)


def _core_kind(graph, v, z):
    """The kind rule build_transvection used before twist_split: a twist when
    z lies in the centre of lk v, a fold when the cyclic core of z avoids
    lk v, mixed otherwise."""
    from raagtk.words import cyclic_reduce_codes, vertex_mask

    lk_mask = graph.link_mask(graph.index(v))
    centre_mask = lk_mask & graph.perp_closed(graph.link(v)).mask
    _, zcore = cyclic_reduce_codes(graph, z.codes)
    if not (vertex_mask(z.codes) & ~centre_mask):
        return TWIST
    if not (vertex_mask(zcore) & lk_mask):
        return FOLD
    return MIXED


@pytest.mark.parametrize("gi", range(len(CATALOG)), ids=[c[0] for c in CATALOG])
def test_kind_from_twist_split_matches_core_rule(gi):
    from raagtk.dls import transvection_centralizer_mask, twist_split
    from raagtk.selftest import _random_word_in

    graph = catalog_graph(gi)
    rng = random.Random(300 + gi)
    for v in graph.vertices:
        allowed = transvection_centralizer_mask(graph, v)
        for _ in range(25):
            z = _random_word_in(rng, graph, allowed, 7) or identity(graph)
            phi = build_transvection(graph, v, z)
            assert phi.kind == _core_kind(graph, v, z), (v, str(z))
            z_c, z_f = twist_split(graph, v, z)
            assert multiply(z_c, z_f) == z == multiply(z_f, z_c)
            assert len(z_c) + len(z_f) == len(z)


def test_outer_order_identity_has_no_certificate(z2):
    phi = build_transvection(z2, "b", identity(z2))
    rep = outer_order_certificate(phi, [normalize(z2, "b")], 6)
    assert rep.certificate == ""
    assert rep.outer_powers["b"] == []


def test_outer_order_twist(z2):
    phi = build_transvection(z2, "b", normalize(z2, "a"))
    rep = outer_order_certificate(phi, [normalize(z2, "b")], 8)
    assert rep.certificate == "NOT_INNER_UP_TO(8)"
    assert rep.traces["b"] == list(range(1, 10))


def test_outer_order_fold():
    free = DefGraph(["a", "c"])
    phi = build_transvection(free, "a", normalize(free, "c"))
    rep = outer_order_certificate(phi, [normalize(free, "a")], 8)
    assert rep.certificate == "NOT_INNER_UP_TO(8)"
    assert rep.traces["a"] == list(range(1, 10))


# the first 20 maps that random_dls draws for seed 2024 (graphs drawn as in
# criterion 10), copied from the output of the code before its component
# loop became graph.components
RANDOM_DLS_2024 = [
    ("diamond", "mixed_transvection[z=b d; c->b d c]"),
    ("2K2", "twist[z=a^-1; b->a^-1 b]"),
    ("paw", "twist[z=c^-1; b->b c^-1]"),
    ("E4", "fold[z=c^-1 a b; d->c^-1 a b d]"),
    ("e1", "twist[z=a; b->a b]"),
    ("K4", "twist[z=b^-1; d->b^-1 d]"),
    ("e1", "fold[z=a a b^-1; d->a a b^-1 d]"),
    ("diamond", "mixed_transvection[z=b d d; c->b d d c]"),
    ("K3", "twist[z=b^-1; a->a b^-1]"),
    ("K3", "twist[z=b c^-1; a->a b c^-1]"),
    ("E4", "partial_conjugation[z=d^-1; b->d^-1 b d]"),
    ("P3+1", "twist[z=b^-1 b^-1; a->a b^-1 b^-1]"),
    ("K4", "twist[z=d^-1; b->b d^-1]"),
    ("K3", "twist[z=b^-1; a->a b^-1]"),
    ("K3", "twist[z=a; b->a b]"),
    ("K2", "twist[z=a; b->a b]"),
    ("K3+1", "twist[z=c^-1; a->a c^-1]"),
    ("E2", "partial_conjugation[z=b; a->b a b^-1]"),
    ("P4", "partial_conjugation[z=c^-1; a->c^-1 a c]"),
    ("star", "twist[z=a^-1; b->a^-1 b]"),
]


def test_random_dls_draws_pinned():
    rng = random.Random(2024)
    got = []
    while len(got) < len(RANDOM_DLS_2024):
        gi = rng.randrange(1, len(CATALOG))
        phi = random_dls(rng, catalog_graph(gi))
        if phi is not None:
            got.append((CATALOG[gi][0], phi.describe()))
    assert got == RANDOM_DLS_2024


@pytest.mark.parametrize("call, error", [
    (lambda z2: cmp_defect(build_transvection(z2, "b", normalize(z2, "a")), 0),
     OutOfRangeError),
    (lambda z2: outer_order_certificate(
        build_transvection(z2, "b", normalize(z2, "a")), [], 4), PreconditionError),
    (lambda z2: outer_order_certificate(
        build_transvection(z2, "b", normalize(z2, "a")), [normalize(z2, "a")], 0),
     OutOfRangeError),
    (lambda z2: outer_order_certificate(
        build_transvection(z2, "b", normalize(z2, "a")), [normalize(z2, "a")], -1),
     OutOfRangeError),
    (lambda z2: outer_order_certificate(
        build_transvection(z2, "b", normalize(z2, "a")), [normalize(z2, "a")], 10 ** 8),
     OutOfRangeError),
    (lambda z2: verify_automorphism({"a": normalize(z2, "a"), "b": normalize(z2, "b")}),
     PreconditionError),
], ids=["cmp_defect_radius_0", "certificate_without_probes",
        "certificate_max_power_0", "certificate_max_power_-1", "certificate_max_power_1e8",
        "raw_map_without_graph"])
def test_domain_errors_are_raag_errors(z2, call, error):
    with pytest.raises(error):
        call(z2)


def test_certificate_work_bounds_the_letters_handled():
    # sum of 1 + |phi^n(p)| over n <= N, against certificate_work's bound
    rng = random.Random(7007)
    for gi in range(1, len(CATALOG)):
        graph = catalog_graph(gi)
        phi = random_dls(rng, graph)
        if phi is None:
            continue
        probes = [rand_nf(rng, graph, rng.randrange(0, 4)) for _ in range(2)]
        handled = 0
        for p in probes:
            for _ in range(7):
                handled += 1 + len(p)
                p = apply(phi, p)
        assert handled <= certificate_work(phi, probes, 6) <= CERTIFY_WORK


def test_apply_refuses_images_past_physical_memory(monkeypatch, tmp_path, capsys):
    # a -> c^20 a sends a^1000 to (c^20 a)^1000: 1000 letters times images of
    # at most 21 letters, counted before the image is built
    free = DefGraph(["a", "c"])
    fold = build_transvection(free, "a", normalize(free, "c^20"))
    word = normalize(free, "a^1000")
    monkeypatch.setattr(W, "_physical_memory", lambda: 21_000 * W.LETTER_BYTES)
    assert len(apply(fold, word)) == 21_000
    monkeypatch.setattr(W, "_physical_memory", lambda: 21_000 * W.LETTER_BYTES - 1)
    with pytest.raises(MemoryLimitError, match=r"^an image of 21000 letters needs "):
        apply(fold, word)
    graph = tmp_path / "free2.graph"
    graph.write_text("vertices: a c\n")
    code = main(["dls", "apply", "--graph", str(graph), "--dls", "fold v=a z=c^20",
                 "--word", "a^1000", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == "memory_limit"
    monkeypatch.setattr(W, "_physical_memory", lambda: 0)     # unknown: no check
    assert len(apply(fold, word)) == 21_000


def test_apply_counts_the_letters_of_each_image(monkeypatch, tmp_path, capsys):
    # a -> c^1000 a fixes c, so c^100000 is its own image: the count is the
    # sum of the letters' image lengths, not |g| times the longest image
    free = DefGraph(["a", "c"])
    limit = 100_000 * W.LETTER_BYTES + 1
    monkeypatch.setattr(W, "_physical_memory", lambda: limit)
    fold = build_transvection(free, "a", normalize(free, "c^1000"))
    word = normalize(free, "c^100000")
    assert apply(fold, word) == word
    # the inverse check applies it to c^-10000 a, 20001 letters
    assert verify_automorphism(build_transvection(free, "a", normalize(free, "c^10000")))
    graph = tmp_path / "free2.graph"
    graph.write_text("vertices: a c\n")
    code = main(["dls", "apply", "--graph", str(graph), "--dls", "fold v=a z=c^1000",
                 "--word", "c^100000", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["length"] == 100_000
