import random

import numpy as np
import pytest

from raagtk.cmp import (
    CMP_BY_THM,
    NOT_CMP_SUSPECTED,
    UNDECIDED,
    _distance_table,
    cmp_certify,
    cmp_defect,
)
from raagtk.dls import apply, apply_images, build_partial_conjugation, build_transvection
from raagtk.graph import DefGraph
from raagtk.selftest import CATALOG, catalog_graph, random_dls
from raagtk.words import (
    ball_codes,
    dist,
    identity,
    inv_codes,
    median,
    multiply,
    normal_codes,
    normalize,
    reduce_codes,
)

from conftest import rand_nf


def _identity_auto(graph):
    return build_transvection(graph, graph.vertices[0], identity(graph))


def test_defect_identity_zero(z2, path3):
    for graph in (z2, path3):
        for r in (1, 2, 3):
            assert cmp_defect(_identity_auto(graph), r).defect == 0


def test_defect_plane_twist_grows(z2):
    tw = build_transvection(z2, "b", normalize(z2, "a"))
    vals = [cmp_defect(tw, r).defect for r in (1, 2, 3)]
    assert vals == [1, 2, 3]


def test_defect_witness_is_valid_triple(z2):
    tw = build_transvection(z2, "b", normalize(z2, "a"))
    rep = cmp_defect(tw, 3)
    x, y, p = rep.witness
    assert p == median(x, y, p)
    assert max(len(x), len(y), len(p)) <= 3
    fx, fy, fp = apply(tw, x), apply(tw, y), apply(tw, p)
    assert dist(fp, median(fp, fx, fy)) == rep.defect


def test_defect_monotone_in_radius():
    rng = random.Random(79)
    done = 0
    while done < 6:
        graph = catalog_graph(rng.choice([2, 5, 6]))
        phi = random_dls(rng, graph)
        if phi is None:
            continue
        done += 1
        vals = [cmp_defect(phi, r).defect for r in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]


def test_defect_inner_bounded(z2, path3):
    # conjugation by k moves medians at most 2|k|
    for graph in (z2, path3):
        rng = random.Random(83)
        for _ in range(4):
            k = rand_nf(rng, graph, rng.randrange(1, 4))
            images = {
                v: multiply(multiply(k, normalize(graph, v)), k.inv())
                for v in graph.vertices
            }
            for r in (2, 3, 4):
                rep = cmp_defect((graph, images), r)
                assert rep.defect <= 2 * len(k)


def test_fold_defect_plateau():
    free = DefGraph(["a", "c"])
    fold = build_transvection(free, "a", normalize(free, "c"))
    vals = [cmp_defect(fold, r).defect for r in (1, 2, 3, 4)]
    assert len(set(vals)) == 1


def test_certify_fold_and_pconj(path3):
    free = DefGraph(["a", "c"])
    fold = build_transvection(free, "a", normalize(free, "c"))
    assert cmp_certify(fold).verdict == CMP_BY_THM
    pc = build_partial_conjugation(path3, ["a", "b"], ["b", "c"], ["b"],
                                   normalize(path3, "a"))
    assert cmp_certify(pc).verdict == CMP_BY_THM


def test_certify_plane_twist_suspected(z2):
    tw = build_transvection(z2, "b", normalize(z2, "a"))
    rep = cmp_certify(tw, probe_radii=(2, 3, 4))
    assert rep.verdict == NOT_CMP_SUSPECTED
    assert [d for _, d in rep.defects] == [2, 3, 4]


def test_certify_path_twist_probes(path3):
    # twist at an end vertex of the path: rule hypotheses fail on visual
    # data, so the verdict comes from defect probing and is never upgraded
    tw = build_transvection(path3, "a", normalize(path3, "b"))
    rep = cmp_certify(tw, probe_radii=(2, 3))
    assert rep.verdict in (NOT_CMP_SUSPECTED, UNDECIDED)
    assert any("rule(2)" in line for line in rep.trace)


def test_certified_maps_have_plateauing_defect(path3):
    # for automorphisms certified by the splitting rule, the measured defect
    # stays within its radius-2 value plus the vertex count
    free = DefGraph(["a", "c"])
    fold = build_transvection(free, "a", normalize(free, "c"))
    pc = build_partial_conjugation(path3, ["a", "b"], ["b", "c"], ["b"],
                                   normalize(path3, "a"))
    for phi, graph in ((fold, free), (pc, path3)):
        assert cmp_certify(phi).verdict == CMP_BY_THM
        base = cmp_defect(phi, 2).defect
        for r in (1, 2, 3, 4):
            assert cmp_defect(phi, r).defect <= base + len(graph)


def _power(letter, k):
    return " ".join([letter] * k)


def test_defect_image_distances_above_255():
    # images of a -> c^64 a reach 130 letters, so image distances pass 255
    free = DefGraph(["a", "c"])
    fold = build_transvection(free, "a", normalize(free, _power("c", 64)))
    rep = cmp_defect(fold, 2)
    assert rep.ball_size == 17
    x, y, p = rep.witness
    assert p == median(x, y, p)
    fx, fy, fp = apply(fold, x), apply(fold, y), apply(fold, p)
    assert dist(fp, median(fp, fx, fy)) == rep.defect


def _assert_table_matches_reduction(graph, words):
    table = _distance_table(graph, words)
    # the scan adds two entries of a table
    assert 2 * int(table.max(initial=0)) <= np.iinfo(table.dtype).max
    for i, u in enumerate(words):
        ui = inv_codes(u)
        for j, v in enumerate(words):
            assert table[i, j] == len(reduce_codes(graph.adj, ui + v)), (u, v)


def _reduced_word(rng, graph, length):
    """A random canonical word of exactly `length` letters."""
    w = ()
    while len(w) < length:
        longer = normal_codes(graph, w + (rng.randrange(2 * len(graph)),))
        if len(longer) > len(w):
            w = longer
    return w


@pytest.mark.parametrize("gi", range(len(CATALOG)), ids=[c[0] for c in CATALOG])
def test_distance_table_matches_reduction(gi):
    graph = catalog_graph(gi)
    rng = random.Random(gi)
    # a prefix-closed ball
    _assert_table_matches_reduction(graph, ball_codes(graph, 2))
    # long words and their images: not prefix-closed
    words = [_reduced_word(rng, graph, rng.randrange(21, 40)) for _ in range(12)]
    phi = random_dls(rng, graph)    # None if no splitting automorphism was drawn
    if phi is not None:
        words += [apply_images(graph, phi.generator_images, w).codes for w in words]
    _assert_table_matches_reduction(graph, words)


def _defect_maps():
    free = DefGraph(["a", "c"])
    path = DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    plane = DefGraph(["a", "b"], [("a", "b")])
    return {
        "fold": build_transvection(free, "a", normalize(free, "c")),
        "pconj": build_partial_conjugation(path, ["a", "b"], ["b", "c"], ["b"],
                                           normalize(path, "a")),
        "twist": build_transvection(plane, "b", normalize(plane, "a")),
    }


# defect, ball size and least witness (x, y, p) of the seed implementation
SEED_DEFECTS = {
    ("fold", 1): (1, 5, ("a", "c", "1")),
    ("fold", 2): (1, 17, ("1", "a^-1 c", "a^-1")),
    ("fold", 3): (1, 53, ("1", "a^-1 c", "a^-1")),
    ("fold", 4): (1, 161, ("1", "a^-1 c", "a^-1")),
    ("fold", 5): (1, 485, ("1", "a^-1 c", "a^-1")),
    ("pconj", 1): (1, 7, ("a", "c^-1", "1")),
    ("pconj", 2): (1, 29, ("1", "a^-1 c^-1", "a^-1")),
    ("pconj", 3): (1, 99, ("1", "a^-1 c^-1", "a^-1")),
    ("pconj", 4): (1, 313, ("1", "a^-1 c^-1", "a^-1")),
    ("twist", 4): (4, 41, (_power("a^-1", 4), _power("b^-1", 4), "1")),
    ("twist", 8): (8, 145, (_power("a^-1", 8), _power("b^-1", 8), "1")),
    ("twist", 12): (12, 313, (_power("a^-1", 12), _power("b^-1", 12), "1")),
}


@pytest.mark.parametrize("kind,radius", sorted(SEED_DEFECTS),
                         ids=["%s-R%d" % k for k in sorted(SEED_DEFECTS)])
def test_defect_pinned_to_seed(kind, radius):
    defect, ball_size, witness = SEED_DEFECTS[kind, radius]
    rep = cmp_defect(_defect_maps()[kind], radius)
    assert (rep.defect, rep.ball_size) == (defect, ball_size)
    assert tuple(str(w) for w in rep.witness) == witness
