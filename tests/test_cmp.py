import contextlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from raagtk import cmp as C
from raagtk import words as W
from raagtk.cli import main
from raagtk.cmp import (
    CMP_BY_THM,
    NOT_CMP_BY_FAMILY,
    _distance_table,
    _prefix_trie,
    _scan,
    _scan_dtype,
    cmp_certify,
    cmp_defect,
)
from raagtk.errors import MemoryLimitError, RaagError
from raagtk.dls import (
    FOLD,
    MIXED,
    PARTIAL_CONJUGATION,
    TWIST,
    apply,
    apply_images,
    build_partial_conjugation,
    build_transvection,
    letter_images,
    twist_split,
)
from raagtk.graph import DefGraph
from raagtk.oracles import oracle_reduce
from raagtk.selftest import CATALOG, catalog_graph, random_dls, rooted_defect
from raagtk.words import (
    _nf,
    ball_codes,
    dist,
    hyperplane_at,
    identity,
    inv_codes,
    median,
    multiply,
    normal_codes,
    normalize,
    reduce_codes,
    strip_suffix_in,
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


_PLANE = DefGraph(["a", "b"], [("a", "b")])
_PATH = DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
_STAR = DefGraph(["a", "b", "c"], [("a", "b"), ("a", "c")])     # centre a

# (graph, v, z, the family's (vertex, z_c)); every verdict is NOT_CMP_by_family
FAMILY_CASES = {
    "plane_twist": (_PLANE, "b", "a", ("b", "a")),
    "path_twist_ba": (_PATH, "a", "b", ("a", "b")),
    "path_twist_b2a": (_PATH, "a", "b b", ("a", "b b")),
    "star_mixed": (_STAR, "b", "a c", ("b", "a")),
    "K4_twist": (catalog_graph(17), "d", "a b^-1 c", ("d", "a b^-1 c")),
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_certify_twist_part_is_exact_not_cmp(case):
    graph, v, z, (vertex, z_c) = FAMILY_CASES[case]
    phi = build_transvection(graph, v, normalize(graph, z))
    rep = cmp_certify(phi)
    assert rep.verdict == NOT_CMP_BY_FAMILY
    assert (rep.family.vertex, str(rep.family.z_c)) == (vertex, z_c)
    assert rep.as_dict()["family"] == {
        "vertex": vertex, "z_c": z_c, "z_c_length": len(rep.family.z_c)}
    # the bound is a lower bound on the measured defect, and it grows
    bounds = [rep.family.bound(r) for r in (1, 2, 3, 4)]
    assert bounds[-1] > bounds[0]
    for r, b in zip((1, 2, 3, 4), bounds):
        assert cmp_defect(phi, r).defect >= b


def test_certify_identity_twist_has_no_family(path3):
    rep = cmp_certify(build_transvection(path3, "b", identity(path3)))
    assert (rep.verdict, rep.family) == (CMP_BY_THM, None)
    assert rep.as_dict()["family"] is None


def test_certify_audit_failure_is_raag_error(monkeypatch):
    graph, v, z, _ = FAMILY_CASES["star_mixed"]
    phi = build_transvection(graph, v, normalize(graph, z))
    monkeypatch.setattr(C, "dist", lambda g, h: -1)
    with pytest.raises(RaagError, match="family audit failed"):
        cmp_certify(phi)


def test_certify_family_bounds_defect_on_random_transvections():
    # every CATALOG graph has at most 4 vertices
    rng = random.Random(2207)
    families = 0
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        drawn = 0
        for _ in range(200):
            phi = random_dls(rng, graph)
            if phi is None:
                break
            if phi.kind == PARTIAL_CONJUGATION:
                continue
            drawn += 1
            z_c, _ = twist_split(graph, phi.splitting.vertex, phi.twist_element)
            rep = cmp_certify(phi)
            assert (rep.family is None) == (phi.kind == FOLD)
            assert (C.defect_ceiling(phi) is None) == (phi.kind != FOLD)
            assert (rep.verdict == CMP_BY_THM) == (not z_c)
            if z_c:
                families += 1
                assert rep.family.z_c == z_c
                for r in (1, 2, 3):
                    assert cmp_defect(phi, r).defect >= len(z_c) * (r // len(z_c))
            if drawn == 4:
                break
    assert families >= 20


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
    table = _distance_table(_prefix_trie(graph, words))
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
        "path_twist": build_transvection(path, "a", normalize(path, "b")),
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
    # computed before the scan skipped rows by its bound
    ("twist", 16): (16, 545, (_power("a^-1", 16), _power("b^-1", 16), "1")),
    ("twist", 24): (24, 1201, (_power("a^-1", 24), _power("b^-1", 24), "1")),
    ("path_twist", 5): (5, 959, (_power("a^-1", 5), _power("b^-1", 5), "1")),
    ("path_twist", 6): (6, 2901, (_power("a^-1", 6), _power("b^-1", 6), "1")),
}


# cmp defect --json documents computed before the scan skipped rows by its bound
SEED_DOCUMENTS = [
    ("vertices: a b\nedge: a b\n", "twist v=b z=a", 12,
     '{"ball_size": 313, "defect": 12, "radius": 12, "schema": 1, "witness": '
     '{"p": "1", "x": "%s", "y": "%s"}}\n' % (_power("a^-1", 12), _power("b^-1", 12))),
    ("vertices: a b c\nedge: a b\nedge: b c\n", "twist v=a z=b", 5,
     '{"ball_size": 959, "defect": 5, "radius": 5, "schema": 1, "witness": '
     '{"p": "1", "x": "%s", "y": "%s"}}\n' % (_power("a^-1", 5), _power("b^-1", 5))),
]


@pytest.mark.parametrize("graph,dls,radius,doc", SEED_DOCUMENTS,
                         ids=["plane-twist-R12", "path-twist-R5"])
def test_defect_json_pinned_to_seed(graph, dls, radius, doc, tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(graph)
    assert main(["cmp", "defect", "--graph", str(path), "--dls", dls,
                 "--radius", str(radius), "--json"]) == 0
    assert capsys.readouterr().out == doc


@pytest.mark.parametrize("kind,radius", sorted(SEED_DEFECTS),
                         ids=["%s-R%d" % k for k in sorted(SEED_DEFECTS)])
def test_defect_pinned_to_seed(kind, radius):
    defect, ball_size, witness = SEED_DEFECTS[kind, radius]
    rep = cmp_defect(_defect_maps()[kind], radius)
    assert (rep.defect, rep.ball_size) == (defect, ball_size)
    assert tuple(str(w) for w in rep.witness) == witness


def _reference_scan(d0, dd):
    """The defect scan as a plain triple loop over lists: the least (i, j, k),
    j >= i, with k between i and j that maximises the image Gromov sum."""
    n = len(d0)
    best, at = -1, None
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if d0[i][k] + d0[k][j] == d0[i][j]:
                    v = dd[i][k] + dd[k][j] - dd[i][j]
                    if v > best:
                        best, at = v, (i, j, k)
    return best, at


def _block_budgets(monkeypatch, n):
    """Set each block budget in turn and yield its rows per block: the
    default, one row, a row count that does not divide n, and the whole
    triangle in one block."""
    uneven = next(r for r in range(2, n) if n % r)
    for budget, rows in ((C._SCAN_BLOCK, C._block_rows(n)), (1, 1),
                         (uneven * n * n, uneven), (n ** 3, n)):
        monkeypatch.setattr(C, "_SCAN_BLOCK", budget)
        assert C._block_rows(n) == rows
        yield rows


@pytest.mark.parametrize("gi", range(len(CATALOG)), ids=[c[0] for c in CATALOG])
def test_scan_matches_reference(gi, monkeypatch):
    graph = catalog_graph(gi)
    rng = random.Random(1000 + gi)
    radius = 3 if len(ball_codes(graph, 3)) <= 100 else 2
    ball = ball_codes(graph, radius)
    n = len(ball)
    k = rand_nf(rng, graph, rng.randrange(1, 4))
    maps = [{v: multiply(multiply(k, normalize(graph, v)), k.inv()) for v in graph.vertices}]
    maps += [phi.generator_images for phi in (random_dls(rng, graph) for _ in range(2))
             if phi is not None]
    points = [_nf(graph, w) for w in ball]
    d0 = [[dist(x, y) for y in points] for x in points]
    for images in maps:
        image = [apply_images(graph, images, w) for w in ball]
        dd = [[dist(x, y) for y in image] for x in image]
        want = _reference_scan(d0, dd)
        W = _weighted_table(graph, ball, images)
        DD = _distance_table(_prefix_trie(graph, [w.codes for w in image]))
        for rows in _block_budgets(monkeypatch, n):
            assert _scan(W, DD) == want, rows


def _weighted_table(graph, ball, images_map):
    """The ball's distance table with each hyperplane weighted by the length
    of its label's image, at least 1: the ball's table of _scan."""
    trie = _prefix_trie(graph, ball)
    return _distance_table(trie, C._label_weights(ball, trie, letter_images(graph, images_map)))


def _random_maps(rng, graph, count):
    maps = [random_dls(rng, graph) for _ in range(count)]
    return [phi for phi in maps if phi is not None]


def test_scan_stops_at_the_ceiling(monkeypatch):
    # folds and partial conjugations: the full scan never passes 2|z|, and
    # the scan that stops there returns the same (value, witness)
    cases = attained = 0
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        rng = random.Random(6000 + gi)
        phis = [phi for phi in _random_maps(rng, graph, 12)
                if phi.kind in (FOLD, PARTIAL_CONJUGATION)][:3]
        for radius in (1, 2, 3):
            ball = ball_codes(graph, radius)
            if len(ball) > 100:
                break
            for phi in phis:
                letters = letter_images(graph, phi.generator_images)
                ball_trie, images = C._ball_trie(graph, ball, letters)
                DD = _distance_table(_prefix_trie(graph, images))
                W = _weighted_table(graph, ball, phi.generator_images)
                stop = 2 * len(phi.twist_element)
                assert C.defect_ceiling(phi) == len(phi.twist_element)
                full = _reference_scan(_distance_table(ball_trie).tolist(), DD.tolist())
                assert full[0] <= stop, (phi.describe(), radius)
                for rows in _block_budgets(monkeypatch, len(ball)):
                    assert _scan(W, DD, stop) == _scan(W, DD) == full, rows
                cases += 1
                attained += full[0] == stop
    assert (cases, attained) == (90, 64)


@pytest.mark.parametrize("gi", range(len(CATALOG)), ids=[c[0] for c in CATALOG])
def test_weighted_table_bounds_the_image_table(gi):
    # W[i, j] is the sum of max(1, |F(l)|) over the letters l of a reduced
    # word for ball[i]^-1 ball[j]; it is at least DD, and additive on a
    # triple exactly when the triple is between
    graph = catalog_graph(gi)
    rng = random.Random(7000 + gi)
    ball = ball_codes(graph, 3 if len(ball_codes(graph, 3)) <= 100 else 2)
    D0 = _distance_table(_prefix_trie(graph, ball)).astype(np.int64)
    between = D0[:, :, None] + D0[None] == D0[:, None, :]      # [i, k, j]
    maps = [phi.generator_images for phi in _random_maps(rng, graph, 4)]
    # a raw map that sends the first generator to 1
    maps.append({v: identity(graph) if v == graph.vertices[0] else normalize(graph, v)
                 for v in graph.vertices})
    for images in maps:
        size = [max(1, len(images[graph.vertices[c >> 1]])) for c in range(2 * len(graph))]
        W = _weighted_table(graph, ball, images)
        assert W.tolist() == [[sum(size[c] for c in oracle_reduce(graph.adj, inv_codes(u) + v))
                               for v in ball] for u in ball]
        _, image = C._ball_trie(graph, ball, letter_images(graph, images))
        DD = _distance_table(_prefix_trie(graph, image))
        assert (W >= DD).all()
        W = W.astype(np.int64)
        assert np.array_equal(W[:, :, None] + W[None] == W[:, None, :], between)


def test_bound_skips_rows_of_the_plane_twist(monkeypatch):
    # at R = 12 (n = 313, a row a block) column 0 reaches 2R, and no row
    # before the witness row a^-12 can, so the scan reads few rows
    rows, add = [], np.add

    def counting(*args, out=None):
        if out is not None and out.ndim == 3:
            rows.append(len(out))
        return add(*args, out=out)

    monkeypatch.setattr(np, "add", counting)
    rep = cmp_defect(_plane_twist(), 12)
    monkeypatch.undo()
    assert (rep.defect, rep.ball_size, C._block_rows(313)) == (12, 313, 1)
    assert rows[0] == 1 and sum(rows) < 0.05 * 313, rows


def test_ball_trie_grows_images_and_distances():
    kinds = set()
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        rng = random.Random(3000 + gi)
        ball = ball_codes(graph, 3 if len(graph) <= 2 else 2)
        phis = _random_maps(rng, graph, 8)
        kinds.update(phi.kind for phi in phis)
        maps = [{v: normalize(graph, v) for v in graph.vertices}]
        maps += [phi.generator_images for phi in phis]
        for images in maps:
            trie, grown = C._ball_trie(graph, ball, letter_images(graph, images))
            assert grown == [apply_images(graph, images, w).codes for w in ball]
            assert trie.ends.tolist() == list(range(len(ball)))
        table = _distance_table(trie)
        for i, u in enumerate(ball):
            ui = inv_codes(u)
            assert table[i].tolist() == [len(oracle_reduce(graph.adj, ui + v)) for v in ball]
    assert kinds == {FOLD, MIXED, PARTIAL_CONJUGATION, TWIST}


@pytest.mark.parametrize("gi", range(len(CATALOG)), ids=[c[0] for c in CATALOG])
def test_prefix_trie_of_a_ball_against_hyperplane_at(gi):
    # node i is ball[i], its parent is ball[i][:-1], and the hyperplane ids
    # partition the edges as the Hyperplanes of words.hyperplane_at, which
    # normalizes instead of reading the canonical prefix
    graph = catalog_graph(gi)
    ball = ball_codes(graph, 3)
    trie = _prefix_trie(graph, ball)
    index = {w: i for i, w in enumerate(ball)}
    assert trie.ends.tolist() == list(range(len(ball)))
    assert trie.depth.tolist() == [len(w) for w in ball]
    assert trie.parent.tolist()[1:] == [index[w[:-1]] for w in ball[1:]]
    ids = trie.column.tolist()[1:]
    keys = [hyperplane_at(graph, w[:-1], w[-1]) for w in ball[1:]]
    assert set(ids) == set(range(trie.hyperplanes))
    assert len(set(zip(ids, keys))) == len(set(keys)) == trie.hyperplanes


def test_stopping_value_decides_a_late_maximum(monkeypatch):
    # the fold a -> c^-1 b b a on F(a, b, c, d) at R = 2 (n = 65, 15 rows a
    # block) first reaches its ceiling 2|z| in row 32, so a scan that stops
    # one below the ceiling ends in an earlier block with a smaller defect
    free4 = DefGraph(["a", "b", "c", "d"])
    fold = build_transvection(free4, "a", normalize(free4, "c^-1 b b"))
    rep = cmp_defect(fold, 2)
    assert (rep.defect, rep.ball_size, C._block_rows(65)) == (3, 65, 15)
    assert tuple(str(w) for w in rep.witness) == ("b b", "c a", "c")
    assert ball_codes(free4, 2).index(rep.witness[0].codes) == 32
    monkeypatch.setattr(C, "defect_ceiling", lambda phi: len(phi.twist_element) - 1)
    assert cmp_defect(fold, 2).defect == 2


def test_fused_scan_in_int32(monkeypatch):
    # a -> c^80 a at R = 4: the fused scan values pass int16
    dtypes = []

    def scan(W, DD, stop=None):
        dtypes.append(_scan_dtype(int(W.max()), int(DD.max())))
        return _scan(W, DD, stop)

    monkeypatch.setattr(C, "_scan", scan)
    free = DefGraph(["a", "c"])
    rep = cmp_defect(build_transvection(free, "a", normalize(free, _power("c", 80))), 4)
    assert dtypes == [np.int32]
    # the seed implementation's report
    assert (rep.defect, rep.ball_size) == (80, 161)
    assert tuple(str(w) for w in rep.witness) == ("1", "a^-1 c^-1 a", "a^-1 c^-1")


def _path_trie(m):
    """The prefix trie of the words 1 and a^m in Z: one path of m nodes, each
    crossing its own hyperplane."""
    return C._PrefixTrie(parent=np.maximum(np.arange(-1, m), 0), column=np.arange(-1, m),
                         depth=np.arange(m + 1), ends=np.array([0, m]),
                         hyperplanes=m, gates=0)


def test_distance_table_dtype_follows_twice_the_largest_entry():
    graph = catalog_graph(0)    # Z
    ball = ball_codes(graph, 5)
    assert np.array_equal(_distance_table(_path_trie(5)),
                          _distance_table(_prefix_trie(graph, [ball[0], ball[-1]])))
    for m, dtype in ((16383, np.int16), (16384, np.int32)):
        table = _distance_table(_path_trie(m))
        assert table.dtype == dtype
        assert table.tolist() == [[0, m], [m, 0]]


def _reference_table(trie, weight=None):
    """_distance_table as it was before ancestor doubling, kept as the
    reference: H(w) walked up from every word one depth at a time, an
    incidence that holds the weights in the table's dtype, and the rows
    grown one level at a time with about a dozen numpy calls a level."""
    n = len(trie.ends)
    node, owner = trie.ends, np.arange(n)
    hits, owners = [], []
    while len(node):
        below = node != 0
        node, owner = node[below], owner[below]
        hits.append(trie.column[node])
        owners.append(owner)
        node = trie.parent[node]
    crossings = (np.concatenate(hits), np.concatenate(owners))
    lengths = trie.depth[trie.ends]
    longest = int(lengths.max(initial=0))
    top = longest if weight is None else longest * int(weight.max(initial=0))
    dtype = C._int_dtype(4 * top)
    crosses = np.zeros((trie.hyperplanes, n), dtype=np.bool_ if weight is None else dtype)
    crosses[crossings] = True if weight is None else weight[crossings[0]]
    shared = np.zeros((n, n), dtype=dtype)
    order = np.argsort(trie.depth, kind="stable")
    starts = np.searchsorted(trie.depth[order], np.arange(longest + 2))
    pos = np.zeros(len(trie.depth), dtype=np.intp)
    rows = np.zeros((1, n), dtype=dtype)
    for d in range(1, longest + 1):
        nodes = order[starts[d]:starts[d + 1]]
        pos[nodes] = np.arange(len(nodes))
        rows = rows[pos[trie.parent[nodes]]]
        rows += crosses[trie.column[nodes]]
        done = np.flatnonzero(lengths == d)
        shared[done] = rows[pos[trie.ends[done]]]
    sizes = shared.diagonal().copy()
    shared *= -2
    shared += sizes[:, None]
    shared += sizes
    return shared.astype(C._int_dtype(2 * int(shared.max(initial=0))), copy=False)


def _long_fold(k):
    free = DefGraph(["a", "c"])
    return build_transvection(free, "a", normalize(free, _power("c", k)))


def _trie_cases():
    """(name, trie, weight) for the tables of both regimes: every catalog
    ball at R <= 3, unweighted and weighted by a random map, with that
    map's image trie; the plane twist's ball and image tries at R = 4, 8
    and 12; and the image tries of the folds a -> c^k a at R = 3, k = 40,
    160 and 640, deep tries of more than two nodes a word."""
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        rng = random.Random(8000 + gi)
        # the first map drawn, or the identity where none is
        phis = _random_maps(rng, graph, 6) + [None]
        images_map = {v: normalize(graph, v) for v in graph.vertices} if phis[0] is None \
            else phis[0].generator_images
        letters = letter_images(graph, images_map)
        for radius in (1, 2, 3):
            ball = ball_codes(graph, radius)
            trie, images = C._ball_trie(graph, ball, letters)
            name = "%s R%d %s" % (CATALOG[gi][0], radius, phis[0] and phis[0].describe())
            yield name, trie, None
            yield name, trie, C._label_weights(ball, trie, letters)
            yield name + " image", _prefix_trie(graph, images), None
    twist = _plane_twist()
    letters = letter_images(twist.graph, twist.generator_images)
    for radius in (4, 8, 12):
        ball = ball_codes(twist.graph, radius)
        trie, images = C._ball_trie(twist.graph, ball, letters)
        yield "twist R%d" % radius, trie, C._label_weights(ball, trie, letters)
        yield "twist R%d image" % radius, _prefix_trie(twist.graph, images), None
    for k in (40, 160, 640):
        fold = _long_fold(k)
        ball = ball_codes(fold.graph, 3)
        _, images = C._ball_trie(fold.graph, ball, letter_images(fold.graph, fold.generator_images))
        yield "fold k=%d R3 image" % k, _prefix_trie(fold.graph, images), None


@pytest.mark.parametrize("doubling", [True, False], ids=["doubling", "levels"])
def test_both_regimes_match_the_level_loop(doubling, monkeypatch):
    # each regime, forced, gives the reference's table in value and dtype;
    # the real rule doubles every ball trie and the twist's image tries, and
    # walks the levels of the three folds' and four catalog maps' image tries
    real = C._doubles
    doubled = []
    monkeypatch.setattr(C, "_doubles", lambda nodes, words: doubling)
    for name, trie, weight in _trie_cases():
        doubled.append(real(len(trie.parent), len(trie.ends)))
        want, got = _reference_table(trie, weight), _distance_table(trie, weight)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (doubled.count(False), doubled.count(True)) == (7, 164)


def test_table_bytes_cover_what_the_tables_allocate(monkeypatch):
    # in each regime, _distance_table's peak stays within _table_bytes of its
    # trie, and within _check_memory's bounds for W and DD (_tables_bytes),
    # which know the image trie only by the images
    cases = ((_fold(), 1), (_plane_twist(), 8), (_defect_maps()["path_twist"], 3),
             (_defect_maps()["pconj"], 3), (_long_fold(160), 3))
    for doubling in (True, False):
        monkeypatch.setattr(C, "_doubles", lambda nodes, words: doubling)
        for phi, radius in cases:
            graph = phi.graph
            ball = ball_codes(graph, radius)
            letters = letter_images(graph, phi.generator_images)
            ball_trie, images = C._ball_trie(graph, ball, letters)
            image_trie = _prefix_trie(graph, images)
            weight = C._label_weights(ball, ball_trie, letters)
            bounds = C._tables_bytes(ball_trie, max(map(len, images)), sum(map(len, images)),
                                     max(1, *map(len, letters)))
            for trie, wt, bound in ((ball_trie, weight, bounds[0]), (image_trie, None, bounds[1])):
                longest = int(trie.depth.max())
                top = longest * (1 if wt is None else int(wt.max()))
                size = np.dtype(C._int_dtype(4 * top)).itemsize
                exact = C._table_bytes(len(ball), len(trie.parent), trie.hyperplanes, longest, size)
                tracemalloc.start()
                try:
                    table = _distance_table(trie, wt)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # besides its arrays, numpy's ufunc loops may buffer up to
                # getbufsize() elements of each of three operands
                slack = 3 * np.getbufsize() * 8
                assert peak <= exact + slack and exact <= bound, (phi.describe(), radius, doubling)
                assert table.nbytes <= exact


def _fold():
    free = DefGraph(["a", "c"])
    return build_transvection(free, "a", normalize(free, "c"))


def _plane_twist():
    plane = DefGraph(["a", "b"], [("a", "b")])
    return build_transvection(plane, "b", normalize(plane, "a"))


def _no_table(*args):
    raise AssertionError("a table was built")


@contextlib.contextmanager
def _table_path():
    """cmp_defect with row 0 skipped, so the scan of the tables answers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_row_zero", lambda *args: None)
        yield


def test_memory_check_before_tables(monkeypatch):
    monkeypatch.setattr(C, "_distance_table", _no_table)
    monkeypatch.setattr(W, "_physical_memory", lambda: 10 ** 6)
    # the plane twist has no ceiling, so it takes the tables: at R = 12 two
    # 313 x 313 tables, the scan buffers and the image trie pass 1 MB
    with pytest.raises(MemoryLimitError):
        cmp_defect(_plane_twist(), 12)
    monkeypatch.setattr(W, "_physical_memory", lambda: 0)     # unknown: no check
    with pytest.raises(AssertionError):
        cmp_defect(_plane_twist(), 12)


def test_row_zero_builds_no_table(monkeypatch):
    # the fold at R = 5 reaches its ceiling in row 0, so it is answered
    # under a limit that refuses its two 485 x 485 tables
    monkeypatch.setattr(C, "_distance_table", _no_table)
    monkeypatch.setattr(W, "_physical_memory", lambda: 10 ** 6)
    rep = cmp_defect(_fold(), 5)
    assert (rep.defect, rep.ball_size) == (1, 485)
    assert tuple(str(w) for w in rep.witness) == ("1", "a^-1 c", "a^-1")
    with _table_path(), pytest.raises(MemoryLimitError):
        cmp_defect(_fold(), 5)


def test_scan_bytes_cover_what_the_scan_allocates():
    plane = DefGraph(["a", "b"], [("a", "b")])
    free = DefGraph(["a", "c"])
    twist = build_transvection(plane, "b", normalize(plane, "a"))
    long_fold = build_transvection(free, "a", normalize(free, _power("c", 80)))
    # n = 5 to 485: blocks of 2621 rows down to one row, int16 and int32 scans
    for phi, radius in ((_fold(), 1), (twist, 4), (twist, 8), (_fold(), 5), (long_fold, 4)):
        graph = phi.graph
        ball = ball_codes(graph, radius)
        letters = letter_images(graph, phi.generator_images)
        ball_trie, images = C._ball_trie(graph, ball, letters)
        image_trie = _prefix_trie(graph, images)
        weight = C._label_weights(ball, ball_trie, letters)
        W, DD = _distance_table(ball_trie, weight), _distance_table(image_trie)
        n, topw, topd = len(ball), int(W.max()), int(DD.max())
        predicted = C._scan_bytes(n, topw, topd)
        # _check_memory counts the scan and W at the word-length bounds of
        # the entries, times the largest weight for W
        depth, heaviest = int(ball_trie.depth.max()), int(weight.max())
        assert predicted <= C._scan_bytes(n, 2 * depth * heaviest,
                                          2 * int(image_trie.depth.max()))
        assert W.nbytes <= n * n * np.dtype(C._int_dtype(4 * depth * heaviest)).itemsize
        tracemalloc.start()
        try:
            _scan(W, DD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # besides its arrays, numpy's ufunc loop may buffer up to getbufsize()
        # elements of each of its three operands
        slack = 3 * np.getbufsize() * np.dtype(_scan_dtype(topw, topd)).itemsize
        assert peak <= predicted + slack, (n, peak, predicted)


def test_scanned_defect_builds_two_tables(monkeypatch):
    # the ball's weighted table W and the image table DD, nothing else
    built = []

    def recording(trie, weight=None):
        built.append(weight is not None)
        return _distance_table(trie, weight)

    monkeypatch.setattr(C, "_distance_table", recording)
    for phi, radius in ((_plane_twist(), 4), (_defect_maps()["path_twist"], 3)):
        built.clear()
        cmp_defect(phi, radius)
        assert built == [True, False]
    built.clear()
    with _table_path():
        cmp_defect(_fold(), 3)
    assert built == [True, False]


def test_memory_check_passes_small_balls(monkeypatch):
    monkeypatch.setattr(W, "_physical_memory", lambda: 10 ** 6)
    assert cmp_defect(_fold(), 2).defect == 1


def test_memory_refusal_builds_no_image_trie(monkeypatch):
    # the fold a -> c^640 a at R = 3: images of up to 1923 letters; the check
    # refuses before their trie's hyperplanes are resolved
    resolved = []

    def recording(graph, parent, letter):
        resolved.append(len(parent))
        return hyperplane_columns(graph, parent, letter)

    hyperplane_columns = C.hyperplane_columns
    monkeypatch.setattr(C, "hyperplane_columns", recording)
    monkeypatch.setattr(W, "_physical_memory", lambda: 10 ** 4)
    free = DefGraph(["a", "c"])
    with pytest.raises(MemoryLimitError):
        cmp_defect(build_transvection(free, "a", normalize(free, _power("c", 640))), 3)
    assert resolved == [53]     # the ball's trie only


def test_image_bounds_cover_the_image_trie():
    # _check_memory bounds the image trie before it exists: depth by the
    # longest image, nodes and hyperplanes by the image letters, a level by
    # n nodes, and the gate memo by _gate_bound
    rng = random.Random(2213)
    free = DefGraph(["a", "c"])
    maps = [build_transvection(free, "a", normalize(free, _power("c", 80)))]
    for gi in range(len(CATALOG)):
        maps += [phi for phi in (random_dls(rng, catalog_graph(gi)) for _ in range(3)) if phi]
    for phi in maps:
        for radius in (1, 2, 3):
            ball = ball_codes(phi.graph, radius)
            letters = letter_images(phi.graph, phi.generator_images)
            _, images = C._ball_trie(phi.graph, ball, letters)
            trie = _prefix_trie(phi.graph, images)
            assert int(trie.depth.max()) == max(map(len, images))
            assert trie.hyperplanes <= len(trie.parent) - 1 <= sum(map(len, images))
            assert int(np.bincount(trie.depth).max()) <= len(ball)
            longest, letters = max(map(len, images)), sum(map(len, images))
            assert trie.gates <= C._gate_bound(phi.graph, longest, letters)


def _gate_limit(graph, trie):
    """The gate memo bound of words.hyperplane_columns for this trie: its
    nodes besides the root times min(depth, sum over v of 2^|lk v|)."""
    masks = sum(2 ** len(graph.link(v)) for v in graph.vertices)
    return (len(trie.parent) - 1) * min(int(trie.depth.max()), masks)


def test_long_image_fold_is_linear_in_the_image():
    # a -> c^640 a at R = 3: images of up to 1923 letters, whose hyperplanes
    # are resolved from one gate a node (the free group has one mask)
    free = DefGraph(["a", "c"])
    fold = build_transvection(free, "a", normalize(free, _power("c", 640)))
    rep = cmp_defect(fold, 3)
    assert (rep.defect, rep.ball_size) == (640, 53)
    assert tuple(str(w) for w in rep.witness) == ("1", "a^-1 c^-1 a", "a^-1 c^-1")
    _, images = C._ball_trie(free, ball_codes(free, 3), letter_images(free, fold.generator_images))
    trie = _prefix_trie(free, images)
    assert trie.gates <= _gate_limit(free, trie)
    assert trie.gates == len(trie.parent) - 1


def _strip_columns(graph, words):
    """Hyperplane ids of the prefix trie of `words`, in node order, from the
    strip-based key: each new prefix w[:k] strips its whole prefix, w[:k-1]
    or w[:k] for an inverse letter, with the link of the letter's vertex."""
    nc = 2 * len(graph)
    column, step, ids, depth = {}, {}, [0], [0]
    for w in words:
        node = 0
        for c in w:
            key = node * nc + c
            nxt = step.get(key)
            if nxt is None:
                nxt = step[key] = len(ids)
                k = depth[node] + 1
                v = c >> 1
                gate = v, strip_suffix_in(graph, w[:k - (c & 1)], graph.link_mask(v))
                ids.append(column.setdefault(gate, len(column)))
                depth.append(k)
            node = nxt
    return ids


def _assert_columns_match_strip(graph, trie, words):
    assert trie.column.tolist() == _strip_columns(graph, words)
    assert trie.hyperplanes == len(set(trie.column.tolist()[1:]))
    assert trie.gates <= _gate_limit(graph, trie)


@pytest.mark.parametrize("gi", range(len(CATALOG)), ids=[c[0] for c in CATALOG])
def test_columns_match_the_strip_reference(gi):
    # the gates carried along the parent pointers give the same column,
    # element by element, as stripping every prefix
    graph = catalog_graph(gi)
    rng = random.Random(7000 + gi)
    identity_images = {v: normalize(graph, v) for v in graph.vertices}
    for radius in (1, 2, 3):
        ball = ball_codes(graph, radius)
        trie, _ = C._ball_trie(graph, ball, letter_images(graph, identity_images))
        _assert_columns_match_strip(graph, trie, ball)
        _assert_columns_match_strip(graph, _prefix_trie(graph, ball), ball)
    for _ in range(30):
        words = [_reduced_word(rng, graph, rng.randrange(0, 25))
                 for _ in range(rng.randrange(1, 9))]
        _assert_columns_match_strip(graph, _prefix_trie(graph, words), words)
    ball = ball_codes(graph, 3 if len(graph) <= 2 else 2)
    for phi in _random_maps(rng, graph, 4):
        _, images = C._ball_trie(graph, ball, letter_images(graph, phi.generator_images))
        _assert_columns_match_strip(graph, _prefix_trie(graph, images), images)


@pytest.mark.parametrize("k", (40, 160, 640))
def test_long_fold_columns_match_the_strip_reference(k):
    free = DefGraph(["a", "c"])
    fold = build_transvection(free, "a", normalize(free, _power("c", k)))
    _, images = C._ball_trie(free, ball_codes(free, 3), letter_images(free, fold.generator_images))
    _assert_columns_match_strip(free, _prefix_trie(free, images), images)


def test_memory_limit_is_cli_domain_error(monkeypatch, tmp_path, capsys):
    graph = tmp_path / "z2.graph"
    graph.write_text("vertices: a b\nedge: a b\n")
    monkeypatch.setattr(W, "_physical_memory", lambda: 10 ** 6)
    code = main(["cmp", "defect", "--graph", str(graph), "--dls", "twist v=b z=a",
                 "--radius", "12", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == "memory_limit"


def test_rooted_defect_matches_cmp_defect():
    # the rooted identity (cmp.defect_ceiling) as an oracle: meets of images
    # over pairs x ^ y = 1 with |x| + |y| <= 2R, no distance table
    rng = random.Random(5100)
    kinds = set()
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        # radius 2 over 4 vertices holds up to 3201 ball(4) elements: one map
        for k, phi in enumerate(_random_maps(rng, graph, 4)):
            kinds.add(phi.kind)
            for r in (1, 2) if len(graph) <= 3 or k == 0 else (1,):
                assert rooted_defect(phi, r) == cmp_defect(phi, r).defect, (phi.describe(), r)
    assert kinds == {FOLD, MIXED, PARTIAL_CONJUGATION, TWIST}


def _answers_from_row_zero(phi, radius):
    """Whether row 0 answers for phi at this radius, and cmp_defect's report
    by row 0 and by the tables."""
    graph = phi.graph
    ceiling = C.defect_ceiling(phi)
    letters = letter_images(graph, phi.generator_images)
    hit = radius > ceiling and C._row_zero(graph, ball_codes(graph, radius),
                                           letters, 2 * ceiling) is not None
    with _table_path():
        tables = cmp_defect(phi, radius)
    return hit, cmp_defect(phi, radius), tables


def test_row_zero_matches_the_table_path_on_random_maps():
    # folds and partial conjugations from random_dls on every catalog graph
    # at R <= 4, while the ball holds at most 1000 elements: the same
    # DefectReport whether row 0 answers or not (the misses scan in full)
    cases = hits = 0
    for gi in range(len(CATALOG)):
        graph = catalog_graph(gi)
        rng = random.Random(8000 + gi)
        phis = [phi for phi in _random_maps(rng, graph, 12)
                if phi.kind in (FOLD, PARTIAL_CONJUGATION)][:4]
        for radius in (1, 2, 3, 4):
            if len(ball_codes(graph, radius)) > 1000:
                break
            for phi in phis:
                hit, rep, want = _answers_from_row_zero(phi, radius)
                assert rep == want, (CATALOG[gi][0], phi.describe(), radius)
                cases += 1
                hits += hit
    assert (cases, hits) == (189, 82)


@pytest.mark.parametrize("radius", range(1, 7))
def test_row_zero_matches_the_table_path_on_criterion_7(radius):
    # criterion 7's fold a -> c a and partial conjugation c -> a c a^-1:
    # both answer from row 0 once R > |z| = 1
    free = DefGraph(["a", "c"])
    path = DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for phi in (build_transvection(free, "a", normalize(free, "c")),
                build_partial_conjugation(path, ["a", "b"], ["b", "c"], ["b"],
                                          normalize(path, "a"))):
        hit, rep, want = _answers_from_row_zero(phi, radius)
        assert hit == (radius > 1)
        assert rep == want


def test_row_zero_with_z_trivial_and_a_loose_ceiling():
    path = DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    # z = 1: a ceiling of 0, met by the first cell (1, 1, 1)
    trivial = build_partial_conjugation(path, ["a", "b"], ["b", "c"], ["b"], identity(path))
    for radius in (1, 3):
        hit, rep, want = _answers_from_row_zero(trivial, radius)
        assert hit and rep == want
        assert (rep.defect, tuple(map(str, rep.witness))) == (0, ("1", "1", "1"))
    # |z| = 3 and defect 1: row 0 holds the witness but misses 2|z|, so the
    # tables are scanned in full
    loose = build_partial_conjugation(path, ["a", "b"], ["b", "c"], ["b"],
                                      normalize(path, "a^-1 b b"))
    assert loose.describe() == "partial_conjugation[z=a^-1 b b; c->a^-1 c a]"
    hit, rep, want = _answers_from_row_zero(loose, 4)
    assert not hit and rep == want
    assert (rep.defect, rep.ball_size) == (1, 313)
    assert tuple(map(str, rep.witness)) == ("1", "a c^-1", "a")


# too large for the tables: the documents computed when the ball was listed
# before row 0 was read
ROW_ZERO_DOCUMENTS = {
    ("fold v=a z=c", 10):
    '{"ball_size": 118097, "defect": 1, "radius": 10, "schema": 1, "witness": '
    '{"p": "a^-1", "x": "1", "y": "a^-1 c"}}\n',
    ("pconj A=a,b B=b,c C=b z=a", 9):
    '{"ball_size": 78711, "defect": 1, "radius": 9, "schema": 1, "witness": '
    '{"p": "a^-1", "x": "1", "y": "a^-1 c^-1"}}\n',
}


@pytest.mark.parametrize("dls,radius", [
    ("fold v=a z=c", 5),
    ("pconj A=a,b B=b,c C=b z=a", 6),
    ("pconj A=a,b B=b,c C=b z=a^-1,b,b", 4),
    ("pconj A=a,b B=b,c C=b z=1", 2),
    *ROW_ZERO_DOCUMENTS,
])
def test_row_zero_defect_json_is_byte_identical(dls, radius, tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("vertices: a c\n" if dls.startswith("fold")
                    else "vertices: a b c\nedge: a b\nedge: b c\n")
    argv = ["cmp", "defect", "--graph", str(path), "--dls", dls,
            "--radius", str(radius), "--json"]
    assert main(argv) == 0
    doc = capsys.readouterr().out
    if (dls, radius) in ROW_ZERO_DOCUMENTS:
        assert doc == ROW_ZERO_DOCUMENTS[dls, radius]
        return
    with _table_path():
        assert main(argv) == 0
    assert capsys.readouterr().out == doc


@pytest.mark.parametrize("radius", range(2, 10))
def test_row_zero_reads_a_few_ball_words(radius, monkeypatch):
    # criterion 7's maps find their witness at ball word 8 (the fold) and 11
    # (the partial conjugation) whatever the radius; ball_size is counted
    free = DefGraph(["a", "c"])
    path = DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    listing = C.iter_ball_codes
    read = []

    def counted(graph, r):
        read.append(0)
        for w in listing(graph, r):
            read[-1] += 1
            yield w

    def unlisted(*args):
        raise AssertionError("the ball was listed")

    monkeypatch.setattr(C, "iter_ball_codes", counted)
    monkeypatch.setattr(C, "ball_codes", unlisted)
    for phi, words in ((build_transvection(free, "a", normalize(free, "c")), 8),
                       (build_partial_conjugation(path, ["a", "b"], ["b", "c"], ["b"],
                                                  normalize(path, "a")), 11)):
        read.clear()
        rep = cmp_defect(phi, radius)
        assert read == [words]
        assert rep.defect == 1
        assert rep.ball_size == W.ball_count(phi.graph, radius)[0]
