"""Oracle-backed acceptance suite.

Each criterion is a check `criterion_N(seed, jobs) -> (passed, detail)`,
listed in CRITERIA with its name and wall-clock gate.  `run_criterion` times
it and applies the gate; `run_all`, which the CLI `selftest` subcommand
invokes, prints one pass/fail line per criterion.  All sampling is seeded
and every check is exact (no tolerances: the asserted quantities are
integers and set equalities).
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import RaagError
from .graph import DefGraph, components
from .words import (
    NormalForm,
    _nf,
    ball,
    ball_codes,
    ball_count,
    cyclic_reduce,
    identity,
    inv_codes,
    median_codes,
    meet_codes,
    multiply,
    normal_codes,
    translate_hyperplane,
)
from . import cmp as C
from . import decomp as DC
from . import dls as D
from . import elements as E
from . import oracles as O
from . import trees as T

# all isomorphism classes of simplicial graphs on at most 4 vertices
CATALOG = [
    ("K1", ["a"], []),
    ("E2", ["a", "b"], []),
    ("K2", ["a", "b"], [("a", "b")]),
    ("E3", ["a", "b", "c"], []),
    ("P2+1", ["a", "b", "c"], [("a", "b")]),
    ("P3", ["a", "b", "c"], [("a", "b"), ("b", "c")]),
    ("K3", ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
    ("E4", ["a", "b", "c", "d"], []),
    ("e1", ["a", "b", "c", "d"], [("a", "b")]),
    ("2K2", ["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
    ("P3+1", ["a", "b", "c", "d"], [("a", "b"), ("b", "c")]),
    ("P4", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
    ("star", ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")]),
    ("K3+1", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c")]),
    ("C4", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    ("paw", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")]),
    ("diamond", ["a", "b", "c", "d"],
     [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
    ("K4", ["a", "b", "c", "d"],
     [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]),
]
CATALOG_INDEX = {name: k for k, (name, _, _) in enumerate(CATALOG)}


def default_jobs(jobs=None) -> int:
    """Worker count for the criterion 1-2 pools: `jobs` (selftest --jobs),
    else 2, clamped to [1, cpu count]."""
    if jobs is None:
        jobs = 2
    return max(1, min(jobs, os.cpu_count() or 1))


def _map(fn, tasks, jobs):
    """[fn(t) for t in tasks], on a pool of `jobs` workers when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def catalog_graph(idx) -> DefGraph:
    _, verts, edges = CATALOG[idx]
    return DefGraph(verts, edges)


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_codes(rng, graph, length):
    return tuple(rng.randrange(2 * len(graph)) for _ in range(length))


def _random_nf(rng, graph, length) -> NormalForm:
    return _nf(graph, normal_codes(graph, _random_codes(rng, graph, length)))


def _random_nontrivial(rng, graph, length) -> NormalForm:
    while True:
        g = _random_nf(rng, graph, length)
        if g:
            return g


def _clique_number(graph) -> int:
    best = 1
    n = len(graph)
    for r in range(2, n + 1):
        for comb in itertools.combinations(range(n), r):
            if all(
                graph.adj[i] >> j & 1 for i, j in itertools.combinations(comb, 2)
            ):
                best = r
                break
    return best


# ---------------------------------------------------------------------------
# criterion 1: normal form soundness against the shuffle/cancellation oracle
# ---------------------------------------------------------------------------

def _c1_task(args):
    gi, k = args
    graph = catalog_graph(gi)
    adj = graph.adj
    nverts = len(graph)
    bad = 0
    example = ""
    total = 0
    nf_projections = functools.cache(lambda nf: O._projections(adj, nf, nverts))
    for w in itertools.product(range(2 * nverts), repeat=k):
        total += 1
        nf = normal_codes(graph, w)
        r = O.oracle_reduce(adj, w)
        # the same letters have the same projections, so only words that
        # differ from the oracle's need comparing, against each form's
        # projections computed once
        if len(r) != len(nf) or r != nf and O._projections(
            adj, r, nverts
        ) != nf_projections(nf):
            bad += 1
            if not example:
                example = "%s: %r" % (CATALOG[gi][0], w)
    return total, bad, example


def criterion_1(seed, jobs):
    tasks = [(gi, k) for gi in range(len(CATALOG)) for k in range(7)]
    tasks.sort(key=lambda t: -(2 * len(CATALOG[t[0]][1])) ** t[1])
    results = _map(_c1_task, tasks, default_jobs(jobs))
    total = sum(r[0] for r in results)
    bad = sum(r[1] for r in results)
    examples = [r[2] for r in results if r[2]]

    # cross-check the fast oracle itself against a plain breadth-first search
    rng = random.Random(seed + 101)
    bfs_bad = 0
    for _ in range(400):
        gi = rng.randrange(len(CATALOG))
        graph = catalog_graph(gi)
        w = _random_codes(rng, graph, rng.randrange(5))
        nf = normal_codes(graph, w)
        if not O.bfs_equal_words(graph.adj, w, nf):
            bfs_bad += 1

    detail = "%d words over %d graphs, %d mismatches, %d BFS mismatches" % (
        total, len(CATALOG), bad, bfs_bad
    )
    if examples:
        detail += " first=%s" % examples[0]
    return bad == 0 and bfs_bad == 0, detail


# ---------------------------------------------------------------------------
# criterion 2: median vs halfspace-majority scan
# ---------------------------------------------------------------------------

C2_GRAPHS = ["E2", "K2", "E3", "P3", "K3", "C4", "P4"]
C2_RADIUS = 3


def _c2_graph(gi):
    """(checked, bad) for median_codes against the halfspace-majority
    oracle over every triple i <= j <= k of graph gi's radius-R ball."""
    graph = catalog_graph(gi)
    # every wall separating 1 from a median separates 1 from two of the
    # inputs, so medians of radius-R triples live in the radius-floor(3R/2)
    # ball: the candidate scan must run over the larger ball
    big = ball_codes(graph, (3 * C2_RADIUS) // 2)
    n2 = len(big)
    n = sum(1 for w in big if len(w) <= C2_RADIUS)
    D0 = np.zeros((n2, n2), dtype=np.int16)
    for i in range(n2):
        wi = inv_codes(big[i])
        for j in range(i + 1, n2):
            d = len(O.oracle_reduce(graph.adj, wi + big[j]))
            D0[i, j] = d
            D0[j, i] = d
    # betweenness tensor over candidate points: T[i, j, p] iff p is between
    # the radius-R elements i and j
    T = np.empty((n, n, n2), dtype=bool)
    step = max(1, (1 << 22) // (n * n2))
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        T[i0:i1] = (D0[i0:i1, None, :n2] + D0[None, :n, :n2]) == D0[
            i0:i1, :n, None
        ]
    index = {w: i for i, w in enumerate(big)}
    bad = 0
    checked = 0
    for i in range(n):
        Bi = T[i]
        for j in range(i, n):
            row = Bi[j]
            cand = Bi[j:] & T[j, j:] & row[None, :]
            counts = cand.sum(axis=1)
            if not (counts == 1).all():
                bad += int((counts != 1).sum())
                continue
            meds = cand.argmax(axis=1)
            for kk in range(n - j):
                checked += 1
                m = median_codes(graph, big[i], big[j], big[j + kk])
                if index[m] != meds[kk]:
                    bad += 1
    return checked, bad


def criterion_2(seed, jobs):
    tasks = [CATALOG_INDEX[name] for name in C2_GRAPHS]
    # one task per graph, largest ball first: the largest runs while the
    # other workers take the rest; ball_count sizes each ball unlisted
    tasks.sort(key=lambda gi: -ball_count(catalog_graph(gi), C2_RADIUS)[0])
    results = _map(_c2_graph, tasks, default_jobs(jobs))
    checked = sum(r[0] for r in results)
    bad = sum(r[1] for r in results)
    return bad == 0, "%d triples over %s, %d mismatches" % (
        checked, "/".join(C2_GRAPHS), bad
    )


# ---------------------------------------------------------------------------
# criterion 3: centralizer structure vs commutation on radius-4 balls
# ---------------------------------------------------------------------------

def criterion_3(seed, jobs):
    rng = random.Random(seed + 3)
    balls = {}
    bad = 0
    checked = 0
    for _ in range(50):
        gi = rng.randrange(1, len(CATALOG))
        graph = catalog_graph(gi)
        g = _random_nontrivial(rng, graph, rng.randrange(2, 7))
        cf = E.centralizer(g)
        if gi not in balls:
            balls[gi] = ball(graph, 4)
        for h in balls[gi]:
            checked += 1
            if E.membership_centralizer(cf, h) != E.commutes(g, h):
                bad += 1
    return bad == 0, "%d membership checks, %d mismatches" % (checked, bad)


# ---------------------------------------------------------------------------
# criterion 4: good-decomposition bound and decency of non-edge pieces
# ---------------------------------------------------------------------------

def criterion_4(seed, jobs):
    rng = random.Random(seed + 4)
    bad = []
    for _ in range(500):
        gi = rng.randrange(1, len(CATALOG))
        graph = catalog_graph(gi)
        w = _random_nf(rng, graph, rng.randrange(1, 13))
        dec = DC.decompose_good(graph, w)
        if len(dec.pieces) > dec.bound:
            bad.append("bound")
            continue
        # pieces tile the word
        pos = 0
        for p in dec.pieces:
            if p.start != pos or p.end <= p.start:
                bad.append("tiling")
                break
            pos = p.end
        else:
            if pos != len(w.codes):
                bad.append("cover")
        for p in dec.pieces:
            if p.tag != DC.EDGE and not DC.is_decent(graph, p.word).decent:
                bad.append("decency")
    return not bad, "500 geodesics, %d violations %s" % (len(bad), bad[:3])


# ---------------------------------------------------------------------------
# criterion 5: chain decomposition bounds on path-graph tree arcs
# ---------------------------------------------------------------------------

def criterion_5(seed, jobs):
    rng = random.Random(seed + 5)
    path = DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    bad = []
    made = 0
    while made < 200:
        v = rng.choice(path.vertices)
        w = _random_nf(rng, path, rng.randrange(3, 15))
        if not any(c >> 1 == path.index(v) for c in w.codes):
            continue
        start = _random_nf(rng, path, rng.randrange(0, 4))
        beta = T.arc(path, v, start, multiply(start, w))
        made += 1
        rep = DC.decompose_chain(beta)
        if not rep.bounds_ok:
            bad.append("bounds")
            continue
        spans = [p.edge_span for p in rep.pieces if p.kind == "nu"]
        covered = sorted(k for s in spans for k in range(s[0], s[1] + 1))
        if len(covered) != len(set(covered)):
            bad.append("overlap")
        for p in rep.pieces:
            if p.kind == "nu" and not p.decency.decent:
                bad.append("nu_decency")
        total = sum(p.length for p in rep.pieces)
        if total != rep.arc_length:
            bad.append("partition")
    return not bad, "200 arcs, %d violations %s" % (len(bad), bad[:3])


# ---------------------------------------------------------------------------
# criteria 6, 7: the plane twist counterexample and the positive cases
# ---------------------------------------------------------------------------

def criterion_6(seed, jobs):
    z2 = DefGraph(["a", "b"], [("a", "b")])
    tw = D.build_transvection(z2, "b", _nf(z2, (1,)))
    vals = []
    for r in range(1, 6):
        vals.append(C.cmp_defect(tw, r).defect)
    return vals == [1, 2, 3, 4, 5], "defect(1..5) = %s" % vals


def rooted_defect(phi, radius) -> int:
    """The defect of phi at `radius` by the rooted identity proved in
    cmp.defect_ceiling: the largest |F(x) ^ F(y)| over pairs x ^ y = 1 with
    |x| + |y| <= 2 * radius.  It reads meets of images, with no distance
    table and no ceiling, so it checks cmp_defect independently."""
    graph = phi.graph
    ball = ball_codes(graph, 2 * radius)
    images = [D.apply(phi, _nf(graph, w)).codes for w in ball]
    # ball_codes lists words by length: the words of length <= l come first
    upto = [sum(1 for w in ball if len(w) <= l) for l in range(2 * radius + 1)]
    best = 0
    for i, x in enumerate(ball):
        for j in range(upto[2 * radius - len(x)]):
            if not meet_codes(graph.block, x, ball[j]):
                best = max(best, len(meet_codes(graph.block, images[i], images[j])))
    return best


def criterion_7(seed, jobs):
    free = DefGraph(["a", "c"])
    fold = D.build_transvection(free, "a", _nf(free, (3,)))
    path = DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    pconj = D.build_partial_conjugation(path, ["a", "b"], ["b", "c"], ["b"],
                                        _nf(path, (1,)))
    fold_vals = [C.cmp_defect(fold, r).defect for r in range(1, 7)]
    pc_vals = [C.cmp_defect(pconj, r).defect for r in range(1, 7)]
    # the rooted oracle at R = 1..3, against the scans that stopped at |z|
    rooted = all(rooted_defect(phi, r) == vals[r - 1]
                 for phi, vals in ((fold, fold_vals), (pconj, pc_vals)) for r in (1, 2, 3))
    passed = len(set(fold_vals)) == 1 and len(set(pc_vals)) == 1 and rooted
    return passed, "fold %s, pconj %s, rooted oracle %s at R = 1..3" % (
        fold_vals, pc_vals, "agrees" if rooted else "DISAGREES")


# ---------------------------------------------------------------------------
# criterion 8: non-inner certificates
# ---------------------------------------------------------------------------

def criterion_8(seed, jobs):
    z2 = DefGraph(["a", "b"], [("a", "b")])
    tw = D.build_transvection(z2, "b", _nf(z2, (1,)))
    free = DefGraph(["a", "c"])
    fold = D.build_transvection(free, "a", _nf(free, (3,)))
    r1 = D.outer_order_certificate(tw, [_nf(z2, (3,))], 8)
    r2 = D.outer_order_certificate(fold, [_nf(free, (1,))], 8)
    ok = True
    for rep in (r1, r2):
        if not rep.certificate:
            ok = False
            continue
        tr = rep.traces[rep.witness]
        if not all(tr[n] < tr[n + 1] for n in range(8)):
            ok = False
    return ok, "twist trace %s; fold trace %s" % (r1.traces[r1.witness],
                                                  r2.traces[r2.witness])


# ---------------------------------------------------------------------------
# criterion 9: almost-stabilizer dichotomy
# ---------------------------------------------------------------------------

C9_GRAPHS = ["K2", "P3", "K3", "C4", "K4"]


def criterion_9(seed, jobs):
    rng = random.Random(seed + 9)
    bad = 0
    loxo_hits = 0
    made = 0
    while made < 100:
        gi = CATALOG_INDEX[rng.choice(C9_GRAPHS)]
        graph = catalog_graph(gi)
        r = _clique_number(graph)
        v = rng.choice(graph.vertices)
        iv = graph.index(v)
        delta = rng.choice([0, 1, 1, 2])
        need = max((4 * r + 2) * delta, 2 * delta + 1, 3)
        if rng.random() < 0.6:
            # arc along an axis: a power of a loxodromic word
            h = _random_nontrivial(rng, graph, rng.randrange(1, 4))
            _, core = cyclic_reduce(h)
            ell = sum(1 for c in core.codes if c >> 1 == iv)
            if ell == 0:
                continue
            k = -(-need // ell)
            end = core ** k
        else:
            w = _random_nf(rng, graph, need + rng.randrange(0, 5))
            if sum(1 for c in w.codes if c >> 1 == iv) < need:
                continue
            end = w
        try:
            beta = T.arc(graph, v, identity(graph), end)
        except RaagError:
            continue
        if beta.length < max((4 * r + 2) * delta, 2 * delta + 1):
            continue
        made += 1
        res = T.almost_stabilizer(beta, delta, 4)
        rep = T.classify_almost_stabilizer(beta, res)
        if not rep.ok:
            bad += 1
        if len(rep.fixers) + len(rep.loxodromics) != len(res.elements):
            bad += 1
        if rep.loxodromics:
            loxo_hits += 1
    return bad == 0 and loxo_hits > 0, (
        "100 (arc, s) samples, %d violations, %d with loxodromics" % (bad, loxo_hits))


# ---------------------------------------------------------------------------
# criterion 10: automorphism soundness fuzz
# ---------------------------------------------------------------------------

def _random_word_in(rng, graph, allowed, max_len):
    """A random nontrivial element written with fewer than `max_len` letters
    of the vertices in the bitmask `allowed`, or None."""
    letters = [2 * i + s for i in range(len(graph)) if allowed >> i & 1 for s in (0, 1)]
    if not letters:
        return None
    z = _nf(graph, normal_codes(
        graph, tuple(rng.choice(letters) for _ in range(rng.randrange(1, max_len)))
    ))
    return z or None


def random_dls(rng, graph) -> D.DlsAutomorphism:
    for _ in range(40):
        if rng.random() < 0.5:
            v = rng.choice(graph.vertices)
            z = _random_word_in(rng, graph, D.transvection_centralizer_mask(graph, v), 5)
            if z is None:
                continue
            return D.build_transvection(graph, v, z)
        else:
            cmask = rng.randrange(1 << len(graph))
            comps = components(graph.full & ~cmask, graph.adj)
            if len(comps) < 2:
                continue
            rng.shuffle(comps)
            cut = rng.randrange(1, len(comps))
            amask = cmask
            for comp in comps[:cut]:
                amask |= comp
            bmask = cmask
            for comp in comps[cut:]:
                bmask |= comp
            da = graph.vset_mask(amask)
            db = graph.vset_mask(bmask)
            dc = graph.vset_mask(cmask)
            z = _random_word_in(rng, graph, amask & graph.perp_closed(dc).mask, 4)
            if z is None:
                continue
            try:
                return D.build_partial_conjugation(graph, da, db, dc, z)
            except RaagError:
                continue
    return None


def criterion_10(seed, jobs):
    rng = random.Random(seed + 10)
    built = 0
    bad = 0
    kinds = {}
    while built < 200:
        gi = rng.randrange(1, len(CATALOG))
        graph = catalog_graph(gi)
        phi = random_dls(rng, graph)
        if phi is None:
            continue
        built += 1
        kinds[phi.kind] = kinds.get(phi.kind, 0) + 1
        if not D.verify_automorphism(phi):
            bad += 1
            continue
        for _ in range(20):
            g = _random_nf(rng, graph, rng.randrange(0, 5))
            h = _random_nf(rng, graph, rng.randrange(0, 5))
            if D.apply(phi, multiply(g, h)) != multiply(D.apply(phi, g), D.apply(phi, h)):
                bad += 1
                break
    return bad == 0, "200 built (%s), %d failures" % (kinds, bad)


# ---------------------------------------------------------------------------
# criterion 11: double-centralizer classification vs ball oracle
# ---------------------------------------------------------------------------

def _random_graph5(rng):
    verts = ["a", "b", "c", "d", "e"][: rng.choice([4, 5, 5])]
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if rng.random() < 0.5:
                edges.append((verts[i], verts[j]))
    return DefGraph(verts, edges)


def criterion_11(seed, jobs):
    rng = random.Random(seed + 11)
    made = 0
    bad = 0
    cases = {DC.CENTRALIZER_CASE: 0, DC.CYCLIC_CASE: 0}
    ball_cache = {}
    while made < 50:
        graph = _random_graph5(rng)
        w = _random_nf(rng, graph, rng.randrange(2, 9))
        counts = {}
        for k, c in enumerate(w.codes):
            counts.setdefault(c >> 1, []).append(k)
        labels = [iv for iv, pos in counts.items() if len(pos) >= 2]
        if not labels:
            continue
        iv = rng.choice(labels)
        i, j = counts[iv][0], counts[iv][-1]
        pair = DC.pair_from_word(graph, w.codes, i, j)
        # re-base the realizing geodesic at the identity for the ball oracle
        pair0 = DC.pair_from_word(graph, pair.between, 0, len(pair.between) - 1)
        made += 1
        cls = DC.classify_decent_pair(pair0)
        cases[cls.case] += 1

        key = (graph.vertices, tuple(sorted(graph.edges)))
        if key not in ball_cache:
            ball_cache[key] = ball(graph, 4)
        near = ball_cache[key]

        # stabilizer of both walls, found directly by acting on them
        stab = set()
        for h in near:
            if (
                translate_hyperplane(h, pair0.u) == pair0.u
                and translate_hyperplane(h, pair0.w) == pair0.w
            ):
                stab.add(h)
        # double commutant inside the ball; commuting with every single-letter
        # member decides commuting with the whole (parabolic) layer, and a
        # seeded sample of longer members cross-checks that reduction
        inconsistent = []

        def commutant(subset):
            letters = sorted(
                (s for s in subset if len(s.codes) == 1), key=lambda s: s.codes
            )
            out = set()
            for h in near:
                if all(E.commutes(h, s) for s in letters):
                    out.add(h)
            longer = sorted(
                (s for s in subset if len(s.codes) > 1), key=lambda s: s.sort_key()
            )
            for s in rng.sample(longer, min(5, len(longer))):
                for h in out:
                    if not E.commutes(h, s):
                        inconsistent.append((str(s), str(h)))
            return out

        z1 = commutant(stab)
        z2 = commutant(z1)
        if inconsistent:
            bad += 1
        if cls.case == DC.CENTRALIZER_CASE:
            if z2 != stab:
                bad += 1
        else:
            expected = {h for h in near if E.commutes(h, cls.element)}
            if z2 != expected:
                bad += 1
    return bad == 0 and cases[DC.CYCLIC_CASE] > 0, (
        "50 decent pairs (%s), %d mismatches" % (cases, bad))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

# (check, name, wall-clock gate in seconds or None), numbered from 1
CRITERIA = [
    (criterion_1, "normal-form soundness vs shuffle/cancel oracle", 60.0),
    (criterion_2, "median vs halfspace-majority scan", 120.0),
    (criterion_3, "centralizer membership = commutation on radius-4 balls", None),
    (criterion_4, "good decomposition: piece bound + decent pieces", None),
    (criterion_5, "chain decomposition bounds on path-graph arcs", None),
    (criterion_6, "plane twist defect grows linearly", None),
    (criterion_7, "fold and partial conjugation defects plateau", None),
    (criterion_8, "non-inner certificates with increasing traces", None),
    (criterion_9, "almost-stabilizer dichotomy on truncations", None),
    (criterion_10, "random splitting automorphisms verify + respect products", None),
    (criterion_11, "double-centralizer classification vs ball oracle", None),
]


def run_criterion(number, seed=0, jobs=None) -> CriterionResult:
    """Run and time criterion `number`.  A gated criterion passes only if
    its check also ends strictly before the gate; the seconds close the
    detail."""
    check, name, gate = CRITERIA[number - 1]
    t0 = time.time()
    passed, detail = check(seed, jobs)
    dt = time.time() - t0
    passed = passed and (gate is None or dt < gate)
    return CriterionResult(number, name, passed, "%s, %.1fs" % (detail, dt), dt)


def run_all(seed=0, jobs=None, only=None, out=print):
    """Run the criteria in `only` (all if empty), print one line per
    criterion and a summary through `out`, and return their results."""
    results = []
    for k in range(1, len(CRITERIA) + 1):
        if only and k not in only:
            continue
        res = run_criterion(k, seed, jobs)
        results.append(res)
        out("%s %2d %s: %s" % ("PASS" if res.passed else "FAIL",
                               res.number, res.name, res.detail))
    total = sum(r.seconds for r in results)
    npass = sum(1 for r in results if r.passed)
    out("%d/%d criteria passed in %.1fs" % (npass, len(results), total))
    return results
