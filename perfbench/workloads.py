"""The benchmark's workloads: seeded inputs, the ops of one pass, and the
checks that decide whether each answer is right.

A pass is a fixed list of ops.  An op is one call of a name exported by
``raagtk/__init__.py``; `fn` holds the name, so that a traced run, which
rebinds library names, sees every call.  Inputs are generated from the seed
as raw words and parsed (or normalized) during set-up; the library only ever
receives those inputs.

Answer checks run outside the timed window.  They use ``raagtk.oracles`` or
an exact identity computed here, never the code path that produced the
answer (the defect checks, as specified, recompute the witness with `dist`,
`median` and `apply`).
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import NamedTuple

EXPECTED_DEFECTS = Path(__file__).resolve().parent / "expected_defects.json"


class Op(NamedTuple):
    kind: str          # check and span name
    fn: str            # name exported by raagtk
    args: tuple
    dep: int = -1      # earlier op whose result is prepended to args: an index
                       # into the op's query group, then into the whole pass
    meta: object = None  # generation data the check needs


# ---------------------------------------------------------------------------
# graphs and raw words
# ---------------------------------------------------------------------------

P4 = (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
C4 = (list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
C5 = (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])


def seeded_graph8(rng):
    """8 vertices, 9 of the 28 possible edges: a fixed edge count keeps the
    cost of a pass from swinging with the seed."""
    verts = list("abcdefgh")
    return verts, rng.sample(list(itertools.combinations(verts, 2)), 9)


def inv(codes):
    return tuple(c ^ 1 for c in reversed(codes))


def text_of(graph, codes):
    """Raw word text for `parse_word`; letter codes as in raagtk.words."""
    return " ".join(graph.vertices[c >> 1] + ("" if c & 1 else "^-1") for c in codes)


def raw_codes(rng, graph, length):
    return tuple(rng.randrange(2 * len(graph)) for _ in range(length))


class Inputs:
    """Parses seeded raw words through the public API."""

    def __init__(self, rk, rng):
        self.rk = rk
        self.rng = rng

    def word(self, graph, codes):
        return self.rk.parse_word(graph, text_of(graph, codes))

    def nf(self, graph, codes):
        return self.rk.normalize(graph, self.word(graph, codes))

    def random_nf(self, graph, length):
        return self.nf(graph, raw_codes(self.rng, graph, length))

    def power(self, graph, length, k):
        """(base, g): a nontrivial g = base^k with raw length <= length."""
        while True:
            base = raw_codes(self.rng, graph, length // k)
            g = self.nf(graph, base * k)
            if g:
                return base, g


# ---------------------------------------------------------------------------
# oracle helpers (checks only)
# ---------------------------------------------------------------------------

class Oracle:
    """Answer checks built on ``raagtk.oracles``, which shares no code with
    the normal-form engine."""

    def __init__(self, rk):
        import importlib

        self.rk = rk
        self.O = importlib.import_module(rk.__name__ + ".oracles")
        self._pair_slots = {}
        self._nf_projections = {}

    def reduce(self, graph, codes):
        return self.O.oracle_reduce(graph.adj, codes)

    def equal(self, graph, w1, w2):
        return self.O.oracle_equal_words(graph.adj, len(graph), tuple(w1), tuple(w2))

    def projections(self, graph, codes):
        """Projections onto the dependent vertex pairs: two reduced words
        spell the same element iff all of them agree."""
        slots = self._pair_slots.get(graph)
        if slots is None:
            n = len(graph)
            pairs = [(u, v) for u in range(n) for v in range(u, n)
                     if u == v or not graph.adj[u] >> v & 1]
            # per vertex: the pairs that contain it
            slots = self._pair_slots[graph] = (len(pairs), [
                [k for k, pair in enumerate(pairs) if u in pair] for u in range(n)
            ])
        npairs, by_vertex = slots
        out = [[] for _ in range(npairs)]
        for c in codes:
            for k in by_vertex[c >> 1]:
                out[k].append(c)
        return tuple(map(tuple, out))

    def is_normal(self, graph, raw, nf_codes):
        """nf is reduced and spells the element of raw: it has the oracle's
        reduced length and the same projections."""
        r = self.reduce(graph, raw)
        if len(r) != len(nf_codes):
            return False
        key = (graph, nf_codes)
        proj = self._nf_projections.get(key)
        if proj is None:
            proj = self._nf_projections[key] = self.projections(graph, nf_codes)
        return self.projections(graph, r) == proj

    def dist(self, graph, a, b):
        return len(self.reduce(graph, inv(a) + tuple(b)))

    def between(self, graph, a, m, b):
        return self.dist(graph, a, m) + self.dist(graph, m, b) == self.dist(graph, a, b)

    def commute(self, graph, g, h):
        return self.equal(graph, tuple(g) + tuple(h), tuple(h) + tuple(g))

    def count_vertex(self, graph, codes, v):
        iv = graph.vertices.index(v)
        return sum(1 for c in self.reduce(graph, codes) if c >> 1 == iv)


def ball_count(graph, radius):
    """Number of elements of length <= radius, from the growth series
    1 / c(-2t / (1 + t)) of a right-angled Artin group, c being the clique
    polynomial of its defining graph."""
    n = len(graph)
    cliques = [0] * (n + 1)
    for r in range(n + 1):
        for comb in itertools.combinations(range(n), r):
            if all(graph.adj[i] >> j & 1 for i, j in itertools.combinations(comb, 2)):
                cliques[r] += 1
    d = max(r for r in range(n + 1) if cliques[r])
    deg = radius + 1

    def mul(p, q):
        out = [0] * deg
        for i, a in enumerate(p[:deg]):
            for j, b in enumerate(q[:deg - i]):
                out[i + j] += a * b
        return out

    def power(p, k):
        out = [1] + [0] * (deg - 1)
        for _ in range(k):
            out = mul(out, p)
        return out

    # S = (1+t)^d / sum_k c_k (-2t)^k (1+t)^(d-k)
    num = power([1, 1], d)
    den = [0] * deg
    for k in range(d + 1):
        term = mul(power([0, -2], k), power([1, 1], d - k))
        den = [a + cliques[k] * b for a, b in zip(den, term)]
    series = []
    for i in range(deg):
        s = num[i] - sum(series[j] * den[i - j] for j in range(i))
        series.append(s // den[0])
    return sum(series)


# ---------------------------------------------------------------------------
# answer checks: kind -> f(oracle, op, result) -> bool
# ---------------------------------------------------------------------------

def _check_normalize(o, op, r):
    graph, word = op.args
    return r.graph == graph and o.is_normal(graph, word.codes, r.codes)


def _check_multiply(o, op, r):
    g, h = op.args
    return o.is_normal(g.graph, g.codes + h.codes, r.codes)


def _check_median(o, op, r):
    x, y, z = op.args
    graph = x.graph
    m = r.codes
    return (len(o.reduce(graph, m)) == len(m)
            and o.between(graph, x.codes, m, y.codes)
            and o.between(graph, y.codes, m, z.codes)
            and o.between(graph, x.codes, m, z.codes))


def _check_cyclic_reduce(o, op, r):
    (g,) = op.args
    graph = g.graph
    x, core = r.conjugator.codes, r.core.codes
    return (len(g.codes) == 2 * len(x) + len(core)
            and len(o.reduce(graph, core + core)) == 2 * len(core)
            and o.equal(graph, x + core + inv(x), g.codes))


def _check_centralizer(o, op, r):
    (g,) = op.args
    graph = g.graph
    x = r.conjugator.codes
    gens = [root.codes for root in r.cyclic_roots]
    gens += [(2 * graph.vertices.index(v) + 1,) for v in r.parabolic_support]
    return bool(r.cyclic_roots) and all(
        o.commute(graph, g.codes, x + h + inv(x)) for h in gens
    )


def _check_membership(o, op, r):
    (h,) = op.args
    g = op.meta
    return r is o.commute(g.graph, g.codes, h.codes)


def _check_primitive_root(o, op, r):
    (g,) = op.args
    root, n = r
    return n % op.meta == 0 and o.equal(g.graph, root.codes * n, g.codes)


def _check_translation_length(o, op, r):
    graph, v, g = op.args
    once = o.count_vertex(graph, g.codes, v)
    twice = o.count_vertex(graph, g.codes + g.codes, v)
    return r == max(0, twice - once)


def _check_tv_distance(o, op, r):
    graph, v, g, h = op.args
    return r == o.count_vertex(graph, inv(g.codes) + h.codes, v)


def _check_member(o, op, r):
    _, h = op.args
    x, support_mask = op.meta
    graph = h.graph
    core = o.reduce(graph, inv(x) + h.codes + x)
    return r is all(support_mask >> (c >> 1) & 1 for c in core)


def _check_apply(o, op, r):
    phi, g = op.args
    graph = g.graph
    images = {v: phi.generator_images[v].codes for v in graph.vertices}
    word = []
    for c in g.codes:
        img = images[graph.vertices[c >> 1]]
        word.extend(img if c & 1 else inv(img))
    return len(o.reduce(graph, r.codes)) == len(r.codes) and o.equal(graph, word, r.codes)


def _check_ball(o, op, r):
    graph, radius = op.args
    codes = [w.codes for w in r]
    return (len(codes) == ball_count(graph, radius)
            and len(set(codes)) == len(codes)
            and codes == sorted(codes, key=lambda c: (len(c), c))
            and all(len(c) <= radius and len(o.reduce(graph, c)) == len(c) for c in codes))


_EXPECTED = None


def expected_defect(meta, radius):
    global _EXPECTED
    if _EXPECTED is None:
        with open(EXPECTED_DEFECTS) as fh:
            _EXPECTED = json.load(fh)["answers"]
    return _EXPECTED["%s/%d" % (meta, radius)]


def _check_defect(o, op, r):
    """Seed-commit value and least witness, then the witness recomputed."""
    rk = o.rk
    phi, radius = op.args
    exp = expected_defect(op.meta, radius)
    if r.radius != radius or r.defect != exp["defect"] or r.ball_size != exp["ball_size"]:
        return False
    if [str(w) for w in r.witness] != exp["witness"]:
        return False
    if op.meta == "twist" and r.defect != radius:
        return False
    x, y, p = r.witness
    if max(len(x), len(y), len(p)) > radius:
        return False
    if rk.dist(x, p) + rk.dist(p, y) != rk.dist(x, y):
        return False
    fx, fy, fp = rk.apply(phi, x), rk.apply(phi, y), rk.apply(phi, p)
    return rk.dist(fp, rk.median(fp, fx, fy)) == r.defect


CHECKS = {
    "normalize": _check_normalize,
    "multiply": _check_multiply,
    "median": _check_median,
    "cyclic_reduce": _check_cyclic_reduce,
    "centralizer": _check_centralizer,
    "membership_in": _check_membership,
    "membership_out": _check_membership,
    "primitive_root": _check_primitive_root,
    "tv_translation_length": _check_translation_length,
    "tv_distance": _check_tv_distance,
    "member": _check_member,
    "apply": _check_apply,
    "ball": _check_ball,
    "cmp_defect": _check_defect,
}


# ---------------------------------------------------------------------------
# workloads: name -> f(rk, rng) -> list of ops for one pass
# ---------------------------------------------------------------------------

def _shuffled_flat(rng, groups):
    """Shuffle query groups and flatten them, resolving dependencies."""
    rng.shuffle(groups)
    ops = []
    for grp in groups:
        base = len(ops)
        ops.extend(op if op.dep < 0 else op._replace(dep=base + op.dep) for op in grp)
    return ops


def _defect_maps(rk):
    free = rk.DefGraph(["a", "c"])
    path = rk.DefGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    plane = rk.DefGraph(["a", "b"], [("a", "b")])
    return {
        # criterion 7's maps: the free fold a -> c a and the path-graph
        # partial conjugation; criterion 6's plane twist b -> a b
        "fold": rk.build_transvection(free, "a", rk.normalize(free, "c")),
        "pconj": rk.build_partial_conjugation(path, ["a", "b"], ["b", "c"], ["b"],
                                              rk.normalize(path, "a")),
        "twist": rk.build_transvection(plane, "b", rk.normalize(plane, "a")),
    }


def _defect_ops(rk, rng, calls):
    """calls: (map, radius, repeats) triples."""
    maps = _defect_maps(rk)
    return _shuffled_flat(rng, [[Op("cmp_defect", "cmp_defect", (maps[m], r), meta=m)]
                                for m, r, reps in calls for _ in range(reps)])


def defect_sparse(rk, rng):
    # the fold at R = 5 (n = 485) takes the pool path, every other call the
    # serial one; R = 6 and the partial conjugation at R = 5 (n = 1457 and
    # 959) are left out, as one call of either would outlast the passes a
    # run needs.  The partial conjugation at R = 3 (30 ms) runs ten times, so
    # that the median latency falls on it and not on a 5 ms call, whose
    # timing a busy host shakes more than scaling can correct
    calls = [("fold", r, 1) for r in range(1, 6)]
    calls += [("pconj", r, 10 if r == 3 else 1) for r in range(1, 5)]
    return _defect_ops(rk, rng, calls)


def defect_flat(rk, rng):
    # serial path only (n <= 313): at R = 16 (n = 545) one call on the pool
    # would take about two seconds, too few timings per run to be steady
    return _defect_ops(rk, rng, [("twist", r, 1) for r in (4, 8, 12)])


ELEMENT_LENGTHS = (30, 60, 120, 240)
ELEMENT_ROUNDS = 5


def elements_long(rk, rng):
    """Stratified query stream: every round holds the same number of each
    query kind per graph and raw length, so seeds change the words and the
    order, not the mix."""
    inp = Inputs(rk, rng)
    # the powers behind centralizer, membership and primitive_root queries
    # come from a fixed stream: their cost varies fivefold between words of
    # one length, and the few dozen of them would make op_p99_ms measure
    # the seed
    powers = Inputs(rk, random.Random("elements_long/powers"))
    graphs = [rk.DefGraph(*P4), rk.DefGraph(*C5), rk.DefGraph(*seeded_graph8(rng))]
    p4 = graphs[0]
    autos = [
        rk.build_transvection(p4, "a", rk.normalize(p4, "c")),
        rk.build_partial_conjugation(p4, ["a", "b", "c"], ["c", "d"], ["c"],
                                     rk.normalize(p4, "b")),
    ]
    queries = []
    for rnd in range(ELEMENT_ROUNDS):
        for graph in graphs:
            verts = graph.vertices
            for li, n in enumerate(ELEMENT_LENGTHS):
                k = 1 + (rnd + li) % 3  # power exponent, evenly spread

                def nf():
                    return inp.random_nf(graph, n)

                for _ in range(3):
                    w = inp.word(graph, raw_codes(rng, graph, n))
                    queries.append([Op("normalize", "normalize", (graph, w))])
                for _ in range(2):
                    queries.append([Op("multiply", "multiply", (nf(), nf()))])
                queries.append([Op("median", "median", (nf(), nf(), nf()))])
                for _ in range(2):
                    queries.append([Op("cyclic_reduce", "cyclic_reduce", (nf(),))])
                # g = base^k, so base^j lies in Z(g) with a raw word no
                # longer than g's
                base, g = powers.power(graph, n, k)
                j = powers.rng.choice([j for j in range(-k, k + 1) if j])
                h_in = inp.nf(graph, (base if j > 0 else inv(base)) * abs(j))
                queries.append([
                    Op("centralizer", "centralizer", (g,)),
                    Op("membership_in", "membership_centralizer", (h_in,), 0, g),
                    Op("membership_out", "membership_centralizer", (nf(),), 0, g),
                ])
                _, g = powers.power(graph, n, k)
                queries.append([Op("primitive_root", "primitive_root", (g,), meta=k)])
                for _ in range(2):
                    v = rng.choice(verts)
                    queries.append([Op("tv_translation_length", "tv_translation_length",
                                       (graph, v, nf()))])
                for _ in range(2):
                    v = rng.choice(verts)
                    queries.append([Op("tv_distance", "tv_distance", (graph, v, nf(), nf()))])
                # parabolic x A_support x^-1; h_in = x d x^-1 with d over
                # the support, raw length n
                support = rng.sample(verts, rng.randint(1, 3))
                x = inp.random_nf(graph, n // 4)
                mask = sum(1 << verts.index(v) for v in support)
                sf = rk.parabolic(graph, support, x)
                delta = [2 * verts.index(rng.choice(support)) + rng.randrange(2)
                         for _ in range(n // 2)]
                h_in = inp.nf(graph, x.codes + tuple(delta) + inv(x.codes))
                queries.append([Op("member", "member", (sf, h_in), meta=(x.codes, mask))])
                queries.append([Op("member", "member", (sf, nf()), meta=(x.codes, mask))])
                phi = autos[(rnd + li) % 2]
                queries.append([Op("apply", "apply", (phi, inp.random_nf(p4, n)))])
    return _shuffled_flat(rng, queries)


SHORT_LENGTH = 6
SHORT_WORDS = 20000   # per graph, out of the 8^6 = 262,144 length-6 words
SHORT_MEDIANS = 20000
SHORT_BALL_RADIUS = 6


def words_short(rk, rng):
    inp = Inputs(rk, rng)
    p4, c4 = rk.DefGraph(*P4), rk.DefGraph(*C4)
    ops = []
    for graph in (p4, c4):
        letters = 2 * len(graph)
        for k in rng.sample(range(letters ** SHORT_LENGTH), SHORT_WORDS):
            codes = []
            for _ in range(SHORT_LENGTH):
                k, c = divmod(k, letters)
                codes.append(c)
            ops.append(Op("normalize", "normalize", (graph, inp.word(graph, codes))))
    for graph in (c4, p4):
        pts = rk.ball(graph, 3)
        for _ in range(SHORT_MEDIANS // 2):
            ops.append(Op("median", "median", tuple(rng.sample(pts, 3))))
    ops.append(Op("ball", "ball", (p4, SHORT_BALL_RADIUS)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "defect_sparse": defect_sparse,
    "defect_flat": defect_flat,
    "elements_long": elements_long,
    "words_short": words_short,
}


def build(rk, name, seed):
    return WORKLOADS[name](rk, random.Random("%s/%d" % (name, seed)))
