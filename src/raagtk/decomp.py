"""Geodesic and hyperplane-chain decomposition machinery for the
vertex-transitive case (the whole group acting on its own cube complex,
one orbit): hyperplane-pair invariants, decent geodesics, recursive
decompositions into single edges and good subsegments, alternating chain
decompositions of tree arcs, and the double-centralizer classification of
decent pairs.

The combinatorial constants are computed for general orbit count q, but the
executors implement the single-orbit case q = 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError, UnreducedWordError, WordSyntaxError
from .graph import DefGraph, VertexSet
from .words import (
    Hyperplane,
    NormalForm,
    _nf,
    conjugate_back_codes,
    hyperplane_at,
    normal_codes,
    realize_pair_span,
    reduce_codes,
    require_graph,
    vertex_mask,
)
from . import trees as T
from . import subgroups as S


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def pieces_bound(q: int, vertex_count: int) -> int:
    """Bound on the number of subsegments in the good decomposition:
    q^q * max(7, 2q)^(q^2 * V)."""
    return q ** q * max(7, 2 * q) ** (q * q * vertex_count)


def chain_constant(q: int, vertex_count: int) -> int:
    """Single constant bounding both the short-piece length and the piece
    count in the alternating chain decomposition: the gap bound is
    2 * N_q * V and the count bound is N_q^V."""
    nq = pieces_bound(q, vertex_count)
    return max(2 * nq * vertex_count, nq ** vertex_count)


def _reduced_codes(graph: DefGraph, word) -> tuple:
    """The codes of a word or NormalForm; raises if the word is not reduced,
    lives on another graph, or is a code tuple with a code that names no
    letter of the graph (0 <= code < 2|V|)."""
    if hasattr(word, "codes"):
        require_graph(graph, word)
        codes = word.codes
    else:
        codes = tuple(word)
        letters = 2 * len(graph)
        if codes and not 0 <= min(codes) <= max(codes) < letters:
            bad = next(c for c in codes if not 0 <= c < letters)
            raise WordSyntaxError("code %r names no letter of a graph on %d vertices"
                                  % (bad, len(graph)))
    if len(reduce_codes(graph.adj, codes)) != len(codes):
        raise UnreducedWordError("word is not reduced")
    return codes


# ---------------------------------------------------------------------------
# hyperplane pairs
# ---------------------------------------------------------------------------

class HyperplanePair(NamedTuple):
    u: Hyperplane
    w: Hyperplane
    base: NormalForm      # start vertex of the realizing geodesic
    between: tuple        # canonical codes of the realizing geodesic word

    @property
    def graph(self):
        return self.base.graph

    def between_nf(self) -> NormalForm:
        return _nf(self.graph, self.between)


def pair_from_word(
    graph: DefGraph, word_codes, i: int, j: int, base: NormalForm = None
) -> HyperplanePair:
    """Build the pair of the crossings at positions i < j of a reduced word,
    together with the geodesic realizing exactly the walls separating them.

    The word reorders (trace-equivalently) as B * A * C where A is the
    dependence interval of the two crossings; the realizing geodesic starts
    at base * B and reads A.  Raises if the two crossings are transverse.
    """
    if i == j:
        raise PreconditionError("a pair needs two distinct crossings")
    if i > j:
        i, j = j, i
    word_codes = _reduced_codes(graph, word_codes)
    if base is not None and base.graph is not graph:
        require_graph(graph, base)
    bcodes, acodes = realize_pair_span(graph, word_codes, i, j)
    start = base.codes if base is not None else ()
    b = _nf(graph, normal_codes(graph, bcodes, start))
    between = normal_codes(graph, acodes)
    u = hyperplane_at(graph, b.codes, between[0])
    w_base = normal_codes(graph, between[:-1], b.codes)
    w = hyperplane_at(graph, w_base, between[-1])
    return HyperplanePair(u, w, b, between)


class PairInvariants(NamedTuple):
    delta: VertexSet       # labels of all walls in the span, ends included
    delta_size: int
    counts: dict           # per-label counts over the strictly separating walls


def delta_invariants(pair: HyperplanePair) -> PairInvariants:
    graph = pair.graph
    if len(pair.between) < 1:
        raise PreconditionError("invalid pair")
    delta = graph.vset_mask(vertex_mask(pair.between))
    counts = {v: 0 for v in graph.vertices}
    for c in pair.between[1:-1]:
        counts[graph.vertices[c >> 1]] += 1
    return PairInvariants(delta, len(delta), counts)


# ---------------------------------------------------------------------------
# decency
# ---------------------------------------------------------------------------

class DecencyReport(NamedTuple):
    decent: bool
    witnesses: dict        # label -> (i, j) prefix positions with the label
                           # in the axis support of the subword
    missing: tuple         # labels with no witness


def is_decent(graph: DefGraph, word) -> DecencyReport:
    """A geodesic is decent (single-orbit case) iff every label it crosses
    appears in the axis support of the difference of two of its vertices:
    for each label v there are prefix positions i < j with v in
    Gamma(subword(i, j)).

    Every reduced word is decent, and the first such (i, j) in the order
    (i, then j) is (0, k_v + 1), where k_v is the position of the first
    v-letter.  Shorter prefixes hold no v-letter.  The prefix of length
    k_v + 1 holds exactly one; it is reduced, and cyclic reduction removes
    letters in pairs over one vertex, so its core keeps an odd number of
    v-letters and v is in its Gamma."""
    codes = _reduced_codes(graph, word)
    first = {}
    for k, c in enumerate(codes):
        first.setdefault(c >> 1, k)
    witnesses = {graph.vertices[iv]: (0, first[iv] + 1) for iv in sorted(first)}
    return DecencyReport(True, witnesses, ())


def pair_is_decent(pair: HyperplanePair) -> DecencyReport:
    return is_decent(pair.graph, pair.between)


# ---------------------------------------------------------------------------
# good decompositions (q = 1)
# ---------------------------------------------------------------------------

EDGE = "edge"
GOOD = "good"

class Piece(NamedTuple):
    start: int
    end: int            # codes[start:end]
    tag: str            # "edge" | "good"
    word: tuple


class Decomposition(NamedTuple):
    pieces: tuple
    bound: int          # piece-count bound for this graph at q = 1
    vertex_count: int

    @property
    def ok(self):
        return len(self.pieces) <= self.bound


def decompose_good(graph: DefGraph, word) -> Decomposition:
    """Recursive single-orbit decomposition: a geodesic is good iff every
    label it uses appears at least twice; otherwise the unique edge of some
    once-occurring label splits it into three parts and the outer parts
    recurse.  Single edges are their own pieces."""
    codes = _reduced_codes(graph, word)

    pieces = []

    def rec(lo, hi):
        n = hi - lo
        if n == 0:
            return
        if n == 1:
            pieces.append(Piece(lo, hi, EDGE, codes[lo:hi]))
            return
        counts = {}
        for c in codes[lo:hi]:
            counts[c >> 1] = counts.get(c >> 1, 0) + 1
        solo = sorted(iv for iv, k in counts.items() if k == 1)
        if not solo:
            pieces.append(Piece(lo, hi, GOOD, codes[lo:hi]))
            return
        iv = solo[0]
        pos = next(k for k in range(lo, hi) if codes[k] >> 1 == iv)
        rec(lo, pos)
        pieces.append(Piece(pos, pos + 1, EDGE, codes[pos:pos + 1]))
        rec(pos + 1, hi)

    rec(0, len(codes))
    return Decomposition(tuple(pieces), pieces_bound(1, len(graph)), len(graph))


# ---------------------------------------------------------------------------
# chain decompositions of tree arcs (q = 1)
# ---------------------------------------------------------------------------

class ChainPiece(NamedTuple):
    kind: str            # "mu" | "nu"
    edge_span: tuple     # (first edge index, last edge index) within the arc, or ()
    length: int          # tree length
    pair: object         # HyperplanePair for nu pieces, else None
    decency: object      # DecencyReport for nu pieces, else None


class ChainReport(NamedTuple):
    pieces: tuple
    s: int               # number of nu pieces
    constant: int        # the q = 1 chain constant for this graph
    bounds_ok: bool
    arc_length: int


def decompose_chain(beta: T.TreeArc) -> ChainReport:
    """Alternating decomposition mu_0 nu_1 mu_1 ... nu_s mu_s of a tree arc:
    nu pieces are disjoint sub-arcs of tree length > 2 whose first and last
    edges form a decent pair of walls, chosen longest-first; mu pieces are
    what remains.  Every pair is decent (see is_decent), so the longest
    span wins: the whole arc, from its first to its last edge, when it has
    at least three edges.  Every other span overlaps it."""
    graph = beta.graph
    word, vpos = beta.crossings()
    m = len(vpos)
    if m < 3:
        pieces = (ChainPiece("mu", (0, m - 1), m, None, None),)
    else:
        pair = pair_from_word(graph, word, vpos[0], vpos[-1], base=beta.start.rep_nf())
        empty = ChainPiece("mu", (), 0, None, None)
        nu = ChainPiece("nu", (0, m - 1), m, pair, pair_is_decent(pair))
        pieces = (empty, nu, empty)

    const = chain_constant(1, len(graph))
    s = sum(p.kind == "nu" for p in pieces)
    bounds_ok = (
        s <= const
        and all(p.length <= const for p in pieces if p.kind == "mu")
        and all(p.length > 2 for p in pieces if p.kind == "nu")
    )
    return ChainReport(pieces, s, const, bounds_ok, m)


# ---------------------------------------------------------------------------
# double-centralizer classification of decent pairs (G = whole group, q = 1)
# ---------------------------------------------------------------------------

CENTRALIZER_CASE = "centralizer_case"
CYCLIC_CASE = "cyclic_case"


class PairClassification(NamedTuple):
    case: str
    stabilizer: S.SubgroupForm      # pointwise stabilizer of both walls
    element: NormalForm             # cyclic case: the label-irreducible g
    double_centralizer_support: VertexSet
    axis_stats: dict


def classify_decent_pair(pair: HyperplanePair) -> PairClassification:
    """Wall-pair stabilizers are conjugates of the visual subgroup on
    Delta^perp; the double centralizer is read off by star-perp calculus.
    Either it equals the stabilizer, or (every pair being decent, see
    is_decent) it is the centralizer of a single generator whose axis
    carries the whole span."""
    graph = pair.graph
    inv = delta_invariants(pair)
    sigma = graph.perp(inv.delta)
    stab = S.parabolic(graph, sigma, pair.base)
    zz = graph.perp_closed(graph.perp_closed(sigma))
    if zz == sigma:
        return PairClassification(
            CENTRALIZER_CASE, stab, None, zz, {"walls": len(pair.between)}
        )
    if inv.delta_size != 1:
        raise PreconditionError(
            "double centralizer grew on a pair with %d labels" % inv.delta_size
        )
    x = inv.delta.names()[0]
    if zz != graph.star(x):
        raise PreconditionError("double centralizer is not the star of %s" % x)
    # the span's one label is x: g is its first letter, conjugated by the base
    g = _nf(graph, conjugate_back_codes(graph, pair.base.codes, pair.between[:1]))
    total = len(pair.between)
    stats = {
        "walls": total,
        "skewered": total,
        "exceptions": 0,
        "exception_bound": 2,
        "translation_length": 1,
    }
    return PairClassification(CYCLIC_CASE, stab, g, zz, stats)
