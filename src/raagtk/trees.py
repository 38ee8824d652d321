"""The simplicial trees obtained by collapsing all hyperplanes except those
with one fixed label: vertices are cosets of the subgroup generated by the
other vertices, edges are hyperplanes with the chosen label.

Distances, translation lengths, elliptic/loxodromic classification, arc
stabilizers and truncated almost-stabilizers all live here.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegenerateArcError, OutOfRangeError, PreconditionError
from .graph import DefGraph
from .words import (
    NormalForm,
    _nf,
    _read,
    ball_codes,
    conjugate_back_codes,
    count_vertex,
    cyclic_reduce_codes,
    inv_codes,
    meet_mask,
    normal_codes,
    realize_pair_span,
    require_graph,
    strip_suffix_in,
    vertex_mask,
)
from . import subgroups as S
from .elements import _core_parts, _core_root


class TreeVertex(NamedTuple):
    graph: DefGraph
    label: str           # the tree's label v
    rep: tuple           # canonical minimal representative of g * A_{V - v}

    def rep_nf(self) -> NormalForm:
        return _nf(self.graph, self.rep)

    def __str__(self):
        return "%s*A[-%s]" % (self.rep_nf(), self.label)


def tree_vertex(graph: DefGraph, v: str, g: NormalForm) -> TreeVertex:
    if g.graph is not graph:
        require_graph(graph, g)
    iv = graph.index(v)
    allowed = graph.full & ~(1 << iv)
    return TreeVertex(graph, v, strip_suffix_in(graph, g.codes, allowed))


def translate_vertex(g: NormalForm, tv: TreeVertex) -> TreeVertex:
    graph = tv.graph
    if g.graph is not graph:
        require_graph(graph, g)
    return tree_vertex(graph, tv.label, _nf(graph, normal_codes(graph, tv.rep, g.codes)))


def _tree_codes(graph: DefGraph, v: str, g) -> tuple:
    """A canonical representative of the tree vertex g of T_v: a NormalForm's
    codes or a TreeVertex's gate, refused from another graph or tree."""
    if g.graph is not graph:
        require_graph(graph, g)
    if isinstance(g, TreeVertex):
        if g.label != v:
            raise PreconditionError("vertex of the tree of %s given to the tree of %s"
                                    % (g.label, v))
        return g.rep
    return g.codes


def tv_distance(graph: DefGraph, v: str, g, h) -> int:
    """Number of v-labelled hyperplanes separating the two cosets, from one
    meet: count_v(g) + count_v(h) - 2 count_v(g ^ h) for any canonical
    representatives (see "Distances" in the words module docstring).  The
    meet is a prefix of both, so it holds no v-letter unless both do."""
    iv = graph.index(v)
    gc = _tree_codes(graph, v, g)
    hc = _tree_codes(graph, v, h)
    cg, ch = count_vertex(gc, iv), count_vertex(hc, iv)
    if not (cg and ch):
        return cg + ch
    meet = _read(gc, meet_mask(graph.block, gc, hc))
    return cg + ch - 2 * count_vertex(meet, iv)


def tv_translation_length(graph: DefGraph, v: str, g: NormalForm) -> int:
    """Count of v-letters in the cyclic core; positive iff g is loxodromic."""
    if g.graph is not graph:
        require_graph(graph, g)
    iv = graph.index(v)
    _, core = cyclic_reduce_codes(graph, g.codes)
    return count_vertex(core, iv)


class TreeArc(NamedTuple):
    graph: DefGraph
    label: str
    start: TreeVertex
    end: TreeVertex

    @property
    def length(self) -> int:
        return tv_distance(self.graph, self.label, self.start, self.end)

    def word(self) -> tuple:
        """Canonical geodesic word realizing the arc, read from start.rep."""
        return normal_codes(self.graph, inv_codes(self.start.rep) + self.end.rep)

    def crossings(self):
        """word() and the positions of its label letters, one per edge."""
        iv = self.graph.index(self.label)
        word = self.word()
        vpos = [k for k, c in enumerate(word) if c >> 1 == iv]
        if not vpos:
            raise DegenerateArcError("arc crosses no edge")
        return word, vpos


def arc(graph: DefGraph, v: str, start: NormalForm, end: NormalForm) -> TreeArc:
    p = tree_vertex(graph, v, start)
    q = tree_vertex(graph, v, end)
    if p.rep == q.rep:
        raise DegenerateArcError("arc endpoints coincide")
    return TreeArc(graph, v, p, q)


def arc_vertex(beta: TreeArc, k: int) -> TreeVertex:
    """The k-th tree vertex along the arc, 0 <= k <= length: one normal form
    of start.rep and the word up to its k-th crossing, then one gate."""
    return _crossed_vertex(beta, *beta.crossings(), k)


def _crossed_vertex(beta: TreeArc, word, vpos, k: int) -> TreeVertex:
    """arc_vertex(beta, k) from the word and positions of beta.crossings()."""
    if not 0 <= k <= len(vpos):
        raise OutOfRangeError("k must satisfy 0 <= k <= %d" % len(vpos))
    graph = beta.graph
    rep = normal_codes(graph, word[:vpos[k - 1] + 1] if k else (), beta.start.rep)
    return tree_vertex(graph, beta.label, _nf(graph, rep))


def arc_stabilizer(beta: TreeArc) -> S.SubgroupForm:
    """Pointwise stabilizer of the arc: a parabolic subgroup conjugate to the
    visual subgroup on the common link of the label set spanned between the
    first and last edge hyperplanes."""
    graph = beta.graph
    word, vpos = beta.crossings()
    bcodes, acodes = realize_pair_span(graph, word, vpos[0], vpos[-1])
    base = _nf(graph, normal_codes(graph, bcodes, beta.start.rep))
    delta = graph.vset_mask(vertex_mask(acodes))
    return S.parabolic(graph, graph.perp(delta), base)


class AlmostStabilizerResult(NamedTuple):
    elements: tuple       # NormalForms in D(beta, s) with |g| <= radius
    s: int
    radius: int           # the truncation radius actually used
    arc_length: int


def almost_stabilizer(beta: TreeArc, s: int, radius: int) -> AlmostStabilizerResult:
    """Ball-truncated slice of the almost-stabilizer: all elements of word
    length <= radius moving both arc endpoints at most s.  The full set is
    typically infinite; the radius is reported alongside."""
    length = beta.length
    if not (0 <= s < length / 2):
        raise OutOfRangeError("s must satisfy 0 <= s < length/2")
    if radius < 1:
        raise OutOfRangeError("radius must be >= 1")
    graph = beta.graph
    v = beta.label
    found = []
    for codes in ball_codes(graph, radius):
        g = _nf(graph, codes)
        p2 = translate_vertex(g, beta.start)
        if tv_distance(graph, v, beta.start, p2) > s:
            continue
        q2 = translate_vertex(g, beta.end)
        if tv_distance(graph, v, beta.end, q2) > s:
            continue
        found.append(g)
    return AlmostStabilizerResult(tuple(found), s, radius, length)


class DichotomyReport(NamedTuple):
    fixers: tuple          # elements fixing the trimmed arc
    loxodromics: tuple     # loxodromic elements (axis contains the trimmed arc)
    shared_root: NormalForm  # common primitive root of the loxodromic parts, or None
    trimmed_endpoints: tuple  # the two TreeVertex endpoints of beta^s
    ok: bool               # every element classified into exactly one side


def classify_almost_stabilizer(beta: TreeArc, result: AlmostStabilizerResult) -> DichotomyReport:
    """Check the elliptic/loxodromic dichotomy on a truncated almost-stabilizer:
    elliptic members must fix the arc trimmed by floor(s/2) at both ends,
    loxodromic members must translate along an axis containing the trimmed arc,
    with all their loxodromic parts powers of one primitive root."""
    graph = beta.graph
    v = beta.label
    iv = graph.index(v)
    t = result.s // 2
    word, vpos = beta.crossings()
    p1 = _crossed_vertex(beta, word, vpos, t)
    q1 = _crossed_vertex(beta, word, vpos, len(vpos) - t)
    fixers = []
    loxo = []
    roots = set()
    ok = True
    for g in result.elements:
        if g.graph is not graph:
            require_graph(graph, g)
        # g = x core x^-1, reduced once: its translation length is the core's
        # v-count, and its label-irreducible components are x part x^-1 for
        # the core's parts, each cyclically reduced (elements._core_parts)
        xc, core = cyclic_reduce_codes(graph, g.codes)
        ell = count_vertex(core, iv)
        if ell == 0:
            if translate_vertex(g, p1) == p1 and translate_vertex(g, q1) == q1:
                fixers.append(g)
            else:
                ok = False
        else:
            on_axis = (
                tv_distance(graph, v, p1, translate_vertex(g, p1)) == ell
                and tv_distance(graph, v, q1, translate_vertex(g, q1)) == ell
            )
            if not on_axis:
                ok = False
            lox_parts = [sub for sub in _core_parts(graph, core)[1] if count_vertex(sub, iv)]
            if len(lox_parts) != 1:
                ok = False
            else:
                # the primitive root of x part x^-1 is x r x^-1 for the part's
                # root r (elements.primitive_root)
                r = _nf(graph, conjugate_back_codes(graph, xc, _core_root(graph, lox_parts[0])[0]))
                roots.add(min(r, r.inv(), key=lambda x: x.codes))
            loxo.append(g)
    ok = ok and len(roots) <= 1
    shared = min(roots, key=lambda x: x.codes) if roots else None
    return DichotomyReport(tuple(fixers), tuple(loxo), shared, (p1, q1), ok)
