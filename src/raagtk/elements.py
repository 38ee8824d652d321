"""Per-element invariants: axis support, label-irreducible decomposition,
primitive roots, commutation, and structured centralizers."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import IdentityElementError, InvalidSubgroupError
from .graph import VertexSet
from .words import (
    NormalForm,
    _nf,
    conjugate_back_codes,
    conjugate_codes,
    cyclic_reduce_codes,
    inv_codes,
    normal_codes,
    require_graph,
    vertex_mask,
)


def gamma(g: NormalForm) -> VertexSet:
    """Labels appearing on an axis of g: the support of its cyclic core."""
    _, core = cyclic_reduce_codes(g.graph, g.codes)
    return g.graph.vset_mask(vertex_mask(core))


def commutes(g: NormalForm, h: NormalForm) -> bool:
    graph = g.graph
    if h.graph is not graph:
        require_graph(graph, h)
    return not normal_codes(graph, h.codes + inv_codes(g.codes) + inv_codes(h.codes), g.codes)


class LIDecomposition(NamedTuple):
    components: tuple        # NormalForms g_1 ... g_k, pairwise commuting
    supports: tuple          # VertexSets Gamma(g_i), the join factors of Gamma(g)
    conjugator: NormalForm   # x with each component of the form x * a_i * x^-1


def _core_parts(graph, core):
    """The join factors of Gamma(core) and the core read on each.  For a
    cyclically reduced core, each part is canonical (see li_components) and
    cyclically reduced, so it is not reduced again: x = w ^ w^-1 is empty iff
    no letter s can be moved to the front of w with s^-1 movable to its end,
    and the core's letters over other factors commute with part i, so such
    an s for part i would be one for the core."""
    factors = graph.join_decomposition(graph.vset_mask(vertex_mask(core)))
    return factors, [tuple(c for c in core if fac.mask >> (c >> 1) & 1)
                     for fac in factors]


def _core_root(graph, core):
    """(r, n) with core = r**n and n maximal, for a cyclically reduced
    canonical core; (core, 1) when it is not a proper power.

    If core = r**n, then r is cyclically reduced and |r**n| = n|r|, so the
    points 1, r, ..., r**n are collinear and r is a prefix of the core that
    takes count_v / n of the core's count_v letters over each vertex v;
    every n has to divide every count.  Occurrences of one vertex never
    commute, so a prefix of a reduced word is fixed by how many letters it
    takes over each vertex: r can only be the core read on the first
    count_v / n occurrences of each v.  That one candidate per n is
    verified by multiplication, largest n first."""
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
        # pref may be unreduced: F4's core a^-1 a^-1 c^-1 d c d^-3 picks a^-1 c^-1 d d^-1
        cand = _nf(graph, normal_codes(graph, pref))
        if cand ** n == core_nf:
            return cand.codes, n
    return core, 1


def li_components(g: NormalForm) -> LIDecomposition:
    """Split g into its pairwise-commuting label-irreducible components,
    grouped by the maximal join decomposition of Gamma(g).

    With g = x core x^-1, component i is x sub_i x^-1, where sub_i is the
    core read on the letters over join factor i.  sub_i is canonical as it
    stands.  It is reduced: letters between a pair of its letters that the
    core left uncancelled are over other factors, so they commute with
    both, and the pair would cancel in the core too.  It is greedy: a
    letter over another factor commutes with every letter over factor i, so
    it never blocks one, and the letters of factor i available at a step of
    the core's greedy run are those available at the matching step of
    sub_i's.  The least available letter the core's run emits is therefore,
    when it is over factor i, the least available in sub_i's run, so the
    core's run restricted to factor i is sub_i's greedy run."""
    if not g:
        raise IdentityElementError("identity has no label-irreducible parts")
    graph = g.graph
    xc, core = cyclic_reduce_codes(graph, g.codes)
    factors, parts = _core_parts(graph, core)
    comps = tuple(_nf(graph, conjugate_back_codes(graph, xc, sub)) for sub in parts)
    return LIDecomposition(comps, tuple(factors), _nf(graph, xc))


def is_label_irreducible(g: NormalForm) -> bool:
    if not g:
        return False
    graph = g.graph
    _, core = cyclic_reduce_codes(graph, g.codes)
    return len(_core_parts(graph, core)[0]) == 1


def primitive_root(g: NormalForm):
    """Write g = root**n with n maximal; the root is not a proper power.
    For g = x core x^-1 it is x r x^-1 with r the core's root (_core_root)."""
    if not g:
        raise IdentityElementError("identity has no primitive root")
    graph = g.graph
    xc, core = cyclic_reduce_codes(graph, g.codes)
    r, n = _core_root(graph, core)
    if n == 1:
        return g, 1
    return _nf(graph, conjugate_back_codes(graph, xc, r)), n


class CentralizerForm(NamedTuple):
    conjugator: NormalForm       # x
    cyclic_roots: tuple          # primitive roots h_i of the core's components
    parabolic_support: VertexSet  # Delta = Gamma(core)^perp


def centralizer(g: NormalForm) -> CentralizerForm:
    """Structured centralizer Z(g) = x * (<h_1> x ... x <h_k> x A_Delta) * x^-1."""
    if not g:
        raise IdentityElementError(
            "centralizer of the identity is the whole group; not representable"
        )
    graph = g.graph
    xc, core = cyclic_reduce_codes(graph, g.codes)
    _, parts = _core_parts(graph, core)
    roots = tuple(_nf(graph, _core_root(graph, sub)[0]) for sub in parts)
    support = graph.perp(graph.vset_mask(vertex_mask(core)))
    return CentralizerForm(_nf(graph, xc), roots, support)


def _component_matches(comp: NormalForm, roots, support_mask) -> bool:
    """One label-irreducible piece lies in the structured product iff it is
    a power of one of the roots or is supported in the parabolic part."""
    if not (vertex_mask(comp.codes) & ~support_mask):
        return True
    for r in roots:
        lr = len(r.codes)
        if lr == 0 or len(comp.codes) % lr:
            continue
        k = len(comp.codes) // lr
        if r ** k == comp or r ** (-k) == comp:
            return True
    return False


def in_structured_product(x: NormalForm, roots, support_mask, h: NormalForm) -> bool:
    """Decide h in x * (<roots> x A_Delta) * x^-1, Delta = support_mask:
    conjugate by x^-1, accept a conjugate supported in Delta, and otherwise
    split it into label-irreducible components and match each against the
    root powers or Delta.  h must live on x's graph; with x = 1 the
    canonical h is read as it is."""
    graph = x.graph
    if h.graph is not graph:
        require_graph(graph, h)
    hc = conjugate_codes(graph, x.codes, h.codes)
    if not (vertex_mask(hc) & ~support_mask):
        return True
    # the components multiply to hc, so without roots they cannot all lie in Delta
    if not roots:
        return False
    return all(
        _component_matches(comp, roots, support_mask)
        for comp in li_components(_nf(graph, hc)).components
    )


def membership_centralizer(cf: CentralizerForm, h: NormalForm) -> bool:
    """Decide h in Z(g) from the structured form (see in_structured_product)."""
    if not isinstance(cf, CentralizerForm):
        raise InvalidSubgroupError("malformed centralizer form")
    return in_structured_product(
        cf.conjugator, cf.cyclic_roots, cf.parabolic_support.mask, h
    )
