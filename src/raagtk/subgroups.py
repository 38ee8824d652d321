"""Structured parabolic and semi-parabolic subgroups.

A SubgroupForm describes x * (<a_1, ..., a_k> x A_Delta) * x^-1 where the a_i
are cyclically reduced, label-irreducible, not proper powers, have supports
inside Delta^perp, and are pairwise orthogonal.  Parabolic forms have no
abelian roots.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidSubgroupError, OutOfRangeError, RadiusTooSmallError
from .graph import DefGraph, VertexSet
from .words import (
    NormalForm,
    _nf,
    ball_codes,
    conjugate_codes,
    cyclic_reduce_codes,
    identity,
    inv_codes,
    meet_codes,
    normal_codes,
    require_graph,
    vertex_mask,
)
from .elements import in_structured_product, is_label_irreducible, primitive_root

PARABOLIC = "parabolic"
SEMI_PARABOLIC = "semi_parabolic"


class SubgroupForm(NamedTuple):
    kind: str                 # "parabolic" | "semi_parabolic"
    conjugator: NormalForm    # x
    abelian_roots: tuple      # a_1, ..., a_k (empty for parabolic)
    support: VertexSet        # Delta

    @property
    def graph(self):
        return self.conjugator.graph

    def describe(self):
        return "%s conj=%s roots=[%s] support=%s" % (
            self.kind,
            self.conjugator,
            ", ".join(str(r) for r in self.abelian_roots),
            self.support,
        )


def parabolic(graph: DefGraph, support, conjugator: NormalForm = None) -> SubgroupForm:
    return semi_parabolic(graph, (), support, conjugator)._replace(kind=PARABOLIC)


def semi_parabolic(graph, roots, support, conjugator: NormalForm = None) -> SubgroupForm:
    """The form x * (<roots> x A_support) * x^-1; x = 1 by default.  Roots
    and conjugator from another graph are refused."""
    if conjugator is None:
        conjugator = identity(graph)
    roots = tuple(roots)
    require_graph(graph, conjugator, *roots)
    return SubgroupForm(SEMI_PARABOLIC, conjugator, roots, graph.vset(support))


class ValidationReport(NamedTuple):
    ok: bool
    failures: tuple   # clause names, first violated clause first

    def __bool__(self):
        return self.ok


def validate(sf: SubgroupForm) -> ValidationReport:
    """Check the defining clauses; diagnostics name the violated clauses."""
    graph = sf.graph
    failures = []
    if sf.kind not in (PARABOLIC, SEMI_PARABOLIC):
        failures.append("kind")
    if sf.kind == PARABOLIC and sf.abelian_roots:
        failures.append("parabolic_has_roots")
    perp_mask = graph.perp(sf.support).mask
    for i, a in enumerate(sf.abelian_roots):
        tag = "root[%d]" % i
        if not a:
            failures.append(tag + ":identity")
            continue
        xc, _ = cyclic_reduce_codes(graph, a.codes)
        if xc:
            failures.append(tag + ":not_cyclically_reduced")
        if not is_label_irreducible(a):
            failures.append(tag + ":not_label_irreducible")
        else:
            _, n = primitive_root(a)
            if n != 1:
                failures.append(tag + ":proper_power")
        if vertex_mask(a.codes) & ~perp_mask:
            failures.append(tag + ":support_not_orthogonal_to_Delta")
    for i, a in enumerate(sf.abelian_roots):
        for j in range(i + 1, len(sf.abelian_roots)):
            b = sf.abelian_roots[j]
            if vertex_mask(a.codes) & ~graph.perp(
                graph.vset_mask(vertex_mask(b.codes))
            ).mask:
                failures.append("root[%d]xroot[%d]:not_orthogonal" % (i, j))
    return ValidationReport(not failures, tuple(failures))


def _require_valid(sf: SubgroupForm):
    rep = validate(sf)
    if not rep.ok:
        raise InvalidSubgroupError("invalid subgroup form: %s" % (rep.failures[0],))


def _contains(sf: SubgroupForm, h: NormalForm) -> bool:
    """Membership of h in a form already validated."""
    return in_structured_product(sf.conjugator, sf.abelian_roots, sf.support.mask, h)


def member(sf: SubgroupForm, h: NormalForm) -> bool:
    """Decide membership of h in a valid form (see in_structured_product)."""
    _require_valid(sf)
    return _contains(sf, h)


def _common_conjugator(graph, gens):
    """The greatest common prefix x of every generator and its inverse, and
    each generator g as k with g = x k x^-1 (reduced)."""
    block = graph.block
    x = gens[0]
    for g in gens:
        x = meet_codes(block, meet_codes(block, x, g), inv_codes(g))
    return x, [conjugate_codes(graph, x, g) for g in gens]


def intersect(sf1: SubgroupForm, sf2: SubgroupForm, radius: int) -> SubgroupForm:
    """Truncated intersection: semi-parabolic subgroups are generated by the
    label-irreducible elements they contain, so enumerate those up to word
    length `radius` in both forms, minimize to a generating set, and rebuild
    a structured form.  Raises RadiusTooSmallError when the ball does not
    witness a coherent generating set (checked by revalidation and a ball
    agreement test)."""
    if radius < 1:
        raise OutOfRangeError("radius must be >= 1")
    graph = sf1.graph
    if sf2.graph is not graph:
        require_graph(graph, sf2)
    _require_valid(sf1)
    _require_valid(sf2)

    found = []
    for codes in ball_codes(graph, radius):
        if not codes:
            continue
        h = _nf(graph, codes)
        if is_label_irreducible(h) and _contains(sf1, h) and _contains(sf2, h):
            found.append(h)

    # greedy minimization: drop anything generated by the kept elements
    # within the same radius
    kept = []
    span = {()}
    for h in found:
        if h.codes in span:
            continue
        kept.append(h)
        frontier = list(span)
        gens = []
        for k in kept:
            gens.append(k.codes)
            gens.append(inv_codes(k.codes))
        while frontier:
            nxt = []
            for w in frontier:
                for gcod in gens:
                    prod = normal_codes(graph, gcod, w)
                    if len(prod) <= radius and prod not in span:
                        span.add(prod)
                        nxt.append(prod)
            frontier = nxt

    if not kept:
        result = parabolic(graph, ())
    else:
        xc, stripped = _common_conjugator(graph, [k.codes for k in kept])
        single_mask = vertex_mask(codes[0] for codes in stripped if len(codes) == 1)
        longer = [codes for codes in stripped if len(codes) != 1]
        # centre vertices of the candidate support move into the abelian
        # roots, so the parabolic part has trivial centre
        centre = graph.perp_closed(graph.vset_mask(single_mask)).mask & single_mask
        support = graph.vset_mask(single_mask & ~centre)
        roots = []
        for iv in sorted(i for i in range(len(graph)) if centre >> i & 1):
            roots.append(_nf(graph, (2 * iv + 1,)))
        for codes in sorted(longer, key=lambda c: (len(c), c)):
            r, _ = primitive_root(_nf(graph, codes))
            if r not in roots and r.inv() not in roots:
                roots.append(r)
        x_nf = _nf(graph, xc)
        if roots:
            result = semi_parabolic(graph, roots, support, x_nf)
        else:
            result = parabolic(graph, support, x_nf)

    rep = validate(result)
    if not rep.ok:
        raise RadiusTooSmallError(
            "radius %d does not witness a coherent generating set (%s)"
            % (radius, rep.failures[0])
        )
    # the rebuilt form must agree with plain double membership on the ball
    for codes in ball_codes(graph, min(radius, 4)):
        h = _nf(graph, codes)
        if _contains(result, h) != (_contains(sf1, h) and _contains(sf2, h)):
            raise RadiusTooSmallError(
                "radius %d does not witness a generating set" % radius
            )
    return result
