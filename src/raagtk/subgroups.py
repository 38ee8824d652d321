"""Structured parabolic and semi-parabolic subgroups.

A SubgroupForm describes x * (<a_1, ..., a_k> x A_Delta) * x^-1 where the a_i
are cyclically reduced, label-irreducible, not proper powers, have supports
inside Delta^perp, and are pairwise orthogonal.  Parabolic forms have no
abelian roots.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidSubgroupError, PreconditionError, RadiusTooSmallError
from .graph import DefGraph, VertexSet
from .words import (
    NormalForm,
    _nf,
    ball_codes,
    cyclic_reduce_codes,
    identity,
    inv_codes,
    normal_codes,
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
    if conjugator is None:
        conjugator = identity(graph)
    return SubgroupForm(PARABOLIC, conjugator, (), graph.vset(support))


def semi_parabolic(graph, roots, support, conjugator: NormalForm = None) -> SubgroupForm:
    if conjugator is None:
        conjugator = identity(graph)
    return SubgroupForm(SEMI_PARABOLIC, conjugator, tuple(roots), graph.vset(support))


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


def member(sf: SubgroupForm, h: NormalForm) -> bool:
    """Decide membership of h in a valid form (see in_structured_product)."""
    rep = validate(sf)
    if not rep.ok:
        raise InvalidSubgroupError("invalid subgroup form: %s" % (rep.failures[0],))
    return in_structured_product(sf.conjugator, sf.abelian_roots, sf.support.mask, h)


def subgroup_equal_on_ball(sf1: SubgroupForm, sf2: SubgroupForm, radius: int) -> bool:
    graph = sf1.graph
    for codes in ball_codes(graph, radius):
        h = _nf(graph, codes)
        if member(sf1, h) != member(sf2, h):
            return False
    return True


def _common_conjugator(graph, gens):
    """Strip a maximal common wrapping letter-by-letter: while every generator
    is c * k * c^-1 (reduced), pull c out."""
    from .words import first_positions, last_positions

    block = graph.block
    gens = [list(g) for g in gens]
    x = []
    while gens and all(len(g) >= 2 for g in gens):
        candidates = None
        for g in gens:
            firsts = {c for _, c in first_positions(block, g)}
            lasts = {c for _, c in last_positions(block, g)}
            here = {c for c in firsts if (c ^ 1) in lasts}
            candidates = here if candidates is None else candidates & here
            if not candidates:
                break
        if not candidates:
            break
        c = min(candidates)
        x.append(c)
        nxt = []
        for g in gens:
            w = normal_codes(graph, (c ^ 1,) + tuple(g) + (c,))
            nxt.append(list(w))
        gens = nxt
    return tuple(x), [tuple(g) for g in gens]


def intersect(sf1: SubgroupForm, sf2: SubgroupForm, radius: int) -> SubgroupForm:
    """Truncated intersection: semi-parabolic subgroups are generated by the
    label-irreducible elements they contain, so enumerate those up to word
    length `radius` in both forms, minimize to a generating set, and rebuild
    a structured form.  Raises RadiusTooSmallError when the ball does not
    witness a coherent generating set (checked by revalidation and a ball
    agreement test)."""
    graph = sf1.graph
    if graph != sf2.graph:
        raise PreconditionError("subgroups on different graphs")
    for sf in (sf1, sf2):
        rep = validate(sf)
        if not rep.ok:
            raise InvalidSubgroupError("invalid subgroup form: %s" % (rep.failures[0],))

    found = []
    for codes in ball_codes(graph, radius):
        if not codes:
            continue
        h = _nf(graph, codes)
        if is_label_irreducible(h) and member(sf1, h) and member(sf2, h):
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
        span = set(span)
        gens = []
        for k in kept:
            gens.append(k.codes)
            gens.append(inv_codes(k.codes))
        while frontier:
            nxt = []
            for w in frontier:
                for gcod in gens:
                    prod = normal_codes(graph, w + gcod)
                    if len(prod) <= radius and prod not in span:
                        span.add(prod)
                        nxt.append(prod)
            frontier = nxt

    if not kept:
        result = parabolic(graph, ())
    else:
        xc, stripped = _common_conjugator(graph, [k.codes for k in kept])
        singles = set()
        longer = []
        for codes in stripped:
            if len(codes) == 1:
                singles.add(codes[0] >> 1)
            else:
                longer.append(codes)
        single_mask = 0
        for iv in singles:
            single_mask |= 1 << iv
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
        if member(result, h) != (member(sf1, h) and member(sf2, h)):
            raise RadiusTooSmallError(
                "radius %d does not witness a generating set" % radius
            )
    return result


def parabolic_direction_check(h: NormalForm, g: NormalForm, sf: SubgroupForm) -> bool:
    """Necessary condition for parabolicity, checked for one witness: if the
    conjugated cyclic core of h lies in sf, so must each conjugated letter."""
    if sf.kind != PARABOLIC:
        raise PreconditionError("subgroup form is not parabolic")
    graph = sf.graph
    _, core = cyclic_reduce_codes(graph, h.codes)
    conj_core = _nf(graph, normal_codes(graph, g.codes + core + inv_codes(g.codes)))
    if not member(sf, conj_core):
        raise PreconditionError("conjugated core does not lie in the subgroup")
    for c in core:
        one = _nf(graph, normal_codes(graph, g.codes + (c,) + inv_codes(g.codes)))
        if not member(sf, one):
            return False
    return True
