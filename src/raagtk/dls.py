"""Automorphisms built from the visual splittings of the group: transvections
from the one-vertex HNN splittings (twists, folds, mixed), and partial
conjugations from visual amalgams.  Includes soundness checks and bounded
non-innerness certificates via conjugacy-length growth.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .elements import commutes
from .errors import (
    InvalidSplittingError,
    NotInCentralizerError,
    OutOfRangeError,
    PreconditionError,
)
from .graph import DefGraph
from .words import (
    LETTER_BYTES,
    NormalForm,
    _nf,
    _require_memory,
    conjugate_back_codes,
    cyclic_reduce_codes,
    inv_codes,
    normal_codes,
    require_graph,
    vertex_mask,
)

TWIST = "twist"
FOLD = "fold"
MIXED = "mixed_transvection"
PARTIAL_CONJUGATION = "partial_conjugation"


class SplittingData(NamedTuple):
    kind: str                    # "hnn" | "amalgam"
    vertex: str                  # HNN: the splitting vertex (stable letter)
    parts: tuple                 # amalgam: (Delta_A, Delta_B, Delta_C) as VertexSets

    @classmethod
    def hnn(cls, graph: DefGraph, v: str):
        graph.index(v)
        return cls("hnn", v, ())

    @classmethod
    def amalgam(cls, graph: DefGraph, part_a, part_b, part_c):
        return cls("amalgam", "", (graph.vset(part_a), graph.vset(part_b), graph.vset(part_c)))


class DlsAutomorphism(NamedTuple):
    graph: DefGraph
    splitting: SplittingData
    twist_element: NormalForm        # z
    kind: str
    generator_images: dict           # vertex name -> NormalForm

    def image(self, v: str) -> NormalForm:
        return self.generator_images[v]

    def describe(self):
        imgs = ", ".join(
            "%s->%s" % (v, self.generator_images[v])
            for v in self.graph.vertices
            if len(self.generator_images[v].codes) != 1
            or self.generator_images[v].codes[0] != 2 * self.graph.index(v) + 1
        )
        return "%s[z=%s%s]" % (self.kind, self.twist_element, "; " + imgs if imgs else "")


def _identity_images(graph: DefGraph) -> dict:
    return {v: _nf(graph, (2 * i + 1,)) for i, v in enumerate(graph.vertices)}


def transvection_centralizer_mask(graph: DefGraph, v: str) -> int:
    """Support available to z for the splitting at v: vertices other than v
    whose star contains the link of v."""
    iv = graph.index(v)
    mask = graph.perp_closed(graph.link(v)).mask
    return mask & ~(1 << iv)


def twist_split(graph: DefGraph, v: str, z: NormalForm):
    """(z_c, z_f) with z = z_c z_f, for z supported in the transvection
    centralizer mask at v: z_c is the letters of z in the centre
    C = lk v & (lk v)^perp, z_f the rest.

    C is a clique that commutes with v, and every other allowed vertex is
    adjacent to all of lk v, so the allowed subgroup is A_C x A_rest and the
    split is unique.  The transvection is a twist iff z_f = 1, a fold iff
    z_c = 1, mixed otherwise."""
    lk = graph.link(v)
    centre = lk.mask & graph.perp_closed(lk).mask
    parts = ([], [])
    for c in z.codes:
        parts[(centre >> (c >> 1)) & 1].append(c)
    zf, zc = (_nf(graph, normal_codes(graph, p)) for p in parts)
    return zc, zf


def build_transvection(graph: DefGraph, v: str, z: NormalForm) -> DlsAutomorphism:
    """v -> z v, other generators fixed.  Requires z to centralize the edge
    group of the splitting at v, i.e. supp(z) inside (lk v)_closed-perp - v.

    The kind records where z sits (see twist_split): a twist when z lies in
    the centre of the edge group, a fold when it has no letter there, mixed
    otherwise.
    """
    if z.graph is not graph:
        require_graph(graph, z)
    iv = graph.index(v)
    allowed = transvection_centralizer_mask(graph, v)
    zmask = vertex_mask(z.codes)
    if zmask & ~allowed:
        bad = graph.vset_mask(zmask & ~allowed).names()[0]
        lk = graph.link(v)
        offending = [u for u in lk if not graph.has_edge(bad, u) and bad != u]
        raise NotInCentralizerError(
            "z uses %r which does not centralize the edge group%s"
            % (bad, " (fails to commute with %r)" % offending[0] if offending else "")
        )
    zc, zf = twist_split(graph, v, z)
    kind = TWIST if not zf else FOLD if not zc else MIXED
    images = _identity_images(graph)
    images[v] = _nf(graph, normal_codes(graph, (2 * iv + 1,), z.codes))
    return DlsAutomorphism(graph, SplittingData.hnn(graph, v), z, kind, images)


def build_partial_conjugation(
    graph: DefGraph, part_a, part_b, part_c, z: NormalForm
) -> DlsAutomorphism:
    """Fix the A side, conjugate the B side by z.  The three vertex sets must
    describe a genuine visual amalgam and z must centralize the edge group
    inside the A side."""
    da = graph.vset(part_a)
    db = graph.vset(part_b)
    dc = graph.vset(part_c)
    if (da | db).mask != graph.full:
        raise InvalidSplittingError("sides do not cover the graph")
    if (da & db).mask != dc.mask:
        raise InvalidSplittingError("sides must intersect exactly in the edge set")
    if not (da - dc) or not (db - dc):
        raise InvalidSplittingError("degenerate side")
    for u in da - dc:
        for w in db - dc:
            if graph.has_edge(u, w):
                raise InvalidSplittingError(
                    "edge %s-%s crosses the splitting" % (u, w)
                )
    if z.graph is not graph:
        require_graph(graph, z)
    allowed = da.mask & graph.perp_closed(dc).mask
    zmask = vertex_mask(z.codes)
    if zmask & ~allowed:
        bad = graph.vset_mask(zmask & ~allowed).names()[0]
        raise NotInCentralizerError(
            "z uses %r outside the centralizer of the edge group in the A side" % bad
        )
    images = _identity_images(graph)
    for u in db - dc:
        images[u] = _nf(graph, conjugate_back_codes(graph, z.codes, images[u].codes))
    split = SplittingData.amalgam(graph, da, db, dc)
    return DlsAutomorphism(graph, split, z, PARTIAL_CONJUGATION, images)


# ---------------------------------------------------------------------------
# applying, composing, inverting
# ---------------------------------------------------------------------------

def _images(graph: DefGraph, images: dict) -> list:
    """The generator images in vertex order.  A vertex with no image or with
    one that is no NormalForm raises PreconditionError naming it, and images
    from another graph are refused."""
    found = []
    for v in graph.vertices:
        img = images.get(v)
        if not isinstance(img, NormalForm):
            raise PreconditionError("the map gives vertex %s no NormalForm image" % v)
        if img.graph is not graph:
            require_graph(graph, img)
        found.append(img)
    return found


def letter_images(graph: DefGraph, images: dict) -> list:
    """The image codes of every letter code under the map with these
    generator images (_images): vertex i's image at 2i + 1 and its inverse
    at 2i."""
    table = []
    for img in _images(graph, images):
        table += (inv_codes(img.codes), img.codes)
    return table


def apply_images(graph: DefGraph, images: dict, g) -> NormalForm:
    """The image of g under the map with these generator images, read from
    their letter_images table.  The letters of the image are counted before
    they are normalised, and an image that would need more than the physical
    memory at LETTER_BYTES a letter raises MemoryLimitError."""
    codes = g.codes if isinstance(g, NormalForm) else tuple(g)
    parts = list(map(letter_images(graph, images).__getitem__, codes))
    letters = sum(map(len, parts))
    _require_memory(letters * LETTER_BYTES, "an image of %d letters", letters)
    return _nf(graph, normal_codes(graph, tuple(chain.from_iterable(parts))))


def apply(phi: DlsAutomorphism, g: NormalForm) -> NormalForm:
    if g.graph is not phi.graph:
        require_graph(phi.graph, g)
    return apply_images(phi.graph, phi.generator_images, g)


def _compose_images(graph: DefGraph, outer: dict, inner: dict) -> dict:
    """Generator-image map of outer o inner (first inner, then outer)."""
    return {v: apply_images(graph, outer, inner[v]) for v in graph.vertices}


def compose(phi: DlsAutomorphism, psi: DlsAutomorphism) -> dict:
    """Generator-image map of phi o psi (first psi, then phi)."""
    if psi.graph is not phi.graph:
        require_graph(phi.graph, psi)
    return _compose_images(phi.graph, phi.generator_images, psi.generator_images)


def inverse(phi: DlsAutomorphism) -> DlsAutomorphism:
    """Same splitting, inverse twist element."""
    z = phi.twist_element.inv()
    if phi.kind == PARTIAL_CONJUGATION:
        da, db, dc = phi.splitting.parts
        return build_partial_conjugation(phi.graph, da, db, dc, z)
    return build_transvection(phi.graph, phi.splitting.vertex, z)


def is_identity_map(graph: DefGraph, images: dict) -> bool:
    return all(
        images[v].codes == (2 * graph.index(v) + 1,) for v in graph.vertices
    )


def verify_automorphism(phi, inverse_images: dict = None, graph: DefGraph = None) -> bool:
    """Soundness gate: every defining relator maps to the identity and the
    supplied (or built) inverse composes to the identity on generators.

    Accepts either a DlsAutomorphism or a raw generator-image dict together
    with `graph` and candidate `inverse_images`.
    """
    if isinstance(phi, DlsAutomorphism):
        graph = phi.graph
        images = phi.generator_images
    else:
        images = phi
        if graph is None:
            raise PreconditionError("graph required for raw image maps")
        _images(graph, images)
    if inverse_images is not None:
        _images(graph, inverse_images)
    elif isinstance(phi, DlsAutomorphism):
        inverse_images = inverse(phi).generator_images
    for i, j in sorted(graph.edges):
        if not commutes(images[graph.vertices[i]], images[graph.vertices[j]]):
            return False
    if inverse_images is not None:
        for outer, inner in ((images, inverse_images), (inverse_images, images)):
            if not is_identity_map(graph, _compose_images(graph, outer, inner)):
                return False
    return True


# ---------------------------------------------------------------------------
# outer-order certificates
# ---------------------------------------------------------------------------

# most letters one certificate may handle; see certificate_work
CERTIFY_WORK = 10 ** 6


def certificate_work(phi: DlsAutomorphism, probes, max_power: int) -> int:
    """An upper bound on the letters outer_order_certificate handles: the sum
    of 1 + |phi^n(p)| over probes p and powers 0 <= n <= N = max_power.
    phi^n is the map of the same kind with twist element z^n (phi fixes z),
    which sends each generator to a word of at most 1 + 2n|z| letters, so
    |phi^n(p)| <= |p|(1 + 2n|z|), and the sum over n is at most
    (N + 1)(1 + |p|(1 + N|z|))."""
    n, z = max_power, len(phi.twist_element)
    return (n + 1) * sum(1 + len(p) * (1 + n * z) for p in probes)


class OuterOrderReport(NamedTuple):
    max_power: int
    traces: dict          # probe (str) -> list of cyclic core lengths, n = 0..max_power
    certificate: str      # "NOT_INNER_UP_TO(N)" or ""
    witness: str          # probe word witnessing the certificate
    outer_powers: dict    # probe -> sorted powers n with core length differing from n=0


def outer_order_certificate(
    phi: DlsAutomorphism, probes, max_power: int
) -> OuterOrderReport:
    """Track the conjugacy length (cyclic core length) of phi^n(probe).  The
    conjugacy length is invariant under inner automorphisms, so any change
    certifies that power outer; a strictly increasing trace over the whole
    range is flagged as the certificate."""
    if not probes:
        raise PreconditionError("probes must be nonempty")
    if max_power < 1:
        raise OutOfRangeError("max_power must be >= 1")
    work = certificate_work(phi, probes, max_power)
    if work > CERTIFY_WORK:
        raise OutOfRangeError(
            "max_power %d with these probes may handle %d letters, more than %d"
            % (max_power, work, CERTIFY_WORK))
    graph = phi.graph
    traces = {}
    outer_powers = {}
    certificate = ""
    witness = ""
    for probe in probes:
        g = probe
        lens = []
        for n in range(max_power + 1):
            _, core = cyclic_reduce_codes(graph, g.codes)
            lens.append(len(core))
            if n < max_power:
                g = apply(phi, g)
        key = str(probe)
        traces[key] = lens
        outer_powers[key] = [n for n in range(1, max_power + 1) if lens[n] != lens[0]]
        if not certificate and all(lens[n] < lens[n + 1] for n in range(max_power)):
            certificate = "NOT_INNER_UP_TO(%d)" % max_power
            witness = key
    return OuterOrderReport(max_power, traces, certificate, witness, outer_powers)
