"""Words over the generators, canonical normal forms, geodesics, hyperplanes,
the median operation, and median-subalgebra closure.

Letters are encoded as small integers: ``code = 2*vertex_index + (sign > 0)``,
so ``code ^ 1`` is the inverse letter and numeric order on codes realizes the
canonical letter order (graph order on vertices, sign -1 before +1).

The canonical form of an element is the greedy one: among all reduced words in
the shuffle class, repeatedly emit the least available first letter.  This is
the lexicographically least reduced word, and its prefixes are again canonical.
`normal_codes` builds it by insertion: a new letter c scans back to the last
letter it cannot commute past.  If that is c^-1 it cancels; it blocks nothing
after it, so it is last in its trace, and deleting a last letter keeps a word
greedy.  Otherwise c goes in before the first later letter greater than c.
The graph's per-code table `code_block[c]` is the bitmask over codes of the
letters c cannot commute past (both codes of every vertex in block[c >> 1]),
so each scan step tests a code without mapping it to its vertex.  The last
letter is tested first: when it stops c, c cancels it or is appended, with
no scan, and this is the case for most letters.  Otherwise the scan back
also notes the least later position holding a letter greater than c, so one
loop finds both where c stops and where it goes in.

Continuation.  The pass carries the normal form of what it has read, and a
canonical p is its own normal form, so `normal_codes(graph, h, p)` equals
`normal_codes(graph, p + h)` without reinserting p.  Products whose left
factor is canonical (g h, a base and new letters) continue from it, and so
does `conjugate_back_codes`, x w x^-1 for canonical x.  `conjugate_codes`,
x^-1 w x, starts with `inv_codes(x)`, which is not canonical and is read
letter by letter.

Ball by canonical extension.  For canonical w, w + (c,) is canonical iff the
insertion above appends c: scanning back from the end, c passes only letters
it commutes with that are less than c, and the first letter it cannot pass is
not c^-1.  Every element of length r + 1 then arises exactly once, from its
canonical prefix of length r.  The letters allowed after w d follow from
those allowed after w: a letter that does not commute with d is allowed
unless it is d^-1, and one that does is allowed iff it is greater than d and
allowed after w.  `iter_ball_codes` keeps that set as a bitmask over codes,
so it never normalizes a candidate; taking a level in sorted order and its
letters in ascending order yields the (length, codes) order without a sort.
The set depends on w only through its mask, so counting a level's words per
mask sizes the ball without listing it (`ball_count`).

Meets.  The prefix order on elements (p <= g iff |p| + |p^-1 g| = |g|) is the
prefix order of traces: the prefixes of a reduced word u are the ideals of
its positions under "earlier and not commuting".  Occurrences of one vertex
never commute, so the k-th w of a common prefix is the k-th w of u and of v.
`_meet_masks` finds the greatest common prefix u ^ v in one pass over u: u's
position i, the k-th letter over its vertex w, is in it iff

  (1) every earlier u letter that does not commute with it is in it,
  (2) v's k-th letter over w is the same letter, and
  (3) every earlier v letter that does not commute with w is in it.

Processing u in order is exact.  The matched set is an ideal of u by (1) and
of v by (3), and two matched letters a, b that do not commute come in the
same order in both words: were a before b in u but after b in v, (3) would
have refused a, whose v predecessor b is matched only after a is processed.
So the matched letters spell one trace, a common prefix.  Conversely, by induction
along u, every letter of the greatest common prefix passes (1)-(3), because
its predecessors in either word precede it in the prefix itself.

Condition (3) needs no search.  When (1) and (2) hold at u's i and v's j,
every vertex x that does not commute with w occurs in v before j at least
as often as in u before i: each such x before i is matched, and its v copy
precedes j, since otherwise (3) would have refused it.  So (3) holds iff the
counts of those x before j in v equal those before i in u.  A position's key
is its letter and those counts, packed into one integer; the index of v maps
keys to positions, and u's i matches iff its key is in it.  The index is
filled lazily, only as far into v as a lookup needs: when u's i is looked
up, every v letter that does not commute with w and matches a u letter
before i is indexed already (those u letters are matched, by (1)), so the
next such v letter not yet indexed is the only candidate left.  Once the
letters refused by (1) block every vertex, the scan of u stops.

Distances.  Let H(g) be the set of hyperplanes separating 1 from g.  A
geodesic crosses each of them once and no other, so |H(g)| = |g|.  A
hyperplane separates g from h iff it separates 1 from exactly one of them,
so d(g, h) = |H(g)| + |H(h)| - 2|H(g) n H(h)|.  The meet g ^ h is the
median m(1, g, h) (the identity below with x = 1), and a median lies on the
majority side of every hyperplane, so a hyperplane separates 1 from g ^ h
iff it separates 1 from both g and h: H(g ^ h) = H(g) n H(h).  Hence

  d(g, h) = |g| + |h| - 2|g ^ h|,

and, counting v-labelled hyperplanes only, the distance of g and h in the
tree T_v is count_v(g) + count_v(h) - 2 count_v(g ^ h).  No v-labelled
hyperplane separates g from g a for a in A_{V - v}, so any representatives
of the two cosets give the same count; a coset's gate (`strip_suffix_in`)
is canonical, so a tree vertex's representative is a valid input.  `dist`
and `trees.tv_distance` take both from one `_meet_masks` pass and never
normalize g^-1 h.

Median.  Rooted at 1, the median of x, y, z is (x ^ y) v (y ^ z) v (z ^ x),
the median-semilattice identity (Bandelt-Hedlikova, "Median algebras",
Discrete Math. 45, 1983).  Let A = x ^ y, B = x ^ z, C = y ^ z and
g = x ^ y ^ z.  Two prefixes of one word whose meet is g have commuting
complements: were a letter of one complement earlier than a letter of the
other that it does not commute with, the ideal holding the later letter
would hold it too, putting it in g.  A, B lie below x, A, C below y and
B, C below z, so g^-1 A, g^-1 B and g^-1 C pairwise commute and
m = g (g^-1 A)(g^-1 B)(g^-1 C).  On positions: A and B are ideals of x with
A ^ B = g, so x read on A u B spells A v B, and y read on C minus A spells
g^-1 C.  `median_codes` returns the normal form of their
concatenation; it builds neither x^-1 y nor x^-1 z.  x read on A u B is an
ideal of x, hence canonical, so the normal form continues from it.

Wall spans.  Position k of a reduced word depends on position i <= k if a
chain i = p_0 < ... < p_m = k links them, consecutive letters not commuting.
k > i depends on i iff its vertex lies in block[] of an earlier position
that depends on i, by induction on k: a chain's p_{m-1} is such a position,
as block is symmetric, and such a position's chain extends to k.  So one
scan forward from i finds the positions that depend on i, and one backward
from j those j depends on.  `realize_pair_span` takes B to be the positions
that do not depend on i, an ideal, and A those that depend on i and on which
j depends; the crossings at i and j are transverse iff j does not depend on i.

Gates.  The gate of the coset p A_M, its shortest element, is
G(p, M) = `strip_suffix_in(p, M)` for canonical p: right to left, drop
each letter over M that no letter kept after it blocks.  For canonical p c
with c over u:

  (1) if u is in M, G(p c, M) = G(p, M);
  (2) if u is not in M, G(p c, M) = G(p, M - block[u]) c.

In (1) c is read first, nothing blocks it, and it is dropped, so the pass
over p is unchanged.  In (2) c is kept and blocks block[u].  From then on
a letter over x in M is dropped iff x is not in block[u] and no letter kept
after it blocks x, which is the test of the pass over p with the mask
M - block[u] = M & lk u: by induction along the pass, both keep the same
letters, and the first has blocked exactly block[u] more.  So a letter
outside the mask shrinks the mask of what comes before it.  The hyperplane
of the edge p -> p c over v is named, as in `hyperplane_at`, by v and the
gate of p c^(0 or 1) in the coset of lk v.  v is not in lk v and lk v
misses block[v], so that gate is G(p, lk v) for c = v and G(p, lk v) v^-1
for c = v^-1.  `hyperplane_columns` resolves every edge of a trie this way
along its parent pointers, each gate once per (node, mask).
"""

from __future__ import annotations

import functools
import os
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import (
    ArityMismatchError,
    BallCapExceededError,
    GraphMismatchError,
    MemoryLimitError,
    OutOfRangeError,
    TransverseHyperplanesError,
    WordSyntaxError,
)
from .graph import DefGraph


# ---------------------------------------------------------------------------
# integer-code kernels
# ---------------------------------------------------------------------------

def reduce_codes(adj, codes):
    """Left-to-right stack reduction; output is a reduced word (list)."""
    out = []
    for c in codes:
        v = c >> 1
        am = adj[v]
        k = len(out) - 1
        hit = -1
        while k >= 0:
            ck = out[k]
            vk = ck >> 1
            if vk == v:
                if ck == c ^ 1:
                    hit = k
                break
            if not (am >> vk) & 1:
                break
            k -= 1
        if hit >= 0:
            del out[hit]
        else:
            out.append(c)
    return out


def normal_codes(graph: DefGraph, codes, prefix=()) -> tuple:
    """Canonical form of prefix + codes, built by insertion in one
    left-to-right pass (see the module docstring).  `prefix` must be
    canonical: inserting its letters one by one would append each of them,
    so the pass starts from it.

    A letter c is tested against graph.code_block[c], the codes of the
    letters it cannot commute past.  The last letter is tested first, as
    most letters stop there: it cancels c or takes c after it.  Otherwise
    one scan back finds the letter that stops c and, on the way, the first
    later letter greater than c, before which c goes in."""
    code_block = graph.code_block
    out = list(prefix)
    n = len(out)
    for c in codes:
        if not n:
            out.append(c)
            n = 1
            continue
        bm = code_block[c]
        d = out[-1]
        if (bm >> d) & 1:
            if d == c ^ 1:
                out.pop()
                n -= 1
            else:
                out.append(c)
                n += 1
            continue
        at = n - 1 if d > c else n
        k = n - 2
        while k >= 0:
            d = out[k]
            if (bm >> d) & 1:
                if d == c ^ 1:
                    del out[k]
                    n -= 1
                else:
                    out.insert(at, c)
                    n += 1
                break
            if d > c:
                at = k
            k -= 1
        else:
            out.insert(at, c)
            n += 1
    return tuple(out)


def inv_codes(codes):
    return tuple([c ^ 1 for c in reversed(codes)])


# Letter counts per vertex, packed into one integer: vertex w's count sits in
# the 64-bit field at bit 64 * (w + 1), which no word can overflow, and the
# low 64 bits are free to hold a letter code.
_FIELD = 64


@functools.lru_cache(maxsize=None)
def _count_fields(block):
    """(full, unit, dep) for the graph with these block masks: adding unit[w]
    counts one more w, and dep[w] masks the counts of the vertices in
    block[w]."""
    ones = (1 << _FIELD) - 1
    unit = tuple(1 << (_FIELD * (w + 1)) for w in range(len(block)))
    dep = tuple(sum(ones * unit[x] for x in range(len(block)) if (bm >> x) & 1)
                for bm in block)
    return (1 << len(block)) - 1, unit, dep


def _prefix_index(v):
    """Lazy index of a reduced word v for `_meet_masks`: [v, keys, scanned,
    count], where keys maps the key of each of v's first `scanned` positions
    (its letter | the packed counts of the letters before it that do not
    commute with it) to the position, and count is the packed count of
    v[:scanned].  One index serves several meets."""
    return [v, {}, 0, 0]


def _meet_masks(fields, block, u, index):
    """Positions of the greatest common prefix of the reduced words u and
    v = index[0], as bitmasks over u and over v, in one pass over u (see
    "Meets" in the module docstring)."""
    full, unit, dep = fields
    v, at, j, pv = index
    nv = len(v)
    mu = mv = blocked = pu = 0
    for i, c in enumerate(u):
        w = c >> 1
        if not (blocked >> w) & 1:
            key = (pu & dep[w]) | c
            jv = at.get(key)
            if jv is None and j < nv:
                # index v through its next letter that does not commute
                # with w: the only one left that can match
                bw = block[w]
                while j < nv:
                    d = v[j]
                    x = d >> 1
                    at[(pv & dep[x]) | d] = j
                    pv += unit[x]
                    j += 1
                    if (bw >> x) & 1:
                        break
                jv = at.get(key)
            if jv is not None:
                mu |= 1 << i
                mv |= 1 << jv
                pu += unit[w]
                continue
        blocked |= block[w]
        if blocked == full:
            break
        pu += unit[w]
    index[2:] = j, pv
    return mu, mv


def _read(codes, mask):
    """The letters of `codes` at the positions in `mask`, in order."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(codes[i])
        mask >>= 1
        i += 1
    return out


def meet_mask(block, u, v):
    """Positions of u in the greatest common prefix of the reduced words u
    and v, as a bitmask over u (one `_meet_masks` pass)."""
    return _meet_masks(_count_fields(block), block, u, _prefix_index(v))[0]


def meet_codes(block, u, v):
    """Greatest common prefix of the reduced words u and v in the trace prefix
    order: u read on the positions `meet_mask` finds.  An ideal of a
    canonical word, read in order, is canonical, so the meet is canonical
    when u is."""
    return tuple(_read(u, meet_mask(block, u, v)))


def conjugate_codes(graph: DefGraph, x, w):
    """Canonical x^-1 w x for canonical w and any word x: w itself when x is
    empty, since a canonical word is its own normal form.  Its twin
    conjugate_back_codes gives x w x^-1."""
    if not x:
        return w
    return normal_codes(graph, inv_codes(x) + w + x)


def conjugate_back_codes(graph: DefGraph, x, w):
    """Canonical x w x^-1 for canonical x and w, continued from x (see
    "Continuation" in the module docstring): w itself when x is empty."""
    return normal_codes(graph, w + inv_codes(x), x) if x else w


def vertex_mask(codes):
    m = 0
    for c in codes:
        m |= 1 << (c >> 1)
    return m


def count_vertex(codes, iv):
    return codes.count(2 * iv) + codes.count(2 * iv + 1)


def strip_suffix_in(graph: DefGraph, codes, allowed_mask):
    """Gate of the identity in the coset g*A_allowed (its unique minimal-length
    representative) for canonical `codes` g; every caller passes a canonical
    word.  One right-to-left pass drops each letter over allowed_mask that
    commutes with every letter kept after it; a dropped letter is last in
    its trace, so the kept letters stay canonical."""
    block = graph.block
    kept = []
    blocked = 0
    for c in reversed(codes):
        v = c >> 1
        if (allowed_mask >> v) & 1 and not (blocked >> v) & 1:
            continue
        kept.append(c)
        blocked |= block[v]
    return tuple(reversed(kept))


def hyperplane_columns(graph: DefGraph, parent, letter):
    """Hyperplane ids of the edges of a trie of canonical words, from its
    parent and last-letter lists: node t > 0 is node parent[t] < t extended
    by the letter letter[t] (entries at 0, the root, are ignored).  The
    edge p -> p c over v is keyed, as in hyperplane_at, by v and the gate
    G(p, lk v), followed by c when c = v^-1 (see "Gates" in the module
    docstring); ids are numbered in order of first use.  Returns
    (ids, number of hyperplanes, gates memoised), with ids[0] = 0.

    Gates are hash-consed as (gate id, letter) -> id, id 0 the empty gate,
    so equal ids are equal gates, and memoised per (node, mask).  The edge
    query of node t walks up from p = parent[t] to a memoised gate, adding
    one entry per node it passes, and then memoises G(t, lk v), which is
    G(p, lk v) c as v is not in lk v.  So a query adds at most depth(t)
    entries, and the masks are subsets of links: at most
    n * min(depth, sum over v of 2^|lk v|) entries for n nodes."""
    nv, adj = len(graph), graph.adj
    nc = 2 * nv
    memo = {}       # node << |V| | mask -> id of G(node, mask)
    cons = {}       # gate id * 2|V| + code -> id of the gate followed by code
    column = {}     # gate id * |V| + v -> hyperplane id
    ids = [0]
    for t in range(1, len(parent)):
        c = letter[t]
        v = c >> 1
        node, mask = parent[t], adj[v]
        g = memo.get(node << nv | mask) if node else 0
        if g is None:
            # walk up to a memoised gate or the root, then build back down
            path = []
            while node:
                key = node << nv | mask
                g = memo.get(key)
                if g is not None:
                    break
                d = letter[node]
                if (mask >> (d >> 1)) & 1:
                    path.append((key, -1))
                else:
                    path.append((key, d))
                    mask &= adj[d >> 1]
                node = parent[node]
            else:
                g = 0
            for key, d in reversed(path):
                if d >= 0:
                    g = cons.setdefault(g * nc + d, len(cons) + 1)
                memo[key] = g
        gc = memo[t << nv | adj[v]] = cons.setdefault(g * nc + c, len(cons) + 1)
        ids.append(column.setdefault((g if c & 1 else gc) * nv + v, len(column)))
    return ids, len(column), len(memo)


# ---------------------------------------------------------------------------
# public value types
# ---------------------------------------------------------------------------

class Word:
    """An arbitrary word over the generators; no reduction is implied."""

    __slots__ = ("graph", "codes")

    def __init__(self, graph: DefGraph, codes):
        self.graph = graph
        self.codes = tuple(codes)

    def __len__(self):
        return len(self.codes)

    def __repr__(self):
        return "Word(%s)" % format_codes(self.graph, self.codes)


class NormalForm:
    """Canonical reduced representative of a group element.

    `codes` must already be canonical: instances should be produced by
    normalize()/multiply()/..., never built from raw letters directly.
    """

    __slots__ = ("graph", "codes", "_hash")

    def __init__(self, graph: DefGraph, codes: tuple):
        self.graph = graph
        self.codes = codes
        self._hash = hash(codes)

    def __len__(self):
        return len(self.codes)

    def __bool__(self):
        return bool(self.codes)

    def __eq__(self, other):
        return (
            isinstance(other, NormalForm)
            and self.codes == other.codes
            and self.graph == other.graph
        )

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        return multiply(self, other)

    def inv(self) -> "NormalForm":
        """Canonical g^-1 (the reversed letters of `inv_codes` need not be)."""
        return NormalForm(self.graph, normal_codes(self.graph, inv_codes(self.codes)))

    def __pow__(self, n: int) -> "NormalForm":
        """g^n continued from the canonical base b = g, or g^-1 for n < 0,
        through |n| - 1 more copies of b ("Continuation" above).  The input
        is |n| * |g| letters, and so is the output for cyclically reduced g."""
        base = self if n >= 0 else self.inv()
        codes = normal_codes(self.graph, base.codes * (abs(n) - 1), base.codes) if n else ()
        return _nf(self.graph, codes)

    def __str__(self):
        return format_codes(self.graph, self.codes)

    def __repr__(self):
        return "<%s>" % format_codes(self.graph, self.codes)

    def sort_key(self):
        return (len(self.codes), self.codes)


def _nf(graph, codes) -> NormalForm:
    return NormalForm(graph, tuple(codes))


class CyclicDecomposition(NamedTuple):
    conjugator: NormalForm   # x
    core: NormalForm         # cyclically reduced a, with g = x a x^-1 reduced


class Hyperplane(NamedTuple):
    """A wall of the cube complex, named by its label and the canonical
    representative of the coset base*A_{lk(label)} of its positively
    oriented dual edges.  It compares and hashes as its three fields, so it
    equals a trees.TreeVertex with the same fields although the two name
    different cosets: keep them out of one set or dict."""
    graph: DefGraph
    label: str
    rep: tuple

    def __repr__(self):
        return "Hyperplane(%s @ %s)" % (self.label, format_codes(self.graph, self.rep))


def hyperplane_at(graph: DefGraph, base_codes, code) -> Hyperplane:
    """Hyperplane dual to the edge read by `code` at the vertex `base_codes`,
    which must be canonical."""
    iv = code >> 1
    if code & 1:
        b = base_codes
    else:
        b = normal_codes(graph, (code,), base_codes)
    rep = strip_suffix_in(graph, b, graph.link_mask(iv))
    return Hyperplane(graph, graph.vertices[iv], rep)


def translate_hyperplane(g: NormalForm, h: Hyperplane) -> Hyperplane:
    graph = h.graph
    if g.graph is not graph:
        require_graph(graph, g)
    moved = normal_codes(graph, h.rep, g.codes)
    rep = strip_suffix_in(graph, moved, graph.link_mask(graph.index(h.label)))
    return Hyperplane(graph, h.label, rep)


# ---------------------------------------------------------------------------
# parsing / formatting
# ---------------------------------------------------------------------------

@functools.cache
def _physical_memory() -> int:
    """Bytes of physical memory, or 0 if the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError, AttributeError):
        return 0


def _require_memory(need: int, what: str, *args):
    """Raise MemoryLimitError if `what % args` needs more than the physical
    memory; pass if the platform does not say how much there is."""
    have = _physical_memory()
    if have and need > have:
        raise MemoryLimitError("%s needs about %.1f GiB, more than the %.1f GiB of "
                               "physical memory" % (what % args, need / 2**30, have / 2**30))


# bytes of peak memory per letter of the worst command that takes a word:
# `element centralizer` on a^k c^k over the free group, measured at about
# 114 bytes a letter from 4*10^4 to 10^6 letters (peak RSS minus the same
# command's on the empty word)
LETTER_BYTES = 128


def parse_word(graph: DefGraph, text: str) -> Word:
    """Whitespace-separated letters `a` / `a^-1` (or `a^k`); `1` is the
    empty word.  A word whose exponents would expand it past physical memory
    raises MemoryLimitError before it is expanded."""
    codes = []
    counts = []
    for tok in text.split():
        if tok == "1":
            continue
        name, caret, exp = tok.partition("^")
        if not name:
            raise WordSyntaxError("bad token %r" % tok)
        if not caret:
            power = 1
        else:
            try:
                power = int(exp)
            except ValueError:
                raise WordSyntaxError("bad exponent in %r" % tok) from None
        i = graph.index(name)
        codes.append(2 * i + (1 if power > 0 else 0))
        counts.append(abs(power))
    if counts.count(1) < len(counts):
        letters = sum(counts)
        _require_memory(letters * LETTER_BYTES, "a word of %d letters", letters)
        expanded = []
        for c, k in zip(codes, counts):
            expanded.extend([c] * k)
        codes = expanded
    return Word(graph, codes)


def format_codes(graph: DefGraph, codes) -> str:
    if not codes:
        return "1"
    toks = []
    for c in codes:
        v = graph.vertices[c >> 1]
        toks.append(v if c & 1 else v + "^-1")
    return " ".join(toks)


def require_graph(graph: DefGraph, *elements):
    """Raise GraphMismatchError unless every element (anything with a
    `graph`) lives on a graph equal to `graph`.  Callers first test
    `x.graph is not graph`, which settles the common case without a call."""
    for x in elements:
        if x.graph != graph:
            raise GraphMismatchError("element belongs to a different graph")


def _coerce_codes(graph, w):
    if isinstance(w, NormalForm) or isinstance(w, Word):
        if w.graph is not graph:
            require_graph(graph, w)
        return w.codes
    if isinstance(w, str):
        return parse_word(graph, w).codes
    raise WordSyntaxError("expected Word, NormalForm or string")


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------

def normalize(graph: DefGraph, word) -> NormalForm:
    """Canonical reduced representative of a word's group element."""
    return _nf(graph, normal_codes(graph, _coerce_codes(graph, word)))


def multiply(g: NormalForm, h: NormalForm) -> NormalForm:
    if h.graph is not g.graph:
        require_graph(g.graph, h)
    return _nf(g.graph, normal_codes(g.graph, h.codes, g.codes))


def invert(g: NormalForm) -> NormalForm:
    return g.inv()


def identity(graph: DefGraph) -> NormalForm:
    return _nf(graph, ())


def cyclic_reduce_codes(graph: DefGraph, codes):
    """Split canonical `codes` g as x a x^-1 with `a` of minimal conjugacy
    length: x is the meet of g and g^-1, and a = g when x is empty."""
    x = meet_codes(graph.block, codes, inv_codes(codes))
    return x, conjugate_codes(graph, x, tuple(codes))


def cyclic_reduce(g: NormalForm) -> CyclicDecomposition:
    xc, core = cyclic_reduce_codes(g.graph, g.codes)
    return CyclicDecomposition(_nf(g.graph, xc), _nf(g.graph, core))


def median_codes(graph: DefGraph, x, y, z):
    """Median of canonical x, y, z from the meets A = x ^ y, B = x ^ z and
    C = y ^ z: the normal form of x read on A u B followed by y read on C
    minus A (see "Median" in the module docstring)."""
    block = graph.block
    fields = _count_fields(block)
    z_index = _prefix_index(z)
    ax, ay = _meet_masks(fields, block, x, _prefix_index(y))
    bx, _ = _meet_masks(fields, block, x, z_index)
    cy, _ = _meet_masks(fields, block, y, z_index)
    return normal_codes(graph, _read(y, cy & ~ay), _read(x, ax | bx))


def median(x: NormalForm, y: NormalForm, z: NormalForm) -> NormalForm:
    """The cubical median m(x, y, z) = (x ^ y) v (y ^ z) v (z ^ x), the join
    of the three meets rooted at 1, by median_codes (see "Median" in the
    module docstring)."""
    if y.graph is not x.graph or z.graph is not x.graph:
        require_graph(x.graph, y, z)
    if x == y or x == z:
        return x
    if y == z:
        return y
    return _nf(x.graph, median_codes(x.graph, x.codes, y.codes, z.codes))


def dist(g: NormalForm, h: NormalForm) -> int:
    """|g| + |h| - 2|g ^ h| (see "Distances" in the module docstring)."""
    if h.graph is not g.graph:
        require_graph(g.graph, h)
    mu = meet_mask(g.graph.block, g.codes, h.codes)
    return len(g.codes) + len(h.codes) - 2 * mu.bit_count()


class ClosureResult(NamedTuple):
    elements: list          # tuples of NormalForm, in generation order
    truncated: bool
    cap: int


DEFAULT_CLOSURE_CAP = 100_000


# the most coordinate medians one closure may compute; see subalgebra_closure
CLOSURE_WORK = 10 ** 6


def subalgebra_closure(points, cap: int = DEFAULT_CLOSURE_CAP) -> ClosureResult:
    """Least median-closed superset of `points` (tuples of NormalForm of a
    common arity), median applied coordinatewise.  Stops with truncated=True
    once more than `cap` tuples are generated.

    A round closes the points it starts with, pts[:n], of which pts[old:n]
    are new.  The new point a = pts[ia] meets the pairs of
    pts[:old] + pts[ia + 1:n] in combinations order, so each unordered
    triple is evaluated once, in the round after its newest point was
    found.  The points come out in the order of the plain loop that meets
    every pair (pts[i], pts[j]), i <= j < n, for each new a: every pair
    skipped here either holds an earlier new point of the round, and the
    triple was evaluated before, when its first new point was a, or repeats
    a point, and m(a, b, b) = b, m(a, a, c) = a.  So no skipped pair adds a
    point, and the points found and their order are the plain loop's.

    A round evaluates C(n, 3) - C(old, 3) triples, so all the rounds up to
    one starting with n points evaluate C(n, 3); a round that would take
    the coordinate medians past CLOSURE_WORK is refused before it starts."""
    if cap < 1:
        raise OutOfRangeError("cap must be >= 1")
    pts = list(dict.fromkeys(map(tuple, points)))
    arity = len(pts[0]) if pts else 0
    if any(len(t) != arity for t in pts):
        raise ArityMismatchError("tuples of mixed arity")
    seen = set(pts)
    old = 0
    while old < len(pts) <= cap:
        n = len(pts)
        work = arity * comb(n, 3)
        if work > CLOSURE_WORK:
            raise OutOfRangeError(
                "closing %d points may take %d coordinate medians, more than %d"
                % (n, work, CLOSURE_WORK))
        triples = ((pts[ia], b, c) for ia in range(old, n)
                   for b, c in combinations(pts[:old] + pts[ia + 1:n], 2))
        for a, b, c in triples:
            m = tuple(map(median, a, b, c))
            if m not in seen:
                seen.add(m)
                pts.append(m)
                if len(pts) > cap:
                    break
        old = n
    return ClosureResult(pts, len(pts) > cap, cap)


# ---------------------------------------------------------------------------
# balls and trace machinery
# ---------------------------------------------------------------------------

# the most elements a ball may hold
BALL_CAP = 200_000


def _free_ball(ncodes: int, radius: int, cap: int):
    """(words, letters) of the ball of the given radius in the free group on
    ncodes / 2 generators, or None once it holds more than `cap` words.  A
    nonempty canonical word has at most ncodes - 1 canonical one-letter
    extensions, so no ball over ncodes letter codes is larger."""
    size, spelt, words = 1, 0, ncodes
    for length in range(1, radius + 1):
        size += words
        spelt += length * words
        if size > cap:
            return None
        words *= ncodes - 1
    return size, spelt


def _extensions(graph: DefGraph):
    """Letters as bitmasks over codes, for canonical extension (see the
    module docstring).  After w d, the letters allowed are after[d], those
    that do not commute with d (code_block[d]) except d^-1, and those allowed
    after w that pass d: through[d] holds the letters greater than d that
    commute with it.  letters(allowed) lists a mask's codes, ascending."""
    ncodes = 2 * len(graph)
    after = [bm & ~(1 << (d ^ 1)) for d, bm in enumerate(graph.code_block)]
    through = [~bm & ~((2 << d) - 1) for d, bm in enumerate(graph.code_block)]
    spelled = {}

    def letters(allowed):
        codes = spelled.get(allowed)
        if codes is None:
            codes = spelled[allowed] = [c for c in range(ncodes) if (allowed >> c) & 1]
        return codes

    return after, through, letters


def _require_ball_memory(size: int, spelt: int):
    # a word of L letters is a tuple of 8L + 40 bytes, its list slot, and a
    # (word, mask) pair while its level is listed: 8L + 50 to 8L + 105 bytes
    # measured on Z, Z^2, F2 and the path a-b-c
    _require_memory(8 * spelt + 128 * size, "a ball of up to %d elements", size)


def ball_count(graph: DefGraph, radius: int, cap: int = BALL_CAP) -> tuple:
    """(words, letters) of the ball of the given radius, exact, with no word
    listed; refused past the cap, or past the physical memory that listing
    it would take.  A word's extensions depend only on its allowed-letter
    mask, so the loop counts each level's words per mask."""
    after, through, letters = _extensions(graph)
    size, spelt, counts = 1, 0, {(1 << 2 * len(graph)) - 1: 1}
    for length in range(1, radius + 1):
        grown = {}
        for allowed, count in counts.items():
            for c in letters(allowed):
                m = after[c] | (allowed & through[c])
                grown[m] = grown.get(m, 0) + count
        words = sum(grown.values())
        size += words
        spelt += length * words
        if size > cap:
            raise BallCapExceededError("ball of radius %d exceeds cap %d" % (radius, cap))
        counts = grown
    _require_ball_memory(size, spelt)
    return size, spelt


def iter_ball_codes(graph: DefGraph, radius: int):
    """The canonical forms of length <= radius one at a time, in ball_codes'
    (length, codes) order, with no size check: each word is made as it is
    read, so a reader that stops early pays only for the words it read."""
    after, through, letters = _extensions(graph)
    yield ()
    level = [((), (1 << 2 * len(graph)) - 1)]
    for _ in range(radius):
        nxt = []
        for w, allowed in level:
            for c in letters(allowed):
                u = w + (c,)
                yield u
                nxt.append((u, after[c] | (allowed & through[c])))
        level = nxt


def ball_codes(graph: DefGraph, radius: int, cap: int = BALL_CAP) -> list:
    """All canonical forms of length <= radius, sorted by (length, codes),
    by canonical extension (see the module docstring): iter_ball_codes,
    listed.  The ball is refused past the cap or the physical memory before
    any word is listed: sized by the free group's ball (_free_ball) while
    that stays under the cap, else counted exactly (ball_count)."""
    counted = _free_ball(2 * len(graph), radius, cap)
    if counted is None:
        ball_count(graph, radius, cap)
    else:
        _require_ball_memory(*counted)
    return list(iter_ball_codes(graph, radius))


def ball(graph: DefGraph, radius: int, cap: int = BALL_CAP) -> list:
    return [_nf(graph, c) for c in ball_codes(graph, radius, cap)]


def _chain(block, codes, positions):
    """The positions, taken from `positions` in scan order, linked to the
    first of them by a chain of letters that do not commute (see "Wall
    spans" in the module docstring)."""
    linked = []
    reach = 0
    for k in positions:
        v = codes[k] >> 1
        if not linked or (reach >> v) & 1:
            linked.append(k)
            reach |= block[v]
    return linked


def realize_pair_span(graph: DefGraph, codes, i: int, j: int):
    """Reorder a reduced word as B * A * C where A is the dependence interval
    of positions i <= j.  Returns (B_codes, A_codes); the geodesic that starts
    at (start * B) and reads A crosses exactly the hyperplanes separating or
    equal to the crossings at i and j.  Two scans find them (see "Wall
    spans" in the module docstring).
    """
    after_i = set(_chain(graph.block, codes, range(i, len(codes))))
    if j not in after_i:
        raise TransverseHyperplanesError(
            "crossings %d and %d are transverse" % (i, j)
        )
    before_j = reversed(_chain(graph.block, codes, range(j, i - 1, -1)))
    bcodes = tuple(c for k, c in enumerate(codes) if k not in after_i)
    return bcodes, tuple(codes[k] for k in before_j if k in after_i)
