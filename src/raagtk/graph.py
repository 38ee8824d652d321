"""Defining graphs and their link/star/perp combinatorics.

A DefGraph is a finite simplicial graph with a *fixed total order* on its
vertices (declaration order).  The order is part of the data: every canonical
word form downstream is seeded by it, so two graphs with the same edges but
different vertex order are different objects.

Vertex subsets are handled as bitmasks internally and exposed as VertexSet.
"""

from __future__ import annotations

from .errors import EmptySetError, GraphFormatError, UnknownVertexError


def components(mask: int, nbrs) -> list:
    """Connected components of the subgraph induced on the bitmask `mask`,
    where nbrs[i] is a bitmask containing i's neighbours.  Components are
    bitmasks, in increasing order of their least vertex."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbrs[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


class DefGraph:
    __slots__ = ("vertices", "edges", "_index", "adj", "block", "code_block", "full", "_hash")

    def __init__(self, vertices, edges=()):
        vertices = tuple(str(v) for v in vertices)
        if not vertices:
            raise GraphFormatError("graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise GraphFormatError("duplicate vertex names")
        for v in vertices:
            if not v or v == "1" or any(ch.isspace() for ch in v) or "^" in v or "," in v or ";" in v:
                raise GraphFormatError("bad vertex name %r" % (v,))
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        self.full = (1 << n) - 1
        adj = [0] * n
        edgeset = set()
        for e in edges:
            u, w = e
            iu, iw = self.index(u), self.index(w)
            if iu == iw:
                raise GraphFormatError("loop at %s" % u)
            adj[iu] |= 1 << iw
            adj[iw] |= 1 << iu
            edgeset.add((min(iu, iw), max(iu, iw)))
        self.adj = tuple(adj)
        self.edges = frozenset(edgeset)
        # block[v] = vertices whose occurrences do not commute past v (v itself included)
        self.block = tuple((1 << i) | (self.full & ~adj[i]) for i in range(n))
        # code_block[c] = block[c >> 1] over letter codes: both codes 2x and
        # 2x + 1 of every vertex x in the block, so the word kernels test a
        # letter's code against it directly
        self.code_block = tuple(
            sum(3 << (2 * x) for x in range(n) if (self.block[c >> 1] >> x) & 1)
            for c in range(2 * n))
        self._hash = hash((self.vertices, self.edges))

    # -- basic queries ----------------------------------------------------

    def index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError("unknown vertex %r" % (v,)) from None

    def __contains__(self, v):
        return v in self._index

    def __len__(self):
        return len(self.vertices)

    def has_edge(self, u, w) -> bool:
        return bool(self.adj[self.index(u)] >> self.index(w) & 1)

    def edge_pairs(self):
        """Edges as vertex-name pairs, in graph order."""
        return [(self.vertices[i], self.vertices[j]) for i, j in sorted(self.edges)]

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, DefGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "DefGraph(%r, %r)" % (list(self.vertices), self.edge_pairs())

    # -- vertex sets -------------------------------------------------------

    def vset(self, names) -> "VertexSet":
        if isinstance(names, VertexSet):
            if names.graph != self:
                raise UnknownVertexError("vertex set from a different graph")
            return names
        mask = 0
        for v in names:
            mask |= 1 << self.index(v)
        return VertexSet(self, mask)

    def vset_mask(self, mask) -> "VertexSet":
        return VertexSet(self, mask & self.full)

    def link(self, v) -> "VertexSet":
        return VertexSet(self, self.adj[self.index(v)])

    def star(self, v) -> "VertexSet":
        i = self.index(v)
        return VertexSet(self, self.adj[i] | (1 << i))

    def link_mask(self, iv) -> int:
        return self.adj[iv]

    def perp(self, names) -> "VertexSet":
        """Common link: intersection of lk v over the subset (all vertices if empty)."""
        mask = self.full
        for v in self.vset(names):
            mask &= self.adj[self.index(v)]
        return VertexSet(self, mask)

    def perp_closed(self, names) -> "VertexSet":
        """Common star: intersection of st v over the subset (all vertices if empty)."""
        mask = self.full
        for v in self.vset(names):
            i = self.index(v)
            mask &= self.adj[i] | (1 << i)
        return VertexSet(self, mask)

    def join_decomposition(self, names) -> list:
        """Maximal join factors of the induced subgraph on a nonempty subset.

        Computed as connected components of the complement graph (block[i]
        is i's closed neighbourhood there), in graph order of their least
        vertex.
        """
        sub = self.vset(names)
        if not sub:
            raise EmptySetError("join decomposition of the empty set")
        return [VertexSet(self, m) for m in components(sub.mask, self.block)]

    # -- file format -------------------------------------------------------
    #
    # line 1:   vertices: a b c
    # then:     edge: x y        (one per line)
    # comments start with '#', blank lines ignored.

    @classmethod
    def parse(cls, text: str) -> "DefGraph":
        vertices = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("vertices:"):
                if vertices is not None:
                    raise GraphFormatError("line %d: repeated vertices line" % lineno)
                vertices = line[len("vertices:"):].split()
                if not vertices:
                    raise GraphFormatError("line %d: empty vertex list" % lineno)
            elif line.startswith("edge:"):
                if vertices is None:
                    raise GraphFormatError("line %d: edge before vertices" % lineno)
                pair = line[len("edge:"):].split()
                if len(pair) != 2:
                    raise GraphFormatError("line %d: edge needs two endpoints" % lineno)
                edges.append((pair[0], pair[1]))
            else:
                raise GraphFormatError("line %d: unrecognized line %r" % (lineno, line))
        if vertices is None:
            raise GraphFormatError("missing vertices line")
        return cls(vertices, edges)

    @classmethod
    def load(cls, path) -> "DefGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def dump(self) -> str:
        lines = ["vertices: " + " ".join(self.vertices)]
        for u, w in self.edge_pairs():
            lines.append("edge: %s %s" % (u, w))
        return "\n".join(lines) + "\n"


class VertexSet:
    """A subset of a graph's vertices, iterated in graph order."""

    __slots__ = ("graph", "mask")

    def __init__(self, graph: DefGraph, mask: int):
        self.graph = graph
        self.mask = mask & graph.full

    def names(self):
        g = self.graph
        return tuple(g.vertices[i] for i in range(len(g)) if self.mask >> i & 1)

    def indices(self):
        return tuple(i for i in range(len(self.graph)) if self.mask >> i & 1)

    def __iter__(self):
        return iter(self.names())

    def __len__(self):
        return bin(self.mask).count("1")

    def __bool__(self):
        return self.mask != 0

    def __contains__(self, v):
        return bool(self.mask >> self.graph.index(v) & 1)

    def __eq__(self, other):
        if isinstance(other, VertexSet):
            return self.graph == other.graph and self.mask == other.mask
        if isinstance(other, (set, frozenset, tuple, list)):
            return set(self.names()) == set(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.graph, self.mask))

    def __and__(self, other):
        return VertexSet(self.graph, self.mask & other.mask)

    def __or__(self, other):
        return VertexSet(self.graph, self.mask | other.mask)

    def __sub__(self, other):
        return VertexSet(self.graph, self.mask & ~other.mask)

    def issubset(self, other):
        return not (self.mask & ~other.mask)

    def __repr__(self):
        return "{%s}" % ",".join(self.names())
