"""Finite-radius median-defect measurement for automorphisms, and the exact
certification of coarse-median preservation.

The defect of a map F at radius R is the largest distance from F(p) to the
median of (F(p), F(x), F(y)) over ball triples with p between x and y.  In a
median graph that distance is the Gromov product
(d(Fp,Fx) + d(Fp,Fy) - d(Fx,Fy)) / 2, and the scan reads two pairwise
distance tables: W for the ball, DD for its image.  Both count hyperplanes:
the distance between two vertices of the cube complex is the number of
hyperplanes separating them.  W weights each hyperplane of the ball by
max(1, |F(l)|) for its label l, the length of the label's image; since
every weight is at least 1, p is between x and y iff
W(x,p) + W(p,y) = W(x,y), and since W >= DD, W - DD bounds how far from the
median a triple can sit.  A table's rows are sums along the prefix trie of
the words, taken by ancestor doubling in ceil(log2 depth) rounds over at
most two nodes a word: a deeper trie, of long images, has its single-child
chains contracted first (_distance_table); one function makes the trie of
the ball and that of its images.  The ball is prefix-closed, since every prefix of a canonical
word is canonical, so it is its own trie, and its parent pointers also
grow the images: the image of a word continues the normal form of its
parent's image by the image of its last letter.  The scan reads
one fused table in which "between" and "how far from the median" are a
single integer, a block of rows at a time.  Past its first block it skips
every block that cannot hold the witness: each row's values are at most
max(W - DD) over the row, and the scan's column p = 1 bounds the maximum
from below (_scan).
For folds and partial conjugations the defect never exceeds |z|
(defect_ceiling), so their scan stops at the first block that reaches it.
Above radius |z| they first read the scan's row 0, x = 1, where a value
needs only the lengths of three images; when it reaches 2|z| that is the
answer, no table is built and the ball is counted, not listed (cmp_defect).
The tables and the scan are exact integer numpy code; row 0 is plain Python
and loads no numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidSplittingError, OutOfRangeError, RaagError
from .words import (NormalForm, _nf, _require_memory, ball_codes, ball_count, dist,
                    hyperplane_columns, identity, iter_ball_codes, median, normal_codes,
                    normalize)
from . import dls as D

# numpy is most of a command's start-up and only the tables need it, so the
# functions that build or scan them import it themselves
if TYPE_CHECKING:
    import numpy as np


class DefectReport(NamedTuple):
    radius: int
    defect: int
    witness: tuple        # (x, y, p) NormalForms achieving the defect
    ball_size: int

    def as_dict(self):
        x, y, p = self.witness
        return {
            "radius": self.radius,
            "defect": self.defect,
            "witness": {"x": str(x), "y": str(y), "p": str(p)},
            "ball_size": self.ball_size,
        }


_INT_TYPES = None     # ((max, dtype) for int16, int32, int64), on first use


def _int_dtype(top: int):
    """The smallest of int16/int32/int64 that holds `top`."""
    global _INT_TYPES
    if _INT_TYPES is None:
        import numpy as np
        _INT_TYPES = tuple((int(np.iinfo(t).max), t) for t in (np.int16, np.int32, np.int64))
    return next(t for top_t, t in _INT_TYPES if top <= top_t)


class _PrefixTrie(NamedTuple):
    """The prefix trie of a list of canonical words.  Node 0 is the empty
    word; node t > 0 extends node parent[t] by one letter, whose edge crosses
    the hyperplane with id column[t].  Prefixes of canonical words are
    canonical, so every node is a geodesic and crosses each hyperplane at
    most once: H(t), the set of hyperplanes separating 1 from node t, holds
    the columns of t and of its ancestors."""
    parent: np.ndarray      # parent[0] = 0
    column: np.ndarray
    depth: np.ndarray
    ends: np.ndarray        # node of each word
    hyperplanes: int
    gates: int              # gates memoised by words.hyperplane_columns


def _trie(graph, parent, letter, depth, ends) -> _PrefixTrie:
    """The trie with these parent, last-letter and depth lists (parent[t] < t)
    and these word nodes.  Each edge's hyperplane is resolved by
    words.hyperplane_columns."""
    import numpy as np
    col, hyperplanes, gates = hyperplane_columns(graph, parent, letter)
    return _PrefixTrie(np.array(parent, dtype=np.intp), np.array(col, dtype=np.intp),
                       np.array(depth), np.array(ends, dtype=np.intp), hyperplanes, gates)


def _prefix_trie(graph, words) -> _PrefixTrie:
    """Walk every word through its prefix trie, adding a node for each new
    prefix, and resolve the hyperplanes of the trie's edges (_trie).

    Chains.  A node t that ends no word and has exactly one child has the
    child t + 1.  t was made by the walk of some word w, as a new node with
    no children, and w does not end at t, so the walk's next step leaves t
    by a letter that t has no edge for yet and makes the next node, t + 1,
    its child.  So the single-child chains that _contraction removes are
    runs of consecutive ids."""
    nc = 2 * len(graph)
    step = [0] * nc     # [node * nc + code]: node of the prefix extended by code, or 0
    parent, letter, depth, ends = [0], [0], [0], []
    for w in words:
        node = 0
        for c in w:
            at = node * nc + c
            nxt = step[at]
            if not nxt:
                nxt = step[at] = len(parent)
                step += [0] * nc
                parent.append(node)
                letter.append(c)
                depth.append(depth[node] + 1)
            node = nxt
        ends.append(node)
    return _trie(graph, parent, letter, depth, ends)


def _ball_trie(graph, ball, letters):
    """The prefix trie of a ball from ball_codes, whose node i is ball[i],
    and the images of its words under the map with this dls.letter_images
    table.  ball_codes lists shorter words first, and every prefix of a
    canonical word is canonical, so the parent of ball[i] is ball[i][:-1],
    an earlier word of the ball.  The image of a word is its parent's image
    times the image of its last letter, and the parent's image is
    canonical, so its normal form continues the insertion from there."""
    index = {w: i for i, w in enumerate(ball)}
    parent = [0] + [index[w[:-1]] for w in ball[1:]]
    last = [0] + [w[-1] for w in ball[1:]]
    images = [()]
    for up, c in zip(parent[1:], last[1:]):
        images.append(normal_codes(graph, letters[c], images[up]))
    return _trie(graph, parent, last, list(map(len, ball)), range(len(ball))), images


def _label_weights(ball, trie: _PrefixTrie, letters):
    """max(1, |F(l)|) for each hyperplane of the ball's trie (_ball_trie),
    where l is the last letter of any word whose node adds the hyperplane
    and |F(l)| is read from the dls.letter_images table: the weights of the
    ball's table W (_scan).  The floor of 1 keeps W deciding betweenness
    when a raw map sends a generator to 1."""
    import numpy as np
    size = np.array([max(1, len(img)) for img in letters])
    weight = np.zeros(trie.hyperplanes, dtype=size.dtype)
    weight[trie.column[1:]] = size[[w[-1] for w in ball[1:]]]
    return weight


# nodes a word above which _doubled_rows contracts a trie's single-child
# chains first; a ball's trie never has more.  Contracting every trie made
# defect_sparse's op_p99_ms 47% slower, its slowest calls building two
# tables of under ten nodes (BENCH_one_regime.json, always_contract)
_DOUBLING_NODES = 2


def _distance_table(trie: _PrefixTrie, weight=None):
    """Pairwise distances between the trie's words, counted as separating
    hyperplanes: d(u, v) = |H(u)| + |H(v)| - 2|H(u) & H(v)|.  A node's row
    of |H(node) & H(w)| over all words w is the sum, over the node and its
    ancestors, of the incidence row of each one's column: the words w whose
    H(w) holds it.  The rows are summed by ancestor doubling in
    ceil(log2 depth) rounds over at most 2n nodes for n words, a deeper
    trie's single-child chains contracted first (_doubled_rows).  The table
    has the smallest dtype that holds twice its largest entry, since the
    scan adds two entries.

    With `weight`, an integer array over the hyperplane ids, each hyperplane
    counts its weight instead of 1: the incidence row a node adds is that of
    its own column, so it is multiplied by that column's weight, and |H| is
    read off the diagonal of the shared sums.  This is the ball's table W
    (_scan); the image table DD is unweighted."""
    longest = int(trie.depth[trie.ends].max(initial=0))
    top = longest if weight is None else longest * int(weight.max(initial=0))
    # every entry, and the sum |H(u)| + |H(v)| on the way to it, is at most 2*top
    dtype = _int_dtype(4 * top)
    scale = None if weight is None else weight.astype(dtype)[trie.column[1:], None]
    shared = _doubled_rows(trie, longest, dtype, scale)
    sizes = shared.diagonal().copy()
    shared *= -2
    shared += sizes[:, None]
    shared += sizes
    return shared.astype(_int_dtype(2 * int(shared.max(initial=0))), copy=False)


def _contraction(trie: _PrefixTrie):
    """The trie with its single-child chains contracted, for _contracted_rows:
    (parent, ends, owner, starts, lengths).  It keeps the root, the word
    ends and every node with other than one child, at most 2n nodes for
    n >= 1 words: its leaves are word ends, and a tree has fewer nodes of
    two or more children than leaves.  Every other node ends no word and
    has one child, the next id (_prefix_trie), so the nodes between two
    kept ids k' < k form a chain from k' + 1 down to k, and k takes that
    segment k' + 1..k of ids; its parent is the kept parent of k' + 1.
    Node t > 0 belongs to kept node owner[t - 1], and kept node j > 0 owns
    the lengths[j - 1] positions of column[1:] from starts[j - 1] on."""
    import numpy as np
    parent, ends = trie.parent, trie.ends
    keep = np.bincount(parent[1:], minlength=len(parent)) != 1
    keep[0] = keep[ends] = True
    index = np.cumsum(keep)         # [t]: the kept nodes at or before t
    kept = np.flatnonzero(keep)
    starts = kept[:-1]
    up = np.concatenate(([0], index[parent[starts + 1]] - 1))
    return up, index[ends] - 1, index[:-1], starts, kept[1:] - starts


def _doubled_rows(trie: _PrefixTrie, longest: int, dtype, scale):
    """The words' rows of |H(w) & H(w')| by ancestor doubling (pointer
    jumping: J. C. Wyllie, The Complexity of Parallel Computations, 1979).
    up sends each node to its 2^r-th ancestor after r rounds, or to the
    root if it has fewer, and the root's entries are zero.  A round adds to
    each node's entries those of up[node] and then sets up = up[up]; after
    round r a node holds the sum over itself and its 2^r - 1 nearest
    ancestors, and a chain that reaches the root adds zero.  So
    ceil(log2 longest) rounds sum every node's path to the root.

    The same ladder of up arrays sums twice.  First H(node) as bits over the
    hyperplanes, with OR for +; then the rows, where node t > 0 starts from
    the incidence row of column[t], whether H(w) holds it for each word w,
    times its weight when `scale` (per node t > 0) is given.  A trie of more
    than _DOUBLING_NODES nodes a word is contracted first (_contraction): a
    kept node starts from the OR of its segment's bits and the sum of its
    segment's incidence rows, the first node's and then the others', summed
    for all segments of one length at once, each read off the words' bits."""
    import numpy as np
    parent, column, ends = trie.parent, trie.column[1:], trie.ends
    contract = len(parent) > _DOUBLING_NODES * len(ends)
    if contract:
        parent, ends, owner, starts, lengths = _contraction(trie)
    else:
        owner = np.arange(1, len(parent))
    nodes = len(parent)
    ladder, up = [], parent
    for _ in range(max(longest - 1, 0).bit_length()):
        ladder.append(up)
        up = up[up]
    byte, mask = column >> 3, np.left_shift(np.uint8(1), (column & 7).astype(np.uint8))
    bits = np.zeros((nodes, (trie.hyperplanes + 7) >> 3), dtype=np.uint8)
    np.bitwise_or.at(bits, (owner, byte), mask)
    for up in ladder:
        bits |= bits[up]
    held = bits[ends]           # [word, byte]: that byte of H(word)
    del bits
    rows = np.empty((nodes, len(ends)), dtype=dtype)
    rows[0] = 0
    if not contract:
        incidence = np.ascontiguousarray(
            np.unpackbits(held, axis=1, count=trie.hyperplanes, bitorder="little").T)[column]
        if scale is None:
            rows[1:] = incidence
        else:
            np.multiply(incidence, scale, out=rows[1:])
    else:
        held = np.ascontiguousarray(held.T)

        def incidence(at):
            """The incidence rows of the nodes at these positions of column[1:]."""
            crossed = held[byte[at]]
            crossed &= mask[at, None]
            crossed = np.not_equal(crossed, 0, out=crossed.view(np.bool_))
            return crossed if scale is None else crossed * scale[at]

        rows[1:] = incidence(starts)
        for length in (np.flatnonzero(np.bincount(lengths, minlength=2)[2:]) + 2).tolist():
            group = np.flatnonzero(lengths == length)
            at = (starts[group, None] + np.arange(1, length)).ravel()
            rows[group + 1] += incidence(at).reshape(len(group), length - 1, -1).sum(axis=1, dtype=dtype)
    del held, incidence
    for up in ladder:
        rows += rows[up]
    return rows[ends]


# entries in one block of the scan, which holds _block_rows(n) rows of n*n
# entries: from n = 257 on, a block is one row
_SCAN_BLOCK = 1 << 16


def _block_rows(n: int) -> int:
    return max(1, _SCAN_BLOCK // (n * n))


def _scan(W, DD, stop=None):
    """Least (i, j, k), j >= i, maximising DD[i, k] + DD[k, j] - DD[i, j] over k
    between i and j, with that maximum.  W is the ball's weighted table
    (_label_weights): it decides betweenness and bounds the rows, both
    below.  `stop`, if given, must be an upper bound on that maximum; the
    scan ends after the first block whose best value reaches it.

    Betweenness.  Call T[i, k] + T[k, j] - T[i, j] the excess of a table T
    on the triple.  A hyperplane that separates k from both i and j adds its
    weight to W[i, k] and to W[k, j] and nothing to W[i, j].  One that
    separates i from j has k on the side of exactly one of them, so it adds
    its weight to W[i, j] and to exactly one of W[i, k] and W[k, j].  Any
    other adds nothing to the three.  So W's excess is twice the weight of
    the hyperplanes that separate k from both i and j: even, 0 iff k is
    between i and j, and at least 2 otherwise, since every weight is at
    least 1.  DD's excess, the triple's value, is at least 0 and at most
    2*max(DD) by the triangle inequality (DD[i, k] <= DD[i, j] + DD[j, k]).

    The scan reads one table E = DD - c*W with c = max(DD) + 1.  E's excess
    is DD's excess minus c times W's: the triple's value on a between
    triple, and at most 2*max(DD) - 2c = -2 below 0 on any other.  (i, i, i)
    is between with value 0, so a row's first maximum is its least witness.

    Rows go in blocks of _block_rows(n): rows i0 <= i < i1, each over the
    columns j >= i0.  A cell (i, j, k) with j < i is no triple of the scan,
    but E is symmetric, so it holds the value of its mirror (j, i, k), a
    triple of the scan in the same block: i0 <= j < i puts row j in the
    block and column i in its range.  The mirror comes first in the block's
    flat (row, column, k) order, so the block's first flat maximum is never
    such a cell, and on the scan's own cells that order is the order of
    (i, j, k): the first flat maximum is the block's least witness.  Blocks
    go in ascending i0, so a later block only replaces the witness with a
    strictly larger value.  Once the best value reaches `stop`, no later
    block can exceed it, so the witness found is already the least one and
    the scan ends there.

    The bound.  F(u^-1 w) is a product of one letter image per hyperplane
    separating u from w, and each weight is at least the length of its
    letter image, so DD <= W.  For k between i and j, W's excess is 0, so
    the triple's value is at most W[i, k] + W[k, j] - DD[i, j] =
    (W - DD)[i, j].  So every cell of row i, the value of its own triple or
    of a mirror's, is at most reach[i] = max over j of (W - DD)[i, j].  The
    scan's column k = 0 (p = 1) over all (i, j) is one n x n pass; its
    maximum `low` is the value of a triple, so the scan's maximum M is at
    least low.  A block whose rows all have reach < max(low, best + 1) is
    skipped.  Proof that the answer is unchanged: the answer is the first
    cell in block and flat order that attains M, since blocks go in order
    and replace the witness only with a larger value.  A skipped block with
    reach < low <= M holds no cell that attains M.  One with reach <= best
    holds none above best: if best < M none attains M, and if best = M the
    first cell that attains M came in an earlier block.  So the first block
    that attains M is scanned, sets best = M and keeps its first flat
    maximum whatever the blocks before it left in best; later blocks
    cannot replace it.  The stop is reached only there, since stop >= M.
    `low` and W - DD are two n x n passes through the block buffer, so the
    bound is computed only once the scan goes on past block 0."""
    import numpy as np
    n = len(W)
    topd = int(DD.max(initial=0))
    E = W.astype(_scan_dtype(int(W.max(initial=0)), topd))
    E *= -(topd + 1)
    E += DD
    rows = _block_rows(n)
    vals = np.empty(rows * n * n, dtype=E.dtype)
    tops, sides = E[:, None], E[:, :, None]
    best, at, reach = -1, None, None
    for i0 in range(0, n, rows):
        if i0:
            if reach is None:
                v = vals[:n * n].reshape(n, n)
                np.add(E[:, :1], E[0], out=v)
                v -= E
                low = int(v.max())
                np.subtract(W, DD, out=v)
                reach = np.maximum.reduceat(v.max(axis=1), range(0, n, rows)).tolist()
            if reach[i0 // rows] < max(low, best + 1):
                continue
        top, m = tops[i0:i0 + rows], n - i0
        v = vals[:len(top) * m * n].reshape(-1, m, n)
        np.add(top, E[i0:], out=v)
        v -= sides[i0:i0 + rows, i0:]
        ijk = int(v.argmax())
        if vals[ijk] > best:
            best = int(vals[ijk])
            i, jk = divmod(ijk, m * n)
            j, k = divmod(jk, n)
            at = (i0 + i, i0 + j, k)
            if stop is not None and best >= stop:
                break
    return best, at


def _scan_dtype(topw: int, topd: int):
    """dtype of the fused scan table for a ball table W and an image table
    DD with the given largest entries: a triple value is a sum of three
    entries of E = DD - (topd + 1)*W.  It also holds W - DD."""
    return _int_dtype(3 * ((topd + 1) * topw + topd))


def _scan_bytes(n: int, topw: int, topd: int) -> int:
    """Bytes of the scan's arrays for tables W and DD with the given largest
    entries: E, and its block buffer of rows*n*n entries (n*n for one row),
    which also holds column k = 0 and then W - DD; and the bound's row and
    block maxima, at most 8 bytes an entry, and the block maxima as a list,
    a pointer and an int object each.  W and DD themselves are counted with
    the tables (_check_memory)."""
    import numpy as np
    return ((n * n + _block_rows(n) * n * n) * np.dtype(_scan_dtype(topw, topd)).itemsize
            + 56 * n + 64)


# bytes of the image trie's Python objects per memoised gate, beyond the
# walk's step slots: the gate memo, the hash-consed gates, the columns and
# the node lists.  There is at least one gate a node, and a scratch run over
# catalog maps and folds a -> c^k a (k <= 640) peaked at 414 bytes a gate.
_GATE_BYTES = 512


def _gate_bound(graph, longest: int, letters: int) -> int:
    """Upper bound on the gates words.hyperplane_columns memoises for the
    trie of images of `letters` letters in all, the longest of `longest`:
    the trie has at most `letters` nodes besides the root, and each holds at
    most min(longest, sum over v of 2^|lk v|) gates."""
    return letters * min(longest, sum(1 << lk.bit_count() for lk in graph.adj))


def _table_bytes(words: int, nodes: int, hyperplanes: int, longest: int, size: int) -> int:
    """Upper bound on the bytes _distance_table allocates for a trie of
    these sizes, its words at most `longest` letters, whose rows take `size`
    bytes an entry.  It holds the shared sums and the table cast from them,
    a few index arrays a node, the ladder of the at most
    min(nodes, 2 * words + 1) nodes _doubled_rows sums over, and the largest
    of three phases: their bits and its gather; the words' bits and the rows
    with the incidence rows added to them, one byte an entry; the rows and
    their gather.  Those incidence rows are, for a trie doubled as it is,
    all of them, and before them the words' bits unpacked and transposed;
    contracted, the segments' first ones and their weighted copy, or the
    other ones of the segments of one length with their sums and the gather
    of the rows they add to (a weighted trie is a ball's, which is not
    contracted).  Array headers add a few kilobytes."""
    kept = min(nodes, 2 * words + 1)
    packed = (hyperplanes + 7) >> 3
    rest = nodes - kept
    if nodes <= _DOUBLING_NODES * words:
        added = hyperplanes + nodes
    else:
        added = max(kept * (1 + size), rest + 2 * min(kept, rest) * size)
    phases = (2 * (kept + words) * packed, words * (packed + kept * size + added),
              2 * kept * words * size)
    return (2 * words * words * size + (1 << 14) + 48 * nodes
            + 8 * kept * (max(longest - 1, 0).bit_length() + 4) + max(phases))


def _tables_bytes(ball_trie: _PrefixTrie, longest: int, spelt: int, heaviest: int):
    """Upper bounds on the bytes _distance_table allocates for the ball's W
    and for the image table DD (_table_bytes), and on the largest entries of
    W and DD: (W bytes, DD bytes, W top, DD top).  The images are known by
    their longest length and their total letters, the map by the length of
    its longest letter image.  Entries are bounded by word lengths: an
    entry of DD is at most the sum of two image lengths, and an entry of W
    at most the sum of two ball lengths times the largest weight
    (_label_weights).  The image trie is bounded from the images alone: its
    depth is the longest image, and it has at most one node and one
    hyperplane per image letter besides the root.  DD counts the larger of
    the two paths of _doubled_rows, at the most nodes each can take, since
    the trie decides which runs."""
    import numpy as np
    n = len(ball_trie.ends)
    depth = int(ball_trie.depth.max(initial=0))
    topw, topd = 2 * depth * heaviest, 2 * longest
    size = lambda top: np.dtype(_int_dtype(2 * top)).itemsize
    need_w = _table_bytes(n, len(ball_trie.parent), ball_trie.hyperplanes, depth, size(topw))
    need_d = max(_table_bytes(n, nodes, min(spelt, nodes - 1), longest, size(topd))
                 for nodes in (min(spelt + 1, _DOUBLING_NODES * n), spelt + 1))
    return need_w, need_d, topw, topd


def _check_memory(graph, ball_trie: _PrefixTrie, images, letters):
    """Raise MemoryLimitError if the arrays of one defect computation would
    not fit in physical memory, before the image trie is built.  It counts
    the two tables with what builds them (_tables_bytes), the scan, and the
    image trie, whose walk has 2|V| step slots a node and at most
    _gate_bound gates."""
    n = len(ball_trie.ends)
    longest, spelt = max(map(len, images)), sum(map(len, images))
    need_w, need_d, topw, topd = _tables_bytes(ball_trie, longest, spelt,
                                               max(1, *map(len, letters)))
    need = need_w + need_d + _scan_bytes(n, topw, topd)
    need += 16 * len(graph) * (spelt + 1) + _GATE_BYTES * _gate_bound(graph, longest, spelt)
    _require_memory(need, "a defect scan over %d ball elements", n)


def defect_ceiling(phi):
    """|z| for a fold or a partial conjugation with twist element z, which
    bounds its defect at every radius; None for every other map.

    Notation.  The Cayley graph is the 1-skeleton of a CAT(0) cube complex.
    H(g) is the set of hyperplanes separating 1 from g, so |g| = |H(g)|; g is
    a prefix of h (g <= h) iff H(g) lies in H(h); the meet x ^ y = m(1, x, y)
    has H(x ^ y) = H(x) & H(y); and H(gt) is the symmetric difference of H(g)
    and gH(t).  A hyperplane is labelled by the vertex of its dual edges.
    Translates keep the label, and hyperplanes that cross have adjacent
    labels, so two with one label never cross.  |g|_l counts the members of
    H(g) labelled l, that is the letters l of g, and A_S is the subgroup on
    the vertex set S.

    Rooted identity.  D(R) = max{|F(x) ^ F(y)| : x ^ y = 1, |x| + |y| <= 2R}.
    For a scanned triple (x, y, p) put x' = p^-1 x and y' = p^-1 y.  Left
    multiplication by F(p)^-1 is an isometry that keeps medians, and
    F(p^-1 x) = F(p)^-1 F(x), so the triple's value d(Fp, m(Fp, Fx, Fy)) is
    d(1, m(1, Fx', Fy')) = |Fx' ^ Fy'|.  p is between x and y iff
    d(x, p) + d(p, y) = d(x, y), that is |x'| + |y'| = |x'^-1 y'|, which is
    |x'| + |y'| - 2|x' ^ y'|; so iff x' ^ y' = 1, and then
    |x'| + |y'| = d(x, y) <= 2R.  Conversely, for such x' and y' the path
    x' -> 1 -> y' read by x'^-1 y' is a geodesic of length L <= 2R.  Its
    vertex q at distance floor(L/2) from x' is within
    ceil(L/2) <= R of both ends, and within R of 1, since 1 lies on the
    geodesic from q to one of the ends.  So p = q^-1, x = q^-1 x' and
    y = q^-1 y' lie in the ball, p is between x and y, and the triple's
    value is |Fx' ^ Fy'|.

    (A) Let psi be an automorphism and u a vertex with psi(s) in A_{V-u} for
    every vertex s != u, psi(u) = e u e' for some e, e' in A_{V-u}, and
    psi(A_lk(u)) = e A_lk(u) e^-1.  The u-hyperplane of an edge (k, ku) is
    named by the coset k A_lk(u); Phi sends it to the one named by
    psi(k) e A_lk(u), which is well defined and one to one by the last
    condition.  Then the u-hyperplanes in H(psi(w)) are Phi of those in
    H(w).  Substitute the images into a geodesic word for w: the path's
    u-edges are one per letter u^+-1 of w, and each crosses Phi of the
    hyperplane that the letter crosses (for u^-1 read at k, the coset of
    psi(k u^-1) e is that of psi(k) e'^-1 u^-1).  A geodesic crosses a
    hyperplane at most once, and a hyperplane separates 1 from psi(w) iff
    the path crosses it an odd number of times.  So if x ^ y = 1, no
    u-hyperplane separates 1 from both psi(x) and psi(y).
    (B) Let h be the largest prefix of x in A_S, and hs <= x for a letter s
    of a vertex u outside S.  If (A) holds for u and Phi sends the
    hyperplane of the edge (h, hs) to that of an edge (q, qs) with q in A_S,
    then for p in A_S with p <= psi(x) every member of H(p) - H(q) has its
    label in lk(u).  Indeed that hyperplane W separates 1 from psi(x), by
    (A), and A_S, which holds 1, p and q, lies on one side of it and qs on
    the other.  A member G of H(p) - H(q) is not W, so it has 1, q and qs on
    one side and p, psi(x) on the other.  Then 1, p, psi(x) and qs fill the
    four quadrants of G and W, so G and W cross.
    (C) If a ^ b = 1, then |at ^ bt|_l <= |t|_l for every t and label l.
    Let T_a = aH(t) and T_b = bH(t), the hyperplanes separating a from at
    and b from bt; lam = b a^-1 maps T_a onto T_b.  H(a) and H(b) are
    disjoint, so H(at ^ bt) is the disjoint union of P = H(a) & T_b - T_a,
    Q = H(b) & T_a - T_b and N = T_a & T_b - H(a) - H(b), whose members split
    the points as {1, b | a, at, bt}, {1, a | b, at, bt} and
    {1, a, b | at, bt}.  For G in P follow G, lam^-1 G, lam^-2 G, ... and
    let f(G) be the first term after G that is not in N.  A term in P or N
    separates b from bt and has at on the side of bt, so the next term lies
    in T_a, and lam^-1 maps the at side of a term onto the at side of the
    next.  f(G) is not in Q: if the second term were in Q, the points 1, a,
    b and at would put it across G; otherwise the second term is in N, the
    points 1, a and at put its at side inside that of G, so the at side of
    f(G) lies inside that of G, which misses b, while every member of Q has
    b on its at side.  The chain ends, since a repeated term would make G
    itself a term in N; and f is one to one, since of two chains with one
    end the longer would pass through the start of the other.  f keeps
    labels and maps P into T_a - Q - N, so
    |P|_l + |Q|_l + |N|_l <= |T_a|_l = |t|_l.

    Ceilings.  Let x ^ y = 1 and g = F(x) ^ F(y).

    A fold F: v -> zv has no letter of z in st(v), and every letter of z is
    adjacent to all of lk(v).  (A) holds for u = v with e = z, e' = 1, and
    for every other u outside supp(z) with e = e' = 1 (if v is in lk(u),
    then u is in lk(v) and zv lies in A_lk(u)).  So the labels of g lie in
    supp(z), and g lies in A_S for S = V - v.  If x is in A_S, then
    g <= F(x) = x; put q_x = x.  Otherwise h v^+-1 <= x for the largest
    prefix h of x in A_S, and Phi sends the edge (h, hv) to (hz, hzv) and
    (h, hv^-1) to itself.  By (B), with q_x = hz or h, the members of
    H(g) - H(q_x) have labels in lk(v) & supp(z), which is empty, so
    g <= q_x.  Likewise g <= q_y.  Prefixes of x and of y meet in 1, H(hz)
    lies in the union of H(h) and hH(z), and (C) covers q_x = h_x z and
    q_y = h_y z, so |g| <= |q_x ^ q_y| <= |z|.

    A partial conjugation F on the splitting (A, B, C) fixes A_A and
    conjugates A_B by z.  The letters of z lie in A and have C in their
    stars, and no vertex of A - C is adjacent to one of B - C.  (A) holds
    for u in B - C with e = z, e' = z^-1 (lk(u) lies in B), and for u in
    A - supp(z) with e = e' = 1 (lk(u) lies in A if u is not in C, and z
    lies in A_lk(u) if u is in C).  So g lies in A_supp(z), inside A_A.
    (1) Labels l of z adjacent to no vertex of B - C, such as every label in
    A - C.  If x is in A_A, put q_x = x.  Otherwise hs <= x for the largest
    prefix h of x in A_A and a letter s of some u in B - C, and Phi sends
    (h, hs) to (hz, hzs).  With q_x = hz, (B) puts the l-members of H(g)
    in H(q_x), and as for folds |g|_l <= |q_x ^ q_y|_l <= |z|_l.
    (2) Labels c of z in C.  c is adjacent to every other letter of z, so
    g = c^m g1 and z = c^k z1 with no c in g1 or z1, and the c-members of
    H(g) are the hyperplanes of the edges (c^(i-1), c^i) for 0 < i <= m
    (m > 0; m < 0 is alike).  F = F1 F2 for the partial conjugations F1 by
    z1 and F2 by c^k.  (A) holds for F1 and u = c, and its Phi fixes each of
    those hyperplanes, so they separate 1 from F2(x) and from F2(y):
    |m| <= |F2(x) ^ F2(y)|.  F2 fixes the vertices B0 of B - C adjacent to
    c, so it is the identity if B0 = B - C, and otherwise the partial
    conjugation by c^k on the splitting whose A side also holds B0 and
    whose C side also holds the vertices of B0 adjacent to the rest of
    B - C (c centralises them).  There c is adjacent to no vertex of the
    B side minus the C side, and (1) gives |F2(x) ^ F2(y)| <= |k|.
    Summed over the labels of z, |g| <= |z|.  With the rooted identity,
    D(R) <= |z| at every radius."""
    if isinstance(phi, D.DlsAutomorphism) and phi.kind in (D.FOLD, D.PARTIAL_CONJUGATION):
        return len(phi.twist_element)
    return None


def _row_zero(graph, ball, letters, top):
    """The least (y, p) in ball order with p <= y and
    |F(p)| + |F(p^-1 y)| - |F(y)| = top, or None: the first cell of row 0 of
    the scan that reaches `top` (see cmp_defect).  `ball` is read in order
    and no further than the witness's y.  The images are grown as in
    _ball_trie, from the same letter table, but only for the words the row
    reads, memoised on codes.

    When top > 0, words of fewer than 2 letters and the ideals p = 1 and
    p = y are skipped: each of these cells has value 0, since F(1) = 1.  At
    top = 0 (z = 1) the answer is the first cell, (1, 1, 1), so nothing is
    skipped there."""
    block = graph.block
    images = {(): ()}
    least = 2 if top else 0

    def image(w):
        img = images.get(w)
        if img is None:
            img = images[w] = normal_codes(graph, letters[w[-1]], image(w[:-1]))
        return img

    for y in ball:
        if len(y) < least:
            continue
        need = len(image(y)) + top
        # the ideals of y's positions, as bitmasks and readings: position j
        # joins an ideal of the earlier positions iff it holds every earlier
        # letter that does not commute with y[j]
        ideals = [(0, ())]
        for j, c in enumerate(y):
            bm = block[c >> 1]
            below = 0
            for i in range(j):
                if (bm >> (y[i] >> 1)) & 1:
                    below |= 1 << i
            ideals += [(m | 1 << j, p + (c,)) for m, p in ideals if m & below == below]
        if top:
            ideals = ideals[1:-1]
        hits = []
        for m, p in ideals:
            fp = len(image(p))
            # |F(y)| >= |F(p^-1 y)| - |F(p)|, so the value is at most 2|F(p)|
            if 2 * fp < top:
                continue
            rest = normal_codes(graph, tuple(c for i, c in enumerate(y) if not (m >> i) & 1))
            if fp + len(image(rest)) == need:
                hits.append(p)
        if hits:
            return y, min(hits, key=lambda p: (len(p), p))
    return None


def cmp_defect(phi, radius: int) -> DefectReport:
    """Exhaustive defect of the automorphism over the ball of the given
    radius: max over ball elements x, y and p between them (also in the
    ball) of the distance from image(p) to the median of the three images.
    The witness is the lexicographically least maximizing triple in ball
    order.  Folds and partial conjugations end the scan at twice their
    defect_ceiling c, the largest value a scanned triple can take, and when
    R > c they read row 0 of the scan first, with no table.

    Row 0.  The scan's first row is x = ball[0] = 1.  There p is between 1
    and y iff |p| + d(p, y) = |y|, that is p <= y in the prefix order, and
    such a p is y read on an ideal of its positions, a canonical word
    (words, "Meets" and "Median"); p^-1 y is y read on the complementary positions, which
    _row_zero normalises.  F is a homomorphism and F(1) = 1, so the cell's
    value DD[0, k] + DD[k, j] - DD[0, j] is |F(p)| + |F(p^-1 y)| - |F(y)|:
    the row needs the lengths of images of ball words, and no table.  In
    the rooted identity (defect_ceiling) these are the pairs x' = p^-1,
    y' = p^-1 y, with |x'| + |y'| = |y| <= R.

    Why its answer is the scan's.  Every triple's value is at most 2c.  If a
    cell of row 0 reaches 2c, the scan's first block, which holds row 0
    first in its flat order and no cell above 2c, has the least such cell as
    its first flat maximum, and the scan stops there since 2c is its `stop`:
    the least j, then the least k, that is the first y in ball order and
    then its least p by (length, codes), the ball's order.  So _row_zero's
    (1, y, p) and the defect c are the scan's witness and value.  If no
    cell of row 0 reaches 2c, the ball is listed and the tables are built
    and scanned as before.

    No ball is listed for row 0.  ball_size comes from ball_count, which
    also makes ball_codes' cap and memory checks, and _row_zero reads
    iter_ball_codes, the same words in the same order, only up to its
    witness: word 8 for the fold a -> c a and word 11 for the path's partial
    conjugation, at every radius above 1.  So these defects cost the count
    and a few words, not the ball.  At c = 0 (z = 1) every value is 0 and
    the witness is the first cell, (1, 1, 1); _row_zero skips the cells it
    knows to be 0 only when 2c > 0.

    Why R > c.  The fold's ceiling pair x' = v, y' = z needs
    |x'| + |y'| = |z| + 1 <= R to lie in row 0.  At R <= c row 0 would
    rarely reach 2c, and a miss costs a row-0 pass on top of the tables."""
    if radius < 1:
        raise OutOfRangeError("radius must be >= 1")
    if isinstance(phi, D.DlsAutomorphism):
        graph = phi.graph
        images_map = phi.generator_images
    else:
        graph, images_map = phi
    letters = D.letter_images(graph, images_map)
    ceiling = defect_ceiling(phi)
    if ceiling is not None and radius > ceiling:
        size = ball_count(graph, radius)[0]
        hit = _row_zero(graph, iter_ball_codes(graph, radius), letters, 2 * ceiling)
        if hit is not None:
            return DefectReport(radius, ceiling, (identity(graph), *(_nf(graph, w) for w in hit)),
                                size)
        ball = list(iter_ball_codes(graph, radius))
    else:
        ball = ball_codes(graph, radius)
    ball_trie, images = _ball_trie(graph, ball, letters)
    _check_memory(graph, ball_trie, images, letters)
    W = _distance_table(ball_trie, _label_weights(ball, ball_trie, letters))
    DD = _distance_table(_prefix_trie(graph, images))
    best, (i, j, k) = _scan(W, DD, None if ceiling is None else 2 * ceiling)
    return DefectReport(
        radius,
        best // 2,
        (_nf(graph, ball[i]), _nf(graph, ball[j]), _nf(graph, ball[k])),
        len(ball),
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

CMP_BY_THM = "CMP_by_Thm"
NOT_CMP_BY_FAMILY = "NOT_CMP_by_family"


class Family(NamedTuple):
    """Triples on which a transvection v -> z v with twist part z_c != 1 (see
    dls.twist_split) moves medians unboundedly: x = z_c^-k, y = v^-k, p = 1.

    x^-1 y = z_c^k v^-k is reduced (disjoint supports), so p lies between x
    and y.  F fixes x, and since z_c commutes with v and z_f,
    F(y) = (v^-1 z^-1)^k = z_c^-k (v^-1 z_f^-1)^k with no cancellation: z_c
    has no letter in common with v or z_f, C is a clique so |z_c^k| = k|z_c|,
    and no letter of z_f commutes with v.  So z_c^-k is a prefix of F(y) and
    median(F(p), F(x), F(y)) = F(x) ^ F(y) = z_c^-k, at distance k|z_c| from
    F(p).  x and y lie in the ball of radius R once k|z_c| <= R, hence
    defect(R) >= |z_c| * floor(R / |z_c|)."""
    vertex: str
    z_c: NormalForm

    def bound(self, radius: int) -> int:
        return len(self.z_c) * (radius // len(self.z_c))

    def as_dict(self):
        return {"vertex": self.vertex, "z_c": str(self.z_c), "z_c_length": len(self.z_c)}


class CertifyReport(NamedTuple):
    verdict: str
    trace: tuple            # rule evaluation lines
    family: Family          # None for CMP_by_Thm

    def as_dict(self):
        return {"verdict": self.verdict, "trace": list(self.trace),
                "family": None if self.family is None else self.family.as_dict()}


def cmp_certify(phi: D.DlsAutomorphism) -> CertifyReport:
    """Exact verdict from the twist part z_c of the splitting data.  Partial
    conjugations, folds (z_c = 1) and z = 1 are coarse-median preserving by
    the splitting rule.  Every other transvection has z_c != 1, and its Family
    is checked with direct median and distance calls at k = 1, 2, 3."""
    if not isinstance(phi, D.DlsAutomorphism):
        raise InvalidSplittingError("certification needs a splitting-built automorphism")
    if phi.kind in (D.FOLD, D.PARTIAL_CONJUGATION):
        line = "rule(1): %s from a visual splitting: certified" % phi.kind
        return CertifyReport(CMP_BY_THM, (line,), None)
    if not phi.twist_element:
        return CertifyReport(CMP_BY_THM, ("identity twist element: certified",), None)
    graph, v = phi.graph, phi.splitting.vertex
    z_c, _ = D.twist_split(graph, v, phi.twist_element)    # not 1: phi is no fold
    p = identity(graph)
    fp = D.apply(phi, p)
    for k in (1, 2, 3):
        x, y = z_c ** -k, normalize(graph, v) ** -k
        fx, fy = D.apply(phi, x), D.apply(phi, y)
        if median(x, y, p) != p or dist(fp, median(fp, fx, fy)) != k * len(z_c):
            raise RaagError("family audit failed for %s at k = %d" % (phi.describe(), k))
    trace = (
        "twist part z_c = %s of z = %s at %s: not coarse-median preserving"
        % (z_c, phi.twist_element, v),
        "family x = z_c^-k, y = %s^-k, p = 1: defect(R) >= %d*floor(R/%d), "
        "audited at k = 1, 2, 3" % (v, len(z_c), len(z_c)),
    )
    return CertifyReport(NOT_CMP_BY_FAMILY, trace, Family(v, z_c))
