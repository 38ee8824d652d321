"""Independent reference implementations used to verify the main code paths.

Nothing here shares machinery with the canonical-form engine: reduction is
done by exhaustive cancellable-pair search on raw letter tuples, and equality
of reduced words is decided by letter counts plus projections onto dependent
vertex pairs (two reduced words spell the same element iff they are related
by swaps of adjacent commuting letters iff all such projections agree).
A genuine breadth-first search over the swap/cancel moves is provided for
cross-checking the fast oracle on short words.
"""

from __future__ import annotations

from collections import deque


def oracle_reduce(adj, codes):
    """Delete cancellable pairs (same vertex, opposite signs, everything in
    between commuting with the vertex) until none remain."""
    w = list(codes)
    changed = True
    while changed:
        changed = False
        n = len(w)
        for i in range(n - 1):
            vi = w[i] >> 1
            for j in range(i + 1, n):
                vj = w[j] >> 1
                if vj == vi:
                    if w[j] == w[i] ^ 1:
                        del w[j]
                        del w[i]
                        changed = True
                    break
                if not (adj[vi] >> vj) & 1:
                    break
            if changed:
                break
    return tuple(w)


def _projections(adj, codes, nverts):
    sig = []
    for u in range(nverts):
        for v in range(u, nverts):
            if u != v and (adj[u] >> v) & 1:
                continue
            sig.append(tuple(c for c in codes if c >> 1 in (u, v)))
    return tuple(sig)


def oracle_equal_words(adj, nverts, w1, w2) -> bool:
    """Same group element?  Reduce both and compare all projections onto
    dependent vertex pairs.  Kept although no library function calls it:
    the benchmark's elements_long workload checks its answers with it."""
    r1 = oracle_reduce(adj, w1)
    r2 = oracle_reduce(adj, w2)
    if len(r1) != len(r2):
        return False
    return _projections(adj, r1, nverts) == _projections(adj, r2, nverts)


def bfs_equal_words(adj, w1, w2, max_states=200_000) -> bool:
    """Ground-truth equality by breadth-first search over single swaps of
    adjacent commuting letters and deletions of adjacent inverse pairs,
    run on w1 * w2^-1 looking for the empty word.  Exponential; only for
    very short words."""
    start = tuple(w1) + tuple(c ^ 1 for c in reversed(w2))
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        if not w:
            return True
        if len(seen) > max_states:
            raise MemoryError("state cap hit")
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == b ^ 1:
                nxt = w[:i] + w[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
            va, vb = a >> 1, b >> 1
            if va != vb and (adj[va] >> vb) & 1:
                nxt = w[:i] + (b, a) + w[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False
