"""Finite-radius median-defect measurement for automorphisms, and the
rule-based certification of coarse-median preservation.

The defect of a map F at radius R is the largest distance from F(p) to the
median of (F(p), F(x), F(y)) over ball triples with p between x and y.  In a
median graph that distance is the Gromov product
(d(Fp,Fx) + d(Fp,Fy) - d(Fx,Fy)) / 2 and p is between x and y iff
d(x,p) + d(p,y) = d(x,y), so the whole scan reduces to two pairwise distance
tables: one for the ball, one for its image.  Both count hyperplanes: the
distance between two vertices of the cube complex is the number of
hyperplanes separating them, which one incidence-matrix product gives for all
pairs at once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BallCapExceededError, InvalidSplittingError
from .words import _nf, ball_codes, hyperplane_at
from . import dls as D
from .elements import gamma, is_label_irreducible


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


def _distance_table(graph, words):
    """Pairwise distances between canonical words, counted as separating
    hyperplanes: d(u, v) = |H(u)| + |H(v)| - 2|H(u) & H(v)|, where H(w) is the
    set of hyperplanes crossed by the geodesic from 1 to w.  Prefixes of
    canonical words are canonical, so H(w) is H(w minus its last letter) plus
    one hyperplane, and each prefix is resolved once."""
    column = {}     # hyperplane (label, rep) -> column of the incidence matrix
    step = {}       # (prefix node, code) -> (node of prefix + code, column)
    rows = []
    for w in words:
        node, cols = 0, []
        for k, c in enumerate(w):
            nxt = step.get((node, c))
            if nxt is None:
                h = hyperplane_at(graph, w[:k], c)
                nxt = step[node, c] = (len(step) + 1,
                                       column.setdefault((h.label, h.rep), len(column)))
            node = nxt[0]
            cols.append(nxt[1])
        rows.append(cols)
    lengths = [len(w) for w in words]
    # float32 is exact on integers below 2**24, and every value computed here
    # is at most four times the longest word
    exact = np.float32 if max(lengths, default=0) < 1 << 22 else np.float64
    B = np.zeros((len(words), len(column)), dtype=exact)
    for i, cols in enumerate(rows):
        B[i, cols] = 1
    G = B @ B.T
    del B
    L = np.array(lengths, dtype=exact)
    G *= -2
    G += L[:, None]
    G += L
    # the scan adds two entries, so the table must hold twice the largest
    top = 2 * int(G.max(initial=0))
    return G.astype(next(t for t in (np.int16, np.int32, np.int64)
                         if top <= np.iinfo(t).max))


def _scan(D0, DD):
    """Least (i, j, k), j >= i, maximising DD[i, k] + DD[k, j] - DD[i, j] over k
    between i and j (D0[i, k] + D0[k, j] == D0[i, j]), with that maximum.
    Rows go in ascending i and argmax takes the first (j, k) of a row, so a
    later row only replaces the witness with a strictly larger value."""
    n = len(D0)
    best, at = -1, None
    for i in range(n):
        between = (D0[i][None, :] + D0[i:, :]) == D0[i, i:][:, None]
        vals = np.where(between, DD[i][None, :] + DD[i:, :] - DD[i, i:][:, None], -1)
        jk = int(vals.argmax())
        if vals.flat[jk] > best:
            best = int(vals.flat[jk])
            j, k = divmod(jk, n)
            at = (i, i + j, k)
    return best, at


def cmp_defect(phi, radius: int, cap: int = None) -> DefectReport:
    """Exhaustive defect of the automorphism over the ball of the given
    radius: max over ball elements x, y and p between them (also in the
    ball) of the distance from image(p) to the median of the three images.
    The witness is the lexicographically least maximizing triple in ball
    order."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if isinstance(phi, D.DlsAutomorphism):
        graph = phi.graph
        images_map = phi.generator_images
    else:
        graph, images_map = phi
    ball = ball_codes(graph, radius, cap)
    images = [D.apply_images(graph, images_map, w).codes for w in ball]
    # p = x is between x and y with value 0, so every row has a witness
    best, (i, j, k) = _scan(_distance_table(graph, ball), _distance_table(graph, images))
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
NOT_CMP_SUSPECTED = "NOT_CMP_suspected"
UNDECIDED = "UNDECIDED"


class CertifyReport(NamedTuple):
    verdict: str
    trace: tuple            # rule evaluation lines
    defects: tuple          # (radius, defect) pairs when probing was used

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "trace": list(self.trace),
            "defects": [list(t) for t in self.defects],
        }


def cmp_certify(phi: D.DlsAutomorphism, probe_radii=(2, 3, 4, 5)) -> CertifyReport:
    """Classify via the splitting rules: folds and partial conjugations are
    certified outright; twists are certified only if the twist element is
    label-irreducible and its centralizer visually misses the splitting
    vertex.  For the one-vertex splittings used here the splitting vertex
    always commutes with the twist element, so twists fall through to
    finite-radius defect probing; growth is reported as suspicion, never as
    proof."""
    if not isinstance(phi, D.DlsAutomorphism):
        raise InvalidSplittingError("certification needs a splitting-built automorphism")
    trace = []
    if phi.kind in (D.FOLD, D.PARTIAL_CONJUGATION):
        trace.append("rule(1): %s from a visual splitting: certified" % phi.kind)
        return CertifyReport(CMP_BY_THM, tuple(trace), ())
    graph = phi.graph
    z = phi.twist_element
    if not z:
        trace.append("identity twist element: certified")
        return CertifyReport(CMP_BY_THM, tuple(trace), ())
    v = phi.splitting.vertex
    li = is_label_irreducible(z)
    trace.append("rule(2): z label-irreducible: %s" % li)
    if li:
        gz = gamma(z)
        zperp = graph.perp(gz)
        visual = v not in gz and v not in zperp
        trace.append(
            "rule(2): centralizer support %s + %s misses splitting vertex %s: %s"
            % (gz, zperp, v, visual)
        )
        if visual:
            return CertifyReport(CMP_BY_THM, tuple(trace), ())
        trace.append("rule(2) inconclusive for visual data (conjugates unchecked)")
    defects = []
    for r in probe_radii:
        try:
            rep = cmp_defect(phi, r)
        except BallCapExceededError:
            trace.append("probe stopped: ball cap exceeded at radius %d" % r)
            break
        defects.append((r, rep.defect))
    if len(defects) >= 2 and all(
        defects[k][1] < defects[k + 1][1] for k in range(len(defects) - 1)
    ):
        trace.append(
            "defect grows over radii %s: suspected not coarse-median preserving"
            % ([d[0] for d in defects],)
        )
        return CertifyReport(NOT_CMP_SUSPECTED, tuple(trace), tuple(defects))
    trace.append("no growth detected; unbounded defect cannot be excluded")
    return CertifyReport(UNDECIDED, tuple(trace), tuple(defects))
