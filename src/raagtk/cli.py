"""Command-line interface.

Every subcommand reads the defining graph from a file, takes words in the
`a b^-1` syntax, and prints either a human-readable line or (with --json)
exactly one JSON document carrying "schema": 1.  Exit codes: 0 success,
1 domain error, 2 usage error.  Running out of memory is the domain error
"memory_limit", and a stdout closed by its reader ends the run quietly with
exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import MemoryLimitError, RaagError, WordSyntaxError
from .graph import DefGraph
from . import cmp as C
from . import decomp as DC
from . import dls as D
from . import elements as E
from . import subgroups as S
from . import trees as T
from . import words as W

SCHEMA = 1


def _load_graph(path) -> DefGraph:
    try:
        return DefGraph.load(path)
    except (OSError, UnicodeDecodeError) as e:
        raise RaagError("cannot read graph file %r: %s" % (path, e)) from None


def _nf(graph, text):
    return W.normalize(graph, W.parse_word(graph, text))


def _words(args, graph, count, command):
    """The --word arguments as normal forms; there must be exactly `count`."""
    if len(args.word) != count:
        raise WordSyntaxError("%s needs exactly %s --word argument%s" % (
            command, ("one", "two", "three")[count - 1], "s" * (count > 1)))
    return [_nf(graph, w) for w in args.word]


def _emit(args, payload, text):
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return 0


def _field_word(graph, text):
    """A word inside a --subgroup field: a dot is a space, unless a vertex
    name holds one."""
    if not any("." in v for v in graph.vertices):
        text = text.replace(".", " ")
    return _nf(graph, text)


def _parse_subgroup(graph, text) -> S.SubgroupForm:
    conj = W.identity(graph)
    roots = []
    support = []
    kind = None
    for tok in text.split():
        key, _, val = tok.partition("=")
        if key == "conj":
            conj = _field_word(graph, val.replace(",", " "))
        elif key == "roots":
            roots = [_field_word(graph, part) for part in val.split(",") if part]
        elif key == "support":
            support = [v for v in val.split(",") if v]
        elif key == "kind":
            kind = val
        else:
            raise WordSyntaxError("bad subgroup field %r" % key)
    if kind is None:
        kind = S.SEMI_PARABOLIC if roots else S.PARABOLIC
    return S.SubgroupForm(kind, conj, tuple(roots), graph.vset(support))


def _parse_dls(graph, text) -> D.DlsAutomorphism:
    toks = text.split()
    if not toks:
        raise WordSyntaxError("empty dls literal")
    fields = {}
    head = None
    for tok in toks:
        if "=" in tok:
            key, _, val = tok.partition("=")
            fields[key] = val
        else:
            head = tok
    z_text = fields.get("z", "1").replace(",", " ")
    if head in (None, "twist", "fold", "transvection", "mixed_transvection"):
        if "v" not in fields:
            raise WordSyntaxError("transvection literal needs v=<vertex>")
        return D.build_transvection(graph, fields["v"], _nf(graph, z_text))
    if head in ("pconj", "partial_conjugation", "amalgam"):
        for k in ("A", "B", "C"):
            if k not in fields:
                raise WordSyntaxError("partial conjugation literal needs %s=..." % k)
        split = lambda s: [v for v in s.split(",") if v]
        return D.build_partial_conjugation(
            graph, split(fields["A"]), split(fields["B"]), split(fields["C"]),
            _nf(graph, z_text),
        )
    raise WordSyntaxError("unknown dls literal head %r" % head)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_graph(args, graph):
    if args.action == "dump":
        if args.json:
            return _emit(args, {"graph": graph.dump()}, "")
        sys.stdout.write(graph.dump())
        return 0


def cmd_normalize(args, graph):
    nf, = _words(args, graph, 1, "normalize")
    return _emit(args, {"input": args.word[0], "normal_form": str(nf),
                        "length": len(nf)}, str(nf))


def cmd_multiply(args, graph):
    r = W.multiply(*_words(args, graph, 2, "multiply"))
    return _emit(args, {"input": args.word, "normal_form": str(r),
                        "length": len(r)}, str(r))


def cmd_median(args, graph):
    m = W.median(*_words(args, graph, 3, "median"))
    return _emit(args, {"input": args.word, "normal_form": str(m),
                        "length": len(m)}, str(m))


def cmd_closure(args, graph):
    pts = []
    for t in args.tuple:
        pts.append(tuple(_nf(graph, part) for part in t.split(",")))
    res = W.subalgebra_closure(pts, cap=args.cap)
    elems = [",".join(str(x) for x in t) for t in res.elements]
    return _emit(
        args,
        {"size": len(res.elements), "truncated": res.truncated, "elements": elems},
        "%d elements%s" % (len(elems), " (truncated)" if res.truncated else ""),
    )


def cmd_element(args, graph):
    g = _nf(graph, args.word)
    if args.action == "gamma":
        gm = E.gamma(g)
        return _emit(args, {"gamma": list(gm.names())}, repr(gm))
    if args.action == "li":
        dec = E.li_components(g)
        comps = [str(c) for c in dec.components]
        supps = [list(s.names()) for s in dec.supports]
        return _emit(args, {"components": comps, "supports": supps},
                     "; ".join(comps))
    if args.action == "root":
        root, n = E.primitive_root(g)
        return _emit(args, {"root": str(root), "exponent": n},
                     "%s ^ %d" % (root, n))
    if args.action == "centralizer":
        if not g:
            return _emit(args, {"whole_group": True}, "whole group")
        cf = E.centralizer(g)
        return _emit(
            args,
            {
                "conjugator": str(cf.conjugator),
                "cyclic_roots": [str(r) for r in cf.cyclic_roots],
                "parabolic_support": list(cf.parabolic_support.names()),
            },
            "conj=%s roots=[%s] support=%s"
            % (cf.conjugator, ", ".join(str(r) for r in cf.cyclic_roots),
               cf.parabolic_support),
        )


def cmd_tree(args, graph):
    v = args.vertex
    if args.action == "dist":
        d = T.tv_distance(graph, v, *_words(args, graph, 2, "tree dist"))
        return _emit(args, {"distance": d}, str(d))
    if args.action == "length":
        ell = T.tv_translation_length(graph, v, *_words(args, graph, 1, "tree length"))
        return _emit(args, {"translation_length": ell}, str(ell))
    beta = T.arc(graph, v, _nf(graph, args.start), _nf(graph, args.end))
    if args.action == "stab":
        sf = T.arc_stabilizer(beta)
        return _emit(
            args,
            {
                "kind": sf.kind,
                "conjugator": str(sf.conjugator),
                "support": list(sf.support.names()),
            },
            sf.describe(),
        )
    if args.action == "almost-stab":
        res = T.almost_stabilizer(beta, args.s, args.radius)
        elems = [str(g) for g in res.elements]
        return _emit(
            args,
            {"s": res.s, "radius": res.radius, "arc_length": res.arc_length,
             "size": len(elems), "elements": elems},
            "%d elements within radius %d" % (len(elems), res.radius),
        )


def cmd_subgroup(args, graph):
    sf = _parse_subgroup(graph, args.subgroup)
    if args.action == "validate":
        rep = S.validate(sf)
        return _emit(args, {"valid": rep.ok, "failures": list(rep.failures)},
                     "valid" if rep.ok else "invalid: %s" % (rep.failures[0],))
    if args.action == "member":
        ok = S.member(sf, _nf(graph, args.word))
        return _emit(args, {"member": ok}, "yes" if ok else "no")
    if args.action == "intersect":
        if args.subgroup2 is None:
            raise WordSyntaxError("subgroup intersect needs a --subgroup2 argument")
        other = _parse_subgroup(graph, args.subgroup2)
        res = S.intersect(sf, other, args.radius)
        return _emit(
            args,
            {
                "kind": res.kind,
                "conjugator": str(res.conjugator),
                "roots": [str(r) for r in res.abelian_roots],
                "support": list(res.support.names()),
            },
            res.describe(),
        )


def cmd_dls(args, graph):
    phi = _parse_dls(graph, args.dls)
    if args.action == "build":
        images = {v: str(phi.generator_images[v]) for v in graph.vertices}
        return _emit(
            args,
            {"kind": phi.kind, "z": str(phi.twist_element), "images": images,
             "verified": D.verify_automorphism(phi)},
            phi.describe(),
        )
    if args.action == "apply":
        out = D.apply(phi, _nf(graph, args.word))
        return _emit(args, {"normal_form": str(out), "length": len(out)}, str(out))
    if args.action == "certify":
        probes = [
            _nf(graph, p) for p in (args.probes.split(";") if args.probes else [])
        ]
        if not probes:
            probes = [_nf(graph, v) for v in graph.vertices]
        rep = D.outer_order_certificate(phi, probes, args.max_power)
        return _emit(
            args,
            {"max_power": rep.max_power, "traces": rep.traces,
             "certificate": rep.certificate, "witness": rep.witness,
             "outer_powers": rep.outer_powers},
            rep.certificate or "no certificate",
        )


def cmd_cmp(args, graph):
    phi = _parse_dls(graph, args.dls)
    if args.action == "defect":
        rep = C.cmp_defect(phi, args.radius)
        d = rep.as_dict()
        return _emit(args, d, "defect %d at radius %d (witness x=%s y=%s p=%s)"
                     % (rep.defect, rep.radius, *[str(t) for t in rep.witness]))
    if args.action == "certify":
        rep = C.cmp_certify(phi)
        return _emit(args, rep.as_dict(), rep.verdict)


def cmd_decomp(args, graph):
    if args.action == "good":
        w = _nf(graph, args.word)
        dec = DC.decompose_good(graph, w)
        pieces = [
            {"tag": p.tag, "word": W.format_codes(graph, p.word)}
            for p in dec.pieces
        ]
        return _emit(
            args,
            {"pieces": pieces, "count": len(pieces), "bound": dec.bound,
             "bound_ok": dec.ok},
            "%d pieces (bound %d): %s"
            % (len(pieces), dec.bound,
               " | ".join("%s:%s" % (p["tag"], p["word"]) for p in pieces)),
        )
    if args.action == "chain":
        if args.tree_vertex is None:
            raise WordSyntaxError("decomp chain needs a --tree-vertex argument")
        beta = T.arc(graph, args.tree_vertex, W.identity(graph), _nf(graph, args.word))
        rep = DC.decompose_chain(beta)
        pieces = [{"kind": p.kind, "length": p.length} for p in rep.pieces]
        return _emit(
            args,
            {"pieces": pieces, "s": rep.s, "constant": rep.constant,
             "bounds_ok": rep.bounds_ok, "arc_length": rep.arc_length},
            "s=%d, pieces %s, bounds %s"
            % (rep.s, [(p["kind"], p["length"]) for p in pieces],
               "ok" if rep.bounds_ok else "VIOLATED"),
        )
    if args.action == "classify":
        if args.label is None:
            raise WordSyntaxError("decomp classify needs a --label argument")
        w = _nf(graph, args.word)
        iv = graph.index(args.label)
        pos = [k for k, c in enumerate(w.codes) if c >> 1 == iv]
        if len(pos) < 2:
            raise WordSyntaxError("word must cross the label at least twice")
        pair = DC.pair_from_word(graph, w.codes, pos[0], pos[-1])
        cls = DC.classify_decent_pair(pair)
        return _emit(
            args,
            {
                "case": cls.case,
                "element": str(cls.element) if cls.element else None,
                "stabilizer_support": list(cls.stabilizer.support.names()),
                "double_centralizer_support": list(cls.double_centralizer_support.names()),
                "axis_stats": cls.axis_stats,
            },
            "%s%s" % (cls.case, " g=%s" % cls.element if cls.element else ""),
        )


def cmd_selftest(args, graph):
    # imported here: the self-test loads numpy, a process pool and the oracles
    from . import selftest as ST
    only = set(args.criteria) if args.criteria else None
    # in JSON mode the per-criterion lines become the one document
    results = ST.run_all(seed=args.seed, jobs=args.jobs, only=only,
                         out=(lambda line: None) if args.json else print)
    passed = all(r.passed for r in results)
    if args.json:
        _emit(args, {"passed": passed, "criteria": [r._asdict() for r in results]}, "")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_ints(text):
    """A comma-separated list of integers >= 1."""
    return tuple(_positive_int(part) for part in text.split(","))


def _criteria(text):
    from . import selftest as ST
    numbers = _positive_ints(text)
    if max(numbers) > len(ST.CRITERIA):
        raise argparse.ArgumentTypeError("criteria are numbered 1..%d" % len(ST.CRITERIA))
    return numbers


def build_parser():
    ap = argparse.ArgumentParser(
        prog="raagtk",
        description="Exact computations in right-angled Artin groups.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, graph=True, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true")
        if graph:
            p.add_argument("--graph", required=True)
        return p

    p = add("graph", cmd_graph, help="graph file operations")
    p.add_argument("action", choices=["dump"])

    for name, fn in (("normalize", cmd_normalize), ("multiply", cmd_multiply),
                     ("median", cmd_median)):
        p = add(name, fn)
        p.add_argument("--word", action="append", required=True)

    p = add("closure", cmd_closure, help="median subalgebra closure")
    p.add_argument("--tuple", action="append", required=True,
                   help="comma-separated words, one tuple per flag")
    p.add_argument("--cap", type=int, default=W.DEFAULT_CLOSURE_CAP)

    p = add("element", cmd_element)
    p.add_argument("action", choices=["gamma", "li", "root", "centralizer"])
    p.add_argument("--word", required=True)

    p = add("tree", cmd_tree)
    p.add_argument("action", choices=["dist", "length", "stab", "almost-stab"])
    p.add_argument("--vertex", required=True)
    p.add_argument("--word", action="append", default=[])
    p.add_argument("--start", default="1")
    p.add_argument("--end", default="1")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--radius", type=int, default=3)

    p = add("subgroup", cmd_subgroup)
    p.add_argument("action", choices=["validate", "member", "intersect"])
    p.add_argument("--subgroup", required=True,
                   help="conj=W roots=W1,W2 support=a,b (words with . for spaces)")
    p.add_argument("--subgroup2")
    p.add_argument("--word", default="1")
    p.add_argument("--radius", type=int, default=4)

    p = add("dls", cmd_dls)
    p.add_argument("action", choices=["build", "apply", "certify"])
    p.add_argument("--dls", required=True,
                   help='e.g. "twist v=b z=a" or "pconj A=a,b B=b,c C=b z=a"')
    p.add_argument("--word", default="1")
    p.add_argument("--probes")
    p.add_argument("--max-power", type=int, default=8)

    p = add("cmp", cmd_cmp)
    p.add_argument("action", choices=["defect", "certify"])
    p.add_argument("--dls", required=True)
    p.add_argument("--radius", type=_positive_int, default=3)

    p = add("decomp", cmd_decomp)
    p.add_argument("action", choices=["good", "chain", "classify"])
    p.add_argument("--word", required=True)
    p.add_argument("--tree-vertex", default=None)
    p.add_argument("--label", default=None)

    p = add("selftest", cmd_selftest, graph=False, help="run the acceptance suite")
    p.add_argument("--criteria", type=_criteria, help="comma-separated subset, e.g. 1,2,6")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="workers for the criterion 1-2 pools (at most the cpu count)")
    p.add_argument("--seed", type=int, default=0)

    return ap


def _run(args):
    """The handler's exit code, or the RaagError that ends it."""
    try:
        graph = _load_graph(args.graph) if "graph" in args else None
        return args.fn(args, graph)
    except RaagError as e:
        return e
    except MemoryError:
        pass
    # reported outside the handler, once the frames that hold the data are gone
    return MemoryLimitError("out of memory")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = _run(args)
        if isinstance(code, RaagError):
            if getattr(args, "json", False):
                print(json.dumps({"schema": SCHEMA, "error": code.code,
                                  "message": str(code)}, sort_keys=True))
            else:
                print("error: %s" % code, file=sys.stderr)
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly, and point stdout at
        # devnull so that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
