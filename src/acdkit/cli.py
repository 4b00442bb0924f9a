"""Command line entry points."""

from __future__ import annotations

import argparse
import os
import sys

from . import acd as _acd
from . import docfmt, games, relabel, zielonka
from .core import (Automaton, CapExceeded, InputError, _reading, compose,
                   equivalent_over)
from .morphism import (Morphism, check_acceptance_preserving, check_local,
                       check_structural)

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3


class PropertyFalse(Exception):
    """A check-style command found its property violated."""


def _read_doc(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror)) from None
    return docfmt.parse(text)


def _write(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_dot(args, text):
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _require_condition(doc, kinds=None):
    if doc.condition is None:
        raise InputError("document has no condition block")
    if kinds and doc.condition.kind not in kinds:
        raise InputError("expected a %s condition, got %s"
                         % ("/".join(kinds), doc.condition.kind))
    return doc.condition


def _build_tree(doc):
    cond = _require_condition(doc, ("muller",))
    _, gamma = _reading(doc.system, cond)
    return zielonka.build_zielonka_tree(cond.family, gamma)


def cmd_zielonka(args):
    doc = _read_doc(args.file)
    tree = _build_tree(doc)
    _write(args, docfmt.dumps(docfmt.tree_to_obj(tree)))
    _write_dot(args, docfmt.dot_tree(tree))


def cmd_zt_automaton(args):
    doc = _read_doc(args.file)
    tree = _build_tree(doc)
    zt = zielonka.build_zt_automaton(tree)
    out = docfmt.Document(zt.automaton.ts, zt.automaton.condition)
    _write(args, docfmt.serialize(out))
    _write_dot(args, docfmt.dot_system(zt.automaton.ts))


def cmd_acd(args):
    doc = _read_doc(args.file)
    cond = _require_condition(doc)
    acd = _acd.build_acd(doc.system, cond, explore_cap=args.explore_cap)
    _write(args, docfmt.dumps(docfmt.acd_to_obj(acd)))
    _write_dot(args, docfmt.dot_acd(acd))


def cmd_transform(args):
    doc = _read_doc(args.file)
    cond = _require_condition(doc)
    result = _acd.acd_transform(doc.system, cond,
                                explore_cap=args.explore_cap)
    out = docfmt.Document(result.system, result.condition,
                          {"vertices": result.vertex_map,
                           "edges": result.edge_map})
    _write(args, docfmt.serialize(out))
    _write_dot(args, docfmt.dot_system(result.system))


def cmd_stats(args):
    doc = _read_doc(args.file)
    cond = _require_condition(doc)
    acd = _acd.build_acd(doc.system, cond, explore_cap=args.explore_cap)
    _write(args, docfmt.dumps(docfmt.stats_to_obj(_acd.acd_stats(acd))))


def cmd_shape(args):
    doc = _read_doc(args.file)
    cond = _require_condition(doc)
    acd = _acd.build_acd(doc.system, cond, explore_cap=args.explore_cap)
    report = relabel.classify_acd(acd)
    obj = {
        "rabin_acd": report.rabin_acd,
        "streett_acd": report.streett_acd,
        "parity_acd": report.parity_acd,
        "interval": list(report.interval) if report.interval else None,
        "weak_k": report.weak_k,
        "offending": {v: [docfmt._node_name(n) for n in nodes]
                      for v, nodes in report.offending.items()},
    }
    if cond.kind == "muller":
        flags = zielonka.shape(_build_tree(doc))
        obj["condition_shape"] = flags
        obj["closure"] = {"union_closed": flags["streett"],
                          "intersection_closed": flags["rabin"]}
    _write(args, docfmt.dumps(obj))


def cmd_relabel(args):
    doc = _read_doc(args.file)
    cond = _require_condition(doc)
    acd = _acd.build_acd(doc.system, cond, explore_cap=args.explore_cap)
    relabelling = {"rabin": relabel.rabin_from_acd,
                   "streett": relabel.streett_from_acd,
                   "parity": relabel.parity_relabel,
                   "weak": relabel.parity_relabel}[args.target]
    try:
        # a relabelling refuses a decomposition of the wrong shape
        new_cond = relabelling(doc.system, acd)
    except InputError as e:
        raise PropertyFalse(str(e)) from None
    if args.target == "weak":
        new_cond = relabel.compress_priorities(doc.system, new_cond)
    _write(args, docfmt.serialize(docfmt.Document(doc.system, new_cond)))


def cmd_compress(args):
    doc = _read_doc(args.file)
    cond = _require_condition(doc, ("parity",))
    new_cond = relabel.compress_priorities(doc.system, cond)
    _write(args, docfmt.serialize(docfmt.Document(doc.system, new_cond)))


def cmd_compose(args):
    aut_doc = _read_doc(args.automaton)
    ts_doc = _read_doc(args.file)
    aut_cond = _require_condition(aut_doc)
    aut = Automaton(aut_doc.system, aut_cond)
    product = compose(aut, ts_doc.system, ts_doc.condition or aut_cond)
    morphism = None
    if product.projection is not None:
        morphism = {"vertices": product.projection.vertex_map,
                    "edges": product.projection.edge_map}
    out = docfmt.Document(product.system, product.condition, morphism)
    _write(args, docfmt.serialize(out))
    _write_dot(args, docfmt.dot_system(product.system))


def cmd_check_morphism(args):
    doc = _read_doc(args.file)
    if doc.morphism is None:
        raise InputError("document has no morphism block")
    against = _read_doc(args.against)
    m = Morphism(doc.system, _require_condition(doc),
                 against.system, _require_condition(against),
                 doc.morphism["vertices"], doc.morphism["edges"])
    ok, problems = check_structural(m)
    local = {"surjective": False, "injective": False, "bijective": False}
    preserving = False
    if ok:
        local = check_local(m)
        preserving = check_acceptance_preserving(
            m, loop_cap=args.loop_cap, explore_cap=args.explore_cap)
    obj = {
        "structural": ok,
        "problems": problems,
        "local": local,
        "acceptance_preserving": preserving,
    }
    _write(args, docfmt.dumps(obj))
    if not (ok and preserving):
        raise PropertyFalse("morphism checks failed")


def cmd_solve(args):
    doc = _read_doc(args.file)
    cond = _require_condition(doc)
    game = games.Game(doc.system, cond)
    if cond.kind == "parity":
        sol = games.solve_parity_game(game)
        obj = {
            "winner": sol.winner(game.initial),
            "regions": {p: sorted(v for v, w in sol.regions.items() if w == p)
                        for p in ("Eve", "Adam")},
            "strategies": sol.strategies,
        }
    else:
        sol = games.solve_muller_game(game, explore_cap=args.explore_cap)
        psol = sol.parity_solution
        obj = {
            "winner": sol.winner(game.initial),
            "regions": {p: sorted(v for v, w in sol.regions.items() if w == p)
                        for p in ("Eve", "Adam")},
            "transform": {
                "regions": {p: sorted(v for v, w in psol.regions.items()
                                      if w == p)
                            for p in ("Eve", "Adam")},
                "strategies": psol.strategies,
            },
        }
    _write(args, docfmt.dumps(obj))


def cmd_oracle_equiv(args):
    doc1 = _read_doc(args.file)
    doc2 = _read_doc(args.other)
    if docfmt.dumps(docfmt.system_to_obj(doc1.system)) != \
            docfmt.dumps(docfmt.system_to_obj(doc2.system)):
        raise InputError("the two documents describe different systems")
    cond1 = _require_condition(doc1)
    cond2 = _require_condition(doc2)
    eq = equivalent_over(doc1.system, cond1, cond2, loop_cap=args.loop_cap,
                         explore_cap=args.explore_cap)
    _write(args, docfmt.dumps({"equivalent": eq}))
    if not eq:
        raise PropertyFalse("conditions are not equivalent over the system")


def _cap(text):
    """A cap given on the command line: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "a cap must be an integer of at least 1, got %r" % text)


def _env_int(name):
    v = os.environ.get(name)
    if v is None:
        return None
    try:
        return _cap(v)
    except argparse.ArgumentTypeError as e:
        raise InputError("%s: %s" % (name, e)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="acdkit",
        description="Acceptance condition toolbox: Zielonka trees, "
                    "alternating cycle decompositions, parity "
                    "transformations, relabellings and games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", help="write the result here "
                       "instead of stdout")
        p.add_argument("--loop-cap", type=_cap, default=None,
                       help="largest reachable SCC edge count that "
                       "oracle-equiv and check-morphism accept (default: "
                       "no limit)")
        p.add_argument("--explore-cap", type=_cap, default=None,
                       help="cap on subloop exploration")
        return p

    p = add("zielonka", cmd_zielonka, help="Zielonka tree of a Muller condition")
    p.add_argument("file")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p = add("zt-automaton", cmd_zt_automaton,
            help="parity automaton built on the branches of the tree")
    p.add_argument("file")
    p.add_argument("--dot")
    p = add("acd", cmd_acd, help="alternating cycle decomposition")
    p.add_argument("file")
    p.add_argument("--dot")
    p = add("transform", cmd_transform,
            help="parity transformation of the system")
    p.add_argument("file")
    p.add_argument("--dot")
    p = add("stats", cmd_stats, help="transformation size and priority usage")
    p.add_argument("file")
    p = add("shape", cmd_shape, help="shape classification of the decomposition")
    p.add_argument("file")
    p = add("relabel", cmd_relabel,
            help="equivalent condition of the requested class")
    p.add_argument("file")
    p.add_argument("--target", required=True,
                   choices=["rabin", "streett", "parity", "weak"])
    p = add("compress", cmd_compress, help="remove unused priority values")
    p.add_argument("file")
    p = add("compose", cmd_compose,
            help="product of a deterministic automaton with a system")
    p.add_argument("automaton")
    p.add_argument("file")
    p.add_argument("--dot")
    p = add("check-morphism", cmd_check_morphism,
            help="verify the morphism block of a document")
    p.add_argument("file")
    p.add_argument("--against", required=True)
    p = add("solve", cmd_solve, help="solve a parity or Muller game")
    p.add_argument("file")
    p = add("oracle-equiv", cmd_oracle_equiv,
            help="equivalence of two conditions on every reachable loop, "
                 "by comparing their decompositions")
    p.add_argument("file")
    p.add_argument("other")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.loop_cap is None:
            args.loop_cap = _env_int("ACDKIT_LOOP_CAP")
        if args.explore_cap is None:
            args.explore_cap = _env_int("ACDKIT_EXPLORE_CAP")
        args.fn(args)
    except PropertyFalse as e:
        print("property check failed: %s" % e, file=sys.stderr)
        return EXIT_PROPERTY_FALSE
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
