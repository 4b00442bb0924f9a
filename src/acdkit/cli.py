"""Command line entry points."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import acd as _acd
from . import docfmt, games, loops, relabel, zielonka
from .core import (PLAYERS, Automaton, CapExceeded, InputError, Morphism,
                   _reading, compose)
from .loops import equivalent_over
from .morphism import (check_acceptance_preserving, check_local,
                       check_structural)

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3


class PropertyFalse(Exception):
    """A check-style command found its property violated."""


def _read_doc(path):
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror)) from None
    except UnicodeDecodeError as e:
        raise InputError("cannot read %s: not UTF-8 at byte %d"
                         % (path, e.start)) from None
    if "\r" in text:  # text mode's line ends: same line and column in errors
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return docfmt.parse(text)


def _one_file(a, b):
    """Do the paths `a` and `b` name one file: one path once symlinks
    are resolved, or two hard links to one existing file?"""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:   # one of them does not exist yet
        return False


def _write(args, text, dot=None):
    """Write the result `text` to `-o` or stdout and, for the commands
    that have one, the DOT rendering that `dot()` gives to `--dot`; it is
    rendered only when `--dot` is given.  Every path is opened before
    anything is written or truncated: an unwritable one leaves no output
    behind and every existing file as it was."""
    texts = {args.output: text} if args.output else {}
    if dot and args.dot:
        if args.output and _one_file(args.output, args.dot):
            raise InputError("-o and --dot name the same file %s" % args.dot)
        texts[args.dot] = dot()
    fds, created, flags = [], [], os.O_WRONLY | os.O_CREAT
    try:
        try:
            for path in texts:
                try:
                    fds.append(os.open(path, flags | os.O_EXCL, 0o666))
                    created.append(path)
                except FileExistsError:
                    fds.append(os.open(path, flags, 0o666))
            for path, fd in zip(texts, fds):
                if path not in created and os.path.isfile(path):
                    os.ftruncate(fd, 0)
                data = memoryview(texts[path].encode("utf-8"))
                while data:
                    data = data[os.write(fd, data):]
        finally:
            for fd in fds:
                os.close(fd)
    except OSError as e:
        for made in created:
            os.remove(made)
        raise InputError("cannot write %s: %s" % (path, e.strerror)) from None
    if not args.output:
        sys.stdout.write(text)


def _require_condition(doc):
    if doc.condition is None:
        raise InputError("document has no condition block")
    return doc.condition


def _input(path):
    """The system of the document at `path` and its condition."""
    doc = _read_doc(path)
    return doc.system, _require_condition(doc)


def _build_acd(args):
    """The input system, its condition and its ACD."""
    ts, cond = _input(args.file)
    return ts, cond, _acd.build_acd(ts, cond, explore_cap=args.explore_cap)


def _build_tree(ts, cond):
    """The Zielonka tree of the condition `cond` read on `ts`."""
    return zielonka._zielonka_tree(cond, _reading(ts, cond)[1])


def _regions(sol):
    return {p: sorted(v for v, w in sol.regions.items() if w == p)
            for p in PLAYERS}


def cmd_zielonka(args):
    tree = _build_tree(*_input(args.file))
    _write(args, docfmt.dumps(docfmt.tree_to_obj(tree)),
           lambda: docfmt.dot_tree(tree))


def cmd_zt_automaton(args):
    zt = zielonka.build_zt_automaton(_build_tree(*_input(args.file)))
    out = docfmt.Document(zt.automaton.ts, zt.automaton.condition)
    _write(args, docfmt.serialize(out),
           lambda: docfmt.dot_system(zt.automaton.ts))


def cmd_acd(args):
    _, _, acd = _build_acd(args)
    _write(args, docfmt.dumps(docfmt.acd_to_obj(acd)),
           lambda: docfmt.dot_acd(acd))


def cmd_transform(args):
    ts, cond = _input(args.file)
    result = _acd.acd_transform(ts, cond, explore_cap=args.explore_cap)
    out = docfmt.Document(result.system, result.condition,
                          {"vertices": result.vertex_map,
                           "edges": result.edge_map})
    _write(args, docfmt.serialize(out),
           lambda: docfmt.dot_system(result.system))


def cmd_stats(args):
    _, _, acd = _build_acd(args)
    _write(args, docfmt.dumps(_acd.acd_stats(acd)))


def cmd_shape(args):
    _, cond, acd = _build_acd(args)
    obj = dict(vars(relabel.classify_acd(acd)))
    obj["offending"] = {v: [docfmt._node_name(n) for n in nodes]
                        for v, nodes in obj["offending"].items()}
    flags = zielonka.shape(zielonka._zielonka_tree(
        cond, acd._universe, args.explore_cap or loops.DEFAULT_EXPLORE_CAP,
        acd._read))
    obj["condition_shape"] = flags
    obj["closure"] = zielonka._closure(flags)
    _write(args, docfmt.dumps(obj))


def cmd_relabel(args):
    ts, _, acd = _build_acd(args)
    relabelling = {"rabin": relabel.rabin_from_acd,
                   "streett": relabel.streett_from_acd,
                   "parity": relabel.parity_relabel,
                   "weak": relabel.parity_relabel}[args.target]
    try:
        # a relabelling refuses a decomposition of the wrong shape
        new_cond = relabelling(ts, acd)
    except InputError as e:
        raise PropertyFalse(str(e)) from None
    _write(args, docfmt.serialize(docfmt.Document(ts, new_cond)))


def cmd_compress(args):
    ts, cond = _input(args.file)
    if cond.kind != "parity":
        raise InputError("expected a parity condition, got %s" % cond.kind)
    new_cond = relabel.compress_priorities(ts, cond)
    _write(args, docfmt.serialize(docfmt.Document(ts, new_cond)))


def cmd_compose(args):
    aut_doc = _read_doc(args.automaton)
    ts_doc = _read_doc(args.file)
    aut_cond = _require_condition(aut_doc)
    aut = Automaton(aut_doc.system, aut_cond)
    product = compose(aut, ts_doc.system, ts_doc.condition or aut_cond)
    m = product.projection  # there is one: compose got a condition
    out = docfmt.Document(product.system, product.condition,
                          {"vertices": m.vertex_map, "edges": m.edge_map})
    _write(args, docfmt.serialize(out),
           lambda: docfmt.dot_system(product.system))


def cmd_check_morphism(args):
    doc = _read_doc(args.file)
    if doc.morphism is None:
        raise InputError("document has no morphism block")
    against = _read_doc(args.against)
    m = Morphism(doc.system, _require_condition(doc),
                 against.system, _require_condition(against),
                 doc.morphism["vertices"], doc.morphism["edges"])
    ok, problems = check_structural(m)
    obj = {"structural": ok, "problems": problems,
           "local": {"surjective": False, "injective": False,
                     "bijective": False},
           "acceptance_preserving": False}
    if ok:
        obj["local"] = check_local(m)
        obj["acceptance_preserving"] = check_acceptance_preserving(
            m, loop_cap=args.loop_cap, explore_cap=args.explore_cap)
    _write(args, docfmt.dumps(obj))
    if not (ok and obj["acceptance_preserving"]):
        raise PropertyFalse("morphism checks failed")


def cmd_solve(args):
    ts, cond = _input(args.file)
    game = games.Game(ts, cond)
    if cond.kind == "parity":
        sol = games.solve_parity_game(game)
        obj = {"strategies": sol.strategies}
    else:
        sol = games.solve_muller_game(game, explore_cap=args.explore_cap)
        obj = {"transform": {"regions": _regions(sol.parity_solution),
                             "strategies": sol.parity_solution.strategies}}
    obj.update(winner=sol.winner(game.initial), regions=_regions(sol))
    _write(args, docfmt.dumps(obj))


def cmd_oracle_equiv(args):
    doc1 = _read_doc(args.file)
    doc2 = _read_doc(args.other)
    if docfmt.system_to_obj(doc1.system) != docfmt.system_to_obj(doc2.system):
        raise InputError("the two documents describe different systems")
    eq = equivalent_over(doc1.system, _require_condition(doc1),
                         _require_condition(doc2), loop_cap=args.loop_cap,
                         explore_cap=args.explore_cap)
    _write(args, docfmt.dumps({"equivalent": eq}))
    if not eq:
        raise PropertyFalse("conditions are not equivalent over the system")


def _cap(text):
    """A cap given on the command line: an integer `loops._cap` takes."""
    try:
        return loops._cap(int(text), "cap")
    except (ValueError, InputError):
        raise argparse.ArgumentTypeError(
            "a cap must be an integer of at least 1, got %r" % text) from None


# the flags some subcommands take beyond `-o`
FLAGS = {"--dot": {"help": "also write a DOT rendering here"},
         "--target": {"required": True,
                      "choices": ["rabin", "streett", "parity", "weak"]},
         "--against": {"required": True},
         "--loop-cap": {"type": _cap, "help": "largest reachable SCC edge "
                        "count to accept (default: no limit)"},
         "--explore-cap": {"type": _cap,
                           "help": "cap on subloop exploration"}}

# name -> (handler, the positional arguments and FLAGS it reads, help), in
# the order help lists them
COMMANDS = {
    "zielonka": (cmd_zielonka, "file --dot",
                 "Zielonka tree of the condition"),
    "zt-automaton": (cmd_zt_automaton, "file --dot",
                     "parity automaton built on the branches of the tree"),
    "acd": (cmd_acd, "file --dot --explore-cap",
            "alternating cycle decomposition"),
    "transform": (cmd_transform, "file --dot --explore-cap",
                  "parity transformation of the system"),
    "stats": (cmd_stats, "file --explore-cap",
              "transformation size and priority usage"),
    "shape": (cmd_shape, "file --explore-cap",
              "shape classification of the decomposition"),
    "relabel": (cmd_relabel, "file --target --explore-cap",
                "equivalent condition of the requested class"),
    "compress": (cmd_compress, "file", "remove unused priority values"),
    "compose": (cmd_compose, "automaton file --dot",
                "product of a deterministic automaton with a system"),
    "check-morphism": (cmd_check_morphism,
                       "file --against --loop-cap --explore-cap",
                       "verify the morphism block of a document"),
    "solve": (cmd_solve, "file --explore-cap",
              "solve a parity or Muller game"),
    "oracle-equiv": (cmd_oracle_equiv, "file other --loop-cap --explore-cap",
                     "equivalence of two conditions on every reachable "
                     "loop, by comparing their decompositions"),
}


@functools.cache
def build_parser():
    """The parser of COMMANDS, built the first time `_read_call` declines
    an argv and kept: parsing leaves no state in it.  Every subcommand
    inherits `-o`."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="write the result here "
                        "instead of stdout")
    parser = argparse.ArgumentParser(
        prog="acdkit",
        description="Acceptance condition toolbox: Zielonka trees, "
                    "alternating cycle decompositions, parity "
                    "transformations, relabellings and games.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, arguments, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text, parents=[common])
        p.set_defaults(fn=fn)
        for arg in arguments.split():
            p.add_argument(arg, **FLAGS.get(arg, {}))
    return parser


def _read_call(argv):
    """The namespace that `build_parser().parse_args(argv)` gives a
    well-formed call, read straight from COMMANDS and FLAGS: a command,
    its positionals in order, and `-o`/`--output` and its own flags, each
    followed by one value that does not start with `-`, with choices and
    caps that hold and every required flag.  None for any other argv,
    which argparse reads: it alone writes help and usage errors.  Parsing
    every call with argparse makes the CLI benchmark's in-process calls
    about 15% slower."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, arguments, _ = COMMANDS[argv[0]]
    names = arguments.split()
    positionals = [a for a in names if a[0] != "-"]
    dests = {"-o": "output", "--output": "output"}
    dests.update((a, a[2:].replace("-", "_")) for a in names if a[0] == "-")
    args = argparse.Namespace(command=argv[0], fn=fn,
                              **dict.fromkeys(dests.values()))
    words = iter(argv[1:])
    for word in words:
        if word in dests:
            value, spec = next(words, "-"), FLAGS.get(word, {})
            if value.startswith("-") or \
                    value not in spec.get("choices", (value,)):
                return None
            try:
                setattr(args, dests[word], spec.get("type", str)(value))
            except argparse.ArgumentTypeError:
                return None
        elif word.startswith("-") or not positionals:
            return None
        else:
            setattr(args, positionals.pop(0), word)
    missing = [f for f in dests if FLAGS.get(f, {}).get("required")
               and getattr(args, dests[f]) is None]
    return None if positionals or missing else args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_call(argv) or build_parser().parse_args(argv)
    try:
        args.fn(args)
        return EXIT_OK
    except PropertyFalse as e:
        print("property check failed: %s" % e, file=sys.stderr)
        return EXIT_PROPERTY_FALSE
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        pass
    # printed once the except block has let go of the error: the frames of
    # its traceback still hold the structure that ran out
    print("cap exceeded: out of memory", file=sys.stderr)
    return EXIT_CAP_EXCEEDED


if __name__ == "__main__":
    sys.exit(main())
