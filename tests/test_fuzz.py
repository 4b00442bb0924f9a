"""The CLI's output rules over mutated documents: a seeded, bounded fuzzer.

Each seed mutates a fixture document (a value of the wrong JSON type, a
deleted key, a foreign id, a duplicated entry, a condition of another
kind, another `over`) and runs it in process through every subcommand,
with small caps where it takes them, once with `-o` (and `--dot`) under a
temporary directory and once to stdout.  For every call:
- the exit code is 0-3, and no exception escapes `cli.main`;
- nothing goes to stdout with `-o`, and a failing exit leaves no `-o` or
  `--dot` file behind;
- exit 2 or 3 writes nothing to stdout, and exit 1 writes nothing or, for
  the two check commands, one JSON report;
- exit 0 writes one JSON document, the same bytes in both runs;
and `docfmt.serialize(docfmt.parse(t))` is a fixed point for every
document text t that parses, the inputs and the documents written.

Beside it, a library fuzzer puts each of ODD_VALUES into each slot of a
small system and its conditions: the constructors raise nothing but
InputError, and `validate` returns a list.  It also puts each value into
every name that a lookup of that system's objects reads (an accessor, a
tree or forest lookup), every collection of names that a loop entry
point reads, and every count: each call returns or raises InputError.  A
table pins the message of each lookup for unknown, unhashable and
foreign names, unknown nodes and tree indices out of range or not an int."""

import copy
import json
import random

import pytest

from acdkit import (Automaton, BuchiCondition, CoBuchiCondition, Edge, Game,
                    InputError, Loop, MullerCondition, ParityCondition,
                    RabinCondition, Run, StreettCondition, TransitionSystem,
                    accessible_x_scc, acd_transform, alternating_children,
                    build_acd, build_zielonka_tree, cli, docfmt,
                    induced_morphism, is_loop, is_weak_k, loop_status,
                    loop_status_over, min_parity_automaton_size, multi_supp,
                    nextbranch, sccs, solve_muller_game, solve_parity_game,
                    subtree_for_state, supp, validate)
from conftest import FIXTURES

SEEDS = range(200)
CAPS = {"--explore-cap": "40", "--loop-cap": "8"}
KINDS = ["muller", "parity", "buchi", "cobuchi", "rabin", "streett"]
ODD_VALUES = [None, 0, -1, 1.5, True, "", "zz", [], ["zz"], {}, {"zz": "q"},
              [["zz", "q0", "q0"]], 10 ** 30]
# the commands whose failing exit 1 prints a report
REPORTS = {"check-morphism", "oracle-equiv"}
SIXSTATE = str(FIXTURES / "sixstate.json")


def _fixtures():
    docs = {p.stem: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(FIXTURES.glob("*.json"))}
    # a document with a morphism block, for check-morphism
    ts, cond = cli._input(SIXSTATE)
    result = cli._acd.acd_transform(ts, cond)
    docs["transformed"] = json.loads(docfmt.serialize(docfmt.Document(
        result.system, result.condition,
        {"vertices": result.vertex_map, "edges": result.edge_map})))
    return docs


def _places(obj):
    """Every (container, key) pair in the JSON tree of `obj`."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield obj, k
        yield from _places(v)


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _strings(v)


def _condition(rng, ids):
    """A condition block of a random kind over some of `ids`."""
    kind = rng.choice(KINDS)
    pick = lambda: sorted(set(rng.sample(ids, rng.randint(1, len(ids)))))
    if kind == "muller":
        return {"type": kind, "family": [pick() for _ in range(3)]}
    if kind == "parity":
        return {"type": kind,
                "priorities": {c: rng.randrange(4) for c in pick()}}
    if kind in ("buchi", "cobuchi"):
        return {"type": kind, "colours": pick()}
    return {"type": kind, "pairs": [[pick(), pick()] for _ in range(2)]}


def _mutate_condition(rng, doc):
    """Give `doc` a condition of a random kind over its colours."""
    system = doc.get("system")
    edges = system.get("edges") if isinstance(system, dict) else None
    colours = system.get("colours") if isinstance(system, dict) else None
    ids = [e[0] for e in edges if isinstance(e, list) and e] \
        if isinstance(edges, list) else []
    if isinstance(colours, dict):
        ids = [colours.get(e, e) for e in ids if isinstance(e, str)]
    keys = sorted({c for c in ids if isinstance(c, str)})
    doc["condition"] = _condition(rng, keys or ["zz"])


def _mutate(rng, doc, docs):
    """One mutation of `doc` in place, inside one of its blocks or, one
    time in ten, at its top level."""
    what = rng.randrange(6)
    blocks = [v for v in doc.values() if isinstance(v, (dict, list)) and v]
    if blocks and rng.random() < 0.9:
        places = list(_places(rng.choice(blocks)))
    else:
        places = list(_places(doc))
    if what == 0:     # a value of the wrong type
        if places:
            box, k = rng.choice(places)
            box[k] = copy.deepcopy(rng.choice(ODD_VALUES))
    elif what == 1:   # a deleted key
        dicts = [(box, k) for box, k in places if isinstance(box, dict)]
        if dicts:
            box, k = rng.choice(dicts)
            del box[k]
    elif what == 2:   # a foreign id, from any fixture
        leaves = [(box, k) for box, k in places if isinstance(box[k], str)]
        if leaves:
            box, k = rng.choice(leaves)
            other = docs[rng.choice(sorted(docs))]
            box[k] = rng.choice(list(_strings(other)) + ["zz"])
    elif what == 3:   # a duplicated entry
        lists = [box[k] for box, k in places
                 if isinstance(box[k], list) and box[k]]
        if lists:
            items = rng.choice(lists)
            items.insert(rng.randrange(len(items) + 1),
                         copy.deepcopy(rng.choice(items)))
    elif what == 4:   # a condition of another kind
        _mutate_condition(rng, doc)
    else:             # another `over`
        cond = doc.get("condition")
        if isinstance(cond, dict):
            cond["over"] = rng.choice(["edges", "edges", "colours",
                                       "vertices", 1, None])


def _document(rng, docs, base, mutations):
    """Fixture `base`, or a random one, after `mutations` mutations."""
    doc = copy.deepcopy(docs[base or rng.choice(sorted(docs))])
    for _ in range(mutations):
        _mutate(rng, doc, docs)
    return doc


def _canonical(text):
    """`serialize(parse(text))` is a fixed point; its first value, or
    None when `text` is not a document."""
    try:
        once = docfmt.serialize(docfmt.parse(text))
    except InputError:
        return None
    assert docfmt.serialize(docfmt.parse(once)) == once
    return once


def _argvs(f, g, morph, h):
    """Every subcommand on the documents `f`, `g` (for `compose`, the
    automaton), `morph` (with a morphism block, checked against `f` and
    against sixstate) and `h` (`f` with another condition, for
    `oracle-equiv`)."""
    argvs = [[sub, f] for sub in ("zielonka", "zt-automaton", "acd",
                                  "transform", "stats", "shape", "compress",
                                  "solve")]
    argvs += [["relabel", f, "--target", t]
              for t in ("rabin", "streett", "parity", "weak")]
    argvs += [["compose", g, f], ["oracle-equiv", f, h],
              ["check-morphism", morph, "--against", f],
              ["check-morphism", morph, "--against", SIXSTATE]]
    assert {a[0] for a in argvs} == set(cli.COMMANDS)
    return argvs


def _check_call(argv, tmp_path, capsys):
    """Run `argv` with `-o` and to stdout and require the output rules;
    returns the exit code."""
    out, dot = tmp_path / "out.json", tmp_path / "out.dot"
    takes = cli.COMMANDS[argv[0]][1].split()
    with_dot = ["--dot", str(dot)] if "--dot" in takes else []
    argv = argv + [x for cap in CAPS if cap in takes for x in (cap, CAPS[cap])]
    code = cli.main(argv + ["-o", str(out)] + with_dot)
    assert code in (0, 1, 2, 3), argv
    assert capsys.readouterr().out == "", argv
    written = out.read_text(encoding="utf-8") if out.exists() else None
    if code in (2, 3) or (code == 1 and argv[0] not in REPORTS):
        assert written is None and not dot.exists(), argv
    else:
        json.loads(written)
        assert code or not with_dot or dot.exists(), argv
    for made in (out, dot):
        if made.exists():
            made.unlink()
    again = cli.main(argv)
    printed = capsys.readouterr().out
    assert again == code, argv
    if code == 0:
        assert printed == written, argv
        if json.loads(printed).get("format") == docfmt.FORMAT:
            assert _canonical(printed) == printed, argv
    elif code == 1 and argv[0] in REPORTS:
        assert printed == written, argv
    else:
        assert printed == "", argv
    return code


def test_cli_output_rules_on_mutated_documents(tmp_path, capsys):
    """Every subcommand on the documents of each seed: `f` a fixture
    with one to three mutations, `g` one, or automatonA, with at most
    three, `m` the transformed sixstate with at most three, and `h` is
    `f` with a condition of a random kind.  Every subcommand exits 0 on
    some seed, and every exit code is seen."""
    docs = _fixtures()
    codes = []
    for seed in SEEDS:
        rng = random.Random(seed)
        f = _document(rng, docs, None, rng.choice([1, 1, 2, 3]))
        g = _document(rng, docs, rng.choice([None, "automatonA"]),
                      rng.randint(0, 3))
        m = _document(rng, docs, "transformed", rng.randint(0, 3))
        h = copy.deepcopy(f)
        _mutate_condition(rng, h)
        paths = []
        for name, doc in zip("fgmh", (f, g, m, h)):
            text = json.dumps(doc, indent=rng.choice([None, 2]))
            _canonical(text)
            path = tmp_path / ("%s.json" % name)
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        codes += [(argv[0], _check_call(argv, tmp_path, capsys))
                  for argv in _argvs(*paths)]
    assert {sub for sub, code in codes if code == 0} == set(cli.COMMANDS)
    assert {code for _, code in codes} == {0, 1, 2, 3}


# A library-level fuzzer beside the CLI one: each of ODD_VALUES in each
# element slot of a small game automaton (owners, letters and colours on
# two states), and in a member of each of its conditions: a family set, a
# Büchi colour, a pair, a pair side and a priority.
BASE = {"vertices": ["p", "q"],
        "edges": [["w", "p", "q"], ["x", "q", "p"], ["y", "p", "p"],
                  ["z", "q", "q"]],
        "initial": ["p"],
        "owners": {"p": "Eve", "q": "Adam"},
        "letters": {"w": "a", "x": "a", "y": "b", "z": "b"},
        "colours": {"w": "c", "x": "d", "y": "c", "z": "d"},
        "family": [["c"], ["c", "d"]], "buchi": ["d"],
        "pairs": [[["c"], ["d"]]], "priorities": {"c": 0, "d": 1}}
# slot -> the path in BASE to the value it replaces
SLOTS = {"vertex": ("vertices", 0), "initial vertex": ("initial", 0),
         "edge id": ("edges", 0, 0), "source": ("edges", 1, 1),
         "target": ("edges", 2, 2), "owner": ("owners", "q"),
         "letter": ("letters", "x"), "colour": ("colours", "y"),
         "family member": ("family", 0), "buchi colour": ("buchi", 0),
         "pair": ("pairs", 0), "pair side": ("pairs", 0, 1),
         "priority": ("priorities", "d")}
# and each argument as a whole
SLOTS.update((key, (key,)) for key in BASE)


def _placed(slot, value):
    """A deep copy of BASE with `value` in `slot`."""
    obj = copy.deepcopy(BASE)
    *path, last = SLOTS[slot]
    box = obj
    for key in path:
        box = box[key]
    box[last] = value
    return obj


@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_library_constructors_on_odd_values(slot):
    """Every construction succeeds or raises InputError, and `validate`
    returns a list for each condition of a system that was built."""
    for value in ODD_VALUES:
        obj = _placed(slot, value)
        try:
            ts = TransitionSystem(
                obj["vertices"], obj["edges"], obj["initial"],
                owners=obj["owners"], letters=obj["letters"],
                colours=obj["colours"])
            conds = [MullerCondition(obj["family"]),
                     BuchiCondition(obj["buchi"]),
                     CoBuchiCondition(obj["buchi"]),
                     RabinCondition(obj["pairs"]),
                     StreettCondition(obj["pairs"]),
                     ParityCondition(obj["priorities"])]
        except InputError:
            continue
        for cond in conds:
            assert isinstance(validate(ts, cond), list), (slot, value)
            try:
                Automaton(ts, cond)
            except InputError:
                pass


def _built():
    """BASE's system; its automaton, Zielonka tree, ACD and transform
    morphism under the Muller family; and the solutions of its game under
    the priorities and under the family."""
    ts = TransitionSystem(BASE["vertices"], BASE["edges"], BASE["initial"],
                          owners=BASE["owners"], letters=BASE["letters"],
                          colours=BASE["colours"])
    muller = MullerCondition(BASE["family"])
    parity = ParityCondition(BASE["priorities"])
    acd = build_acd(ts, muller)
    return {"ts": ts, "muller": muller, "parity": parity, "acd": acd,
            "aut": Automaton(ts, muller),
            "tree": build_zielonka_tree(BASE["family"], ["c", "d"]),
            "morphism": induced_morphism(acd_transform(ts, muller), ts,
                                         muller),
            "psol": solve_parity_game(Game(ts, parity)),
            "msol": solve_muller_game(Game(ts, muller))}


# slot -> a call of the built objects `o` with the value `x` in that slot:
# the names each lookup reads, then the collections of names each loop
# entry point reads, then the counts
LOOKUPS = {
    "TransitionSystem.edge": lambda o, x: o["ts"].edge(x),
    "TransitionSystem.out": lambda o, x: o["ts"].out(x),
    "TransitionSystem.letter": lambda o, x: o["ts"].letter(x),
    "TransitionSystem.colour": lambda o, x: o["ts"].colour(x),
    "Automaton.step state": lambda o, x: o["aut"].step(x, "a"),
    "Automaton.step letter": lambda o, x: o["aut"].step("p", x),
    "Morphism.apply_vertex": lambda o, x: o["morphism"].apply_vertex(x),
    "Morphism.apply_edge": lambda o, x: o["morphism"].apply_edge(x),
    "ACD.subtree_for_state": lambda o, x: o["acd"].subtree_for_state(x),
    "subtree_for_state": lambda o, x: subtree_for_state(o["acd"], x),
    "ParitySolution.winner": lambda o, x: o["psol"].winner(x),
    "MullerSolution.winner": lambda o, x: o["msol"].winner(x),
    "supp leaf": lambda o, x: supp(o["tree"], x, "c"),
    "supp colour": lambda o, x: supp(o["tree"], o["tree"].leaves[0], x),
    "nextbranch leaf": lambda o, x: nextbranch(o["tree"], x, ()),
    "nextbranch node": lambda o, x: nextbranch(o["tree"], (), x),
    "multi_supp leaf": lambda o, x: multi_supp(o["acd"], x, 1, "w"),
    "multi_supp index": lambda o, x: multi_supp(o["acd"], (), x, "w"),
    "multi_supp edge": lambda o, x: multi_supp(o["acd"], (), 1, x),
    "ACD.edge_step leaf": lambda o, x: o["acd"].edge_step(
        x, o["ts"].edge("w")),
    "ACD.edge_step edge": lambda o, x: o["acd"].edge_step((), x),
    "ACD.tree": lambda o, x: o["acd"].tree(x),
    "ACD.priority index": lambda o, x: o["acd"].priority(x, ()),
    "ACD.priority node": lambda o, x: o["acd"].priority(1, x),
    "loop_status": lambda o, x: loop_status(o["parity"], x),
    "loop_status_over": lambda o, x: loop_status_over(o["ts"], o["muller"],
                                                      x),
    "sccs": lambda o, x: sccs(o["ts"], x),
    "Loop.of": lambda o, x: Loop.of(o["ts"], x),
    "is_loop": lambda o, x: is_loop(o["ts"], x),
    "alternating_children loop": lambda o, x: alternating_children(
        o["ts"], o["muller"], x),
    "accessible_x_scc": lambda o, x: accessible_x_scc(o["aut"], x),
    "Run prefix": lambda o, x: Run(o["ts"], x, ["y"]),
    "Run cycle": lambda o, x: Run(o["ts"], [], x),
    "is_weak_k k": lambda o, x: is_weak_k(o["ts"], o["parity"], x),
    "n_max": lambda o, x: min_parity_automaton_size(
        BASE["family"], ["c", "d"], x),
    "priority_values": lambda o, x: min_parity_automaton_size(
        BASE["family"], ["c", "d"], 3, x),
    "priority value": lambda o, x: min_parity_automaton_size(
        BASE["family"], ["c", "d"], 3, [0, x]),
}


@pytest.mark.parametrize("slot", sorted(LOOKUPS))
def test_library_lookups_on_odd_values(slot):
    """Every lookup, loop entry point and count returns or raises
    InputError, whatever the value in the slot."""
    objects = _built()
    for value in ODD_VALUES:
        try:
            LOOKUPS[slot](objects, copy.deepcopy(value))
        except InputError:
            pass


FOREIGN = Edge("z", "zz", "p")
# label -> (call of the built objects, its message): an unknown and an
# unhashable name for each accessor, and for the tree and forest lookups
# unknown nodes, a node off its branch, foreign edges, a non-loop, and
# tree indices out of range, negative or not an int (a bool or a float)
MESSAGES = {
    "edge unknown": (lambda o: o["ts"].edge("zz"), "unknown edge 'zz'"),
    "edge unhashable": (lambda o: o["ts"].edge(["zz"]),
                        "unknown edge ['zz']"),
    "out unknown": (lambda o: o["ts"].out("zz"), "unknown vertex 'zz'"),
    "out unhashable": (lambda o: o["ts"].out(["zz"]),
                       "unknown vertex ['zz']"),
    "letter unknown": (lambda o: o["ts"].letter("zz"),
                       "edge 'zz' has no letter"),
    "letter unhashable": (lambda o: o["ts"].letter(["zz"]),
                          "edge ['zz'] has no letter"),
    "letter of a system without letters": (
        lambda o: TransitionSystem(["p"], [("e", "p", "p")], ["p"]).letter(
            "e"), "system has no letter labelling"),
    "colour unknown": (lambda o: o["ts"].colour("zz"), "unknown edge 'zz'"),
    "colour unhashable": (lambda o: o["ts"].colour([1]),
                          "unknown edge [1]"),
    "alternating_children not a loop": (
        lambda o: alternating_children(o["ts"], o["muller"], "x"),
        "loop 'x' is not a Loop"),
    "step unknown state": (lambda o: o["aut"].step("zz", "a"),
                           "no transition from 'zz' on 'a'"),
    "step unhashable letter": (lambda o: o["aut"].step("p", ["a"]),
                               "no transition from 'p' on ['a']"),
    "apply_vertex unknown": (lambda o: o["morphism"].apply_vertex("zz"),
                             "vertex 'zz' is not mapped"),
    "apply_vertex tuple": (lambda o: o["morphism"].apply_vertex(("p", "q")),
                           "vertex ('p', 'q') is not mapped"),
    "apply_vertex unhashable": (lambda o: o["morphism"].apply_vertex(["zz"]),
                                "vertex ['zz'] is not mapped"),
    "apply_edge unknown": (lambda o: o["morphism"].apply_edge("zz"),
                           "edge 'zz' is not mapped"),
    "apply_edge unhashable": (lambda o: o["morphism"].apply_edge(["zz"]),
                              "edge ['zz'] is not mapped"),
    "subtree_for_state unknown": (
        lambda o: o["acd"].subtree_for_state("zz"), "unknown vertex 'zz'"),
    "subtree_for_state unhashable": (
        lambda o: subtree_for_state(o["acd"], ["zz"]),
        "unknown vertex ['zz']"),
    "parity winner unknown": (lambda o: o["psol"].winner("zz"),
                              "unknown vertex 'zz'"),
    "parity winner unhashable": (lambda o: o["psol"].winner(["zz"]),
                                 "unknown vertex ['zz']"),
    "muller winner unhashable": (lambda o: o["msol"].winner(["zz"]),
                                 "unknown vertex ['zz']"),
    "supp unknown node": (lambda o: supp(o["tree"], (5,), "c"),
                          "unknown node (5,)"),
    "supp unhashable node": (lambda o: supp(o["tree"], [0], "c"),
                             "unknown node [0]"),
    "supp unknown colour": (lambda o: supp(o["tree"], (), "zz"),
                            "unknown colour 'zz'"),
    "supp unhashable colour": (lambda o: supp(o["tree"], (), ["c"]),
                               "unknown colour ['c']"),
    "nextbranch unknown node": (lambda o: nextbranch(o["tree"], (), (9,)),
                                "unknown node (9,)"),
    "nextbranch unhashable node": (lambda o: nextbranch(o["tree"], (), [0]),
                                   "unknown node [0]"),
    "nextbranch leaf not a node": (
        lambda o: nextbranch(o["tree"], None, ()), "unknown node None"),
    "nextbranch node off the branch": (
        lambda o: nextbranch(o["tree"], (), (0,)),
        "node (0,) is not on the branch ()"),
    "multi_supp unknown edge": (lambda o: multi_supp(o["acd"], (), 1, "zz"),
                                "unknown edge 'zz'"),
    "multi_supp unhashable edge": (
        lambda o: multi_supp(o["acd"], (), 1, ["w"]), "unknown edge ['w']"),
    "multi_supp index out of range": (
        lambda o: multi_supp(o["acd"], (), 7, "w"), "unknown tree index 7"),
    "multi_supp negative index": (
        lambda o: multi_supp(o["acd"], (), -1, "w"),
        "unknown tree index -1"),
    "multi_supp float index": (
        lambda o: multi_supp(o["acd"], (), 1.0, "w"),
        "unknown tree index 1.0"),
    "multi_supp unknown node": (
        lambda o: multi_supp(o["acd"], (9, 9), 1, "w"),
        "unknown node (9, 9)"),
    "edge_step foreign edge": (lambda o: o["acd"].edge_step((), FOREIGN),
                               "unknown edge %r" % FOREIGN),
    "edge_step foreign edge of a known id": (
        lambda o: o["acd"].edge_step((), Edge("w", "q", "q")),
        "unknown edge Edge(id='w', source='q', target='q')"),
    "edge_step not an edge": (lambda o: o["acd"].edge_step((), "w"),
                              "unknown edge 'w'"),
    "edge_step unknown node": (
        lambda o: o["acd"].edge_step((9,), o["ts"].edge("w")),
        "unknown node (9,)"),
    "tree index out of range": (lambda o: o["acd"].tree(7),
                                "unknown tree index 7"),
    "tree negative index": (lambda o: o["acd"].tree(-1),
                            "unknown tree index -1"),
    "tree unhashable index": (lambda o: o["acd"].tree([1]),
                              "unknown tree index [1]"),
    "tree bool index True": (lambda o: o["acd"].tree(True),
                             "unknown tree index True"),
    "tree bool index False": (lambda o: o["acd"].tree(False),
                              "unknown tree index False"),
    "tree float index": (lambda o: o["acd"].tree(1.0),
                         "unknown tree index 1.0"),
    "priority unknown node": (lambda o: o["acd"].priority(1, (9, 9)),
                              "unknown node (9, 9)"),
    "priority unhashable node": (lambda o: o["acd"].priority(1, [0]),
                                 "unknown node [0]"),
    "priority negative index": (lambda o: o["acd"].priority(-1, ()),
                                "unknown tree index -1"),
    "priority bool index": (lambda o: o["acd"].priority(True, ()),
                            "unknown tree index True"),
}


@pytest.mark.parametrize("label", MESSAGES)
def test_lookup_messages(label):
    """Each lookup refuses a name it lacks with an InputError naming it as
    given: no KeyError, IndexError or TypeError, and no answer for a node,
    an edge or a tree that does not exist."""
    call, message = MESSAGES[label]
    with pytest.raises(InputError) as err:
        call(_built())
    assert str(err.value) == message
