import json
import operator
import os
import random

import pytest

from acdkit import (Automaton, BuchiCondition, CapExceeded, CoBuchiCondition,
                    Game, InputError, Morphism, MullerCondition,
                    ParityCondition, RabinCondition, Run, StreettCondition,
                    TransitionSystem, accessible_x_scc, acd_transform,
                    build_zielonka_tree, build_zt_automaton,
                    check_local, check_structural, compose, docfmt,
                    enumerate_reachable_loops, equivalent_over, lift_run,
                    loop_status, loop_status_over, to_explicit_muller,
                    validate)
from acdkit.core import (_TRIM_ABOVE, Edge, _components, _reach,
                         _tarjan_marks)
from conftest import (CONDITION_KINDS, cell, grid, random_condition,
                      random_system, recoloured, sampled_cases,
                      under_hash_seeds)
from oracles import grouped_components, kosaraju_components, loop_equivalent


def two_state_parity():
    ts = TransitionSystem(["p", "q"],
                          [("s", "p", "p"), ("t", "p", "q"),
                           ("u", "q", "q"), ("v", "q", "p")],
                          ["p"])
    return ts, ParityCondition({"s": 1, "t": 2, "u": 2, "v": 3})


def test_loop_status_parity():
    cond = ParityCondition({"a": 1, "b": 2})
    assert loop_status(cond, {"b"})
    assert not loop_status(cond, {"a", "b"})


def test_loop_status_muller_f1():
    cond = MullerCondition([{"a"}, {"b"}])
    assert not loop_status(cond, {"a", "b"})
    assert loop_status(cond, {"a"})


def test_loop_status_rabin_streett():
    rabin = RabinCondition([({"e"}, set())])
    assert loop_status(rabin, {"e"})
    streett = StreettCondition([({"e"}, {"f"})])
    assert not loop_status(streett, {"e"})
    assert loop_status(streett, {"e", "f"})
    assert loop_status(streett, {"g"})


def test_loop_status_rejects_empty():
    with pytest.raises(InputError):
        loop_status(BuchiCondition({"a"}), set())


UNKNOWN_LOOP_EDGES = """
from acdkit import (InputError, MullerCondition, TransitionSystem, is_loop,
                    loop_status_over, sccs)
from acdkit.core import _over
ts = TransitionSystem(["p"], [("a", "p", "p")], ["p"])
cond = MullerCondition([{"a"}])
for check in (lambda es: loop_status_over(ts, cond, es),
              lambda es: loop_status_over(ts, _over(cond, "edges"), es),
              lambda es: sccs(ts, es), lambda es: is_loop(ts, es)):
    try:
        check(["zz", "bb", "yy", "cc"])
    except InputError as e:
        print(e)
"""


def test_loop_status_over_names_the_least_unknown_edge_in_subprocess():
    """Under either reading, and in `sccs` and `is_loop`, an edge set
    naming several edges that the system lacks is refused naming the
    least of them, whatever the hash seed."""
    assert under_hash_seeds(UNKNOWN_LOOP_EDGES, ("0", "1", "2", "3")) == \
        ["unknown edge 'bb'\n" * 4] * 4


def test_validate_ok():
    ts, cond = two_state_parity()
    assert validate(ts, cond) == []


def test_validate_dead_end():
    ts = TransitionSystem(["p", "q"], [("s", "p", "q"), ("t", "q", "p")], ["p"])
    ts2 = TransitionSystem(["p", "q"], [("s", "p", "q")], ["p"])
    assert validate(ts) == []
    assert any("dead-end" in p for p in validate(ts2))


def test_validate_lists_dead_ends_in_vertex_order():
    ts = TransitionSystem(["z", "p", "b"], [("s", "p", "p")], ["p"])
    assert validate(ts) == ["dead-end vertex 'b' has no outgoing edge",
                            "dead-end vertex 'z' has no outgoing edge"]


def test_validate_initial_and_colours():
    ts = TransitionSystem(["p"], [("s", "p", "p")], [])
    assert any("initial" in p for p in validate(ts))
    ts = TransitionSystem(["p"], [("s", "p", "p")], ["p"])
    probs = validate(ts, ParityCondition({"other": 0}))
    assert probs


def test_muller_rejects_empty_set():
    with pytest.raises(InputError):
        MullerCondition([set()])


def _assert_numbered(ts):
    """`_src` and `_tgt` name each edge's endpoints by their places in
    `vertices`, in `edges` order."""
    assert len(ts._src) == len(ts._tgt) == len(ts.edges)
    for i, e in enumerate(ts.edges):
        assert ts.vertices[ts._src[i]] == e.source
        assert ts.vertices[ts._tgt[i]] == e.target


def test_a_system_numbers_its_edges_endpoints():
    """On random systems, on systems rebuilt from another system's `Edge`
    objects, recoloured or with one more vertex placed first, so that the
    shared edges' numbers all move, and on the systems that
    `acd_transform` and `compose` lift.  Edges given as `Edge` objects,
    triples or both read the same."""
    rng = random.Random(61)
    for _ in range(150):
        ts = random_system(rng, with_owners=True)
        _assert_numbered(ts)
        _assert_numbered(recoloured(rng, ts, "ab"))
        shifted = TransitionSystem(("a",) + ts.vertices, ts.edges, ts.initial)
        assert all(map(operator.is_, shifted.edges, ts.edges))
        assert shifted._src == [s + 1 for s in ts._src]
        assert shifted._tgt == [t + 1 for t in ts._tgt]
        _assert_numbered(shifted)
        mixed = TransitionSystem(
            ts.vertices, [(e.id, e.source, e.target) for e in ts.edges[1:]]
            + list(ts.edges[:1]), ts.initial)
        assert (mixed.edges, mixed._src, mixed._tgt) == \
            (ts.edges, ts._src, ts._tgt)
        cond = random_condition(rng, "muller", ts.colour_set())
        _assert_numbered(acd_transform(ts, cond).system)
        zt = build_zt_automaton(build_zielonka_tree(cond.family,
                                                    ts.colour_set()))
        _assert_numbered(compose(zt.automaton, ts, cond).system)


def test_constructor_referential_integrity():
    with pytest.raises(InputError):
        TransitionSystem(["p"], [("s", "p", "nope")], ["p"])
    with pytest.raises(InputError):
        TransitionSystem(["p"], [("s", "p", "p"), ("s", "p", "p")], ["p"])
    with pytest.raises(InputError):
        TransitionSystem(["p"], [("s", "p", "p")], ["zz"])


@pytest.mark.parametrize("vertices, edges, initial, message", [
    ([0], [(0, 0, 0)], [0], "vertex 0 is not a string"),
    (["a"], [(1, "a", "a")], ["a"], "edge id 1 is not a string"),
    (["a", 0], [], ["a"], "vertex 0 is not a string"),
    (["a"], [], ["a", 0], "initial vertex 0 is not a string"),
    (["a"], [("x", "a", 0)], ["a"], "edge 'x' has undeclared target 0"),
    (["a", ["b"]], [], ["a"], "vertex ['b'] is not a string"),
    (["a"], [], [None], "initial vertex None is not a string"),
    (["a"], [("x", ["a"], "a")], ["a"], "edge 'x' has undeclared source ['a']"),
    (["a"], [("x", "a", True)], ["a"], "edge 'x' has undeclared target True"),
    (["a"], [["x", "a"]], ["a"],
     "edge ['x', 'a'] is not an (id, source, target) triple"),
])
def test_ids_are_never_reread_as_strings(vertices, edges, initial, message):
    """The constructor is the one checker of these values: `docfmt.parse`
    of the document that holds them gives its message."""
    with pytest.raises(InputError) as err:
        TransitionSystem(vertices, edges, initial)
    assert str(err.value) == message
    block = {"vertices": vertices, "edges": edges, "initial": initial}
    with pytest.raises(InputError) as err:
        docfmt.parse(json.dumps({"format": docfmt.FORMAT, "system": block}))
    assert str(err.value) == message


def test_a_bool_priority_has_one_checker():
    message = "priority of 'a' must be a nonnegative integer"
    with pytest.raises(InputError, match=message):
        ParityCondition({"a": True})
    with pytest.raises(InputError, match=message):
        docfmt.condition_from_obj({"type": "parity", "priorities": {"a": True}})


@pytest.mark.parametrize("what", ["colour", "letter"])
def test_an_unhashable_colour_or_letter_is_refused(what):
    """An unhashable value is not a string: the message names the first
    value that is not one, in the map's order."""
    labels = {"x": "a", "z": {}, "y": ["c"]}
    with pytest.raises(InputError) as err:
        TransitionSystem(["a"], [(e, "a", "a") for e in "zyx"], ["a"],
                         **{what + "s": labels})
    assert str(err.value) == "%s {} is not a string" % what


def test_messages_name_values_of_any_type():
    """A letter, colour or edge id of another type than a string is
    refused where it is given, by a message that names it by its repr;
    a list of string values in a message comes sorted.  The first two
    cases would otherwise build a condition or system that `docfmt`
    could not write or read back."""
    aut = Automaton(TransitionSystem(["q"], [("e", "q", "q")], ["q"],
                                     letters={"e": "a"}),
                    BuchiCondition(["e"]))
    ts = TransitionSystem(["p"], [("g", "p", "p")], ["p"])
    for build, message in [
            (lambda: ParityCondition({"x": 0, 1: 1}),
             "colour 1 is not a string"),
            (lambda: TransitionSystem(["p"], [("x", "p", "p")], ["p"],
                                      letters={"x": 1}),
             "letter 1 is not a string"),
            (lambda: TransitionSystem(["p"], [("g", "p", "p"),
                                              ("h", "p", "p")], ["p"],
                                      colours={"g": "zz", "h": None}),
             "colour None is not a string"),
            (lambda: MullerCondition([["zz", 1, None]]),
             "colour 1 is not a string"),
            (lambda: accessible_x_scc(aut, ["b", 10]),
             "letter 10 is not a string"),
            (lambda: loop_status_over(ts, BuchiCondition(["g"]), ["zz", 2]),
             "edge id 2 is not a string")]:
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message
    host = TransitionSystem(["p"], [("g", "p", "p"), ("h", "p", "p")], ["p"],
                            colours={"g": "zz", "h": "10"})
    with pytest.raises(InputError) as err:
        compose(aut, host)
    assert str(err.value) == "automaton alphabet misses colours: 10, zz"
    with pytest.raises(InputError) as err:
        accessible_x_scc(aut, ["zz", "b", "10"])
    assert str(err.value) == "letters not in alphabet: 10, b, zz"
    assert validate(ts, MullerCondition([["zz", "g", "b"]])) == [
        "condition references unknown colour 'b'"]
    letters = {"g": "a", "h": "c", "i": "b"}
    with pytest.raises(InputError) as err:
        Automaton(TransitionSystem(["p", "q"], [("g", "p", "q"),
                                                ("h", "q", "p"),
                                                ("i", "q", "q")],
                                   ["p"], letters=letters),
                  BuchiCondition(["g"]))
    assert str(err.value) == \
        "automaton not complete at state 'p', letter 'b'"


@pytest.mark.parametrize("build, message", [
    (lambda: MullerCondition([1]),
     "family set 1 is not a collection of strings"),
    (lambda: MullerCondition([["a"], 7]),
     "family set 7 is not a collection of strings"),
    (lambda: MullerCondition(["ab"]),
     "family set 'ab' is not a collection of strings"),
    (lambda: CoBuchiCondition([[1]]), "colour [1] is not a string"),
    (lambda: BuchiCondition(None),
     "colour set None is not a collection of strings"),
    (lambda: RabinCondition([("a",)]), "pair ('a',) is not an (E, F) pair"),
    (lambda: StreettCondition(["ab"]), "pair 'ab' is not an (E, F) pair"),
    (lambda: RabinCondition([(["a"], "b")]),
     "pair side 'b' is not a collection of strings"),
    (lambda: StreettCondition([(["a"], [0.5])]),
     "colour 0.5 is not a string"),
], ids=["muller-int", "muller-late-int", "muller-string", "cobuchi-list",
        "buchi-none", "rabin-one-side", "streett-string-pair",
        "rabin-string-side", "streett-float"])
def test_condition_constructors_refuse_malformed_members(build, message):
    """A condition names the member it cannot read, never raising a bare
    TypeError or ValueError; a string is not read as its characters."""
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("block, message", [
    ({"system": {"colours": {"x": 1}}}, "colour 1 is not a string"),
    ({"system": {"letters": {"x": None}}}, "letter None is not a string"),
    ({"system": {"colours": ["x"]}}, "colours must be an object"),
    ({"condition": {"type": "muller", "family": [["x", 2]]}},
     "colour 2 is not a string"),
    ({"condition": {"type": "buchi", "colours": [["x"]]}},
     "colour ['x'] is not a string"),
    ({"condition": {"type": "rabin", "pairs": [[["x"], [True]]]}},
     "colour True is not a string"),
    ({"condition": {"type": "parity", "priorities": {"x": 0, "y": "1"}}},
     "priority of 'y' must be a nonnegative integer"),
    ({"condition": {"type": "muller", "family": ["x"]}},
     "a family set must be a list"),
], ids=["colour", "letter", "colour-map", "family-member", "buchi-colour",
        "pair-side-member", "priority", "family-set"])
def test_letters_and_colours_have_one_checker(block, message):
    """`docfmt.parse` checks the JSON shapes of the system's letter and
    colour maps and of a condition's members; the system and the
    condition check the values inside, so a document gives the message
    of the constructor."""
    obj = {"format": docfmt.FORMAT,
           "system": {"vertices": ["p"], "edges": [["x", "p", "p"]],
                      "initial": ["p"]}}
    obj["system"].update(block.get("system", {}))
    obj["condition"] = block.get("condition")
    with pytest.raises(InputError) as err:
        docfmt.parse(json.dumps(obj))
    assert str(err.value) == message


@pytest.mark.parametrize("edge, named", [
    (("x", "a"), "('x', 'a')"),
    (("x", "a", "a", "a"), "('x', 'a', 'a', 'a')"),
    (5, "5"),
    ("xaa", "'xaa'"),
    ({"x": 0, "a": 1, "b": 2}, "{'x': 0, 'a': 1, 'b': 2}"),
    (frozenset({"x"}), "frozenset({'x'})"),
], ids=["pair", "four", "non-iterable", "string", "dict", "set"])
def test_an_edge_that_is_not_a_triple_is_an_input_error(edge, named):
    with pytest.raises(InputError) as err:
        TransitionSystem(["a"], [edge], ["a"])
    assert str(err.value) == \
        "edge %s is not an (id, source, target) triple" % named


def test_partial_owners_and_letters_are_input_errors():
    """Owners, when given, cover every vertex and letters every edge; the
    first one missing in sorted order is named."""
    vs = ["p", "q", "r"]
    edges = [("x", "p", "q"), ("y", "q", "r"), ("z", "r", "p")]
    with pytest.raises(InputError, match="^vertex 'q' has no owner$"):
        TransitionSystem(vs, edges, ["p"], owners={"p": "Eve", "r": "Adam"})
    with pytest.raises(InputError, match="^edge 'y' has no letter$"):
        TransitionSystem(vs, edges, ["p"], letters={"x": "a", "z": "b"})


@pytest.mark.parametrize("what, labels, message", [
    ("owners", {"p": "Eve", "q": "Eve", "r": "Eve", "s": "Adam"},
     "owner given for unknown vertex 's'"),
    ("owners", {"p": "Eve", "q": "Eve", "r": "Eve", 1: "Adam"},
     "owner given for unknown vertex 1"),
    ("owners", {"p": "Eve", "r": "Adam"}, "vertex 'q' has no owner"),
    ("owners", {"p": "Eve", "q": "Bob", "r": "Adam"},
     "owner of 'q' must be Eve or Adam"),
    ("owners", {"p": "Eve", "q": ["Eve"], "r": "Adam"},
     "owner of 'q' must be Eve or Adam"),
    # two faults: the map's order between a bad key and a bad value, and
    # either before a missing vertex
    ("owners", {"q": "Bob", "s": "Eve"}, "owner of 'q' must be Eve or Adam"),
    ("owners", {"s": "Eve", "q": "Bob"}, "owner given for unknown vertex 's'"),
    ("owners", {"p": "Eve", "r": "Bob"}, "owner of 'r' must be Eve or Adam"),
    ("letters", {"x": "a", "y": "a", "z": "a", "w": "b"},
     "letter given for unknown edge 'w'"),
    ("letters", {"x": "a", "z": "b"}, "edge 'y' has no letter"),
    ("letters", {"x": "a", "y": ["c"], "z": "b"},
     "letter ['c'] is not a string"),
    # two faults: an unknown key, then a missing edge, then a value that
    # is not a string
    ("letters", {"x": ["c"], "w": "a"}, "letter given for unknown edge 'w'"),
    ("letters", {"x": ["c"], "z": "b"}, "edge 'y' has no letter"),
    ("colours", {"w": "a"}, "colour given for unknown edge 'w'"),
    ("colours", {"x": "a", "y": ["c"]}, "colour ['c'] is not a string"),
    # two faults: an unknown key before a value that is not a string, and
    # the first of two such values in the map's order
    ("colours", {"y": ["c"], "w": "a"}, "colour given for unknown edge 'w'"),
    ("colours", {"z": {}, "y": ["c"]}, "colour {} is not a string"),
    ("letters", {"x": "a", "y": 1, "z": "b"}, "letter 1 is not a string"),
    ("colours", {"z": "y", "x": 0}, "colour 0 is not a string"),
])
def test_labelling_messages(what, labels, message):
    """Each fault of an owner, letter or colour map has one message, and
    of two faults in one map the same one is named first."""
    edges = [("x", "p", "q"), ("y", "q", "r"), ("z", "r", "p")]
    with pytest.raises(InputError) as err:
        TransitionSystem(["p", "q", "r"], edges, ["p"], **{what: labels})
    assert str(err.value) == message


def _system(**given):
    """The system of vertices p, q, edges x: p -> q and y: q -> p and
    initial p, with the arguments in `given` put in."""
    args = {"vertices": ["p", "q"], "initial": ["p"],
            "edges": [("x", "p", "q"), ("y", "q", "p")]}
    args.update(given)
    return TransitionSystem(**args)


@pytest.mark.parametrize("build, message", [
    (lambda: ParityCondition(5), "priorities 5 is not a collection of pairs"),
    (lambda: ParityCondition([("a",)]),
     "priorities [('a',)] is not a collection of pairs"),
    (lambda: ParityCondition("a0"),
     "priorities 'a0' is not a collection of pairs"),
    (lambda: MullerCondition(5),
     "family 5 is not a collection of colour sets"),
    (lambda: RabinCondition(5), "pairs 5 is not a collection of pairs"),
    (lambda: StreettCondition(None),
     "pairs None is not a collection of pairs"),
    (lambda: BuchiCondition("a"),
     "colour set 'a' is not a collection of strings"),
    (lambda: _system(vertices=5), "vertices 5 is not a collection of strings"),
    (lambda: _system(edges=5), "edges 5 is not a collection of edges"),
    (lambda: _system(initial=5), "initial 5 is not a collection of strings"),
    (lambda: _system(owners=5), "owners 5 is not a collection of pairs"),
    (lambda: _system(owners=[1]), "owners [1] is not a collection of pairs"),
    # a value that is no map is refused even when it is false, as an
    # empty map is not: that reads as no labelling
    (lambda: _system(owners=0), "owners 0 is not a collection of pairs"),
    (lambda: _system(letters=""), "letters '' is not a collection of pairs"),
    (lambda: _system(letters=[("x", "a", "b")]),
     "letters [('x', 'a', 'b')] is not a collection of pairs"),
    (lambda: _system(colours="x"), "colours 'x' is not a collection of pairs"),
    (lambda: build_zielonka_tree(5, {"a"}),
     "family 5 is not a collection of colour sets"),
    (lambda: build_zielonka_tree([["a"]], 5),
     "colour set 5 is not a collection of strings"),
    # a string would read as its characters: vertices p and q
    (lambda: _system(vertices="pq"),
     "vertices 'pq' is not a collection of strings"),
    (lambda: _system(initial="p"),
     "initial 'p' is not a collection of strings"),
    # an unhashable key is named as a hashable one of its kind would be
    (lambda: ParityCondition([([1], 0)]), "colour [1] is not a string"),
    (lambda: _system(owners=[([1], "Eve")]),
     "owner given for unknown vertex [1]"),
    (lambda: _system(colours=[(["x"], "a")]),
     "colour given for unknown edge ['x']"),
    # well-shaped arguments that break a rule of the object they name
    (lambda: Automaton(_system(letters={"x": "a", "y": "a"}),
                       BuchiCondition({"x"})).run_colours("", ""),
     "cycle must be nonempty"),
    (lambda: Run(_system(), [], ["x", "x"]),
     "edges 'x' and 'x' are not consecutive"),
    (lambda: Game(_system(initial=["p", "q"],
                          owners={"p": "Eve", "q": "Adam"}),
                  BuchiCondition({"x"})),
     "a game has a single initial vertex"),
    # the run starts at q, and the source's one initial vertex maps to p
    (lambda: lift_run(
        Morphism(_system(), None, _system(initial=["p", "q"]), None,
                 {"p": "p", "q": "q"}, {"x": "x", "y": "y"}),
        Run(_system(initial=["p", "q"]), [], ["y", "x"])),
     "no initial vertex above 'q'"),
    # a condition class of a kind that the document format has no form for
    (lambda: docfmt.condition_to_obj(
        type("X", (BuchiCondition,), {"kind": "x"})({"x"})),
     "cannot serialize condition of kind 'x'"),
], ids=["parity-int", "parity-short-pair", "parity-string", "muller-int",
        "rabin-int", "streett-none", "buchi-string", "vertices-int",
        "edges-int", "initial-int", "owners-int", "owners-int-list",
        "owners-zero", "letters-empty-string",
        "letters-triple", "colours-string", "zielonka-family-int",
        "zielonka-gamma-int", "vertices-string", "initial-string",
        "parity-list-key", "owners-list-key", "colours-list-key",
        "run-colours-empty-cycle", "run-not-consecutive",
        "game-two-initial", "lift-run-no-initial-above",
        "condition-of-unknown-kind"])
def test_argument_messages(build, message):
    """An argument of the wrong shape, a value that is no collection or a
    string, or a map that `dict` cannot read, is an InputError naming the
    argument and its value, or an unhashable key, the key; never a bare
    TypeError or ValueError.  So is a well-shaped argument that breaks a
    rule: an empty cycle, edges that do not follow each other, a game of
    two initial vertices, a run with no initial vertex above its start, a
    condition of a kind that the document format cannot write."""
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


def test_arguments_of_every_collection_type_are_read_alike():
    """Lists, tuples, sets, dicts (by their keys, or as maps) and
    generators pass the shape check and build equal systems and
    conditions."""
    edges = [("x", "p", "q"), ("y", "q", "p")]
    owners = [("p", "Eve"), ("q", "Adam")]
    want = _system(owners=dict(owners))
    for form, as_map in ((list, list), (tuple, tuple), (set, set),
                         (dict.fromkeys, dict), (iter, iter)):
        got = _system(vertices=form(["q", "p"]), edges=form(edges),
                      initial=form(["p"]), owners=as_map(owners))
        assert (got.vertices, got.edges, got.initial, got.owners) == \
            (want.vertices, want.edges, want.initial, want.owners), form
        empty = _system(owners=form([]), letters=form([]), colours=form([]))
        assert (empty.owners, empty.letters, empty.colour_set()) == \
            (None, None, {"x", "y"}), form
    pairs = [("a", 0), ("b", 1)]
    for priorities in (dict(pairs), pairs, tuple(pairs), set(pairs),
                       iter(pairs)):
        assert ParityCondition(priorities).priorities == dict(pairs)
    for family in ([["a"], ("a", "b")], ({"a"}, frozenset("ab")),
                   (s for s in [["a"], ["a", "b"]])):
        assert MullerCondition(family).family == {frozenset("a"),
                                                  frozenset("ab")}
    for given in ([(["a"], ["b"])], ((("a",), ("b",)),),
                  iter([[["a"], ["b"]]])):
        assert RabinCondition(given).pairs == ((frozenset("a"),
                                                frozenset("b")),)


def test_reachable_vertices_is_the_edge_fixpoint():
    rng = random.Random(59)
    for _ in range(100):
        base = random_system(rng, max_vertices=8, max_edges=12)
        ts = TransitionSystem(
            base.vertices, base.edges,
            rng.sample(base.vertices, rng.randint(1, len(base.vertices))))
        want = set(ts.initial)
        while True:
            grown = want | {e.target for e in ts.edges if e.source in want}
            if grown == want:
                break
            want = grown
        assert ts.reachable_vertices() == want


def test_tarjan_matches_kosaraju_random():
    """On random digraphs with self-loops and parallel edges, rooted at a
    random part of the vertices in random order, `_tarjan_marks` marks
    exactly the unreached vertices -1, gives two reached vertices equal
    marks exactly when the Kosaraju oracle puts them in one component,
    and marks each component after every component it reaches: no mark
    is below that of a successor."""
    rng = random.Random(71)
    for _ in range(400):
        n = rng.randint(1, 9)
        succ = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            succ[rng.randrange(n)].append(rng.randrange(n))
        roots = rng.sample(range(n), rng.randint(1, n))
        marks = _tarjan_marks(succ, roots)
        reached = _reach(roots, succ.__getitem__)
        assert [v for v in range(n) if marks[v] >= n] == sorted(reached)
        assert all(marks[v] == -1 for v in range(n) if v not in reached)
        comp = kosaraju_components(range(n), succ.__getitem__)
        assert all((marks[v] == marks[w]) == (comp[v] == comp[w])
                   for v in reached for w in reached)
        assert all(marks[v] >= marks[w] for v in reached for w in succ[v])


def test_components_match_kosaraju_on_names():
    """`_components` of random edge lists over names whose sorted order
    differs from the order they first appear in ("v10" < "v9"), with
    self-loops, parallel edges and vertices that are only targets: the
    Kosaraju oracle's components that have an inner edge, in the order of
    their first inner edge, each as its inner edges in the given order,
    whose sources are exactly the component's vertices."""
    rng = random.Random(74)
    seen = {"loop": 0, "parallel": 0, "target-only": 0, "unsorted": 0}
    for _ in range(400):
        n = rng.randint(1, 14)
        names = ["v%d" % i for i in rng.sample(range(n), n)]
        edges = []
        for i in range(rng.randint(0, 2 * n)):
            r = rng.random()
            if r < 0.15 and edges:
                e = rng.choice(edges)
                s, t = e.source, e.target
            elif r < 0.3:
                s = t = rng.choice(names)
            else:
                s, t = rng.choice(names), rng.choice(names)
            edges.append(Edge("e%d" % i, s, t))
        rng.shuffle(edges)
        adj = {}
        for e in edges:
            adj.setdefault(e.source, []).append(e.target)
            adj.setdefault(e.target, [])
        comp = kosaraju_components(adj, adj.__getitem__)
        got = _components(edges)
        assert got == grouped_components(edges)
        assert [{e.source for e in es} for es in got] == \
            [{v for v in adj if comp[v] == comp[es[0].source]} for es in got]
        pairs = [(e.source, e.target) for e in edges]
        seen["loop"] += any(s == t for s, t in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["target-only"] += len(adj) > len({s for s, _ in pairs})
        seen["unsorted"] += list(adj) != sorted(adj)
    assert all(count >= 100 for count in seen.values()), seen


def _mostly_acyclic(rng, n):
    """Random edges over n names in random order: forward edges along a
    random order of the names, and, at a rate drawn per graph, back edges,
    self-loops and parallel copies, so that many vertices lie on no cycle
    and some cycles lie downstream of them."""
    names = ["v%d" % i for i in rng.sample(range(n), n)]
    back = rng.choice([0, 0.002, 0.01, 0.05])
    edges = []
    for i in range(rng.randint(n, 2 * n)):
        a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        r = rng.random()
        if r < back:
            a, b = b, a
        elif r < back + 0.01:
            b = a
        elif r < back + 0.03 and edges:
            e = rng.choice(edges)
            edges.append(Edge("e%d" % i, e.source, e.target))
            continue
        edges.append(Edge("e%d" % i, names[a], names[b]))
    rng.shuffle(edges)
    return edges


def test_trimmed_components_match_the_untrimmed_grouping():
    """On seeded random graphs of 1 to 400 vertices, on both sides of
    `_TRIM_ABOVE`, most of whose vertices lie on no cycle: `_components`
    returns exactly the lists, in the same order, that grouping every
    endpoint's Kosaraju component gives, so the trim drops no vertex of a
    cycle and moves no component."""
    rng = random.Random(43)
    seen = {"below": 0, "above": 0, "sources": 0, "cycles": 0}
    for _ in range(300):
        n = rng.choice([rng.randint(1, _TRIM_ABOVE),
                        rng.randint(_TRIM_ABOVE + 1, 400)])
        edges = _mostly_acyclic(rng, n)
        got = _components(edges)
        assert got == grouped_components(edges)
        ends = {v for e in edges for v in (e.source, e.target)}
        above = len(ends) > _TRIM_ABOVE
        seen["above" if above else "below"] += 1
        if above:   # the trim has vertices to drop, and cycles to keep
            seen["sources"] += len(ends) > len({e.target for e in edges})
            seen["cycles"] += len(got) > 1
    assert all(count >= 60 for count in seen.values()), seen


def test_a_long_path_into_a_cycle_and_trees_around_one():
    """A path of 20,000 vertices into a 3-cycle, and a 5-cycle with long
    trees hanging into it and out of it, one leaf of the tree out of it
    leading into a second cycle: in every given order, `_components`
    returns the cycles' edges and nothing of the paths or trees, as the
    untrimmed grouping does."""
    rng = random.Random(44)
    path = [Edge("p%05d" % i, "u%d" % i, "u%d" % (i + 1))
            for i in range(20000)]
    cycle = [Edge("c0", "u20000", "w1"), Edge("c1", "w1", "w2"),
             Edge("c2", "w2", "u20000")]
    for edges in (path + cycle, cycle + path, path[::-1] + cycle[::-1]):
        assert _components(edges) == [[e for e in edges if e in cycle]]
        assert _components(edges) == grouped_components(edges)
    first = [Edge("a%d" % i, "c%d" % i, "c%d" % ((i + 1) % 5))
             for i in range(5)]
    second = [Edge("b%d" % i, "d%d" % i, "d%d" % ((i + 1) % 3))
              for i in range(3)]
    into = [Edge("i%d" % i, "x%d" % i, "x%d" % ((i - 1) // 2) if i else "c0")
            for i in range(600)]
    out = [Edge("o%d" % i, "y%d" % ((i - 1) // 2) if i else "c3", "y%d" % i)
           for i in range(600)] + [Edge("o600", "y599", "d0")]
    for _ in range(20):
        edges = first + second + into + out
        rng.shuffle(edges)
        got = _components(edges)
        assert got == grouped_components(edges)
        assert sorted(map(set, got), key=len) == [set(second), set(first)]


def test_colours_and_order_follow_their_definitions():
    """`colour` and `colour_set` read a partial colour map edge by edge,
    colours may repeat and take another edge's id, an unknown id is an
    InputError, and `edges` (by id) and `vertices` are sorted whatever
    the input order."""
    rng = random.Random(61)
    for _ in range(100):
        base = random_system(rng, max_vertices=8, max_edges=12)
        ids = [e.id for e in base.edges]
        palette = ["k%d" % i for i in range(rng.randint(1, 3))]
        palette.append(rng.choice(ids))
        colours = {eid: rng.choice(palette) for eid in ids
                   if rng.random() < 0.6}
        edges, vertices = list(base.edges), list(base.vertices)
        rng.shuffle(edges)
        rng.shuffle(vertices)
        ts = TransitionSystem(vertices, edges, base.initial, colours=colours)
        assert ts.edges == tuple(sorted(base.edges, key=lambda e: e.id))
        assert ts.vertices == tuple(sorted(base.vertices))
        for eid in ids:
            assert ts.colour(eid) == colours.get(eid, eid)
        assert ts.colour_set() == {colours.get(eid, eid) for eid in ids}
        with pytest.raises(InputError, match="^unknown edge 'zz'$"):
            ts.colour("zz")


def test_to_explicit_muller_parity_self_loop():
    ts = TransitionSystem(["p"], [("e", "p", "p")], ["p"])
    out = to_explicit_muller(ts, ParityCondition({"e": 0}))
    assert out.family == frozenset({frozenset({"e"})})


def test_to_explicit_muller_preserves_statuses(sixstate):
    ts, cond = sixstate
    explicit = to_explicit_muller(ts, cond)
    assert equivalent_over(ts, cond, explicit)


def test_to_explicit_muller_buchi():
    ts = TransitionSystem(["p"], [("e1", "p", "p"), ("e2", "p", "p")], ["p"])
    out = to_explicit_muller(ts, BuchiCondition({"e1"}))
    assert out.family == frozenset({frozenset({"e1"}),
                                    frozenset({"e1", "e2"})})


def test_to_explicit_muller_refuses_unknown_colour_without_loops():
    # the same condition is refused whether or not a loop is reachable
    cond = MullerCondition([["zz"]])
    looped = TransitionSystem(["a", "b"], [("e", "a", "b"), ("f", "b", "b")],
                              ["a"])
    loopless = TransitionSystem(["a", "b", "c"],
                                [("e", "a", "b"), ("f", "c", "c")], ["a"])
    for ts in (looped, loopless):
        with pytest.raises(InputError,
                           match="^condition references unknown colour 'zz'$"):
            to_explicit_muller(ts, cond)
    # the enumeration's cap comes first
    capped = TransitionSystem(["a"], [("s%d" % i, "a", "a") for i in range(21)],
                              ["a"])
    with pytest.raises(CapExceeded):
        to_explicit_muller(capped, cond)


def test_equivalent_over_trivial():
    ts, cond = two_state_parity()
    assert equivalent_over(ts, cond, cond)
    ts1 = TransitionSystem(["p"], [("e", "p", "p")], ["p"])
    assert not equivalent_over(ts1, ParityCondition({"e": 0}),
                               ParityCondition({"e": 1}))


@pytest.mark.parametrize("kind", CONDITION_KINDS)
def test_equivalent_over_matches_loop_oracle(kind):
    # the decomposition comparison against the loop-by-loop one, on edge-id
    # systems and on systems recoloured from two to four colours: a random
    # condition of the same kind and one of any kind (mostly inequivalent),
    # and the explicit Muller form over edge ids (always equivalent)
    rng = random.Random(CONDITION_KINDS.index(kind))
    verdicts, drawn = {True: 0, False: 0}, set()
    for ts, cond in sampled_cases(
            rng, 30, lambda rng, ts: "abcd"[:rng.randint(2, 4)],
            kinds=(kind,), max_vertices=4, max_edges=8):
        drawn.add(cell(ts, cond))
        for other in (random_condition(rng, kind, ts.colour_set()),
                      random_condition(rng, rng.choice(CONDITION_KINDS),
                                       ts.colour_set()),
                      to_explicit_muller(ts, cond)):
            got = equivalent_over(ts, cond, other)
            assert got == loop_equivalent(ts, cond, other)
            assert equivalent_over(ts, other, cond) == got
            verdicts[got] += 1
    assert verdicts[True] > 30 and verdicts[False] > 10, verdicts
    assert drawn == grid(kinds=(kind,))


def test_automaton_checks():
    ts = TransitionSystem(["p"], [("e", "p", "p")], ["p"],
                          letters={"e": "0"})
    aut = Automaton(ts, BuchiCondition({"e"}))
    assert aut.alphabet == frozenset({"0"})
    bad = TransitionSystem(["p"], [("e", "p", "p"), ("f", "p", "p")], ["p"],
                           letters={"e": "0", "f": "0"})
    with pytest.raises(InputError):
        Automaton(bad, BuchiCondition({"e"}))


def _letter_automaton(targets, cond):
    """The automaton on states "0".."n-1" whose edge "<q><a>" reads `a`
    from `q` to `targets[q + a]`; "0" is initial."""
    return Automaton(TransitionSystem(
        sorted({eid[:-1] for eid in targets}),
        [(eid, eid[:-1], t) for eid, t in targets.items()], ["0"],
        letters={eid: eid[-1] for eid in targets}), cond)


def test_run_colours_reads_the_repeating_rounds():
    # the period starts after the first round of the cycle
    aut = _letter_automaton(
        {"0a": "1", "0b": "0", "1a": "1", "1b": "2", "2a": "1", "2b": "2"},
        MullerCondition([{"2a", "1b"}]))
    assert aut.run_colours((), "ab") == ({"1b", "2a"}, {"a", "b"})
    assert aut.accepts_word((), "ab")
    # the period wraps the cycle twice, after a prefix and one round
    aut = _letter_automaton(
        {"0a": "1", "0b": "2", "1a": "2", "1b": "1", "2a": "2", "2b": "0"},
        MullerCondition([{"0a"}]))
    assert aut.run_colours("b", "ab") == ({"0a", "1a", "1b", "2b"},
                                          {"a", "b"})


def test_run_colours_matches_naive_unrolling():
    """On random complete automata over two letters: the keys and letters
    of the edges read in |states| rounds of the cycle after |states|
    rounds, by then inside the period."""
    rng = random.Random(83)
    for _ in range(2000):
        n = rng.randint(1, 4)
        targets = {"%d%s" % (q, a): str(rng.randrange(n))
                   for q in range(n) for a in "ab"}
        aut = _letter_automaton(targets, MullerCondition([{"0a"}]))
        prefix = [rng.choice("ab") for _ in range(rng.randint(0, 2))]
        cycle = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
        q = "0"
        for a in prefix + cycle * n:
            q = targets[q + a]
        looped = []
        for a in cycle * n:
            looped.append(q + a)
            q = targets[q + a]
        assert aut.run_colours(prefix, cycle) == (
            set(looped), {eid[-1] for eid in looped})


def test_compose_with_one_state_automaton(sixstate):
    # one state, one self-loop per colour: the product mirrors the system
    ts, cond = sixstate
    loops = [("l%s" % c, "z", "z") for c in sorted(ts.colour_set())]
    aut_ts = TransitionSystem(["z"], loops, ["z"],
                              letters={eid: eid[1:] for eid, _, _ in loops})
    aut = Automaton(aut_ts, BuchiCondition({"le"}))
    product = compose(aut, ts, cond)
    assert len(product.system.vertices) == len(ts.vertices)
    assert len(product.system.edges) == len(ts.edges)


def test_compose_zf2_with_singleton_system():
    fam = [set(s) for s in
           ["abcd", "abd", "acd", "bcd", "ab", "ad", "bc", "bd", "a", "b", "d"]]
    zt = build_zt_automaton(build_zielonka_tree(fam, set("abcd")))
    host = TransitionSystem(["z"], [(c, "z", "z") for c in "abcd"], ["z"])
    product = compose(zt.automaton, host, MullerCondition(fam))
    assert len(product.system.vertices) == len(zt.states)
    assert len(product.system.edges) == len(zt.automaton.ts.edges)


def test_compose_onto_a_game_keeps_owners_and_letters():
    """A host with owners, letters and colours: each product vertex keeps
    its owner, each product edge its letter, and the projection is a
    locally bijective morphism."""
    host = TransitionSystem(
        ["u", "w"], [("e1", "u", "w"), ("e2", "w", "u"), ("e3", "w", "w")],
        ["u"], owners={"u": "Eve", "w": "Adam"},
        letters={"e1": "x", "e2": "y", "e3": "x"},
        colours={"e1": "a", "e2": "b", "e3": "a"})
    cond = MullerCondition([{"a"}, {"b"}])
    zt = build_zt_automaton(build_zielonka_tree(cond.family, {"a", "b"}))
    product = compose(zt.automaton, host, cond)
    m = product.projection
    ts = product.system
    assert len(ts.vertices) > len(host.vertices)
    for v in ts.vertices:
        assert ts.owners[v] == host.owners[m.apply_vertex(v)]
    for e in ts.edges:
        assert ts.letter(e.id) == host.letter(m.apply_edge(e.id))
        assert zt.automaton.ts.letter(ts.colour(e.id)) == \
            host.colour(m.apply_edge(e.id))
    assert check_structural(m) == (True, [])
    assert check_local(m)["bijective"]


def test_run_validation_and_colours(sixstate):
    ts, cond = sixstate
    run = Run(ts, ["a"], ["c", "d"])
    assert run.inf_colours() == frozenset({"c", "d"})
    assert not run.is_accepting(cond)
    assert Run(ts, ["a", "c"], ["e"]).is_accepting(cond)
    with pytest.raises(InputError):
        Run(ts, ["c"], ["d", "c"])  # c does not start at an initial vertex
    with pytest.raises(InputError):
        Run(ts, ["a"], ["c"])  # cycle does not close


def test_run_same_run(sixstate):
    ts, _ = sixstate
    r1 = Run(ts, ["a"], ["c", "d"])
    r2 = Run(ts, ["a", "c", "d"], ["c", "d", "c", "d"])
    assert r1.same_run(r2)
    assert not r1.same_run(Run(ts, ["a", "c"], ["e"]))


def test_compose_requires_complete_alphabet(sixstate):
    ts, _ = sixstate
    aut_ts = TransitionSystem(["z"], [("la", "z", "z")], ["z"],
                              letters={"la": "a"})
    aut = Automaton(aut_ts, BuchiCondition({"la"}))
    with pytest.raises(InputError):
        compose(aut, ts)


def test_compose_run_projection(sixstate):
    ts, cond = sixstate
    zt = build_zt_automaton(
        build_zielonka_tree([{"a"}, {"b"}], ts.colour_set()))
    product = compose(zt.automaton, ts, cond)
    m = product.projection
    from acdkit import lift_run, map_run
    run = Run(ts, ["a"], ["c", "d"])
    lifted = lift_run(m, run)
    assert map_run(m, lifted).same_run(run)


def _fixture_doc(*parts):
    from acdkit import docfmt
    here = os.path.dirname(__file__)
    with open(os.path.join(here, *parts), encoding="utf-8") as fh:
        return docfmt.parse(fh.read())


def test_automaton_over_edges_reads_edge_ids():
    # the Rabin relabelling of automatonA names edge ids b1, b2 where the
    # system colours both b: runs and products read the ids
    original = _fixture_doc("fixtures", "automatonA.json")
    relabelled = _fixture_doc("golden", "relabel-automatonA-target-rabin.json")
    assert relabelled.condition.over == "edges"
    aut1 = Automaton(original.system, original.condition)
    aut2 = Automaton(relabelled.system, relabelled.condition)
    for word in [((), ("1",)), ((), ("0",)), (("1",), ("0",)),
                 ((), ("0", "1")), (("1",), ("0", "0", "1"))]:
        assert aut1.accepts_word(*word) == aut2.accepts_word(*word)
    assert aut2.accepts_word((), ("1",))
    host = _fixture_doc("fixtures", "host01.json").system
    p1, p2 = compose(aut1, host), compose(aut2, host)
    assert p2.condition.over == "colours"
    assert validate(p2.system, p2.condition) == []
    for loop in enumerate_reachable_loops(p1.system):
        assert loop_status_over(p1.system, p1.condition, loop.edges) == \
            loop_status_over(p2.system, p2.condition, loop.edges)
