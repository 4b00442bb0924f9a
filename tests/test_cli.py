import argparse
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit import InputError, cli, docfmt, zielonka
from acdkit.core import _reading
from acdkit.loops import equivalent_over
from conftest import (child, count_readings, path_game, random_condition,
                      random_system, recoloured)
from oracles import closure_oracle

F = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def fx(name):
    return os.path.join(F, name)


def golden(argv, ext=".json"):
    """Bytes of the golden output of an invocation, stored under its words
    joined by '-', without file extensions and option dashes."""
    words = [os.path.splitext(os.path.basename(a))[0] if a.endswith(".json")
             else a.lstrip("-") for a in argv]
    with open(os.path.join(GOLDEN, "-".join(words) + ext), "rb") as fh:
        return fh.read()


def run(tmp_path, *argv):
    """Run a CLI invocation writing to a temp file; returns (code, bytes)."""
    out = tmp_path / "out.json"
    code = cli.main(list(argv) + ["-o", str(out)])
    data = out.read_bytes() if out.exists() else b""
    if out.exists():
        out.unlink()
    return code, data


def run_process(*argv):
    """Run a CLI invocation through the real entry point, in a child;
    returns the completed process, with stdout and stderr as text."""
    return child("-m", "acdkit.cli", *argv)


ALL_INVOCATIONS = [
    ("zielonka", fx("f1.json")),
    ("zielonka", fx("f2.json")),
    ("zt-automaton", fx("f1.json")),
    ("zt-automaton", fx("f2.json")),
    ("zielonka", fx("paritygame.json")),
    ("zt-automaton", fx("paritygame.json")),
    ("shape", fx("paritygame.json")),
    ("zielonka", fx("rabin2.json")),
    ("zt-automaton", fx("rabin2.json")),
    ("shape", fx("rabin2.json")),
    ("acd", fx("sixstate.json")),
    ("transform", fx("sixstate.json")),
    ("transform", fx("automatonA.json")),
    ("stats", fx("sixstate.json")),
    ("shape", fx("sixstate.json")),
    ("shape", fx("automatonA.json")),
    # a coloured system under a condition over its edge ids: the
    # condition's tree ranges over the 4 edge ids, not the 3 colours
    ("shape", os.path.join(GOLDEN, "relabel-automatonA-target-rabin.json")),
    ("relabel", fx("automatonA.json"), "--target", "rabin"),
    ("relabel", fx("paritygame.json"), "--target", "weak"),
    ("relabel", fx("paritygame.json"), "--target", "parity"),
    ("relabel", fx("host01.json"), "--target", "streett"),
    ("compress", fx("paritygame.json")),
    ("compose", fx("automatonA.json"), fx("host01.json")),
    ("solve", fx("paritygame.json")),
    ("solve", fx("mullergame.json")),
    ("oracle-equiv", fx("f1.json"), fx("f1.json")),
    ("check-morphism", os.path.join(GOLDEN, "transform-sixstate.json"),
     "--against", fx("sixstate.json")),
    ("check-morphism", os.path.join(GOLDEN, "transform-automatonA.json"),
     "--against", fx("automatonA.json")),
]

# each command that takes --dot, on an input whose rendering has a golden
DOT_INVOCATIONS = [
    ("zielonka", fx("f2.json")),
    ("acd", fx("sixstate.json")),
    ("zt-automaton", fx("f2.json")),
    ("transform", fx("sixstate.json")),
    ("compose", fx("automatonA.json"), fx("host01.json")),
]


@pytest.mark.parametrize("argv", ALL_INVOCATIONS,
                         ids=lambda a: " ".join(os.path.basename(x)
                                                for x in a))
def test_deterministic_output(tmp_path, argv):
    code1, out1 = run(tmp_path, *argv)
    code2, out2 = run(tmp_path, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith(b"\n")
    json.loads(out1)  # well-formed
    assert out1 == golden(argv)


def test_document_round_trip(tmp_path):
    for name in ("f1.json", "f2.json", "sixstate.json", "automatonA.json",
                 "paritygame.json", "mullergame.json", "rabin2.json"):
        with open(fx(name), encoding="utf-8") as fh:
            doc = docfmt.parse(fh.read())
        text = docfmt.serialize(doc)
        again = docfmt.parse(text)
        assert docfmt.serialize(again) == text


def test_round_trip_keeps_over():
    text = golden(("relabel", "automatonA.json", "--target", "rabin"))
    doc = docfmt.parse(text.decode("utf-8"))
    assert doc.condition.over == "edges"
    assert docfmt.serialize(doc).encode("utf-8") == text


def test_transform_output_parses_and_checks(tmp_path):
    code, out = run(tmp_path, "transform", fx("sixstate.json"))
    assert code == 0
    transformed = tmp_path / "t.json"
    transformed.write_bytes(out)
    code, report = run(tmp_path, "check-morphism", str(transformed),
                       "--against", fx("sixstate.json"))
    assert code == 0
    obj = json.loads(report)
    assert obj["structural"]
    assert obj["local"]["bijective"]
    assert obj["acceptance_preserving"]


def test_check_morphism_reports_a_flipped_owner(tmp_path):
    """Flipping the owner of one vertex of a transformed game breaks the
    morphism back to the original game: exit 1, not structural."""
    code, out = run(tmp_path, "transform", fx("mullergame.json"))
    assert code == 0
    doc = json.loads(out)
    owners = doc["system"]["owners"]
    owners["q0|r"] = "Adam" if owners["q0|r"] == "Eve" else "Eve"
    transformed = tmp_path / "t.json"
    transformed.write_text(json.dumps(doc))
    code, report = run(tmp_path, "check-morphism", str(transformed),
                       "--against", fx("mullergame.json"))
    assert code == 1
    obj = json.loads(report)
    assert obj["structural"] is False
    assert obj["problems"] == ["owner of 'q0|r' not preserved"]


def test_exit_code_input_error(tmp_path, capsys):
    code, out = run(tmp_path, "acd", fx("badref.json"))
    assert code == 2
    assert out == b""
    code, _ = run(tmp_path, "zielonka", fx("nope.json"))
    assert code == 2
    capsys.readouterr()
    assert run(tmp_path, "compress", fx("f1.json")) == (2, b"")
    assert capsys.readouterr().err == \
        "input error: expected a parity condition, got muller\n"
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"format": "acdkit/1", "system": {
        "vertices": ["q"], "edges": [["a", "q", "q"]], "initial": ["q"]}}))
    capsys.readouterr()
    assert run(tmp_path, "acd", str(plain)) == (2, b"")
    assert capsys.readouterr().err == \
        "input error: document has no condition block\n"


def test_exit_code_property_false(tmp_path, capsys):
    code, out = run(tmp_path, "relabel", fx("sixstate.json"),
                    "--target", "rabin")
    assert code == 1
    # a refused relabelling writes nothing to stdout and creates no file
    capsys.readouterr()
    assert run(tmp_path, "relabel", fx("sixstate.json"),
               "--target", "parity") == (1, b"")
    assert capsys.readouterr() == (
        "", "property check failed: decomposition is not parity-shaped\n")
    # two inequivalent conditions over the same system
    other = tmp_path / "f1b.json"
    with open(fx("f1.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["condition"]["family"] = [["a"]]
    other.write_text(json.dumps(obj))
    code, out = run(tmp_path, "oracle-equiv", fx("f1.json"), str(other))
    assert code == 1
    assert json.loads(out) == {"equivalent": False}


def test_exit_code_cap_exceeded(tmp_path, capsys):
    code, _ = run(tmp_path, "oracle-equiv", fx("sixstate.json"),
                  fx("sixstate.json"), "--loop-cap", "2")
    assert code == 3
    capsys.readouterr()
    code, _ = run(tmp_path, "acd", fx("sixstate.json"), "--explore-cap", "1")
    assert code == 3
    assert capsys.readouterr().err == (
        "cap exceeded: subloop exploration exceeded cap 1 in the loop on "
        "states {q1,q2} with 3 edges: 2 subloops seen\n")


def test_zielonka_reads_the_condition_as_the_acd_does(tmp_path):
    # a Muller family over the edge ids of a system with explicit colours
    # (as relabel writes it): the Zielonka tree ranges over the edge ids,
    # the way the decomposition reads the same document
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "format": "acdkit/1",
        "system": {"vertices": ["p"], "initial": ["p"],
                   "edges": [["x", "p", "p"], ["y", "p", "p"]],
                   "colours": {"x": "c", "y": "c"}},
        "condition": {"type": "muller", "family": [["x"]],
                      "over": "edges"}}))
    code, out = run(tmp_path, "zielonka", str(doc))
    assert code == 0
    labels = [n["label"] for n in json.loads(out)["nodes"]]
    code, out = run(tmp_path, "acd", str(doc))
    assert code == 0
    assert [n["edges"] for n in json.loads(out)["trees"][0]["nodes"]] == \
        labels == [["x", "y"], ["x"]]
    code, out = run(tmp_path, "shape", str(doc))
    assert code == 0
    assert json.loads(out)["closure"] == {"union_closed": True,
                                          "intersection_closed": True}


MALFORMED = [
    pytest.param("condition",
                 {"type": "parity", "priorities": {"a": "x", "b": 0}},
                 id="priority-string"),
    pytest.param("condition", {"type": "parity", "priorities": [1]},
                 id="priorities-list"),
    pytest.param("condition", {"type": "muller", "family": [[["a"]]]},
                 id="family-set-of-lists"),
    pytest.param("condition",
                 {"type": "parity", "priorities": {"a": 1.9, "b": True}},
                 id="priority-float-and-bool"),
    pytest.param("condition", {"type": "muller", "family": ["ab"]},
                 id="family-set-string"),
    pytest.param("edges", [["a", "q", "q"], "bqq"], id="edge-string"),
    pytest.param("vertices", "q", id="vertices-string"),
    pytest.param("condition",
                 {"type": "muller", "family": [["a"]], "over": "edge"},
                 id="over-edge"),
    pytest.param("condition",
                 {"type": "muller", "family": [["a"]], "over": 1},
                 id="over-int"),
]


@pytest.mark.parametrize("key,value", MALFORMED)
def test_malformed_field_types(tmp_path, key, value):
    """A field of the wrong JSON type is an input error, never a traceback
    and never a value read with another meaning."""
    doc = {"format": "acdkit/1",
           "system": {"vertices": ["q"], "initial": ["q"],
                      "edges": [["a", "q", "q"], ["b", "q", "q"]]},
           "condition": {"type": "muller", "family": [["a"]]}}
    (doc if key == "condition" else doc["system"])[key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = run_process("stats", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert "Traceback" not in proc.stderr


def test_child_gets_the_environment_the_test_set(monkeypatch):
    """A variable a test sets reaches its child, so the tests below that
    set the caps or the hash seed run the CLI under them."""
    show = "import os; print(os.environ['ACDKIT_LOOP_CAP'], " \
        "os.environ['PYTHONHASHSEED'])"
    for cap, seed in (("1", "7"), ("x", "8")):
        monkeypatch.setenv("ACDKIT_LOOP_CAP", cap)
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        assert child("-c", show).stdout.split() == [cap, seed]


def test_caps_ignore_the_environment(monkeypatch):
    """Caps come only from their flags: variables named after them in the
    environment, valid or not, change no output and no exit code."""
    six = fx("sixstate.json")
    for value in ("1", "x"):
        monkeypatch.setenv("ACDKIT_LOOP_CAP", value)
        monkeypatch.setenv("ACDKIT_EXPLORE_CAP", value)
        proc = run_process("acd", six)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.encode("utf-8") == golden(("acd", six))
        assert run_process("oracle-equiv", six, six).returncode == 0


@pytest.mark.parametrize("argv", [
    ["acd", fx("sixstate.json"), "--explore-cap", "-5"],
    ["acd", fx("sixstate.json"), "--explore-cap", "0"],
    ["oracle-equiv", fx("sixstate.json"), fx("sixstate.json"),
     "--loop-cap", "-1"]] + [
    ["oracle-equiv", fx("f1.json"), fx("f1.json"), flag, value]
    for flag in ("--explore-cap", "--loop-cap")
    for value in ("0", "-1", "x", "1.5")],
    ids=["explore-negative", "explore-zero", "loop"] + [
        "f1-%s-%s" % (flag, value) for flag in ("explore", "loop")
        for value in ("zero", "negative", "word", "fraction")])
def test_cap_flags_below_one_are_input_errors(argv):
    """A cap flag is read by `int` and decided by the library's check; a
    value that either refuses is a usage error with the command line's
    own message."""
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert "a cap must be an integer of at least 1, got '%s'" % argv[-1] \
        in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


ONE_EDGE = {"format": "acdkit/1",
            "system": {"vertices": ["v"], "edges": [["a", "v", "v"]],
                       "initial": ["v"]},
            "condition": {"type": "muller", "family": [["a"]]}}


def test_a_cap_of_one_is_taken_by_the_cli_and_the_library(tmp_path):
    """One edge: a cap of 1 is taken, and it holds."""
    doc = tmp_path / "one.json"
    doc.write_text(json.dumps(ONE_EDGE))
    for flag in ("--explore-cap", "--loop-cap"):
        assert run(tmp_path, "oracle-equiv", str(doc), str(doc), flag, "1") \
            == (0, b'{\n  "equivalent": true\n}\n')
    parsed = docfmt.parse(json.dumps(ONE_EDGE))
    assert equivalent_over(parsed.system, parsed.condition, parsed.condition,
                           loop_cap=1, explore_cap=1)


@pytest.mark.parametrize("sub", ["zielonka", "zt-automaton"])
def test_tree_of_a_muller_document_without_edges_is_refused(sub, tmp_path,
                                                            capsys):
    """No edge, so no colour: the command path's one reading of the
    condition gives an empty colour set, which the tree builder refuses."""
    doc = tmp_path / "empty.json"
    doc.write_text(json.dumps(dict(
        ONE_EDGE, system={"vertices": ["v"], "edges": [], "initial": ["v"]},
        condition={"type": "muller", "family": []})))
    assert run(tmp_path, sub, str(doc)) == (2, b"")
    assert capsys.readouterr().err == \
        "input error: colour set must be nonempty\n"


def test_incomplete_automaton_message_names_the_least_missing_pair(
        tmp_path, monkeypatch):
    """State q lacks the letters b and c: the message names ('q', 'b')
    under every hash seed."""
    aut = {"format": "acdkit/1",
           "system": {"vertices": ["p", "q"], "initial": ["p"],
                      "edges": [["pa", "p", "q"], ["pb", "p", "p"],
                                ["pc", "p", "p"], ["qa", "q", "p"]],
                      "letters": {"pa": "a", "pb": "b", "pc": "c",
                                  "qa": "a"}},
           "condition": {"type": "muller", "family": [["pa"]]}}
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(aut))
    stderrs = set()
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = run_process("compose", str(path), fx("host01.json"))
        assert proc.returncode == 2
        stderrs.add(proc.stderr)
    assert stderrs == {"input error: automaton not complete at state 'q', "
                       "letter 'b'\n"}


# one interpreter runs every invocation in turn; each one's stdout is
# followed by NUL, its exit code and NUL (JSON output holds no raw NUL)
ALL_IN_ONE = """
import json, sys
from acdkit import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    sys.stdout.write("\\0%d\\0" % code)
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_every_golden_on_stdout_under_hash_seed(seed):
    """The bytes the entry point writes to stdout equal every golden under
    two hash seeds: no output follows set order."""
    proc = child("-c", ALL_IN_ONE, json.dumps(ALL_INVOCATIONS),
                 hash_seed=seed, text=False)
    assert proc.returncode == 0 and proc.stderr == b""
    parts = proc.stdout.split(b"\0")
    assert len(parts) == 2 * len(ALL_INVOCATIONS) + 1 and parts[-1] == b""
    for argv, out, code in zip(ALL_INVOCATIONS, parts[0::2], parts[1::2]):
        assert (code, out) == (b"0", golden(argv)), argv


# the copies of `p` in the transform of `eleven_self_loops`, one per branch
TRANSFORM_STATES = ",".join(sorted("p|r.%d" % i for i in range(11)))


@pytest.fixture
def eleven_self_loops(tmp_path):
    """A game on one vertex with 11 self-loops under the Muller family of
    the 11 singletons, and its transform: one SCC of 121 edges, far above
    the default loop cap of loop enumeration."""
    game = tmp_path / "game.json"
    edges = ["e%02d" % i for i in range(11)]
    game.write_text(json.dumps({
        "format": "acdkit/1",
        "system": {"vertices": ["p"], "initial": ["p"],
                   "edges": [[e, "p", "p"] for e in edges]},
        "condition": {"type": "muller", "family": [[e] for e in edges]}}))
    transformed = tmp_path / "transformed.json"
    assert cli.main(["transform", str(game), "-o", str(transformed)]) == 0
    assert len(json.loads(transformed.read_text())["system"]["edges"]) == 121
    return str(game), str(transformed)


def test_equivalence_checks_past_the_loop_cap(eleven_self_loops):
    game, transformed = eleven_self_loops
    proc = run_process("check-morphism", transformed, "--against", game)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["acceptance_preserving"] is True
    proc = run_process("oracle-equiv", transformed, transformed)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"equivalent": True}
    # a loop cap that is set still refuses the SCC
    for argv in (["check-morphism", transformed, "--against", game],
                 ["oracle-equiv", transformed, transformed]):
        proc = run_process(*argv, "--loop-cap", "20")
        assert proc.returncode == 3
        assert proc.stderr == "cap exceeded: SCC {%s} has 121 edges, above " \
            "the loop cap 20\n" % TRANSFORM_STATES


def test_explore_cap_reaches_equivalence_checks(eleven_self_loops):
    game, transformed = eleven_self_loops
    for argv in (["check-morphism", transformed, "--against", game],
                 ["oracle-equiv", transformed, transformed]):
        proc = run_process(*argv, "--explore-cap", "1")
        assert proc.returncode == 3
        assert proc.stderr == (
            "cap exceeded: subloop exploration exceeded cap 1 in the loop "
            "on states {%s} with 121 edges: 2 subloops seen\n"
            % TRANSFORM_STATES)


def test_dot_outputs(tmp_path):
    dot = tmp_path / "g.dot"
    for argv in DOT_INVOCATIONS:
        assert run(tmp_path, *argv, "--dot", str(dot)) == (0, golden(argv))
        assert dot.read_bytes() == golden(argv, ".dot"), argv


def test_solve_outputs(tmp_path):
    code, out = run(tmp_path, "solve", fx("paritygame.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["winner"] in ("Eve", "Adam")
    assert set(obj["regions"]) == {"Eve", "Adam"}
    code, out = run(tmp_path, "solve", fx("mullergame.json"))
    assert code == 0
    obj = json.loads(out)
    assert "transform" in obj


def test_solve_deep_path_game(tmp_path):
    """The parity solver's depth grows with the game: a 1500-vertex path
    is solved, with no traceback."""
    ts, cond = path_game(1500)
    path = tmp_path / "path.json"
    path.write_text(docfmt.serialize(docfmt.Document(ts, cond)))
    proc = run_process("solve", str(path))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["regions"] == {
        "Eve": sorted(ts.vertices), "Adam": []}


def test_relabel_weak(tmp_path):
    # the parity relabelling is already compressed, so weak writes it as is
    for name in ("paritygame.json", "host01.json"):
        code, out = run(tmp_path, "relabel", fx(name), "--target", "weak")
        assert code == 0
        assert json.loads(out)["condition"]["type"] == "parity"
        assert (code, out) == run(tmp_path, "relabel", fx(name),
                                  "--target", "parity")


def test_shape_reports_closure(tmp_path):
    code, out = run(tmp_path, "shape", fx("f1.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["closure"] == {"union_closed": False,
                              "intersection_closed": True}
    assert obj["condition_shape"]["rabin"]


def test_shape_of_many_self_loops_reads_closure_from_the_tree(tmp_path):
    # a brute-force closure check over the 2^16 colour sets would take
    # hours; the Zielonka tree of {{e00}} is a two-node chain
    doc = tmp_path / "bouquet.json"
    doc.write_text(json.dumps({
        "format": "acdkit/1",
        "system": {"vertices": ["p"], "initial": ["p"],
                   "edges": [["e%02d" % i, "p", "p"] for i in range(16)]},
        "condition": {"type": "muller", "family": [["e00"]]}}))
    proc = run_process("shape", str(doc))
    assert (proc.returncode, proc.stderr) == (0, "")
    obj = json.loads(proc.stdout)
    assert obj["closure"] == {"union_closed": True,
                              "intersection_closed": True}
    assert obj["condition_shape"] == {"rabin": True, "streett": True,
                                      "parity": True}


def test_shape_reads_its_condition_once(tmp_path, monkeypatch):
    """`shape` grows the condition's Zielonka tree from the decomposition's
    reading: one reading, and no colour set's children read twice."""
    calls, read = count_readings(monkeypatch), []
    real = zielonka._flipped_colour_sets
    monkeypatch.setattr(zielonka, "_flipped_colour_sets", lambda cond, c:
                        read.append(c) or real(cond, c))
    argv = ("shape", fx("sixstate.json"))
    assert run(tmp_path, *argv) == (0, golden(argv))
    assert len(calls) == 1 and read and len(read) == len(set(read))


def test_shape_caps_the_condition_tree(tmp_path):
    # a chain of self-loops under n disjoint Rabin pairs: the decomposition
    # has one node per self-loop, while the condition's Zielonka tree has
    # n! leaves, so --explore-cap bounds it too (default 5000 nodes)
    def chain(n):
        vs = ["v%02d" % i for i in range(2 * n)]
        doc = tmp_path / ("chain%d.json" % n)
        doc.write_text(json.dumps({
            "format": "acdkit/1",
            "system": {"vertices": vs, "initial": ["v00"],
                       "edges": [["c%02d" % i, v, v] for i, v in enumerate(vs)]
                       + [["s%02d" % i, v, w] for i, (v, w)
                          in enumerate(zip(vs, vs[1:]))]},
            "condition": {"type": "rabin", "pairs": [
                [["c%02d" % (2 * i)], ["c%02d" % (2 * i + 1)]]
                for i in range(n)]}}))
        return str(doc)
    proc = run_process("shape", chain(10))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "cap exceeded: Zielonka tree exceeded cap 5000 nodes\n")
    # three pairs: a tree of 31 nodes, 6 of them leaves
    three = chain(3)
    code, out = run(tmp_path, "shape", three, "--explore-cap", "31")
    assert code == 0
    assert json.loads(out)["condition_shape"] == {
        "rabin": True, "streett": False, "parity": False}
    assert run(tmp_path, "shape", three, "--explore-cap", "30") == (3, b"")
    code, out = run(tmp_path, "zielonka", three)
    assert code == 0 and len(json.loads(out)["nodes"]) == 31


def test_shape_closure_matches_the_oracle(tmp_path):
    rng = random.Random(23)
    doc = tmp_path / "doc.json"
    seen = set()
    for i in range(60):
        ts = random_system(rng, max_vertices=3, max_edges=5)
        if i % 2:
            ts = recoloured(rng, ts, ["a", "b", "c"])
        gamma = sorted({ts.colour(e.id) for e in ts.edges})
        cond = random_condition(rng, "muller", gamma)
        doc.write_text(docfmt.serialize(docfmt.Document(ts, cond)))
        code, out = run(tmp_path, "shape", str(doc))
        assert code == 0
        closure = json.loads(out)["closure"]
        assert closure == closure_oracle(cond.family,
                                         _reading(ts, cond)[1])
        seen.add(tuple(closure.values()))
    assert len(seen) == 4


# one vertex whose self-loops x and y are coloured with each other's id
SWAP = {"format": "acdkit/1",
        "system": {"vertices": ["p"], "initial": ["p"],
                   "edges": [["x", "p", "p"], ["y", "p", "p"]],
                   "colours": {"x": "y", "y": "x"}},
        "condition": {"type": "muller", "family": [["x"]]}}


@pytest.mark.parametrize("target", ["rabin", "streett", "parity", "weak"])
def test_relabel_of_swapped_colours_is_equivalent(tmp_path, target):
    doc = tmp_path / "swap.json"
    doc.write_text(json.dumps(SWAP))
    relabelled = tmp_path / "relabelled.json"
    assert cli.main(["relabel", str(doc), "--target", target,
                     "-o", str(relabelled)]) == 0
    assert json.loads(relabelled.read_text())["condition"]["over"] == "edges"
    code, out = run(tmp_path, "oracle-equiv", str(doc), str(relabelled))
    assert (code, json.loads(out)) == (0, {"equivalent": True})


def test_edge_ids_without_over_are_an_input_error(tmp_path):
    # a condition names colours unless it says otherwise: edge ids of a
    # coloured system are unknown colours, not a second reading
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "format": "acdkit/1",
        "system": {"vertices": ["p"], "initial": ["p"],
                   "edges": [["x", "p", "p"], ["y", "p", "p"]],
                   "colours": {"x": "c", "y": "c"}},
        "condition": {"type": "parity", "priorities": {"x": 0, "y": 1}}}))
    for argv in (["acd"], ["solve"], ["compress"], ["relabel", "--target",
                                                   "parity"]):
        proc = run_process(*argv, str(doc))
        assert proc.returncode == 2
        assert proc.stderr == "input error: condition references unknown " \
            "colour 'x'\n"


@pytest.mark.parametrize("priorities", [{}, {"zz": 0}],
                         ids=["empty", "unknown-colour"])
def test_compress_validates_its_input(tmp_path, priorities):
    with open(fx("paritygame.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["condition"]["priorities"] = priorities
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(obj))
    proc = run_process("compress", str(doc))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")


def test_every_subcommand_on_every_fixture(tmp_path):
    """No fixture, nor a parity document without priorities, makes any
    subcommand raise: each run ends in a documented exit code."""
    files = sorted(fx(n) for n in os.listdir(F))
    with open(fx("paritygame.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["condition"]["priorities"] = {}
    empty = tmp_path / "empty-priorities.json"
    empty.write_text(json.dumps(obj))
    files.append(str(empty))
    one_file = [["zielonka"], ["zt-automaton"], ["acd"], ["transform"],
                ["stats"], ["shape"], ["compress"], ["solve"]]
    one_file += [["relabel", "--target", t]
                 for t in ("rabin", "streett", "parity", "weak")]
    argvs = [sub + [f] for sub in one_file for f in files]
    argvs += [[sub, f, g] for sub in ("compose", "oracle-equiv")
              for f in files for g in files]
    argvs += [["check-morphism", f, "--against", g]
              for f in files for g in files]
    for argv in argvs:
        code, _ = run(tmp_path, *argv)
        assert code in (0, 1, 2, 3), argv


# every subcommand on inputs of its goldens, with the positional arguments
# and required flags it takes: on these its handler reads every option
READING_INPUTS = {
    "zielonka": [fx("f1.json")], "zt-automaton": [fx("f1.json")],
    "acd": [fx("sixstate.json")], "transform": [fx("sixstate.json")],
    "stats": [fx("sixstate.json")], "shape": [fx("sixstate.json")],
    "relabel": [fx("automatonA.json"), "--target", "rabin"],
    "compress": [fx("paritygame.json")],
    "compose": [fx("automatonA.json"), fx("host01.json")],
    "check-morphism": [os.path.join(GOLDEN, "transform-sixstate.json"),
                       "--against", fx("sixstate.json")],
    "solve": [fx("mullergame.json")],
    "oracle-equiv": [fx("f1.json"), fx("f1.json")]}


def _partial_document(tmp_path, block, value):
    """A two-vertex Muller document whose `owners` or `letters` block
    misses vertex q or edge y."""
    path = tmp_path / ("partial-%s.json" % block)
    path.write_text(json.dumps({
        "format": "acdkit/1",
        "system": {"vertices": ["p", "q"],
                   "edges": [["x", "p", "q"], ["y", "q", "p"]],
                   "initial": ["p"], block: value},
        "condition": {"type": "muller", "family": [["x", "y"]]}}))
    return str(path)


@pytest.mark.parametrize("block,value,message", [
    ("owners", {"p": "Eve"}, "vertex 'q' has no owner"),
    ("letters", {"x": "a"}, "edge 'y' has no letter")])
def test_partial_owners_and_letters_fail_every_subcommand(
        tmp_path, block, value, message):
    """Every subcommand refuses a document whose owners miss a vertex or
    whose letters miss an edge, as an input error and without a
    traceback; `acd`, `zielonka`, `stats`, `shape` and `relabel` used to
    accept one."""
    doc = _partial_document(tmp_path, block, value)
    for sub, words in READING_INPUTS.items():
        argv = [sub] + [doc if w.endswith(".json") else w for w in words]
        proc = run_process(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr == "input error: %s\n" % message, argv
        assert "Traceback" not in proc.stderr


def _valid_argvs():
    """Every subcommand on inputs it accepts."""
    return {sub: [sub] + words for sub, words in READING_INPUTS.items()}


def test_unwritable_output_paths_are_input_errors(tmp_path):
    """`-o` or `--dot` into a missing directory exits 2 with a message,
    not with a traceback."""
    missing = str(tmp_path / "missing" / "out")
    argvs = _valid_argvs()
    runs = [argv + ["-o", missing] for argv in argvs.values()]
    runs += [argvs[sub] + ["-o", str(tmp_path / "out.json"), "--dot", missing]
             for sub in sorted(DOT_SUBCOMMANDS)]
    for argv in runs:
        proc = run_process(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("input error: cannot write "), argv
        assert "Traceback" not in proc.stderr


def test_unwritable_dot_path_leaves_no_output(tmp_path, capsys):
    """`--dot` into a missing directory exits 2 before anything is
    written: nothing on stdout, and no `-o` file."""
    missing = str(tmp_path / "missing" / "x.dot")
    out = tmp_path / "out.json"
    argvs = _valid_argvs()
    capsys.readouterr()
    for sub in sorted(DOT_SUBCOMMANDS):
        assert cli.main(argvs[sub] + ["--dot", missing]) == 2, sub
        assert capsys.readouterr().out == "", sub
        assert cli.main(argvs[sub] + ["-o", str(out), "--dot", missing]) == 2
        assert capsys.readouterr().out == "" and not out.exists(), sub


def test_output_and_dot_naming_one_file_is_an_input_error(
        tmp_path, capsys, monkeypatch):
    """`-o` and `--dot` that resolve to the same file exit 2 and write
    nothing: no stdout, no new file and an existing one untouched."""
    argvs = _valid_argvs()
    monkeypatch.chdir(tmp_path)
    os.symlink("P", "link")
    kept = tmp_path / "kept"
    kept.write_bytes(b'{"keep": 1}')
    capsys.readouterr()
    for sub in sorted(DOT_SUBCOMMANDS):
        for o, dot in [("P", "P"), ("P", "./P"), (str(tmp_path / "P"), "P"),
                       ("link", "P"), ("kept", "./kept")]:
            assert cli.main(argvs[sub] + ["-o", o, "--dot", dot]) == 2, sub
            assert capsys.readouterr().out == "", sub
            assert not (tmp_path / "P").exists(), (sub, o, dot)
            assert kept.read_bytes() == b'{"keep": 1}', sub


def test_hard_links_to_one_file_are_an_input_error(tmp_path, capsys):
    """`-o` and `--dot` naming two hard links to one file exit 2 and leave
    its bytes in place; they used to exit 0 with only the DOT text in
    it."""
    argvs = _valid_argvs()
    first, second = tmp_path / "P", tmp_path / "H"
    first.write_bytes(b'{"keep": 1}')
    os.link(first, second)
    capsys.readouterr()
    for sub in sorted(DOT_SUBCOMMANDS):
        for o, dot in [(first, second), (second, first)]:
            assert cli.main(argvs[sub] + ["-o", str(o), "--dot", str(dot)]) \
                == 2, sub
            assert capsys.readouterr().out == "", sub
            assert first.read_bytes() == b'{"keep": 1}', sub
            assert second.read_bytes() == b'{"keep": 1}', sub


def test_failing_dot_keeps_an_existing_output_file(tmp_path, capsys):
    """An unwritable `--dot` leaves an existing `-o` file's bytes and
    mode as they were; a successful run replaces the bytes and keeps the
    mode, and `-o /dev/null` still works."""
    missing = str(tmp_path / "missing" / "x.dot")
    pre = tmp_path / "pre.json"
    argvs = _valid_argvs()
    capsys.readouterr()
    for sub in sorted(DOT_SUBCOMMANDS):
        pre.write_bytes(b'{"keep": 1}' + b" " * 100000)
        pre.chmod(0o640)
        argv = argvs[sub] + ["-o", str(pre)]
        assert cli.main(argv + ["--dot", missing]) == 2, sub
        assert capsys.readouterr().out == "", sub
        assert pre.read_bytes() == b'{"keep": 1}' + b" " * 100000, sub
        assert pre.stat().st_mode & 0o777 == 0o640, sub
        fresh = tmp_path / "fresh.json"
        assert cli.main(argvs[sub] + ["-o", str(fresh)]) == 0, sub
        assert cli.main(argv + ["--dot", str(tmp_path / "x.dot")]) == 0, sub
        assert pre.read_bytes() == fresh.read_bytes(), sub
        assert pre.stat().st_mode & 0o777 == 0o640, sub
        assert cli.main(argv[:-1] + [os.devnull]) == 0, sub
        assert capsys.readouterr().out == "", sub


def test_new_output_files_get_the_default_mode(tmp_path):
    """Files the CLI creates have the mode `open` gives a new file."""
    made = tmp_path / "made"
    made.write_text("")
    out, dot = tmp_path / "out.json", tmp_path / "out.dot"
    assert cli.main(["acd", fx("sixstate.json"), "-o", str(out),
                     "--dot", str(dot)]) == 0
    want = made.stat().st_mode
    assert out.stat().st_mode == dot.stat().st_mode == want


with open(fx("sixstate.json"), "rb") as _fh:
    SIXSTATE = _fh.read()
BAD_TEXTS = {
    "not UTF-8": b"\xff\xfe{}",
    "nested 1000 deep": b'{"format": "acdkit/1", "x": %s%s}'
                        % (b"[" * 1000, b"]" * 1000),
    "long integer": SIXSTATE.rstrip()[:-1] + b', "n": ' + b"9" * 5000 + b"}",
    "lone surrogate": SIXSTATE.replace(b'"q0"', b'"\\ud800"'),
}


@pytest.mark.parametrize("what", sorted(BAD_TEXTS))
def test_unreadable_documents_are_input_errors(tmp_path, what):
    """Documents that Python cannot decode, nest too deeply, hold an
    integer past the interpreter's digit limit or a lone surrogate exit 2
    without a traceback, and nothing is written."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(BAD_TEXTS[what])
    out = tmp_path / "out.json"
    for argv in (["stats", str(doc)], ["transform", str(doc), "-o", str(out)]):
        proc = run_process(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("input error: "), argv
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "" and not out.exists(), argv


# label -> (document text, the message `docfmt.parse` refuses it with)
PARSE_MESSAGES = {
    "nested": ("[" * 100000, "parse error: too deeply nested"),
    "long integer": ('{"n": %s}' % ("9" * 5000),
                     "parse error: an integer is too long"),
    "not an object": ("[]", "document must be a JSON object"),
    "no system": ('{"format": "acdkit/1"}', "missing system block"),
    "rabin pair of one side": (json.dumps({
        "format": "acdkit/1", "system": {},
        "condition": {"type": "rabin", "pairs": [["a"]]}}),
        "rabin pairs must be [E, F] lists"),
}


@pytest.mark.parametrize("label", sorted(PARSE_MESSAGES))
def test_parse_messages(label):
    text, message = PARSE_MESSAGES[label]
    with pytest.raises(InputError) as err:
        docfmt.parse(text)
    assert str(err.value) == message


def test_escaped_surrogate_pair_round_trips(tmp_path):
    """An escaped pair outside the BMP is one character: it parses and
    is written back as that character."""
    text = SIXSTATE.decode("utf-8").replace('"q0"', '"\\ud83d\\ude00"')
    doc = docfmt.parse(text)
    assert "\U0001F600" in doc.system.vertices
    again = docfmt.serialize(doc)
    assert "\U0001F600" in again
    assert docfmt.serialize(docfmt.parse(again)) == again
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run(tmp_path, "transform", str(path))[0] == 0


def test_dot_is_rendered_only_with_the_flag(tmp_path, monkeypatch):
    """The five DOT subcommands call their renderer once with `--dot`
    and never without it."""
    calls = []
    for name in ("dot_tree", "dot_system", "dot_acd"):
        real = getattr(docfmt, name)
        monkeypatch.setattr(docfmt, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    assert {a[0] for a in DOT_INVOCATIONS} == DOT_SUBCOMMANDS
    dot = tmp_path / "out.dot"
    for argv in DOT_INVOCATIONS:
        assert run(tmp_path, *argv)[0] == 0
        assert calls == [] and not dot.exists(), argv
        assert run(tmp_path, *argv, "--dot", str(dot))[0] == 0
        assert len(calls) == 1 and dot.read_text().startswith("digraph"), argv
        calls.clear()
        dot.unlink()


DOT_SUBCOMMANDS = {name for name, (_, arguments, _) in cli.COMMANDS.items()
                   if "--dot" in arguments.split()}


@pytest.mark.parametrize("sub", sorted(cli.COMMANDS))
def test_each_subcommand_takes_exactly_the_options_it_reads(sub, tmp_path):
    """A subcommand takes `-o` and the options that COMMANDS lists for it,
    and its handler reads each of them, and each positional argument, on
    an input of its goldens.  Any other option, an ignored cap among
    them, is a usage error (exit 2), and so is a required flag left out."""
    read = set()

    class Reads(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    takes = cli.COMMANDS[sub][1].split()
    values = {"-o": str(tmp_path / "out"), "--dot": str(tmp_path / "out.dot"),
              "--loop-cap": "1000", "--explore-cap": "1000"}
    argv = [sub] + READING_INPUTS[sub] + [
        x for flag in values if flag == "-o" or flag in takes
        for x in (flag, values[flag])]
    args = cli.build_parser().parse_args(argv, namespace=Reads())
    arguments = set(vars(args)) - {"command", "fn"}
    read.clear()
    cli.COMMANDS[sub][0](args)
    assert {name for name in read if not name.startswith("_")} == arguments
    for flag in sorted(set(cli.FLAGS) - set(takes)):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + [flag, values.get(flag, "x")])
        assert err.value.code == 2, flag
    for flag in takes:
        if cli.FLAGS.get(flag, {}).get("required"):
            i = argv.index(flag)
            with pytest.raises(SystemExit) as err:
                cli.main(argv[:i] + argv[i + 2:])
            assert err.value.code == 2, flag


def test_calls_in_one_process_share_no_arguments(tmp_path, monkeypatch):
    monkeypatch.delenv("ACDKIT_LOOP_CAP", raising=False)
    monkeypatch.delenv("ACDKIT_EXPLORE_CAP", raising=False)
    six = fx("sixstate.json")
    assert run(tmp_path, "oracle-equiv", six, six, "--loop-cap", "2")[0] == 3
    assert run(tmp_path, "oracle-equiv", six, six) == (
        0, b'{\n  "equivalent": true\n}\n')
    dot = tmp_path / "t.dot"
    assert run(tmp_path, "transform", six, "--dot", str(dot))[0] == 0
    assert dot.read_text().startswith("digraph")
    dot.unlink()
    assert run(tmp_path, "transform", six)[0] == 0
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_on_first_use(tmp_path):
    """The parser is built on its first use, which is the first call that
    `_read_call` declines (here one that argparse accepts), and later
    declined calls reuse it.  Importing the CLI builds none, nor do
    well-formed calls, which the reader reads."""
    code = (
        "import argparse, sys\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **kw):\n"
        "    made.append(1)\n"
        "    init(self, *a, **kw)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from acdkit import cli\n"
        "counts = [len(made)]\n"
        "doc, out = sys.argv[1:]\n"
        "for tail in [[]] * 3 + [['--explore-cap=1000']] * 2:\n"
        "    assert cli.main(['stats', doc, '-o', out] + tail) == 0\n"
        "    counts.append(len(made))\n"
        "print(counts)\n")
    proc = child("-c", code, fx("sixstate.json"), str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts[:4] == [0, 0, 0, 0] and 0 < counts[4] == counts[5]


def test_commands_write_their_output_without_json_dumps(tmp_path,
                                                       monkeypatch):
    """Every command on the golden list, and every DOT rendering, runs
    without a call to `json.dumps`: the canonical writer writes every
    value a command emits, `true`, `false` and `null` included.  The
    goldens pin the bytes it writes."""
    calls, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps",
                        lambda *a, **kw: calls.append(a) or dumps(*a, **kw))
    for argv in ALL_INVOCATIONS:
        assert run(tmp_path, *argv) == (0, golden(argv)), argv
    for argv in DOT_INVOCATIONS:
        dot = tmp_path / "out.dot"
        assert run(tmp_path, *argv, "--dot", str(dot))[0] == 0
        assert dot.read_bytes() == golden(argv, ".dot")
    assert calls == []


def _flag_value(flag):
    return {"--target": "parity", "--loop-cap": "7",
            "--explore-cap": "0012"}.get(flag, "X")


def test_read_call_matches_argparse_on_every_flag_order():
    """For every command, every subset and order of its flags and `-o`
    (or `--output`), before, between or after its positionals: the
    reader's namespace is argparse's, or, without a required flag, the
    reader declines and argparse refuses the call."""
    parser = cli.build_parser()
    for sub, (_, arguments, _) in cli.COMMANDS.items():
        names = arguments.split()
        positionals = ["P%d" % i for i, a in enumerate(names)
                       if not a.startswith("-")]
        flags = [a for a in names if a.startswith("-")]
        for r in range(len(flags) + 2):
            for chosen in itertools.permutations(flags + ["-o"], r):
                options = [w for f in chosen for w in (f, _flag_value(f))]
                for at in range(len(positionals) + 1):
                    argv = [sub] + positionals[:at] + options + \
                        positionals[at:]
                    if at == len(positionals) and "-o" in chosen:
                        argv[argv.index("-o")] = "--output"
                    got = cli._read_call(argv)
                    if got is None:
                        assert "--target" in flags or "--against" in flags
                        with pytest.raises(SystemExit):
                            parser.parse_args(argv)
                    else:
                        assert got == parser.parse_args(argv), argv


@pytest.mark.parametrize("argv", [
    ["-h"], ["stats", "-h"], ["stats", "F", "--help"],
    ["relabel", "F", "--target=parity"], ["relabel", "F", "--tar", "parity"],
    ["stats", "F", "-oX"], ["stats", "--", "F"], ["stats", "F", "--"],
    ["stats", "F", "-o", "-x"], ["stats", "F", "-o"], ["stats", "-F"],
    ["relabel", "F", "--target", "bogus"], ["stats", "F", "--explore-cap", "0"],
    ["stats", "F", "--explore-cap", "many"], ["relabel", "F"],
    ["check-morphism", "F"], ["stats", "F", "G"], ["stats"], ["compose", "A"],
    ["stats", "F", "--dot", "x"], ["nonesuch", "F"], [],
], ids=lambda argv: " ".join(argv) or "empty")
def test_read_call_declines_every_other_form(argv):
    """Help, `--flag=value`, abbreviations, `-oX`, `--`, a value that
    starts with `-`, a bad choice or cap, a missing required flag or
    positional, an extra positional, another command's flag and an
    unknown command are left to argparse."""
    assert cli._read_call(argv) is None


@pytest.mark.parametrize("argv", [
    ["stats", fx("sixstate.json"), "--explore-cap=1000", "-o", "OUT"],
    ["stats", fx("sixstate.json"), "-oOUT"],
    ["stats", "-o", "OUT", "--", fx("sixstate.json")],
    ["relabel", fx("automatonA.json"), "--tar", "rabin", "--output", "OUT"],
], ids=["flag=value", "-oFILE", "double-dash", "abbreviation"])
def test_declined_forms_that_argparse_accepts_still_run(argv, tmp_path):
    """A form the reader declines but argparse accepts runs as its
    well-formed spelling does."""
    out = tmp_path / "out.json"
    argv = [w.replace("OUT", str(out)) for w in argv]
    assert cli._read_call(argv) is None
    assert cli.main(argv) == 0
    want = ["relabel", "automatonA.json", "--target", "rabin"] \
        if argv[0] == "relabel" else ["stats", "sixstate.json"]
    assert out.read_bytes() == golden(want)


@pytest.mark.parametrize("ends", ["\r\n", "\r"])
def test_documents_with_other_line_ends_read_as_text_mode_reads(ends,
                                                                tmp_path):
    """A document with CRLF or lone CR line ends gives the outputs of its
    LF form, and a malformed one the parse error, line and column that
    reading it in text mode gives."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(SIXSTATE.replace(b"\n", ends.encode()))
    assert run(tmp_path, "stats", str(doc)) == \
        (0, golden(["stats", "sixstate.json"]))
    bad = SIXSTATE.decode("utf-8").replace('"q0"', '"q0" "q1"', 2)
    doc.write_bytes(bad.replace("\n", ends).encode("utf-8"))
    with pytest.raises(cli.InputError) as want:
        with open(doc, encoding="utf-8") as fh:
            docfmt.parse(fh.read())
    assert str(want.value).startswith("parse error at line ")
    assert not str(want.value).startswith("parse error at line 1 ")
    with pytest.raises(cli.InputError) as got:
        cli._read_doc(str(doc))
    assert str(got.value) == str(want.value)


JSON_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(list('"\\\n\r\t\x00\x1f\x7f\u2028\ud800\udfffé'))))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30), st.floats(),
    JSON_TEXT)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(JSON_TEXT, inner, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none(),
                              st.floats(allow_nan=False)),
                    inner, max_size=3)), max_leaves=20)


def _outcome(write, obj):
    """`write(obj)`, or the type of the error it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError) as e:
        return type(e)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_dumps_is_json_dumps(obj):
    """`docfmt.dumps` writes the text of `json.dumps` with the canonical
    options, or fails alike, on nested values of every JSON type, tuples,
    non-string keys and strings with escapes, control characters and
    lone surrogates."""
    assert _outcome(docfmt.dumps, obj) == _outcome(
        lambda x: json.dumps(x, sort_keys=True, indent=2,
                             ensure_ascii=False) + "\n", obj)


def test_dumps_rewrites_every_golden_byte_for_byte():
    for name in sorted(os.listdir(GOLDEN)):
        if name.endswith(".json"):
            text = golden([name[:-len(".json")]])
            assert docfmt.dumps(json.loads(text)).encode("utf-8") == text, \
                name
