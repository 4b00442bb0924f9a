import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit import (Automaton, CapExceeded, InputError, Loop,
                    MullerCondition, TransitionSystem, accessible_x_scc,
                    acd_transform, alternating_children, build_acd,
                    build_zielonka_tree, build_zt_automaton,
                    check_acceptance_preserving, classify_acd,
                    enumerate_reachable_loops, equivalent_over,
                    induced_morphism, is_loop, loop_status_over,
                    parity_relabel, rabin_from_acd, sccs, streett_from_acd)
from acdkit.core import _reading
from acdkit.docfmt import parse
from conftest import (CONDITION_KINDS, FIXTURES, cell, grid, random_condition,
                      random_muller_system, random_system, recoloured,
                      sampled_cases)
from oracles import grouped_components, naive_loops, naive_maximal_flipped


def test_sixstate_sccs(sixstate):
    ts, _ = sixstate
    maximal, transient = sccs(ts)
    assert [sorted(l.edges) for l in maximal] == \
        [["c", "d", "e"], ["g", "h", "i", "j", "k", "l"]]
    assert transient == frozenset({"a", "b", "f"})


def test_self_loop_scc():
    ts = TransitionSystem(["p"], [("e", "p", "p")], ["p"])
    maximal, transient = sccs(ts)
    assert len(maximal) == 1 and not transient


def test_dag_with_sink_self_loops():
    ts = TransitionSystem(
        ["p", "q", "r"],
        [("a", "p", "q"), ("b", "p", "r"), ("c", "q", "q"), ("d", "r", "r")],
        ["p"])
    maximal, transient = sccs(ts)
    assert sorted(sorted(l.edges) for l in maximal) == [["c"], ["d"]]
    assert transient == frozenset({"a", "b"})


def test_is_loop(sixstate):
    ts, _ = sixstate
    assert is_loop(ts, {"c", "d"})
    assert not is_loop(ts, {"c"})
    assert not is_loop(ts, set())
    assert is_loop(ts, {"g"})
    assert not is_loop(ts, {"c", "d", "g"})


def test_alternating_children_sixstate(sixstate):
    ts, cond = sixstate
    big = Loop.of(ts, {"g", "h", "i", "j", "k", "l"})
    kids = alternating_children(ts, cond, big)
    assert [sorted(l.edges) for l in kids] == \
        [["h", "i", "j", "k"], ["g", "h", "i"], ["l"]]
    ghi = Loop.of(ts, {"g", "h", "i"})
    kids = alternating_children(ts, cond, ghi)
    assert [sorted(l.edges) for l in kids] == [["h", "i"], ["g"]]


def test_alternating_children_trivial():
    ts = TransitionSystem(["p"], [("e", "p", "p")], ["p"])
    cond = MullerCondition([{"e"}])
    assert alternating_children(ts, cond, Loop.of(ts, {"e"})) == []


def test_alternating_children_cap(sixstate):
    ts, cond = sixstate
    big = Loop.of(ts, {"g", "h", "i", "j", "k", "l"})
    with pytest.raises(CapExceeded):
        alternating_children(ts, cond, big, explore_cap=2)


@pytest.mark.parametrize("edges", [{"nope"}, {"nope", "g"},
                                   {"zz", "nope", "g"}])
def test_alternating_children_unknown_edge(sixstate, edges):
    """A loop naming an edge that `ts` lacks, alone or beside a real one,
    is an InputError that names the least such id, in
    `alternating_children` and in `Loop.of`."""
    ts, cond = sixstate
    with pytest.raises(InputError, match="^unknown edge 'nope'$"):
        alternating_children(ts, cond, Loop(frozenset(edges), frozenset()))
    with pytest.raises(InputError, match="^unknown edge 'nope'$"):
        Loop.of(ts, edges)


@pytest.mark.parametrize("seed", range(40))
def test_loop_of_states_hold_every_endpoint(seed):
    """The states `Loop.of` reads off the edge sources of a loop are
    exactly its edges' endpoints, and equal those of the loop `sccs`
    returns, for every loop of a random system."""
    ts = random_system(random.Random(seed))
    for loop in enumerate_reachable_loops(ts, cap=12):
        ends = {v for eid in loop.edges
                for v in (ts.edge(eid).source, ts.edge(eid).target)}
        assert Loop.of(ts, loop.edges) == loop
        assert loop.states == ends


def test_loop_holds_edge_ids_only(sixstate):
    """`in` asks for an edge id: a value of another type names no edge,
    an unhashable one included."""
    ts, _ = sixstate
    loop = Loop.of(ts, {"c", "d"})
    assert "c" in loop
    assert "g" not in loop
    assert [1] not in loop


def test_cap_messages_name_few_states_of_a_long_loop():
    """A 200-vertex cycle with a self-loop at each vertex: both cap
    messages name the loop's 12 least states and its state count, not all
    200 states."""
    vs = ["v%03d" % i for i in range(200)]
    ts = TransitionSystem(
        vs, [("c" + v, v, vs[(i + 1) % 200]) for i, v in enumerate(vs)]
        + [("s" + v, v, v) for v in vs], [vs[0]],
        colours=dict([("c" + v, "a") for v in vs]
                     + [("s" + v, "b") for v in vs]))
    cond = MullerCondition([{"a", "b"}])
    states = "{%s,...} (200 states)" % ",".join(vs[:12])
    with pytest.raises(CapExceeded) as err:
        build_acd(ts, cond, explore_cap=1)
    assert str(err.value) == (
        "subloop exploration exceeded cap 1 in the loop on states %s with "
        "400 edges: 2 subloops seen" % states)
    with pytest.raises(CapExceeded) as err:
        equivalent_over(ts, cond, cond, loop_cap=5)
    assert str(err.value) == \
        "SCC %s has 400 edges, above the loop cap 5" % states


def test_enumerate_sixstate_small_scc(sixstate):
    ts, _ = sixstate
    found = {l.edges for l in enumerate_reachable_loops(ts)}
    assert frozenset({"c", "d"}) in found
    assert frozenset({"e"}) in found
    assert frozenset({"c", "d", "e"}) in found
    assert not any(l <= {"a", "b", "f"} for l in found)


def test_enumerate_two_self_loops():
    ts = TransitionSystem(["p"], [("x", "p", "p"), ("y", "p", "p")], ["p"])
    found = {l.edges for l in enumerate_reachable_loops(ts)}
    assert found == {frozenset({"x"}), frozenset({"y"}),
                     frozenset({"x", "y"})}


def test_enumerate_cap():
    ts = TransitionSystem(["p"], [("e%d" % i, "p", "p") for i in range(5)],
                          ["p"])
    with pytest.raises(CapExceeded):
        enumerate_reachable_loops(ts, cap=4)


def test_enumerate_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(25):
        ts, _ = random_muller_system(rng, max_vertices=4, max_edges=7)
        assert {l.edges for l in enumerate_reachable_loops(ts)} == \
            set(naive_loops(ts))


def test_enumerate_splits_each_bouquet_loop_once(monkeypatch):
    # one vertex with 12 self-loops has 2^12 - 1 loops; dropping only
    # edges above the last one dropped splits each proper subset of the
    # edges once, and one more call finds the maximal loop
    from acdkit import loops
    calls = []

    def counting_sccs(*args):
        calls.append(args)
        return sccs(*args)
    monkeypatch.setattr(loops, "sccs", counting_sccs)
    ts = TransitionSystem(["p"], [("e%02d" % i, "p", "p") for i in range(12)],
                          ["p"])
    assert len(enumerate_reachable_loops(ts)) == 4095
    assert len(calls) == 4096


def _check_against_naive(ts, cond, top):
    def status(edges):
        return loop_status_over(ts, cond, edges)
    got = {l.edges for l in alternating_children(ts, cond, top)}
    assert got == set(naive_maximal_flipped(ts, status, top.edges))


def test_alternating_children_matches_naive_oracle():
    # Muller conditions over the default edge-id colours, then every cell
    # of the case grid at each edge bound from 7 to 12 (6 edges at least):
    # each kind on edge-id systems and on systems recoloured from two to
    # four colours
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        ts, cond = random_muller_system(rng, max_vertices=4, max_edges=7)
        for top in sccs(ts)[0]:
            _check_against_naive(ts, cond, top)
            checked += 1
    assert checked > 20
    checked, drawn = dict.fromkeys(CONDITION_KINDS, 0), set()
    for most in range(7, 13):
        for ts, cond in sampled_cases(
                rng, 24, lambda rng, ts: "abcd"[:rng.randint(2, 4)],
                max_vertices=4, min_edges=6, max_edges=most):
            drawn.add(cell(ts, cond))
            for tree in build_acd(ts, cond).trees:
                for node in tree.nodes:
                    _check_against_naive(ts, cond,
                                         Loop.of(ts, tree.label[node]))
                    checked[cond.kind] += 1
    assert min(checked.values()) > 40, checked
    assert drawn == grid()


def test_edge_keyed_condition_on_coloured_system():
    # rabin_from_acd, streett_from_acd and parity_relabel key their
    # conditions by edge id; on a system with explicit colours the
    # decomposition must descend through the same reading as the status
    rng = random.Random(5)
    kinds = set()
    for _ in range(60):
        ts = recoloured(rng, random_system(rng, max_vertices=4, max_edges=9),
                        "abc")
        acd = build_acd(ts, random_condition(rng, "muller", ts.colour_set()))
        report = classify_acd(acd)
        relabelled = []
        if report.rabin_acd:
            relabelled.append(rabin_from_acd(ts, acd))
        if report.streett_acd:
            relabelled.append(streett_from_acd(ts, acd))
        if report.parity_acd:
            relabelled.append(parity_relabel(ts, acd))
        for cond in relabelled:
            _, universe = _reading(ts, cond)
            if universe != {e.id for e in ts.edges}:
                continue
            kinds.add(cond.kind)
            for tree in build_acd(ts, cond).trees:
                for node in tree.nodes:
                    _check_against_naive(ts, cond,
                                         Loop.of(ts, tree.label[node]))
    assert kinds == {"rabin", "streett", "parity"}


def test_thirteen_self_loops_within_explore_cap():
    # 13 self-loops under Muller [{e00}]: the only flipped subloop, {e00},
    # must be found within the default explore cap (a search that drops
    # one edge at a time sees more than 5000 subloops here).  A Zielonka
    # tree is the decomposition of a one-vertex system: the trees agree
    eids = ["e%02d" % i for i in range(13)]
    ts = TransitionSystem(["p"], [(e, "p", "p") for e in eids], ["p"])
    acd = build_acd(ts, MullerCondition([{"e00"}]))
    zt = build_zielonka_tree([{"e00"}], eids)
    assert [tree.label for tree in acd.trees] == [zt.label]
    assert zt.label == {(): frozenset(eids), (0,): frozenset({"e00"})}


def test_children_are_strict_subloops(sixstate):
    ts, cond = sixstate
    for top, _ign in [(l, None) for l in sccs(ts)[0]]:
        for kid in alternating_children(ts, cond, top):
            assert kid.edges < top.edges
            assert kid.states & top.states


def test_accessible_x_scc_zf1():
    zt = build_zt_automaton(
        build_zielonka_tree([{"a"}, {"b"}], {"a", "b", "c"}))
    assert accessible_x_scc(zt.automaton, {"a"}) == frozenset({"b0"})
    assert accessible_x_scc(zt.automaton, {"b"}) == frozenset({"b1"})
    only = accessible_x_scc(zt.automaton, set())
    assert len(only) == 1


def test_accessible_x_scc_closure_property():
    rng = random.Random(3)
    for _ in range(20):
        fam = [s for s in random_muller_system(rng, 3, 5)[1].family]
        gamma = {"a", "b", "c"}
        fam = [set(f) & gamma or {"a"} for f in fam] or [{"a"}]
        zt = build_zt_automaton(build_zielonka_tree(fam, gamma))
        letters = {"a", "b"}
        comp = accessible_x_scc(zt.automaton, letters)
        for q in comp:
            for a in letters:
                assert zt.automaton.step(q, a).target in comp


def test_sccs_match_kosaraju_random():
    """On random systems and random edge subsets, `sccs` gives the inner
    edge groups of the Kosaraju oracle, each loop's states are its edges'
    endpoints, the other edges are transient and the loops come in `key`
    order."""
    rng = random.Random(53)
    for _ in range(150):
        ts = random_system(rng, max_vertices=7, max_edges=14)
        ids = [e.id for e in ts.edges]
        for chosen in (None, rng.sample(ids, rng.randint(0, len(ids)))):
            maximal, transient = sccs(ts, chosen)
            edges = [ts.edge(eid) for eid in
                     (ids if chosen is None else sorted(chosen))]
            want = {frozenset(e.id for e in group)
                    for group in grouped_components(edges)}
            assert [l.edges for l in maximal] == \
                sorted(want, key=lambda es: sorted(es))
            for l in maximal:
                assert l.states == {v for eid in l.edges for v in
                                    (ts.edge(eid).source, ts.edge(eid).target)}
            assert transient == frozenset(e.id for e in edges).difference(
                *want)
    with pytest.raises(InputError, match="unknown edge 'nowhere'"):
        sccs(ts, ["nowhere"])


def _letter_reach(aut, starts, letters):
    """States reachable from `starts` through `letters`, by fixpoint."""
    reach = set(starts)
    while True:
        grown = reach | {aut.step(q, a).target for q in reach for a in letters}
        if grown == reach:
            return reach
        reach = grown


def test_accessible_x_scc_matches_naive_choice():
    """On random complete deterministic automata and every letter subset:
    the reachable letter-closed strongly connected set with the least
    sorted state tuple, or the initial state alone for no letters."""
    from itertools import combinations
    rng = random.Random(61)
    for _ in range(60):
        states = ["q%d" % i for i in range(rng.randint(1, 5))]
        alphabet = sorted(rng.sample("abcd", rng.randint(1, 4)))
        edges, letters = [], {}
        for q in states:
            for a in alphabet:
                eid = "%s/%s" % (q, a)
                edges.append((eid, q, rng.choice(states)))
                letters[eid] = a
        start = rng.choice(states)
        aut = Automaton(TransitionSystem(states, edges, [start],
                                         letters=letters),
                        MullerCondition([]))
        for r in range(len(alphabet) + 1):
            for xs in combinations(alphabet, r):
                reach = _letter_reach(aut, [start], xs)
                closed = [c for c in (_letter_reach(aut, [q], xs)
                                      for q in reach)
                          if all(c == _letter_reach(aut, [p], xs)
                                 for p in c)]
                want = min(closed, key=lambda c: tuple(sorted(c))) if xs \
                    else {start}
                assert accessible_x_scc(aut, xs) == want, (xs, edges)


@st.composite
def small_system(draw):
    n = draw(st.integers(1, 4))
    vs = ["v%d" % i for i in range(n)]
    edges = []
    for i, v in enumerate(vs):
        edges.append(("e%d" % i, v, vs[draw(st.integers(0, n - 1))]))
    extra = draw(st.integers(0, 4))
    for i in range(extra):
        edges.append(("x%d" % i,
                      vs[draw(st.integers(0, n - 1))],
                      vs[draw(st.integers(0, n - 1))]))
    return TransitionSystem(vs, edges, [vs[0]])


@settings(max_examples=40, deadline=None)
@given(small_system(), st.randoms(use_true_random=False))
def test_loops_partition_property(ts, rng):
    maximal, transient = sccs(ts)
    covered = set(transient)
    for l in maximal:
        assert is_loop(ts, l.edges)
        assert not (covered - frozenset(transient)) & l.edges
        covered |= l.edges
    assert covered == {e.id for e in ts.edges}


def test_scc_cover_loop_oracle_matches_enumeration():
    # the existence oracle used by the acceptance suite agrees with direct
    # loop enumeration on small systems
    from oracles import loop_exists
    rng = random.Random(19)
    for _ in range(30):
        ts, _ = random_muller_system(rng, max_vertices=4, max_edges=7)
        reach = ts.reachable_vertices()
        edges = [e for e in ts.edges
                 if e.source in reach and e.target in reach]
        letter = {e.id: e.id[0] for e in ts.edges}   # bucket by first char
        prio = {e.id: rng.randint(0, 3) for e in ts.edges}
        loops = enumerate_reachable_loops(ts, cap=10)
        seen = {}
        for l in loops:
            key = frozenset(letter[eid] for eid in l.edges)
            seen.setdefault(key, set()).add(
                min(prio[eid] for eid in l.edges))
        letters = {frozenset(letter[e.id] for e in edges)} | set(seen)
        for X in letters:
            for d in range(0, 4):
                got = loop_exists(edges, letter.get, prio.get, X, d)
                want = d in seen.get(X, set())
                assert got == want, (X, d)


def _sixstate_entry_points():
    """Each library entry point that takes a cap, called on the sixstate
    document with the cap set to `value`."""
    with open(FIXTURES / "sixstate.json", encoding="utf-8") as fh:
        doc = parse(fh.read())
    ts, cond = doc.system, doc.condition
    m = induced_morphism(acd_transform(ts, cond), ts, cond)
    return {
        "build_acd": lambda v: build_acd(ts, cond, explore_cap=v),
        "enumerate_reachable_loops":
            lambda v: enumerate_reachable_loops(ts, cap=v),
        "equivalent_over-loop_cap":
            lambda v: equivalent_over(ts, cond, cond, loop_cap=v),
        "equivalent_over-explore_cap":
            lambda v: equivalent_over(ts, cond, cond, explore_cap=v),
        "check_acceptance_preserving-loop_cap":
            lambda v: check_acceptance_preserving(m, loop_cap=v),
        "check_acceptance_preserving-explore_cap":
            lambda v: check_acceptance_preserving(m, explore_cap=v),
    }


@pytest.mark.parametrize("entry", sorted(_sixstate_entry_points()))
@pytest.mark.parametrize("value", [0, -2, True, 1.5])
def test_library_caps_below_one_are_input_errors(entry, value):
    """The library keeps the command line's rule: a cap is an integer of
    at least 1, and neither a bool nor a float is one."""
    call = _sixstate_entry_points()[entry]
    with pytest.raises(InputError, match="a cap must be an integer of at "
                       "least 1, got %r$" % value):
        call(value)
    call(10**6)  # a cap of at least 1 is taken
