import random

import pytest

from acdkit import docfmt
from acdkit import (CapExceeded, InputError, MullerCondition, ParityCondition,
                    TransitionSystem, build_acd, classify_acd,
                    compress_priorities, equivalent_over, is_weak_k,
                    parity_relabel, rabin_from_acd, streett_from_acd,
                    to_explicit_muller)
from acdkit.core import _compressed
from conftest import FIXTURES, cell, grid, random_acds, random_muller_system
from oracles import every_vertex_loops, loop_equivalent, loop_union_flags


def chain_parity_system():
    ts = TransitionSystem(["p", "q"],
                          [("s", "p", "p"), ("t", "p", "q"),
                           ("u", "q", "q"), ("v", "q", "p")],
                          ["p"])
    return ts, ParityCondition({"s": 1, "t": 2, "u": 2, "v": 3})


def test_classify_sixstate(sixstate):
    ts, cond = sixstate
    report = classify_acd(build_acd(ts, cond))
    assert not report.rabin_acd
    assert not report.streett_acd
    assert not report.parity_acd
    assert report.interval is None and report.weak_k is None
    assert report.offending["q3"] == ((), (1,))
    assert "q1" not in report.offending


def test_classify_rabin_only(automaton_a):
    ts, cond = automaton_a
    acd = build_acd(ts, cond)
    report = classify_acd(acd)
    assert report.rabin_acd and not report.streett_acd
    rabin = rabin_from_acd(ts, acd)
    assert loop_equivalent(ts, cond, rabin)
    with pytest.raises(InputError):
        streett_from_acd(ts, acd)


def test_classify_parity_chain():
    ts, cond = chain_parity_system()
    muller = to_explicit_muller(ts, cond)
    acd = build_acd(ts, muller)
    report = classify_acd(acd)
    assert report.parity_acd
    assert report.interval is not None
    relabelled = parity_relabel(ts, acd)
    assert loop_equivalent(ts, muller, relabelled)
    assert loop_equivalent(ts, cond, relabelled)


def test_parity_relabel_refuses_non_chain(sixstate):
    ts, cond = sixstate
    with pytest.raises(InputError):
        parity_relabel(ts, build_acd(ts, cond))


def test_rabin_refuses_sixstate(sixstate):
    ts, cond = sixstate
    with pytest.raises(InputError):
        rabin_from_acd(ts, build_acd(ts, cond))


def test_compress_priorities_gap():
    ts = TransitionSystem(
        ["p"], [("a", "p", "p"), ("b", "p", "p"), ("c", "p", "p")], ["p"])
    out = compress_priorities(ts, {"a": 0, "b": 2, "c": 3})
    assert out.priorities == {"a": 0, "b": 0, "c": 1}
    assert equivalent_over(ts, ParityCondition({"a": 0, "b": 2, "c": 3}), out)


def test_compress_priorities_shift():
    ts = TransitionSystem(["p"], [("a", "p", "p"), ("b", "p", "p")], ["p"])
    out = compress_priorities(ts, {"a": 3, "b": 5})
    assert out.priorities == {"a": 1, "b": 1}
    out = compress_priorities(ts, {"a": 2, "b": 2})
    assert out.priorities == {"a": 0, "b": 0}


def test_compress_preserves_statuses_random():
    rng = random.Random(37)
    for _ in range(30):
        ts, _ = random_muller_system(rng, max_vertices=4, max_edges=7)
        prios = {e.id: rng.randint(0, 6) for e in ts.edges}
        before = ParityCondition(prios)
        after = compress_priorities(ts, prios)
        assert equivalent_over(ts, before, after)
        used = sorted(set(after.priorities.values()))
        assert used[0] in (0, 1)
        assert all(b - a == 1 for a, b in zip(used, used[1:]))


def test_parity_relabel_is_already_compressed():
    """In a parity-shaped decomposition every node is the deepest holder
    of an out-edge of one of its vertices, so each tree uses every
    priority from its root's to root's + height - 1, and the relabelling's
    priorities run without a gap from 0 or 1: compressing it changes
    nothing.  The fixtures and `random_acds`, whose parity-shaped ones
    meet every cell of the case grid."""
    systems = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            doc = docfmt.parse(path.read_text(encoding="utf-8"))
            systems.append((doc.system, build_acd(doc.system, doc.condition)))
        except InputError:
            continue
    systems += random_acds(random.Random(53), 600)
    shaped, drawn = 0, set()
    for ts, acd in systems:
        if classify_acd(acd).parity_acd:
            relabelled = parity_relabel(ts, acd)
            compressed = compress_priorities(ts, relabelled)
            assert (compressed.priorities, compressed.over) == \
                (relabelled.priorities, relabelled.over)
            shaped += 1
            drawn.add(cell(ts, acd.cond))
    assert shaped >= 500, shaped
    assert drawn >= grid()


def _random_priority_map(rng, ids):
    """Priorities over `ids` from a few values with gaps and repeats; the
    least is odd in about half the maps."""
    values = rng.sample(range(12), rng.randint(1, 5))
    return {c: rng.choice(values) for c in ids}


def test_compressed_is_compress_priorities_map():
    """`core._compressed` gives every used priority the value that
    `compress_priorities` gives its colours, on random maps with gaps,
    repeats, a single value and a least odd value."""
    rng = random.Random(42)
    ids = ["c%d" % i for i in range(8)]
    ts = TransitionSystem(["p"], [(c, "p", "p") for c in ids], ["p"])
    odd = single = 0
    for _ in range(400):
        prios = _random_priority_map(rng, ids)
        new = _compressed(prios.values())
        assert sorted(new) == sorted(set(prios.values()))
        out = compress_priorities(ts, prios).priorities
        assert out == {c: new[p] for c, p in prios.items()}
        odd += min(prios.values()) % 2
        single += len(new) == 1
    assert odd >= 100 and single >= 10, (odd, single)
    assert _compressed([7]) == {7: 1}
    assert _compressed([4, 4]) == {4: 0}
    assert _compressed([3, 5, 6, 9, 10, 12]) == {3: 1, 5: 1, 6: 2, 9: 3,
                                                 10: 4, 12: 4}


def test_is_weak_k():
    ts = TransitionSystem(
        ["p", "q"],
        [("a", "p", "p"), ("b", "p", "q"), ("c", "q", "q"), ("d", "q", "q")],
        ["p"])
    prios = {"a": 0, "b": 1, "c": 2, "d": 3}
    # SCC {a} uses one priority, SCC {c,d} uses two; b is transient
    assert is_weak_k(ts, prios, 2)
    assert not is_weak_k(ts, prios, 1)
    assert is_weak_k(ts, {"a": 0, "b": 5, "c": 1, "d": 1}, 1)


def test_relabel_constructions_random():
    rng = random.Random(41)
    rabin_hits = streett_hits = 0
    for _ in range(60):
        ts, cond = random_muller_system(rng, max_vertices=4, max_edges=7)
        try:
            acd = build_acd(ts, cond)
        except InputError:
            continue
        report = classify_acd(acd)
        try:
            if report.rabin_acd:
                assert loop_equivalent(ts, cond, rabin_from_acd(ts, acd))
                rabin_hits += 1
            if report.streett_acd:
                assert loop_equivalent(ts, cond, streett_from_acd(ts, acd))
                streett_hits += 1
            if report.parity_acd:
                relabelled = parity_relabel(ts, acd)
                assert loop_equivalent(ts, cond, relabelled)
                assert is_weak_k(ts, relabelled, report.weak_k)
        except CapExceeded:
            continue
    assert rabin_hits > 5 and streett_hits > 5


def test_shape_flags_match_loop_closure_oracle():
    # rabin flag <=> union of two rejecting loops is rejecting; the flags
    # cover every vertex, so enumerate loops of the whole graph
    rng = random.Random(43)
    checked = 0
    for _ in range(40):
        ts, cond = random_muller_system(rng, max_vertices=4, max_edges=6)
        try:
            acd = build_acd(ts, cond)
            loops = every_vertex_loops(ts, cap=12)
        except (InputError, CapExceeded):
            continue
        report = classify_acd(acd)
        rabin, streett, _ = loop_union_flags(ts, cond, loops)
        assert report.rabin_acd == rabin
        assert report.streett_acd == streett
        checked += 1
    assert checked > 15


def swap_system():
    """One vertex, self-loops x and y coloured with each other's id."""
    ts = TransitionSystem(["p"], [("x", "p", "p"), ("y", "p", "p")], ["p"],
                          colours={"x": "y", "y": "x"})
    return ts, MullerCondition([{"x"}])


@pytest.mark.parametrize("relabelling", [
    rabin_from_acd, streett_from_acd, parity_relabel,
    lambda ts, acd: compress_priorities(ts, parity_relabel(ts, acd)),
    lambda ts, acd: to_explicit_muller(ts, acd.cond)],
    ids=["rabin", "streett", "parity", "weak", "explicit-muller"])
def test_relabellings_of_swapped_colours_are_equivalent(relabelling):
    # a condition over edge ids says so, so ids that are also colours
    # are not read as colours
    ts, cond = swap_system()
    out = relabelling(ts, build_acd(ts, cond))
    assert out.over == "edges"
    assert equivalent_over(ts, cond, out)
    assert loop_equivalent(ts, cond, out)


def test_is_weak_k_reads_the_condition_once():
    # priorities over the edge ids of a recoloured system are read by id,
    # with no fallback between colours and ids
    ts, cond = swap_system()
    prios = parity_relabel(ts, build_acd(ts, cond))
    assert is_weak_k(ts, prios, 2) and not is_weak_k(ts, prios, 1)
    with pytest.raises(InputError):
        is_weak_k(ts, ParityCondition({"x": 0}), 2)


def test_subtrees_and_offending_match_brute_force():
    """Each vertex's branches and the classification's offending nodes,
    recomputed from the whole trees: the nodes whose loop visits the
    vertex, and among them those with no / several such children, on
    every cell of the case grid."""
    branching = 0
    for ts, acd in random_acds(random.Random(17), 180):
        offending = {}
        for v in ts.vertices:
            t = acd.tree(acd.vertex_index[v])
            kept = [n for n in t.nodes if v in t.states[n]]
            kids = {n: [c for c in t.children_map[n] if v in t.states[c]]
                    for n in kept}
            assert acd.subtree_for_state(v).branches == \
                tuple(n for n in kept if not kids[n])
            bad = tuple(n for n in kept if len(kids[n]) > 1)
            if bad:
                offending[v] = bad
        assert classify_acd(acd).offending == offending
        branching += bool(offending)
    assert branching > 10
