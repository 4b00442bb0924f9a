import itertools
import math
import random

import pytest

from acdkit import (CapExceeded, InputError, MullerCondition,
                    TransitionSystem, acd_stats, acd_transform, build_acd,
                    build_zielonka_tree, build_zt_automaton, check_local,
                    check_structural, classify_acd, compose,
                    induced_morphism, loop_status_over, multi_supp,
                    optimal_parity_interval, parity_relabel, rabin_from_acd,
                    sccs, shape, streett_from_acd, subtree_for_state)
from acdkit import docfmt, relabel
from acdkit.loops import enumerate_reachable_loops
from acdkit.zielonka import _zielonka_tree
from conftest import (FIXTURES, count_readings, even_muller, grid,
                      nested_pairs, parity_chain, random_acds,
                      random_condition, random_muller_system, random_system,
                      recoloured, under_hash_seeds)
from oracles import deepest_holding_prefix, loop_preserving


def edge_sets(tree):
    return {n: "".join(sorted(tree.label[n])) for n in tree.nodes}


def test_sixstate_forest_layout(sixstate):
    ts, cond = sixstate
    acd = build_acd(ts, cond)
    assert len(acd.trees) == 2
    assert acd.t0_edges == frozenset({"a", "b", "f"})
    assert acd.t0_states == frozenset({"q0"})
    t1, t2 = acd.trees
    assert edge_sets(t1) == {(): "cde", (0,): "cd"}
    assert t1.even
    assert edge_sets(t2) == {(): "ghijkl", (0,): "hijk", (0, 0): "hi",
                             (1,): "ghi", (1, 0): "hi", (1, 1): "g",
                             (2,): "l"}
    assert not t2.even
    assert acd.tag == "odd"
    assert acd.max_height == 3


def test_sixstate_priorities(sixstate):
    ts, cond = sixstate
    acd = build_acd(ts, cond)
    assert acd.priority(0, ()) == 1
    t1 = {n: acd.priority(1, n) for n in acd.tree(1).nodes}
    assert t1 == {(): 2, (0,): 3}
    t2 = {n: acd.priority(2, n) for n in acd.tree(2).nodes}
    assert t2 == {(): 1, (0,): 2, (0, 0): 3, (1,): 2, (1, 0): 3,
                  (1, 1): 3, (2,): 2}


def test_sixstate_subtrees(sixstate):
    ts, cond = sixstate
    acd = build_acd(ts, cond)
    q4 = subtree_for_state(acd, "q4")
    assert q4.tree_index == 2
    assert q4.nodes == ((), (0,), (0, 0), (1,), (1, 0))
    assert q4.branches == ((0, 0), (1, 0))
    q5 = subtree_for_state(acd, "q5")
    assert q5.branches == ((0,), (2,))
    q0 = subtree_for_state(acd, "q0")
    assert q0.tree_index == 0
    assert q0.branches == ((),)
    with pytest.raises(InputError):
        subtree_for_state(acd, "nope")


def test_sixstate_multi_supp(sixstate):
    ts, cond = sixstate
    acd = build_acd(ts, cond)
    # staying in the same tree: deepest ancestor containing the edge
    assert multi_supp(acd, (0, 0), 2, "j") == (2, (0,))
    assert multi_supp(acd, (0, 0), 2, "h") == (2, (0, 0))
    assert multi_supp(acd, (1, 1), 2, "g") == (2, (1, 1))
    # leaving the tree: root of the edge's own tree
    assert multi_supp(acd, (0, 0), 2, "c") == (1, ())
    assert multi_supp(acd, (), 1, "a") == (0, ())


def test_sixstate_stats(sixstate):
    ts, cond = sixstate
    stats = acd_stats(build_acd(ts, cond))
    assert stats == {"size": 10, "interval": (1, 3), "tag": "odd",
                     "tree_heights": (1, 2, 3)}


def test_sixstate_transform(sixstate):
    ts, cond = sixstate
    res = acd_transform(ts, cond)
    assert len(res.system.vertices) == 10
    counts = {q: len(res.copies[q]) for q in ts.vertices}
    assert counts == {"q0": 1, "q1": 1, "q2": 1, "q3": 3, "q4": 2, "q5": 2}
    assert res.copies["q3"] == ("q3|r.0.0", "q3|r.1.0", "q3|r.1.1")
    assert res.copies["q5"] == ("q5|r.0", "q5|r.2")
    assert set(res.condition.priorities.values()) <= {1, 2, 3}


def test_sixstate_transform_morphism(sixstate):
    ts, cond = sixstate
    res = acd_transform(ts, cond)
    m = induced_morphism(res, ts, cond)
    ok, problems = check_structural(m)
    assert ok, problems
    assert check_local(m)["bijective"]
    assert loop_preserving(m)


def test_automaton_a_transform(automaton_a):
    ts, cond = automaton_a
    res = acd_transform(ts, cond)
    assert sorted(res.system.vertices) == ["A|r.0", "A|r.1", "B|r.0"]
    stats = acd_stats(res.acd)
    assert stats["size"] == 3
    assert stats["interval"] == (1, 2)
    assert stats["tag"] == "odd"
    assert stats["tree_heights"] == (2,)
    # letters survive the transformation
    assert res.system.letter("a|r.0") == "0"


def test_transform_rejects_invalid_input():
    ts = TransitionSystem(["p", "q"], [("s", "p", "q")], ["p"])
    with pytest.raises(InputError):
        acd_transform(ts, MullerCondition([{"s"}]))


def test_acd_reads_its_condition_once(monkeypatch):
    doc = docfmt.parse((FIXTURES / "sixstate.json").read_text())
    calls = count_readings(monkeypatch)
    build_acd(doc.system, doc.condition)
    assert calls == [doc.condition]


def test_one_vertex_acd_is_zielonka_tree():
    # colours double as edge ids, so the tree labels must coincide
    rng = random.Random(17)
    for _ in range(20):
        gamma = sorted(set("abcd"[:rng.randint(1, 4)]))
        fam = [set(s) for s in
               [c for c in gamma]] if rng.random() < 0.2 else None
        if fam is None:
            from conftest import random_family
            fam = random_family(rng, gamma) or [set(gamma)]
        ts = TransitionSystem(["z"], [(c, "z", "z") for c in gamma], ["z"])
        acd = build_acd(ts, MullerCondition(fam))
        zt = build_zielonka_tree(fam, gamma)
        assert len(acd.trees) == 1
        t = acd.trees[0]
        assert t.nodes == zt.nodes
        assert {n: t.label[n] for n in t.nodes} == \
            {n: zt.label[n] for n in zt.nodes}
        assert t.even == zt.even


def test_transform_loop_criterion_random():
    rng = random.Random(23)
    for _ in range(30):
        ts, cond = random_muller_system(rng, max_vertices=3, max_edges=5)
        res = acd_transform(ts, cond)
        try:
            loops = enumerate_reachable_loops(res.system, cap=15)
        except CapExceeded:
            continue
        for l in loops:
            got = loop_status_over(res.system, res.condition, l.edges)
            image = {res.edge_map[eid] for eid in l.edges}
            want = loop_status_over(ts, cond, image)
            assert got == want


def test_transform_morphism_random():
    rng = random.Random(29)
    for _ in range(20):
        ts, cond = random_muller_system(rng, max_vertices=4, max_edges=7)
        res = acd_transform(ts, cond)
        m = induced_morphism(res, ts, cond)
        assert check_structural(m)[0]
        assert check_local(m)["bijective"]


def test_subtrees_are_whole_trees():
    """A vertex's subtree is a full ZielonkaTree: its height is one more
    than the depth of the deepest node whose loop visits the vertex, and
    the interval and the serialiser read it."""
    for ts, acd in random_acds(random.Random(43), 120):
        for v in ts.vertices:
            sub = acd.subtree_for_state(v)
            t = acd.tree(sub.tree_index)
            assert sub.height == 1 + max(len(n) for n in t.nodes
                                         if v in t.states[n])
            lo, hi = optimal_parity_interval(sub)
            assert (lo, hi - lo) == (0 if sub.even else 1, sub.height - 1)
            obj = docfmt.tree_to_obj(sub)
            assert obj["height"] == sub.height
            assert [n["node"] for n in obj["nodes"]] == \
                [docfmt._node_name(n) for n in sub.nodes]


def test_transient_part_under_every_tag():
    """The transient part is tree 0, a one-node tree, under each tag: its
    priority is the low end of the interval, its DOT cluster is one node,
    its Rabin or Streett pair is there by the parity of that priority,
    and its vertices have one branch and never offend."""
    tags = set()
    for ts, acd in random_acds(random.Random(41), 240):
        t0 = acd.tree(0)
        assert (t0.label, t0.states, t0.height) == (
            {(): acd.t0_edges}, {(): acd.t0_states}, 1)
        if not acd.t0_edges:
            continue
        tags.add(acd.tag)
        p = acd.priority(0, ())
        assert p == acd_stats(acd)["interval"][0]
        lines = docfmt.dot_acd(acd).splitlines()
        at = lines.index("  subgraph cluster_t0 {")
        assert lines[at:at + 4] == [
            "  subgraph cluster_t0 {",
            '    label="t0";',
            '    "t0:r" [shape=%s,label="{%s}\\\\n%s\\\\n%d"];'
            % ("ellipse" if p % 2 == 0 else "box",
               ",".join(sorted(acd.t0_edges)),
               ",".join(sorted(acd.t0_states)), p),
            "  }"]
        pair = (acd.t0_edges,
                frozenset(e.id for e in ts.edges) - acd.t0_edges)
        assert (pair in relabel._node_pairs(acd, True)) == (p % 2 == 0)
        assert (pair in relabel._node_pairs(acd, False)) == (p % 2 == 1)
        offending = classify_acd(acd).offending
        for v in acd.t0_states:
            assert acd.subtree_for_state(v).branches == ((),)
            assert v not in offending
    assert tags == {"even", "odd", "ambiguous"}


def naive_priority(acd, i, node):
    t = acd.tree(i)
    return len(node) + (0 if t.even else 1) + \
        (2 if t.even and acd.tag == "odd" else 0)


def test_priority_is_depth_plus_root_status_under_every_tag():
    """A node's priority is its depth, plus 1 under a rejecting root, plus
    2 under an accepting root when the tallest trees are rejecting."""
    tags = set()
    for ts, acd in random_acds(random.Random(43), 240):
        tags.add(acd.tag)
        for i in range(len(acd.trees) + 1):
            for n in acd.tree(i).nodes:
                assert acd.priority(i, n) == naive_priority(acd, i, n)
    assert tags == {"even", "odd", "ambiguous"}


def test_multi_supp_is_the_deepest_holding_prefix():
    """For every branch of every tree and every edge: the deepest prefix of
    the branch whose label holds the edge when the edge is in that tree,
    else the root of the edge's own tree."""
    for ts, acd in random_acds(random.Random(44), 240):
        for i in range(len(acd.trees) + 1):
            t = acd.tree(i)
            for leaf in t.leaves:
                for e in ts.edges:
                    j = acd.edge_index[e.id]
                    want = deepest_holding_prefix(t, leaf, e.id) \
                        if j == i else ()
                    assert multi_supp(acd, leaf, i, e.id) == (j, want)


def naive_edge_step(acd, leaf, e):
    """The transform's edge step read only from the full trees' `label`,
    `children_map` and `states`: the support `tau` of `e` on the branch
    (the edge's root when it leaves the tree), then the cyclically next
    child of `tau` whose loop visits the target, then leftmost such
    children down to a leaf; from another tree, leftmost such children
    from the target tree's root."""
    i, j, w = acd.vertex_index[e.source], acd.edge_index[e.id], e.target
    tau = deepest_holding_prefix(acd.tree(i), leaf, e.id) if j == i else ()
    t = acd.tree(acd.vertex_index[w])

    def kept(n):
        return [c for c in t.children_map[n] if w in t.states[c]]
    node = tau
    if j == i and kept(tau):
        here = leaf[len(tau)] if len(leaf) > len(tau) else -1
        later = [c for c in kept(tau) if c[-1] > here]
        node = (later or kept(tau))[0]
    while kept(node):
        node = kept(node)[0]
    return naive_priority(acd, j, tau), node


def test_edge_step_matches_the_naive_step():
    for ts, acd in random_acds(random.Random(45), 240):
        for v in ts.vertices:
            for leaf in acd.subtree_for_state(v).branches:
                for e in ts.out(v):
                    assert acd.edge_step(leaf, e) == \
                        naive_edge_step(acd, leaf, e)


TRANSFORM_PRIORITIES = """
import random
from acdkit import acd_stats, acd_transform
from conftest import cell, sampled_cases
wrong, intervals, cells = [], set(), set()
for i, (ts, cond) in enumerate(sampled_cases(
        random.Random(61), 600, "abcd", ("colours", "ids", "ids"),
        max_vertices=5, max_edges=9)):
    res = acd_transform(ts, cond)
    lo, hi = acd_stats(res.acd)["interval"]
    intervals.add((lo, hi))
    cells.add(cell(ts, cond))
    if set(res.condition.priorities.values()) != set(range(lo, hi + 1)):
        wrong.append(i)
print(wrong, sorted(intervals), sorted(cells))
"""


def test_transform_uses_exactly_the_interval_priorities():
    """The paper's priority count: the transform of a random system on
    every cell of the case grid, reachable from its initial vertex or not
    (the lift starts from every copy), uses every priority of `acd_stats`'
    interval and no other, under two hash seeds."""
    first, second = under_hash_seeds(TRANSFORM_PRIORITIES)
    assert first == second
    assert first.startswith("[] ")
    assert "(0, " in first and "(1, " in first
    assert first.endswith(" %s\n" % sorted(grid()))


@pytest.mark.parametrize("n", [1, 2, 5, 50, 150])
@pytest.mark.parametrize("base", [0, 1])
def test_parity_chain_in_closed_form(n, base):
    """parity/N: the ACD is one chain of height n; the transform has one
    vertex, and its priorities pulled back through the edge map are the
    input's, as are parity_relabel's; the interval is (base, base+n-1)."""
    ts, cond = parity_chain(n, base)
    acd = build_acd(ts, cond)
    assert [(t.height, len(t.nodes)) for t in acd.trees] == [(n, n)]
    res = acd_transform(ts, cond)
    assert len(res.system.vertices) == 1
    assert {res.edge_map[eid]: p
            for eid, p in res.condition.priorities.items()} == \
        cond.priorities
    assert parity_relabel(ts, acd).priorities == cond.priorities
    assert classify_acd(acd).parity_acd
    assert acd_stats(acd)["interval"] == (base, base + n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["rabin", "streett"])
def test_nested_pairs_in_closed_form(n, kind):
    """n nested Rabin or Streett pairs over 2n colours read as parity with
    priority i on colour ci (even for Rabin, shifted by one for Streett):
    the Zielonka tree, which is the ACD's one tree, is a chain of 2n
    nodes, one leaf and height 2n, accepting at the root for Rabin only,
    and the one-vertex transform has one copy."""
    ts, cond = nested_pairs(n, kind)
    rabin = kind == "rabin"
    for r in range(1, min(2 * n, 4) + 1):
        for seen in itertools.combinations(range(2 * n), r):
            assert loop_status_over(ts, cond, ["c%d" % i for i in seen]) \
                == (seen[0] % 2 == (0 if rabin else 1)), seen
    tree = _zielonka_tree(cond, ts.colour_set())
    assert (tree.height, len(tree.nodes), len(tree.leaves)) == \
        (2 * n, 2 * n, 1)
    assert tree.even == rabin
    acd = build_acd(ts, cond)
    assert [t.label for t in acd.trees] == [tree.label]
    stats = acd_stats(acd)
    assert (stats["size"], stats["tree_heights"]) == (1, (2 * n,))
    assert (stats["interval"], stats["tag"]) == (
        ((0, 2 * n - 1), "even") if rabin else ((1, 2 * n), "odd"))
    assert classify_acd(acd).parity_acd


def _loop_priorities(system, parity):
    """The distinct priorities on the edges of the reachable SCCs of
    `system`, whose colours `parity` maps."""
    reach = system.reachable_vertices()
    loops, _ = sccs(system, [e.id for e in system.edges
                             if e.source in reach and e.target in reach])
    return {parity.priorities[system.colour(eid)]
            for l in loops for eid in l.edges}


def test_transform_is_no_larger_than_the_zielonka_product():
    """The minimality claim against Zielonka's own construction: the
    product of the Zielonka-tree automaton with the system admits a
    morphism into it, so the transform's reachable part has no more
    vertices and uses no more priorities on reachable loops.  Every vertex
    of the system is reachable: an unreachable loop can set the priority
    of the transient edges to one that no reachable loop uses."""
    rng = random.Random(26)
    checked = smaller = 0
    while checked < 300:
        ts = recoloured(rng, random_system(rng, max_vertices=6,
                                           max_edges=12), "abcd")
        if ts.reachable_vertices() != frozenset(ts.vertices):
            continue
        gamma = ts.colour_set()
        cond = random_condition(rng, "muller", gamma)
        res = acd_transform(ts, cond)
        zt = build_zt_automaton(build_zielonka_tree(cond.family, gamma))
        product = compose(zt.automaton, ts)
        size = len(res.system.reachable_vertices())
        assert size <= len(product.system.vertices)
        smaller += size < len(product.system.vertices)
        assert len(_loop_priorities(res.system, res.condition)) <= \
            len(_loop_priorities(product.system, product.condition))
        checked += 1
    assert smaller


@pytest.mark.parametrize("k", range(2, 7))
def test_even_muller_sizes_in_closed_form(k):
    """even/k: the transform, the Zielonka-tree automaton and the product
    of that automaton with the one-vertex host each have k! vertices,
    k * k! edges and k priorities; the tree's root accepts iff k is even."""
    ts, cond = even_muller(k)
    res = acd_transform(ts, cond)
    zt = build_zt_automaton(build_zielonka_tree(cond.family, ts.colour_set()))
    product = compose(zt.automaton, ts, cond)
    for system, parity in [(res.system, res.condition),
                           (zt.automaton.ts, zt.automaton.condition),
                           (product.system, product.condition)]:
        assert len(system.vertices) == math.factorial(k)
        assert len(system.edges) == k * math.factorial(k)
        assert len({parity.priorities[system.colour(e.id)]
                    for e in system.edges}) == k
    assert zt.interval == ((0, k - 1) if k % 2 == 0 else (1, k))


@pytest.mark.parametrize("k", range(2, 7))
def test_even_muller_tree_shapes_and_words(k):
    """even/k: the Zielonka tree has height k and sum_{i<k} k!/(k-i)!
    nodes; the ACD is that tree; only k = 2 has a shape (Streett, two
    pairs); and the tree automaton accepts a lasso exactly when its cycle
    uses an even number of distinct letters."""
    ts, cond = even_muller(k)
    tree = build_zielonka_tree(cond.family, ts.colour_set())
    assert tree.height == k
    assert len(tree.nodes) == sum(math.factorial(k) // math.factorial(k - i)
                                  for i in range(k))
    acd = build_acd(ts, cond)
    stats = acd_stats(acd)
    assert (stats["tree_heights"], stats["size"]) == ((k,), math.factorial(k))
    streett = k == 2
    report = classify_acd(acd)
    assert (report.rabin_acd, report.streett_acd, report.parity_acd) == (
        False, streett, False)
    assert shape(tree) == {"rabin": False, "streett": streett,
                           "parity": False}
    with pytest.raises(InputError):
        rabin_from_acd(ts, acd)
    if streett:
        assert len(streett_from_acd(ts, acd).pairs) == 2
    else:
        with pytest.raises(InputError):
            streett_from_acd(ts, acd)
    aut = build_zt_automaton(tree).automaton
    words = [w for n in range(3)
             for w in itertools.product(sorted(ts.colour_set()), repeat=n)]
    for u in words:
        for v in words[1:]:
            assert aut.accepts_word(u, v) == (len(set(v)) % 2 == 0)


@pytest.mark.parametrize("unreachable,want", [
    (True, ((1, 2), "odd", (1, 1, 2), 2, 1)),
    (False, ((0, 0), "even", (1, 1), 0, 0)),
])
def test_t0_reading_counts_unreachable_loops(unreachable, want):
    """The reading of ROADMAP item 17, pinned as it stands: the tag, and
    with it tree 0's priority and every even root's, is read over all
    maximal loops, reachable from the initial vertex or not.  From r0 a
    play takes t once and then loops on a; the loops at u0 are
    unreachable, yet their odd tree of height 2 sets the tag to "odd",
    which moves t from priority 0 to 1 and a from 0 to 2.  Whether an
    unreachable part should count is open in that item."""
    vertices = ["r0", "r1"]
    edges = [("t", "r0", "r1"), ("a", "r1", "r1")]
    family = [["a"]]
    if unreachable:
        vertices.append("u0")
        edges += [("b", "u0", "u0"), ("c", "u0", "u0")]
        family.append(["b"])
    ts = TransitionSystem(vertices, edges, ["r0"])
    cond = MullerCondition(family)
    stats = acd_stats(build_acd(ts, cond))
    priorities = acd_transform(ts, cond).condition.priorities
    assert (stats["interval"], stats["tag"], stats["tree_heights"],
            priorities["a|r"], priorities["t|r"]) == want
