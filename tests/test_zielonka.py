import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit import docfmt
from acdkit import (InputError, MullerCondition, TransitionSystem,
                    ZielonkaTree, acd_transform, build_acd,
                    build_zielonka_tree, build_zt_automaton, closure_oracle,
                    enumerate_reachable_loops, min_parity_automaton_size,
                    min_parity_priority_count, nextbranch,
                    optimal_parity_interval, shape, supp,
                    to_explicit_muller)
from acdkit.zielonka import (_branching, _canonical_maximal,
                             _flipped_colour_sets, _maximal_flipped,
                             _minus_one_colour, _zielonka_tree)
from conftest import (CONDITION_KINDS, cell, even_muller, grid, parity_chain,
                      random_condition, random_family, sampled_cases,
                      under_hash_seeds)
import oracles
from oracles import deepest_holding_prefix, simulate_zt_output

F1 = [{"a"}, {"b"}]
G1 = {"a", "b", "c"}
F2 = [set(s) for s in
      ["abcd", "abd", "acd", "bcd", "ab", "ad", "bc", "bd", "a", "b", "d"]]
G2 = set("abcd")


def test_tree_f1():
    t = build_zielonka_tree(F1, G1)
    assert t.nodes == ((), (0,), (1,))
    assert not t.even
    assert t.label[()] == frozenset(G1)
    assert t.label[(0,)] == frozenset({"a"})
    assert t.label[(1,)] == frozenset({"b"})
    assert [t.priority(n) for n in t.nodes] == [1, 2, 2]
    assert t.height == 2


def test_tree_f2():
    t = build_zielonka_tree(F2, G2)
    assert len(t.nodes) == 7
    labels = {n: "".join(sorted(t.label[n])) for n in t.nodes}
    assert labels == {(): "abcd", (0,): "abc", (0, 0): "ab", (0, 1): "bc",
                      (0, 1, 0): "c", (1,): "cd", (1, 0): "d"}
    assert t.even
    assert sorted({t.priority(n) for n in t.nodes}) == [0, 1, 2, 3]


def test_tree_singleton():
    t = build_zielonka_tree([{"a"}], {"a"})
    assert t.nodes == ((),)
    assert t.even
    assert t.priority(()) == 0


def test_tree_rejects_bad_input():
    with pytest.raises(InputError):
        build_zielonka_tree([{"a"}], set())
    with pytest.raises(InputError):
        build_zielonka_tree([{"z"}], {"a"})


def test_supp():
    t2 = build_zielonka_tree(F2, G2)
    assert supp(t2, (0, 0), "c") == (0,)
    assert supp(t2, (0, 0), "a") == (0, 0)
    t1 = build_zielonka_tree(F1, G1)
    assert supp(t1, (0,), "b") == ()


def test_supp_is_the_deepest_holding_prefix():
    """On random trees of all six condition kinds, `supp` of every branch
    and colour is the deepest prefix of the branch whose label holds the
    colour."""
    rng = random.Random(47)
    for i in range(120):
        gamma = frozenset("abcde"[:rng.randint(1, 5)])
        t = _zielonka_tree(
            random_condition(rng, CONDITION_KINDS[i % 6], gamma), gamma)
        for leaf in t.leaves:
            for c in gamma:
                assert supp(t, leaf, c) == deepest_holding_prefix(t, leaf, c)
        with pytest.raises(InputError):
            supp(t, t.leaves[0], "z")


def test_nextbranch():
    t2 = build_zielonka_tree(F2, G2)
    beta = (0, 1, 0)
    assert nextbranch(t2, beta, ()) == (1, 0)
    assert nextbranch(t2, beta, (0,)) == (0, 0)
    assert nextbranch(t2, beta, beta) == beta
    t = build_zielonka_tree([["a"], ["b"], ["a", "b", "c"]], ["a", "b", "c"])
    with pytest.raises(InputError, match=r"^node \(0,\) is not on the "
                                         r"branch \(1, 0\)$"):
        nextbranch(t, (1, 0), (0,))


def test_zt_automaton_f1():
    zt = build_zt_automaton(build_zielonka_tree(F1, G1))
    assert zt.states == ("b0", "b1")
    assert zt.initial == "b0"
    assert zt.interval == (1, 2)
    expected = {("b0", "a"): ("b0", 2), ("b0", "b"): ("b1", 1),
                ("b0", "c"): ("b1", 1), ("b1", "a"): ("b0", 1),
                ("b1", "b"): ("b1", 2), ("b1", "c"): ("b0", 1)}
    for (s, a), want in expected.items():
        assert zt.move(s, a) == want


def test_zt_automaton_f2():
    zt = build_zt_automaton(build_zielonka_tree(F2, G2))
    assert len(zt.states) == 3
    alpha, beta, gamma = "b0.0", "b0.1.0", "b1.0"
    assert zt.move(alpha, "d") == (gamma, 0)
    assert zt.move(beta, "c") == (beta, 3)
    assert zt.move(gamma, "a") == (alpha, 0)


def test_zt_automaton_single_node():
    zt = build_zt_automaton(build_zielonka_tree([{"a"}], {"a"}))
    assert len(zt.states) == 1
    assert zt.move(zt.initial, "a") == (zt.initial, 0)


def test_zt_automaton_refuses_colours_with_one_string_form():
    """1 and "1" would name one edge of the automaton's one-state system:
    the tree refuses the colour that is not a string, so no automaton
    meets the two."""
    with pytest.raises(InputError) as err:
        build_zt_automaton(build_zielonka_tree([{1}], {1, "1"}))
    assert str(err.value) == "colour 1 is not a string"


def test_canonical_maximal_matches_all_pairs_filter():
    """On random families of up to three of five colours, with repeated
    sets and maximal sets of one size, `_canonical_maximal` keeps what the
    all-pairs filter keeps (a set that no other set strictly contains),
    in canonical order."""
    rng = random.Random(25)
    seen = {"repeat": 0, "tie": 0, "dropped": 0}
    for _ in range(500):
        sets = [frozenset(rng.sample("abcde", rng.randint(0, 3)))
                for _ in range(rng.randint(0, 8))]
        unique = set(sets)
        kept = [s for s in unique if not any(s < o for o in unique)]
        want = sorted(kept, key=lambda s: (-len(s), sorted(s)))
        assert _canonical_maximal(iter(sets)) == want
        seen["repeat"] += len(unique) < len(sets)
        seen["tie"] += len({len(s) for s in kept}) < len(kept)
        seen["dropped"] += len(kept) < len(unique)
    assert all(count >= 100 for count in seen.values()), seen


def test_shape():
    assert shape(build_zielonka_tree(F1, G1)) == \
        {"rabin": True, "streett": False, "parity": False}
    # chain tree of a min-even parity condition over colours 1..4
    fam = []
    for sub in itertools.chain.from_iterable(
            itertools.combinations("1234", r) for r in range(1, 5)):
        if int(min(sub)) % 2 == 0:
            fam.append(set(sub))
    t = build_zielonka_tree(fam, set("1234"))
    assert shape(t)["parity"]
    # two accepting leaves below a rejecting root: rabin, not streett
    t = build_zielonka_tree([{"x"}, {"y"}], {"x", "y"})
    assert shape(t) == {"rabin": True, "streett": False, "parity": False}


def test_optimal_parity_interval():
    assert optimal_parity_interval(build_zielonka_tree(F1, G1)) == (1, 2)
    assert optimal_parity_interval(build_zielonka_tree(F2, G2)) == (0, 3)
    assert optimal_parity_interval(
        build_zielonka_tree([{"a"}], {"a"})) == (0, 0)


def test_closure_oracle():
    r = closure_oracle(F1, G1)
    assert not r["union_closed"]
    assert r["intersection_closed"]
    upward = [{"a"}, {"a", "b"}]
    assert closure_oracle(upward, {"a", "b"})["union_closed"]
    assert not closure_oracle(F2, G2)["union_closed"]


def test_shape_matches_closure_on_random_families():
    rng = random.Random(42)
    for _ in range(60):
        gamma = set("abcde"[:rng.randint(1, 5)])
        fam = random_family(rng, gamma)
        t = build_zielonka_tree(fam, gamma)
        s = shape(t)
        c = oracles.closure_oracle(fam, gamma)
        assert s["rabin"] == c["intersection_closed"]
        assert s["streett"] == c["union_closed"]


def test_sibling_incomparability_property():
    rng = random.Random(9)
    for _ in range(60):
        gamma = set("abcd"[:rng.randint(1, 4)])
        t = build_zielonka_tree(random_family(rng, gamma), gamma)
        for node in t.nodes:
            kids = t.children_map[node]
            for c in kids:
                assert t.label[c] < t.label[node]
            for c1, c2 in itertools.combinations(kids, 2):
                assert not t.label[c1] <= t.label[c2]
                assert not t.label[c2] <= t.label[c1]
        zt = build_zt_automaton(t)
        assert len(zt.states) == len(t.leaves)
        assert zt.interval == optimal_parity_interval(t)


def zt_loop_criterion_holds(zt):
    """Every reachable loop of the branch automaton: minimum output
    priority even iff the letter set lies in the family."""
    ts = zt.automaton.ts
    fam = zt.tree.family
    for l in enumerate_reachable_loops(ts, cap=30):
        letters = frozenset(ts.letter(eid) for eid in l.edges)
        prio = min(zt.automaton.condition.priorities[ts.colour(eid)]
                   for eid in l.edges)
        if (prio % 2 == 0) != (letters in fam):
            return False
    return True


def test_zt_loop_criterion_small_families():
    rng = random.Random(5)
    for _ in range(30):
        gamma = set("abc"[:rng.randint(1, 3)])
        fam = random_family(rng, gamma)
        zt = build_zt_automaton(build_zielonka_tree(fam, gamma))
        assert zt_loop_criterion_holds(zt)


def test_zt_word_simulation():
    rng = random.Random(6)
    for _ in range(25):
        gamma = sorted(set("abc"[:rng.randint(1, 3)]))
        fam = random_family(rng, gamma)
        famset = frozenset(frozenset(s) for s in fam)
        zt = build_zt_automaton(build_zielonka_tree(fam, set(gamma)))
        for _ in range(12):
            prefix = [rng.choice(gamma) for _ in range(rng.randint(0, 4))]
            cycle = [rng.choice(gamma) for _ in range(rng.randint(1, 4))]
            prio, letters = simulate_zt_output(zt, prefix, cycle)
            assert (prio % 2 == 0) == (letters in famset)


def test_min_parity_automaton_size():
    assert min_parity_automaton_size(F1, G1, n_max=2) == 2
    assert min_parity_automaton_size([{"a"}], {"a"}, n_max=1) == 1
    assert min_parity_automaton_size([{"a"}, {"b"}, {"a", "b"}],
                                     {"a", "b"}, n_max=1) == 1


def test_min_parity_size_is_the_leaf_count():
    # the size half of the minimality claim: no deterministic parity
    # automaton is smaller than the tree's branch automaton
    for fam_tuple in itertools.chain.from_iterable(
            itertools.combinations([("a",), ("b",), ("a", "b")], r)
            for r in range(0, 4)):
        fam = [set(s) for s in fam_tuple]
        leaves = build_zielonka_tree(fam, {"a", "b"}).leaves
        assert oracles.min_parity_automaton_size(fam, {"a", "b"}, n_max=2) \
            == len(leaves), fam
    three = [{"a"}, {"b"}, {"c"}]
    assert len(build_zielonka_tree(three, set("abc")).leaves) == 3
    assert oracles.min_parity_automaton_size(three, set("abc"), n_max=2) \
        is None


def test_min_parity_answers_hold_at_every_size():
    """Past the searches' reach of 3 states, 3 colours and 4 priority
    values, the tree still answers: even/k needs k! states, the count
    Löding proves optimal (FSTTCS 1999), and k priority values
    alternating from the root's parity, which range(k + 1) holds and
    range(k - 1) does not."""
    for k in range(4, 8):
        ts, cond = even_muller(k)
        gamma, n = ts.colour_set(), math.factorial(k)
        assert min_parity_automaton_size(cond.family, gamma, n,
                                         range(k + 1)) == n
        assert min_parity_automaton_size(cond.family, gamma, n - 1,
                                         range(k + 1)) is None
        assert min_parity_automaton_size(cond.family, gamma, n,
                                         range(k - 1)) is None


def test_min_priority_count_of_a_parity_chain_over_six_colours():
    """The Muller family of a parity chain over 6 colours: a one-branch
    tree of height 6, so 6 priorities and one state, which the default
    values 0 to 3 cannot give."""
    ts, cond = parity_chain(6, 0)
    family, gamma = to_explicit_muller(ts, cond).family, ts.colour_set()
    assert len(gamma) == 6
    assert min_parity_priority_count(family, gamma) == 6
    assert min_parity_automaton_size(family, gamma, 1, range(6)) == 1
    assert min_parity_automaton_size(family, gamma, 1) is None


def test_min_priority_count_two_colours():
    for fam_tuple in itertools.chain.from_iterable(
            itertools.combinations([("a",), ("b",), ("a", "b")], r)
            for r in range(0, 4)):
        fam = [set(s) for s in fam_tuple]
        t = build_zielonka_tree(fam, {"a", "b"})
        lo, hi = optimal_parity_interval(t)
        assert oracles.min_parity_priority_count(fam, {"a", "b"}) \
            == hi - lo + 1


def _all_families(gamma):
    """Every Muller family over the colour set `gamma`, as lists of sets."""
    subsets = [set(s) for r in range(1, len(gamma) + 1)
               for s in itertools.combinations(sorted(gamma), r)]
    return [[subsets[i] for i in range(len(subsets)) if mask >> i & 1]
            for mask in range(1 << len(subsets))]


def test_min_parity_closed_forms_match_the_searches_over_two_colours():
    # every family over two colours, every set of at most 4 priority values
    # within range(6), gaps included, and automata of at most 1 and 2 states
    gamma = {"a", "b"}
    for fam in _all_families(gamma):
        assert min_parity_priority_count(fam, gamma) \
            == oracles.min_parity_priority_count(fam, gamma), fam
        for r in range(1, 5):
            for values in itertools.combinations(range(6), r):
                for n_max in (1, 2):
                    case = (fam, gamma, n_max, values)
                    assert min_parity_automaton_size(*case) \
                        == oracles.min_parity_automaton_size(*case), case


@pytest.mark.parametrize("fam", [
    [{"a"}, {"b"}],                                           # two leaves
    [{"a"}, {"b"}, {"c"}],                                    # three leaves
    [{"a"}, {"a", "b"}, {"a", "c"}, {"a", "b", "c"}],        # Büchi on a
    [{"a"}, {"a", "b"}, {"a", "c"}, {"a", "b", "c"}, {"c"}],  # parity 0 1 2
])
def test_min_parity_closed_forms_match_the_searches_over_three_colours(fam):
    gamma = {"a", "b", "c"}
    assert min_parity_automaton_size(fam, gamma, 2) \
        == oracles.min_parity_automaton_size(fam, gamma, 2)


def test_colours_of_any_type_are_ordered_and_written():
    """A colour must be a string, in the colour set and the family of a
    Zielonka tree and in every condition: numbers are refused where they
    are given, as is a colour set given as a string.  Strings keep their
    own order and are written as they are."""
    for build, message in [
            (lambda: build_zielonka_tree([[1, 2]], {1}),
             "colour 1 is not a string"),
            (lambda: build_zielonka_tree([[10]], ["2", "10"]),
             "colour 10 is not a string"),
            (lambda: build_zielonka_tree([["a"]], "ab"),
             "colour set 'ab' is not a collection of strings"),
            (lambda: MullerCondition([[1, "a"]]),
             "colour 1 is not a string")]:
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message
    tree = build_zielonka_tree([["2"], ["10"]], {"2", "10"})
    assert tree.label == {(): {"2", "10"}, (0,): {"10"}, (1,): {"2"}}
    assert docfmt.tree_to_obj(tree)["nodes"][0]["label"] == ["10", "2"]


def test_colours_that_compare_only_in_part_are_ordered_by_repr():
    """Frozensets compare only by inclusion and have no string form of
    their own: as colours of a tree or a condition they are refused where
    they are given, naming the first in the order given."""
    cs = [frozenset({c}) for c in "abcdefg"]
    for build in (lambda: build_zielonka_tree([cs[:3], cs], cs),
                  lambda: MullerCondition([cs[:3]])):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == "colour frozenset({'a'}) is not a string"


def test_two_colours_written_alike_are_refused():
    """1 and "1" would both be written "1" and read back as one colour:
    the system, the condition and the tree refuse the colour 1 where it
    is given, before a writer could meet it."""
    for build in (lambda: TransitionSystem(["p"], [("x", "p", "p"),
                                                   ("y", "p", "p")], ["p"],
                                           colours={"x": 1, "y": "1"}),
                  lambda: MullerCondition([[1], ["1"]]),
                  lambda: build_zielonka_tree([["1"]], ["1", 1])):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == "colour 1 is not a string"


FAMILY_OUTSIDE_GAMMA = """
from acdkit import InputError, build_zielonka_tree
try:
    build_zielonka_tree([{"e"}, {"d"}, {"f", "g"}, {"a", "h"}], {"a"})
except InputError as e:
    print(e)
"""


def test_family_outside_the_colour_set_names_the_least_set():
    assert under_hash_seeds(FAMILY_OUTSIDE_GAMMA, ("0", "1", "2", "3")) == \
        ["family set {a,h} not within the colour set\n"] * 4


def test_closed_forms_refuse_malformed_families():
    # an exhaustive search never meets a family set outside gamma, so it
    # answers as if the set were absent; the tree refuses all three inputs
    for family, gamma, message in [
            ([{"d"}], {"a"}, "family set {d} not within the colour set"),
            ([set()], {"a"}, "empty set in Muller family"),
            ([{"a"}], set(), "colour set must be nonempty"),
            ([{"a"}], "ab", "colour set 'ab' is not a collection of strings")]:
        for answer in (lambda: min_parity_automaton_size(family, gamma, 1),
                       lambda: min_parity_priority_count(family, gamma),
                       lambda: closure_oracle(family, gamma)):
            with pytest.raises(InputError) as err:
                answer()
            assert str(err.value) == message
    # the colour set is refused before n_max, and n_max before the family
    with pytest.raises(InputError, match="^colour set 'ab' "):
        min_parity_automaton_size([{"d"}], "ab", None)
    with pytest.raises(InputError, match="^n_max None "):
        min_parity_automaton_size([{"d"}], {"a"}, None)


def test_closure_closed_form_matches_the_search():
    # every family over one, two and three colours: 2, 8 and 128 of them
    for gamma in ({"a"}, {"a", "b"}, {"a", "b", "c"}):
        for fam in _all_families(gamma):
            assert closure_oracle(fam, gamma) \
                == oracles.closure_oracle(fam, gamma), fam


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONDITION_KINDS), st.integers(1, 6),
       st.randoms(use_true_random=False), st.data())
def test_direct_children_read_matches_search(kind, n, rng, data):
    # each kind's direct read of a colour set's Zielonka-tree children
    # equals the one-colour-removal search over the status function
    gamma = "abcdef"[:n]
    cond = random_condition(rng, kind, gamma)
    colours = frozenset(data.draw(st.sets(st.sampled_from(gamma),
                                          min_size=1)))
    assert _flipped_colour_sets(cond, colours) == _maximal_flipped(
        colours, cond.accepts(colours), _minus_one_colour, cond.accepts)


def test_one_vertex_decomposition_is_the_zielonka_tree():
    # one self-loop per colour: the decomposition of the system, the
    # Zielonka tree read directly from the condition and the one grown by
    # one-colour removal have the same labels, and the tree's automaton is
    # the system's transform up to names: state bX is copy p|r.X, and the
    # edge bX/c is the edge c|r.X, with the same target and priority
    rng = random.Random(23)
    for kind in CONDITION_KINDS:
        for _ in range(15):
            gamma = frozenset("abcde"[:rng.randint(1, 5)])
            cond = random_condition(rng, kind, gamma)
            ts = TransitionSystem(["p"], [(c, "p", "p") for c in gamma],
                                  ["p"])
            zt = ZielonkaTree(gamma, cond.accepts(gamma), lambda s: (
                _maximal_flipped(s, cond.accepts(s), _minus_one_colour,
                                 cond.accepts)))
            assert [t.label for t in build_acd(ts, cond).trees] == \
                [zt.label]
            tree = _zielonka_tree(cond, gamma)
            assert tree.label == zt.label
            aut = build_zt_automaton(tree).automaton
            res = acd_transform(ts, cond)
            copy = {"b" + ".".join(map(str, leaf)):
                    "p|r" + "".join(".%d" % i for i in leaf)
                    for leaf in tree.leaves}

            def edge(eid):
                state, c = eid.split("/")
                return c + copy[state][1:]
            assert {copy[q] for q in aut.ts.vertices} == \
                set(res.system.vertices)
            assert tuple(map(copy.get, aut.ts.initial)) == res.system.initial
            assert {(edge(e.id), copy[e.source], copy[e.target])
                    for e in aut.ts.edges} == \
                {(e.id, e.source, e.target) for e in res.system.edges}
            assert {edge(eid): p for eid, p
                    in aut.condition.priorities.items()} == \
                res.condition.priorities


def _assert_preorder(tree):
    """`nodes` is `children_map`'s own order, which is the sorted order of
    the node tuples, and `_branching` lists its nodes in that order."""
    assert tree.nodes == tuple(sorted(tree.children_map)) == \
        tuple(tree.children_map)
    assert _branching(tree)[0] == tuple(
        n for n in tree.nodes if len(tree.children_map[n]) > 1)


def test_nodes_are_listed_in_preorder_without_a_sort():
    """Zielonka trees of random conditions of every kind, the trees of
    decompositions of random systems on every cell of the case grid (a
    third recoloured from four colours) and each of their restrictions to
    one vertex: one node order, read straight off the tree's build."""
    rng = random.Random(34)
    branching = 0
    for i in range(120):
        gamma = frozenset("abcdef"[:rng.randint(1, 6)])
        tree = _zielonka_tree(
            random_condition(rng, CONDITION_KINDS[i % 6], gamma), gamma)
        _assert_preorder(tree)
        branching += bool(_branching(tree)[0])
    drawn = set()
    for ts, cond in sampled_cases(rng, 90, "abcd", ("ids", "ids", "colours")):
        drawn.add(cell(ts, cond))
        acd = build_acd(ts, cond)
        for t in (acd.tree(0),) + acd.trees:
            _assert_preorder(t)
        for v in ts.vertices:
            sub = acd.subtree_for_state(v)
            _assert_preorder(sub)
            whole = acd.tree(sub.tree_index)
            assert sub.nodes == tuple(n for n in whole.nodes
                                      if n in sub.children_map)
            branching += bool(_branching(sub)[0])
    assert drawn == grid()
    assert branching > 20  # the order of `_branching` is put to the test
