"""End-to-end acceptance gate: one test per criterion, each printing a
single pass/fail line with its timing."""

import json
import random
import time
from itertools import chain, combinations

from acdkit import (CapExceeded, Game, InputError, MullerCondition,
                    TransitionSystem, acd_transform, build_acd,
                    build_zielonka_tree, build_zt_automaton,
                    check_local, check_structural, classify_acd, cli,
                    compose, induced_morphism,
                    loop_status_over, optimal_parity_interval,
                    parity_relabel, rabin_from_acd, solve_muller_game,
                    streett_from_acd)
from acdkit.loops import enumerate_reachable_loops
from conftest import FIXTURES, random_family, random_sparse_muller_system
from oracles import (brute_force_parity_regions, every_vertex_loops,
                     loop_equivalent, loop_preserving, loop_union_flags,
                     min_parity_automaton_size, min_parity_priority_count,
                     parity_criterion_violation)

F1 = [{"a"}, {"b"}]
G1 = {"a", "b", "c"}
F2 = [set(s) for s in
      ["abcd", "abd", "acd", "bcd", "ab", "ad", "bc", "bd", "a", "b", "d"]]
G2 = set("abcd")


def timed(fn, repeats=5):
    """(best wall time in seconds, last result)."""
    best = None
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def report(n, ok, elapsed):
    print("criterion %02d: %s (%.3f s)" % (n, "PASS" if ok else "FAIL",
                                           elapsed))
    assert ok


def test_criterion_01_small_tree_and_automaton():
    def build():
        t = build_zielonka_tree(F1, G1)
        return t, build_zt_automaton(t)
    dt, (t, zt) = timed(build)
    ok = (t.nodes == ((), (0,), (1,))
          and not t.even
          and [t.priority(n) for n in t.nodes] == [1, 2, 2]
          and zt.states == ("b0", "b1"))
    moves = {("b0", "a"): ("b0", 2), ("b0", "b"): ("b1", 1),
             ("b0", "c"): ("b1", 1), ("b1", "a"): ("b0", 1),
             ("b1", "b"): ("b1", 2), ("b1", "c"): ("b0", 1)}
    for (s, a), want in moves.items():
        ok = ok and zt.move(s, a) == want
    report(1, ok and dt < 0.001, dt)


def test_criterion_02_four_colour_tree_and_automaton():
    def build():
        t = build_zielonka_tree(F2, G2)
        return t, build_zt_automaton(t)
    dt, (t, zt) = timed(build)
    ok = (len(t.nodes) == 7
          and sorted({t.priority(n) for n in t.nodes}) == [0, 1, 2, 3]
          and len(zt.states) == 3
          and zt.move("b0.0", "d") == ("b1.0", 0)
          and zt.move("b0.1.0", "c") == ("b0.1.0", 3))
    report(2, ok and dt < 0.001, dt)


def test_criterion_03_cycle_decomposition(sixstate):
    ts, cond = sixstate
    dt, acd = timed(lambda: build_acd(ts, cond))
    t1, t2 = acd.trees
    ok = (acd.t0_edges == frozenset({"a", "b", "f"})
          and t1.label[()] == frozenset("cde")
          and t2.label[()] == frozenset("ghijkl")
          and sorted(frozenset(t1.label[c]) for c in t1.children_map[()])
          == [frozenset("cd")]
          and sorted(len(t2.label[c]) for c in t2.children_map[()])
          == [1, 3, 4]
          and acd.tag == "odd"
          and {acd.priority(1, n) for n in t1.nodes} == {2, 3}
          and {acd.priority(2, n) for n in t2.nodes} == {1, 2, 3}
          and acd.priority(0, ()) == 1)
    report(3, ok and dt < 0.010, dt)


def test_criterion_04_parity_transformation(sixstate):
    ts, cond = sixstate
    dt, res = timed(lambda: acd_transform(ts, cond))
    counts = tuple(len(res.copies[q]) for q in ts.vertices)
    m = induced_morphism(res, ts, cond)
    ok = (len(res.system.vertices) == 10
          and counts == (1, 1, 1, 3, 2, 2)
          and set(res.condition.priorities.values()) <= {1, 2, 3}
          and check_structural(m)[0]
          and check_local(m)["bijective"]
          and loop_preserving(m))
    report(4, ok and dt < 0.010, dt)


def test_criterion_05_transform_beats_composition():
    ts = TransitionSystem(
        ["A", "B"],
        [("a", "A", "A"), ("b1", "A", "B"), ("b2", "B", "A"), ("c", "B", "B")],
        ["A"],
        letters={"a": "0", "b1": "1", "b2": "1", "c": "0"},
        colours={"b1": "b", "b2": "b"})
    cond = MullerCondition([{"a"}, {"b"}])

    def build():
        res = acd_transform(ts, cond)
        zt = build_zt_automaton(build_zielonka_tree(F1, ts.colour_set()))
        product = compose(zt.automaton, ts, cond)
        return res, product
    dt, (res, product) = timed(build)
    ok = (len(res.system.vertices) == 3
          and len(product.system.vertices) == 4
          and loop_preserving(induced_morphism(res, ts, cond))
          and loop_preserving(product.projection))
    report(5, ok and dt < 0.010, dt)


def test_criterion_06_loop_criterion_suite():
    t0 = time.perf_counter()
    rng = random.Random(601)
    failures = 0
    for _ in range(200):
        gamma = sorted(set("abcd"[:rng.randint(1, 4)]))
        fam = random_family(rng, gamma)
        famset = frozenset(frozenset(s) for s in fam)
        zt = build_zt_automaton(build_zielonka_tree(fam, set(gamma)))
        aut = zt.automaton.ts
        reach = aut.reachable_vertices()
        edges = [e for e in aut.edges
                 if e.source in reach and e.target in reach]
        prios = zt.automaton.condition.priorities
        sets = [frozenset(s) for s in chain.from_iterable(
            combinations(gamma, r) for r in range(1, len(gamma) + 1))]
        if parity_criterion_violation(edges, aut.letter,
                                      lambda eid: prios[eid], sets,
                                      lambda X: X in famset) is not None:
            failures += 1
        # cross-validate by direct loop enumeration when feasible
        try:
            for l in enumerate_reachable_loops(aut, cap=14):
                letters = frozenset(aut.letter(eid) for eid in l.edges)
                p = min(prios[eid] for eid in l.edges)
                if (p % 2 == 0) != (letters in famset):
                    failures += 1
        except CapExceeded:
            pass
    rng = random.Random(602)
    for _ in range(100):
        ts, cond = random_sparse_muller_system(rng, max_vertices=6,
                                               max_edges=10)
        res = acd_transform(ts, cond)
        loops = enumerate_reachable_loops(ts, cap=12)
        reach = res.system.reachable_vertices()
        edges = [e for e in res.system.edges
                 if e.source in reach and e.target in reach]
        prios = res.condition.priorities
        if parity_criterion_violation(
                edges, lambda eid: res.edge_map[eid],
                lambda eid: prios[eid], [l.edges for l in loops],
                lambda X: loop_status_over(ts, cond, X)) is not None:
            failures += 1
    dt = time.perf_counter() - t0
    report(6, failures == 0 and dt < 60, dt)


def test_criterion_07_minimality_at_desk_scale():
    t0 = time.perf_counter()
    ok = min_parity_automaton_size(F1, G1, n_max=2) == 2
    for fams in chain.from_iterable(
            combinations([("a",), ("b",), ("a", "b")], r)
            for r in range(0, 4)):
        fam = [set(s) for s in fams]
        lo, hi = optimal_parity_interval(
            build_zielonka_tree(fam, {"a", "b"}))
        got = min_parity_priority_count(fam, {"a", "b"})
        ok = ok and got == hi - lo + 1
    dt = time.perf_counter() - t0
    report(7, ok and dt < 120, dt)


def _embeds(interval, target):
    lo, hi = interval
    tlo, thi = target
    lo2 = tlo if lo % 2 == tlo % 2 else tlo + 1
    return hi - lo + lo2 <= thi


def test_criterion_08_relabelling_characterizations():
    t0 = time.perf_counter()
    rng = random.Random(801)
    n = 0
    failures = 0
    while n < 200:
        ts, cond = random_sparse_muller_system(rng, max_vertices=5,
                                               max_edges=8)
        try:
            acd = build_acd(ts, cond)
            loops = every_vertex_loops(ts, cap=10)
        except (InputError, CapExceeded):
            continue
        report_ = classify_acd(acd)
        # two loops sharing a state make one loop, so a stray is a failure
        rabin, streett, strays = loop_union_flags(ts, cond, loops)
        failures += strays
        if report_.rabin_acd != rabin or report_.streett_acd != streett:
            failures += 1
        rc = sc = None
        if report_.rabin_acd:
            rc = rabin_from_acd(ts, acd)
            if not loop_equivalent(ts, cond, rc):
                failures += 1
        if report_.streett_acd:
            sc = streett_from_acd(ts, acd)
            if not loop_equivalent(ts, cond, sc):
                failures += 1
        if report_.parity_acd:
            pc = parity_relabel(ts, acd)
            if not loop_equivalent(ts, cond, pc):
                failures += 1
            r, s = len(rc.pairs), len(sc.pairs)
            iv = report_.interval
            if r <= s and not _embeds(iv, (1, 2 * r + 1)):
                failures += 1
            if s <= r and not _embeds(iv, (0, 2 * s)):
                failures += 1
        n += 1
    dt = time.perf_counter() - t0
    report(8, failures == 0 and dt < 60, dt)


def test_criterion_09_game_preservation():
    t0 = time.perf_counter()
    rng = random.Random(901)
    n = 0
    failures = 0
    while n < 50:
        ts, cond = random_sparse_muller_system(
            rng, max_vertices=5, max_edges=7, max_sets=4, with_owners=True)
        sol = solve_muller_game(Game(ts, cond))
        tsys = sol.transform.system
        space = 1
        for v in tsys.vertices:
            if tsys.owners[v] == "Eve":
                space *= len(tsys.out(v))
        if space > 20000:
            continue
        prios = sol.transform.condition.priorities
        want = brute_force_parity_regions(tsys, tsys.owners,
                                          lambda e: prios[e.id])
        if sol.parity_solution.regions != want:
            failures += 1
        for q, copies in sol.transform.copies.items():
            if any(want[c] != sol.regions[q] for c in copies):
                failures += 1
        n += 1
    dt = time.perf_counter() - t0
    report(9, failures == 0 and dt < 120, dt)


def test_criterion_10_cli_determinism(tmp_path):
    def fx(name):
        return str(FIXTURES / name)

    invocations = [
        ["zielonka", fx("f1.json")],
        ["zielonka", fx("f2.json")],
        ["zt-automaton", fx("f1.json")],
        ["zt-automaton", fx("f2.json")],
        ["acd", fx("sixstate.json")],
        ["transform", fx("sixstate.json")],
        ["transform", fx("automatonA.json")],
        ["stats", fx("sixstate.json")],
        ["shape", fx("sixstate.json")],
        ["relabel", fx("automatonA.json"), "--target", "rabin"],
        ["compress", fx("paritygame.json")],
        ["compose", fx("automatonA.json"), fx("host01.json")],
        ["solve", fx("paritygame.json")],
        ["solve", fx("mullergame.json")],
        ["oracle-equiv", fx("f1.json"), fx("f1.json")],
    ]
    t0 = time.perf_counter()
    ok = True
    out = tmp_path / "out.json"
    for argv in invocations:
        runs = []
        for _ in range(2):
            code = cli.main(argv + ["-o", str(out)])
            ok = ok and code == 0
            runs.append(out.read_bytes())
            json.loads(runs[-1])
        ok = ok and runs[0] == runs[1]
    # the morphism block of a transform must verify against its input
    code = cli.main(["transform", fx("sixstate.json"), "-o", str(out)])
    ok = ok and code == 0
    rep = tmp_path / "report.json"
    code = cli.main(["check-morphism", str(out), "--against",
                     fx("sixstate.json"), "-o", str(rep)])
    ok = ok and code == 0
    ok = ok and json.loads(rep.read_bytes())["local"]["bijective"]
    dt = time.perf_counter() - t0
    report(10, ok, dt)
