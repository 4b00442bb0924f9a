"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: powerset enumeration, matrix-style
reachability, positional strategy enumeration, loop-by-loop status
comparison, the parity solver's earlier set-based frame walk as the
reference for its tie-breaks, and the exhaustive searches that
`min_parity_automaton_size`, `min_parity_priority_count` and
`closure_oracle` once ran in `acdkit`: every small deterministic parity
automaton, and every pair of colour sets.  They are the reference for the
closed forms that `acdkit` now reads off the Zielonka tree.  Nothing
imports the algorithms under test beyond the plain data types, the loop
status, the loop enumeration (itself checked against `naive_loops`) and
the one reading of a condition's keys.
"""

import itertools

from acdkit import (InputError, TransitionSystem, enumerate_reachable_loops,
                    loop_status_over)
from acdkit.core import _reading
from acdkit.games import ParitySolution


def naive_is_strongly_connected(edges):
    """edges: list of (source, target).  All touched vertices mutually
    reachable, via repeated relaxation."""
    verts = set()
    for s, t in edges:
        verts.add(s)
        verts.add(t)
    reach = {v: {v} for v in verts}
    changed = True
    while changed:
        changed = False
        for s, t in edges:
            for v in verts:
                if s in reach[v] and t not in reach[v]:
                    reach[v].add(t)
                    changed = True
    return all(reach[v] == verts for v in verts)


def naive_loops(ts):
    """All loops of reachable edge subsets, by powerset enumeration."""
    reach = set(ts.initial)
    frontier = list(reach)
    while frontier:
        v = frontier.pop()
        for e in ts.out(v):
            if e.target not in reach:
                reach.add(e.target)
                frontier.append(e.target)
    eids = sorted(e.id for e in ts.edges
                  if e.source in reach and e.target in reach)
    out = []
    for r in range(1, len(eids) + 1):
        for sub in itertools.combinations(eids, r):
            pairs = [(ts.edge(x).source, ts.edge(x).target) for x in sub]
            if naive_is_strongly_connected(pairs):
                out.append(frozenset(sub))
    return out


def naive_maximal_flipped(ts, status_fn, loop_edges):
    """Maximal subloops of the given loop whose status differs, found by
    powerset enumeration."""
    base = status_fn(loop_edges)
    subs = []
    eids = sorted(loop_edges)
    for r in range(1, len(eids)):
        for sub in itertools.combinations(eids, r):
            pairs = [(ts.edge(x).source, ts.edge(x).target) for x in sub]
            if naive_is_strongly_connected(pairs) and \
                    status_fn(frozenset(sub)) != base:
                subs.append(frozenset(sub))
    return [s for s in subs if not any(s < o for o in subs)]


def loop_equivalent(ts, cond1, cond2, cap=None):
    """Every reachable loop has the same status under both conditions,
    loop by loop."""
    return all(loop_status_over(ts, cond1, l.edges)
               == loop_status_over(ts, cond2, l.edges)
               for l in enumerate_reachable_loops(ts, cap=cap))


def loop_preserving(m, cap=None):
    """Every reachable loop of the morphism's source keeps its status when
    its edges are pushed through the edge map, loop by loop."""
    return all(loop_status_over(m.source_ts, m.source_cond, l.edges)
               == loop_status_over(m.target_ts, m.target_cond,
                                   {m.edge_map[e] for e in l.edges})
               for l in enumerate_reachable_loops(m.source_ts, cap=cap))


def every_vertex_loops(ts, cap):
    """The loops of `ts` with every vertex initial, the unreachable ones
    included; CapExceeded past `cap` loops."""
    every = TransitionSystem(
        ts.vertices, [(e.id, e.source, e.target) for e in ts.edges],
        ts.vertices)
    return enumerate_reachable_loops(every, cap=cap)


def loop_union_flags(ts, cond, loops):
    """(rabin, streett, strays), read pair by pair over `loops`: `rabin`
    holds when no two rejecting loops sharing a state have an accepting
    union, and `streett` when no two accepting ones have a rejecting
    union.  A union not among `loops` is a stray: counted, and read for
    neither flag."""
    status = {l.edges: loop_status_over(ts, cond, l.edges) for l in loops}
    rabin = streett = True
    strays = 0
    for l1 in loops:
        for l2 in loops:
            if not l1.states & l2.states:
                continue
            both = l1.edges | l2.edges
            if both not in status:
                strays += 1
                continue
            s1, s2, s = status[l1.edges], status[l2.edges], status[both]
            if not s1 and not s2 and s:
                rabin = False
            if s1 and s2 and not s:
                streett = False
    return rabin, streett, strays


def simulate_zt_output(zt, prefix, cycle):
    """Minimum output priority seen infinitely often when the branch
    automaton reads prefix cycle^w, plus the letter set actually repeated
    forever."""
    state = zt.initial
    for a in prefix:
        state, _ = zt.move(state, a)
    seen = {}
    trace = []
    while state not in seen:
        seen[state] = len(trace)
        for a in cycle:
            nxt, p = zt.move(state, a)
            trace.append((a, p))
            state = nxt
    looped = trace[seen[state]:]
    return (min(p for _, p in looped),
            frozenset(a for a, _ in looped))


def brute_force_parity_regions(ts, owners, prio_of_edge):
    """Winner of every vertex, by enumerating Eve's positional strategies.

    Eve wins from v iff some positional strategy leaves no reachable cycle
    with an odd minimum priority.
    """
    eve_vs = sorted(v for v in ts.vertices if owners[v] == "Eve")
    winners = {v: "Adam" for v in ts.vertices}
    menus = [ts.out(v) for v in eve_vs]
    for choice in itertools.product(*menus) if menus else [()]:
        strat = dict(zip(eve_vs, choice))
        allowed = []
        for v in ts.vertices:
            if owners[v] == "Eve":
                allowed.append(strat[v])
            else:
                allowed.extend(ts.out(v))
        bad_vertices = set()
        prios = sorted({prio_of_edge(e) for e in allowed})
        for d in prios:
            if d % 2 == 0:
                continue
            keep = [e for e in allowed if prio_of_edge(e) >= d]
            for e in keep:
                if e.source == e.target and prio_of_edge(e) == d:
                    bad_vertices.add(e.source)
            # vertices on a cycle whose minimum is exactly d
            for e in keep:
                if prio_of_edge(e) != d:
                    continue
                # e closes a bad cycle iff target reaches source in keep
                reach = {e.target}
                st = [e.target]
                while st:
                    x = st.pop()
                    for f in keep:
                        if f.source == x and f.target not in reach:
                            reach.add(f.target)
                            st.append(f.target)
                if e.source in reach:
                    bad_vertices.add(e.source)
                    bad_vertices.add(e.target)
        # Eve loses exactly where a bad cycle is reachable
        losing = set(bad_vertices)
        changed = True
        while changed:
            changed = False
            for e in allowed:
                if e.target in losing and e.source not in losing:
                    losing.add(e.source)
                    changed = True
        for v in ts.vertices:
            if v not in losing:
                winners[v] = "Eve"
    return winners


def set_based_parity_solution(game):
    """Zielonka's attractor decomposition on the system's vertices, with
    priorities on the edges and the tie-breaks of `solve_parity_game`, but
    with each subgame a floor and a frozenset of vertices, copied at every
    level, and plain recursion.  Like the solver's board, it leaves out
    each self-loop whose priority its owner loses by while the vertex has
    another out-edge (`dropped`), and like the solver it first gives each
    player its attractor to the self-loops that it wins by at its own
    vertices (`settled`), Eve's and then Adam's on the rest, each seed's
    move its first such loop.  A subgame's edges are the others
    between its vertices whose priority is at least its floor.  A
    subgame's target is its edges whose priority lies in the least run of
    one parity among the priorities present, by edge index; the first
    child's floor is the least present priority of the other parity.
    Returns the ParitySolution, each strategy listing its vertices in
    the system's order, whose regions and strategies, dict order
    included, the solver must reproduce, the number of frames that
    reached the second recursive call, and the number of vertex sets that
    the memo of the second call meets under two floors."""
    ts = game.ts
    edges = sorted(ts.edges, key=lambda e: e.id)
    vertices = sorted(ts.vertices)
    vnode = {v: i for i, v in enumerate(vertices)}
    key, _ = _reading(ts, game.condition)
    prio = [game.condition.priorities[key(e.id)] for e in edges]
    src = [vnode[e.source] for e in edges]
    tgt = [vnode[e.target] for e in edges]
    owner = [ts.owners[v] for v in vertices]
    succ = [[] for _ in vertices]
    preds = [[] for _ in vertices]
    for i in range(len(edges)):
        succ[src[i]].append(i)
        preds[tgt[i]].append(i)
    # the solver's board leaves out, in edge order, each self-loop whose
    # priority its owner loses by while its vertex keeps another out-edge
    dropped = set()
    moves = [len(out) for out in succ]
    for i in range(len(edges)):
        s = src[i]
        if (s == tgt[i] and (prio[i] % 2 == 0) != (owner[s] == "Eve")
                and moves[s] > 1):
            dropped.add(i)
            moves[s] -= 1
    memo = {}
    floors = {}   # second-call vertex set -> the floors it met
    second_calls = [0]

    def attract(player, base, seeds, in_game):
        """`player`'s attractor to the vertices `base` and the sources of
        the edges `seeds`: the seeds first, in order, then the in-edges of
        the attracted vertices, last attracted first.  An opponent's edge
        counts once, as a seed or as a way into the region."""
        region = set(base)
        strat = {}
        pending = sorted(base)
        degree = {}
        counted = set()

        def reach(e):
            p = src[e]
            if p in region or not in_game(e) or e in counted:
                return
            if owner[p] == player:
                region.add(p)
                strat[p] = e
                pending.append(p)
                return
            counted.add(e)
            if p not in degree:
                degree[p] = sum(1 for f in succ[p] if in_game(f))
            degree[p] -= 1
            if degree[p] == 0:
                region.add(p)
                pending.append(p)

        for e in seeds:
            reach(e)
        while pending:
            for e in preds[pending.pop()]:
                reach(e)
        return region, strat

    def fresh(solution):
        regions, strats = solution
        return regions, {p: dict(s) for p, s in strats.items()}

    def solve(floor, nodes):
        if not nodes:
            return {"Eve": set(), "Adam": set()}, {"Eve": {}, "Adam": {}}

        def in_game(e):
            return (src[e] in nodes and tgt[e] in nodes and prio[e] >= floor
                    and e not in dropped)

        inner = [e for e in range(len(edges)) if in_game(e)]
        present = sorted({prio[e] for e in inner})
        least = present[0]
        other = [d for d in present if d % 2 != least % 2]
        above = other[0] if other else present[-1] + 1
        target = [e for e in inner if prio[e] < above]
        player = "Eve" if least % 2 == 0 else "Adam"
        opp = "Adam" if player == "Eve" else "Eve"
        attracted, astrat = attract(player, (), target, in_game)
        regions, strats = solve(above, nodes - attracted)
        if not regions[opp]:
            strat = strats[player]
            strat.update(astrat)
            return {player: nodes, opp: set()}, {player: strat, opp: {}}
        second_calls[0] += 1
        escape, bstrat = attract(opp, regions[opp], (), in_game)
        rest = nodes - escape
        floors.setdefault(rest, set()).add(least)
        if (least, rest) not in memo:
            memo[least, rest] = fresh(solve(least, rest))
        regions2, strats2 = fresh(memo[least, rest])
        ostrat = strats[opp]
        ostrat.update(bstrat)
        ostrat.update(strats2[opp])
        return ({player: regions2[player], opp: regions2[opp] | escape},
                {player: strats2[player], opp: ostrat})

    # each player's attractor to the self-loops that it wins by at its own
    # vertices, in edge order, Eve's first and Adam's on the rest, is
    # settled before the decomposition
    nodes = frozenset(range(len(vertices)))

    def on_board(e):
        return src[e] in nodes and tgt[e] in nodes and e not in dropped

    settled = {}
    for player in ("Eve", "Adam"):
        wins = [i for i in range(len(edges)) if src[i] == tgt[i]
                and owner[src[i]] == player
                and (prio[i] % 2 == 0) == (player == "Eve")]
        settled[player] = attract(player, (), wins, on_board)
        nodes = nodes - settled[player][0]
    regions, strats = solve(min(prio), nodes)
    out_regions = {v: "Eve" if vnode[v] in regions["Eve"]
                   or vnode[v] in settled["Eve"][0] else "Adam"
                   for v in ts.vertices}
    out_strats = {player: {vertices[n]: edges[e].id for n, e in sorted((
                      *settled[player][1].items(), *strats[player].items()))}
                  for player in ("Eve", "Adam")}
    two_floors = sum(len(met) > 1 for met in floors.values())
    return ParitySolution(out_regions, out_strats), second_calls[0], two_floors


def kosaraju_components(vertices, succ):
    """Strongly connected components of the graph on `vertices`, where
    `succ(v)` lists the successors of `v`, all among `vertices`: the
    finishing order of a depth-first search, then sweeps of the reversed
    graph in reverse finishing order.  Returns a dict from each vertex to
    the vertex its component's sweep started from."""
    radj = {v: [] for v in vertices}
    for v in vertices:
        for w in succ(v):
            radj[w].append(v)
    order = []
    visited = set()
    for root in sorted(vertices):
        if root in visited:
            continue
        stack = [(root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                order.append(v)
                continue
            if v in visited:
                continue
            visited.add(v)
            stack.append((v, True))
            for w in succ(v):
                if w not in visited:
                    stack.append((w, False))
    comp = {}
    for root in reversed(order):
        if root in comp:
            continue
        stack = [root]
        comp[root] = root
        while stack:
            v = stack.pop()
            for w in radj[v]:
                if w not in comp:
                    comp[w] = root
                    stack.append(w)
    return comp


def grouped_components(edges):
    """What `core._components` returns for the `Edge` objects `edges`,
    without its trim: the components of every endpoint by
    `kosaraju_components`, each one with an inner edge as its inner edges
    in the given order, in the order of their first inner edge."""
    adj = {}
    for e in edges:
        adj.setdefault(e.source, []).append(e.target)
        adj.setdefault(e.target, [])
    comp = kosaraju_components(adj, adj.__getitem__)
    inner = {}
    for e in edges:
        if comp[e.source] == comp[e.target]:
            inner.setdefault(comp[e.source], []).append(e)
    return list(inner.values())


def loop_exists(edges, letter_of, prio_of, letters, d):
    """Is there a loop of the `Edge`s `edges` using exactly the given
    letter set whose minimum priority is exactly d?

    Complete without enumeration: such a loop exists iff some SCC of the
    subgraph (letters within the set, priorities >= d) covers every letter
    and contains a priority-d edge -- the SCC itself is then such a loop,
    and any such loop sits inside one.
    """
    keep = [e for e in edges
            if letter_of(e.id) in letters and prio_of(e.id) >= d]
    for group in grouped_components(keep):
        got = {letter_of(e.id) for e in group}
        if got == frozenset(letters) and \
                min(prio_of(e.id) for e in group) == d:
            return True
    return False


def parity_criterion_violation(edges, letter_of, prio_of, letter_sets,
                               accepting):
    """First (letter set, priority) pair witnessing a loop of the `Edge`s
    `edges` whose minimum priority has the wrong parity, or None.
    `letter_sets` are the candidate infinite-letter sets, `accepting(X)`
    the wanted status."""
    prios = sorted({prio_of(e.id) for e in edges})
    for X in letter_sets:
        want = accepting(X)
        for d in prios:
            if (d % 2 == 0) == want:
                continue
            if loop_exists(edges, letter_of, prio_of, X, d):
                return (X, d)
    return None


def naive_certificate_problems(game, solution):
    """Problems with a parity game certificate, one SCC pass per losing
    priority: the regions must give every vertex, and nothing else, to Eve
    or Adam; within each region, the winner's strategy must pick an
    out-edge and keep play in the region, and a losing priority d is
    reported when some edge of priority d lies in an SCC of the allowed
    edges of priority >= d, that is, when some cycle has minimum d.  A
    region or strategy container that is not a dict counts as empty.
    SCCs come from `grouped_components`, not from the library."""
    ts = game.ts
    key, _ = _reading(ts, game.condition)
    vertices = set(ts.vertices)
    problems = []
    given = solution.regions if isinstance(solution.regions, dict) else {}
    strategies = (solution.strategies
                  if isinstance(solution.strategies, dict) else {})
    regions = {"Eve": set(), "Adam": set()}
    for v, w in given.items():
        if v not in vertices:
            problems.append("region entry for unknown vertex %r" % v)
        elif w not in ("Eve", "Adam"):
            problems.append("region of %r is %r, not Eve or Adam" % (v, w))
        else:
            regions[w].add(v)
    problems += ["vertex %r is in no region" % v for v in sorted(ts.vertices)
                 if v not in given]
    for player, region in regions.items():
        moves = strategies.get(player)
        if not isinstance(moves, dict):
            moves = {}
        allowed = []
        for v in sorted(region):
            if ts.owners[v] == player:
                eid = moves.get(v)
                if eid is None:
                    problems.append("%s has no move at %r" % (player, v))
                    continue
                chosen = [e for e in ts.out(v) if e.id == eid]
                if not chosen:
                    problems.append("%s's move %r at %r is not an out-edge "
                                    "of it" % (player, eid, v))
            else:
                chosen = list(ts.out(v))
            for e in chosen:
                if e.target not in region:
                    problems.append(
                        "edge %r escapes the %s region" % (e.id, player))
                else:
                    allowed.append(e)
        good_parity = 0 if player == "Eve" else 1
        prios = {e.id: game.condition.priorities[key(e.id)] for e in allowed}
        for d in sorted(set(prios.values())):
            if d % 2 == good_parity:
                continue
            keep = [e for e in allowed if prios[e.id] >= d]
            if any(prios[e.id] == d
                   for group in grouped_components(keep) for e in group):
                problems.append(
                    "cycle with minimum priority %d inside the %s region"
                    % (d, player))
    return problems


def deepest_holding_prefix(tree, leaf, x):
    """The longest prefix of the branch `leaf` whose label in `tree`
    contains `x`, by trying every prefix: the naive `supp`."""
    return max((leaf[:k] for k in range(len(leaf) + 1)
                if x in tree.label[leaf[:k]]), key=len)


def min_parity_automaton_size(family, gamma, n_max,
                              priority_values=range(4)):
    """Smallest number of states of a deterministic complete parity
    automaton recognizing the family, found by exhaustive search; None when
    no automaton within the budget works.

    A candidate moves state q on the i-th colour along the edge
    `str(q*g+i)` to state `str(delta[q*g+i])`.  Its loops, read once from
    `enumerate_reachable_loops`, screen the priority assignments.

    Deliberately tiny budgets (n_max <= 3, |gamma| <= 3, at most 4
    priority values, so at most 9 edges, within the default loop cap);
    this is an oracle, not a construction.
    """
    gamma = sorted(gamma)
    fam = frozenset(frozenset(s) for s in family)
    priority_values = list(priority_values)
    if n_max > 3 or len(gamma) > 3 or len(priority_values) > 4:
        raise InputError("search budget exceeded")
    g = len(gamma)
    for n in range(1, n_max + 1):
        for delta in itertools.product(range(n), repeat=n * g):
            arcs = [(str(s), str(s // g), str(t)) for s, t in enumerate(delta)]
            ts = TransitionSystem(map(str, range(n)), arcs, ["0"])
            # the smaller loops first: they fail sooner
            slot_sets = sorted(([int(eid) for eid in loop.edges]
                                for loop in enumerate_reachable_loops(ts)),
                               key=len)
            targets = [(slots, frozenset(gamma[s % g] for s in slots) in fam)
                       for slots in slot_sets]
            for prios in itertools.product(priority_values, repeat=n * g):
                if all((min(prios[s] for s in slots) % 2 == 0) == want
                       for slots, want in targets):
                    return n
    return None


def min_parity_priority_count(family, gamma):
    """Minimal number of distinct priorities any deterministic parity
    automaton of at most 2 states needs to recognize the family."""
    for count, base in itertools.product(range(1, 5), (0, 1)):
        values = range(base, base + count)
        if min_parity_automaton_size(family, gamma, 2, values) is not None:
            return count
    return None


def closure_oracle(family, gamma):
    """Brute-force closure flags over all nonempty subsets of the colour
    set: union_closed means the union of two accepting sets is accepting,
    intersection_closed means the union of two rejecting sets is rejecting
    (equivalently, accepting sets are closed under intersection within the
    lattice of statuses)."""
    gamma = sorted(set(gamma))
    fam = {frozenset(s) for s in family}
    subsets = [frozenset(s) for s in itertools.chain.from_iterable(
        itertools.combinations(gamma, r) for r in range(1, len(gamma) + 1))]
    accepting = [s for s in subsets if s in fam]
    rejecting = [s for s in subsets if s not in fam]
    union_closed = all(a | b in fam for a in accepting for b in accepting)
    intersection_closed = all(
        a | b not in fam for a in rejecting for b in rejecting)
    return {"union_closed": union_closed,
            "intersection_closed": intersection_closed}

