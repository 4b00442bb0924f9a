"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: powerset enumeration, matrix-style
reachability, positional strategy enumeration, loop-by-loop status
comparison, and the parity solver's earlier set-based frame walk as the
reference for its tie-breaks.  Nothing imports the algorithms under test
beyond the plain data types, the loop status, the loop enumeration
(itself checked against `naive_loops`) and the one reading of a
condition's keys.
"""

import itertools

from acdkit import enumerate_reachable_loops, loop_status_over
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
    """Zielonka's attractor decomposition on the board and with the
    tie-breaks of `solve_parity_game`, but with each subgame a frozenset of
    board nodes, copied at every level, and plain recursion.  Returns the
    ParitySolution, whose regions and strategies, dict order included, the
    solver must reproduce, and the number of frames that reached the
    second recursive call."""
    ts = game.ts
    edges = sorted(ts.edges, key=lambda e: e.id)
    vertices = sorted(ts.vertices)
    enode = {e.id: i for i, e in enumerate(edges)}
    vnode = {v: len(edges) + i for i, v in enumerate(vertices)}
    names = [e.id for e in edges] + vertices
    key, _ = _reading(ts, game.condition)
    prio = [game.condition.priorities[key(e.id)] for e in edges]
    prio += [max(prio)] * len(vertices)
    owner = ["Eve"] * len(edges) + [ts.owners[v] for v in vertices]
    succ = ([[vnode[e.target]] for e in edges]
            + [[enode[e.id] for e in ts.out(v)] for v in vertices])
    preds = [[] for _ in prio]
    for n, ms in enumerate(succ):
        for m in ms:
            preds[m].append(n)
    memo = {}
    second_calls = [0]

    def attract(player, base, nodes):
        region = set(base)
        strat = {}
        pending = sorted(base)
        degree = {}
        while pending:
            n = pending.pop()
            for p in preds[n]:
                if p in region or p not in nodes:
                    continue
                if owner[p] == player:
                    region.add(p)
                    strat[p] = n
                    pending.append(p)
                    continue
                left = degree.get(p)
                if left is None:
                    left = sum(1 for m in succ[p] if m in nodes)
                degree[p] = left - 1
                if left == 1:
                    region.add(p)
                    pending.append(p)
        return region, strat

    def fresh(solution):
        regions, strats = solution
        return regions, {p: dict(s) for p, s in strats.items()}

    def solve(nodes):
        if not nodes:
            return {"Eve": set(), "Adam": set()}, {"Eve": {}, "Adam": {}}
        least = min(prio[n] for n in nodes)
        target = [n for n in sorted(nodes) if prio[n] == least]
        player = "Eve" if least % 2 == 0 else "Adam"
        opp = "Adam" if player == "Eve" else "Eve"
        attracted, astrat = attract(player, target, nodes)
        regions, strats = solve(nodes - attracted)
        if not regions[opp]:
            strat = strats[player]
            strat.update(astrat)
            for n in target:
                if owner[n] == player and n not in strat:
                    strat[n] = min(m for m in succ[n] if m in nodes)
            return {player: nodes, opp: set()}, {player: strat, opp: {}}
        second_calls[0] += 1
        escape, bstrat = attract(opp, regions[opp], nodes)
        rest = nodes - escape
        if rest not in memo:
            memo[rest] = fresh(solve(rest))
        regions2, strats2 = fresh(memo[rest])
        ostrat = strats[opp]
        ostrat.update(bstrat)
        ostrat.update(strats2[opp])
        return ({player: regions2[player], opp: regions2[opp] | escape},
                {player: strats2[player], opp: ostrat})

    regions, strats = solve(frozenset(range(len(prio))))
    out_regions = {v: "Eve" if vnode[v] in regions["Eve"] else "Adam"
                   for v in ts.vertices}
    out_strats = {"Eve": {}, "Adam": {}}
    for player in ("Eve", "Adam"):
        for n, m in strats[player].items():
            if n >= len(edges) > m:
                out_strats[player][names[n]] = names[m]
    return ParitySolution(out_regions, out_strats), second_calls[0]


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


def recursive_tarjan(vertices, succ):
    """Strongly connected components by the textbook recursive Tarjan:
    roots in sorted order, successors in the order `succ(v)` lists them,
    each component sorted and emitted when its root finishes."""
    index, low, stack, on_stack, out = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in succ(v):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while not comp or comp[-1] != v:
                comp.append(stack.pop())
                on_stack.discard(comp[-1])
            out.append(sorted(comp))

    for root in sorted(vertices):
        if root not in index:
            visit(root)
    return out


def _scc_edge_sets(edges):
    """SCC-internal edge groups of a list of (id, source, target) triples,
    by Kosaraju on the touched vertices."""
    adj = {}
    for eid, s, t in edges:
        adj.setdefault(s, []).append(t)
        adj.setdefault(t, [])
    comp = kosaraju_components(adj, adj.__getitem__)
    groups = {}
    for eid, s, t in edges:
        if comp[s] == comp[t]:
            groups.setdefault(comp[s], []).append((eid, s, t))
    return list(groups.values())


def loop_exists(edges, letter_of, prio_of, letters, d):
    """Is there a loop using exactly the given letter set whose minimum
    priority is exactly d?

    Complete without enumeration: such a loop exists iff some SCC of the
    subgraph (letters within the set, priorities >= d) covers every letter
    and contains a priority-d edge -- the SCC itself is then such a loop,
    and any such loop sits inside one.
    """
    keep = [e for e in edges
            if letter_of(e[0]) in letters and prio_of(e[0]) >= d]
    for group in _scc_edge_sets(keep):
        got = {letter_of(eid) for eid, _, _ in group}
        if got == frozenset(letters) and \
                min(prio_of(eid) for eid, _, _ in group) == d:
            return True
    return False


def parity_criterion_violation(edges, letter_of, prio_of, letter_sets,
                               accepting):
    """First (letter set, priority) pair witnessing a loop whose minimum
    priority has the wrong parity, or None.  `letter_sets` are the
    candidate infinite-letter sets, `accepting(X)` the wanted status."""
    prios = sorted({prio_of(e[0]) for e in edges})
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
    edges of priority >= d, that is, when some cycle has minimum d.  SCCs
    come from `_scc_edge_sets`, not from the library."""
    ts = game.ts
    key, _ = _reading(ts, game.condition)
    vertices = set(ts.vertices)
    problems = []
    regions = {"Eve": set(), "Adam": set()}
    for v, w in solution.regions.items():
        if v not in vertices:
            problems.append("region entry for unknown vertex %r" % v)
        elif w not in ("Eve", "Adam"):
            problems.append("region of %r is %r, not Eve or Adam" % (v, w))
        else:
            regions[w].add(v)
    problems += ["vertex %r is in no region" % v for v in sorted(ts.vertices)
                 if v not in solution.regions]
    for player, region in regions.items():
        allowed = []
        for v in sorted(region):
            if ts.owners[v] == player:
                eid = solution.strategies.get(player, {}).get(v)
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
            keep = [(e.id, e.source, e.target) for e in allowed
                    if prios[e.id] >= d]
            if any(prios[eid] == d
                   for group in _scc_edge_sets(keep) for eid, _, _ in group):
                problems.append(
                    "cycle with minimum priority %d inside the %s region"
                    % (d, player))
    return problems
