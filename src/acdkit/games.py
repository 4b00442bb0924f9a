"""Two-player games on transition systems: an attractor-based parity game
solver with certified strategies, and Muller games solved through the
parity transformation.  The solver walks Zielonka's decomposition on an
explicit stack, with the subgame as alive marks that each level cuts and
heals by its attractor, so paths are linear and deep games do not hit
Python's recursion limit.  Each distinct subgame of the second recursive
call is solved once per call, so the cycle family, exponential for plain
Zielonka, stays polynomial.  The certificate check peels strongly
connected components by least priority, independently of the solver."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .acd import acd_transform, induced_morphism
from .core import InputError, _components, _reading, validate


class Game:
    """A transition system where every vertex is owned by Eve or Adam;
    Eve wins a play iff the acceptance condition accepts it.  `key` gives
    each edge's key under the condition (`core._reading`), read once."""

    def __init__(self, ts, condition):
        problems = validate(ts)
        try:
            self.key, _ = _reading(ts, condition)
        except InputError as e:
            problems.append(str(e))
        if problems:
            raise InputError("; ".join(problems))
        if ts.owners is None:
            raise InputError("game vertices must carry owners")
        if len(ts.initial) != 1:
            raise InputError("a game has a single initial vertex")
        self.ts = ts
        self.condition = condition

    @property
    def initial(self):
        return self.ts.initial[0]


def _other(player):
    return "Adam" if player == "Eve" else "Eve"


@dataclass
class ParitySolution:
    regions: dict      # vertex -> winning player
    strategies: dict   # player -> {vertex -> edge id}

    def winner(self, v):
        return self.regions[v]


def _fresh(solution):
    """A copy of a subgame's (regions, strategies) that can be extended
    without touching the original."""
    regions, strats = solution
    return ({p: list(r) for p, r in regions.items()},
            {p: dict(s) for p, s in strats.items()})


def solve_parity_game(game):
    """Winning regions and positional strategies, computed by Zielonka's
    attractor decomposition and verified by cycle analysis before being
    returned.

    The decomposition runs on an explicit stack of frames, one generator
    per subgame, so the size of the game is not limited by Python's
    recursion depth.  The board's predecessor lists and its nodes bucketed
    by priority are built once per game and shared by every subgame.  The
    subgame is a bytearray of alive marks over the board: a frame marks
    its attractor dead while its child runs and alive again after, so a
    level costs its attractor.  A subgame's solution depends on its node
    set alone, so the subgames of the second recursive call are solved
    once per call, keyed by bytes(alive), and reused."""
    if game.condition.kind != "parity":
        raise InputError("expected a parity condition")
    ts = game.ts
    # bipartite board: vertex nodes and one midpoint node per edge, so
    # priorities sit on the midpoints and never disturb the minimum.
    # Edge nodes, all Eve's, come first and vertex nodes after, each in
    # the system's own order: edges by id, vertices sorted.
    edges, vertices = ts.edges, ts.vertices
    first_vertex = len(edges)
    vnode = {v: first_vertex + i for i, v in enumerate(vertices)}
    names = list(map(attrgetter("id"), edges)) + list(vertices)
    src = list(map(vnode.__getitem__, map(attrgetter("source"), edges)))
    tgt = list(map(vnode.__getitem__, map(attrgetter("target"), edges)))
    prio = list(map(game.condition.priorities.__getitem__,
                    map(game.key, names[:first_vertex])))
    prio += [max(prio)] * len(vertices)
    owner = ["Eve"] * first_vertex + [ts.owners[v] for v in vertices]
    # a vertex node's out-edge and in-edge nodes, each ascending; an edge
    # node has neither list: its one successor is tgt[n], its one pred src[n]
    succ = [()] * first_vertex + [[] for _ in vertices]
    preds = [()] * first_vertex + [[] for _ in vertices]
    for n, (s, t) in enumerate(zip(src, tgt)):
        succ[s].append(n)
        preds[t].append(n)
    levels = sorted(set(prio))
    level_of = {d: i for i, d in enumerate(levels)}
    buckets = [[] for _ in levels]
    for n, d in enumerate(prio[:first_vertex]):
        buckets[level_of[d]].append(n)
    buckets[-1] += range(first_vertex, len(prio))   # vertex nodes: the top
    alive = bytearray(b"\1") * len(prio)   # the current subgame's nodes

    def attract(player, base):
        """`player`'s attractor to `base` and its moves at vertex nodes;
        an edge node's move is forced."""
        region = set(base)
        strat = {}
        pending = sorted(base)
        degree = {}  # opponent vertices reached: successors left alive
        while pending:
            n = pending.pop()
            if n >= first_vertex:
                # Eve's edge nodes into n: n is their only successor
                for p in preds[n]:
                    if alive[p] and p not in region:
                        region.add(p)
                        pending.append(p)
                continue
            p = src[n]
            if p in region or not alive[p]:
                continue
            if owner[p] == player:
                region.add(p)
                strat[p] = n
                pending.append(p)
                continue
            left = degree.get(p)
            if left is None:
                left = sum(map(alive.__getitem__, succ[p]))
            degree[p] = left - 1
            if left == 1:
                region.add(p)
                pending.append(p)
        return list(region), strat

    def mark(region, flag):
        for n in region:
            alive[n] = flag

    def solve(level, size):
        """Frame of the subgame of the `size` alive nodes: for each subgame
        it needs solved, marks the others dead, yields (least priority
        level, size), receives the solution and revives them.  Returns
        (regions, strategies) for the caller to own.  A subgame's least
        priority is never below its parent's, where the bucket search
        starts."""
        if not size:
            return {"Eve": [], "Adam": []}, {"Eve": {}, "Adam": {}}
        target = [n for n in buckets[level] if alive[n]]
        while not target:
            level += 1
            target = [n for n in buckets[level] if alive[n]]
        player = "Eve" if levels[level] % 2 == 0 else "Adam"
        opp = _other(player)
        attracted, astrat = attract(player, target)
        mark(attracted, 0)
        regions, strats = yield level, size - len(attracted)
        mark(attracted, 1)
        if not regions[opp]:
            strat = strats[player]
            strat.update(astrat)
            for n in target:
                if n >= first_vertex and owner[n] == player and n not in strat:
                    strat[n] = min(m for m in succ[n] if alive[m])
            regions[player] += attracted
            return regions, strats
        escape, bstrat = attract(opp, regions[opp])
        mark(escape, 0)
        rest = bytes(alive)
        if rest not in memo:
            memo[rest] = yield level, size - len(escape)
        mark(escape, 1)
        regions2, strats2 = _fresh(memo[rest])
        regions2[opp] += escape
        ostrat = strats[opp]
        ostrat.update(bstrat)
        ostrat.update(strats2[opp])
        return regions2, {player: strats2[player], opp: ostrat}

    # Second-call solutions by alive marks: the cycle family reaches a few
    # hundred distinct ones through 10^5 frames.  Parents extend what they
    # receive in place, so the memo hands out copies.
    memo = {}
    stack = [solve(0, len(prio))]
    result = None
    while stack:
        try:
            subgame = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(solve(*subgame))
            result = None
    regions, strats = result
    eve = set(regions["Eve"])
    out_regions = {v: "Eve" if vnode[v] in eve else "Adam"
                   for v in ts.vertices}
    out_strats = {player: {names[n]: names[m]
                           for n, m in strats[player].items()}
                  for player in ("Eve", "Adam")}
    solution = ParitySolution(out_regions, out_strats)
    problems = verify_parity_solution(game, solution)
    if problems:
        raise AssertionError("solver produced a bad certificate: %s"
                             % "; ".join(problems))
    return solution


def verify_parity_solution(game, solution):
    """Certificate check: the regions must give each vertex, and nothing
    else, to Eve or Adam, and within each region the winner's strategy
    must pick an out-edge at each of the winner's vertices, keep play in
    the region and make every cycle's minimum priority favourable.
    Returns a list of problems, the unfavourable cycle minima of a region
    in ascending order."""
    ts = game.ts
    owners, out = ts.owners, ts.out
    key, priorities = game.key, game.condition.priorities
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
    problems += ["vertex %r is in no region" % v
                 for v in sorted(vertices.difference(solution.regions))]
    for player, region in regions.items():
        moves = solution.strategies.get(player, {})
        allowed = []
        for v in sorted(region):
            if owners[v] == player:
                eid = moves.get(v)
                if eid is None:
                    problems.append("%s has no move at %r" % (player, v))
                    continue
                chosen = [e for e in out(v) if e.id == eid]
                if not chosen:
                    problems.append("%s's move %r at %r is not an out-edge "
                                    "of it" % (player, eid, v))
            else:
                chosen = out(v)
            for e in chosen:
                if e.target not in region:
                    problems.append(
                        "edge %r escapes the %s region" % (e.id, player))
                else:
                    allowed.append(e)
        good_parity = 0 if player == "Eve" else 1
        # Peel SCCs: a component's least inner priority d is the minimum of
        # some cycle in it, and every cycle avoiding the d-edges survives in
        # a component of what is left, so this finds exactly the minima of
        # the cycles.  Only the edges of the first split's components lie
        # on cycles, so only theirs have their priority read.
        bad = set()
        work = [_components(allowed)]
        prios = {e.id: priorities[key(e.id)] for _, es in work[0] for e in es}
        while work:
            for _, es in work.pop():
                d = min(prios[e.id] for e in es)
                if d % 2 != good_parity:
                    bad.add(d)
                rest = [e for e in es if prios[e.id] != d]
                if rest:
                    work.append(_components(rest))
        for d in sorted(bad):
            problems.append(
                "cycle with minimum priority %d inside the %s region"
                % (d, player))
    return problems


@dataclass
class MullerSolution:
    regions: dict           # original vertex -> winning player
    transform: object       # the parity transformation used
    parity_solution: ParitySolution
    morphism: object

    def winner(self, v):
        return self.regions[v]


def solve_muller_game(game, explore_cap=None):
    """Solve by building the parity transformation, solving the parity
    game on it and projecting the regions back; all copies of a vertex
    land on the same side."""
    result = acd_transform(game.ts, game.condition, explore_cap=explore_cap)
    pgame = Game(result.system, result.condition)
    psol = solve_parity_game(pgame)
    regions = {}
    for q, copies in result.copies.items():
        winners = {psol.regions[c] for c in copies}
        if len(winners) != 1:
            raise AssertionError(
                "copies of %r disagree on the winner" % q)
        regions[q] = winners.pop()
    m = induced_morphism(result, game.ts, game.condition)
    return MullerSolution(regions, result, psol, m)
