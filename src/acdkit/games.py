"""Two-player games on transition systems: an attractor-based parity game
solver with certified strategies, and Muller games solved through the
parity transformation.  The solver walks Zielonka's decomposition on the
system's vertices and edge priorities, on an explicit stack; a level is a
compressed priority, one per run of one parity, which no play can tell
apart, and its player is its parity; a subgame is alive vertex marks, cut
and healed by each level's attractor, and a floor level, so deep games do
not hit Python's recursion limit.  A frame also takes in the levels of
its parity above its own while the subgame has no edge of the level
between.  Each distinct subgame of the second recursive call is solved
once per call, and writes its moves back when reused: a strategy is one
move per vertex, kept in one array and listed in the system's vertex
order.  Self-loops are settled first, by the self-cycle removal of
PGSolver (Friedmann and Lange, *Solving Parity Games in Practice*, ATVA
2009).  The board leaves out each self-loop whose priority its owner
loses by while its vertex has another out-edge: the owner never needs it
to win, and a play that repeats it is the opponent's.  A self-loop whose
priority its owner wins by is a move the owner can take forever, so each
player's attractor to those loops is its own before any frame runs.
Neither half changes the regions.  The certificate check peels SCCs by
least priority, apart from the solver, and reads every out-edge, the
removed loops included."""

from __future__ import annotations

import gc
from itertools import chain, compress, count
from operator import attrgetter, eq

from .acd import acd_transform, induced_morphism
from .core import (PLAYERS, InputError, _components, _compressed, _lookup,
                   _Record, _valid_reading)


class Game:
    """A transition system where every vertex is owned by Eve or Adam;
    Eve wins a play iff the acceptance condition accepts it.  The
    condition is read once, here (`core._valid_reading`); the solver and
    the certificate key edges with its lookup, `_key`."""

    def __init__(self, ts, condition):
        self._key, _ = _valid_reading(ts, condition)
        if ts.owners is None:
            raise InputError("game vertices must carry owners")
        if len(ts.initial) != 1:
            raise InputError("a game has a single initial vertex")
        self.ts = ts
        self.condition = condition

    @property
    def initial(self):
        return self.ts.initial[0]


class _Solution(_Record):
    """What both solutions share: `regions` maps each vertex of the game
    to its winner, and `winner` reads it."""

    def winner(self, v):
        return _lookup(self.regions, v, "unknown vertex %r")


class ParitySolution(_Solution):
    _fields = ("regions", "strategies")

    def __init__(self, regions, strategies):
        self.regions = regions        # vertex -> winning player
        self.strategies = strategies  # player -> {vertex -> edge id}, sorted


def solve_parity_game(game):
    """Winning regions and positional strategies, one move at each vertex
    its winner owns, in the system's vertex order (`_solve_parity_game`),
    computed with automatic garbage collection paused and the caller's
    setting restored after.  A solve makes no reference cycles, so a
    collection during it only scans live objects and frees none; its
    board and certificate allocate enough containers to set off some:
    unpaused, a pass over the benchmark's parity games runs about 5%
    slower in process.  A game whose condition is not parity is an
    InputError."""
    if game.condition.kind != "parity":
        raise InputError("expected a parity condition")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _solve_parity_game(game)
    finally:
        if enabled:
            gc.enable()


def _solve_parity_game(game):
    """Winning regions and positional strategies, computed by Zielonka's
    attractor decomposition and verified by cycle analysis before being
    returned.

    The decomposition runs on an explicit stack of frames, one generator
    per subgame, so the size of the game is not limited by Python's
    recursion depth.  The board is the system's own vertices, with the
    priorities on the edges: it reads each edge's endpoints as the vertex
    numbers the system keeps (`_src`, `_tgt`), and its edge lists are
    built once per game and shared by every subgame.  An edge's level is
    its priority compressed by `core._compressed`, one value per run of
    one parity, and a level's player is `PLAYERS[level % 2]`.  A subgame
    is a bytearray of alive vertex marks and a floor: its edges join alive
    vertices and have a level of at least the floor.  The self-loops are
    settled first, in ascending edge index, Eve's before Adam's; the
    frames solve the rest, and none runs when nothing is left.

    A frame takes the lowest level d with an edge in its subgame, then
    each level d + 2, d + 4, ... while the level below it has none: the
    priorities of those levels are the subgame's least run of one
    parity.  Their edges, in ascending edge index, seed the frame
    player's attractor; its child gets the floor above the last level
    taken, while the escape attractor and the second call keep floor d.
    A frame marks its attractor dead while its child runs and alive
    again after, and passes up only its regions: each move is written to
    `move`, indexed by vertex, by the attractor that takes the vertex for
    its player, so the last frame to decide a vertex leaves its move.  The
    subgames of the second recursive call are solved once per call, keyed
    by (floor, bytes(alive)); the memo keeps each one's moves beside its
    regions and writes them back on every reuse.  The output reads the
    move of each vertex its winner owns, in vertex order."""
    ts = game.ts
    # the board: the system's own numbering, vertices sorted and edges by
    # id, made once when the system was built; an edge has its source,
    # target and priority level, a vertex its out-edges and in-edges, each
    # ascending
    edges, vertices, src, tgt = ts.edges, ts.vertices, ts._src, ts._tgt
    # the priority map names exactly the edges' keys (`Game` checked it),
    # and `_by_id` holds the edge ids in the order of `edges`
    prio = game.condition.priorities
    lvl = list(map(_compressed(prio.values()).__getitem__,
                   map(prio.__getitem__, map(game._key, ts._by_id))))
    owner = list(map(ts.owners.__getitem__, vertices))
    succ = [[] for _ in vertices]
    preds = [[] for _ in vertices]
    buckets = [[] for _ in range(max(lvl) + 1)]
    for e, (s, t, d) in enumerate(zip(src, tgt, lvl)):
        succ[s].append(e)
        preds[t].append(e)
        buckets[d].append(e)
    # the two self-loop rules: without the drop a `parity-games` solve pass
    # takes 1.13x (cycles 8.6-9x), without the settling 1.17x (cycles 3.4x)
    loops = {p: [] for p in PLAYERS}
    for e in compress(count(), map(eq, src, tgt)):
        s = src[e]
        if PLAYERS[lvl[e] % 2] == owner[s]:
            loops[owner[s]].append(e)
        elif len(succ[s]) > 1:
            succ[s].remove(e)
            preds[s].remove(e)
            buckets[lvl[e]].remove(e)
    alive = bytearray(b"\1") * len(vertices)   # the current subgame's vertices
    move = [None] * len(vertices)   # each vertex's move, where it is decided

    def attract(player, d, low, base, seeds=()):
        """`player`'s attractor to the vertices `base` and the sources of
        the edges `seeds` in the subgame of the alive vertices and the
        edges of level `d` or more; each of `player`'s vertices that it
        takes gets its move.  The walk back takes in-edges of level `low`
        or more: the first attractor's seeds are all the subgame's edges
        below `low`, so each is counted once."""
        region = set(base)
        pending = sorted(base)
        degree = {}  # opponent vertices reached: out-edges left alive
        todo, floor = seeds, d
        while True:
            for e in todo:
                if lvl[e] < floor:
                    continue
                p = src[e]
                if p in region or not alive[p]:
                    continue
                if owner[p] == player:
                    region.add(p)
                    move[p] = e
                    pending.append(p)
                    continue
                left = degree.get(p)
                if left is None:
                    left = 0
                    for f in succ[p]:
                        if lvl[f] >= d and alive[tgt[f]]:
                            left += 1
                degree[p] = left - 1
                if left == 1:
                    region.add(p)
                    pending.append(p)
            if not pending:
                return list(region)
            todo, floor = preds[pending.pop()], low

    def mark(region, flag):
        for n in region:
            alive[n] = flag

    def live(level):
        """The edges of `level` between alive vertices, ascending."""
        return [e for e in buckets[level] if alive[src[e]] and alive[tgt[e]]]

    def solve(level):
        """Frame of the subgame of the alive vertices and the edges of
        level `level` or more: for each subgame it needs solved, marks the
        others dead, yields its floor, receives its regions and revives
        them.  Returns the regions, {player: vertices}, for the
        caller to own; the moves of their vertices are in `move`.  The
        first child also drops the remaining edges of the levels taken,
        which leave the opponent's vertices outside the attractor."""
        size = alive.count(1)
        target = live(level)
        while not target:
            level += 1
            target = live(level)
        top = level
        while top + 2 < len(buckets) and not live(top + 1):
            top += 2
            target += live(top)
        target.sort()
        player, opp = PLAYERS[level % 2], PLAYERS[1 - level % 2]
        attracted = attract(player, level, top + 1, (), target)
        # an attractor that takes the whole subgame ends the frame, without
        # an empty child: the alternating path runs about 1.5 times slower
        # without these two exits
        if len(attracted) == size:
            return {player: attracted, opp: []}
        mark(attracted, 0)
        regions = yield top + 1
        mark(attracted, 1)
        if not regions[opp]:
            regions[player] += attracted
            return regions
        escape = attract(opp, level, level, regions[opp])
        if len(escape) == size:
            return {player: [], opp: escape}
        mark(escape, 0)
        rest = level, bytes(alive)
        if rest in memo:
            regions, moves = memo[rest]
            for n, e in moves:
                move[n] = e
        else:
            regions = yield level
            memo[rest] = regions, [(n, move[n])
                                   for n in chain(*regions.values())]
        mark(escape, 1)
        return {player: list(regions[player]), opp: regions[opp] + escape}

    # Second-call solutions by floor and alive marks, which plain Zielonka
    # solves again at each repeat: few random games meet a key twice, but
    # the lifted cycle family lives on it (n = 40: 1,069 frames, and
    # millions without).  Frames run between a solve and its reuse write
    # over its moves, and parents extend the region lists they receive.
    memo = {}
    # each player's attractor to its winning self-loops, Eve's and then
    # Adam's on the rest, is its own; the frames solve what is left
    settled = []
    for player, seeds in loops.items():
        settled.append(attract(player, 0, 0, (), seeds))
        mark(settled[-1], 0)
    stack = [solve(0)] if any(alive) else []
    result = None
    while stack:
        try:
            floor = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(solve(floor))
            result = None
    side = ["Adam"] * len(vertices)
    for n in chain(settled[0], result["Eve"] if result else ()):
        side[n] = "Eve"
    out_regions = dict(zip(vertices, side))
    out_strats = {"Eve": {}, "Adam": {}}
    for v, player, e in compress(zip(vertices, side, move),
                                 map(eq, side, owner)):
        out_strats[player][v] = edges[e].id
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
    in ascending order.

    A region is read in bulk: the winner's moves by lookup, their sources
    in one comparison, the opponent's out-edges in one chain and every
    target in one subset test.  Only when that fails does a per-vertex
    walk name the problems, in the system's vertex order; walking every
    region makes a certificate pass over the benchmark's parity games
    about 17% slower.  Strategy entries outside the winner's own vertices
    of the region are not read, and a region or strategy container that
    is not a dict reads as empty.  A game whose condition is not parity
    is an InputError."""
    if game.condition.kind != "parity":
        raise InputError("expected a parity condition")
    ts = game.ts
    owners, out, by_id = ts.owners, ts._out.__getitem__, ts._by_id
    prio, target = game.condition.priorities.__getitem__, attrgetter("target")
    vertices = set(ts.vertices)
    owned = {p: [v for v in ts.vertices if owners[v] == p] for p in PLAYERS}
    problems = []
    given = _dict(solution.regions)
    strategies = _dict(solution.strategies)
    regions = {p: set() for p in PLAYERS}
    for v, w in given.items():
        if v not in vertices:
            problems.append("region entry for unknown vertex %r" % v)
        elif w not in PLAYERS:
            problems.append("region of %r is %r, not Eve or Adam" % (v, w))
        else:
            regions[w].add(v)
    problems += ["vertex %r is in no region" % v
                 for v in sorted(vertices.difference(given))]
    for parity, player in enumerate(PLAYERS):
        region, moves = regions[player], _dict(strategies.get(player))
        own = list(filter(region.__contains__, owned[player]))
        theirs = filter(region.__contains__, owned[PLAYERS[1 - parity]])
        try:    # a missing or unknown move reads as None, which `all` fails
            allowed = list(map(by_id.get, map(moves.get, own)))
            fits = all(allowed) and [e.source for e in allowed] == own
        except TypeError:
            fits = False    # an unhashable move
        if fits:
            allowed += chain.from_iterable(map(out, theirs))
            fits = region.issuperset(map(target, allowed))
        if not fits:
            allowed = _allowed_edges(ts, player, region, moves, problems)
        # Peel SCCs: a component's least inner priority d is the minimum of
        # some cycle in it, and every cycle avoiding the d-edges survives in
        # a component of what is left, so this finds exactly the minima of
        # the cycles.  Only the edges of the first split's components lie
        # on cycles, so only theirs have their priority read.
        bad = set()
        work = [_components(allowed)]
        inner = [e.id for es in work[0] for e in es]
        prios = dict(zip(inner, map(prio, map(game._key, inner))))
        while work:
            for es in work.pop():
                d = min(prios[e.id] for e in es)
                if d % 2 != parity:
                    bad.add(d)
                rest = [e for e in es if prios[e.id] != d]
                if rest:
                    work.append(_components(rest))
        for d in sorted(bad):
            problems.append(
                "cycle with minimum priority %d inside the %s region"
                % (d, player))
    return problems


def _dict(container):
    """`container` if it is a dict, else an empty one."""
    return container if isinstance(container, dict) else {}


def _allowed_edges(ts, player, region, moves, problems):
    """The edges that `player`'s strategy `moves` allows inside `region`,
    vertex by vertex in the system's order, appending each missing or
    foreign move and each escaping edge to `problems`."""
    allowed = []
    for v in filter(region.__contains__, ts.vertices):
        if ts.owners[v] == player:
            eid = moves.get(v)
            if eid is None:
                problems.append("%s has no move at %r" % (player, v))
                continue
            # ids are strings: a move of another type names no edge
            e = ts._by_id.get(eid) if isinstance(eid, str) else None
            if e is None or e.source != v:
                problems.append("%s's move %r at %r is not an out-edge "
                                "of it" % (player, eid, v))
                continue
            chosen = (e,)
        else:
            chosen = ts.out(v)
        for e in chosen:
            if e.target not in region:
                problems.append(
                    "edge %r escapes the %s region" % (e.id, player))
            else:
                allowed.append(e)
    return allowed


class MullerSolution(_Solution):
    _fields = ("regions", "transform", "parity_solution", "morphism")

    def __init__(self, regions, transform, parity_solution, morphism):
        self.regions = regions      # original vertex -> winning player
        self.transform = transform  # the parity transformation used
        self.parity_solution = parity_solution
        self.morphism = morphism


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
