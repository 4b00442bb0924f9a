import gc
import random
import re
import time

import pytest

import acdkit
from acdkit import (Game, InputError, MullerCondition, ParityCondition,
                    TransitionSystem, docfmt, solve_muller_game,
                    solve_parity_game, verify_parity_solution)
from acdkit.core import (_TRIM_ABOVE, _components, _compressed, _over,
                         _reading)
from acdkit.games import ParitySolution
from conftest import (FIXTURES, alternating_path_game, count_readings,
                      cycle_game, lifted_cycle_game, path_game,
                      random_muller_system, random_system,
                      small_parity_games)
from oracles import (brute_force_parity_regions, naive_certificate_problems,
                     set_based_parity_solution)


def small_parity_game():
    ts = TransitionSystem(
        ["u", "w"],
        [("e1", "u", "u"), ("e2", "u", "w"),
         ("e3", "w", "w"), ("e4", "w", "u")],
        ["u"], owners={"u": "Eve", "w": "Adam"})
    return Game(ts, ParityCondition({"e1": 1, "e2": 2, "e3": 2, "e4": 3}))


def test_parity_eve_wins_everywhere():
    g = small_parity_game()
    sol = solve_parity_game(g)
    assert sol.regions == {"u": "Eve", "w": "Eve"}
    # the self-loop at u has odd priority, so Eve must leave
    assert sol.strategies["Eve"]["u"] == "e2"


def test_parity_adam_single_vertex():
    ts = TransitionSystem(["p"], [("e", "p", "p")], ["p"],
                          owners={"p": "Adam"})
    sol = solve_parity_game(Game(ts, ParityCondition({"e": 1})))
    assert sol.regions == {"p": "Adam"}
    assert sol.strategies["Adam"] == {"p": "e"}


def test_parity_split_regions():
    # two islands: an even self-loop and an odd one
    ts = TransitionSystem(
        ["p", "q"], [("a", "p", "p"), ("b", "q", "q")], ["p"],
        owners={"p": "Eve", "q": "Eve"})
    sol = solve_parity_game(Game(ts, ParityCondition({"a": 0, "b": 1})))
    assert sol.regions == {"p": "Eve", "q": "Adam"}


def test_game_constructor_checks():
    ts = TransitionSystem(["p"], [("e", "p", "p")], ["p"])
    with pytest.raises(InputError):
        Game(ts, ParityCondition({"e": 0}))
    ts2 = TransitionSystem(["p"], [("e", "p", "p")], [],
                           owners={"p": "Eve"})
    with pytest.raises(InputError):
        Game(ts2, ParityCondition({"e": 0}))
    with pytest.raises(InputError):
        solve_parity_game(Game(
            TransitionSystem(["p"], [("e", "p", "p")], ["p"],
                             owners={"p": "Eve"}),
            MullerCondition([{"e"}])))
    # the structural problems and the condition's, in one message
    ts3 = TransitionSystem(["p", "q"], [("e", "p", "p")], ["p"],
                           owners={"p": "Eve", "q": "Adam"})
    with pytest.raises(InputError, match="^dead-end vertex 'q' has no "
                       "outgoing edge; condition references unknown "
                       "colour 'x'$"):
        Game(ts3, ParityCondition({"e": 0, "x": 1}))


@pytest.mark.parametrize("over,priorities,message", [
    ("colours", {"a": 0}, "no priority assigned to colour 'k'"),
    ("colours", {"a": 0, "k": 1, "x": 2},
     "condition references unknown colour 'x'"),
    ("colours", {"a": 0, "x": 2}, "condition references unknown colour 'x'"),
    ("edges", {"a": 0}, "no priority assigned to edge 'b'"),
    ("edges", {"a": 0, "b": 1, "k": 2},
     "condition references unknown edge 'k'"),
    ("edges", {"a": 0, "k": 2}, "condition references unknown edge 'k'"),
], ids=["colours-unpriced", "colours-unknown", "colours-both",
        "edges-unpriced", "edges-unknown", "edges-both"])
def test_game_names_the_condition_problem(over, priorities, message):
    """A parity condition that leaves a key without a priority, or names
    one outside the universe, is refused with that key named; when it
    does both, the unknown key is reported."""
    ts = TransitionSystem(["p"], [("a", "p", "p"), ("b", "p", "p")], ["p"],
                          owners={"p": "Eve"}, colours={"b": "k"})
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        Game(ts, _over(ParityCondition(priorities), over))


def _certified(edges, owners, prios):
    """Solve the game of `edges` (id, source, target), its vertices owned
    as `owners` says and each edge of the priority `prios` gives it, and
    require the regions of the brute force and a clean certificate."""
    ts = TransitionSystem(sorted(owners), edges, [sorted(owners)[0]],
                          owners=owners)
    game = Game(ts, ParityCondition(prios))
    sol = solve_parity_game(game)
    assert sol.regions == brute_force_parity_regions(
        ts, owners, lambda e: prios[e.id])
    assert verify_parity_solution(game, sol) == []
    return sol


def test_opponent_avoids_its_least_priority_edge():
    """Adam at a has an edge of the least priority 0 into b, which Eve
    wins, and an edge of priority 1 into c, where Adam wins: he takes the
    second, so a is not attracted to the 0-edges."""
    sol = _certified(
        [("ab", "a", "b"), ("ac", "a", "c"), ("bb", "b", "b"),
         ("cc", "c", "c"), ("ca", "c", "a")],
        {"a": "Adam", "b": "Eve", "c": "Eve"},
        {"ab": 0, "ac": 1, "bb": 0, "cc": 1, "ca": 3})
    assert sol.regions == {"a": "Adam", "b": "Eve", "c": "Adam"}


def test_player_takes_its_least_priority_self_loop():
    """Eve's least-priority edge at p is a self-loop of priority 0; her
    other edge leads to q, where Adam loops on priority 1."""
    sol = _certified(
        [("pp", "p", "p"), ("pq", "p", "q"), ("qp", "q", "p"),
         ("qq", "q", "q")],
        {"p": "Eve", "q": "Adam"},
        {"pp": 0, "pq": 3, "qp": 2, "qq": 1})
    assert sol.regions == {"p": "Eve", "q": "Adam"}
    assert sol.strategies["Eve"] == {"p": "pp"}
    assert sol.strategies["Adam"] == {"q": "qq"}


@pytest.mark.parametrize("d,winner", [(0, "Eve"), (1, "Adam"), (4, "Eve")])
def test_every_edge_of_one_priority(d, winner):
    """With a single priority, its player wins everywhere and moves along
    some out-edge at each of their vertices."""
    edges = [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1"),
             ("e4", "v1", "v4"), ("e5", "v4", "v4"), ("e6", "v3", "v3")]
    owners = {"v1": "Eve", "v2": "Adam", "v3": "Adam", "v4": "Eve"}
    sol = _certified(edges, owners, {e[0]: d for e in edges})
    assert set(sol.regions.values()) == {winner}
    assert sorted(sol.strategies[winner]) == sorted(
        v for v, p in owners.items() if p == winner)


def test_parallel_edges_of_different_priorities():
    """u and w are joined both ways by two parallel edges each.  Eve at u
    must take the even one; in the second game Adam has an edge of
    priority 1 back and wins both vertices."""
    edges = [("ua", "u", "w"), ("ub", "u", "w"), ("wa", "w", "u"),
             ("wb", "w", "u")]
    owners = {"u": "Eve", "w": "Adam"}
    sol = _certified(edges, owners, {"ua": 1, "ub": 2, "wa": 4, "wb": 6})
    assert sol.regions == {"u": "Eve", "w": "Eve"}
    assert sol.strategies["Eve"] == {"u": "ub"}
    sol = _certified(edges, owners, {"ua": 1, "ub": 2, "wa": 4, "wb": 1})
    assert sol.regions == {"u": "Adam", "w": "Adam"}
    assert sol.strategies["Adam"] == {"w": "wb"}


def test_parity_game_reads_its_condition_once(monkeypatch):
    """Building, solving and certifying a game read through its colours
    reads its condition once (`core._reading`), in `Game`."""
    ts = TransitionSystem(
        ["u", "w"],
        [("e1", "u", "u"), ("e2", "u", "w"),
         ("e3", "w", "w"), ("e4", "w", "u")],
        ["u"], owners={"u": "Eve", "w": "Adam"},
        colours={"e1": "c1", "e2": "c2", "e3": "c2", "e4": "c3"})
    calls = count_readings(monkeypatch)
    game = Game(ts, ParityCondition({"c1": 1, "c2": 2, "c3": 3}))
    sol = solve_parity_game(game)
    assert sol.regions == {"u": "Eve", "w": "Eve"}
    assert verify_parity_solution(game, sol) == []
    assert len(calls) == 1


def test_certificate_check_refuses_a_condition_that_is_not_parity():
    """Like the solver, the certificate check refuses a game whose
    condition is not parity with an InputError."""
    game = Game(TransitionSystem(["p"], [("e", "p", "p")], ["p"],
                                 owners={"p": "Eve"}),
                MullerCondition([{"e"}]))
    sol = ParitySolution({"p": "Eve"}, {"Eve": {"p": "e"}, "Adam": {}})
    for check in (solve_parity_game, lambda g: verify_parity_solution(g, sol)):
        with pytest.raises(InputError, match="^expected a parity condition$"):
            check(game)


def test_verify_rejects_tampered_solution():
    g = small_parity_game()
    sol = solve_parity_game(g)
    assert verify_parity_solution(g, sol) == []
    sol.strategies["Eve"]["u"] = "e1"  # odd self-loop
    assert verify_parity_solution(g, sol)


def test_parity_matches_brute_force_random():
    rng = random.Random(47)
    for _ in range(40):
        ts = random_system(rng, max_vertices=5, max_edges=8,
                           with_owners=True)
        prios = {e.id: rng.randint(0, 4) for e in ts.edges}
        game = Game(ts, ParityCondition(prios))
        sol = solve_parity_game(game)
        want = brute_force_parity_regions(
            ts, ts.owners, lambda e: prios[e.id])
        assert sol.regions == want


# priority sets with gaps and with runs of one parity, such as 2, 4 or 8, 9
GAPPED = [(0, 2, 4, 5, 8, 9, 11), (1, 3, 4, 6, 7, 10), (0, 1, 3, 5, 6),
          (2, 3, 7, 9, 12, 14)]


def test_gapped_priorities_match_brute_force():
    """Small random games whose priorities come from sets with gaps and
    with adjacent values of one parity, read through edge ids, colours
    or a condition over edges: the regions are the brute force's and the
    certificate is clean.  Most games have two priorities of one parity
    next to each other among those present."""
    rng = random.Random(20)
    runs = 0
    for reading in ("ids", "colours", "edges"):
        for _ in range(150):
            game = _random_game(rng, reading, values=rng.choice(GAPPED),
                                most=6)
            ts = game.ts
            key, _ = _reading(ts, game.condition)
            prios = {e.id: game.condition.priorities[key(e.id)]
                     for e in ts.edges}
            sol = solve_parity_game(game)
            assert sol.regions == brute_force_parity_regions(
                ts, ts.owners, lambda e: prios[e.id])
            assert verify_parity_solution(game, sol) == []
            present = sorted(set(prios.values()))
            runs += any(a % 2 == b % 2 for a, b in zip(present, present[1:]))
    assert runs >= 100, runs


def _run_index(prios):
    """Each priority's level as the solver numbered them before it read
    `core._compressed`: the index of its run of one parity among the
    sorted priorities."""
    players, run = [], {}
    for d in sorted(set(prios)):
        player = "Adam" if d % 2 else "Eve"
        if not players or players[-1] != player:
            players.append(player)
        run[d] = len(players) - 1
    return run


def test_levels_are_run_indices_shifted_by_the_least_parity():
    """A compressed priority is its run's index plus the parity of the
    least priority, so levels compare, and a level's parity names its
    player, as the run indices and their player list did.  The solver
    reads each edge's level through its key and the priority map's own
    values: on games whose colour map gives one colour to several edges,
    and on conditions over edge ids, both with gaps between priorities,
    its regions and strategies, dict order included, are the set-based
    walk's."""
    rng = random.Random(31)
    for _ in range(500):
        prios = [rng.randrange(rng.randint(1, 15))
                 for _ in range(rng.randint(1, 12))]
        shift = min(prios) % 2
        run = _run_index(prios)
        assert _compressed(prios) == {d: i + shift for d, i in run.items()}
        assert all(_compressed(prios)[d] % 2 == d % 2 for d in prios)
    shared = 0
    for reading in ("colours", "edges"):
        for _ in range(150):
            game = _random_game(rng, reading, values=rng.choice(GAPPED),
                                most=8)
            want, _, _ = set_based_parity_solution(game)
            assert _ordered(solve_parity_game(game)) == _ordered(want)
            colours = list(game.ts._recoloured().values())
            shared += len(set(colours)) < len(colours)
    assert shared >= 100, shared


# priority sets whose least value is odd, all odd ones among them
ODD_LEAST = [(1, 3, 5, 7), (1, 5), (3,), (1, 2, 4, 5, 8), (3, 4, 6, 9, 10),
             (5, 7, 8, 11)]


def test_odd_least_priorities_match_every_oracle():
    """Games whose priorities are all odd, or whose least priority is
    odd, so the solver's level 0 is empty: the regions are the brute
    force's, the certificate check reports what the naive check does,
    and the solution, dict order included, is the set-based walk's."""
    rng = random.Random(53)
    all_odd = odd_least = 0
    for reading in ("ids", "colours", "edges"):
        for _ in range(120):
            game = _random_game(rng, reading, values=rng.choice(ODD_LEAST),
                                most=6)
            ts = game.ts
            key, _ = _reading(ts, game.condition)
            prios = {e.id: game.condition.priorities[key(e.id)]
                     for e in ts.edges}
            sol = solve_parity_game(game)
            assert sol.regions == brute_force_parity_regions(
                ts, ts.owners, lambda e: prios[e.id])
            assert verify_parity_solution(game, sol) == []
            tampered = _tampered(rng, game, sol)
            assert verify_parity_solution(game, tampered) == \
                naive_certificate_problems(game, tampered)
            want, _, _ = set_based_parity_solution(game)
            assert _ordered(sol) == _ordered(want)
            all_odd += all(p % 2 for p in prios.values())
            odd_least += min(prios.values()) % 2
    assert all_odd >= 150 and odd_least >= 250, (all_odd, odd_least)


# Bounded-exhaustive scopes: (vertices, edges, priorities, games), at most.
# Together they take about 4 s (2 cores, CPython 3.11); every game on 3
# vertices and 4 edges under priorities {0, 1, 2} is 52,544 games, 7 s.
SMALL_GAME_SCOPES = [(3, 4, (1, 2), 11472), (2, 5, (0, 1, 2), 21170)]


@pytest.mark.parametrize("vertices, edges, priorities, games",
                         SMALL_GAME_SCOPES, ids=["3v-4e-p12", "2v-5e-p012"])
def test_every_small_parity_game_matches_brute_force(vertices, edges,
                                                     priorities, games):
    """Every parity game of the scope, once up to renaming
    (`families.small_parity_games`): the regions are the brute force's
    and the certificate check finds no problem.  Each scope meets every
    least priority it allows, an odd one among them."""
    least = set()
    count = 0
    for game in small_parity_games(vertices, edges, priorities):
        ts, prio = game.ts, game.condition.priorities
        sol = solve_parity_game(game)
        witness = ts.edges, ts.owners, prio
        assert sol.regions == brute_force_parity_regions(
            ts, ts.owners, lambda e: prio[e.id]), witness
        assert verify_parity_solution(game, sol) == [], witness
        least.add(min(prio.values()))
        count += 1
    assert count == games
    assert least == set(priorities)


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_games_match_brute_force(n):
    ts, cond = cycle_game(n)
    game = Game(ts, cond)
    sol = solve_parity_game(game)
    want = brute_force_parity_regions(
        ts, ts.owners, lambda e: cond.priorities[e.id])
    assert sol.regions == want
    assert verify_parity_solution(game, sol) == []



def test_self_loops_that_lose_for_their_owner():
    """Self-loops of random priority at random vertices, of both owners
    and both parities, some parallel: the solver leaves the ones that
    lose for their owner off its board while the vertex has another move,
    and the regions are still the brute force's and the certificate, which
    reads every edge, is clean."""
    rng = random.Random(39)
    kinds = set()
    parallel = losing = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        vs = ["v%d" % i for i in range(n)]
        owners = {v: rng.choice(["Eve", "Adam"]) for v in vs}
        edges = [("e%d_%d" % (i, j), v, rng.choice(vs))
                 for i, v in enumerate(vs) for j in range(rng.randint(1, 2))]
        prios = {e[0]: rng.randrange(5) for e in edges}
        at = [rng.choice(vs) for _ in range(rng.randint(1, 3))]
        for j, v in enumerate(at):
            edges.append(("s%d" % j, v, v))
            prios["s%d" % j] = d = rng.randrange(5)
            kinds.add((owners[v], d % 2))
            losing += (d % 2 == 0) != (owners[v] == "Eve")
        parallel += len(set(at)) < len(at)
        _certified(edges, owners, prios)
    assert len(kinds) == 4
    assert parallel >= 20, parallel
    assert losing >= 100, losing


@pytest.mark.parametrize("owner,loser", [("Eve", "Adam"), ("Adam", "Eve")])
def test_two_losing_self_loops_keep_one(owner, loser):
    """p's only moves are two self-loops that lose for its owner: one
    stays on the board, so p still has a move, and the opponent wins p."""
    d = 0 if owner == "Adam" else 1
    sol = _certified(
        [("pa", "p", "p"), ("pb", "p", "p"), ("qp", "q", "p"),
         ("qq", "q", "q")],
        {"p": owner, "q": "Eve"}, {"pa": d, "pb": d + 2, "qp": 0, "qq": 2})
    assert sol.regions == {"p": loser, "q": "Eve"}


def test_self_loops_that_win_for_their_owner():
    """Self-loops of random priority at random vertices, of both owners
    and both parities, at least one that wins for its owner in each game:
    each such vertex goes to its owner, whose move there is its first
    winning loop by edge index, and the regions are still the brute
    force's and the certificate is clean."""
    rng = random.Random(40)
    kinds = set()
    mixed = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        vs = ["v%d" % i for i in range(n)]
        owners = {v: rng.choice(["Eve", "Adam"]) for v in vs}
        edges = [("e%d_%d" % (i, j), v, rng.choice(vs))
                 for i, v in enumerate(vs) for j in range(rng.randint(1, 2))]
        prios = {e[0]: rng.randrange(5) for e in edges}
        for j in range(rng.randint(1, 3)):
            v = rng.choice(vs)
            d = rng.randrange(5)
            if j == 0 and (d % 2 == 0) != (owners[v] == "Eve"):
                d += 1      # the first loop wins for its owner
            edges.append(("s%d" % j, v, v))
            prios["s%d" % j] = d
            kinds.add((owners[v], d % 2))
        sol = _certified(edges, owners, prios)
        wins = {}
        parities = {}
        for e, v, w in edges:
            if v == w:
                parities.setdefault(v, set()).add(prios[e] % 2)
                if (prios[e] % 2 == 0) == (owners[v] == "Eve"):
                    wins.setdefault(v, e)
        for v, e in wins.items():
            assert sol.regions[v] == owners[v]
            assert sol.strategies[owners[v]][v] == e
        mixed += any(len(p) > 1 for p in parities.values())
    assert len(kinds) == 4
    assert mixed >= 20, mixed


@pytest.mark.parametrize("owner", ["Eve", "Adam"])
def test_winning_and_losing_self_loop_at_one_vertex(owner):
    """p's first loop pa loses for its owner and its last, pc, wins: pa
    leaves the board and pc settles p before any frame, where the first
    level's target, pb, pc and qp, would give p the move pb."""
    d = 0 if owner == "Eve" else 1
    sol = _certified(
        [("pa", "p", "p"), ("pb", "p", "q"), ("pc", "p", "p"),
         ("qp", "q", "p")],
        {"p": owner, "q": owner}, {"pa": d + 1, "pb": d, "pc": d + 4,
                                   "qp": d})
    assert sol.regions == {"p": owner, "q": owner}
    assert sol.strategies[owner] == {"p": "pc", "q": "qp"}


def test_two_winning_self_loops_take_the_first():
    """Both of Adam's loops at p win for him: his move is pa, of the lower
    edge index, where Zielonka's first level would take pb, of the lower
    priority."""
    sol = _certified(
        [("pa", "p", "p"), ("pb", "p", "p"), ("qp", "q", "p")],
        {"p": "Adam", "q": "Eve"}, {"pa": 3, "pb": 1, "qp": 2})
    assert sol.regions == {"p": "Adam", "q": "Adam"}
    assert sol.strategies == {"Eve": {}, "Adam": {"p": "pa"}}


def test_game_settled_by_winning_self_loops():
    """Every vertex lies in Eve's attractor to her loop az or in Adam's to
    his loop cz, so no frame runs: a and c take their loops, where the
    frames would give Eve ab and Adam cd, the lower edges of their
    least levels."""
    sol = _certified(
        [("ab", "a", "b"), ("az", "a", "a"), ("ba", "b", "a"),
         ("cd", "c", "d"), ("cz", "c", "c"), ("dc", "d", "c"),
         ("eb", "e", "b"), ("fd", "f", "d")],
        {"a": "Eve", "b": "Eve", "c": "Adam", "d": "Adam", "e": "Adam",
         "f": "Eve"},
        {"ab": 0, "az": 2, "ba": 0, "cd": 1, "cz": 3, "dc": 1, "eb": 4,
         "fd": 4})
    assert sol.regions == {"a": "Eve", "b": "Eve", "c": "Adam",
                           "d": "Adam", "e": "Eve", "f": "Adam"}
    assert sol.strategies == {"Eve": {"a": "az", "b": "ba"},
                              "Adam": {"c": "cz", "d": "dc"}}


def test_certificate_checks_a_removed_self_loop():
    """The solver's board has no self-loop at v1 of cycle_game(20), which
    loses for Eve, but the certificate reads every out-edge: a strategy
    that takes it is refused."""
    game = Game(*cycle_game(20))
    sol = solve_parity_game(game)
    sol.strategies["Eve"]["v1"] = "s1"
    assert verify_parity_solution(game, sol) == [
        "cycle with minimum priority 21 inside the Eve region"]


@pytest.mark.parametrize("n", [40, 41, 120, 121])
def test_cycle_game_regions_in_closed_form(n):
    """At even n every self-loop loses for its owner and leaves the board,
    so the game is the cycle, whose least priority 0 gives Eve every
    vertex; at odd n every self-loop wins for its owner, which keeps each
    vertex by its loop before any frame runs."""
    ts, cond = cycle_game(n)
    game = Game(ts, cond)
    sol = solve_parity_game(game)
    assert sol.regions == (dict.fromkeys(ts.vertices, "Eve") if n % 2 == 0
                           else ts.owners)
    assert verify_parity_solution(game, sol) == []

def test_deep_path_game_in_process():
    """The path's priorities are all even, one run, so one frame and its
    attractor solve all 2000 vertices."""
    game = Game(*path_game(2000))
    sol = solve_parity_game(game)
    assert set(sol.regions.values()) == {"Eve"}
    assert verify_parity_solution(game, sol) == []


def test_deep_alternating_path_in_process():
    """Priority i on edge i: the decomposition nests one subgame per
    priority, and 2000 of them are far beyond the default recursion
    limit.  Adam wins through the odd self-loop at the end."""
    game = Game(*alternating_path_game(2000))
    sol = solve_parity_game(game)
    assert set(sol.regions.values()) == {"Adam"}
    assert verify_parity_solution(game, sol) == []


def test_lifted_cycle_game_keeps_the_cycle_regions():
    """Each w_i lies on a two-cycle with its v_i whose both edges carry
    the priority of v_i's old self-loop, and has v_i's owner, so the
    lifted game's regions on the v_i are the cycle game's, and each w_i
    goes with its v_i."""
    for n in [*range(1, 30), 40, 41]:
        lifted = solve_parity_game(Game(*lifted_cycle_game(n)))
        plain = solve_parity_game(Game(*cycle_game(n)))
        on_cycle = {v: lifted.regions[v] for v in plain.regions}
        assert on_cycle == plain.regions, n
        assert all(lifted.regions["w%d" % i] == lifted.regions["v%d" % i]
                   for i in range(n)), n


def _all_eve(game):
    return dict.fromkeys(game.ts.vertices, "Eve")


# (family, n, the regions it must have or None, a bound in seconds on
# building, solving and checking the game).  At even n every self-loop of
# the cycle leaves the solver's board, so one frame and its attractor
# solve it; plain Zielonka, at 2x per two more vertices, would take
# minutes at n = 40.  At odd n every self-loop wins for its owner, so the
# owners' attractors to their loops settle every vertex and no frame runs:
# walked level by level, the odd sizes grow about 4x per doubling and
# n = 4001 would take minutes.  With no self-loop left to settle, lifted/40
# reaches the second recursive call level after level and meets the same
# subgames again and again: with the memo it takes about 20 ms, and solved
# afresh at each meeting over 90 s on 2 cores.  The path is one run of even
# priorities, so one frame and one attractor, linear in its length.  The
# bound is read when the solve returns: a row over it fails when it ends,
# or at conftest's TIME_LIMIT_S.
FAMILY_SOLVES = [
    (cycle_game, 40, None, 60),
    (cycle_game, 4001, lambda game: game.ts.owners, 10),
    (lifted_cycle_game, 40, _all_eve, 10),
    (path_game, 40000, _all_eve, 30),
]


@pytest.mark.parametrize(
    "family, n, regions, seconds", FAMILY_SOLVES,
    ids=["cycle-40", "cycle-4001", "lifted-40", "path-40000"])
def test_family_solves_within_its_bound(family, n, regions, seconds):
    t0 = time.perf_counter()
    game = Game(*family(n))
    sol = solve_parity_game(game)
    assert verify_parity_solution(game, sol) == []
    assert time.perf_counter() - t0 < seconds
    if regions is not None:
        assert sol.regions == regions(game)


def _ordered(sol):
    return (list(sol.regions.items()),
            [(p, list(s.items())) for p, s in sol.strategies.items()])


@pytest.mark.parametrize("make", [lambda n=n: cycle_game(n)
                                  for n in range(8, 17)]
                         + [lambda: path_game(50)],
                         ids=["cycle%d" % n for n in range(8, 17)]
                         + ["path50"])
def test_families_match_set_based_walk(make):
    game = Game(*make())
    want, _, _ = set_based_parity_solution(game)
    assert _ordered(solve_parity_game(game)) == _ordered(want)


def test_random_games_match_set_based_walk():
    """Regions and strategies, dict order included, are those of the
    set-based walk, also where the second recursive call and its memo
    run, and where the memo meets one vertex set under two floors."""
    rng = random.Random(12)
    second = two_floors = 0
    games = [_random_game(rng) for _ in range(300)]
    games += [_random_game(rng, reading) for reading in ("colours", "edges")
              for _ in range(100)]
    # the benchmark's shape: 500 vertices, out-degree 3, 20 priorities
    games += [_random_game(rng, reading, (500, 3, 20))
              for reading in ("ids", "colours", "edges")]
    for game in games:
        want, calls, twice = set_based_parity_solution(game)
        assert _ordered(solve_parity_game(game)) == _ordered(want)
        second += calls > 0
        two_floors += twice
    assert second >= 50, second
    assert two_floors >= 20, two_floors


def _copy(sol):
    return ParitySolution(dict(sol.regions),
                          {p: dict(s) for p, s in sol.strategies.items()})


@pytest.mark.parametrize("make", [lambda: Game(*cycle_game(12)),
                                  small_parity_game],
                         ids=["cycle12", "small"])
def test_solutions_share_no_strategy_maps(make):
    game = make()
    first = solve_parity_game(game)
    second = solve_parity_game(game)
    kept = _copy(second)
    for moves in first.strategies.values():
        for v in list(moves):
            moves[v] = "tampered"
        moves["extra"] = "tampered"
    assert second == kept
    assert second == solve_parity_game(game)
    assert verify_parity_solution(game, second) == []


def test_reused_subgames_bring_no_foreign_moves():
    """Each vertex has one move, so no frame brings a strategy map of its
    own that a parent could extend: every key is a vertex that its owner
    wins, Eve gets no move at v11, which Adam wins, and each player's
    keys follow the system's order.  Since the self-loops that lose for
    their owner leave the board, e7_1 among them, this game no longer
    meets a subgame twice.  The hazard that remains, a reused subgame
    whose moves were not written back, is pinned by
    `test_reuse_writes_its_moves_back`."""
    succ = {0: [6, 4], 1: [9, 8], 2: [4, 6], 3: [0, 9], 4: [6, 6],
            5: [0, 11, 0], 6: [4], 7: [0, 7], 8: [5, 11], 9: [8, 3],
            10: [9, 5], 11: [1, 1], 12: [4, 5]}
    prios = [6, 2, 0, 1, 6, 4, 1, 4, 3, 5, 4, 2, 3, 2, 1, 5, 6, 2, 5, 3,
             6, 5, 2, 5, 3, 1]   # edge priorities, in the order of `edges`
    edges = [("e%d_%d" % (v, j), "v%d" % v, "v%d" % w)
             for v, ws in succ.items() for j, w in enumerate(ws)]
    adam = {1, 2, 3, 4, 9, 12}
    ts = TransitionSystem(
        ["v%d" % v for v in succ], edges, ["v0"],
        owners={"v%d" % v: "Adam" if v in adam else "Eve" for v in succ})
    game = Game(ts, ParityCondition(
        {e[0]: d for e, d in zip(edges, prios)}))
    sol = solve_parity_game(game)
    for player, moves in sol.strategies.items():
        for v in moves:
            assert sol.regions[v] == player == ts.owners[v]
    assert list(sol.strategies["Eve"]) == ["v0", "v10", "v5", "v6", "v7",
                                           "v8"]
    assert list(sol.strategies["Adam"]) == ["v1", "v3", "v9"]


def test_reuse_writes_its_moves_back():
    """The second recursive call meets one subgame twice.  Between its
    solve and its reuse other frames run over some of its vertices and
    write their own moves there, so the reuse has to write the subgame's
    moves back: left as they were, Eve's moves make a cycle of minimum
    priority 1 inside her region."""
    table = [("e0_2", "v0", "v5", 9), ("e1_0", "v1", "v26", 3),
             ("e4_1", "v4", "v10", 8), ("e5_0", "v5", "v12", 10),
             ("e8_0", "v8", "v13", 6), ("e9_0", "v9", "v25", 4),
             ("e10_0", "v10", "v25", 2), ("e12_0", "v12", "v13", 1),
             ("e13_0", "v13", "v8", 10), ("e13_1", "v13", "v4", 7),
             ("e17_1", "v17", "v12", 3), ("e23_1", "v23", "v4", 0),
             ("e24_0", "v24", "v17", 6), ("e24_1", "v24", "v9", 3),
             ("e25_1", "v25", "v24", 6), ("e26_2", "v26", "v1", 8)]
    adam = {"v1", "v8", "v9", "v17", "v25", "v26"}
    owners = {v: "Adam" if v in adam else "Eve"
              for row in table for v in row[1:3]}
    sol = _certified([row[:3] for row in table], owners,
                     {row[0]: row[3] for row in table})
    assert [v for v, p in sol.regions.items() if p == "Adam"] == [
        "v1", "v26"]
    assert sol.strategies == {
        "Eve": {"v0": "e0_2", "v4": "e4_1", "v5": "e5_0", "v10": "e10_0",
                "v12": "e12_0", "v13": "e13_0", "v23": "e23_1",
                "v24": "e24_0"},
        "Adam": {"v1": "e1_0", "v26": "e26_2"}}


def test_memo_keeps_floors_apart():
    """The second recursive call meets one vertex set under two floors,
    and the lower floor leaves an edge of priority 1 in it.  Keyed by the
    vertex set alone, the memo would hand one subgame's solution to the
    other and give v0, v2, v3, v7 and v8 to Adam, whose region Eve's
    edge e8_0 then escapes.  The loops that win for their owner go
    through v9, v10 and v11: a self-loop there would settle its vertex
    and its owner's attractor before any frame, and the memo would not
    be reached."""
    table = [("e0_0", "v0", "v8", 5), ("e1_0", "v1", "v9", 2),
             ("e1_1", "v1", "v4", 4), ("e2_0", "v2", "v0", 8),
             ("e3_0", "v3", "v8", 8), ("e3_1", "v3", "v2", 0),
             ("e3_2", "v3", "v1", 7), ("e4_0", "v4", "v10", 7),
             ("e4_1", "v4", "v5", 2), ("e4_2", "v4", "v11", 3),
             ("e5_0", "v5", "v1", 6), ("e6_0", "v6", "v4", 7),
             ("e7_0", "v7", "v0", 5), ("e7_1", "v7", "v7", 6),
             ("e8_0", "v8", "v1", 1), ("e8_1", "v8", "v3", 7),
             ("e8_2", "v8", "v4", 2), ("e9_0", "v9", "v1", 2),
             ("e10_0", "v10", "v4", 7), ("e11_0", "v11", "v4", 3)]
    adam = {"v2", "v3", "v4", "v6", "v7", "v10", "v11"}
    owners = {"v%d" % i: "Adam" if "v%d" % i in adam else "Eve"
              for i in range(12)}
    edges = [row[:3] for row in table]
    prios = {row[0]: row[3] for row in table}
    sol = _certified(edges, owners, prios)
    game = Game(TransitionSystem(sorted(owners), edges, ["v0"],
                                 owners=owners), ParityCondition(prios))
    assert set_based_parity_solution(game)[2] == 1
    assert [v for v, p in sol.regions.items() if p == "Adam"] == [
        "v10", "v11", "v4", "v6"]


def _random_game(rng, reading="ids", shape=None, values=None, most=25):
    """At most `most` vertices, 1-3 out-edges each, 1-9 priorities, or the
    (vertices, out-degree, priorities) of `shape`; the priorities are
    drawn from `values` when it is given.  The priorities name
    the edge ids ("ids"), the edge ids through a condition over edges
    ("edges"), or colours ("colours"): a partial colour map whose colours
    repeat, one of them named like an edge's id."""
    n = shape[0] if shape else rng.randint(1, most)
    vs = ["v%d" % i for i in range(n)]
    edges = [("e%d_%d" % (i, j), v, rng.choice(vs)) for i, v in enumerate(vs)
             for j in range(shape[1] if shape else rng.randint(1, 3))]
    owners = {v: rng.choice(["Eve", "Adam"]) for v in vs}
    k = shape[2] if shape else rng.randint(1, 9)
    ids = [e[0] for e in edges]
    colours = None
    if reading == "colours":
        palette = ["k%d" % i
                   for i in range(rng.randint(1, len(ids) // 2 + 1))]
        palette.append(rng.choice(ids))
        colours = {eid: rng.choice(palette) for eid in ids
                   if rng.random() < 0.7}
        ids = sorted({colours.get(eid, eid) for eid in ids})
    ts = TransitionSystem(vs, edges, [vs[0]], owners=owners, colours=colours)
    draw = rng.choice if values else rng.randrange
    cond = ParityCondition({c: draw(values or k) for c in ids})
    return Game(ts, _over(cond, "edges") if reading == "edges" else cond)


def _tampered(rng, game, sol):
    """The solution with some regions flipped and some strategy moves
    rewired or removed."""
    sol = _copy(sol)
    ts = game.ts
    for v in ts.vertices:
        r = rng.random()
        if r < 0.15:
            sol.regions[v] = "Adam" if sol.regions[v] == "Eve" else "Eve"
        elif r < 0.35:
            sol.strategies[ts.owners[v]][v] = rng.choice(ts.out(v)).id
        elif r < 0.45:
            sol.strategies[ts.owners[v]].pop(v, None)
    return sol


def _problems_seen_with_naive_check(rng, count, shape=None):
    """Solve `count` random games, tamper with two in three, require
    the peeling check to report exactly what the naive check reports, and
    count the certificates that are clean or show each kind of problem."""
    seen = {"clean": 0, "cycle": 0, "move": 0, "escape": 0}
    for i in range(count):
        game = _random_game(rng, shape=shape)
        sol = solve_parity_game(game)
        if i % 3:
            sol = _tampered(rng, game, sol)
        got = verify_parity_solution(game, sol)
        assert got == naive_certificate_problems(game, sol)
        seen["clean"] += not got
        seen["cycle"] += any(p.startswith("cycle with minimum priority")
                             for p in got)
        seen["move"] += any(" has no move at " in p for p in got)
        seen["escape"] += any(" escapes the " in p for p in got)
    return seen


def test_verify_matches_naive_certificate_check():
    """The peeling check reports exactly what one SCC pass per losing
    priority reports, on solved and on tampered certificates."""
    seen = _problems_seen_with_naive_check(random.Random(8), 600)
    assert all(count >= 20 for count in seen.values()), seen


def test_verify_matches_naive_check_at_benchmark_shape(monkeypatch):
    """The same on games of the benchmark's shape (500 vertices,
    out-degree 3, 20 priorities), where most allowed edges lie on no
    cycle, so the certificate's first splits run `core._components`' trim
    (81 of the 160 splits have more vertices than its gate)."""
    sizes = []

    def counted(edges):
        sizes.append(len({v for e in edges for v in (e.source, e.target)}))
        return _components(edges)

    monkeypatch.setattr(acdkit.games, "_components", counted)
    seen = _problems_seen_with_naive_check(random.Random(15), 20,
                                           (500, 3, 20))
    assert all(count >= 3 for count in seen.values()), seen
    assert sum(n > _TRIM_ABOVE for n in sizes) >= 40, sizes


def test_extra_strategy_entries_change_nothing():
    """Strategy entries at vertices of the other owner, at vertices of the
    other region and at unknown vertices, and a map for no player, are not
    read: both checks report the same with them as without, on solved
    and on tampered certificates.  Some extra moves name no edge or are
    unhashable."""
    rng = random.Random(10)
    seen = {"owner": 0, "region": 0, "unknown": 0}
    for i in range(300):
        game = _random_game(rng)
        sol = solve_parity_game(game)
        if i % 2:
            sol = _tampered(rng, game, sol)
        want = verify_parity_solution(game, sol)
        assert want == naive_certificate_problems(game, sol)
        ts = game.ts
        extra = _copy(sol)
        for v in ts.vertices:
            move = rng.choice([rng.choice(ts.edges).id, "zz", 7, ["a"]])
            player = rng.choice(["Eve", "Adam"])
            if ts.owners[v] != player:
                extra.strategies[player][v] = move
                seen["owner"] += 1
            elif sol.regions[v] != player:
                extra.strategies[player][v] = move
                seen["region"] += 1
        for player in ("Eve", "Adam", "Bob"):
            extra.strategies.setdefault(player, {})["v99"] = "zz"
            seen["unknown"] += 1
        assert verify_parity_solution(game, extra) == want
        assert naive_certificate_problems(game, extra) == want
    assert all(count >= 300 for count in seen.values()), seen


def _pq_game():
    """Eve owns p and q; p has a self-loop a of priority 1 and q a
    self-loop b of priority 0, so Adam wins p and Eve wins q."""
    ts = TransitionSystem(["p", "q"], [("a", "p", "p"), ("b", "q", "q")],
                          ["p"], owners={"p": "Eve", "q": "Eve"})
    return Game(ts, ParityCondition({"a": 1, "b": 0}))


@pytest.mark.parametrize("regions,strategies,want", [
    ({"p": "Eve", "q": "Eve"}, {"Eve": {"p": "b", "q": "b"}},
     ["Eve's move 'b' at 'p' is not an out-edge of it"]),
    ({"p": "Eve", "q": "Eve"}, {"Eve": {"p": "zz", "q": "b"}},
     ["Eve's move 'zz' at 'p' is not an out-edge of it"]),
    ({"p": "Eve", "q": "Eve"}, {"Eve": {"p": 7, "q": "b"}},
     ["Eve's move 7 at 'p' is not an out-edge of it"]),
    ({"p": "Eve", "q": "Eve"}, {"Eve": {"p": ["a"], "q": "b"}},
     ["Eve's move ['a'] at 'p' is not an out-edge of it"]),
    ({}, {"Eve": {}}, ["vertex 'p' is in no region",
                       "vertex 'q' is in no region"]),
    ({"p": "Bob", "q": "Eve"}, {"Eve": {"q": "b"}},
     ["region of 'p' is 'Bob', not Eve or Adam"]),
    ({"r": "Eve", "p": "Adam", "q": "Eve"}, {"Eve": {"q": "b"}},
     ["region entry for unknown vertex 'r'"]),
    ({"p": "Adam", "q": "Eve"}, {"Adam": {}}, ["Eve has no move at 'q'"]),
    ({"p": "Adam", "q": "Eve"}, {"Eve": None}, ["Eve has no move at 'q'"]),
    ({"p": "Adam", "q": "Eve"}, None, ["Eve has no move at 'q'"]),
    ({"p": "Adam", "q": "Eve"}, {"Eve": ["b"]}, ["Eve has no move at 'q'"]),
    (None, {"Eve": {"q": "b"}}, ["vertex 'p' is in no region",
                                 "vertex 'q' is in no region"]),
], ids=["foreign-move", "unknown-edge", "int-move", "unhashable-move",
        "no-regions", "bad-player", "unknown-vertex", "no-strategy-map",
        "strategy-map-none", "strategies-none", "strategy-map-list",
        "regions-none"])
def test_verify_reports_malformed_certificates(regions, strategies, want):
    """A region or strategy container that is not a dict reads as
    empty."""
    game = _pq_game()
    sol = solve_parity_game(game)
    assert sol.regions == {"p": "Adam", "q": "Eve"}
    assert verify_parity_solution(game, sol) == []
    bad = ParitySolution(regions, strategies)
    assert verify_parity_solution(game, bad) == want
    assert naive_certificate_problems(game, bad) == want


def test_verify_matches_naive_check_on_malformed_certificates():
    """Moves along foreign or unknown edges, players without a strategy
    map, vertices missing from the regions, region values that name no
    player and entries for unknown vertices are reported alike by both
    checks."""
    rng = random.Random(9)
    seen = {"move": 0, "none": 0, "value": 0, "unknown": 0}
    for i in range(300):
        game = _random_game(rng)
        sol = _copy(solve_parity_game(game))
        ts = game.ts
        for v in ts.vertices:
            r = rng.random()
            if r < 0.15:
                sol.strategies[ts.owners[v]][v] = rng.choice(
                    [rng.choice(ts.edges).id, "zz"])
            elif r < 0.2:
                del sol.regions[v]
            elif r < 0.25:
                sol.regions[v] = "Bob"
        if rng.random() < 0.3:
            sol.regions["v99"] = rng.choice(["Eve", "Adam"])
        if i % 10 == 0:   # a solution with no strategy map for a player
            del sol.strategies[("Eve", "Adam")[i // 10 % 2]]
        got = verify_parity_solution(game, sol)
        assert got == naive_certificate_problems(game, sol)
        seen["move"] += any(" is not an out-edge of it" in p for p in got)
        seen["none"] += any(p.endswith(" is in no region") for p in got)
        seen["value"] += any(p.endswith(", not Eve or Adam") for p in got)
        seen["unknown"] += any(p.startswith("region entry for unknown")
                               for p in got)
    assert all(count >= 20 for count in seen.values()), seen


def test_muller_one_player():
    # Eve owns everything; she wins exactly where she can reach and stay
    # in an accepting loop
    ts = TransitionSystem(
        ["p", "q"],
        [("a", "p", "p"), ("b", "p", "q"), ("c", "q", "q")],
        ["p"], owners={"p": "Eve", "q": "Eve"})
    sol = solve_muller_game(Game(ts, MullerCondition([{"c"}])))
    assert sol.regions == {"p": "Eve", "q": "Eve"}
    sol = solve_muller_game(Game(ts, MullerCondition([{"a"}])))
    assert sol.regions == {"p": "Eve", "q": "Adam"}


def test_muller_sixstate_game(sixstate):
    ts, cond = sixstate
    owners = {"q0": "Eve", "q1": "Adam", "q2": "Eve",
              "q3": "Adam", "q4": "Eve", "q5": "Adam"}
    game_ts = TransitionSystem(ts.vertices,
                               [(e.id, e.source, e.target) for e in ts.edges],
                               ts.initial, owners=owners)
    sol = solve_muller_game(Game(game_ts, cond))
    # cross-check through the transform with the brute-force oracle
    tsys = sol.transform.system
    prios = sol.transform.condition.priorities
    want = brute_force_parity_regions(
        tsys, tsys.owners, lambda e: prios[e.id])
    for q, copies in sol.transform.copies.items():
        for c in copies:
            assert want[c] == sol.regions[q]


def test_muller_matches_brute_force_random():
    rng = random.Random(53)
    done = 0
    while done < 12:
        ts, cond = random_muller_system(rng, max_vertices=4, max_edges=6,
                                        with_owners=True)
        game = Game(ts, cond)
        sol = solve_muller_game(game)
        tsys = sol.transform.system
        if len([v for v in tsys.vertices if tsys.owners[v] == "Eve"]) > 7:
            continue
        prios = sol.transform.condition.priorities
        want = brute_force_parity_regions(
            tsys, tsys.owners, lambda e: prios[e.id])
        assert sol.parity_solution.regions == want
        done += 1


def test_winner_names_an_unknown_vertex():
    """`winner` of a vertex that the game lacks is an InputError naming
    it, as `TransitionSystem.out` is, for both kinds of solution."""
    parity = solve_parity_game(Game(*cycle_game(4)))
    assert parity.winner("v0") == parity.regions["v0"]
    muller = _muller_fixture_solution()
    for solution in (parity, muller):
        with pytest.raises(InputError) as err:
            solution.winner("nope")
        assert str(err.value) == "unknown vertex 'nope'"


def _muller_fixture_solution():
    doc = docfmt.parse((FIXTURES / "mullergame.json").read_text())
    return solve_muller_game(Game(doc.system, doc.condition))


def _collections_during(call):
    """The number of collector passes that start while `call()` runs,
    counted from a fresh full collection."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return len(starts)


# games whose solve allocates enough containers to set off a collection
# when the collector runs
COLLECTING_GAMES = {
    "path/1000": lambda: Game(*path_game(1000)),
    "cycle/20": lambda: Game(*cycle_game(20)),
    "random/300": lambda: _random_game(random.Random(61), shape=(300, 3, 9)),
}


@pytest.mark.parametrize("name", sorted(COLLECTING_GAMES))
def test_solve_pauses_the_collector(name):
    """No collection runs during a solve, and the caller's setting is back
    after it: on after a normal return and after the InputError of a
    condition that is not parity, off when the caller had it off."""
    game = COLLECTING_GAMES[name]()
    ts = game.ts
    muller = Game(ts, MullerCondition([[ts.edges[0].id]]))
    was = gc.isenabled()
    try:
        gc.enable()
        assert _collections_during(lambda: solve_parity_game(game)) == 0
        assert gc.isenabled()
        with pytest.raises(InputError, match="expected a parity condition"):
            solve_parity_game(muller)
        assert gc.isenabled()
        gc.disable()
        solve_parity_game(game)
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("make", [path_game, alternating_path_game,
                                  cycle_game])
def test_a_parity_solve_leaves_no_reference_cycles(make):
    """A solve frees what it allocates without the cyclic collector, so
    pausing the collector for its length (`solve_parity_game`) holds no
    memory back: a collection after it finds nothing to free."""
    for n in (1, 2, 7, 40):
        game = Game(*make(n))
        gc.collect()
        solution = solve_parity_game(game)
        assert gc.collect() == 0, n
        assert set(solution.regions) == set(game.ts.vertices)


def test_a_muller_solve_leaves_no_reference_cycles():
    """The same for a Muller game, whose parity step runs paused."""
    gc.collect()
    solution = _muller_fixture_solution()
    assert gc.collect() == 0
    assert solution.regions
