import random

import pytest

from acdkit import (Game, InputError, MullerCondition, ParityCondition,
                    TransitionSystem, solve_muller_game, solve_parity_game,
                    verify_parity_solution)
from conftest import (cycle_game, path_game, random_muller_system,
                      random_system)
from oracles import brute_force_parity_regions


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


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_games_match_brute_force(n):
    ts, cond = cycle_game(n)
    game = Game(ts, cond)
    sol = solve_parity_game(game)
    want = brute_force_parity_regions(
        ts, ts.owners, lambda e: cond.priorities[e.id])
    assert sol.regions == want
    assert verify_parity_solution(game, sol) == []


def test_deep_path_game_in_process():
    """The decomposition nests one subgame per priority; 2000 of them
    are far beyond the default recursion limit."""
    game = Game(*path_game(2000))
    sol = solve_parity_game(game)
    assert set(sol.regions.values()) == {"Eve"}
    assert verify_parity_solution(game, sol) == []


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
