"""Metamorphic relations: answers compared with the library's own answers
on a changed input, so they need no second implementation.

- Renaming and reordering the vertices, edges and colours of a system
  changes no answer beyond the renaming: `acd_stats`, `classify_acd`'s
  flags, interval and `weak_k`, the vertices it names, the leaves per
  vertex, the transform's copies per vertex, and the parity and Muller
  regions.
- Subdividing about half the edges, u -> x into u -> w -> x with both
  halves keeping the edge's colour and w owned by u's owner, keeps every
  loop's colour set, so `acd_stats`' interval, tag and tree heights,
  `classify_acd`'s flags, the leaves and the offending mark of each
  original vertex and the regions on the original vertices.  Conditions
  over edges name the edge ids, which a subdivision changes, so they are
  left out.
- Parallel copies of about half the edges, each with its edge's colour,
  add no loop colour set and no flipped subloop, so every answer of the
  renaming relation is unchanged, and so is each vertex's subtree: its
  root status, height and leaves.
- A disjoint union of two systems, the second renamed apart and the
  condition the two conditions' union, holds each loop of either one
  with its status: the tree heights, as multisets, the transform's
  vertex and edge counts and the regions add.
- Duality for parity games: swapping the owners and adding 1 to every
  priority swaps every vertex's winner.
- Duality for Muller games: swapping the owners and reading the
  condition as the Muller family of the key sets it rejects, its
  complement over the colour set, swaps every vertex's winner.

Each relation runs over the fixture documents or over small seeded
random systems of all six condition kinds, or both, read through the edge
ids, through a colour map and, for the renaming, the union and the Muller
duality, through a condition over edges.  The relation on cost, that a
subdivision adds O(m) solver frames, waits for counters inside the
engines (ROADMAP items 25 and 23).
"""

import itertools
import random

import pytest

from acdkit import (BuchiCondition, CoBuchiCondition, Game, InputError,
                    MullerCondition, ParityCondition, RabinCondition,
                    StreettCondition, TransitionSystem, acd_stats,
                    acd_transform, build_acd, classify_acd, docfmt,
                    solve_muller_game, solve_parity_game, validate)
from acdkit.core import PLAYERS, _over
from conftest import (FIXTURES, cell, grid, random_system, recoloured,
                      sampled_cases)

READINGS = ("ids", "colours", "edges")


def _fixtures():
    """(name, system, condition) of each fixture document that parses and
    names a condition, a system without owners given seeded ones, so that
    its regions are compared too."""
    rng = random.Random(5)
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            doc = docfmt.parse(path.read_text(encoding="utf-8"))
        except InputError:
            continue
        if doc.condition is None or validate(doc.system, doc.condition):
            continue
        ts = doc.system
        owners = ts.owners or {v: rng.choice(PLAYERS) for v in ts.vertices}
        out.append((path.stem, TransitionSystem(
            ts.vertices, ts.edges, ts.initial, owners=owners,
            colours=ts._colours or None), doc.condition))
    return out


def _random_systems(seed, count, readings):
    """`count` small random games (5 vertices and 8 edges at most) per
    cell of the case grid over the readings: a recolouring draws from a
    palette of about half the edge count."""
    def palette(rng, ts):
        most = rng.randint(1, len(ts.edges) // 2 + 1)
        return ["k%d" % j for j in range(most)]
    cases = sampled_cases(random.Random(seed), count * 6 * len(readings),
                          palette, readings, max_vertices=5, max_edges=8,
                          with_owners=True)
    out = [("%s/%s/%d" % (*cell(ts, cond), i), ts, cond)
           for i, (ts, cond) in enumerate(cases)]
    assert {cell(ts, cond) for _, ts, cond in out} == grid(readings)
    return out


def _fresh(rng, names, prefix):
    """A bijection from `names` to fresh names in a shuffled order."""
    names = sorted(set(names))
    ids = list(range(len(names)))
    rng.shuffle(ids)
    return {old: "%s%d" % (prefix, i) for old, i in zip(names, ids)}


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _renamed_condition(rng, cond, name):
    """`cond` with every colour c named `name[c]`, its sets, pairs and
    priorities listed in a shuffled order, and its `over` kept."""
    def rename(colours):
        return _shuffled(rng, (name[c] for c in colours))
    if cond.kind == "muller":
        out = MullerCondition(_shuffled(rng, map(rename, cond.family)))
    elif cond.kind == "parity":
        out = ParityCondition(dict(_shuffled(
            rng, ((name[c], p) for c, p in cond.priorities.items()))))
    elif cond.kind in ("buchi", "cobuchi"):
        kind = BuchiCondition if cond.kind == "buchi" else CoBuchiCondition
        out = kind(rename(cond.colours))
    else:
        kind = RabinCondition if cond.kind == "rabin" else StreettCondition
        out = kind(_shuffled(rng, ((rename(e), rename(f))
                                   for e, f in cond.pairs)))
    return _over(out, cond.over)


def _renamed(rng, ts, cond):
    """An isomorphic copy of the game (ts, cond): fresh vertex, edge and
    colour names, every list in a shuffled order.  Returns the copy and
    the vertex map."""
    vmap = _fresh(rng, ts.vertices, "V")
    emap = _fresh(rng, [e.id for e in ts.edges], "E")
    colours = None
    cmap = emap     # without a colour map the colours are the edge ids
    if ts._colours:
        cmap = _fresh(rng, ts.colour_set(), "C")
        colours = {emap[e.id]: cmap[ts.colour(e.id)]
                   for e in _shuffled(rng, ts.edges)}
    system = TransitionSystem(
        _shuffled(rng, map(vmap.get, ts.vertices)),
        _shuffled(rng, ((emap[e.id], vmap[e.source], vmap[e.target])
                        for e in ts.edges)),
        [vmap[v] for v in ts.initial],
        owners={vmap[v]: p for v, p in ts.owners.items()},
        colours=colours)
    name = emap if cond.over == "edges" else cmap
    return (system, _renamed_condition(rng, cond, name)), vmap


def _subdivided(rng, ts):
    """`ts` with about half its edges u -> x replaced by u -> w -> x, where
    w is fresh and owned by u's owner and both halves keep the edge's
    colour, an edge id with no colour map.  Returns the system and its
    count of subdivided edges."""
    vertices, owners = list(ts.vertices), dict(ts.owners)
    edges, colours = [], {}
    for e in ts.edges:
        if rng.random() < 0.5:
            edges.append((e.id, e.source, e.target))
            colours[e.id] = ts.colour(e.id)
            continue
        w = "w~" + e.id
        vertices.append(w)
        owners[w] = ts.owners[e.source]
        edges += [(e.id + "~1", e.source, w), (e.id + "~2", w, e.target)]
        colours[e.id + "~1"] = colours[e.id + "~2"] = ts.colour(e.id)
    split = len(vertices) - len(ts.vertices)
    return TransitionSystem(vertices, edges, ts.initial, owners=owners,
                            colours=colours), split


def _answers(ts, cond):
    """The answers the relations compare; the per-vertex ones are dicts
    over the system's vertices."""
    acd = build_acd(ts, cond)
    stats = acd_stats(acd)
    report = classify_acd(acd)
    copies = acd_transform(ts, cond).copies
    game = Game(ts, cond)
    return {
        "stats": (stats["size"], stats["interval"], stats["tag"]),
        # trees come in the order of their loops' edge ids
        "heights": sorted(stats["tree_heights"]),
        "flags": (report.rabin_acd, report.streett_acd, report.parity_acd,
                  report.interval, report.weak_k),
        "offending": {v: v in report.offending for v in ts.vertices},
        "leaves": {v: len(acd.subtree_for_state(v).leaves)
                   for v in ts.vertices},
        "copies": {v: len(copies[v]) for v in ts.vertices},
        "muller": solve_muller_game(game).regions,
        "parity": solve_parity_game(game).regions
        if cond.kind == "parity" else None,
    }


PER_VERTEX = ("offending", "leaves", "copies", "muller", "parity")


def test_renaming_and_reordering_change_no_answer():
    rng = random.Random(11)
    systems = _fixtures() + _random_systems(1, 6, READINGS)
    for label, ts, cond in systems:
        want = _answers(ts, cond)
        (ts2, cond2), vmap = _renamed(rng, ts, cond)
        got = _answers(ts2, cond2)
        for field in PER_VERTEX:
            if want[field] is not None:
                want[field] = {vmap[v]: x for v, x in want[field].items()}
        assert got == want, label
    assert len(systems) >= 110, len(systems)


def test_subdividing_edges_keeps_the_decomposition_and_the_regions():
    rng = random.Random(13)
    systems = _fixtures() + _random_systems(2, 8, ("ids", "colours"))
    split = 0
    for label, ts, cond in systems:
        if cond.over == "edges":
            continue
        want = _answers(ts, cond)
        sub, count = _subdivided(rng, ts)
        got = _answers(sub, cond)
        split += count
        assert got["stats"][1:] == want["stats"][1:], label
        assert (got["heights"], got["flags"]) == \
            (want["heights"], want["flags"]), label
        for field in PER_VERTEX:
            if want[field] is not None:
                assert {v: got[field][v] for v in ts.vertices} == \
                    want[field], (label, field)
    assert len(systems) >= 100 and split >= 250, (len(systems), split)


def _dual(game):
    """The game with the owners swapped and every priority raised by 1."""
    ts = game.ts
    owners = {v: PLAYERS[1 - PLAYERS.index(p)] for v, p in ts.owners.items()}
    cond = game.condition
    dual = _over(ParityCondition({c: p + 1 for c, p in
                                  cond.priorities.items()}), cond.over)
    return Game(TransitionSystem(ts.vertices, ts.edges, ts.initial,
                                 owners=owners, colours=ts._colours or None),
                dual)


@pytest.mark.parametrize("reading", READINGS)
def test_dual_parity_game_swaps_every_winner(reading):
    rng = random.Random(17)
    games = [Game(ts, cond) for _, ts, cond in _fixtures()
             if cond.kind == "parity"] if reading == "ids" else []
    for _ in range(100):
        ts = random_system(rng, max_vertices=12, max_edges=30,
                           with_owners=True)
        ids = [e.id for e in ts.edges]
        if reading != "ids":
            ts = recoloured(rng, ts, ids)
        keys = ids if reading == "edges" else sorted(ts.colour_set())
        top = rng.randint(1, 9)
        cond = ParityCondition({c: rng.randrange(top) for c in keys})
        games.append(Game(ts, _over(cond, "edges")
                          if reading == "edges" else cond))
    for game in games:
        regions = solve_parity_game(game).regions
        swapped = {v: PLAYERS[1 - PLAYERS.index(p)]
                   for v, p in regions.items()}
        assert solve_parity_game(_dual(game)).regions == swapped
    assert len(games) >= 100


def _parallel(rng, ts):
    """`ts` with a parallel copy of about half its edges, each with its
    edge's colour, an edge id with no colour map.  Returns the system and
    its count of copies."""
    edges = [(e.id, e.source, e.target) for e in ts.edges]
    colours = {e.id: ts.colour(e.id) for e in ts.edges}
    for e in ts.edges:
        if rng.random() < 0.5:
            edges.append((e.id + "~p", e.source, e.target))
            colours[e.id + "~p"] = ts.colour(e.id)
    return TransitionSystem(ts.vertices, edges, ts.initial, owners=ts.owners,
                            colours=colours), len(edges) - len(ts.edges)


def _subtrees(ts, cond):
    """Each vertex's subtree of the decomposition: its root status,
    height and leaves."""
    acd = build_acd(ts, cond)
    return {v: (t.even, t.height, len(t.leaves)) for v in ts.vertices
            for t in [acd.subtree_for_state(v)]}


def test_parallel_copies_of_edges_keep_the_decomposition_and_the_regions():
    rng = random.Random(19)
    systems = _fixtures() + _random_systems(3, 8, ("ids", "colours"))
    copied = 0
    for label, ts, cond in systems:
        if cond.over == "edges":
            continue
        par, count = _parallel(rng, ts)
        copied += count
        assert _answers(par, cond) == _answers(ts, cond), label
        assert _subtrees(par, cond) == _subtrees(ts, cond), label
    assert len(systems) >= 100 and copied >= 250, (len(systems), copied)


def _union_condition(first, second):
    """The condition holding each condition's sets, pairs or priorities:
    over disjoint key sets it reads each loop of either system as that
    system's own condition does."""
    kind = first.kind
    if kind == "muller":
        out = MullerCondition(list(first.family) + list(second.family))
    elif kind == "parity":
        out = ParityCondition({**first.priorities, **second.priorities})
    elif kind in ("buchi", "cobuchi"):
        out = (BuchiCondition if kind == "buchi" else CoBuchiCondition)(
            first.colours | second.colours)
    else:
        out = (RabinCondition if kind == "rabin" else StreettCondition)(
            list(first.pairs) + list(second.pairs))
    return _over(out, first.over)


def _union(first, second):
    """The disjoint union of two systems with disjoint names, both read
    the same way; the initial vertex is the first system's."""
    colours = {**(first._colours or {}), **(second._colours or {})}
    return TransitionSystem(
        first.vertices + second.vertices, first.edges + second.edges,
        first.initial, owners={**first.owners, **second.owners},
        colours=colours or None)


def _sizes(ts, cond):
    """The trees' heights as a sorted list, the transform's vertex and
    edge counts, and the regions."""
    result = acd_transform(ts, cond)
    game = Game(ts, cond)
    return {
        "heights": sorted(t.height for t in result.acd.trees),
        "size": (len(result.system.vertices), len(result.system.edges)),
        "muller": solve_muller_game(game).regions,
        "parity": solve_parity_game(game).regions
        if cond.kind == "parity" else None,
    }


def test_disjoint_union_adds_trees_transform_sizes_and_regions():
    rng = random.Random(23)
    by_cell = {}
    for label, ts, cond in _random_systems(4, 6, READINGS):
        by_cell.setdefault(cell(ts, cond), []).append((label, ts, cond))
    pairs = 0
    for (label, ts, cond), (_, other, other_cond) in (
            pair for group in by_cell.values()
            for pair in zip(group, group[1:] + group[:1])):
        (ts2, cond2), _ = _renamed(rng, other, other_cond)
        one, two = _sizes(ts, cond), _sizes(ts2, cond2)
        got = _sizes(_union(ts, ts2), _union_condition(cond, cond2))
        assert got["heights"] == sorted(one["heights"] + two["heights"]), \
            label
        assert got["size"] == tuple(map(sum, zip(one["size"], two["size"]))), \
            label
        for field in ("muller", "parity"):
            if one[field] is not None:
                assert got[field] == {**one[field], **two[field]}, \
                    (label, field)
        pairs += 1
    assert pairs >= 90, pairs


def _muller_dual(game):
    """The game with the owners swapped and its condition read as the
    Muller family of the nonempty key sets it rejects, over the same
    keys: colours, or edge ids for a condition over edges."""
    ts, cond = game.ts, game.condition
    keys = sorted(e.id for e in ts.edges) if cond.over == "edges" \
        else sorted(ts.colour_set())
    rejected = [s for k in range(1, len(keys) + 1)
                for s in itertools.combinations(keys, k)
                if not cond.accepts(frozenset(s))]
    owners = {v: PLAYERS[1 - PLAYERS.index(p)] for v, p in ts.owners.items()}
    return Game(TransitionSystem(ts.vertices, ts.edges, ts.initial,
                                 owners=owners, colours=ts._colours or None),
                _over(MullerCondition(rejected), cond.over))


def test_dual_muller_game_swaps_every_winner():
    systems = _fixtures() + _random_systems(5, 4, READINGS)
    games = 0
    for label, ts, cond in systems:
        game = Game(ts, cond)
        regions = solve_muller_game(game).regions
        swapped = {v: PLAYERS[1 - PLAYERS.index(p)]
                   for v, p in regions.items()}
        assert solve_muller_game(_muller_dual(game)).regions == swapped, \
            label
        games += 1
    assert games >= 70, games
