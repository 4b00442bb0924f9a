"""Families of systems that the tests build at scale.  No test-framework
import here, so a child process can import this module wherever pytest is
installed."""

import itertools

from acdkit import (Game, MullerCondition, ParityCondition, RabinCondition,
                    StreettCondition, TransitionSystem)
from acdkit.core import PLAYERS


def cycle_game(n):
    """The cycle family: edge i -> i+1 has priority i, the self-loop at i
    has priority n+i, and owners alternate with Adam at v0.  Exponential
    for the classical attractor decomposition."""
    vs = ["v%d" % i for i in range(n)]
    edges, prios = [], {}
    for i in range(n):
        edges.append(("c%d" % i, vs[i], vs[(i + 1) % n]))
        prios["c%d" % i] = i
        edges.append(("s%d" % i, vs[i], vs[i]))
        prios["s%d" % i] = n + i
    owners = {v: "Adam" if i % 2 == 0 else "Eve" for i, v in enumerate(vs)}
    return (TransitionSystem(vs, edges, [vs[0]], owners=owners),
            ParityCondition(prios))


def lifted_cycle_game(n):
    """lifted/n: `cycle_game(n)` with each self-loop s_i replaced by the
    two-cycle v_i -> w_i -> v_i, both of its edges, s_i and t_i, of
    priority n+i, and the fresh w_i owned by v_i's owner.  No self-loop
    is left to settle before the solver's frames, and the second
    recursive call meets the same subgames again and again."""
    (ts, cond), vs = cycle_game(n), ["w%d" % i for i in range(n)]
    edges = [(e.id, e.source, e.target) for e in ts.edges
             if not e.id.startswith("s")]
    prios = dict(cond.priorities)
    owners = dict(ts.owners)
    for i, w in enumerate(vs):
        v = "v%d" % i
        edges += [("s%d" % i, v, w), ("t%d" % i, w, v)]
        prios["t%d" % i] = n + i
        owners[w] = owners[v]
    return (TransitionSystem(list(owners), edges, ["v0"], owners=owners),
            ParityCondition(prios))


def path_game(n):
    """One-player Eve path with distinct even priorities 2i, closed by a
    self-loop: Eve wins everywhere."""
    return _path(n, 2)


def alternating_path_game(n):
    """The same path with priority i on edge i, so the priorities
    alternate in parity: the player of the last priority, n - 1, wins
    everywhere, and the attractor decomposition nests one subgame per
    priority."""
    return _path(n, 1)


def _path(n, step):
    vs = ["p%d" % i for i in range(n)]
    edges = [("a%d" % i, vs[i], vs[min(i + 1, n - 1)]) for i in range(n)]
    return (TransitionSystem(vs, edges, [vs[0]],
                             owners={v: "Eve" for v in vs}),
            ParityCondition({e[0]: step * i for i, e in enumerate(edges)}))


def even_muller(k):
    """even/k: one vertex with self-loops c0 .. c{k-1} under the Muller
    family "an even number of colours".  Its Zielonka tree has k! branches
    and height k, so its transform has k! vertices, k * k! edges and k
    priorities."""
    colours = ["c%d" % i for i in range(k)]
    return (TransitionSystem(["v"], [(c, "v", "v") for c in colours], ["v"]),
            MullerCondition(s for r in range(2, k + 1, 2)
                            for s in itertools.combinations(colours, r)))


def parity_chain(n, base):
    """parity/N: one vertex with self-loops e0 .. e{n-1}, where ei has
    priority base + i.  Its ACD is one chain of height n, and its
    transform is the system itself."""
    edges = ["e%d" % i for i in range(n)]
    return (TransitionSystem(["v"], [(e, "v", "v") for e in edges], ["v"]),
            ParityCondition({e: base + i for i, e in enumerate(edges)}))


def nested_pairs(n, kind):
    """One vertex with self-loops c0 .. c{2n-1} under n nested pairs of
    the given kind, "rabin" or "streett", pair i being ({c{2i}}, {c0 ..
    c{2i-1}}).  Read as Rabin, a run accepts iff the least index it sees
    infinitely often is even; read as Streett, iff it is odd.  So the
    condition is a parity condition with priority i on ci: its Zielonka
    tree is a chain of height 2n, accepting at the root for Rabin and
    rejecting for Streett."""
    colours = ["c%d" % i for i in range(2 * n)]
    cls = RabinCondition if kind == "rabin" else StreettCondition
    return (TransitionSystem(["v"], [(c, "v", "v") for c in colours], ["v"]),
            cls(({colours[2 * i]}, colours[:2 * i]) for i in range(n)))


def small_systems(max_vertices, max_edges):
    """Every system of at most `max_vertices` vertices v0, v1, ... and at
    most `max_edges` edges in which each vertex has an out-edge, once up
    to renaming the vertices other than v0, the initial vertex, and the
    edges: the sorted tuple of its edges' (source, target) numbers, and
    the renamings that map it onto itself, the identity first.  A
    renaming is a tuple, the new number of each vertex."""
    for n in range(1, max_vertices + 1):
        renamings = [(0,) + p for p in itertools.permutations(range(1, n))]
        pairs = list(itertools.product(range(n), repeat=2))
        for m in range(n, max_edges + 1):
            for edges in itertools.combinations_with_replacement(pairs, m):
                if len({s for s, _ in edges}) < n:
                    continue
                images = [tuple(sorted((r[s], r[t]) for s, t in edges))
                          for r in renamings]
                if min(images) == edges:
                    yield edges, [r for r, image in zip(renamings, images)
                                  if image == edges]


def small_parity_games(max_vertices, max_edges, priorities):
    """Every parity game on a system of `small_systems`, under each owner
    map and each map of its edges e0, e1, ... into `priorities`, once up
    to renaming: a game is left out when a renaming that maps its system
    onto itself, or a swap of parallel edges, gives a smaller (edges with
    their priorities, owners) key."""
    for edges, renamings in small_systems(max_vertices, max_edges):
        n = 1 + max(s for s, _ in edges)
        vs = ["v%d" % i for i in range(n)]
        ids = ["e%d" % i for i in range(len(edges))]
        triples = [(e, vs[s], vs[t]) for e, (s, t) in zip(ids, edges)]
        for owners in itertools.product(PLAYERS, repeat=n):
            ts = TransitionSystem(vs, triples, ["v0"],
                                  owners=dict(zip(vs, owners)))
            for prios in itertools.product(priorities, repeat=len(edges)):
                key = list(zip(edges, prios)), owners
                if all(key <= _renamed(key, r) for r in renamings):
                    yield Game(ts, ParityCondition(dict(zip(ids, prios))))


def _renamed(key, renaming):
    """The (edges with priorities, owners) key of a game, its vertices
    renamed, its edges sorted."""
    edges, owners = key
    renamed = [None] * len(owners)
    for v, owner in enumerate(owners):
        renamed[renaming[v]] = owner
    return (sorted(((renaming[s], renaming[t]), d) for (s, t), d in edges),
            tuple(renamed))
