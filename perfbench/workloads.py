"""Seeded inputs for the four benchmark workloads.

An instance is plain data (a "spec": a JSON-able dict laid out like an
``acdkit/1`` document), so it can be compared byte for byte, relabelled,
written as a document and turned into acdkit objects once acdkit is
imported.

Why a fixed corpus.  Per-instance cost spans five orders of magnitude
(0.1 ms to about 9 s on ``acd-sparse``), and the slow tail carries most of
the time.  Resampling fresh instances for every run makes throughput swing
by 40-55% between seeds (bootstrap over 1000 measured ``acd-sparse``
instances), more than any regression bound could absorb.  So each workload
draws its instance shapes once from its generator with a *corpus seed*
(default 1; held-out 2 for confirming a claim), and the run seed draws an
isomorphic copy of that corpus: new vertex, edge and colour names, a new
edge order and a new op order.  The parametric parity families keep their
names.  Every capped, crashing or slow instance the generator produces
stays in the corpus.
"""

from __future__ import annotations

import itertools
import json
import random

DEFAULT_CORPUS = 1
HELD_OUT_CORPUS = 2

ACD_SPARSE_INSTANCES = 120
# (vertices, edges, colours, instances) per acd-colours tier
ACD_COLOUR_TIERS = ((8, 18, 4, 24), (10, 24, 4, 3))
CYCLE_SIZES = tuple(range(14, 23))
PATH_SIZES = (100, 200, 300, 400, 500, 600, 700, 900, 1200)
RANDOM_GAMES = 30
CLI_GAMES = 16
CLI_SUBCOMMANDS = ("solve", "transform", "check-morphism", "relabel",
                   "stats", "shape")


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Generators.  Each returns a spec: {"system", "condition", "size"}.

def sparse_muller(rng, max_vertices, max_edges, max_sets, with_owners=False):
    """Random system with one out-edge per vertex plus random extra edges;
    colours are the edge ids and the Muller family holds a handful of random
    edge subsets."""
    n = rng.randint(1, max_vertices)
    vs = ["v%d" % i for i in range(n)]
    edges = [["e%d" % i, v, rng.choice(vs)] for i, v in enumerate(vs)]
    for i in range(rng.randint(0, max(0, max_edges - n))):
        edges.append(["x%d" % i, rng.choice(vs), rng.choice(vs)])
    system = {"vertices": vs, "edges": edges, "initial": [vs[0]]}
    if with_owners:
        system["owners"] = {v: rng.choice(("Eve", "Adam")) for v in vs}
    eids = [e[0] for e in edges]
    family = [sorted(rng.sample(eids, rng.randint(1, len(eids))))
              for _ in range(rng.randint(1, max_sets))]
    return {"system": system,
            "condition": {"type": "muller", "family": family},
            "size": "%dv/%de" % (n, len(edges))}


def coloured_muller(rng, n, m, k, density=0.4):
    """Few colours, many edges per colour: every colour is used and the
    family is a density sample of the nonempty colour subsets."""
    vs = ["v%d" % i for i in range(n)]
    edges = [["e%d" % i, v, rng.choice(vs)] for i, v in enumerate(vs)]
    for i in range(n, m):
        edges.append(["e%d" % i, rng.choice(vs), rng.choice(vs)])
    cols = ["c%d" % i for i in range(k)]
    assign = cols + [rng.choice(cols) for _ in range(m - k)]
    rng.shuffle(assign)
    family = [list(s) for r in range(1, k + 1)
              for s in itertools.combinations(cols, r)
              if rng.random() < density]
    system = {"vertices": vs, "edges": edges, "initial": [vs[0]],
              "colours": {e[0]: c for e, c in zip(edges, assign)}}
    return {"system": system,
            "condition": {"type": "muller", "family": family},
            "size": "%dv/%de/%dc" % (n, m, k)}


def _parity_spec(vs, edges, priorities, owners, size):
    return {"system": {"vertices": vs, "edges": edges, "initial": [vs[0]],
                       "owners": owners},
            "condition": {"type": "parity", "priorities": priorities},
            "size": size}


def _named(spec):
    """Mark a parametric family member to keep its defining names:
    renaming a cycle game changes the recursive solver's tie-breaks and its
    cost by up to 40%."""
    spec["named"] = True
    return spec


def cycle_game(n):
    """Edge i -> i+1 has priority i, the self-loop at i has priority n+i,
    owners alternate with Adam at v0: exponential for the recursive
    solver."""
    vs = ["v%d" % i for i in range(n)]
    edges, prios = [], {}
    for i in range(n):
        edges.append(["c%d" % i, vs[i], vs[(i + 1) % n]])
        prios["c%d" % i] = i
        edges.append(["s%d" % i, vs[i], vs[i]])
        prios["s%d" % i] = n + i
    owners = {v: "Adam" if i % 2 == 0 else "Eve" for i, v in enumerate(vs)}
    return _named(_parity_spec(vs, edges, prios, owners, "cycle/%d" % n))


def path_game(n):
    """One-player Eve path with distinct even priorities 2i, closed by a
    self-loop: Eve wins everywhere, and the solver recurses once per
    priority."""
    vs = ["p%d" % i for i in range(n)]
    edges = [["a%d" % i, vs[i], vs[min(i + 1, n - 1)]] for i in range(n)]
    prios = {"a%d" % i: 2 * i for i in range(n)}
    return _named(_parity_spec(vs, edges, prios, {v: "Eve" for v in vs},
                               "path/%d" % n))


def random_game(rng, n=500, out_degree=3, priorities=20):
    vs = ["g%d" % i for i in range(n)]
    edges = [["r%d" % (i * out_degree + j), v, rng.choice(vs)]
             for i, v in enumerate(vs) for j in range(out_degree)]
    prios = {e[0]: rng.randrange(priorities) for e in edges}
    owners = {v: rng.choice(("Eve", "Adam")) for v in vs}
    return _parity_spec(vs, edges, prios, owners, "random/%d" % n)


def corpus(workload, corpus_seed):
    """Instance shapes of a workload, independent of the run seed."""
    seed = "%s:corpus:%d" % (workload, corpus_seed)
    rng = random.Random(seed)
    if workload == "acd-sparse":
        return [sparse_muller(rng, 7, 13, 6)
                for _ in range(ACD_SPARSE_INSTANCES)]
    if workload == "acd-colours":  # one stream per tier
        return [coloured_muller(tier_rng, n, m, k)
                for n, m, k, count in ACD_COLOUR_TIERS
                for tier_rng in [random.Random("%s:%dv/%de" % (seed, n, m))]
                for _ in range(count)]
    if workload == "parity-games":
        return ([cycle_game(n) for n in CYCLE_SIZES]
                + [path_game(n) for n in PATH_SIZES]
                + [random_game(rng) for _ in range(RANDOM_GAMES)])
    if workload == "cli-muller-games":
        return [sparse_muller(rng, 6, 11, 6, with_owners=True)
                for _ in range(CLI_GAMES)]
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# Seeded relabelling.

def _renaming(rng, names, prefix):
    names = sorted(set(names))
    ids = list(range(len(names)))
    rng.shuffle(ids)
    return {old: "%s%d" % (prefix, i) for old, i in zip(names, ids)}


def relabel(spec, rng):
    """An isomorphic copy of `spec` with fresh names and orders."""
    if spec.get("named"):
        return spec
    sysobj = spec["system"]
    vmap = _renaming(rng, sysobj["vertices"], "q")
    emap = _renaming(rng, [e[0] for e in sysobj["edges"]], "t")
    edges = [[emap[e], vmap[s], vmap[t]] for e, s, t in sysobj["edges"]]
    rng.shuffle(edges)
    vertices = sorted(vmap.values())
    rng.shuffle(vertices)
    system = {"vertices": vertices, "edges": edges,
              "initial": [vmap[v] for v in sysobj["initial"]]}
    if "owners" in sysobj:
        system["owners"] = {vmap[v]: o for v, o in sysobj["owners"].items()}
    cond = spec["condition"]
    if "colours" in sysobj:
        cmap = _renaming(rng, sysobj["colours"].values(), "k")
        system["colours"] = {emap[e]: cmap[c]
                             for e, c in sysobj["colours"].items()}
    else:
        cmap = emap  # colours default to the edge ids
    if cond["type"] == "muller":
        family = [sorted(cmap[c] for c in s) for s in cond["family"]]
        rng.shuffle(family)
        cond = {"type": "muller", "family": family}
    else:
        cond = {"type": "parity",
                "priorities": {cmap[c]: p
                               for c, p in cond["priorities"].items()}}
    return {"system": system, "condition": cond, "size": spec["size"]}


def instances(workload, seed, corpus_seed=DEFAULT_CORPUS):
    """The run's inputs in op order: the corpus relabelled and shuffled by
    `seed`.  The same arguments give byte-identical specs."""
    rng = random.Random("%s:run:%d" % (workload, seed))
    out = [relabel(spec, rng) for spec in corpus(workload, corpus_seed)]
    rng.shuffle(out)
    return out


def document(spec):
    """The spec as an acdkit/1 document."""
    return dumps({"format": "acdkit/1", "system": spec["system"],
                  "condition": spec["condition"]}) + "\n"


def build(ak, spec):
    """(TransitionSystem, condition) for a spec."""
    s = spec["system"]
    ts = ak.TransitionSystem(s["vertices"], [tuple(e) for e in s["edges"]],
                             s["initial"], owners=s.get("owners"),
                             colours=s.get("colours"))
    c = spec["condition"]
    if c["type"] == "muller":
        return ts, ak.MullerCondition(c["family"])
    return ts, ak.ParityCondition(c["priorities"])
