"""Morphisms of transition systems (`core.Morphism`): structural checks,
locality (surjective / injective / bijective on out-edges), acceptance
preservation, and run transport."""

from __future__ import annotations

from . import loops as _loops
from .core import InputError, Run, _reading, _unroll


def check_structural(m):
    """All structural clauses; returns (ok, problems).  Both maps must be
    defined and land in the target, and sources, targets and initial
    vertices must be preserved, as must letters when both systems carry
    them and owners when both are games."""
    problems = []
    src, tgt = m.source_ts, m.target_ts
    for v in src.vertices:
        w = m.vertex_map.get(v)
        if w is None:
            problems.append("vertex %r unmapped" % v)
        elif w not in tgt._out:
            problems.append("vertex %r maps to unknown %r" % (v, w))
        elif src.owners is not None and tgt.owners is not None:
            if src.owners[v] != tgt.owners[w]:
                problems.append("owner of %r not preserved" % v)
    for e in src.edges:
        f = m.edge_map.get(e.id)
        if f is None:
            problems.append("edge %r unmapped" % e.id)
            continue
        fe = tgt._by_id.get(f)
        if fe is None:
            problems.append("edge %r maps to unknown %r" % (e.id, f))
            continue
        if m.vertex_map.get(e.source) != fe.source:
            problems.append("source of %r not preserved" % e.id)
        if m.vertex_map.get(e.target) != fe.target:
            problems.append("target of %r not preserved" % e.id)
        if src.letters is not None and tgt.letters is not None:
            if src.letters[e.id] != tgt.letters[f]:
                problems.append("letter of %r not preserved" % e.id)
    initial = set(tgt.initial)
    for v in src.initial:
        if m.vertex_map.get(v) not in initial:
            problems.append("initial vertex %r not sent to an initial vertex" % v)
    return (not problems, problems)


def check_local(m):
    """Surjectivity / injectivity of the per-vertex out-edge restrictions,
    together with the matching clauses on initial sets.  Unreachable source
    vertices are ignored."""
    src, tgt = m.source_ts, m.target_ts
    reach = src.reachable_vertices()
    surjective = True
    injective = True
    for w in tgt.initial:
        if not any(m.vertex_map.get(v) == w for v in src.initial):
            surjective = False
    seen_init = {}
    for v in src.initial:
        w = m.vertex_map.get(v)
        if w in seen_init:
            injective = False
        seen_init[w] = v
    for v in sorted(reach):
        w = m.apply_vertex(v)
        images = [m.apply_edge(e.id) for e in src.out(v)]
        targets = {e.id for e in tgt.out(w)}
        if set(images) != targets:
            surjective = False
        if len(set(images)) != len(images):
            injective = False
    return {"surjective": surjective, "injective": injective,
            "bijective": surjective and injective}


def check_acceptance_preserving(m, loop_cap=None, explore_cap=None):
    """True iff every reachable loop of the source keeps its status when
    pushed through the edge map.

    Decided on the alternating cycle decomposition, not loop by loop: the
    source condition and the target condition pulled back along the edge
    map (edge `e` read as the target's key of `m.edge_map[e]`) agree on
    every reachable loop exactly when they give the reachable part of the
    source the same labelled ACD, since a loop's status is the status of
    any deepest node whose loop contains it.  Only edges of reachable
    SCCs are mapped: an unmapped one, or one whose image the target lacks,
    raises an InputError naming the least such edge.  `loop_cap`, when
    set, refuses a reachable SCC of more edges; `explore_cap` bounds each
    node's subloop search as in `build_acd`.
    """
    key, _ = _reading(m.target_ts, m.target_cond)
    source = _loops._side(m.source_cond,
                          _reading(m.source_ts, m.source_cond)[0])
    _loops._cap(explore_cap, "explore_cap")
    tops = _loops._reachable_maximal(
        m.source_ts, _loops._cap(loop_cap, "loop_cap"))
    pulled = {eid: key(m.target_ts.edge(m.apply_edge(eid)).id)
              for eid in sorted(frozenset().union(*(t.edges for t in tops)))}
    return _loops._same_decomposition(
        m.source_ts, tops, source,
        _loops._side(m.target_cond, pulled.__getitem__), explore_cap)


def map_run(m, run):
    """Push a lasso run through the morphism, edge by edge."""
    return Run(m.target_ts,
               [m.apply_edge(eid) for eid in run.prefix],
               [m.apply_edge(eid) for eid in run.cycle])


def lift_run(m, run):
    """Unique source run over a target run, for a locally bijective
    morphism.  The lifted cycle may wrap the target cycle several times
    before the lasso closes."""
    src, tgt = m.source_ts, m.target_ts
    start_tgt = tgt.edge((run.prefix + run.cycle)[0]).source
    starts = [v for v in src.initial if m.apply_vertex(v) == start_tgt]
    if not starts:
        raise InputError("no initial vertex above %r" % start_tgt)
    v = min(starts)

    def step(v, tgt_eid):
        cands = [e for e in src.out(v) if m.apply_edge(e.id) == tgt_eid]
        if len(cands) != 1:
            raise InputError(
                "morphism not locally bijective at %r over %r" % (v, tgt_eid))
        return cands[0]

    prefix = []
    for eid in run.prefix:
        e = step(v, eid)
        prefix.append(e.id)
        v = e.target
    lead, looped = _unroll(v, run.cycle, step)
    return Run(src, prefix + [e.id for e in lead], [e.id for e in looped])
