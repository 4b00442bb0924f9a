"""Shape classification of cycle decompositions and construction of
equivalent Rabin / Streett / parity / weak conditions when the shape
allows it."""

from __future__ import annotations

import copy

from . import loops as _loops
from . import zielonka as _zielonka
from .core import (InputError, ParityCondition, RabinCondition,
                   StreettCondition, _compressed, _count, _over, _reading,
                   _Record)


class AcdShapeReport(_Record):
    _fields = ("rabin_acd", "streett_acd", "parity_acd", "interval",
               "weak_k", "offending")

    def __init__(self, rabin_acd, streett_acd, parity_acd, interval=None,
                 weak_k=None, offending=None):
        self.rabin_acd = rabin_acd
        self.streett_acd = streett_acd
        self.parity_acd = parity_acd
        self.interval = interval  # priority interval when parity-shaped
        self.weak_k = weak_k      # smallest k when parity-shaped
        # vertex -> bad nodes
        self.offending = {} if offending is None else offending


def classify_acd(acd):
    """Per-vertex subtree shape checks.

    A subtree has Rabin shape when its accepting nodes keep at most one
    child after restriction, Streett shape dually, and parity shape when it
    is a chain."""
    rabin = True
    streett = True
    offending = {}
    for v in acd.ts.vertices:
        bad, flags = _zielonka._branching(acd.subtree_for_state(v))
        rabin = rabin and flags["rabin"]
        streett = streett and flags["streett"]
        if bad:
            offending[v] = bad
    parity = rabin and streett
    return AcdShapeReport(
        rabin_acd=rabin,
        streett_acd=streett,
        parity_acd=parity,
        interval=_zielonka._parity_interval(acd.max_height, acd.tag)
        if parity else None,
        weak_k=acd.max_height if parity else None,
        offending=offending)


def _node_pairs(acd, want_accepting):
    all_edges = frozenset(e.id for e in acd.ts.edges)
    pairs = []
    for t in acd.trees + (acd.tree(0),):
        for node in t.nodes:
            if t.accepting(node) != want_accepting:
                continue
            covered = set()
            for c in t.children_map[node]:
                covered |= t.label[c]
            e_part = frozenset(t.label[node] - covered)
            if not e_part:
                continue
            pairs.append((e_part, all_edges - t.label[node]))
    return pairs


def rabin_from_acd(ts, acd):
    """One Rabin pair per accepting node: a loop is accepting exactly when
    some accepting node contains it and the loop touches the part of that
    node's label not covered by its children.  Like every relabelling it
    names the edge ids of `ts` (`over` is "edges")."""
    if not classify_acd(acd).rabin_acd:
        raise InputError("decomposition is not Rabin-shaped")
    return _over(RabinCondition(_node_pairs(acd, True)), "edges")


def streett_from_acd(ts, acd):
    """Dual construction: one Streett pair per rejecting node, over the
    edge ids of `ts`."""
    if not classify_acd(acd).streett_acd:
        raise InputError("decomposition is not Streett-shaped")
    return _over(StreettCondition(_node_pairs(acd, False)), "edges")


def parity_relabel(ts, acd):
    """When every subtree is a chain the transformation keeps one copy per
    vertex, so its priorities pull back to the original edges: a parity
    condition over the edge ids of `ts`."""
    if not classify_acd(acd).parity_acd:
        raise InputError("decomposition is not parity-shaped")
    priorities = {}
    for e in ts.edges:
        leaf = acd.subtree_for_state(e.source).leaves[0]
        priorities[e.id] = acd.edge_step(leaf, e)[0]
    return _over(ParityCondition(priorities), "edges")


def compress_priorities(ts, priorities):
    """Close the gaps between used priority values and shift the minimum
    to 0 or 1, keeping every loop's status: each maximal run of used
    values of one parity becomes one value, by `core._compressed`, the
    compression the parity solver reads its levels through.  `priorities`
    is a map over colours or a parity condition, whose `over` the result
    keeps; it must fit `ts` as `_reading` reads it."""
    cond = _parity(priorities)
    _reading(ts, cond)
    if not cond.priorities:
        raise InputError("no priorities to compress")
    new = _compressed(cond.priorities.values())
    out = copy.copy(cond)
    out.priorities = {c: new[p] for c, p in cond.priorities.items()}
    return out


def _parity(priorities):
    return priorities if isinstance(priorities, ParityCondition) \
        else ParityCondition(priorities)


def is_weak_k(ts, priorities, k):
    """True iff every strongly connected component of the system uses at
    most k distinct priorities on its edges."""
    cond = _parity(priorities)
    key, _ = _reading(ts, cond)
    k = _count(k, "k")
    maximal, _ = _loops.sccs(ts)
    return all(len({cond.priorities[key(eid)] for eid in loop.edges}) <= k
               for loop in maximal)
