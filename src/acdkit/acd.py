"""Alternating cycle decomposition of a Muller transition system and the
parity transformation read off from it."""

from __future__ import annotations

from . import loops as _loops
from . import zielonka as _zielonka
from .core import (InputError, Morphism, ParityCondition, _lift, _lookup,
                   _Record, _valid_reading)
from .zielonka import _node_name


def _acd_tree(index, ts, side, top, explore_cap=None):
    """One tree of the decomposition: its root is the maximal loop `top`
    and the children of every node are its maximal flipped subloops under
    the reading `side` (`loops._flipped_subloops`).  Adds to the tree its
    `index` in the forest and the `states` of each node's loop
    (`loops._states`)."""
    key, _, status = side
    edge = ts._by_id.__getitem__
    tree = _zielonka.ZielonkaTree(
        top.edges, status(frozenset(map(key, top.edges))),
        lambda edges: _loops._flipped_subloops(ts, side, edges, explore_cap))
    tree.index = index
    tree.states = {n: _loops._states(map(edge, edges))
                   for n, edges in tree.label.items()}
    return tree


class ACD:
    """Forest of alternating trees: `trees`, one per maximal loop, and
    tree 0, the transient part, a one-node tree labelled `t0_edges`.  The
    `tag`, and with it tree 0's priority and every even root's, is read
    over all maximal loops, reachable from the initial vertices or not."""

    def __init__(self, ts, cond, explore_cap=None):
        key, self._universe = _valid_reading(ts, cond)
        _loops._cap(explore_cap, "explore_cap")
        self.ts = ts
        self.cond = cond
        maximal, transient = _loops.sccs(ts)
        side = _loops._side(cond, key)
        self._read = side[1]  # with _universe, grows the condition's tree
        self.trees = tuple(
            _acd_tree(i, ts, side, top, explore_cap=explore_cap)
            for i, top in enumerate(maximal, start=1))
        self.t0_edges = frozenset(transient)
        self.t0_states = frozenset(ts.vertices).difference(
            *(t.states[()] for t in self.trees))
        self.max_height = max(t.height for t in self.trees)
        kinds = {t.even for t in self.trees if t.height == self.max_height}
        self.tag = ("ambiguous" if len(kinds) > 1
                    else "even" if True in kinds else "odd")
        for t in self.trees:
            if self.tag == "odd" and t.even:
                # priorities start at 1: an accepting root takes 2, not 0
                t.root_priority = 2
        t0 = _zielonka.ZielonkaTree(self.t0_edges, self.tag != "odd",
                                    lambda edges: ())
        t0.index, t0.states = 0, {(): self.t0_states}
        self._forest = dict(enumerate((t0,) + self.trees))
        # the roots' loops are disjoint, and tree 0's root holds the rest
        self.vertex_index = {v: t.index for t in self._forest.values()
                             for v in t.states[()]}
        self.edge_index = {eid: t.index for t in self._forest.values()
                           for eid in t.label[()]}
        self._subtrees = {v: self._build_subtree(v) for v in ts.vertices}

    def tree(self, index):  # an index is an int, not a bool or a float
        return _lookup(self._forest, index if type(index) is int else None,
                       "unknown tree index %r", index)

    def priority(self, index, node):
        """Priority of a node of tree `index` (`ZielonkaTree.priority`)."""
        tree = self.tree(index)
        _lookup(tree.children_map, node, "unknown node %r")
        return tree.priority(node)

    def _build_subtree(self, v):
        """The tree of `v` restricted to the nodes whose loop visits `v`."""
        t = self._forest[self.vertex_index[v]]
        sub = t.restrict({n for n in t.nodes if v in t.states[n]})
        sub.tree_index, sub.branches = t.index, sub.leaves
        return sub

    def subtree_for_state(self, v):
        return _lookup(self._subtrees, v, "unknown vertex %r")

    def edge_step(self, leaf, e):
        """Priority and target branch of the transform's edge from the
        copy of `e.source` on the branch `leaf` along `e`: the branch step
        (`zielonka._branch_step`) into the target's restriction when `e`
        is in the source's tree, else (and from tree 0, whose one branch
        is its root) the target's leftmost branch.  A foreign edge, or a
        node that is not a branch of the source's subtree, is an
        InputError."""
        if _lookup(self.ts._by_id, getattr(e, "id", None), "unknown edge %r",
                   e) not in (e,):  # by identity, else by value
            raise InputError("unknown edge %r" % (e,))
        if _lookup(self._subtrees[e.source].children_map, leaf,
                   "unknown node %r"):
            raise InputError("node %r is not a branch" % (leaf,))
        tree = self._forest[self.edge_index[e.id]]
        target = self._subtrees[e.target]
        if tree.index != self.vertex_index[e.source]:
            return tree.priority(()), target.leaves[0]
        return _zielonka._branch_step(tree, target, leaf, e.id)


subtree_for_state = ACD.subtree_for_state


def build_acd(ts, cond, explore_cap=None):
    return ACD(ts, cond, explore_cap=explore_cap)


def multi_supp(acd, leaf, i, eid):
    """Deepest node relevant to reading edge `eid` from a branch `leaf`
    of tree `i`: a node on the branch when the edge stays in the tree,
    the root of the edge's own tree otherwise; unknown names are refused.

    Returns (tree index, node)."""
    j = _lookup(acd.edge_index, eid, "unknown edge %r")
    tree = acd.tree(i)
    _lookup(tree.children_map, leaf, "unknown node %r")
    return (j, _zielonka._supp(tree, leaf, eid) if j == i else ())


class TransformResult(_Record):
    _fields = ("system", "condition", "acd", "vertex_map", "edge_map",
               "copies")

    def __init__(self, system, condition, acd, vertex_map, edge_map, copies):
        self.system = system
        self.condition = condition
        self.acd = acd
        self.vertex_map = vertex_map  # transform vertex -> original vertex
        self.edge_map = edge_map      # transform edge -> original edge
        self.copies = copies  # original vertex -> tuple of transform vertices


def acd_transform(ts, cond, explore_cap=None):
    """Parity transition system with one copy of each vertex per branch of
    its subtree: the input lifted along the branches (`core._lift`, whose
    step is `ACD.edge_step`); equivalent to the input and connected to it
    by a locally bijective projection."""
    acd = build_acd(ts, cond, explore_cap=explore_cap)
    leaves = {q: acd._subtrees[q].leaves for q in ts.vertices}
    # every copy on a branch shares its name, so naming each branch once
    # makes the transform of the CLI benchmark's games about 7% faster
    names = {leaf: _node_name(leaf) for qs in leaves.values() for leaf in qs}

    def name(x, leaf):  # the copy of a vertex or an edge on a branch
        return "%s|%s" % (x, names[leaf])

    system, priorities, vmap, emap = _lift(
        ts, [(v, leaves[v][0]) for v in ts.initial],
        [(q, leaf) for q in ts.vertices for leaf in leaves[q]],
        acd.edge_step, name, name)
    copies = {q: tuple(name(q, leaf) for leaf in leaves[q])
              for q in ts.vertices}
    return TransformResult(system, ParityCondition(priorities), acd,
                           vmap, emap, copies)


def induced_morphism(result, original_ts, original_cond):
    """Projection of the transform onto its source system."""
    return Morphism(result.system, result.condition,
                    original_ts, original_cond,
                    result.vertex_map, result.edge_map)


def acd_stats(acd):
    """Size and priority usage of the transformation, computed from the
    decomposition alone."""
    size = sum(len(acd.subtree_for_state(v).leaves) for v in acd.ts.vertices)
    heights = tuple(t.height for t in acd.trees)
    if acd.t0_edges:
        heights = (1,) + heights
    return {
        "size": size,
        "interval": _zielonka._parity_interval(acd.max_height, acd.tag),
        "tag": acd.tag,
        "tree_heights": heights,
    }
