"""Loop algebra: maximal loops, the loop predicate, maximal alternating
subloops, the comparison of two decompositions (`equivalent_over`), and
loop enumeration with the explicit Muller form read from it
(`to_explicit_muller`)."""

from __future__ import annotations

from .core import (CapExceeded, InputError, MullerCondition, _check_known,
                   _components, _Frozen, _over, _reach, _reading, _string_set)
from .zielonka import _children_read, _maximal_flipped

DEFAULT_LOOP_CAP = 20
DEFAULT_EXPLORE_CAP = 5000
# a CapExceeded message names at most this many states of a loop
_NAMED_STATES = 12


class Loop(_Frozen):
    """A nonempty edge set whose induced subgraph is strongly connected;
    its edges and states are frozensets."""

    __slots__ = _fields = ("edges", "states")

    def __init__(self, edges, states):
        _set_edges(self, frozenset(edges))
        _set_states(self, frozenset(states))

    @staticmethod
    def of(ts, edge_ids):
        """The loop on the edges `edge_ids` of `ts`.  Naming an edge that
        `ts` lacks is an InputError naming the least such id."""
        es = _string_set(edge_ids, "edge set", "edge id")
        _check_known(ts, es)
        return Loop(es, _states(map(ts._by_id.__getitem__, es)))

    @property
    def key(self):
        return tuple(sorted(self.edges))

    def __contains__(self, eid):
        # ids are strings: a value of another type names no edge
        return isinstance(eid, str) and eid in self.edges


_set_edges, _set_states = Loop.edges.__set__, Loop.states.__set__


def _states(edges):
    """The states of a loop, or of a strongly connected component, given
    its inner edges as `Edge`s: their sources, since every state of a loop
    has an edge out of it inside the loop."""
    return frozenset(e.source for e in edges)


def sccs(ts, edge_ids=None):
    """Maximal loops of `ts` (optionally restricted to a given edge set),
    plus the set of transient edges.

    Returns (loops, transient) where every edge lies either in exactly one
    maximal loop or in `transient`.  Naming an edge that `ts` lacks is an
    InputError naming the least such id.
    """
    if edge_ids is None:
        edges, edge_set = ts.edges, frozenset(ts._by_id)
    else:
        edge_set = _string_set(edge_ids, "edge set", "edge id")
        _check_known(ts, edge_set)
        edges = list(map(ts._by_id.__getitem__, edge_set))
    found = [Loop(frozenset(e.id for e in es), _states(es))
             for es in _components(edges)]
    found.sort(key=lambda l: l.key)
    return found, edge_set.difference(*(l.edges for l in found))


def is_loop(ts, edge_ids):
    """True iff the edge set is nonempty and its induced subgraph is
    strongly connected."""
    maximal, transient = sccs(ts, edge_ids)  # every edge is in one of them
    return not transient and len(maximal) == 1


def _cap(value, name):
    """`value`, after checking that a cap that is set is an integer of at
    least 1, as on the command line."""
    if value is not None and (type(value) is not int or value < 1):
        raise InputError("%s: a cap must be an integer of at least 1, got %r"
                         % (name, value))
    return value


def _side(cond, key):
    """How the decomposition reads `cond`: `key`, the key of each edge
    (the lookup of `core._reading`), the Zielonka-tree children read of
    key sets (`_children_read`) and the status of a key set."""
    return key, _children_read(cond), cond.accepts


def _flipped_subloops(ts, side, edges, explore_cap=None):
    """Inclusion-maximal subloops of the loop `edges`, a frozenset of edge
    ids, whose status differs from its own, as frozensets of edge ids in
    canonical order: descending size, then edge-id list.  `side` is a
    reading (`_side`): a loop's status is `status` of the set of its
    edges' keys.

    Worklist exploration (`_maximal_flipped`) guided by the Zielonka tree
    that `read` gives: below a subloop with key set C, take each child K
    of C in that tree (a maximal subset of C whose status differs),
    restrict the subloop to the edges keyed in K and split the
    restriction into maximal subloops (`core._components`).  Every flipped
    subloop has its keys inside some K, so it lies inside one of these
    strictly smaller subloops; the walk descends only through subloops
    that still share the parent's status.
    """
    key, read, status = side
    by_id = ts._by_id
    key_sets = {}  # subloop -> its key set, from its status read

    def status_of(es):
        ks = key_sets[es] = frozenset(map(key, es))
        return status(ks)

    def shrink(sub):  # a subloop is shrunk once, after its status read
        for kept in read(key_sets.pop(sub)):
            for es in _components([by_id[e] for e in sub if key(e) in kept]):
                yield frozenset(e.id for e in es)

    return _maximal_flipped(
        edges, status_of(edges), shrink, status_of,
        DEFAULT_EXPLORE_CAP if explore_cap is None else explore_cap,
        lambda: "the loop on states %s with %d edges"
        % (_named(Loop.of(ts, edges).states), len(edges)))


def _named(states):
    """`{a,b,...}` listing the states, or past `_NAMED_STATES` of them the
    least ones and the count, so that a message stays short."""
    names = sorted(states)
    if len(names) <= _NAMED_STATES:
        return "{%s}" % ",".join(names)
    return "{%s,...} (%d states)" % (",".join(names[:_NAMED_STATES]),
                                     len(names))


def alternating_children(ts, cond, loop, explore_cap=None):
    """Inclusion-maximal subloops of `loop` whose status under `cond`
    differs from the status of `loop` itself, in canonical order:
    descending size, then edge-id list (`_flipped_subloops`, guided by the
    Zielonka tree of `cond`).  Edges are keyed as `core._reading` keys
    them: by colour, or by id for a condition over edges.  A loop naming
    an edge that `ts` lacks is an InputError naming the least such id, and
    so is a `loop` that is not a `Loop`."""
    side = _side(cond, _reading(ts, cond)[0])
    explore_cap = _cap(explore_cap, "explore_cap")
    if not isinstance(loop, Loop):
        raise InputError("loop %r is not a Loop" % (loop,))
    _check_known(ts, _string_set(loop.edges, "loop edges", "edge id"))
    kids = _flipped_subloops(ts, side, loop.edges, explore_cap)
    return [Loop.of(ts, edges) for edges in kids]


def _reachable_maximal(ts, cap=None):
    """The maximal loops of the part of `ts` reachable from the initial
    vertices.  With a `cap`, one with more than `cap` edges raises
    CapExceeded."""
    reach = ts.reachable_vertices()
    maximal, _ = sccs(ts, [e.id for e in ts.edges
                           if e.source in reach and e.target in reach])
    for top in maximal:
        if cap is not None and len(top.edges) > cap:
            raise CapExceeded("SCC %s has %d edges, above the loop cap %d"
                              % (_named(top.states), len(top.edges), cap))
    return maximal


def _same_decomposition(ts, tops, side1, side2, explore_cap=None):
    """True iff the two readings (`_side`) give each maximal loop in
    `tops` of `ts` the same labelled decomposition tree.

    A loop's status is the status of any deepest tree node whose label
    contains it, so the labelled trees fix the status of every loop below
    `tops` and are fixed by it: equal trees mean equal statuses.  The two
    trees are grown in step and compared node by node, so the walk stops
    at the first root status or children list that differs.
    """
    (key1, _, status1), (key2, _, status2) = side1, side2
    for top in tops:
        if status1(frozenset(map(key1, top.edges))) != \
                status2(frozenset(map(key2, top.edges))):
            return False
        stack = [top.edges]
        while stack:
            edges = stack.pop()
            kids = _flipped_subloops(ts, side1, edges, explore_cap)
            if kids != _flipped_subloops(ts, side2, edges, explore_cap):
                return False
            stack.extend(kids)
    return True


def equivalent_over(ts, cond1, cond2, loop_cap=None, explore_cap=None):
    """True iff every reachable loop of `ts` has the same status under both
    conditions.

    Decided on the alternating cycle decomposition, not loop by loop: a
    loop's status is the status of any deepest node of the labelled ACD
    whose loop contains it, so two conditions agree on every reachable
    loop exactly when the labelled ACDs of the reachable part are equal
    (`_same_decomposition`).  `loop_cap`, when set, refuses a reachable
    SCC of more edges; `explore_cap` bounds each node's subloop search as
    in `build_acd`.
    """
    side1 = _side(cond1, _reading(ts, cond1)[0])
    side2 = _side(cond2, _reading(ts, cond2)[0])
    _cap(explore_cap, "explore_cap")
    tops = _reachable_maximal(ts, _cap(loop_cap, "loop_cap"))
    return _same_decomposition(ts, tops, side1, side2, explore_cap)


def enumerate_reachable_loops(ts, cap=None):
    """All loops lying inside SCCs reachable from the initial vertices.

    Closure walk per SCC: drop one edge, re-split, and split each loop
    only at edges above the least edge dropped to reach it, which still
    reaches every subloop.  Refuses to run on SCCs with more than `cap`
    edges (default 20).
    """
    out = {}
    for top in _reachable_maximal(
            ts, DEFAULT_LOOP_CAP if cap is None else _cap(cap, "cap")):
        out[top.key] = top
        bound = {top.edges: None}
        stack = [(top.edges, None)]
        while stack:
            cur, low = stack.pop()
            for eid in sorted(e for e in cur if low is None or e > low):
                for m in sccs(ts, cur - {eid})[0]:
                    out.setdefault(m.key, m)
                    if m.edges not in bound or eid < bound[m.edges]:
                        bound[m.edges] = eid
                        stack.append((m.edges, eid))
    return [out[k] for k in sorted(out)]


def to_explicit_muller(ts, cond):
    """Re-express `cond` as a Muller condition over the edge ids of `ts`
    (`over` is "edges").

    The family lists exactly the reachable loops that are accepting under
    `cond`; every loop keeps its status.  The condition is read once, after
    the enumeration, and only when some loop was found.
    """
    found = enumerate_reachable_loops(ts)
    if found:
        key, _ = _reading(ts, cond)
        found = [l.edges for l in found
                 if cond.accepts(frozenset(map(key, l.edges)))]
    return _over(MullerCondition(found), "edges")


def accessible_x_scc(automaton, letters):
    """A reachable state set of the automaton closed under the given
    letters and strongly connected through them.

    For an empty letter set any single reachable state qualifies.
    """
    letters = _string_set(letters, "letters", "letter")
    unknown = letters - automaton.alphabet
    if unknown:
        raise InputError("letters not in alphabet: %s"
                         % ", ".join(sorted(unknown)))
    reach = _reach([automaton.initial],
                   lambda q: (automaton.step(q, a).target for a in letters))
    if not letters:
        return frozenset(reach)
    # a component holding all of its states' letter edges is closed under
    # the letters: these are exactly the letter-closed strongly connected sets
    closed = [sorted(vs) for es in _components(
        [automaton.step(q, a) for q in reach for a in letters])
        for vs in [_states(es)]
        if len(es) == len(vs) * len(letters)]
    return frozenset(min(closed))
