"""Transition systems, acceptance conditions and their basic algebra, and
the graph layer under the other modules: reachability, SCCs, lassos."""

from __future__ import annotations

import copy
import math
import operator
from itertools import compress, count


class AcdkitError(Exception):
    pass


class InputError(AcdkitError):
    """Malformed or referentially inconsistent input."""


class CapExceeded(AcdkitError):
    """An enumeration grew past its configured cap."""


class _Record:
    """A record of the fields that `_fields` names: equal to a record of
    its own class with equal fields, shown as `Name(field=value, ...)`,
    and unhashable, since it defines `__eq__` alone.  Written out rather
    than made by `dataclasses`, which generates and compiles code for
    each class when the package is imported."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class _Frozen(_Record):
    """A `_Record` whose fields are slots that `__init__` sets once,
    through the slots' own descriptors: it hashes as the tuple of its
    fields, refuses assignment and deletion, and copies and pickles
    through its constructor."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, self._values()


class Edge(_Frozen):
    __slots__ = _fields = ("id", "source", "target")

    def __init__(self, id, source, target):
        _set_id(self, id)
        _set_source(self, source)
        _set_target(self, target)


_set_id, _set_source, _set_target = (
    Edge.id.__set__, Edge.source.__set__, Edge.target.__set__)


class TransitionSystem:
    """A finite graph with named edges and a nonempty set of initial vertices.

    Vertices may optionally carry an owner tag (for games), edges may carry
    an input letter (for automata) and a colour (for acceptance conditions).
    Owners, when given, must cover every vertex, and letters every edge.
    Vertex and edge ids, letters and colours must be strings: no other
    value is read as one.
    Colours default to the edge ids themselves.  `edges` is kept sorted by
    id and `vertices` sorted, whatever the input order; the parity solver
    numbers its board in that order.

    Instances are immutable by convention: no method mutates the system.
    """

    def __init__(self, vertices, edges, initial, owners=None, letters=None,
                 colours=None):
        self.vertices = tuple(sorted(_strings(
            _collection(vertices, "vertices"), "vertex")))
        out = {v: [] for v in self.vertices}
        if len(out) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        parsed = list(map(_edge, _collection(edges, "edges", "edges")))
        _strings((e.id for e in parsed), "edge id")
        parsed.sort(key=lambda e: e.id)
        self.edges = tuple(parsed)
        self._by_id = {}
        for e in self.edges:
            if e.id in self._by_id:
                raise InputError("duplicate edge id %r" % e.id)
            if not (isinstance(e.source, str) and e.source in out):
                raise InputError("edge %r has undeclared source %r" % (e.id, e.source))
            if not (isinstance(e.target, str) and e.target in out):
                raise InputError("edge %r has undeclared target %r" % (e.id, e.target))
            self._by_id[e.id] = e
            out[e.source].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self.initial = tuple(sorted(set(_strings(
            _collection(initial, "initial"), "initial vertex"))))
        for v in self.initial:
            _lookup(out, v, "initial vertex %r is not declared")
        self.owners = _labelling(owners, self._out, "owner", "vertex", PLAYERS)
        self.letters = _labelling(letters, self._by_id, "letter", "edge")
        self._colours = _labelling(colours, self._by_id, "colour", "edge",
                                   total=False) or {}
        if 0 < len(self._colours) < len(self._by_id):
            # the colour map is empty or total: the other edges keep their ids
            self._colours = {e: self._colours.get(e, e) for e in self._by_id}
        # an edge's colour, unchecked: its own id when the system has no map
        self._colour_of = self._colours.__getitem__ if self._colours else _ID

    def edge(self, eid):
        return _lookup(self._by_id, eid, "unknown edge %r")

    def out(self, v):
        return _lookup(self._out, v, "unknown vertex %r")

    def colour(self, eid):
        return self._colour_of(self.edge(eid).id)

    def colour_set(self):  # in bulk: the map's values, or else the ids
        return frozenset(self._colours.values() or self._by_id)

    def _recoloured(self):
        """The colour of each edge whose colour is not its id, in bulk."""
        return {e: c for e, c in self._colours.items() if c != e}

    def letter(self, eid):
        if self.letters is None:
            raise InputError("system has no letter labelling")
        return _lookup(self.letters, eid, "edge %r has no letter")

    def reachable_vertices(self):
        return frozenset(_reach(
            self.initial, lambda v: (e.target for e in self._out[v])))


def _edge(e):
    """`e` if it is an `Edge`, else the `Edge` of the (id, source, target)
    triple `e`, a tuple or a list; anything else, such as a string, a set
    or a dict of three, is an InputError that names it."""
    if isinstance(e, Edge):
        return e
    if isinstance(e, (tuple, list)) and len(e) == 3:
        return Edge(*e)
    raise InputError("edge %r is not an (id, source, target) triple" % (e,))


def _labelling(labels, ids, what, whose, allowed=None, total=True):
    """A copy of `labels`, an owner, letter or colour map on `ids`, a dict
    keyed by the system's vertex or edge ids in sorted order, or None when
    `labels` is None or an empty map: no labelling.  Checked in the order
    its faults are named: that it is a map (`_map`, named as the argument:
    owners, letters or colours); in the map's order, a key outside `ids`
    or a value outside `allowed` when that is given; when `total`, the
    first id without a value; then, in the map's order, a value that is
    not a string."""
    if labels is None:
        return None
    labels = _map(labels, what + "s")
    if not labels:
        return None
    for x, value in labels.items():
        if x not in ids:
            raise InputError("%s given for unknown %s %r" % (what, whose, x))
        if allowed and value not in allowed:
            raise InputError("%s of %r must be %s"
                             % (what, x, " or ".join(allowed)))
    if total:
        for x in ids:
            if x not in labels:
                raise InputError("%s %r has no %s" % (whose, x, what))
    _strings(labels.values(), what)
    return labels


def _strings(ids, what):
    """The list of `ids`, after checking that each is a string."""
    ids = list(ids)
    for x in ids:
        if not isinstance(x, str):
            raise InputError("%s %r is not a string" % (what, x))
    return ids


def _collection(values, what, of="strings"):
    """`values`, if it is a collection other than a string, which would
    read as its characters: the one check of an argument's shape, made
    once per argument.  Anything else is an InputError that names `what`
    and the value, and says what the collection should hold: `of`."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise InputError("%s %r is not a collection of %s"
                         % (what, values, of))
    return values


def _lookup(values, key, message, *names):
    """`values[key]`; a key that `values` lacks, out of range or
    unhashable, is an InputError: `message` % `names`, else % the key."""
    try:
        return values[key]
    except (KeyError, IndexError, TypeError):
        raise InputError(message % (names or (key,))) from None


def _map(values, what):
    """A dict of `values`, a map or a collection of (key, value) pairs
    (`_collection`); a collection that is not one is refused alike.  An
    unhashable key becomes an `_Unhashable`, which the caller's own check
    of its keys names as it names any key it refuses."""
    values = _collection(values, what, "pairs")
    try:
        if hasattr(values, "keys"):  # a map, read as `dict` reads one
            return dict(values)
        pairs = {}
        for k, v in values:
            try:
                pairs[k] = v
            except TypeError:  # an unhashable key
                pairs[_Unhashable(k)] = v
        return pairs
    except (TypeError, ValueError):
        raise InputError("%s %r is not a collection of pairs"
                         % (what, values)) from None


class _Unhashable:
    """An unhashable key's stand-in: it equals no other key, and its repr
    is the key's."""

    def __init__(self, key):
        self.key = key

    def __repr__(self):
        return repr(self.key)


def _string_set(values, what, member="colour"):
    """The frozenset of `values`, a collection of strings (`_collection`,
    naming `what`); a `member` that is not a string is an InputError that
    names the first."""
    return frozenset(_strings(_collection(values, what), member))


def _count(value, what):
    """`value` if it is an int, never a bool, else an InputError."""
    if type(value) is not int:
        raise InputError("%s %r is not an integer" % (what, value))
    return value


def _reach(starts, succ):
    """The set of vertices reachable from `starts` through `succ`, which
    gives a vertex's successors; `starts` included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in succ(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _tarjan_marks(succ, roots):
    """The one iterative Tarjan of the package, over vertex numbers: `succ`
    lists each vertex's successors, and the search roots at `roots` in
    order, skipping visited ones.  Returns a list holding, for each vertex,
    n (the number of vertices) plus the number of its component in
    emission order, each component emitted after every component it
    reaches, or -1 for a vertex not reached.  While a vertex is on the
    stack its entry is its low link, a stack position, so `low[w] <
    low[v]` also says that a visited `w` is still on the stack."""
    low = [-1] * len(succ)
    stack = []
    mark = len(succ)
    for root in roots:
        if low[root] >= 0:
            continue
        low[root] = 0
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if low[w] < 0:
                    low[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                at = low[v]
                if stack[at] == v:
                    for w in stack[at:]:
                        low[w] = mark
                    del stack[at:]
                    mark += 1
                elif at < low[work[-1][0]]:
                    low[work[-1][0]] = at
    return low


# `_components` trims only graphs of more vertices than this.  Timed on the
# benchmark's splits, the trim costs more than the search it saves below
# about 32 to 48 vertices; the CLI workload's splits, all under 40
# vertices, would pay about 5% for it.
_TRIM_ABOVE = 64


def _components(edges):
    """The strongly connected components of the graph of `edges` (`Edge`
    objects) that have an inner edge, each as the list of its inner edges
    in the given order, in the order of their first inner edge.  Every
    vertex of such a component is the source of one of its inner edges.
    On more than `_TRIM_ABOVE` vertices, `_in_edges_left` first drops the
    vertices that no cycle reaches; the search roots only at the rest,
    and the grouping pass reads only their out-edges.  A vertex on a cycle
    is never dropped, and no vertex left has a dropped successor, so the
    lists and their order do not change."""
    number = {}
    src = [number.setdefault(e.source, len(number)) for e in edges]
    tgt = [number.setdefault(e.target, len(number)) for e in edges]
    succ = [[] for _ in number]
    for s, t in zip(src, tgt):
        succ[s].append(t)
    group = zip(edges, src, tgt)
    if len(succ) > _TRIM_ABOVE:
        left = _in_edges_left(succ, tgt)
        marks = _tarjan_marks(succ, compress(count(), left))
        group = compress(group, map(left.__getitem__, src))
    else:
        marks = _tarjan_marks(succ, src)
    inner = {}
    for e, s, t in group:
        if marks[s] == marks[t]:
            inner.setdefault(marks[s], []).append(e)
    return list(inner.values())


def _in_edges_left(succ, tgt):
    """Each vertex's in-edges left after each vertex with none is dropped
    in turn with its out-edges (Kahn's order), 0 for a dropped one; `tgt`
    lists every edge's target.  A vertex on a cycle keeps an in-edge."""
    left = [0] * len(succ)
    for t in tgt:
        left[t] += 1
    dropped = list(compress(count(), map(operator.not_, left)))
    for v in dropped:
        for w in succ[v]:
            left[w] -= 1
            if not left[w]:
                dropped.append(w)
    return left


def _unroll(v, cycle, step):
    """The lasso of reading `cycle` forever from `v`, `step(v, a)` being
    the edge from `v` on `a`: the edges of the rounds before the first
    round that starts where an earlier one did, and those from it on."""
    starts = {}
    edges = []
    while v not in starts:
        starts[v] = len(edges)
        for a in cycle:
            e = step(v, a)
            edges.append(e)
            v = e.target
    return edges[:starts[v]], edges[starts[v]:]


# ---------------------------------------------------------------------------
# Acceptance conditions.  Each class evaluates loop_status via accepts():
# given the set of colours seen infinitely often, is the run accepting?

class Condition:
    """What every condition shares: `over` says what its ids name, the
    colours of the system it is read on (the default) or the system's
    edge ids ("edges").  Only `_reading` interprets it."""

    over = "colours"


def _over(cond, over):
    """A copy of `cond` naming `over`: "colours" or "edges"."""
    out = copy.copy(cond)
    out.over = over
    return out


class MullerCondition(Condition):
    kind = "muller"

    def __init__(self, family):
        sets = set()
        for s in _collection(family, "family", "colour sets"):
            fs = _string_set(s, "family set")
            if not fs:
                raise InputError("empty set in Muller family")
            sets.add(fs)
        self.family = frozenset(sets)

    def accepts(self, colours):
        return frozenset(colours) in self.family

    def referenced_colours(self):
        return frozenset().union(*self.family)


class ParityCondition(Condition):
    """Min-even parity: a run is accepting iff the minimum priority among
    the colours seen infinitely often is even."""

    kind = "parity"

    def __init__(self, priorities):
        self.priorities = _map(priorities, "priorities")
        _strings(self.priorities, "colour")
        for c, p in self.priorities.items():
            # bool is a subclass of int, and True must not read as priority 1
            if type(p) is not int or p < 0:
                raise InputError("priority of %r must be a nonnegative integer" % c)

    def accepts(self, colours):
        try:
            return min(self.priorities[c] for c in colours) % 2 == 0
        except KeyError as e:
            raise InputError("no priority for colour %r" % e.args[0]) from None

    def referenced_colours(self):
        return frozenset(self.priorities)


PLAYERS = ("Eve", "Adam")  # who wins by a least priority p: PLAYERS[p % 2]


def _compressed(values):
    """Each used integer of `values` mapped to its compressed value: the
    least becomes its own parity and each next one the one before plus the
    parity of the step, so each run of one parity shares one value."""
    used = sorted(set(values))
    new = {used[0]: used[0] % 2}
    for a, b in zip(used, used[1:]):
        new[b] = new[a] + (b - a) % 2
    return new


class _ColourSet(Condition):
    def __init__(self, colours):
        self.colours = _string_set(colours, "colour set")

    def referenced_colours(self):
        return self.colours


class BuchiCondition(_ColourSet):
    kind = "buchi"

    def accepts(self, colours):
        return bool(frozenset(colours) & self.colours)


class CoBuchiCondition(_ColourSet):
    kind = "cobuchi"

    def accepts(self, colours):
        return not (frozenset(colours) & self.colours)


class _Pairs(Condition):
    def __init__(self, pairs):
        self.pairs = tuple(map(_pair, _collection(pairs, "pairs", "pairs")))

    def referenced_colours(self):
        return frozenset().union(*(e | f for e, f in self.pairs))


def _pair(p):
    """The pair `p`, a tuple or list of two colour collections, as two
    frozensets; anything else is an InputError that names it."""
    if not (isinstance(p, (tuple, list)) and len(p) == 2):
        raise InputError("pair %r is not an (E, F) pair" % (p,))
    return _string_set(p[0], "pair side"), _string_set(p[1], "pair side")


class RabinCondition(_Pairs):
    """Pairs (E_i, F_i); accepting iff some pair has Inf meeting E_i and
    avoiding F_i."""

    kind = "rabin"

    def accepts(self, colours):
        inf = frozenset(colours)
        return any(inf & e and not (inf & f) for e, f in self.pairs)


class StreettCondition(_Pairs):
    """Dual of Rabin: accepting iff every pair has Inf avoiding E_i or
    meeting F_i."""

    kind = "streett"

    def accepts(self, colours):
        inf = frozenset(colours)
        return all(not (inf & e) or (inf & f) for e, f in self.pairs)


def loop_status(cond, colours):
    """Status of a run whose infinitely-often colour set is `colours`.

    Returns True for accepting, False for rejecting.
    """
    colours = _string_set(colours, "loop colour set")
    if not colours:
        raise InputError("loop colour set must be nonempty")
    return cond.accepts(colours)


# an edge's id as its key, or as its colour without a colour map: `eid[:]`
# is `eid` itself, from a C-level call as cheap in bulk as a map lookup
_ID = operator.itemgetter(slice(None))


def _reading(ts, cond):
    """How `cond` reads the loops of `ts`, the only code that decides an
    edge's key: the system's colour, or its id when the condition's `over`
    is "edges".  Returns a lookup from edge ids of `ts` to keys, which
    does not check its ids (`_check_known` does), and the universe of
    keys.  Naming an id outside the universe, or giving some key no
    priority, is an InputError."""
    what = "edge" if cond.over == "edges" else "colour"
    key = _ID if what == "edge" else ts._colour_of
    universe = frozenset(ts._by_id) if what == "edge" else ts.colour_set()
    named = cond.referenced_colours()
    if named != universe:
        if not named <= universe:
            raise InputError("condition references unknown %s %r"
                             % (what, min(named - universe)))
        if cond.kind == "parity":
            raise InputError("no priority assigned to %s %r"
                             % (what, min(universe - named)))
    return key, universe


def _check_known(ts, edge_ids):
    """Refuse a set of edge ids, strings, naming an edge that `ts` lacks,
    naming the least such id."""
    unknown = edge_ids.difference(ts._by_id)
    if unknown:
        raise InputError("unknown edge %r" % min(unknown))


def loop_status_over(ts, cond, edge_ids):
    """Status of the loop given by `edge_ids` within `ts`, read through
    `_reading`; the least edge that `ts` lacks is an InputError."""
    edge_ids = _string_set(edge_ids, "loop edge set", "edge id")
    if not edge_ids:
        raise InputError("loop edge set must be nonempty")
    key, _ = _reading(ts, cond)
    _check_known(ts, edge_ids)
    return cond.accepts(frozenset(map(key, edge_ids)))


def validate(ts, cond=None):
    """Check the structural invariants; returns a list of violation
    messages, empty when everything holds."""
    problems = [] if ts.initial else ["initial set is empty"]
    problems += ["dead-end vertex %r has no outgoing edge" % v
                 for v, out in ts._out.items() if not out]
    if cond is not None:
        try:
            _reading(ts, cond)
        except InputError as e:
            problems.append(str(e))
    return problems


def _valid_reading(ts, cond):
    """`_reading(ts, cond)` where `validate(ts, cond)` finds no problem,
    else an InputError that lists the problems."""
    if validate(ts):
        raise InputError("; ".join(validate(ts, cond)))
    return _reading(ts, cond)


# ---------------------------------------------------------------------------
# Deterministic automata and the composition product.

class Automaton:
    """A deterministic, complete transition system reading input letters.

    Every edge carries a letter; for each state and letter there is exactly
    one outgoing edge, and there is a single initial state.
    """

    def __init__(self, ts, condition):
        if ts.letters is None:
            raise InputError("automaton edges must carry letters")
        if len(ts.initial) != 1:
            raise InputError("automaton must have exactly one initial state")
        self.ts = ts
        self.condition = condition
        self._step = {}
        for e in ts.edges:
            a = ts.letters[e.id]
            if (e.source, a) in self._step:
                raise InputError(
                    "automaton not deterministic at state %r, letter %r"
                    % (e.source, a))
            self._step[(e.source, a)] = e
        self.alphabet = frozenset(ts.letters.values())  # keyed by edge id
        order = sorted(self.alphabet)
        missing = next(((q, a) for q in ts.vertices for a in order
                        if (q, a) not in self._step), None)
        if missing:
            raise InputError(
                "automaton not complete at state %r, letter %r" % missing)
        # each edge's key under the condition: its colour or its id
        self.key, _ = _reading(ts, condition)

    @property
    def initial(self):
        return self.ts.initial[0]

    def step(self, q, a):
        return _lookup(self._step, (q, a), "no transition from %r on %r", q, a)

    def run_colours(self, prefix, cycle):
        """Keys (`self.key`: colours, or edge ids for a condition over
        edges) of the edges taken infinitely often when reading the
        ultimately periodic word prefix cycle^w, together with their
        letters: the letters of the cycle read forever.

        Returns (inf_keys, inf_letters)."""
        if not cycle:
            raise InputError("cycle must be nonempty")
        q = self.initial
        for a in prefix:
            q = self.step(q, a).target
        _, looped = _unroll(q, cycle, self.step)
        cols = frozenset(self.key(e.id) for e in looped)
        lets = frozenset(self.ts.letters[e.id] for e in looped)
        return cols, lets

    def accepts_word(self, prefix, cycle):
        cols, _ = self.run_colours(prefix, cycle)
        return loop_status(self.condition, cols)


class Morphism:
    """A pair of maps (on vertices and on edges) from one conditioned
    transition system to another; `acdkit.morphism` checks them."""

    def __init__(self, source_ts, source_cond, target_ts, target_cond,
                 vertex_map, edge_map):
        self.source_ts = source_ts
        self.source_cond = source_cond
        self.target_ts = target_ts
        self.target_cond = target_cond
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)

    def apply_vertex(self, v):
        return _lookup(self.vertex_map, v, "vertex %r is not mapped")

    def apply_edge(self, eid):
        return _lookup(self.edge_map, eid, "edge %r is not mapped")


class Product(_Record):
    _fields = ("system", "condition", "projection")

    def __init__(self, system, condition, projection):
        self.system = system
        self.condition = condition
        # the Morphism onto the right-hand system, or None
        self.projection = projection


def _lift(ts, initial, starts, step, vertex_name, edge_name, coloured=False):
    """`ts` lifted along a deterministic memory: one vertex per (vertex,
    memory) pair reachable from the pairs `starts`, named once by
    `vertex_name(v, m)`, and from it, for each edge `e` of `ts` leaving
    `v`, an edge named `edge_name(e.id, m)` to (e.target, m2), where
    `step(m, e)` is (label, m2).  Owners and letters are copied through
    the projection; the pairs `initial`, reached from `starts`, are the
    initial vertices.  Returns the lifted system, the label of each lifted
    edge (also its colour when `coloured`), and the vertex and edge maps
    of the projection onto `ts`."""
    names = {}
    stack = []
    for p in starts:
        if p not in names:
            names[p] = vertex_name(*p)
            stack.append(p)
    stack.reverse()  # walk the starts in order: the edges come nearly sorted
    vmap, emap, labels, edges = {}, {}, {}, []
    while stack:
        v, m = p = stack.pop()
        vid = names[p]
        vmap[vid] = v
        for e in ts._out[v]:
            label, m2 = step(m, e)
            q = (e.target, m2)
            tid = names.get(q)
            if tid is None:
                tid = names[q] = vertex_name(*q)
                stack.append(q)
            eid = edge_name(e.id, m)
            edges.append(Edge(eid, vid, tid))
            emap[eid] = e.id
            labels[eid] = label
    system = TransitionSystem(
        vmap, edges, [names[p] for p in initial],
        owners=ts.owners and {u: ts.owners[v] for u, v in vmap.items()},
        letters=ts.letters and {f: ts.letters[e] for f, e in emap.items()},
        colours=labels if coloured else None)
    return system, labels, vmap, emap


def compose(automaton, ts, ts_condition=None):
    """Product of a deterministic automaton with a transition system.

    The automaton reads the colours of `ts` as its input letters.  Each
    product edge is coloured with the key the automaton's condition reads
    on the automaton edge taken, so the product carries that condition
    over its colours: `ts` lifted along the automaton's states
    (`_lift`).  When `ts_condition` is given, the returned projection
    morphism targets (ts, ts_condition).
    """
    missing = ts.colour_set() - automaton.alphabet
    if missing:
        raise InputError(
            "automaton alphabet misses colours: %s"
            % ", ".join(sorted(missing)))

    def step(q, e):  # the alphabet covers every colour, checked above
        ae = automaton._step[q, ts._colour_of(e.id)]
        return automaton.key(ae.id), ae.target

    def name(x, q):
        return "%s,%s" % (x, q)

    pairs = [(v, automaton.initial) for v in ts.initial]
    system, _, vmap, emap = _lift(ts, pairs, pairs, step, name, name,
                                  coloured=True)
    cond = _over(automaton.condition, "colours")
    projection = None
    if ts_condition is not None:
        projection = Morphism(system, cond, ts, ts_condition, vmap, emap)
    return Product(system, cond, projection)


# ---------------------------------------------------------------------------
# Ultimately periodic runs, presented as a lasso.

class Run:
    """A lasso-shaped run: a finite prefix of edges from an initial vertex
    followed by a cycle repeated forever."""

    def __init__(self, ts, prefix, cycle):
        self.prefix = tuple(_strings(_collection(prefix, "prefix"), "edge id"))
        self.cycle = tuple(_strings(_collection(cycle, "cycle"), "edge id"))
        if not self.cycle:
            raise InputError("run cycle must be nonempty")
        edges = [ts.edge(eid) for eid in self.prefix + self.cycle]
        if edges[0].source not in ts.initial:
            raise InputError("run does not start at an initial vertex")
        for a, b in zip(edges, edges[1:]):
            if a.target != b.source:
                raise InputError(
                    "edges %r and %r are not consecutive" % (a.id, b.id))
        if edges[-1].target != edges[len(self.prefix)].source:
            raise InputError("run cycle does not close")
        self.ts = ts

    def inf_colours(self):
        return frozenset(map(self.ts._colour_of, self.cycle))

    def unfold(self, n):
        """First n edge ids of the infinite run."""
        return (self.prefix + self.cycle * (n // len(self.cycle) + 1))[:n]

    def same_run(self, other):
        """Do the two lassos denote the same infinite edge sequence?"""
        p = max(len(self.prefix), len(other.prefix))
        n = p + math.lcm(len(self.cycle), len(other.cycle))
        return self.unfold(n) == other.unfold(n)

    def is_accepting(self, cond):
        return loop_status_over(self.ts, cond, self.cycle)
