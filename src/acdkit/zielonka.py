"""Zielonka trees of Muller conditions and the parity automaton read off
from the branches of the tree."""

from __future__ import annotations

from .core import (Automaton, CapExceeded, InputError, MullerCondition,
                   ParityCondition, TransitionSystem, _collection, _count,
                   _lift, _lookup, _string_set)


class ZielonkaTree:
    """Alternating tree of maximal status-flipping sub-objects.

    The Zielonka tree of a Muller condition (`build_zielonka_tree`, labels
    are colour sets) and each tree of an alternating cycle decomposition
    (`acdkit.acd.build_acd`, labels are the edge sets of loops) are of this
    type: a Zielonka tree is the decomposition of a one-vertex system.

    Nodes are tuples of child indices, the root being ().  The root is
    labelled `root`, whose status is `even` (True for accepting), and
    `children(label)` gives the labels of a node's children: the maximal
    sub-objects of its label whose status differs from the node's own, in
    canonical order (`_maximal_flipped`).  Statuses alternate with depth,
    so a node's priority is its depth plus `root_priority`, the root's own:
    0 or 1 by its status, to which the decomposition adds 2 once under its
    "odd" tag.  A priority is even exactly when the node is accepting.
    """

    def __init__(self, root, even, children):
        self.even = even
        self.root_priority = 0 if even else 1
        self.label = {(): root}
        self.children_map = {}
        stack = [()]
        while stack:
            node = stack.pop()
            kids = children(self.label[node])
            ids = tuple(node + (i,) for i in range(len(kids)))
            self.label.update(zip(ids, kids))
            self.children_map[node] = ids
            stack.extend(reversed(ids))
        self._index()

    def _index(self):
        """Nodes, leaves and height, read off `children_map` (in preorder)."""
        self.nodes = tuple(self.children_map)
        self.leaves = tuple(n for n in self.nodes if not self.children_map[n])
        self.height = 1 + max(len(n) for n in self.nodes)

    def priority(self, node):
        return len(node) + self.root_priority

    def accepting(self, node):
        return self.priority(node) % 2 == 0

    def restrict(self, kept):
        """The subtree on the nodes in the set `kept`, which holds the root
        and the parent of each of its nodes: the same statuses, node order
        and `label` map (shared, so it also names dropped nodes), with
        children, nodes, leaves and height of its own."""
        sub = ZielonkaTree.__new__(ZielonkaTree)
        sub.even, sub.root_priority = self.even, self.root_priority
        sub.label = self.label
        sub.children_map = {n: tuple(c for c in kids if c in kept) for n, kids
                            in self.children_map.items() if n in kept}
        sub._index()
        return sub


def _maximal_flipped(top, base, shrink, status, cap=None, where=None):
    """Inclusion-maximal sub-objects of the frozenset `top` whose status
    differs from `base`, in canonical order (`_canonical_maximal`).

    Worklist over `shrink(s)`, which yields strictly smaller candidates
    below `s`: for a colour set, the set minus one colour; for a loop, the
    maximal subloops inside each Zielonka-tree child of its colour set
    (`acdkit.loops._flipped_subloops`).  Candidates sharing the base
    status are shrunk further, flipped ones are recorded.  The step must
    put every flipped sub-object of `s` inside some candidate; then every
    flipped sub-object of `top` ends up inside a recorded one, and the
    maximal recorded ones are the answer.  Seeing more than `cap` distinct
    sub-objects, `top` included, raises CapExceeded with a message that
    names `where()`, which is only called then.
    """
    seen = {top}
    flipped = []
    stack = [top]
    while stack:
        for sub in shrink(stack.pop()):
            if sub in seen:
                continue
            seen.add(sub)
            if cap is not None and len(seen) > cap:
                raise CapExceeded(
                    "subloop exploration exceeded cap %d in %s: %d subloops "
                    "seen" % (cap, where(), len(seen)))
            if status(sub) != base:
                flipped.append(sub)
            else:
                stack.append(sub)
    return _canonical_maximal(flipped)


def _canonical_maximal(sets):
    """The inclusion-maximal members of `sets`, without repeats, by
    descending size, then sorted member list.  A strict superset is
    larger, so taking the sets by descending size, each one only needs
    testing against the maximal ones kept before it."""
    maximal = []
    for s in sorted(set(sets), key=len, reverse=True):
        if not any(map(s.__lt__, maximal)):
            maximal.append(s)
    # most calls keep one set or none: sorting those anyway makes ACD builds
    # 1-3% and acceptance checks 2-5% slower on the CLI benchmark's games
    if len(maximal) > 1:
        maximal.sort(key=lambda s: (-len(s), sorted(s)))
    return maximal


def _minus_one_colour(colours):
    """Each set of `colours` less one, in any order: the answer is sorted."""
    return (colours - {c} for c in colours if len(colours) > 1)


def _flipped_colour_sets(cond, colours):
    """The children of the colour set `colours` in the Zielonka tree of
    `cond`: its maximal subsets whose status differs, in canonical order.

    One direct read per condition kind, none of which searches all
    subsets of `colours`:

    - Muller: under a rejecting set, the maximal family members inside
      it; under an accepting one, the one-colour-removal search, which
      only walks family members.
    - parity: drop the colours below the least priority of the other
      parity.
    - Büchi, co-Büchi: the set minus the Büchi colours.
    - Rabin, Streett (the complement of Rabin on the same pairs, hence
      the same children): under a Rabin-rejecting set, the maximal
      `colours - F_i` that still meet `E_i`; under a Rabin-accepting one,
      remove `E_i` for every accepting pair until no pair accepts.
    """
    kind = cond.kind
    if kind == "muller":
        family = cond.family
        if colours in family:
            return _maximal_flipped(colours, True, _minus_one_colour,
                                    family.__contains__)
        kids = [s for s in family if s <= colours]
    elif kind == "parity":
        prio = cond.priorities
        least = min(prio[c] for c in colours)
        cut = min((prio[c] for c in colours if (prio[c] - least) % 2),
                  default=None)
        kids = [frozenset(c for c in colours if prio[c] >= cut)] \
            if cut is not None else []
    elif kind in ("buchi", "cobuchi"):
        kids = [colours - cond.colours] if colours & cond.colours else []
    else:
        pairs = cond.pairs
        if any(colours & e and not colours & f for e, f in pairs):
            rest, hit = colours, True
            while hit:
                hit = [e for e, f in pairs if rest & e and not rest & f]
                rest = rest.difference(*hit)
            kids = [rest]
        else:
            kids = [colours - f for e, f in pairs if (colours - f) & e]
    return _canonical_maximal(k for k in kids if k)


def _children_read(cond):
    """`_flipped_colour_sets` of `cond`, memoised for as long as the
    caller keeps it: one Zielonka tree, or one reading of the condition
    on a system (`loops._side`), for an ACD and the condition's tree."""
    memo = {}

    def read(colours):
        if colours not in memo:
            memo[colours] = _flipped_colour_sets(cond, colours)
        return memo[colours]
    return read


def _zielonka_tree(cond, gamma, cap=None, read=None):
    """Zielonka tree of `cond` over the nonempty colour set `gamma`, grown by
    `read` or a fresh `_children_read`; past `cap` nodes, CapExceeded."""
    if not gamma:
        raise InputError("colour set must be nonempty")
    read, size = read or _children_read(cond), [1]

    def children(colours):
        size[0] += len(read(colours))
        if cap is not None and size[0] > cap:
            raise CapExceeded("Zielonka tree exceeded cap %d nodes" % cap)
        return read(colours)
    return ZielonkaTree(gamma, cond.accepts(gamma), children)


def build_zielonka_tree(family, gamma):
    gamma = _string_set(gamma, "colour set")
    # `_zielonka_tree` refuses an empty `gamma` before `family` is read
    cond = MullerCondition(family if gamma else ())
    outside = [sorted(s) for s in cond.family if not s <= gamma]
    if outside:  # the least, so that the message is the same every run
        raise InputError("family set {%s} not within the colour set"
                         % ",".join(min(outside)))
    tree = _zielonka_tree(cond, gamma)
    tree.gamma, tree.family = gamma, cond.family
    return tree


def supp(tree, leaf, colour):
    """Deepest node on the path from the root to the node `leaf` of the
    whole tree `tree` whose label contains the colour (for a decomposition
    tree: the edge); the root always does.  An unknown node or colour is
    an InputError; `_supp` walks down, unchecked, while labels hold it."""
    _lookup(tree.children_map, leaf, "unknown node %r")
    _lookup(dict.fromkeys(tree.label[()]), colour, "unknown colour %r")
    return _supp(tree, leaf, colour)


def _supp(tree, leaf, colour):
    label, children = tree.label, tree.children_map
    node = ()
    for i in leaf:
        child = children[node][i]
        if colour not in label[child]:
            break
        node = child
    return node


def nextbranch(tree, leaf, node):
    """The branch of `tree`, a tree or a restriction, reached from the
    branch `leaf` by moving to the cyclically next child of `node` after
    the one on `leaf`, then down the leftmost children; `node` itself when
    it has no child.  An unknown node, or a `node` that is not on the
    branch `leaf`, is an InputError (`_nextbranch` does not check)."""
    _lookup(tree.label, leaf, "unknown node %r")
    _lookup(tree.children_map, node, "unknown node %r")
    if leaf[:len(node)] != node:
        raise InputError("node %r is not on the branch %r" % (node, leaf))
    return _nextbranch(tree, leaf, node)


def _nextbranch(tree, leaf, node):
    children = tree.children_map
    kids = children[node]
    if not kids:
        return node
    here = leaf[len(node)] if len(leaf) > len(node) else -1
    for node in kids:  # a loop, not next() over a generator: a hot path
        if node[-1] > here:
            break
    else:
        node = kids[0]
    while children[node]:
        node = children[node][0]
    return node


def _branch_step(tree, target, leaf, eid):
    """The paper's step on reading `eid`, an edge or colour, from the branch
    `leaf` of `tree`: the priority of its deepest node holding `eid`, and
    the branch of `target`, the tree or a restriction, cyclically next."""
    tau = _supp(tree, leaf, eid)
    return tree.priority(tau), _nextbranch(target, leaf, tau)


def _parity_interval(height, tag):
    """Priorities used by alternating trees of the given height whose
    tallest roots are accepting ("even"), rejecting ("odd") or both
    ("ambiguous")."""
    return (1 if tag == "odd" else 0, height - 1 if tag == "even" else height)


class ZTAutomaton:
    """Deterministic parity automaton whose states are the branches of a
    Zielonka tree."""

    def __init__(self, automaton, tree, interval):
        self.automaton = automaton
        self.tree = tree
        self.interval = interval

    @property
    def states(self):
        return self.automaton.ts.vertices

    @property
    def initial(self):
        return self.automaton.initial

    def move(self, state, colour):
        """(target state, output priority) on reading `colour`."""
        e = self.automaton.step(state, colour)
        return e.target, self.automaton.condition.priorities[
            self.automaton.key(e.id)]


def state_name(leaf):
    return "b" if not leaf else "b" + ".".join(str(i) for i in leaf)


def _node_name(node):
    return "r" if not node else "r." + ".".join(str(i) for i in node)


def build_zt_automaton(tree):
    """The one-state automaton reading the root's colours, lifted along
    the branches of the tree (`core._lift`) by the transform's branch step
    (`_branch_step`): a Zielonka tree is the decomposition of a one-vertex
    system, and this automaton is that system's transform, its states
    named by branch.  The edge of a colour is named by the colour."""
    gamma = tree.label[()]
    one = TransitionSystem(["q"], [(c, "q", "q") for c in gamma], ["q"],
                           letters={c: c for c in gamma})
    names = {leaf: state_name(leaf) for leaf in tree.leaves}
    ts, priorities, _, _ = _lift(
        one, [("q", tree.leaves[0])], [("q", leaf) for leaf in tree.leaves],
        lambda leaf, e: _branch_step(tree, tree, leaf, e.id),
        lambda q, leaf: names[leaf],
        lambda a, leaf: names[leaf] + "/" + a)
    return ZTAutomaton(Automaton(ts, ParityCondition(priorities)), tree,
                       optimal_parity_interval(tree))


def _branching(tree):
    """Nodes of `tree`, a tree or a restriction, with more than one child,
    and the shapes they allow: rabin when none is accepting, streett when
    none is rejecting, parity when both."""
    bad = tuple(n for n, kids in tree.children_map.items() if len(kids) > 1)
    rabin = not any(tree.accepting(n) for n in bad)
    streett = all(tree.accepting(n) for n in bad)
    return bad, {"rabin": rabin, "streett": streett,
                 "parity": rabin and streett}


def shape(tree):
    """Which classical shapes the tree has: at most one child at every
    accepting node (rabin: rejecting sets closed under union), at every
    rejecting node (streett: accepting sets closed under union), or both
    (parity)."""
    return _branching(tree)[1]


def optimal_parity_interval(tree):
    return _parity_interval(tree.height, "even" if tree.even else "odd")


def min_parity_automaton_size(family, gamma, n_max, priority_values=range(4)):
    """Fewest states, at most `n_max`, of a deterministic parity automaton
    recognising the family with priorities among `priority_values`, else
    None.  The Zielonka tree's branch automaton is least in states, one per
    leaf, and in priorities, one per level alternating in parity from the
    root's, so the sorted values must hold such a chain."""
    values = [_count(v, "priority value") for v in _collection(
        priority_values, "priority_values", "integers")]
    gamma = _string_set(gamma, "colour set")  # refused before n_max
    _count(n_max, "n_max")
    tree = build_zielonka_tree(family, gamma)
    want, chain = tree.root_priority % 2, 0
    for v in sorted(set(values)):
        if v % 2 == want:
            want, chain = 1 - want, chain + 1
    n = len(tree.leaves)
    return n if n <= n_max and chain >= tree.height else None


def min_parity_priority_count(family, gamma):
    """Fewest distinct priorities of a deterministic parity automaton of at
    most 2 states that recognises the family: the Zielonka tree's height,
    when it has at most 2 leaves; None otherwise."""
    tree = build_zielonka_tree(family, gamma)
    return tree.height if len(tree.leaves) <= 2 else None


def _closure(flags):
    """`shape` flags as closure flags (Zielonka, TCS 1998)."""
    return {"union_closed": flags["streett"],
            "intersection_closed": flags["rabin"]}


def closure_oracle(family, gamma):
    """Closure flags of the family: union_closed when the union of two
    accepting sets is accepting, intersection_closed when the union of two
    rejecting sets is rejecting; read off the Zielonka tree's `shape`."""
    return _closure(shape(build_zielonka_tree(family, gamma)))
