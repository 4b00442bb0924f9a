"""Canonical text format (versioned JSON) and DOT export."""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _string

from .acd import acd_stats
from .core import (BuchiCondition, CoBuchiCondition, InputError,
                   MullerCondition, ParityCondition, RabinCondition,
                   StreettCondition, TransitionSystem, _Record)
from .zielonka import _node_name

FORMAT = "acdkit/1"


class Document(_Record):
    _fields = ("system", "condition", "morphism")

    def __init__(self, system, condition=None, morphism=None):
        self.system = system
        self.condition = condition
        self.morphism = morphism  # {"vertices": {...}, "edges": {...}}


def parse(text):
    try:
        obj = json.loads(text)
        if "\\u" in text:  # a lone surrogate parses but cannot be written
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as e:
        raise InputError(
            "parse error at line %d column %d: %s" % (e.lineno, e.colno, e.msg)
        ) from None
    except UnicodeEncodeError:
        raise InputError("parse error: a lone surrogate escape") from None
    except RecursionError:
        raise InputError("parse error: too deeply nested") from None
    except ValueError:  # CPython's limit on the digits of an int literal
        raise InputError("parse error: an integer is too long") from None
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    if obj.get("format") != FORMAT:
        raise InputError("unsupported format tag %r" % obj.get("format"))
    sysobj = obj.get("system")
    if not isinstance(sysobj, dict):
        raise InputError("missing system block")
    # the system checks its own values; this checks only the JSON shapes
    system = TransitionSystem(
        _list(sysobj.get("vertices", []), "vertices"),
        _list(sysobj.get("edges", []), "edges"),
        _list(sysobj.get("initial", []), "initial"),
        owners=_string_map(sysobj.get("owners"), "owners"),
        letters=_object(sysobj.get("letters"), "letters"),
        colours=_object(sysobj.get("colours"), "colours"))
    condition = None
    if obj.get("condition") is not None:
        condition = condition_from_obj(obj["condition"])
    morphism = None
    if obj.get("morphism") is not None:
        mobj = obj["morphism"]
        if not isinstance(mobj, dict) or \
                not isinstance(mobj.get("vertices"), dict) or \
                not isinstance(mobj.get("edges"), dict):
            raise InputError("morphism block needs vertex and edge maps")
        morphism = {"vertices": _string_map(mobj["vertices"], "vertex map"),
                    "edges": _string_map(mobj["edges"], "edge map")}
    return Document(system, condition, morphism)


def _list(value, what):
    if not isinstance(value, list):
        raise InputError("%s must be a list" % what)
    return value


def _object(value, what):
    """`value` when it is absent or an object."""
    if value is not None and not isinstance(value, dict):
        raise InputError("%s must be an object" % what)
    return value


def _string_map(value, what):
    """`value` when it is absent or an object whose values are strings."""
    if value is not None and not (isinstance(value, dict) and all(
            isinstance(x, str) for x in value.values())):
        raise InputError("%s must map ids to strings" % what)
    return value


def condition_from_obj(obj):
    """The condition of a condition block; its optional `over` says
    whether the block names colours (the default) or edge ids.  The
    condition checks its own colours; this checks only the JSON shapes."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("condition block needs a type")
    kind, over = obj["type"], obj.get("over", "colours")
    if over not in ("colours", "edges"):
        raise InputError('over must be "colours" or "edges"')
    if kind == "muller":
        cond = MullerCondition(
            [_list(s, "a family set")
             for s in _list(obj.get("family", []), "family")])
    elif kind == "parity":
        prios = obj.get("priorities", {})
        if not isinstance(prios, dict):
            raise InputError("priorities must map colours to integers")
        cond = ParityCondition(prios)
    elif kind in ("buchi", "cobuchi"):
        cls = BuchiCondition if kind == "buchi" else CoBuchiCondition
        cond = cls(_list(obj.get("colours", []), "colours"))
    elif kind in ("rabin", "streett"):
        pairs = []
        for p in _list(obj.get("pairs", []), "pairs"):
            if not isinstance(p, list) or len(p) != 2:
                raise InputError("%s pairs must be [E, F] lists" % kind)
            pairs.append((_list(p[0], "a %s pair side" % kind),
                          _list(p[1], "a %s pair side" % kind)))
        cls = RabinCondition if kind == "rabin" else StreettCondition
        cond = cls(pairs)
    else:
        raise InputError("unknown condition type %r" % kind)
    cond.over = over
    return cond


def condition_to_obj(cond):
    obj = {"type": cond.kind}
    if cond.over == "edges":
        obj["over"] = "edges"
    if cond.kind == "muller":
        obj["family"] = sorted(map(sorted, cond.family),
                               key=lambda s: (len(s), s))
    elif cond.kind == "parity":
        obj["priorities"] = dict(cond.priorities)
    elif cond.kind in ("buchi", "cobuchi"):
        obj["colours"] = sorted(cond.colours)
    elif cond.kind in ("rabin", "streett"):
        obj["pairs"] = sorted([sorted(e), sorted(f)] for e, f in cond.pairs)
    else:
        raise InputError("cannot serialize condition of kind %r" % cond.kind)
    return obj


def system_to_obj(ts):
    obj = {
        "vertices": list(ts.vertices),
        "edges": [[e.id, e.source, e.target] for e in ts.edges],
        "initial": list(ts.initial),
    }
    if ts.owners:
        obj["owners"] = dict(ts.owners)
    if ts.letters:
        obj["letters"] = dict(ts.letters)
    colours = ts._recoloured()
    if colours:
        obj["colours"] = colours
    return obj


def serialize(doc):
    obj = {"format": FORMAT, "system": system_to_obj(doc.system)}
    if doc.condition is not None:
        obj["condition"] = condition_to_obj(doc.condition)
    if doc.morphism is not None:
        obj["morphism"] = {"vertices": dict(doc.morphism["vertices"]),
                           "edges": dict(doc.morphism["edges"])}
    return dumps(obj)


def dumps(obj):
    """Canonical JSON text, byte for byte `json.dumps(obj, sort_keys=True,
    indent=2, ensure_ascii=False) + "\\n"`.  An indent keeps `json` off
    its C encoder (a 5.6 MB transform document took 0.21 s there against
    0.13 s here), so every value a command writes is written here: str
    (through `json`'s own encoder), int, bool, None, list, tuple and dict
    with str keys.  Any other value, a float say, goes to `json.dumps`,
    its newlines indented to the depth (a newline in a string is escaped)."""
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, nl):
    kind = type(obj)
    if kind is str:
        return _string(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    inner = nl + "  "
    if kind is list or kind is tuple:
        return "[%s%s%s]" % (inner, ("," + inner).join(
            [_dumps(x, inner) for x in obj]), nl) if obj else "[]"
    if kind is dict and all(type(k) is str for k in obj):
        return "{%s%s%s}" % (inner, ("," + inner).join(
            [_string(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]),
            nl) if obj else "{}"
    return json.dumps(obj, sort_keys=True, indent=2,
                      ensure_ascii=False).replace("\n", nl)


# ---------------------------------------------------------------------------
# Payloads for non-document command outputs.

def tree_to_obj(tree):
    nodes = []
    for n in tree.nodes:
        nodes.append({
            "node": _node_name(n),
            "label": sorted(tree.label[n]),
            "priority": tree.priority(n),
            "children": [_node_name(c) for c in tree.children_map[n]],
        })
    return {
        "polarity": "even" if tree.even else "odd",
        "height": tree.height,
        "nodes": nodes,
        "branches": [_node_name(l) for l in tree.leaves],
    }


def acd_to_obj(acd):
    trees = []
    for t in acd.trees:
        nodes = []
        for n in t.nodes:
            nodes.append({
                "node": _node_name(n),
                "edges": sorted(t.label[n]),
                "states": sorted(t.states[n]),
                "priority": t.priority(n),
            })
        trees.append({
            "index": t.index,
            "polarity": "even" if t.even else "odd",
            "height": t.height,
            "nodes": nodes,
        })
    obj = {"tag": acd.tag, "trees": trees, "stats": acd_stats(acd)}
    if acd.t0_edges:
        obj["t0"] = {
            "edges": sorted(acd.t0_edges),
            "states": sorted(acd.t0_states),
            "priority": acd.tree(0).priority(()),
        }
    return obj


# ---------------------------------------------------------------------------
# DOT export.

def _q(s):
    return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')


def dot_system(ts):
    lines = ["digraph system {", "  rankdir=LR;"]
    for v in ts.vertices:
        attrs = ["shape=circle"]
        if v in ts.initial:
            attrs.append("penwidth=2")
        if ts.owners and ts.owners.get(v) == "Adam":
            attrs = ["shape=box"] + attrs[1:]
        lines.append("  %s [%s];" % (_q(v), ",".join(attrs)))
    colours = ts._recoloured()
    for e in ts.edges:
        label = e.id
        if ts.letters is not None:
            label += ":" + ts.letters[e.id]
        if e.id in colours:
            label += "/" + colours[e.id]
        lines.append("  %s -> %s [label=%s];"
                     % (_q(e.source), _q(e.target), _q(label)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_tree_nodes(lines, indent, prefix, tree, extra_of=None):
    for n in tree.nodes:
        shape = "ellipse" if tree.accepting(n) else "box"
        text = "{%s}" % ",".join(sorted(tree.label[n]))
        if extra_of is not None:
            text += "\\n%s" % extra_of(n)
        text += "\\n%d" % tree.priority(n)
        lines.append("%s%s [shape=%s,label=%s];"
                     % (indent, _q(prefix + _node_name(n)), shape, _q(text)))
    for n in tree.nodes:
        for c in tree.children_map[n]:
            lines.append("%s%s -> %s;"
                         % (indent, _q(prefix + _node_name(n)),
                            _q(prefix + _node_name(c))))


def dot_tree(tree):
    lines = ["digraph zielonka {", "  node [fontsize=10];"]
    _dot_tree_nodes(lines, "  ", "", tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_acd(acd):
    lines = ["digraph acd {", "  node [fontsize=10];"]
    for t in ((acd.tree(0),) if acd.t0_edges else ()) + acd.trees:
        lines.append("  subgraph cluster_t%d {" % t.index)
        lines.append("    label=%s;" % _q("t%d" % t.index))
        _dot_tree_nodes(
            lines, "    ", "t%d:" % t.index, t,
            extra_of=lambda n, t=t: ",".join(sorted(t.states[n])))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
