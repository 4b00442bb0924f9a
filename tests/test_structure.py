"""The package's import structure: every import at the top of its module,
and the modules importing each other down one layer order, `core` at the
bottom and the command line at the top."""

import ast
from pathlib import Path

import acdkit
from conftest import child

SRC = Path(acdkit.__file__).parent
# a module imports only modules of a lower rank
RANK = {"core": 0, "zielonka": 1, "loops": 2, "acd": 3, "morphism": 4,
        "relabel": 4, "games": 4, "docfmt": 5, "cli": 6}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(path):
    """The acdkit modules that the top level of the module imports; the
    package imports its own modules relatively."""
    out = set()
    for node in _parse(path).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module.split(".")[0]] if node.module
                       else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # an absolute import of the package would escape the order
            assert "acdkit" not in ast.unparse(node), ast.unparse(node)
    return out


def test_no_import_inside_a_function():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update("%s:%d" % (path.name, node.lineno)
                             for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not found, sorted(found)


def test_imports_point_down_one_layer_order():
    assert {p.stem for p in SRC.glob("*.py")} == set(RANK) | {"__init__"}
    assert _package_imports(SRC / "core.py") == set()
    for name, rank in RANK.items():
        above = {m for m in _package_imports(SRC / (name + ".py"))
                 if RANK[m] >= rank}
        assert above == set(), name


def test_import_generates_no_code_in_subprocess():
    """Importing the package and its command line pulls in neither
    `dataclasses`, which generates and compiles code for each record
    class, nor `inspect`, which `dataclasses` imports."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import acdkit, acdkit.cli\n"
            "print(sorted(set(sys.modules) - before))\n")
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout))
    assert {"acdkit", "acdkit.cli"} <= added
    assert added.isdisjoint({"dataclasses", "inspect"}), sorted(added)


def test_only_core_reads_how_a_condition_keys_edges():
    """Outside `core`, no module reads a condition's `over`, a system's
    `_colours` or its one colour reader `_colour_of`, so that
    `core._reading` alone decides the key of an edge, and
    `TransitionSystem` alone the colour of one.  `docfmt` parses and
    writes the `over` field of a document."""
    allowed = {("docfmt", "condition_from_obj", "over"),
               ("docfmt", "condition_to_obj", "over")}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "core":
            continue
        for top in _parse(path).body:
            found.update((path.stem, getattr(top, "name", None), node.attr)
                         for node in ast.walk(top)
                         if isinstance(node, ast.Attribute)
                         and node.attr in ("over", "_colours", "_colour_of"))
    assert found == allowed


# the private functions that check an argument and may refuse it
CHECKERS = {
    "core": {"_lookup", "_collection", "_strings", "_map", "_count", "_edge",
             "_pair", "_labelling", "_reading", "_check_known",
             "_valid_reading"},
    "loops": {"_cap"},
    "zielonka": {"_zielonka_tree"},
    "docfmt": {"_list", "_object", "_string_map"},
    "cli": {"_read_doc", "_write", "_require_condition"},
}


def _input_errors(node, scope=()):
    """(scope, line) of each `raise InputError` under `node`, `scope`
    naming the functions around it, outermost first."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _input_errors(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = getattr(child.exc, "func", child.exc)
            if getattr(exc, "id", getattr(exc, "attr", None)) == "InputError":
                yield scope, child.lineno
        yield from _input_errors(child, scope)


def test_input_errors_are_raised_at_entries_and_named_checkers():
    """The engine under the public entries refuses nothing: an InputError
    is raised only in a public function or method, a function nested in
    one, an `__init__`, or a checker named in CHECKERS.  A new check in a
    private function fails here until it is named on purpose."""
    found = [
        "%s.py:%d %s" % (path.stem, line, ".".join(scope))
        for path in sorted(SRC.glob("*.py"))
        for scope, line in _input_errors(_parse(path))
        if not any(not name.startswith("_") or name == "__init__"
                   or name in CHECKERS.get(path.stem, ()) for name in scope)]
    assert not found, found
