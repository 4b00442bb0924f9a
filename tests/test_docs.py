"""README's library overview documents every name that `acdkit`
re-exports, in the entry of the module that defines it."""

import ast
import re
from pathlib import Path

import acdkit

SRC = Path(acdkit.__file__).parent
README = Path(__file__).parent.parent / "README.md"


def _reexports():
    """(name, module) for each name `acdkit/__init__.py` imports from one
    of its modules."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [(alias.name, node.module) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names]


def _entries():
    """Module name -> text of its entry in README's library overview, an
    entry being a top-level bullet that starts with the module's name."""
    text = README.read_text(encoding="utf-8")
    overview = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^- `(\w+)` — ", overview, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_readme_documents_every_reexported_name_under_its_module():
    entries = _entries()
    # a name opens a code span, as in `name`, `name(args)` or `name.attr`
    missing = ["%s.%s" % (module, name) for name, module in _reexports()
               if not re.search(r"`%s\b" % name, entries.get(module, ""))]
    assert not missing, missing
