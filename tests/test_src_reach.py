"""Every public function and method in ``src/oddnil`` has a caller there.

The library holds what the registry, the CLI and the benchmark reach; a
helper that only a test uses lives in ``tests/``.  A definition counts as
reached when any module of the package names it (a call, an attribute, an
import or a reference such as a registry entry) outside a definition of
the same name, so recursion alone does not count.  Names are matched
without their module, so dead code that shares a name with live code goes
unnoticed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "oddnil"

# public definitions kept without a caller in src/, each with its reason
ALLOWED = {
    "oddops.clear_caches": "empties every lru_cache so a test or a timing starts cold; no result needs it",
    "onh.word_super_degree": "the parity of a word, for the parity shifts of ROADMAP item 4",
    "onh.OnhElement.normalize": "the standard-basis form of an element, for the ONH_a^N check of ROADMAP item 5",
}


def _names(node, skip):
    """Every name node references, leaving out references to skip."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    out.discard(skip)
    return out


def _scan():
    """(public definitions as {qualified name: short name}, names referenced
    anywhere in the package outside the definition that owns them)."""
    defs, refs = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs["%s.%s" % (path.stem, node.name)] = node.name
                refs |= _names(node, node.name)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs["%s.%s.%s" % (path.stem, node.name, sub.name)] = sub.name
                        refs |= _names(sub, sub.name)
                    else:
                        refs |= _names(sub, None)
                refs |= {n for base in node.bases + node.decorator_list for n in _names(base, None)}
            else:
                refs |= _names(node, None)
    return {q: n for q, n in defs.items() if not n.startswith("_")}, refs


def test_every_public_definition_has_a_caller_in_src():
    defs, refs = _scan()
    unreached = sorted(q for q, n in defs.items() if n not in refs)
    assert [q for q in unreached if q not in ALLOWED] == []


def test_the_allowlist_names_only_unreached_definitions():
    defs, refs = _scan()
    for qualified in ALLOWED:
        assert qualified in defs, qualified
        assert defs[qualified] not in refs, "%s now has a caller; drop it from ALLOWED" % qualified
