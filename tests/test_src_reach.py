"""Every public function and method in ``src/oddnil`` has a caller there.

The library holds what the registry, the CLI and the benchmark reach; a
helper that only a test uses lives in ``tests/``.  A definition counts as
reached when any module of the package names it (a call, an attribute, an
import or a reference such as a registry entry) outside a definition of
the same name, so recursion alone does not count.  Names are matched
without their module, so dead code that shares a name with live code goes
unnoticed.

In the same way, every defaulted parameter of a public ``src/`` function
or method is set by some call in ``src/`` or ``benchmarks/``: an option
that no caller sets has one value, which belongs in the body.  A call sets
a parameter by keyword, by enough positional arguments, or through ``*``
or ``**``; a call by class name counts for ``__init__``.  Calls are
matched to definitions by name alone, like references above.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oddnil"

# public definitions kept without a caller in src/, each with its reason
ALLOWED = {
    "oddops.clear_caches": "empties every lru_cache and the segment-image memo so a test or a timing starts cold; no result needs it",
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


# defaulted parameters that no call in src/ or benchmarks/ sets, each with its reason
UNSET_ALLOWED = {}


def _defaulted_parameters():
    """{name a call uses: [(qualified name, positional parameters a call
    fills, defaulted parameters)]} for every public function and method in
    src/, and every __init__ under its class's name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [(node, node.name, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for sub in cls.body:
                if isinstance(sub, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                    called = cls.name if sub.name == "__init__" else sub.name
                    found.append((sub, "%s.%s" % (cls.name, sub.name), called, 0 if static else 1))
        for fn, qualified, called, bound in found:
            if fn.name.startswith("_") and fn.name != "__init__":
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if defaulted:
                out.setdefault(called, []).append(("%s.%s" % (path.stem, qualified), positional[bound:], defaulted))
    return out


def _unset_parameters():
    """Every defaulted parameter that no call in src/ or benchmarks/ sets,
    named "module.function(parameter)"."""
    defs = _defaulted_parameters()
    unset = {(q, p) for entries in defs.values() for q, _, defaulted in entries for p in defaulted}
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
            for qualified, positional, defaulted in defs.get(name, ()):
                given = set(positional[:len(call.args)]) | {k.arg for k in call.keywords}
                unset -= {(qualified, p) for p in defaulted if spread or p in given}
    return {"%s(%s)" % pair for pair in unset}


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = _unset_parameters()
    assert sorted(unset - set(UNSET_ALLOWED)) == []
    assert sorted(set(UNSET_ALLOWED) - unset) == [], "set by a call now; drop it from UNSET_ALLOWED"
