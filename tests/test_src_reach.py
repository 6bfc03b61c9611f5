"""Every public function and method in ``src/oddnil`` has a caller there.

The library holds what the registry, the CLI and the benchmark reach; a
helper that only a test uses lives in ``tests/``.  A definition counts as
reached when any module of the package names it (a call, an attribute, an
import or a reference such as a registry entry) outside its own body, so
recursion alone does not count.

A name that one public definition has is matched without its owner.  A
name that two or more have (``scale`` is a method of two classes) is
resolved to its owner, so a live method does not hide a dead one that
shares its name: ``Cls.name`` and ``module.Cls.name`` reach the method of
Cls, ``self.name`` and ``cls.name`` the method of the class they are
written in, ``module.name`` and a bare or imported ``name`` the module's
function.  A reference whose receiver's type the AST does not show, such
as ``p.scale(-1)``, reaches no owner; where it is the only reference to
its owner, it is listed in ``RESOLVED_BY_HAND`` with that owner and a
reason.

In the same way, every defaulted parameter of a public ``src/`` function
or method is set by some call in ``src/`` or ``benchmarks/``: an option
that no caller sets has one value, which belongs in the body.  A call sets
a parameter by keyword, by enough positional arguments, or through ``*``
or ``**``; a call by class name counts for ``__init__``.  Calls are
matched to definitions by name alone, like references above.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oddnil"

# public definitions kept without a caller in src/, each with its reason
ALLOWED = {
    "oddops.clear_caches": "empties every lru_cache and the segment-image memo so a test or a timing starts cold; no result needs it",
    "onh.OnhElement.normalize": "the standard-basis form of an element, for the standard-basis coordinates of ROADMAP item 6",
    "skewpoly.apply_simple_transposition": "s_i of the twisted Leibniz rule d_i(fg) = d_i(f) g + s_i(f) d_i(g), which the fresh_algebra benchmark checks and traces",
}

# references the AST cannot resolve count for no owner; where one is the
# only reference to its owner, it is listed here as (where, name) -> (the
# owner it reaches, why)
RESOLVED_BY_HAND = {}


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """[(qualified name, short name, whether it is a method)] for every
    function and method."""
    out = []
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append(("%s.%s" % (stem, node.name), node.name, False))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        out.append(("%s.%s.%s" % (stem, node.name, sub.name), sub.name, True))
    return out


class _Resolver:
    """The owner of a reference in one module, where the AST shows it."""

    def __init__(self, stem, tree, classes, functions):
        self.stem, self.classes, self.functions = stem, classes, functions
        self.modules, self.imported = {}, {}  # local name -> module stem / qualified name
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.modules[local] = alias.name
                    else:
                        self.imported[local] = "%s.%s" % (node.module, alias.name)

    def _class(self, node):
        """The qualified class an expression names, or None."""
        if isinstance(node, ast.Name):
            q = self.imported.get(node.id, "%s.%s" % (self.stem, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in self.modules:
            q = "%s.%s" % (self.modules[node.value.id], node.attr)
        else:
            return None
        return q if q in self.classes else None

    def owner(self, node, cls):
        """The qualified definition node refers to, inside a method of cls
        (a qualified class name, or None); None when the AST does not show it."""
        if isinstance(node, ast.alias):
            return self.imported.get(node.asname or node.name)
        if isinstance(node, ast.Name):
            q = "%s.%s" % (self.stem, node.id)
            return q if q in self.functions else self.imported.get(node.id)
        value = node.value
        if isinstance(value, ast.Name) and value.id in ("self", "cls") and cls:
            return "%s.%s" % (cls, node.attr)
        if isinstance(value, ast.Name) and value.id in self.modules:
            return "%s.%s" % (self.modules[value.id], node.attr)
        owner = self._class(value)
        return owner and "%s.%s" % (owner, node.attr)


def _scan(by_hand=RESOLVED_BY_HAND, modules=None):
    """(public definitions as {qualified name: short name}, the references
    made anywhere in the package outside the definition that owns them,
    the (where, name) of those left to by_hand).  A
    reference is the short name when one definition has it, and the
    qualified name of its owner when several do.  modules maps a module's
    name to its AST, by default the package's."""
    modules = modules or _modules()
    found = _definitions(modules)
    shared = {n for n, count in Counter(n for _, n, _ in found if not n.startswith("_")).items() if count > 1}
    classes = {"%s.%s" % (stem, node.name) for stem, tree in modules.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    functions = {q for q, _, method in found if not method}
    refs, unresolved = set(), set()

    def collect(resolver, node, where, cls=None, own=None):
        """The references in node, written in where (the definition own,
        if it is one) inside class cls, if any."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.name.rsplit(".", 1)[-1]
            else:
                continue
            if name not in shared:
                if not own or name != own.rsplit(".", 1)[-1]:
                    refs.add(name)
                continue
            owner = resolver.owner(sub, cls)
            if owner is not None and owner != own:
                refs.add(owner)
            elif owner is None and isinstance(sub, ast.Attribute):
                unresolved.add((where, name))
            # a bare name that no definition owns is a local variable

    for stem, tree in modules.items():
        resolver = _Resolver(stem, tree, classes, functions)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                where = "%s.%s" % (stem, node.name)
                collect(resolver, node, where, own=where)
            elif isinstance(node, ast.ClassDef):
                cls = "%s.%s" % (stem, node.name)
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        where = "%s.%s" % (cls, sub.name)
                        collect(resolver, sub, where, cls, where)
                    else:
                        collect(resolver, sub, cls, cls)
                for sub in node.bases + node.decorator_list:
                    collect(resolver, sub, stem)
            else:
                collect(resolver, node, stem)
    refs |= {owner for owner, _ in by_hand.values()}
    defs = {q: n for q, n, _ in found if not n.startswith("_")}
    return {q: (q if n in shared else n) for q, n in defs.items()}, refs, unresolved


def test_every_public_definition_has_a_caller_in_src():
    defs, refs, _ = _scan()
    unreached = sorted(q for q, key in defs.items() if key not in refs)
    assert [q for q in unreached if q not in ALLOWED] == []


def test_the_allowlist_names_only_unreached_definitions():
    defs, refs, _ = _scan()
    for qualified in ALLOWED:
        assert qualified in defs, qualified
        assert defs[qualified] not in refs, "%s now has a caller; drop it from ALLOWED" % qualified


def test_each_reference_resolved_by_hand_is_needed():
    """Each entry is a reference the AST leaves unresolved, and the only
    one that reaches its owner."""
    defs, refs, unresolved = _scan()
    for where, name in RESOLVED_BY_HAND:
        assert (where, name) in unresolved, "%s.%s is resolved now; drop it" % (where, name)
    listed = Counter(owner for owner, _ in RESOLVED_BY_HAND.values())
    _, plain, _ = _scan(by_hand={})
    for owner, count in listed.items():
        assert owner in defs and count == 1, owner
        assert owner not in plain, "%s has a resolved caller now; drop its entry" % owner


def test_a_dead_method_is_found_beside_a_live_one_of_its_name():
    source = {
        "m": "from .n import reduce\n"
             "class A:\n"
             "    def is_zero(self): return not self.one()\n"
             "    def one(self): return reduce(self)\n"
             "def f(p): return A.is_zero(p) or p.is_zero()\n"
             "F = f\n",
        "n": "class B:\n"
             "    def is_zero(self): return True\n"
             "    def one(self): return B.one\n"
             "def reduce(x): return x\n",
    }
    modules = {stem: ast.parse(text) for stem, text in source.items()}
    defs, refs, unresolved = _scan({}, modules)
    assert sorted(q for q, key in defs.items() if key not in refs) == ["n.B.is_zero", "n.B.one"]
    assert set(unresolved) == {("m.f", "is_zero")}
    defs, refs, _ = _scan({("m.f", "is_zero"): ("n.B.is_zero", "p is a B")}, modules)
    assert sorted(q for q, key in defs.items() if key not in refs) == ["n.B.one"]


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
