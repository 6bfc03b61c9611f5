"""A polynomial and an element are values, and what they cache stays true.

No ``src/`` code changes a ``SkewPolynomial``'s ``terms`` or an
``OnhElement``'s ``combo`` after construction.  Two caches rest on that
rule: a polynomial's top half-degree (``top_halfdegree``, read by the floor
test of ``OnhElement.evaluate``) and the named thick diagrams that every
check shares (``onh``'s lru_caches, each element with its evaluation
plan).  The hypothesis test checks the cached top half-degree against the
monomial walk it replaces on results of every operation; the AST test
fails when ``src/`` code changes ``<expr>.terms`` or ``<expr>.combo`` in
place, or rebinds either outside the constructors that build them.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from oddnil import oddops, onh, skewpoly
from oddnil.skewpoly import SkewPolynomial, apply_simple_transposition, apply_w0

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "oddnil"


def walked_top(p):
    return max(map(sum, p.terms), default=-1)


# ---------------------------------------------------------------------------
# the cached top half-degree


@st.composite
def operands(draw):
    """(p, q, i, word, c, element): two polynomials in n = 2..4 variables,
    a transposition index, a word of dots and crossings, a scalar and an
    element whose words end in crossings, so that its floor is positive."""
    n = draw(st.integers(min_value=2, max_value=4))

    def poly():
        terms = draw(st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
                                     st.integers(min_value=-4, max_value=4), max_size=6))
        return SkewPolynomial(n, terms)

    letter = st.integers(min_value=1, max_value=n).flatmap(
        lambda r: st.sampled_from([r, -r] if r < n else [r]))
    crossing = st.integers(min_value=1, max_value=n - 1).map(lambda i: -i)
    word = tuple(draw(st.lists(letter, max_size=4)))
    ends = [tuple(draw(st.lists(letter, max_size=3)))
            + tuple(draw(st.lists(crossing, min_size=1, max_size=3)))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    element = onh.OnhElement(n, {w: draw(st.integers(min_value=1, max_value=3)) for w in ends})
    return (poly(), poly(), draw(st.integers(min_value=1, max_value=n - 1)), word,
            draw(st.integers(min_value=-3, max_value=3)), element)


def results(p, q, i, word, c, element):
    """p, q and what every operation that builds a polynomial makes of them."""
    return [
        p, q, p + q, p - q, p - p, p * q, p.scale(c),
        oddops.divided_difference(i, p), oddops.apply_letters(word, p),
        apply_simple_transposition(i, p), apply_w0(p),
        onh.apply_word(word, p), element.evaluate(p), onh.idempotent_e(p.nvars).evaluate(q),
    ]


@given(operands())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_top_halfdegree_is_the_largest_monomial_half_degree(args):
    element = args[-1]
    # read cold, then again after the polynomial has been evaluated
    for r in results(*args):
        want = walked_top(r)
        assert r.top_halfdegree() == want
        element.evaluate(r)
        assert r.top_halfdegree() == want
    # evaluated first, so that the floor test is the first to read it
    for r in results(*args):
        want = walked_top(r)
        element.evaluate(r)
        assert r.top_halfdegree() == want
        assert r.top_halfdegree() == want


def test_the_zero_polynomial_has_top_halfdegree_minus_one():
    p = SkewPolynomial.monomial(4, (2, 0, 1, 0))  # below sigma_seq((0, 1, 2))'s floor of 6
    zeros = [SkewPolynomial.zero(4), p - p, skewpoly._from_normal(4, {}),
             onh.sigma_seq((0, 1, 2)).evaluate(p)]
    for z in zeros:
        assert not z.terms
        assert z.top_halfdegree() == -1
    assert SkewPolynomial.zero(0).top_halfdegree() == -1
    assert SkewPolynomial.one(0).top_halfdegree() == 0


def test_an_evaluation_walks_a_polynomial_once(monkeypatch):
    """Evaluating one polynomial by every element of a family walks its
    monomials for the floor test once, on the first evaluation."""
    walks = []

    def counting_max(*args, **kwargs):
        walks.append(args)
        return max(*args, **kwargs)

    monkeypatch.setattr(skewpoly, "max", counting_max, raising=False)
    family = [onh.sigma_seq(seq) for seq in [(0, 1, 2), (1, 1, 2), (0, 2, 2), (1, 2, 3)]]
    basis = [SkewPolynomial(4, dict(p.terms)) for p in onh.schubert_basis_list(4)]
    for element in family:
        for p in basis:
            element.evaluate(p)
    assert len(walks) == len(basis)


# ---------------------------------------------------------------------------
# the value rule, read from the AST of src/


VALUE_ATTRS = {"terms", "combo"}
MUTATORS = {"clear", "update", "pop", "popitem", "setdefault"}

# the constructors that bind terms or combo, each with the name of the
# object it binds them on
CONSTRUCTORS = {
    "skewpoly.SkewPolynomial.__init__": "self",
    "skewpoly._from_normal": "out",
    "onh.OnhElement.__init__": "self",
    "onh._element": "out",
    "evenoracle.Gf2Poly.__init__": "self",
    "evenoracle.Gf2Poly.__add__": "out",
    "evenoracle.Gf2Poly.__mul__": "out",
}


def _value_attr(node):
    return isinstance(node, ast.Attribute) and node.attr in VALUE_ATTRS


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a scope; a nested function or class is yielded but not
    entered, since its body is a scope of its own."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, DEFS):
            stack.extend(ast.iter_child_nodes(node))


def _scopes(scope, name):
    """(qualified name, node) of a scope and of every function and class
    in it, at any depth."""
    yield name, scope
    for node in _own_nodes(scope):
        if isinstance(node, DEFS):
            yield from _scopes(node, "%s.%s" % (name, node.name))


def _change(node, name):
    """What node does to a terms or combo in the scope called name, or None
    for a read, a copy or a constructor's binding."""
    if isinstance(node, ast.AugAssign):
        target = node.target.value if isinstance(node.target, ast.Subscript) else node.target
        return "augmented assignment" if _value_attr(target) else None
    if isinstance(node, ast.Subscript) and _value_attr(node.value):
        return {ast.Store: "subscript store", ast.Del: "subscript delete"}.get(type(node.ctx))
    if isinstance(node, ast.Call) and node.args:
        func, first = node.func, node.args[0]
        if getattr(func, "id", None) == "add_scaled" or getattr(func, "attr", None) == "add_scaled":
            return "first argument of add_scaled" if _value_attr(first) else None
        if getattr(func, "attr", None) in MUTATORS and getattr(func.value, "id", None) == "dict":
            return "call of dict.%s" % func.attr if _value_attr(first) else None
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
        return "call of %s" % node.func.attr if _value_attr(node.func.value) else None
    if _value_attr(node) and isinstance(node.ctx, ast.Del):
        return "delete"
    if _value_attr(node) and isinstance(node.ctx, ast.Store):
        receiver = getattr(node.value, "id", None)
        if CONSTRUCTORS.get(name) != receiver:
            return "rebinding of %s.%s" % (receiver or "<expr>", node.attr)
    return None


def violations(tree, stem):
    """(qualified name, line, what) for every in-place change of a terms
    or combo, and every rebinding outside CONSTRUCTORS."""
    out = []
    for name, scope in _scopes(tree, stem):
        nodes = list(_own_nodes(scope))
        # an augmented assignment is reported once, not also as its target's store
        targets = {id(node.target) for node in nodes if isinstance(node, ast.AugAssign)}
        for node in nodes:
            what = None if id(node) in targets else _change(node, name)
            if what:
                out.append((name, node.lineno, what))
    return out


def test_src_changes_no_terms_or_combo_in_place():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += violations(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert found == []


def test_every_listed_constructor_binds_its_value():
    """The allowlist names live code: each constructor binds terms or combo
    on the object it names."""
    bound = set()
    for path in sorted(SRC.glob("*.py")):
        for name, scope in _scopes(ast.parse(path.read_text()), path.stem):
            receiver = CONSTRUCTORS.get(name)
            for node in _own_nodes(scope):
                if _value_attr(node) and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == receiver:
                    bound.add(name)
    assert bound == set(CONSTRUCTORS)


@pytest.mark.parametrize("source, what", [
    ("def f(p, m):\n    p.terms[m] = 1", "subscript store"),
    ("def f(p, m):\n    del p.combo[m]", "subscript delete"),
    ("def f(p, m):\n    p.terms[m] += 1", "augmented assignment"),
    ("def f(p, q):\n    p.combo |= q", "augmented assignment"),
    ("def f(p):\n    p.terms.clear()", "call of clear"),
    ("def f(p, q):\n    p.combo.update(q)", "call of update"),
    ("def f(p, m):\n    f(p).terms.pop(m)", "call of pop"),
    ("def f(p):\n    p.terms.popitem()", "call of popitem"),
    ("def f(p, m):\n    p.combo.setdefault(m, 0)", "call of setdefault"),
    ("def f(p, m):\n    dict.update(p.terms, m)", "call of dict.update"),
    ("def f(p, q):\n    add_scaled(p.terms, q.terms, 1)", "first argument of add_scaled"),
    ("def f(p, q):\n    lincomb.add_scaled(p.combo, q.combo, -1)", "first argument of add_scaled"),
    ("def f(p):\n    p.terms = {}", "rebinding of p.terms"),
    ("def f(p):\n    del p.terms", "delete"),
    ("class SkewPolynomial:\n    def scale(self, c):\n        self.terms = {}", "rebinding of self.terms"),
    ("def _from_normal(n, terms):\n    p = object()\n    p.terms = terms", "rebinding of p.terms"),
    ("class SkewPolynomial:\n    def __init__(self, n):\n        def g(self):\n            self.terms = {}", "rebinding of self.terms"),
])
def test_the_value_rule_check_sees_each_change(source, what):
    assert [v[2] for v in violations(ast.parse(source), "skewpoly")] == [what]


def test_the_value_rule_check_allows_copies_and_reads():
    source = (
        "class SkewPolynomial:\n"
        "    def __init__(self, n):\n        self.terms = {}\n"
        "    def _plus(self, other, sign):\n"
        "        d = dict(self.terms)\n        d[(0,)] = 1\n"
        "        return add_scaled(dict(self.terms), other.terms, sign), self.terms.get((0,)), max(self.terms)\n"
        "def _from_normal(n, terms):\n    out = object()\n    out.terms = terms\n"
    )
    assert violations(ast.parse(source), "skewpoly") == []
