import ast
import pathlib
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_evenoracle as R
from oddnil import combinat as C
from oddnil import cyclotomic as CY
from oddnil import evenoracle as E
from oddnil import oddsym as S
from oddnil.skewpoly import SkewPolynomial, format_skew


def poly(nvars, *terms):
    return {tuple(m): c for m, c in terms}


def test_even_divided_difference_basics():
    # d_1(x_1) = 1, d_1(x_2) = -1, d_1(x_1 x_2) = 0
    a = 2
    assert E.even_divided_difference(1, poly(a, ((1, 0), 1)), a) == poly(a, ((0, 0), 1))
    assert E.even_divided_difference(1, poly(a, ((0, 1), 1)), a) == poly(a, ((0, 0), -1))
    assert E.even_divided_difference(1, poly(a, ((1, 1), 1)), a) == {}
    # d_1(x_1^2) = x_1 + x_2
    assert E.even_divided_difference(1, poly(a, ((2, 0), 1)), a) == poly(
        a, ((1, 0), 1), ((0, 1), 1)
    )


def test_even_divided_difference_is_quotient():
    # (f - s_i f) equals (x_i - x_{i+1}) * d_i(f), multiplied back
    import random

    rng = random.Random(4)
    for _ in range(80):
        a = rng.randint(2, 4)
        i = rng.randint(1, a - 1)
        m = tuple(rng.randint(0, 3) for _ in range(a))
        f = poly(a, (m, 1))
        sm = list(m)
        sm[i - 1], sm[i] = sm[i], sm[i - 1]
        diff = R.zpoly_add(f, R.zpoly_scale(poly(a, (tuple(sm), 1)), -1))
        xi = [0] * a
        xi[i - 1] = 1
        xi1 = [0] * a
        xi1[i] = 1
        root = R.zpoly_add(poly(a, (tuple(xi), 1)), R.zpoly_scale(poly(a, (tuple(xi1), 1)), -1))
        back = R.zpoly_mul(root, E.even_divided_difference(i, f, a))
        assert back == diff, (a, i, m)


def test_even_elementary_and_complete_counts():
    for a in (1, 2, 3, 4):
        for k in range(0, a + 1):
            assert sum(E.even_elementary(k, a).values()) == comb(a, k)
        for k in range(0, 4):
            assert sum(E.even_complete(k, a).values()) == comb(a + k - 1, k)


def test_even_e_h_alternating_identity():
    # sum_k (-1)^k e_k h_{m-k} = 0, the classical Newton-type identity
    for a in (1, 2, 3):
        for m in range(1, 6):
            total = {}
            for k in range(0, m + 1):
                term = R.zpoly_mul(E.even_elementary(k, a), E.even_complete(m - k, a))
                total = R.zpoly_add(total, R.zpoly_scale(term, (-1) ** k))
            assert total == {}, (a, m)


def test_even_schur_examples():
    a = 3
    assert E.even_schur((), a) == {(0, 0, 0): 1}
    assert E.even_schur((1,), a) == E.even_elementary(1, a)
    assert E.even_schur((1, 1), a) == E.even_elementary(2, a)
    assert E.even_schur((1, 1, 1), a) == E.even_elementary(3, a)
    # h_2 = s_(2)
    assert E.even_schur((2,), a) == E.even_complete(2, a)


def test_even_schur_pieri_spot_check():
    # s_(1) * e_1 = s_(2) + s_(1,1) classically
    a = 3
    lhs = R.zpoly_mul(E.even_schur((1,), a), E.even_elementary(1, a))
    rhs = R.zpoly_add(E.even_schur((2,), a), E.even_schur((1, 1), a))
    assert lhs == rhs


def test_gf2_poly_arithmetic():
    p = E.Gf2Poly(2, {(1, 0): 1, (0, 1): 1})
    q = E.Gf2Poly(2, {(1, 0): 1, (0, 1): 1})
    assert not (p + q).terms
    sq = p * q
    # (x+y)^2 = x^2 + y^2 over GF(2)
    assert sq == E.Gf2Poly(2, {(2, 0): 1, (0, 2): 1})


# small exponents and few variables, so that products often meet the same
# monomial twice and cancel mod 2; coefficients include 0, even and negative
@st.composite
def terms_dicts(draw, nvars):
    monos = st.tuples(*[st.integers(0, 2)] * nvars)
    return draw(st.dictionaries(monos, st.integers(-4, 4), max_size=8))


@st.composite
def term_pairs(draw):
    nvars = draw(st.integers(1, 7))
    return nvars, draw(terms_dicts(nvars)), draw(terms_dicts(nvars))


def _sum_of_variables(nvars):
    return {tuple(int(j == i) for j in range(nvars)): 1 for i in range(nvars)}


@settings(max_examples=300, deadline=None)
@given(term_pairs())
@example((3, {}, {(1, 0, 0): 3}))
@example((2, {(1, 0): 2, (0, 1): -4}, {(1, 1): -1}))
@example((4, _sum_of_variables(4), _sum_of_variables(4)))
@example((7, {(0,) * 7: -3, (2,) * 7: 5}, {(1,) * 7: -1, (0,) * 7: 0}))
def test_mod2_path_matches_the_two_pass_reference(case):
    nvars, p, q = case
    # the constructor is the reduction, on raw dicts with zero coefficients too
    assert list(E.Gf2Poly(nvars, p).terms.items()) == list(R.gf2_terms(p).items())
    # printed as format_skew prints the same monomials with coefficient 1
    assert repr(E.Gf2Poly(nvars, p)) == format_skew(SkewPolynomial(nvars, R.gf2_terms(p)))
    f, g = SkewPolynomial(nvars, p), SkewPolynomial(nvars, q)
    for h in (f, g, f * g):
        red = S.mod2_reduction(h)
        assert red.nvars == nvars
        assert list(red.terms.items()) == list(R.mod2_reduction(h).items())
    prod = E.Gf2Poly(nvars, f.terms) * E.Gf2Poly(nvars, g.terms)
    assert list(prod.terms.items()) == list(R.gf2_mul(R.gf2_terms(f.terms), R.gf2_terms(g.terms)).items())
    assert S.mod2_reduction(f * g) == prod


def test_mod2_product_cancels_pairs_of_equal_monomials():
    s = _sum_of_variables(4)
    sq = E.Gf2Poly(4, s) * E.Gf2Poly(4, s)
    # (x1 + ... + x4)^2 = x1^2 + ... + x4^2 over GF(2): each cross term twice
    assert list(sq.terms) == [tuple(2 * e for e in m) for m in s]


def _oddnil_imports(tree):
    """(module, name) for every name the tree imports from the oddnil
    package, relative or absolute; name is None for ``import oddnil.x``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = "oddnil" + ("." + node.module if node.module else "")
            elif node.module == "oddnil" or node.module.startswith("oddnil."):
                base = node.module
            else:
                continue
            out.extend((base, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "oddnil")
    return out


def test_evenoracle_imports_only_combinat_from_oddnil():
    # the oracle checks skewpoly, oddops, lincomb, onh and oddsym, so no
    # speed-up may route it through them
    path = pathlib.Path(E.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _oddnil_imports(tree) == [("oddnil", "combinat")]
    dynamic = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [f for f in dynamic if getattr(f, "id", getattr(f, "attr", None)) in ("__import__", "import_module")]


def test_the_import_guard_sees_every_form_of_import():
    tree = ast.parse("from . import combinat, skewpoly\nfrom .oddops import dd\n"
                     "from oddnil import onh\nimport oddnil.lincomb\nimport itertools\nfrom functools import reduce")
    assert _oddnil_imports(tree) == [("oddnil", "combinat"), ("oddnil", "skewpoly"), ("oddnil.oddops", "dd"),
                                     ("oddnil", "onh"), ("oddnil.lincomb", None)]


def test_even_quotient_ranks_match_box_counts():
    # classical fact: dim of degree-2k slice of the Grassmannian cohomology
    # equals the number of partitions of k inside the a x (N-a) box
    for (a, n_param) in [(1, 3), (2, 3), (2, 4), (3, 4)]:
        box = C.partitions_in_box(a, n_param - a)
        for k in range(0, a * (n_param - a) + 1):
            want = sum(1 for lam in box if sum(lam) == k)
            assert E.even_quotient_rank_gf2(a, n_param, k) == want, (a, n_param, k)


def test_even_expand_roundtrip():
    a = 3
    f = R.zpoly_mul(E.even_elementary(2, a), E.even_elementary(1, a))
    coeffs = R._even_expand(f, a)
    assert coeffs == {(2, 1): 1}
    with pytest.raises(ValueError):
        R._even_expand({(0, 1, 0): 1}, a)


def test_h_ewords_are_complete_polynomials_mod_2():
    # h_2 = e_1^2 - e_2 in two variables
    assert E._h_ewords(2, 2) == {(1, 1), (2,)}
    for a in (1, 2, 3, 4):
        for m in range(0, 7):
            expanded = R._even_expand(E.even_complete(m, a), a)
            assert E._h_ewords(m, a) == {nu for nu, c in expanded.items() if c % 2}, (a, m)


@pytest.mark.parametrize("a,n_param", [(a, n) for a in range(1, 5) for n in range(a, 7)])
def test_eword_quotient_ranks_match_the_polynomial_reference(a, n_param):
    # every slice up to two half-degrees above the top a(N - a)
    for k in range(0, a * (n_param - a) + 3):
        assert E.even_quotient_rank_gf2(a, n_param, k) == R.even_quotient_rank_gf2(a, n_param, k), (a, n_param, k)


def test_eword_quotient_ranks_match_the_odd_chain_at_4_8():
    top = 4 * 4
    for sl in CY.h_ideal_slices(4, 8, 2 * (top + 2)):
        assert E.even_quotient_rank_gf2(4, 8, sl.degree // 2) == sl.quotient_rank, sl.degree


def test_eword_quotient_ranks_at_5_10_sum_to_the_binomial():
    # the quotient is the cohomology of Gr(5, 10), of total rank C(10, 5)
    ranks = [E.even_quotient_rank_gf2(5, 10, k) for k in range(0, 5 * 5 + 3)]
    assert sum(ranks) == comb(10, 5) == 252
    assert ranks[:26] == ranks[25::-1] and ranks[26:] == [0, 0]
