import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from oddnil import combinat as C
from oddnil.skewpoly import (
    SkewPolynomial,
    apply_simple_transposition,
    delta_exponents,
    format_skew,
    parse_skew,
    product_in_order,
    psi_staircase,
    reverse_staircase,
    staircase,
)
from reference_kernel import apply_permutation


def letters_of(mono):
    out = []
    for i, e in enumerate(mono, start=1):
        out.extend([i] * e)
    return out


def letterwise_product_sign(nvars, ma, mb):
    """Oracle: multiply letter by letter, bubble-sorting into normal order
    and counting adjacent swaps of distinct variables."""
    word = letters_of(ma) + letters_of(mb)
    sign = 1
    for i in range(len(word)):
        for j in range(len(word) - 1, i, -1):
            if word[j - 1] > word[j]:
                word[j - 1], word[j] = word[j], word[j - 1]
                sign = -sign
    exps = [0] * nvars
    for l in word:
        exps[l - 1] += 1
    return sign, tuple(exps)


def test_multiply_examples():
    x1, x2 = SkewPolynomial.variable(2, 1), SkewPolynomial.variable(2, 2)
    assert x1 * x2 == SkewPolynomial.monomial(2, (1, 1))
    assert x2 * x1 == SkewPolynomial(2, {(1, 1): -1})
    assert (x1 - x2) * (x1 - x2) == x1 * x1 + x2 * x2
    p = parse_skew("x1^2*x2 - 3", 2)
    assert SkewPolynomial.one(2) * p == p


def test_multiply_against_letterwise_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        a = rng.randint(1, 5)
        ma = tuple(rng.randint(0, 3) for _ in range(a))
        mb = tuple(rng.randint(0, 3) for _ in range(a))
        product = SkewPolynomial.monomial(a, ma) * SkewPolynomial.monomial(a, mb)
        sign, exps = letterwise_product_sign(a, ma, mb)
        assert product.terms == {exps: sign}, (ma, mb)


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        SkewPolynomial.one(2) * SkewPolynomial.one(3)


def test_constructor_rejects_non_integer_exponents():
    # a float exponent would be stored, then fail inside d_i as a TypeError
    for mono in ((1.5, 0), (1.0, 0), ("1", 0)):
        with pytest.raises(ValueError, match="non-integer"):
            SkewPolynomial(2, {mono: 1})
    p = SkewPolynomial(2, {(True, 0): 1})
    assert p.terms == {(1, 0): 1}
    assert all(type(e) is int for mono in p.terms for e in mono)


def test_constructor_rejects_non_integer_coefficients_and_negative_exponents():
    # int() would truncate: 0.4 to a stored zero, 1.5 to x1
    for c in (0.4, 1.5, 2.0, 0.0, "1", None):
        with pytest.raises(ValueError):
            SkewPolynomial(2, {(1, 0): c})
    for mono in ((-1, 0), (2, -3)):
        with pytest.raises(ValueError):
            SkewPolynomial(2, {mono: 1})
    with pytest.raises(ValueError):
        SkewPolynomial.monomial(3, (0, -1, 0))
    # integer-like values (bool, index types) are kept as ints
    p = SkewPolynomial(2, {(1, 0): True, (0, 1): -2, (2, 2): 0})
    assert p.terms == {(1, 0): 1, (0, 1): -2}
    assert all(type(c) is int for c in p.terms.values())
    assert SkewPolynomial(0, {(): 3}).terms == {(): 3}


def test_transposition_generator_rules():
    # s_i(x_i) = -x_{i+1}, s_i(x_{i+1}) = -x_i, s_i(x_j) = -x_j
    a = 3
    x = [SkewPolynomial.variable(a, i) for i in range(1, a + 1)]
    assert apply_simple_transposition(1, x[0]) == -x[1]
    assert apply_simple_transposition(1, x[1]) == -x[0]
    assert apply_simple_transposition(1, x[2]) == -x[2]


def test_transposition_against_letterwise_oracle():
    # closed form vs multiplying transformed letters one at a time
    rng = random.Random(77)
    for _ in range(200):
        a = rng.randint(2, 5)
        i = rng.randint(1, a - 1)
        mono = tuple(rng.randint(0, 3) for _ in range(a))
        out = SkewPolynomial.one(a)
        for l in letters_of(mono):
            img = i + 1 if l == i else (i if l == i + 1 else l)
            out = out * SkewPolynomial.variable(a, img).scale(-1)
        assert apply_simple_transposition(i, SkewPolynomial.monomial(a, mono)) == out


def test_transposition_involution_and_braid():
    a = 3
    monos = [m for m in itertools.product(range(4), repeat=a) if sum(m) <= 3]
    for m in monos:
        p = SkewPolynomial.monomial(a, m)
        for i in (1, 2):
            assert apply_simple_transposition(i, apply_simple_transposition(i, p)) == p
        lhs = apply_simple_transposition(1, apply_simple_transposition(2, apply_simple_transposition(1, p)))
        rhs = apply_simple_transposition(2, apply_simple_transposition(1, apply_simple_transposition(2, p)))
        assert lhs == rhs


def test_apply_permutation_is_action():
    # two reduced words of w_0 in S_3 agree
    p = parse_skew("x1*x2^2", 3)
    v1 = p
    for i in reversed((1, 2, 1)):
        v1 = apply_simple_transposition(i, v1)
    v2 = p
    for i in reversed((2, 1, 2)):
        v2 = apply_simple_transposition(i, v2)
    assert v1 == v2
    assert apply_permutation(C.longest_element(3), p) == v1
    assert apply_permutation((1, 2, 3), p) == p


def test_composition_of_actions():
    rng = random.Random(5)
    a = 4
    monos = [tuple(rng.randint(0, 2) for _ in range(a)) for _ in range(12)]
    perms = C.all_permutations(a)
    for _ in range(20):
        u = perms[rng.randrange(len(perms))]
        v = perms[rng.randrange(len(perms))]
        for m in monos[:4]:
            p = SkewPolynomial.monomial(a, m)
            assert apply_permutation(C.perm_compose(u, v), p) == apply_permutation(
                u, apply_permutation(v, p)
            )


def test_staircase_monomials():
    assert staircase(3) == SkewPolynomial.monomial(3, (2, 1, 0))
    assert staircase(1) == SkewPolynomial.one(1)
    assert reverse_staircase(3) == SkewPolynomial.monomial(3, (0, 1, 2))
    assert delta_exponents(4) == (3, 2, 1, 0)
    # psi(x^delta): reversed product normal-orders to (-1)^{binom(a,4)} x^delta
    for a in range(1, 7):
        assert psi_staircase(a) == staircase(a).scale((-1) ** comb(a, 4))


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_graded_rank_matches_commutative_count(a):
    # number of monomials per degree equals the commutative count
    from oddnil.oddsym import monomials_of_degree

    for hd in range(0, 7):
        count = len(monomials_of_degree(a, hd))
        assert count == comb(hd + a - 1, a - 1)


def test_mod2_multiplication_oracle():
    rng = random.Random(99)
    for _ in range(60):
        a = rng.randint(1, 4)
        monos = [tuple(rng.randint(0, 2) for _ in range(a)) for _ in range(3)]
        f = SkewPolynomial.zero(a)
        g = SkewPolynomial.zero(a)
        for m in monos:
            f = f + SkewPolynomial(a, {m: rng.randint(-3, 3)})
            g = g + SkewPolynomial(a, {tuple(reversed(m)): rng.randint(-3, 3)})
        from oddnil.oddsym import mod2_reduction

        assert mod2_reduction(f * g) == mod2_reduction(f) * mod2_reduction(g)


small_polys = st.builds(
    lambda terms: SkewPolynomial(3, {m: c for m, c in terms}),
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
            st.integers(min_value=-5, max_value=5),
        ),
        max_size=4,
    ),
)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


def test_parse_format_roundtrip_and_grammar():
    p = parse_skew("2*x1^2*x3 - x2 + 4", 3)
    assert parse_skew(format_skew(p), 3) == p
    assert format_skew(SkewPolynomial.zero(2)) == "0"
    with pytest.raises(ValueError):
        parse_skew("x2*x1", 3)  # must be strictly increasing
    with pytest.raises(ValueError):
        parse_skew("x9", 3)


def test_product_in_order():
    # x_2 x_1 x_2 = -x_1 x_2^2
    assert product_in_order(2, [2, 1, 2]) == SkewPolynomial(2, {(1, 2): -1})
