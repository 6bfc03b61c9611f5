import itertools
import random
from math import comb

import pytest

import paper_identities as P
from oddnil import combinat as C
from oddnil import oddops as O
from oddnil import oddsym as S
from oddnil import onh as H
from oddnil.skewpoly import SkewPolynomial


def test_word_serialization_roundtrip():
    w = (1, 1, -1, 2)
    assert H.format_word(w) == "x1 x1 d1 x2"
    el = H.OnhElement(3, {(1, -1, 2): 2, (): -1, (-2,): 1})
    assert H.format_element(el) == '-"" + "d2" + 2*"x1 d1 x2"'
    assert H.format_element(H.OnhElement.zero(2)) == "0"


def test_word_degrees():
    assert H.word_degree((1, -1, 2)) == 2
    assert H.word_degree((-1, -2)) == -4
    assert H.word_super_degree((1, 2)) == 0
    assert H.word_super_degree((1,)) == 1


def test_element_checks_ranges():
    with pytest.raises(ValueError):
        H.OnhElement(2, {(3,): 1})
    with pytest.raises(ValueError):
        H.OnhElement(2, {(-2,): 1})
    with pytest.raises(ValueError):
        H.OnhElement.identity(2) * H.OnhElement.identity(3)


def test_element_rejects_non_integer_coefficients():
    for c in (2.7, 0.5, 1.0, "1"):
        with pytest.raises(ValueError):
            H.OnhElement(2, {(-1,): c})
    el = H.OnhElement(2, {(-1,): True, (1, 2): 3, (2,): 0})
    assert el.combo == {(-1,): 1, (1, 2): 3}
    assert all(type(c) is int for c in el.combo.values())


def test_defining_relations_as_elements():
    one = H.OnhElement.identity(2)
    x1, x2, d1 = H.dot(2, 1), H.dot(2, 2), H.cross(2, 1)
    assert x1 * d1 + d1 * x2 == one
    assert d1 * x1 + x2 * d1 == one
    assert (d1 * d1).is_zero()
    assert (x1 * x2 + x2 * x1).is_zero()
    a = 4
    assert H.cross(a, 1) * H.cross(a, 3) + H.cross(a, 3) * H.cross(a, 1) == H.OnhElement.zero(a)
    assert H.dot(a, 1) * H.cross(a, 3) + H.cross(a, 3) * H.dot(a, 1) == H.OnhElement.zero(a)


def test_zero_hecke_relations():
    a = 3
    z1, z2 = H.zero_hecke(a, 1), H.zero_hecke(a, 2)
    assert z1 * z1 == z1
    assert z1 * z2 * z1 == z2 * z1 * z2
    a = 4
    assert H.zero_hecke(a, 1) * H.zero_hecke(a, 3) == H.zero_hecke(a, 3) * H.zero_hecke(a, 1)
    with pytest.raises(ValueError):
        H.zero_hecke(2, 2)


def test_idempotent_e_basics():
    assert H.idempotent_e(1) == H.OnhElement.identity(1)
    e2 = H.idempotent_e(2)
    assert e2 == H.dot(2, 1) * H.cross(2, 1)
    for a in (1, 2, 3, 4):
        ea = H.idempotent_e(a)
        assert ea * ea == ea


def test_e_word_independent_of_reduced_word():
    # e_a = 0-Hecke product along ANY reduced word of w_0
    for a in (2, 3, 4):
        w0 = C.longest_element(a)
        for i in range(1, a):
            word = P.reduced_word_for_w0_starting_with(i, a)
            letters = []
            for j in word:
                letters.extend((j, -j))
            assert H.OnhElement.from_word(a, tuple(letters)) == H.idempotent_e(a)


def test_e_embedded():
    e = H.embed(H.idempotent_e(2), 1, 4)
    assert list(e.combo) == [(2, -2)]
    with pytest.raises(ValueError):
        H.embed(H.idempotent_e(3), 2, 4)


@pytest.mark.parametrize("a", range(1, 6))
def test_projector_in_standard_basis(a):
    lhs = H.idempotent_e(a)
    rhs = (H.staircase_element(a) * H.d_element(a)).scale((-1) ** comb(a, 3))
    assert lhs == rhs
    assert H.d_element(a) * H.idempotent_e(a) == H.d_element(a)


def test_e_absorbs_symmetric_boxes():
    rng = random.Random(101)
    for a in (2, 3, 4):
        ea = H.idempotent_e(a)
        for _ in range(8):
            f = SkewPolynomial.one(a)
            deg = 0
            while deg < 8:
                k = rng.randint(1, a)
                f = f * S.elementary(k, a)
                deg += 2 * k
                if rng.random() < 0.4:
                    break
            assert H.box(f, a) == ea * H.from_polynomial(f)


def test_box_requires_symmetric_label():
    with pytest.raises(S.NotOddSymmetricError):
        H.box(SkewPolynomial.variable(2, 1), 2)


def test_box_multiplicativity():
    # box(g) box(f) = box(gf)
    a = 2
    f = S.elementary(1, a)
    assert H.box(f, a) * H.box(f, a) == H.box(f * f, a)
    g = S.elementary(2, a)
    assert H.box(g, a) * H.box(f, a) == H.box(g * f, a)
    assert H.box(SkewPolynomial.one(a), a) == H.idempotent_e(a)


def test_schur_box_explosion():
    # box(s_alpha) = (-1)^{chi} e_a (dots of delta+alpha) D_a
    for a in (2, 3):
        for alpha in C.partitions_in_box(a, 2):
            padded = list(alpha) + [0] * (a - len(alpha))
            exps = tuple(padded[j] + (a - 1 - j) for j in range(a))
            rhs = (
                H.idempotent_e(a)
                * H.OnhElement.from_word(a, H.dots_word(exps))
                * H.d_element(a)
            ).scale((-1) ** S.chi(alpha, a))
            assert H.box(S.schur(alpha, a), a) == rhs, (a, alpha)


def test_crossing_examples():
    assert H.crossing_element(1, 1) == H.cross(2, 1)
    assert H.crossing_word_letters(2, 1) == (-1, -2)
    assert H.word_degree(H.crossing_word_letters(2, 3)) == -12
    assert H.crossing_element(2, 3).strands == 5
    with pytest.raises(ValueError):
        H.embed(H.crossing_element(2, 2), 1, 4)


def test_crossing_merge_identities():
    # crossing a over b+c splits as two crossings (no sign); crossing
    # a+b over c splits with the sign (-1)^{ab binom(c,2)}
    for (a, b, c) in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 3)]:
        n = a + b + c
        assert H.crossing_element(a, b + c) == H.embed(H.crossing_element(a, c), b, n) * H.embed(
            H.crossing_element(a, b), 0, n
        )
        sign = (-1) ** ((a * b * comb(c, 2)) % 2)
        assert H.crossing_element(a + b, c) == (
            H.embed(H.crossing_element(a, c), 0, n) * H.embed(H.crossing_element(b, c), a, n)
        ).scale(sign)


def test_d_through_crossing():
    for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        n = a + b
        d_ab = H.embed(H.d_element(a), 0, n) * H.embed(H.d_element(b), a, n)
        sign = (-1) ** ((comb(a, 2) * comb(b, 2)) % 2)
        assert d_ab * H.crossing_element(b, a) == H.d_element(n).scale(sign), (a, b)
        mirror = H.automorphism_apply("sigma", H.crossing_element(a, b))
        assert d_ab * mirror == H.d_element(n), (a, b)


def test_crossing_slide_lemma():
    for a in (3, 4, 5):
        short = H.crossing_element(1, a - 2)
        lhs = H.embed(short, 0, a) * H.crossing_element(1, a - 1)
        rhs = H.crossing_element(1, a - 1) * H.embed(short, 1, a)
        assert lhs == rhs


@pytest.mark.parametrize("a", range(2, 6))
def test_alternative_definition_of_da(a):
    alt = H.embed(H.d_element(a - 1), 1, a) * H.crossing_element(a - 1, 1)
    assert alt == H.d_element(a)


@pytest.mark.parametrize("a", range(1, 6))
def test_da_slide(a):
    n = a + 1
    chain = H.crossing_element(1, a)
    d_lo = H.embed(H.d_element(a), 0, n)
    d_hi = H.embed(H.d_element(a), 1, n)
    assert d_lo * chain == (chain * d_hi).scale((-1) ** comb(a, 3))


@pytest.mark.parametrize("a", range(2, 5))
def test_ea_slide_and_failing_mirror(a):
    n = a + 1
    chain = H.crossing_element(1, a)
    ea = H.idempotent_e(a)
    assert H.embed(ea, 0, n) * chain == chain * H.embed(ea, 1, n)
    # the horizontally mirrored slide FAILS (negative control)
    assert not (H.embed(ea, 1, n) * chain == chain * H.embed(ea, 0, n))


def test_absorption():
    for (a, b, c) in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]:
        n = a + b + c
        e_n = H.idempotent_e(n)
        mid = H.embed(H.idempotent_e(b), a, n)
        assert mid * e_n == e_n
        assert e_n * mid == e_n


def test_splitter_associativity_and_triangle():
    for (a, b, c) in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
        n = a + b + c
        lhs = H.embed(H.up_splitter(a, b), 0, n) * H.up_splitter(a + b, c)
        rhs = H.embed(H.up_splitter(b, c), a, n) * H.up_splitter(a, b + c)
        assert lhs == rhs.scale((-1) ** ((a * b * comb(c, 2)) % 2)), (a, b, c)
        tcross = (
            H.embed(H.idempotent_e(a), 0, n)
            * H.embed(H.idempotent_e(c), a, n)
            * H.embed(H.crossing_element(c, a), 0, n)
        )
        lhs_t = H.embed(H.idempotent_e(b + c), a, n) * tcross * H.embed(H.up_splitter(a, b), c, n)
        assert lhs_t == H.up_splitter(a, b + c) * H.idempotent_e(n), (a, b, c)


def test_up_splitter_absorbs_bottom_projector():
    for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        sp = H.up_splitter(a, b)
        assert sp * H.idempotent_e(a + b) == sp


def test_extract_standard_basis_examples():
    one = H.OnhElement.identity(2)
    assert H.extract_standard_basis(one) == {((0, 0), (1, 2)): 1}
    E = H.cross(2, 1) * H.dot(2, 1)  # = 1 - x_2 d_1
    assert H.extract_standard_basis(E) == {((0, 0), (1, 2)): 1, ((0, 1), (2, 1)): -1}
    e2 = H.idempotent_e(2)
    assert H.extract_standard_basis(e2 * e2) == H.extract_standard_basis(e2)


def test_extract_standard_basis_roundtrip():
    rng = random.Random(321)
    for a in (2, 3):
        words = []
        alphabet = list(range(1, a + 1)) + [-i for i in range(1, a)]
        for _ in range(6):
            words.append(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))))
        el = H.OnhElement(a, {w: rng.randint(-3, 3) for w in words})
        coeffs = H.extract_standard_basis(el)
        assert H.assemble_standard_basis(a, coeffs) == el


def test_normalize_caps_word_count():
    a = 2
    e2 = H.idempotent_e(a)
    big = e2
    for _ in range(4):
        big = big * e2 + big * e2  # inflate the combination
    normal = big.normalize()
    assert normal == big
    assert len(normal.combo) <= len(big.combo)


def test_zero_test_via_schubert_basis():
    a = 3
    el = H.cross(a, 1) * H.cross(a, 1)
    assert el.is_zero()
    el = H.dot(a, 1) * H.cross(a, 1) + H.cross(a, 1) * H.dot(a, 2) - H.OnhElement.identity(a)
    assert el.is_zero()
    assert not H.dot(a, 1).is_zero()


def test_evaluate_matches_operator_composition():
    a = 3
    p = SkewPolynomial.monomial(a, (1, 2, 0))
    el = H.dot(a, 1) * H.cross(a, 2)
    assert el.evaluate(p) == SkewPolynomial.variable(a, 1) * O.divided_difference(2, p)


@pytest.mark.parametrize("a", range(2, 6))
def test_automorphism_contracts(a):
    D = H.d_element(a)
    assert H.automorphism_apply("sigma", D) == D
    # psi reverses words; the sign on D_a is pinned by evaluation (a = 4
    # already needs one distant swap, so the exponent is binom(a,4))
    assert H.automorphism_apply("psi", D) == D.scale((-1) ** comb(a, 4))
    st = H.staircase_element(a)
    assert st == H.automorphism_apply("psi", st).scale((-1) ** comb(a, 4))
    assert H.automorphism_apply("sigma", H.cross(2, 1)) == H.cross(2, 1)
    with pytest.raises(ValueError):
        H.automorphism_apply("bogus", D)


def test_automorphism_psi_is_antihomomorphism_on_words():
    el = H.OnhElement.from_word(3, (1, -2, 2))
    psi = H.automorphism_apply("psi", el)
    assert list(psi.combo) == [(2, -2, 1)]
    both = H.automorphism_apply("sigma.psi", el)
    assert list(both.combo) == [(2, -1, 3)]


def test_parity_ledgers():
    # Omega examples straight from the definition
    assert H.omega((), 1) == 0
    assert H.omega((2,), 1) == comb(2, 3) % 2
    assert H.omega((2, 1), 2) == (comb(1, 3) + comb(3, 3)) % 2
    with pytest.raises(C.BoxViolationError):
        H.omega((1, 1), 1)
    # the simplified X formula on one-column boxes
    for a in range(1, 7):
        for r in range(0, a + 1):
            assert H.bigX((1,) * r, a, 1) == (a * (a - r) + comb(a - r + 1, 2)) % 2


def test_sigma_lambda_seq_small():
    # hand-computed a = 2 values
    s0, s1 = H.sigma_seq((0,)), H.sigma_seq((1,))
    l0, l1 = H.lambda_seq((0,)), H.lambda_seq((1,))
    e2 = H.idempotent_e(2)
    assert l0 * s0 == e2 and l1 * s1 == e2
    assert (l1 * s0).is_zero() and (l0 * s1).is_zero()
    assert s0 * l0 + s1 * l1 == H.OnhElement.identity(2)
    with pytest.raises(ValueError):
        H.sigma_seq((5,))


def test_sigma_lambda_seq_a3_all_pairings():
    a = 3
    ea = H.idempotent_e(a)
    for lp in C.enumerate_sq(a):
        for l in C.enumerate_sq(a):
            prod = H.lambda_seq(lp) * H.sigma_seq(l)
            if lp == l:
                assert prod == ea
            else:
                assert prod.is_zero()


def test_sigma_lambda_part_small():
    # (a,b) = (1,1): lambda_empty sigma_empty = e_2; cross terms vanish
    e2 = H.idempotent_e(2)
    s_e, s_1 = H.sigma_part((), 1, 1), H.sigma_part((1,), 1, 1)
    l_e, l_1 = H.lambda_part((), 1, 1), H.lambda_part((1,), 1, 1)
    assert l_e * s_e == e2 and l_1 * s_1 == e2
    assert (l_e * s_1).is_zero() and (l_1 * s_e).is_zero()
    assert s_e * l_e + s_1 * l_1 == H.OnhElement.identity(2)


@pytest.mark.parametrize("a,b", [(2, 1), (2, 2)])
def test_sigma_part_degrees(a, b):
    for alpha in C.partitions_in_box(a, b):
        sig = H.sigma_part(alpha, a, b)
        lam = H.lambda_part(alpha, a, b)
        assert sig.degrees() == [2 * sum(alpha) - 2 * a * b]
        assert lam.degrees() == [2 * a * b - 2 * sum(alpha)]
    with pytest.raises(C.BoxViolationError):
        H.sigma_part((b + 1,), a, b)


def test_ea_eone_expansion():
    for a in (1, 2, 3):
        n = a + 1
        tot = H.OnhElement.zero(n)
        for s in range(0, a + 1):
            tot = tot + (
                H.embed(H.box(S.elementary(a - s, a), a), 0, n)
                * H.up_splitter(a, 1)
                * H.idempotent_e(n)
                * H.from_polynomial(SkewPolynomial.monomial(n, (0,) * a + (s,)))
            )
        assert H.embed(H.idempotent_e(a), 0, n) == tot.scale((-1) ** comb(a, 2))


def test_center_positive_and_negative():
    for a in (2, 3):
        gens = [H.dot(a, r) for r in range(1, a + 1)] + [H.cross(a, r) for r in range(1, a)]
        for k in range(1, a + 1):
            f = SkewPolynomial.zero(a)
            for subset in itertools.combinations(range(1, a + 1), k):
                e = [0] * a
                for i in subset:
                    e[i - 1] = 2
                f = f + SkewPolynomial.monomial(a, e)
            F = H.from_polynomial(f)
            for g in gens:
                assert F * g == g * F
    # x_1^2 alone is NOT central (negative control)
    F = H.from_polynomial(SkewPolynomial.monomial(2, (2, 0)))
    d1 = H.cross(2, 1)
    assert not (F * d1 == d1 * F)
