import itertools
import random
import sys
from math import comb

import pytest

import paper_identities as P
import reference_kernel as ref
from oddnil import combinat as C
from oddnil import oddops as O
from oddnil import oddsym as S
from oddnil.skewpoly import (
    SkewPolynomial,
    apply_simple_transposition,
    apply_w0,
    psi_staircase,
    staircase,
)


def x(a, i):
    return SkewPolynomial.variable(a, i)


def monomials(a, maxhalf):
    return [
        m
        for m in itertools.product(range(maxhalf + 1), repeat=a)
        if sum(m) <= maxhalf
    ]


def crossings(indices):
    """The crossing word d_{i_1} ... d_{i_k} of a word of operator indices."""
    return tuple(-i for i in indices)


def leibniz_oracle_dd(i, mono, a):
    """Letter-by-letter Leibniz oracle for d_i, independent of the block
    recursion used in the implementation."""
    letters = []
    for j, e in enumerate(mono, start=1):
        letters.extend([j] * e)
    if not letters:
        return SkewPolynomial.zero(a)
    head, rest = letters[0], letters[1:]
    rest_exps = [0] * a
    for l in rest:
        rest_exps[l - 1] += 1
    rest_mono = SkewPolynomial.monomial(a, rest_exps)
    d_head = SkewPolynomial.one(a) if head in (i, i + 1) else SkewPolynomial.zero(a)
    term1 = d_head * rest_mono
    s_head = apply_simple_transposition(i, x(a, head))
    term2 = s_head * leibniz_oracle_dd(i, tuple(rest_exps), a)
    return term1 + term2


def test_dd_basic_values():
    assert O.divided_difference(1, x(2, 1)) == SkewPolynomial.one(2)
    assert O.divided_difference(1, x(2, 1) * x(2, 1)) == x(2, 1) - x(2, 2)
    assert not O.divided_difference(1, x(2, 1) * x(2, 2))
    assert not O.divided_difference(1, SkewPolynomial.one(2))
    assert not O.divided_difference(2, x(3, 1))
    with pytest.raises(ValueError):
        O.divided_difference(2, SkewPolynomial.one(2))


def test_dd_against_letterwise_leibniz_oracle():
    rng = random.Random(2718)
    for _ in range(150):
        a = rng.randint(2, 4)
        i = rng.randint(1, a - 1)
        mono = tuple(rng.randint(0, 3) for _ in range(a))
        assert O.divided_difference(i, SkewPolynomial.monomial(a, mono)) == leibniz_oracle_dd(
            i, mono, a
        ), (a, i, mono)


def test_dd_power_formulas():
    # d_i(x_i^m) = sum (-1)^j x_{i+1}^j x_i^{m-1-j}, and the mirror
    a = 2
    for m in range(1, 6):
        got = O.divided_difference(1, SkewPolynomial.monomial(a, (m, 0)))
        want = SkewPolynomial.zero(a)
        for j in range(m):
            want = want + (
                SkewPolynomial.monomial(a, (0, j)).scale((-1) ** j)
                * SkewPolynomial.monomial(a, (m - 1 - j, 0))
            )
        assert got == want
        got = O.divided_difference(1, SkewPolynomial.monomial(a, (0, m)))
        want = SkewPolynomial.zero(a)
        for j in range(m):
            want = want + (
                SkewPolynomial.monomial(a, (j, 0)).scale((-1) ** j)
                * SkewPolynomial.monomial(a, (0, m - 1 - j))
            )
        assert got == want


@pytest.mark.parametrize("a", [2, 3, 4])
def test_defining_relations_on_span(a):
    # nilpotency, braid, mixed relations on all monomials of Z-degree <= 8
    monos = monomials(a, 4)
    for m in monos:
        p = SkewPolynomial.monomial(a, m)
        for i in range(1, a):
            di = O.divided_difference(i, p)
            assert not O.divided_difference(i, di)
            assert x(a, i) * di + O.divided_difference(i, x(a, i + 1) * p) == p
            assert O.divided_difference(i, x(a, i) * p) + x(a, i + 1) * di == p
            if i + 1 < a:
                assert O.apply_letters((-i, -i - 1, -i), p) == O.apply_letters((-i - 1, -i, -i - 1), p)
            for j in range(i + 2, a):
                assert not (
                    O.divided_difference(i, O.divided_difference(j, p))
                    + O.divided_difference(j, O.divided_difference(i, p))
                )
            for j in range(1, a + 1):
                if j not in (i, i + 1):
                    assert not (x(a, j) * di + O.divided_difference(i, x(a, j) * p))


def test_nonadjacent_dd_values():
    a = 3
    assert not ref.dd_nonadjacent(1, 3, x(a, 2))
    assert ref.dd_nonadjacent(1, 3, x(a, 1)) == SkewPolynomial.one(a)
    assert ref.dd_nonadjacent(1, 3, x(a, 3)) == SkewPolynomial.one(a)
    with pytest.raises(ValueError):
        ref.dd_nonadjacent(2, 2, SkewPolynomial.one(a))


def test_nonadjacent_dd_agrees_with_adjacent():
    rng = random.Random(31)
    for _ in range(100):
        a = rng.randint(2, 4)
        i = rng.randint(1, a - 1)
        mono = tuple(rng.randint(0, 2) for _ in range(a))
        p = SkewPolynomial.monomial(a, mono)
        assert ref.dd_nonadjacent(i, i + 1, p) == O.divided_difference(i, p)


def test_nonadjacent_dd_x1x3():
    # Leibniz expansion by hand: d(x1)x3 + s(x1)d(x3) = x3 + (-x3)(1) = 0
    a = 3
    p = x(a, 1) * x(a, 3)
    assert not ref.dd_nonadjacent(1, 3, p)


def test_nonadjacent_anticommutation():
    # disjoint transpositions and operators anticommute
    rng = random.Random(13)
    a = 4
    for _ in range(40):
        mono = tuple(rng.randint(0, 2) for _ in range(a))
        p = SkewPolynomial.monomial(a, mono)
        lhs = ref.dd_nonadjacent(1, 2, P.apply_transposition(3, 4, p)) + P.apply_transposition(
            3, 4, ref.dd_nonadjacent(1, 2, p)
        )
        assert not lhs
        lhs = ref.dd_nonadjacent(1, 2, ref.dd_nonadjacent(3, 4, p)) + ref.dd_nonadjacent(
            3, 4, ref.dd_nonadjacent(1, 2, p)
        )
        assert not lhs


def test_nonadjacent_transposition_conjugation():
    # d_{i,j} s_{k,l} + s_{k,l} d_{s_{k,l}(i,j)} = 0 for all pairs
    rng = random.Random(47)
    a = 4
    pairs = [(i, j) for i in range(1, a + 1) for j in range(i + 1, a + 1)]
    monos = [tuple(rng.randint(0, 2) for _ in range(a)) for _ in range(5)]
    for (i, j) in pairs:
        for (k, l) in pairs:
            def tmap(v):
                return l if v == k else (k if v == l else v)

            ii, jj = sorted((tmap(i), tmap(j)))
            for m in monos:
                p = SkewPolynomial.monomial(a, m)
                lhs = ref.dd_nonadjacent(i, j, P.apply_transposition(k, l, p)) + P.apply_transposition(
                    k, l, ref.dd_nonadjacent(ii, jj, p)
                )
                assert not lhs, (i, j, k, l, m)


@pytest.mark.parametrize("a", [2, 3, 4])
def test_composite_annihilates_symmetric(a):
    # d_{i+1} ... d_{j-1} d_{i,j} kills odd symmetric polynomials
    fs = [S.elementary(k, a) for k in range(1, a + 1)]
    fs.append(S.elementary(1, a) * S.elementary(2, a))
    fs.append(S.complete(3, a))
    for f in fs:
        for i in range(1, a + 1):
            for j in range(i + 1, a + 1):
                v = ref.dd_nonadjacent(i, j, f)
                for t in range(j - 1, i, -1):
                    v = O.divided_difference(t, v)
                assert not v, (a, i, j)


def test_da_word_is_the_fixed_constant():
    assert O.da_word(1) == ()
    assert O.da_word(2) == (-1,)
    assert O.da_word(3) == (-1, -2, -1)
    assert O.da_word(4) == (-1, -2, -1, -3, -2, -1)


@pytest.mark.parametrize("a", range(1, 5))
def test_d_word_spells_a_reduced_word_of_w_in_crossings(a):
    """d_w's letters are crossings -j with w = s_{j_1} o ... o s_{j_l}, and
    there are length(w) of them."""
    for w in C.all_permutations(a):
        word = O.d_word(w)
        assert all(l < 0 for l in word)
        assert len(word) == C.perm_length(w)
        v = tuple(range(1, a + 1))
        for l in word:
            s = list(range(1, a + 1))
            s[-l - 1], s[-l] = s[-l], s[-l - 1]
            v = C.perm_compose(v, tuple(s))
        assert v == w
    assert O.d_word(C.longest_element(3)) == (-1, -2, -1)


def test_longest_dd_values():
    assert O.longest_dd(2, x(2, 1)) == SkewPolynomial.one(2)
    assert O.longest_dd(3, SkewPolynomial.monomial(3, (2, 1, 0))) == SkewPolynomial.constant(3, -1)
    assert not O.longest_dd(3, SkewPolynomial.monomial(3, (2, 0, 0)))


@pytest.mark.parametrize("a", range(1, 6))
def test_da_sign_constants(a):
    assert O.longest_dd(a, staircase(a)) == SkewPolynomial.constant(a, (-1) ** comb(a, 3))
    assert O.longest_dd(a, psi_staircase(a)) == SkewPolynomial.constant(a, (-1) ** comb(a + 1, 4))


def test_generalized_action_extremes():
    word = (1, 2, 1)
    p = SkewPolynomial.monomial(3, (1, 2, 0))
    assert P.generalized_action(word, (1, 1, 1), p) == O.apply_letters(crossings(word), p)
    w0 = C.longest_element(3)
    assert P.generalized_action(word, (0, 0, 0), p) == ref.apply_permutation(w0, p)
    with pytest.raises(ValueError):
        P.generalized_action(word, (1, 0), p)


def test_generalized_leibniz():
    # d_w(fg) = sum over selectors of (w^xi . f) d_{omitted}(g)
    word = (1, 2, 1)
    a = 3
    cases = [(x(a, 1), x(a, 2)), (x(a, 1) * x(a, 1), x(a, 3)), (x(a, 2), x(a, 1) * x(a, 3))]
    for f, g in cases:
        total = SkewPolynomial.zero(a)
        for xi in itertools.product((0, 1), repeat=len(word)):
            total = total + P.generalized_action(word, xi, f) * O.apply_letters(
                crossings(P.omission_word(word, xi)), g
            )
        assert total == O.apply_letters(crossings(word), f * g), (f, g)


def test_omission_word():
    assert P.omission_word((1, 2, 1), (0, 1, 0)) == (1, 1)
    assert P.omission_word((1, 2, 1), (1, 1, 1)) == ()


def test_odd_symmetrize_examples():
    assert O.odd_symmetrize(SkewPolynomial.one(2)) == SkewPolynomial.one(2)
    assert O.odd_symmetrize(x(2, 1)) == x(2, 1) - x(2, 2)
    for a in (2, 3):
        xt = lambda i: x(a, i).scale((-1) ** (i - 1))
        assert O.odd_symmetrize(xt(1) * xt(2)) == S.elementary(2, a)


@pytest.mark.parametrize("a", [2, 3])
def test_odd_symmetrize_is_projection(a):
    rng = random.Random(555)
    monos = monomials(a, 3)
    for _ in range(10):
        p = SkewPolynomial.zero(a)
        for m in rng.sample(monos, 3):
            p = p + SkewPolynomial(a, {m: rng.randint(-2, 2)})
        sp = O.odd_symmetrize(p)
        assert S.is_odd_symmetric(sp)
        assert O.odd_symmetrize(sp) == sp


@pytest.mark.parametrize("a", [2, 3, 4])
def test_owl_corollaries(a):
    rng = random.Random(42)
    # D_a(f g) = f^{w_0} D_a(g) for symmetric f
    words = [
        lam for hd in range(0, 5) for lam in C.partitions_of(hd, maxpart=a)
    ]
    monos = monomials(a, 3)
    for _ in range(50):
        lam = words[rng.randrange(len(words))]
        f = S.elementary_word_value(lam, a)
        g = SkewPolynomial.monomial(a, monos[rng.randrange(len(monos))])
        assert O.longest_dd(a, f * g) == apply_w0(f) * O.longest_dd(a, g)
    # D_a(f)^{w_0} = (-1)^{binom(a,2)} D_a(f^{w_0}) for arbitrary f
    for _ in range(12):
        f = SkewPolynomial.zero(a)
        for m in rng.sample(monos, min(4, len(monos))):
            f = f + SkewPolynomial(a, {m: rng.randint(-3, 3)})
        assert apply_w0(O.longest_dd(a, f)) == O.longest_dd(a, apply_w0(f)).scale(
            (-1) ** comb(a, 2)
        )


@pytest.mark.parametrize("a", [2, 3])
def test_kernel_equals_image(a):
    # per-degree integer rank computation
    from oddnil.oddsym import monomials_of_degree
    from oddnil.zlinalg import int_rank

    for i in range(1, a):
        for hd in range(1, 5):
            monos = monomials_of_degree(a, hd)
            lower = monomials_of_degree(a, hd - 1)
            li = {m: t for t, m in enumerate(lower)}
            rows = []
            for m in monos:
                row = [0] * len(lower)
                for mm, c in O.divided_difference(i, SkewPolynomial.monomial(a, m)).terms.items():
                    row[li[mm]] = c
                rows.append(row)
            upmonos = monomials_of_degree(a, hd + 1)
            mi = {m: t for t, m in enumerate(monos)}
            rows_up = []
            for m in upmonos:
                row = [0] * len(monos)
                for mm, c in O.divided_difference(i, SkewPolynomial.monomial(a, m)).terms.items():
                    row[mi[mm]] = c
                rows_up.append(row)
            assert len(monos) - int_rank(rows) == int_rank(rows_up), (a, i, hd)


def test_clear_caches_empties_every_lru_cache():
    from oddnil import cyclotomic, evenoracle, onh

    cyclotomic.schur_box_images(2, 3)
    onh.schubert_basis_list(3)
    onh.sigma_seq((0, 1))
    # degree 3 is above N - a = 1, so the e-words of h_2 and h_3 are built
    evenoracle.even_quotient_rank_gf2(2, 3, 3)
    O.divided_difference(1, SkewPolynomial.monomial(3, (2, 1, 1)))
    caches = {
        "%s.%s" % (obj.__module__, obj.__qualname__): obj
        for name, mod in list(sys.modules.items())
        if name.startswith("oddnil.")
        for obj in vars(mod).values()
        if hasattr(obj, "cache_info")
    }
    filled = {name for name, c in caches.items() if c.cache_info().currsize}
    assert {"oddnil.combinat.partitions_of", "oddnil.oddsym.schur", "oddnil.oddsym._left",
            "oddnil.evenoracle._h_ewords", "oddnil.onh.schubert_basis_list",
            "oddnil.onh.sigma_seq", "oddnil.skewpoly._kernel"} <= filled
    # the d_i table is a list, not an lru_cache; it holds row 2 up to q = 1
    assert O._dd_rows[2][1]
    O.clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(caches, 0)
    assert O._dd_rows == []
    assert not O._dd_cache


def test_clear_caches_empties_the_segment_image_memo():
    from oddnil import onh

    basis = onh.schubert_basis_list(4)
    el = onh.sigma_seq((0, 1, 2))
    # x^delta is the one basis polynomial at the element's floor; one below
    # it would return zero without reaching the memo
    assert min(map(sum, basis[-1].terms)) >= min(map(onh.word_floor, el.combo))
    el.evaluate(basis[-1])
    assert onh._segment_images
    O.clear_caches()
    assert not onh._segment_images
    el = onh.sigma_seq((0, 1, 2))
    cold = [el.evaluate(p).terms for p in onh.schubert_basis_list(4)]
    assert onh._segment_images
    # the second pass reads every image from the memo
    warm = [el.evaluate(p).terms for p in onh.schubert_basis_list(4)]
    assert cold == warm and any(cold)
