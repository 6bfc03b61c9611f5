import itertools
import random
from math import comb

import pytest

import paper_identities as P
from oddnil import combinat as C
from oddnil import evenoracle as E
from oddnil import oddsym as S
from oddnil.skewpoly import SkewPolynomial, apply_w0, format_skew, staircase


def x(a, i):
    return SkewPolynomial.variable(a, i)


def test_elementary_examples():
    assert format_skew(S.elementary(1, 3)) == "x1 - x2 + x3"
    assert S.elementary(2, 2) == SkewPolynomial(2, {(1, 1): -1})
    assert S.elementary(0, 3) == SkewPolynomial.one(3)
    assert not S.elementary(4, 3)
    assert not S.elementary(-2, 3)


def test_complete_examples():
    assert S.complete(2, 1) == SkewPolynomial.monomial(1, (2,))
    assert S.complete(0, 2) == SkewPolynomial.one(2)
    assert not S.complete(-1, 2)
    # h_1 = eps_1
    for a in (1, 2, 3):
        assert S.complete(1, a) == S.elementary(1, a)


@pytest.mark.parametrize("a", range(1, 6))
def test_elementary_and_complete_are_odd_symmetric(a):
    for k in range(1, a + 1):
        assert S.is_odd_symmetric(S.elementary(k, a))
    for k in range(1, 5):
        assert S.is_odd_symmetric(S.complete(k, a))


def test_is_odd_symmetric_examples():
    assert S.is_odd_symmetric(S.elementary(2, 3))
    assert not S.is_odd_symmetric(x(2, 1))
    f = S.elementary(1, 3) * S.elementary(3, 3) - S.elementary(3, 3) * S.elementary(1, 3)
    assert S.is_odd_symmetric(f)
    assert not f  # even-sum subscripts commute


@pytest.mark.parametrize("a", range(1, 6))
def test_e_h_relation(a):
    for m in range(1, 9):
        total = SkewPolynomial.zero(a)
        for k in range(0, m + 1):
            total = total + (S.elementary(k, a) * S.complete(m - k, a)).scale(
                (-1) ** (k * (k + 1) // 2)
            )
        assert not total, (a, m)


@pytest.mark.parametrize("a", range(2, 6))
def test_eps_relation_families(a):
    eps = S.elementary
    for m in range(1, 6):
        for i in range(1, 2 * m):
            j = 2 * m - i
            if j < 1 or i > a or j > a:
                continue
            assert eps(i, a) * eps(j, a) == eps(j, a) * eps(i, a)
        for i in range(0, 2 * m + 1):
            j = 2 * m + 1 - i
            if not (1 <= i <= a - 1 and 1 <= 2 * m - i <= a - 1):
                continue
            lhs = eps(i, a) * eps(j, a) + (eps(j, a) * eps(i, a)).scale((-1) ** i)
            rhs = (eps(i + 1, a) * eps(2 * m - i, a)).scale((-1) ** i) + eps(2 * m - i, a) * eps(
                i + 1, a
            )
            assert lhs == rhs
        if 1 < 2 * m <= a - 1:
            assert eps(1, a) * eps(2 * m, a) + eps(2 * m, a) * eps(1, a) == eps(2 * m + 1, a).scale(2)


def _straightening_instances(a):
    """(i, j) of the odd-sum relation that eps-word straightening rewrites
    with, eps_{i+1} eps_{j-1} unsorted (i + 1 < j - 1 <= a, i + j odd), that
    check_eps_relations never reaches: i = 0, where the relation is the
    doubling 2 eps_j = eps_1 eps_{j-1} + eps_{j-1} eps_1 (eps_0 = 1), and
    j = a + 1, where eps_{a+1} = 0."""
    return [(i, j) for j in range(3, a + 2) for i in range(0, j - 2) if (i + j) % 2 and (i == 0 or j == a + 1)]


@pytest.mark.parametrize("a", range(1, 6))
def test_odd_sum_relation_at_the_straightening_edges(a):
    eps = S.elementary
    assert not eps(a + 1, a)
    instances = _straightening_instances(a)
    if a >= 2:
        assert (0, a + 1 if a % 2 == 0 else a) in instances
    for i, j in instances:
        lhs = eps(i, a) * eps(j, a) + (eps(j, a) * eps(i, a)).scale((-1) ** i)
        rhs = (eps(i + 1, a) * eps(j - 1, a)).scale((-1) ** i) + eps(j - 1, a) * eps(i + 1, a)
        assert lhs == rhs, (a, i, j)


@pytest.mark.parametrize("a", range(2, 6))
def test_h_and_mixed_relations(a):
    h, eps = S.complete, S.elementary
    for m in range(1, 6):
        for i in range(1, 2 * m):
            j = 2 * m - i
            if 1 <= i <= a and 1 <= j <= a:
                assert h(i, a) * h(j, a) == h(j, a) * h(i, a)
                assert eps(i, a) * h(j, a) == h(j, a) * eps(i, a)
        for i in range(0, 2 * m + 1):
            j = 2 * m + 1 - i
            if not (1 <= i <= a - 1 and 1 <= 2 * m - i <= a - 1):
                continue
            lhs = h(i, a) * h(j, a) + (h(j, a) * h(i, a)).scale((-1) ** i)
            rhs = (h(i + 1, a) * h(2 * m - i, a)).scale((-1) ** i) + h(2 * m - i, a) * h(i + 1, a)
            assert lhs == rhs
            lhs = eps(i, a) * h(j, a) + (h(j, a) * eps(i, a)).scale((-1) ** i)
            rhs = (eps(i + 1, a) * h(2 * m - i, a)).scale((-1) ** i) + h(2 * m - i, a) * eps(
                i + 1, a
            )
            assert lhs == rhs
        if 1 < 2 * m <= a - 1:
            assert h(1, a) * h(2 * m, a) + h(2 * m, a) * h(1, a) == h(2 * m + 1, a).scale(2)


@pytest.mark.parametrize("a", range(2, 6))
def test_variable_reduction(a):
    for k in range(0, a + 1):
        rhs = SkewPolynomial.zero(a)
        for j in range(0, k + 1):
            rhs = rhs + (S.elementary(k - j, a) * (S.x_tilde(a, a) ** j)).scale((-1) ** j)
        assert S.elementary_in_fewer_vars(k, a) == rhs


@pytest.mark.parametrize("a", range(1, 7))
def test_w0_sign_on_elementary(a):
    for k in range(0, a + 1):
        sign = (-1) ** (comb(k, 2) + k * comb(a - 1, 2))
        assert apply_w0(S.elementary(k, a)) == S.elementary(k, a).scale(sign)


def test_schubert_examples():
    assert S.schubert(C.longest_element(3), 3) == staircase(3)
    assert S.schubert((1, 2, 3), 3) == SkewPolynomial.constant(3, -1)
    assert S.schubert((2, 1), 2) == x(2, 1)
    assert S.schubert((1, 2), 2) == SkewPolynomial.one(2)


@pytest.mark.parametrize("a", [2, 3, 4])
def test_schubert_degrees_and_unimodularity(a):
    from oddnil.zlinalg import smith_invariant_factors

    monos = sorted(itertools.product(*[range(a - i) for i in range(a)]))
    idx = {m: t for t, m in enumerate(monos)}
    mat = []
    for w in C.all_permutations(a):
        sp = S.schubert(w, a)
        assert 2 * max(sum(m) for m in sp.terms) == 2 * C.perm_length(w)
        row = [0] * len(monos)
        for m, c in sp.terms.items():
            assert m in idx  # exponents termwise below the staircase
            row[idx[m]] = c
        mat.append(row)
    assert smith_invariant_factors(mat) == [1] * len(monos)


def test_chi_examples():
    for a in range(1, 6):
        assert S.chi((), a) == comb(a, 3)
    # chi values feed the two-route Schur comparison below


@pytest.mark.parametrize("a", [2, 3])
def test_schur_two_routes_agree(a):
    for alpha in C.partitions_in_box(a, 3):
        assert S.schur(alpha, a) == P.schur_via_staircase(alpha, a), alpha


def test_schur_examples():
    assert S.schur((), 3) == SkewPolynomial.one(3)
    for a in (2, 3, 4):
        for k in range(1, a + 1):
            assert S.schur((1,) * k, a) == S.elementary(k, a).scale((-1) ** comb(k, 2))
    # both defining routes at alpha = (2), a = 2
    assert S.schur((2,), 2) == P.schur_via_staircase((2,), 2)
    # more rows than variables: zero by convention
    assert not S.schur((1, 1, 1), 2)


@pytest.mark.parametrize("a", [2, 3])
def test_schur_is_odd_symmetric(a):
    for alpha in C.partitions_in_box(a, 2):
        assert S.is_odd_symmetric(S.schur(alpha, a))


def test_dual_schur_small():
    # dual Schur of the empty partition is 1 after the w_0 twist
    for a in (1, 2, 3):
        assert S.dual_schur((), a) == SkewPolynomial.one(a)
    with pytest.raises(C.BoxViolationError):
        S.dual_schur((1, 1, 1), 2)


def test_expand_in_elementary_examples():
    assert S.expand_in_elementary(S.elementary(2, 3)) == {(2,): 1}
    assert S.expand_in_elementary(S.complete(2, 3)) == {(1, 1): 1, (2,): 1}
    f = S.elementary(3, 3).scale(2) - S.elementary(1, 3) * S.elementary(2, 3)
    assert S.expand_in_elementary(f) == {(2, 1): 1}
    assert S.expand_in_elementary(SkewPolynomial.zero(3)) == {}


def test_expand_in_elementary_roundtrip():
    rng = random.Random(8)
    a = 3
    words = [lam for hd in range(5) for lam in C.partitions_of(hd, maxpart=a)]
    for _ in range(20):
        coeffs = {}
        for lam in rng.sample(words, 4):
            coeffs[lam] = rng.randint(-4, 4)
        f = SkewPolynomial.zero(a)
        for lam, c in coeffs.items():
            f = f + S.elementary_word_value(lam, a).scale(c)
        exp = S.expand_in_elementary(f)
        assert exp == {lam: c for lam, c in coeffs.items() if c}


def test_expand_in_elementary_rejects_nonsymmetric():
    with pytest.raises(S.NotOddSymmetricError):
        S.expand_in_elementary(x(3, 2))


def test_pieri_expected_examples():
    assert S.pieri_expected((1,), 1, 3) == [(1, (2,)), (1, (1, 1))]
    assert S.pieri_expected((1, 1), 1, 3) == [(-1, (2, 1)), (1, (1, 1, 1))]
    assert S.pieri_expected((1,), 5, 3) == []
    assert S.pieri_expected((2, 1), 0, 3) == [(1, (2, 1))]
    assert S.pieri_expected((1, 1, 1), 1, 2) == []


def test_pieri_rule_in_every_box_at_every_k():
    # k = 0 and alpha with more than a rows included: s_alpha = 0 there
    for alpha in C.partitions_in_box(3, 3):
        for a in range(1, 5):
            for k in range(0, 5):
                lhs = S.schur(alpha, a) * S.elementary(k, a).scale((-1) ** comb(k, 2))
                rhs = SkewPolynomial.zero(a)
                for sign, mu in S.pieri_expected(alpha, k, a):
                    rhs = rhs + S.schur(mu, a).scale(sign)
                assert lhs == rhs, (alpha, a, k)


@pytest.mark.parametrize("a", [3, 4])
def test_pieri_rule_polynomial_identity(a):
    for alpha in C.partitions_in_box(2, 2):
        for k in range(1, 4):
            lhs = S.schur(alpha, a) * S.elementary(k, a).scale((-1) ** comb(k, 2))
            rhs = SkewPolynomial.zero(a)
            for sign, mu in S.pieri_expected(alpha, k, a):
                rhs = rhs + S.schur(mu, a).scale(sign)
            assert lhs == rhs, (alpha, k)


def test_mod2_reduction_matches_even_oracle():
    for a in (1, 2, 3, 4):
        for k in range(0, a + 1):
            assert S.mod2_reduction(S.elementary(k, a)) == E.Gf2Poly(a, E.even_elementary(k, a))
        for k in range(0, 5):
            assert S.mod2_reduction(S.complete(k, a)) == E.Gf2Poly(a, E.even_complete(k, a))
    a = 3
    for alpha in C.partitions_in_box(2, 2):
        assert S.mod2_reduction(S.schur(alpha, a)) == E.Gf2Poly(a, E.even_schur(alpha, a))


@pytest.mark.parametrize("a", [2, 3, 4])
def test_graded_rank_certificate(a):
    for hd in range(0, 7):
        assert P.odd_symmetric_rank(a, hd) == len(C.partitions_of(hd, maxpart=a))


def test_jacobi_trudi_failure_at_rank_six():
    # eps_4 is not an integer combination of degree-8 words in
    # h_1, h_2, h_3, eps_1, eps_2, eps_3 (certified by integer rank)
    from oddnil.zlinalg import int_rank
    from reference_linalg import in_row_lattice

    a = 6
    gens = {("h", k): S.complete(k, a) for k in (1, 2, 3)}
    gens.update({("e", k): S.elementary(k, a) for k in (1, 2, 3)})

    def comps(n):
        if n == 0:
            yield ()
            return
        for p in (1, 2, 3):
            if p <= n:
                for rest in comps(n - p):
                    yield (p,) + rest

    basis = C.partitions_of(4, maxpart=a)
    bidx = {lam: i for i, lam in enumerate(basis)}
    rows = []
    for compn in comps(4):
        for flavors in itertools.product("he", repeat=len(compn)):
            f = SkewPolynomial.one(a)
            for fl, k in zip(flavors, compn):
                f = f * gens[(fl, k)]
            row = [0] * len(basis)
            for lam, c in S.expand_in_elementary(f).items():
                row[bidx[lam]] = c
            rows.append(row)
    target = [0] * len(basis)
    target[bidx[(4,)]] = 1
    assert int_rank(rows + [target]) == int_rank(rows) + 1
    assert not in_row_lattice(rows, target)


@pytest.mark.parametrize("a", range(5))
@pytest.mark.parametrize("halfdeg", [-1, -3])
def test_monomials_of_negative_degree_are_none(a, halfdeg):
    assert S.monomials_of_degree(a, halfdeg) == []
