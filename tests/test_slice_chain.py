"""The incremental slice chain of ``cyclotomic`` against the slices built
from triple polynomial products (``reference_cyclotomic``), and the
eps-word arithmetic it runs on against polynomial products."""

import time
from math import comb

import pytest

import reference_cyclotomic as R
from oddnil import combinat as C
from oddnil import cyclotomic as CY
from oddnil import oddsym as S
from oddnil import skewpoly
from oddnil.qgrade import QLaurent, q_cardinality_box
from oddnil.skewpoly import SkewPolynomial

PAIRS = [(a, n) for a in range(1, 5) for n in range(a, 7)]


@pytest.mark.parametrize("a,n_param", PAIRS)
def test_h_ideal_chain_matches_triple_products(a, n_param):
    d_max = CY.default_dmax(a, n_param)
    chain = CY.h_ideal_slices(a, n_param, d_max)
    assert [sl.degree for sl in chain] == list(range(0, d_max + 1, 2))
    for sl in chain:
        ref = R.ideal_degree_slice(a, n_param, sl.degree)
        assert sl.ambient_basis == ref.ambient_basis
        assert sl.hermite == ref.hermite, (a, n_param, sl.degree)


@pytest.mark.parametrize("n_param", [2, 3, 4, 5])
def test_column_ideal_chain_matches_triple_products(n_param):
    d_max = CY.default_dmax(2, n_param)
    for sl in CY.column_ideal_slices(2, n_param, d_max):
        assert sl.hermite == R.first_column_degree_slice(2, n_param, sl.degree).hermite, (n_param, sl.degree)


@pytest.mark.parametrize("a,word", [(3, (1,)), (3, (2, 1)), (4, (3,))])
def test_chain_of_a_principal_ideal_matches_triple_products(a, word):
    # on the (a, N) above the left multiples of the h-ideal span it already;
    # the ideal of one eps-word needs the right multiples too
    poly = S.elementary_word_value(word, a)
    n0 = sum(word)
    seeds = {n0: [S.expand_in_elementary(poly)]}
    # the slice function ignores N; any N >= a passes the chain's domain check
    chain = CY._chain(lambda a, n_param, d, below: CY._slice(a, d, seeds.get(d // 2, []), below), a, a, 2 * n0 + 8)
    for sl in chain:
        ambient, rows = R._slice_generator_rows(a, sl.degree, [(poly, 2 * n0)])
        assert sl.hermite == CY.DegreeLattice(sl.degree, ambient, rows).hermite, (a, word, sl.degree)


def _rows_below(chain, a):
    """The Hermite rows of the a slices under the chain's top, nearest first."""
    return tuple(tuple(map(tuple, sl.hermite)) for sl in reversed(chain[-a - 1:-1]))


def test_single_slices_are_the_chain_tops():
    chain = CY.h_ideal_slices(3, 5, 10)
    assert CY.ideal_degree_slice(3, 5, 10, _rows_below(chain, 3)).hermite == chain[-1].hermite
    chain = CY.column_ideal_slices(2, 4, 8)
    assert CY.first_column_degree_slice(2, 4, 8, _rows_below(chain, 2)).hermite == chain[-1].hermite
    assert CY.h_ideal_slices(0, 3, 0)[0].quotient_rank == 1
    assert CY.h_ideal_slices(0, 3, 4)[-1].ambient_basis == []
    assert CY.h_ideal_slices(2, 3, -2) == []
    with pytest.raises(C.DomainError, match="need 0 <= a <= N"):
        CY.h_ideal_slices(3, 2, -2)
    with pytest.raises(C.DomainError, match="need 0 <= a <= N"):
        CY.column_ideal_slices(3, 2, 4)
    with pytest.raises(C.DomainError, match="odd"):
        CY.h_ideal_slices(2, 4, 5)


def _product(a, word):
    out = SkewPolynomial.one(a)
    for k in word:
        out = out * S.elementary(k, a)
    return out


def _images(a, k, n, side):
    """{lam: the product of eps_k and eps_lam on the given side} over the
    sorted words lam of half-degree n-k, one word per call."""
    return {lam: S.multiply_by_eps(a, k, {lam: 1}, side) for lam in C.partitions_of(n - k, maxpart=a)}


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
def test_eps_multiplication_matches_polynomial_products(a):
    # the straightened products against the polynomial-product oracle
    for n in range(1, 13):
        for k in range(1, min(a, n) + 1):
            for side in ("left", "right"):
                assert _images(a, k, n, side) == R.eps_multiplication(a, k, n, side), (a, k, n, side)


def test_eps_multiplication_matches_direct_products():
    # the oracle itself against products formed letter by letter
    a = 3
    for n in range(1, 7):
        for k in range(1, min(a, n) + 1):
            for lam in C.partitions_of(n - k, maxpart=a):
                assert R.eps_multiplication(a, k, n, "left")[lam] == S.expand_in_elementary(_product(a, (k,) + lam))
                assert R.eps_multiplication(a, k, n, "right")[lam] == S.expand_in_elementary(_product(a, lam + (k,)))


def test_eps_multiplication_is_associative_at_a_6():
    # beyond the oracle's reach: (eps_k eps_lam) eps_m = eps_k (eps_lam eps_m)
    a = 6
    for n in range(2, 21):
        for k in range(1, a + 1):
            for m in range(1, min(a, n - k) + 1):
                for lam in C.partitions_of(n - k - m, maxpart=a):
                    left_first = S.multiply_by_eps(a, k, {lam: 1}, "left")
                    right_first = S.multiply_by_eps(a, m, {lam: 1}, "right")
                    assert S.multiply_by_eps(a, m, left_first, "right") == S.multiply_by_eps(
                        a, k, right_first, "left"
                    ), (k, lam, m)


def test_eps_multiplication_forms_no_polynomial(monkeypatch):
    S._left.cache_clear()
    S._right.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a SkewPolynomial was formed")

    # every SkewPolynomial is built by its constructor or by _from_normal
    monkeypatch.setattr(SkewPolynomial, "__init__", refuse)
    monkeypatch.setattr(skewpoly, "_from_normal", refuse)
    for n in range(1, 11):
        for k in range(1, min(4, n) + 1):
            for side in ("left", "right"):
                _images(4, k, n, side)


def test_multiply_by_eps_is_linear():
    a, k = 3, 2
    coeffs = {(2, 1): 3, (1, 1, 1): -2, (3,): 1}
    want = S.expand_in_elementary(
        S.elementary(k, a) * (_product(a, (2, 1)).scale(3) + _product(a, (1, 1, 1)).scale(-2) + _product(a, (3,)))
    )
    assert S.multiply_by_eps(a, k, coeffs, "left") == want


@pytest.mark.parametrize("a", [0, 1, 2, 3, 4, 5])
def test_complete_in_elementary_matches_complete(a):
    for n in range(13):
        poly = S.complete(n, a) if a else SkewPolynomial(0, {(): 1} if n == 0 else {})
        assert S.complete_in_elementary(a, n) == S.expand_in_elementary(poly), (a, n)


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_untruncated_series_identity_vanishes(a):
    # sum_{i=0}^{min(a,m)} (-1)^{i(m-i)} eps_i z_{m-i} = 0 for every m >= 1
    for m in range(1, 9):
        total = SkewPolynomial.zero(a)
        for i in range(0, min(a, m) + 1):
            total = total + (S.elementary(i, a) * CY.z_poly(m - i, a)).scale((-1) ** (i * (m - i)))
        assert not total, (a, m)


def test_quotient_rank_reads_a_given_chain():
    chain = CY.h_ideal_slices(3, 5, CY.default_dmax(3, 5))
    assert CY.quotient_graded_rank(3, 5, CY.default_dmax(3, 5), chain) == CY.quotient_graded_rank(3, 5)


@pytest.mark.parametrize("a,n_param", [(a, n) for a in range(1, 5) for n in range(a, 9)])
def test_quotient_rank_proved_in_all_degrees(a, n_param):
    # a zero half-degrees above the top prove the quotient zero beyond them
    top = 2 * a * (n_param - a)
    q = CY.quotient_graded_rank(a, n_param, d_max=top + 2 * a)
    assert q.at_one() == comb(n_param, a)
    assert q * QLaurent.q_power(-a * (n_param - a)) == q_cardinality_box(a, n_param - a)


def test_quotient_rank_at_4_8_is_the_balanced_binomial():
    started = time.time()
    q = CY.quotient_graded_rank(4, 8)
    elapsed = time.time() - started
    assert q.at_one() == comb(8, 4)
    assert q * QLaurent.q_power(-16) == q_cardinality_box(4, 4)
    print("quotient_graded_rank(4, 8): %.1f s" % elapsed)
