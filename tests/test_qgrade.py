import pytest
from math import comb

from hypothesis import given, strategies as st

from oddnil.qgrade import (
    QLaurent,
    format_qlaurent,
    q_binomial,
    q_cardinality_box,
    q_factorial,
    q_int,
)


def laurent(draw_dict):
    return QLaurent(draw_dict)


small_laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9), max_size=6
).map(QLaurent)


def test_qlaurent_rejects_non_integer_coefficients():
    for c in (2.5, 0.5, 3.0, "1"):
        with pytest.raises(ValueError):
            QLaurent({1: c})
    q = QLaurent({1: True, -2: 4, 3: 0})
    assert q.coeffs == {1: 1, -2: 4}
    assert all(type(c) is int for c in q.coeffs.values())


def test_qlaurent_rejects_non_integer_exponents():
    # int() would truncate the exponent 1.5 to 1
    for e in (1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="exponent"):
            QLaurent({e: 1})
    q = QLaurent({True: 2})
    assert q.coeffs == {1: 2}
    assert all(type(e) is int for e in q.coeffs)


def test_q_int_values():
    assert q_int(0) == QLaurent()
    assert q_int(2) == QLaurent({1: 1, -1: 1})
    assert q_int(3) == QLaurent({2: 1, 0: 1, -2: 1})


def test_q_factorial_values():
    assert q_factorial(0) == QLaurent.one()
    assert q_factorial(2) == QLaurent({1: 1, -1: 1})


def test_q_binomial_divides_exactly():
    # hand-checked polynomial division: [4]!/([2]![2]!)
    assert q_binomial(4, 2) == QLaurent({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert q_binomial(5, 0) == QLaurent.one()
    assert q_binomial(7, 7) == QLaurent.one()


def test_box_cardinality_examples():
    assert q_cardinality_box(1, 1) == QLaurent({1: 1, -1: 1})
    # enumerate the six partitions in the 2x2 box by hand:
    # sizes 0,1,2,2,3,4 -> exponents 2|a|-4 = -4,-2,0,0,2,4
    assert q_cardinality_box(2, 2) == QLaurent({-4: 1, -2: 1, 0: 2, 2: 1, 4: 1})
    assert q_cardinality_box(3, 0) == QLaurent.one()


@pytest.mark.parametrize("n", range(0, 9))
def test_box_vs_binomial(n):
    for k in range(0, n + 1):
        assert q_cardinality_box(k, n - k) == q_binomial(n, k)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(0, 9) for k in range(0, n + 1)])
def test_bar_invariance_and_specialization(n, k):
    for p in (q_int(n), q_factorial(n), q_binomial(n, k)):
        assert p.is_bar_invariant()
    assert q_int(n).at_one() == n
    assert q_binomial(n, k).at_one() == comb(n, k)


def test_exact_division_rejects_remainder():
    with pytest.raises(ArithmeticError):
        QLaurent({1: 1, 0: 1}).exact_div(QLaurent({0: 2}))


@given(small_laurents, small_laurents, small_laurents)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_format_examples():
    assert format_qlaurent(q_binomial(4, 2)) == "q^4 + q^2 + 2 + q^-2 + q^-4"
    assert format_qlaurent(QLaurent()) == "0"
    assert format_qlaurent(QLaurent({1: -3, 0: 1})) == "-3*q + 1"


def test_exponent_multiset():
    assert q_binomial(4, 2).exponent_multiset() == [-4, -2, 0, 0, 2, 4]


def test_exact_division_by_a_unit_led_divisor_stops_on_a_remainder():
    # 1 / (q + 1) is an infinite series; the division must not run forever
    with pytest.raises(ArithmeticError):
        QLaurent.one().exact_div(QLaurent({1: 1, 0: 1}))
    with pytest.raises(ArithmeticError):
        QLaurent({3: 1, -2: 5}).exact_div(QLaurent({1: -1, -1: 1}))
    assert QLaurent({2: 1, -2: -1}).exact_div(QLaurent({1: 1, -1: 1})) == QLaurent({1: 1, -1: -1})
