"""lincomb against a Counter oracle: the same sums, and never a stored 0."""

import operator
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oddnil.lincomb import add_scaled, collect, convolve, format_terms, scaled
from oddnil.onh import OnhElement
from oddnil.qgrade import QLaurent
from oddnil.skewpoly import SkewPolynomial

# small key spaces make keys repeat and sums cancel
int_keys = st.integers(-3, 3)
tuple_keys = st.lists(st.integers(-2, 2), max_size=2).map(tuple)
coeffs = st.integers(-3, 3)
nonzero = coeffs.filter(bool)


def combos(keys):
    return st.dictionaries(keys, nonzero, max_size=6)


def oracle(counter):
    return {k: c for k, c in counter.items() if c}


def assert_normal(d):
    assert all(type(c) is int and c for c in d.values())


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.tuples(int_keys, coeffs)), st.lists(st.tuples(tuple_keys, coeffs))))
def test_collect(pairs):
    want = Counter()
    for k, c in pairs:
        want[k] += c
    got = collect(pairs)
    assert_normal(got)
    assert got == oracle(want)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(combos(int_keys), combos(int_keys)), st.tuples(combos(tuple_keys), combos(tuple_keys))),
       nonzero)
def test_add_scaled(pair, c):
    d, terms = pair
    want = Counter(d)
    for k, v in terms.items():
        want[k] += c * v
    got = dict(d)
    assert add_scaled(got, terms, c) is got
    assert_normal(got)
    assert got == oracle(want)
    assert add_scaled(dict(terms), terms, -1) == {}


def add_scaled_loop(d, terms, c):
    """add_scaled before it accumulated miss-first, kept as the oracle for
    key order."""
    for k, v in terms.items():
        s = d.get(k, 0) + c * v
        if s:
            d[k] = s
        else:
            del d[k]
    return d


@settings(max_examples=200, deadline=None)
@given(combos(tuple_keys), st.lists(st.tuples(combos(tuple_keys), nonzero), max_size=6))
def test_add_scaled_keeps_the_key_order_of_the_earlier_loop(d, steps):
    """A run of additions onto one dict, in which keys are inserted,
    cancelled and inserted again, leaves the same items in the same order
    as the loop add_scaled replaced."""
    got, want = dict(d), dict(d)
    for terms, c in steps:
        add_scaled(got, terms, c)
        add_scaled_loop(want, terms, c)
        assert list(got.items()) == list(want.items())
    assert_normal(got)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(combos(int_keys), combos(int_keys)), st.tuples(combos(tuple_keys), combos(tuple_keys))))
def test_convolve(pair):
    f, g = pair
    want = Counter()
    for ka, ca in f.items():
        for kb, cb in g.items():
            want[ka + kb] += ca * cb
    got = convolve(f, g)
    assert_normal(got)
    assert got == oracle(want)


@given(combos(int_keys), coeffs)
def test_scaled(f, c):
    got = scaled(f, c)
    assert_normal(got)
    assert got == oracle(Counter({k: c * v for k, v in f.items()}))


def test_convolve_cancels():
    # (1 + q)(1 - q) = 1 - q^2: the two q terms cancel
    assert convolve({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}
    # words concatenate
    assert convolve({(1,): 2}, {(): 1, (-1,): -1}) == {(1,): 2, (1, -1): -2}


def test_format_terms():
    name = {0: "", 1: "q", 2: "q^2"}.get
    assert format_terms([], name) == "0"
    assert format_terms([(0, -3)], name) == "-3"
    assert format_terms([(2, 1), (1, -2), (0, 1)], name) == "q^2 - 2*q + 1"
    assert format_terms([(1, -1), (0, -1)], name) == "-q - 1"



VALUES = {
    "SkewPolynomial": SkewPolynomial(2, {(1, 0): 1}),
    "OnhElement": OnhElement(2, {(1,): 1}),
    "QLaurent": QLaurent({1: 2}),
}


@pytest.mark.parametrize("cls", VALUES)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_an_operand_of_another_type_is_a_type_error(cls, op):
    # each class returns NotImplemented for an operand that is not of its
    # own class, an int included (scale(c) multiplies by an integer, and a
    # constant adds one), so Python raises TypeError on either side instead
    # of an AttributeError from inside the method
    value = VALUES[cls]
    others = [2, 2.5, "x"] + [v for name, v in VALUES.items() if name != cls]
    for other in others:
        for left, right in ((value, other), (other, value)):
            with pytest.raises(TypeError):
                op(left, right)


def test_eq_still_compares_a_polynomial_with_an_int():
    # == alone keeps an int operand: without it, p == 0 would quietly read
    # False for the zero polynomial
    assert SkewPolynomial.zero(2) == 0 and SkewPolynomial.constant(2, 3) == 3
    assert VALUES["SkewPolynomial"] != 0
    assert QLaurent() == 0 and QLaurent({0: 3}) == 3 and VALUES["QLaurent"] != 0
