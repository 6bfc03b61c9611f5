"""The kernels unrolled per arity (``skewpoly._kernel``) against the
generic loops they replaced (``tests/reference_kernel.py``): the skew
product, x_r times a polynomial and d_i, for every number of variables
0..7 and every valid index.

Each comparison is made cold, right after the kernel cache is emptied so
the call compiles its kernel, and warm, on the cached kernel.  Results are
compared as terms dicts and as ``list(terms.items())``, so a kernel that
inserts or deletes keys in another order than the loop fails as surely as
a wrong sign.  The last test guards the cache itself over a whole
``verify all``.
"""

import random

import pytest

import reference_kernel as ref
from oddnil import oddops, oddsym, skewpoly, verify
from oddnil.skewpoly import SkewPolynomial

ARITIES = range(8)


def polys(n):
    """Polynomials in n variables: the zero polynomial and 1; random ones
    with exponents <= 2, whose products collide, cancel and insert a
    cancelled key again; one with exponents up to 40; and
    x_1 + ... + x_n, whose square loses every cross term."""
    rng = random.Random(n)

    def rand(top, size):
        terms = {tuple(rng.randint(0, top) for _ in range(n)): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(size)}
        return SkewPolynomial(n, terms)

    out = [SkewPolynomial.zero(n), SkewPolynomial.one(n)]
    out += [rand(2, 8) for _ in range(4)] + [rand(40, 5)]
    if n:
        out.append(sum((SkewPolynomial.variable(n, r) for r in range(1, n + 1)), SkewPolynomial.zero(n)))
    return out


def assert_same(got, want):
    assert got.nvars == want.nvars
    assert all(type(c) is int and c for c in got.terms.values())
    assert got.terms == want.terms
    assert list(got.terms.items()) == list(want.terms.items())


def cold_and_warm(compute, want):
    skewpoly._kernel.cache_clear()
    assert_same(compute(), want)
    assert_same(compute(), want)


@pytest.mark.parametrize("n", ARITIES)
def test_product_kernel_matches_the_loop(n):
    ps = polys(n)
    for f in ps:
        for g in ps:
            cold_and_warm(lambda: f * g, ref.mul_loop(f, g))
    if n >= 2:
        s = ps[-1]
        squares = sum((SkewPolynomial.monomial(n, [2 * (j == r) for j in range(n)]) for r in range(n)), SkewPolynomial.zero(n))
        assert_same(s * s, squares)


@pytest.mark.parametrize("n", ARITIES)
def test_left_dot_kernel_matches_the_loop_for_every_r(n):
    for r in range(1, n + 1):
        for p in polys(n):
            cold_and_warm(lambda: oddops.apply_letters((r,), p), ref.left_dot_loop(r, p))


@pytest.mark.parametrize("n", ARITIES)
def test_divided_difference_kernel_matches_the_loop_for_every_i(n):
    # eps_k is odd symmetric, so every d_i cancels all of its image
    eps = [oddsym.elementary(k, n) for k in range(1, n + 1)]
    for i in range(1, n):
        for p in polys(n) + eps:
            cold_and_warm(lambda: oddops.divided_difference(i, p), ref.divided_difference_loop(i, p))
        for p in eps:
            assert oddops.divided_difference(i, p).terms == {}


@pytest.mark.parametrize("n", ARITIES)
def test_mismatch_and_out_of_range_index_still_raise(n):
    p = polys(n)[-1]
    other = SkewPolynomial.one(n + 1)
    with pytest.raises(ValueError, match="variable-count mismatch"):
        p * other
    with pytest.raises(ValueError, match="variable-count mismatch"):
        other * p
    for r in (0, n + 1):
        with pytest.raises(ValueError, match="out of range"):
            oddops.apply_letters((r,), p)
    for i in (0, n, -1) if n else (0, 1):
        with pytest.raises(ValueError, match="out of range"):
            oddops.divided_difference(i, p)


def test_each_kernel_is_compiled_once_per_arity_key(monkeypatch):
    """After a serial ``verify all`` the cache holds one kernel per key
    (kind, nvars, index) that the run used, each source was built once,
    and a second run builds none: the cache is looked up before any source
    is written."""
    built = []
    source = skewpoly._kernel_source
    monkeypatch.setattr(skewpoly, "_kernel_source", lambda *key: built.append(key) or source(*key))
    oddops.clear_caches()
    reports = verify.run_many(list(verify.REGISTRY), parallel=1)
    assert verify.all_match_expected(reports)
    entries = skewpoly._kernel.cache_info().currsize
    assert len(built) == len(set(built)) == entries
    assert {kind for kind, _, _ in built} == {"mul", "dot", "dd"}
    assert all(type(n) is int and type(i) is int for _, n, i in built)
    assert all(i == 0 for kind, _, i in built if kind == "mul")
    first = list(built)
    verify.run_many(list(verify.REGISTRY), parallel=1)
    assert built == first
    assert skewpoly._kernel.cache_info().currsize == entries
