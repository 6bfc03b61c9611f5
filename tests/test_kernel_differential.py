"""Differential tests: the fast skew-polynomial kernel against the
straightforward implementation it replaced (tests/reference_kernel.py).
The closed-form d_i is compared with the recursive reference, which keeps
its own memo, on every small one-term polynomial and on hypothesis
polynomials, and with the memoized closed form it replaced by terms and key
order, cold and on that memo's hits.  divided_difference, now the
one-letter word of apply_letters, is compared with the direct kernel call
it was before, by terms, key order and error text.  OnhElement.evaluate,
which applies the tail its words share once, then each middle, then the
head they share, is compared with the per-word reference on words that
share suffixes and on the sigma/lambda families, and on polynomials
wholly below, straddling and above the element's floor, where it returns
zero with no word applied;
oddops.apply_letters, which runs a word's cached program through
oddops.run_letters, the library's one letter loop, on terms dicts, is
compared with the reference letter loop on
signed words of dots and crossings for 1 to 7 strands, out-of-range
letters and the zero polynomial included (the same error text, raised at
the same letter), and
onh.apply_word, which memoizes each monomial's image under a word, both
cold and on memo hits, and which decides a miss below the word's degree
floor with no letter: on every monomial from one below the floor to one
above it, for each plan segment of the sigma/lambda families.
Elements whose words share a head and a tail and differ in runs of
leading dots, which evaluate factors out and merges, are compared with
the per-word reference as well.
The closed-form eps_k, h_k and eps_k in fewer variables are compared with
the x~ products multiplied out one factor at a time.
onh.schubert_basis_list, which applies one d_i per permutation to the image
of its word's suffix, is compared with oddsym.schubert on every permutation
of 1 to 6 letters, and skewpoly.apply_w0, the one-pass closed form, with
one s_i pass per letter of w_0's word, for 0 to 7 variables, both by terms
and key order.

Terms dicts are compared exactly, so a stored zero coefficient or a
wrong-length key fails as surely as a wrong sign.
"""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernel as ref
from oddnil import combinat, oddops, oddsym, onh
from oddnil.lincomb import collect
from oddnil.qgrade import QLaurent
from oddnil.skewpoly import SkewPolynomial, _from_normal, _kernel, apply_simple_transposition, apply_w0, staircase

# small exponents make products collide and cancel; large ones reach the
# high bits of both parity masks and long d_i power formulas
exponent = st.one_of(st.integers(0, 2), st.integers(0, 3), st.integers(10, 40))
coefficient = st.integers(-4, 4).filter(bool)


@st.composite
def polys(draw, nvars):
    keys = st.tuples(*[exponent] * nvars)
    terms = draw(st.dictionaries(keys, coefficient, max_size=8))
    return SkewPolynomial(nvars, terms)


@st.composite
def poly_pairs(draw, min_vars=1):
    n = draw(st.integers(min_vars, 6))
    f, g = draw(polys(n)), draw(polys(n))
    # g = f + h shares terms with f, so f - g and (f - g)(f + g) cancel
    if draw(st.booleans()):
        g = f + g
    return f, g


def normal(p):
    assert all(len(m) == p.nvars for m in p.terms)
    assert all(type(c) is int and c for c in p.terms.values())
    return p.nvars, p.terms


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_product_matches_reference(pair):
    f, g = pair
    assert normal(f * g) == normal(ref.mul(f, g))
    assert normal(g * f) == normal(ref.mul(g, f))
    assert normal((f - g) * (f + g)) == normal(ref.mul(f - g, f + g))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.integers(1, n), polys(n))))
def test_left_dot_matches_variable_product(case):
    r, p = case
    x = SkewPolynomial.variable(p.nvars, r)
    out = normal(oddops.apply_letters((r,), p))
    assert out == normal(x * p)
    assert out == normal(ref.mul(x, p))


def test_left_dot_rejects_bad_index():
    with pytest.raises(ValueError, match=r"^variable index 3 out of range$"):
        oddops.apply_letters((3,), SkewPolynomial.one(2))
    with pytest.raises(ValueError, match=r"^operator index 0 out of range for 2 variables$"):
        oddops.apply_letters((0,), SkewPolynomial.one(2))


def kernel_divided_difference(i, p):
    """divided_difference as it called its kernel before it became the
    one-letter word (-i,) of oddops.apply_letters."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("operator index %d out of range for %d variables" % (i, p.nvars))
    return _from_normal(p.nvars, _kernel("dd", p.nvars, i)(p.terms))


@settings(max_examples=100, deadline=None)
@given(poly_pairs())
def test_divided_difference_matches_the_kernel_call_it_replaced(pair):
    """The same terms in the same key order, the zero polynomial included,
    and the same message for an index out of range on a nonzero p."""
    f, g = pair
    n = f.nvars
    for p in (f, g, f - g, SkewPolynomial.zero(n)):
        for i in range(1, n):
            assert ordered(oddops.divided_difference(i, p)) == ordered(kernel_divided_difference(i, p))
        if p:
            for i in (0, -1, n, n + 1):
                assert _outcome(oddops.divided_difference, i, p) == _outcome(kernel_divided_difference, i, p)


@settings(max_examples=100, deadline=None)
@given(poly_pairs(min_vars=2), st.data())
def test_divided_difference_matches_reference(pair, data):
    f, g = pair
    n = f.nvars
    i = data.draw(st.integers(1, n - 1))
    for p in (f, g, f - g):
        assert normal(oddops.divided_difference(i, p)) == normal(ref.divided_difference(i, p))


@pytest.mark.parametrize("nvars", range(2, 7))
def test_dd_on_every_small_monomial_matches_recursive_reference(nvars):
    """d_i of every one-term polynomial x^A with exponents <= 6, every i.

    The reference recursion reads the images of monomials with a zero
    first exponent, so those stay in its memo while the rest of it is
    dropped after each value of the first exponent.
    """
    small = range(7)
    for i in range(1, nvars):
        ref._dd_cache.clear()
        for first in small:
            for rest in itertools.product(small, repeat=nvars - 1):
                mono = (first,) + rest
                got = oddops.divided_difference(i, SkewPolynomial.monomial(nvars, mono))
                assert normal(got) == normal(ref._dd_mono(i, nvars, mono)), (i, mono)
            if first == 0:
                kept = dict(ref._dd_cache)
            else:
                ref._dd_cache.clear()
                ref._dd_cache.update(kept)
    ref._dd_cache.clear()


@settings(max_examples=100, deadline=None)
@given(poly_pairs(min_vars=2), st.data())
def test_divided_difference_is_fresh_and_keeps_no_memo(pair, data):
    f, g = pair
    i = data.draw(st.integers(1, f.nvars - 1))
    # with g = f + h, f - g cancels every shared term
    polys = (f, g, f - g)
    inputs = [list(p.terms.items()) for p in polys]
    ref._dd_cache.clear()
    want = [normal(ref.divided_difference(i, p)) for p in polys]
    oddops.clear_caches()
    first = [oddops.divided_difference(i, p) for p in polys]
    second = [oddops.divided_difference(i, p) for p in polys]
    assert [normal(d) for d in first] == [normal(d) for d in second] == want
    # a zero p comes back as itself, as from any word of apply_letters
    assert all(d.terms is not e.terms if p else d is e is p for p, d, e in zip(polys, first, second))
    assert [list(p.terms.items()) for p in polys] == inputs
    assert not oddops._dd_cache


def ordered(p):
    normal(p)
    return p.nvars, list(p.terms.items())


def test_divided_difference_grows_its_table_and_matches_the_loop():
    """The d_i table starts empty and grows to the exponents it is asked
    for, keeping the rows it has; on exponents past its size d_i has the
    terms and key order of the generic loop, which reads the closed form
    _dd_block directly."""
    oddops.clear_caches()
    assert oddops._dd_rows == []
    small = SkewPolynomial(3, {(2, 1, 0): 1, (1, 3, 2): -2})
    assert ordered(oddops.divided_difference(1, small)) == ordered(ref.divided_difference_loop(1, small))
    assert [len(row) for row in oddops._dd_rows] == [0, 4, 2]
    kept = [list(row) for row in oddops._dd_rows]
    big = small + SkewPolynomial(3, {(17, 9, 4): 3, (5, 23, 1): -1, (9, 17, 4): 2, (0, 30, 7): 5})
    for i in (1, 2):
        assert ordered(oddops.divided_difference(i, big)) == ordered(ref.divided_difference_loop(i, big))
    rows = oddops._dd_rows
    assert len(rows) == 31 and [len(rows[p]) for p in (0, 17, 30)] == [31, 10, 8]
    assert all(rows[p][:len(row)] == row for p, row in enumerate(kept))
    assert all(rows[p][q] == tuple((e1, e2, c) for (e1, e2), c in oddops._dd_block(p, q))
               for p in range(len(rows)) for q in range(len(rows[p])))


@settings(max_examples=100, deadline=None)
@given(poly_pairs(min_vars=2), st.data())
def test_divided_difference_matches_memoized_closed_form_in_key_order(pair, data):
    f, g = pair
    i = data.draw(st.integers(1, f.nvars - 1))
    polys = (f, g, f - g)
    oddops.clear_caches()
    ref._dd_closed_cache.clear()
    got = [ordered(oddops.divided_difference(i, p)) for p in polys]
    assert [ordered(ref.divided_difference_closed(i, p)) for p in polys] == got
    # the second pass reads only memo hits on the reference side
    assert [ordered(ref.divided_difference_closed(i, p)) for p in polys] == got
    assert [ordered(oddops.divided_difference(i, p)) for p in polys] == got
    ref._dd_closed_cache.clear()


def test_zero_polynomial_through_every_kernel():
    for n in range(1, 7):
        z = SkewPolynomial.zero(n)
        p = SkewPolynomial(n, {(1,) * n: 3})
        assert normal(z * p) == normal(p * z) == normal(ref.mul(z, p)) == (n, {})
        assert normal(oddops.apply_letters((n,), z)) == (n, {})
        assert normal(onh.apply_word((n,), z)) == normal(ref.apply_word((n,), z))
        word = (n,) + tuple(-r for r in range(1, n))
        assert normal(oddops.apply_letters(word, z)) == normal(ref.apply_word(word, z)) == (n, {})
        if n > 1:
            assert normal(oddops.divided_difference(1, z)) == (n, {})
        el = onh.OnhElement(n, {(1,): 1, (1, 1): -2})
        assert normal(el.evaluate(z)) == normal(ref.evaluate(el, z)) == (n, {})


def test_cancelling_terms_leave_no_zero_coefficient():
    x1, x2 = SkewPolynomial.variable(2, 1), SkewPolynomial.variable(2, 2)
    # the two x1 x2 terms of (x1 + x2)^2 cancel
    assert normal((x1 + x2) * (x1 + x2)) == (2, {(2, 0): 1, (0, 2): 1})
    # d_1 kills the odd symmetric x1 - x2: the images 1 and -1 cancel
    assert normal(oddops.divided_difference(1, x1 - x2)) == (2, {})
    # d_1 x_1 - d_1 x_2 evaluates to 1 - 1 on the constant 1
    el = onh.OnhElement(2, {(-1, 1): 1, (-1, 2): -1})
    one = SkewPolynomial.one(2)
    assert normal(el.evaluate(one)) == normal(ref.evaluate(el, one)) == (2, {})


@st.composite
def letters_and_polys(draw):
    """A signed word for 1 to 7 strands, about one letter in five out of
    range, and a polynomial, zero or not."""
    n = draw(st.integers(1, 7))
    letters = list(range(1, n + 1)) + [-r for r in range(1, n)]
    bad = [n + 1, n + 2, -n, -(n + 1)]
    word = tuple(draw(st.lists(st.sampled_from(letters * 4 + bad), max_size=6)))
    p = draw(st.one_of(polys(n), st.just(SkewPolynomial.zero(n))))
    return word, p


def _outcome(f, word, p):
    """f(word, p) as normal terms, or the text of the ValueError it raised."""
    try:
        return normal(f(word, p))
    except ValueError as exc:
        return "ValueError", str(exc)


# the reference loop takes seconds on a few draws (7 strands, exponents near
# 40 and four or five crossings give 10^4 to 10^5 terms), so fresh draws
# swung this test from 1 to 45 s; derandomized, the draws and the time are
# the same on every run
@settings(max_examples=200, deadline=None, derandomize=True)
@given(letters_and_polys())
def test_apply_letters_matches_reference_letter_loop(case):
    """The same terms, or the same error at the same letter: the reference
    checks each letter when it is reached and stops once p is zero."""
    word, p = case
    assert _outcome(oddops.apply_letters, word, p) == _outcome(ref.apply_word, word, p)


def test_apply_letters_checks_each_letter_when_it_is_reached():
    p = SkewPolynomial(2, {(1, 0): 3})
    with pytest.raises(ValueError, match=r"^operator index 2 out of range for 2 variables$"):
        oddops.apply_letters((1, -2), p)
    # d_1 x_1 = 1 is reached first, then x_3
    with pytest.raises(ValueError, match=r"^variable index 3 out of range$"):
        oddops.apply_letters((3, -1), p)
    # d_1 d_1 x_1 = 0, so the letters after it are never reached
    assert normal(oddops.apply_letters((3, -2, -1, -1), p)) == (2, {})
    z = SkewPolynomial.zero(2)
    assert oddops.apply_letters((3, -2), z) is z
    assert oddops.apply_letters((), p) is p
    # the words' programs are cached by now, and still raise at the same letter
    with pytest.raises(ValueError, match=r"^operator index 2 out of range for 2 variables$"):
        oddops.apply_letters((1, -2), p)
    with pytest.raises(ValueError, match=r"^variable index 3 out of range$"):
        oddops.apply_letters((3, -1), p)
    assert normal(oddops.apply_letters((3, -2, -1, -1), p)) == (2, {})


def test_each_step_of_a_program_is_a_kernel_of_the_terms_dict():
    """A program's steps are plain kernels, called as step(d): run by hand,
    they give apply_letters' terms after each letter, in the same key
    order, and the step of the out-of-range letter x_4 raises the error
    apply_letters raises when it reaches that letter."""
    word = (4, 2, -1, -2, 1, 3)
    p = SkewPolynomial(3, {(2, 1, 0): 2, (1, 0, 3): -1})
    steps = oddops.program(word, 3)
    d = p.terms
    for k in range(1, len(word)):
        d = steps[k - 1](d)
        want = oddops.apply_letters(word[-k:], p)
        assert d and list(d.items()) == list(want.terms.items())
    with pytest.raises(ValueError, match=r"^variable index 4 out of range$"):
        steps[-1](d)
    with pytest.raises(ValueError, match=r"^variable index 4 out of range$"):
        oddops.apply_letters(word, p)


def test_a_word_program_is_built_once_and_reads_the_d_i_table_when_it_runs(monkeypatch):
    word = (2, -1, -2, -1)
    p = SkewPolynomial(3, {(3, 1, 0): 2})
    want = normal(ref.apply_word(word, p))
    oddops.clear_caches()
    assert normal(oddops.apply_letters(word, p)) == want
    steps = oddops.program(word, 3)
    assert len(steps) == len(word) and oddops.program(word, 3) is steps
    monkeypatch.setattr(oddops, "_kernel", lambda *key: pytest.fail("a kernel was looked up again"))
    assert normal(oddops.apply_letters(word, p)) == want
    # a table swapped in after the program was built is the one the loop
    # reads: negated d_1 rows negate the image of a word of three crossings
    monkeypatch.setattr(oddops, "_dd_rows", [])
    monkeypatch.setattr(oddops, "_dd_grow", lambda a, b: [(e1, e2, -c) for (e1, e2), c in oddops._dd_block(a, b)])
    assert normal(oddops.apply_letters(word, p)) == (3, {m: -c for m, c in want[1].items()})


@pytest.mark.parametrize(
    "word,mono,applied",
    [
        ((1, -1, -1), (1, 0), 2),  # d_1 d_1 x_1 = d_1 1 = 0
        ((-3, -1, -1), (2, 0, 0, 0), 2),  # d_1(x_1^2) = x_1 - x_2, which d_1 kills
        ((2, 3, -2, -1), (0, 0, 0), 1),  # d_1 1 = 0
        ((-1, -1), (2, 0), 2),  # dies at the last letter
    ],
)
def test_apply_letters_stops_where_the_polynomial_dies(monkeypatch, word, mono, applied):
    """Each applied letter runs one kernel of skewpoly._kernel, so the
    kernel calls count the letters applied."""
    p = SkewPolynomial(len(mono), {mono: 3})
    want = normal(ref.apply_word(word, p))
    seen = []
    kernel = oddops._kernel

    def counting(kind, nvars, index):
        real = kernel(kind, nvars, index)
        return lambda *args: seen.append(index) or real(*args)

    # a word's kernels are looked up once per (word, nvars), so the counting
    # kernels go in only when no program of the word is cached, and leave
    # with the caches
    oddops.clear_caches()
    monkeypatch.setattr(oddops, "_kernel", counting)
    try:
        assert normal(oddops.apply_letters(word, p)) == want == (len(mono), {})
    finally:
        oddops.clear_caches()
    assert len(seen) == applied


@st.composite
def words_and_polys(draw):
    n = draw(st.integers(1, 4))
    letters = list(range(1, n + 1)) + [-r for r in range(1, n)]
    words = st.lists(st.sampled_from(letters), max_size=6).map(tuple)
    combo = draw(st.dictionaries(words, coefficient, max_size=5))
    return onh.OnhElement(n, combo), draw(polys(n))


# derandomized for a steady time, as test_apply_letters_matches_reference_letter_loop:
# fresh draws swung it from 2 to 12 s
@settings(max_examples=100, deadline=None, derandomize=True)
@given(words_and_polys())
def test_apply_word_and_evaluate_match_reference(case):
    el, p = case
    want = {w: normal(ref.apply_word(w, p)) for w in el.combo}
    want_el = normal(ref.evaluate(el, p))
    oddops.clear_caches()
    # cold: every image is computed; warm: the same calls read only memo hits
    for _ in ("cold", "warm"):
        assert normal(el.evaluate(p)) == want_el
        assert {w: normal(onh.apply_word(w, p)) for w in el.combo} == want


def test_results_share_no_dict_with_the_segment_memo():
    """Clearing or changing a returned polynomial's terms leaves later
    results alone: each image is copied into a fresh dict."""
    oddops.clear_caches()
    basis = onh.schubert_basis_list(3)
    el = onh.sigma_seq((1, 0))
    words = [(-1,), (2, -2, -1), (1, 1, 3), ()] + list(el.combo)
    for p in basis + [basis[-1] + basis[0].scale(3)]:
        for w in words:
            want = normal(ref.apply_word(w, p))
            for spoil in (dict.clear, lambda d: d.update({k: 7 * v for k, v in d.items()}, junk=1)):
                got = onh.apply_word(w, p)
                assert normal(got) == want
                assert got.terms is not p.terms
                spoil(got.terms)
            assert normal(onh.apply_word(w, p)) == want
        want = normal(ref.evaluate(el, p))
        el.evaluate(p).terms.clear()
        got = el.evaluate(p)
        assert normal(got) == want
        got.terms[(9, 9, 9)] = 1
        assert normal(el.evaluate(p)) == want


def combo_of(el):
    assert all(type(c) is int and c for c in el.combo.values())
    return el.strands, el.combo


@settings(max_examples=100, deadline=None)
@given(poly_pairs(min_vars=2), st.data())
def test_sum_difference_and_transposition_match_reference(pair, data):
    f, g = pair
    assert normal(f + g) == normal(ref.skew_add(f, g))
    assert normal(f - g) == normal(ref.skew_add(f, g.scale(-1)))
    assert normal(f - f) == (f.nvars, {})
    assert normal(f + SkewPolynomial.constant(f.nvars, 3)) == normal(ref.skew_add(f, 3))
    i = data.draw(st.integers(1, f.nvars - 1))
    for p in (f, g, f - g):
        assert normal(apply_simple_transposition(i, p)) == normal(ref.apply_simple_transposition(i, p))


@st.composite
def odd_symmetric(draw):
    """An integer combination of sorted eps-words; repeated words cancel."""
    a = draw(st.integers(1, 4))
    words = st.integers(0, 5).flatmap(lambda d: st.sampled_from(combinat.partitions_of(d, maxpart=a)))
    pairs = draw(st.lists(st.tuples(words, coefficient), max_size=6))
    if pairs and draw(st.booleans()):
        lam, c = pairs[0]
        pairs.append((lam, -c))
    f = SkewPolynomial.zero(a)
    for lam, c in pairs:
        f = f + oddsym.elementary_word_value(lam, a).scale(c)
    return f


def expansion(expand, f):
    """The expansion as a list of items, or the error's type and text."""
    try:
        return list(expand(f).items())
    except oddsym.NotOddSymmetricError as exc:
        return type(exc), str(exc)


def is_partition_shaped(exps):
    return all(exps[i] >= exps[i + 1] for i in range(len(exps) - 1))


def non_partition_monomials(a, halfdeg):
    return [m for m in oddsym.monomials_of_degree(a, halfdeg) if not is_partition_shaped(m)]


@settings(max_examples=100, deadline=None)
@given(odd_symmetric(), st.data())
def test_expand_in_elementary_matches_reference(f, data):
    out = oddsym.expand_in_elementary(f)
    assert list(out.items()) == list(ref.expand_in_elementary(f).items())
    assert all(c for c in out.values())
    g = SkewPolynomial.zero(f.nvars)
    for lam, c in out.items():
        g = g + oddsym.elementary_word_value(lam, f.nvars).scale(c)
    assert g == f
    # a stray monomial breaks symmetry; both must raise the same error with
    # the same text, or agree
    mono = data.draw(st.tuples(*[st.integers(0, 3)] * f.nvars))
    strays = [SkewPolynomial(f.nvars, {mono: data.draw(coefficient)})]
    # a monomial that is not partition-shaped, in a half-degree f may lack
    # (so f plus it is inhomogeneous) or lying between two partition shapes
    a = f.nvars
    for halfdeg in (data.draw(st.integers(1, 6)), 4):
        if non_partition_monomials(a, halfdeg):
            mono = data.draw(st.sampled_from(non_partition_monomials(a, halfdeg)))
            strays.append(SkewPolynomial(a, {mono: data.draw(coefficient)}))
    for stray in strays:
        h = f + stray
        assert expansion(oddsym.expand_in_elementary, h) == expansion(ref.expand_in_elementary, h)


@pytest.mark.parametrize(
    "f, leading",
    [
        # inhomogeneous: eps_2 above, x_2 (not partition-shaped) below
        (oddsym.elementary(2, 3) + SkewPolynomial.monomial(3, (0, 1, 0)), (0, 1, 0)),
        # x1^2 x3 lies between the partition shapes (2, 1, 0) and (1, 1, 1)
        (oddsym.elementary_word_value((2, 1), 3) + SkewPolynomial.monomial(3, (2, 0, 1)), (2, 0, 1)),
        (oddsym.complete(3, 3) - SkewPolynomial.monomial(3, (2, 0, 1)), (2, 0, 1)),
    ],
)
def test_expand_in_elementary_names_the_leading_non_partition_monomial(f, leading):
    want = (
        oddsym.NotOddSymmetricError,
        "leading monomial %r is not partition-shaped; input not odd symmetric" % (leading,),
    )
    assert expansion(oddsym.expand_in_elementary, f) == expansion(ref.expand_in_elementary, f) == want


def _doubled(value):
    return lambda lam, a: value(lam, a).scale(2)


def _raised(value):
    return lambda lam, a: value(lam, a) + SkewPolynomial.monomial(a, (sum(lam) + 1,) + (0,) * (a - 1))


@pytest.mark.parametrize(
    "patch, message",
    [(_doubled, "non-integral elementary expansion"), (_raised, "leading-term mismatch while expanding")],
)
def test_a_failing_strip_raises_the_error_the_greedy_loop_reaches_first(monkeypatch, patch, message):
    # word values whose leading coefficient is even, or whose leading
    # monomial is not x^{lam'}, make the strip at x_1 fail; with x1 x3 above
    # it, the greedy loop stops at x1 x3 first, and so must the sweep
    eps1 = oddsym.elementary(1, 3)
    x1x3 = SkewPolynomial.monomial(3, (1, 0, 1))
    oddops.clear_caches()
    try:
        fake = patch(oddsym.elementary_word_value)
        monkeypatch.setattr(oddsym, "elementary_word_value", fake)
        monkeypatch.setattr(ref, "elementary_word_value", fake)
        for f, want in [
            (eps1, message),
            (eps1 + x1x3, "leading monomial (1, 0, 1) is not partition-shaped; input not odd symmetric"),
        ]:
            got = expansion(oddsym.expand_in_elementary, f)
            assert got == expansion(ref.expand_in_elementary, f) == (oddsym.NotOddSymmetricError, want)
    finally:
        monkeypatch.undo()
        oddops.clear_caches()


def test_an_eps_word_value_is_built_from_its_prefix(monkeypatch):
    oddops.clear_caches()
    products = []
    product = SkewPolynomial.__mul__

    def counted(self, other):
        products.append(1)
        return product(self, other)

    monkeypatch.setattr(SkewPolynomial, "__mul__", counted)
    try:
        oddsym.elementary_word_value((3, 2, 1, 1), 4)
        before = len(products)
        oddsym.elementary_word_value((3, 2, 1, 1, 1), 4)
        assert len(products) == before + 1
    finally:
        monkeypatch.undo()
        oddops.clear_caches()
    for a in range(1, 5):
        for n in range(7):
            for lam in combinat.partitions_of(n, maxpart=a):
                for word in sorted(set(itertools.permutations(lam))):
                    got = oddsym.elementary_word_value(word, a)
                    assert list(got.terms.items()) == list(ref.elementary_word_value(word, a).terms.items())


def test_expand_in_elementary_rejects_non_symmetric_input():
    x1 = SkewPolynomial.variable(2, 1)
    x2 = SkewPolynomial.variable(2, 2)
    for f in (x2, x1, x1 * x1 - x2 * x2, x1.scale(2) + x2):
        with pytest.raises(oddsym.NotOddSymmetricError):
            oddsym.expand_in_elementary(f)
        with pytest.raises(oddsym.NotOddSymmetricError):
            ref.expand_in_elementary(f)
    assert oddsym.expand_in_elementary(x1 - x2) == ref.expand_in_elementary(x1 - x2) == {(1,): 1}


laurent = st.dictionaries(st.integers(-6, 6), coefficient, max_size=6).map(QLaurent)


@settings(max_examples=150, deadline=None)
@given(laurent, laurent, st.integers(-3, 3))
def test_qlaurent_arithmetic_matches_reference(f, g, k):
    assert (f + g).coeffs == ref.q_add(f, g).coeffs
    assert (f - g).coeffs == ref.q_add(f, ref.q_neg(g)).coeffs
    assert (f - f).coeffs == {}
    assert (-f).coeffs == ref.q_neg(f).coeffs
    assert (f + QLaurent({0: k})).coeffs == ref.q_add(f, k).coeffs
    assert (f * g).coeffs == ref.q_mul(f, g).coeffs
    assert (f * QLaurent({0: k})).coeffs == ref.q_mul(f, k).coeffs
    cancel = f * (g - f)
    assert (f * g - f * f).coeffs == cancel.coeffs == ref.q_mul(f, ref.q_add(g, ref.q_neg(f))).coeffs
    if g:
        assert (f * g).exact_div(g).coeffs == ref.q_exact_div(ref.q_mul(f, g), g).coeffs == f.coeffs
        # the reference runs down forever on a unit-led divisor, so only
        # the library meets a remainder
        if len(g.coeffs) > 1:
            with pytest.raises(ArithmeticError):
                (f * g + QLaurent.q_power(7)).exact_div(g)


@st.composite
def element_pairs(draw):
    n = draw(st.integers(1, 4))
    letters = list(range(1, n + 1)) + [-r for r in range(1, n)]
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    f = onh.OnhElement(n, draw(st.dictionaries(words, coefficient, max_size=5)))
    g = onh.OnhElement(n, draw(st.dictionaries(words, coefficient, max_size=5)))
    if draw(st.booleans()):
        g = f + g
    return f, g


@settings(max_examples=150, deadline=None)
@given(element_pairs(), st.integers(-3, 3))
def test_element_arithmetic_matches_reference(pair, k):
    f, g = pair
    assert combo_of(f + g) == combo_of(ref.element_add(f, g))
    assert combo_of(f - g) == combo_of(ref.element_add(f, ref.element_scale(g, -1)))
    assert combo_of(f - f) == (f.strands, {})
    assert combo_of(f.scale(k)) == combo_of(ref.element_scale(f, k))
    assert combo_of(f * g) == combo_of(ref.element_mul(f, g))
    assert combo_of((f - g) * (f + g)) == combo_of(ref.element_mul(f - g, f + g))


@st.composite
def shared_suffix_elements(draw, n):
    """An element whose words are drawn prefixes glued onto a few drawn
    suffixes, so some words share a suffix; d_r d_r = 0 in a prefix or a
    suffix kills every polynomial partway along the word."""
    letters = list(range(1, n + 1)) + [-r for r in range(1, n)]
    segment = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    if n > 1:
        r = draw(st.integers(1, n - 1))
        segment = st.one_of(segment, st.just((-r, -r)), segment.map(lambda w: w + (-r, -r)))
    suffixes = draw(st.lists(segment, min_size=1, max_size=3))
    pairs = draw(st.lists(st.tuples(segment, st.sampled_from(suffixes), coefficient), max_size=8))
    return onh.OnhElement(n, collect((u + v, c) for u, v, c in pairs))


@st.composite
def evaluation_cases(draw):
    n = draw(st.integers(1, 4))
    el = draw(shared_suffix_elements(n))
    other = draw(shared_suffix_elements(n))
    el = draw(
        st.sampled_from(
            [
                el,
                el * other,
                el + other,
                # every word of el cancels against its copy in the difference
                el - (el + other),
                el + onh.OnhElement.identity(n).scale(draw(coefficient)),
            ]
        )
    )
    # small exponents keep the products' long words from blowing p up
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coefficient, max_size=4)
    return el, SkewPolynomial(n, draw(terms))


@settings(max_examples=150, deadline=None)
@given(evaluation_cases())
def test_shared_suffix_evaluation_matches_per_word_reference(case):
    el, p = case
    want = normal(ref.evaluate(el, p))
    assert normal(el.evaluate(p)) == want
    # the second evaluation reads the plan made by the first
    assert normal(el.evaluate(p)) == want


@st.composite
def headed_elements(draw):
    """An element whose words are one drawn head, then a drawn run of dots,
    then one of a few drawn middles, then one drawn tail, so evaluate
    factors out the head and the tail and merges the runs before each
    middle; runs may cancel."""
    n = draw(st.integers(1, 4))
    letters = list(range(1, n + 1)) + [-r for r in range(1, n)]
    segment = st.lists(st.sampled_from(letters), max_size=4).map(tuple)
    runs = st.lists(st.integers(1, n), max_size=3).map(tuple)
    head, tail = draw(segment), draw(segment)
    middles = draw(st.lists(segment, min_size=1, max_size=3))
    triples = draw(st.lists(st.tuples(runs, st.sampled_from(middles), coefficient), min_size=2, max_size=8))
    el = onh.OnhElement(n, collect((head + d + w + tail, c) for d, w, c in triples))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coefficient, max_size=4)
    return el, SkewPolynomial(n, draw(terms))


@settings(max_examples=150, deadline=None)
@given(headed_elements())
def test_head_and_merged_dot_runs_evaluate_like_the_per_word_reference(case):
    el, p = case
    want = normal(ref.evaluate(el, p))
    assert normal(el.evaluate(p)) == want
    assert normal(el.evaluate(p)) == want


def test_plan_factors_out_the_head_and_merges_dot_runs():
    a = 3
    f = oddsym.elementary(1, a) + oddsym.elementary(2, a)
    ea, sign = onh.e_word(a), onh.e_sign(a)
    # e_a f: every word is e_a over the dots of one term of f, so the one
    # middle is empty, with e_a's sign times f as its coefficient, and e_a
    # acts once, on that times p
    head, tail, ((middle, g),) = onh._plan(a, (onh.idempotent_e(a) * onh.from_polynomial(f)).combo)
    assert (head, tail, middle) == (ea, (), ()) and normal(g) == normal(f.scale(sign))
    # e_a f e_a: after the head e_a, each word is the dots of a term of f,
    # then e_a, which starts with the dots of x^delta; D_a is the one
    # middle, and the dot runs merge into f x^delta before it (the two
    # signs of e_a cancel)
    head, tail, ((middle, g),) = onh._plan(a, onh.box(f, a).combo)
    assert (head, tail, middle) == (ea, (), oddops.da_word(a))
    assert normal(g) == normal(f * staircase(a))
    # one word is its own middle, and a run that stands alone stays in its word
    assert onh._plan(a, {ea: 2}) == ((), (), ((ea, 2),))
    assert onh._plan(a, {(1, -1): 2, (2, -2): 3}) == ((), (), (((1, -1), 2), ((2, -2), 3)))
    # words that all end with d_1 share it as their tail, and a word that
    # is all head and tail leaves an empty middle
    tailed = {(2, -2, -1): 2, (2, -2, -2, -1): 3, (2, -2, -1, 1, -1): -1}
    assert onh._plan(a, tailed) == ((2, -2), (-1,), (((), 2), ((-2,), 3), ((-1, 1), -1)))
    assert onh._plan(a, {}) == ((), (), ())
    assert onh._plan(a, {(): 3}) == ((), (), (((), 3),))
    els = [onh.idempotent_e(a) * onh.from_polynomial(f), onh.box(f, a), onh.OnhElement(a, tailed)]
    els += [onh.OnhElement.identity(a).scale(3), onh.OnhElement.zero(a)]
    for el in els:
        for p in onh.schubert_basis_list(a):
            assert normal(el.evaluate(p)) == normal(ref.evaluate(el, p))


def test_a_head_meets_a_large_sum_at_once_and_a_small_one_through_the_memo(monkeypatch):
    a = 3
    ea = onh.e_word(a)
    f = oddsym.elementary(1, a)
    el = onh.idempotent_e(a) * onh.from_polynomial(f)
    g = f.scale(onh.e_sign(a))  # the one middle's coefficient
    small = SkewPolynomial.monomial(a, (2, 1, 0))
    large = SkewPolynomial(a, {(3, 0, 0): 1, (2, 1, 0): 2, (0, 3, 0): 3, (0, 1, 2): -1})
    assert len((g * small).terms) <= len(ea) < len((g * large).terms)
    seen = []
    letters, word = oddops.apply_letters, onh.apply_word
    monkeypatch.setattr(oddops, "apply_letters", lambda w, p: seen.append(("at once", w, p)) or letters(w, p))
    monkeypatch.setattr(onh, "apply_word", lambda w, p: seen.append(("memo", w, p)) or word(w, p))
    for p in (small, large):
        got = el.evaluate(p)
        assert got and normal(got) == normal(ref.evaluate(el, p))
    # apply_letters also builds each dot run's D(1) and fills the memo one
    # monomial at a time; the head meets each sum once
    sums = [(kind, normal(p)) for kind, w, p in seen if w == ea and (kind == "memo" or len(p.terms) > 1)]
    assert sums == [("memo", normal(g * small)), ("at once", normal(g * large))]


def test_word_floor_is_the_largest_excess_of_crossings_in_a_suffix():
    assert onh.word_floor(()) == onh.word_floor((1, 2)) == 0
    assert onh.word_floor((1, -1)) == 1
    # x_1 acts first, so d_1 x_1 keeps a constant alive
    assert onh.word_floor((-1, 1)) == 0
    assert onh.word_floor((-1, 1, -2, -1)) == 2
    assert onh.word_floor((-1, -2, 1, 1, 1, -1)) == 1
    for a in range(1, 7):
        # the crossings of D_a act first
        assert onh.word_floor(onh.e_word(a)) == comb(a, 2)


def _thick_elements(a):
    for ell in combinat.enumerate_sq(a):
        yield onh.sigma_seq(ell)
        yield onh.lambda_seq(ell)
    for k in range(1, a):
        for alpha in combinat.partitions_in_box(k, a - k):
            yield onh.sigma_part(alpha, k, a - k)
            yield onh.lambda_part(alpha, k, a - k)


def test_apply_word_matches_reference_on_every_monomial_around_the_floor():
    """Every word evaluate hands to apply_word (plan head, tail and middles)
    of the sigma/lambda families, on every monomial of half-degree floor - 1
    to floor + 1, cold and then from the memo: below the floor the image is
    zero with no letter run, at and above it the letters run."""
    segments = set()
    for a in range(1, 5):
        for el in _thick_elements(a):
            head, tail, middles = onh._plan(a, el.combo)
            segments.update((a, w) for w in (head, tail) + tuple(m for m, _ in middles) if w)
    assert len(segments) > 100
    cases = []
    for a, w in sorted(segments):
        floor = onh.word_floor(w)
        for h in range(max(floor - 1, 0), floor + 2):
            for mono in oddsym.monomials_of_degree(a, h):
                p = SkewPolynomial(a, {mono: 1})
                cases.append((w, p, normal(ref.apply_word(w, p))))
    oddops.clear_caches()
    for _ in ("cold", "warm"):
        for w, p, want in cases:
            assert normal(onh.apply_word(w, p)) == want, (w, p)


def test_a_miss_below_the_floor_runs_no_letter(monkeypatch):
    a = 4
    word = onh.e_word(a)
    floor = onh.word_floor(word)
    assert floor == 6
    below = SkewPolynomial(a, {m: 1 for h in range(floor) for m in oddsym.monomials_of_degree(a, h)})
    at = SkewPolynomial(a, {m: 1 for m in oddsym.monomials_of_degree(a, floor)})
    oddops.clear_caches()
    letters = oddops.run_letters
    seen = []
    monkeypatch.setattr(oddops, "run_letters", lambda steps, d: seen.append(d) or letters(steps, d))
    assert not onh.apply_word(word, below)
    assert seen == [] and set(onh._segment_images[word][1].values()) == {()}
    # at the floor every miss runs the letters, one monomial at a time
    assert normal(onh.apply_word(word, at)) == normal(ref.apply_word(word, at))
    assert [list(d) for d in seen] == [[m] for m in at.terms]


def _sigma_lambda_families():
    for a in (1, 2, 3):
        sq = combinat.enumerate_sq(a)
        for l in sq:
            yield onh.sigma_seq(l)
            yield onh.lambda_seq(l)
        yield onh.lambda_seq(sq[-1]) * onh.sigma_seq(sq[0])
    for n in (2, 3, 4):
        for a in range(1, n):
            b = n - a
            for al in combinat.partitions_in_box(a, b):
                sig, lam = onh.sigma_part(al, a, b), onh.lambda_part(al, a, b)
                yield sig
                yield lam
                yield lam * sig


def test_sigma_lambda_families_match_per_word_reference_on_schubert_basis():
    for el in _sigma_lambda_families():
        for p in onh.schubert_basis_list(el.strands):
            assert normal(el.evaluate(p)) == normal(ref.evaluate(el, p)), (el, p)


def test_the_tail_acts_once_and_no_middle_follows_a_zero_tail(monkeypatch):
    el = onh.sigma_seq((0, 1, 2))
    head, tail, middles = onh._plan(4, el.combo)
    assert tail and len(middles) > 1
    # apply_word is reached through the module attribute
    seen = []
    real = onh.apply_word
    monkeypatch.setattr(onh, "apply_word", lambda w, p: seen.append(w) or real(w, p))
    floor = min(map(onh.word_floor, el.combo))
    basis = onh.schubert_basis_list(4)
    # every monomial of the floor's half-degree as well, so that some
    # polynomials at the floor die under the tail
    polys = basis + [SkewPolynomial.monomial(4, m) for m in oddsym.monomials_of_degree(4, floor)]
    below = dead = 0
    for p in polys:
        seen.clear()
        assert normal(el.evaluate(p)) == normal(ref.evaluate(el, p))
        if max(map(sum, p.terms)) < floor:
            # below the element's floor nothing runs, not even the tail
            below += 1
            assert seen == []
            continue
        assert seen[0] == tail and tail not in seen[1:]
        if not real(tail, p).terms:
            dead += 1
            assert seen == [tail]
        else:
            assert [w for w, _ in middles] == seen[1:len(middles) + 1]
    # all Schubert polynomials but x^delta lie below the floor; at the floor
    # some polynomials die under the tail, not all
    assert below == 23
    assert 0 < dead < len(polys) - below


def test_zero_polynomial_evaluates_to_zero_with_no_walk(monkeypatch):
    el = onh.sigma_seq((0, 1, 2))
    assert el.evaluate(onh.schubert_basis_list(4)[-1]).terms  # makes the plan; nonzero elsewhere
    monkeypatch.setattr(onh, "apply_word", lambda w, p: pytest.fail("apply_word called on a zero polynomial"))
    for element in (el, onh.sigma_seq((1, 0, 0)), onh.OnhElement.identity(4), onh.OnhElement.zero(4)):
        assert normal(element.evaluate(SkewPolynomial.zero(4))) == (4, {})
    # the strand count is checked before the zero case
    with pytest.raises(ValueError, match="strand"):
        el.evaluate(SkewPolynomial.zero(3))


@st.composite
def elements_and_polys_around_the_floor(draw):
    """An element whose words each end in a crossing, so its floor is at
    least 1, and a polynomial wholly below, straddling or wholly above that
    floor (half-degrees up to floor + 2)."""
    n = draw(st.integers(2, 4))
    letters = list(range(1, n + 1)) + [-r for r in range(1, n)]
    crossings = st.sampled_from([-r for r in range(1, n)])
    words = st.tuples(st.lists(st.sampled_from(letters), max_size=5), crossings).map(lambda wc: tuple(wc[0]) + (wc[1],))
    el = onh.OnhElement(n, draw(st.dictionaries(words, coefficient, min_size=1, max_size=4)))
    floor = min(map(onh.word_floor, el.combo))
    below = [m for h in range(floor) for m in oddsym.monomials_of_degree(n, h)]
    above = [m for h in range(floor, floor + 3) for m in oddsym.monomials_of_degree(n, h)]
    place = draw(st.sampled_from(("below", "straddling", "above")))
    monos = st.sampled_from(below if place == "below" else above)
    terms = draw(st.dictionaries(monos, coefficient, min_size=1, max_size=4))
    if place == "straddling":
        terms.update(draw(st.dictionaries(st.sampled_from(below), coefficient, min_size=1, max_size=4)))
    p = SkewPolynomial(n, terms)
    return el, p, place, floor


@settings(max_examples=150, deadline=None, derandomize=True)
@given(elements_and_polys_around_the_floor())
def test_evaluate_around_the_element_floor_matches_reference(case):
    el, p, place, floor = case
    got = el.evaluate(p)
    assert normal(got) == normal(ref.evaluate(el, p))
    assert (max(map(sum, p.terms)) < floor) == (place == "below")
    if place == "below":
        assert not got


def test_an_evaluation_below_the_element_floor_runs_no_word(monkeypatch):
    el = onh.sigma_seq((0, 1, 2))
    floor = min(map(onh.word_floor, el.combo))
    below = [p for p in onh.schubert_basis_list(4) if max(map(sum, p.terms)) < floor]
    assert len(below) == 23
    oddops.clear_caches()
    monkeypatch.setattr(onh, "apply_word", lambda w, p: pytest.fail("apply_word called below the floor"))
    for p in below:
        assert normal(el.evaluate(p)) == (4, {})
    assert onh._segment_images == {}


@pytest.mark.parametrize("cold", [False, True])
def test_closed_form_elementary_and_complete_match_the_x_tilde_products(cold):
    if cold:
        oddops.clear_caches()
    for a in range(1, 7):
        for k in range(-1, 11):
            for name in ("elementary", "complete", "elementary_in_fewer_vars"):
                got, want = getattr(oddsym, name)(k, a), getattr(ref, name)(k, a)
                assert normal(got) == normal(want), (name, k, a)


def test_sums_products_and_scales_of_an_evaluated_element_build_their_own_plan():
    n = 3
    f = onh.sigma_seq((0, 1))
    g = onh.lambda_seq((1, 0))
    basis = onh.schubert_basis_list(n)
    for p in basis:
        f.evaluate(p)
        g.evaluate(p)
    f_plan = f._plan
    for h in (f + g, f - g, g + f, f * g, g * f, f.scale(-2), f.scale(3), -f):
        assert getattr(h, "_plan", None) is None
        for p in basis:
            assert normal(h.evaluate(p)) == normal(ref.evaluate(h, p))
        assert h._plan is not f_plan and h._plan is not g._plan
    assert f._plan is f_plan
    for p in basis:
        assert normal(f.evaluate(p)) == normal(ref.evaluate(f, p))


@pytest.mark.parametrize("a", range(1, 7))
def test_schubert_basis_by_suffix_sharing_matches_oddsym_schubert(a):
    onh.schubert_basis_list.cache_clear()
    got = onh.schubert_basis_list(a)
    want = [oddsym.schubert(w, a) for w in combinat.all_permutations(a)]
    assert [normal(p) for p in got] == [normal(p) for p in want]
    assert [ordered(p) for p in got] == [ordered(p) for p in want]


@pytest.mark.parametrize("a", range(1, 6))
def test_schubert_basis_costs_one_letter_per_nonidentity_word(monkeypatch, a):
    letters, apply_letters = [], oddops.apply_letters

    def counted(word, p):
        letters.append(len(word))
        return apply_letters(word, p)

    monkeypatch.setattr(oddops, "apply_letters", counted)
    onh.schubert_basis_list.cache_clear()
    onh.schubert_basis_list(a)
    onh.schubert_basis_list.cache_clear()
    assert letters == [1] * (len(combinat.all_permutations(a)) - 1)


def test_w0_in_one_pass_matches_the_transposition_passes_on_every_parity_pattern():
    # the sign depends on the number of variables and of odd exponents only
    for n in range(8):
        assert ordered(apply_w0(SkewPolynomial.zero(n))) == ordered(ref.apply_w0(SkewPolynomial.zero(n))) == (n, [])
        for m in itertools.product((0, 1), repeat=n):
            p = SkewPolynomial(n, {m: 1, tuple(e + 2 for e in m): -3})
            got, want = apply_w0(p), ref.apply_w0(p)
            assert normal(got) == normal(want), m
            assert ordered(got) == ordered(want), m


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7).flatmap(polys))
def test_w0_in_one_pass_matches_the_transposition_passes(p):
    for q in (p, p + apply_w0(p)):
        got, want = apply_w0(q), ref.apply_w0(q)
        assert normal(got) == normal(want)
        assert ordered(got) == ordered(want)
