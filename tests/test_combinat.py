import itertools
import re
from math import comb, factorial

import pytest

import paper_identities as P
import reference_kernel as ref
from oddnil import combinat as C
from oddnil import oddsym, onh
from oddnil.qgrade import QLaurent, q_factorial


def test_partitions_in_box_examples():
    assert C.partitions_in_box(1, 1) == [(), (1,)]
    assert len(C.partitions_in_box(2, 2)) == 6
    assert C.partitions_in_box(0, 5) == [()]


@pytest.mark.parametrize("a,b", [(a, b) for a in range(7) for b in range(7)])
def test_partitions_in_box_cardinality_and_order(a, b):
    parts = C.partitions_in_box(a, b)
    assert len(parts) == comb(a + b, a)
    assert parts == sorted(parts, key=lambda al: (sum(al), al))
    assert len(set(parts)) == len(parts)
    for al in parts:
        assert C.fits_in_box(al, a, b)


def test_conjugate_involution_and_examples():
    assert C.conjugate((2, 1)) == (2, 1)
    assert C.conjugate((3, 1)) == (2, 1, 1)
    for al in C.partitions_in_box(4, 4):
        assert C.conjugate(C.conjugate(al)) == al


def test_complement_and_hat():
    # (b - alpha_2, b - alpha_1) with alpha = (2,0) in the 2x2 box
    assert C.complement((2,), 2, 2) == (2,)
    assert C.complement((2, 1), 2, 2) == (1,)
    assert C.hat_partition((), 2, 3) == (2, 2, 2)
    with pytest.raises(C.BoxViolationError):
        C.complement((3,), 2, 2)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_hat_is_an_involution(a, b):
    for al in C.partitions_in_box(a, b):
        hat = C.hat_partition(al, a, b)
        assert C.fits_in_box(hat, b, a)
        assert C.hat_partition(hat, b, a) == al


def test_partition_parse_format():
    assert C.parse_partition("2,1") == (2, 1)
    assert C.parse_partition("") == ()
    assert C.parse_partition("2,0") == (2,)
    assert C.parse_partition("2, 1") == (2, 1)
    for text in ("2,,1", ",2", "2,", "1_0", "-1", "+2", "\u0662", "2 1"):
        with pytest.raises(ValueError, match="ASCII digits"):
            C.parse_partition(text)
    assert C.format_partition((2, 1)) == "2,1"


def test_canonical_reduced_word():
    assert C.canonical_reduced_word((1, 2, 3)) == ()
    assert C.canonical_reduced_word((2, 1)) == (1,)
    w0 = C.longest_element(3)
    word = C.canonical_reduced_word(w0)
    assert len(word) == 3
    assert P.word_to_perm(word, 3) == w0


def test_memoized_canonical_word_matches_the_descent_loop():
    for n in range(8):
        for w in C.all_permutations(n):
            assert C.canonical_reduced_word(w) == ref.canonical_reduced_word(w), w
    # the recursion is as deep as w has entries, not letters
    for w in (C.longest_element(60), tuple(range(2, 61)) + (1,)):
        assert C.canonical_reduced_word(w) == ref.canonical_reduced_word(w)


def test_canonical_words_are_suffix_closed():
    # the word of u without its first letter i is the word of s_i u, so
    # onh.schubert_basis_list finds every suffix's image among the basis
    for n in range(8):
        for u in C.all_permutations(n):
            word = C.canonical_reduced_word(u)
            if word:
                i = word[0]
                assert word[1:] == C.canonical_reduced_word(C.perm_compose(P.transposition(i, i + 1, n), u)), u


@pytest.mark.parametrize("a", range(1, 6))
def test_reduced_words_multiply_back(a):
    for w in C.all_permutations(a):
        word = C.canonical_reduced_word(w)
        assert len(word) == C.perm_length(w)
        assert P.word_to_perm(word, a) == w
    assert C.perm_length(C.longest_element(a)) == a * (a - 1) // 2


@pytest.mark.parametrize("a", range(2, 6))
def test_w0_reduced_word_starting_anywhere(a):
    # constructive form of the "with s_i acting first" lemma
    w0 = C.longest_element(a)
    for i in range(1, a):
        word = P.reduced_word_for_w0_starting_with(i, a)
        assert word[-1] == i
        assert len(word) == C.perm_length(w0)
        assert P.word_to_perm(word, a) == w0


@pytest.mark.parametrize("a", range(1, 6))
def test_length_generating_function(a):
    total = QLaurent()
    for w in C.all_permutations(a):
        total = total + QLaurent.q_power(2 * C.perm_length(w))
    assert total == QLaurent.q_power(a * (a - 1) // 2) * q_factorial(a)


def test_read_natural_takes_ascii_digits_only():
    assert C.read_natural("0") == 0 and C.read_natural("012") == 12
    for text in ("", "1_0", "-1", "+1", " 1", "1 ", "\u0662", "\uff11", "1.0"):
        with pytest.raises(ValueError, match="not a natural number in ASCII digits"):
            C.read_natural(text)


def test_permutation_parse_format():
    assert C.parse_permutation("3 1 2") == (3, 1, 2)
    with pytest.raises(ValueError):
        C.parse_permutation("1 1 2")
    for text in ("\u0662 1", "1_0 1", "+2 1"):
        with pytest.raises(ValueError, match="ASCII digits"):
            C.parse_permutation(text)


@pytest.mark.parametrize("a", range(1, 6))
def test_enumerate_sq(a):
    sq = C.enumerate_sq(a)
    assert len(sq) == factorial(a)
    assert len(set(sq)) == len(sq)
    for ell in sq:
        assert len(ell) == a - 1
        assert all(0 <= l <= nu for nu, l in enumerate(ell, start=1))
        hat = C.seq_hat(ell)
        assert all(h + l == nu for nu, (h, l) in enumerate(zip(hat, ell), start=1))


def test_sq_small_examples():
    assert C.enumerate_sq(1) == [()]
    assert C.enumerate_sq(2) == [(0,), (1,)]
    assert len(C.enumerate_sq(3)) == 6


@pytest.mark.parametrize("a", range(1, 6))
def test_sq_strands_takes_exactly_the_members_of_sq(a):
    sq = set(C.enumerate_sq(a))
    for ell in sq:
        assert C.sq_strands(ell) == a
    for ell in itertools.product(range(-1, a + 1), repeat=a - 1):
        if ell not in sq:
            with pytest.raises(ValueError, match=r"^%s is not in Sq\(%d\)$" % (re.escape(repr(ell)), a)):
                C.sq_strands(ell)


def test_chi_dual_schur_and_omega_reject_too_many_parts_with_one_message():
    assert C.check_parts((2, 1, 0), 2) == (2, 1)
    for rule in (C.check_parts, oddsym.chi, oddsym.dual_schur, onh.omega):
        with pytest.raises(C.BoxViolationError, match=r"^\(2, 1, 1\) has more than 2 parts$"):
            rule((2, 1, 1, 0), 2)
