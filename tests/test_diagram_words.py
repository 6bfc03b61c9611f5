"""The thick diagrams that ``onh`` and ``verify`` build from embedded
elements spell the same words, with the same coefficients in the same
order, as the hand-written letter recipes they replaced
(``reference_words``).  So evaluation, instance counts and reports are
unchanged by construction, not only by the identities holding."""

import itertools

import pytest

import reference_words as R
from oddnil import combinat as C
from oddnil import oddsym as S
from oddnil import onh as H
from oddnil.skewpoly import SkewPolynomial


def same_words(new, old):
    assert new.strands == old.strands
    assert list(new.combo.items()) == list(old.combo.items())


def mirror(a, b):
    return H.automorphism_apply("sigma", H.crossing_element(a, b))


@pytest.mark.parametrize("a", range(1, 6))
def test_sigma_and_lambda_sequences_spell_the_earlier_words(a):
    for ell in C.enumerate_sq(a):
        same_words(H.sigma_seq(ell), R.sigma_seq(ell))
        same_words(H.lambda_seq(ell), R.lambda_seq(ell))


PAIRS = [(a, b) for a in range(1, 5) for b in range(1, 5) if a + b <= 5]


@pytest.mark.parametrize("a,b", PAIRS)
def test_splitters_and_parts_spell_the_earlier_words(a, b):
    same_words(H.up_splitter(a, b), R.up_splitter(a, b))
    for alpha in C.partitions_in_box(a, b):
        same_words(H.sigma_part(alpha, a, b), R.sigma_part(alpha, a, b))
        same_words(H.lambda_part(alpha, a, b), R.lambda_part(alpha, a, b))


def test_placed_crossings_projectors_and_boxes_spell_the_earlier_words():
    for n in range(1, 7):
        for a, b in itertools.product(range(0, n + 1), repeat=2):
            for offset in range(0, n - a - b + 1):
                same_words(H.embed(H.crossing_element(a, b), offset, n), R.crossing_element(a, b, offset, n))
        for a in range(1, n + 1):
            f = S.elementary(1, a)
            for offset in range(0, n - a + 1):
                same_words(H.embed(H.idempotent_e(a), offset, n), R.e_embedded(a, offset, n))
                same_words(H.embed(H.box(f, a), offset, n), R.box_embedded(f, a, offset, n))


def test_the_mirror_crossing_is_the_sigma_image_of_the_crossing():
    for a, b in PAIRS:
        same_words(mirror(a, b), H.OnhElement.from_word(a + b, R.mirror_crossing_letters(a, b)))
    # the two orientations coincide on a thin bundle and differ otherwise,
    # so the comparison tells them apart
    assert mirror(3, 1).combo == H.crossing_element(1, 3).combo
    assert mirror(2, 2).combo != H.crossing_element(2, 2).combo


def test_the_verify_diagrams_spell_the_earlier_words():
    for a in range(1, 6):
        same_words(H.crossing_element(1, a), R.chain(a))
    for a in range(2, 6):
        same_words(H.crossing_element(a - 1, 1), R.alt_da_crossing(a))
    for a in range(3, 6):
        short = H.crossing_element(1, a - 2)
        lhs, rhs = R.crossing_slide(a)
        same_words(H.embed(short, 0, a) * H.crossing_element(1, a - 1), lhs)
        same_words(H.crossing_element(1, a - 1) * H.embed(short, 1, a), rhs)
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        n = a + b + c
        tcross = (
            H.embed(H.idempotent_e(a), 0, n)
            * H.embed(H.idempotent_e(c), a, n)
            * H.embed(H.crossing_element(c, a), 0, n)
        )
        same_words(tcross, R.triangle_crossing(a, c, n))
    for a in range(1, 5):
        n = a + 1
        for s in range(0, a + 1):
            dots = H.from_polynomial(SkewPolynomial.monomial(n, (0,) * a + (s,)))
            same_words(dots, R.top_dots(n, s))


def test_embed_rejects_a_diagram_that_does_not_fit():
    for element in (H.OnhElement.identity(2), H.idempotent_e(2), H.crossing_element(1, 1)):
        with pytest.raises(ValueError, match="does not fit"):
            H.embed(element, -1, 3)
        with pytest.raises(ValueError, match="does not fit"):
            H.embed(element, 2, 3)
        with pytest.raises(ValueError, match="does not fit"):
            H.embed(element, 5, 3)
        assert H.embed(element, 1, 3).strands == 3
