"""The word recipes the thick diagrams were spelled with before every
diagram was placed by ``onh.embed``, kept as a test oracle.

Each body is the earlier code with its argument checks left out: it
writes the signed letters of a diagram inside n strands by hand, shifting
words and concatenating them, with the mirror crossing as its own letter
rule.  The ``verify`` diagrams at the end are the raw words the checks
built before they used ``onh`` elements only.  ``e_word``, ``shift_word``
and ``box`` come from ``onh``: they say what a projector, a shift and a
box are, not where a diagram goes.
"""

from math import comb

from oddnil import combinat, oddsym
from oddnil.onh import OnhElement, bigX, box, e_word, idempotent_e, shift_word


def e_embedded(a, offset, n):
    """e_a on strands offset+1 .. offset+a inside n strands."""
    if offset < 0 or offset + a > n:
        raise ValueError("embedding of e_%d at offset %d does not fit in %d strands" % (a, offset, n))
    return OnhElement.from_word(n, shift_word(e_word(a), offset))


def crossing_word_letters(a, b, offset=0):
    word = []
    for t in range(b, 0, -1):
        word.extend(range(-(t + offset), -(t + offset + a), -1))
    return tuple(word)


def crossing_element(a, b, offset, n):
    if offset < 0 or offset + a + b > n:
        raise ValueError("crossing of (%d, %d) at offset %d does not fit in %d strands" % (a, b, offset, n))
    return OnhElement.from_word(n, crossing_word_letters(a, b, offset))


def mirror_crossing_letters(a, b):
    n = a + b
    base = crossing_word_letters(a, b)
    return tuple(-(n + l) for l in base)


def embed(element, offset, n):
    return OnhElement(n, {shift_word(w, offset): c for w, c in element.combo.items()})


def box_embedded(f, a, offset, n):
    return embed(box(f, a), offset, n)


def up_splitter(a, b):
    n = a + b
    word = shift_word(e_word(a), 0) + shift_word(e_word(b), a) + mirror_crossing_letters(a, b)
    return OnhElement.from_word(n, word)


def sigma_seq(ell):
    a = len(ell) + 1
    out = OnhElement.identity(a)
    for nu in range(1, a):
        split_nu = OnhElement.from_word(
            a, shift_word(e_word(nu), 0) + shift_word(e_word(1), nu) + crossing_word_letters(1, nu)
        )
        boxed = box_embedded(oddsym.elementary(ell[nu - 1], nu), nu, 0, a)
        out = out * (boxed * split_nu)
    return out


def lambda_seq(ell):
    a = len(ell) + 1
    hat = combinat.seq_hat(ell)
    word = []
    for nu in range(a - 1, 0, -1):
        word.extend(e_word(nu + 1))
        word.extend([nu + 1] * hat[nu - 1])
    return OnhElement.from_word(a, tuple(word), (-1) ** comb(a, 3))


def sigma_part(alpha, a, b):
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    top = box_embedded(oddsym.schur(alpha, a), a, 0, n) * e_embedded(b, a, n)
    return top * up_splitter(a, b)


def lambda_part(alpha, a, b):
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    ahat = combinat.hat_partition(alpha, a, b)
    bottom = e_embedded(a, 0, n) * box_embedded(oddsym.dual_schur(ahat, b), b, a, n)
    out = idempotent_e(n) * bottom
    return out.scale((-1) ** bigX(alpha, a, b))


# ---------------------------------------------------------------------------
# the diagrams of verify's checks, as raw words


def chain(a):
    """The thin strand crossing leftward over a strands (da_slide, ea_idem,
    sentinel_mirror_ea_slide)."""
    return OnhElement.from_word(a + 1, tuple(-i for i in range(a, 0, -1)))


def alt_da_crossing(a):
    """The crossing below D_{a-1} in the alternative definition of D_a."""
    return OnhElement.from_word(a, tuple(-i for i in range(1, a)))


def crossing_slide(a):
    lhs = OnhElement.from_word(a, tuple(-i for i in list(range(a - 2, 0, -1)) + list(range(a - 1, 0, -1))))
    rhs = OnhElement.from_word(a, tuple(-i for i in list(range(a - 1, 0, -1)) + list(range(a - 1, 1, -1))))
    return lhs, rhs


def triangle_crossing(a, c, n):
    return OnhElement.from_word(
        n, shift_word(e_word(a), 0) + shift_word(e_word(c), a) + crossing_word_letters(c, a)
    )


def top_dots(n, s):
    """x_n^s, the dots of ea_eone's s-th term."""
    return OnhElement.from_word(n, (n,) * s)
