"""The word recipes the thick diagrams were spelled with before every
diagram was placed by ``onh.embed``, kept as a test oracle.

Each body is the earlier code with its argument checks left out: it
writes the signed letters of a diagram inside n strands by hand, shifting
words and concatenating them, with the mirror crossing as its own letter
rule.  The ``verify`` diagrams at the end are the raw words the checks
built before they used ``onh`` elements only.  ``shift_word`` comes from
``onh``: it says what a shift is, not where a diagram goes.

Every recipe that holds a projector takes it as ``e``, a function from a
thickness k to e_k's (word, coefficient) on k strands.  ``hecke_e`` is
the 0-Hecke product the recipes were written with; ``standard_e`` is
(-1)^{binom(k,3)} x^delta D_k, spelled here letter by letter.  A recipe
multiplies in one coefficient per projector it writes, so a box, which
writes e_a twice, carries e_a's coefficient squared.
"""

from math import comb

from oddnil import combinat, oddsym
from oddnil.onh import OnhElement, bigX, shift_word


def hecke_e(k):
    """e_k as the 0-Hecke product (x_r d_r) along the canonical reduced
    word of w_0."""
    word = []
    for j in combinat.canonical_reduced_word(combinat.longest_element(k)):
        word.extend((j, -j))
    return tuple(word), 1


def standard_e(k):
    """e_k as (-1)^{binom(k,3)} x_1^{k-1} x_2^{k-2} ... x_{k-1} over
    D_k = d_1 (d_2 d_1) ... (d_{k-1} ... d_1)."""
    dots = [r for r in range(1, k) for _ in range(k - r)]
    crossings = [-r for top in range(1, k) for r in range(top, 0, -1)]
    return tuple(dots + crossings), (-1) ** comb(k, 3)


def e_embedded(a, offset, n, e):
    """e_a on strands offset+1 .. offset+a inside n strands."""
    if offset < 0 or offset + a > n:
        raise ValueError("embedding of e_%d at offset %d does not fit in %d strands" % (a, offset, n))
    word, c = e(a)
    return OnhElement.from_word(n, shift_word(word, offset), c)


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


def box(f, a, e):
    """e_a f e_a: one word e_a x^m e_a per term c x^m of f."""
    word, c = e(a)
    combo = {}
    for mono, b in f.terms.items():
        dots = tuple(r for r, m in enumerate(mono, start=1) for _ in range(m))
        combo[word + dots + word] = combo.get(word + dots + word, 0) + b * c * c
    return OnhElement(a, combo)


def box_embedded(f, a, offset, n, e):
    return embed(box(f, a, e), offset, n)


def up_splitter(a, b, e):
    n = a + b
    (ea, ca), (eb, cb) = e(a), e(b)
    word = shift_word(ea, 0) + shift_word(eb, a) + mirror_crossing_letters(a, b)
    return OnhElement.from_word(n, word, ca * cb)


def sigma_seq(ell, e):
    a = len(ell) + 1
    out = OnhElement.identity(a)
    for nu in range(1, a):
        (enu, cnu), (e1, c1) = e(nu), e(1)
        split_nu = OnhElement.from_word(
            a, shift_word(enu, 0) + shift_word(e1, nu) + crossing_word_letters(1, nu), cnu * c1
        )
        boxed = box_embedded(oddsym.elementary(ell[nu - 1], nu), nu, 0, a, e)
        out = out * (boxed * split_nu)
    return out


def lambda_seq(ell, e):
    a = len(ell) + 1
    hat = combinat.seq_hat(ell)
    word = []
    c = (-1) ** comb(a, 3)
    for nu in range(a - 1, 0, -1):
        enu, cnu = e(nu + 1)
        word.extend(enu)
        word.extend([nu + 1] * hat[nu - 1])
        c *= cnu
    return OnhElement.from_word(a, tuple(word), c)


def sigma_part(alpha, a, b, e):
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    top = box_embedded(oddsym.schur(alpha, a), a, 0, n, e) * e_embedded(b, a, n, e)
    return top * up_splitter(a, b, e)


def lambda_part(alpha, a, b, e):
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    ahat = combinat.hat_partition(alpha, a, b)
    bottom = e_embedded(a, 0, n, e) * box_embedded(oddsym.dual_schur(ahat, b), b, a, n, e)
    out = e_embedded(n, 0, n, e) * bottom
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


def triangle_crossing(a, c, n, e):
    (ea, ca), (ec, cc) = e(a), e(c)
    return OnhElement.from_word(
        n, shift_word(ea, 0) + shift_word(ec, a) + crossing_word_letters(c, a), ca * cc
    )


def top_dots(n, s):
    """x_n^s, the dots of ea_eone's s-th term."""
    return OnhElement.from_word(n, (n,) * s)
