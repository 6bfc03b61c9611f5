"""Paper identities that only the test suite states, kept beside their
tests rather than in the library.

``word_to_perm`` multiplies a reduced word back to its permutation, and
``reduced_word_for_w0_starting_with`` builds a reduced word of w_0 that
starts with any given s_i; ``apply_transposition`` is the signed action of
a non-adjacent transposition s_{i,j}; ``generalized_action`` and
``omission_word`` are the hybrid (w, xi) action of the generalized Leibniz
rule; ``schur_via_staircase`` is the second route to the odd Schur
polynomials; and ``odd_symmetric_rank`` certifies the graded rank of the
odd symmetric slices.  The bodies are the earlier library functions,
except that ``transposition`` stands in for the identity permutation and
the simple transpositions, which only these used.  ``reverse_words`` is
the anti-automorphism psi of ONH_a, the reflection of a diagram across the
horizontal axis.  The non-adjacent d_{i,j} is
``reference_kernel.dd_nonadjacent``.
"""

from oddnil import combinat, oddops, zlinalg
from oddnil.oddsym import chi, monomials_of_degree
from oddnil.onh import OnhElement
from oddnil.skewpoly import SkewPolynomial, apply_simple_transposition, apply_w0
from reference_kernel import apply_permutation


def transposition(i, j, a):
    w = list(range(1, a + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


def word_to_perm(word, a):
    w = tuple(range(1, a + 1))
    for j in word:
        w = combinat.perm_compose(w, transposition(j, j + 1, a))
    return w


def reduced_word_for_w0_starting_with(i, a):
    """A reduced word for w_0 whose rightmost (first-acting) letter is s_i."""
    w0 = combinat.longest_element(a)
    v = combinat.perm_compose(w0, transposition(i, i + 1, a))
    word = combinat.canonical_reduced_word(v) + (i,)
    if len(word) != combinat.perm_length(w0) or word_to_perm(word, a) != w0:
        raise RuntimeError("failed to build reduced word for w_0 ending in s_%d" % i)
    return word


def apply_transposition(i, j, p):
    """Signed action of the (possibly non-adjacent) transposition s_{i,j}."""
    return apply_permutation(transposition(i, j, p.nvars), p)


def omission_word(word, xi):
    """Subword of letters with xi = 0 (those acting through S_a)."""
    return tuple(l for l, x in zip(word, xi) if x == 0)


def generalized_action(word, xi, p):
    """Hybrid action: letter j acts as s_{i_j} if xi[j] = 0, as d_{i_j} if 1."""
    if len(word) != len(xi):
        raise ValueError("selector length %d != word length %d" % (len(xi), len(word)))
    out = p
    for letter, x in zip(reversed(word), reversed(xi)):
        if x:
            out = oddops.divided_difference(letter, out)
        else:
            out = apply_simple_transposition(letter, out)
    return out


def reverse_words(element):
    """psi: reverse every word of element, keeping its coefficient."""
    return OnhElement(element.strands, {tuple(reversed(w)): c for w, c in element.combo.items()})


def schur_via_staircase(alpha, a):
    """Second route: (-1)^{chi_alpha^a} w_0 . D_a(x^{delta_a + alpha}).

    Must agree with oddsym.schur().
    """
    alpha = combinat.normalize_partition(alpha)
    if len(alpha) > a:
        return SkewPolynomial.zero(a)
    padded = list(alpha) + [0] * (a - len(alpha))
    exps = tuple(padded[j] + (a - 1 - j) for j in range(a))
    sign = (-1) ** chi(alpha, a)
    return apply_w0(oddops.longest_dd(a, SkewPolynomial.monomial(a, exps))).scale(sign)


def odd_symmetric_rank(a, halfdeg):
    """Exact rank of the odd symmetric slice of Z-degree 2*halfdeg.

    Certificate: the slice is the kernel of the integer map
    f -> (d_1 f, ..., d_{a-1} f) from the monomials of this degree to
    a-1 copies of the monomials one degree down, so its rank is exactly
    #monomials - rank of the map, with the rank taken exactly over Z
    (``zlinalg.int_rank``).  The eps-words of this degree lie in the kernel
    and are independent (distinct lex-leading monomials), so the kernel rank
    is at least their number.  Returns the kernel rank after checking that
    it equals the number of eps-words; raises if not.
    """
    monos = monomials_of_degree(a, halfdeg)
    lower_monos = monomials_of_degree(a, halfdeg - 1)
    index = {key: t for t, key in enumerate((i, m) for i in range(1, a) for m in lower_monos)}
    rows = []
    for m in monos:
        p = SkewPolynomial.monomial(a, m)
        images = {(i, mm): c for i in range(1, a) for mm, c in oddops.divided_difference(i, p).terms.items()}
        rows.append(zlinalg.row(images, index))
    upper = len(monos) - zlinalg.int_rank(rows)
    words = combinat.partitions_of(halfdeg, maxpart=a)
    lower = len(words)
    if upper != lower:
        raise RuntimeError(
            "rank certificate failed at a=%d degree=%d: kernel %d, eps-words %d"
            % (a, 2 * halfdeg, upper, lower)
        )
    return upper
