"""Odd symmetric polynomials: elementary/complete families, Schubert and
Schur polynomials, basis expansions, and the odd Pieri rule.

Odd symmetric elements are ordinary SkewPolynomials that happen to lie in
the joint kernel of all odd divided differences; membership is a predicate,
not a type.  The sorted products eps_{l_1} ... eps_{l_r} (l_1 >= ... >= l_r,
each <= a) are an integral basis, and expansion into that basis proceeds by
greedy elimination of the lex-leading monomial: the leading monomial of
eps_lambda is x^{conjugate(lambda)} with coefficient +-1.

Products of eps-words are computed on the words themselves, with no
polynomial: an unsorted pair eps_p eps_q (p < q) is rewritten with eps_0 =
1, eps_k = 0 for k > a, the even-sum commutation eps_p eps_q = eps_q eps_p,
and the odd-sum relation solved for the pair,

    eps_p eps_q = eps_{q+1} eps_{p-1} + (-1)^q eps_{p-1} eps_{q+1} - (-1)^q eps_q eps_p,

(Ellis-Khovanov, "The Hopf algebra of odd symmetric functions";
check_eps_relations verifies them, and the test suite the instances with
p = 1 or q = a that it does not reach).  ``_left`` straightens eps_k eps_lam
for a sorted word lam, and ``_right`` eps_lam eps_k.

The recursion terminates.  Give a call the word w it multiplies out
(k lam or lam k), its half-degree n and its weight Q(w), the sum of the
squares of its letters; every letter is at most a, so Q(w) <= a*n.  Claim:
each call terminates, and each word in its result has weight >= Q(w),
with equality only for the sorted rearrangement of w (letters 0 dropped).
By induction on (n, a*n - Q(w)) in lex order.  A call that recurses
rewrites the unsorted pair p < q of w to x, y, giving a word w' of the
same n with Q(w') = Q(w) + 2(q - p) + 2 for the two odd-sum terms and
Q(w') = Q(w) for the swap q, p.  The inner call multiplies out w' less its
letter x (on the left; y on the right): a smaller n, or, when that letter
is 0, the same n and the weight Q(w') > Q(w).  By the claim for it, the
outer call's word has weight >= Q(w'), so it comes lower in the order,
unless w' is the swap and the inner result is the sorted rearrangement of
its word; then every letter of that word is <= q on the left (>= p on the
right), and the outer call returns its word at once.  The tests compare
the tables with polynomial products for a <= 5 up to half-degree 12, and
check them for associativity at a = 6 up to half-degree 20.
"""

import itertools
from functools import lru_cache
from math import comb

from . import combinat, oddops
from .lincomb import add_scaled
from .skewpoly import SkewPolynomial, _from_normal, apply_w0, staircase


class NotOddSymmetricError(ValueError):
    """Input expected to be odd symmetric is not."""


def x_tilde(a, i):
    """x~_i = (-1)^{i-1} x_i."""
    return SkewPolynomial.variable(a, i).scale((-1) ** (i - 1))


def _x_tilde_sum(a, index_lists):
    """The sum of the products x~_{i_1} ... x~_{i_k} over weakly increasing
    index lists, none repeated, built with no skew product.

    A weakly increasing product x_{i_1} ... x_{i_k} is already in normal
    order, so it is the monomial x^A with A_i the number of times i occurs,
    and the signs of the x~ factors multiply to (-1)^{sum_i (i-1) A_i} =
    (-1)^{i_1 + ... + i_k - k}.  Distinct multisets give distinct A, so each
    list is one term and no two terms meet.
    """
    terms = {}
    for indices in index_lists:
        exps = [0] * a
        for i in indices:
            exps[i - 1] += 1
        terms[tuple(exps)] = (-1) ** (sum(indices) - len(indices))
    return _from_normal(a, terms)


@lru_cache(maxsize=None)
def elementary(k, a):
    """eps_k in a variables; 1 for k = 0, 0 for k < 0 or k > a."""
    if k < 0:
        return SkewPolynomial.zero(a)
    return _x_tilde_sum(a, itertools.combinations(range(1, a + 1), k))


@lru_cache(maxsize=None)
def complete(k, a):
    """h_k in a variables; 1 for k = 0, 0 for k < 0."""
    if k < 0:
        return SkewPolynomial.zero(a)
    return _x_tilde_sum(a, itertools.combinations_with_replacement(range(1, a + 1), k))


def elementary_in_fewer_vars(k, a):
    """eps_k of x_1..x_{a-1}, embedded in a variables."""
    if k < 0:
        return SkewPolynomial.zero(a)
    return _x_tilde_sum(a, itertools.combinations(range(1, a), k))


def is_odd_symmetric(p):
    return all(oddops.divided_difference(i, p).is_zero() for i in range(1, p.nvars))


# ---------------------------------------------------------------------------
# Schubert polynomials


@lru_cache(maxsize=None)
def schubert(w, a):
    """Odd Schubert polynomial: the canonical word of w^{-1} w_0 applied to
    the staircase monomial."""
    if len(w) != a:
        raise ValueError("permutation %r is not on %d letters" % (w, a))
    u = combinat.perm_compose(combinat.perm_inverse(w), combinat.longest_element(a))
    word = combinat.canonical_reduced_word(u)
    return oddops.dd_word(word, staircase(a))


# ---------------------------------------------------------------------------
# Schur polynomials


def chi(alpha, a):
    """The normal-ordering parity ledger chi_alpha^a (an integer; only its
    parity matters)."""
    alpha = combinat.normalize_partition(alpha)
    if len(alpha) > a:
        raise combinat.BoxViolationError("%r has more than %d parts" % (alpha, a))
    total = comb(a, 3) + sum(alpha) * comb(a, 2)
    for j, part in enumerate(alpha, start=1):
        total += part * comb(a - j + 1, 2)
    return total


@lru_cache(maxsize=None)
def schur(alpha, a):
    """Odd Schur polynomial s_alpha: odd symmetrization of x^alpha.

    Partitions with more than a rows give 0 (the even-case convention; used
    by the Grassmannian quotient checks).
    """
    alpha = combinat.normalize_partition(alpha)
    if len(alpha) > a:
        return SkewPolynomial.zero(a)
    exps = list(alpha) + [0] * (a - len(alpha))
    return oddops.odd_symmetrize(SkewPolynomial.monomial(a, exps))


@lru_cache(maxsize=None)
def dual_schur(alpha, a):
    """Dual Schur polynomial via the reversed staircase:
    (-1)^{chi_alpha^a} w_0 . D_a(x_1^{alpha_a} x_2^{1+alpha_{a-1}} ...)."""
    alpha = combinat.normalize_partition(alpha)
    if len(alpha) > a:
        raise combinat.BoxViolationError("%r has more than %d parts" % (alpha, a))
    padded = list(alpha) + [0] * (a - len(alpha))
    exps = tuple(padded[a - 1 - j] + j for j in range(a))
    sign = (-1) ** chi(alpha, a)
    return apply_w0(oddops.longest_dd(a, SkewPolynomial.monomial(a, exps))).scale(sign)


# ---------------------------------------------------------------------------
# expansion in the elementary-word basis


@lru_cache(maxsize=None)
def elementary_word_value(word, a):
    """The product eps_{word_1} ... eps_{word_r} as a polynomial."""
    out = SkewPolynomial.one(a)
    for k in word:
        out = out * elementary(k, a)
    return out


def expand_in_elementary(f):
    """Expand an odd symmetric f as an integer combination of sorted
    eps-words; returns {partition: coefficient}.

    Greedy leading-term elimination: the lex-leading exponent vector must
    always be weakly decreasing, and conjugating it names the word to strip.
    """
    a = f.nvars
    out = {}
    residual = dict(f.terms)
    while residual:
        exps = max(residual)
        if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
            raise NotOddSymmetricError(
                "leading monomial %r is not partition-shaped; input not odd symmetric" % (exps,)
            )
        mu = tuple(e for e in exps if e)
        lam = combinat.conjugate(mu)
        word_poly = elementary_word_value(lam, a)
        lead_exps, lead_c = word_poly.lead()
        if lead_exps != exps:
            raise NotOddSymmetricError("leading-term mismatch while expanding")
        q, r = divmod(residual[exps], lead_c)
        if r:
            raise NotOddSymmetricError("non-integral elementary expansion")
        # stripping q * word_poly cancels the leading monomial and leaves only
        # lex-smaller ones, so each word is stripped once and q != 0
        out[lam] = q
        add_scaled(residual, word_poly.terms, -q)
    return out


# ---------------------------------------------------------------------------
# arithmetic on the eps-word basis


def _unsorted_pair(a, p, q):
    """eps_p eps_q for 1 <= p < q <= a as terms (c, x, y) of c eps_x eps_y:
    the even-sum commutation, or the odd-sum relation solved for the
    unsorted pair,

        eps_p eps_q = eps_{q+1} eps_{p-1} + (-1)^q eps_{p-1} eps_{q+1} - (-1)^q eps_q eps_p,

    whose first two terms vanish when q = a (eps_{a+1} = 0)."""
    if (p + q) % 2 == 0:
        return ((1, q, p),)
    s = (-1) ** q
    if q == a:
        return ((-s, q, p),)
    return ((1, q + 1, p - 1), (s, p - 1, q + 1), (-s, q, p))


@lru_cache(maxsize=None)
def _left(a, k, lam):
    """eps_k eps_lam for 0 <= k <= a and a sorted word lam, as an eps-word
    dict: the first pair is rewritten and each term straightened inward,
    eps_x (eps_y eps_rest)."""
    if not k:
        return {lam: 1}
    if not lam or k >= lam[0]:
        return {(k,) + lam: 1}
    out = {}
    for c, x, y in _unsorted_pair(a, k, lam[0]):
        for w, d in _left(a, y, lam[1:]).items():
            add_scaled(out, _left(a, x, w), c * d)
    return out


@lru_cache(maxsize=None)
def _right(a, lam, k):
    """eps_lam eps_k, the mirror of _left: (eps_rest eps_x) eps_y."""
    if not k:
        return {lam: 1}
    if not lam or lam[-1] >= k:
        return {lam + (k,): 1}
    out = {}
    for c, x, y in _unsorted_pair(a, lam[-1], k):
        for w, d in _right(a, lam[:-1], x).items():
            add_scaled(out, _right(a, w, y), c * d)
    return out


@lru_cache(maxsize=None)
def eps_multiplication(a, k, n, side):
    """Multiplication by eps_k (1 <= k <= a) from half-degree n-k to n on the
    sorted eps-words: {lam: eps_k eps_lam} for side "left", {lam: eps_lam
    eps_k} for side "right", each image an eps-word dict.

    A word that stays sorted (k >= lam_1 on the left, k <= lam_r on the
    right) is its own image; any other is straightened with the relations
    (see the module docstring), with no polynomial formed.  The dicts are
    shared by every caller and must not be modified.
    """
    words = combinat.partitions_of(n - k, maxpart=a)
    if side == "left":
        return {lam: _left(a, k, lam) for lam in words}
    return {lam: _right(a, lam, k) for lam in words}


def multiply_by_eps(a, k, coeffs, n, side):
    """eps_k times the eps-word combination coeffs of half-degree n-k (side
    "left"), or coeffs times eps_k (side "right"), as an eps-word dict."""
    images = eps_multiplication(a, k, n, side)
    out = {}
    for lam, c in coeffs.items():
        add_scaled(out, images[lam], c)
    return out


@lru_cache(maxsize=None)
def complete_in_elementary(a, m):
    """h_m in a variables as an eps-word dict, with no h_m formed as a
    polynomial; m >= 0.  The dicts are shared and must not be modified.

    For m >= 1 the e-h relation sum_{k=0}^{m} (-1)^{binom(k+1,2)} eps_k
    h_{m-k} = 0 (check_e_h_relation) gives h_m from its k = 0 term: every
    other term is a left multiplication of an earlier h.  It is the series
    identity sum_{i=0}^{min(a,m)} (-1)^{i(m-i)} eps_i z_{m-i} = 0 written in
    h, where z_j = (-1)^{binom(j+1,2)} h_j and eps_i = 0 for i > a.
    """
    if m == 0:
        return {(): 1}
    out = {}
    for k in range(1, min(a, m) + 1):
        lower = complete_in_elementary(a, m - k)
        add_scaled(out, multiply_by_eps(a, k, lower, m, "left"), -((-1) ** comb(k + 1, 2)))
    return out


# ---------------------------------------------------------------------------
# odd Pieri rule


def pieri_expected(alpha, k, a):
    """Signed list of partitions in s_alpha s_{(1^k)} = sum +- s_mu.

    mu runs over partitions obtained by adding one box each to rows
    i_1 < ... < i_k (indices <= a); the sign is the parity of
    |alpha after row i_1| + ... + |alpha after row i_k|.  Compositions that
    are not partitions are discarded.  The sum is empty when k > a or alpha
    has more than a rows (then eps_k or s_alpha is zero), and is s_alpha
    itself when k = 0.
    """
    alpha = combinat.normalize_partition(alpha)
    if not 0 <= k <= a or len(alpha) > a:
        return []
    out = []
    for rows in itertools.combinations(range(1, a + 1), k):
        padded = list(alpha) + [0] * (a - len(alpha))
        for i in rows:
            padded[i - 1] += 1
        if any(padded[i] < padded[i + 1] for i in range(a - 1)):
            continue
        sign_exp = sum(combinat.partition_tail_weight(alpha, i) for i in rows)
        out.append(((-1) ** sign_exp, combinat.normalize_partition(padded)))
    return out


# ---------------------------------------------------------------------------
# reduction mod 2


def mod2_reduction(f):
    """Forget signs and reduce coefficients mod 2 (lands in the commutative
    polynomial ring over Z/2)."""
    from . import evenoracle

    return evenoracle.Gf2Poly(f.nvars, {m: c % 2 for m, c in f.terms.items()})


# ---------------------------------------------------------------------------
# monomials by degree


def monomials_of_degree(a, halfdeg):
    """Exponent vectors with entry sum = halfdeg (Z-degree 2*halfdeg); none
    for a negative halfdeg."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    if halfdeg < 0:
        return []
    if a == 0:
        return [()] if halfdeg == 0 else []
    rec([], halfdeg, a)
    return out
