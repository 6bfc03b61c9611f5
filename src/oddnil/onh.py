"""The odd nilHecke algebra as an operator algebra on skew polynomials.

Elements are integer combinations of generator words over dots x_r and
crossings d_r.  A word is a tuple of nonzero ints: +r is the dot x_r
(left multiplication), -r is the crossing d_r (odd divided difference).
Word concatenation is operator composition with the LEFT factor acting
LAST; diagrammatically, left-to-right in the word is top-to-bottom in
the picture.

Equality is decided by evaluation on the odd Schubert basis: an element
is zero iff it kills every Schubert polynomial (the representation is
faithful and the action is right-linear over the odd symmetric subring,
which is why the a! Schubert polynomials suffice).  The one procedure is
witness(x, y): it evaluates x - y on the basis, stops at the first
nonzero value and reports x and y there; x == y is witness(x, y) is None.
No rewriting system is used anywhere.

Evaluation splits the words once (_plan) into a head that two or more
words all start with, a tail that two or more of the rest all end with,
and a middle per word.  Linearity gives sum c_w H M_w T(p) =
H(sum c_w M_w(T(p))), so the tail acts once on p, each middle on that
image, and the head once on the sum.  Most sigma values are zero after
the tail, and evaluation stops there.  Middles that differ only in their
leading run of dots merge into one skew product (the dot words of
from_polynomial(f) become f).  A sum with more terms than the head has
letters meets the head one letter at a time over the whole polynomial,
so terms that cancel drop out early (e_a f - e_a f e_a for an odd
symmetric f is a few dozen terms whose image is zero); a smaller sum
goes through apply_word and its memo.  The plan is made on an element's
first evaluation and kept.

An element is a value: no code mutates its ``combo`` after construction,
and every operation returns a new element, which makes its own plan.  So
the named diagrams are lru_caches: idempotent_e, d_element,
crossing_element, up_splitter, sigma_seq, lambda_seq, sigma_part and
lambda_part each build their element once per process, and every check
that names a diagram shares that one element and its plan.
oddops.clear_caches empties them with the library's other lru_caches.

Next to its plan an element keeps its floor, the least word_floor of its
words.  A word kills every monomial below its own floor (see below), so
by linearity the element kills every polynomial whose monomials all lie
below the least of them: evaluate returns zero for such a polynomial at
once, with no walk of the plan or the memo.  The test reads p's cached
top half-degree (SkewPolynomial.top_halfdegree), so it does not walk p's
monomials either: a polynomial evaluated before costs one slot read.
Most Schubert polynomials lie below the floor of a projector's family,
since every projector ends in the crossings of D_a.

apply_word remembers, per word, the image of every monomial it has
carried: an image depends only on the word and the monomial, since the
length of the exponent tuple fixes the strand count.  Images are
immutable tuples of (monomial, coeff) pairs, a zero image the shared ();
a call sums c * image per term into a fresh dict, so no result shares a
dict with the memo.  A miss first compares the monomial's half-degree
with the word's floor (word_floor): each crossing lowers the half-degree
by one, each dot raises it by one, and d_i of a constant is 0, so a
monomial whose half-degree some suffix of the word would take below zero
has the zero image.  Any other miss runs the word's program
(oddops.program) through oddops.run_letters, the one letter loop, on the
one-term dict {monomial: 1}.  The projectors end in
the crossings of D_a, so the floor decides most zero images.  The memo is
unbounded, like the library's lru_caches, and oddops.clear_caches empties
it; most images are zero, and most (word, monomial) pairs recur within a
sweep.

Thick calculus conventions (all signs downstream depend on these):

* e_a is (-1)^{binom(a,3)} x^delta D_a: the word e_word(a), the dots of
  the staircase over the fixed crossing word of D_a, with coefficient
  e_sign(a).  It equals the 0-Hecke product (x_r d_r) along the
  canonical reduced word of w_0 (zero_hecke_product), which the
  ea_standard check states.
* embed(element, offset, n) places a diagram on strands offset+1 ..
  offset+k of n; a thick diagram is a product of embedded projectors,
  boxes, dots and bundle crossings.
* crossing_element(a, b) on a+b strands: the t-th of the b right strands
  crosses leftward over all a left strands, for t = 1..b in order; ab
  crossings.  Its sigma image is the mirror crossing.
* up_splitter(a, b) = (e_a (x) e_b) over the mirror crossing with bottom
  bundles (b, a) and top legs (a, b); the bottom e_{a+b} is absorbed.
  The two crossing orientations coincide whenever a bundle is thin.
* box(f, a) = e_a f e_a for odd symmetric f.
* sigma/lambda elements as in the orthogonal-idempotent decompositions;
  the parity ledgers Omega and X live here (chi is oddsym.chi).
"""

import os
from functools import lru_cache
from math import comb

from . import combinat, oddops, oddsym
from .lincomb import add_scaled, coefficient, collect, convolve, format_terms, scaled
from .skewpoly import SkewPolynomial, _from_normal, staircase


# ---------------------------------------------------------------------------
# words


def word_degree(word):
    """Z-degree: +2 per dot, -2 per crossing."""
    return 2 * sum(1 if l > 0 else -1 for l in word)


def check_word(word, strands):
    for l in word:
        if l == 0:
            raise ValueError("zero letter in word")
        if l > 0 and not 1 <= l <= strands:
            raise ValueError("dot x_%d out of range for %d strands" % (l, strands))
        if l < 0 and not 1 <= -l <= strands - 1:
            raise ValueError("crossing d_%d out of range for %d strands" % (-l, strands))


def shift_word(word, offset):
    return tuple((l + offset) if l > 0 else (l - offset) for l in word)


def word_floor(word):
    """The least half-degree of a monomial that the word may not kill: the
    largest excess of crossings over dots in any suffix of the word (the
    letters that act first), or 0."""
    floor = excess = 0
    for l in reversed(word):
        if l < 0:
            excess += 1
            if excess > floor:
                floor = excess
        else:
            excess -= 1
    return floor


# word -> (word_floor(word), {monomial: its image, as (monomial, coeff) pairs})
_segment_images = {}


def apply_word(word, p):
    """Apply a word to a polynomial; rightmost letter acts first.  Each
    monomial's image is read from the word's memo, or computed once; a
    monomial of half-degree below the word's floor has the zero image, and
    no letter runs for it."""
    memo = _segment_images.get(word)
    if memo is None:
        memo = _segment_images[word] = (word_floor(word), {})
    floor, images = memo
    steps = None
    d = {}
    get = d.get
    for mono, c in p.terms.items():
        image = images.get(mono)
        if image is None:
            if sum(mono) < floor:
                images[mono] = ()
                continue
            if steps is None:
                steps = oddops.program(word, p.nvars)
            image = images[mono] = tuple(oddops.run_letters(steps, {mono: 1}).items())
        # add_scaled inlined over the pairs, miss-first
        for m, b in image:
            v = get(m)
            if v is None:
                d[m] = c * b
            else:
                v += c * b
                if v:
                    d[m] = v
                else:
                    del d[m]
    return _from_normal(p.nvars, d)


def format_word(word):
    return " ".join(("x%d" % l) if l > 0 else ("d%d" % -l) for l in word)


# ---------------------------------------------------------------------------
# elements


class OnhElement:
    __slots__ = ("strands", "combo", "_plan")

    def __init__(self, strands, combo=None):
        self.strands = strands
        d = {}
        if combo:
            for word, c in combo.items():
                c = coefficient(c, word)
                if c:
                    word = tuple(word)
                    check_word(word, strands)
                    d[word] = c
        self.combo = d

    @classmethod
    def zero(cls, strands):
        return cls(strands)

    @classmethod
    def identity(cls, strands):
        return cls(strands, {(): 1})

    @classmethod
    def from_word(cls, strands, word, coeff=1):
        return cls(strands, {tuple(word): coeff})

    def __eq__(self, other):
        """Semantic equality, via evaluation on the Schubert basis."""
        if not isinstance(other, OnhElement):
            return NotImplemented
        self._same_strands(other)
        return witness(self, other) is None

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _same_strands(self, other):
        if self.strands != other.strands:
            raise ValueError("strand mismatch: %d vs %d" % (self.strands, other.strands))

    def _plus(self, other, sign):
        if not isinstance(other, OnhElement):
            return NotImplemented
        self._same_strands(other)
        return _element(self.strands, add_scaled(dict(self.combo), other.combo, sign))

    def scale(self, c):
        return _element(self.strands, scaled(self.combo, c))

    def __mul__(self, other):
        """Lazy concatenation of words."""
        if not isinstance(other, OnhElement):
            return NotImplemented
        self._same_strands(other)
        return _element(self.strands, convolve(self.combo, other.combo))

    def evaluate(self, p):
        """Apply the element to p as head(sum of c middle(tail(p))) (see
        _plan).  The action is linear, so a zero p, a p whose monomials all
        lie below the element's floor, or a zero tail(p) gives zero with no
        further work.  The floor is the least word_floor of the words: each
        word sends a monomial below its own floor to zero, so each word, and
        by linearity their sum, sends such a p to zero."""
        if p.nvars != self.strands:
            raise ValueError("polynomial in %d variables, element on %d strands" % (p.nvars, self.strands))
        if not p.terms:
            return _from_normal(self.strands, {})
        try:
            floor, head, tail, middles = self._plan
        except AttributeError:
            self._plan = (min(map(word_floor, self.combo), default=0),) + _plan(self.strands, self.combo)
            floor, head, tail, middles = self._plan
        if floor and p.top_halfdegree() < floor:
            return _from_normal(self.strands, {})
        q = apply_word(tail, p) if tail else p
        if not q.terms:
            return q
        d = {}
        for middle, c in middles:
            r = apply_word(middle, q) if middle else q
            if r.terms:
                if type(c) is int:
                    add_scaled(d, r.terms, c)
                else:
                    add_scaled(d, (c * r).terms, 1)
        q = _from_normal(self.strands, d)
        if not head or not d:
            return q
        # a large sum meets the head at once, a small one the memo
        return oddops.apply_letters(head, q) if len(d) > len(head) else apply_word(head, q)

    def degrees(self):
        return sorted({word_degree(w) for w in self.combo})

    def normalize(self):
        """Re-express through the standard basis; caps word length."""
        return assemble_standard_basis(self.strands, extract_standard_basis(self))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return "OnhElement(%d, %s)" % (self.strands, format_element(self))


def witness(x, y):
    """(i, x(p_i), y(p_i)) for the first Schubert polynomial p_i on which
    the elements x and y differ, or None if they are equal.  By linearity
    that is the first p_i on which x - y is nonzero, so one walk evaluates
    x - y, and x and y are evaluated only at p_i."""
    diff = x - y
    for i, p in enumerate(schubert_basis_list(x.strands)):
        if diff.evaluate(p):
            return i, x.evaluate(p), y.evaluate(p)
    return None


def _element(strands, combo):
    """Wrap a combination of checked words without copying or checking it."""
    out = OnhElement.__new__(OnhElement)
    out.strands = strands
    out.combo = combo
    return out


def _common_prefix(words):
    """The longest word that all of words start with, if there are two or
    more of them, and () otherwise."""
    return os.path.commonprefix(words) if len(words) > 1 else ()


def _plan(strands, combo):
    """(head, tail, middles) for evaluate: each word is head M tail, where
    head is the longest word that all the words start with, tail the
    longest that all of what follows the head ends with (each () unless
    there are two or more words), and middles the pairs (M, c).  First,
    the words head D W of one W (empty, or starting with a crossing) that
    differ only in their run of dots D merge into one word head W, whose
    coefficient is the polynomial sum c D(1)."""
    head = _common_prefix(list(combo))
    runs = {}  # W -> [(D, c)]
    for word, c in combo.items():
        k = len(head)
        while k < len(word) and word[k] > 0:
            k += 1
        runs.setdefault(word[k:], []).append((word[len(head):k], c))
    rest = {}
    one = SkewPolynomial.one(strands)
    for w, dotted in runs.items():
        if len(dotted) == 1:
            ((dots, c),) = dotted
            rest[dots + w] = c
            continue
        g = SkewPolynomial.zero(strands)
        for dots, c in dotted:
            g = g + oddops.apply_letters(dots, one).scale(c)
        if g:
            rest[w] = g
    tail = _common_prefix([w[::-1] for w in rest])[::-1]
    return head, tail, tuple((w[:len(w) - len(tail)], c) for w, c in rest.items())


def dot(strands, r):
    return OnhElement.from_word(strands, (r,))


def cross(strands, r):
    return OnhElement.from_word(strands, (-r,))


def from_polynomial(f):
    """Left multiplication by f, as an element (one word per monomial)."""
    return OnhElement(f.nvars, collect((dots_word(m), c) for m, c in f.terms.items()))


def dots_word(exps):
    """Word of dots realizing left multiplication by the normal-ordered
    monomial with the given exponents."""
    word = []
    for i, e in enumerate(exps, start=1):
        word.extend([i] * e)
    return tuple(word)


# ---------------------------------------------------------------------------
# Schubert basis and the standard basis {x^A d_w}


@lru_cache(maxsize=None)
def schubert_basis_list(a):
    """oddsym.schubert(w, a) for every w in combinat.all_permutations(a),
    each one d_i on an earlier image.

    oddsym.schubert applies the crossing word of u = w^{-1} w_0 to the
    staircase; the first letter -i of that word acts last, on the image of
    the rest of the word.  So the images of word suffixes are kept, and each
    word costs one d_i on its suffix's image: the same letters on the same
    dicts, so the terms and their order are those of oddsym.schubert.  The
    canonical words are suffix-closed: the word of u without its first
    letter i is the word of s_i u (by combinat.canonical_reduced_word's
    recursion: if u(n) = i < n, s_i u ends in i + 1 and has the same
    renumbered prefix, and if u(n) = n both words are their prefixes',
    by induction).  So every suffix is itself a basis word, and the a!
    polynomials cost a! - 1 letters."""
    w0 = combinat.longest_element(a)
    images = {(): staircase(a)}

    def image(word):
        p = images.get(word)
        if p is None:
            p = images[word] = oddops.apply_letters(word[:1], image(word[1:]))
        return p

    return [image(oddops.d_word(combinat.perm_compose(combinat.perm_inverse(w), w0)))
            for w in combinat.all_permutations(a)]


@lru_cache(maxsize=None)
def _perms_by_length(a):
    perms = combinat.all_permutations(a)
    return sorted(perms, key=lambda w: (combinat.perm_length(w), w))


@lru_cache(maxsize=None)
def _unit_value(w, a):
    """d_{canonical(w)} applied to the Schubert polynomial of w; always a
    unit, computed by evaluation and never by a hand sign rule.

    With words acting rightmost-first, the surviving length-equal pairing
    on the Schubert polynomial of w is d_w itself (the inverse-free index
    is forced by the composition convention).
    """
    val = oddops.apply_letters(oddops.d_word(w), oddsym.schubert(w, a))
    c = val.constant_term()
    if val != SkewPolynomial.constant(a, c) or c not in (1, -1):
        raise RuntimeError("Schubert unit evaluation failed for %r" % (w,))
    return c


def extract_standard_basis(element):
    """Coefficients of an element in the basis {x^A d_w} (canonical words).

    Triangular extraction by increasing Coxeter length: on the Schubert
    polynomial of w, words with longer d-part vanish and the length-equal
    survivors are read off monomial by monomial.
    """
    a = element.strands
    schubert = dict(zip(combinat.all_permutations(a), schubert_basis_list(a)))
    residual = element
    out = {}
    for w in _perms_by_length(a):
        val = residual.evaluate(schubert[w])
        if not val:
            continue
        unit = _unit_value(w, a)
        coeffs = {(mono, w): c // unit for mono, c in val.terms.items()}
        out.update(coeffs)
        residual = residual - assemble_standard_basis(a, coeffs)
    return out


def assemble_standard_basis(a, coeffs):
    return OnhElement(
        a,
        collect(
            (dots_word(mono) + oddops.d_word(u), c)
            for (mono, u), c in coeffs.items()
        ),
    )


# ---------------------------------------------------------------------------
# 0-Hecke generators and thick idempotents


def zero_hecke(strands, r):
    """The 0-Hecke generator x_r d_r."""
    if not 1 <= r <= strands - 1:
        raise ValueError("0-Hecke index %d out of range" % r)
    return OnhElement.from_word(strands, (r, -r))


def zero_hecke_product(a):
    """e_a as the 0-Hecke product (x_r d_r) along the canonical reduced
    word of w_0: the form that ea_standard states idempotent_e against."""
    word = []
    for j in combinat.canonical_reduced_word(combinat.longest_element(a)):
        word.extend((j, -j))
    return OnhElement.from_word(a, word)


@lru_cache(maxsize=None)
def e_word(a):
    """Word of e_a up to its sign e_sign(a): x^delta D_a, the dots of the
    staircase over the crossings of D_a, which act first."""
    return dots_word(tuple(range(a - 1, -1, -1))) + oddops.da_word(a)


def e_sign(a):
    return (-1) ** comb(a, 3)


@lru_cache(maxsize=None)
def idempotent_e(a):
    """e_a = (-1)^{binom(a,3)} x^delta D_a: the word e_word(a) with the
    coefficient e_sign(a); the even e_a of Lauda's categorification of
    quantum sl(2) is x^delta D_a.  It equals zero_hecke_product(a)
    (ea_standard states this for a <= 5, the tests for a = 6, 7).  Products
    carry the sign as a coefficient: up_splitter, sigma_part and
    lambda_part through the one element this cache holds per a, lambda_seq
    once per e_word it concatenates, and box not at all, since e_a f e_a
    holds it squared.
    The crossings of D_a act first, so apply_word's floor sends most
    monomials to zero before any letter runs."""
    return OnhElement.from_word(a, e_word(a), e_sign(a))


def embed(element, offset, n):
    """element on strands offset+1 .. offset+strands inside n strands."""
    if offset < 0 or offset + element.strands > n:
        raise ValueError("embedding of %d strands at offset %d does not fit in %d strands"
                         % (element.strands, offset, n))
    return _element(n, {shift_word(w, offset): c for w, c in element.combo.items()})


def crossing_word_letters(a, b):
    """Crossing word for bundles (a, b): each right strand crosses leftward
    over all a left strands; degree -2ab."""
    word = []
    for t in range(b, 0, -1):
        word.extend(range(-t, -(t + a), -1))
    # letters were appended as -(t), -(t+1), ..., -(t+a-1)
    return tuple(word)


@lru_cache(maxsize=None)
def crossing_element(a, b):
    """The bundle crossing of (a, b) on a+b strands."""
    return OnhElement.from_word(a + b, crossing_word_letters(a, b))


@lru_cache(maxsize=None)
def up_splitter(a, b):
    """Split a thick a+b strand into legs (a, b); the bottom projector is
    absorbed.  The crossing inside is the mirror orientation, the sigma
    image of crossing_element(a, b): bottom bundles (b, a), top (a, b), with
    the left b-bundle sweeping right.  It is the unique choice under which
    associativity carries the sign (-1)^{ab binom(c,2)} and the sign
    bookkeeping of bigX makes the sigma/lambda contractions close."""
    n = a + b
    return embed(idempotent_e(a), 0, n) * embed(idempotent_e(b), a, n) * mirror(crossing_element(a, b))


def box(f, a):
    """e_a f e_a for odd symmetric f: e_word(a) + x^m + e_word(a) with f's
    coefficient c_m, since e_a's sign comes in squared."""
    if f.nvars != a:
        raise ValueError("box needs a polynomial in %d variables" % a)
    if not oddsym.is_odd_symmetric(f):
        raise oddsym.NotOddSymmetricError("box label must be odd symmetric")
    ea = e_word(a)
    return OnhElement(a, collect((ea + dots_word(mono) + ea, c) for mono, c in f.terms.items()))


# ---------------------------------------------------------------------------
# parity ledgers


def omega(beta, b):
    """Omega(beta) = sum_j binom(beta_{b-j} + j, 3) for beta with <= b parts."""
    beta = combinat.check_parts(beta, b)
    padded = list(beta) + [0] * (b - len(beta))
    return sum(comb(padded[b - 1 - j] + j, 3) for j in range(b)) % 2


def bigX(alpha, a, b):
    """The thick-calculus sign X_alpha^{a,b} (mod 2):

        |alpha| |hat alpha| + chi_alpha^a + chi_{hat alpha}^b
        + binom(a,2)(|hat alpha| + binom(b,2)) + Omega(hat alpha)
        + binom(a+b,3).

    Tied to the mirror crossing orientation inside up_splitter; with the
    plain crossing orientation instead, the binom(a,2)binom(b,2) term
    would have to be dropped to keep lambda_beta sigma_alpha = delta e.
    """
    alpha = combinat.check_box(alpha, a, b)
    ahat = combinat.hat_partition(alpha, a, b)
    total = (
        sum(alpha) * sum(ahat)
        + oddsym.chi(alpha, a)
        + oddsym.chi(ahat, b)
        + comb(a, 2) * (sum(ahat) + comb(b, 2))
        + comb(a + b, 3)
    )
    return (total + omega(ahat, b)) % 2


# ---------------------------------------------------------------------------
# sigma/lambda families


@lru_cache(maxsize=None)
def sigma_seq(ell):
    """sigma_l: nested splitters (nu+1) -> (nu, 1) from thickness a down,
    with an eps_{l_nu} box right above the thickness-nu leg."""
    a = combinat.sq_strands(ell)
    out = OnhElement.identity(a)
    for nu in range(1, a):
        split_nu = embed(up_splitter(nu, 1), 0, a)
        boxed = embed(box(oddsym.elementary(ell[nu - 1], nu), nu), 0, a)
        # the thickness-(nu+1) split acts below everything built so far
        out = out * (boxed * split_nu)
    return out


@lru_cache(maxsize=None)
def lambda_seq(ell):
    """lambda_l = (-1)^{binom(a,3)} e_a x_a^{hat l_{a-1}} e_{a-1}
    x_{a-1}^{hat l_{a-2}} ... e_2 x_2^{hat l_1}, with hat l_nu = nu - l_nu.

    The hat-l_nu dots sit on the thin strand directly below the merge at
    thickness nu+1; flattening all dots below the single top merge flips
    some diagonal signs and fails the orthogonality contract, so the
    intermediate merges are kept.  The product is one word: e_word(nu+1)
    is e_{nu+1} without its sign, so the coefficient takes one
    e_sign(nu+1) per projector next to the leading (-1)^{binom(a,3)}.
    """
    a = combinat.sq_strands(ell)
    hat = combinat.seq_hat(ell)
    word = []
    sign = (-1) ** comb(a, 3)
    for nu in range(a - 1, 0, -1):
        word.extend(e_word(nu + 1))
        word.extend([nu + 1] * hat[nu - 1])
        sign *= e_sign(nu + 1)
    return OnhElement.from_word(a, tuple(word), sign)


@lru_cache(maxsize=None)
def sigma_part(alpha, a, b):
    """sigma_alpha = (box(s_alpha, a) (x) e_b) . up_splitter(a, b)."""
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    top = embed(box(oddsym.schur(alpha, a), a), 0, n) * embed(idempotent_e(b), a, n)
    return top * up_splitter(a, b)


@lru_cache(maxsize=None)
def lambda_part(alpha, a, b):
    """lambda_alpha = (-1)^{X_alpha^{a,b}} e_{a+b} (e_a (x) box(dual s_{hat alpha}, b))."""
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    ahat = combinat.hat_partition(alpha, a, b)
    bottom = embed(idempotent_e(a), 0, n) * embed(box(oddsym.dual_schur(ahat, b), b), a, n)
    out = idempotent_e(n) * bottom
    return out.scale((-1) ** bigX(alpha, a, b))


# ---------------------------------------------------------------------------
# the mirror automorphism


def mirror(element):
    """sigma: the reflection of a diagram across the vertical axis, an
    automorphism sending x_r to x_{a+1-r} and d_r to d_{a-r}."""
    a = element.strands
    combo = {tuple((a + 1 - l) if l > 0 else -(a + l) for l in w): c for w, c in element.combo.items()}
    return OnhElement(a, combo)


@lru_cache(maxsize=None)
def d_element(a):
    """D_a as an element (the fixed word of oddops.da_word)."""
    return OnhElement.from_word(a, oddops.da_word(a))


# ---------------------------------------------------------------------------
# display: signed sums of quoted words


def format_element(element):
    return format_terms(sorted(element.combo.items()), lambda w: '"%s"' % format_word(w))
