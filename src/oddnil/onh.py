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
which is why the a! Schubert polynomials suffice).  No rewriting system
is used anywhere.

Evaluation walks a suffix tree of the words instead of applying each word
on its own.  The action is linear, and for a word w = u v we have
w(p) = u(v(p)); so a walk that applies each shared suffix v once, keeps
v(p), and continues into every u above it sums the same integer terms c_w
w(p) as the word-by-word loop, only in another order.  A branch is left
once its polynomial is zero, since every longer word through it then
gives zero too.  The tree is built on an element's first evaluation and
kept; this relies on one rule: an element's ``combo`` is never mutated
after construction (every operation returns a new element, which builds
its own tree).

Thick calculus conventions (all signs downstream depend on these):

* e_a is the 0-Hecke product (x_r d_r) along the canonical reduced word
  of w_0.
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

from functools import lru_cache
from math import comb

from . import combinat, oddops, oddsym
from .lincomb import add_scaled, coefficient, collect, convolve, format_terms, scaled
from .skewpoly import SkewPolynomial, _from_normal, left_dot


# ---------------------------------------------------------------------------
# words


def word_degree(word):
    """Z-degree: +2 per dot, -2 per crossing."""
    return 2 * sum(1 if l > 0 else -1 for l in word)


def word_super_degree(word):
    return (word_degree(word) // 2) % 2


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


def apply_word(word, p):
    """Apply a word to a polynomial; rightmost letter acts first."""
    out = p
    for l in reversed(word):
        if not out.terms:
            return out
        if l > 0:
            out = left_dot(l, out)
        else:
            out = oddops.divided_difference(-l, out)
    return out


def format_word(word):
    return " ".join(("x%d" % l) if l > 0 else ("d%d" % -l) for l in word)


# ---------------------------------------------------------------------------
# elements


class OnhElement:
    __slots__ = ("strands", "combo", "_tree")

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
        if self.strands != other.strands:
            raise ValueError("strand mismatch: %d vs %d" % (self.strands, other.strands))
        return (self - other).is_zero()

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if self.strands != other.strands:
            raise ValueError("strand mismatch")
        return _element(self.strands, add_scaled(dict(self.combo), other.combo, sign))

    def scale(self, c):
        return _element(self.strands, scaled(self.combo, c))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        """Lazy concatenation of words."""
        if isinstance(other, int):
            return self.scale(other)
        if self.strands != other.strands:
            raise ValueError("strand mismatch: %d vs %d" % (self.strands, other.strands))
        return _element(self.strands, convolve(self.combo, other.combo))

    def evaluate(self, p):
        """Apply the element to p by a depth-first walk of its suffix tree:
        each shared suffix acts once, and a branch stops where p dies.  The
        action is linear, so a zero p gives zero with no walk."""
        if p.nvars != self.strands:
            raise ValueError("polynomial in %d variables, element on %d strands" % (p.nvars, self.strands))
        if not p.terms:
            return _from_normal(self.strands, {})
        try:
            tree = self._tree
        except AttributeError:
            tree = self._tree = _suffix_tree(self.combo)
        d = {}
        stack = [(tree, p)]
        while stack:
            (c, edges), q = stack.pop()
            if c:
                add_scaled(d, q.terms, c)
            for segment, child in edges:
                r = apply_word(segment, q)
                if r.terms:
                    stack.append((child, r))
        return _from_normal(self.strands, d)

    def is_zero(self):
        basis = schubert_basis_list(self.strands)
        return all(self.evaluate(p).is_zero() for p in basis)

    def degrees(self):
        return sorted({word_degree(w) for w in self.combo})

    def normalize(self):
        """Re-express through the standard basis; caps word length."""
        return assemble_standard_basis(self.strands, extract_standard_basis(self))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return "OnhElement(%d, %s)" % (self.strands, format_element(self))


def _element(strands, combo):
    """Wrap a combination of checked words without copying or checking it."""
    out = OnhElement.__new__(OnhElement)
    out.strands = strands
    out.combo = combo
    return out


def _suffix_tree(combo):
    """The words of combo as a compressed trie on their reversed letters.

    A node is (c, edges): c is the coefficient of the word that ends there
    (0 if none), and each edge is (segment, node) for a word segment that
    acts after the suffix above it.  A chain of nodes where no word ends
    and nothing branches is one edge.
    """
    trie = {}
    for word, c in combo.items():
        node = trie
        for l in reversed(word):
            node = node.setdefault(l, {})
        node[0] = c  # letters are nonzero, so key 0 holds the coefficient
    root = (trie.get(0, 0), [])
    stack = [(trie, root[1])]
    while stack:
        node, edges = stack.pop()
        for l, child in node.items():
            if not l:
                continue
            letters = [l]
            while len(child) == 1 and 0 not in child:
                ((l, child),) = child.items()
                letters.append(l)
            sub = (child.get(0, 0), [])
            edges.append((tuple(reversed(letters)), sub))
            stack.append((child, sub[1]))
    return root


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
    return [oddsym.schubert(w, a) for w in combinat.all_permutations(a)]


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
    word = combinat.canonical_reduced_word(w)
    val = oddops.dd_word(word, oddsym.schubert(w, a))
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
    residual = element
    out = {}
    for w in _perms_by_length(a):
        val = residual.evaluate(oddsym.schubert(w, a))
        if val.is_zero():
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
            (dots_word(mono) + tuple(-l for l in combinat.canonical_reduced_word(u)), c)
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


@lru_cache(maxsize=None)
def e_word(a):
    """Word of e_a: the 0-Hecke product along the canonical word of w_0."""
    word = []
    for j in combinat.canonical_reduced_word(combinat.longest_element(a)):
        word.extend((j, -j))
    return tuple(word)


def idempotent_e(a):
    return OnhElement.from_word(a, e_word(a))


def embed(element, offset, n):
    """element on strands offset+1 .. offset+strands inside n strands."""
    if offset < 0 or offset + element.strands > n:
        raise ValueError("embedding of %d strands at offset %d does not fit in %d strands"
                         % (element.strands, offset, n))
    return _element(n, {shift_word(w, offset): c for w, c in element.combo.items()})


@lru_cache(maxsize=None)
def crossing_word_letters(a, b):
    """Crossing word for bundles (a, b): each right strand crosses leftward
    over all a left strands; degree -2ab."""
    word = []
    for t in range(b, 0, -1):
        word.extend(range(-t, -(t + a), -1))
    # letters were appended as -(t), -(t+1), ..., -(t+a-1)
    return tuple(word)


def crossing_element(a, b):
    """The bundle crossing of (a, b) on a+b strands."""
    return OnhElement.from_word(a + b, crossing_word_letters(a, b))


def up_splitter(a, b):
    """Split a thick a+b strand into legs (a, b); the bottom projector is
    absorbed.  The crossing inside is the mirror orientation, the sigma
    image of crossing_element(a, b): bottom bundles (b, a), top (a, b), with
    the left b-bundle sweeping right.  It is the unique choice under which
    associativity carries the sign (-1)^{ab binom(c,2)} and the sign
    bookkeeping of bigX makes the sigma/lambda contractions close."""
    n = a + b
    mirror = automorphism_apply("sigma", crossing_element(a, b))
    return embed(idempotent_e(a), 0, n) * embed(idempotent_e(b), a, n) * mirror


def box(f, a):
    """e_a f e_a for odd symmetric f."""
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
    beta = combinat.normalize_partition(beta)
    if len(beta) > b:
        raise combinat.BoxViolationError("%r has more than %d parts" % (beta, b))
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


def sigma_seq(ell):
    """sigma_l: nested splitters (nu+1) -> (nu, 1) from thickness a down,
    with an eps_{l_nu} box right above the thickness-nu leg."""
    a = len(ell) + 1
    if any(not 0 <= l <= nu for nu, l in enumerate(ell, start=1)):
        raise ValueError("%r is not in Sq(%d)" % (ell, a))
    out = OnhElement.identity(a)
    for nu in range(1, a):
        split_nu = embed(up_splitter(nu, 1), 0, a)
        boxed = embed(box(oddsym.elementary(ell[nu - 1], nu), nu), 0, a)
        # the thickness-(nu+1) split acts below everything built so far
        out = out * (boxed * split_nu)
    return out


def lambda_seq(ell):
    """lambda_l = (-1)^{binom(a,3)} e_a x_a^{hat l_{a-1}} e_{a-1}
    x_{a-1}^{hat l_{a-2}} ... e_2 x_2^{hat l_1}, with hat l_nu = nu - l_nu.

    The hat-l_nu dots sit on the thin strand directly below the merge at
    thickness nu+1; flattening all dots below the single top merge flips
    some diagonal signs and fails the orthogonality contract, so the
    intermediate merges are kept.
    """
    a = len(ell) + 1
    if any(not 0 <= l <= nu for nu, l in enumerate(ell, start=1)):
        raise ValueError("%r is not in Sq(%d)" % (ell, a))
    hat = combinat.seq_hat(ell)
    word = []
    for nu in range(a - 1, 0, -1):
        word.extend(e_word(nu + 1))
        word.extend([nu + 1] * hat[nu - 1])
    return OnhElement.from_word(a, tuple(word), (-1) ** comb(a, 3))


def sigma_part(alpha, a, b):
    """sigma_alpha = (box(s_alpha, a) (x) e_b) . up_splitter(a, b)."""
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    top = embed(box(oddsym.schur(alpha, a), a), 0, n) * embed(idempotent_e(b), a, n)
    return top * up_splitter(a, b)


def lambda_part(alpha, a, b):
    """lambda_alpha = (-1)^{X_alpha^{a,b}} e_{a+b} (e_a (x) box(dual s_{hat alpha}, b))."""
    alpha = combinat.check_box(alpha, a, b)
    n = a + b
    ahat = combinat.hat_partition(alpha, a, b)
    bottom = embed(idempotent_e(a), 0, n) * embed(box(oddsym.dual_schur(ahat, b), b), a, n)
    out = idempotent_e(n) * bottom
    return out.scale((-1) ** bigX(alpha, a, b))


# ---------------------------------------------------------------------------
# diagram automorphisms


def automorphism_apply(kind, element):
    """kind in {"sigma", "psi", "sigma.psi"}: reflect across the vertical
    axis (sigma, an automorphism), the horizontal axis (psi, an
    anti-automorphism reversing words), or both."""
    a = element.strands

    def sigma_word(word):
        return tuple((a + 1 - l) if l > 0 else -(a + l) for l in word)

    if kind == "sigma":
        combo = {sigma_word(w): c for w, c in element.combo.items()}
    elif kind == "psi":
        combo = {tuple(reversed(w)): c for w, c in element.combo.items()}
    elif kind in ("sigma.psi", "psi.sigma"):
        combo = {tuple(reversed(sigma_word(w))): c for w, c in element.combo.items()}
    else:
        raise ValueError("unknown automorphism %r" % kind)
    return OnhElement(a, combo)


def d_element(a):
    """D_a as an element (the fixed word of oddops.da_word)."""
    return OnhElement.from_word(a, tuple(-l for l in oddops.da_word(a)))


def staircase_element(a):
    return OnhElement.from_word(a, dots_word(tuple(range(a - 1, -1, -1))))


# ---------------------------------------------------------------------------
# display: signed sums of quoted words


def format_element(element):
    return format_terms(sorted(element.combo.items()), lambda w: '"%s"' % format_word(w))
