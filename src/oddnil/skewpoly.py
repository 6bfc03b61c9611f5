"""The skew-commutative polynomial ring in a variables with its signed
symmetric-group action.

Variables skew-commute: x_i x_j = -x_j x_i for i != j.  Every element is
stored in normal order, as a map from exponent vectors (A_1, ..., A_a),
meaning x_1^{A_1} ... x_a^{A_a}, to nonzero integer coefficients; all
reordering signs are absorbed into the coefficients at construction time.

Signs in closed form (validated against letter-by-letter oracles in the
test suite):

  x^A * x^B           = (-1)^{sum_{i>j} A_i B_j} x^{A+B}
  x_r * x^A           = (-1)^{A_1 + ... + A_{r-1}} x^{A+e_r}
  s_i (x^A)           = (-1)^{|A| + A_i A_{i+1}} x^{s_i(A)}

where |A| = sum(A) and s_i swaps the i-th and (i+1)-st entries.  The
transposition s_i is the ring endomorphism sending x_i -> -x_{i+1},
x_{i+1} -> -x_i and x_j -> -x_j for j != i, i+1.

The product sign is computed from parity masks.  Mod 2 the exponent is
sum_j B_j (A_{j+1} + ... + A_a), and a term contributes only when B_j and
the suffix sum are both odd, so it is the parity of
popcount(S(A) & P(B)), where bit j of P(B) is B_j mod 2 and bit j of S(A)
is (A_{j+1} + ... + A_a) mod 2.  The left-dot sign is the product sign
with A = e_r: only the x_r letter moves, past the x_j^{A_j} with j < r.

x_i has Z-degree 2; the super-degree of a monomial is |A| mod 2.
"""

from operator import add

from .lincomb import add_scaled, coefficient, collect, exponents, format_terms, scaled


class SkewPolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        d = {}
        if terms:
            for mono, c in terms.items():
                c = coefficient(c, mono)
                if c:
                    mono = exponents(mono)
                    if len(mono) != nvars:
                        raise ValueError("monomial %r has wrong length" % (mono,))
                    if nvars and min(mono) < 0:
                        raise ValueError("monomial %r has a negative exponent" % (mono,))
                    d[mono] = c
        self.terms = d

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars, i):
        """x_i (1-based)."""
        if not 1 <= i <= nvars:
            raise ValueError("variable index %d out of range" % i)
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): 1})

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = SkewPolynomial.constant(self.nvars, other)
        if not isinstance(other, SkewPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def degree(self):
        """Max Z-degree (2 * exponent sum), or None for the zero polynomial."""
        if not self.terms:
            return None
        return 2 * max(sum(m) for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def lead(self):
        """(exponents, coefficient) of the lex-greatest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if isinstance(other, int):
            other = SkewPolynomial.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))
        return _from_normal(self.nvars, add_scaled(dict(self.terms), other.terms, sign))

    def scale(self, c):
        return _from_normal(self.nvars, scaled(self.terms, c))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))
        right = [(mb, cb, _parity_mask(mb)) for mb, cb in other.terms.items()]
        d = {}
        for ma, ca in self.terms.items():
            sa = _suffix_parity_mask(ma)
            for mb, cb, pb in right:
                m = tuple(map(add, ma, mb))
                c = -ca * cb if (sa & pb).bit_count() & 1 else ca * cb
                v = d.get(m, 0) + c
                if v:
                    d[m] = v
                else:
                    del d[m]
        return _from_normal(self.nvars, d)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = SkewPolynomial.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        return format_skew(self)

    def __repr__(self):
        return "SkewPolynomial(%d, %s)" % (self.nvars, format_skew(self))


def _from_normal(nvars, terms):
    """Wrap a dict that is already normal (keys are exponent tuples of
    length nvars, values nonzero ints) without copying or checking it."""
    out = SkewPolynomial.__new__(SkewPolynomial)
    out.nvars = nvars
    out.terms = terms
    return out


def _parity_mask(m):
    """Bit j is m[j] mod 2."""
    mask = 0
    for j, e in enumerate(m):
        if e & 1:
            mask |= 1 << j
    return mask


def _suffix_parity_mask(m):
    """Bit j is (m[j+1] + ... + m[-1]) mod 2."""
    mask = 0
    parity = 0
    for j in range(len(m) - 1, -1, -1):
        if parity:
            mask |= 1 << j
        parity ^= m[j] & 1
    return mask


def left_dot(r, p):
    """x_r * p (1-based r), term by term: x_r x^A = (-1)^{A_1+...+A_{r-1}} x^{A+e_r}."""
    if not 1 <= r <= p.nvars:
        raise ValueError("variable index %d out of range" % r)
    k = r - 1
    d = {}
    for m, c in p.terms.items():
        d[m[:k] + (m[k] + 1,) + m[r:]] = -c if sum(m[:k]) & 1 else c
    return _from_normal(p.nvars, d)


# ---------------------------------------------------------------------------
# the signed symmetric-group action


def apply_simple_transposition(i, p):
    """Action of s_i: x_i -> -x_{i+1}, x_{i+1} -> -x_i, x_j -> -x_j."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("transposition index %d out of range for %d variables" % (i, p.nvars))
    # s_i permutes the monomials, so no two terms collide
    k = i - 1
    d = {}
    for m, c in p.terms.items():
        d[m[:k] + (m[i], m[k]) + m[i + 1 :]] = -c if (sum(m) + m[k] * m[i]) & 1 else c
    return _from_normal(p.nvars, d)


def apply_permutation(w, p):
    """Action of w along its canonical reduced word (a genuine group action)."""
    from . import combinat

    out = p
    for j in reversed(combinat.canonical_reduced_word(w)):
        out = apply_simple_transposition(j, out)
    return out


def apply_w0(p):
    from . import combinat

    return apply_permutation(combinat.longest_element(p.nvars), p)


# ---------------------------------------------------------------------------
# staircase monomials


def delta_exponents(a):
    return tuple(range(a - 1, -1, -1))


def staircase(a):
    """x^{delta_a} = x_1^{a-1} x_2^{a-2} ... x_{a-1}."""
    return SkewPolynomial.monomial(a, delta_exponents(a))


def reverse_staircase(a):
    """x_1^0 x_2^1 ... x_a^{a-1}."""
    return SkewPolynomial.monomial(a, tuple(range(a)))


def product_in_order(nvars, factors):
    """Skew product of x_{i_1} ... x_{i_r} taken in the written order."""
    out = SkewPolynomial.one(nvars)
    for i in factors:
        out = out * SkewPolynomial.variable(nvars, i)
    return out


def psi_staircase(a):
    """The reversed product x_a^0 x_{a-1}^1 ... x_1^{a-1}, as a polynomial."""
    factors = []
    for i in range(a, 0, -1):
        factors.extend([i] * (a - i))
    return product_in_order(a, factors)


# ---------------------------------------------------------------------------
# text format: term ::= [integer '*'] ('x' index ['^' exp])*, normal order


def format_skew(p):
    return format_terms(sorted(p.terms.items(), reverse=True), _monomial_name)


def _monomial_name(m):
    factors = []
    for j, e in enumerate(m):
        if e == 1:
            factors.append("x%d" % (j + 1))
        elif e > 1:
            factors.append("x%d^%d" % (j + 1, e))
    return "*".join(factors)


def parse_skew(text, nvars):
    s = text.strip()
    if s == "0":
        return SkewPolynomial.zero(nvars)
    s = s.replace("- ", "-").replace("+ ", "+")
    tokens = s.replace("-", " -").replace("+", " +").split()
    pairs = []
    for tok in tokens:
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        elif tok.startswith("+"):
            tok = tok[1:]
        coeff = sign
        exps = [0] * nvars
        last_idx = 0
        for factor in tok.split("*"):
            if not factor:
                raise ValueError("empty factor in term %r" % tok)
            if factor[0] == "x":
                if "^" in factor:
                    idx_s, exp_s = factor[1:].split("^")
                    idx, exp = int(idx_s), int(exp_s)
                else:
                    idx, exp = int(factor[1:]), 1
                if not 1 <= idx <= nvars:
                    raise ValueError("variable x%d out of range" % idx)
                if idx <= last_idx:
                    raise ValueError("variables must be in strictly increasing order in %r" % tok)
                if exp < 0:
                    raise ValueError("negative exponent in %r" % tok)
                last_idx = idx
                exps[idx - 1] += exp
            else:
                coeff *= int(factor)
        pairs.append((tuple(exps), coeff))
    return SkewPolynomial(nvars, collect(pairs))
