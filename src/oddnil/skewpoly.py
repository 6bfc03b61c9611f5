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
  w_0 (x^A)           = (-1)^{C(a,2) |A| + sum_{p<q} A_p A_q} x^{reversed A}

where |A| = sum(A) and s_i swaps the i-th and (i+1)-st entries.  The
transposition s_i is the ring endomorphism sending x_i -> -x_{i+1},
x_{i+1} -> -x_i and x_j -> -x_j for j != i, i+1.

The kernels that carry these signs (the product, x_r * and d_i of
oddops) are generated once per arity, the number of variables plus the
index of x_r or d_i, unrolled over the exponent vector: a monomial
unpacks into locals a0, ..., a{n-1} and the product key is the tuple
display (a0 + b0, ...).  Mod 2 the product exponent is
sum_j B_j (A_{j+1} + ... + A_a), so the generated sign test is
(b0 & s0 ^ b1 & s1 ^ ...) & 1, where s_j = a_{j+1} ^ ... ^ a_{n-1} is
the suffix parity, computed once per left term.  The left-dot sign is the
product sign with A = e_r: only the x_r letter moves, past the x_j^{A_j}
with j < r, so its test is (a0 ^ ... ^ a{r-2}) & 1.

x_i has Z-degree 2; the super-degree of a monomial is |A| mod 2.

A polynomial is a value: no code changes its ``terms`` after __init__ or
_from_normal has built it, and every operation builds its result over a
fresh dict (or returns its operand itself, when nothing acts on it).  So
a polynomial keeps what it learns about itself: top_halfdegree, the
largest |A| of its monomials (-1 for zero), is computed on its first
call and read after that, which makes the floor test of onh's evaluation
one slot read.
"""

import re
from functools import lru_cache
from math import comb

from . import combinat
from .lincomb import add_scaled, coefficient, collect, exponents, format_terms, scaled


class SkewPolynomial:
    __slots__ = ("nvars", "terms", "_top")

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
    def monomial(cls, nvars, exps):
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def variable(cls, nvars, i):
        """x_i (1-based)."""
        if not 1 <= i <= nvars:
            raise ValueError("variable index %d out of range" % i)
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): 1})

    # -- basic structure ----------------------------------------------------

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

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def top_halfdegree(self):
        """The largest half-degree |A| of a monomial, -1 for zero; computed
        once, since the terms never change (see the module docstring)."""
        try:
            return self._top
        except AttributeError:
            self._top = top = max(map(sum, self.terms), default=-1)
            return top

    def lead(self):
        """(exponents, coefficient) of the lex-greatest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if not isinstance(other, SkewPolynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))
        return _from_normal(self.nvars, add_scaled(dict(self.terms), other.terms, sign))

    def scale(self, c):
        return _from_normal(self.nvars, scaled(self.terms, c))

    def __mul__(self, other):
        if not isinstance(other, SkewPolynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))
        return _from_normal(self.nvars, _kernel("mul", self.nvars, 0)(self.terms, other.terms))

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


# ---------------------------------------------------------------------------
# kernels unrolled per arity


@lru_cache(maxsize=None)
def _kernel(kind, nvars, index):
    """The kernel of _kernel_source(kind, nvars, index), compiled on the
    first call for the key.  Every caller passes the three arguments
    positionally, so one key is one cache entry."""
    from . import oddops  # here, not at the top: oddops imports this module
    namespace = {"oddops": oddops}
    exec(_kernel_source(kind, nvars, index), namespace)
    return namespace["kernel"]


def _kernel_source(kind, nvars, index):
    """Source of a function ``kernel`` that returns a fresh normal terms
    dict:

      "mul", index 0   kernel(left, right), the skew product;
      "dot", index r   kernel(terms), x_r times the terms;
      "dd", index i    kernel(terms), d_i of the terms, read from the
                       table oddops._dd_rows (grown by oddops._dd_grow)
                       as it stands when the kernel runs.

    Each kernel is the plain loop over exponent tuples (kept as the oracle
    in tests/reference_kernel.py) with the tuple work written out for nvars
    variables; it visits terms and inserts and deletes keys in the same
    order, so its dict has the same key order too.
    """
    a = ["a%d" % j for j in range(nvars)]
    if kind == "mul":
        b = ["b%d" % j for j in range(nvars)]
        suffix = "".join(
            "        s%d = %s\n" % (j, a[j + 1] if j == nvars - 2 else "s%d ^ %s" % (j + 1, a[j + 1]))
            for j in range(nvars - 2, -1, -1)
        )
        sign = " ^ ".join("b%d & s%d" % (j, j) for j in range(nvars - 1))
        return _MUL % {
            "a": _tuple(a),
            "b": _tuple(b),
            "row": ", ".join(b + ["cb"]),
            "suffix": suffix,
            "key": _tuple(["%s + %s" % ab for ab in zip(a, b)]),
            "coeff": "nca * cb if (%s) & 1 else ca * cb" % sign if sign else "ca * cb",
        }
    k = index - 1
    odd_head = "(%s) & 1" % " ^ ".join(a[:k]) if k else ""
    if kind == "dot":
        return _DOT % {
            "a": _tuple(a),
            "key": _tuple(a[:k] + [a[k] + " + 1"] + a[index:]),
            "coeff": "-c if %s else c" % odd_head if odd_head else "c",
        }
    return _DD % {
        "a": _tuple(a),
        "negate": "        if %s:\n            c = -c\n" % odd_head if odd_head else "",
        "p": a[k],
        "q": a[index],
        "key": _tuple(a[:k] + ["e0", "e1"] + a[index + 1 :]),
    }


def _tuple(exprs):
    return "(%s,)" % exprs[0] if len(exprs) == 1 else "(%s)" % ", ".join(exprs)


# miss-first accumulation, as in lincomb.add_scaled: the same terms and key
# order as get(m, 0) + c, and no 0 is stored since no entering c is 0
_MUL = """\
def kernel(left, right):
    rows = [(%(row)s) for %(b)s, cb in right.items()]
    d = {}
    get = d.get
    for %(a)s, ca in left.items():
        nca = -ca
%(suffix)s        for %(row)s in rows:
            m = %(key)s
            c = %(coeff)s
            v = get(m)
            if v is None:
                d[m] = c
            else:
                v += c
                if v:
                    d[m] = v
                else:
                    del d[m]
    return d
"""

# d_i(c x^A) = c (-1)^{|A_<i|} L d_i(B) R; see the oddops docstring
_DD = """\
def kernel(terms):
    rows, grow = oddops._dd_rows, oddops._dd_grow
    d = {}
    get = d.get
    for %(a)s, c in terms.items():
%(negate)s        try:
            row = rows[%(p)s][%(q)s]
        except IndexError:
            row = grow(%(p)s, %(q)s)
        for e0, e1, b in row:
            m = %(key)s
            v = get(m)
            if v is None:
                d[m] = c * b
            else:
                v += c * b
                if v:
                    d[m] = v
                else:
                    del d[m]
    return d
"""

# x_r sends distinct monomials to distinct monomials, so no two terms collide
_DOT = """\
def kernel(terms):
    return {%(key)s: %(coeff)s for %(a)s, c in terms.items()}
"""


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


def apply_w0(p):
    """Action of the longest element w_0 in one pass:

      w_0 (x^A) = (-1)^{C(a,2) |A| + sum_{p<q} A_p A_q} x^{reversed A}.

    Along a reduced word of w_0 each of its C(a,2) letters s_i contributes
    (-1)^{|A| + A_i A_{i+1}} for the exponents it swaps, and every pair of
    positions p < q is swapped exactly once (the inversions of w_0 are all
    the pairs), so the entries A_p and A_q meet once.  A_p A_q is odd only
    when both are, so with k odd exponents the sum is C(k,2) mod 2 and |A|
    is k mod 2: the sign depends on k alone.  w_0 permutes the monomials,
    so no two terms collide, and the terms keep their order, as they do
    through each s_i.
    """
    pairs = comb(p.nvars, 2)
    flip = [(pairs * k + comb(k, 2)) & 1 for k in range(p.nvars + 1)]
    return _from_normal(p.nvars, {m[::-1]: -c if flip[sum(e & 1 for e in m)] else c
                                  for m, c in p.terms.items()})


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
# text format: term ::= [integer '*'] ('x' index ['^' exp])*, normal order;
# every integer is combinat.read_natural's, and the zero polynomial is "0"


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
    if not s:
        raise ValueError("no terms; the zero polynomial is written 0")
    s = s.replace("- ", "-").replace("+ ", "+")
    # a sign starts a term unless it follows "^", where it signs an exponent
    tokens = re.sub(r"(?<!\^)([+-])", r" \1", s).split()
    pairs = []
    for k, tok in enumerate(tokens):
        if k and tok[0] not in "+-":
            raise ValueError("term %r does not start with + or -" % tok)
        coeff = -1 if tok[0] == "-" else 1
        tok = tok[1:] if tok[0] in "+-" else tok
        exps = [0] * nvars
        last_idx = 0
        for factor in tok.split("*"):
            if not factor:
                raise ValueError("empty factor in term %r" % tok)
            if factor[0] == "x":
                idx_s, caret, exp_s = factor[1:].partition("^")
                idx, exp = combinat.read_natural(idx_s), 1
                if caret:
                    try:
                        exp = combinat.read_natural(exp_s.removeprefix("-"))
                    except ValueError:
                        raise ValueError("malformed exponent %r in %r" % (exp_s, tok)) from None
                if not 1 <= idx <= nvars:
                    raise ValueError("variable x%d out of range" % idx)
                if idx <= last_idx:
                    raise ValueError("variables must be in strictly increasing order in %r" % tok)
                if exp_s.startswith("-"):
                    raise ValueError("negative exponent %s in %r" % (exp_s, tok))
                last_idx = idx
                exps[idx - 1] += exp
            else:
                coeff *= combinat.read_natural(factor)
        pairs.append((tuple(exps), coeff))
    return SkewPolynomial(nvars, collect(pairs))
