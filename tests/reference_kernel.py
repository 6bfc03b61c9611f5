"""The straightforward kernel that the fast paths replaced, kept as a test
oracle.

Each function is the earlier method or function body, unchanged except
that calls between them go to the versions here (so ``mul`` stands in for
``SkewPolynomial.__mul__``).  They build every intermediate result as a
fresh polynomial through ``SkewPolynomial.__add__`` and ``scale``.  The
memoized images of a single monomial (``oddops._dd_mono`` and
``oddops._ddnj_mono``) are shared with the library, not copied.
"""

from oddnil import oddops
from oddnil.skewpoly import SkewPolynomial


def mul(self, other):
    """SkewPolynomial.__mul__: per-term suffix sums, sign by a dot product."""
    if isinstance(other, int):
        return self.scale(other)
    if self.nvars != other.nvars:
        raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))
    d = {}
    for ma, ca in self.terms.items():
        # suffix[j] = sum_{i > j} A_i, 0-based j
        suffix = [0] * (self.nvars + 1)
        for j in range(self.nvars - 1, -1, -1):
            suffix[j] = suffix[j + 1] + ma[j]
        for mb, cb in other.terms.items():
            sign_exp = sum(mb[j] * suffix[j + 1] for j in range(self.nvars) if mb[j])
            m = tuple(ma[j] + mb[j] for j in range(self.nvars))
            c = ca * cb if sign_exp % 2 == 0 else -ca * cb
            v = d.get(m, 0) + c
            if v:
                d[m] = v
            else:
                d.pop(m, None)
    out = SkewPolynomial.__new__(SkewPolynomial)
    out.nvars = self.nvars
    out.terms = d
    return out


def divided_difference(i, p):
    """The odd divided difference d_i applied to p."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("operator index %d out of range for %d variables" % (i, p.nvars))
    out = SkewPolynomial.zero(p.nvars)
    for mono, c in p.terms.items():
        out = out + oddops._dd_mono(i, p.nvars, mono).scale(c)
    return out


def dd_nonadjacent(i, j, p):
    """d_{i,j} for the (possibly non-adjacent) transposition of i and j."""
    if i == j:
        raise ValueError("d_{i,j} needs i != j")
    if i > j:
        i, j = j, i
    if not (1 <= i < j <= p.nvars):
        raise ValueError("indices (%d, %d) out of range" % (i, j))
    out = SkewPolynomial.zero(p.nvars)
    for mono, c in p.terms.items():
        out = out + oddops._ddnj_mono(i, j, p.nvars, mono).scale(c)
    return out


def apply_word(word, p):
    """Apply a word to a polynomial; rightmost letter acts first."""
    out = p
    for l in reversed(word):
        if not out.terms:
            return out
        if l > 0:
            out = mul(SkewPolynomial.variable(out.nvars, l), out)
        else:
            out = divided_difference(-l, out)
    return out


def evaluate(self, p):
    """OnhElement.evaluate."""
    if p.nvars != self.strands:
        raise ValueError("polynomial in %d variables, element on %d strands" % (p.nvars, self.strands))
    out = SkewPolynomial.zero(self.strands)
    for w, c in self.combo.items():
        out = out + apply_word(w, p).scale(c)
    return out
