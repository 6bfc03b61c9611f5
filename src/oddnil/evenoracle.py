"""Classical (even) symmetric-function oracle over Z and Z/2.

Everything here is ordinary commutative algebra, implemented independently
of the skew machinery so it can serve as a mod-2 cross-check: commutative
polynomials as exponent-vector dicts, classical divided differences, even
elementary/complete/Schur polynomials, and GF(2) ranks of the even
Grassmannian quotient slices, computed on e-words.

The ``Gf2Poly`` constructor is the reduction mod 2: it keeps, with
coefficient 1, each monomial whose integer coefficient is odd, so
``oddsym.mod2_reduction`` hands it a skew polynomial's terms unchanged.
The keys must be exponent tuples: the constructor keeps them as given.
Of ``oddnil`` this module imports only ``combinat``.
"""

from functools import lru_cache
import itertools
import operator

from . import combinat


class Gf2Poly:
    """Commutative polynomial over Z/2 (dict of exponent vectors); built
    from integer terms, it keeps the monomials with odd coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {m: 1 for m, c in terms.items() if c & 1} if terms else {}

    def __eq__(self, other):
        return (
            isinstance(other, Gf2Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms)))

    def __repr__(self):
        """The terms as skewpoly.format_skew writes them, every coefficient
        1: "x1^2*x3 + x2 + 1", monomials in decreasing exponent order, and 0
        for no terms."""
        names = ("*".join("x%d" % j if e == 1 else "x%d^%d" % (j, e) for j, e in enumerate(m, 1) if e) or "1"
                 for m in sorted(self.terms, reverse=True))
        return " + ".join(names) or "0"

    def __add__(self, other):
        d = dict(self.terms)
        for m in other.terms:
            if m in d:
                del d[m]
            else:
                d[m] = 1
        out = Gf2Poly(self.nvars)
        out.terms = d
        return out

    def __mul__(self, other):
        d = {}
        add = operator.add
        for ma in self.terms:
            for mb in other.terms:
                m = tuple(map(add, ma, mb))
                if m in d:
                    del d[m]
                else:
                    d[m] = 1
        out = Gf2Poly(self.nvars)
        out.terms = d
        return out


# ---------------------------------------------------------------------------
# commutative polynomials over Z


def even_divided_difference(i, p, nvars):
    """Classical d_i(f) = (f - s_i f)/(x_i - x_{i+1}) on exponent dicts."""
    out = {}
    for m, c in p.items():
        a, b = m[i - 1], m[i]
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        sign = 1 if a > b else -1
        for t in range(hi - lo):
            e = list(m)
            e[i - 1] = hi - 1 - t
            e[i] = lo + t
            e = tuple(e)
            v = out.get(e, 0) + sign * c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def even_elementary(k, a):
    if k == 0:
        return {(0,) * a: 1}
    if k < 0 or k > a:
        return {}
    out = {}
    for subset in itertools.combinations(range(a), k):
        e = [0] * a
        for i in subset:
            e[i] = 1
        out[tuple(e)] = 1
    return out


def even_complete(k, a):
    if k == 0:
        return {(0,) * a: 1}
    if k < 0:
        return {}
    out = {}
    for multiset in itertools.combinations_with_replacement(range(a), k):
        e = [0] * a
        for i in multiset:
            e[i] += 1
        e = tuple(e)
        out[e] = out.get(e, 0) + 1
    return out


def even_schur(alpha, a):
    """Even Schur polynomial via the classical divided-difference chain
    applied to x^{delta + alpha}."""
    alpha = combinat.normalize_partition(alpha)
    if len(alpha) > a:
        return {}
    padded = list(alpha) + [0] * (a - len(alpha))
    exps = tuple(padded[j] + (a - 1 - j) for j in range(a))
    p = {exps: 1}
    w0 = combinat.longest_element(a)
    for i in reversed(combinat.canonical_reduced_word(w0)):
        p = even_divided_difference(i, p, a)
    return p


# ---------------------------------------------------------------------------
# even Grassmannian quotient ranks over GF(2)


@lru_cache(maxsize=None)
def _h_ewords(m, a):
    """h_m over GF(2) in a variables, as the set of sorted e-words (partitions
    with parts <= a) whose sum it is."""
    if m == 0:
        return frozenset([()])
    out = set()
    for k in range(1, min(a, m) + 1):
        # e_k h_{m-k}: insert the letter k into each sorted word
        out ^= {tuple(sorted(w + (k,), reverse=True)) for w in _h_ewords(m - k, a)}
    return frozenset(out)


def even_quotient_rank_gf2(a, n_param, halfdeg):
    """dim over GF(2) of degree-2*halfdeg slice of Lambda_a / <h_m : m > N-a>.

    Over GF(2), Lambda_a is the commutative polynomial ring Z/2[e_1..e_a],
    so the sorted e-words e_nu (nu a partition with parts <= a) are a basis
    and multiplying two of them is the sorted union of their letters.  A
    two-sided generator e_lam h_m e_mu is then e_nu h_m with nu = lam + mu,
    and every nu of size halfdeg - m arises (mu empty), so the slice of the
    ideal is spanned by e_nu h_m with |nu| + m = halfdeg and m > N - a.  The
    relation sum_k (-1)^k e_k h_{m-k} = 0 gives, mod 2,
    h_m = sum_{k=1}^{min(a,m)} e_k h_{m-k}, so h_m is a memoized set of
    e-words (_h_ewords), and e_nu h_m is that set with nu merged into each
    word.  Each spanning vector is an integer bitset over the basis, and the
    rank comes from GF(2) elimination on the bitsets.
    """
    ambient = combinat.partitions_of(halfdeg, maxpart=a)
    bit = {nu: 1 << i for i, nu in enumerate(ambient)}
    pivots = {}
    for m in range(n_param - a + 1, halfdeg + 1):
        hm = _h_ewords(m, a)
        for nu in combinat.partitions_of(halfdeg - m, maxpart=a):
            row = 0
            for w in hm:
                row ^= bit[tuple(sorted(nu + w, reverse=True))]
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
    return len(ambient) - len(pivots)
