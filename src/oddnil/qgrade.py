"""Integer Laurent polynomials in q and balanced q-combinatorics.

All graded-rank bookkeeping in this package runs through this module.
Conventions: the balanced q-integer is [n] = q^{n-1} + q^{n-3} + ... + q^{1-n},
[n]! = [n][n-1]...[1], and the balanced q-binomial [n choose k] is the exact
quotient [n]!/([k]![n-k]!).  Coefficients are arbitrary-precision ints and
exponents are stored sparsely; nothing is ever truncated.
"""

from . import combinat
from .lincomb import add_scaled, coefficient, collect, convolve, exponent, format_terms, scaled


class QLaurent:
    """A Laurent polynomial in q with integer coefficients.

    Stored as a map from exponent to nonzero coefficient.  Values are
    immutable by convention: no method mutates self.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = coefficient(c, e)
                if c:
                    d[exponent(e)] = c
        self.coeffs = d

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def q_power(cls, e):
        return cls({e: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return QLaurent(scaled(self.coeffs, -1))

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return QLaurent(add_scaled(dict(self.coeffs), other.coeffs, sign))

    def __mul__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return QLaurent(convolve(self.coeffs, other.coeffs))

    def is_bar_invariant(self):
        return self.coeffs == {-e: c for e, c in self.coeffs.items()}

    def at_one(self):
        """Specialize q = 1."""
        return sum(self.coeffs.values())

    def exponent_multiset(self):
        """Sorted list of exponents, each repeated coefficient-many times.

        Only meaningful for nonnegative coefficients.
        """
        out = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if c < 0:
                raise ValueError("exponent multiset needs nonnegative coefficients")
            out.extend([e] * c)
        return out

    def exact_div(self, other):
        """Exact quotient self/other; raises if the remainder is nonzero.

        An exact quotient has no exponent below min(self) - min(other), so
        the long division stops there instead of running down forever.
        """
        if not other:
            raise ZeroDivisionError("division of QLaurent by zero")
        rem = dict(self.coeffs)
        quot = {}
        top = max(other.coeffs)
        lead = other.coeffs[top]
        low = min(rem, default=0) - min(other.coeffs)
        while rem:
            e = max(rem)
            qe = e - top
            qc, r = divmod(rem[e], lead)
            if r or qe < low:
                raise ArithmeticError("nonzero remainder in exact QLaurent division")
            quot[qe] = qc
            add_scaled(rem, convolve({qe: qc}, other.coeffs), -1)
        return QLaurent(quot)

    def __str__(self):
        return format_qlaurent(self)

    def __repr__(self):
        return "QLaurent(%s)" % format_qlaurent(self)


def format_qlaurent(p):
    """Render as e.g. "q^4 + q^2 + 2 + q^-2 + q^-4" (descending exponents)."""
    return format_terms(sorted(p.coeffs.items(), reverse=True), _q_power_name)


def _q_power_name(e):
    if e == 0:
        return ""
    return "q" if e == 1 else "q^%d" % e


def q_int(n):
    """Balanced q-integer [n] = sum_{j=0}^{n-1} q^{n-1-2j}; [0] = 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    return QLaurent({n - 1 - 2 * j: 1 for j in range(n)})


def q_factorial(n):
    """[n]! = [n][n-1]...[1]."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = QLaurent.one()
    for j in range(1, n + 1):
        out = out * q_int(j)
    return out


def q_binomial(n, k):
    """Balanced q-binomial, computed by exact polynomial division."""
    if not 0 <= k <= n:
        raise ValueError("q_binomial needs 0 <= k <= n")
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


def q_cardinality_box(a, b):
    """Sum of q^{2|alpha| - ab} over partitions alpha in an a x b box."""
    return QLaurent(collect((2 * sum(alpha) - a * b, 1) for alpha in combinat.partitions_in_box(a, b)))
