"""Odd divided difference operators and odd symmetrization.

The adjacent operator d_i is degree -2 and satisfies the twisted Leibniz
rule d_i(fg) = d_i(f) g + s_i(f) d_i(g), with d_i(x_j) = 1 for j = i, i+1
and 0 otherwise.  On pure powers,

    d_i(x_i^m)     = sum_{j=0}^{m-1} (-1)^j x_{i+1}^j x_i^{m-1-j}
    d_i(x_{i+1}^m) = sum_{j=0}^{m-1} (-1)^j x_i^j x_{i+1}^{m-1-j}

and general monomials are handled by peeling variable blocks off the left.
A word of operator letters composes right-to-left: the leftmost letter acts
last.  D_a is the fixed word [1, 2,1, 3,2,1, ..., a-1,...,1]; every sign
downstream depends on this exact word, so it is a stored constant and is
never re-derived from the permutation.

Evaluation is memoized per (operator, monomial).  The memo grows during
evaluation, one entry per miss, until clear_caches empties it; a stored
image is shared by every later caller, so callers copy its terms and never
mutate it.
"""

from .lincomb import add_scaled
from .skewpoly import (
    SkewPolynomial,
    _from_normal,
    apply_permutation,
    apply_simple_transposition,
    apply_w0,
    left_dot,
    staircase,
)
from . import combinat

_dd_cache = {}
_ddnj_cache = {}


def _power_formula(nvars, lo, hi, m):
    """sum_{j} (-1)^j x_lo^j x_hi^{m-1-j}, stored in normal order.

    The written product x_lo^j x_hi^{m-1-j} needs the reordering sign
    (-1)^{j (m-1-j)} when lo > hi.
    """
    d = {}
    for j in range(m):
        e = [0] * nvars
        e[lo - 1] = j
        e[hi - 1] = m - 1 - j
        sign_exp = j + j * (m - 1 - j) if lo > hi else j
        d[tuple(e)] = -1 if sign_exp & 1 else 1
    return _from_normal(nvars, d)


def _dd_mono(i, nvars, mono):
    key = (i, mono)
    hit = _dd_cache.get(key)
    if hit is not None:
        return hit
    # first nonzero block
    for j0 in range(nvars):
        if mono[j0]:
            break
    else:
        out = SkewPolynomial.zero(nvars)
        _dd_cache[key] = out
        return out
    m = mono[j0]
    rest = list(mono)
    rest[j0] = 0
    rest = tuple(rest)
    var = j0 + 1
    if var == i:
        head = _power_formula(nvars, i + 1, i, m)
    elif var == i + 1:
        head = _power_formula(nvars, i, i + 1, m)
    else:
        head = None
    if any(rest):
        restpoly = SkewPolynomial.monomial(nvars, rest)
        if head is not None:
            out = head * restpoly
        else:
            out = SkewPolynomial.zero(nvars)
        # s_i(x_var^m) = (-1)^m x_{s_i(var)}^m
        svar = i + 1 if var == i else (i if var == i + 1 else var)
        se = [0] * nvars
        se[svar - 1] = m
        shead = SkewPolynomial.monomial(nvars, se, 1 if m % 2 == 0 else -1)
        out = out + shead * _dd_mono(i, nvars, rest)
    else:
        out = head if head is not None else SkewPolynomial.zero(nvars)
    _dd_cache[key] = out
    return out


def divided_difference(i, p):
    """The odd divided difference d_i applied to p."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("operator index %d out of range for %d variables" % (i, p.nvars))
    d = {}
    for mono, c in p.terms.items():
        add_scaled(d, _dd_mono(i, p.nvars, mono).terms, c)
    return _from_normal(p.nvars, d)


def _ddnj_mono(i, j, nvars, mono):
    """d_{i,j} on a monomial, peeling one letter at a time."""
    key = (i, j, mono)
    hit = _ddnj_cache.get(key)
    if hit is not None:
        return hit
    for j0 in range(nvars):
        if mono[j0]:
            break
    else:
        out = SkewPolynomial.zero(nvars)
        _ddnj_cache[key] = out
        return out
    var = j0 + 1
    rest = list(mono)
    rest[j0] -= 1
    rest = tuple(rest)
    out = SkewPolynomial.monomial(nvars, rest) if var in (i, j) else SkewPolynomial.zero(nvars)
    # s_{i,j}(x_var) * d_{i,j}(rest)
    if any(rest):
        tail = _ddnj_mono(i, j, nvars, rest)
        if tail:
            svar = j if var == i else (i if var == j else var)
            out = out - left_dot(svar, tail)
    _ddnj_cache[key] = out
    return out


def dd_nonadjacent(i, j, p):
    """d_{i,j} for the (possibly non-adjacent) transposition of i and j."""
    if i == j:
        raise ValueError("d_{i,j} needs i != j")
    if i > j:
        i, j = j, i
    if not (1 <= i < j <= p.nvars):
        raise ValueError("indices (%d, %d) out of range" % (i, j))
    d = {}
    for mono, c in p.terms.items():
        add_scaled(d, _ddnj_mono(i, j, p.nvars, mono).terms, c)
    return _from_normal(p.nvars, d)


def apply_transposition(i, j, p):
    """Signed action of the (possibly non-adjacent) transposition s_{i,j}."""
    return apply_permutation(combinat.transposition(i, j, p.nvars), p)


def dd_word(word, p):
    """Apply a word of adjacent operators; the leftmost letter acts last."""
    out = p
    for i in reversed(word):
        out = divided_difference(i, out)
    return out


def da_word(a):
    """The fixed word for D_a: [1] + [2,1] + ... + [a-1, ..., 1]."""
    word = []
    for k in range(1, a):
        word.extend(range(k, 0, -1))
    return tuple(word)


def longest_dd(a, p):
    """D_a applied to p."""
    if p.nvars != a:
        raise ValueError("longest_dd(%d, .) needs a polynomial in %d variables" % (a, a))
    return dd_word(da_word(a), p)


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
            out = divided_difference(letter, out)
        else:
            out = apply_simple_transposition(letter, out)
    return out


def odd_symmetrize(p):
    """S(f) = (-1)^{binom(a,3)} w_0 . D_a(f x^{delta_a}); projects onto the
    odd symmetric subring."""
    a = p.nvars
    sign = -1 if _binom3(a) % 2 else 1
    return apply_w0(longest_dd(a, p * staircase(a))).scale(sign)


def _binom3(a):
    return a * (a - 1) * (a - 2) // 6


def clear_caches():
    """Empty the d_i memos here and every lru_cache in the library, so that
    the next computation starts cold."""
    # imported here: oddsym and onh import this module
    from . import evenoracle, oddsym, onh

    _dd_cache.clear()
    _ddnj_cache.clear()
    for mod in (combinat, evenoracle, oddsym, onh):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
