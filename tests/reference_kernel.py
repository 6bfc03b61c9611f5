"""The straightforward kernel that the fast paths replaced, kept as a test
oracle.

Each function is the earlier method or function body, unchanged except
that calls between them go to the versions here (so ``mul`` stands in for
``SkewPolynomial.__mul__``).  They build every intermediate result as a
fresh polynomial through ``SkewPolynomial.__add__`` and ``scale``.  The
per-class add and multiply loops of ``SkewPolynomial``, ``QLaurent`` and
``OnhElement``, the collision-handling ``apply_simple_transposition`` and
the rebuild-per-step ``expand_in_elementary`` that ``lincomb`` replaced
are kept the same way; it is the greedy loop, which takes the residual's
lex-leading monomial at every step, that the one sweep over partition
shapes replaced, and the ``elementary_word_value`` it calls is the left
fold that multiplies each word's letters out afresh.  ``_dd_mono`` is the
recursive d_i on a monomial that the closed form in ``oddops`` replaced:
it peels the first variable block off the left and forms two skew
products per step, with its own memo
``_dd_cache``, so a wrong closed form cannot hide behind a library image.
``_dd_mono_closed`` and ``divided_difference_closed`` are the closed form
as ``oddops`` first had it, with a memo of each (i, monomial) image
(``_dd_closed_cache``) that ``divided_difference`` now writes straight
into its result instead; they read the closed form ``oddops._dd_block``,
not the table of its values that the kernels read.
``_ddnj_mono`` and ``dd_nonadjacent`` are the non-adjacent d_{i,j}, which
the library no longer has: the recursion peels one letter per level with no
memo.  ``elementary``, ``complete`` and ``elementary_in_fewer_vars``
multiply the x~ factors of each index list out one skew product at a time,
as ``oddsym`` did before it wrote each list's monomial and sign down
directly.  ``mul_loop``, ``left_dot_loop`` and ``divided_difference_loop``
are the generic loops over exponent tuples that ``skewpoly._kernel``
unrolls per arity: the product with its parity masks, x_r times a
polynomial, and the memo-free closed-form d_i.  ``canonical_reduced_word``
is the descent-stripping loop that the memoized recursion in ``combinat``
replaced, and ``apply_permutation`` and ``apply_w0`` act one s_i per
letter of that word, as ``skewpoly`` did before w_0 acted in one pass; as
there, the s_i is the library's ``skewpoly.apply_simple_transposition``,
which a test compares with the collision-handling one here.
"""

import itertools
from operator import add

from oddnil import combinat, oddops, skewpoly
from oddnil.lincomb import add_scaled
from oddnil.oddsym import NotOddSymmetricError, x_tilde
from oddnil.onh import OnhElement
from oddnil.qgrade import QLaurent
from oddnil.skewpoly import SkewPolynomial, _from_normal


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


def mul_loop(self, other):
    """SkewPolynomial.__mul__: the sign is the parity of
    popcount(S(A) & P(B)), from the two masks above."""
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


def left_dot_loop(r, p):
    """oddops.apply_letters((r,), p): x_r x^A = (-1)^{A_1+...+A_{r-1}} x^{A+e_r}."""
    if not 1 <= r <= p.nvars:
        raise ValueError("variable index %d out of range" % r)
    k = r - 1
    d = {}
    for m, c in p.terms.items():
        d[m[:k] + (m[k] + 1,) + m[r:]] = -c if sum(m[:k]) & 1 else c
    return _from_normal(p.nvars, d)


def divided_difference_loop(i, p):
    """oddops.divided_difference: each term c x^A adds
    c (-1)^{|A_<i|} L d_i(B) R to the result."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("operator index %d out of range for %d variables" % (i, p.nvars))
    d = {}
    for mono, c in p.terms.items():
        head, tail = mono[: i - 1], mono[i + 1 :]
        if sum(head) & 1:
            c = -c
        for e, b in oddops._dd_block(mono[i - 1], mono[i]):
            key = head + e + tail
            s = d.get(key, 0) + c * b
            if s:
                d[key] = s
            else:
                del d[key]
    return _from_normal(p.nvars, d)


_dd_cache = {}


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
    """oddops._dd_mono: peel the first nonzero block, recurse on the rest."""
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
            out = mul(head, restpoly)
        else:
            out = SkewPolynomial.zero(nvars)
        # s_i(x_var^m) = (-1)^m x_{s_i(var)}^m
        svar = i + 1 if var == i else (i if var == i + 1 else var)
        se = [0] * nvars
        se[svar - 1] = m
        shead = SkewPolynomial(nvars, {tuple(se): 1 if m % 2 == 0 else -1})
        out = out + mul(shead, _dd_mono(i, nvars, rest))
    else:
        out = head if head is not None else SkewPolynomial.zero(nvars)
    _dd_cache[key] = out
    return out


def divided_difference(i, p):
    """The odd divided difference d_i applied to p."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("operator index %d out of range for %d variables" % (i, p.nvars))
    out = SkewPolynomial.zero(p.nvars)
    for mono, c in p.terms.items():
        out = out + _dd_mono(i, p.nvars, mono).scale(c)
    return out


_dd_closed_cache = {}


def _dd_mono_closed(i, nvars, mono):
    """d_i of the monomial x^mono (a tuple), memoized per (i, mono)."""
    key = (i, mono)
    hit = _dd_closed_cache.get(key)
    if hit is not None:
        return hit
    head, tail = mono[: i - 1], mono[i + 1 :]
    block = oddops._dd_block(mono[i - 1], mono[i])
    if sum(head) & 1:
        terms = {head + e + tail: -c for e, c in block}
    else:
        terms = {head + e + tail: c for e, c in block}
    out = _dd_closed_cache[key] = _from_normal(nvars, terms)
    return out


def divided_difference_closed(i, p):
    """The odd divided difference d_i applied to p."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("operator index %d out of range for %d variables" % (i, p.nvars))
    d = {}
    for mono, c in p.terms.items():
        add_scaled(d, _dd_mono_closed(i, p.nvars, mono).terms, c)
    return _from_normal(p.nvars, d)


def _ddnj_mono(i, j, nvars, mono):
    """d_{i,j} on a monomial, peeling one letter at a time."""
    for j0 in range(nvars):
        if mono[j0]:
            break
    else:
        return SkewPolynomial.zero(nvars)
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
            out = out - left_dot_loop(svar, tail)
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
        out = out + _ddnj_mono(i, j, p.nvars, mono).scale(c)
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


def skew_add(self, other):
    """SkewPolynomial.__add__."""
    if isinstance(other, int):
        other = SkewPolynomial.constant(self.nvars, other)
    if self.nvars != other.nvars:
        raise ValueError("variable-count mismatch: %d vs %d" % (self.nvars, other.nvars))
    d = dict(self.terms)
    for m, c in other.terms.items():
        v = d.get(m, 0) + c
        if v:
            d[m] = v
        else:
            d.pop(m, None)
    return _from_normal(self.nvars, d)


def apply_simple_transposition(i, p):
    """Action of s_i: x_i -> -x_{i+1}, x_{i+1} -> -x_i, x_j -> -x_j."""
    if not 1 <= i <= p.nvars - 1:
        raise ValueError("transposition index %d out of range for %d variables" % (i, p.nvars))
    d = {}
    for m, c in p.terms.items():
        sign_exp = sum(m) + m[i - 1] * m[i]
        sm = list(m)
        sm[i - 1], sm[i] = sm[i], sm[i - 1]
        sm = tuple(sm)
        v = d.get(sm, 0) + (c if sign_exp % 2 == 0 else -c)
        if v:
            d[sm] = v
        else:
            d.pop(sm, None)
    return _from_normal(p.nvars, d)


def canonical_reduced_word(w):
    """combinat.canonical_reduced_word."""
    v = list(w)
    letters = []
    while True:
        for i in range(len(v) - 1):
            if v[i] > v[i + 1]:
                letters.append(i + 1)
                v[i], v[i + 1] = v[i + 1], v[i]
                break
        else:
            break
    letters.reverse()
    return tuple(letters)


def apply_permutation(w, p):
    """skewpoly.apply_permutation: the action of w along its canonical
    reduced word (a genuine group action)."""
    out = p
    for j in reversed(canonical_reduced_word(w)):
        out = skewpoly.apply_simple_transposition(j, out)
    return out


def apply_w0(p):
    """skewpoly.apply_w0."""
    return apply_permutation(combinat.longest_element(p.nvars), p)


def elementary_word_value(word, a):
    """oddsym.elementary_word_value: the letters multiplied out one at a
    time, with no value shared between words."""
    out = SkewPolynomial.one(a)
    for k in word:
        out = mul(out, elementary(k, a))
    return out


def expand_in_elementary(f):
    """oddsym.expand_in_elementary."""
    a = f.nvars
    out = {}
    residual = f
    while residual:
        exps, c = residual.lead()
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
        q, r = divmod(c, lead_c)
        if r:
            raise NotOddSymmetricError("non-integral elementary expansion")
        out[lam] = out.get(lam, 0) + q
        residual = skew_add(residual, word_poly.scale(-q))
    return {lam: c for lam, c in out.items() if c}


def q_add(self, other):
    """QLaurent.__add__."""
    if isinstance(other, int):
        other = QLaurent({0: other})
    d = dict(self.coeffs)
    for e, c in other.coeffs.items():
        v = d.get(e, 0) + c
        if v:
            d[e] = v
        else:
            d.pop(e, None)
    return QLaurent(d)


def q_neg(self):
    """QLaurent.__neg__."""
    return QLaurent({e: -c for e, c in self.coeffs.items()})


def q_mul(self, other):
    """QLaurent.__mul__."""
    if isinstance(other, int):
        return QLaurent({e: c * other for e, c in self.coeffs.items()})
    d = {}
    for e1, c1 in self.coeffs.items():
        for e2, c2 in other.coeffs.items():
            e = e1 + e2
            v = d.get(e, 0) + c1 * c2
            if v:
                d[e] = v
            else:
                d.pop(e, None)
    return QLaurent(d)


def q_exact_div(self, other):
    """QLaurent.exact_div."""
    if not other:
        raise ZeroDivisionError("division of QLaurent by zero")
    rem = dict(self.coeffs)
    quot = {}
    top = max(other.coeffs)
    lead = other.coeffs[top]
    while rem:
        e = max(rem)
        qe = e - top
        qc, r = divmod(rem[e], lead)
        if r:
            raise ArithmeticError("nonzero remainder in exact QLaurent division")
        quot[qe] = qc
        for e2, c2 in other.coeffs.items():
            k = qe + e2
            v = rem.get(k, 0) - qc * c2
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return QLaurent(quot)


def element_add(self, other):
    """OnhElement.__add__."""
    if self.strands != other.strands:
        raise ValueError("strand mismatch")
    d = dict(self.combo)
    for w, c in other.combo.items():
        v = d.get(w, 0) + c
        if v:
            d[w] = v
        else:
            d.pop(w, None)
    out = OnhElement.__new__(OnhElement)
    out.strands = self.strands
    out.combo = d
    return out


def element_scale(self, c):
    """OnhElement.scale."""
    if c == 0:
        return OnhElement.zero(self.strands)
    out = OnhElement.__new__(OnhElement)
    out.strands = self.strands
    out.combo = {w: c * v for w, v in self.combo.items()}
    return out


def element_mul(self, other):
    """OnhElement.__mul__: lazy concatenation of words."""
    if isinstance(other, int):
        return element_scale(self, other)
    if self.strands != other.strands:
        raise ValueError("strand mismatch: %d vs %d" % (self.strands, other.strands))
    d = {}
    for wa, ca in self.combo.items():
        for wb, cb in other.combo.items():
            w = wa + wb
            v = d.get(w, 0) + ca * cb
            if v:
                d[w] = v
            else:
                d.pop(w, None)
    out = OnhElement.__new__(OnhElement)
    out.strands = self.strands
    out.combo = d
    return out


def _x_tilde_sum(a, index_lists):
    """oddsym._x_tilde_sum: the products x~_{i_1} ... x~_{i_k}, one factor
    at a time."""
    out = SkewPolynomial.zero(a)
    for indices in index_lists:
        t = SkewPolynomial.one(a)
        for i in indices:
            t = mul(t, x_tilde(a, i))
        out = skew_add(out, t)
    return out


def elementary(k, a):
    """oddsym.elementary."""
    if k < 0:
        return SkewPolynomial.zero(a)
    return _x_tilde_sum(a, itertools.combinations(range(1, a + 1), k))


def complete(k, a):
    """oddsym.complete."""
    if k < 0:
        return SkewPolynomial.zero(a)
    return _x_tilde_sum(a, itertools.combinations_with_replacement(range(1, a + 1), k))


def elementary_in_fewer_vars(k, a):
    """oddsym.elementary_in_fewer_vars."""
    if k < 0:
        return SkewPolynomial.zero(a)
    return _x_tilde_sum(a, itertools.combinations(range(1, a), k))
