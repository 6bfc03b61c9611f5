"""Sparse integer combinations: dicts from keys to nonzero ints.

Skew polynomials (keys are exponent tuples), ONH_a elements (keys are
words) and q-Laurent polynomials (keys are exponents) all store a finite
integer combination this way.  Every function here keeps the one invariant
the three classes rely on: no key is ever stored with coefficient 0.

add_scaled, like the skew-product and d_i kernels of skewpoly, accumulates
miss-first: it reads d.get(k), stores the product at once when the key is
absent, and only otherwise adds, storing the sum or deleting the key when
the sum is zero.  A missing key is inserted at the same place as by the
add-then-test loop, get(k, 0) + c * v, and a cancelled key is deleted in
the same step, so a later reinsertion goes to the end as before: the
terms and their key order are the loop's.  The stored product is never 0,
because c and every stored coefficient are nonzero.
"""

from operator import index


def coefficient(c, key):
    """c as an int, through operator.index; a non-integer is a ValueError,
    never truncated."""
    try:
        return index(c)
    except TypeError:
        raise ValueError("coefficient %r of %r is not an integer" % (c, key)) from None


def exponent(e):
    """e as an int, through operator.index; a non-integer is a ValueError."""
    try:
        return index(e)
    except TypeError:
        raise ValueError("exponent %r is not an integer" % (e,)) from None


def exponents(mono):
    """mono as a tuple of ints, through one operator.index map; a
    non-integer entry is a ValueError."""
    try:
        return tuple(map(index, mono))
    except TypeError:
        raise ValueError("exponent vector %r has a non-integer entry" % (mono,)) from None


def add_scaled(d, terms, c):
    """d += c * terms in place, for a nonzero int c; a key whose sum reaches
    zero is deleted.  Returns d."""
    for k, v in terms.items():
        s = d.get(k)
        if s is None:
            d[k] = c * v
        else:
            s += c * v
            if s:
                d[k] = s
            else:
                del d[k]
    return d


def collect(pairs):
    """The combination sum of c * key over the (key, c) pairs; keys may
    repeat and coefficients may be 0."""
    d = {}
    for k, c in pairs:
        s = d.get(k, 0) + c
        if s:
            d[k] = s
        else:
            d.pop(k, None)
    return d


def scaled(terms, c):
    """c * terms as a new dict."""
    return {k: c * v for k, v in terms.items()} if c else {}


def convolve(f, g):
    """The product of two combinations whose keys combine by +: exponents of
    q add, words concatenate."""
    d = {}
    for ka, ca in f.items():
        for kb, cb in g.items():
            k = ka + kb
            s = d.get(k, 0) + ca * cb
            if s:
                d[k] = s
            else:
                del d[k]
    return d


def format_terms(pairs, name):
    """Render (key, coefficient) pairs, in the order given, as "a + 2*b - c".
    A key whose name is empty (the unit) is written as its bare magnitude;
    no pairs give "0"."""
    parts = []
    for k, c in pairs:
        mag = abs(c)
        body = name(k)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%d*%s" % (mag, body)
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append("-" + body if c < 0 else body)
    return " ".join(parts) if parts else "0"
