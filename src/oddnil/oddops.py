"""Odd divided difference operators and odd symmetrization.

The adjacent operator d_i is degree -2 and satisfies the twisted Leibniz
rule d_i(fg) = d_i(f) g + s_i(f) d_i(g), with d_i(x_j) = 1 for j = i, i+1
and 0 otherwise.  On pure powers,

    d_i(x_i^m)     = sum_{j=0}^{m-1} (-1)^j x_{i+1}^j x_i^{m-1-j}
    d_i(x_{i+1}^m) = sum_{j=0}^{m-1} (-1)^j x_i^j x_{i+1}^{m-1-j}

A monomial is x^A = L B R with L = x^{A_<i}, B = x_i^p x_{i+1}^q
(p = A_i, q = A_{i+1}) and R = x^{A_>i+1}.  Since d_i kills every x_j with
j != i, i+1 and s_i sends it to -x_j, the Leibniz rule gives d_i(L) = 0,
s_i(L) = (-1)^{|A_<i|} L and d_i(R) = 0, so

    d_i(x^A) = (-1)^{A_1 + ... + A_{i-1}} L d_i(B) R

in closed form.  d_i(B) is d_1(x_1^p x_2^q) shifted to x_i, x_{i+1}; its
terms sit between L and R in normal order, so no factor needs reordering.
The kernel reads d_1(x_1^p x_2^q) as _dd_rows[p][q], a list of lists of
(e_1, e_2, c) triples built from the closed form _dd_block: the table
starts empty and _dd_grow extends it when a monomial's (p, q) is past its
end, so it holds a row of p only once some monomial has had that exponent
at x_i.  divided_difference writes each monomial's image straight into
the result, with no per-monomial memo, through a loop unrolled once per
(number of variables, i) (skewpoly._kernel).

A word of operator letters is a tuple of nonzero ints: +r is the dot x_r
(left multiplication), -r is the crossing d_r.  It composes right-to-left:
the leftmost letter acts last.  A word on n variables becomes its program
once (program, cached per (word, n)): the letters' kernels in the order
they act, each looked up and range-checked once; a letter out of range
becomes a kernel that raises, so it raises only when it is reached.
run_letters is the one loop over a program, on terms dicts: each kernel
takes the dict the one before gave, and the loop stops at an empty dict.
A d_i kernel reads _dd_rows and _dd_grow when it runs, not when the
program is built, so a table swapped in later is the one used.
apply_letters runs a word's program on a polynomial and wraps the last
dict once, so a word of k letters builds one polynomial, not k;
divided_difference is its one-letter word (-i,), and onh.apply_word's
memo misses run the same programs.  D_a is the fixed crossing word
[d_1, d_2 d_1, d_3 d_2 d_1, ..., d_{a-1} ... d_1]; every sign downstream
depends on this exact word, so it is a stored constant and is never
re-derived from the permutation.
"""

import sys
from functools import lru_cache
from math import comb

from .lincomb import collect
from .skewpoly import _from_normal, _kernel, apply_w0, staircase
from . import combinat

# always empty: benchmarks/tracer.py reports its length as oddops.dd.memo_entries
_dd_cache = {}

# _dd_rows[p][q] is _dd_block(p, q) as (e_1, e_2, c) triples; see _dd_grow
_dd_rows = []


def _dd_block(p, q):
    """d_1(x_1^p x_2^q) as ((e_1, e_2), c) pairs in normal order, c != 0.

    It is d_1(x_1^p) x_2^q + (-1)^p x_2^p d_1(x_2^q).  The written product
    x_2^j x_1^{p-1-j} of the first power formula needs the reordering sign
    (-1)^{j (p-1-j)}, and x_2^p x_1^k in the second needs (-1)^{p k}.
    """
    pairs = [((p - 1 - j, j + q), -1 if (j + j * (p - 1 - j)) & 1 else 1) for j in range(p)]
    pairs += [((k, p + q - 1 - k), -1 if (p + k + p * k) & 1 else 1) for k in range(q)]
    return tuple(collect(pairs).items())


def _dd_grow(p, q):
    """Extend _dd_rows so that it holds _dd_rows[p][q], and return that row.
    Rows are added empty up to p, and row p is filled up to q; what is
    already there stays."""
    while len(_dd_rows) <= p:
        _dd_rows.append([])
    row = _dd_rows[p]
    row.extend(tuple((e1, e2, c) for (e1, e2), c in _dd_block(p, j)) for j in range(len(row), q + 1))
    return row[q]


def divided_difference(i, p):
    """The odd divided difference d_i applied to p: each term c x^A adds
    c (-1)^{|A_<i|} L d_i(B) R (see above) to the result.  As for any
    word, a zero p comes back as itself and i's upper bound goes unchecked."""
    if i < 1:  # the letter -i would be a dot, or no letter
        raise ValueError("operator index %d out of range for %d variables" % (i, p.nvars))
    return apply_letters((-i,), p)


def apply_letters(word, p):
    """Apply a word of dots (+r) and crossings (-r) to p, the rightmost
    letter first; once p is zero the later letters are not applied.

    The loop runs on terms dicts (run_letters), and the result is wrapped
    once, at the end (p itself when no letter acts)."""
    d = run_letters(program(word, p.nvars), p.terms)
    return p if d is p.terms else _from_normal(p.nvars, d)


def run_letters(steps, d):
    """The one letter loop: each kernel of a program takes the previous
    kernel's terms dict, and the loop stops once a dict is empty."""
    for kernel in steps:
        if not d:
            break
        d = kernel(d)
    return d


@lru_cache(maxsize=None)
def program(word, n):
    """The kernels of word's letters on n variables, in the order they act,
    each resolved once per (word, n).  A letter out of range becomes a
    kernel that raises when run_letters reaches it."""
    return tuple(_step(l, n) for l in reversed(word))


def _step(l, n):
    """The kernel of the letter l on n variables; see program."""
    if 0 < l <= n:
        return _kernel("dot", n, l)
    if 0 < -l < n:
        return _kernel("dd", n, -l)
    if l > 0:
        return _raiser("variable index %d out of range" % l)
    return _raiser("operator index %d out of range for %d variables" % (-l, n))


def _raiser(message):
    def kernel(d):
        raise ValueError(message)
    return kernel


def d_word(w):
    """The crossing word of d_w: w's canonical reduced word, each letter
    r read as the crossing -r."""
    return tuple(-l for l in combinat.canonical_reduced_word(w))


def da_word(a):
    """The fixed crossing word of D_a: [-1] + [-2,-1] + ... + [-(a-1), ..., -1]."""
    word = []
    for k in range(1, a):
        word.extend(range(-k, 0))
    return tuple(word)


def longest_dd(a, p):
    """D_a applied to p."""
    if p.nvars != a:
        raise ValueError("longest_dd(%d, .) needs a polynomial in %d variables" % (a, a))
    return apply_letters(da_word(a), p)


def odd_symmetrize(p):
    """S(f) = (-1)^{binom(a,3)} w_0 . D_a(f x^{delta_a}); projects onto the
    odd symmetric subring."""
    a = p.nvars
    sign = -1 if comb(a, 3) % 2 else 1
    return apply_w0(longest_dd(a, p * staircase(a))).scale(sign)


def clear_caches():
    """Empty every cache in the library, so the next computation starts
    cold: the lru_cache of every loaded oddnil module, the d_i table
    _dd_rows and onh's memo of word-segment images.  The
    compiled kernels (skewpoly._kernel) and the word programs that hold them
    go too and are built again on their next call; they hold no results, so
    the terms come out the same."""
    # imported here: onh imports this module
    from . import onh

    for name, mod in list(sys.modules.items()):
        if name.startswith("oddnil."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    _dd_rows.clear()
    onh._segment_images.clear()
