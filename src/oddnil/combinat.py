"""Partitions, permutations, reduced words, and the index sets Sq(a), P(a,b).

Partitions are tuples of positive ints in weakly decreasing order (the empty
tuple is the empty partition); functions normalize away trailing zeros.
Permutations are tuples in one-line notation, 1-based: w = (w(1), ..., w(a)).
A reduced word (j_1, ..., j_l) stands for w = s_{j_1} o ... o s_{j_l} as a
composite of functions, so the rightmost letter acts first.
"""

import itertools
from functools import lru_cache


class DomainError(ValueError):
    """An argument outside the domain a function is defined on; the command
    line reports it as a usage error."""


class BoxViolationError(ValueError):
    """A partition does not fit in the required box."""


def read_natural(text):
    """The number text writes in ASCII digits; a sign, space or underscore is an error."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("%r is not a natural number in ASCII digits" % text)
    return int(text)


# ---------------------------------------------------------------------------
# partitions


def normalize_partition(parts):
    out = tuple(p for p in parts if p)
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError("not weakly decreasing: %r" % (parts,))
    if any(p < 0 for p in out):
        raise ValueError("negative part in %r" % (parts,))
    return out


def fits_in_box(alpha, a, b):
    alpha = normalize_partition(alpha)
    return len(alpha) <= a and (not alpha or alpha[0] <= b)


def check_box(alpha, a, b):
    alpha = normalize_partition(alpha)
    if not fits_in_box(alpha, a, b):
        raise BoxViolationError("%r does not fit in a %d x %d box" % (alpha, a, b))
    return alpha


def check_parts(alpha, a):
    alpha = normalize_partition(alpha)
    if len(alpha) > a:
        raise BoxViolationError("%r has more than %d parts" % (alpha, a))
    return alpha


@lru_cache(maxsize=None)
def partitions_in_box(a, b):
    """All partitions fitting in an a x b box, in graded lexicographic order:
    those of partitions_of(n, maxpart=b) with at most a parts, n rising."""
    return [alpha for n in range(a * b + 1) for alpha in partitions_of(n, maxpart=b) if len(alpha) <= a]


@lru_cache(maxsize=None)
def partitions_of(n, maxpart=None):
    """Partitions of n with parts bounded by maxpart (graded lex = lex here)."""
    if maxpart is None:
        maxpart = n
    out = []

    def rec(prefix, remaining, bound):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(bound, remaining), 0, -1):
            prefix.append(p)
            rec(prefix, remaining - p, p)
            prefix.pop()

    rec([], n, maxpart)
    out.sort()
    return out


def conjugate(alpha):
    alpha = normalize_partition(alpha)
    if not alpha:
        return ()
    return tuple(sum(1 for p in alpha if p >= j) for j in range(1, alpha[0] + 1))


def complement(alpha, a, b):
    """(b - alpha_a, ..., b - alpha_1) for alpha in P(a,b)."""
    alpha = check_box(alpha, a, b)
    padded = list(alpha) + [0] * (a - len(alpha))
    return normalize_partition(sorted((b - p for p in padded), reverse=True))


def hat_partition(alpha, a, b):
    """conjugate(complement(alpha)); lands in P(b,a)."""
    return conjugate(complement(alpha, a, b))


def partition_tail_weight(alpha, m):
    """|alpha| after removing rows 1..m (the Pieri sign ingredient)."""
    alpha = normalize_partition(alpha)
    return sum(alpha[m:])


def format_partition(alpha):
    return ",".join(str(p) for p in normalize_partition(alpha))


def parse_partition(text):
    """A comma list of parts such as "2,1"; "" is the empty partition."""
    text = text.strip()
    return normalize_partition([read_natural(t.strip()) for t in text.split(",")] if text else [])


# ---------------------------------------------------------------------------
# permutations


def longest_element(a):
    return tuple(range(a, 0, -1))


def all_permutations(a):
    return [tuple(p) for p in itertools.permutations(range(1, a + 1))]


def perm_length(w):
    """Coxeter length = inversion count."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def perm_inverse(w):
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def perm_compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


@lru_cache(maxsize=None)
def canonical_reduced_word(w):
    """Deterministic reduced word for the permutation tuple w by the
    leftmost-descent scheme: pick the smallest j with w(j) > w(j+1) and
    strip s_j off on the right, until none is left.  Returns
    (j_1, ..., j_l) with w = s_{j_1} o ... o s_{j_l}.

    Stripping s_j swaps the entries j, j+1, so the scheme is insertion
    sort: it sorts the first n-1 entries, which depends on their relative
    order alone, and then moves m = w(n) left past the n - m larger
    entries, all before it, by the letters n-1, ..., m.  Read right to
    left, the word is (m, ..., n-1) followed by the word of the first n-1
    entries renumbered 1..n-1.  The recursion is that step, memoized: its
    depth is n, not the length of w.
    """
    if not w:
        return ()
    m = w[-1]
    return tuple(range(m, len(w))) + canonical_reduced_word(tuple(v - (v > m) for v in w[:-1]))


def parse_permutation(text):
    w = tuple(read_natural(t) for t in text.split())
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError("not a permutation in one-line notation: %r" % text)
    return w


# ---------------------------------------------------------------------------
# the index set Sq(a)


def enumerate_sq(a):
    """All sequences l_1..l_{a-1} with 0 <= l_nu <= nu; there are a! of them."""
    if a < 1:
        raise DomainError("enumerate_sq needs a >= 1")
    ranges = [range(nu + 1) for nu in range(1, a)]
    return [tuple(t) for t in itertools.product(*ranges)]


def sq_strands(ell):
    """The a with ell in Sq(a), len(ell) + 1; a ValueError unless 0 <= l_nu <= nu."""
    a = len(ell) + 1
    if any(not 0 <= l <= nu for nu, l in enumerate(ell, start=1)):
        raise ValueError("%r is not in Sq(%d)" % (ell, a))
    return a


def seq_hat(ell):
    """Complementary dot counts: hat(l)_nu = nu - l_nu."""
    return tuple(nu + 1 - l for nu, l in enumerate(ell))
