"""The degree slices that ``cyclotomic`` built before it built them
incrementally, kept as a test oracle.

The bodies are the earlier ``_slice_generator_rows``, ``ideal_degree_slice``
and ``first_column_degree_slice``, unchanged: every product
eps_lambda g eps_mu is formed as a skew polynomial and expanded back into
eps-words.  ``eps_multiplication`` is the earlier body of the per-degree
table of products by eps_k that ``oddsym`` kept, which formed one skew
product per unsorted word; ``oddsym.multiply_by_eps`` now straightens
each word with the eps relations.
"""

from functools import lru_cache

from oddnil import combinat, oddsym
from oddnil.cyclotomic import DegreeLattice, grassmann_power_column
from oddnil.zlinalg import row


def _slice_generator_rows(a, degree, ideal_gens):
    """Rows for span{eps_lambda g eps_mu} in the given Z-degree.

    ideal_gens: list of (polynomial, Z-degree) pairs.
    """
    halfdeg = degree // 2
    ambient = combinat.partitions_of(halfdeg, maxpart=a)
    index = {lam: i for i, lam in enumerate(ambient)}
    rows = []
    for g, gdeg in ideal_gens:
        rest = halfdeg - gdeg // 2
        if rest < 0:
            continue
        for s1 in range(rest + 1):
            for lam in combinat.partitions_of(s1, maxpart=a):
                left = oddsym.elementary_word_value(lam, a)
                for mu in combinat.partitions_of(rest - s1, maxpart=a):
                    right = oddsym.elementary_word_value(mu, a)
                    prod = left * g * right
                    if not prod:
                        continue
                    rows.append(row(oddsym.expand_in_elementary(prod), index))
    return ambient, rows


def ideal_degree_slice(a, n_param, degree):
    """Degree slice of <h_m : m > N-a> expressed in the eps-word basis."""
    if degree % 2 or degree < 0:
        raise ValueError("Z-degree must be even and nonnegative")
    if a == 0:
        return DegreeLattice(degree, [()] if degree == 0 else [], [])
    gens = []
    for m in range(n_param - a + 1, degree // 2 + 1):
        if m >= 1:
            gens.append((oddsym.complete(m, a), 2 * m))
    ambient, rows = _slice_generator_rows(a, degree, gens)
    return DegreeLattice(degree, ambient, rows)


def first_column_degree_slice(a, n_param, degree):
    """Degree slice of the ideal generated by the first column of
    M^{N-a+1}; used to compare against the h-ideal."""
    if degree % 2 or degree < 0:
        raise ValueError("Z-degree must be even and nonnegative")
    col = grassmann_power_column(a, n_param)
    gens = []
    for j, g in enumerate(col, start=1):
        gens.append((g, 2 * (n_param - a + j)))
    ambient, rows = _slice_generator_rows(a, degree, gens)
    return DegreeLattice(degree, ambient, rows)


@lru_cache(maxsize=None)
def eps_multiplication(a, k, n, side):
    """Multiplication by eps_k from half-degree n-k to n on the sorted
    eps-words, each unsorted product formed as a polynomial and expanded."""
    eps = oddsym.elementary(k, a)
    out = {}
    for lam in combinat.partitions_of(n - k, maxpart=a):
        if side == "left" and (not lam or k >= lam[0]):
            out[lam] = {(k,) + lam: 1}
        elif side == "right" and (not lam or k <= lam[-1]):
            out[lam] = {lam + (k,): 1}
        else:
            word = oddsym.elementary_word_value(lam, a)
            out[lam] = oddsym.expand_in_elementary(eps * word if side == "left" else word * eps)
    return out
