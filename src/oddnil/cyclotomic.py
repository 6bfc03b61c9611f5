"""Cyclotomic quotients through the odd Grassmannian ring: per-degree
integer lattices for the ideal <h_m : m > N-a>, the Grassmann matrix and
its relation recursion, and the Schur box basis.

Degree-d slices of the two-sided ideal are spanned by the products
eps_lambda h_m eps_mu (the eps generate the whole ring), expanded in the
sorted eps-word basis; ranks and invariant factors come from the exact
integer Hermite/Smith forms of ``zlinalg``.  Everything is fraction free.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import combinat, oddsym
from .qgrade import QLaurent
from .skewpoly import SkewPolynomial
from .zlinalg import hermite_normal_form, int_rank, reduce, row, smith_invariant_factors


class IncompleteCertificationError(RuntimeError):
    """d_max too small: quotient not certified zero above the expected top."""


# ---------------------------------------------------------------------------
# Grassmann matrix and relation series


def grassmann_matrix(a):
    """a x a matrix of the multiplication operator for x~_1 on the odd
    polynomial ring over the symmetric subring: first column is
    (-1)^{binom(j-1,2)} eps_j, superdiagonal is the identity."""
    if a < 1:
        raise ValueError("grassmann_matrix needs a >= 1")
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

    def is_torsion_free(self):
        return all(f == 1 for f in self.smith_diagonal)

    def reduce(self, coeffs):
        """Reduce an eps-word coefficient dict modulo the slice lattice."""
        index = {lam: i for i, lam in enumerate(self.ambient_basis)}
        return reduce(self.hermite, row(coeffs, index))


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
                    if prod.is_zero():
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


def default_dmax(a, n_param):
    return 2 * a * (n_param - a) + 4


def quotient_graded_rank(a, n_param, d_max=None):
    """Graded rank of the odd Grassmannian quotient as a QLaurent in q
    (exponent = Z-degree); certifies that every slice above the expected
    top degree 2a(N-a) and up to d_max is entirely ideal."""
    if not 0 <= a <= n_param:
        raise ValueError("need 0 <= a <= N")
    top = 2 * a * (n_param - a)
    if d_max is None:
        d_max = default_dmax(a, n_param)
    if d_max < top:
        raise ValueError("d_max=%d below expected top degree %d" % (d_max, top))
    coeffs = {}
    boundary_rank = 0
    for d in range(0, d_max + 1, 2):
        r = ideal_degree_slice(a, n_param, d).quotient_rank
        if r:
            if d > top:
                raise IncompleteCertificationError(
                    "quotient nonzero in degree %d > %d for (a, N) = (%d, %d)"
                    % (d, top, a, n_param)
                )
            coeffs[d] = r
        if d == d_max:
            boundary_rank = r
    if boundary_rank and a not in (0, n_param):
        raise IncompleteCertificationError(
            "quotient nonzero at the boundary degree %d; raise d_max to certify"
            % d_max
        )
    return QLaurent(coeffs)


def schur_box_images(a, n_param, d_max=None):
    """Check the Schur polynomial picture of the quotient basis.

    Returns a report dict: partitions in the a x (N-a) box stay linearly
    independent per degree, while Schur polynomials sticking out of the box
    (too many rows or columns) reduce to zero, within the degree bound.

    Independence in degree d is a rank jump: appending the box Schur rows
    to the slice raises its rank by their number.  The slice's Hermite rows
    span the same Z-module as its generators, so they have the same span
    over Q and give the same ranks from far fewer rows.
    """
    if d_max is None:
        d_max = default_dmax(a, n_param)
    b = n_param - a
    box = combinat.partitions_in_box(a, b)
    vanish = []
    independent = {}
    for d in range(0, d_max + 1, 2):
        slice_ = ideal_degree_slice(a, n_param, d)
        halfdeg = d // 2
        inside = [lam for lam in box if sum(lam) == halfdeg]
        outside = [
            lam
            for lam in combinat.partitions_of(halfdeg, maxpart=None)
            if not combinat.fits_in_box(lam, a, b)
        ]
        for lam in outside:
            s = oddsym.schur(lam, a)
            coeffs = oddsym.expand_in_elementary(s) if not s.is_zero() else {}
            reduced = slice_.reduce(coeffs)
            vanish.append((lam, not any(reduced)))
        if inside:
            index = {lam: i for i, lam in enumerate(slice_.ambient_basis)}
            rows = slice_.hermite + [
                row(oddsym.expand_in_elementary(oddsym.schur(lam, a)), index) for lam in inside
            ]
            independent[d] = int_rank(rows) - slice_.rank == len(inside)
    return {
        "box": box,
        "vanishing": vanish,
        "vanishing_ok": all(v for _, v in vanish),
        "independent_per_degree": independent,
        "independent_ok": all(independent.values()),
    }

