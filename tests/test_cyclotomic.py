import itertools
import random
from math import comb, gcd

import pytest

from oddnil import combinat as C
from oddnil import cyclotomic as CY
from oddnil import evenoracle as E
from oddnil import oddsym as S
from oddnil import zlinalg as Z
from oddnil.qgrade import QLaurent, q_cardinality_box
from oddnil.skewpoly import SkewPolynomial


# ---------------------------------------------------------------------------
# integer normal forms


def bareiss_det(mat):
    m = [row[:] for row in mat]
    n = len(m)
    prev = 1
    sign = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minors_gcd_invariant_factors(mat):
    """Independent oracle: k-th invariant factor from gcds of k x k minors."""
    nr, nc = len(mat), len(mat[0])
    prev = 1
    out = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                g = gcd(g, abs(bareiss_det([[mat[r][c] for c in cols] for r in rows])))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_normal_forms_against_minors_oracle():
    rng = random.Random(6)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-7, 7) for _ in range(nc)] for _ in range(nr)]
        want = minors_gcd_invariant_factors(mat)
        assert Z.smith_invariant_factors(mat) == want, mat
        hnf = Z.hermite_normal_form(mat)
        assert len(hnf) == len(want)
        # HNF is echelon with positive pivots, reduced above
        lead = -1
        for row in hnf:
            col = next(j for j, v in enumerate(row) if v)
            assert col > lead
            lead = col
            assert row[col] > 0


def test_hnf_preserves_row_lattice():
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(2, 4)
        mat = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        hnf = Z.hermite_normal_form(mat)
        for row in mat:
            assert Z.in_row_lattice(hnf, row)
        for row in hnf:
            assert Z.in_row_lattice(mat, row)


def test_in_row_lattice_examples():
    rows = [[2, 0], [0, 3]]
    assert Z.in_row_lattice(rows, [2, 3])
    assert not Z.in_row_lattice(rows, [1, 0])
    assert Z.in_row_lattice([], [0, 0])


# ---------------------------------------------------------------------------
# Grassmann matrix and the relation series


def test_grassmann_matrix_examples():
    mat = CY.grassmann_matrix(1)
    assert mat == [[S.elementary(1, 1)]]
    mat = CY.grassmann_matrix(2)
    assert mat[0] == [S.elementary(1, 2), SkewPolynomial.one(2)]
    assert mat[1][0] == S.elementary(2, 2) and not mat[1][1]
    mat = CY.grassmann_matrix(3)
    assert [mat[j][0] for j in range(3)] == [
        S.elementary(1, 3),
        S.elementary(2, 3),
        S.elementary(3, 3).scale(-1),
    ]


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_grassmann_matrix_is_multiplication_by_x1(a):
    # independent route: the telescoping identity behind the first column
    xt1 = SkewPolynomial.variable(a, 1)
    rhs = SkewPolynomial.zero(a)
    for j in range(1, a + 1):
        rhs = rhs + (S.elementary(j, a) * xt1 ** (a - j)).scale((-1) ** comb(j - 1, 2))
    assert xt1 ** a == rhs


def test_z_poly():
    assert CY.z_poly(0, 2) == SkewPolynomial.one(2)
    assert CY.z_poly(1, 3) == S.complete(1, 3).scale(-1)
    assert CY.z_poly(2, 3) == S.complete(2, 3).scale(-1)
    assert CY.z_poly(3, 3) == S.complete(3, 3)


def test_series_relation_truncation_and_f1():
    # f_1 = eps_1 - h_1 = 0 whenever z_1 is admissible
    for a in (1, 2, 3):
        for n_param in range(a + 1, 6):
            assert not CY.series_relation(a, n_param, 1)
    with pytest.raises(ValueError):
        CY.series_relation(2, 4, 0)
    with pytest.raises(ValueError):
        CY.series_relation(2, 4, 5)


def test_series_relations_generate_consistently():
    # coefficient of t^m in the two-sided series identity, small sanity:
    # for m <= N-a the relation already follows from the e-h relation
    for a in (2, 3):
        for n_param in (a + 2,):
            for m in range(1, n_param - a + 1):
                assert not CY.series_relation(a, n_param, m), (a, n_param, m)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_grassmann_recursion(a):
    # entries of M^{N-a+1} v against the relation series, exact signs
    for n_param in range(a, 7):
        col = CY.grassmann_power_column(a, n_param)
        for j in range(1, a + 1):
            want = CY.series_relation(a, n_param, n_param - a + j).scale(
                (-1) ** comb(n_param - a + j - 1, 2)
            )
            assert col[j - 1] == want, (a, n_param, j)


# ---------------------------------------------------------------------------
# degree slices and quotient ranks


def test_degree_slice_structure():
    sl = CY.h_ideal_slices(2, 4, 6)[-1]
    assert sl.ambient_basis == C.partitions_of(3, maxpart=2)
    assert sl.rank + sl.quotient_rank == len(sl.ambient_basis)
    assert sl.is_torsion_free()
    with pytest.raises(ValueError):
        CY.h_ideal_slices(2, 4, 3)


def test_quotient_rank_edge_cases():
    assert CY.quotient_graded_rank(0, 3) == QLaurent.one()
    assert dict(CY.quotient_graded_rank(1, 3).coeffs) == {0: 1, 2: 1, 4: 1}
    assert dict(CY.quotient_graded_rank(2, 4).coeffs) == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    with pytest.raises(ValueError):
        CY.quotient_graded_rank(2, 4, d_max=2)


@pytest.mark.parametrize("a,n_param", [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5)])
def test_quotient_matches_balanced_binomial(a, n_param):
    q = CY.quotient_graded_rank(a, n_param)
    assert q.at_one() == comb(n_param, a)
    centered = q * QLaurent.q_power(-a * (n_param - a))
    assert centered.is_bar_invariant()
    assert centered == q_cardinality_box(a, n_param - a)


@pytest.mark.parametrize("a,n_param", [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5)])
def test_slices_torsion_free(a, n_param):
    for sl in CY.h_ideal_slices(a, n_param, CY.default_dmax(a, n_param)):
        assert sl.is_torsion_free(), sl.degree


def test_sum_of_quotient_ranks_cross_checked_against_qgrade():
    total = sum(CY.quotient_graded_rank(2, 4).coeffs.values())
    assert total == q_cardinality_box(2, 2).at_one() == 6


@pytest.mark.parametrize("n_param", [2, 3, 4, 5])
def test_first_column_generates_same_ideal(n_param):
    a = 2
    d_max = CY.default_dmax(a, n_param)
    for s1, s2 in zip(CY.h_ideal_slices(a, n_param, d_max), CY.column_ideal_slices(a, n_param, d_max)):
        assert s1.hermite == s2.hermite, (n_param, s1.degree)


def test_schur_box_images():
    rep = CY.schur_box_images(2, 4)
    assert rep["vanishing_ok"]
    assert rep["independent_ok"]
    assert rep["box"] == C.partitions_in_box(2, 2)
    # s_{(N-a+1)} = s_{(2)} maps to zero in OH_{2,3}
    rep = CY.schur_box_images(2, 3)
    assert ((2,), True) in rep["vanishing"]
    assert rep["vanishing_ok"] and rep["independent_ok"]
    # s_empty is never zero
    assert CY.h_ideal_slices(2, 3, 0)[0].quotient_rank == 1


def test_incomplete_certification_error():
    # d_max exactly at the top degree leaves the boundary uncertified
    with pytest.raises(CY.IncompleteCertificationError):
        CY.quotient_graded_rank(2, 4, d_max=8)
    # below the expected top degree is a precondition violation
    with pytest.raises(ValueError):
        CY.quotient_graded_rank(2, 4, d_max=2)
    # the default d_max certifies cleanly
    assert CY.quotient_graded_rank(2, 4).at_one() == 6
    # slices sit in even degrees, so an odd d_max is refused, naming the next even one
    with pytest.raises(C.DomainError, match="odd"):
        CY.quotient_graded_rank(3, 5, d_max=13)
    with pytest.raises(CY.IncompleteCertificationError, match="at least 14"):
        CY.quotient_graded_rank(3, 5, d_max=12)


def test_uncertifiable_dmax_is_refused_before_any_slice_is_built(monkeypatch):
    # for 0 < a < N the quotient has rank 1 in the top degree, so d_max = top
    # can never certify; with d_max = top + 2 the chain is built and certifies
    built = []
    chain = CY.h_ideal_slices
    monkeypatch.setattr(CY, "h_ideal_slices", lambda *args: built.append(args) or chain(*args))
    for a, n_param in [(1, 2), (2, 4), (3, 5)]:
        top = 2 * a * (n_param - a)
        with pytest.raises(CY.IncompleteCertificationError, match="at least %d" % (top + 2)):
            CY.quotient_graded_rank(a, n_param, d_max=top)
        assert not built
    assert CY.quotient_graded_rank(2, 4, d_max=10).at_one() == 6
    assert built == [(2, 4, 10)]


@pytest.mark.parametrize("a,n_param", [(1, 3), (2, 3), (2, 4), (3, 4)])
def test_quotient_ranks_match_even_oracle(a, n_param):
    for sl in CY.h_ideal_slices(a, n_param, 2 * a * (n_param - a)):
        assert sl.quotient_rank == E.even_quotient_rank_gf2(a, n_param, sl.degree // 2), (a, n_param, sl.degree)
