"""Integer linear algebra: the exact rank against the mod-p rank it replaced
(tests/reference_linalg.py), the Hermite normal form as a lattice invariant,
and the Smith form and rank against sympy."""

import pytest
from hypothesis import example, given, settings, strategies as st

import paper_identities
import reference_linalg as ref
from oddnil import combinat, cyclotomic, zlinalg

P = ref._RANK_PRIME

entry = st.one_of(st.integers(-6, 6), st.integers(-(10**20), 10**20))


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@st.composite
def unimodular_images(draw):
    """A matrix, and its image under a random permutation of its rows
    followed by random row additions and negations."""
    mat = draw(matrices())
    out = draw(st.permutations([list(r) for r in mat]))
    n = len(out)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            out[i] = [-x for x in out[i]]
        else:
            k = draw(st.integers(-3, 3))
            out[i] = [x + k * y for x, y in zip(out[i], out[j])]
    return mat, out


def pivots(hnf):
    return [next(j for j, x in enumerate(h) if x) for h in hnf]


@settings(deadline=None)
@given(matrices())
@example([[P]])
@example([[P, 0], [0, 1]])
def test_int_rank_at_least_mod_p_rank(mat):
    assert zlinalg.int_rank(mat) >= ref._rank_mod_p(mat)


def test_int_rank_equals_mod_p_rank_on_divided_difference_matrices(monkeypatch):
    # every matrix odd_symmetric_rank certifies with over the AC-2 range
    # (a <= 5, Z-degree <= 12)
    seen = []
    exact = zlinalg.int_rank

    def spy(rows):
        seen.append(rows)
        return exact(rows)

    monkeypatch.setattr(zlinalg, "int_rank", spy)
    for a in (2, 3, 4, 5):
        for halfdeg in range(0, 7):
            assert paper_identities.odd_symmetric_rank(a, halfdeg) == len(combinat.partitions_of(halfdeg, maxpart=a))
    assert len(seen) == 4 * 7
    for rows in seen:
        assert exact(rows) == ref._rank_mod_p(rows)


@settings(deadline=None)
@given(matrices())
@example([[6, 6, -6, 5, 1], [-2, 5, 6, -3, 3], [-5, -1, -6, -6, -6], [4, 2, -6, 0, 4]])
def test_hnf_is_echelon_and_reduced(mat):
    hnf = zlinalg.hermite_normal_form(mat)
    cols = pivots(hnf)
    assert cols == sorted(set(cols))
    for r, h in enumerate(hnf):
        assert h[cols[r]] > 0
        for above in hnf[:r]:
            assert 0 <= above[cols[r]] < h[cols[r]]


@settings(deadline=None)
@given(unimodular_images())
def test_hnf_unchanged_by_shuffles_and_unimodular_row_operations(pair):
    mat, image = pair
    assert zlinalg.hermite_normal_form(image) == zlinalg.hermite_normal_form(mat)


@settings(deadline=None)
@given(matrices())
def test_rows_lie_in_the_hnf_lattice(mat):
    hnf = zlinalg.hermite_normal_form(mat)
    width = len(mat[0])
    for r in mat:
        assert zlinalg.reduce(hnf, r) == [0] * width
    for h in hnf:
        assert zlinalg.in_row_lattice(mat, h)


@settings(deadline=None)
@given(matrices(), st.data())
def test_reduce_leaves_a_reduced_remainder_in_the_same_coset(mat, data):
    hnf = zlinalg.hermite_normal_form(mat)
    v = data.draw(st.lists(st.integers(-50, 50), min_size=len(mat[0]), max_size=len(mat[0])))
    rem = zlinalg.reduce(hnf, v)
    for col, h in zip(pivots(hnf), hnf):
        assert 0 <= rem[col] < h[col]
    assert zlinalg.in_row_lattice(mat, [x - y for x, y in zip(v, rem)])


@pytest.mark.parametrize("a,n_param", [(2, 3), (2, 4), (3, 5)])
def test_reduce_sends_every_slice_generator_to_zero(a, n_param):
    for d in range(0, cyclotomic.default_dmax(a, n_param) + 1, 2):
        sl = cyclotomic.ideal_degree_slice(a, n_param, d)
        zero = [0] * len(sl.ambient_basis)
        for g in sl.generators:
            assert sl.reduce({lam: c for lam, c in zip(sl.ambient_basis, g) if c}) == zero


def test_row():
    index = {(2,): 0, (1, 1): 1, (): 2}
    assert zlinalg.row({(1, 1): -3, (): 5}, index) == [0, -3, 5]
    assert zlinalg.row({}, index) == [0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=5, max_cols=5))
@example([[87896805989751037503, -76085818148845685571, 55360452431434160046],
          [-22710914288316766902, 1, 73276790320099116997],
          [18138263512635584344, 98779119322053376679, 92564853588340424057],
          [50593653131430069219, -91342571439925347962, 3]])
def test_smith_and_rank_agree_with_sympy(mat):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    m = sympy.Matrix(mat)
    want = [int(f) for f in invariant_factors(m, domain=sympy.ZZ) if f]
    assert zlinalg.smith_invariant_factors(mat) == want
    assert zlinalg.int_rank(mat) == m.rank()

