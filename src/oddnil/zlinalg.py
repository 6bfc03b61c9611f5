"""Integer linear algebra: Hermite and Smith normal forms, exact rank, and
reduction modulo a row lattice.

A matrix is a list of equal-length integer rows, and its row lattice is
the Z-span of the rows.  Everything is fraction free, so every rank here
is exact (the rank over Z equals the rank over Q) and a remainder is zero
exactly on the lattice, with no prime or tolerance.
"""

from math import gcd


def row(coeffs, index):
    """Dense row of a {key: coefficient} dict; index maps each key to its
    column."""
    v = [0] * len(index)
    for key, c in coeffs.items():
        v[index[key]] = c
    return v


def hermite_normal_form(rows):
    """Row-style Hermite normal form over Z.

    Returns the nonzero rows in echelon form, each pivot positive and every
    entry above a pivot in [0, pivot).  The result depends only on the row
    lattice, not on the rows that generate it; the input is not modified.
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    top = 0
    for col in range(ncols):
        if top == len(mat):
            break
        pivot = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        # euclidean elimination below the pivot
        for r in range(top + 1, len(mat)):
            while mat[r][col]:
                q = mat[top][col] // mat[r][col]
                mat[top] = [x - q * y for x, y in zip(mat[top], mat[r])]
                mat[top], mat[r] = mat[r], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-x for x in mat[top]]
        # reduce above the pivot; later pivot rows are zero in this column,
        # so these entries stay reduced
        for r in range(top):
            q = mat[r][col] // mat[top][col]
            if q:
                mat[r] = [x - q * y for x, y in zip(mat[r], mat[top])]
        top += 1
    return mat[:top]


def reduce(hnf, vector):
    """Remainder of the vector modulo the row lattice of hnf, a Hermite
    normal form: every pivot entry of the result lies in [0, pivot).  It is
    zero exactly when the vector lies in the lattice."""
    v = list(vector)
    for h in hnf:
        col = h.index(next(filter(None, h)))
        q = v[col] // h[col]
        if q:
            v = [x - q * y for x, y in zip(v, h)]
    return v


def int_rank(rows):
    """Rank of an integer matrix, exact."""
    return len(hermite_normal_form(rows))


def smith_invariant_factors(rows):
    """Nonzero invariant factors of an integer matrix (the diagonal of its
    Smith normal form), each dividing the next.

    Row and column Hermite forms alternate until each row has one nonzero
    entry.  A pass that changes the leading pivot replaces it by a proper
    divisor, and one that does not leaves its row and column clear, so the
    passes end.  After the first pass the matrix is square and nonsingular,
    and each entry of a Hermite form is below its column's pivot, so no
    entry exceeds the determinant.  Pairwise gcd/lcm then puts the diagonal
    in divisibility order.
    """
    mat = hermite_normal_form(rows)
    while any(sum(1 for x in r if x) > 1 for r in mat):
        mat = hermite_normal_form(zip(*mat))
    diag = [next(x for x in r if x) for r in mat]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag
