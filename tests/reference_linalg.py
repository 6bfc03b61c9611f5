"""The rank over GF(p) that ``odd_symmetric_rank`` (then in ``oddsym``, now
in ``paper_identities``) used before it took the exact integer rank from
``zlinalg``, kept as a test oracle.

The body is the earlier ``oddsym._rank_mod_p``, unchanged.  Over any prime
the rank can only drop, so it bounds the integer rank from below.
"""

_RANK_PRIME = (1 << 61) - 1


def _rank_mod_p(rows, p=_RANK_PRIME):
    """Row rank of an integer matrix over GF(p)."""
    mat = [[v % p for v in row] for row in rows if any(row)]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while mat and col < ncols:
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(v - factor * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank
