"""Earlier bodies of ``evenoracle`` code, kept as test oracles.

The GF(2) quotient ranks from before ``evenoracle`` worked on e-words: the
earlier ``even_quotient_rank_gf2`` with its helpers ``_even_eword``,
``_even_expand`` and ``_gf2_rank`` and the integer polynomial arithmetic
``zpoly_add``, ``zpoly_scale`` and ``zpoly_mul``, unchanged: every
generator e_lam h_m e_mu is formed as a commutative polynomial over Z,
expanded back into sorted e-words by leading monomials, and reduced mod 2.

The mod-2 path from before the ``Gf2Poly`` constructor became the
reduction: ``gf2_terms`` is the loop of the earlier ``Gf2Poly.__init__``,
``gf2_mul`` the loop of the earlier ``Gf2Poly.__mul__`` (keys summed by a
generator over ``zip``), and ``mod2_reduction`` the earlier two-pass
``oddsym.mod2_reduction``, which reduced every coefficient into a new dict
before the constructor dropped the zeros.  All three return terms dicts.
"""

from functools import lru_cache

from oddnil import combinat
from oddnil.evenoracle import even_complete, even_elementary


def gf2_terms(terms):
    d = {}
    if terms:
        for m, c in terms.items():
            if c % 2:
                d[tuple(m)] = 1
    return d


def gf2_mul(p, q):
    d = {}
    for ma in p:
        for mb in q:
            m = tuple(x + y for x, y in zip(ma, mb))
            if m in d:
                del d[m]
            else:
                d[m] = 1
    return d


def mod2_reduction(f):
    return gf2_terms({m: c % 2 for m, c in f.terms.items()})


def zpoly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def zpoly_scale(p, c):
    return {m: c * v for m, v in p.items()} if c else {}


def zpoly_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _gf2_rank(rows):
    mat = [row[:] for row in rows if any(row)]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [x ^ y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _even_eword(word, a):
    out = {(0,) * a: 1}
    for k in word:
        out = zpoly_mul(out, even_elementary(k, a))
    return out


def _even_expand(p, a):
    """Expand a symmetric even polynomial into sorted e-words (over Z)."""
    out = {}
    residual = dict(p)
    while residual:
        exps = max(residual)
        c = residual[exps]
        if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
            raise ValueError("not symmetric: leading exponent %r" % (exps,))
        lam = combinat.conjugate(tuple(e for e in exps if e))
        word_poly = _even_eword(lam, a)
        lead = max(word_poly)
        q, r = divmod(c, word_poly[lead])
        if r or lead != exps:
            raise ValueError("even expansion failed")
        out[lam] = out.get(lam, 0) + q
        residual = zpoly_add(residual, zpoly_scale(word_poly, -q))
    return out


def even_quotient_rank_gf2(a, n_param, halfdeg):
    """dim over GF(2) of degree-2*halfdeg slice of Lambda_a / <h_m : m > N-a>."""
    ambient = combinat.partitions_of(halfdeg, maxpart=a)
    if not ambient:
        return 0
    index = {lam: i for i, lam in enumerate(ambient)}
    rows = []
    for m in range(n_param - a + 1, halfdeg + 1):
        hm = even_complete(m, a)
        rest = halfdeg - m
        for s1 in range(rest + 1):
            for lam in combinat.partitions_of(s1, maxpart=a):
                for mu in combinat.partitions_of(rest - s1, maxpart=a):
                    gen = zpoly_mul(
                        zpoly_mul(_even_eword(lam, a), hm), _even_eword(mu, a)
                    )
                    coeffs = _even_expand(gen, a)
                    row = [0] * len(ambient)
                    for nu, c in coeffs.items():
                        row[index[nu]] = c % 2
                    rows.append(row)
    return len(ambient) - _gf2_rank(rows)
