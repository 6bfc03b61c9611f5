"""The Schubert-basis sweeps that ``verify``'s shared orthogonality,
matrix-unit and witness helpers replaced, kept as a test oracle.

The five family checks (``oval``, ``nil_orth``, ``identity_decomposition``,
``eaeb_decomposition``, ``matrix_iso``) and the two sentinels are the
earlier code, unchanged: each writes its own loop over the Schubert basis.
They reach ``onh`` through the module, so a test that patches an ``onh``
function changes these bodies and ``verify``'s alike.
"""

from math import comb

from oddnil import combinat, onh, qgrade
from oddnil.combinat import DomainError
from oddnil.skewpoly import SkewPolynomial
from oddnil.verify import _Sweep, _triple


def check_oval(params, rng):
    sw = _Sweep()
    pairs = params["pairs"]
    for (a, b) in pairs:
        n = a + b
        en = onh.idempotent_e(n)
        basis = onh.schubert_basis_list(n)
        envals = [en.evaluate(p) for p in basis]
        parts = combinat.partitions_in_box(a, b)
        sig = {al: onh.sigma_part(al, a, b) for al in parts}
        lam = {al: onh.lambda_part(al, a, b) for al in parts}
        for alpha in parts:
            sw.check(("deg sigma_alpha", a, b, alpha), [2 * sum(alpha) - 2 * a * b], sig[alpha].degrees())
            svals = [sig[alpha].evaluate(p) for p in basis]
            for beta in parts:
                for i, s in enumerate(svals):
                    v = lam[beta].evaluate(s)
                    want = envals[i] if alpha == beta else SkewPolynomial.zero(n)
                    sw.check(("lambda_beta sigma_alpha", a, b, alpha, beta, i), want, v)
    return sw


def check_nil_orth(params, rng):
    sw = _Sweep()
    for a in params["a_list"]:
        ea = onh.idempotent_e(a)
        basis = onh.schubert_basis_list(a)
        eavals = [ea.evaluate(p) for p in basis]
        sq = combinat.enumerate_sq(a)
        sig = {l: onh.sigma_seq(l) for l in sq}
        lam = {l: onh.lambda_seq(l) for l in sq}
        svals = {l: [sig[l].evaluate(p) for p in basis] for l in sq}
        for lp in sq:
            for l in sq:
                for i, s in enumerate(svals[l]):
                    v = lam[lp].evaluate(s)
                    want = eavals[i] if lp == l else SkewPolynomial.zero(a)
                    sw.check(("lambda sigma", a, lp, l, i), want, v)
    return sw


def check_identity_decomposition(params, rng):
    import math

    sw = _Sweep()
    for a in params["a_list"]:
        basis = onh.schubert_basis_list(a)
        sq = combinat.enumerate_sq(a)
        sw.note(("idempotents at a=%d" % a), math.factorial(a), len(sq))
        sig = {l: onh.sigma_seq(l) for l in sq}
        lam = {l: onh.lambda_seq(l) for l in sq}
        evals = {l: [sig[l].evaluate(lam[l].evaluate(p)) for p in basis] for l in sq}
        for i, p in enumerate(basis):
            tot = SkewPolynomial.zero(a)
            for l in sq:
                tot = tot + evals[l][i]
            sw.check(("sum e_l = 1", a, i), p, tot)
        for l in sq:
            for lp in sq:
                for i, p in enumerate(basis):
                    v = sig[l].evaluate(lam[l].evaluate(evals[lp][i]))
                    want = evals[l][i] if l == lp else SkewPolynomial.zero(a)
                    sw.check(("e_l e_l'", a, l, lp, i), want, v)
    return sw


def check_eaeb_decomposition(params, rng):
    sw = _Sweep()
    for (a, b) in params["pairs"]:
        n = a + b
        basis = onh.schubert_basis_list(n)
        parts = combinat.partitions_in_box(a, b)
        sw.note(("idempotents at (a,b)=(%d,%d)" % (a, b)), comb(n, a), len(parts))
        sig = {al: onh.sigma_part(al, a, b) for al in parts}
        lam = {al: onh.lambda_part(al, a, b) for al in parts}
        eab = onh.e_embedded(a, 0, n) * onh.e_embedded(b, a, n)
        evals = {al: [sig[al].evaluate(lam[al].evaluate(p)) for p in basis] for al in parts}
        for i, p in enumerate(basis):
            tot = SkewPolynomial.zero(n)
            for al in parts:
                tot = tot + evals[al][i]
            sw.check(("sum e_alpha = e_a x e_b", a, b, i), eab.evaluate(p), tot)
        for al in parts:
            for be in parts:
                for i, p in enumerate(basis):
                    v = sig[be].evaluate(lam[be].evaluate(evals[al][i]))
                    want = evals[be][i] if al == be else SkewPolynomial.zero(n)
                    sw.check(("e_beta e_alpha", a, b, al, be, i), want, v)
        ms = sorted(2 * sum(al) - a * b for al in parts)
        sw.check(
            ("degree multiset", a, b),
            qgrade.q_binomial(a + b, a).exponent_multiset(),
            ms,
        )
    return sw


def check_matrix_iso(params, rng):
    sw = _Sweep()
    for a in params["a_list"]:
        sq = combinat.enumerate_sq(a)
        basis = onh.schubert_basis_list(a)
        sig = {l: onh.sigma_seq(l) for l in sq}
        lam = {l: onh.lambda_seq(l) for l in sq}
        lam_vals = {l: [lam[l].evaluate(p) for p in basis] for l in sq}
        e_vals = {
            (l1, l2): [sig[l1].evaluate(v) for v in lam_vals[l2]] for l1 in sq for l2 in sq
        }
        for l1 in sq:
            for l2 in sq:
                for m1 in sq:
                    for m2 in sq:
                        for i in range(len(basis)):
                            v = sig[l1].evaluate(lam[l2].evaluate(e_vals[(m1, m2)][i]))
                            want = (
                                e_vals[(l1, m2)][i]
                                if l2 == m1
                                else SkewPolynomial.zero(a)
                            )
                            sw.check(("matrix units", a, l1, l2, m1, m2, i), want, v)
    return sw


def check_sentinel_mirror_ea_slide(params, rng):
    sw = _Sweep()
    for a in range(2, params["a_max"] + 1):
        n = a + 1
        chain = onh.OnhElement.from_word(n, tuple(-i for i in range(a, 0, -1)))
        lhs = onh.e_embedded(a, 1, n) * chain
        rhs = chain * onh.e_embedded(a, 0, n)
        # this SHOULD differ; finding a witness makes the sentinel "fail"
        basis = onh.schubert_basis_list(n)
        for i, p in enumerate(basis):
            vl, vr = lhs.evaluate(p), rhs.evaluate(p)
            if vl != vr:
                sw.instances += 1
                sw.failures.append(
                    _triple(("mirror slide witness", a, i), str(vr), str(vl))
                )
                break
        else:
            sw.instances += 1
    return sw


def check_sentinel_x1sq_central(params, rng):
    sw = _Sweep()
    a = params["a"]
    if a < 2:
        raise DomainError("sentinel_x1sq_central needs a >= 2: its witness crosses strands 1 and 2")
    F = onh.from_polynomial(SkewPolynomial.monomial(a, tuple([2] + [0] * (a - 1))))
    d1 = onh.cross(a, 1)
    lhs, rhs = F * d1, d1 * F
    basis = onh.schubert_basis_list(a)
    for i, p in enumerate(basis):
        vl, vr = lhs.evaluate(p), rhs.evaluate(p)
        if vl != vr:
            sw.instances += 1
            sw.failures.append(_triple(("x_1^2 commutator witness", a, i), str(vl), str(vr)))
            break
    else:
        sw.instances += 1
    return sw
