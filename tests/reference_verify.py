"""The Schubert-basis sweeps that ``verify``'s shared orthogonality,
matrix-unit and witness helpers replaced, kept as a test oracle.

The five family checks (``oval``, ``nil_orth``, ``identity_decomposition``,
``eaeb_decomposition``, ``matrix_iso``) and the two sentinels are the
earlier code, unchanged: each writes its own loop over the Schubert basis.
They reach ``onh`` through the module, so a test that patches an ``onh``
function changes these bodies and ``verify``'s alike.

``check_eps_relations`` is the body that formed every product of its
relations afresh, before ``verify`` shared them between instances.  It
reaches ``oddsym`` through the module in the same way.
"""

from math import comb

from oddnil import combinat, oddsym, onh, qgrade
from oddnil.combinat import DomainError
from oddnil.skewpoly import SkewPolynomial, apply_w0
from oddnil.verify import _triple


class _Sweep:
    """Collects instance results; keeps every counterexample triple.  The
    accumulator these bodies were written against, before ``verify``'s
    checks became generators of instances."""

    def __init__(self):
        self.instances = 0
        self.failures = []
        self.notes = []

    def check(self, inp, expected, actual):
        self.instances += 1
        if expected != actual:
            self.failures.append(_triple(inp, expected, actual))

    def require(self, inp, condition, expected="True", actual="False"):
        self.instances += 1
        if not condition:
            self.failures.append(_triple(inp, expected, actual))

    def note(self, inp, expected, actual):
        """Informational triple shown even on pass (e.g. object counts)."""
        self.notes.append(_triple(inp, expected, actual))

    @property
    def passed(self):
        return not self.failures


def check_eps_relations(params, rng):
    sw = _Sweep()

    def fam(f, g, name, a):
        """The even- and odd-sum relations between the families f and g,
        and f's doubling relation when g is f."""
        for m in range(1, params["m_max"] + 1):
            for i in range(1, 2 * m):
                j = 2 * m - i
                if 1 <= i <= a and 1 <= j <= a:
                    sw.check((name + " even-sum", a, i, j), f(i, a) * g(j, a), g(j, a) * f(i, a))
            for i in range(0, 2 * m + 1):
                j = 2 * m + 1 - i
                if 1 <= i <= a - 1 and 1 <= 2 * m - i <= a - 1:
                    lhs = f(i, a) * g(j, a) + (g(j, a) * f(i, a)).scale((-1) ** i)
                    rhs = (f(i + 1, a) * g(2 * m - i, a)).scale((-1) ** i) + g(2 * m - i, a) * f(i + 1, a)
                    sw.check((name + " odd-sum", a, i, j), lhs, rhs)
            if f is g and 1 < 2 * m <= a - 1:
                sw.check(
                    (name + " doubling", a, m),
                    f(2 * m + 1, a).scale(2),
                    f(1, a) * f(2 * m, a) + f(2 * m, a) * f(1, a),
                )

    for a in range(2, params["a_max"] + 1):
        fam(oddsym.elementary, oddsym.elementary, "eps", a)
        fam(oddsym.complete, oddsym.complete, "h", a)
        fam(oddsym.elementary, oddsym.complete, "mixed", a)
        # variable reduction
        for k in range(0, a + 1):
            lhs = oddsym.elementary_in_fewer_vars(k, a)
            rhs = SkewPolynomial.zero(a)
            for j in range(0, k + 1):
                rhs = rhs + (oddsym.elementary(k - j, a) * (oddsym.x_tilde(a, a) ** j)).scale((-1) ** j)
            sw.check(("variable reduction", a, k), lhs, rhs)
        # w_0 action
        for k in range(0, a + 1):
            sw.check(
                ("w0 on eps", a, k),
                oddsym.elementary(k, a).scale((-1) ** (comb(k, 2) + k * comb(a - 1, 2))),
                apply_w0(oddsym.elementary(k, a)),
            )
    return sw


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
        eab = onh.embed(onh.idempotent_e(a), 0, n) * onh.embed(onh.idempotent_e(b), a, n)
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
        chain = onh.crossing_element(1, a)
        lhs = onh.embed(onh.idempotent_e(a), 1, n) * chain
        rhs = chain * onh.embed(onh.idempotent_e(a), 0, n)
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
