"""Registry of named, parameterized checks: one per identity family in
scope, each producing a machine-readable pass/fail report with concrete
counterexamples on failure.

A check is a generator of instances (input, expected, actual).  An
identity, between polynomials or between elements of ONH_a, yields its
two sides; a failing element identity is reported at the first Schubert
polynomial p_i on which its sides differ, as (label + (i,), want(p_i),
got(p_i)).  The Morita contracts yield one block per product instead: a
label prefix and the wanted and got values on the whole Schubert basis,
one instance per p_i, compared as two lists; only a block that differs is
expanded, in index order, into its failing (prefix + (i,), want[i],
got[i]).  matrix_iso is a certificate: nil_orth's blocks and one
absorption per lambda prove the matrix-unit relations by associativity,
so no product of two matrix units is evaluated.  Counts and lattices are
stated as values too: the idempotents of a decomposition against a! or
binom(a+b, a), a slice's Smith factors against all ones, a remainder
against zeros, a rank jump against the number of rows appended, so a
failure shows the value at fault.  The one
boolean left, (label, True, condition), is oh_rank's palindromic graded
rank: QLaurent.is_bar_invariant, which the benchmark also calls, states
it.  The check only states its instances: run_check counts them,
compares expected with actual, keeps every counterexample and decides
the status; a passing report has no details.
A check that raises reports status "error" with the exception in one
line, and the checks after it still run; an input outside a check's
domain (DomainError, BoxViolationError) still raises, as a usage error.

Every check but ea_standard runs every instance of a stated finite domain.
ea_standard's boxes e_a f e_a = e_a f take random f from a generator seeded
by (seed, check id), because benchmarks/workloads.py sets their number
(random_boxes) and passes the seed.
Two sentinel checks (the mirrored projector slide and the non-central
x_1^2) fail by design; harnesses assert their status is "fail".
"""

import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, NamedTuple

from . import combinat, cyclotomic, evenoracle, oddops, oddsym, onh, qgrade, zlinalg
from .combinat import DomainError
from .skewpoly import SkewPolynomial, apply_w0, psi_staircase, reverse_staircase, staircase

DEFAULT_SEED = 24680


class UnknownCheckError(ValueError):
    pass


@dataclass
class CheckReport:
    check_id: str
    params: dict
    status: str  # pass | fail | skipped | error
    details: list = field(default_factory=list)
    seed: int = DEFAULT_SEED
    wall_time: float = 0.0
    instances: int = 0

    def to_json_dict(self):
        return {
            "check": self.check_id,
            "params": self.params,
            "status": self.status,
            "seed": self.seed,
            "details": [list(t) for t in self.details],
            "wall_time_s": 0.0,
        }


def _triple(inp, expected, actual):
    return (str(inp), str(expected), str(actual))


class _Block(NamedTuple):
    """The instances (prefix + (i,), want[i], got[i]), i a Schubert index."""

    prefix: tuple
    want: list
    got: list


def _tally(stream):
    """Consume a check's stream: (instances, failure triples).  A block
    whose two lists differ in length raises."""
    instances, failures = 0, []
    for item in stream:
        kind = type(item)
        if kind is _Block:
            prefix, want, got = item
            instances += len(got)
            if want != got:
                failures.extend(_triple(prefix + (i,), w, g)
                                for i, (w, g) in enumerate(zip(want, got, strict=True)) if w != g)
            continue
        instances += 1
        inp, expected, actual = item
        if isinstance(expected, onh.OnhElement):
            found = onh.witness(expected, actual)
            if found:
                i, expected, actual = found
                failures.append(_triple(inp + (i,), expected, actual))
        elif expected != actual:
            failures.append(_triple(inp, expected, actual))
    return instances, failures


def _monomials_up_to(a, maxhalf):
    out = []
    for hd in range(maxhalf + 1):
        out.extend(oddsym.monomials_of_degree(a, hd))
    return out


# ---------------------------------------------------------------------------
# the Morita contracts on the Schubert basis: sigmas and lambdas map one
# index set to elements, basis[i] is a Schubert polynomial, unit[i] is the
# unit's value on it, and label(indices...) names a block of instances, one
# per basis polynomial


def _seq_family(a):
    """sigma_l and lambda_l for l in Sq(a), and the Schubert basis they act on."""
    sq = combinat.enumerate_sq(a)
    return {l: onh.sigma_seq(l) for l in sq}, {l: onh.lambda_seq(l) for l in sq}, onh.schubert_basis_list(a)


def _part_family(a, b):
    """sigma_alpha and lambda_alpha for alpha in the a x b box, and the
    Schubert basis they act on."""
    parts = combinat.partitions_in_box(a, b)
    sig = {al: onh.sigma_part(al, a, b) for al in parts}
    return sig, {al: onh.lambda_part(al, a, b) for al in parts}, onh.schubert_basis_list(a + b)


def _orthogonality(label, sigmas, lambdas, basis, unit):
    """lambda_k sigma_j = delta_jk unit: one block label(j, k) per (j, k),
    holding the values on the whole basis.  Each sigma_j is evaluated once
    per basis polynomial.

    Evaluation is linear, so lambda_k of a zero sigma value is zero: each
    block starts from the shared zeros and evaluates lambda_k only where
    sigma_j is nonzero.  Every instance still compares the same value, and
    a zero entry matches the shared zero of want by identity."""
    zeros = [SkewPolynomial.zero(basis[0].nvars)] * len(basis)
    for j, sigma in sigmas.items():
        live = [(i, v) for i, v in enumerate(sigma.evaluate(p) for p in basis) if v]
        for k, lam in lambdas.items():
            got = zeros.copy()
            for i, v in live:
                got[i] = lam.evaluate(v)
            yield _Block(label(j, k), unit if j == k else zeros, got)


def _decomposition(label, sum_label, sigmas, lambdas, basis, unit):
    """The e_k = sigma_k lambda_k are orthogonal idempotents, e_j e_m =
    delta_jm e_j (one block label(j, m) per (j, m), holding the values on
    the whole basis), and sum_k e_k = unit (one block, named sum_label).

    Evaluation is linear, so an element sends zero to zero: wherever the
    input of sigma_k or lambda_k is zero, its value is the shared zero,
    unevaluated.  Most e_m values are equal polynomials, so per j, e_j is
    evaluated once per class of equal terms, and each block reads its
    values by class.  Equal inputs give equal outputs, so every instance
    still compares the same value."""
    zero = SkewPolynomial.zero(basis[0].nvars)
    zeros = [zero] * len(basis)

    def image(element, v):
        return element.evaluate(v) if v else zero

    e = {k: [image(sigmas[k], lam.evaluate(p)) for p in basis] for k, lam in lambdas.items()}
    reps = {}  # a value's terms -> (its class, the value)
    cls = {m: [reps.setdefault(frozenset(v.terms.items()), (len(reps), v))[0] for v in vals]
           for m, vals in e.items()}
    for j in sigmas:
        images = [image(sigmas[j], image(lambdas[j], v)) for _, v in reps.values()]
        for m in e:
            yield _Block(label(j, m), e[j] if j == m else zeros, [images[c] for c in cls[m]])
    yield _Block(sum_label, unit, [sum((e[k][i] for k in sigmas), zero) for i in range(len(basis))])


# ---------------------------------------------------------------------------
# checks


def check_defining_relations(params, rng):
    for a in params["a_list"]:
        monos = _monomials_up_to(a, params["dmax"] // 2)
        xs = [SkewPolynomial.variable(a, i) for i in range(1, a + 1)]
        for m in monos:
            p = SkewPolynomial.monomial(a, m)
            dd = {i: oddops.divided_difference(i, p) for i in range(1, a)}
            for i in range(1, a):
                yield ("d%d^2" % i, a, m), SkewPolynomial.zero(a), oddops.divided_difference(i, dd[i])
                if i + 1 < a:
                    lhs = oddops.apply_letters((-i, -i - 1, -i), p)
                    rhs = oddops.apply_letters((-i - 1, -i, -i - 1), p)
                    yield ("braid", a, i, m), lhs, rhs
                yield (
                    ("x_i d_i + d_i x_{i+1}", a, i, m),
                    p,
                    xs[i - 1] * dd[i] + oddops.divided_difference(i, xs[i] * p),
                )
                yield (
                    ("d_i x_i + x_{i+1} d_i", a, i, m),
                    p,
                    oddops.divided_difference(i, xs[i - 1] * p) + xs[i] * dd[i],
                )
                for j in range(1, a + 1):
                    if j not in (i, i + 1):
                        yield (
                            ("x_j d_i + d_i x_j", a, i, j, m),
                            SkewPolynomial.zero(a),
                            xs[j - 1] * dd[i] + oddops.divided_difference(i, xs[j - 1] * p),
                        )
                for j in range(i + 2, a):
                    yield (
                        ("d_i d_j + d_j d_i", a, i, j, m),
                        SkewPolynomial.zero(a),
                        oddops.divided_difference(i, dd[j]) + oddops.divided_difference(j, dd[i]),
                    )
            for i in range(1, a + 1):
                for j in range(i + 1, a + 1):
                    yield (
                        ("x_i x_j + x_j x_i", a, i, j, m),
                        SkewPolynomial.zero(a),
                        xs[i - 1] * (xs[j - 1] * p) + xs[j - 1] * (xs[i - 1] * p),
                    )


def check_e_h_relation(params, rng):
    for a in range(1, params["a_max"] + 1):
        for m in range(1, params["m_max"] + 1):
            tot = SkewPolynomial.zero(a)
            for k in range(0, m + 1):
                term = oddsym.elementary(k, a) * oddsym.complete(m - k, a)
                tot = tot + term.scale((-1) ** (k * (k + 1) // 2))
            yield ("e-h relation", a, m), SkewPolynomial.zero(a), tot


def check_eps_relations(params, rng):

    def fam(f, g, name, a):
        """The even- and odd-sum relations between the families f and g,
        and f's doubling relation when g is f.  The odd-sum instance at i
        needs the two products of the one at i + 1, and the doubling
        relation two of the odd-sum ones, so each product is formed once."""
        products = {}

        def mul(p, i, q, j):
            key = (p, i, q, j)
            if key not in products:
                products[key] = p(i, a) * q(j, a)
            return products[key]

        for m in range(1, params["m_max"] + 1):
            for i in range(1, 2 * m):
                j = 2 * m - i
                if 1 <= i <= a and 1 <= j <= a:
                    yield (name + " even-sum", a, i, j), mul(f, i, g, j), mul(g, j, f, i)
            for i in range(0, 2 * m + 1):
                j = 2 * m + 1 - i
                if 1 <= i <= a - 1 and 1 <= 2 * m - i <= a - 1:
                    lhs = mul(f, i, g, j) + mul(g, j, f, i).scale((-1) ** i)
                    rhs = mul(f, i + 1, g, 2 * m - i).scale((-1) ** i) + mul(g, 2 * m - i, f, i + 1)
                    yield (name + " odd-sum", a, i, j), lhs, rhs
            if f is g and 1 < 2 * m <= a - 1:
                yield (
                    (name + " doubling", a, m),
                    f(2 * m + 1, a).scale(2),
                    mul(f, 1, f, 2 * m) + mul(f, 2 * m, f, 1),
                )

    for a in range(2, params["a_max"] + 1):
        yield from fam(oddsym.elementary, oddsym.elementary, "eps", a)
        yield from fam(oddsym.complete, oddsym.complete, "h", a)
        yield from fam(oddsym.elementary, oddsym.complete, "mixed", a)
        # variable reduction
        for k in range(0, a + 1):
            lhs = oddsym.elementary_in_fewer_vars(k, a)
            rhs = SkewPolynomial.zero(a)
            for j in range(0, k + 1):
                rhs = rhs + (oddsym.elementary(k - j, a) * (oddsym.x_tilde(a, a) ** j)).scale((-1) ** j)
            yield ("variable reduction", a, k), lhs, rhs
        # w_0 action
        for k in range(0, a + 1):
            yield (
                ("w0 on eps", a, k),
                oddsym.elementary(k, a).scale((-1) ** (comb(k, 2) + k * comb(a - 1, 2))),
                apply_w0(oddsym.elementary(k, a)),
            )


def check_pieri(params, rng):
    for a in params["a_list"]:
        for alpha in combinat.partitions_in_box(3, 3):
            for k in range(1, 4):
                lhs = oddsym.schur(alpha, a) * oddsym.elementary(k, a).scale(
                    (-1) ** comb(k, 2)
                )
                rhs = SkewPolynomial.zero(a)
                for sign, mu in oddsym.pieri_expected(alpha, k, a):
                    rhs = rhs + oddsym.schur(mu, a).scale(sign)
                yield ("pieri", a, alpha, k), rhs, lhs


def check_owl_corollary(params, rng):
    """The OWL corollaries: D(fg) = f^{w0} D(g) for every sorted eps-word f
    of degree <= f_dmax and monomial g of degree <= 6, and D(f)^{w0} =
    (-1)^{binom(a,2)} D(f^{w0}) for every monomial f of degree <= 6 or of
    degree a(a-1), so for every polynomial there: both sides are linear in
    f, as w0 and D are.  D lowers the degree by a(a-1), so at a = 4 it is
    zero below degree 12 and lands in the constants at degree 12."""
    for a in range(2, params["a_max"] + 1):
        eps_words = [
            lam
            for hd in range(0, params["f_dmax"] // 2 + 1)
            for lam in combinat.partitions_of(hd, maxpart=a)
        ]
        monos = {m: SkewPolynomial.monomial(a, m) for m in _monomials_up_to(a, 3)}
        d = {m: oddops.longest_dd(a, g) for m, g in monos.items()}
        for lam in eps_words:
            f = oddsym.elementary_word_value(lam, a)
            fw0 = apply_w0(f)
            for m, g in monos.items():
                yield ("D(fg) = f^w0 D(g)", a, lam, m), fw0 * d[m], oddops.longest_dd(a, f * g)
        if comb(a, 2) > 3:  # the half-degree where D lands in the constants
            for m in oddsym.monomials_of_degree(a, comb(a, 2)):
                monos[m] = f = SkewPolynomial.monomial(a, m)
                d[m] = oddops.longest_dd(a, f)
        for m, f in monos.items():
            yield (
                ("D(f)^w0 = (-1)^C(a,2) D(f^w0)", a, m),
                oddops.longest_dd(a, apply_w0(f)).scale((-1) ** comb(a, 2)),
                apply_w0(d[m]),
            )


def check_da_values(params, rng):
    for a in range(1, params["a_max"] + 1):
        yield (
            ("D_a(staircase)", a),
            SkewPolynomial.constant(a, (-1) ** comb(a, 3)),
            oddops.longest_dd(a, staircase(a)),
        )
        yield (
            ("D_a(psi staircase)", a),
            SkewPolynomial.constant(a, (-1) ** comb(a + 1, 4)),
            oddops.longest_dd(a, psi_staircase(a)),
        )


def check_crossing_slide(params, rng):
    for a in range(3, params["a_max"] + 1):
        short = onh.crossing_element(1, a - 2)
        lhs = onh.embed(short, 0, a) * onh.crossing_element(1, a - 1)
        rhs = onh.crossing_element(1, a - 1) * onh.embed(short, 1, a)
        yield ("crossing slide", a), rhs, lhs


def check_da_slide(params, rng):
    for a in range(1, params["a_max"] + 1):
        n = a + 1
        chain = onh.crossing_element(1, a)
        d_lo = onh.embed(onh.d_element(a), 0, n)
        d_hi = onh.embed(onh.d_element(a), 1, n)
        yield ("D_a slide", a), (chain * d_hi).scale((-1) ** comb(a, 3)), d_lo * chain
        # alternative definition of D_a
        if a >= 2:
            alt = onh.embed(onh.d_element(a - 1), 1, a) * onh.crossing_element(a - 1, 1)
            yield ("alt def D_a", a), onh.d_element(a), alt
        # sigma invariance
        yield ("sigma(D_a) = D_a", a), onh.d_element(a), onh.mirror(onh.d_element(a))


def check_ea_standard(params, rng):
    """e_a as the library builds it, (-1)^C(a,3) x^delta D_a, against the
    0-Hecke product; then e_a f = e_a f e_a on random boxes."""
    for a in range(1, params["a_max"] + 1):
        yield (
            ("e_a = (-1)^C(a,3) x^delta D_a", a),
            onh.idempotent_e(a),
            onh.zero_hecke_product(a),
        )
    for a in range(2, min(params["a_max"], 4) + 1):
        for t in range(params["random_boxes"]):
            f, word = SkewPolynomial.one(a), ()
            while sum(word) < 4:  # degree < 8
                word += (rng.randint(1, a),)
                f = f * oddsym.elementary(word[-1], a)
                if rng.random() < 0.4:
                    break
            yield ("e_a f e_a = e_a f", a, t, word), onh.idempotent_e(a) * onh.from_polynomial(f), onh.box(f, a)


def check_ea_idem(params, rng):
    for a in range(1, params["a_max"] + 1):
        ea = onh.idempotent_e(a)
        yield ("e_a^2 = e_a", a), ea, ea * ea
        yield ("D_a e_a = D_a", a), onh.d_element(a), onh.d_element(a) * ea
    # 0-Hecke relations
    for a in range(2, min(params["a_max"], 4) + 1):
        for r in range(1, a):
            z = onh.zero_hecke(a, r)
            yield ("0-Hecke idempotent", a, r), z, z * z
            if r + 1 < a:
                z2 = onh.zero_hecke(a, r + 1)
                yield ("0-Hecke braid", a, r), z2 * z * z2, z * z2 * z
            for s in range(r + 2, a):
                z2 = onh.zero_hecke(a, s)
                yield ("0-Hecke distant", a, r, s), z2 * z, z * z2
    # absorption of embedded projectors
    for (a, b, c) in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]:
        n = a + b + c
        if n > params["a_max"] + 1:
            continue
        e_n = onh.idempotent_e(n)
        mid = onh.embed(onh.idempotent_e(b), a, n)
        yield ("absorb above", a, b, c), e_n, mid * e_n
        yield ("absorb below", a, b, c), e_n, e_n * mid
    # e_a slide (positive direction)
    for a in range(2, min(params["a_max"], 4) + 1):
        n = a + 1
        ea = onh.idempotent_e(a)
        chain = onh.crossing_element(1, a)
        yield ("e_a slide", a), chain * onh.embed(ea, 1, n), onh.embed(ea, 0, n) * chain


def check_splitter_assoc(params, rng):
    """Associativity of splitters and merges, and how crossings combine.

    The triangle slides the a-leg of an (a, b) splitter across a thick
    c-strand, and its sign is (-1)^{binom(a,2) binom(c,2)}.  The leg crosses
    the c-strand below e_a (x) e_c in the plain orientation,
    crossing_element(c, a), while every splitter uses the mirror one.
    Now e_k = +-x^{delta_k} D_k, with a sign fixed by k, and D_k has parity
    binom(k, 2).  Below D_a (x) D_c the mirror orientation gives D_{a+c}
    and the plain one gives D_{a+c} after D_a and D_c trade places, which
    is their super-interchange sign: the "D_a D_b over (mirror) crossing"
    pair below states exactly this.  So the c-strand's crossing is that
    sign times up_splitter(a, c) on the first a+c strands.  With mirror
    crossings only, the triangle is a composite of splitters with no sign:
    the (a, c) and (a, b) mirror crossings compose to the (a, b+c) one, and
    e_{b+c} absorbs e_c (x) e_b, leaving up_splitter(a, b+c).  The sign is
    first -1 at (a, b, c) = (2, 1, 2), above the default total_max = 4.
    """
    total = params["total_max"]
    for a in range(1, total - 1):
        for b in range(1, total - a):
            for c in range(1, total - a - b + 1):
                n = a + b + c
                lhs = onh.embed(onh.up_splitter(a, b), 0, n) * onh.up_splitter(a + b, c)
                rhs = onh.embed(onh.up_splitter(b, c), a, n) * onh.up_splitter(a, b + c)
                sign = (-1) ** ((a * b * comb(c, 2)) % 2)
                yield ("up-splitter assoc", a, b, c), rhs.scale(sign), lhs
                e_n = onh.idempotent_e(n)
                yield ("merge assoc left", a, b, c), e_n, e_n * onh.embed(onh.idempotent_e(a + b), 0, n)
                yield ("merge assoc right", a, b, c), e_n, e_n * onh.embed(onh.idempotent_e(b + c), a, n)
                # triangle: crossing a c-strand under a splitter
                tcross = (
                    onh.embed(onh.idempotent_e(a), 0, n)
                    * onh.embed(onh.idempotent_e(c), a, n)
                    * onh.embed(onh.crossing_element(c, a), 0, n)
                )
                lhs_t = onh.embed(onh.idempotent_e(b + c), a, n) * tcross * onh.embed(onh.up_splitter(a, b), c, n)
                rhs_t = onh.up_splitter(a, b + c) * onh.idempotent_e(n)
                yield ("triangle", a, b, c), rhs_t.scale((-1) ** (comb(a, 2) * comb(c, 2) % 2)), lhs_t
    # merge identities for plain crossings
    for (a, b, c) in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 3)]:
        n = a + b + c
        if n > total + 1:
            continue
        yield (
            ("crossings combine flat", a, b, c),
            onh.embed(onh.crossing_element(a, c), b, n) * onh.embed(onh.crossing_element(a, b), 0, n),
            onh.crossing_element(a, b + c),
        )
        yield (
            ("crossings combine signed", a, b, c),
            (
                onh.embed(onh.crossing_element(a, c), 0, n) * onh.embed(onh.crossing_element(b, c), a, n)
            ).scale((-1) ** ((a * b * comb(c, 2)) % 2)),
            onh.crossing_element(a + b, c),
        )
    # D through crossing
    for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        n = a + b
        if n > total + 1:
            continue
        d_ab = onh.embed(onh.d_element(a), 0, n) * onh.embed(onh.d_element(b), a, n)
        yield (
            ("D_a D_b over crossing", a, b),
            onh.d_element(n).scale((-1) ** ((comb(a, 2) * comb(b, 2)) % 2)),
            d_ab * onh.crossing_element(b, a),
        )
        mirror = onh.mirror(onh.crossing_element(a, b))
        yield ("D_a D_b over mirror crossing", a, b), onh.d_element(n), d_ab * mirror


def check_oval(params, rng):
    pairs = params["pairs"]
    for (a, b) in pairs:
        en = onh.idempotent_e(a + b)
        sig, lam, basis = _part_family(a, b)
        for alpha, s in sig.items():
            yield ("deg sigma_alpha", a, b, alpha), [2 * sum(alpha) - 2 * a * b], s.degrees()
        yield from _orthogonality(lambda al, be: ("lambda_beta sigma_alpha", a, b, al, be),
                                  sig, lam, basis, [en.evaluate(p) for p in basis])


def check_dapb(params, rng):
    for (a, b) in params["pairs"]:
        for alpha in combinat.partitions_in_box(a, b):
            pa = list(alpha) + [0] * (a - len(alpha))
            for beta in combinat.partitions_in_box(b, a):
                pb = list(beta) + [0] * (b - len(beta))
                exps = tuple(
                    [(a - 1 - j) + pa[j] for j in range(a)]
                    + [j + pb[b - 1 - j] for j in range(b)]
                )
                val = oddops.longest_dd(a + b, SkewPolynomial.monomial(a + b, exps))
                if alpha == combinat.hat_partition(beta, b, a):
                    want = SkewPolynomial.constant(
                        a + b, (-1) ** ((onh.omega(beta, b) + comb(a + b, 3)) % 2)
                    )
                else:
                    want = SkewPolynomial.zero(a + b)
                yield ("D_{a+b} dotted", a, b, alpha, beta), want, val


def check_shuffle(params, rng):
    for a in (2, 3):
        for i in range(1, a):
            for m in range(0, params["m_max"] + 1):
                for k in range(1, 5):

                    def mono(p, q):
                        e = [0] * a
                        e[i - 1], e[i] = p, q
                        return SkewPolynomial.monomial(a, e)

                    lhs = oddops.divided_difference(i, mono(m, m + k))
                    if k == 1:
                        want = oddops.divided_difference(i, mono(m + 1, m)).scale((-1) ** m)
                    elif k % 2 == 0:
                        want = oddops.divided_difference(i, mono(m + k, m)).scale(-1)
                    else:
                        want = (
                            oddops.divided_difference(i, mono(m + k, m)).scale((-1) ** m)
                            - oddops.divided_difference(i, mono(m + k - 1, m + 1))
                            + oddops.divided_difference(i, mono(m + 1, m + k - 1)).scale((-1) ** m)
                        )
                    yield ("shuffle", a, i, m, k), want, lhs
                    if k % 2 == 1:
                        big = oddops.divided_difference(i, mono(m + k, m)).scale((-1) ** m)
                        for j in range(1, k // 2 + 1):
                            big = big - oddops.divided_difference(i, mono(m + k - j, m + j)).scale(
                                2 * (-1) ** ((m * (j + 1)) % 2)
                            )
                        yield ("big odd shuffle", a, i, m, k), big, lhs


def check_staircase_vanish(params, rng):
    for a in range(2, params["a_max"] + 1):
        for m in range(2, a + 1):
            for p in range(a - (m - 1), a):
                exps = tuple([a - 1 - j for j in range(m - 1)] + [p])
                yield (
                    ("partial staircase", a, m, p),
                    SkewPolynomial.zero(m),
                    oddops.longest_dd(m, SkewPolynomial.monomial(m, exps)),
                )


def check_add_step(params, rng):
    for a in range(2, params["a_max"] + 1):
        exps = tuple([a - 2 - j for j in range(a - 1)] + [a - 1])
        yield (
            ("add step", a),
            SkewPolynomial.constant(a, (-1) ** comb(a - 1, 2)),
            oddops.longest_dd(a, SkewPolynomial.monomial(a, exps)),
        )


def check_reorder_revstair(params, rng):
    for a in range(1, params["a_max"] + 1):
        yield (
            ("reverse staircase", a),
            oddops.longest_dd(a, staircase(a)).scale((-1) ** comb(a, 4)),
            oddops.longest_dd(a, reverse_staircase(a)),
        )


def check_nil_orth(params, rng):
    for a in params["a_list"]:
        ea = onh.idempotent_e(a)
        sig, lam, basis = _seq_family(a)
        yield from _orthogonality(lambda l, lp: ("lambda sigma", a, lp, l),
                                  sig, lam, basis, [ea.evaluate(p) for p in basis])


def check_identity_decomposition(params, rng):
    for a in params["a_list"]:
        sig, lam, basis = _seq_family(a)
        yield ("idempotents", a), factorial(a), len(sig)
        # the unit is the identity: its values are the basis itself
        yield from _decomposition(lambda l, lp: ("e_l e_l'", a, l, lp),
                                  ("sum e_l = 1", a), sig, lam, basis, basis)


def check_eaeb_decomposition(params, rng):
    for (a, b) in params["pairs"]:
        n = a + b
        sig, lam, basis = _part_family(a, b)
        yield ("idempotents", a, b), comb(n, a), len(sig)
        eab = onh.embed(onh.idempotent_e(a), 0, n) * onh.embed(onh.idempotent_e(b), a, n)
        yield from _decomposition(lambda be, al: ("e_beta e_alpha", a, b, al, be),
                                  ("sum e_alpha = e_a x e_b", a, b),
                                  sig, lam, basis, [eab.evaluate(p) for p in basis])
        ms = sorted(2 * sum(al) - a * b for al in sig)
        yield (
            ("degree multiset", a, b),
            qgrade.q_binomial(a + b, a).exponent_multiset(),
            ms,
        )


def check_ea_eone(params, rng):
    for a in range(1, params["a_max"] + 1):
        n = a + 1
        lhs = onh.embed(onh.idempotent_e(a), 0, n)
        tot = onh.OnhElement.zero(n)
        for s in range(0, a + 1):
            term = (
                onh.embed(onh.box(oddsym.elementary(a - s, a), a), 0, n)
                * onh.up_splitter(a, 1)
                * onh.idempotent_e(n)
                * onh.from_polynomial(SkewPolynomial.monomial(n, (0,) * a + (s,)))
            )
            tot = tot + term
        yield ("e_a x 1 expansion", a), tot.scale((-1) ** comb(a, 2)), lhs


def check_center(params, rng):
    for a in params["a_list"]:
        gens = [onh.dot(a, r) for r in range(1, a + 1)] + [onh.cross(a, r) for r in range(1, a)]
        for k in range(1, a + 1):
            f = SkewPolynomial.zero(a)
            for subset in itertools.combinations(range(1, a + 1), k):
                e = [0] * a
                for i in subset:
                    e[i - 1] = 2
                f = f + SkewPolynomial.monomial(a, e)
            F = onh.from_polynomial(f)
            for t, g in enumerate(gens):
                yield ("central e_k(x^2)", a, k, t), F * g, g * F
        # power sums of squares, degree <= 8
        for k in (1, 2):
            f = SkewPolynomial.zero(a)
            for i in range(1, a + 1):
                e = [0] * a
                e[i - 1] = 2 * k
                f = f + SkewPolynomial.monomial(a, e)
            F = onh.from_polynomial(f)
            for t, g in enumerate(gens):
                yield ("central p_k(x^2)", a, k, t), F * g, g * F


def check_jacobi_trudi_failure(params, rng):
    """eps_4 is not an integer combination of the half-degree-4 products of
    h_1, h_2, h_3, eps_1, eps_2, eps_3 in OSym_a: appending its row to
    theirs raises the rank by one.  The rank is over Q, and their Z-lattice
    lies in their Q-span, so a vector outside the span is outside the
    lattice too."""
    a = params["a"]
    if a < 4:
        raise DomainError("jacobi_trudi_failure needs a >= 4: its target eps_4 has degree 4, "
                          "and there is none in %d variables" % a)
    gens = {("h", k): oddsym.complete(k, a) for k in (1, 2, 3)}
    gens.update({("e", k): oddsym.elementary(k, a) for k in (1, 2, 3)})

    def comps(n):
        if n == 0:
            yield ()
            return
        for p in (1, 2, 3):
            if p <= n:
                for rest in comps(n - p):
                    yield (p,) + rest

    basis = combinat.partitions_of(4, maxpart=a)
    bidx = {lam: i for i, lam in enumerate(basis)}
    rows = []
    for compn in comps(4):
        for flavors in itertools.product("he", repeat=len(compn)):
            f = SkewPolynomial.one(a)
            for fl, k in zip(flavors, compn):
                f = f * gens[(fl, k)]
            rows.append(zlinalg.row(oddsym.expand_in_elementary(f), bidx))
    target = zlinalg.row({(4,): 1}, bidx)
    r1 = zlinalg.int_rank(rows)
    r2 = zlinalg.int_rank(rows + [target])
    yield ("rank jump certifies eps_4 not in span", a), r1 + 1, r2


def check_schubert_basis(params, rng):
    for a in range(2, params["a_max"] + 1):
        monos = sorted(itertools.product(*[range(a - i) for i in range(a)]))
        idx = {m: t for t, m in enumerate(monos)}
        mat = [zlinalg.row(p.terms, idx) for p in onh.schubert_basis_list(a)]
        factors = zlinalg.smith_invariant_factors(mat)
        yield ("unimodular Schubert matrix", a), [1] * len(monos), factors


def check_matrix_iso(params, rng):
    """The e_jk = sigma_j lambda_k, j and k in Sq(a), are a full set of
    a! x a! matrix units in ONH_a: e_jk e_mn = delta_km e_jn.  By
    associativity,

        e_jk e_mn = sigma_j (lambda_k sigma_m) lambda_n
                  = delta_km sigma_j (e_a lambda_n)    (nil_orth)
                  = delta_km sigma_j lambda_n          (e_a lambda_n = lambda_n)
                  = delta_km e_jn.

    So the instances are nil_orth's blocks, lambda_k sigma_m = delta_km e_a
    on the whole Schubert basis (which decides an identity in ONH_a, as in
    onh.witness), and one absorption e_a lambda_n = lambda_n per n: (a!)^3
    + a! instances, where comparing every product on the basis takes
    (a!)^5."""
    yield from check_nil_orth(params, rng)
    for a in params["a_list"]:
        ea = onh.idempotent_e(a)
        for l in combinat.enumerate_sq(a):
            lam = onh.lambda_seq(l)
            yield ("e_a lambda = lambda", a, l), lam, ea * lam


def check_grassmann_recursion(params, rng):
    """The first column of the Grassmann matrix satisfies the companion
    relation x~_1^a = sum_j M_{j1} x~_1^{a-j} in OPol_a, with M_{j1} =
    (-1)^{binom(j-1,2)} eps_j on the left; the series relation f_m = 0
    holds untruncated (N - a >= m) for every m >= 1, so eps(t) z(t) = 1;
    and the column M^{N-a+1} v has the truncated f_m as its entries."""
    for a in range(1, params["a_max"] + 1):
        mat = cyclotomic.grassmann_matrix(a)
        x1 = oddsym.x_tilde(a, 1)
        companion = sum((mat[j - 1][0] * x1 ** (a - j) for j in range(1, a + 1)), SkewPolynomial.zero(a))
        yield ("companion relation", a), x1 ** a, companion
        for m in range(1, params["n_max"] + 1):
            yield ("eps z series", a, m), SkewPolynomial.zero(a), cyclotomic.series_relation(a, a + m, m)
        for n_param in range(a, params["n_max"] + 1):
            col = cyclotomic.grassmann_power_column(a, n_param)
            if n_param - a >= 1:
                yield (
                    ("f_1 vanishes", a, n_param),
                    SkewPolynomial.zero(a),
                    cyclotomic.series_relation(a, n_param, 1),
                )
            for j in range(1, a + 1):
                want = cyclotomic.series_relation(a, n_param, n_param - a + j).scale(
                    (-1) ** comb(n_param - a + j - 1, 2)
                )
                yield ("M^{N-a+1} v entry", a, n_param, j), want, col[j - 1]


def check_oh_rank(params, rng):
    """OH_{a,N} has graded rank q-binom(N, a), centred palindromic, and each
    ideal slice is a direct summand: its Smith factors are all 1, so the
    quotient is torsion-free."""
    for (a, n_param) in params["pairs"]:
        d_max = cyclotomic.default_dmax(a, n_param)
        slices = cyclotomic.h_ideal_slices(a, n_param, d_max)
        q = cyclotomic.quotient_graded_rank(a, n_param, d_max, slices)
        yield ("total rank", a, n_param), comb(n_param, a), q.at_one()
        centered = q * qgrade.QLaurent.q_power(-a * (n_param - a))
        yield ("palindromic", a, n_param), True, centered.is_bar_invariant()
        yield (
            ("matches balanced q-binomial", a, n_param),
            qgrade.q_cardinality_box(a, n_param - a),
            centered,
        )
        # first-column ideal comparison (small a only: a=2 mandated)
        columns = cyclotomic.column_ideal_slices(a, n_param, d_max) if a == 2 and n_param <= 5 else None
        for i, sl in enumerate(slices):
            d = sl.degree
            yield ("torsion-free slice", a, n_param, d), [1] * sl.rank, sl.smith_diagonal
            if columns:
                yield ("h-ideal = column ideal", a, n_param, d), sl.hermite, columns[i].hermite


def check_schur_box(params, rng):
    """In OH_{a,N}, s_empty is nonzero, every Schur polynomial outside the
    a x (N-a) box has remainder zero modulo its slice, and the box Schurs
    of each degree raise the slice's rank by their number."""
    for (a, n_param) in params["pairs"]:
        rep = cyclotomic.schur_box_images(a, n_param)
        for lam, rem in rep["remainders"]:
            yield ("outside Schur vanishes", a, n_param, lam), [0] * len(rem), rem
        for d, (count, jump) in rep["rank_jumps"].items():
            yield ("box Schurs independent", a, n_param, d), count, jump
        yield ("s_empty nonzero", a, n_param), 1, rep["empty_rank"]


def check_mod2(params, rng):
    """eps_k, h_k and Schur polynomials reduce mod 2 to the even ones, OH_{a,N}
    has the graded ranks of the even quotient over GF(2), and (fg) mod 2 =
    (f mod 2)(g mod 2) for every two monomials of degree <= 4, so for every
    two polynomials there: both sides are bilinear, as the skew product is
    and reduction mod 2 is additive."""
    for a in range(1, params["a_max"] + 1):
        for k in range(0, min(a, 4) + 1):
            yield (
                ("eps_k mod 2", a, k),
                evenoracle.Gf2Poly(a, evenoracle.even_elementary(k, a)),
                oddsym.mod2_reduction(oddsym.elementary(k, a)),
            )
        for k in range(0, params["deg_max"] // 2 + 1):
            yield (
                ("h_k mod 2", a, k),
                evenoracle.Gf2Poly(a, evenoracle.even_complete(k, a)),
                oddsym.mod2_reduction(oddsym.complete(k, a)),
            )
        for alpha in combinat.partitions_in_box(min(a, 2), 2):
            yield (
                ("schur mod 2", a, alpha),
                evenoracle.Gf2Poly(a, evenoracle.even_schur(alpha, a)),
                oddsym.mod2_reduction(oddsym.schur(alpha, a)),
            )
        # skew multiplication reduces to commutative multiplication mod 2
        monos = {m: SkewPolynomial.monomial(a, m) for m in _monomials_up_to(a, 2)}
        reduced = {m: oddsym.mod2_reduction(f) for m, f in monos.items()}
        for (m, f), (n, g) in itertools.product(monos.items(), repeat=2):
            yield ("multiply mod 2", a, m, n), reduced[m] * reduced[n], oddsym.mod2_reduction(f * g)
    for (a, n_param) in params["quotient_pairs"]:
        for sl in cyclotomic.h_ideal_slices(a, n_param, 2 * a * (n_param - a)):
            yield (
                ("OH rank mod 2 oracle", a, n_param, sl.degree),
                evenoracle.even_quotient_rank_gf2(a, n_param, sl.degree // 2),
                sl.quotient_rank,
            )


def check_sentinel_mirror_ea_slide(params, rng):
    for a in range(2, params["a_max"] + 1):
        n = a + 1
        ea = onh.idempotent_e(a)
        chain = onh.crossing_element(1, a)
        lhs = onh.embed(ea, 1, n) * chain
        rhs = chain * onh.embed(ea, 0, n)
        # this SHOULD differ; a witness makes the sentinel "fail"
        yield ("mirror slide witness", a), rhs, lhs


def check_sentinel_x1sq_central(params, rng):
    a = params["a"]
    if a < 2:
        raise DomainError("sentinel_x1sq_central needs a >= 2: its witness crosses strands 1 and 2")
    F = onh.from_polynomial(SkewPolynomial.monomial(a, tuple([2] + [0] * (a - 1))))
    d1 = onh.cross(a, 1)
    yield ("x_1^2 commutator witness", a), F * d1, d1 * F


# ---------------------------------------------------------------------------
# parameter kinds and registry

ENVELOPE = {"a": 5, "ab_total": 5, "N": 6, "degree": 12}


class Axis(NamedTuple):
    """One kind of flag-bound check parameter, declared once.

    ``flags`` are the CLI flags that set the parameter; it is set when all
    of them are given.  ``shape`` says what they make: ``"one"`` the flag's
    value, ``"list"`` a list of it, ``"pairs"`` a list of the pair of
    values.  ``exceeds`` tells whether a value (for ``"pairs"``, one pair)
    leaves ``ENVELOPE``, whose bound ``bound`` states; without it the
    envelope does not bound the parameter.  ``clamp(value, r)`` is the value
    under ``--max-rank r``; without it the rank leaves the parameter alone.
    """

    flags: tuple
    shape: str
    bound: str = ""
    exceeds: Callable = None
    clamp: Callable = None

    def from_flags(self, values):
        if self.shape == "pairs":
            return [tuple(values)]
        return [values[0]] if self.shape == "list" else values[0]


_A, _AB, _N, _DEG = ENVELOPE["a"], ENVELOPE["ab_total"], ENVELOPE["N"], ENVELOPE["degree"]

# scalar a is never clamped: jacobi_trudi_failure needs a >= 4, and it runs
# at 6 by design, above the a <= 5 of the thickness sweeps
A_SCALAR = Axis(("a",), "one", "the supported envelope", lambda a: a > 6)
A_MAX = Axis(("a",), "one", "a <= %d" % _A, lambda a: a > _A, lambda a, r: min(a, r))
A_LIST = Axis(("a",), "list", "a <= %d" % _A, lambda a_list: any(a > _A for a in a_list),
              lambda a_list, r: [a for a in a_list if a <= r])
AB_PAIRS = Axis(("a", "b"), "pairs", "a+b <= %d" % _AB, lambda ab: ab[0] + ab[1] > _AB,
                lambda pairs, r: [(a, b) for (a, b) in pairs if a + b <= r + 1])
AN_PAIRS = Axis(("a", "N"), "pairs", "a <= %d, N <= %d" % (_A, _N), lambda an: an[0] > _A or an[1] > _N,
                lambda pairs, r: [(a, n) for (a, n) in pairs if a <= r])
ABC_TOTAL = Axis(("a",), "one", "a+b+c <= %d" % _AB, lambda t: t > _AB, lambda t, r: min(t, r + 1))
N_MAX = Axis(("N",), "one", "N <= %d" % _N, lambda n: n > _N)
DEGREE = Axis(("dmax",), "one", "degree <= %d" % _DEG, lambda d: d > _DEG)
M_MAX = Axis(("dmax",), "one")

# the kind of each flag-bound parameter, by name; a check's REGISTRY row
# declares the kind of its "pairs" and may override any other
AXES = {
    "a": A_SCALAR, "a_max": A_MAX, "a_list": A_LIST, "total_max": ABC_TOTAL,
    "n_max": N_MAX, "quotient_pairs": AN_PAIRS, "m_max": M_MAX,
    "dmax": DEGREE, "deg_max": DEGREE, "f_dmax": DEGREE,
}


class Check(NamedTuple):
    fn: Callable
    defaults: dict
    axes: dict = {}  # per-check Axis overrides of AXES, e.g. the kind of "pairs"


REGISTRY = {
    "defining_relations": Check(check_defining_relations, {"a_list": [2, 3, 4], "dmax": 8}),
    "e_h_relation": Check(check_e_h_relation, {"a_max": 5, "m_max": 8}),
    "eps_relations": Check(check_eps_relations, {"a_max": 5, "m_max": 5}),
    "pieri": Check(check_pieri, {"a_list": [3, 4]}),
    "owl_corollary": Check(check_owl_corollary, {"a_max": 4, "f_dmax": 8}),
    "da_values": Check(check_da_values, {"a_max": 5}),
    "crossing_slide": Check(check_crossing_slide, {"a_max": 5}),
    "da_slide": Check(check_da_slide, {"a_max": 5}),
    "ea_standard": Check(check_ea_standard, {"a_max": 5, "random_boxes": 20}),
    "ea_idem": Check(check_ea_idem, {"a_max": 5}),
    "splitter_assoc": Check(check_splitter_assoc, {"total_max": 4}),
    "oval": Check(check_oval, {"pairs": [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)]}, {"pairs": AB_PAIRS}),
    "dapb": Check(check_dapb, {"pairs": [(1, 1), (2, 1), (2, 2), (2, 3)]}, {"pairs": AB_PAIRS}),
    "shuffle": Check(check_shuffle, {"m_max": 4}),
    "staircase_vanish": Check(check_staircase_vanish, {"a_max": 5}),
    "add_step": Check(check_add_step, {"a_max": 5}),
    "reorder_revstair": Check(check_reorder_revstair, {"a_max": 5}),
    "nil_orth": Check(check_nil_orth, {"a_list": [2, 3, 4]}),
    "identity_decomposition": Check(check_identity_decomposition, {"a_list": [2, 3, 4]}),
    "eaeb_decomposition": Check(check_eaeb_decomposition, {"pairs": [(1, 1), (2, 1), (1, 2), (2, 2)]}, {"pairs": AB_PAIRS}),
    "ea_eone": Check(check_ea_eone, {"a_max": 4}),
    "center": Check(check_center, {"a_list": [2, 3]}),
    "jacobi_trudi_failure": Check(check_jacobi_trudi_failure, {"a": 6}),
    "schubert_basis": Check(check_schubert_basis, {"a_max": 4}),
    "matrix_iso": Check(check_matrix_iso, {"a_list": [2, 3]}),
    "grassmann_recursion": Check(check_grassmann_recursion, {"a_max": 3, "n_max": 6}),
    "oh_rank": Check(check_oh_rank, {"pairs": [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5)]}, {"pairs": AN_PAIRS}),
    "schur_box": Check(check_schur_box, {"pairs": [(2, 3), (2, 4)]}, {"pairs": AN_PAIRS}),
    "mod2": Check(check_mod2, {"a_max": 4, "deg_max": 8, "quotient_pairs": [(1, 3), (2, 3), (2, 4), (3, 4)]}),
    "sentinel_mirror_ea_slide": Check(check_sentinel_mirror_ea_slide, {"a_max": 4}),
    "sentinel_x1sq_central": Check(check_sentinel_x1sq_central, {"a": 2}),
}

# sentinels are must-fail by design
EXPECTED_STATUS = {cid: "pass" for cid in REGISTRY}
EXPECTED_STATUS["sentinel_mirror_ea_slide"] = "fail"
EXPECTED_STATUS["sentinel_x1sq_central"] = "fail"


def check_ids():
    return list(REGISTRY)


def check_axes(check_id):
    """A check's flag-bound parameters, in REGISTRY order, each with its Axis."""
    axes = dict(AXES, **REGISTRY[check_id].axes)
    return {name: axes[name] for name in default_params(check_id) if axes.get(name)}


def _envelope_violation(check_id, params):
    for name, axis in check_axes(check_id).items():
        value = params[name]
        if axis.exceeds is None:
            continue
        if axis.shape == "pairs":
            over = [pair for pair in value if axis.exceeds(pair)]
            if over:
                return "pair %r exceeds %s" % (over[0], axis.bound)
        elif axis.exceeds(value):
            return "%s=%r exceeds %s" % (name, value, axis.bound)
    return None


def params_from_flags(check_id, a=None, b=None, n_param=None, dmax=None):
    """Translate the generic CLI flags onto a check's own parameters.

    A parameter is set when every flag of its Axis is given.  A given flag
    that sets no parameter is an error that names the flags the check
    takes, so no flag is ignored or read as another.  Every flag counts
    strands or degrees, so a negative one is an error too.
    """
    given = {"a": a, "b": b, "N": n_param, "dmax": dmax}
    given = {flag: v for flag, v in given.items() if v is not None}
    negative = ["--%s %d" % (flag, v) for flag, v in given.items() if v < 0]
    if negative:
        raise DomainError("flags must be >= 0, got %s" % ", ".join(negative))
    axes = check_axes(check_id)
    out, used = {}, set()
    for name, axis in axes.items():
        if all(flag in given for flag in axis.flags):
            out[name] = axis.from_flags([given[flag] for flag in axis.flags])
            used.update(axis.flags)
    unused = ["--" + flag for flag in given if flag not in used]
    if unused:
        takes = ["%s (%s)" % (" with ".join("--" + f for f in axis.flags), name) for name, axis in axes.items()]
        raise DomainError("check %r does not use %s as given; it takes %s"
                          % (check_id, ", ".join(unused), ", ".join(takes)))
    return out


def params_for_max_rank(check_id, max_rank):
    """Clamp a check's default sweep to thickness <= max_rank.  A sweep that
    this empties runs no instance and reports skipped; scalar a is left
    alone."""
    defaults = default_params(check_id)
    return {name: axis.clamp(defaults[name], max_rank) for name, axis in check_axes(check_id).items() if axis.clamp}


def default_params(check_id):
    if check_id not in REGISTRY:
        raise UnknownCheckError("unknown check id %r" % check_id)
    return dict(REGISTRY[check_id].defaults)


def run_check(check_id, params=None, seed=DEFAULT_SEED):
    if check_id not in REGISTRY:
        raise UnknownCheckError("unknown check id %r" % check_id)
    fn, defaults, _ = REGISTRY[check_id]
    merged = dict(defaults)
    if params:
        for k, v in params.items():
            if k not in defaults:
                raise DomainError("check %r has no parameter %r" % (check_id, k))
            merged[k] = v
    reason = _envelope_violation(check_id, merged)
    start = time.perf_counter()
    if reason is not None:
        return CheckReport(check_id, merged, "skipped", [_triple("envelope", "within limits", reason)], seed)
    rng = random.Random("%s:%s" % (seed, check_id))
    try:
        instances, failures = _tally(fn(merged, rng))
    except (DomainError, combinat.BoxViolationError):
        raise  # the input is outside the check's domain: a usage error
    except Exception as exc:
        # a fault in the library ends this check only; the rest still report
        details = [_triple("internal error", "no exception", error_line(exc))]
        return CheckReport(check_id, merged, "error", details, seed, time.perf_counter() - start)
    wall = time.perf_counter() - start
    if not instances:
        # a sweep that checked nothing proves nothing, so it never passes
        details = [_triple("sweep", "at least 1 instance", "empty sweep: 0 instances")]
        return CheckReport(check_id, merged, "skipped", details, seed, wall)
    status = "fail" if failures else "pass"
    return CheckReport(check_id, merged, status, failures[:32], seed, wall, instances)


def error_line(exc):
    """An exception in one line, naming where it was raised."""
    # imported here to keep it off the start-up path
    import traceback

    where = traceback.extract_tb(exc.__traceback__)[-1]
    return "%s: %s (%s:%d in %s)" % (type(exc).__name__, exc, os.path.basename(where.filename), where.lineno,
                                     where.name)


def _run_one(args):
    return run_check(*args)


def run_many(ids, params=None, seed=DEFAULT_SEED, parallel=1):
    """Run the checks ``ids`` in order; ``params`` maps a check id to its
    params, and a check it leaves out runs at its defaults."""
    params = params or {}
    jobs = [(cid, params.get(cid), seed) for cid in ids]
    if parallel > 1 and len(jobs) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(j) for j in jobs]
    return results


def all_match_expected(reports):
    return all(r.status == EXPECTED_STATUS.get(r.check_id, "pass") for r in reports)


def reports_to_json(reports):
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)
